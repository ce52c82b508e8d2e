"""The public names the benchmark, the scripts and the README use stay exported.

`bench/` and `scripts/` import the library only through ``voimc``, and the
README's python blocks show it the same way; a name they use that drops out
of ``voimc.__all__`` breaks them without failing any library test, so this
module checks their sources statically.
"""

import ast
import re
from pathlib import Path

import pytest

import voimc

ROOT = Path(__file__).resolve().parent.parent
CLIENT_SOURCES = sorted(
    [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
)

README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


def _voimc_names(source: str) -> set[str]:
    """Names ``source`` imports from ``voimc`` or reads as ``voimc.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "voimc":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "voimc"
        ):
            names.add(node.attr)
    return names


def test_client_sources_found():
    assert {p.parent.name for p in CLIENT_SOURCES} == {"bench", "scripts"}


@pytest.mark.parametrize(
    "path", CLIENT_SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in CLIENT_SOURCES]
)
def test_client_uses_only_exported_names(path):
    assert _voimc_names(path.read_text()) <= set(voimc.__all__)


def test_readme_uses_only_exported_names():
    names = set().union(*map(_voimc_names, README_BLOCKS))
    assert names  # the library sketch imports from voimc
    assert names <= set(voimc.__all__)


def test_all_has_no_duplicates():
    assert len(voimc.__all__) == len(set(voimc.__all__))


def test_every_export_resolves():
    for name in voimc.__all__:
        assert hasattr(voimc, name), name
