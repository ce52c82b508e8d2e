"""The public names the benchmark and the scripts use stay exported.

`bench/` and `scripts/` import the library only through ``voimc``; a name
they use that drops out of ``voimc.__all__`` breaks them without failing any
library test, so this module checks their sources statically.
"""

import ast
from pathlib import Path

import pytest

import voimc

ROOT = Path(__file__).resolve().parent.parent
CLIENT_SOURCES = sorted(
    [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
)


def _voimc_names(path: Path) -> set[str]:
    """Names ``path`` imports from ``voimc`` or reads as ``voimc.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
    assert _voimc_names(path) <= set(voimc.__all__)


def test_all_has_no_duplicates():
    assert len(voimc.__all__) == len(set(voimc.__all__))


def test_every_export_resolves():
    for name in voimc.__all__:
        assert hasattr(voimc, name), name
