"""The public names the benchmark and the README use stay exported.

`bench/` imports the library only through ``voimc``, and the README's python
blocks show it the same way; a name they use that drops out of
``voimc.__all__`` breaks them without failing any library test, so this
module checks their sources statically.  It also checks statically that
no library module but ``__init__.py`` names `draws_for_budget`, which only
the benchmark uses, that no module or script but ``estimators.py`` and
``experiment.py`` names `nested_allocation`, that no library module but
``rng.py`` names a random generator, and that no library module but
``validate.py`` names an integer type, so every integer argument goes
through ``validate._check_int``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import voimc

ROOT = Path(__file__).resolve().parent.parent
CLIENT_SOURCES = sorted((ROOT / "bench").glob("*.py"))

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
    assert {p.parent.name for p in CLIENT_SOURCES} == {"bench"}


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


_LAZY_EXPORTS = """
import sys, voimc
assert not [m for m in sys.modules if m.startswith(("numpy", "voimc."))], "eager"
assert set(voimc.__all__) <= set(dir(voimc)), "dir"
for name in voimc.__all__:
    getattr(voimc, name)
try:
    voimc.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name resolved")
namespace = {}
exec("from voimc import *", namespace)
assert set(voimc.__all__) <= set(namespace), "star import"
"""


def test_exports_resolve_lazily_in_a_fresh_interpreter():
    # `import voimc` loads no submodule; each name loads on first use, `dir`
    # lists the names before they load, and an unknown name still fails
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_EXPORTS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


LIBRARY_SOURCES = sorted((ROOT / "src" / "voimc").glob("*.py"))


def _named(source: str) -> set[str]:
    """Every name, attribute and imported alias ``source`` mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name.rsplit(".", 1)[-1], node.asname))
    return names


def _sources_but(name: str):
    paths = [p for p in LIBRARY_SOURCES if p.name != name]
    return pytest.mark.parametrize("path", paths, ids=[p.name for p in paths])


@_sources_but("__init__.py")
def test_library_never_names_draws_for_budget(path):
    # the estimators spend the prefix rule through `prefix_level_counts`;
    # `draws_for_budget` stays exported, by ``__init__.py``, for the
    # benchmark only
    assert "draws_for_budget" not in _named(path.read_text())


def test_only_the_study_dispatch_names_nested_allocation():
    # `experiment.run_estimator` is the one place a budget becomes a nested
    # split, for the study and the bit dump alike; `estimators.py`, which
    # defines the split, may use it too
    sources = [*LIBRARY_SOURCES, *sorted((ROOT / "scripts").glob("*.py"))]
    sources = [p for p in sources if p.name != "estimators.py"]
    naming = {p.name for p in sources if "nested_allocation" in _named(p.read_text())}
    assert naming == {"experiment.py"}


# numpy's bit generators and seeding entry points; `RngStream.generator` is
# the one place that may name them
_GENERATOR_NAMES = {
    "BitGenerator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "SeedSequence",
    "default_rng",
    "RandomState",
}


@_sources_but("rng.py")
def test_only_rng_module_names_a_bit_generator(path):
    assert not _GENERATOR_NAMES & _named(path.read_text())


@_sources_but("validate.py")
def test_only_validate_module_checks_integers(path):
    # `_check_int` is the one integer-argument check; a second, hand-rolled
    # ``isinstance(value, np.integer)`` or ``numbers.Integral`` check would
    # name `integer` or `Integral`
    assert not {"integer", "Integral"} & _named(path.read_text())
