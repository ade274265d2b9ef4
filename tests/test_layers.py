"""Import layering of the package, read from the source with ``ast``.

The section ring (``theta``) and the Floer ring (``fukaya``, whose exponents
are ``lattice`` counts) are built independently and compared only in ``cli``.
Every import statement counts, including one inside a function body, which
runs only when the function is called.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tatemirror"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
TEST_MODULES = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}

# what fukaya may take from theta: the shared element type, its table loop and
# slot points, the shift window, and the mean behind a triangle's vertices
SHARED_FROM_THETA = {"ThetaElement", "_kept_shifts", "_slot_point", "j_range",
                     "weighted_mean"}


def imports(module: str) -> set:
    """(imported module, name) pairs of every import in ``module``; the name
    is "*" when the whole module is imported.  Relative imports are resolved
    against the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, "*") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("tatemirror" + (f".{node.module}" if node.module else "")
                    if node.level else node.module)
            for alias in node.names:
                if node.level and not node.module:  # from . import theta
                    found.add((f"{base}.{alias.name}", "*"))
                else:
                    found.add((base, alias.name))
    return found


def imported_modules(module: str) -> set:
    return {name for name, _ in imports(module)}


@pytest.mark.parametrize("module, forbidden", [
    ("lattice", {"theta", "fukaya"}),
    ("theta", {"lattice", "fukaya"}),
])
def test_the_exponent_kernels_do_not_import_each_other(module, forbidden):
    assert imported_modules(module).isdisjoint({f"tatemirror.{m}" for m in forbidden})


def test_fukaya_takes_only_the_shared_element_machinery_from_theta():
    taken = {name for mod, name in imports("fukaya") if mod == "tatemirror.theta"}
    assert taken  # the reader does see fukaya's imports
    assert taken <= SHARED_FROM_THETA, taken - SHARED_FROM_THETA


@pytest.mark.parametrize("module", MODULES)
def test_no_package_module_imports_the_tests(module):
    reached = {part for name in imported_modules(module) for part in name.split(".")}
    assert reached.isdisjoint(TEST_MODULES), reached & TEST_MODULES

