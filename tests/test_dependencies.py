"""The package imports only numpy, scipy and the standard library, and its
modules keep their layering."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "swarmplan"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "swarmplan"}


def outside_imports(source):
    """The top-level packages of source's absolute imports that are not
    allowed, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - ALLOWED)


def test_package_imports_only_numpy_scipy_and_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    bad = {str(p.relative_to(PACKAGE)): outside_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in bad.items() if found} == {}


def package_imports(source):
    """The swarmplan modules source imports, relatively or by absolute name,
    sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("swarmplan.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("swarmplan"):
                    continue
                module = module[len("swarmplan"):].lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return sorted(found)


def test_geometry_imports_nothing_from_opt_engine():
    # separators are GJK alone: no QP solver stands behind them
    assert "opt_engine" not in package_imports((PACKAGE / "geometry.py").read_text())


def imported_modules(source):
    """The modules source imports by absolute name, a name imported from a
    module counted as its submodule too (from scipy import linalg gives
    scipy.linalg), sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return sorted(found)


def test_smoothing_imports_nothing_from_scipy_linalg():
    # refinement carries each robot's B-spline coefficients, so no dense
    # least-squares fit (and no LAPACK factor waking a BLAS worker thread)
    # stands behind its warm starts
    assert imported_modules("from scipy import linalg\nimport scipy.sparse.linalg\n") == [
        "scipy", "scipy.linalg", "scipy.sparse.linalg",
    ]
    for name in ("bezier_opt.py", "refine.py"):
        found = imported_modules((PACKAGE / name).read_text())
        assert [m for m in found if m == "scipy.linalg" or m.startswith("scipy.linalg.")] == [], name


def unused_imports(source):
    """The names source's imports bind that it never reads, sorted."""
    bound, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(bound - read)


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports("import itertools\nimport numpy as np\nnp.zeros(1)\n") == ["itertools"]
    modules = sorted(PACKAGE.rglob("*.py"))
    found = {str(p.relative_to(PACKAGE)): unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
