"""The package imports only numpy, scipy and the standard library, and its
modules keep their layering."""

import ast
import os
import pathlib
import subprocess
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
    return sorted({m for node in ast.walk(ast.parse(source)) for m in statement_imports(node)})


def statement_imports(node):
    """The modules one statement imports by absolute name, as
    imported_modules counts them; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


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


def private_scipy_modules(source):
    """The modules of scipy that source imports and scipy keeps private (a
    dotted part that starts with an underscore), sorted."""
    return [
        m for m in imported_modules(source)
        if m.split(".")[0] == "scipy" and any(part.startswith("_") for part in m.split("."))
    ]


def scipy_optimize_imports(source):
    """(function, module) for each module of scipy.optimize, the package or
    a submodule, that source imports: function names the function whose body
    holds the import, None at module level; sorted."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            found.update(
                (function, m) for m in statement_imports(child)
                if m == "scipy.optimize" or m.startswith("scipy.optimize.")
            )
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda item: (item[0] or "", item[1]))


HIGHS_BINDING = "scipy.optimize._highspy._core"


def test_only_opt_engine_imports_a_private_scipy_module_the_highs_binding():
    # HiGHS' binding inside scipy is private to scipy: the scipy version
    # pinned in CI keeps it stable, and one module depends on it.
    # opt_engine loads it by itself, not by an import statement, which would
    # run scipy.optimize's package init; nothing imports scipy.optimize at
    # module level, and only prune_faces, the tests' reference, calls linprog
    assert private_scipy_modules(
        "import scipy.optimize\nfrom scipy.optimize._highspy import _core\n"
    ) == ["scipy.optimize._highspy", "scipy.optimize._highspy._core"]
    assert scipy_optimize_imports(
        "import scipy.optimize\ndef f():\n    from scipy import optimize\n"
    ) == [(None, "scipy.optimize"), ("f", "scipy.optimize")]
    modules = sorted(PACKAGE.rglob("*.py"))
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in modules}
    assert [name for name, source in sources.items() if HIGHS_BINDING in source] == ["opt_engine.py"]
    found = {name: private_scipy_modules(source) for name, source in sources.items()}
    assert {name: names for name, names in found.items() if names} == {}
    found = {name: scipy_optimize_imports(source) for name, source in sources.items()}
    assert {name: names for name, names in found.items() if names} == {
        "corridor.py": [("prune_faces", "scipy.optimize"), ("prune_faces", "scipy.optimize.linprog")]
    }


def run_fresh(code):
    """Run code in a fresh interpreter that finds the package, with every
    warning an error; return its standard output.  The test process itself
    has imported scipy.optimize, for the tests' reference solvers."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# both scipy's public milp and solve_ilp solve a knapsack whose root LP is
# fractional through the one binding: max 2 z0 + 3 z1 + 4 z2 with
# 3 z0 + 4 z1 + 5 z2 <= 8 takes z0 and z2, worth 6
SOLVE_BOTH = """
import numpy as np
from scipy.optimize import LinearConstraint, milp
from swarmplan.opt_engine import BinaryILP, solve_ilp
c, a = np.array([2.0, 3.0, 4.0]), np.array([[3.0, 4.0, 5.0]])
public = milp(-c, constraints=LinearConstraint(a, -np.inf, 8.0), integrality=np.ones(3), bounds=(0, 1))
ours = solve_ilp(BinaryILP(c, None, None, a, np.array([8.0])))
print(-public.fun, public.x.round().tolist(), ours.objective, ours.z.tolist())
"""
SAME_BINDING = """
import sys
from scipy.optimize._highspy import _core
print(_core is opt_engine._highspy, sys.modules["scipy.optimize._highspy._core"] is opt_engine._highspy)
"""


def test_the_cli_loads_the_highs_binding_without_scipy_optimize():
    loaded = run_fresh(
        "import sys, swarmplan.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    ).split()
    assert HIGHS_BINDING in loaded
    # the binding and its own submodules only: neither scipy.optimize nor
    # scipy.optimize._highspy, whose package inits the load skips
    assert [m for m in loaded if m != HIGHS_BINDING and not m.startswith(HIGHS_BINDING + ".")] == []


def test_scipy_optimize_imported_later_shares_the_binding():
    out = run_fresh("from swarmplan import opt_engine\nimport scipy.optimize\n" + SAME_BINDING + SOLVE_BOTH)
    assert out.splitlines() == ["True True", "6.0 [1.0, 0.0, 1.0] 6.0 [1, 0, 1]"]


def test_scipy_optimize_imported_first_shares_the_binding():
    out = run_fresh("import scipy.optimize\nfrom swarmplan import opt_engine\n" + SAME_BINDING + SOLVE_BOTH)
    assert out.splitlines() == ["True True", "6.0 [1.0, 0.0, 1.0] 6.0 [1, 0, 1]"]


def test_a_scipy_without_the_binding_names_the_version_it_needs():
    out = run_fresh(
        "import importlib.machinery, sys\n"
        "from swarmplan import opt_engine\n"
        "del sys.modules['scipy.optimize._highspy._core']\n"
        "importlib.machinery.PathFinder.find_spec = lambda name, path: None\n"
        "try:\n"
        "    opt_engine._load_highs_binding()\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    assert out.startswith("scipy.optimize._highspy._core not found: swarmplan needs scipy>=1.17, found ")
