"""The package imports only numpy, scipy and the standard library."""

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

