"""The runtime imports nothing beyond the standard library.

numpy, scipy and hypothesis may serve the tests and the benchmark only.
Every module of the package is parsed, not imported, so an import behind a
branch or inside a function is caught too.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skewbisub"


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    outside = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, "non-stdlib imports:\n" + "\n".join(outside)
