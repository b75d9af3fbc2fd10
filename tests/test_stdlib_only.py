"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
import sys

import pmpdas

PACKAGE = pathlib.Path(pmpdas.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = [f"{path.name}:{line} imports {name}"
               for path in sources
               for line, name in _absolute_imports(
                   ast.parse(path.read_text(), str(path)))
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
