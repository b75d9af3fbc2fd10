"""Source-tree checks: the runtime imports nothing outside the standard
library, and every function the package defines has a known caller."""

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


# module-level functions that no code in the package names outside their
# own definition, and who calls them instead
UNCALLED_IN_PACKAGE = {
    "build_opened_group": "test_acceptance imports it",
    "effective_samples": "test_acceptance imports it",
    "required_samples": "test_acceptance imports it",
    "open_generic": "test_acceptance imports it",
    "open_shared": "test_acceptance imports it",
    "open_single": "test_acceptance imports it",
    "verify_single": "test_acceptance imports it",
    "verify_shared": "test_acceptance imports it",
    "verify_batch_independent": "bench/tracing.py wraps it",
    "g1_msm": "bench/tracing.py wraps it",
}


def test_functions_without_a_caller_in_the_package_are_pinned():
    # a function that nothing calls any more shows up here as a diff
    defined, named = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef))
        if path.name == "__init__.py":  # the exports name everything
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    assert defined - named == set(UNCALLED_IN_PACKAGE)
