"""Every definition in the library is used somewhere, and not by tests
alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "qchar").glob("*.py"))


def _definitions(tree):
    """(name, line) of the top-level functions and classes and of the
    non-dunder methods of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, kinds[:2])
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.lineno


def _references(tree):
    """Names a module refers to: loaded or stored names, attributes,
    imported names and the dot-separated parts of string constants (a
    tracer names the functions it patches that way)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_library_definition_is_referenced():
    refs = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            refs.update(_references(ast.parse(path.read_text())))
    unused = [f"{path.stem}.{name} (line {line})"
              for path in LIBRARY
              for name, line in _definitions(ast.parse(path.read_text()))
              if name.split(".")[-1] not in refs]
    assert unused == []


# Test-only definitions allowed, with the reason: ``ring.Y`` is the
# tests' shorthand for a Y variable; the library spells it out.
TEST_SHORTHANDS = {"Y"}


def test_no_library_definition_serves_tests_only():
    # the acceptance gate counts as a caller: it exercises the paper's
    # claims through the library, as the CLI does
    library, tests = set(), set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            caller = top != "tests" or path.name == "test_acceptance.py"
            (library if caller else tests).update(
                _references(ast.parse(path.read_text())))
    test_only = [f"{path.stem}.{name} (line {line})"
                 for path in LIBRARY
                 for name, line in _definitions(ast.parse(path.read_text()))
                 if name.split(".")[-1] in tests - library - TEST_SHORTHANDS]
    assert test_only == []


def _constructed(tree):
    """Names of the classes a module calls, by name or as an attribute
    (``ring.VariableTable(...)``), and of each class whose own methods
    call ``cls(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "cls" for n in ast.walk(node)):
            yield node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_every_library_init_runs_outside_tests():
    # _definitions skips dunder methods, so an __init__ that only tests
    # call passes the checks above; a class that defines one must be
    # constructed somewhere in src or bench
    built = set()
    for top in ("src", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            built.update(_constructed(ast.parse(path.read_text())))
    unbuilt = [f"{path.stem}.{node.name} (line {node.lineno})"
               for path in LIBRARY
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef) and node.name not in built
               and any(isinstance(item, ast.FunctionDef)
                       and item.name == "__init__" for item in node.body)]
    assert unbuilt == []
