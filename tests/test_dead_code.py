"""Dead code in the package.

Every function and public method defined in the package is named
somewhere besides its own definition, in the package or in the tests.
A name that appears nowhere else is code nothing can reach; dunder
methods are exempt because the language calls them.

Every top-level function and class is reached from the command line or
the pipeline entry points, not only from the tests: oracles and fixtures
live in `tests/oracles.py`."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qatorsion"


def _defined_names():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if id(node) in methods and node.name.startswith("_"):
                continue  # private and dunder methods
            yield path.name, node.lineno, node.name


def test_every_function_is_named_outside_its_definition():
    words = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        words.update(re.findall(r"\w+", path.read_text()))
    defined = list(_defined_names())
    definitions = Counter(name for _file, _line, name in defined)
    dead = [f"{file}:{line} {name}" for file, line, name in defined
            if words[name] <= definitions[name]]
    assert not dead, "defined but never named elsewhere: " + ", ".join(dead)


# The command line and what the benchmark harness calls: everything the
# product runs starts at one of these (module file, top-level name).
ROOTS = {("cli.py", "main"), ("pipeline.py", "run_family"),
         ("lattice.py", "catalog_from_json"), ("lattice.py", "c_bound")}

# Top-level names kept in the package although no root reaches them, each
# mapped to the README.md section that documents it as API; the test checks
# that README.md names it.  Empty: every kept name is reached.
DOCUMENTED_API: dict[str, str] = {}


def _names_used(nodes):
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def test_every_top_level_definition_is_reachable():
    """Follow the names each reached definition uses (`Name` ids and
    `Attribute` attrs, matched to top-level definitions by name alone, so
    the closure over-approximates) from the roots and from the code every
    module runs on import; a top-level function or class that is never
    reached is code only the tests run, and belongs in the tests."""
    defs, module_code = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.name, node))
            else:
                module_code.append(node)
    roots = [(f, node) for name, found in defs.items() for f, node in found
             if (f, name) in ROOTS]
    assert len(roots) == len(ROOTS), f"missing roots: {ROOTS}"
    reached, todo = set(), [node for _f, node in roots]
    todo += [node for name in set(_names_used(module_code))
             for _f, node in defs.get(name, [])]
    while todo:
        node = todo.pop()
        if id(node) not in reached:
            reached.add(id(node))
            todo += [other for name in set(_names_used([node]))
                     for _f, other in defs.get(name, [])]
    unreached = sorted((f, node.lineno, name) for name, found in defs.items()
                       for f, node in found
                       if id(node) not in reached and name not in DOCUMENTED_API)
    assert not unreached, ("reached by no command-line or pipeline path: "
                           + ", ".join(f"{f}:{line} {name}"
                                       for f, line, name in unreached))
    readme = (ROOT / "README.md").read_text()
    assert all(re.search(rf"\b{name}\b", readme) for name in DOCUMENTED_API)
