"""Every function and public method defined in the package is named
somewhere besides its own definition, in the package or in the tests.
A name that appears nowhere else is code nothing can reach; dunder
methods are exempt because the language calls them."""

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
