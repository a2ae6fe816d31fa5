"""Dead code in the package.

Every top-level function and class, and every method, is reached from
the command line or the pipeline entry points, not only from the tests:
oracles and fixtures live in `tests/oracles.py`."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qatorsion"

# The command line and what the benchmark harness calls: everything the
# product runs starts at one of these (module file, qualified name).
ROOTS = {("cli.py", "main"), ("pipeline.py", "run_family"),
         ("lattice.py", "catalog_from_json"), ("lattice.py", "c_bound"),
         # overrides `argparse.ArgumentParser.error`, which argparse calls
         ("cli.py", "_Parser.error")}

# Qualified names kept in the package although no root reaches them, each
# mapped to the README.md section that documents it as API; the test checks
# that README.md names it.  Empty: every kept name is reached.
DOCUMENTED_API: dict[str, str] = {}


def unreached(sources, roots):
    """The definitions in `sources` (file name -> module text) that no
    root (file name, qualified name) and no module-level code reaches, as
    sorted (file, line, qualified name).

    The nodes are top-level functions, classes and methods.  A `Name`
    reaches every top-level definition of that name.  An attribute `x.m`
    on `self` or `cls` inside class C, or on a package class name C,
    reaches the methods `m` of C, of its package bases and of the package
    classes derived from it (`self` may be an instance of one); on any
    other receiver it reaches every method and top-level definition named
    `m`.  A reached class reaches its non-method body, its bases and its
    dunder methods, which the language calls."""
    top, methods, bases, owner, labels, module_code = {}, {}, {}, {}, {}, []
    for file, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module_code.append(node)
                continue
            top.setdefault(node.name, []).append(node)
            labels[node] = (file, node.lineno, node.name)
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.setdefault(item.name, []).append((node.name, item))
                        owner[item] = node.name
                        labels[item] = (file, item.lineno, f"{node.name}.{item.name}")

    def ancestors(c):
        return {c}.union(*(ancestors(b) for b in bases[c] if b in bases))

    lineage = {c: {d for d in bases if c in ancestors(d)} | ancestors(c) for c in bases}

    def successors(parts, cls=None):
        for part in parts:
            for sub in ast.walk(part):
                if isinstance(sub, ast.Name):
                    yield from top.get(sub.id, ())
                elif isinstance(sub, ast.Attribute):
                    name = sub.value.id if isinstance(sub.value, ast.Name) else None
                    receiver = cls if name in ("self", "cls") else name
                    if receiver in lineage:
                        yield from (m for c, m in methods.get(sub.attr, ())
                                    if c in lineage[receiver])
                    else:
                        yield from top.get(sub.attr, ())
                        yield from (m for _c, m in methods.get(sub.attr, ()))

    by_name = {(file, name): node for node, (file, _line, name) in labels.items()}
    assert roots <= by_name.keys(), f"missing roots: {roots - by_name.keys()}"
    reached = set()
    todo = [by_name[root] for root in roots] + list(successors(module_code))
    while todo:
        node = todo.pop()
        if node in reached:
            continue
        reached.add(node)
        if isinstance(node, ast.ClassDef):
            todo += [item for item in node.body if isinstance(item, ast.FunctionDef)
                     and item.name.startswith("__") and item.name.endswith("__")]
            body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
            todo += successors(body + node.bases + node.keywords + node.decorator_list)
        else:
            todo += successors([node], owner.get(node))
    return sorted(label for node, label in labels.items() if node not in reached)


def test_every_definition_is_reachable():
    """A function, class or method that no command-line or pipeline path
    reaches is code only the tests run, and belongs in the tests."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    dead = [f"{file}:{line} {name}" for file, line, name in unreached(sources, ROOTS)
            if name not in DOCUMENTED_API]
    assert not dead, "reached by no command-line or pipeline path: " + ", ".join(dead)
    readme = (ROOT / "README.md").read_text()
    assert all(re.search(rf"\b{name}\b", readme) for name in DOCUMENTED_API)


GUARD_SAMPLE = '''
class Shape:
    def area(self):        # reached from main
        return self._side() ** 2

    def _side(self):       # reached only through self.
        return 2

    def perimeter(self):   # dead
        return 4 * self._side()

    def _render(self):     # dead: Label._render is live, but called on self
        return "shape"


class Label:
    def show(self):
        return self._render()

    def _render(self):
        return "label"


def main():
    return Shape().area(), Label().show()
'''


def test_guard_names_exactly_the_dead_methods():
    found = unreached({"sample.py": GUARD_SAMPLE}, {("sample.py", "main")})
    assert [name for _file, _line, name in found] == ["Shape.perimeter", "Shape._render"]


BASES_SAMPLE = '''
class Base:
    def helper(self):      # reached through self. in a derived class
        return 1


class Child(Base):
    def run(self):
        return self.helper()


class Other:
    def helper(self):      # dead: self.helper in Child resolves to Base
        return 2


class Maker:
    @classmethod
    def make(cls):         # reached through the class name
        return cls._raw()

    @classmethod
    def _raw(cls):         # reached only through cls.
        return 3


class Spare:
    @classmethod
    def make(cls):         # dead: main calls Maker.make, not Spare.make
        return 4


def main():
    return Child().run(), Maker.make(), Other(), Spare()
'''


def test_guard_resolves_class_names_and_bases():
    found = unreached({"sample.py": BASES_SAMPLE}, {("sample.py", "main")})
    assert [name for _file, _line, name in found] == ["Other.helper", "Spare.make"]


MODULE_SAMPLE = '''
def build_table():         # reached from module-level code
    return {}


TABLE = build_table()


def origin():              # reached from a class body
    return 0


class Point:
    ORIGIN = origin()

    def __eq__(self, other):   # dunder: reached with its class
        return True


class Orphan:              # dead, and so is its dunder
    def __init__(self):
        self.x = 0


def unused():              # dead
    return Point()


def main():
    return Point() == Point()
'''


def test_guard_starts_from_module_code_and_class_bodies():
    found = unreached({"sample.py": MODULE_SAMPLE}, {("sample.py", "main")})
    assert [name for _file, _line, name in found] == ["Orphan", "Orphan.__init__", "unused"]


def test_methods_the_benchmark_tracer_counts_exist():
    """The benchmark's tracer looks methods up by name (`COUNTED_METHODS`
    in perfbench/tracer.py), which no walk above can see: a method it names
    that the package drops makes every traced run fail at install."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    counted = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["COUNTED_METHODS"])
    assert counted
    for module, cls, method in counted:
        owner = getattr(importlib.import_module(f"qatorsion.{module}"), cls, None)
        assert owner is not None and method in vars(owner), f"{module}.{cls}.{method}"
