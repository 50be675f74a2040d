"""Every name a package or test module imports is read in that module,
every private constant of the package is read somewhere, every top-level
function or class of the package is read somewhere, and every method or
property of such a class is read somewhere as an attribute (`x.name`),
unless the README keeps it on purpose."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "plaquette").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
# a setting or definition of the program is read by the package or the
# benchmark; one only the tests read is not
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import binds that no expression reads.
    Scopes are not told apart, and `from __future__` imports are skipped."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport math as m\nfrom a.b import c, d\nprint(m.pi, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def private_constants(source):
    """(line, name) of each module-level `_UPPER_CASE` name the source assigns."""
    found = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id):
                found.append((node.lineno, target.id))
    return found


def names_read(source):
    """Every name the source reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    bare = {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bare | {node.attr for node in nodes if isinstance(node, ast.Attribute)}


def attributes_read(source):
    """Every name the source reads as an attribute, `x.name`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_the_scan_finds_an_unread_private_constant():
    source = ("_A = 1\n_B: int = 2\n_c = 3\nC = 4\n_D = _E = 5\n"
              "def f():\n    _F = 6\n    return _A + m._E\n")
    assert private_constants(source) == [(1, "_A"), (2, "_B"), (5, "_D"), (5, "_E")]
    read = names_read(source)
    assert [name for _, name in private_constants(source) if name not in read] == ["_B", "_D"]


def test_every_private_constant_is_read():
    read = set().union(*(names_read(path.read_text()) for path in READERS))
    unread = [(path.name, line, name) for path in SOURCES
              for line, name in private_constants(path.read_text()) if name not in read]
    assert unread == []


def definitions(source):
    """(line, name) of each function or class the module body defines."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, kinds)]


def members(source):
    """(line, name) of each method or property of the classes the module
    body defines, dunder methods aside: Python calls those itself."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [(node.lineno, node.name) for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name)]


def kept_on_purpose(readme):
    """The last part of each backticked name in the README's list of names
    that stay on purpose."""
    section = readme.split("stay on purpose", 1)[1].split("\n\n", 2)[1]
    return {name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.]+)`", section)}


def test_the_scan_finds_an_unread_definition():
    source = ("class A:\n    def m(self):\n        return f()\n"
              "def f():\n    return B\nclass B:\n    pass\n"
              "def g():\n    def h():\n        pass\n")
    assert definitions(source) == [(1, "A"), (4, "f"), (6, "B"), (8, "g")]
    read = names_read(source)
    assert [name for _, name in definitions(source) if name not in read] == ["A", "g"]
    readme = ("Some names stay on purpose; the tests use them:\n\n"
              "- `mod.A`, and `g`;\n- `_x`.\n\nNot `y`.\n")
    assert kept_on_purpose(readme) == {"A", "g", "_x"}


def test_the_scan_finds_an_unread_member():
    source = ("class A:\n    def __init__(self):\n        self.x = self.m()\n"
              "    def m(self):\n        return 1\n"
              "    @property\n    def p(self):\n        return 2\n"
              "    def _q(self):\n        return self.x\n"
              "def f():\n    def g():\n        pass\n")
    assert members(source) == [(4, "m"), (7, "p"), (9, "_q")]
    read = attributes_read(source)
    assert [name for _, name in members(source) if name not in read] == ["p", "_q"]


def test_a_local_of_a_members_name_does_not_read_it():
    # `num` and `total` are read only as locals, and `total` is written as
    # an attribute: neither member counts as read
    source = ("class A:\n    def num(self):\n        return 1\n"
              "    @property\n    def total(self):\n        return 2\n"
              "    def size(self):\n        return 3\n"
              "def f(a, num):\n    total = num + 1\n    a.total = total\n    return a.size()\n")
    assert {"num", "total", "size"} <= names_read(source)
    read = attributes_read(source)
    assert [name for _, name in members(source) if name not in read] == ["num", "total"]


def test_every_definition_is_read_or_kept_on_purpose():
    read = set().union(*(names_read(path.read_text()) for path in READERS))
    attributes = set().union(*(attributes_read(path.read_text()) for path in READERS))
    unread = {name for path in SOURCES for _, name in definitions(path.read_text())
              if name not in read}
    unread |= {name for path in SOURCES for _, name in members(path.read_text())
               if name not in attributes}
    # the list names a module too, the one that holds the path objects
    kept = kept_on_purpose((ROOT / "README.md").read_text()) - {path.stem for path in SOURCES}
    assert unread == kept
