"""A guard against definitions in ``src/greenbox`` that nothing uses.

Every function and class that ``src/greenbox`` defines must be named
somewhere in ``src/``, ``tests/`` or ``perfbench/``: by a ``Name``, an
import, a string (``perfbench/spans.py`` names what it wraps in strings
such as ``"BallEnumeration.extend"``), or an attribute of its module (the
CLI calls ``engine.ball_witnesses``).  Dunders are called by Python
itself, and ``console_main`` is the ``pyproject.toml`` entry point.

A second scan takes ``src/`` alone as the forest.  What only tests or the
harness name must be in ``TEST_ONLY_API``, the library API that README
documents as such, so a new test-only definition or member in ``src/``
fails here.

A ``Name`` counts as a use of a module-level definition only where no
enclosing function or lambda binds that name: as a parameter, an
assignment, loop or ``with`` target, a nested def or class, an import or
an ``except ... as`` name.  So a local ``classify`` in one function does
not keep a module-level ``classify`` elsewhere alive.  A definition
nested in a function counts every ``Name`` of its name as a use.

Every member of a class must be read as an attribute: its methods and
properties, its annotated fields (NamedTuple and dataclass fields), the
fields of a ``namedtuple(...)`` base and the attributes its methods
assign on ``self``.  A read on the name ``args``, the CLI's argparse
namespace, counts for nothing, so ``args.identity`` keeps no
``identity`` member alive.  Members go by name only, so a dead member
escapes the check while a live attribute of the same name is read
elsewhere: an unused ``_UnionFind.labels`` method would pass, because
``Witnesses.labels`` is read.
"""

import ast
import re
from operator import itemgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = {"console_main"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)
SCOPES = FUNCTIONS + (ast.Lambda,)


def trees(*dirs):
    return {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def bound(scope):
    """The names a function or lambda binds locally, not looking into the
    scopes nested in it."""
    args = scope.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
           + [args.vararg, args.kwarg] if a is not None}
    stack = list(scope.body) if isinstance(scope, FUNCTIONS) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, DEFINITIONS):
            out.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).partition(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def uses(forest):
    """(names, anywhere, attributes): the names the code reads where no
    enclosing function binds them, those and the names it reads inside
    such a function, and the attributes it reads on anything but
    ``args``."""
    names, anywhere, attributes = set(), set(), set()
    for tree in forest:
        stack = [(tree, frozenset())]
        while stack:
            node, local = stack.pop()
            if isinstance(node, SCOPES):
                local = local | bound(node)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                (anywhere if node.id in local else names).add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Attribute)
                  and not isinstance(node.ctx, ast.Store)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "args")):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.update(node.value.split("."))
            stack.extend((child, local)
                         for child in ast.iter_child_nodes(node))
    return names, anywhere | names, attributes


def members(cls):
    """{name: line} of a class's members: its methods, its annotated
    fields, the fields of a ``namedtuple(...)`` base and the attributes
    its methods assign on ``self``, each at its first definition."""
    found = []
    for node in cls.body:
        if isinstance(node, FUNCTIONS):
            found.append((node.name, node.lineno))
            found.extend((a.attr, a.lineno) for a in ast.walk(node)
                         if isinstance(a, ast.Attribute)
                         and isinstance(a.ctx, ast.Store)
                         and isinstance(a.value, ast.Name)
                         and a.value.id == "self")
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            found.append((node.target.id, node.lineno))
    for base in cls.bases:
        if (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                and base.func.id == "namedtuple"):
            fields = base.args[1].value.replace(",", " ").split()
            found.extend((field, base.lineno) for field in fields)
    out = {}
    for name, line in sorted(found, key=itemgetter(1)):
        out.setdefault(name, line)
    return out


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def unused(src, forest):
    """The definitions and class members in ``src`` that ``forest`` never
    names, each as "path:line name"."""
    names, anywhere, attributes = uses(forest)
    out = []
    for path, tree in src.items():
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, FUNCTIONS)}
        nested = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, FUNCTIONS)
                  for node in ast.walk(fn)
                  if node is not fn and isinstance(node, DEFINITIONS)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                out.extend(f"{path}:{line} {name}"
                           for name, line in members(node).items()
                           if not dunder(name) and name not in attributes)
            if (not isinstance(node, DEFINITIONS) or id(node) in methods
                    or dunder(node.name) or node.name in ENTRY_POINTS):
                continue
            name = node.name
            if not (name in (anywhere if id(node) in nested else names)
                    or name in attributes):
                out.append(f"{path}:{node.lineno} {name}")
    return out


def test_every_definition_in_src_is_used():
    src = trees("src/greenbox")
    forest = list(src.values()) + list(trees("tests", "perfbench").values())
    assert unused(src, forest) == []


# "path name" of each definition or member that nothing in src/ reads, one
# entry per definition.
TEST_ONLY_API = sorted([
    "src/greenbox/engine.py witnessed_related",  # wrapped by perfbench
    "src/greenbox/zoo.py p_witnessed_related",   # wrapped by perfbench
    "src/greenbox/vmaps.py apply",               # VMap.apply
    "src/greenbox/vmaps.py apply",               # BruteMap.apply
])


def test_what_src_does_not_use_is_listed_test_only_api():
    src = trees("src/greenbox")
    found = [re.sub(r":\d+ ", " ", entry)
             for entry in unused(src, list(src.values()))]
    assert sorted(found) == TEST_ONLY_API


def test_guard_finds_an_unused_function_and_method():
    code = ast.parse("def gone():\n    pass\n\n\nclass Kept:\n"
                     "    def dead(self):\n        pass\n")
    user = ast.parse("Kept().live\n")
    assert unused({Path("m.py"): code}, [code, user]) == [
        "m.py:1 gone", "m.py:6 dead"]


def test_guard_resolves_names_that_an_enclosing_function_binds():
    # The module-level helper and step are read only where a local def or
    # a parameter of the same name shadows them.  The local helper keeps
    # the rule for nested definitions: any read of its name uses it.
    code = ast.parse("def helper():\n    pass\n\n\ndef step():\n    pass\n"
                     "\n\ndef outer(items, step):\n"
                     "    def helper(x):\n        return step(x)\n"
                     "    return list(map(lambda y: helper(y), items))\n")
    user = ast.parse("outer([], None)\n")
    assert unused({Path("m.py"): code}, [code, user]) == [
        "m.py:1 helper", "m.py:5 step"]


def test_guard_finds_unread_members():
    # Box.label is read only on args, the CLI's argparse namespace, which
    # counts for nothing; Shelf.spare is assigned and never read.
    code = ast.parse(
        "from collections import namedtuple\n"
        "from typing import NamedTuple\n\n\n"
        "class Box(NamedTuple):\n    size: int\n    label: str\n\n\n"
        "class Pair(namedtuple('Pair', 'x y')):\n    pass\n\n\n"
        "class Shelf:\n    def __init__(self, box):\n"
        "        self.box = box\n        self.spare = None\n\n"
        "    @property\n    def width(self):\n"
        "        return self.box.size + Pair(1, 2).x\n\n\n"
        "def show(args):\n    return Shelf(Box(1, args.label)).box\n")
    user = ast.parse("show(None)\n")
    assert unused({Path("m.py"): code}, [code, user]) == [
        "m.py:7 label", "m.py:10 y", "m.py:17 spare", "m.py:20 width"]
