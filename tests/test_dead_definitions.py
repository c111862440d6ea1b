"""A guard against definitions in ``src/greenbox`` that nothing uses.

Every function and class that ``src/greenbox`` defines must be named
somewhere in ``src/``, ``tests/`` or ``perfbench/``: by a ``Name``, an
import, a string (``perfbench/spans.py`` names what it wraps in strings
such as ``"BallEnumeration.extend"``), or an attribute of its module (the
CLI calls ``engine.ball_witnesses``).  Every method must be read as an
attribute somewhere.  Dunders are called by Python itself, and
``console_main`` is the ``pyproject.toml`` entry point.

A second scan takes ``src/`` alone as the forest.  What only tests or the
harness name must be in ``TEST_ONLY_API``, the library API that README
documents as such, so a new test-only definition in ``src/`` fails here.

The check goes by name only, so a dead method escapes it while a live
attribute of the same name exists anywhere: an unused
``_UnionFind.labels`` method would pass, because ``Witnesses.labels`` is
read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = {"console_main"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def trees(*dirs):
    return {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def uses(forest):
    """(names, attributes) that the code reads anywhere."""
    names, attributes = set(), set()
    for tree in forest:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.update(node.value.split("."))
    return names, attributes


def unused(src, forest):
    """The definitions in ``src`` that ``forest`` never names, each as
    "path:line name"."""
    names, attributes = uses(forest)
    out = []
    for path, tree in src.items():
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, FUNCTIONS)}
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in ENTRY_POINTS):
                continue
            used = (name in attributes if id(node) in methods
                    else name in names or name in attributes)
            if not used:
                out.append(f"{path}:{node.lineno} {name}")
    return out


def test_every_definition_in_src_is_used():
    src = trees("src/greenbox")
    forest = list(src.values()) + list(trees("tests", "perfbench").values())
    assert unused(src, forest) == []


# "path name" of each definition that nothing in src/ names, one entry per
# definition.
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
