"""What importing greenbox loads, checked in fresh interpreters.

``import greenbox`` loads ``cli`` with ``limits`` and ``words``; every other
submodule is imported at its first use, so a command loads only what it
calls.  ``argparse`` loads only when the parser is built, and no command
but ``identity`` and ``paper-report`` loads ``dataclasses`` or, through it,
``inspect``.  The test process has every module loaded already, so each
check runs in a new interpreter.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import greenbox

SRC = str(Path(greenbox.__file__).resolve().parents[1])
ENGINE_LAYERS = {"engine", "identities", "report", "vmaps", "zoo"}
PRESENTATION = "inv-monoid a b ; b b = b ; b = b a b a^-1 ; a a^-1 = 1"


def fresh(code):
    """Run code in a new interpreter that imports greenbox from the package
    under test.  Returns the lines it printed, the greenbox modules it
    loaded, by name within the package, and the other modules it loaded."""
    script = (f"import sys\nsys.path.insert(0, {SRC!r})\n"
              f"before = set(sys.modules)\n{code}\n"
              "print(sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    *lines, modules = result.stdout.splitlines()
    loaded = set(ast.literal_eval(modules))
    ours = {m for m in loaded if m.partition(".")[0] == "greenbox"}
    return lines, {m.removeprefix("greenbox.") for m in ours}, loaded - ours


def test_import_greenbox_loads_only_the_cli():
    _, loaded, others = fresh("import greenbox")
    assert loaded == {"greenbox", "cli", "limits", "words"}
    assert "argparse" not in others


def test_stephen_loads_munn_but_not_the_engine():
    _, loaded, others = fresh("import greenbox.stephen")
    assert loaded == {"greenbox", "cli", "limits", "words", "munn", "stephen"}
    assert not others & {"argparse", "dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    ["munn", "a a^-1"],
    ["stephen", PRESENTATION, "b a", "--equal", "a b"],
    ["stephen", PRESENTATION, "b"],
])
def test_munn_and_stephen_commands_load_no_engine_layer(argv):
    lines, loaded, others = fresh(
        f"from greenbox import cli\nprint(cli.main({argv!r}))")
    assert lines[-1] == "0"
    assert argv[0] in loaded and "argparse" in others
    assert not loaded & ENGINE_LAYERS
    assert not others & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [["table", "b2"], ["green", "pz:5"],
                                  ["vmaps", "chain"]])
def test_engine_commands_load_neither_dataclasses_nor_inspect(argv):
    lines, loaded, others = fresh(
        f"from greenbox import cli\nprint(cli.main({argv!r}))")
    assert lines[-1] == "0"
    assert "engine" in loaded and "argparse" in others
    assert not others & {"dataclasses", "inspect"}


def test_submodules_resolve_on_attribute_access():
    lines, loaded, _ = fresh(
        "import greenbox\n"
        "print(sorted(set(greenbox.__all__) - set(dir(greenbox))))\n"
        "print(all(getattr(greenbox, name) is sys.modules['greenbox.' + name]"
        " for name in greenbox.__all__))\n"
        "print(hasattr(greenbox, 'nonexistent'))")
    assert lines == ["[]", "True", "False"]
    assert loaded == {"greenbox"} | set(greenbox.__all__)


def test_star_import_binds_every_submodule():
    lines = fresh("from greenbox import *\n"
                  "print(sorted(name for name, value in globals().items()"
                  " if getattr(value, '__name__', '') == 'greenbox.' + name))")[0]
    assert lines == [str(sorted(greenbox.__all__))]
