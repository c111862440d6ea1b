import contextlib
import hashlib
import io
import json
import math
import os
import time
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from greenbox import engine, munn, vmaps, zoo
from greenbox.cli import build_parser, console_main, main
from greenbox.limits import LIMITS
from greenbox.words import free_reduce, parse_word
from test_engine import format_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_b2(capsys):
    code, out, _ = run(capsys, "table", "b2")
    assert code == 0
    assert "H=5 L=3 R=3 D=2 J=2" in out


def test_table_np(capsys):
    code, out, _ = run(capsys, "table", "np:4")
    assert code == 0
    assert "H=5 L=5 R=5 D=5 J=5" in out


def test_table_product(capsys):
    code, out, _ = run(capsys, "table", "prod:rz:3,null:2")
    assert code == 0
    assert "R=4" in out


def test_table_parse_failure_exits_2(capsys):
    code, _, err = run(capsys, "table", "definitely-not-a-spec")
    assert code == 2
    assert "error" in err


def test_table_empty_product_factor_exits_2(capsys):
    # An empty factor used to be dropped, so prod:b2, read as b2.
    for spec in ("prod:b2,", "prod:,b2", "prod:b2, ,rz:2"):
        assert run(capsys, "table", spec) == (
            2, "", f"error: bad zoo spec {spec!r}: empty product factor\n")


def test_table_rejects_ball(capsys):
    assert run(capsys, "table", "bicyclic:4") == (
        2, "", "error: spec does not denote a closed finite semigroup; "
               "use 'green' for balls and windows\n")


def test_table_from_file(tmp_path, capsys):
    path = tmp_path / "b2.tbl"
    path.write_text(format_table(zoo.b2()))
    code, out, _ = run(capsys, "table", str(path), "--file")
    assert code == 0
    assert "H=5" in out


def test_table_file_names_unknown_elements(tmp_path, capsys):
    # An unknown generator used to print only its name, and a line for an
    # undeclared element was ignored with exit 0.
    head = "elements: e\nrow e: e\n"
    for extra, error in (
            ("generators: b", "generators line mentions unknown element 'b'"),
            ("row q: e", "row line for unknown element 'q'")):
        path = tmp_path / "t.tbl"
        path.write_text(head + extra + "\n")
        assert run(capsys, "table", str(path), "--file") == (
            2, "", f"error: {error}\n")


def test_table_file_refuses_repeated_directives(tmp_path, capsys):
    # Exit 0 before: the second row of e replaced the first.
    path = tmp_path / "t.tbl"
    path.write_text("elements: e f\nrow e: e f\nrow f: f f\nrow e: f f\n")
    assert run(capsys, "table", str(path), "--file") == (
        2, "", "error: line 4: 'row e:' repeats line 2\n")


def test_green_witnessed_ball(capsys):
    code, out, _ = run(capsys, "green", "bicyclic:6", "--relation", "L")
    assert code == 0
    assert "witnessed L-classes" in out
    assert "apparently infinite: yes" in out
    assert "not certified" in out


def test_green_p_window(capsys):
    code, out, _ = run(capsys, "green", "pz:8")
    assert code == 0
    assert "witnessed L-classes" in out
    assert "window-verified" in out


def window_line(relation, n, count, margin=3):
    return (f"witnessed {relation}-classes on window [-{n},{n}]: {count} "
            f"(margin {margin}, window-verified, not certified)\n")


def radius_lines(relation, counts, infinite):
    flag = "yes" if infinite else "no"
    return (f"witnessed {relation}-classes by radius: "
            + " ".join(f"{r}:{c}" for r, c in enumerate(counts, start=1))
            + f"\n  apparently infinite: {flag}; not certified\n")


BICYCLIC_6 = {"L": radius_lines("L", [2, 3, 4, 5, 6, 7], True),
              "R": radius_lines("R", [2, 3, 4, 5, 6, 7], True),
              "H": radius_lines("H", [3, 6, 10, 15, 21, 28], True),
              "D": radius_lines("D", [1] * 6, False)}
PZ_8 = {rel: window_line(rel, 8, count)
        for rel, count in (("L", 2), ("R", 9), ("H", 9), ("D", 2))}
GOLDEN = [
    (["green", "bicyclic:6"],
     BICYCLIC_6["L"] + BICYCLIC_6["R"] + BICYCLIC_6["D"]),
    *[(["green", "bicyclic:6", "--relation", rel], BICYCLIC_6[rel])
      for rel in "HLRD"],
    (["green", "bicyclic:4", "--relation", "J"],
     radius_lines("J", [1] * 4, False)),
    (["green", "pz:8"], PZ_8["L"] + PZ_8["R"]),
    *[(["green", "pz:8", "--relation", rel], PZ_8[rel]) for rel in "LRHD"],
]


def test_green_golden_output(capsys):
    for argv, expected in GOLDEN:
        assert run(capsys, *argv) == (0, expected, ""), argv


GREEN_GOLDEN = (
    [[f"bicyclic:{r}"] for r in range(1, 9)]
    + [[f"bicyclic:{r}", "--relation", rel]
       for r in range(9, 13) for rel in "LRH"]
    + [["bicyclic:4", "--relation", "J"]]
    + [[f"pz:{n}", "--relation", rel]
       for n in range(1, 25) for rel in "HLRDJ"]
)


def test_green_golden_file(capsys):
    # Per command and margin: the arguments, the exit code, stdout and any
    # stderr of `green`.
    parts = []
    for margin in ("1", "3"):
        for argv in GREEN_GOLDEN:
            argv = argv + ["--margin", margin]
            code, out, err = run(capsys, "green", *argv)
            parts.append(f"$ green {' '.join(argv)}\nexit: {code}\n{out}")
            if err:
                parts.append("--- stderr\n" + err)
    path = os.path.join(os.path.dirname(__file__), "golden", "green.txt")
    with open(path, encoding="utf-8") as handle:
        assert "".join(parts) == handle.read()


def test_vmaps_ball_golden_output(capsys):
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "vmaps_ball_cap5.txt")
    with open(path, encoding="utf-8") as handle:
        expected = handle.read()
    assert run(capsys, "vmaps", "ball", "--cap", "5") == (0, expected, "")


@pytest.mark.parametrize("command, digest", [
    # 117,401 bytes: the top rung of the infinite_balls workload.
    ("ball", "43eab06715e78a7b27803260c9247283"
             "fe8c9494c2299dddf4c3a2fc1e0eedd9"),
    ("idempotents", "bf809334c9d3024311a322f8b0493f81"
                    "1d2ee2eb22e9e24133a056a8b5c57f4c"),
], ids=["ball", "idempotents"])
def test_vmaps_cap_10_output_digest(capsys, command, digest):
    code, out, err = run(capsys, "vmaps", command, "--cap", "10")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_green_p_window_j_and_margin_one(capsys):
    assert run(capsys, "green", "pz:15", "--relation", "J") == (
        0, window_line("J", 15, 2), "")
    # Margin 1 counts the union-find closure, as on balls.
    assert run(capsys, "green", "pz:10", "--margin", "1") == (
        0, window_line("L", 10, 2, 1) + window_line("R", 10, 11, 1), "")


def closed_specs(tmp_path):
    """Closed finite specs as arguments: two zoo specs and a table file."""
    path = tmp_path / "b2.txt"
    path.write_text(format_table(zoo.b2()), encoding="utf-8")
    return [["b2"], ["mn:3"], [str(path), "--file"]]


def test_green_refusals_exit_2(tmp_path, capsys):
    for spec in ("pz:5", "bicyclic:3", "b2", "mn:3"):
        for margin in ("0", "-2"):
            assert run(capsys, "green", spec, "--margin", margin) == (
                2, "", "error: margin must be >= 1\n")
    # --relation used to be accepted and ignored on a closed table; the
    # margin is checked first.
    for spec in closed_specs(tmp_path):
        assert run(capsys, "green", *spec, "--relation", "L") == (
            2, "", "error: --relation applies only to balls and pz windows\n")
        assert run(capsys, "green", *spec, "--relation", "h",
                   "--margin", "0") == (2, "", "error: margin must be >= 1\n")
    # D over the pool [-3000, 3000] has 6001 sources, 6001² source pairs.
    assert run(capsys, "green", "pz:1000", "--relation", "D") == (
        2, "", "error: witnessed analysis needs 36012001 hit-row cells, "
               "over the budget of 10000000\n")
    for spec, relation in (("bicyclic:0", "L"), ("bicyclic:-4", None)):
        args = ["green", spec] + (["--relation", relation] if relation else [])
        assert run(capsys, *args) == (
            2, "", f"error: bad zoo spec {spec!r}: radius must be >= 1\n")
    # The multiplier ball of radius 8 * 1000 used to end in a MemoryError;
    # with words stored as prefix links its growth stays small.
    tracemalloc.start()
    try:
        assert run(capsys, "green", "bicyclic:8", "--margin", "1000") == (
            2, "", "error: ball exceeded 100000 elements\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # Windows and balls are refused before their lists or pools are built.
    cells = "witnessed analysis needs {} hit-row cells, over the budget of 10000000"
    for argv, message in (
            (["pz:100000000"], cells.format(200000001 ** 2)),
            (["pz:100000000", "--relation", "L"], cells.format(200000001 ** 2)),
            # D's sources are the pool of 120001 multipliers, which is over
            # its own limit too: the source pairs are checked first.
            (["pz:20000", "--relation", "D"], cells.format(120001 ** 2)),
            (["pz:5", "--margin", "100000000", "--relation", "L"],
             "witnessed analysis needs 1000000001 multipliers, "
             "over the budget of 100000"),
            (["pz:5", "--margin", "20000", "--relation", "L"],
             "witnessed analysis needs 200001 multipliers, "
             "over the budget of 100000"),
            (["bicyclic:3000", "--relation", "L"],
             "bad zoo spec 'bicyclic:3000': ball exceeded 100000 elements"),
            (["bicyclic:140", "--relation", "L"], cells.format(10011 ** 2)),
            (["bicyclic:200"], cells.format(20301 ** 2))):
        assert run(capsys, "green", *argv) == (2, "", f"error: {message}\n")


def test_munn_idempotent(capsys):
    code, out, _ = run(capsys, "munn", "a a^-1")
    assert code == 0
    assert "idempotent: True" in out


def test_munn_triple(capsys):
    code, out, _ = run(capsys, "munn", "a^-1 a a")
    assert code == 0
    assert "triple: (1,1,1)" in out


# Words in one to three letters, as factors with exponents.
munn_texts_st = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.tuples(st.sampled_from("abc"[:k]),
              st.sampled_from([-3, -2, -1, 1, 2, 3])),
    min_size=1, max_size=12)).map(
        lambda factors: " ".join(f"{x}^{e}" for x, e in factors))


@settings(max_examples=150, deadline=None)
@given(munn_texts_st)
def test_munn_output_matches_the_word(text):
    # cmd_munn reads idempotency off the tree; check it against the word.
    word = parse_word(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["munn", text]) == 0
    lines = dict(line.split(": ", 1) for line in out.getvalue().splitlines())
    assert lines["idempotent"] == str(free_reduce(word) == ())
    if len(set(map(abs, word))) == 1:
        assert lines["triple"] == "({},{},{})".format(*munn.fis_a_triple(word))
    else:
        assert "triple" not in lines


def test_munn_vertex_count(capsys):
    code, out, _ = run(capsys, "munn", "a b b^-1")
    assert code == 0
    assert "vertices: 3" in out


def test_munn_empty_word_rejected(capsys):
    for word in ("  ", ""):
        assert run(capsys, "munn", word) == (2, "", "error: empty word\n")


def test_identity_refusals_print_error_prefix(capsys):
    assert run(capsys, "identity", "bicyclic:3", "xy=yx") == (
        2, "", "error: identities need a closed table or a pz window\n")
    # The burnside keys used to leak unpacking and int() errors.
    for text in ("", "burnside-1", "burnside-a-b", "burnside-1-2-3"):
        code, out, err = run(capsys, "identity", "b2", text)
        assert (code, out) == (2, ""), text
        assert err.startswith(
            "error: neither a catalogue key nor an identity: "), text
        assert err.count("\n") == 1, text
    # Over 4,300 digits, int() would refuse with its own digit-limit text.
    nines = "9" * 5000
    assert run(capsys, "identity", "b2", f"x^{nines} = x") == (
        2, "", "error: neither a catalogue key nor an identity: "
               "term exceeds 256 nodes (at position 5002)\n")
    assert run(capsys, "identity", "b2", f"c{nines}") == (
        2, "", "error: term exceeds 256 nodes (at position 5)\n")


NINES = "9" * 5000


@pytest.mark.parametrize("spec", [
    f"{head}:{NINES}" for head in
    ("mn", "np", "pz", "rz", "lz", "null", "sw", "bicyclic")] + [
    f"freenil:ab:{NINES}:2", f"freenil:ab:2:{NINES}",
    f"transf:{NINES}:1:2", f"transf:3:{NINES}:2", f"transf:3:1:{NINES}",
    f"prod:b2,mn:{NINES}"])
def test_zoo_numbers_over_the_digit_limit_exit_2(capsys, spec):
    # int() would refuse them with its own digit-limit text.
    code, out, err = run(capsys, "table", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad zoo spec {spec!r}: ")
    assert err.endswith(": a number of 5000 digits exceeds the limit of "
                        "4300\n")
    assert err.count("\n") == 1


def test_zoo_numbers_at_the_digit_limit_are_read(capsys):
    code, out, _ = run(capsys, "table", f"transf:3:{'9' * 4300}:2")
    assert code == 0 and " elements; H=" in out


def test_word_budget_refusals_exit_2(capsys):
    assert run(capsys, "munn", "a^100000000") == (
        2, "", "error: word longer than 100000 letters (at position 0)\n")
    assert run(capsys, "stephen", "inv-monoid a ; a^200000 = 1", "a") == (
        2, "", "error: relation 1: word longer than 100000 letters "
               "(at position 15)\n")


def test_non_ascii_letters_exit_2(capsys):
    # Each used to raise AttributeError out of the scanner and exit 1.
    assert run(capsys, "munn", "é") == (
        2, "", "error: unexpected character 'é' (at position 0)\n")
    assert run(capsys, "munn", "a aé") == (
        2, "", "error: unexpected character 'é' (at position 3)\n")
    assert run(capsys, "stephen", "inv-monoid a", "a", "--equal",
               "ß") == (
        2, "", "error: unexpected character 'ß' (at position 0)\n")
    assert run(capsys, "stephen", "inv-monoid a ; a é = a", "a") == (
        2, "", "error: relation 1: unexpected character 'é' "
               "(at position 17)\n")


def test_munn_dot_output(tmp_path, capsys):
    path = tmp_path / "tree.dot"
    code, out, _ = run(capsys, "munn", "a b", "--dot", str(path))
    assert code == 0
    assert path.read_text().startswith("digraph")


M_TEXT = "inv-monoid a b ; b b = b ; b = b a b a^-1 ; a a^-1 = 1"


def test_stephen_equal(capsys):
    code, out, _ = run(capsys, "stephen", M_TEXT, "b", "--equal", "b b")
    assert code == 0
    assert "verdict: equal" in out


def test_stephen_unknown_is_success(capsys):
    code, out, _ = run(capsys, "stephen", M_TEXT, "b", "--equal", "a b",
                       "--stages", "3")
    assert code == 0
    assert "verdict: unknown" in out


def test_stephen_trace(capsys):
    code, out, _ = run(capsys, "stephen", M_TEXT, "b", "--stages", "5")
    assert code == 0
    assert "closed: False" in out
    assert "stage vertex counts:" in out


def test_stephen_closed_trace(capsys):
    code, out, _ = run(capsys, "stephen", "inv-semigroup a ; a a = a", "a")
    assert code == 0
    assert "closed: True" in out


def test_stephen_presentation_file(tmp_path, capsys):
    path = tmp_path / "m.pres"
    path.write_text(M_TEXT + "\n")
    code, out, _ = run(capsys, "stephen", str(path), "b", "--equal", "b b")
    assert code == 0
    assert "equal" in out


def test_stephen_budgets_below_one_exit_2(capsys):
    for extra, message in ((["--stages", "0"], "stages must be >= 1"),
                           (["--stages", "-3"], "stages must be >= 1"),
                           (["--max-vertices", "0"], "vertices must be >= 1"),
                           (["--stages", "0", "--equal", "b b"],
                            "stages must be >= 1")):
        assert run(capsys, "stephen", M_TEXT, "b", *extra) == (
            2, "", f"error: {message}\n")


COMMUTING_TEXT = "inv-monoid a b ; a a^-1 = 1 ; b b^-1 = 1 ; a b = b a"
STEPHEN_GOLDEN = [
    ("stephen_m_b_6.txt", [M_TEXT, "b", "--stages", "6"]),
    ("stephen_commuting_10.txt",
     [COMMUTING_TEXT, "a b a a b b", "--stages", "10"]),
]


def test_stephen_golden_output_and_dot_files(tmp_path, capsys):
    # Each golden file holds the exit code, stdout (the directory written
    # as DIR), any stderr, and every stageNN.dot file under a header line.
    for name, argv in STEPHEN_GOLDEN:
        out_dir = tmp_path / name / "stages"
        code, out, err = run(capsys, "stephen", *argv, "--dot-dir",
                             str(out_dir))
        parts = [f"exit: {code}\n", out.replace(str(out_dir), "DIR")]
        if err:
            parts.append("--- stderr\n" + err)
        for stage in sorted(os.listdir(out_dir)):
            parts.append(f"--- {stage}\n" + (out_dir / stage).read_text())
        path = os.path.join(os.path.dirname(__file__), "golden", name)
        with open(path, encoding="utf-8") as handle:
            assert "".join(parts) == handle.read(), name


def test_stephen_parse_error(capsys):
    code, _, err = run(capsys, "stephen", "inv-semigroup a ; a =", "a")
    assert code == 2


def test_identity_holds(capsys):
    code, out, _ = run(capsys, "identity", "b2", "inverse")
    assert code == 0
    assert "holds" in out


def test_identity_counterexample(capsys):
    code, out, _ = run(capsys, "identity", "lz:2", "inverse")
    assert code == 0
    assert "fails" in out
    assert "counterexample" in out


def test_identity_window(capsys):
    # Catalogue keys are case-insensitive on the command line.
    code, out, _ = run(capsys, "identity", "pz:15", "ROLSTAR",
                       "--window", "15")
    assert code == 0
    assert "window-verified" in out


def test_identity_window_refusals_exit_2(tmp_path, capsys):
    # The first used to run 601^3 assignments unbudgeted; the second printed
    # a vacuous verdict over an empty window.
    assert run(capsys, "identity", "pz:300", "x(yz) = (xy)z") == (
        2, "", "error: 601^3 assignments exceed the budget of 10000000\n")
    assert run(capsys, "identity", "pz:100000000", "xx = x") == (
        2, "", "error: 200000001^1 assignments exceed the budget of 10000000\n")
    for spec in ("pz:5", "b2", "mn:3"):
        for window in ("0", "-2"):
            assert run(capsys, "identity", spec, "xy = yx",
                       "--window", window) == (
                2, "", "error: window bound must be >= 1\n")
    # A window on a closed table used to be accepted and ignored.  It is
    # refused after the checks: their verdicts print as without it.
    for spec in closed_specs(tmp_path):
        assert run(capsys, "identity", *spec, "inverse", "--window", "7") == (
            2, run(capsys, "identity", *spec, "inverse")[1],
            "error: --window applies only to pz windows\n")
    # A check's own refusal keeps its text.
    for argv in (["np:3", "i-semigroup"], ["mn:4", "v w x y z = z y x w v"]):
        assert run(capsys, "identity", *argv, "--window", "3") == \
            run(capsys, "identity", *argv)


def test_identity_raw_text(capsys):
    code, out, _ = run(capsys, "identity", "b2", "x x' x = x")
    assert code == 0
    assert "holds" in out


def test_identity_digits_are_ascii(capsys):
    # Other decimal digits used to be read by int(), or to fail in it.
    prefix = "error: neither a catalogue key nor an identity: "
    power = "expected digits after '^' (at position 2)"
    square = "unexpected '\u00b2' (at position 1)"
    for text, reason in (("x^\u00b2 = x", power), ("x^\u0663 = x", power),
                         ("x\u00b2 = x", square),
                         ("c\u0663", "an identity has exactly one '='")):
        assert run(capsys, "identity", "b2", text) == (
            2, "", f"{prefix}{reason}\n")


def test_identity_bad_key(capsys):
    code, _, err = run(capsys, "identity", "b2", "] nonsense [")
    assert code == 2


IDENTITY_GOLDEN = [
    ["b2", "inverse"],
    ["lz:2", "inverse"],
    ["pz:6", "inverse"],
    ["pz:5", "rolstar", "--window", "3"],
    ["np:3", "i-semigroup"],
    ["b2", "x^0 = x"],
    ["np:3", "x' = x"],
    ["b2", "0 = x"],
    ["mn:4", "v w x y z = z y x w v"],
] + [[spec, key] for spec in ("b2", "b2^1", "np:4", "rz:3", "lz:3", "null:3")
     for key in ("i-semigroup", "cr", "inverse", "si", "rolstar", "c2",
                 "x2-in-g", "nil-2", "zero-mult", "x x' x = x")] + [
    ["b2", key] for key in ("inverse-alt", "c1", "c3", "c4", "x3-in-g",
                            "burnside-2-2", "burnside-3-1", "nil-3")] + [
    [spec, key] for spec in ("sw:4", "rz:1")
    for key in ("i-semigroup", "cr", "inverse", "inverse-alt", "si",
                "rolstar", "c1", "c2", "c3", "c4", "x2-in-g", "x3-in-g",
                "burnside-2-2", "burnside-3-1", "nil-2", "nil-3",
                "zero-mult")]


def test_identity_golden_output(capsys):
    # Per command: the arguments, the exit code, stdout and any stderr.
    # Refusals come before the first assignment of the identity they name,
    # so i-semigroup on np:3 prints its first verdict and then exits 2.
    parts = []
    for argv in IDENTITY_GOLDEN:
        code, out, err = run(capsys, "identity", *argv)
        shown = " ".join(repr(a) if " " in a else a for a in argv)
        parts.append(f"$ identity {shown}\nexit: {code}\n{out}")
        if err:
            parts.append("--- stderr\n" + err)
    path = os.path.join(os.path.dirname(__file__), "golden", "identity.txt")
    with open(path, encoding="utf-8") as handle:
        assert "".join(parts) == handle.read()


def test_identity_deep_terms_exit_2(capsys):
    # Both used to end in a RecursionError traceback.
    nested = "(" * 3000 + "x" + ")" * 3000
    for text in ("x^2000 = x", nested + " = x"):
        code, out, err = run(capsys, "identity", "b2", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: neither a catalogue key nor an "
                              "identity: term exceeds 256 nodes")
        assert err.count("\n") == 1


def test_vmaps_ball(capsys):
    code, out, _ = run(capsys, "vmaps", "ball", "--cap", "3")
    assert code == 0
    assert "V(0,0) + (0,1)" in out


def test_vmaps_chain(capsys):
    code, out, _ = run(capsys, "vmaps", "chain", "-r", "2", "-s", "3")
    assert code == 0
    assert "V(2,3)" in out
    assert "V(0,0)" in out


def test_vmaps_chain_composes_logarithmically_often(capsys, monkeypatch):
    # Counted, not timed: a linear power would make 3·10^12 compositions.
    calls = []
    compose = vmaps.compose

    def counted(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr(vmaps, "compose", counted)
    s = 10 ** 12
    assert run(capsys, "vmaps", "chain", "-r", "3", "-s", str(s)) == (
        0, f"chain for V(3,{s}): V(3,{s}) + (-3,-{s}) (image V(0,0))\n", "")
    assert 0 < len(calls) <= 2 * math.log2(s) + 8


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_parser_is_built_once_and_reused(capsys):
    # The parser is shared across calls: usage errors, help text and exit
    # codes stay those of a freshly built parser.
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    assert run(capsys, "table", "b2", "--bogus")[0] == 2
    assert run(capsys, "--help") == (0, fresh.format_help(), "")
    for argv in (["table"], ["green", "b2", "--relation", "Q"], []):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            fresh.parse_args(argv)
        expected = capsys.readouterr()
        assert run(capsys, *argv) == (2, expected.out, expected.err)
    assert run(capsys, "table", "b2")[0] == 0


def test_table_mn20_stays_small(capsys):
    # mn:20 (2,870 elements) is held as its Cayley graphs; its 8.2M-cell
    # table is never filled for the eggbox.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "table", "mn:20")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("2870 elements; ")
    assert peak < 32 * 2 ** 20


def test_paper_report_full_run(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code, out, _ = run(capsys, "paper-report", "--out", str(out_dir))
    assert code == 0
    assert "c01-b2-green" in out
    assert (out_dir / "report.md").exists()
    modules = [p for p in os.listdir(out_dir) if p.endswith(".json")]
    assert len(modules) >= 4
    payload = json.loads((out_dir / "engine.json").read_text())
    assert any(e["id"] == "c01-b2-green" for e in payload)
    assert all(e["status"] in ("reproduced", "evidence-only")
               for e in payload)


def test_paper_report_corrupted_fixture_fails(tmp_path, capsys):
    # A valid table that is not B2: the negative control must flip exit to 1.
    path = tmp_path / "bad.tbl"
    path.write_text(format_table(zoo.right_zero(5)))
    code, out, _ = run(capsys, "paper-report", "--fixture", str(path))
    assert code == 1
    assert "FAIL" in out


def test_paper_report_unparseable_fixture_fails(tmp_path, capsys):
    path = tmp_path / "broken.tbl"
    path.write_text("elements: x y\nrow x: y y\nrow y: x x\n")
    code, out, _ = run(capsys, "paper-report", "--fixture", str(path))
    assert code == 1


def test_paper_report_outputs_are_byte_identical(tmp_path, capsys):
    # The golden files are fixed: a change to them is a change of results.
    for seed in (0, 3, 7):
        out = tmp_path / str(seed)
        golden = Path(__file__).parent / "golden" / "report" / f"seed{seed}"
        assert main(["paper-report", "--seed", str(seed),
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(golden))
        for name in os.listdir(golden):
            assert (out / name).read_bytes() == (golden / name).read_bytes()
    capsys.readouterr()


def test_vmaps_idempotents_subcommand(capsys):
    code, out, _ = run(capsys, "vmaps", "idempotents", "--cap", "4")
    assert code == 0
    assert "idempotents" in out
    assert "V(" in out


def package_env():
    """A subprocess environment that runs the package the tests import,
    wherever it was installed from."""
    import greenbox
    src = str(Path(greenbox.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_console_script_entry_point():
    import importlib
    import re
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]")[1]
    target = re.search(r'^greenbox\s*=\s*"([^"]+)"', scripts, re.M).group(1)
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is console_main
    result = subprocess.run([sys.executable, "-m", "greenbox", "table", "b2"],
                            capture_output=True, text=True, env=package_env())
    assert result.returncode == 0
    assert "H=5 L=3 R=3 D=2 J=2" in result.stdout


def test_closed_stdout_ends_quietly():
    import subprocess
    import sys

    # About 249 KB, more than a pipe buffer holds: the reader closes the
    # pipe while greenbox still writes.
    with subprocess.Popen([sys.executable, "-m", "greenbox", "vmaps", "ball",
                           "--cap", "12"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=package_env()) as proc:
        assert proc.stdout.readline().startswith(b"ball cap 12: ")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_green_on_closed_table_delegates_to_exact(tmp_path, capsys):
    code, out, _ = run(capsys, "green", "b2")
    assert code == 0
    assert "H=5 L=3 R=3 D=2 J=2" in out
    # green loads the structure once, parsing what table parses, and
    # prints what table prints.
    parses = []

    def counted(parse):
        def wrapper(text):
            parses.append(text)
            return parse(text)
        return wrapper

    path = tmp_path / "b2.txt"
    path.write_text(format_table(zoo.b2()), encoding="utf-8")
    with patch.object(zoo, "parse_zoo", counted(zoo.parse_zoo)), \
            patch.object(engine, "parse_table", counted(engine.parse_table)):
        for argv in (["b2^1"], ["mn:5"], ["prod:b2,np:2"], ["transf:4:2:2"],
                     [str(path), "--file"]):
            table = run(capsys, "table", *argv)
            once = parses[:]
            del parses[:]
            assert run(capsys, "green", *argv) == table, argv
            assert parses == once, argv
            del parses[:]
        for spec in ("bicyclic:3", "pz:5"):
            run(capsys, "green", spec)
            assert parses == [spec]
            del parses[:]


TABLE_GOLDEN = (
    ["b2", "b2^1"]
    + [f"mn:{n}" for n in range(2, 10)]
    + [f"np:{p}" for p in range(1, 6)]
    + [f"rz:{n}" for n in range(1, 5)]
    + ["lz:1", "lz:3", "null:1", "null:2", "null:3"]
    + [f"sw:{cap}" for cap in range(1, 7)]
    + [f"freenil:xx:3:{cap}" for cap in range(1, 5)]
    + ["freenil:xyx:2:4", "freenil:x:2:3"]
    + ["prod:rz:3,null:2", "prod:b2,np:2", "prod:mn:3,lz:2"]
    + ["prod:b2^1,np:3", "prod:np:2,np:3,np:2", "prod:b2,b2",
       "prod:null:3,null:3", "prod:rz:2,lz:3"]
    + ["transf:3:1:2", "transf:4:2:2", "transf:4:5:3"]
)


def test_table_golden_output(capsys):
    # Per spec: the spec, the exit code and stdout of `table`.
    parts = []
    for spec in TABLE_GOLDEN:
        code, out, _ = run(capsys, "table", spec)
        parts.append(f"$ table {spec}\nexit: {code}\n{out}")
    path = os.path.join(os.path.dirname(__file__), "golden", "table.txt")
    with open(path, encoding="utf-8") as handle:
        assert "".join(parts) == handle.read()


# Hand-entered tables for `table --file`: B2 with its zero first, a proper
# generator subset given out of order and twice, and unary lines; and the
# 2x2 rectangular band with neither, comments and blank lines.
TABLE_FILES = {
    "b2.txt": """elements: 0 a b ab ba
row 0: 0 0 0 0 0
row a: 0 0 ab 0 a
row b: 0 ba 0 b 0
row ab: 0 a 0 ab 0
row ba: 0 0 b 0 ba
unary 0: 0
unary a: b
unary b: a
unary ab: ab
unary ba: ba
generators: b a a
""",
    "band.txt": """# (i, j)(k, l) = (i, l) over i, j in {1, 2}
elements: p q r s

row p: p q p q
row q: p q p q   # q = (1, 2)
row r: r s r s
row s: r s r s
""",
}


def test_table_file_golden_output(tmp_path, capsys):
    # Per file: its name, the exit code and stdout of `table --file`.
    parts = []
    for name, text in TABLE_FILES.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "table", str(path), "--file")
        parts.append(f"$ table --file {name}\nexit: {code}\n{out}")
    path = os.path.join(os.path.dirname(__file__), "golden", "table_file.txt")
    with open(path, encoding="utf-8") as handle:
        assert "".join(parts) == handle.read()


def test_table_budget_refusals_exit_2_quickly(capsys):
    # Each spec would need a table over LIMITS["table_cells"] (or, for
    # transf:, more generators than elements), and is refused before any
    # table, factor set or map is built.
    cases = {
        "rz:5000": "a table of 5000 elements needs 25000000 cells",
        "np:1000000000": "a table of 1000000001 elements needs",
        "mn:40": "a table of 22140 elements needs 490179600 cells",
        "sw:100000": "a table of 5000150001 elements needs",
        "transf:4:1:100000000": "100000000 generators exceed the element "
                                "budget of 10000",
    }
    for spec, reason in cases.items():
        start = time.perf_counter()
        code, out, err = run(capsys, "table", spec)
        assert time.perf_counter() - start < 1.0, spec
        assert (code, out) == (2, ""), spec
        assert err.startswith(f"error: bad zoo spec {spec!r}: {reason}"), spec
        assert err.count("\n") == 1, spec


def test_table_of_a_monoid_product_fills_no_table(capsys):
    # np:6^4 is held by its 16 tuples of generators: the eggbox reads their
    # Cayley graphs, and the table of 2401^2 cells is never filled.
    built = []

    def product(factors):
        built.append(engine.direct_product(factors))
        return built[-1]

    with patch.object(zoo, "direct_product", product):
        code, out, _ = run(capsys, "table", "prod:np:6,np:6,np:6,np:6")
    assert code == 0
    assert out.startswith("2401 elements; H=2401 L=2401 R=2401 D=2401 ")
    fs, = built
    assert len(fs.letters) == 16
    assert "table" not in fs.__dict__


# Each ledger entry the CLI can reach, with an argv just over it.
LEDGER_REFUSALS = {
    "table_cells": ["table", "rz:3163"],
    "closure_elements": ["table", "transf:4:1:10001"],
    "pool_elements": ["green", "pz:5", "--margin", "10000", "--relation", "L"],
    "witness_pairs": ["green", "pz:1581", "--relation", "L"],
    "word_letters": ["munn", "a^100001"],
    "term_nodes": ["identity", "b2", "x^129 = x"],
    "assignments": ["identity", "pz:5000000", "x = x"],
    "transf_points": ["table", "transf:6:1:1"],
    "free_elements": ["table", "freenil:xx:3:18"],
    "pattern_word": ["table", "freenil:xyxxzy:2:25"],
    "pattern_letters": ["table", "freenil:xxxxxxx:2:3"],
    "vmap_word_length": ["vmaps", "ball", "--cap", "13"],
    "spec_digits": ["table", "mn:" + "9" * 4301],
}
# Entries no CLI input is refused by, and why.
LIBRARY_ONLY = {
    "ball_elements": "a V-map ball of word length at most 12 stays under it",
    "iso_elements": "only the report searches for isomorphisms",
    "exhaustive_triples": "a switch to sampling, not a refusal",
    "sampled_triples": "a sample size, not a refusal",
    "witness_margin": "the --margin default",
    "stephen_stages": "the --stages default; a run ends not closed",
    "stephen_vertices": "the --max-vertices default; a run ends not closed",
    "presented_elements": "only the report builds presented tables",
}


def test_every_ledger_entry_has_a_refusal_test_or_a_reason():
    assert not set(LEDGER_REFUSALS) & set(LIBRARY_ONLY)
    assert set(LEDGER_REFUSALS) | set(LIBRARY_ONLY) == set(LIMITS)


@pytest.mark.parametrize("name", sorted(LEDGER_REFUSALS))
def test_ledger_limits_refuse_just_over(capsys, name):
    code, out, err = run(capsys, *LEDGER_REFUSALS[name])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(LIMITS[name]) in err


def test_readme_limits_table_matches_ledger():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Limits\n")[1]
    rows = [line.split("|")[1:4] for line in section.split("\n## ")[0]
            .splitlines() if line.startswith("| `")]
    table = {name.strip().strip("`"): int(value.replace(",", ""))
             for name, _, value in rows}
    assert table == LIMITS
    assert len(rows) == len(LIMITS)
