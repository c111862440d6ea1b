"""Acceptance criteria, one test per criterion.

Each test re-runs its battery at the stated exactness and wall-clock bound
and prints one PASS line (visible under pytest -s or -v with -rA).  The
batteries live in greenbox.report so the CLI command and this module always
agree; the assertions here re-check the headline numbers independently.
"""

import time

from greenbox import engine, report, stephen, vmaps, zoo
from greenbox.cli import main
from test_engine import format_table


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def passed(number, timer, note):
    assert timer.elapsed < timer.limit, (
        f"criterion {number} took {timer.elapsed:.2f}s, limit {timer.limit}s")
    print(f"PASS criterion {number} ({timer.elapsed:.2f}s): {note}")


def test_criterion_01_b2_green_counts():
    with Timer(1.0) as t:
        fs = zoo.b2()
        a = engine.green_scc(fs)
        b = engine.green_definitional(fs)
        expected = {"H": 5, "L": 3, "R": 3, "D": 2, "J": 2}
        assert a.counts() == expected
        assert b.counts() == expected
        assert (a.h, a.l, a.r, a.d, a.j) == (b.h, b.l, b.r, b.d, b.j)
    passed(1, t, "B2 Green counts H=5 L=3 R=3 D=J=2 by both algorithms")


def test_criterion_02_mn_family():
    with Timer(5.0) as t:
        ok, _ = engine.iso_tables(zoo.mn_table(2), zoo.b2())
        assert ok
        for n in range(2, 7):
            formula = 1 + sum((span + 1) ** 2 for span in range(1, n))
            assert len(zoo.mn_table(n)) == formula
            assert zoo.mn_size_brute(n) == formula
    passed(2, t, "M_2 is B2; |M_n| matches the walk enumeration for n <= 6")


def test_criterion_03_bicyclic_ball():
    with Timer(5.0) as t:
        entry = report.entry_bicyclic()
        assert entry.status == report.EVIDENCE, entry.data
        ball = zoo.bicyclic_ball(8)
        wl = engine.witnessed_green(ball, "L")
        assert wl.counts_by_radius[8] == 9          # second coordinates 0..8
    passed(3, t, "bicyclic: one witnessed D-class, L and R counts grow")


def test_criterion_04_p_semigroup():
    with Timer(10.0) as t:
        entry = report.entry_p_semigroup()
        assert entry.status == report.EVIDENCE, entry.data
        assert entry.data["triples_per_identity"] == 29_791
        assert entry.data["l_classes"] == 2
    passed(4, t, "P = (Z, o): associativity, complete regularity, the "
                 "L-congruence identity, and the R counterexample")


def test_criterion_05_munn_randoms():
    with Timer(10.0) as t:
        entry = report.entry_munn_randoms()
        assert entry.status == report.REPRODUCED, entry.data
        assert entry.data["words"] == 500
    passed(5, t, "500 random words: Munn tree laws and fold confluence")


def test_criterion_06_stephen_m():
    with Timer(60.0) as t:
        pres = stephen.parse_presentation(report.M_PRESENTATION)
        for n in range(3):
            u = (1,) * n + (2,)
            v = (1,) * (n + 1) + (2, -1, 2)
            assert stephen.tau_equal(u, v, pres, max_stages=25) == "equal"
        trace = stephen.stephen_run((2,), pres, max_stages=8)
        counts = trace.vertex_counts()
        assert not trace.closed
        assert all(counts[i] < counts[i + 1]
                   for i in range(1, len(counts) - 1))
        assert counts[-1] > counts[0]
    passed(6, t, "a^n b = a^(n+1) b a^-1 b for n in {0,1,2}; the automaton "
                 "of b grows without closing")


def test_criterion_07_stephen_consistency():
    with Timer(10.0) as t:
        entry = report.entry_stephen_consistency()
        assert entry.status == report.REPRODUCED, entry.data
        assert entry.data["pairs"] == 100
        assert entry.data["presented_elements"] == 1
    passed(7, t, "empty presentation matches Munn trees on 100 pairs; "
                 "finite presented semigroup matches the engine")


def test_criterion_08_vmaps():
    with Timer(30.0) as t:
        entry = report.entry_vmaps()
        assert entry.status == report.REPRODUCED, entry.data
        assert vmaps.power(vmaps.phi(), 2).domain == vmaps.VSet(1, 0)
        assert vmaps.power(vmaps.phi(), 2).image() == vmaps.VSet(1, 2)
    passed(8, t, "V-set equalities, idempotent grids, chains, ball scan, "
                 "and the sampling oracle")


def test_criterion_09_squarefree():
    with Timer(30.0) as t:
        entry = report.entry_squarefree()
        assert entry.status == report.REPRODUCED, entry.data
        sw = zoo.sw_semigroup(6)
        gs = engine.green_scc(sw)
        assert gs.count("J") == len(sw)
    passed(9, t, "1000-prefix square-free; singleton nonzero J-classes in "
                 "both zero constructions")


def test_criterion_10_products():
    with Timer(10.0) as t:
        entry = report.entry_products()
        assert entry.status == report.REPRODUCED, entry.data
        assert entry.data["rz_null_r"] == 51
    passed(10, t, "class counts multiply for good factors; 51 R-classes "
                  "for rz(50) x null(2); truncated product splits J")


def test_criterion_11_cross_validation():
    with Timer(60.0) as t:
        entry = report.entry_cross_validation()
        assert entry.status == report.REPRODUCED, entry.data
        assert len(entry.data["closure_sizes"]) == 25
    passed(11, t, "25 transformation closures: the two Green algorithms "
                  "agree, D = J, H = L meet R")


def test_criterion_12_paper_report(tmp_path, capsys):
    with Timer(300.0) as t:
        out_dir = tmp_path / "report"
        code = main(["paper-report", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "report.md").exists()
        bad = tmp_path / "bad.tbl"
        bad.write_text(format_table(zoo.right_zero(5)))
        assert main(["paper-report", "--fixture", str(bad)]) == 1
    capsys.readouterr()
    passed(12, t, "paper-report exits 0 on a clean run and 1 on a "
                  "corrupted fixture")
