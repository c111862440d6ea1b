"""The four workloads, each a generator of rounds of jobs.

A job is one user request: a ``greenbox.cli.main(argv)`` call with its
standard output captured where the CLI offers the operation, a public
library call otherwise.  A round is one pass over the workload's fixed job
list (a size ladder); its inputs are drawn from the benchmark's seeded
random stream, so every round sees fresh words, spec seeds and report
seeds where the inputs have content to draw.  Every job carries a check
against an independent reference from ``refs``; checks run after the timed
loop.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

import refs
import setup_probe


@dataclass
class Job:
    kind: str                       # size-ladder row: job kind ...
    size: int                       # ... and size
    run: Callable[[], object]
    check: Callable[[object], bool]
    cli: bool = True                # result is (exit code, stdout text)
    result: object = None           # set once the job has run


@dataclass
class Sample:
    job: Job
    start: float                    # perf_counter at the job's start
    seconds: float                  # raw job time
    error: Optional[str] = None
    output_bytes: int = 0


def cli_job(kind: str, size: int, argv: list, check: Callable[[str], bool]) -> Job:
    from greenbox import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return Job(kind, size, run, check)


def lib_job(kind: str, size: int, fn: Callable, check: Callable) -> Job:
    return Job(kind, size, fn, check, cli=False)


def run_jobs(jobs: list, calib, on_job: Callable[[], None],
             end_job: Callable[[], None]) -> list:
    """Closed loop, one client: each job starts when the previous returns.
    The speed kernel runs between jobs, outside their timing."""
    samples = []
    for job in jobs:
        on_job()
        start = time.perf_counter()
        try:
            job.result = job.run()
        except Exception as exc:  # a crash is a failed job, not a dead run
            sample = Sample(job, start, time.perf_counter() - start,
                            error=f"{type(exc).__name__}: {exc}")
        else:
            sample = Sample(job, start, time.perf_counter() - start)
            if job.cli:
                sample.output_bytes = len(job.result[1].encode())
        end_job()
        samples.append(sample)
        calib.tick()
    return samples


def sample_ok(sample: Sample) -> bool:
    if sample.error is not None:
        return False
    result = sample.job.result
    if sample.job.cli:
        code, result = result
        if code != 0:
            return False
    try:
        return bool(sample.job.check(result))
    except Exception:  # a malformed output is a wrong answer
        return False


# ---------------------------------------------------------------------------
# output parsing

_COUNTS_RE = re.compile(r"(\d+) elements; H=(\d+) L=(\d+) R=(\d+) D=(\d+) J=(\d+)")


def table_counts(text: str) -> dict:
    m = _COUNTS_RE.match(text)
    return dict(zip(("size",) + refs.RELATIONS, (int(g) for g in m.groups())))


def identity_verdicts(text: str) -> list:
    return [line.rsplit(": ", 1)[1] for line in text.splitlines()
            if not line.startswith(" ")]


def random_word(rng, length: int) -> tuple:
    return tuple(rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(length))


def typical_word(rng, length: int) -> tuple:
    """A random word whose Munn tree has within 2% of the typical 0.67
    vertices per letter, so that its cost does not swing with the draw."""
    while True:
        word = random_word(rng, length)
        if abs(refs.munn_vertices(word) - 0.67 * length) <= 0.02 * length:
            return word


# ---------------------------------------------------------------------------
# finite_tables

MN_LADDER = range(4, 12)
# (domain points, generators, closure-size band).  The bands that hold a
# percentile are narrow because those jobs cost about n^2.
TRANSF_BANDS = [(4, 2, 4, 12), (4, 2, 12, 30)] + [(4, 2, 38, 42)] * 3 + \
    [(4, 3, 38, 42)] * 3 + [(4, 3, 60, 110), (4, 3, 110, 200),
                            (5, 3, 100, 115), (5, 3, 200, 230)] + \
    [(5, 3, 400, 420)] * 4
PRODUCTS = 7
PRODUCT_FACTORS = ["b2", "b2^1", "np:2", "np:3", "np:4", "rz:2", "rz:3",
                   "rz:4", "lz:2", "lz:3", "lz:4"]
# Identity jobs ride on about a quarter of the specs, with keys that hold:
# burnside-n-lcm(1..n) on maps of n points, c_n on M_n, c4 on the product
# factors (each satisfies x^4 = x^5), nil-2 on the square-free semigroups.
MN_IDENTITIES = {5: "inverse", 9: "c9"}
TRANSF_IDENTITIES = {0: ("x(yz) = (xy)z", None), 5: ("burnside-4-12", (4, 12)),
                     11: ("burnside-5-60", (5, 60))}
# The 40-job round is shaped so that both percentiles fall inside a group of
# like jobs rather than on the edge between two sizes: the 15 jobs under
# 7 ms are followed by the seven 8-9 ms jobs on T_4 closures of 38-42
# elements (ranks 16-22, around the median), and mn:11 and mn:10 are
# followed by the four T_5 closures of 400-420 elements (ranks 3-6 from the
# top, around the 90th percentile).  sw and freenil sizes are fixed for the
# same reason.
SW_CAP = 4
FREENIL_CAP = 3


def draw_transf(rng, n: int, k: int, lo: int, hi: int) -> tuple:
    """A spec seed whose closure size falls in [lo, hi), by rejection."""
    for _ in range(100_000):
        seed = rng.randrange(10 ** 6)
        gens = refs.transformation_maps(n, seed, k)
        if lo <= len(refs.transformation_closure(gens)) < hi:
            return seed, gens
    raise RuntimeError(f"no T{n} closure of size in [{lo}, {hi})")


def _counts_check(expected: Callable[[], dict]):
    return lambda text: table_counts(text) == expected()


def _holds_check(expected_holds: Callable[[], bool] = lambda: True):
    def check(text):
        want = "holds" if expected_holds() else "fails"
        verdicts = identity_verdicts(text)
        return bool(verdicts) and all(v == want for v in verdicts)
    return check


def finite_tables_round(rng, ctx, tiny: bool) -> list:
    jobs = []
    for n in (MN_LADDER[:1] if tiny else MN_LADDER):
        spec = f"mn:{n}"
        jobs.append(cli_job("table-mn", n, ["table", spec],
                            _counts_check(lambda n=n: refs.mn_counts(n))))
        if n in MN_IDENTITIES:
            jobs.append(cli_job("identity-mn", n,
                                ["identity", spec, MN_IDENTITIES[n]],
                                _holds_check()))
    for i, (n, k, lo, hi) in enumerate(TRANSF_BANDS[:1] if tiny else TRANSF_BANDS):
        seed, gens = draw_transf(rng, n, k, lo, hi)
        spec = f"transf:{n}:{seed}:{k}"

        def expected(gens=gens):
            size, counts = refs.transformation_green_counts(gens)
            return dict(counts, size=size)
        jobs.append(cli_job(f"table-T{n}k{k}", lo, ["table", spec],
                            _counts_check(expected)))
        if i in TRANSF_IDENTITIES:
            key, law = TRANSF_IDENTITIES[i]
            holds = (lambda: True) if law is None else (
                lambda gens=gens, law=law:
                refs.transformation_power_law(gens, *law))
            jobs.append(cli_job(f"identity-T{n}k{k}", lo, ["identity", spec, key],
                                _holds_check(holds)))
    for i in range(1 if tiny else PRODUCTS):
        factors = rng.sample(PRODUCT_FACTORS, 2)
        spec = "prod:" + ",".join(factors)
        jobs.append(cli_job("table-prod", 2, ["table", spec],
                            _counts_check(lambda f=factors: refs.product_counts(f))))
        if i == 0:
            jobs.append(cli_job("identity-prod", 2, ["identity", spec, "c4"],
                                _holds_check()))
    sw = f"sw:{SW_CAP}"
    jobs.append(cli_job("table-sw", SW_CAP, ["table", sw],
                        _counts_check(lambda: refs.sw_counts(SW_CAP))))
    jobs.append(cli_job("identity-sw", SW_CAP, ["identity", sw, "nil-2"],
                        _holds_check()))
    jobs.append(cli_job("table-freenil", FREENIL_CAP,
                        ["table", f"freenil:xx:3:{FREENIL_CAP}"],
                        _counts_check(lambda: refs.freenil_xx_counts(3, FREENIL_CAP))))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# infinite_balls

_WITNESSED_RE = re.compile(r"witnessed ([HLRDJ])-classes by radius: (.*)")


def bicyclic_check(relations: list, radius: int):
    def check(text):
        lines = text.splitlines()
        seen = []
        for i, line in enumerate(lines):
            m = _WITNESSED_RE.match(line)
            if not m:
                continue
            rel = m.group(1)
            got = {int(a): int(b) for a, b in
                   (pair.split(":") for pair in m.group(2).split())}
            if got != refs.bicyclic_counts(rel, radius):
                return False
            flag = "yes" if rel in "HLR" else "no"
            if lines[i + 1].strip() != f"apparently infinite: {flag}; not certified":
                return False
            seen.append(rel)
        return seen == relations
    return check


def pz_check(relations: list, window: int):
    def check(text):
        lines = text.splitlines()
        want = [f"witnessed {rel}-classes on window [-{window},{window}]: "
                f"{refs.pz_count(rel, window)} (margin 3, window-verified, "
                "not certified)" for rel in relations]
        return lines == want
    return check


_VMAP_LINE_RE = re.compile(
    r"\s+((?:[fp]'? ?)+?)\s+((?:X|V\(-?\d+,-?\d+\)) \+ \(-?\d+,-?\d+\))$")


def vmaps_check(cap: int, rng_seed: int):
    def check(text):
        rng = random.Random(rng_seed)
        lines = text.splitlines()
        head = re.match(rf"ball cap {cap}: (\d+) distinct maps; closed: False$",
                        lines[0])
        parsed = [_VMAP_LINE_RE.match(line) for line in lines[1:]]
        if head is None or int(head.group(1)) != len(parsed) or not all(parsed):
            return False
        if len({m.group(2) for m in parsed}) != len(parsed):
            return False
        if any(len(m.group(1).split()) > cap for m in parsed):
            return False
        return all(refs.vmaps_agree(m.group(1), m.group(2), rng)
                   for m in rng.sample(parsed, min(40, len(parsed))))
    return check


def infinite_balls_round(rng, ctx, tiny: bool) -> list:
    jobs = []
    # Radius 7 runs three times: those jobs rank 3rd to 5th by cost, below
    # radius 8 and H at radius 12, where the 90th percentile of the 40-job
    # round falls.
    for r in range(4, 5 if tiny else 9):
        for _ in range(3 if r == 7 else 1):
            jobs.append(cli_job("green-bicyclic-LRD", r,
                                ["green", f"bicyclic:{r}"],
                                bicyclic_check(["L", "R", "D"], r)))
    for r in ([] if tiny else range(9, 13)):
        for rel in "LRH":
            jobs.append(cli_job(f"green-bicyclic-{rel}", r,
                                ["green", f"bicyclic:{r}", "--relation", rel],
                                bicyclic_check([rel], r)))
    # J at radius 5 would sit alone between the 0.5 s and 0.3 s jobs, right
    # where the 90th percentile falls; radius 4 keeps that spot inside the
    # pair of 0.3 s jobs.
    jobs.append(cli_job("green-bicyclic-J", 4,
                        ["green", "bicyclic:4", "--relation", "J"],
                        bicyclic_check(["J"], 4)))
    # Windows up to 24 make 40 jobs, so that the median falls between the
    # pair of 60-65 ms jobs, L and R at radius 9.
    for window in range(10, 11 if tiny else 25):
        rel = rng.choice((None, "L", "R"))
        argv = ["green", f"pz:{window}"] + ([] if rel is None else ["--relation", rel])
        jobs.append(cli_job("green-pz", window, argv,
                            pz_check(["L", "R"] if rel is None else [rel], window)))
    for cap in range(6, 7 if tiny else 11):
        jobs.append(cli_job("vmaps-ball", cap,
                            ["vmaps", "ball", "--cap", str(cap)],
                            vmaps_check(cap, rng.randrange(10 ** 6))))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# inverse_words

# Nine Munn words, all dearer than the free word problems at 80 letters, so
# that those two jobs rank 23rd and 24th of the 46-job round and hold the
# median between them.
MUNN_LADDER = [500, 750, 1000, 1500, 2000, 3000, 5000, 10000, 20000]
FIS_LADDER = [12, 25, 50, 100, 200]
TAU_FREE_LADDER = [5, 10, 20, 40, 80]
ANB_LADDER = [4, 8, 16, 32]
# Two words at 600 letters: their four signature jobs rank 3rd to 6th by
# cost, where the 90th percentile of the round falls.
DCLASS_LADDER = [100, 200, 400, 600, 600]
STAGE_LADDER = [40, 60, 80]


def munn_check(word: tuple):
    def check(text):
        lines = dict(line.split(": ", 1) for line in text.splitlines())
        v = refs.munn_vertices(word)
        return (lines["vertices"] == str(v) and lines["edges"] == str(v - 1)
                and lines["idempotent"] == str(refs.free_reduce(word) == ()))
    return check


def stage_check(word: tuple, stages: int):
    def check(text):
        lines = dict(line.split(": ", 1) for line in text.splitlines())
        counts = [int(c) for c in lines["stage vertex counts"].split()]
        # The Schutzenberger graph is infinite, so the trace never closes.
        return (lines["closed"] == "False" and len(counts) == stages
                and counts[0] == refs.munn_vertices(word))
    return check


def _pair(rng, length: int, sandwich: bool) -> tuple:
    u = random_word(rng, length)
    v = u + refs.invert(u) + u if sandwich else random_word(rng, length)
    return u, v


def inverse_words_round(rng, ctx, tiny: bool) -> list:
    from greenbox import munn, stephen
    jobs = []
    for length in MUNN_LADDER[:1] if tiny else MUNN_LADDER:
        word = random_word(rng, length)
        jobs.append(cli_job("munn", length, ["munn", refs.format_word(word)],
                            munn_check(word)))
    for length in FIS_LADDER[:1] if tiny else FIS_LADDER:
        for sandwich in (True, False):
            u, v = _pair(rng, length, sandwich)
            jobs.append(lib_job("fis_equal", length,
                                lambda u=u, v=v: munn.fis_equal(u, v),
                                lambda got, u=u, v=v: got == refs.fis_equal(u, v)))
    for length in TAU_FREE_LADDER[:1] if tiny else TAU_FREE_LADDER:
        for sandwich in (True, False):
            u, v = _pair(rng, length, sandwich)
            want = "equal" if refs.fis_equal(u, v) else "distinct"
            jobs.append(cli_job(
                "tau_equal-free", length,
                ["stephen", setup_probe.FREE_PRESENTATION, refs.format_word(u),
                 "--equal", refs.format_word(v)],
                lambda text, want=want: text == f"verdict: {want}\n"))
    for n in rng.sample(ANB_LADDER, 1 if tiny else len(ANB_LADDER)):
        jobs.append(cli_job("tau_equal-anb", n,
                            ["stephen", setup_probe.M_PRESENTATION, f"a^{n} b",
                             "--equal", f"a^{n + 1} b a^-1 b"],
                            lambda text: text == "verdict: equal\n"))
    free = ctx["free"]
    for length in DCLASS_LADDER[:1] if tiny else DCLASS_LADDER:
        word = typical_word(rng, length)
        first = lib_job("dclass_signature", length,
                        lambda w=word: stephen.dclass_signature(w, free),
                        lambda sig, w=word: sig[0] == refs.munn_vertices(w))
        second = lib_job("dclass_signature", length,
                         lambda w=refs.invert(word): stephen.dclass_signature(w, free),
                         None)
        # D-class signatures of w and its inverse agree.
        second.check = lambda sig, first=first: (
            sig is not None and sig == first.result)
        jobs += [first, second]
    for stages in STAGE_LADDER[:1] if tiny else STAGE_LADDER:
        # Positive words of one length all grow the same stage graphs.
        word = tuple(rng.randint(1, 2) for _ in range(6))
        jobs.append(cli_job("stephen-stages", stages,
                            ["stephen", setup_probe.COMMUTING_PRESENTATION,
                             refs.format_word(word), "--stages", str(stages)],
                            stage_check(word, stages)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# paper_report


class ReportRound:
    """One ``report.run_report`` call; each entry is one job, timed between
    progress callbacks."""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def execute(self, calib, on_job: Callable[[], None],
                end_job: Callable[[], None]) -> list:
        from greenbox import report
        samples = []

        def progress(entry):
            nonlocal start
            seconds = time.perf_counter() - start
            end_job()
            job = lib_job("report-entry", int(entry.entry_id[1:3]), None,
                          lambda e: e.status != report.FAILED)
            job.result = entry
            samples.append(Sample(job, start, seconds))
            calib.tick()
            on_job()
            start = time.perf_counter()

        on_job()
        start = time.perf_counter()
        report.run_report(seed=self.seed, out_dir=self.out_dir,
                          progress=progress)
        end_job()
        return samples


# The report's c11 entry analyses 25 transformation closures seeded from the
# report seed, and its cost follows the sum of their squared sizes: from 25
# to 240 ms over report seeds.  Seeds are drawn with that sum in this band,
# where c11 costs about as much as c10 (60-80 ms), so that the two hold the
# median of the 12 entries between them and no draw reaches the c03 and c05
# pair (about 215 ms each), where the 90th percentile falls.
C11_LOAD = (15_000, 20_000)


def c11_load(seed: int) -> int:
    return sum(len(refs.transformation_closure(
        refs.transformation_maps(4, seed + s, 2))) ** 2 for s in range(25))


def paper_report_round(rng, ctx, tiny: bool) -> ReportRound:
    while True:
        seed = rng.randrange(10 ** 6)
        if C11_LOAD[0] <= c11_load(seed) < C11_LOAD[1]:
            return ReportRound(seed, ctx["scratch"].new_dir())


def same_report_files(first: str, second: str) -> bool:
    names = sorted(os.listdir(first))
    if names != sorted(os.listdir(second)):
        return False
    for name in names:
        with open(os.path.join(first, name), "rb") as a, \
                open(os.path.join(second, name), "rb") as b:
            if a.read() != b.read():
                return False
    return True


class ScratchDirs:
    """Report output directories inside the checkout, removed at the end."""

    def __init__(self, base: str):
        self.base = base
        self.count = 0

    def new_dir(self) -> str:
        self.count += 1
        path = os.path.join(self.base, f"report-{os.getpid()}-{self.count}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def cleanup(self) -> None:
        prefix = f"report-{os.getpid()}-"
        if os.path.isdir(self.base):
            for name in os.listdir(self.base):
                if name.startswith(prefix):
                    shutil.rmtree(os.path.join(self.base, name),
                                  ignore_errors=True)


WORKLOADS = {
    "finite_tables": finite_tables_round,
    "infinite_balls": infinite_balls_round,
    "inverse_words": inverse_words_round,
    "paper_report": paper_report_round,
}
