"""greenbox benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process runs one workload as a closed
loop with a single client: rounds (one pass over the workload's job list,
inputs drawn from --seed) repeat while another round still fits in
--seconds.  Every job's output is checked against an independent reference
after the timed loop.  The last line of standard output is the JSON result;
the exit code is 0 only when every job was correct.

Time metrics are scaled to a reference machine speed, measured by a fixed
kernel run between jobs (see speed.py); raw times go to the result file.

--trace 0 reports the end-to-end metrics from a plain run.  --trace 1
spends half of --seconds on plain rounds and half on rounds with the span
recorder installed, and reports the per-layer metrics plus the tracing
overhead (traced wall_s / plain wall_s).  Result and trace files go to
perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SETUP_PROBES = 9

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The workloads and why each was chosen are defined once, in BENCHMARK.json.
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup(workload: str, probes: int) -> list:
    """Import plus preparation, each in a fresh interpreter followed by one
    that imports the reference modules, as (raw seconds, scaled seconds)."""
    import setup_probe

    def probe(*args):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])

    times = []
    for _ in range(probes):
        raw = probe(workload, str(SRC))
        scale = setup_probe.REFERENCE_IMPORT_S / probe("--reference")
        times.append((raw, raw * scale))
    return times


def run_rounds(make_round, seconds: float, calib, on_job, end_job) -> list:
    """Rounds while the next one is expected to finish within ``seconds``;
    at least one.  Returns (round, samples) pairs."""
    import workloads
    done, elapsed = [], []
    start = time.perf_counter()
    while True:
        rnd = make_round()
        t0 = time.perf_counter()
        if isinstance(rnd, list):
            got = workloads.run_jobs(rnd, calib, on_job, end_job)
        else:
            got = rnd.execute(calib, on_job, end_job)
        elapsed.append(time.perf_counter() - t0)
        done.append((rnd, got))
        if time.perf_counter() - start + statistics.median(elapsed) > seconds:
            return done


def ladder_rows(samples: list, scaled) -> list:
    """One row per job kind and size: the size ladder."""
    cells: dict = {}
    for s in samples:
        cells.setdefault((s.job.kind, s.job.size), []).append(scaled(s))
    return [{"kind": kind, "size": size, "jobs": len(v),
             "median_ms": statistics.median(v) * 1e3,
             "max_ms": max(v) * 1e3}
            for (kind, size), v in sorted(cells.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="first rung of every ladder (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "greenbox" / "__init__.py").is_file():
        print(f"error: no greenbox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import greenbox
    if Path(greenbox.__file__).resolve().parent != SRC / "greenbox":
        print(f"error: imported greenbox from {greenbox.__file__}",
              file=sys.stderr)
        return 2
    import setup_probe
    import spans
    import speed
    import workloads

    setup = measure_setup(args.workload, 1 if args.tiny else SETUP_PROBES)
    OUT.mkdir(exist_ok=True)
    ctx = setup_probe.prepare(args.workload)
    ctx["scratch"] = workloads.ScratchDirs(str(OUT))
    rng = random.Random(args.seed)
    round_fn = workloads.WORKLOADS[args.workload]
    calib = speed.Calibration()

    def make_round():
        return round_fn(rng, ctx, args.tiny)

    def nothing():
        pass

    rec = spans.Recorder() if args.trace else None
    try:
        plain = run_rounds(make_round, args.seconds / 2 if rec else args.seconds,
                           calib, nothing, nothing)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = []
        if rec:
            remove = spans.install(rec)
            try:
                traced = run_rounds(make_round, args.seconds / 2, calib,
                                    rec.next_job, rec.end_job)
            finally:
                remove()
        failures = check_all(args.workload, plain + traced)
    finally:
        ctx["scratch"].cleanup()

    def scaled(s):
        return s.seconds * calib.scale(s.start, s.start + s.seconds)

    def walls(rounds, time_of):
        return [sum(time_of(s) for s in got) for _, got in rounds]

    jobs = [s for _, got in plain for s in got]

    def figures(time_of, setup_times):
        """End-to-end figures as (value, samples), by metric name.  Like
        wall_s, the percentiles are medians over rounds, of each round's
        percentile: a burst of host speed that the scaling misjudges then
        moves one round, not the tail of the pooled jobs."""
        rounds = [[time_of(s) for s in got] for _, got in plain]

        def per_round(q):
            return statistics.median(percentile(r, q) for r in rounds) * 1e3

        return {
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "wall_s": (statistics.median(walls(plain, time_of)), len(plain)),
            "job_p50_ms": (per_round(50), len(jobs)),
            "job_p90_ms": (per_round(90), len(jobs)),
            "peak_rss_mb": (peak_rss_mb, 1),
        }

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    e2e = figures(scaled, [t for _, t in setup])
    raw = figures(lambda s: s.seconds, [t for t, _ in setup])
    attempted = sum(len(got) for _, got in plain + traced)
    failed_ratio = len(failures) / attempted
    result = {
        "workload": args.workload, "why": WHY[args.workload],
        "loop": "closed loop, 1 client", "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "rounds": len(plain), "jobs_per_round": len(jobs) / len(plain),
        "attempted": attempted, "failed": len(failures),
        "failed_ratio": failed_ratio, "failures": failures[:20],
        "end_to_end": {k: {"value": v, "unit": units[k], "samples": n}
                       for k, (v, n) in e2e.items()},
        "end_to_end_raw": {k: v for k, (v, _) in raw.items()},
        "speed_kernel_median_s": statistics.median(calib.samples),
        "ladder": ladder_rows(jobs, scaled),
    }
    metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in e2e.items()}
    if rec:
        overhead = (statistics.median(walls(traced, scaled))
                    / statistics.median(walls(plain, scaled)))
        rec.add("cli.output_bytes", sum(s.output_bytes for _, got in traced
                                        for s in got))
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in
                   spans.layer_metrics(rec, len(traced), overhead,
                                       list(units)).items()}
        stem = f"trace-{args.workload}-seed{args.seed}"
        rec.write_tsv(str(OUT / f"{stem}.tsv"))
        result.update(per_layer=metrics, traced_rounds=len(traced),
                      report_entry_self_s=spans.report_entry_breakdown(
                          rec, len(traced)),
                      trace_file=f"perfbench_out/{stem}.tsv")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    for row in result["ladder"]:
        print(f"ladder {row['kind']:<20} size {row['size']:>6}  "
              f"jobs {row['jobs']:>3}  median {row['median_ms']:9.2f} ms")
    for name, m in result["end_to_end"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} ({m['samples']} samples;"
              f" raw {result['end_to_end_raw'][name]:.6g})")
    print(f"failed_ratio = {failed_ratio:.6g} ratio ({attempted} jobs)")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def check_all(workload: str, rounds: list) -> list:
    """Every job against its reference; for paper_report also the --out
    files of one seed, written again and compared byte for byte."""
    import workloads
    failures = []
    for s in (s for _, got in rounds for s in got):
        if not workloads.sample_ok(s):
            result = s.job.result
            text = result[1] if s.job.cli and result else repr(result)
            failures.append(f"{s.job.kind} size {s.job.size}: "
                            f"{s.error or text[:200]}")
    if workload == "paper_report":
        from greenbox import report
        first = rounds[0][0]
        again = first.out_dir + "-again"
        report.run_report(seed=first.seed, out_dir=again)
        if not workloads.same_report_files(first.out_dir, again):
            failures.append(f"report --out files for seed {first.seed} "
                            "differ between two runs")
    return failures


if __name__ == "__main__":
    sys.exit(main())
