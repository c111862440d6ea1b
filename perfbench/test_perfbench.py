"""Self-test of the benchmark harness.

    python3 -m pytest perfbench

Runs every workload at its smallest size, checks that every metric named in
BENCHMARK.json is printed with its unit, and runs two negative controls: a
corrupted reference answer must fail the run, and a directory without the
program must exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refs
import run
import speed

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_every_metric_printed_with_unit(workload, traced):
    done = invoke("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(traced), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    true_counts = refs.mn_counts

    def wrong(n):
        counts = true_counts(n)
        counts["L"] += 1
        return counts

    monkeypatch.setattr(refs, "mn_counts", wrong)
    code = run.main(["--workload", "finite_tables", "--seed", "1",
                     "--seconds", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke("--workload", "finite_tables", "--seed", "1",
                  "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_references_agree_with_closed_forms():
    # Munn tree vertex count of a^n is n + 1; u u^-1 u equals u.
    assert refs.munn_vertices((1,) * 5) == 6
    u = (1, -2, 2, 1, -1, 2)
    assert refs.fis_equal(u, u + refs.invert(u) + u)
    assert not refs.fis_equal((1,), (1, 1, -1))
    # The full transformation monoid on 3 points, from its standard
    # generators, has 27 elements and 3 J-classes.
    gens = [(1, 2, 0), (1, 0, 2), (0, 0, 2)]
    size, counts = refs.transformation_green_counts(gens)
    assert size == 27 and counts["J"] == 3 and counts["D"] == 3
    assert refs.pz_count("R", 10) == 11


def test_job_time_scale_uses_the_kernel_samples_near_the_job():
    calib = speed.Calibration()
    calib.samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    calib.times = [0.0, 5.0, 9.0, 9.5, 10.5, 11.5, 20.0]
    # A job from 10.0 to 10.4 s sees the samples that ended 9.0 to 11.4 s.
    assert calib.scale(10.0, 10.4) == speed.REFERENCE_S / 2.0
    assert calib.scale(9.0, 9.2) == speed.REFERENCE_S / 1.5
    assert calib.scale(5.5, 6.0) == speed.REFERENCE_S / 1.0
