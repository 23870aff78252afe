"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

The quick mode runs every workload at a small size through the real
command; the negative cases check that a report stream missing one report
is counted as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR)]

import run  # noqa: E402  (puts the program's sources on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", trace, "--quick",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _run(workload: str, tmp_path: Path) -> run.Run:
    args = argparse.Namespace(workload=workload, seed=3, quick=True, seconds=0.1)
    return run.Run(args, tmp_path)


def test_dropped_report_counts_as_failure(tmp_path):
    bench = _run("inproc-busy", tmp_path)
    assert bench.reference, "the III.a fault must make the stream non-empty"
    bench.check({"reports": list(bench.reference)})
    assert (bench.attempted, bench.failed) == (1, 0)
    bench.check({"reports": bench.reference[1:]})
    assert (bench.attempted, bench.failed) == (2, 1)


def test_dropped_service_report_counts_as_failure(tmp_path):
    bench = _run("service-ingest", tmp_path)
    shape = workloads.shape_for("service-ingest", quick=True)
    hello, frames, events = workloads.build_corpus(shape, 3)
    result = workloads.run_service(hello, frames, events, state_dir=tmp_path / "s")
    assert result["failed"] == 0 and result["reports"]
    bench.check(result)
    assert (bench.attempted, bench.failed) == (len(frames), 0)
    bench.check(dict(result, reports=result["reports"][:-1]))
    assert bench.failed == 1


def test_unacked_window_counts_as_failure():
    frames = [("s", 0, b""), ("s", 1, b"")]
    ack = b'{"type":"ack","watermarks":{"s":0},"credits":16}\n'
    acks = [{1: b"%d\n%s" % (len(ack), ack)}, {}]
    assert workloads._ack_failures(frames, acks) == 1


def test_reference_is_the_full_rewalk_and_matches(tmp_path):
    shape = workloads.shape_for("inproc-busy", quick=True)
    reference = workloads.run_inproc(shape, 5, state_dir=tmp_path, reference=True)
    measured = workloads.run_inproc(shape, 5, state_dir=tmp_path)
    assert reference["reports"] == measured["reports"]
    assert reference["events"] == measured["events"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _bench(
        "--workload", "inproc-busy", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    assert setup[0]["bound"] == max(bounds)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_self_times_charge_blocking_wall_to_the_threads_it_waited_for():
    main, other = spans._MAIN, -1
    recorded = [
        (1, 0, "work", main, 0.0, 10.0, 0.0),
        (4, 3, "snapshot", other, 12.0, 14.0, 1.0),
        (3, 0, "batch", other, 5.0, 15.0, 6.0),
        (2, 0, "drain", main, 10.0, 20.0, 0.0),
    ]
    wall, attributed, calls = spans.self_times(recorded, blocking="drain")
    assert wall == {"work": 10.0, "snapshot": 2.0, "batch": 8.0, "drain": 10.0}
    # inside the drain the other thread is the critical path (wall);
    # outside it, it is charged the CPU it took from the main thread
    assert attributed["snapshot"] == 2.0
    assert attributed["batch"] == (6.0 - 1.0) * 0.5 + (5.0 - 2.0)
    assert attributed["drain"] == 10.0 - 5.0
    assert attributed["work"] == 10.0
    assert calls == {"work": 1, "snapshot": 1, "batch": 1, "drain": 1}
