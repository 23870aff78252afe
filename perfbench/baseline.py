"""Record a baseline: several seeded runs per workload plus one traced run.

Run from the repository root::

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --trace-seed 1 --out perfbench/results/baseline.json

For every workload of ``BENCHMARK.json`` it runs the benchmark command
once per seed with ``--trace 0`` and reports each end-to-end metric's
median, quartiles and spread (quartile distance over median, the
steadiness figure each metric's bound is checked against), then one run
with ``--trace 1`` for the per-layer metrics and layer shares.  Commit
the output so the trajectory lives in git; a change that claims a gain
quotes the metric and workload names from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - started


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, __, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "trace_seed": args.trace_seed,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, elapsed = _invoke(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {elapsed:.1f} s {values}", flush=True)
        summary = {
            name: _summary([run["metrics"][name]["value"] for run in runs])
            for name in bounds
        }
        traced, elapsed = _invoke(workload, args.trace_seed, args.seconds, 1)
        report["workloads"][workload] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": summary,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
            "runs": runs,
        }
        for name, figures in summary.items():
            flag = "" if figures["spread"] < bounds[name] / 3 else "  (>= bound/3)"
            print(
                f"{workload:17} {name:15} median {figures['median']:.6g} "
                f"spread {figures['spread']:.4f} bound {bounds[name]}{flag}",
                flush=True,
            )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
