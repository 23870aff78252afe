"""Layered detection benchmark: one command, seeded workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload inproc-busy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run that attributes the wall time
to layers and prints the per-layer metrics.  Both check every report
stream and print, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each execution of a workload runs in a fresh interpreter (``--child``),
so one execution's heap and peak resident memory never carry into the
next; a service execution replays its corpus several times, each into a
fresh server.  Executions repeat until ``--seconds`` of them have run.
``events_per_s`` is all events over all measured wall, ``latency_p50_ms``
the mean and ``latency_p99_ms`` the median over replays of each replay's
percentile, with the counts printed alongside (``_end_to_end`` says why).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

#: Setup-only trials per execution, so ``setup_s`` is a median of many.
SETUP_TRIALS = 2
#: Service corpus replays per measured execution.  One replay is shorter
#: than starting the interpreter; four keep most of a run measuring.
SERVICE_REPLAYS = 4
#: Longest a single execution may take before the run is abandoned.
CHILD_TIMEOUT_S = 170.0
#: Layers measured on the hardened deployment (``workloads.hardened``).
_HARDENED_LAYERS = ("wal", "durability", "procpool")
#: Layers whose share of the hardened deployment's traced wall is reported.
_HARDENED_SHARES = ("wal", "capture", "evaluate", "durability", "procpool")
#: Metric prefixes of layers a workload never enters (their values are 0),
#: keyed by "is the service workload".
_NOT_ENTERED = {
    True: ("workload", "history", "capture", "hardened") + _HARDENED_LAYERS,
    False: ("service", "hardened") + _HARDENED_LAYERS,
}
#: Layers a traced run attributes wall time to, in report order.
LAYERS = (
    "history", "wal", "capture", "evaluate", "durability",
    "procpool", "supervision", "service",
)


def _metric_specs() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` name -> unit, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ------------------------------------------------------------------ child


def _child(task: dict) -> list[dict]:
    """One workload execution in this (fresh) interpreter: its replays."""
    import workloads

    state_dir = Path(task["state_dir"])
    spans_out = Path(task["spans_out"]) if task.get("spans_out") else None
    shape = workloads.shape_for(task["workload"], quick=task["quick"])
    if task.get("hardened"):
        shape = workloads.hardened(shape)
    if task["mode"] == "plain":
        return [workloads.run_plain(shape, task["seed"])]
    if task["workload"] == "service-ingest":
        corpus = json.loads(Path(task["corpus"]).read_text(encoding="utf-8"))
        hello = corpus["hello"].encode("utf-8")
        frames = [(s, q, p.encode("utf-8")) for s, q, p in corpus["frames"]]
        setups = [
            workloads.service_setup(hello, state_dir=state_dir)
            for __ in range(SETUP_TRIALS)
        ]
        replays = SERVICE_REPLAYS if task["mode"] == "measured" else 1
        results = [
            workloads.run_service(
                hello,
                frames,
                corpus["events"],
                state_dir=state_dir,
                traced=task["mode"] == "traced",
                spans_out=spans_out,
            )
            for __ in range(replays)
        ]
    else:
        setups = [
            workloads.inproc_setup(shape, task["seed"], state_dir=state_dir)
            for __ in range(SETUP_TRIALS)
        ]
        results = [
            workloads.run_inproc(
                shape,
                task["seed"],
                state_dir=state_dir,
                traced=task["mode"] == "traced",
                spans_out=spans_out,
            )
        ]
    for result in results:
        result["setups_s"] = [result.pop("setup_s")]
    results[0]["setups_s"] += setups
    shutil.rmtree(state_dir, ignore_errors=True)
    return results


def _spawn(task: dict) -> list[dict]:
    """Run one execution in a fresh interpreter and wait for it to end."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(task)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"{task['workload']} {task['mode']} execution exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- parent


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _median(values) -> float:
    return statistics.median(values)


class Run:
    """One benchmark invocation: inputs, reference, executions, checks."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        import workloads

        self.args = args
        self.workload = args.workload
        self.service = args.workload == "service-ingest"
        self.attempted = 0
        self.failed = 0
        self.first_reports: list[str] | None = None
        self.task = {
            "workload": args.workload,
            "seed": args.seed,
            "quick": args.quick,
            "state_dir": str(work / "state"),
        }
        shape = workloads.shape_for(args.workload, quick=args.quick)
        self.hardened_probe = getattr(shape, "hardened_probe", False)
        if self.service:
            # Input generation: built once per run, not timed.
            hello, frames, events = workloads.build_corpus(shape, args.seed)
            corpus = work / "corpus.json"
            corpus.write_text(
                json.dumps(
                    {
                        "hello": hello.decode("utf-8"),
                        "events": events,
                        "frames": [(s, q, p.decode("utf-8")) for s, q, p in frames],
                    }
                ),
                encoding="utf-8",
            )
            self.task["corpus"] = str(corpus)
            self.reference = None
        else:
            # The full re-walk oracle: incremental off, inline, memory sinks.
            self.reference = workloads.run_inproc(
                shape, args.seed, state_dir=work / "state", reference=True
            )["reports"]

    def execute(
        self, mode: str, *, spans_out: Path | None = None, hardened: bool = False
    ) -> list[dict]:
        """One execution in a fresh interpreter: its checked replays."""
        task = dict(self.task, mode=mode, hardened=hardened)
        if spans_out is not None:
            task["spans_out"] = str(spans_out)
        results = _spawn(task)
        if mode != "plain":
            for result in results:
                self.check(result)
        return results

    def check(self, result: dict) -> None:
        """Count failed operations against those attempted."""
        import workloads

        if self.service:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            if self.first_reports is None:
                self.first_reports = result["reports"]
            # every execution replays the same corpus: same delivered stream
            self.failed += workloads.stream_failures(
                self.first_reports, result["reports"]
            )
        else:
            self.attempted += 1
            self.failed += workloads.stream_failures(self.reference, result["reports"])

    def deadline_reached(self, started: float, executions: int) -> bool:
        return executions > 0 and time.monotonic() - started >= self.args.seconds


def _end_to_end(run: Run, units: dict) -> dict:
    """The run's figures over all its replays.

    The shared host runs this code in a few distinct speed modes, each
    lasting seconds, which move a replay's median latency by up to 1.7x
    and its top percentile much less.  So the throughput is all events
    over all measured wall and the median latency is the mean of the
    replays' medians: both follow the share of the run spent in each mode
    smoothly, where a median over replays jumps between modes.  Each
    replay's p99 is taken on its own (pooled, the one replay a host
    hiccup slows would fill the top percent alone) and the median of them
    reported, which a single such replay cannot move.
    """
    results = []
    executions = 0
    started = time.monotonic()
    while not run.deadline_reached(started, executions):
        executions += 1
        for result in run.execute("measured"):
            results.append(result)
            print(
                f"# execution {executions} replay {len(results)}: "
                f"{result['events'] / result['wall_s']:.1f} events/s, "
                f"p50 {1e3 * _percentile(result['latency_s'], 0.50):.4f} ms, "
                f"p99 {1e3 * _percentile(result['latency_s'], 0.99):.4f} ms"
            )
    setups = [s for result in results for s in result["setups_s"]]
    values = {
        "setup_s": _median(setups),
        "events_per_s": sum(r["events"] for r in results) / sum(r["wall_s"] for r in results),
        "latency_p50_ms": 1e3 * statistics.fmean(
            _percentile(r["latency_s"], 0.50) for r in results
        ),
        "latency_p99_ms": 1e3 * _median(_percentile(r["latency_s"], 0.99) for r in results),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in results),
    }
    print(
        f"# {run.workload}: {executions} executions, {len(results)} replays of "
        f"{results[0]['events']} events and {len(results[0]['latency_s'])} "
        f"latency samples each; {len(setups)} set-ups"
    )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _per_layer(run: Run, units: dict, spans_out: Path) -> dict:
    plain, untraced, traced, probes = [], [], [], []
    started = time.monotonic()
    while not run.deadline_reached(started, len(traced)):
        if not run.service:
            plain += [r["plain_s"] for r in run.execute("plain")]
        untraced += run.execute("measured")
        traced += run.execute("traced", spans_out=spans_out)
        if run.hardened_probe:
            probes += run.execute("traced", hardened=True)

    values: dict[str, float] = {}
    for name in traced[0]["layers"]:
        values[name] = _median(r["layers"][name] for r in traced)
    # Shares are of the traced wall, so layers and residual describe one
    # run; what the spans themselves cost is stated as trace.overhead.
    wall = _median(r["wall_s"] for r in traced)
    plain_s = _median(plain) if plain else 0.0
    attributed = {
        layer: _median(r["attributed"].get(layer, 0.0) for r in traced)
        for layer in LAYERS
    }
    values["workload.plain_s"] = plain_s
    values["workload.overhead_ratio"] = (
        _median(r["wall_s"] for r in untraced) / plain_s if plain_s else 0.0
    )
    values["share.workload"] = plain_s / wall
    for layer in LAYERS:
        values[f"share.{layer}"] = attributed[layer] / wall
    values["residual_share"] = 1.0 - (plain_s + sum(attributed.values())) / wall
    if probes:
        # the same traffic on the hardened deployment
        for name in probes[0]["layers"]:
            if name.split(".")[0] in _HARDENED_LAYERS:
                values[name] = _median(r["layers"][name] for r in probes)
        probe_wall = _median(r["wall_s"] for r in probes)
        values["hardened.wall_ratio"] = probe_wall / wall
        for layer in _HARDENED_SHARES:
            share = _median(r["attributed"].get(layer, 0.0) for r in probes) / probe_wall
            values[f"hardened.share.{layer}"] = share
            print(f"# hardened deployment: {layer:<12} {100 * share:6.2f} % of its traced wall")
    values["trace.overhead"] = _median(
        r["events"] / r["wall_s"] for r in untraced
    ) / _median(r["events"] / r["wall_s"] for r in traced)

    for name in units:
        if name not in values:
            if name.split(".")[0] not in _NOT_ENTERED[run.service]:
                raise KeyError(f"traced run produced no value for {name}")
            values[name] = 0
    print(f"# {run.workload}: {len(traced)} traced executions; spans in {spans_out}")
    shares = sorted(
        ((values[f"share.{layer}"], layer) for layer in ("workload",) + LAYERS),
        reverse=True,
    )
    for share, layer in shares:
        print(f"#   {layer:<12} {100 * share:6.2f} % of the traced wall")
    print(f"#   {'residual':<12} {100 * values['residual_share']:6.2f} %")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="small inputs (the benchmark's tests)"
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(_child(json.loads(args.child))))
        return 0

    import workloads  # fails here, before any result, without the program

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    end_to_end, per_layer = _metric_specs()
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        if args.trace:
            spans_out = out_dir / "spans" / f"{args.workload}-seed{args.seed}.json"
            metrics = _per_layer(run, per_layer, spans_out)
        else:
            metrics = _end_to_end(run, end_to_end)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
