"""The benchmark's workloads, driven through the program's public API.

Every workload is generated from one seed by one process: the sim kernel
with a seeded ``RandomPolicy`` fixes the interleaving, so a seed fixes
the event stream, the checkpoint windows and the expected reports.

* ``inproc-busy`` — the paper's Table-1 configuration: an 8-monitor fleet
  of coordinator, allocator and manager, busy traffic, inline evaluation
  into memory sinks.  Recording and incremental replay dominate.  Its
  traced run also executes the same traffic on the hardened deployment:
  WAL sinks, report journal and snapshots (``fsync="never"``) and the
  process evaluation plane.
* ``inproc-idle-wide`` — its mirror: 64 monitors with sparse traffic and
  many checkpoints, so capture and the zero-event fast path dominate.
* ``service-ingest`` — a seeded window corpus replayed into a
  ``DetectionServer`` with an on-disk journal, one frame in flight.

Each in-process workload adds one buggy user that calls ``release()``
without ``request()`` (fault III.a), so the report stream is not empty.
"""

from __future__ import annotations

import random
import resource
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

from repro.apps.bounded_buffer import BoundedBuffer
from repro.apps.resource_allocator import SingleResourceAllocator
from repro.apps.shared_account import SharedAccount
from repro.detection.config import DetectorConfig
from repro.detection.durability import report_key
from repro.detection.session import DetectionSession
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.syscalls import Delay, Syscall
from repro.service.client import DetectionClient, client_process
from repro.service.framing import FrameDecoder, encode_frame
from repro.service.protocol import hello_frame
from repro.service.server import DetectionServer, service_report_key
from repro.workloads.scenarios import WorkloadSpec, build_fleet

from spans import Tracer, self_times

__all__ = [
    "InprocShape",
    "ServiceShape",
    "WORKLOADS",
    "shape_for",
    "hardened",
    "run_plain",
    "inproc_setup",
    "run_inproc",
    "service_setup",
    "build_corpus",
    "run_service",
    "stream_failures",
]

#: Timeouts far above any residence time of the healthy workload: the
#: sweeps still run (their cost is part of what is measured) but only the
#: injected fault is reported.
_TIMEOUTS = dict(tmax=120.0, tio=120.0, tlimit=120.0)


@dataclass(frozen=True)
class InprocShape:
    """Fixed input size of one in-process workload."""

    monitors: int
    processes: int
    operations: int
    think_time: float
    interval: float
    rounds: int
    durable: bool = False
    evaluation: str = "inline"
    #: The traced run also executes this traffic on the hardened
    #: deployment (``durable_dir`` and the process evaluation plane), for
    #: the ``history.wal``, ``detection.durability`` and
    #: ``detection.procpool`` layers.
    hardened_probe: bool = False


@dataclass(frozen=True)
class ServiceShape:
    """Fixed input size of the service workload's window corpus."""

    rounds: int
    operations: int
    interval: float


WORKLOADS = {
    "inproc-busy": InprocShape(8, 6, 400, 0.01, 0.02, 1200, hardened_probe=True),
    "inproc-idle-wide": InprocShape(64, 2, 5, 10.0, 0.25, 2000),
    "service-ingest": ServiceShape(rounds=400, operations=3000, interval=0.05),
}


def hardened(shape: InprocShape) -> InprocShape:
    """The same traffic with ``durable_dir`` and the process evaluation plane."""
    return replace(shape, durable=True, evaluation="processes", hardened_probe=False)


def shape_for(workload: str, *, quick: bool = False):
    """The workload's shape; ``quick`` shrinks it for the benchmark's tests."""
    shape = WORKLOADS[workload]
    if not quick:
        return shape
    if isinstance(shape, ServiceShape):
        return replace(shape, rounds=20, operations=30)
    return replace(
        shape,
        monitors=min(shape.monitors, 8),
        operations=min(shape.operations, 20),
        rounds=60,
    )


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def report_keys(reports) -> list[str]:
    return [report_key(report) for report in reports]


def stream_failures(reference: list[str], observed: list[str]) -> int:
    """1 when the observed report stream differs from the reference, else 0."""
    return int(reference != observed)


# ------------------------------------------------------------- in-process


def _build(shape: InprocShape, seed: int, *, plain: bool):
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    spec = WorkloadSpec(
        processes=shape.processes,
        operations=shape.operations,
        think_time=shape.think_time,
        seed=seed,
    )
    fleet = build_fleet(
        kernel,
        shape.monitors,
        spec,
        sink_factory=(lambda: None) if plain else None,
    )
    allocator = next(run.monitor for run in fleet if run.name == "allocator")

    def buggy_user() -> Iterator[Syscall]:
        yield Delay(0.5)
        yield from allocator.release()  # never requested: fault III.a

    for index, run in enumerate(fleet):
        run.spawn_all(kernel, prefix=f"m{index}-")
    kernel.spawn(buggy_user(), "buggy-user")
    return kernel, fleet


def _horizon(shape: InprocShape) -> float:
    return shape.rounds * shape.interval + 1.0


def run_plain(shape: InprocShape, seed: int) -> dict:
    """The same seeded traffic with no sink and no session (Table-1 base)."""
    kernel, __ = _build(shape, seed, plain=True)
    started = perf_counter()
    kernel.run(until=_horizon(shape), max_steps=50_000_000)
    wall = perf_counter() - started
    kernel.raise_failures()
    return {"plain_s": wall}


#: Span name -> the layer its self time is attributed to.
LAYER_OF_SPAN = {
    "history.record": "history",
    "history.flush": "history",
    "history.cut": "history",
    "wal.record": "wal",
    "wal.flush": "wal",
    "wal.cut": "wal",
    "capture": "capture",
    "evaluate": "evaluate",
    "procpool.batch": "evaluate",
    "durability.checkpoint": "durability",
    "durability.snapshot": "durability",
    "durability.journal": "durability",
    "procpool.drain": "procpool",
    "procpool.submit": "supervision",
    "supervision.attempt": "supervision",
    "service.feed": "service",
    "service.poll": "service",
    "service.journal": "service",
    "service.evaluate": "evaluate",
}

#: The main-thread span that only waits for work on the pool's threads.
_BLOCKING = "procpool.drain"


def _attribute(attributed: dict) -> dict:
    """Per-layer attributed seconds (the residual's terms)."""
    layers: dict[str, float] = {}
    for name, seconds in attributed.items():
        layer = LAYER_OF_SPAN[name]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def _instrument(session: DetectionSession, tracer: Tracer, durable: bool) -> None:
    """Span every public layer boundary of an assembled session."""
    layer = "wal" if durable else "history"
    for entry in session.entries:
        sink = entry.history
        tracer.wrap(sink, "record", f"{layer}.record")
        tracer.wrap(sink, "flush_staged", f"{layer}.flush")
        tracer.wrap(sink, "cut", f"{layer}.cut")
    pools = []
    for shard in session.shards:
        tracer.wrap(shard.supervisor, "attempt", "supervision.attempt")
        tracer.wrap(shard.engine, "capture_phase", "capture", keep=True)
        tracer.wrap(shard.engine, "evaluate_phase", "evaluate")
        if durable:
            target = shard.target
            tracer.wrap(shard, "finish_durable_checkpoint", "durability.checkpoint")
            tracer.wrap(target, "checkpoint", "durability.checkpoint")
            tracer.wrap(target.snapshots, "write", "durability.snapshot", keep=True)
            tracer.wrap(target.journal, "admit", "durability.journal", keep=True)
        if shard.pool is not None and shard.pool not in pools:
            pools.append(shard.pool)
    for pool in pools:
        submit = pool.submit

        def submit_spanned(index, job, submit=submit):
            submit(index, tracer.spanned(job, "procpool.batch"))

        pool.submit = submit_spanned
        tracer.wrap(pool, "submit_shard", "procpool.submit")
        tracer.wrap(pool, "drain", "procpool.drain")


def _assemble(shape: InprocShape, seed: int, *, state_dir: Path, reference: bool):
    """Build the seeded fleet, then the session around it (timed: set-up).

    Set-up covers session construction, fleet registration and
    ``start()``; for the process plane also the wait until the evaluator
    workers answered their warm-up ping.
    """
    kernel, fleet = _build(shape, seed, plain=False)
    durable = shape.durable and not reference
    if durable:
        shutil.rmtree(state_dir, ignore_errors=True)
    config = DetectorConfig(
        interval=shape.interval,
        incremental_checking=not reference,
        **_TIMEOUTS,
    )
    started = perf_counter()
    session = DetectionSession(
        kernel,
        config=config,
        durable_dir=state_dir if durable else None,
        fsync="never",
        evaluation="inline" if reference else shape.evaluation,
    )
    for run in fleet:
        session.register(run.monitor)
    session.start(rounds=shape.rounds)
    pools = [shard.pool for shard in session.shards if shard.pool is not None]
    if pools:
        session.drain()
    return kernel, session, pools, perf_counter() - started


def inproc_setup(shape: InprocShape, seed: int, *, state_dir: Path) -> float:
    """One set-up of the detection stack alone; returns its seconds."""
    __, session, ___, setup_s = _assemble(
        shape, seed, state_dir=state_dir, reference=False
    )
    session.stop()
    session.close()
    return setup_s


def run_inproc(
    shape: InprocShape,
    seed: int,
    *,
    state_dir: Path,
    reference: bool = False,
    traced: bool = False,
    spans_out: Optional[Path] = None,
) -> dict:
    """One execution of an in-process workload through ``DetectionSession``.

    ``reference`` is the full re-walk oracle: ``incremental_checking=False``,
    inline evaluation, memory sinks, same seed.  ``traced`` spans every
    layer boundary (per-layer metrics); otherwise only ``capture_phase``
    is spanned, for the world-stop latency samples.  ``wall_s`` runs from
    the end of set-up until ``stop()`` has drained every evaluation and
    flushed durable state.
    """
    kernel, session, pools, setup_s = _assemble(
        shape, seed, state_dir=state_dir, reference=reference
    )
    tracer = Tracer()
    if traced:
        _instrument(session, tracer, shape.durable and not reference)
    else:  # only the world-stop latency samples
        for shard in session.shards:
            tracer.wrap(shard.engine, "capture_phase", "capture")

    started = perf_counter()
    kernel.run(until=_horizon(shape), max_steps=50_000_000)
    session.stop()
    wall = perf_counter() - started
    kernel.raise_failures()

    events = sum(entry.history.total_recorded for entry in session.entries)
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "events": events,
        "checkpoints": session.checkpoints_run,
        "reports": report_keys(session.reports),
        "peak_rss_mb": _peak_rss_mb(),
    }
    result["latency_s"] = [
        end - start
        for __, ___, name, ____, start, end, _____ in tracer.spans
        if name == "capture"
    ]
    if traced:
        result.update(_inproc_layers(session, tracer, events, pools))
        if spans_out is not None:
            tracer.dump(spans_out)
    session.close()
    return result


def _inproc_layers(session, tracer: Tracer, events: int, pools: list) -> dict:
    """Per-layer metrics and attributed seconds of one traced run."""
    wall_self, attributed, calls = self_times(tracer.spans, blocking=_BLOCKING)
    busy = wall_self.get
    engines = [shard.engine for shard in session.shards]
    captures = sum(tracer.results["capture"])
    windows = sum(engine.evaluations_run for engine in engines)
    hits = sum(engine.incremental_hits for engine in engines)
    rebases = sum(engine.incremental_rebases for engine in engines)
    fastpaths = sum(engine.incremental_fastpaths for engine in engines)
    wals = [entry.history for entry in session.entries if hasattr(entry.history, "fsyncs")]
    wal_events = sum(wal.total_recorded for wal in wals)
    snapshots = tracer.results.get("durability.snapshot", [])
    kinds = [event.kind for __, event in session.supervisor_events()]

    def sink_record(layer: str) -> float:
        # whole record spans: they enclose the staged-batch flushes they trigger
        name = f"{layer}.record"
        return sum(span[5] - span[4] for span in tracer.spans if span[2] == name)

    history_s = sink_record("history")
    metrics = {
        "history.record_s": history_s,
        "history.record_ns_per_event": 1e9 * history_s / events if events else 0.0,
        "history.staged_flushes": sum(engine.staged_flushes for engine in engines),
        "wal.record_s": sink_record("wal"),
        "wal.bytes_per_event": (
            sum(wal.bytes_written for wal in wals) / wal_events if wal_events else 0.0
        ),
        "wal.fsyncs": sum(wal.fsyncs for wal in wals),
        "wal.segments": sum(wal.segment_count for wal in wals),
        "capture.calls": calls.get("capture", 0),
        "capture.busy_s": busy("capture", 0.0),
        "capture.captures": captures,
        "capture.skipped": calls.get("capture", 0) * len(session.entries) - captures,
        "evaluate.busy_s": busy("evaluate", 0.0) + busy("procpool.batch", 0.0),
        "evaluate.windows": windows,
        "evaluate.fastpath_share": fastpaths / windows if windows else 0.0,
        "evaluate.carry_hit_ratio": hits / (hits + rebases) if hits + rebases else 0.0,
        "evaluate.reports": len(session.reports),
        "durability.checkpoint_self_s": busy("durability.checkpoint", 0.0),
        "durability.snapshot_s": busy("durability.snapshot", 0.0),
        "durability.snapshots": len(snapshots),
        "durability.snapshot_bytes": snapshots[-1].stat().st_size if snapshots else 0,
        "durability.journal_admits": sum(
            1 for admitted in tracer.results.get("durability.journal", []) if admitted
        ),
        "procpool.batches": calls.get("procpool.batch", 0),
        "procpool.worker_cpu_s": sum(
            sum(getattr(pool, "per_worker_cpu", ())) for pool in pools
        ),
        "procpool.drain_wait_s": busy("procpool.drain", 0.0),
        "supervision.retries": kinds.count("retry"),
        "supervision.failures": kinds.count("failure"),
    }
    return {"layers": metrics, "attributed": _attribute(attributed)}


# ---------------------------------------------------------------- service


def build_corpus(shape: ServiceShape, seed: int) -> tuple[bytes, list[tuple[str, int, bytes]], int]:
    """Seeded window corpus: ``(hello frame, [(stream, seq, frame)], events)``.

    A sim-kernel workload records through a ``DetectionClient`` whose
    connector never succeeds, so every captured window stays buffered;
    the frames are then shipped in capture order.  One buggy user calls
    ``release()`` without ``request()`` (fault III.a).
    """
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    client = DetectionClient(
        kernel,
        lambda: None,
        name="bench",
        interval=shape.interval,
        replay_limit=1_000_000,
        seed=seed,
    )
    buffer = BoundedBuffer(kernel, capacity=3)
    allocator = SingleResourceAllocator(kernel, name="allocator")
    account = SharedAccount(kernel, initial_balance=0)
    for label, monitor in (("buffer", buffer), ("allocator", allocator), ("account", account)):
        client.attach(monitor, label=label, capacity=1_000_000, **_TIMEOUTS)
    think = shape.rounds * shape.interval * 0.9 / shape.operations
    rng = random.Random(seed)

    def pause(scale: float = 1.0) -> Delay:
        return Delay(think * scale * rng.uniform(0.5, 1.5))

    def producer() -> Iterator[Syscall]:
        for item in range(shape.operations):
            yield pause()
            yield from buffer.send(item)

    def consumer() -> Iterator[Syscall]:
        for __ in range(shape.operations):
            yield pause()
            yield from buffer.receive()

    def user() -> Iterator[Syscall]:
        for __ in range(shape.operations // 2):
            yield pause(2.0)
            yield from allocator.request()
            yield pause(0.25)
            yield from allocator.release()

    def depositor() -> Iterator[Syscall]:
        for __ in range(shape.operations):
            yield pause()
            yield from account.deposit(10)

    def withdrawer() -> Iterator[Syscall]:
        for __ in range(shape.operations):
            yield pause()
            yield from account.withdraw(10)

    def buggy_user() -> Iterator[Syscall]:
        yield Delay(shape.interval * 3.5)
        yield from allocator.release()  # never requested: fault III.a

    bodies = [producer(), consumer(), user(), user(), depositor(), withdrawer(), buggy_user()]
    for index, body in enumerate(bodies):
        kernel.spawn(body, f"p{index}")
    kernel.spawn(client_process(client, rounds=shape.rounds, drain_rounds=0), "client")
    kernel.run(until=shape.rounds * shape.interval * 3 + 30.0, max_steps=50_000_000)
    kernel.raise_failures()
    streams = client.streams
    hello = hello_frame(
        client.name,
        client.token,
        [stream.spec() for stream in streams.values()],
        {label: -1 for label in streams},
    )
    frames: list[tuple[str, int, bytes]] = []
    events = 0
    pending = {label: list(stream.pending) for label, stream in streams.items()}
    for index in range(max(len(items) for items in pending.values())):
        for label, items in pending.items():
            if index < len(items):
                frame = items[index]
                events += len(frame["segment"]["events"])
                frames.append((label, int(frame["seq"]), encode_frame(frame)))
    return encode_frame(hello), frames, events


def _instrument_server(server: DetectionServer, tracer: Tracer) -> None:
    tracer.wrap(server, "feed", "service.feed")
    tracer.wrap(server, "poll", "service.poll")
    tracer.wrap(server.engine, "evaluate_phase", "service.evaluate")
    for method in ("admit", "advance", "flush"):
        tracer.wrap(server.journal, method, "service.journal")


def _start_server(hello: bytes, state_dir: Path):
    """Server construction, connect and hello handshake (timed: set-up)."""
    shutil.rmtree(state_dir, ignore_errors=True)
    started = perf_counter()
    server = DetectionServer(
        SimKernel(RandomPolicy(seed=0), on_deadlock="stop"),
        config=DetectorConfig(interval=1.0, **_TIMEOUTS),
        durable_dir=state_dir,
    )
    server.connect(1)
    welcome = server.feed(1, hello)
    server.poll()
    return server, welcome, perf_counter() - started


def service_setup(hello: bytes, *, state_dir: Path) -> float:
    """One set-up of the service stack alone; returns its seconds."""
    server, __, setup_s = _start_server(hello, state_dir)
    server.close()
    return setup_s


def run_service(
    hello: bytes,
    frames: list[tuple[str, int, bytes]],
    events: int,
    *,
    state_dir: Path,
    traced: bool = False,
    spans_out: Optional[Path] = None,
) -> dict:
    """Replay the corpus into a fresh durable server, one frame in flight.

    ``wall_s`` runs from the first ``feed`` to the last ack; each latency
    sample from one window's ``feed`` to the ``poll`` that returns its ack.
    """
    server, welcome, setup_s = _start_server(hello, state_dir)
    tracer = Tracer() if traced else None
    if tracer is not None:
        _instrument_server(server, tracer)

    acks: list[dict[int, bytes]] = []
    latencies: list[float] = []
    feed, poll, clock = server.feed, server.poll, perf_counter
    started = clock()
    for __, ___, payload in frames:
        sent = clock()
        feed(1, payload)
        replies = poll()
        latencies.append(clock() - sent)
        acks.append(replies)
    wall = clock() - started

    failed = _ack_failures(frames, acks)
    keys = [service_report_key(report) for report in server.delivered]
    failed += len(keys) - len(set(keys))
    failed += server.gaps_detected + len(server.quarantines)
    failed += int(not welcome)
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "events": events,
        "attempted": len(frames),
        "failed": failed,
        "reports": report_keys(server.delivered),
        "latency_s": latencies,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        wall_self, attributed, __ = self_times(tracer.spans)
        busy = wall_self.get
        bytes_fed = sum(len(payload) for __, ___, payload in frames)
        kinds = [event.kind for event in server.supervisor.events]
        engine = server.engine
        windows = engine.evaluations_run
        carried = engine.incremental_hits + engine.incremental_rebases
        result["layers"] = {
            "service.feed_s": busy("service.feed", 0.0),
            "service.poll_s": busy("service.poll", 0.0),
            "service.evaluate_s": busy("service.evaluate", 0.0),
            "service.journal_s": busy("service.journal", 0.0),
            "service.bytes_per_event": bytes_fed / events if events else 0.0,
            "service.windows_rejected": len(frames) - server.windows_accepted,
            "service.backpressure": server.backpressure_sent,
            "evaluate.busy_s": busy("service.evaluate", 0.0),
            "evaluate.windows": windows,
            "evaluate.fastpath_share": engine.incremental_fastpaths / windows
            if windows
            else 0.0,
            "evaluate.carry_hit_ratio": engine.incremental_hits / carried
            if carried
            else 0.0,
            "evaluate.reports": len(server.delivered),
            "supervision.retries": kinds.count("retry"),
            "supervision.failures": kinds.count("failure"),
        }
        result["attributed"] = _attribute(attributed)
        if spans_out is not None:
            tracer.dump(spans_out)
    server.close()
    return result


def _ack_failures(frames, acks) -> int:
    """Windows not acked exactly once by the poll that followed their feed."""
    failed = 0
    acked: dict[str, int] = {}
    for (stream, seq, __), replies in zip(frames, acks):
        payload = replies.get(1)
        if payload is None:
            failed += 1
            continue
        decoded = FrameDecoder().feed(payload)
        if len(decoded) != 1 or decoded[0].get("type") != "ack":
            failed += 1
            continue
        marks = decoded[0].get("watermarks", {})
        if marks.get(stream) != seq or acked.get(stream, -1) >= seq:
            failed += 1
        acked[stream] = marks.get(stream, -1)
    return failed
