"""Differential check of the quiescent-snapshot reuse in ``MonitorCore``.

``MonitorCore.snapshot`` re-times its last snapshot instead of rebuilding
it while the mutation counter has not moved.  That is only sound if every
primitive that can move a queue entry bumps the counter: a missed bump
would freeze a stale state into every later checkpoint and hide faults.
The ``audit`` fixture checks, after every core primitive of a whole
seeded run, that ``snapshot()`` equals a state rebuilt from the live
queues, field by field — over the scenario set, the other signalling
disciplines, recovery's ``expel`` and faults injected through
:class:`~repro.monitor.hooks.CoreHooks`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import pytest

from repro.apps import BoundedBuffer, CyclicBarrier, HoareBoundedBuffer
from repro.detection import DetectorConfig
from repro.detection.engine import DetectionEngine, engine_process
from repro.history import HistoryDatabase
from repro.history.states import SchedulingState
from repro.injection import TriggeredHooks
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.monitor import Discipline, MonitorCore, MonitorDeclaration, MonitorType
from repro.workloads.scenarios import SCENARIOS, WorkloadSpec, build_scenario
from tests.conftest import consumer, producer

PRIMITIVES = ("enter", "wait", "signal_exit", "signal", "broadcast", "expel")


def rebuilt(core: MonitorCore, time: float) -> SchedulingState:
    """The snapshot built from scratch out of the core's live queues."""
    probe = core._probe
    return SchedulingState(
        time=time,
        entry_queue=tuple(core._entry_queue),
        cond_queues={cond: tuple(q) for cond, q in core._cond_queues.items()},
        running=tuple(core._running),
        resource_count=probe() if probe is not None else None,
        urgent=tuple(core._urgent),
    )


def assert_same_state(actual: SchedulingState, expected: SchedulingState):
    for field in dataclasses.fields(SchedulingState):
        mine = getattr(actual, field.name)
        theirs = getattr(expected, field.name)
        if field.name == "cond_queues":
            mine, theirs = dict(mine), dict(theirs)
        assert mine == theirs, f"{field.name}: {mine!r} != {theirs!r}"


@pytest.fixture
def audit(monkeypatch) -> list[str]:
    """Compare ``snapshot()`` with a rebuilt state after every primitive.

    Returns the names of the primitives audited, in call order."""
    audited: list[str] = []
    for name in PRIMITIVES:
        original = getattr(MonitorCore, name)

        def checked(self, *args, _original=original, _name=name, **kwargs):
            result = _original(self, *args, **kwargs)
            snapshot = self.snapshot()
            assert_same_state(snapshot, rebuilt(self, snapshot.time))
            audited.append(_name)
            return result

        monkeypatch.setattr(MonitorCore, name, checked)
    return audited


def run_detected(kernel: SimKernel, monitor, until: float) -> DetectionEngine:
    engine = DetectionEngine(
        kernel, DetectorConfig(interval=0.3, tmax=100.0, tio=100.0)
    )
    engine.register(monitor)
    kernel.spawn(engine_process(engine), "engine")
    kernel.run(until=until, max_steps=2_000_000)
    kernel.raise_failures()
    return engine


class TestSeededRuns:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios(self, audit, name, seed):
        kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
        spec = WorkloadSpec(operations=8, capacity=1, seed=seed)
        run = build_scenario(name, kernel, HistoryDatabase(), spec)
        run.spawn_all(kernel)
        engine = run_detected(kernel, run.monitor, until=40.0)
        assert {"enter", "wait", "signal_exit"} <= set(audit)
        assert engine.incremental_fastpaths > 0

    def test_hoare_signal(self, audit):
        kernel = SimKernel(RandomPolicy(seed=4), on_deadlock="stop")
        buffer = HoareBoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        for __ in range(2):
            kernel.spawn(producer(buffer, 10, delay=0.03))
            kernel.spawn(consumer(buffer, 10, delay=0.03))
        engine = run_detected(kernel, buffer, until=30.0)
        assert "signal" in audit
        assert not engine.reports

    def test_mesa_broadcast(self, audit):
        kernel = SimKernel(RandomPolicy(seed=5), on_deadlock="stop")
        barrier = CyclicBarrier(kernel, parties=3, history=HistoryDatabase())

        def party(index: int) -> Iterator:
            for __ in range(4):
                yield Delay(0.05 * (index + 1))
                yield from barrier.await_barrier()

        for index in range(3):
            kernel.spawn(party(index))
        engine = run_detected(kernel, barrier, until=30.0)
        assert "broadcast" in audit
        assert not engine.reports


# The faults that change reality through the admission/enter hooks:
# enter_drop_request, admission_skip_victim, enter_admit_despite_owner,
# admission_admit_extra.
HOOKED = ("drop_enter", "starve_victim", "enter_despite_owner", "admit_extra")


class TestInjectedFaults:
    @pytest.mark.parametrize("perturbation", HOOKED)
    def test_hooked_fault(self, audit, perturbation):
        kernel = SimKernel(RandomPolicy(seed=2), on_deadlock="stop")
        hooks = TriggeredHooks(perturbation, fire_at=2, victim=3)
        buffer = BoundedBuffer(
            kernel, capacity=2, history=HistoryDatabase(), hooks=hooks,
            service_time=0.03,
        )
        hooks.core = buffer.monitor.core
        for __ in range(2):
            kernel.spawn(producer(buffer, 12, delay=0.04))
            kernel.spawn(consumer(buffer, 12, delay=0.04))
        engine = run_detected(kernel, buffer, until=60.0)
        assert hooks.fired
        assert engine.reports, f"activated {perturbation} went undetected"


def make_core(discipline=Discipline.SIGNAL_EXIT, probe=None):
    declaration = MonitorDeclaration(
        name="m",
        mtype=MonitorType.OPERATION_MANAGER,
        procedures=("Op",),
        conditions=("ready",),
        discipline=discipline,
    )
    clock = {"now": 0.0}
    core = MonitorCore(
        declaration, now=lambda: clock["now"], resource_probe=probe
    )
    return core, clock


class TestReuse:
    def test_expel(self, audit):
        core, clock = make_core()
        core.enter(1, "Op")
        core.enter(2, "Op")
        clock["now"] = 1.0
        core.expel(1)
        assert audit[-1] == "expel"
        assert core.snapshot().running_pids == (2,)

    def test_quiescent_snapshot_is_retimed(self):
        resources = [3]
        core, clock = make_core(probe=lambda: resources[0])
        core.enter(1, "Op")
        core.enter(2, "Op")
        first = core.snapshot()
        clock["now"] = 2.5
        resources[0] = 1
        second = core.snapshot()
        assert second is not first
        assert (second.time, second.resource_count) == (2.5, 1)
        assert second.entry_queue is first.entry_queue
        assert second.running is first.running
        assert second.urgent is first.urgent
        assert second.cond_queues is first.cond_queues

    def test_retimed_state_stays_read_only(self):
        core, clock = make_core()
        core.enter(1, "Op")
        core.snapshot()
        clock["now"] = 1.0
        retimed = core.snapshot()
        with pytest.raises(TypeError):
            retimed.cond_queues["ready"] = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            retimed.time = 5.0
        assert dict(retimed.cond_queues) == {"ready": ()}
