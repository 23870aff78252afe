"""Property tests: the replay machine's blocked-pid index never drifts.

:class:`~repro.detection.replay.ReplayMachine` answers ST-Rule 4 ("a
blocked process cannot act") from a multiset of the pids on the
Enter-0-List, every Wait-Cond-List and the urgent list, updated at each
list mutation instead of rescanning the lists per event.  Two properties
pin that down over arbitrary — including impossible — event sequences:

* after every step the multiset equals a full rescan of the lists, and
* the report stream equals that of a reference machine whose membership
  test rescans the lists (the index bypassed), report for report.

The sequences deliberately include events from blocked pids, pids queued
on several lists at once, waits on undeclared conditions, Hoare and Mesa
signals, ``rebase``/``begin_window`` mid-sequence and a durable
``restore_state`` round trip.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection.algorithm1 import IncrementalConcurrencyChecker
from repro.detection.replay import ReplayMachine
from repro.history.events import EventKind, SchedulingEvent
from repro.history.serialize import state_from_dict, state_to_dict
from repro.history.states import QueueEntry, SchedulingState
from repro.monitor import Discipline, MonitorDeclaration, MonitorType

PIDS = st.integers(min_value=1, max_value=4)
#: ``ghost`` is never declared: a Wait on it opens a Wait-Cond-List
#: mid-window, which ``rebase`` must then clear.
CONDS = ("alpha", "beta", "ghost")


def declaration(discipline: Discipline) -> MonitorDeclaration:
    return MonitorDeclaration(
        name="m",
        mtype=MonitorType.OPERATION_MANAGER,
        procedures=("Op",),
        conditions=("alpha", "beta"),
        discipline=discipline,
    )


class _ScanningIndex(dict):
    """A blocked-pid multiset whose membership test rescans the lists."""

    def __init__(self, machine: ReplayMachine) -> None:
        super().__init__()
        self._machine = machine

    def __contains__(self, pid) -> bool:
        return self._machine._blocked_location(pid) is not None


class ScanningMachine(ReplayMachine):
    """Reference: the replay machine with ST-Rule 4's index bypassed."""

    def __init__(self, declaration, base_state) -> None:
        super().__init__(declaration, base_state)
        scanning = _ScanningIndex(self)
        scanning.update(self._blocked)
        self._blocked = scanning


def rescan(machine: ReplayMachine) -> dict:
    lists = (machine.enter0, *machine.wait_cond.values(), machine.urgent)
    return dict(Counter(entry.pid for queue in lists for entry in queue))


entries = st.lists(
    st.builds(
        QueueEntry,
        pid=PIDS,
        pname=st.just("Op"),
        since=st.floats(min_value=0, max_value=5),
    ),
    max_size=3,
)

states = st.builds(
    SchedulingState,
    time=st.floats(min_value=0, max_value=5),
    entry_queue=entries.map(tuple),
    cond_queues=st.dictionaries(
        st.sampled_from(CONDS), entries.map(tuple), max_size=3
    ),
    running=st.lists(
        st.builds(QueueEntry, pid=PIDS, pname=st.just("Op"), since=st.just(0.0)),
        max_size=2,
    ).map(tuple),
    urgent=entries.map(tuple),
)


@st.composite
def event_steps(draw):
    kind = draw(st.sampled_from(list(EventKind)))
    flag = draw(st.sampled_from((0, 1)))
    if kind is EventKind.ENTER:
        cond = None
    elif kind is EventKind.WAIT:
        cond, flag = draw(st.sampled_from(CONDS)), 0
    else:
        cond = draw(st.none() | st.sampled_from(CONDS))
        if cond is None and kind is EventKind.SIGNAL:
            flag = 0
    return ("event", kind, draw(PIDS), flag, cond)


steps = st.one_of(
    event_steps(),
    event_steps(),
    event_steps(),
    st.tuples(st.just("rebase"), states),
    st.tuples(st.just("begin_window"), st.floats(min_value=0, max_value=5)),
    st.tuples(st.just("restore")),
)


def restored(declaration, machine: ReplayMachine) -> ReplayMachine:
    """The machine a durable Algorithm-1 snapshot round trip rebuilds."""
    checker = IncrementalConcurrencyChecker(declaration)
    checker.restore_state(
        {"lists": state_to_dict(machine.export_state()), "carried": False}
    )
    return checker._machine


EMPTY = SchedulingState(time=0.0, entry_queue=(), cond_queues={}, running=())


def handoff(signal_kind: EventKind) -> list:
    """P1 waits on alpha; P2 enters, P3 queues behind it, P2 signals
    alpha; then every process exits.

    Pinned as explicit examples so every hand-off mutation point (the
    Signal-Exit admission, the Hoare urgent push, the Mesa re-queue) runs
    on every test run, not only when the search happens to reach it."""
    return [
        ("event", EventKind.ENTER, 1, 1, None),
        ("event", EventKind.WAIT, 1, 0, "alpha"),
        ("event", EventKind.ENTER, 2, 1, None),
        ("event", EventKind.ENTER, 3, 0, None),
        ("event", signal_kind, 2, 1, "alpha"),
        ("event", EventKind.SIGNAL_EXIT, 1, 0, None),
        ("event", EventKind.SIGNAL_EXIT, 2, 0, None),
        ("event", EventKind.SIGNAL_EXIT, 3, 0, None),
    ]


@settings(max_examples=300, deadline=None)
@example(Discipline.SIGNAL_EXIT, EMPTY, handoff(EventKind.SIGNAL_EXIT))
@example(Discipline.SIGNAL_AND_WAIT, EMPTY, handoff(EventKind.SIGNAL))
@example(Discipline.SIGNAL_AND_CONTINUE, EMPTY, handoff(EventKind.SIGNAL))
@given(
    discipline=st.sampled_from(list(Discipline)),
    base=states,
    sequence=st.lists(steps, max_size=40),
)
def test_index_tracks_lists_and_reports_match_rescan(
    discipline, base, sequence
):
    decl = declaration(discipline)
    machine = ReplayMachine(decl, base)
    reference = ScanningMachine(decl, base)
    assert machine._blocked == rescan(machine)
    seq = 0
    for step in sequence:
        if step[0] == "event":
            _, kind, pid, flag, cond = step
            seq += 1
            event = SchedulingEvent(seq, kind, pid, "Op", seq * 0.1, flag, cond)
            machine.process(event)
            reference.process(event)
        elif step[0] == "rebase":
            machine.rebase(step[1])
            reference.rebase(step[1])
        elif step[0] == "begin_window":
            machine.begin_window(step[1])
            reference.begin_window(step[1])
        else:
            found = machine.violations, reference.violations
            machine = restored(decl, machine)
            reference = ScanningMachine(
                decl,
                state_from_dict(state_to_dict(reference.export_state())),
            )
            machine.violations, reference.violations = found
        assert machine._blocked == rescan(machine), step
        assert machine.export_state() == reference.export_state(), step
        assert machine.violations == reference.violations, step
