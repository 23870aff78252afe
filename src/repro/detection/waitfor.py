"""Cross-monitor deadlock detection via a wait-for graph (extension).

Section 2.1 notes that "when more than one resource are to be shared
and/or if a user needs to access more than one resource, deadlock
prevention or avoidance in resource allocation needs to be implemented."
Algorithm-3's Request-List sees only one allocator at a time, so a
*circular* wait spanning several allocator monitors (the greedy dining
philosophers) surfaces there only as eventual ``Tlimit`` timeouts.

``DeadlockDetector`` closes that gap: it assembles the per-allocator
Request-Lists and state snapshots into one wait-for graph —

* a pid *holds* a monitor's resource when it appears in the Request-List
  and is not currently parked in any of that monitor's queues,
* a pid *waits for* a monitor's resource when it is in the Request-List
  and parked in one of its queues (entry queue or condition queue),
* edges run from each waiter to every holder of the awaited resource —

and reports every elementary cycle (found by a depth-first search over the
edges) as a ``ST-WF`` violation naming the pids and monitors involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.detection.detector import FaultDetector
from repro.detection.reports import FaultReport
from repro.detection.rules import STRule
from repro.ids import Pid

__all__ = ["ResourceWaitEdge", "DeadlockDetector"]


@dataclass(frozen=True)
class ResourceWaitEdge:
    """One waiter-to-holder dependency used to build the graph."""

    waiter: Pid
    holder: Pid
    monitor: str


def simple_cycles(graph: Mapping[Pid, Mapping[Pid, str]]) -> list[list[Pid]]:
    """Every elementary cycle of ``graph``, each once.

    A cycle is found from its smallest pid only (the search never steps to
    a smaller one), so no rotation of it is reported twice."""
    cycles: list[list[Pid]] = []
    for root in sorted(graph):
        path = [root]
        branches = [iter(sorted(graph[root]))]
        while branches:
            for successor in branches[-1]:
                if successor == root:
                    cycles.append(list(path))
                elif successor > root and successor not in path:
                    path.append(successor)
                    branches.append(iter(sorted(graph.get(successor, ()))))
                    break
            else:
                branches.pop()
                path.pop()
    return cycles


class DeadlockDetector:
    """Detects circular waits across a set of allocator monitors.

    Construct it over the :class:`~repro.detection.detector.FaultDetector`
    instances of the participating allocators (each must have Algorithm-3
    enabled, which is automatic for resource-allocator monitors) and call
    :meth:`check` periodically — or wire :meth:`process` into a kernel
    like ``detector_process``.
    """

    def __init__(self, detectors: Iterable[FaultDetector]) -> None:
        self._detectors = list(detectors)
        for detector in self._detectors:
            if detector.algorithm3 is None:
                raise ValueError(
                    f"monitor {detector.monitor.name!r} has no calling-order "
                    "checker; wait-for analysis needs its Request-List"
                )
        self.reports: list[FaultReport] = []
        #: Cycles found so far, as tuples of pids (for tests/diagnostics).
        self.cycles: list[tuple[Pid, ...]] = []

    # ------------------------------------------------------------ graph build

    def edges(self) -> list[ResourceWaitEdge]:
        """Current waiter -> holder dependencies across all monitors."""
        edges: list[ResourceWaitEdge] = []
        for detector in self._detectors:
            checker = detector.algorithm3
            assert checker is not None
            snapshot = detector.monitor.snapshot()
            parked = snapshot.all_waiting_pids() | set(snapshot.running_pids)
            requesters = checker.holders()
            holders = [pid for pid in requesters if pid not in parked]
            waiters = [pid for pid in requesters if pid in parked]
            for waiter in waiters:
                for holder in holders:
                    if holder != waiter:
                        edges.append(
                            ResourceWaitEdge(
                                waiter=waiter,
                                holder=holder,
                                monitor=detector.monitor.name,
                            )
                        )
        return edges

    def graph(self) -> dict[Pid, dict[Pid, str]]:
        """The wait-for graph as an adjacency mapping:
        waiter -> {holder: monitor of the awaited resource}."""
        graph: dict[Pid, dict[Pid, str]] = {}
        for edge in self.edges():
            graph.setdefault(edge.waiter, {})[edge.holder] = edge.monitor
        return graph

    # ---------------------------------------------------------------- checks

    def check(self, now: Optional[float] = None) -> list[FaultReport]:
        """Find circular waits; returns (and retains) one report per cycle."""
        graph = self.graph()
        if now is None:
            now = max(
                (d.monitor.kernel.now() for d in self._detectors), default=0.0
            )
        new_reports: list[FaultReport] = []
        for cycle in simple_cycles(graph):
            ordered = tuple(sorted(cycle))
            if ordered in self.cycles:
                continue  # already reported
            self.cycles.append(ordered)
            monitors = sorted(
                {
                    monitor
                    for waiter in cycle
                    for holder, monitor in graph[waiter].items()
                    if holder in cycle
                }
            )
            chain = " -> ".join(f"P{pid}" for pid in cycle + [cycle[0]])
            new_reports.append(
                FaultReport(
                    rule=STRule.WAIT_FOR_CYCLE,
                    message=(
                        f"circular wait {chain} across monitors "
                        f"{', '.join(monitors)}: each process holds a "
                        "resource the next one is blocked on"
                    ),
                    monitor=",".join(monitors),
                    detected_at=now,
                    pids=ordered,
                )
            )
        self.reports.extend(new_reports)
        return new_reports

    @property
    def clean(self) -> bool:
        return not self.reports


def deadlock_process(detector: DeadlockDetector, interval: float = 1.0):
    """Kernel process body running the wait-for check every ``interval``.

    Spawn alongside the workload, like
    :func:`~repro.detection.detector.detector_process`::

        deadlocks = DeadlockDetector([det_a, det_b])
        kernel.spawn(deadlock_process(deadlocks, interval=1.0))
    """
    from repro.kernel.syscalls import Delay

    while True:
        yield Delay(interval)
        detector.check()
