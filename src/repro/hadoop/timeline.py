"""Task timeline recording and cluster-utilisation analysis.

The simulator schedules every task through
:meth:`~repro.hadoop.node.TaskNode.occupy_slot`; attaching a
:class:`Timeline` to a cluster records each occupancy as a
``(node, kind, start, finish)`` interval. From the timeline one can
compute per-node busy time, slot utilisation over a horizon, and the
cluster-wide concurrency profile — the observability a real deployment
would get from the JobTracker UI.

:class:`SchedulingDecision` complements the timeline with *decisions*:
for every task the cache-aware scheduler pops from a task list and
places, it records which request was dequeued, at what cache-coverage
rank, and why the chosen node won Eq. 4 (its load and its ``C_task`` I/O
cost). Tests use the log to assert *why* a node was chosen — not merely
that something ran somewhere.

The decision log lives on the span spine (:class:`repro.trace.Tracer`):
:func:`record_decision` stores each decision as one ``"sched"``-category
trace event and :func:`decisions` reads them back, so the decision log
and the exported run trace are a single source of truth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.trace import CAT_SCHED, Tracer

from .cluster import Cluster
from .node import SlotKind

__all__ = [
    "TaskInterval",
    "Timeline",
    "attach_timeline",
    "SchedulingDecision",
    "decisions",
    "record_decision",
]


@dataclass(frozen=True, slots=True)
class TaskInterval:
    """One task's occupancy of one slot."""

    node_id: int
    kind: SlotKind
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Timeline:
    """Accumulates task intervals and answers utilisation queries."""

    def __init__(self) -> None:
        self._intervals: List[TaskInterval] = []

    def record(
        self, node_id: int, kind: SlotKind, start: float, finish: float
    ) -> None:
        if finish < start:
            raise ValueError("a task cannot finish before it starts")
        self._intervals.append(TaskInterval(node_id, kind, start, finish))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def intervals(
        self,
        *,
        node_id: Optional[int] = None,
        kind: Optional[SlotKind] = None,
    ) -> List[TaskInterval]:
        """Recorded intervals, optionally filtered."""
        return [
            iv
            for iv in self._intervals
            if (node_id is None or iv.node_id == node_id)
            and (kind is None or iv.kind == kind)
        ]

    def busy_time(
        self,
        *,
        node_id: Optional[int] = None,
        kind: Optional[SlotKind] = None,
    ) -> float:
        """Total task-seconds (slot-occupancy, counts parallel work)."""
        return sum(iv.duration for iv in self.intervals(node_id=node_id, kind=kind))

    def span(self) -> Tuple[float, float]:
        """``(earliest start, latest finish)`` over all intervals."""
        if not self._intervals:
            raise ValueError("the timeline is empty")
        return (
            min(iv.start for iv in self._intervals),
            max(iv.finish for iv in self._intervals),
        )

    def utilisation(
        self,
        total_slots: int,
        *,
        kind: Optional[SlotKind] = None,
        horizon: Optional[Tuple[float, float]] = None,
    ) -> float:
        """Fraction of available slot-time spent busy over a horizon."""
        if total_slots < 1:
            raise ValueError("need at least one slot")
        lo, hi = horizon if horizon is not None else self.span()
        if hi <= lo:
            raise ValueError("empty horizon")
        busy = sum(
            max(0.0, min(iv.finish, hi) - max(iv.start, lo))
            for iv in self.intervals(kind=kind)
        )
        return busy / (total_slots * (hi - lo))

    def peak_concurrency(self, *, kind: Optional[SlotKind] = None) -> int:
        """Maximum number of tasks running at once."""
        events: List[Tuple[float, int]] = []
        for iv in self.intervals(kind=kind):
            events.append((iv.start, 1))
            events.append((iv.finish, -1))
        # Finishes sort before starts at the same instant: half-open
        # intervals never overlap at a shared boundary.
        events.sort(key=lambda e: (e[0], e[1]))
        current = peak = 0
        for _t, delta in events:
            current += delta
            peak = max(peak, current)
        return peak

    def per_node_busy(self) -> Dict[int, float]:
        """Busy seconds per node — the load-balance picture."""
        busy: Dict[int, float] = defaultdict(float)
        for iv in self._intervals:
            busy[iv.node_id] += iv.duration
        return dict(busy)

    def __len__(self) -> int:
        return len(self._intervals)


@dataclass(frozen=True)
class SchedulingDecision:
    """One event in the scheduler's decision log.

    ``event`` is one of:

    * ``"pop"`` — a request left a task list (``rank`` is its cache
      coverage at pop time: 0 fully cached, 1 partial, 2 uncached;
      map pops carry no rank);
    * ``"select"`` — Eq. 4 placed the request (``load``/``c_task``
      explain the winning node's objective value);
    * ``"execute"`` — the runtime ran the popped request on a node;
    * ``"drop"`` — failure recovery removed the request from a list.
    """

    event: str
    kind: SlotKind
    task: str
    #: The request object itself, so tests can assert that the request
    #: executed *is* (identity, not equality) the one popped.
    request: Any = None
    node_id: Optional[int] = None
    load: Optional[float] = None
    c_task: Optional[float] = None
    rank: Optional[int] = None
    time: Optional[float] = None
    queue_depth: Optional[int] = None


def record_decision(tracer: Tracer, decision: SchedulingDecision) -> None:
    """Store ``decision`` as one ``"sched.<event>"`` instant on the spine,
    with the decision itself as the event's ``data`` payload."""
    tracer.instant(
        f"sched.{decision.event}",
        CAT_SCHED,
        time=decision.time,
        node_id=decision.node_id,
        data=decision,
        task=decision.task,
        kind=str(decision.kind),
    )


def decisions(
    tracer: Tracer,
    *,
    event: Optional[str] = None,
    kind: Optional[SlotKind] = None,
) -> List[SchedulingDecision]:
    """Recorded decisions, optionally filtered by event and slot kind."""
    return [
        d
        for d in (e.data for e in tracer.events(category=CAT_SCHED))
        if isinstance(d, SchedulingDecision)
        and (event is None or d.event == event)
        and (kind is None or d.kind == kind)
    ]


def attach_timeline(cluster: Cluster) -> Timeline:
    """Attach a fresh :class:`Timeline` to every node of ``cluster``.

    Returns the timeline; all subsequent task placements on the cluster
    are recorded. Attaching again replaces the previous observer.
    """
    timeline = Timeline()
    for node in cluster.nodes():
        node.slot_observer = timeline.record
    return timeline
