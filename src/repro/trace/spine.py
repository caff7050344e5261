"""The span spine: one event stream for everything a run does.

A :class:`Tracer` accumulates two kinds of facts about an execution,
both stamped with *virtual* (sim-clock) times:

* **spans** — things with extent: the whole run, one recurrence, one
  execution phase (map / shuffle / pane-reduce / combine / post), one
  task occupying a slot. Spans form a tree via ``parent_id``, giving
  the hierarchy ``run → recurrence → phase → task``.
* **events** — instants: scheduler decisions (the ``sched.*`` family,
  read back with ``repro.hadoop.timeline.decisions``), injected faults,
  task retries, cache losses. Events may be parented to a span.

The tracer is deliberately dumb: it never interprets names, never
aggregates, and never touches the clock — producers stamp times
explicitly, which is what keeps the spine exact under virtual time.
Consumers live next door: :mod:`repro.trace.chrome` renders the spine
as a Chrome-trace/Perfetto JSON, :mod:`repro.trace.report` folds it
into per-window reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = [
    "CAT_RUN",
    "CAT_RECURRENCE",
    "CAT_JOB",
    "CAT_PHASE",
    "CAT_TASK",
    "CAT_SCHED",
    "CAT_FAULT",
    "CAT_SERVICE",
    "CAT_CHAOS",
    "CAT_EXEC",
    "PHASE_NAMES",
    "Span",
    "TraceEvent",
    "Tracer",
]

#: Span categories (the level of the hierarchy a span belongs to).
CAT_RUN = "run"
CAT_RECURRENCE = "recurrence"
#: A plain-Hadoop job (the baseline's per-window unit, same level as a
#: Redoop recurrence).
CAT_JOB = "job"
CAT_PHASE = "phase"
CAT_TASK = "task"

#: Event categories.
CAT_SCHED = "sched"
CAT_FAULT = "fault"
#: Service-lifecycle instants (submit/pause/deregister/shed/checkpoint)
#: emitted by :mod:`repro.service`.
CAT_SERVICE = "service"
#: Chaos-harness injections (``chaos.*`` instants from
#: :mod:`repro.chaos`): deliberate mid-flight events, distinct from the
#: ``fault``-category *consequences* the runtime records.
CAT_CHAOS = "chaos"
#: Execution-backend instants (``exec.batch`` / ``exec.worker`` from
#: :mod:`repro.exec`): wall-clock pool accounting stamped at the
#: virtual time of the batch. Spans never carry wall times — these
#: instants are the only place real seconds appear on the spine.
CAT_EXEC = "exec"

#: Phase spans every Redoop recurrence emits, in presentation order.
PHASE_NAMES = ("map", "shuffle", "pane-reduce", "combine", "post")


@dataclass
class Span:
    """One node of the span tree. Mutable: open spans are ended later."""

    span_id: int
    name: str
    category: str
    start: float
    #: ``None`` while the span is open; exporters substitute the
    #: tracer's high-water mark.
    end: Optional[float] = None
    parent_id: Optional[int] = None
    #: Simulated node the span ran on (task spans); ``None`` for
    #: master-side spans (run/recurrence/phase).
    node_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span extent; an open span has zero duration."""
        return (self.end if self.end is not None else self.start) - self.start


@dataclass
class TraceEvent:
    """One instant on the spine.

    ``time`` may be ``None`` for events with no natural timestamp
    (e.g. task-list pops, which happen in scheduler logic between
    clock readings); exporters skip those, query APIs still see them.
    ``data`` carries an arbitrary payload object — the scheduler stores
    its :class:`~repro.hadoop.timeline.SchedulingDecision` here, so the
    decision log and the trace are one store, not two.
    """

    event_id: int
    name: str
    category: str
    time: Optional[float] = None
    parent_id: Optional[int] = None
    node_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    data: Any = None


ParentRef = Union[Span, int, None]


def _parent_id(parent: ParentRef) -> Optional[int]:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.span_id
    return int(parent)


class Tracer:
    """Accumulates spans and events; the single observability store."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._events: List[TraceEvent] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _take_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def begin(
        self,
        name: str,
        category: str,
        start: float,
        *,
        parent: ParentRef = None,
        node_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; close it later with :meth:`end` / :meth:`extend`."""
        span = Span(
            span_id=self._take_id(),
            name=name,
            category=category,
            start=start,
            parent_id=_parent_id(parent),
            node_id=node_id,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        return span

    def end(self, span: Span, end: float, **attrs: Any) -> Span:
        """Close ``span`` at time ``end`` (which may not precede its start)."""
        if end < span.start:
            raise ValueError(
                f"span {span.name!r} cannot end at {end} before its "
                f"start {span.start}"
            )
        span.end = end
        span.attrs.update(attrs)
        return span

    def extend(self, span: Span, until: float) -> Span:
        """Push a span's end out to at least ``until`` (never shrinks)."""
        if span.end is None or span.end < until:
            span.end = max(until, span.start)
        return span

    def span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        parent: ParentRef = None,
        node_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span in one call."""
        span = self.begin(
            name, category, start, parent=parent, node_id=node_id, **attrs
        )
        return self.end(span, end)

    def instant(
        self,
        name: str,
        category: str,
        time: Optional[float] = None,
        *,
        parent: ParentRef = None,
        node_id: Optional[int] = None,
        data: Any = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Record an instantaneous event."""
        event = TraceEvent(
            event_id=self._take_id(),
            name=name,
            category=category,
            time=time,
            parent_id=_parent_id(parent),
            node_id=node_id,
            attrs=dict(attrs),
            data=data,
        )
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def spans(
        self,
        *,
        category: Optional[str] = None,
        parent: ParentRef = None,
    ) -> List[Span]:
        """Recorded spans, optionally filtered by category and/or parent."""
        pid = _parent_id(parent)
        return [
            s
            for s in self._spans
            if (category is None or s.category == category)
            and (parent is None or s.parent_id == pid)
        ]

    def events(self, *, category: Optional[str] = None) -> List[TraceEvent]:
        return [
            e
            for e in self._events
            if category is None or e.category == category
        ]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def get_span(self, span_id: int) -> Span:
        for s in self._spans:
            if s.span_id == span_id:
                return s
        raise KeyError(f"no span with id {span_id}")

    def high_water(self) -> float:
        """Latest time the spine knows about (open spans render to here)."""
        times: List[float] = [0.0]
        for s in self._spans:
            times.append(s.end if s.end is not None else s.start)
        for e in self._events:
            if e.time is not None:
                times.append(e.time)
        return max(times)

    def clear_events(self, category: str) -> None:
        """Drop all events of one category (keeps spans intact)."""
        self._events = [e for e in self._events if e.category != category]

    def envelope(self, spans: Iterable[Span]) -> Optional[tuple]:
        """``(min start, max end)`` over ``spans``; ``None`` when empty."""
        items = list(spans)
        if not items:
            return None
        return (
            min(s.start for s in items),
            max(s.end if s.end is not None else s.start for s in items),
        )

    def __len__(self) -> int:
        return len(self._spans) + len(self._events)
