"""The one task engine behind plain Hadoop and Redoop.

Redoop is Hadoop plus window-aware caches plus its own answer to "which
task runs on which node" (Algorithm 2, Eq. 4); the rest of a task's life
is Hadoop's and lives here once. The scheduler object is the only thing
that tells the two systems apart: failed attempts go to its
``record_task_failure``, a no-op for Hadoop's FIFO scheduler and Eq. 4's
blacklist for Redoop's cache-aware one.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.exec import ExecBackend, SerialBackend, WorkerFaultError
from repro.trace import CAT_FAULT, CAT_RUN, Span, Tracer

from .cluster import Cluster
from .counters import Counters, PhaseTimes
from .faults import FaultInjector, TaskAttemptsExhaustedError
from .node import SlotKind, TaskNode
from .types import KeyValue, Record

__all__ = ["TaskEngine"]


class TaskEngine:
    """Base of ``JobTracker`` and ``RedoopRuntime``: runs and charges tasks.

    Subclasses set ``scheduler``. Backend, faults, tracer and scheduler
    stay plain instance attributes, so a restored runtime can swap its
    backend and checkpoints keep their shape.
    """

    scheduler: Any  # provides record_task_failure(node_id, now, *, failures)

    def __init__(
        self, cluster: Cluster, run_name: str, *, tracer: Optional[Tracer],
        backend: Optional[ExecBackend], faults: Optional[FaultInjector],
    ) -> None:
        self.cluster = cluster
        self.faults = faults
        #: Only pure task bodies run through the backend; scheduling stays
        #: sequential and owns virtual time (see docs/parallelism.md).
        self.backend = backend if backend is not None else SerialBackend()
        #: Shared with the cluster so node fail/recover events interleave.
        self.tracer = tracer if tracer is not None else Tracer()
        if getattr(cluster, "tracer", None) is None:
            cluster.tracer = self.tracer
        self._run_span = self.tracer.begin(run_name, CAT_RUN, cluster.clock.now)

    def _run_backend(
        self, fn, calls: Sequence, *, phase: str, counters: Counters, now: float, task_key: str,
        job_counters: Optional[Counters] = None,
    ) -> List[Any]:
        """Run a task batch through the execution backend.

        The supervisor recovers worker crashes and hangs itself; its
        terminal failure (a dead pool past the rebuild budget) becomes
        the ``TaskAttemptsExhaustedError`` simulated exhaustion raises.
        ``counters`` receives the backend's ``exec.*`` counters and the
        terminal failure's ``task.exhausted``. When that bag outlives
        the job (Redoop's runtime-lifetime bag), ``job_counters`` is the
        recurrence's own bag, where a simulated exhaustion is counted,
        and gets ``task.exhausted`` too.
        """
        try:
            return self.backend.run_tasks(
                fn, calls, phase=phase, counters=counters, tracer=self.tracer, now=now
            )
        except WorkerFaultError as exc:
            counters.increment("task.exhausted")
            if job_counters is not None:
                job_counters.increment("task.exhausted")
            self.tracer.instant(
                "task.exhausted", CAT_FAULT, time=now, node_id=None,
                task=task_key, attempts=exc.attempts,
            )
            raise TaskAttemptsExhaustedError(task_key, exc.attempts) from exc

    def _charge(
        self, task_key: str, node: TaskNode, slot: SlotKind, ready_at: float,
        duration: float, counters: Counters,
    ) -> Tuple[float, float]:
        """Inflate ``duration`` by injected faults and occupy a ``slot``
        of ``node`` from ``ready_at``; returns ``(duration, finish)``."""
        duration = self._with_faults(task_key, duration, counters, ready_at, node.node_id)
        return duration, node.occupy_slot(slot, ready_at, duration)

    def _with_faults(
        self, task_key: str, duration: float, counters: Counters, at: float, node_id: int
    ) -> float:
        """Add injected failed attempts to ``duration``, charging each to
        the node. Exhaustion propagates: Hadoop fails the job, Redoop
        degrades only the window."""
        if self.faults is None:
            return duration
        try:
            effective, retries = self.faults.attempt_duration(task_key, duration)
        except TaskAttemptsExhaustedError as exc:
            exc.node_id = node_id
            counters.increment("task.exhausted")
            # All of its attempts count against the node: enough to trip
            # Redoop's blacklist on their own when the threshold allows.
            self.scheduler.record_task_failure(node_id, at, failures=float(exc.attempts))
            self.tracer.instant(
                "task.exhausted", CAT_FAULT, time=at, node_id=node_id,
                task=task_key, attempts=exc.attempts,
            )
            raise
        if retries:
            counters.increment("task.retries", retries)
            self.scheduler.record_task_failure(node_id, at, failures=float(retries))
            self.tracer.instant(
                "task.retry", CAT_FAULT, time=at, node_id=node_id,
                task=task_key, retries=retries,
            )
        return effective

    def _end_job_span(
        self, span: Span, finish: float, due: float, phases: PhaseTimes, counters: Counters,
        **attrs: Any,
    ) -> None:
        """Close a job's span with what ``repro report`` reads off it, and
        stretch the run span over it."""
        self.tracer.end(
            span, finish, response_time=finish - due, phases=phases.as_dict(),
            counters=counters.as_dict(), **attrs,
        )
        self.tracer.extend(self._run_span, finish)

    def _write_output(
        self, path: str, pairs: Sequence[KeyValue], pair_size: int, finish: float
    ) -> None:
        records = [Record(ts=finish, value=pair, size=pair_size) for pair in pairs]
        self.cluster.hdfs.create(path, records, created_at=finish)
