"""The Cache-Aware Task Scheduler (paper Sec. 4.3, Algorithm 2, Eq. 4).

Redoop extends Hadoop's TaskScheduler with two ideas:

* **task lists** — separate ``mapTaskList`` and ``reduceTaskList``
  queues fed by ready-bit transitions in the window-aware cache
  controller: a pane becoming HDFS-available enqueues its map task; a
  pane's cache becoming available pairs it with its lifespan partners
  and enqueues reduce tasks;
* **Eq. 4 node choice** — ``node = argmin_i (Load_i + C_task,i)``,
  where ``Load_i`` is the node's pending work and ``C_task,i`` the
  SOPA-style I/O cost of running the task on node ``i`` (cheap where
  the task's cached input lives, expensive elsewhere). This trades off
  cache locality against load balance: a fully loaded node loses the
  task even if it holds the cache.

The task lists are the *only* path to execution: the runtime enqueues
every map and reduce task, then drains the lists through
:meth:`~CacheAwareTaskScheduler.next_map` /
:meth:`~CacheAwareTaskScheduler.next_reduce` and executes exactly the
request each pop returns. Every pop, Eq. 4 selection, and recovery drop
is recorded on an attached span spine as a
:class:`~repro.hadoop.timeline.SchedulingDecision` (read back with
:func:`~repro.hadoop.timeline.decisions`), so tests can assert *why* a
node was chosen.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..hadoop.cluster import Cluster
from ..hadoop.counters import Counters
from ..hadoop.node import MAP_SLOT, REDUCE_SLOT, TaskNode
from ..hadoop.timeline import SchedulingDecision, record_decision
from ..trace import Tracer
from .panes import pane_name, split_pid

__all__ = ["MapTaskRequest", "ReduceTaskRequest", "CacheAwareTaskScheduler"]


@dataclass(frozen=True, slots=True)
class MapTaskRequest:
    """A schedulable map task: process one newly arrived pane."""

    query: str
    pid: str
    input_bytes: int
    #: HDFS nodes holding replicas of the pane's blocks.
    locations: Tuple[int, ...] = ()

    @property
    def task_id(self) -> str:
        return f"{self.query}/{self.pid}"


@dataclass(frozen=True, slots=True)
class ReduceTaskRequest:
    """A schedulable reduce task: one pane combination, one partition."""

    query: str
    #: source -> pane index of the combination to reduce.
    panes: Tuple[Tuple[str, int], ...]
    partition: int
    #: total bytes the task must read.
    input_bytes: int
    #: node id -> bytes of the task's input cached on that node.
    cached_bytes_by_node: Tuple[Tuple[int, int], ...] = ()

    @property
    def task_id(self) -> str:
        return f"{self.query}/p{self.partition}"

    def pane_pids(self) -> Tuple[str, ...]:
        """The pane identifiers this task reads, as the registry names them."""
        return tuple(pane_name(src, idx) for src, idx in self.panes)


class CacheAwareTaskScheduler:
    """Eq. 4 node selection plus the Algorithm 2 task lists.

    Parameters
    ----------
    cluster:
        The cluster whose live nodes Eq. 4 chooses among.
    tracer:
        Optional span spine; every pop/select/drop decision is recorded
        there as a ``"sched"`` event (plus blacklist instants).
    counters:
        Optional :class:`~repro.hadoop.counters.Counters` bag receiving
        the ``sched.*`` counters (see ``docs/counters.md``).
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        tracer: Optional[Tracer] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        self.cluster = cluster
        self.tracer = tracer
        self.counters = counters
        self.map_task_list: Deque[MapTaskRequest] = deque()
        self.reduce_task_list: Deque[ReduceTaskRequest] = deque()
        #: node id -> accumulated task-failure score.
        self._failure_scores: Dict[int, float] = {}
        #: node id -> virtual time the blacklist expires.
        self._blacklisted_until: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # task lists (Algorithm 2 bookkeeping)
    # ------------------------------------------------------------------

    def enqueue_map(self, request: MapTaskRequest) -> None:
        """A pane became HDFS-available: its map task is schedulable."""
        self.map_task_list.append(request)
        self._count("sched.map_enqueued")

    def enqueue_reduce(self, request: ReduceTaskRequest) -> None:
        """A cache pairing became complete: its reduce task is schedulable."""
        self.reduce_task_list.append(request)
        self._count("sched.reduce_enqueued")

    def next_map(self) -> Optional[MapTaskRequest]:
        """FIFO pop from the map task list (Algorithm 2 lines 6-12)."""
        if not self.map_task_list:
            return None
        request = self.map_task_list.popleft()
        self._count("sched.map_dispatched")
        if self.tracer is not None:
            record_decision(
                self.tracer,
                SchedulingDecision(
                    event="pop",
                    kind=MAP_SLOT,
                    task=request.task_id,
                    request=request,
                    queue_depth=len(self.map_task_list),
                )
            )
        return request

    def next_reduce(self) -> Optional[ReduceTaskRequest]:
        """Pop the most cache-covered reduce task (Algorithm 2 lines 13-18).

        The scheduler prefers tasks whose every input partition is
        cached, then tasks with at least one cached partition, then the
        rest — in FIFO order within each class.
        """
        if not self.reduce_task_list:
            return None
        best_idx = 0
        best_rank = self._cache_rank(self.reduce_task_list[0])
        if best_rank != 0:
            for idx, request in enumerate(self.reduce_task_list):
                rank = self._cache_rank(request)
                if rank < best_rank:
                    best_idx, best_rank = idx, rank
                    if rank == 0:
                        break
        self.reduce_task_list.rotate(-best_idx)
        request = self.reduce_task_list.popleft()
        self.reduce_task_list.rotate(best_idx)
        self._count("sched.reduce_dispatched")
        self._count(f"sched.reduce_rank{best_rank}_dispatched")
        if self.tracer is not None:
            record_decision(
                self.tracer,
                SchedulingDecision(
                    event="pop",
                    kind=REDUCE_SLOT,
                    task=request.task_id,
                    request=request,
                    rank=best_rank,
                    queue_depth=len(self.reduce_task_list),
                )
            )
        return request

    @staticmethod
    def _cache_rank(request: ReduceTaskRequest) -> int:
        """Cache-coverage class: 0 fully cached, 1 partial, 2 uncached.

        A task with no input to read gains nothing from cache-first
        ordering, so ``input_bytes <= 0`` ranks *uncached* — ranking it
        "fully cached" would let degenerate (or phantom) requests jump
        every queue.
        """
        if request.input_bytes <= 0:
            return 2
        cached = sum(b for _n, b in request.cached_bytes_by_node)
        if cached >= request.input_bytes:
            return 0  # fully cached
        if cached > 0:
            return 1  # partially cached
        return 2  # nothing cached

    def drop_reduce_tasks_using(self, pid: str) -> List[ReduceTaskRequest]:
        """Remove scheduled reduce tasks that relied on a lost cache.

        Sec. 5 failure recovery: "the scheduled tasks, using this cache,
        must be removed from the ReduceTaskList immediately." Returns
        the removed tasks so map tasks re-creating the cache can be
        enqueued.

        ``pid`` may be a pane cache id (job-namespaced, e.g.
        ``wc:S1P3``) or a combination cache id (``wc:S1P3xwc:S2P4``);
        a queued task is dropped when any pane it reads matches any
        part of the lost pid. The filter is a single identity-safe
        pass, so equal duplicate requests are judged independently.
        """
        parts = frozenset(split_pid(pid))
        removed: List[ReduceTaskRequest] = []
        kept: Deque[ReduceTaskRequest] = deque()
        for request in self.reduce_task_list:
            if any(p in parts for p in request.pane_pids()):
                removed.append(request)
            else:
                kept.append(request)
        if removed:
            self.reduce_task_list = kept
            self._count("sched.reduce_dropped", len(removed))
            if self.tracer is not None:
                for request in removed:
                    record_decision(
                        self.tracer,
                        SchedulingDecision(
                            event="drop",
                            kind=REDUCE_SLOT,
                            task=request.task_id,
                            request=request,
                            queue_depth=len(kept),
                        )
                    )
        return removed

    def abort_pending(self, query: Optional[str] = None) -> int:
        """Flush pending task requests (degraded-window rollback).

        When a window is abandoned after attempt exhaustion, any tasks
        it already enqueued must not leak into the next recurrence.
        With ``query`` set, only that query's requests are discarded —
        in multi-tenant serve mode other queries' enqueued work must
        survive one tenant's degradation. ``None`` flushes everything
        (full-runtime teardown). Returns the number discarded.
        """
        if query is None:
            aborted = len(self.map_task_list) + len(self.reduce_task_list)
            if aborted:
                self.map_task_list.clear()
                self.reduce_task_list.clear()
        else:
            kept_maps = deque(
                r for r in self.map_task_list if r.query != query
            )
            kept_reduces = deque(
                r for r in self.reduce_task_list if r.query != query
            )
            aborted = (
                len(self.map_task_list)
                - len(kept_maps)
                + len(self.reduce_task_list)
                - len(kept_reduces)
            )
            self.map_task_list = kept_maps
            self.reduce_task_list = kept_reduces
        if aborted:
            self._count("sched.tasks_aborted", aborted)
        return aborted

    # ------------------------------------------------------------------
    # per-node failure scoring and blacklisting
    # ------------------------------------------------------------------

    def record_task_failure(
        self, node_id: int, now: float, *, failures: float = 1.0
    ) -> None:
        """Charge ``failures`` task failures against a node.

        Crossing ``config.blacklist_threshold`` blacklists the node for
        ``config.blacklist_cooldown`` virtual seconds: Eq. 4 treats it
        as infinite-cost (it is filtered from the candidate set) until
        the cooldown expires, at which point its score resets.
        """
        score = self._failure_scores.get(node_id, 0.0) + failures
        self._failure_scores[node_id] = score
        if (
            score >= self.cluster.config.blacklist_threshold
            and node_id not in self._blacklisted_until
        ):
            until = now + self.cluster.config.blacklist_cooldown
            self._blacklisted_until[node_id] = until
            self._count("sched.nodes_blacklisted")
            if self.tracer is not None:
                self.tracer.instant(
                    "node.blacklisted",
                    "fault",
                    time=now,
                    node_id=node_id,
                    score=score,
                    until=until,
                )

    def is_blacklisted(self, node_id: int, now: float) -> bool:
        """Whether Eq. 4 currently excludes the node (lazily expiring)."""
        until = self._blacklisted_until.get(node_id)
        if until is None:
            return False
        if now < until:
            return True
        del self._blacklisted_until[node_id]
        self._failure_scores.pop(node_id, None)
        self._count("sched.nodes_unblacklisted")
        if self.tracer is not None:
            self.tracer.instant(
                "node.unblacklisted",
                "fault",
                time=now,
                node_id=node_id,
            )
        return False

    def blacklisted_nodes(self, now: float) -> List[int]:
        """Currently blacklisted node ids (for monitoring/invariants)."""
        return sorted(
            n for n in list(self._blacklisted_until) if self.is_blacklisted(n, now)
        )

    # ------------------------------------------------------------------
    # Eq. 4 node selection
    # ------------------------------------------------------------------

    def select_map_node(
        self, request: MapTaskRequest, now: float
    ) -> TaskNode:
        """Place a map task: Eq. 4 with HDFS replica locality as C_task."""
        locations = set(request.locations)

        def io_cost(node: TaskNode) -> float:
            local = request.input_bytes if node.node_id in locations else 0
            return self.cluster.cost_model.task_io_cost(
                request.input_bytes, bytes_local=local
            )

        node, load, c_task = self._argmin_eq4(now, io_cost)
        if node.node_id in locations:
            self._count("sched.map_local_selects")
        if self.tracer is not None:
            record_decision(
                self.tracer,
                SchedulingDecision(
                    event="select",
                    kind=MAP_SLOT,
                    task=request.task_id,
                    request=request,
                    node_id=node.node_id,
                    load=load,
                    c_task=c_task,
                    time=now,
                )
            )
        return node

    def select_reduce_node(
        self, request: ReduceTaskRequest, now: float
    ) -> TaskNode:
        """Place a reduce task: Eq. 4 with cache residency as C_task."""
        cached = dict(request.cached_bytes_by_node)

        def io_cost(node: TaskNode) -> float:
            local = min(cached.get(node.node_id, 0), request.input_bytes)
            return self.cluster.cost_model.task_io_cost(
                request.input_bytes, bytes_local=local
            )

        node, load, c_task = self._argmin_eq4(now, io_cost)
        if cached.get(node.node_id, 0) > 0:
            self._count("sched.reduce_cache_local_selects")
        if self.tracer is not None:
            record_decision(
                self.tracer,
                SchedulingDecision(
                    event="select",
                    kind=REDUCE_SLOT,
                    task=request.task_id,
                    request=request,
                    node_id=node.node_id,
                    load=load,
                    c_task=c_task,
                    rank=self._cache_rank(request),
                    time=now,
                )
            )
        return node

    def _argmin_eq4(
        self, now: float, io_cost: Callable[[TaskNode], float]
    ) -> Tuple[TaskNode, float, float]:
        """The Eq. 4 winner with the ``load`` and ``c_task`` it won on.

        Each candidate's terms are evaluated once; ties go to the lower
        node id.
        """
        live = self.cluster.live_nodes()
        if not live:
            raise RuntimeError("no live nodes to schedule on")
        # Blacklisted nodes carry infinite Eq. 4 cost — equivalently,
        # they leave the candidate set. If *every* live node is
        # blacklisted the cluster must still make progress, so the
        # filter degrades to "pick among all live nodes".
        candidates = [n for n in live if not self.is_blacklisted(n.node_id, now)]
        if not candidates:
            candidates = live

        terms = [(node.load_at(now), io_cost(node), node) for node in candidates]
        load, c_task, node = min(
            terms, key=lambda t: (t[0] + t[1], t[2].node_id)
        )
        return node, load, c_task

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.counters is not None:
            self.counters.increment(name, amount)
