"""The master-side Window-Aware Cache Controller (paper Sec. 4.2).

Housed on the master node, the controller consolidates the local cache
registries of every task node into compact *cache signatures* —
``(pid, nid, type, ready, doneQueryMask)`` rows (Table 2) — and keeps
one :class:`~repro.core.status_matrix.CacheStatusMatrix` per registered
query. It drives three things:

* **readiness** — a pane progresses ``NOT_AVAILABLE -> HDFS_AVAILABLE
  -> CACHE_AVAILABLE``; the first transition makes its map task
  schedulable, the second makes cache-reusing reduce tasks schedulable
  (Sec. 4.3);
* **expiration** — when a query finishes with a pane (status-matrix
  expiration), the query's bit in the pane's ``doneQueryMask`` flips;
  once every bit is set, purge notifications go out to the nodes
  hosting the cache;
* **failure rollback** — lost caches revert the pane's ready bit to
  ``HDFS_AVAILABLE`` so the scheduler re-creates them (Sec. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from .cache_registry import REDUCE_INPUT, REDUCE_OUTPUT
from .panes import WindowSpec, pane_name, parse_pane_name, split_pid
from .status_matrix import CacheStatusMatrix

__all__ = [
    "NOT_AVAILABLE",
    "HDFS_AVAILABLE",
    "CACHE_AVAILABLE",
    "CacheSignature",
    "PurgeNotification",
    "ReadyListener",
    "WindowAwareCacheController",
]

#: Ready-bit domain (Table 2).
NOT_AVAILABLE = 0
HDFS_AVAILABLE = 1
CACHE_AVAILABLE = 2


@dataclass(slots=True)
class CacheSignature:
    """One consolidated cache row: pid, type, placements, done mask."""

    pid: str
    cache_type: int
    #: partition -> node id hosting that partition's cache data.
    placements: Dict[int, int] = field(default_factory=dict)
    #: query name -> True once the query no longer needs this cache.
    done_query_mask: Dict[str, bool] = field(default_factory=dict)

    @property
    def nodes(self) -> Set[int]:
        return set(self.placements.values())

    def all_done(self) -> bool:
        """True when every registered query has finished with this cache."""
        return bool(self.done_query_mask) and all(self.done_query_mask.values())


@dataclass(frozen=True, slots=True)
class PurgeNotification:
    """Sent from the master to task nodes: purge this pid's caches."""

    pid: str
    node_ids: Tuple[int, ...]


@dataclass(slots=True)
class _QueryInfo:
    name: str
    specs: Dict[str, WindowSpec]
    matrix: CacheStatusMatrix


#: Every cache type a signature can carry (Table 1's domain).
_CACHE_TYPES = (REDUCE_INPUT, REDUCE_OUTPUT)

#: Callback signature for ready-bit transitions: ``(pid, old, new)``.
ReadyListener = Callable[[str, int, int], None]


class WindowAwareCacheController:
    """Global cache metadata and per-query status matrices.

    Ready-bit transitions drive the scheduler's task lists (Sec. 4.3):
    interested parties (the runtime) subscribe via
    :meth:`add_ready_listener` and are notified of every transition —
    a pane reaching ``HDFS_AVAILABLE`` makes its map task schedulable,
    reaching ``CACHE_AVAILABLE`` makes cache-reusing reduce tasks
    schedulable, and a failure rollback to ``HDFS_AVAILABLE`` makes the
    pane map-eligible again.
    """

    def __init__(self) -> None:
        self._queries: Dict[str, _QueryInfo] = {}
        self._signatures: Dict[Tuple[str, int], CacheSignature] = {}
        self._pane_ready: Dict[str, int] = {}
        self._ready_listeners: List[ReadyListener] = []

    # ------------------------------------------------------------------
    # query registration
    # ------------------------------------------------------------------

    def register_query(
        self, name: str, specs: Mapping[str, WindowSpec]
    ) -> CacheStatusMatrix:
        """Register a recurring query and initialise its status matrix.

        Existing signatures gain a mask bit for the new query: set for
        caches of sources the query does not read (the paper sets bits
        of unused caches to 1 at initialisation time).
        """
        if name in self._queries:
            raise ValueError(f"query {name!r} is already registered")
        info = _QueryInfo(
            name=name, specs=dict(specs), matrix=CacheStatusMatrix(specs)
        )
        self._queries[name] = info
        for signature in self._signatures.values():
            signature.done_query_mask[name] = self._done_with(
                info, signature.pid
            )
        return info.matrix

    def unregister_query(self, name: str) -> List[PurgeNotification]:
        """Remove a query; caches it alone kept alive become purgeable."""
        if name not in self._queries:
            raise ValueError(f"query {name!r} is not registered")
        del self._queries[name]
        notifications: List[PurgeNotification] = []
        for signature in self._signatures.values():
            signature.done_query_mask.pop(name, None)
            if signature.all_done():
                notifications.append(
                    PurgeNotification(signature.pid, tuple(sorted(signature.nodes)))
                )
        return self._merge(notifications)

    def queries(self) -> List[str]:
        return sorted(self._queries)

    def matrix(self, query: str) -> CacheStatusMatrix:
        return self._info(query).matrix

    # ------------------------------------------------------------------
    # pane readiness
    # ------------------------------------------------------------------

    def add_ready_listener(self, listener: ReadyListener) -> None:
        """Subscribe to every pane ready-bit transition (Sec. 4.3)."""
        self._ready_listeners.append(listener)

    def _set_ready(self, pid: str, new: int) -> None:
        old = self._pane_ready.get(pid, NOT_AVAILABLE)
        if new == old:
            return
        self._pane_ready[pid] = new
        for listener in self._ready_listeners:
            listener(pid, old, new)

    def pane_ready(self, pid: str) -> int:
        """The pane's ready bit (0, 1, or 2)."""
        return self._pane_ready.get(pid, NOT_AVAILABLE)

    def ready_states(self) -> List[Tuple[str, int]]:
        """Snapshot of every pane's ready bit, sorted by pid.

        Used by the chaos invariant checker (ready bits vs. registry
        entries) and by degraded-window rollback to restore the
        runtime's map-eligible set.
        """
        return sorted(self._pane_ready.items())

    def pane_arrived(self, pid: str) -> None:
        """A pane file landed in HDFS: ready becomes HDFS_AVAILABLE."""
        if self._pane_ready.get(pid, NOT_AVAILABLE) < HDFS_AVAILABLE:
            self._set_ready(pid, HDFS_AVAILABLE)

    def cache_created(
        self, pid: str, cache_type: int, partition: int, node_id: int
    ) -> CacheSignature:
        """A task node reported a new cache via its heartbeat sync."""
        key = (pid, cache_type)
        signature = self._signatures.get(key)
        if signature is None:
            signature = CacheSignature(pid=pid, cache_type=cache_type)
            for name, info in self._queries.items():
                signature.done_query_mask[name] = self._done_with(info, pid)
            self._signatures[key] = signature
        signature.placements[partition] = node_id
        self._set_ready(pid, CACHE_AVAILABLE)
        return signature

    def signature(self, pid: str, cache_type: int) -> Optional[CacheSignature]:
        return self._signatures.get((pid, cache_type))

    def signatures(self) -> List[CacheSignature]:
        return [self._signatures[k] for k in sorted(self._signatures)]

    def placement(
        self, pid: str, cache_type: int, partition: int
    ) -> Optional[int]:
        """Node hosting one partition's cache, or None if absent."""
        signature = self._signatures.get((pid, cache_type))
        if signature is None:
            return None
        return signature.placements.get(partition)

    # ------------------------------------------------------------------
    # reduce-completion bookkeeping and expiration
    # ------------------------------------------------------------------

    def remaining_uses(self, pid: str) -> int:
        """Unreduced status-matrix cells this cache still serves.

        Aggregated over every registered query that reads the pid's
        source(s) — the residual lifespan behind the ``doneQueryMask``:
        once every query's cells are done the count hits zero and the
        cache is purge-bait. Pane caches sum
        :meth:`CacheStatusMatrix.remaining_uses` per query; combination
        caches (join reduce outputs, ``AxB`` pids) serve exactly one
        cell, so they count 1 per query that has not reduced it yet.
        The window-aware eviction policy ranks victims by
        ``bytes x remaining_uses`` (:mod:`repro.core.eviction`).
        """
        panes = []
        for part in split_pid(pid):
            try:
                panes.append(parse_pane_name(part))
            except ValueError:
                return 0
        total = 0
        for info in self._queries.values():
            if self._done_with(info, pid):
                continue
            if len(panes) == 1:
                total += info.matrix.remaining_uses(
                    panes[0].source, panes[0].index
                )
                continue
            coords = {pane.source: pane.index for pane in panes}
            if set(coords) != set(info.matrix.sources):
                continue
            if not info.matrix.is_done(coords):
                total += 1
        return total

    def record_reduce_done(self, query: str, panes: Mapping[str, int]) -> None:
        """A reduce task over this pane combination completed (Fig. 4(b))."""
        self._info(query).matrix.mark_done(panes)

    def advance_window(
        self, query: str, recurrence: int
    ) -> List[PurgeNotification]:
        """Shift the query's matrix and emit any purge notifications.

        Called once per recurrence (the paper's default ``PurgeCycle``
        is the slide). Panes expired for this query flip their mask
        bit; caches whose every bit is set are announced for purging.
        """
        info = self._info(query)
        purged = info.matrix.shift(recurrence)
        notifications: List[PurgeNotification] = []
        for source, indices in purged.items():
            for index in indices:
                pid = pane_name(source, index)
                notifications.extend(self._mark_query_done(query, pid))
        # Combination caches (join reduce outputs) expire with their panes.
        expired_pids = {
            pane_name(src, idx)
            for src, indices in purged.items()
            for idx in indices
        }
        for pid, _type in list(self._signatures):
            # Only pids holding an "x" can name several panes, and a part
            # equal to an expired pid is also a substring of the pid:
            # both tests are far cheaper than splitting every pid.
            if "x" not in pid or not any(e in pid for e in expired_pids):
                continue
            parts = split_pid(pid)
            if len(parts) > 1 and any(part in expired_pids for part in parts):
                notifications.extend(self._mark_query_done(query, pid))
        return self._merge(notifications)

    def _mark_query_done(self, query: str, pid: str) -> List[PurgeNotification]:
        notifications: List[PurgeNotification] = []
        for t in _CACHE_TYPES:
            signature = self._signatures.get((pid, t))
            if signature is None:
                continue
            signature.done_query_mask[query] = True
            if signature.all_done():
                notifications.append(
                    PurgeNotification(pid, tuple(sorted(signature.nodes)))
                )
        return notifications

    # ------------------------------------------------------------------
    # failure rollback (Sec. 5 "Failure Recovery", item 3)
    # ------------------------------------------------------------------

    def cache_lost(
        self, pid: str, cache_type: int, partition: int
    ) -> None:
        """Roll back metadata for one lost cache partition.

        The pane's ready bit reverts to HDFS_AVAILABLE so the scheduler
        re-creates the cache by re-running the producing task.
        """
        signature = self._signatures.get((pid, cache_type))
        if signature is not None:
            signature.placements.pop(partition, None)
            if not signature.placements:
                del self._signatures[(pid, cache_type)]
        if self.pane_ready(pid) == CACHE_AVAILABLE and not self._has_any_cache(pid):
            self._set_ready(pid, HDFS_AVAILABLE)

    def node_lost(self, node_id: int) -> List[Tuple[str, int, int]]:
        """Roll back every cache hosted on a failed node.

        Returns the ``(pid, cache_type, partition)`` triples lost, so
        the runtime can schedule their re-construction.
        """
        lost: List[Tuple[str, int, int]] = []
        for (pid, cache_type), signature in list(self._signatures.items()):
            for partition, nid in list(signature.placements.items()):
                if nid == node_id:
                    lost.append((pid, cache_type, partition))
        for pid, cache_type, partition in lost:
            self.cache_lost(pid, cache_type, partition)
        return lost

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _has_any_cache(self, pid: str) -> bool:
        return any((pid, t) in self._signatures for t in _CACHE_TYPES)

    def _info(self, query: str) -> _QueryInfo:
        try:
            return self._queries[query]
        except KeyError:
            raise ValueError(f"query {query!r} is not registered") from None

    @staticmethod
    def _done_with(info: _QueryInfo, pid: str) -> bool:
        """Is the query already done with this cache, before any reduce?

        It is when it does not read the cache's source(s) (the paper
        presets those bits, Sec. 4.2) or its matrix already shifted past
        one of the cache's panes (a cache rebuilt after that shift).
        """
        shifted_past = False
        for part in split_pid(pid):
            try:
                pane = parse_pane_name(part)
            except ValueError:
                return True
            if pane.source not in info.specs:
                return True
            shifted_past |= pane.index < info.matrix.base(pane.source)
        return shifted_past

    @staticmethod
    def _merge(
        notifications: List[PurgeNotification],
    ) -> List[PurgeNotification]:
        """One notice per pid, addressed to every node that hosts it."""
        nodes: Dict[str, Set[int]] = {}
        for n in notifications:
            nodes.setdefault(n.pid, set()).update(n.node_ids)
        return [
            PurgeNotification(pid, tuple(sorted(ids)))
            for pid, ids in nodes.items()
        ]
