"""The per-node Local Cache Registry (paper Sec. 4.1, Table 1).

Each task node runs a Local Cache Manager that tracks the caches on the
node's local file system in a registry of ``(pid, type, expiration)``
entries. Two cache types exist (Sec. 4):

* ``REDUCE_INPUT`` (type 1) — a pane's shuffled-and-sorted reduce input
  for one partition, reusable by later windows without re-mapping or
  re-shuffling;
* ``REDUCE_OUTPUT`` (type 2) — a pane's (or pane combination's)
  reduce output, reusable by the finalize step of later windows.

Expired entries are removed by one of two purge policies (Sec. 4.1):
*periodic* purging sweeps the registry every ``PurgeCycle`` seconds;
*on-demand* purging fires immediately when the local file system is
about to run out of space.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..hadoop.node import LocalFile, TaskNode

__all__ = [
    "REDUCE_INPUT",
    "REDUCE_OUTPUT",
    "CacheCorruptionError",
    "CacheEntry",
    "LocalCacheRegistry",
    "payload_checksum",
]

#: Cache type codes, matching the paper's Table 1 domain.
REDUCE_INPUT = 1
REDUCE_OUTPUT = 2

_VALID_TYPES = (REDUCE_INPUT, REDUCE_OUTPUT)


class CacheCorruptionError(Exception):
    """A cache file's content no longer matches its recorded checksum.

    Caches live on node-local disks outside HDFS's protection (paper
    Sec. 5), so bit rot or partial writes would otherwise flow silently
    into window outputs. The registry detects the mismatch on read; the
    runtime funnels it through the same rollback path as cache loss.
    """

    def __init__(self, node_id: int, pid: str, cache_type: int, partition: int):
        super().__init__(
            f"cache pid={pid!r} type={cache_type} partition={partition} "
            f"on node {node_id} failed its checksum"
        )
        self.node_id = node_id
        self.pid = pid
        self.cache_type = cache_type
        self.partition = partition


class _HashSink:
    """A write-only file that feeds what a pickler writes to a hash."""

    __slots__ = ("write",)

    def __init__(self, digest: Any) -> None:
        self.write = digest.update


def _pickle_digest(pickler_class: Any, payload: Any) -> str:
    digest = hashlib.sha256()
    pickler = pickler_class(_HashSink(digest), protocol=5)
    pickler.fast = True
    pickler.dump(payload)
    return digest.hexdigest()[:16]


def payload_checksum(payload: Any) -> str:
    """Content digest of a cache payload: a truncated sha256 over its pickle.

    The simulation stores payloads as Python objects, so the digest
    covers their protocol-5 pickle, streamed into the hash. The
    pickler runs in fast mode, which keeps no memo: a sub-object that
    occurs twice is written out twice rather than as a back-reference.
    The digest thus depends on values only, not on which equal objects
    are shared. A plain ``pickle.dumps`` would tell ``[s, s]`` from
    ``[s, t]`` with ``t == s``, and unpickling can merge such aliases
    (CPython caches one-character strings), so a restored cache would
    then read as corrupt. Raises what ``pickle`` raises for an
    unpicklable payload.
    """
    try:
        return _pickle_digest(pickle.Pickler, payload)
    except (KeyError, ValueError):
        # The C pickler's fast mode counts every frozenset as one level
        # deeper and never back out; from 49 of them on it raises on
        # sound payloads. The pure-Python pickler writes the same bytes
        # (a genuine cycle then ends in RecursionError).
        return _pickle_digest(pickle._Pickler, payload)


@dataclass(slots=True)
class CacheEntry:
    """One row of the local cache registry: pid, type, expiration flag."""

    pid: str
    cache_type: int
    partition: int
    size: int
    #: The entry's file name on the node's local file system
    #: (:func:`cache_file_name`), set once when the entry is created.
    local_name: str
    expiration: bool = False
    #: Content digest recorded at write time; ``None`` on legacy entries.
    checksum: Optional[str] = None
    #: Registry use-sequence number of the last write or read. A
    #: monotonic counter rather than virtual time: several cache
    #: operations can share one clock instant, and LRU victim order
    #: must stay deterministic regardless.
    last_used: int = 0


def cache_file_name(pid: str, cache_type: int, partition: int) -> str:
    """Local-FS naming convention for cache files (Sec. 5 "Caching")."""
    kind = "rin" if cache_type == REDUCE_INPUT else "rout"
    return f"cache/{kind}/{pid}/part-{partition:05d}"


class LocalCacheRegistry:
    """Cache manager for one task node.

    Parameters
    ----------
    node:
        The node whose local file system holds the cached data.
    purge_cycle:
        Seconds between periodic purge sweeps (paper's ``PurgeCycle``).
    capacity_bytes:
        Cache byte budget; exceeding it triggers on-demand purging,
        and the runtime's admission/eviction machinery keeps
        ``cached_bytes`` at or below it. ``None`` means unbounded
        (the default for experiments).
    counters:
        Optional counter bag (typically the runtime's) the registry
        reports purge outcomes into.
    """

    def __init__(
        self,
        node: TaskNode,
        *,
        purge_cycle: float = 3600.0,
        capacity_bytes: Optional[int] = None,
        counters: Optional[Any] = None,
    ) -> None:
        if purge_cycle <= 0:
            raise ValueError("purge_cycle must be positive")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive when set")
        self.node = node
        self.purge_cycle = purge_cycle
        self.capacity_bytes = capacity_bytes
        self.counters = counters
        self._entries: Dict[Tuple[str, int, int], CacheEntry] = {}
        self._last_periodic_purge = 0.0
        self._use_clock = 0
        #: Running sum of every entry's size, so ``cached_bytes`` is O(1);
        #: chaos invariant 10 reconciles it against the files.
        self._bytes = 0
        #: High-water mark of ``cached_bytes`` (the registry's working
        #: set); lets a bench size budgets as a fraction of the peak.
        self.peak_cached_bytes = 0

    def _count(self, name: str, amount: float = 1) -> None:
        if self.counters is not None:
            self.counters.increment(name, amount)

    def _next_use(self) -> int:
        self._use_clock += 1
        return self._use_clock

    # ------------------------------------------------------------------
    # adding entries (Sec. 4.1 "Adding New Entry")
    # ------------------------------------------------------------------

    def add_entry(
        self,
        pid: str,
        cache_type: int,
        partition: int,
        size: int,
        payload: Any,
        *,
        now: float = 0.0,
    ) -> CacheEntry:
        """Register a new cache and store its data on the local FS.

        New entries start unexpired; existing entries are untouched
        (the paper: "records for existing caches do not need to be
        changed"). Re-adding an existing key overwrites its data — this
        happens during cache re-construction after failures.
        """
        if cache_type not in _VALID_TYPES:
            raise ValueError(f"unknown cache type {cache_type!r}")
        if partition < 0:
            raise ValueError("partition indices are non-negative")
        try:
            checksum = payload_checksum(payload)
        except (pickle.PicklingError, TypeError, AttributeError, RecursionError) as exc:
            raise TypeError(
                f"cache pid={pid!r} type={cache_type} partition={partition}: "
                f"cannot digest a {type(payload).__name__} payload ({exc})"
            ) from exc
        name = cache_file_name(pid, cache_type, partition)
        entry = CacheEntry(
            pid=pid,
            cache_type=cache_type,
            partition=partition,
            size=size,
            local_name=name,
            checksum=checksum,
            last_used=self._next_use(),
        )
        self.node.store_local(name, size, payload, created_at=now)
        old = self._entries.get((pid, cache_type, partition))
        self._bytes += size - (0 if old is None else old.size)
        self._entries[(pid, cache_type, partition)] = entry
        self.peak_cached_bytes = max(self.peak_cached_bytes, self._bytes)
        return entry

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def _live(
        self, pid: str, cache_type: int, partition: int
    ) -> Optional[CacheEntry]:
        """The unexpired entry whose file is still on disk, or ``None``."""
        entry = self._entries.get((pid, cache_type, partition))
        if (
            entry is None
            or entry.expiration
            or not self.node.has_local(entry.local_name)
        ):
            return None
        return entry

    def has(self, pid: str, cache_type: int, partition: int) -> bool:
        return self._live(pid, cache_type, partition) is not None

    def read(self, pid: str, cache_type: int, partition: int) -> Tuple[Any, int]:
        """Return ``(payload, size)`` of a live cache entry.

        Raises
        ------
        KeyError
            If the entry does not exist, has expired, or lost its file.
        """
        entry = self._live(pid, cache_type, partition)
        if entry is None:
            raise KeyError(
                f"no live cache for pid={pid!r} type={cache_type} "
                f"partition={partition} on node {self.node.node_id}"
            )
        lf = self.node.read_local(entry.local_name)
        if (
            entry.checksum is not None
            and payload_checksum(lf.payload) != entry.checksum
        ):
            raise CacheCorruptionError(
                self.node.node_id, pid, cache_type, partition
            )
        entry.last_used = self._next_use()
        return lf.payload, lf.size

    def touch(self, pid: str, cache_type: int, partition: int) -> Optional[int]:
        """Size of a live entry, counted as a use for LRU; ``None`` if absent.

        :meth:`read` without the payload and checksum, for Eq. 4 sizing.
        The use clock advances as a read's would, so eviction order is
        the same whichever of the two sized the entry.
        """
        entry = self._live(pid, cache_type, partition)
        if entry is None:
            return None
        entry.last_used = self._next_use()
        return entry.size

    def verify(
        self, pid: str, cache_type: int, partition: int
    ) -> Optional[LocalFile]:
        """The entry's file iff the entry is live *and* its content checks out.

        Non-raising companion to :meth:`read` for pre-window integrity
        probes (``_pane_caches_intact``): a corrupt entry simply reads
        as absent (``None``) so planning falls back to re-execution.
        The probe keeps the verified payload, so the rest of its
        recurrence uses it without hashing it again.
        """
        entry = self._live(pid, cache_type, partition)
        if entry is None:
            return None
        lf = self.node.read_local(entry.local_name)
        if (
            entry.checksum is not None
            and payload_checksum(lf.payload) != entry.checksum
        ):
            return None
        return lf

    def use_verified(
        self, pid: str, cache_type: int, partition: int, lf: LocalFile
    ) -> bool:
        """Count a use of ``lf``, a file checksummed earlier, for LRU.

        ``True`` iff the entry is live and ``lf`` is still its file, so
        its payload is the content that checksum covered and may be used
        without hashing it again; the use clock then advances as a
        :meth:`read` would. ``False`` (nothing counted) when the entry
        is gone or its file was replaced, so the caller reads it anew.
        """
        entry = self._live(pid, cache_type, partition)
        if entry is None or self.node.read_local(entry.local_name) is not lf:
            return False
        entry.last_used = self._next_use()
        return True

    def entries(self) -> List[CacheEntry]:
        """Snapshot of all registry rows (live and expired)."""
        return [self._entries[k] for k in sorted(self._entries)]

    def live_entries(self) -> List[CacheEntry]:
        return [e for e in self.entries() if not e.expiration]

    @property
    def cached_bytes(self) -> int:
        """Bytes attributable to registered cache entries, expired ones included.

        A running total, so O(1); 0 on a dead node, whose local FS is
        gone. Deliberately *not* ``node.local_bytes``: the local FS also
        holds spills and unregistered tmp runs that are no business of
        the cache budget.
        """
        return self._bytes if self.node.alive else 0

    def entry_size(self, pid: str, cache_type: int, partition: int) -> int:
        """Bytes an existing backed entry holds (0 when absent).

        Admission control credits this back when a write overwrites an
        existing key (cache re-construction after failures).
        """
        entry = self._entries.get((pid, cache_type, partition))
        if entry is None or not self.node.has_local(entry.local_name):
            return 0
        return entry.size

    def eviction_candidates(self) -> List[CacheEntry]:
        """Live, backed entries a replacement policy may evict."""
        return [
            e
            for e in self.live_entries()
            if self.node.has_local(e.local_name)
        ]

    # ------------------------------------------------------------------
    # expiration (Sec. 4.1 "Updating Existing Entry")
    # ------------------------------------------------------------------

    def mark_expired(self, pids: Iterable[str]) -> int:
        """Process a purge notification from the cache controller.

        Flips the expiration flag of every entry whose pid is in
        ``pids``; the data stays on disk until the next purge sweep.
        Returns the number of entries flagged.
        """
        wanted = set(pids)
        count = 0
        for entry in self._entries.values():
            if entry.pid in wanted and not entry.expiration:
                entry.expiration = True
                count += 1
        return count

    def drop_lost(self, pid: str, cache_type: int, partition: int) -> None:
        """Forget an entry whose backing file was destroyed (cache failure)."""
        entry = self._entries.pop((pid, cache_type, partition), None)
        if entry is not None:
            self._bytes -= entry.size

    def forget_all(self) -> None:
        """Forget every entry (node failure: the local FS is gone)."""
        self._entries.clear()
        self._bytes = 0

    # ------------------------------------------------------------------
    # purging (Sec. 4.1 "periodic and on-demand purging")
    # ------------------------------------------------------------------

    def periodic_purge(self, now: float) -> List[CacheEntry]:
        """Sweep expired entries if a full purge cycle has elapsed."""
        if now - self._last_periodic_purge < self.purge_cycle:
            return []
        self._last_periodic_purge = now
        return self._purge_expired()

    def on_demand_purge(self) -> List[CacheEntry]:
        """Emergency sweep when local space runs short.

        Purges all expired entries immediately, regardless of the
        periodic schedule.
        """
        return self._purge_expired()

    def maybe_purge(self, now: float) -> List[CacheEntry]:
        """Apply the appropriate policy: on-demand if over budget, else periodic.

        The budget is compared against ``cached_bytes`` — measuring
        ``node.local_bytes`` would let unrelated local files (spills,
        tmp runs) trigger emergency sweeps of perfectly healthy caches.
        An over-budget sweep that reclaims nothing (no expired entries
        left) is reported via the ``cache.purge_noop`` counter instead
        of silently returning empty.
        """
        if (
            self.capacity_bytes is not None
            and self.cached_bytes > self.capacity_bytes
        ):
            purged = self.on_demand_purge()
            if not purged:
                self._count("cache.purge_noop")
            return purged
        return self.periodic_purge(now)

    def _purge_expired(self) -> List[CacheEntry]:
        """Delete every expired entry, in key order; sorts only those."""
        purged: List[CacheEntry] = []
        expired = [k for k, e in self._entries.items() if e.expiration]
        for key in sorted(expired):
            entry = self._entries.pop(key)
            if self.node.has_local(entry.local_name):
                self.node.delete_local(entry.local_name)
            purged.append(entry)
            self._bytes -= entry.size
        return purged
