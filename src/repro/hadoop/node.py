"""Task nodes: slot capacity, local file system, and load accounting.

Each slave node runs a fixed number of concurrent map and reduce tasks
(the paper's workers: 6 map + 2 reduce). The event-driven job tracker
models slot occupancy as per-slot "free at" timestamps; a node's *load*
— the first term of the scheduler objective in Eq. 4 — is the pending
busy time summed over its slots.

The node's local file system is a plain byte-accounted key/value store.
Redoop's reduce-input and reduce-output caches live here, *not* in HDFS,
which is exactly why cache loss on node failure needs special recovery
(paper Sec. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["LocalFile", "TaskNode", "SlotKind", "NodeError"]


class NodeError(Exception):
    """Raised on invalid node operations (dead node, missing local file)."""


#: Discriminates map slots from reduce slots in scheduling calls.
SlotKind = str
MAP_SLOT: SlotKind = "map"
REDUCE_SLOT: SlotKind = "reduce"


@dataclass(slots=True)
class LocalFile:
    """A file on a task node's local disk (cache data, spills)."""

    name: str
    size: int
    payload: Any = None
    created_at: float = 0.0


class TaskNode:
    """One slave node of the simulated cluster."""

    def __init__(
        self,
        node_id: int,
        *,
        map_slots: int,
        reduce_slots: int,
        speed: float = 1.0,
    ) -> None:
        if map_slots < 1 or reduce_slots < 1:
            raise ValueError("a node needs at least one slot of each kind")
        if speed <= 0:
            raise ValueError("node speed must be positive")
        self.node_id = node_id
        #: Relative execution speed: tasks on a 0.5x node take twice as
        #: long. Models heterogeneous clusters / degraded hardware.
        self.speed = speed
        self.alive = True
        self._map_slot_free: List[float] = [0.0] * map_slots
        self._reduce_slot_free: List[float] = [0.0] * reduce_slots
        self._local_fs: Dict[str, LocalFile] = {}
        #: Optional callback ``(node_id, kind, start, finish)`` invoked on
        #: every task placement (see :mod:`repro.hadoop.timeline`).
        self.slot_observer = None

    # ------------------------------------------------------------------
    # slots
    # ------------------------------------------------------------------

    def _slots(self, kind: SlotKind) -> List[float]:
        if kind == MAP_SLOT:
            return self._map_slot_free
        if kind == REDUCE_SLOT:
            return self._reduce_slot_free
        raise ValueError(f"unknown slot kind: {kind!r}")

    def earliest_slot_time(self, kind: SlotKind) -> float:
        """Earliest virtual time a slot of ``kind`` becomes free."""
        self._ensure_alive()
        return min(self._slots(kind))

    def occupy_slot(self, kind: SlotKind, start: float, duration: float) -> float:
        """Run a task on the earliest-free slot of ``kind``.

        The task begins at ``max(start, slot free time)`` and holds the
        slot for ``duration / speed`` (slow nodes stretch their tasks).
        Returns the task's *finish* time.
        """
        self._ensure_alive()
        if duration < 0:
            raise ValueError("task duration cannot be negative")
        slots = self._slots(kind)
        idx = min(range(len(slots)), key=slots.__getitem__)
        begin = max(start, slots[idx])
        finish = begin + duration / self.speed
        slots[idx] = finish
        if self.slot_observer is not None:
            self.slot_observer(self.node_id, kind, begin, finish)
        return finish

    def set_speed(self, speed: float) -> None:
        """Change the node's relative speed mid-simulation.

        Used by the chaos harness to model stragglers: a node slowed to
        0.25x stretches every subsequent task placed on it. Already
        placed tasks keep their original finish times (the slowdown
        strikes between placements, as real degradation would between
        heartbeats).
        """
        if speed <= 0:
            raise ValueError("node speed must be positive")
        self._ensure_alive()
        self.speed = speed

    def load_at(self, now: float) -> float:
        """Pending busy seconds across all slots at time ``now`` (Eq. 4 term)."""
        self._ensure_alive()
        # Only positive terms are added: skipping an idle slot's ``0.0``
        # leaves the float sum exactly as ``max(0.0, free - now)`` made it.
        pending = 0.0
        for free in self._map_slot_free:
            if free > now:
                pending += free - now
        for free in self._reduce_slot_free:
            if free > now:
                pending += free - now
        return pending

    def reset_slots(self, now: float = 0.0) -> None:
        """Clear slot occupancy (used between independent simulations)."""
        self._map_slot_free = [now] * len(self._map_slot_free)
        self._reduce_slot_free = [now] * len(self._reduce_slot_free)

    # ------------------------------------------------------------------
    # local file system
    # ------------------------------------------------------------------

    def store_local(
        self, name: str, size: int, payload: Any = None, *, created_at: float = 0.0
    ) -> LocalFile:
        """Create or overwrite a local file (caches are rewritable)."""
        self._ensure_alive()
        if size < 0:
            raise ValueError("file size cannot be negative")
        lf = LocalFile(name=name, size=size, payload=payload, created_at=created_at)
        self._local_fs[name] = lf
        return lf

    def read_local(self, name: str) -> LocalFile:
        self._ensure_alive()
        try:
            return self._local_fs[name]
        except KeyError:
            raise NodeError(
                f"node {self.node_id} has no local file {name!r}"
            ) from None

    def has_local(self, name: str) -> bool:
        return self.alive and name in self._local_fs

    def delete_local(self, name: str) -> None:
        self._ensure_alive()
        if name not in self._local_fs:
            raise NodeError(f"node {self.node_id} has no local file {name!r}")
        del self._local_fs[name]

    def local_files(self, prefix: str = "") -> List[str]:
        """Sorted local file names; only those starting with ``prefix``
        when one is given, so a sweep sorts just what it removes."""
        if not prefix:
            return sorted(self._local_fs)
        return sorted(name for name in self._local_fs if name.startswith(prefix))

    @property
    def local_bytes(self) -> int:
        """Total bytes on the node's local file system."""
        return sum(f.size for f in self._local_fs.values())

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------

    def fail(self) -> List[str]:
        """Kill the node; its local files (caches!) are lost.

        Returns the names of the local files that were destroyed, so the
        recovery machinery can roll back cache metadata.
        """
        if not self.alive:
            raise NodeError(f"node {self.node_id} is already dead")
        lost = sorted(self._local_fs)
        self._local_fs.clear()
        self.alive = False
        return lost

    def recover(self, now: float = 0.0) -> None:
        """Restart the node with empty local state and free slots."""
        if self.alive:
            raise NodeError(f"node {self.node_id} is already alive")
        self.alive = True
        self.reset_slots(now)

    def _ensure_alive(self) -> None:
        if not self.alive:
            raise NodeError(f"node {self.node_id} is dead")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"TaskNode(id={self.node_id}, {state}, files={len(self._local_fs)})"
