"""Independent oracle for every window the benchmark's program emits.

The expected output of a window is rebuilt from the generated records
and the window's half-open per-source bounds
(``RecurrenceResult.window_bounds``), without panes, caches or any of
the program's code:

* aggregation: ``(key, (clicks, bytes))`` per key of the records inside
  the window;
* join: the per-player cross product of ``events`` and ``positions``
  records inside the window, as ``(player, (event, intensity, x, y,
  speed))``.

Outputs compare as the sha256 of their sorted ``repr`` lines, so pair
order does not matter but every pair, duplicates included, does. The
check runs outside the timed region.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = ["WindowOracle", "output_digest"]

Bounds = Mapping[str, Tuple[float, float]]


def output_digest(pairs: Iterable[Any]) -> str:
    """sha256 over the sorted ``repr`` of each output pair."""
    canonical = "\n".join(sorted(map(repr, pairs)))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class WindowOracle:
    """Expected per-window digests for one workload's generated input.

    ``kind`` is ``"aggregation"`` (grouped by ``key_field``) or
    ``"join"``. Digests are memoized by bounds: tenants of a fleet share
    most windows, and repeated passes see the same ones.
    """

    def __init__(
        self,
        kind: str,
        records_by_source: Mapping[str, Sequence[Any]],
        *,
        key_field: str = "object",
    ) -> None:
        if kind not in ("aggregation", "join"):
            raise ValueError(f"unknown oracle kind {kind!r}")
        self.kind = kind
        self.key_field = key_field
        self._records: Dict[str, List[Any]] = {}
        self._times: Dict[str, List[float]] = {}
        for source, records in records_by_source.items():
            ordered = sorted(records, key=lambda r: r.ts)
            self._records[source] = ordered
            self._times[source] = [r.ts for r in ordered]
        self._memo: Dict[Tuple, str] = {}

    def _inside(self, source: str, bounds: Bounds) -> List[Any]:
        lo, hi = bounds[source]
        times = self._times[source]
        return self._records[source][bisect_left(times, lo):bisect_left(times, hi)]

    def expected_pairs(self, bounds: Bounds) -> List[Any]:
        """The window's expected output pairs, in no particular order."""
        if self.kind == "aggregation":
            (source,) = bounds
            clicks: Dict[Any, int] = defaultdict(int)
            volume: Dict[Any, int] = defaultdict(int)
            for record in self._inside(source, bounds):
                value = record.value
                key = value[self.key_field]
                clicks[key] += 1
                volume[key] += value.get("bytes", 0)
            return [(key, (clicks[key], volume[key])) for key in clicks]
        events: Dict[Any, List[dict]] = defaultdict(list)
        positions: Dict[Any, List[dict]] = defaultdict(list)
        for record in self._inside("events", bounds):
            events[record.value["player"]].append(record.value)
        for record in self._inside("positions", bounds):
            positions[record.value["player"]].append(record.value)
        return [
            (player, (a["event"], a["intensity"], b["x"], b["y"], b["speed"]))
            for player in events.keys() & positions.keys()
            for a in events[player]
            for b in positions[player]
        ]

    def expected(self, bounds: Bounds) -> str:
        """Digest of the window's expected output."""
        key = tuple(sorted(bounds.items()))
        digest = self._memo.get(key)
        if digest is None:
            digest = self._memo[key] = output_digest(self.expected_pairs(bounds))
        return digest

    def mismatches(self, results: Iterable[Any]) -> List[Tuple[str, int]]:
        """``(query, recurrence)`` of every result whose output is wrong."""
        return [
            (r.query, r.recurrence)
            for r in results
            if output_digest(r.output) != self.expected(r.window_bounds)
        ]
