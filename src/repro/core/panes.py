"""Pane arithmetic: the window/slide/pane algebra underpinning Redoop.

A recurring query is specified by ``win`` and ``slide`` (paper Sec. 2.1).
Redoop slices each source's data into *panes* of length
``GCD(win, slide)`` (Algorithm 1, line 1) so that every window is an
exact union of panes and every slide advances the window by a whole
number of panes. This module implements that algebra exactly:

* which panes a window covers,
* when each execution (recurrence) fires,
* pane identifiers (``S1P3``) and file-name conventions,
* a pane's *lifespan* with respect to a join partner — the range of
  partner panes it must be processed with before it can expire
  (paper Sec. 4.2, "Expiration").

Times are in (virtual) seconds. To keep the GCD exact for fractional
inputs, times are converted to integer milliseconds internally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "WindowSpec",
    "Pane",
    "pane_name",
    "parse_pane_name",
    "split_pid",
    "pane_file_name",
    "PaneRange",
]

_MS = 1000


def _to_ms(seconds: float) -> int:
    ms = round(seconds * _MS)
    if not math.isclose(ms / _MS, seconds, rel_tol=0, abs_tol=1e-9):
        raise ValueError(
            f"time {seconds!r} is not representable at millisecond "
            "granularity; window parameters must be whole milliseconds"
        )
    return ms


@dataclass(frozen=True)
class WindowSpec:
    """A source's window constraints: ``win`` and ``slide`` in seconds.

    ``win`` is the scope of data each execution processes; ``slide`` is
    the period between executions. The derived ``pane`` is their GCD.
    Example from the paper (Sec. 3.1): win = 6 min, slide = 2 min gives
    a 2-minute pane.

    ``pane`` may be overridden with a finer granularity — it must
    divide ``GCD(win, slide)`` exactly. The Semantic Analyzer uses this
    when several queries share a source: the source is partitioned once
    at the GCD of *all* the queries' constraints (Sec. 3.1, "based on
    the available queries in the system"), and every query's window
    remains an exact union of the shared panes.
    """

    win: float
    slide: float
    pane: Optional[float] = None

    def __post_init__(self) -> None:
        if self.win <= 0 or self.slide <= 0:
            raise ValueError("win and slide must be positive durations")
        if self.slide > self.win + 1e-12:
            # A slide larger than the window would leave gaps of data
            # never processed; the paper's model has slide <= win.
            raise ValueError(
                f"slide ({self.slide}) must not exceed win ({self.win})"
            )
        if self.pane is not None:
            if self.pane <= 0:
                raise ValueError("pane override must be positive")
            gcd_ms = math.gcd(_to_ms(self.win), _to_ms(self.slide))
            pane_ms = _to_ms(self.pane)
            if gcd_ms % pane_ms != 0:
                raise ValueError(
                    f"pane override {self.pane}s must divide "
                    f"GCD(win, slide) = {gcd_ms / _MS}s"
                )
        _ = self.pane_seconds  # validate representability eagerly

    def with_pane(self, pane_seconds: float) -> "WindowSpec":
        """This spec re-expressed over a finer shared pane size."""
        if _to_ms(self.pane_seconds) == _to_ms(pane_seconds):
            return self
        from dataclasses import replace

        return replace(self, pane=pane_seconds)

    # -- derived quantities -------------------------------------------

    @property
    def pane_seconds(self) -> float:
        """Pane length: ``GCD(win, slide)`` or the finer override."""
        if self.pane is not None:
            return self.pane
        return math.gcd(_to_ms(self.win), _to_ms(self.slide)) / _MS

    @property
    def panes_per_window(self) -> int:
        """Number of panes a full window spans (``win / pane``)."""
        return _to_ms(self.win) // _to_ms(self.pane_seconds)

    @property
    def panes_per_slide(self) -> int:
        """Panes by which the window advances each execution."""
        return _to_ms(self.slide) // _to_ms(self.pane_seconds)

    @property
    def overlap(self) -> float:
        """The paper's overlap factor ``(win - slide) / win`` (Sec. 6.2)."""
        return (self.win - self.slide) / self.win

    # -- execution schedule --------------------------------------------

    def execution_time(self, recurrence: int) -> float:
        """Virtual time at which recurrence ``recurrence`` (1-based) fires.

        The first execution fires once a full window of data exists, at
        ``win``; each subsequent execution fires ``slide`` later.
        """
        if recurrence < 1:
            raise ValueError("recurrences are numbered from 1")
        return self.win + (recurrence - 1) * self.slide

    def window_bounds(self, recurrence: int) -> Tuple[float, float]:
        """The half-open data range ``[start, end)`` of a recurrence."""
        end = self.execution_time(recurrence)
        return end - self.win, end

    # -- pane coverage --------------------------------------------------

    def pane_bounds(self, index: int) -> Tuple[float, float]:
        """Time range ``[start, end)`` covered by pane ``index`` (0-based)."""
        if index < 0:
            raise ValueError("pane indices are non-negative")
        pane = self.pane_seconds
        return index * pane, (index + 1) * pane

    def pane_of_time(self, ts: float) -> int:
        """Index of the pane containing timestamp ``ts``.

        Record timestamps are arbitrary floats (only the window
        parameters must be millisecond-exact); a small epsilon guards
        against float noise at pane boundaries.
        """
        if ts < 0:
            raise ValueError("timestamps are non-negative")
        return int(math.floor((ts + 1e-9) / self.pane_seconds))

    def panes_in_window(self, recurrence: int) -> List[int]:
        """Pane indices covered by the given recurrence's window."""
        start, end = self.window_bounds(recurrence)
        pane_ms = _to_ms(self.pane_seconds)
        first = _to_ms(max(0.0, start)) // pane_ms
        last = (_to_ms(end) - 1) // pane_ms
        return list(range(first, last + 1))

    def new_panes_in_window(self, recurrence: int) -> List[int]:
        """Panes of this recurrence that were not in the previous one."""
        current = set(self.panes_in_window(recurrence))
        if recurrence == 1:
            return sorted(current)
        previous = set(self.panes_in_window(recurrence - 1))
        return sorted(current - previous)

    # -- lifespans (join expiration, paper Sec. 4.2) ---------------------

    def recurrences_containing_pane(self, index: int) -> Tuple[int, int]:
        """First and last recurrence whose window includes pane ``index``.

        Derived by inverting :meth:`panes_in_window`: recurrence ``k``
        covers panes ``[(k-1)S, (k-1)S + W - 1]`` where ``S =
        panes_per_slide`` and ``W = panes_per_window``, so pane ``i``
        belongs to recurrences with ``(i - W + 1)/S + 1 <= k <= i/S + 1``.
        """
        if index < 0:
            raise ValueError("pane indices are non-negative")
        s = self.panes_per_slide
        w = self.panes_per_window
        k_min = max(1, math.ceil((index - w + 1) / s) + 1)
        k_max = index // s + 1
        if k_max < k_min:  # can happen only for malformed specs; guard anyway
            raise ValueError(f"pane {index} is covered by no recurrence")
        return k_min, k_max

    def lifespan(self, index: int, partner: "WindowSpec") -> Tuple[int, int]:
        """Range of ``partner`` panes that pane ``index`` must meet.

        A pane of this source joins, over its lifetime, with every
        partner pane that shares *some* window with it. The pane may be
        purged only after all those pairings are done and it has left
        the current window (paper Sec. 4.2, Fig. 4).

        Requires both sources to share the same slide (they execute in
        lockstep — the paper's model for multi-source queries).
        """
        if _to_ms(self.slide) != _to_ms(partner.slide):
            raise ValueError(
                "lifespan is defined for sources sharing the same slide"
            )
        k_min, k_max = self.recurrences_containing_pane(index)
        first_partner = min(partner.panes_in_window(k_min))
        last_partner = max(partner.panes_in_window(k_max))
        return first_partner, last_partner


@dataclass(frozen=True)
class Pane:
    """A concrete pane: a source name plus a pane index."""

    source: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("pane indices are non-negative")

    @property
    def pid(self) -> str:
        """The paper's pane identifier, e.g. ``S1P3``."""
        return pane_name(self.source, self.index)

    def __str__(self) -> str:
        return self.pid


def pane_name(source: str, index: int) -> str:
    """The ``S#P#`` identifier used throughout the paper's examples."""
    return f"{source}P{index}"


_PANE_RE = re.compile(r"^(?P<source>.+)P(?P<index>\d+)$")


def parse_pane_name(pid: str) -> Pane:
    """Invert :func:`pane_name`.

    Raises
    ------
    ValueError
        If ``pid`` does not follow the ``S#P#`` convention.
    """
    m = _PANE_RE.match(pid)
    if m is None:
        raise ValueError(f"not a pane identifier: {pid!r}")
    return Pane(source=m.group("source"), index=int(m.group("index")))


#: One pane id at the front of a cache pid, plus the ``x`` joining it
#: to the next one (none after the last).
_PID_PART_RE = re.compile(r"(?P<pane>.+?P\d+)(?:x(?=.)|$)")


def split_pid(pid: str) -> List[str]:
    """The pane ids a cache pid names, in order.

    A pane cache's pid is one pane id (``S1P3``); a combination cache's
    pid joins its panes' ids with ``x`` (``S1P3xS2P4``). Job and source
    names may contain ``x`` too (``ffg-extrema:positionsP1``), so only
    an ``x`` that directly follows a pane index separates two ids. A
    pid that is not made of pane ids comes back whole, for
    :func:`parse_pane_name` to reject.
    """
    if "x" not in pid:
        return [pid]
    parts: List[str] = []
    pos = 0
    while pos < len(pid):
        m = _PID_PART_RE.match(pid, pos)
        if m is None:
            return [pid]
        parts.append(m.group("pane"))
        pos = m.end()
    return parts


@dataclass(frozen=True)
class PaneRange:
    """A contiguous run of panes of one source, ``[first, last]`` inclusive."""

    source: str
    first: int
    last: int

    def __post_init__(self) -> None:
        if self.first < 0 or self.last < self.first:
            raise ValueError(f"invalid pane range [{self.first}, {self.last}]")

    def indices(self) -> List[int]:
        return list(range(self.first, self.last + 1))

    def __contains__(self, index: int) -> bool:
        return self.first <= index <= self.last

    def __len__(self) -> int:
        return self.last - self.first + 1


def pane_file_name(source: str, first: int, last: Optional[int] = None) -> str:
    """HDFS file name for panes, per the paper's convention (Sec. 3.2).

    Oversize case (one pane per file): ``S1P1``. Undersized case
    (several panes per file): ``S1P1_4`` meaning panes 1 through 4.
    """
    if last is None or last == first:
        return pane_name(source, first)
    if last < first:
        raise ValueError(f"invalid pane file range [{first}, {last}]")
    return f"{pane_name(source, first)}_{last}"
