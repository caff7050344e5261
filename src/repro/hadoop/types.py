"""Core data types shared across the simulated Hadoop substrate.

The simulator executes real map and reduce functions over real records so
that query outputs can be checked for correctness, while a cost model
(:mod:`repro.hadoop.costmodel`) charges virtual time for the I/O, shuffle,
sort, and compute work those records imply.

A :class:`Record` is the unit of data stored in simulated HDFS files. It
carries an event timestamp (used by window semantics), an arbitrary value
payload, and an explicit on-disk size in bytes so that the cost model can
charge I/O without serialising anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence, Tuple

__all__ = [
    "Record",
    "KeyValue",
    "records_size",
    "records_span",
    "MEGABYTE",
    "GIGABYTE",
]

#: One binary megabyte, the unit most Hadoop knobs are expressed in.
MEGABYTE: int = 1024 * 1024

#: One binary gigabyte.
GIGABYTE: int = 1024 * MEGABYTE

#: A key/value pair as produced by map functions and consumed by reducers.
KeyValue = Tuple[Any, Any]


@dataclass(frozen=True, slots=True)
class Record:
    """A single timestamped record stored in a simulated HDFS file.

    Attributes
    ----------
    ts:
        Event timestamp in seconds. Window membership of a record is
        decided purely by this field; records within a batch file need
        not be sorted by it (matching the paper's data model, Sec. 2.1).
    value:
        Arbitrary payload handed to the user's map function.
    size:
        Serialised size in bytes charged by the cost model. Defaults to
        a typical log-line size.
    """

    ts: float
    value: Any
    size: int = 100

    def in_range(self, start: float, end: float) -> bool:
        """Return ``True`` when ``start <= ts < end`` (half-open range)."""
        return start <= self.ts < end

    def __reduce__(self):
        # Pickle through the constructor: the ``__getstate__`` dataclasses
        # generates for frozen slotted classes calls ``fields()`` per record.
        return Record, (self.ts, self.value, self.size)


def records_size(records: Iterable[Record]) -> int:
    """Total serialised size in bytes of ``records``."""
    return sum(r.size for r in records)


def records_span(records: Sequence[Record]) -> Tuple[float, float]:
    """Return the ``(min_ts, max_ts)`` span covered by ``records``.

    Raises
    ------
    ValueError
        If ``records`` is empty — an empty file has no time span.
    """
    if not records:
        raise ValueError("cannot compute the time span of zero records")
    lo = min(r.ts for r in records)
    hi = max(r.ts for r in records)
    return lo, hi


@dataclass(slots=True)
class TaggedOutput:
    """A key/value pair tagged with its source, used by multi-input joins.

    Reducers for a join query receive values from several logical data
    sources under the same key; the ``source`` tag lets the reduce
    function separate the two sides without re-parsing the payload.
    """

    source: str
    value: Any

    def __iter__(self) -> Iterator[Any]:
        # Allow ``source, value = tagged`` unpacking in user reduce code.
        return iter((self.source, self.value))
