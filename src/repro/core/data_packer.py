"""The Dynamic Data Packer: pane materialisation at load time (Sec. 3.2).

The packer executes the Semantic Analyzer's partition plan while data is
being loaded: each arriving batch's records are bucketed into panes by
timestamp, and a pane is *sealed* once every instant of its time range
has been covered by arrived batches. Sealed panes become HDFS files
following the paper's naming convention:

* oversize case — one pane per file, named ``S1P3``;
* undersized case — up to ``panes_per_file`` consecutive panes share a
  file, named ``S1P2_4`` (panes 2, 3 and 4), with a *pane header* that
  records each pane's byte offset so later reads can fetch a single
  pane without scanning the whole file.

Because batches arrive in time order, panes seal in index order. Groups
are normally written when complete; :meth:`DynamicDataPacker.flush`
force-writes the sealed remainder of a partial group (needed when a
query execution is due before a low-rate source fills its group), in
which case the group's remaining panes go to a follow-up file — the
range-encoded naming keeps every file self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hadoop.catalog import BatchFile
from ..hadoop.hdfs import SimulatedHDFS
from ..hadoop.types import Record, records_size
from .panes import WindowSpec, pane_file_name, pane_name
from .semantic_analyzer import PartitionPlan

__all__ = ["PaneLocator", "PaneFileHeader", "PackedPane", "DynamicDataPacker"]

#: Bytes charged for reading a pane file's header.
HEADER_BYTES = 256


@dataclass(frozen=True)
class PaneLocator:
    """Where one pane's records live inside a (possibly shared) file."""

    pane_index: int
    byte_offset: int
    byte_length: int
    record_offset: int
    record_count: int


@dataclass(frozen=True)
class PaneFileHeader:
    """The special multi-pane file header of Sec. 3.2.

    Maps pane index to a :class:`PaneLocator` so a reader interested in
    one pane seeks directly to it instead of scanning the file.
    """

    locators: Tuple[PaneLocator, ...]

    def locator(self, pane_index: int) -> PaneLocator:
        for loc in self.locators:
            if loc.pane_index == pane_index:
                return loc
        raise KeyError(f"pane {pane_index} is not in this file")


@dataclass(frozen=True)
class PackedPane:
    """A sealed pane: identifiers plus its physical location."""

    source: str
    index: int
    path: str
    nbytes: int
    num_records: int
    #: Virtual time the pane's data was fully available (seal time).
    available_at: float

    @property
    def pid(self) -> str:
        return pane_name(self.source, self.index)


class DynamicDataPacker:
    """Packs one source's batches into pane files per a partition plan."""

    def __init__(
        self,
        hdfs: SimulatedHDFS,
        spec: WindowSpec,
        plan: PartitionPlan,
        *,
        base_path: str = "/panes",
        use_header: bool = True,
    ) -> None:
        if abs(plan.pane_seconds - spec.pane_seconds) > 1e-9:
            raise ValueError(
                "partition plan pane size does not match the window spec"
            )
        self._hdfs = hdfs
        self._spec = spec
        self._plan = plan
        self._base_path = base_path.rstrip("/")
        self.use_header = use_header
        #: sealed-but-unwritten and still-filling panes, by index
        self._pending: Dict[int, List[Record]] = {}
        self._covered_until = 0.0
        self._next_to_write = 0
        #: pane index -> (path, header or None)
        self._written: Dict[int, Tuple[str, Optional[PaneFileHeader]]] = {}
        self._packed: Dict[int, PackedPane] = {}

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    @property
    def source(self) -> str:
        return self._plan.source

    @property
    def pane_seconds(self) -> float:
        """The pane granularity this packer materialises."""
        return self._plan.pane_seconds

    @property
    def covered_until(self) -> float:
        """Time up to which this source's data has fully arrived."""
        return self._covered_until

    def ingest_batch(
        self, batch: BatchFile, records: Sequence[Record]
    ) -> List[PackedPane]:
        """Bucket a batch's records into panes; write completed groups.

        Pane creation piggybacks on loading (paper Sec. 2.3): the packer
        partitions the records while the batch lands, so no query-time
        cost is charged for it. Returns the panes sealed *and written*
        by this batch.
        """
        if batch.source != self.source:
            raise ValueError(
                f"batch belongs to {batch.source!r}, packer to {self.source!r}"
            )
        if batch.t_start < self._covered_until - 1e-9:
            raise ValueError(
                f"batch {batch.path!r} arrives out of order: starts at "
                f"{batch.t_start} but source covered until {self._covered_until}"
            )
        for record in records:
            if not batch.t_start <= record.ts < batch.t_end:
                raise ValueError(
                    f"record at ts={record.ts} outside batch range "
                    f"[{batch.t_start}, {batch.t_end})"
                )
            idx = self._spec.pane_of_time(record.ts)
            self._pending.setdefault(idx, []).append(record)
        self._covered_until = max(self._covered_until, batch.t_end)
        return self._write_ready(force=False)

    def flush(self) -> List[PackedPane]:
        """Force-write every sealed pane, splitting partial groups."""
        return self._write_ready(force=True)

    # ------------------------------------------------------------------
    # pane access
    # ------------------------------------------------------------------

    def pane(self, index: int) -> PackedPane:
        """Metadata of a written pane.

        Raises
        ------
        KeyError
            If the pane has not been sealed and written yet.
        """
        try:
            return self._packed[index]
        except KeyError:
            raise KeyError(
                f"pane {pane_name(self.source, index)} has not been packed yet"
            ) from None

    def is_packed(self, index: int) -> bool:
        return index in self._packed

    def is_shared(self, index: int) -> bool:
        """Does pane ``index`` share its physical file with other panes?"""
        self.pane(index)  # raise KeyError for unpacked panes
        _path, header = self._written[index]
        return header is not None

    def packed_panes(self) -> List[PackedPane]:
        return [self._packed[i] for i in sorted(self._packed)]

    def read_pane(self, index: int) -> Tuple[Tuple[Record, ...], int]:
        """Read one pane's records, returning ``(records, bytes_charged)``.

        For multi-pane files with the header enabled, only the pane's
        own bytes (plus a small header read) are charged — the Sec. 3.2
        optimisation. With the header disabled (ablation), the entire
        shared file must be scanned.
        """
        self.pane(index)  # raise KeyError for unpacked panes
        path, header = self._written[index]
        hfile = self._hdfs.open(path)
        if header is None:
            return hfile.records, hfile.size
        loc = header.locator(index)
        records = hfile.records[
            loc.record_offset : loc.record_offset + loc.record_count
        ]
        if self.use_header:
            return records, loc.byte_length + HEADER_BYTES
        return records, hfile.size

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _sealed_unwritten(self) -> List[int]:
        """Pane indices sealed by arrived data but not yet written."""
        pane = self._spec.pane_seconds
        sealed: List[int] = []
        idx = self._next_to_write
        while (idx + 1) * pane <= self._covered_until + 1e-9:
            sealed.append(idx)
            idx += 1
        return sealed

    def _write_ready(self, *, force: bool) -> List[PackedPane]:
        ppf = self._plan.panes_per_file
        sealed = self._sealed_unwritten()
        written: List[PackedPane] = []
        cursor = 0
        while cursor < len(sealed):
            first = sealed[cursor]
            group = first // ppf
            group_end = (group + 1) * ppf - 1  # last pane of this group
            run = [first]
            while (
                cursor + len(run) < len(sealed)
                and sealed[cursor + len(run)] == run[-1] + 1
                and run[-1] + 1 <= group_end
            ):
                run.append(run[-1] + 1)
            group_complete = run[-1] == group_end
            if not (group_complete or force):
                break  # wait for the rest of the group
            written.extend(self._write_pane_file(run))
            cursor += len(run)
        return written

    def _write_pane_file(self, indices: List[int]) -> List[PackedPane]:
        source = self.source
        name = pane_file_name(source, indices[0], indices[-1])
        path = f"{self._base_path}/{source}/{name}"
        all_records: List[Record] = []
        locators: List[PaneLocator] = []
        byte_offset = 0
        for idx in indices:
            recs = self._pending.pop(idx, [])
            nbytes = records_size(recs)
            locators.append(
                PaneLocator(
                    pane_index=idx,
                    byte_offset=byte_offset,
                    byte_length=nbytes,
                    record_offset=len(all_records),
                    record_count=len(recs),
                )
            )
            all_records.extend(recs)
            byte_offset += nbytes
        seal_time = self._covered_until
        self._hdfs.create(path, all_records, created_at=seal_time)
        header = PaneFileHeader(tuple(locators)) if len(indices) > 1 else None
        packed: List[PackedPane] = []
        for loc in locators:
            self._written[loc.pane_index] = (path, header)
            pane = PackedPane(
                source=source,
                index=loc.pane_index,
                path=path,
                nbytes=loc.byte_length,
                num_records=loc.record_count,
                available_at=seal_time,
            )
            self._packed[loc.pane_index] = pane
            packed.append(pane)
        self._next_to_write = indices[-1] + 1
        return packed
