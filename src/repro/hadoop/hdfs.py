"""A simulated Hadoop Distributed File System.

Files hold real :class:`~repro.hadoop.types.Record` objects (so map
functions consume real data) and are carved into fixed-size blocks with
replica placement across the cluster's data nodes (so the scheduler can
reason about data locality and the fault injector about replica loss).

The implementation follows HDFS semantics where they matter to the
paper: immutable write-once files, 64 MB default blocks, rack-unaware
random replica placement, and re-replication when a data node dies.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .config import ClusterConfig
from .counters import Counters
from .types import Record, records_size

__all__ = ["Block", "HDFSFile", "FileSplit", "SimulatedHDFS", "HDFSError"]


class HDFSError(Exception):
    """Raised for namespace violations (missing paths, duplicate creates)."""


@dataclass(slots=True)
class Block:
    """One replicated block of an HDFS file."""

    block_id: int
    size: int
    replicas: Tuple[int, ...]


@dataclass(slots=True)
class HDFSFile:
    """An immutable, block-replicated file in the simulated namespace."""

    path: str
    records: Tuple[Record, ...]
    size: int
    blocks: Tuple[Block, ...]
    created_at: float = 0.0

    @property
    def num_records(self) -> int:
        return len(self.records)

    def replica_nodes(self) -> Set[int]:
        """Every node holding at least one replica of any block."""
        nodes: Set[int] = set()
        for block in self.blocks:
            nodes.update(block.replicas)
        return nodes


@dataclass(slots=True)
class FileSplit:
    """The unit of work handed to one map task (one block of one file)."""

    path: str
    split_index: int
    records: Tuple[Record, ...]
    size: int
    locations: Tuple[int, ...]

    @property
    def num_records(self) -> int:
        return len(self.records)


class SimulatedHDFS:
    """The namespace plus block-placement logic of the simulated DFS.

    Parameters
    ----------
    config:
        Cluster configuration providing block size, replication factor,
        and the set of data-node ids (``0 .. num_nodes-1``).
    seed:
        Seed for the private RNG governing replica placement. Fixing it
        makes entire simulations reproducible.
    """

    def __init__(self, config: ClusterConfig, seed: int = 0) -> None:
        self._config = config
        self._rng = random.Random(seed)
        self._files: Dict[str, HDFSFile] = {}
        self._live_nodes: Set[int] = set(range(config.num_nodes))
        self._next_block_id = 0
        self.counters = Counters()

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------

    def create(
        self,
        path: str,
        records: Sequence[Record],
        *,
        created_at: float = 0.0,
    ) -> HDFSFile:
        """Write ``records`` as a new immutable file at ``path``.

        Raises
        ------
        HDFSError
            If ``path`` already exists (HDFS files are write-once).
        """
        if path in self._files:
            raise HDFSError(f"path already exists: {path!r}")
        recs = tuple(records)
        size = records_size(recs)
        blocks = self._place_blocks(size)
        hfile = HDFSFile(
            path=path,
            records=recs,
            size=size,
            blocks=blocks,
            created_at=created_at,
        )
        self._files[path] = hfile
        self.counters.increment("hdfs.bytes_written", size)
        self.counters.increment("hdfs.files_created")
        return hfile

    def create_isolated(
        self,
        path: str,
        records: Sequence[Record],
        *,
        created_at: float = 0.0,
    ) -> HDFSFile:
        """Like :meth:`create`, without advancing the placement RNG.

        For bookkeeping side-files (e.g. reuse-store artifacts) written
        *during* a simulation: block placement draws from a throwaway
        RNG keyed on the path, so whether such a file is written has no
        effect on where every later file's replicas land — runs with
        and without the side-channel stay placement-identical.
        """
        state = self._rng.getstate()
        self._rng.seed(path)
        try:
            return self.create(path, records, created_at=created_at)
        finally:
            self._rng.setstate(state)

    def open(self, path: str) -> HDFSFile:
        """Return the file at ``path``.

        Raises
        ------
        HDFSError
            If no such file exists.
        """
        try:
            return self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path!r}") from None

    def read_records(self, path: str) -> Tuple[Record, ...]:
        """Read every record of ``path``, charging the read counters."""
        hfile = self.open(path)
        self.counters.increment("hdfs.bytes_read", hfile.size)
        return hfile.records

    def delete(self, path: str) -> None:
        """Remove ``path`` from the namespace.

        Raises
        ------
        HDFSError
            If no such file exists.
        """
        if path not in self._files:
            raise HDFSError(f"no such file: {path!r}")
        del self._files[path]
        self.counters.increment("hdfs.files_deleted")

    def exists(self, path: str) -> bool:
        return path in self._files

    def glob(self, pattern: str) -> List[str]:
        """Paths matching a shell-style ``pattern``, sorted for determinism."""
        return sorted(fnmatch.filter(self._files, pattern))

    @property
    def total_bytes(self) -> int:
        """Logical bytes stored (before replication)."""
        return sum(f.size for f in self._files.values())

    # ------------------------------------------------------------------
    # block placement and locality
    # ------------------------------------------------------------------

    def _place_blocks(self, size: int) -> Tuple[Block, ...]:
        block_size = self._config.block_size
        blocks: List[Block] = []
        remaining = size
        # Every file, even an empty marker, gets at least one block so
        # that locality queries always have an answer.
        while True:
            this_size = min(block_size, remaining) if remaining > 0 else 0
            blocks.append(
                Block(
                    block_id=self._next_block_id,
                    size=this_size,
                    replicas=self._choose_replicas(),
                )
            )
            self._next_block_id += 1
            remaining -= this_size
            if remaining <= 0:
                break
        return tuple(blocks)

    def _choose_replicas(self) -> Tuple[int, ...]:
        live = sorted(self._live_nodes)
        if not live:
            raise HDFSError("no live data nodes available for placement")
        k = min(self._config.replication, len(live))
        return tuple(self._rng.sample(live, k))

    def splits(self, path: str) -> List[FileSplit]:
        """Carve ``path`` into map-task input splits, one per block.

        Records are distributed across splits proportionally to block
        sizes; the final split absorbs any rounding remainder so no
        record is dropped.
        """
        hfile = self.open(path)
        blocks = hfile.blocks
        n = len(hfile.records)
        if len(blocks) == 1:
            return [
                FileSplit(
                    path=path,
                    split_index=0,
                    records=hfile.records,
                    size=hfile.size,
                    locations=blocks[0].replicas,
                )
            ]
        splits: List[FileSplit] = []
        start = 0
        for i, block in enumerate(blocks):
            if i == len(blocks) - 1:
                end = n
            else:
                share = block.size / hfile.size if hfile.size else 0.0
                end = start + round(n * share)
                end = min(end, n)
            recs = hfile.records[start:end]
            splits.append(
                FileSplit(
                    path=path,
                    split_index=i,
                    records=recs,
                    size=block.size,
                    locations=block.replicas,
                )
            )
            start = end
        return splits

    def nodes_for(self, path: str) -> Set[int]:
        """Data nodes holding at least one replica of ``path``."""
        return self.open(path).replica_nodes()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    @property
    def live_nodes(self) -> Set[int]:
        return set(self._live_nodes)

    def fail_node(self, node_id: int) -> int:
        """Mark a data node dead and re-replicate its blocks elsewhere.

        Returns the number of blocks that had to be re-replicated. Blocks
        whose every replica is lost would be data loss; with replication
        >= 2 and more than one live node this cannot happen here because
        re-replication is immediate.
        """
        if node_id not in self._live_nodes:
            raise HDFSError(f"node {node_id} is not alive")
        self._live_nodes.discard(node_id)
        moved = 0
        for hfile in self._files.values():
            new_blocks: List[Block] = []
            changed = False
            for block in hfile.blocks:
                if node_id in block.replicas:
                    survivors = tuple(r for r in block.replicas if r != node_id)
                    replacement = self._pick_replacement(survivors)
                    replicas = survivors + replacement
                    if not replicas:
                        raise HDFSError(
                            f"block {block.block_id} lost its last replica"
                        )
                    new_blocks.append(
                        Block(block.block_id, block.size, replicas)
                    )
                    moved += 1
                    changed = True
                    self.counters.increment("hdfs.bytes_rereplicated", block.size)
                else:
                    new_blocks.append(block)
            if changed:
                hfile.blocks = tuple(new_blocks)
        return moved

    def _pick_replacement(self, survivors: Tuple[int, ...]) -> Tuple[int, ...]:
        candidates = sorted(self._live_nodes - set(survivors))
        if not candidates:
            return ()
        return (self._rng.choice(candidates),)

    def recover_node(self, node_id: int) -> None:
        """Bring a previously failed node back (empty — blocks were moved)."""
        if node_id in self._live_nodes:
            raise HDFSError(f"node {node_id} is already alive")
        if not 0 <= node_id < self._config.num_nodes:
            raise HDFSError(f"node {node_id} is not part of this cluster")
        self._live_nodes.add(node_id)
