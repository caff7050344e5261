"""Versioned, self-validating on-disk snapshots of a query server.

The service's fault-tolerance story has two layers. *Within* a
recurrence, the runtime already re-executes failed tasks (Sec. 5).
*Across* server crashes, this module persists everything a
:class:`~repro.service.server.QueryServer` holds between recurrences —
registered queries, controller status matrices and cache signatures,
local cache registries, pane catalogs and packed pane files, ingest
channels, the virtual clock — so a killed server restores mid-stream
and converges to the same per-window outputs as an uninterrupted run.

Two problems shape the format:

**Code does not pickle.** Queries and jobs carry user map/reduce/
finalize closures. The snapshot therefore stores the durable
:class:`~repro.service.spec.QuerySpec`s (factory path + kwargs) as a
*separate leading pickle*, and the main object graph replaces every
``RecurringQuery`` / ``MapReduceJob`` with a persistent id (``("query",
name)`` / ``("job", name)``). Restore unpickles the specs first,
rebuilds the queries by calling their factories (canonicalising shared
jobs by name), and then resolves the graph's persistent ids against the
rebuilt objects — state from the checkpoint, code from the factories.

**Corrupt checkpoints must fail loud and early.** The file is framed as
a magic line, a JSON header carrying ``schema_version``,
``payload_bytes`` and a ``sha256`` content digest, and the payload.
Restore verifies all three before touching pickle and raises
:class:`CheckpointError` with a human-readable message — never a bare
traceback from the middle of a stream.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Tuple

from ..core.query import RecurringQuery
from .spec import QuerySpec, rebuild_queries

__all__ = ["CheckpointError", "SCHEMA_VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"#repro-service-checkpoint\n"
#: Bumped when pickled state gains fields an older snapshot lacks, so
#: restoring one fails here instead of mid-run (2: registry byte totals).
SCHEMA_VERSION = 2


class CheckpointError(Exception):
    """A checkpoint file cannot be written or trusted.

    Raised with a clear, actionable message on bad magic, unsupported
    schema version, truncation, or digest mismatch.
    """


class _GraphPickler(pickle.Pickler):
    """Pickles the server graph, externalising query/job objects."""

    def __init__(self, buf: io.BytesIO, queries: Mapping[str, RecurringQuery]):
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._queries = {id(q): name for name, q in queries.items()}
        self._jobs = {id(q.job): q.job.name for q in queries.values()}

    def persistent_id(self, obj: Any):
        ref = self._queries.get(id(obj))
        if ref is not None:
            return ("query", ref)
        ref = self._jobs.get(id(obj))
        if ref is not None:
            return ("job", ref)
        return None


class _GraphUnpickler(pickle.Unpickler):
    """Resolves persistent ids against factory-rebuilt queries/jobs."""

    def __init__(
        self,
        buf: io.BytesIO,
        queries: Mapping[str, RecurringQuery],
        jobs: Mapping[str, Any],
    ):
        super().__init__(buf)
        self._queries = queries
        self._jobs = jobs

    def persistent_load(self, pid: Tuple[str, str]) -> Any:
        kind, name = pid
        table = self._queries if kind == "query" else self._jobs
        try:
            return table[name]
        except KeyError:
            raise CheckpointError(
                f"checkpoint references {kind} {name!r} but the spec "
                "section rebuilt no such object — the file is internally "
                "inconsistent"
            ) from None


def save_checkpoint(
    path: os.PathLike,
    *,
    specs: Mapping[str, QuerySpec],
    queries: Mapping[str, RecurringQuery],
    graph: Any,
) -> Path:
    """Write a snapshot atomically (temp file + rename) and return its path.

    ``specs`` are the durable query descriptions, ``queries`` the live
    objects they built (externalised from the pickle), ``graph`` the
    root object to snapshot (the server itself).
    """
    buf = io.BytesIO()
    pickle.dump(dict(specs), buf, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        _GraphPickler(buf, queries).dump(graph)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise CheckpointError(
            f"server state is not snapshottable: {exc}"
        ) from exc
    payload = buf.getvalue()
    header = {
        "schema_version": SCHEMA_VERSION,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(payload)
    os.replace(tmp, out)
    return out


def _read_validated_payload(path: Path) -> bytes:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not data.startswith(MAGIC):
        raise CheckpointError(
            f"{path} is not a service checkpoint (bad magic); expected a "
            f"file starting with {MAGIC.decode().strip()!r}"
        )
    rest = data[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path} is truncated: missing header line")
    try:
        header = json.loads(rest[:newline])
    except ValueError:
        raise CheckpointError(f"{path} has a corrupt header line") from None
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path} has schema version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}. Re-create the checkpoint with a "
            "matching build."
        )
    payload = rest[newline + 1:]
    expected = header.get("payload_bytes")
    if len(payload) != expected:
        raise CheckpointError(
            f"{path} is truncated: header promises {expected} payload "
            f"bytes, file carries {len(payload)}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"{path} failed its integrity check: content digest {digest} "
            f"does not match the header's {header.get('sha256')}"
        )
    return payload


def load_checkpoint(
    path: os.PathLike,
    *,
    validate: Callable[[Dict[str, QuerySpec], Any], None] = None,
) -> Any:
    """Restore the object graph a checkpoint holds.

    Validates framing, version, and digest; rebuilds queries from the
    spec section via their factories; resolves the graph's persistent
    references; returns the graph root. ``validate`` (if given) runs
    on ``(specs, graph)`` before returning.
    """
    payload = _read_validated_payload(Path(path))
    buf = io.BytesIO(payload)
    try:
        specs = pickle.load(buf)
    except Exception as exc:
        raise CheckpointError(
            f"{path}: the query-spec section does not unpickle ({exc})"
        ) from exc
    if not isinstance(specs, dict) or not all(
        isinstance(s, QuerySpec) for s in specs.values()
    ):
        raise CheckpointError(
            f"{path}: spec section is not a mapping of QuerySpec objects"
        )
    queries, jobs = rebuild_queries(specs)
    try:
        graph = _GraphUnpickler(buf, queries, jobs).load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"{path}: the state section does not unpickle ({exc}); the "
            "checkpoint may come from an incompatible build"
        ) from exc
    if validate is not None:
        validate(specs, graph)
    return graph
