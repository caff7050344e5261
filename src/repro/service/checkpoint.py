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
*separate leading pickle*, and the main object graph pickles every
``RecurringQuery`` / ``MapReduceJob`` as a named reference: a reduce
tuple ``(_external, ("query", name))`` / ``(_external, ("job", name))``
returned by the pickler's ``reducer_override``. The C pickler calls that
hook once per class instance, never for ints, strings or containers, so
the graph pickles at C speed. Restore unpickles the specs first,
rebuilds the queries by calling their factories (canonicalising shared
jobs by name), and then ``find_class`` hands the graph's references a
resolver over the rebuilt objects — state from the checkpoint, code from
the factories. The graph unpickles with the garbage collector paused:
every object it creates survives, so collector passes would free nothing.

**Corrupt checkpoints must fail loud and early.** The file is framed as
a magic line, a JSON header carrying ``schema_version``,
``payload_bytes`` and a ``sha256`` content digest, and the payload.
Restore verifies all three before touching pickle and raises
:class:`CheckpointError` with a human-readable message — never a bare
traceback from the middle of a stream.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, Mapping

from ..core.query import RecurringQuery
from .spec import QuerySpec, rebuild_queries

__all__ = ["CheckpointError", "SCHEMA_VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"#repro-service-checkpoint\n"
#: Bumped when pickled state gains fields an older snapshot lacks, or
#: its encoding changes, so restoring one fails here instead of mid-run
#: (2: registry byte totals; 3: queries/jobs as reduce tuples, not
#: persistent ids; 4: cache entries store their local file name).
SCHEMA_VERSION = 4


class CheckpointError(Exception):
    """A checkpoint file cannot be written or trusted.

    Raised with a clear, actionable message on bad magic, unsupported
    schema version, truncation, or digest mismatch.
    """


def _external(kind: str, name: str) -> Any:
    """Stand-in for a query/job reference in a pickled graph.

    Only :func:`load_checkpoint` can resolve one, because only it has
    rebuilt the queries; its unpickler swaps in the resolver for this
    function, so reaching here means some other code loaded the graph.
    """
    raise CheckpointError(
        f"the {kind} reference {name!r} resolves only inside load_checkpoint"
    )


class _GraphPickler(pickle.Pickler):
    """Pickles the server graph, externalising query/job objects."""

    def __init__(self, buf: io.BytesIO, queries: Mapping[str, RecurringQuery]):
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._refs = {id(q): ("query", name) for name, q in queries.items()}
        self._refs.update({id(q.job): ("job", q.job.name) for q in queries.values()})

    def reducer_override(self, obj: Any):
        ref = self._refs.get(id(obj))
        if ref is None:
            return NotImplemented
        return _external, ref


class _GraphUnpickler(pickle.Unpickler):
    """Resolves query/job references against factory-rebuilt objects."""

    def __init__(
        self,
        buf: io.BytesIO,
        queries: Mapping[str, RecurringQuery],
        jobs: Mapping[str, Any],
    ):
        super().__init__(buf)
        self._queries = queries
        self._jobs = jobs

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == _external.__name__:
            return self._resolve
        return super().find_class(module, name)

    def _resolve(self, kind: str, name: str) -> Any:
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
    spec section via their factories; unpickles the graph with the
    collector paused, resolving its query/job references against the
    rebuilt objects; returns the graph root. ``validate`` (if given)
    runs on ``(specs, graph)`` before returning.
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        graph = _GraphUnpickler(buf, queries, jobs).load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"{path}: the state section does not unpickle ({exc}); the "
            "checkpoint may come from an incompatible build"
        ) from exc
    finally:
        if collecting:
            gc.enable()
    if validate is not None:
        validate(specs, graph)
    return graph
