"""Per-layer wall-clock attribution, measured from outside the program.

The traced run wraps public functions of each layer in timing shims; the
program itself is not edited. Each shim keeps a call count and a *self*
time: its own duration minus the time spent in nested shimmed calls, so
the layers' self times add up to the traced step time without double
counting. ``core.runtime`` wraps the runtime's entry points, so its self
time is the residual of the recurrence loop that no finer layer
claims.

Module-level functions are rebound in every ``repro`` module that
imported them by name (``core/runtime.py`` does ``from
..hadoop.shuffle import sort_pairs``), otherwise those call sites would
bypass the shim. Generator functions get a shim that times every resume,
so iterating ``group_sorted`` is charged to the shuffle, not the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LAYER_NAMES", "LayerClock"]

#: ``(layer, module, class or None for module functions, attributes)``.
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("core.runtime", "repro.core.runtime", "RedoopRuntime", ("run_recurrence", "ingest")),
    (
        "core.cache_registry",
        "repro.core.cache_registry",
        "LocalCacheRegistry",
        (
            "add_entry",
            "has",
            "read",
            "verify",
            "cached_bytes",
            "mark_expired",
            "maybe_purge",
            "entries",
            "live_entries",
        ),
    ),
    ("core.cache_registry.checksum", "repro.core.cache_registry", None, ("payload_checksum",)),
    (
        "core.cache_controller",
        "repro.core.cache_controller",
        "WindowAwareCacheController",
        ("advance_window", "cache_created", "remaining_uses", "pane_arrived", "record_reduce_done"),
    ),
    (
        "core.scheduler",
        "repro.core.scheduler",
        "CacheAwareTaskScheduler",
        (
            "enqueue_map",
            "enqueue_reduce",
            "next_map",
            "next_reduce",
            "select_map_node",
            "select_reduce_node",
        ),
    ),
    (
        "core.data_packer",
        "repro.core.data_packer",
        "DynamicDataPacker",
        ("ingest_batch", "flush", "read_pane"),
    ),
    (
        "hadoop.hdfs",
        "repro.hadoop.hdfs",
        "SimulatedHDFS",
        ("create", "create_isolated", "open", "read_records", "delete", "splits"),
    ),
    (
        "hadoop.shuffle",
        "repro.hadoop.shuffle",
        None,
        ("sort_pairs", "group_sorted", "partition_pairs", "apply_combiner", "run_reduce_partition"),
    ),
    (
        "hadoop.task",
        "repro.hadoop.task",
        None,
        ("execute_map", "execute_reduce", "execute_pane_reduce", "execute_finalize"),
    ),
    ("exec.backends", "repro.exec.backends", "ExecBackend", ("run_tasks",)),
    (
        "trace.spine",
        "repro.trace.spine",
        "Tracer",
        (
            "begin",
            "end",
            "extend",
            "span",
            "instant",
            "spans",
            "events",
            "children",
            "get_span",
            "high_water",
            "clear_events",
            "envelope",
        ),
    ),
    ("plan.sharing", "repro.plan.sharing", "SharedScanRegistry", ("lookup", "publish", "retire")),
    ("service.server", "repro.service.server", "QueryServer", ("run_until", "offer")),
    ("service.ingest", "repro.service.ingest", "IngestChannel", ("offer", "pop")),
    (
        "service.checkpoint",
        "repro.service.checkpoint",
        None,
        ("save_checkpoint", "load_checkpoint"),
    ),
)

LAYER_NAMES: Tuple[str, ...] = tuple(layer for layer, *_ in LAYERS)


class LayerClock:
    """Installs the timing shims and accumulates per-function totals.

    Use as a context manager; the shims are removed on exit. Targets that
    no longer exist in the program are skipped and listed in
    :attr:`missing` rather than failing the install, so a refactor that
    renames one function degrades attribution instead of the benchmark.
    """

    def __init__(self) -> None:
        #: ``(layer, function) -> [calls, self seconds]``.
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.missing: List[str] = []
        #: One child-time accumulator per active shim, innermost last.
        self._stack: List[float] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def __enter__(self) -> "LayerClock":
        for layer, module_name, owner, attrs in LAYERS:
            module = importlib.import_module(module_name)
            target = module if owner is None else getattr(module, owner, None)
            for attr in attrs:
                where = f"{module_name}.{owner + '.' if owner else ''}{attr}"
                raw = None if target is None else target.__dict__.get(attr)
                if raw is None:
                    self.missing.append(where)
                    continue
                stat = self.stats.setdefault((layer, attr), [0, 0.0])
                if owner is None:
                    self._rebind_function(raw, self._shim(raw, stat))
                elif isinstance(raw, property):
                    shim = property(self._shim(raw.fget, stat), raw.fset, raw.fdel, raw.__doc__)
                    self._set(target, attr, raw, shim)
                else:
                    self._set(target, attr, raw, self._shim(raw, stat))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, target, attr: str, old, new) -> None:
        setattr(target, attr, new)
        self._undo.append(lambda: setattr(target, attr, old))

    def _rebind_function(self, fn, shim) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, fn, shim)

    def _shim(self, fn, stat: List[float]):
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def timed_generator(*args, **kwargs):
                stat[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - t0
                        stat[1] += elapsed - stack.pop()
                        if stack:
                            stack[-1] += elapsed
                    yield item

            return timed_generator

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return timed

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[Tuple[str, str], Tuple[float, float]]:
        """``(layer, function) -> (calls, self seconds)`` so far."""
        return {key: (stat[0], stat[1]) for key, stat in self.stats.items()}
