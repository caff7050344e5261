"""The benchmark's three workloads.

Every workload is a single-threaded closed loop on the serial backend:
the benchmark hands the program one step's input and waits for the
result before sending the next. Inputs are generated from the seed before any
timing starts, and the program only ever receives the generated batches.

* ``agg-steady`` and ``join-combos``: a step ingests one slide's batches
  and then calls ``run_recurrence``.
* ``serve-shared``: a step is ``offer(batch)`` followed by
  ``run_until(batch.t_end)``.

A workload object knows how to generate inputs, set the program up
(the part ``setup_s`` times), drive one pass step by step, and
checkpoint/restore the program afterwards.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.bench.experiments import aggregation_config, join_config
from repro.bench.harness import ExperimentConfig, build_workload
from repro.bench.service import (
    SOURCE,
    ServiceScenario,
    _apply_action,
    build_server,
    churn_plan,
    scenario_batches,
)
from repro.core.runtime import RecurrenceResult, RedoopRuntime
from repro.hadoop.cluster import Cluster
from repro.service import (
    ACCEPTED,
    QuerySpec,
    QueryServer,
    build_query,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

from .oracle import WindowOracle

__all__ = ["WORKLOADS", "SMOKE", "Inputs", "PassOutcome", "StepTimer", "workload"]

#: Leading steps left out of the step percentiles (the first 10 windows
#: fill the 0.9-overlap window; the serve fleet ramps up over 10 ticks).
WARMUP_STEPS = 10

#: Layers every workload exercises inside its steps.
CORE_LAYERS: Tuple[str, ...] = (
    "core.runtime",
    "core.cache_registry",
    "core.cache_registry.checksum",
    "core.cache_controller",
    "core.scheduler",
    "core.data_packer",
    "hadoop.hdfs",
    "hadoop.shuffle",
    "hadoop.task",
    "exec.backends",
    "trace.spine",
)


class StepTimer:
    """Times each step of a pass and, with a layer clock, splits it.

    Layer time is taken only inside steps, so work the benchmark does
    between steps (result summaries, a mid-pass restore) never inflates
    a layer's share of the step time.
    """

    def __init__(self, clock=None) -> None:
        self.walls: List[float] = []
        #: per step, layer -> self seconds (only with a layer clock).
        self.splits: List[Dict[str, float]] = []
        #: ``(layer, function) -> [calls, self seconds]`` inside steps.
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self._clock = clock
        self._t0 = 0.0
        self._before: Dict[Tuple[str, str], Tuple[float, float]] = {}

    def __enter__(self) -> "StepTimer":
        if self._clock is not None:
            self._before = self._clock.snapshot()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.walls.append(time.perf_counter() - self._t0)
        if self._clock is None:
            return
        split: Dict[str, float] = {}
        for key, (calls, self_s) in self._clock.snapshot().items():
            calls_before, self_before = self._before[key]
            total = self.totals.setdefault(key, [0, 0.0])
            total[0] += calls - calls_before
            total[1] += self_s - self_before
            split[key[0]] = split.get(key[0], 0.0) + self_s - self_before
        self.splits.append(split)


@dataclass
class Inputs:
    """Everything generated from the seed, before timing starts."""

    #: figure workloads: one list of batches per recurrence; serve
    #: workloads: one single-batch list per step.
    steps: List[List[Tuple[Any, List[Any]]]]
    records: int
    oracle: WindowOracle
    config: Any


@dataclass
class PassOutcome:
    """One pass of a workload: what the program produced."""

    program: Any
    results: List[RecurrenceResult]
    batches: int
    #: batches the program did not accept (shed, deferred or gap).
    rejected: int
    #: deterministic work counts (runtime, per-recurrence and HDFS).
    work: Dict[str, float]
    #: virtual seconds, median over the pass's windows.
    sim_response_p50: float
    cache_entries: int
    trace_items: int
    #: bytes of checkpoints written inside steps.
    checkpoint_bytes: int = 0
    #: wall seconds of restores made inside the pass.
    mid_restores: List[float] = field(default_factory=list)


def _work_counts(runtime: RedoopRuntime, results: Sequence[RecurrenceResult]) -> Dict[str, float]:
    """The runtime's lifetime counters and the HDFS counters.

    Counters only the per-recurrence bags carry (``map.tasks``,
    ``shuffle.bytes``) are summed over the recurrences; a counter the
    runtime increments in both bags is taken from the lifetime bag once.
    """
    totals: Dict[str, float] = {}
    for result in results:
        for name, value in result.counters.as_dict().items():
            totals[name] = totals.get(name, 0.0) + value
    totals.update(runtime.counters.as_dict())
    totals.update(runtime.cluster.hdfs.counters.as_dict())
    return totals


def _outcome(program, runtime, results, batches, rejected, **extra) -> PassOutcome:
    return PassOutcome(
        program=program,
        results=results,
        batches=batches,
        rejected=rejected,
        work=_work_counts(runtime, results),
        sim_response_p50=statistics.median([r.response_time for r in results]),
        cache_entries=sum(len(reg.live_entries()) for reg in runtime.registries().values()),
        trace_items=len(runtime.tracer),
        **extra,
    )


# ----------------------------------------------------------------------
# figure workloads: one query, ingest + run_recurrence per step
# ----------------------------------------------------------------------


@dataclass
class FigureProgram:
    runtime: RedoopRuntime
    query: Any
    spec: QuerySpec


@dataclass(frozen=True)
class FigureWorkload:
    name: str
    #: ``"aggregation"`` (Fig. 6) or ``"join"`` (Fig. 7).
    kind: str
    scale: float
    num_windows: int
    warmup: int = WARMUP_STEPS

    def config(self, seed: int) -> ExperimentConfig:
        make = aggregation_config if self.kind == "aggregation" else join_config
        return make(0.9, scale=self.scale, num_windows=self.num_windows, seed=seed)

    def spec(self, config: ExperimentConfig) -> QuerySpec:
        query = config.build_query()
        factory = (
            "repro.workloads.queries:aggregation_query"
            if self.kind == "aggregation"
            else "repro.workloads.queries:join_query"
        )
        return QuerySpec(
            name=query.name,
            factory=factory,
            kwargs={"win": config.win, "slide": config.slide, "num_reducers": config.num_reducers},
            rates={source: config.rate for source in config.sources},
        )

    def generate(self, seed: int) -> Inputs:
        config = self.config(seed)
        batches = build_workload(config)
        pending = sorted(
            (item for items in batches.values() for item in items),
            key=lambda bw: (bw[0].t_end, bw[0].source),
        )
        steps: List[List[Tuple[Any, List[Any]]]] = []
        cursor = 0
        for recurrence in range(1, config.num_windows + 1):
            due = config.spec.execution_time(recurrence)
            step = []
            while cursor < len(pending) and pending[cursor][0].t_end <= due + 1e-9:
                step.append(pending[cursor])
                cursor += 1
            steps.append(step)
        by_source = {
            source: [r for _batch, records in items for r in records]
            for source, items in batches.items()
        }
        return Inputs(
            steps=steps,
            records=sum(len(records) for _b, records in pending),
            oracle=WindowOracle(self.kind, by_source),
            config=config,
        )

    def setup(self, inputs: Inputs, scratch: Path) -> FigureProgram:
        config = inputs.config
        spec = self.spec(config)
        runtime = RedoopRuntime(Cluster(config.cluster_config, seed=config.seed))
        query = build_query(spec)
        runtime.register_query(query, dict(spec.rates))
        return FigureProgram(runtime, query, spec)

    def run(
        self, program: FigureProgram, inputs: Inputs, timer: StepTimer, scratch: Path
    ) -> PassOutcome:
        runtime, name = program.runtime, program.query.name
        results: List[RecurrenceResult] = []
        batches = 0
        for recurrence, step in enumerate(inputs.steps, start=1):
            with timer:
                for batch, records in step:
                    runtime.ingest(batch, records)
                results.append(runtime.run_recurrence(name, recurrence))
            batches += len(step)
        return _outcome(program, runtime, results, batches, 0)

    def layers(self) -> Tuple[str, ...]:
        """Layers that must record calls on this workload."""
        return CORE_LAYERS

    def checkpoint(self, program: FigureProgram, path: Path) -> Path:
        return save_checkpoint(
            path,
            specs={program.spec.name: program.spec},
            queries={program.spec.name: program.query},
            graph=program.runtime,
        )

    def restore(self, path: Path) -> Any:
        return load_checkpoint(path)


# ----------------------------------------------------------------------
# serve workloads: a multi-tenant QueryServer, offer + run_until per step
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    tenants: int
    recurrences: int
    checkpoint_every: int
    #: restore from the latest checkpoint after this many steps.
    restore_after: int
    warmup: int = WARMUP_STEPS

    def scenario(self, seed: int) -> ServiceScenario:
        return ServiceScenario(tenants=self.tenants, recurrences=self.recurrences, seed=seed)

    def generate(self, seed: int) -> Inputs:
        scenario = self.scenario(seed)
        batches = scenario_batches(scenario)
        return Inputs(
            steps=[[item] for item in batches],
            records=sum(len(records) for _b, records in batches),
            oracle=WindowOracle("aggregation", {SOURCE: [r for _b, rs in batches for r in rs]}),
            config=scenario,
        )

    def setup(self, inputs: Inputs, scratch: Path) -> QueryServer:
        return build_server(
            inputs.config,
            share_scans=True,
            checkpoint_dir=scratch,
            checkpoint_every=self.checkpoint_every,
        )

    def run(
        self, server: QueryServer, inputs: Inputs, timer: StepTimer, scratch: Path
    ) -> PassOutcome:
        actions = churn_plan(inputs.config)
        cursor = 0
        batches = rejected = 0
        restores: List[float] = []
        index = 0
        while index < len(inputs.steps):
            ((batch, records),) = inputs.steps[index]
            # Churn actions are idempotent (remembered in server.notes),
            # so a restored server can replay them from the start.
            while cursor < len(actions) and actions[cursor].time <= batch.t_start + 1e-9:
                _apply_action(server, actions[cursor])
                cursor += 1
            with timer:
                verdict = server.offer(batch, records)
                server.run_until(batch.t_end)
            batches += 1
            rejected += verdict != ACCEPTED
            index += 1
            if index == self.restore_after and not restores:
                path = latest_checkpoint(scratch)
                if path is None:
                    raise RuntimeError(f"{self.name}: no checkpoint written by step {index}")
                # The killed server is gone before its successor loads.
                server = None
                gc.collect()
                t0 = time.perf_counter()
                server = QueryServer.restore(path)
                restores.append(time.perf_counter() - t0)
                horizon = server.channels[SOURCE].accepted_until
                index = next(
                    i for i, ((b, _r),) in enumerate(inputs.steps) if b.t_end > horizon + 1e-9
                )
                cursor = 0
        written = sum(p.stat().st_size for p in scratch.glob("ckpt-r*.bin"))
        return _outcome(
            server,
            server.runtime,
            list(server.results),
            batches,
            rejected,
            checkpoint_bytes=written,
            mid_restores=restores,
        )

    def layers(self) -> Tuple[str, ...]:
        return CORE_LAYERS + (
            "service.server",
            "service.ingest",
            "plan.sharing",
            "service.checkpoint",
        )

    def checkpoint(self, server: QueryServer, path: Path) -> Path:
        return server.checkpoint(path)

    def restore(self, path: Path) -> Any:
        return QueryServer.restore(path)


#: The benchmark's workloads, in report order.
WORKLOADS = {
    w.name: w
    for w in (
        FigureWorkload(
            name="agg-steady",
            kind="aggregation",
            scale=0.1,
            num_windows=110,
        ),
        FigureWorkload(
            name="join-combos",
            kind="join",
            scale=0.05,
            num_windows=110,
        ),
        ServeWorkload(
            name="serve-shared",
            tenants=8,
            recurrences=60,
            checkpoint_every=60,
            restore_after=60,
        ),
    )
}

#: Reduced variants for the benchmark's own tests (``--size smoke``).
SMOKE = {
    "agg-steady": replace(WORKLOADS["agg-steady"], scale=0.02, num_windows=14),
    "join-combos": replace(WORKLOADS["join-combos"], scale=0.02, num_windows=14),
    "serve-shared": replace(
        WORKLOADS["serve-shared"], tenants=4, recurrences=16, checkpoint_every=6, restore_after=16
    ),
}


def workload(name: str, size: str = "full"):
    """The workload called ``name`` at ``size`` (``full`` or ``smoke``)."""
    table = WORKLOADS if size == "full" else SMOKE
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]
