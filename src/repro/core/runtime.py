"""The Redoop runtime: incremental, cache-aware recurring-query execution.

This is the paper's advanced task execution manager (Sec. 2.3) tying
every component together. For each registered
:class:`~repro.core.query.RecurringQuery` it:

1. plans pane partitioning (Semantic Analyzer) and packs arriving
   batches into pane files (Dynamic Data Packer);
2. on each recurrence, *maps and shuffles only the new panes* — panes
   already holding reduce-input caches are reused in place;
3. caches, on the task nodes' local file systems, both the reduce input
   of every pane and the reduce output of every pane (aggregation) or
   pane combination (join), and merges cached partial outputs into the
   window answer with the query's finalize function;
4. schedules all tasks through the cache-aware scheduler (Eq. 4);
5. feeds execution statistics to the profiler and — in adaptive mode —
   switches to *proactive* processing, mapping panes as soon as their
   data arrives instead of waiting for the window to close (Sec. 3.3);
6. maintains all cache metadata (registries, controller, status
   matrices) including expiration, purging, and failure rollback.

Execution stages per recurrence (all on virtual time):

* **map** — one map task per new pane (header-optimised pane reads);
* **pane-reduce** — per (pane, partition): shuffle transfer, sort, and
  reduce-input cache write; aggregation queries additionally reduce the
  pane and write its reduce-output cache;
* **combine** — per partition: joins compute the outstanding pane
  combinations from reduce-input caches; the finalize step then merges
  the window's cached partial outputs into the final answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..hadoop.catalog import BatchFile
from ..hadoop.cluster import Cluster
from ..hadoop.counters import Counters, PhaseTimes
from ..hadoop.engine import TaskEngine
from ..hadoop.faults import FaultInjector, TaskAttemptsExhaustedError
from ..hadoop.node import MAP_SLOT, REDUCE_SLOT, LocalFile, TaskNode
from ..exec import ExecBackend
from ..hadoop.shuffle import group_sorted, sort_pairs
from ..hadoop.task import execute_finalize, execute_map, execute_pane_reduce
from ..hadoop.timeline import SchedulingDecision, record_decision
from ..hadoop.types import KeyValue, Record
from repro.trace import (
    CAT_FAULT,
    CAT_PHASE,
    CAT_RECURRENCE,
    CAT_RUN,
    CAT_TASK,
    PHASE_NAMES,
    Span,
    Tracer,
)
from .cache_controller import (
    CACHE_AVAILABLE,
    HDFS_AVAILABLE,
    WindowAwareCacheController,
)
from .cache_registry import (
    REDUCE_INPUT,
    REDUCE_OUTPUT,
    CacheCorruptionError,
    LocalCacheRegistry,
    cache_file_name,
)
from .data_packer import DynamicDataPacker
from .eviction import make_policy, select_victims
from .panes import WindowSpec, pane_name
from .profiler import ExecutionProfiler
from .query import RecurringQuery
from .scheduler import CacheAwareTaskScheduler, MapTaskRequest, ReduceTaskRequest
from .semantic_analyzer import PartitionPlan, SemanticAnalyzer, SourceStats

__all__ = ["RecurrenceResult", "RedoopRuntime"]


def pair_pid(panes: Mapping[str, int]) -> str:
    """Cache pid for a pane combination, e.g. ``S1P3xS2P4``.

    Single-source combinations collapse to the plain pane id.
    """
    parts = [pane_name(src, panes[src]) for src in sorted(panes)]
    return "x".join(parts)


@dataclass(slots=True)
class RecurrenceResult:
    """Everything measured about one executed recurrence."""

    query: str
    recurrence: int
    #: per-source half-open data ranges.
    window_bounds: Dict[str, Tuple[float, float]]
    #: when the window's data was complete and the execution became due.
    due_time: float
    start_time: float
    finish_time: float
    phase_times: PhaseTimes
    output: List[KeyValue]
    counters: Counters
    #: The window was abandoned after attempt exhaustion: its caches
    #: were rolled back, its output is empty, later windows proceed.
    degraded: bool = False

    @property
    def response_time(self) -> float:
        """Virtual seconds from the execution being due to final output.

        This is the paper's per-window processing time: proactive work
        done before the window closed does not count, queueing behind
        an overrunning previous recurrence does.
        """
        return self.finish_time - self.due_time


@dataclass
class _PaneWork:
    """Timing/state of one pane's map + pane-reduce pipeline."""

    map_finish: float = 0.0
    #: partition -> pane-reduce finish time.
    reduce_finish: Dict[int, float] = field(default_factory=dict)


@dataclass
class _PartialMap:
    """Accumulated proactive map output for a still-filling pane.

    In proactive mode (Sec. 3.3) the runtime maps each arriving batch's
    slice of a pane — a *sub-pane* — as soon as it lands, instead of
    waiting for the window to close. The partial map outputs accumulate
    here until the pane seals.
    """

    partitioned: Dict[int, List[KeyValue]] = field(default_factory=dict)
    records_mapped: int = 0
    bytes_mapped: int = 0
    map_finish: float = 0.0
    chunks: int = 0

    def absorb(self, partitioned: Mapping[int, List[KeyValue]]) -> None:
        for partition, pairs in partitioned.items():
            self.partitioned.setdefault(partition, []).extend(pairs)


@dataclass
class _QueryState:
    query: RecurringQuery
    plans: Dict[str, PartitionPlan]
    #: source -> packer; shared across queries reading the same source.
    packers: Dict[str, DynamicDataPacker]
    #: source -> window spec re-expressed over the source's shared pane.
    eff_specs: Dict[str, WindowSpec]
    profiler: ExecutionProfiler
    #: sticky partition -> preferred reduce node; shared per job so
    #: queries sharing a job co-locate their caches.
    partition_nodes: Dict[int, int] = field(default_factory=dict)
    #: (source, index) -> in-flight/finished pane work this window.
    pane_work: Dict[Tuple[str, int], _PaneWork] = field(default_factory=dict)
    #: (source, index) -> proactive sub-pane map output, pre-seal.
    partials: Dict[Tuple[str, int], _PartialMap] = field(default_factory=dict)
    proactive: bool = False
    next_recurrence: int = 1
    #: cumulative bytes ingested for this query (all sources).
    bytes_ingested: float = 0.0
    #: snapshot of bytes_ingested at the previous recurrence.
    last_ingest_snapshot: float = 0.0
    #: cross-query reuse fingerprints (None when the plan is
    #: unfingerprintable or no reuse store is configured).
    reuse_plan_fp: Optional[str] = None
    #: source -> pane-level sub-fingerprint.
    reuse_pane_fps: Dict[str, str] = field(default_factory=dict)
    #: stored artifacts matching this plan at registration time.
    reuse_match_count: int = 0
    #: the query's logical-plan IR (:class:`repro.plan.LogicalPlan`),
    #: built once at registration — what the analyzer planned against.
    ir: Optional[object] = None
    #: source -> Scan→Map→Shuffle prefix fingerprint for shared-scan
    #: matching (empty when sharing is off or the plan has no stable
    #: fingerprint).
    share_prefix_fps: Dict[str, str] = field(default_factory=dict)

    def spec(self, source: str) -> WindowSpec:
        """The source's window constraints over the *shared* pane size."""
        return self.eff_specs[source]

    def qsource(self, source: str) -> str:
        """Cache namespace for a source: ``<job-name>:<source>``.

        Caches hold map/reduce *output*, so they are only shareable
        between queries running the same job. Namespacing pane pids by
        job name makes that sharing explicit: two queries with the same
        job object reuse each other's caches; different jobs never
        collide (Sec. 4.2's doneQueryMask coordinates the purge).
        """
        return f"{self.query.job.name}:{source}"

    def qpid(self, source: str, index: int) -> str:
        """Cache pid of a pane within this query's job namespace."""
        return pane_name(self.qsource(source), index)


class RedoopRuntime(TaskEngine):
    """Executes recurring queries with window-aware optimisations.

    Parameters
    ----------
    cluster:
        The simulated cluster to run on. One runtime owns the cluster's
        scheduling state; do not mix it with a concurrently used
        :class:`~repro.hadoop.jobtracker.JobTracker` on the same cluster.
    enable_caching:
        Master switch; with ``False`` every recurrence re-maps every
        pane (for baselines/ablations).
    enable_output_cache:
        Keep reduce-output caches (pane partials / join pair results).
        Disabling falls back to re-reducing from reduce-input caches.
    adaptive:
        Enable profiler-driven adaptive/proactive processing (Sec. 3.3).
    fault_injector:
        Optional deterministic fault source for task retries.
    cache_capacity_bytes:
        Per-node cache budget; defaults to the cluster config's
        ``cache_capacity_bytes`` (``None`` = unbounded). When set,
        writes that would exceed it evict live entries via the
        eviction policy, or are refused outright when nothing
        evictable can make room.
    eviction_policy:
        ``"lru"``, ``"lifespan"`` or ``"cost-benefit"``; defaults to
        the cluster config's ``cache_eviction_policy``.
    reuse_store:
        Optional :class:`~repro.reuse.ReuseStore` for cross-query
        result reuse (see ``docs/reuse.md``). The runtime attaches the
        store to this cluster's HDFS and its own counter bag; pane and
        window outputs are published into it, and matching stored
        artifacts seed the cache status matrix (skipping map/shuffle
        work) or short-circuit whole recurrences.
    scan_sharing:
        Optional :class:`~repro.plan.SharedScanRegistry` enabling the
        multi-query shared-scan/shared-map optimizer (see
        ``docs/plan.md``). Queries whose plan prefixes (Scan → Map →
        Shuffle over a source) are IR-equal execute each pane's map
        phase once; later consumers absorb the memoized partitioned
        output and run only their own shuffle/pane-reduce. Off by
        default — the unshared path stays byte-identical to a build
        without the registry.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        enable_caching: bool = True,
        enable_output_cache: bool = True,
        adaptive: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        use_pane_headers: bool = True,
        tracer: Optional[Tracer] = None,
        cache_capacity_bytes: Optional[int] = None,
        eviction_policy: Optional[str] = None,
        backend: Optional[ExecBackend] = None,
        reuse_store=None,
        scan_sharing=None,
    ) -> None:
        # Every recurrence, phase, task, scheduler decision, and fault
        # lands on the tracer (see ``docs/observability.md``).
        super().__init__(
            cluster, "redoop-run", tracer=tracer, backend=backend, faults=fault_injector
        )
        self.counters = Counters()
        self.controller = WindowAwareCacheController()
        #: recurrence-scoped phase spans (``None`` outside a recurrence;
        #: proactive work emitted then parents to the run span).
        self._phase_spans: Optional[Dict[str, Span]] = None
        #: phase -> (min start, max end) of the task spans ``_emit_task``
        #: hung under that phase span; set and cleared with it.
        self._phase_envelopes: Optional[Dict[str, Tuple[float, float]]] = None
        #: Every task-list pop, Eq. 4 selection, and execution lands on
        #: ``self.tracer`` as a ``"sched"`` event — the audit trail proving
        #: the scheduler is real (read back with ``timeline.decisions``).
        self.scheduler = CacheAwareTaskScheduler(
            cluster, tracer=self.tracer, counters=self.counters
        )
        self.analyzer = SemanticAnalyzer(cluster.config)
        self.enable_caching = enable_caching
        self.enable_output_cache = enable_output_cache and enable_caching
        self.adaptive = adaptive
        self.use_pane_headers = use_pane_headers
        if cache_capacity_bytes is not None and cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive when set")
        self.cache_capacity_bytes = (
            cache_capacity_bytes
            if cache_capacity_bytes is not None
            else cluster.config.cache_capacity_bytes
        )
        self.eviction_policy = make_policy(
            eviction_policy or cluster.config.cache_eviction_policy
        )
        self._states: Dict[str, _QueryState] = {}
        self._registries: Dict[int, LocalCacheRegistry] = {}
        #: source -> the one packer shared by every query reading it.
        self._source_packers: Dict[str, DynamicDataPacker] = {}
        #: source -> {query name -> original WindowSpec} (for shared GCD).
        self._source_specs: Dict[str, Dict[str, WindowSpec]] = {}
        #: source -> best known arrival rate.
        self._source_rates: Dict[str, float] = {}
        #: job name -> job object (cache namespaces must be unambiguous).
        self._jobs_by_name: Dict[str, object] = {}
        #: job name -> sticky partition placements (shared across queries).
        self._job_partition_nodes: Dict[str, Dict[int, int]] = {}
        #: pids whose ready bit says HDFS_AVAILABLE: their map task is
        #: schedulable (Sec. 4.3 — fed by controller transitions).
        self._map_eligible: Set[str] = set()
        #: Caches published by the recurrence currently executing, as
        #: ``(node_id, pid, cache_type, partition)`` — ``None`` outside
        #: a recurrence. A degraded window rolls these back so partial
        #: results never leak into later recurrences.
        self._recurrence_cache_log: Optional[
            List[Tuple[int, str, int, int]]
        ] = None
        #: Reduce-input runs checksummed (by the pane probe) or written
        #: in the recurrence currently executing, as ``pid -> partition
        #: -> LocalFile``; ``None`` outside a recurrence. Later reads of
        #: a run that is still that file are served from here instead
        #: of hashing it again.
        self._verified_rins: Optional[Dict[str, Dict[int, LocalFile]]] = None
        #: Cross-query reuse store (None = tier disabled). Attached to
        #: this cluster's HDFS and this runtime's counters so its
        #: ``reuse.*`` activity lands beside the cache counters.
        self.reuse = reuse_store
        if reuse_store is not None:
            reuse_store.attach(cluster.hdfs, counters=self.counters)
        #: Shared-scan registry (None = optimizer disabled). Memoizes
        #: per-pane partitioned map output across IR-equal plan
        #: prefixes; probed/published in ``_process_pane`` and retired
        #: by watermark after every recurrence.
        self.scan_sharing = scan_sharing
        #: pane publications buffered during a recurrence; flushed only
        #: when the window completes un-degraded (a rolled-back window
        #: must never leave artifacts other queries could match).
        self._pending_publishes: List[Tuple] = []
        self.controller.add_ready_listener(self._on_ready_transition)

    def _on_ready_transition(self, pid: str, old: int, new: int) -> None:
        """Track the scheduler-facing consequence of a ready-bit change.

        ``-> HDFS_AVAILABLE`` (arrival, or cache-loss rollback) makes
        the pane's map task schedulable; ``-> CACHE_AVAILABLE`` retires
        it — reduce tasks reusing the cache become schedulable instead.
        """
        if new == HDFS_AVAILABLE:
            self._map_eligible.add(pid)
            self.counters.increment("sched.map_eligible_transitions")
        elif new == CACHE_AVAILABLE:
            self._map_eligible.discard(pid)

    def map_eligible(self) -> Set[str]:
        """Pids currently awaiting a map task (monitoring/testing)."""
        return set(self._map_eligible)

    # ==================================================================
    # registration and ingest
    # ==================================================================

    def register_query(
        self, query: RecurringQuery, rates: Mapping[str, float]
    ) -> None:
        """Register a recurring query with per-source arrival rates (B/s).

        Multiple queries may read the same source: the Semantic
        Analyzer re-plans the source's partitioning at the GCD of *all*
        registered window constraints (Sec. 3.1), so one set of pane
        files serves every query. Register all queries of a source
        before its data starts arriving — refining the pane size after
        ingest would invalidate existing pane files.
        """
        if query.name in self._states:
            raise ValueError(f"query {query.name!r} is already registered")
        missing = set(query.sources) - set(rates)
        if missing:
            raise ValueError(f"missing arrival rates for sources: {sorted(missing)}")
        known_job = self._jobs_by_name.get(query.job.name)
        if known_job is not None and known_job is not query.job:
            raise ValueError(
                f"a different job named {query.job.name!r} is already "
                "registered; share the job object to share caches, or "
                "rename the job"
            )

        # The logical-plan IR is the structural truth from here on: the
        # analyzer plans off its Scan nodes, the reuse fingerprinter
        # digests it, and the shared-scan optimizer matches its prefixes.
        ir = query.plan()
        for src in ir.sources:
            self._source_specs.setdefault(src, {})[query.name] = ir.window(src)
            self._source_rates[src] = max(
                self._source_rates.get(src, 0.0), rates[src]
            )
            self._refresh_source_packer(src)

        self._jobs_by_name[query.job.name] = query.job
        state = _QueryState(
            query=query,
            plans={
                src: self.analyzer.plan_pipeline(
                    ir.pipeline(src).with_window(
                        self._effective_spec(src, query)
                    ),
                    SourceStats(source=src, rate=self._source_rates[src]),
                )
                for src in ir.sources
            },
            packers={src: self._source_packers[src] for src in ir.sources},
            eff_specs={
                src: self._effective_spec(src, query) for src in ir.sources
            },
            profiler=ExecutionProfiler(),
            partition_nodes=self._job_partition_nodes.setdefault(
                query.job.name, {}
            ),
            ir=ir,
        )
        self._states[query.name] = state
        self.controller.register_query(
            query.name,
            {state.qsource(src): state.eff_specs[src] for src in query.sources},
        )
        # A finer shared pane may have invalidated the effective specs of
        # earlier queries on the same sources: refresh them.
        self._refresh_effective_specs(query.sources, except_query=query.name)
        # The default purge cycle is the minimum registered slide, which
        # this registration may have just lowered.
        self._refresh_purge_cycles()
        self._reuse_register(state)
        self._share_register(state)

    def _reuse_register(self, state: _QueryState) -> None:
        """Fingerprint a newly registered plan and probe the reuse store.

        Unfingerprintable plans (lambdas, closures) opt out silently —
        the query runs exactly as without a store. A plan whose
        fingerprints already have stored artifacts is recorded so the
        service layer can report the rewrite on submit.
        """
        if self.reuse is None:
            return
        from ..reuse.fingerprint import (
            FingerprintError,
            pane_fingerprint,
            plan_fingerprint,
        )

        query = state.query
        try:
            state.reuse_plan_fp = plan_fingerprint(query)
            state.reuse_pane_fps = {
                src: pane_fingerprint(query, src) for src in query.sources
            }
        except FingerprintError:
            state.reuse_plan_fp = None
            state.reuse_pane_fps = {}
            self.counters.increment("reuse.unfingerprintable")
            return
        fps = {state.reuse_plan_fp, *state.reuse_pane_fps.values()}
        state.reuse_match_count = self.reuse.count_matches(fps)
        if state.reuse_match_count:
            self.counters.increment("reuse.plans_matched")
            self.tracer.instant(
                "reuse.match",
                CAT_RUN,
                self.cluster.clock.now,
                parent=self._run_span,
                query=query.name,
                matches=state.reuse_match_count,
            )

    def reuse_matches(self, name: str) -> int:
        """Stored reuse artifacts that matched ``name`` at registration."""
        return self._state(name).reuse_match_count

    def _share_register(self, state: _QueryState) -> None:
        """Fingerprint a plan's map prefixes for shared-scan matching.

        Like reuse registration, unfingerprintable plans opt out
        silently — the query maps every pane itself, exactly as with
        the optimizer disabled.
        """
        if self.scan_sharing is None:
            return
        from ..plan import FingerprintError, prefix_fingerprint_ir

        ir = state.ir if state.ir is not None else state.query.plan()
        try:
            state.share_prefix_fps = {
                pipeline.source: prefix_fingerprint_ir(pipeline)
                for pipeline in ir.pipelines
            }
        except FingerprintError:
            state.share_prefix_fps = {}
            self.counters.increment("plan.unshareable")

    def shared_prefix_peers(self, name: str) -> Dict[str, List[str]]:
        """source -> other registered queries sharing ``name``'s prefix.

        Empty when sharing is disabled, the plan is unfingerprintable,
        or no co-registered tenant's Scan → Map → Shuffle prefix is
        IR-equal over a common source.
        """
        state = self._state(name)
        peers: Dict[str, List[str]] = {}
        for src, fp in state.share_prefix_fps.items():
            for other in self._states.values():
                if other is state:
                    continue
                if other.share_prefix_fps.get(src) == fp:
                    peers.setdefault(src, []).append(other.query.name)
        return {src: sorted(names) for src, names in peers.items()}

    def _shared_pane(self, source: str) -> float:
        from .semantic_analyzer import shared_pane_seconds

        return shared_pane_seconds(list(self._source_specs[source].values()))

    def _effective_spec(self, source: str, query: RecurringQuery) -> WindowSpec:
        return query.spec(source).with_pane(self._shared_pane(source))

    def _refresh_source_packer(self, source: str) -> None:
        """(Re)build the source's shared packer at the current GCD pane."""
        shared = self._shared_pane(source)
        packer = self._source_packers.get(source)
        if packer is not None:
            if abs(packer.pane_seconds - shared) < 1e-9:
                return
            if packer.covered_until > 0:
                raise ValueError(
                    f"source {source!r} already ingested data at pane size "
                    f"{packer.pane_seconds}s; registering a query that needs "
                    f"{shared}s panes would invalidate its pane files — "
                    "register all queries before ingest starts"
                )
        # Use any registered spec re-expressed over the shared pane: the
        # packer only needs the pane size.
        any_spec = next(iter(self._source_specs[source].values()))
        eff = any_spec.with_pane(shared)
        plan = self.analyzer.plan(
            eff, SourceStats(source=source, rate=self._source_rates[source])
        )
        self._source_packers[source] = DynamicDataPacker(
            self.cluster.hdfs,
            eff,
            plan,
            base_path="/panes",
            use_header=self.use_pane_headers,
        )

    def _refresh_effective_specs(
        self, sources: Sequence[str], *, except_query: str
    ) -> None:
        """Update earlier queries after a shared pane size changed."""
        for state in self._states.values():
            if state.query.name == except_query:
                continue
            changed = False
            for src in state.query.sources:
                if src not in sources:
                    continue
                eff = self._effective_spec(src, state.query)
                if eff is not state.eff_specs[src]:
                    state.eff_specs[src] = eff
                    state.packers[src] = self._source_packers[src]
                    changed = True
            if changed:
                # No data has been ingested (the packer refresh would
                # have failed otherwise), so the matrix is still empty
                # and can simply be rebuilt over the new pane size.
                self.controller.unregister_query(state.query.name)
                self.controller.register_query(
                    state.query.name,
                    {
                        state.qsource(src): state.eff_specs[src]
                        for src in state.query.sources
                    },
                )

    def deregister_query(self, name: str) -> None:
        """Remove a registered query and release everything it held.

        The reverse of :meth:`register_query`, safe between recurrences
        (a recurrence is atomic, so the scheduler's task lists are
        empty here). Four things happen:

        1. the controller drops the query's status matrix and flips its
           ``doneQueryMask`` bits; caches the query alone kept alive
           become purgeable and are reclaimed immediately;
        2. map-eligible panes of the query's job namespace are retired
           when no surviving query shares that job;
        3. each source the query read either resets completely (last
           reader gone: packer, specs, and rates are dropped so a later
           registration re-derives the pane size from scratch) or
           re-derives its shared GCD pane over the surviving queries —
           rebuilding the packer at the new (possibly coarser) pane
           when no data has been ingested yet, and keeping the existing
           finer pane otherwise (finer panes remain valid for every
           surviving window constraint);
        4. job-level bookkeeping (name registry, sticky partition
           placements) is dropped with the job's last query.
        """
        state = self._state(name)
        query = state.query
        del self._states[name]

        notifications = self.controller.unregister_query(name)
        self._apply_purge_notifications(notifications, purge_now=True)

        surviving_jobs = {s.query.job.name for s in self._states.values()}
        if query.job.name not in surviving_jobs:
            self._jobs_by_name.pop(query.job.name, None)
            self._job_partition_nodes.pop(query.job.name, None)
            prefix = f"{query.job.name}:"
            self._map_eligible = {
                pid for pid in self._map_eligible if not pid.startswith(prefix)
            }

        rebuilt_sources: List[str] = []
        for src in query.sources:
            specs = self._source_specs.get(src)
            if specs is None:
                continue
            specs.pop(name, None)
            if not specs:
                # Last reader gone: the source resets completely.
                del self._source_specs[src]
                self._source_packers.pop(src, None)
                self._source_rates.pop(src, None)
                continue
            packer = self._source_packers.get(src)
            shared = self._shared_pane(src)
            if packer is not None and abs(packer.pane_seconds - shared) > 1e-9:
                if packer.covered_until <= 0 and not packer.packed_panes():
                    self._refresh_source_packer(src)
                    rebuilt_sources.append(src)
                # else: data already packed at the finer pane — keep it;
                # it divides every surviving window constraint.
        if rebuilt_sources:
            self._refresh_effective_specs(rebuilt_sources, except_query=name)
        self._refresh_purge_cycles()
        if self.scan_sharing is not None:
            # Sources the departed tenant alone read lose their memoized
            # map output; shared sources re-derive their floors.
            self._retire_shared_maps()
        self.counters.increment("runtime.queries_deregistered")

    def catch_up_query(self, name: str) -> int:
        """Mark panes packed before ``name`` registered as arrived for it.

        :meth:`ingest` flips each reader's ready bit as panes seal, so a
        query registered *after* data started arriving never hears about
        the earlier panes — its status matrix would claim their data is
        absent even though the pane files sit in HDFS. Calling this
        right after a late registration replays those arrivals into the
        controller (the serving layer does this on every submit).
        Returns the number of pane arrivals replayed.
        """
        state = self._state(name)
        caught = 0
        for src in state.query.sources:
            packer = state.packers[src]
            for pane in packer.packed_panes():
                self.controller.pane_arrived(state.qpid(src, pane.index))
                caught += 1
        if caught:
            self.counters.increment("runtime.panes_caught_up", caught)
        return caught

    def _apply_purge_notifications(
        self, notifications: Sequence[Any], *, purge_now: bool = False
    ) -> None:
        """Expire cache entries named by the controller's notifications.

        With ``purge_now`` the registries sweep immediately (deregistration
        reclaims space right away) instead of waiting for the next
        periodic purge cycle.
        """
        pids_by_node: Dict[int, List[str]] = {}
        for notification in notifications:
            for node_id in notification.node_ids:
                pids_by_node.setdefault(node_id, []).append(notification.pid)
        for node_id, pids in pids_by_node.items():
            registry = self._registries.get(node_id)
            if registry is not None:
                registry.mark_expired(pids)
        if purge_now and notifications:
            purged_total = 0
            for registry in self._registries.values():
                purged_total += len(registry.on_demand_purge())
            if purged_total:
                self.counters.increment("cache.entries_purged", purged_total)

    def shared_pane(self, source: str) -> float:
        """The pane size (seconds) the source's data is materialised at.

        This is the GCD pane of all registered window constraints —
        except after query churn with already-ingested data, where the
        materialised pane may be finer than the surviving queries'
        ideal GCD (refining would invalidate existing pane files).
        """
        if source not in self._source_specs:
            raise ValueError(f"no registered query reads source {source!r}")
        packer = self._source_packers.get(source)
        if packer is not None:
            return packer.pane_seconds
        return self._shared_pane(source)

    def queries(self) -> List[str]:
        return sorted(self._states)

    def query(self, name: str) -> RecurringQuery:
        """The registered query object behind ``name``."""
        return self._state(name).query

    def next_recurrence(self, name: str) -> int:
        """The recurrence number ``name`` will execute next."""
        return self._state(name).next_recurrence

    def next_due(self, name: str) -> float:
        """When ``name``'s next recurrence becomes due (virtual seconds)."""
        state = self._state(name)
        return state.query.execution_time(state.next_recurrence)

    def data_complete(self, name: str) -> bool:
        """Has all data for ``name``'s next recurrence been ingested?"""
        return self._data_complete(self._state(name))

    def profiler(self, query: str) -> ExecutionProfiler:
        return self._state(query).profiler

    def run_due_recurrences(self, now: float) -> List[RecurrenceResult]:
        """Run every registered query's recurrences due by time ``now``.

        Executions are interleaved in due-time order across queries
        (ties by query name), which is how a deployed scheduler would
        fire them — and what keeps one query's long execution from
        unfairly inflating another's measured response time. Recurrences
        whose data has not fully arrived are skipped (they stay due).
        """
        results: List[RecurrenceResult] = []
        while True:
            candidates = []
            for name in sorted(self._states):
                state = self._states[name]
                due = state.query.execution_time(state.next_recurrence)
                if due <= now + 1e-9 and self._data_complete(state):
                    candidates.append((due, name))
            if not candidates:
                return results
            _due, name = min(candidates)
            results.append(self.run_recurrence(name))

    def _data_complete(self, state: _QueryState) -> bool:
        for src in state.query.sources:
            needed = state.query.spec(src).execution_time(state.next_recurrence)
            if state.packers[src].covered_until + 1e-9 < needed:
                return False
        return True

    def input_paths(
        self, query_name: str, recurrence: int
    ) -> Dict[str, List[str]]:
        """The recurrence's per-source pane files (Sec. 5 GetInputPaths).

        Returns the HDFS paths covering each source's window for the
        given recurrence — both newly arrived panes and panes whose
        data will actually be served from caches; panes not yet packed
        (data still arriving) are omitted. Several panes may share one
        physical file in the undersized case, hence the de-duplication.
        """
        state = self._state(query_name)
        paths: Dict[str, List[str]] = {}
        for src in state.query.sources:
            packer = state.packers[src]
            seen: List[str] = []
            for idx in state.spec(src).panes_in_window(recurrence):
                if packer.is_packed(idx):
                    path = packer.pane(idx).path
                    if path not in seen:
                        seen.append(path)
            paths[src] = seen
        return paths

    def ingest(self, batch: BatchFile, records: Sequence[Record]) -> None:
        """Load a batch: pack into panes for every query reading the source.

        In proactive mode, each batch's slice of a pane (a *sub-pane*)
        is mapped the moment it lands, and a pane's reduce-input caches
        are built the moment it seals — the best-effort early processing
        of Sec. 3.3. By window close, only the final sub-pane's work
        remains.
        """
        packer = self._source_packers.get(batch.source)
        readers = [
            state
            for state in self._states.values()
            if batch.source in state.query.windows
        ]
        if packer is None or not readers:
            raise ValueError(
                f"no registered query reads source {batch.source!r}"
            )
        # The source is packed exactly once, no matter how many queries
        # read it — that is the point of shared pane planning.
        packed = packer.ingest_batch(batch, records)
        batch_bytes = sum(r.size for r in records)
        for pane in packed:
            self.counters.increment("ingest.panes")
        for state in readers:
            state.bytes_ingested += batch_bytes
            proactive = state.proactive and self.enable_caching
            if proactive:
                self._proactive_map_chunks(state, batch, records)
            for pane in packed:
                self.controller.pane_arrived(
                    state.qpid(batch.source, pane.index)
                )
                if proactive:
                    self._proactive_seal_pane(state, batch.source, pane)

    def _proactive_map_chunks(
        self, state: _QueryState, batch: BatchFile, records: Sequence[Record]
    ) -> None:
        """Map a batch's per-pane record slices as they arrive."""
        spec = state.spec(batch.source)
        by_pane: Dict[int, List[Record]] = {}
        for record in records:
            by_pane.setdefault(spec.pane_of_time(record.ts), []).append(record)
        for idx in sorted(by_pane):
            pid = state.qpid(batch.source, idx)
            if self._pane_caches_intact(state, pid):
                continue  # pane already processed (recovery re-ingest)
            self._map_chunk(
                state,
                batch.source,
                idx,
                by_pane[idx],
                start=max(self.cluster.clock.now, batch.t_end),
            )

    def _map_chunk(
        self,
        state: _QueryState,
        source: str,
        idx: int,
        records: Sequence[Record],
        start: float,
    ) -> None:
        """Proactive map tasks over a sub-pane's records.

        The chunk is carved into block-sized map tasks (like any other
        input). The data is read off the arriving batch (not yet a
        replicated pane file), so reads are charged at remote rate —
        conservative, since the packer is still writing the pane.
        """
        job = state.query.job
        block = self.cluster.config.block_size
        partial = state.partials.setdefault((source, idx), _PartialMap())
        splits: List[List[Record]] = [[]]
        split_bytes = 0
        for record in records:
            if split_bytes >= block:
                splits.append([])
                split_bytes = 0
            splits[-1].append(record)
            split_bytes += record.size
        requests: List[MapTaskRequest] = []
        chunk_splits: List[List[Record]] = []
        for split in splits:
            if not split:
                continue
            request = MapTaskRequest(
                query=state.query.name,
                pid=state.qpid(source, idx),
                input_bytes=sum(r.size for r in split),
                locations=(),
            )
            requests.append(request)
            chunk_splits.append(split)
            self.scheduler.enqueue_map(request)
        # Run the pure map bodies through the execution backend in
        # construction order; the drain loop below still decides the
        # virtual-time schedule from the precomputed results.
        execs = self._run_backend(
            execute_map,
            [
                ((job, split), {"input_bytes": req.input_bytes})
                for req, split in zip(requests, chunk_splits)
            ],
            phase="map",
            counters=self.counters,
            now=start,
            task_key=f"{state.query.name}/exec-map",
        )
        contexts = {id(req): ex for req, ex in zip(requests, execs)}
        for request, ex in self._drain_maps(contexts):
            nbytes = request.input_bytes
            node = self.scheduler.select_map_node(request, start)
            duration = self.cluster.cost_model.map_task_duration(
                nbytes, ex.input_records, ex.output_bytes, data_local=False
            )
            finish = node.occupy_slot(MAP_SLOT, start, duration)
            self._record_execute(MAP_SLOT, request, node, start)
            self._emit_task(
                "map",
                f"map/{request.pid}#c{partial.chunks}",
                finish - duration / node.speed,
                finish,
                node.node_id,
                slot="map",
                bytes=nbytes,
                proactive=True,
            )
            partial.absorb(ex.partitioned)
            partial.records_mapped += ex.input_records
            partial.bytes_mapped += nbytes
            partial.map_finish = max(partial.map_finish, finish)
            partial.chunks += 1
            self.counters.increment("proactive.chunk_maps")
            self.counters.increment("map.input_bytes", nbytes)

    def _proactive_seal_pane(self, state: _QueryState, source: str, pane) -> None:
        """A pane sealed during proactive mode: build its caches now."""
        partial = state.partials.get((source, pane.index))
        start = max(self.cluster.clock.now, pane.available_at)
        if partial is not None and partial.records_mapped >= pane.num_records:
            # Every record was chunk-mapped; go straight to pane-reduce.
            state.partials.pop((source, pane.index))
            self._pane_reduce(
                state,
                source,
                pane.index,
                partial.partitioned,
                partial.map_finish,
                self.counters,
            )
        else:
            # Mode switched on mid-pane: map the whole pane file instead.
            state.partials.pop((source, pane.index), None)
            self._process_pane(state, source, pane.index, start, self.counters)

    # ==================================================================
    # recurrence execution
    # ==================================================================

    def run_recurrence(
        self, query_name: str, recurrence: Optional[int] = None
    ) -> RecurrenceResult:
        """Execute one recurrence of ``query_name`` and advance the clock."""
        state = self._state(query_name)
        query = state.query
        if recurrence is None:
            recurrence = state.next_recurrence
        if recurrence != state.next_recurrence:
            raise ValueError(
                f"recurrence {recurrence} out of order; expected "
                f"{state.next_recurrence}"
            )
        counters = Counters()
        due = query.execution_time(recurrence)
        self._require_data(state, recurrence)
        for packer in state.packers.values():
            packer.flush()
        start = max(self.cluster.clock.now, due)
        t0 = start + self.cluster.config.job_overhead

        rec_span = self.tracer.begin(
            f"{query.name}@w{recurrence}",
            CAT_RECURRENCE,
            due,
            parent=self._run_span,
            window=recurrence,
            query=query.name,
            due=due,
        )
        self._phase_spans = {
            name: self.tracer.begin(name, CAT_PHASE, t0, parent=rec_span)
            for name in PHASE_NAMES
        }
        self._phase_envelopes = {}
        degraded = False
        self._recurrence_cache_log = []
        self._verified_rins = {}
        try:
            # ----- cross-query window short-circuit ---------------------
            reused = (
                self._try_reuse_window(state, recurrence, t0, counters)
                if self.reuse is not None and self.enable_caching
                else None
            )
            if reused is not None:
                outputs, finish = reused
                self.cluster.clock.advance_to(finish)
                phases = PhaseTimes(
                    map=0.0, shuffle=0.0, reduce=max(0.0, finish - t0)
                )
                self._close_phase_spans(t0, t0, t0, t0, finish)
            else:
                # ----- map + pane-reduce for panes lacking caches ------
                map_finishes: List[float] = []
                for source in query.sources:
                    for idx in state.spec(source).panes_in_window(recurrence):
                        work = self._ensure_pane_processed(
                            state, source, idx, t0, counters
                        )
                        if work is not None and work.map_finish > t0:
                            map_finishes.append(work.map_finish)

                maps_done = max(map_finishes, default=t0)
                first_map_done = min(map_finishes, default=t0)

                # ----- combine phase (joins + finalize merge) -----------
                if query.num_sources == 1:
                    outputs, finish = self._combine_aggregation(
                        state, recurrence, t0, counters
                    )
                else:
                    outputs, finish = self._combine_join(
                        state, recurrence, t0, counters
                    )

                finish = max(finish, maps_done, t0)
                self.cluster.clock.advance_to(finish)

                # pane-reduce finish spans double as the shuffle boundary.
                shuffle_done = max(
                    (
                        f
                        for work in state.pane_work.values()
                        for f in work.reduce_finish.values()
                        if f > t0
                    ),
                    default=maps_done,
                )
                shuffle_done = min(max(shuffle_done, maps_done), finish)
                phases = PhaseTimes(
                    map=max(0.0, maps_done - t0),
                    shuffle=max(0.0, shuffle_done - max(first_map_done, t0)),
                    reduce=max(0.0, finish - shuffle_done),
                )

                self._close_phase_spans(
                    t0, maps_done, first_map_done, shuffle_done, finish
                )
        except TaskAttemptsExhaustedError as exc:
            # Graceful degradation: a task burned every attempt. Plain
            # Hadoop fails the job; Redoop abandons only this window —
            # roll back its published caches, flush its pending tasks,
            # record the degradation, and let later recurrences proceed.
            degraded = True
            finish = max(self.cluster.clock.now, t0)
            outputs = {}
            phases = PhaseTimes(map=0.0, shuffle=0.0, reduce=0.0)
            self._degrade_recurrence(state, recurrence, exc, counters, finish)
        finally:
            self._phase_spans = None
            self._phase_envelopes = None
            self._recurrence_cache_log = None
            self._verified_rins = None
        if self.reuse is not None:
            self._flush_pane_publishes(degraded)
        self._end_job_span(rec_span, finish, due, phases, counters, degraded=degraded)

        output_pairs = [pair for _p, pairs in sorted(outputs.items()) for pair in pairs]
        path = query.output_path(recurrence)
        if self.cluster.hdfs.exists(path):
            self.cluster.hdfs.delete(path)
        self._write_output(path, output_pairs, query.job.output_pair_size, finish)
        if self.reuse is not None and not degraded:
            self._reuse_publish_window(state, recurrence, output_pairs, finish)

        # ----- post-execution bookkeeping -------------------------------
        result = RecurrenceResult(
            query=query.name,
            recurrence=recurrence,
            window_bounds=query.window_bounds(recurrence),
            due_time=due,
            start_time=start,
            finish_time=finish,
            phase_times=phases,
            output=output_pairs,
            counters=counters,
            degraded=degraded,
        )
        self._after_recurrence(state, result)
        state.next_recurrence = recurrence + 1
        return result

    def _degrade_recurrence(
        self,
        state: _QueryState,
        recurrence: int,
        exc: TaskAttemptsExhaustedError,
        counters: Counters,
        finish: float,
    ) -> None:
        """Abandon the current window after attempt exhaustion.

        Sec. 5's rollback, applied to a *window* instead of a cache:
        every cache the doomed recurrence published is discarded (their
        pids roll back to HDFS-available, so the next window re-maps
        them from the pane files that still sit safely in HDFS), the
        scheduler's task lists are flushed, and the pane bookkeeping is
        reset so nothing half-finished is mistaken for done.
        """
        logged = self._recurrence_cache_log or []
        for node_id, pid, ctype, part in dict.fromkeys(logged):
            self.discard_cache(
                node_id, pid, ctype, part, reason="degraded", at=finish
            )
        aborted = self.scheduler.abort_pending(query=state.query.name)
        # Half-processed panes must be re-examined from scratch next
        # window; their HDFS pane files are intact.
        state.pane_work.clear()
        # _process_pane retires a pid from the map-eligible set before
        # mapping it; if the exhaustion struck before the pane's caches
        # were published, the ready bit still says HDFS_AVAILABLE and
        # the pid must become eligible again.
        for pid, ready in self.controller.ready_states():
            if ready == HDFS_AVAILABLE:
                self._map_eligible.add(pid)
        counters.increment("faults.windows_degraded")
        self.counters.increment("faults.windows_degraded")
        self.tracer.instant(
            "window.degraded",
            CAT_FAULT,
            time=finish,
            query=state.query.name,
            window=recurrence,
            task=exc.task_key,
            node_id=exc.node_id,
            caches_rolled_back=len(set(logged)),
            tasks_aborted=aborted,
        )
        if self._phase_spans is not None:
            for span in self._phase_spans.values():
                self.tracer.end(span, max(finish, span.start), degraded=True)

    # ------------------------------------------------------------------
    # task-list draining: the only path from a request to a slot
    # ------------------------------------------------------------------
    #
    # Each execution phase enqueues *all* of its task requests, then
    # drains the scheduler's list and executes exactly the request each
    # pop returns — map tasks FIFO, reduce tasks in Algorithm 2's
    # cache-coverage order. Contexts are keyed by request identity, so
    # the executed object is provably the popped one (the trace records
    # both sides).

    def _drain_maps(
        self, contexts: Dict[int, Any]
    ) -> Iterator[Tuple[MapTaskRequest, Any]]:
        while contexts:
            request = self.scheduler.next_map()
            if request is None or id(request) not in contexts:
                raise RuntimeError(
                    "map task list out of sync: popped "
                    f"{request!r} without an execution context — tasks "
                    "must be executed exactly as dequeued"
                )
            yield request, contexts.pop(id(request))

    def _drain_reduces(
        self, contexts: Dict[int, Any]
    ) -> Iterator[Tuple[ReduceTaskRequest, Any]]:
        while contexts:
            request = self.scheduler.next_reduce()
            if request is None or id(request) not in contexts:
                raise RuntimeError(
                    "reduce task list out of sync: popped "
                    f"{request!r} without an execution context — tasks "
                    "must be executed exactly as dequeued"
                )
            yield request, contexts.pop(id(request))

    def _emit_task(
        self,
        phase: str,
        name: str,
        start: float,
        finish: float,
        node_id: int,
        **attrs: Any,
    ) -> None:
        """Record one task span under the current recurrence's ``phase``.

        Outside a recurrence (proactive chunk maps, pane seals during
        ingest) the span parents to the run span directly.
        """
        parent: Span = self._run_span
        end = max(finish, start)
        if self._phase_spans is not None and phase in self._phase_spans:
            parent = self._phase_spans[phase]
            lo, hi = self._phase_envelopes.get(phase, (start, end))
            self._phase_envelopes[phase] = (min(lo, start), max(hi, end))
        self.tracer.span(
            name,
            CAT_TASK,
            start,
            end,
            parent=parent,
            node_id=node_id,
            **attrs,
        )

    def _close_phase_spans(
        self,
        t0: float,
        maps_done: float,
        first_map_done: float,
        shuffle_done: float,
        finish: float,
    ) -> None:
        """Pin the recurrence's phase spans to their computed boundaries.

        Map and shuffle take the same boundaries ``PhaseTimes`` reports;
        pane-reduce and combine tighten to the envelope of their task
        children, as ``_emit_task`` recorded it (zero-length at their
        nominal boundary when the window was fully served from cache and
        no task ran).
        """
        spans = self._phase_spans
        assert spans is not None
        spans["map"].start = t0
        self.tracer.end(spans["map"], max(maps_done, t0))
        shuffle_start = max(first_map_done, t0)
        spans["shuffle"].start = shuffle_start
        self.tracer.end(spans["shuffle"], max(shuffle_done, shuffle_start))
        for name, fallback in (
            ("pane-reduce", maps_done),
            ("combine", shuffle_done),
        ):
            span = spans[name]
            lo, hi = self._phase_envelopes.get(name, (fallback, fallback))
            span.start = lo
            self.tracer.end(span, max(hi, lo))
        spans["post"].start = finish
        self.tracer.end(spans["post"], finish)

    def _record_execute(
        self, kind: str, request: Any, node: TaskNode, start: float
    ) -> None:
        record_decision(
            self.tracer,
            SchedulingDecision(
                event="execute",
                kind=kind,
                task=request.task_id,
                request=request,
                node_id=node.node_id,
                time=start,
            )
        )

    # ------------------------------------------------------------------
    # pane processing: map + shuffle + reduce-input cache (+ agg rout)
    # ------------------------------------------------------------------

    def _ensure_pane_processed(
        self,
        state: _QueryState,
        source: str,
        idx: int,
        start: float,
        counters: Counters,
    ) -> Optional[_PaneWork]:
        """Process a pane unless valid caches already exist.

        Returns the pane's work record when (re)processed during this
        call window, or ``None`` when fully served from cache. Complete
        proactive partials (all sub-panes chunk-mapped before the
        window closed) skip the map and go straight to pane-reduce.
        """
        pid = state.qpid(source, idx)
        if self.enable_caching and self._pane_caches_intact(state, pid):
            counters.increment("cache.pane_hits")
            return None
        if (
            self.enable_caching
            and self.reuse is not None
            and self._try_seed_pane(state, source, idx, start, counters)
        ):
            return None
        partial = state.partials.pop((source, idx), None)
        if partial is not None:
            packer = state.packers[source]
            if (
                packer.is_packed(idx)
                and partial.records_mapped >= packer.pane(idx).num_records
            ):
                counters.increment("proactive.panes_prebuilt")
                return self._pane_reduce(
                    state,
                    source,
                    idx,
                    partial.partitioned,
                    max(partial.map_finish, start),
                    counters,
                )
            # Incomplete partial (mode flapped mid-pane): discard and
            # reprocess the whole pane file below.
        return self._process_pane(state, source, idx, start, counters)

    def _pane_caches_intact(self, state: _QueryState, pid: str) -> bool:
        """Are the pane's reduce-input caches live — and uncorrupted —
        on every partition?

        The integrity probe means a pane whose cache was tampered with
        between windows simply reads as uncached: the planner re-maps
        it from HDFS instead of feeding poisoned input to the window,
        and the live run that failed its digest counts as a detected
        corruption. Inside a recurrence the probe keeps each payload it
        verified in ``_verified_rins``, so the combine phase reads it
        unhashed.
        """
        if self.controller.pane_ready(pid) != CACHE_AVAILABLE:
            return False
        runs: Dict[int, LocalFile] = {}
        for partition in range(state.query.job.num_reducers):
            node_id = self.controller.placement(pid, REDUCE_INPUT, partition)
            if node_id is None:
                return False
            registry = self._registries.get(node_id)
            lf = None if registry is None else registry.verify(
                pid, REDUCE_INPUT, partition
            )
            if lf is None:
                if registry is not None and registry.has(pid, REDUCE_INPUT, partition):
                    self.counters.increment("cache.corruptions_detected")
                return False
            runs[partition] = lf
        if self._verified_rins is not None:
            self._verified_rins[pid] = runs
        return True

    def _process_pane(
        self,
        state: _QueryState,
        source: str,
        idx: int,
        start: float,
        counters: Counters,
    ) -> _PaneWork:
        """Map one pane and build its per-partition reduce-input caches.

        Oversize panes (one pane per file, possibly many HDFS blocks)
        split into one map task per block, exactly like a plain Hadoop
        job. Undersized panes (several panes per shared file) are read
        through the pane header as a single map task.
        """
        query = state.query
        job = query.job
        packer = state.packers[source]
        pid = state.qpid(source, idx)
        path = packer.pane(idx).path

        # Shared-scan fast path: an IR-equal prefix already mapped this
        # pane — absorb its partitioned output instead of re-scanning.
        prefix_fp = (
            state.share_prefix_fps.get(source)
            if self.scan_sharing is not None
            else None
        )
        if prefix_fp is not None:
            entry = self.scan_sharing.lookup(prefix_fp, source, idx)
            if entry is not None:
                return self._absorb_shared_map(
                    state, source, idx, entry, start, counters
                )

        # Build the pane's map sub-tasks: (records, bytes, locations).
        if packer.is_shared(idx):
            records, charged_bytes = packer.read_pane(idx)
            locations = tuple(sorted(self.cluster.hdfs.nodes_for(path)))
            subtasks = [(records, charged_bytes, locations)]
        else:
            subtasks = [
                (split.records, split.size, split.locations)
                for split in self.cluster.hdfs.splits(path)
            ]

        # The pane's ready bit said HDFS_AVAILABLE (arrival, or a cache-
        # loss rollback): enqueue every map sub-task, then drain the
        # list FIFO (Algorithm 2 lines 6-12) and execute the popped
        # requests — the queue, not the construction order, decides.
        self._map_eligible.discard(pid)
        requests: List[MapTaskRequest] = []
        for records, charged_bytes, locations in subtasks:
            request = MapTaskRequest(
                query=query.name,
                pid=pid,
                input_bytes=charged_bytes,
                locations=tuple(locations),
            )
            requests.append(request)
            self.scheduler.enqueue_map(request)
        # Pure map bodies run through the backend first (construction
        # order); the FIFO drain then schedules the precomputed results.
        execs = self._run_backend(
            execute_map,
            [
                ((job, records), {"input_bytes": charged_bytes})
                for records, charged_bytes, _locs in subtasks
            ],
            phase="map",
            counters=self.counters,
            now=start,
            task_key=f"{query.name}/exec-map",
            job_counters=counters,
        )
        contexts: Dict[int, Tuple[int, object]] = {
            id(req): (task_no, ex)
            for task_no, (req, ex) in enumerate(zip(requests, execs))
        }

        map_finish = start
        partitioned: Dict[int, List[KeyValue]] = {}
        pane_records = 0
        pane_input_bytes = 0
        pane_output_bytes = 0
        for request, (task_no, ex) in self._drain_maps(contexts):
            node = self.scheduler.select_map_node(request, start)
            data_local = node.node_id in request.locations
            duration = self.cluster.cost_model.map_task_duration(
                request.input_bytes,
                ex.input_records,
                ex.output_bytes,
                data_local=data_local,
            )
            duration, task_finish = self._charge(
                f"{query.name}/map/{pid}#{task_no}",
                node, MAP_SLOT, start, duration, counters,
            )
            map_finish = max(map_finish, task_finish)
            self._record_execute(MAP_SLOT, request, node, start)
            self._emit_task(
                "map",
                f"map/{pid}#{task_no}",
                task_finish - duration / node.speed,
                task_finish,
                node.node_id,
                slot="map",
                bytes=request.input_bytes,
                data_local=data_local,
            )
            for partition, pairs in ex.partitioned.items():
                partitioned.setdefault(partition, []).extend(pairs)
            pane_records += ex.input_records
            pane_input_bytes += request.input_bytes
            pane_output_bytes += ex.output_bytes
            counters.increment("map.tasks")
            counters.increment("map.input_bytes", request.input_bytes)
            counters.increment("map.output_bytes", ex.output_bytes)

        if prefix_fp is not None:
            # Publish the pane's partitioned map output so IR-equal
            # consumers can skip their map phase. Map output is a pure
            # function of the shared pane files, so the entry needs no
            # rollback even if this window later degrades.
            self.scan_sharing.publish(
                prefix_fp,
                source,
                idx,
                partitioned,
                input_records=pane_records,
                input_bytes=pane_input_bytes,
                output_bytes=pane_output_bytes,
                producer=query.name,
            )
            for bag in (
                (counters,)
                if counters is self.counters
                else (counters, self.counters)
            ):
                bag.increment("plan.map_outputs_published")

        counters.increment("panes.processed")
        return self._pane_reduce(
            state, source, idx, partitioned, map_finish, counters
        )

    def _absorb_shared_map(
        self,
        state: _QueryState,
        source: str,
        idx: int,
        entry,
        start: float,
        counters: Counters,
    ) -> _PaneWork:
        """Fan a memoized IR-equal map output into this query's shuffle.

        The map phase is skipped entirely: the entry was produced from
        the same shared GCD pane files by a prefix-equal pipeline, so
        its partitioned pairs are byte-identical to what a local map
        would emit (the shared-scan differential oracle pins this). The
        hand-off is an in-memory fan-out — no map slot is occupied and
        the pane's shuffle starts at ``start``; the consumer still runs
        its own pane-reduce and builds its own caches.
        """
        query = state.query
        pid = state.qpid(source, idx)
        self._map_eligible.discard(pid)
        partitioned = entry.copy_partitioned()
        for bag in (
            (counters,)
            if counters is self.counters
            else (counters, self.counters)
        ):
            bag.increment("plan.shared_scans")
            bag.increment("plan.shared_map_bytes_saved", entry.input_bytes)
        self.tracer.instant(
            "plan.shared-map",
            CAT_RUN,
            start,
            parent=self._run_span,
            query=query.name,
            source=source,
            pane=idx,
            producer=entry.producer,
            bytes_saved=entry.input_bytes,
        )
        counters.increment("panes.processed")
        return self._pane_reduce(
            state, source, idx, partitioned, start, counters
        )

    def _pane_reduce(
        self,
        state: _QueryState,
        source: str,
        idx: int,
        partitioned: Mapping[int, List[KeyValue]],
        map_finish: float,
        counters: Counters,
    ) -> _PaneWork:
        """Shuffle, sort, and cache one pane's reduce input per partition.

        For aggregation queries this additionally reduces the pane and
        writes its reduce-output cache (the pane partial the combine
        phase merges).
        """
        query = state.query
        job = query.job
        pid = state.qpid(source, idx)
        work = _PaneWork(map_finish=map_finish)
        state.pane_work[(source, idx)] = work

        aggregation = query.num_sources == 1
        pane_inputs = [
            partitioned.get(partition, [])
            for partition in range(job.num_reducers)
        ]
        # Sort (and, for aggregations, pane-reduce) every partition's
        # pairs through the execution backend up front; the drained
        # requests below consume the precomputed results in whatever
        # order Algorithm 2 dictates.
        prepared = self._run_backend(
            execute_pane_reduce,
            [((job, pairs), {"aggregate": aggregation}) for pairs in pane_inputs],
            phase="pane-reduce",
            counters=self.counters,
            now=map_finish,
            task_key=f"{query.name}/exec-pane-reduce",
            job_counters=counters,
        )
        contexts: Dict[int, Tuple[List[KeyValue], Optional[List[KeyValue]]]] = {}
        for partition in range(job.num_reducers):
            pairs = pane_inputs[partition]
            request = ReduceTaskRequest(
                query=query.name,
                panes=((state.qsource(source), idx),),
                partition=partition,
                input_bytes=len(pairs) * job.intermediate_pair_size,
            )
            contexts[id(request)] = prepared[partition]
            self.scheduler.enqueue_reduce(request)
        for request, (sorted_pairs, rout_pairs) in self._drain_reduces(contexts):
            partition = request.partition
            fetch_bytes = request.input_bytes
            target = self._reduce_target(state, request, map_finish)
            transfer = self.cluster.cost_model.shuffle_fetch_duration(fetch_bytes)
            rin_bytes = fetch_bytes
            duration = (
                self.cluster.config.task_overhead
                + self.cluster.cost_model.sort_time(len(sorted_pairs))
            )
            if self.enable_caching:
                duration += self.cluster.cost_model.cache_write_time(rin_bytes)
            if aggregation and rout_pairs is not None:
                rout_bytes = len(rout_pairs) * job.output_pair_size
                duration += self.cluster.cost_model.reduce_compute_time(
                    len(sorted_pairs)
                )
                if self.enable_output_cache:
                    duration += self.cluster.cost_model.cache_write_time(rout_bytes)
            duration, finish = self._charge(
                f"{query.name}/pane-reduce/{pid}/{partition}",
                target, REDUCE_SLOT, map_finish + transfer, duration, counters,
            )
            self._record_execute(REDUCE_SLOT, request, target, map_finish + transfer)
            if transfer > 0:
                self._emit_task(
                    "shuffle",
                    f"shuffle/{pid}/p{partition}",
                    map_finish,
                    map_finish + transfer,
                    target.node_id,
                    slot="net",
                    bytes=fetch_bytes,
                )
            self._emit_task(
                "pane-reduce",
                f"pane-reduce/{pid}/p{partition}",
                finish - duration / target.speed,
                finish,
                target.node_id,
                slot="reduce",
                bytes=fetch_bytes,
            )
            work.reduce_finish[partition] = finish
            counters.increment("shuffle.bytes", fetch_bytes)
            if self.enable_caching:
                self._store_cache(
                    state, target.node_id, pid, REDUCE_INPUT, partition,
                    sorted_pairs, rin_bytes, finish,
                )
            else:
                # Without caching the shuffled run lives only for this
                # recurrence; stash it unregistered so the combine phase
                # can read it, then drop it afterwards.
                target.store_local(
                    f"tmp/{query.name}/{pid}/p{partition}",
                    rin_bytes,
                    sorted_pairs,
                    created_at=finish,
                )
            if aggregation and rout_pairs is not None and self.enable_output_cache:
                self._store_cache(
                    state, target.node_id, pid, REDUCE_OUTPUT, partition,
                    rout_pairs,
                    len(rout_pairs) * job.output_pair_size,
                    finish,
                )
        if self.reuse is not None:
            routs_payload = None
            if aggregation and all(p[1] is not None for p in prepared):
                routs_payload = [list(p[1]) for p in prepared]
            record = (
                query.name,
                source,
                idx,
                [list(p[0]) for p in prepared],
                routs_payload,
                max([map_finish, *work.reduce_finish.values()]),
            )
            if self._recurrence_cache_log is not None:
                # Publication waits for the window to finish un-degraded.
                self._pending_publishes.append(record)
            else:
                # Proactive seal outside a recurrence: publish now.
                self._reuse_publish_pane(*record)
        return work

    @staticmethod
    def _reduce_group(job, sorted_pairs: Sequence[KeyValue]) -> List[KeyValue]:
        out: List[KeyValue] = []
        for key, values in group_sorted(sorted_pairs):
            out.extend(job.reducer(key, values))
        return out

    def _reduce_target(
        self, state: _QueryState, request: ReduceTaskRequest, now: float
    ) -> TaskNode:
        """Sticky reduce-node choice for a partition (Eq. 4 on first use).

        The selection runs on the *actual* dequeued pane-reduce request
        — no phantom placeholder requests, which would be invisible to
        ``drop_reduce_tasks_using`` during failure recovery and would
        rank as "fully cached" despite carrying no input. Later
        requests of the same partition reuse the chosen node while it
        lives, co-locating the partition's caches.
        """
        node_id = state.partition_nodes.get(request.partition)
        if node_id is not None:
            node = self.cluster.node(node_id)
            if node.alive and not self.scheduler.is_blacklisted(node_id, now):
                self.counters.increment("sched.sticky_reuses")
                return node
        node = self.scheduler.select_reduce_node(request, now)
        state.partition_nodes[request.partition] = node.node_id
        return node

    # ------------------------------------------------------------------
    # combine phase: aggregation
    # ------------------------------------------------------------------

    def _combine_aggregation(
        self,
        state: _QueryState,
        recurrence: int,
        t0: float,
        counters: Counters,
    ) -> Tuple[Dict[int, List[KeyValue]], float]:
        query = state.query
        job = query.job
        source = query.sources[0]
        spec = state.spec(source)
        window_panes = spec.panes_in_window(recurrence)
        matrix = self.controller.matrix(query.name)
        finish_all = t0

        # Gather every partition's cached pane partials, enqueue one
        # merge task per partition, then drain the reduce task list:
        # Algorithm 2 dictates the order (fully cached partitions run
        # before partially cached before uncached) and the dequeued
        # request is the one executed.
        outputs: Dict[int, List[KeyValue]] = {}
        contexts: Dict[int, Tuple[List[Tuple[int, List[KeyValue]]], Dict[int, int], float]] = {}
        finalize_inputs: List[List[List[KeyValue]]] = []
        panes = tuple((state.qsource(source), i) for i in window_panes)
        for partition in range(job.num_reducers):
            partials: List[Tuple[int, List[KeyValue]]] = []
            cached_by_node: Dict[int, int] = {}
            ready_at = t0
            total_bytes = 0
            for idx in window_panes:
                pairs, nbytes, node_id = self._pane_partial_output(
                    state, source, idx, partition, counters
                )
                partials.append((idx, pairs))
                total_bytes += nbytes
                if node_id is not None:
                    cached_by_node[node_id] = cached_by_node.get(node_id, 0) + nbytes
                work = state.pane_work.get((source, idx))
                if work is not None and partition in work.reduce_finish:
                    ready_at = max(ready_at, work.reduce_finish[partition])
            request = ReduceTaskRequest(
                query=query.name,
                panes=panes,
                partition=partition,
                input_bytes=total_bytes,
                cached_bytes_by_node=tuple(sorted(cached_by_node.items())),
            )
            contexts[id(request)] = (partials, cached_by_node, ready_at)
            finalize_inputs.append([p for _i, p in partials])
            self.scheduler.enqueue_reduce(request)

        # The gather loop above touches caches (hits, rebuilds, stores)
        # and must stay sequential; the pure merge-finalize bodies batch
        # through the backend here, one task per partition.
        merged_by_partition = dict(
            enumerate(
                self._run_backend(
                    execute_finalize,
                    [
                        ((query.finalize, partials), {})
                        for partials in finalize_inputs
                    ],
                    phase="merge",
                    counters=self.counters,
                    now=t0,
                    task_key=f"{query.name}/exec-merge",
                    job_counters=counters,
                )
            )
        )

        for request, (partials, cached_by_node, ready_at) in self._drain_reduces(
            contexts
        ):
            partition = request.partition
            total_bytes = request.input_bytes
            node = self.scheduler.select_reduce_node(request, ready_at)
            local_bytes = min(cached_by_node.get(node.node_id, 0), total_bytes)
            merged = merged_by_partition[partition]
            out_bytes = len(merged) * job.output_pair_size
            total_partial_records = sum(len(p) for _i, p in partials)
            duration = (
                self.cluster.config.task_overhead
                + self.cluster.cost_model.task_io_cost(
                    total_bytes, bytes_local=local_bytes
                )
                + self.cluster.cost_model.reduce_compute_time(total_partial_records)
                + self.cluster.cost_model.hdfs_write_time(out_bytes)
            )
            duration, finish = self._charge(
                f"{query.name}/merge/w{recurrence}/{partition}",
                node, REDUCE_SLOT, ready_at, duration, counters,
            )
            self._record_execute(REDUCE_SLOT, request, node, ready_at)
            self._emit_task(
                "combine",
                f"merge/w{recurrence}/p{partition}",
                finish - duration / node.speed,
                finish,
                node.node_id,
                slot="reduce",
                bytes=total_bytes,
                cached_local_bytes=local_bytes,
                cache_rank=CacheAwareTaskScheduler._cache_rank(request),
            )
            finish_all = max(finish_all, finish)
            outputs[partition] = merged
            counters.increment("merge.tasks")
            counters.increment("merge.cached_bytes_read", total_bytes)
            counters.increment("reduce.output_bytes", out_bytes)
        for idx in window_panes:
            matrix.mark_done({state.qsource(source): idx})
        return outputs, finish_all

    def _pane_partial_output(
        self,
        state: _QueryState,
        source: str,
        idx: int,
        partition: int,
        counters: Counters,
    ) -> Tuple[List[KeyValue], int, Optional[int]]:
        """Fetch (or rebuild) one pane's partial reduce output.

        Returns ``(pairs, bytes, hosting_node_or_None)``. Falls back to
        re-reducing from the reduce-input cache when the output cache is
        missing (cache-failure recovery) and to the unregistered
        temporary run when caching is disabled.
        """
        query = state.query
        job = query.job
        pid = state.qpid(source, idx)
        if self.enable_output_cache:
            cached = self._read_cache_verified(pid, REDUCE_OUTPUT, partition)
            if cached is not None:
                payload, nbytes, node_id = cached
                counters.increment("cache.rout_hits")
                return payload, nbytes, node_id
        # Rebuild from the reduce-input cache.
        cached = self._read_cache_verified(pid, REDUCE_INPUT, partition)
        if cached is not None:
            payload, nbytes, node_id = cached
            counters.increment("cache.rin_rebuilds")
            pairs = self._reduce_group(job, payload)
            if self.enable_output_cache:
                self._store_cache(
                    state, node_id, pid, REDUCE_OUTPUT, partition, pairs,
                    len(pairs) * job.output_pair_size,
                    self.cluster.clock.now,
                )
            return pairs, nbytes, node_id
        # Caching disabled: read the temporary shuffled run.
        for node in self.cluster.live_nodes():
            name = f"tmp/{query.name}/{pid}/p{partition}"
            if node.has_local(name):
                lf = node.read_local(name)
                pairs = self._reduce_group(job, lf.payload)
                return pairs, lf.size, node.node_id
        raise RuntimeError(
            f"pane {pid} partition {partition} has neither cache nor fresh "
            "data; was the pane processed?"
        )

    # ------------------------------------------------------------------
    # combine phase: multi-source join
    # ------------------------------------------------------------------

    def _combine_join(
        self,
        state: _QueryState,
        recurrence: int,
        t0: float,
        counters: Counters,
    ) -> Tuple[Dict[int, List[KeyValue]], float]:
        query = state.query
        job = query.job
        matrix = self.controller.matrix(query.name)
        sources = query.sources
        window_panes = {
            src: state.spec(src).panes_in_window(recurrence) for src in sources
        }
        finish_all = t0

        # Keys every partition shares, built once per window: the
        # request's panes (one tuple for all its requests), their pids,
        # the pane work records, and each combination's pair pid with
        # its reduce-input pids in source order.
        panes = tuple(
            (state.qsource(src), idx)
            for src in sources
            for idx in window_panes[src]
        )
        pane_pids = [pane_name(qsrc, idx) for qsrc, idx in panes]
        works = [
            state.pane_work[(src, idx)]
            for src in sources
            for idx in window_panes[src]
            if (src, idx) in state.pane_work
        ]
        combos = [
            (
                combo,
                pair_pid({state.qsource(src): i for src, i in combo.items()}),
                [state.qpid(src, combo[src]) for src in sorted(combo)],
            )
            for combo in self._window_combinations(window_panes)
        ]

        # Enqueue one join-reduce task per partition, then drain the
        # reduce task list so Algorithm 2's cache-coverage ordering and
        # Eq. 4's node choice act on the request actually executed.
        outputs: Dict[int, List[KeyValue]] = {}
        contexts: Dict[int, float] = {}
        for partition in range(job.num_reducers):
            ready_at = t0
            for work in works:
                if partition in work.reduce_finish:
                    ready_at = max(ready_at, work.reduce_finish[partition])
            # Weight Eq. 4 by the reduce-input bytes the task would read.
            rin_by_node: Dict[int, int] = {}
            total_rin = 0
            for pid in pane_pids:
                nbytes, node_id = self._cache_size(pid, REDUCE_INPUT, partition)
                total_rin += nbytes
                if node_id is not None:
                    rin_by_node[node_id] = rin_by_node.get(node_id, 0) + nbytes
            request = ReduceTaskRequest(
                query=query.name,
                panes=panes,
                partition=partition,
                input_bytes=total_rin,
                cached_bytes_by_node=tuple(sorted(rin_by_node.items())),
            )
            contexts[id(request)] = ready_at
            self.scheduler.enqueue_reduce(request)

        for request, ready_at in self._drain_reduces(contexts):
            partition = request.partition
            partition_output: List[KeyValue] = []
            cached_read = 0
            fresh_bytes = 0
            node = self.scheduler.select_reduce_node(request, ready_at)

            duration = self.cluster.config.task_overhead
            for _combo, pid, rin_pids in combos:
                pairs, nbytes, src_node = self._combo_output(
                    state, pid, rin_pids, partition, node.node_id, counters
                )
                partition_output.extend(pairs)
                if src_node == "fresh":
                    fresh_bytes += nbytes
                else:
                    cached_read += nbytes
                duration += self._combo_cost(
                    state, rin_pids, partition, node.node_id, nbytes, src_node
                )
            out_bytes = len(partition_output) * job.output_pair_size
            duration += self.cluster.cost_model.hdfs_write_time(out_bytes)
            duration, finish = self._charge(
                f"{query.name}/join/w{recurrence}/{partition}",
                node, REDUCE_SLOT, ready_at, duration, counters,
            )
            self._record_execute(REDUCE_SLOT, request, node, ready_at)
            self._emit_task(
                "combine",
                f"join/w{recurrence}/p{partition}",
                finish - duration / node.speed,
                finish,
                node.node_id,
                slot="reduce",
                bytes=request.input_bytes,
                cached_bytes=cached_read,
                fresh_bytes=fresh_bytes,
                cache_rank=CacheAwareTaskScheduler._cache_rank(request),
            )
            finish_all = max(finish_all, finish)
            outputs[partition] = partition_output
            counters.increment("join.tasks")
            counters.increment("join.cached_bytes_read", cached_read)
            counters.increment("reduce.output_bytes", out_bytes)
        for combo, _pid, _rin_pids in combos:
            matrix.mark_done(
                {state.qsource(src): idx for src, idx in combo.items()}
            )
        return outputs, finish_all

    def _window_combinations(
        self, window_panes: Mapping[str, List[int]]
    ) -> List[Dict[str, int]]:
        from itertools import product

        sources = sorted(window_panes)
        combos = []
        for coords in product(*(window_panes[src] for src in sources)):
            combos.append(dict(zip(sources, coords)))
        return combos

    def _combo_output(
        self,
        state: _QueryState,
        pid: str,
        rin_pids: Sequence[str],
        partition: int,
        target_node: int,
        counters: Counters,
    ) -> Tuple[List[KeyValue], int, Any]:
        """One pane combination's join output for a partition.

        ``pid`` is the combination's pair pid and ``rin_pids`` its
        panes' reduce-input pids in source order. Returns ``(pairs,
        bytes_read, origin)`` where origin is the hosting node id of
        the output cache, or ``"fresh"`` when the combination had to be
        computed from reduce-input data.
        """
        job = state.query.job
        if self.enable_output_cache:
            cached = self._read_cache_verified(pid, REDUCE_OUTPUT, partition)
            if cached is not None:
                payload, nbytes, node_id = cached
                counters.increment("cache.rout_hits")
                return payload, nbytes, node_id
        # Compute the combination from the panes' reduce-input runs.
        merged: List[KeyValue] = []
        read_bytes = 0
        for pane_id in rin_pids:
            payload, nbytes = self._read_rin(state, pane_id, partition)
            merged.extend(payload)
            read_bytes += nbytes
        joined = self._reduce_group(job, sort_pairs(merged))
        if self.enable_output_cache:
            self._store_cache(
                state, target_node, pid, REDUCE_OUTPUT, partition, joined,
                len(joined) * job.output_pair_size,
                self.cluster.clock.now,
            )
        counters.increment("join.combos_computed")
        return joined, read_bytes, "fresh"

    def _combo_cost(
        self,
        state: _QueryState,
        rin_pids: Sequence[str],
        partition: int,
        node_id: int,
        nbytes: int,
        origin: Any,
    ) -> float:
        cost = self.cluster.cost_model
        if origin == "fresh":
            # rin reads (locality per pane), merge + reduce CPU, cache write.
            local = 0
            for pane_id in rin_pids:
                size, host = self._cache_size(pane_id, REDUCE_INPUT, partition)
                if host == node_id:
                    local += size
            records = max(1, nbytes // state.query.job.intermediate_pair_size)
            seconds = cost.task_io_cost(nbytes, bytes_local=min(local, nbytes))
            seconds += cost.reduce_compute_time(records)
            if self.enable_output_cache:
                seconds += cost.cache_write_time(nbytes)
            return seconds
        # Cached combination output: local or remote read.
        if origin == node_id:
            return cost.local_read_time(nbytes)
        return cost.remote_read_time(nbytes)

    def _read_rin(
        self, state: _QueryState, pid: str, partition: int
    ) -> Tuple[List[KeyValue], int]:
        cached = self._read_cache_verified(pid, REDUCE_INPUT, partition)
        if cached is not None:
            payload, nbytes, _node_id = cached
            return payload, nbytes
        name = f"tmp/{state.query.name}/{pid}/p{partition}"
        for node in self.cluster.live_nodes():
            if node.has_local(name):
                lf = node.read_local(name)
                return lf.payload, lf.size
        raise RuntimeError(
            f"reduce input for {pid} partition {partition} is unavailable"
        )

    def _cache_size(
        self, pid: str, cache_type: int, partition: int
    ) -> Tuple[int, Optional[int]]:
        """``(bytes, host)`` of a live cache, or ``(0, None)``, for Eq. 4.

        Metadata only: no payload read, checksum or hit/miss count. Both
        callers size this window's reduce-input caches, which
        ``_pane_caches_intact`` verified (or the pane rewrote) earlier in
        this recurrence; chaos strikes only between recurrences.
        """
        node_id = self.controller.placement(pid, cache_type, partition)
        registry = self._registries.get(node_id)
        size = None if registry is None else registry.touch(
            pid, cache_type, partition
        )
        if size is None:
            return 0, None
        return size, node_id

    # ------------------------------------------------------------------
    # cross-query reuse: seeding, window short-circuit, publication
    # ------------------------------------------------------------------

    def _pane_records(
        self, state: _QueryState, source: str, idx: int
    ) -> Optional[Tuple[Record, ...]]:
        """A packed pane's input records, or None when not yet sealed."""
        packer = state.packers[source]
        if not packer.is_packed(idx):
            return None
        records, _charged = packer.read_pane(idx)
        return tuple(records)

    @staticmethod
    def _slice_records_ms(
        records: Sequence[Record], t0_ms: int, t1_ms: int
    ) -> List[Record]:
        """Records whose millisecond pane-time falls in ``[t0, t1)``.

        Uses the same ``+1e-9`` fudge as ``pane_of_time`` so a record
        sitting exactly on a boundary slices into the same sub-range
        the producer's finer-grained packer assigned it to.
        """
        import math

        out = []
        for r in records:
            ts_ms = math.floor((r.ts + 1e-9) * 1000)
            if t0_ms <= ts_ms < t1_ms:
                out.append(r)
        return out

    def _try_seed_pane(
        self,
        state: _QueryState,
        source: str,
        idx: int,
        start: float,
        counters: Counters,
    ) -> bool:
        """Seed one pane's caches from the reuse store, all-or-nothing.

        A stored artifact (exact range match, or a subsumption chain of
        finer panes tiling the range) replaces the pane's map + shuffle
        + sort work with a remote read + cache write per partition. The
        fingerprint guarantees the *plan* matches; the lineage sha over
        the producer's input records is checked against this query's
        own pane data, so a matching plan over different data is a
        silent miss, never a wrong answer. If any partition is refused
        admission mid-seed, the already-seeded partitions roll back —
        a half-seeded pane must read as uncached.
        """
        from ..reuse.store import records_sha

        fp = state.reuse_pane_fps.get(source)
        if fp is None:
            return False
        spec = state.spec(source)
        t0, t1 = spec.pane_bounds(idx)
        chain = self.reuse.match_pane(fp, t0, t1, source)
        if chain is None:
            return False
        records = self._pane_records(state, source, idx)
        if records is None:
            return False
        t0_ms, t1_ms = round(t0 * 1000), round(t1 * 1000)
        reads = []
        for entry in chain:
            if (entry.t_start_ms, entry.t_end_ms) == (t0_ms, t1_ms):
                sliced: Sequence[Record] = records
            else:
                sliced = self._slice_records_ms(
                    records, entry.t_start_ms, entry.t_end_ms
                )
            if records_sha(sliced) != entry.lineage.input_sha:
                self.counters.increment("reuse.lineage_mismatches")
                return False
            payload = self.reuse.read_pane(entry)
            if payload is None:
                return False
            reads.append(payload)

        query = state.query
        job = query.job
        if len(reads) == 1:
            rins = [list(run) for run in reads[0][0]]
            routs = reads[0][1]
            routs = None if routs is None else [list(r) for r in routs]
        else:
            # Compose the chain: concatenate each partition's runs in
            # time order and re-sort. sort_pairs is stable and key-only,
            # so the composition is digest-equivalent to the full-pane
            # run (same contract the adaptive sub-pane path relies on).
            rins = []
            for partition in range(job.num_reducers):
                merged: List[KeyValue] = []
                for chain_rins, _chain_routs in reads:
                    merged.extend(chain_rins[partition])
                rins.append(sort_pairs(merged))
            routs = None

        pid = state.qpid(source, idx)
        aggregation = query.num_sources == 1
        cost = self.cluster.cost_model
        self._map_eligible.discard(pid)
        work = _PaneWork(map_finish=start)
        seeded: List[Tuple[int, int, int]] = []

        def rollback() -> None:
            for node_id, ctype, partition in reversed(seeded):
                self.discard_cache(
                    node_id, pid, ctype, partition,
                    reason="reuse-aborted", drop_tasks=False,
                )
                if self._recurrence_cache_log is not None:
                    try:
                        self._recurrence_cache_log.remove(
                            (node_id, pid, ctype, partition)
                        )
                    except ValueError:
                        pass
            state.pane_work.pop((source, idx), None)
            self.counters.increment("reuse.seed_rejected")

        total_bytes = 0
        for partition in range(job.num_reducers):
            run = rins[partition]
            rin_bytes = len(run) * job.intermediate_pair_size
            target = self._seed_target(state, partition, start)
            duration = (
                self.cluster.config.task_overhead
                + cost.remote_read_time(rin_bytes)
                + cost.cache_write_time(rin_bytes)
            )
            rout_pairs = None
            rout_bytes = 0
            if aggregation and self.enable_output_cache:
                rout_pairs = (
                    routs[partition]
                    if routs is not None
                    else self._reduce_group(job, run)
                )
                rout_bytes = len(rout_pairs) * job.output_pair_size
                duration += cost.cache_write_time(rout_bytes)
            finish = target.occupy_slot(REDUCE_SLOT, start, duration)
            self._emit_task(
                "pane-reduce",
                f"reuse-seed/{pid}/p{partition}",
                finish - duration / target.speed,
                finish,
                target.node_id,
                slot="reduce",
                bytes=rin_bytes,
                reused=True,
            )
            if not self._store_cache(
                state, target.node_id, pid, REDUCE_INPUT, partition,
                run, rin_bytes, finish,
            ):
                rollback()
                return False
            seeded.append((target.node_id, REDUCE_INPUT, partition))
            total_bytes += rin_bytes
            if rout_pairs is not None:
                # A refused rout is tolerable — the combine phase
                # rebuilds it from the seeded reduce input.
                if self._store_cache(
                    state, target.node_id, pid, REDUCE_OUTPUT, partition,
                    rout_pairs, rout_bytes, finish,
                ):
                    seeded.append((target.node_id, REDUCE_OUTPUT, partition))
                    total_bytes += rout_bytes
            work.reduce_finish[partition] = finish

        state.pane_work[(source, idx)] = work
        state.partials.pop((source, idx), None)
        for bag in (counters, self.counters):
            bag.increment("reuse.panes_seeded")
            bag.increment("reuse.bytes_saved", total_bytes)
        return True

    def _seed_target(
        self, state: _QueryState, partition: int, now: float
    ) -> TaskNode:
        """Node hosting a seeded partition: sticky placement, like Eq. 4."""
        node_id = state.partition_nodes.get(partition)
        if node_id is not None:
            node = self.cluster.node(node_id)
            if node.alive and not self.scheduler.is_blacklisted(node_id, now):
                return node
        live = sorted(n.node_id for n in self.cluster.live_nodes())
        if not live:
            raise RuntimeError("no live nodes to seed reuse caches onto")
        node = self.cluster.node(live[partition % len(live)])
        state.partition_nodes[partition] = node.node_id
        return node

    def _window_input_sha(
        self, state: _QueryState, recurrence: int
    ) -> Optional[Tuple[str, int, int]]:
        """Identity of a window's full input: ``(sha, records, bytes)``.

        Hashed per source over the concatenated pane records in time
        order, so the digest is independent of pane granularity — a
        producer whose shared GCD pane was finer still verifies.
        Returns None while any pane of the window is unpacked.
        """
        from ..reuse.store import content_sha, records_sha

        per_source = []
        n_records = 0
        n_bytes = 0
        for source in state.query.sources:
            recs: List[Record] = []
            for idx in state.spec(source).panes_in_window(recurrence):
                pane_records = self._pane_records(state, source, idx)
                if pane_records is None:
                    return None
                recs.extend(pane_records)
            per_source.append(records_sha(recs))
            n_records += len(recs)
            n_bytes += int(sum(r.size for r in recs))
        return content_sha(per_source), n_records, n_bytes

    def _try_reuse_window(
        self,
        state: _QueryState,
        recurrence: int,
        t0: float,
        counters: Counters,
    ) -> Optional[Tuple[Dict[int, List[KeyValue]], float]]:
        """Serve a whole recurrence from a stored window artifact.

        On a fingerprint + bounds + input-lineage match the recurrence
        collapses to one remote read + HDFS write of the stored output;
        the status matrix is marked done exactly as the combine phase
        would have, so purge accounting and ``remaining_uses`` are
        indistinguishable from a locally computed window.
        """
        fp = state.reuse_plan_fp
        if fp is None:
            return None
        query = state.query
        bounds = query.window_bounds(recurrence)
        entry = self.reuse.match_window(fp, bounds)
        if entry is None:
            return None
        identity = self._window_input_sha(state, recurrence)
        if identity is None:
            return None
        if identity[0] != entry.lineage.input_sha:
            self.counters.increment("reuse.lineage_mismatches")
            return None
        pairs = self.reuse.read_window(entry)
        if pairs is None:
            return None
        cost = self.cluster.cost_model
        out_bytes = entry.size
        duration = (
            self.cluster.config.task_overhead
            + cost.remote_read_time(out_bytes)
            + cost.hdfs_write_time(out_bytes)
        )
        live = sorted(self.cluster.live_nodes(), key=lambda n: n.node_id)
        if not live:
            return None
        node = live[0]
        finish = node.occupy_slot(REDUCE_SLOT, t0, duration)
        self._emit_task(
            "combine",
            f"reuse-window/w{recurrence}",
            finish - duration / node.speed,
            finish,
            node.node_id,
            slot="reduce",
            bytes=out_bytes,
            reused=True,
        )
        matrix = self.controller.matrix(query.name)
        if query.num_sources == 1:
            source = query.sources[0]
            for idx in state.spec(source).panes_in_window(recurrence):
                matrix.mark_done({state.qsource(source): idx})
        else:
            window_panes = {
                src: state.spec(src).panes_in_window(recurrence)
                for src in query.sources
            }
            for combo in self._window_combinations(window_panes):
                matrix.mark_done(
                    {state.qsource(src): idx for src, idx in combo.items()}
                )
        for bag in (counters, self.counters):
            bag.increment("reuse.window_hits")
            bag.increment("reuse.bytes_saved", out_bytes)
        return {0: list(pairs)}, finish

    def _reuse_publish_pane(
        self,
        query_name: str,
        source: str,
        idx: int,
        rins: List[List[KeyValue]],
        routs: Optional[List[List[KeyValue]]],
        created_at: float,
    ) -> None:
        from ..reuse.store import ReuseLineage, records_sha

        state = self._states.get(query_name)
        if state is None:
            return
        fp = state.reuse_pane_fps.get(source)
        if fp is None:
            return
        t0, t1 = state.spec(source).pane_bounds(idx)
        if self.reuse.has_pane(fp, t0, t1, source):
            return
        records = self._pane_records(state, source, idx)
        if records is None:
            return
        job = state.query.job
        input_bytes = int(sum(r.size for r in records))
        lineage = ReuseLineage(
            producer=query_name,
            job=job.name,
            created_at=created_at,
            input_records=len(records),
            input_bytes=input_bytes,
            input_sha=records_sha(records),
            recompute_cost=float(max(1, input_bytes)),
        )
        self.reuse.publish_pane(
            fp, source, t0, t1, rins, routs,
            pair_size=job.intermediate_pair_size,
            out_pair_size=job.output_pair_size,
            lineage=lineage,
        )

    def _flush_pane_publishes(self, degraded: bool) -> None:
        """Publish panes buffered during the finished recurrence.

        A degraded window drops its buffer: its caches were rolled
        back, and artifacts from an abandoned window must never be
        matchable by other queries.
        """
        pending, self._pending_publishes = self._pending_publishes, []
        if degraded or self.reuse is None:
            return
        for record in pending:
            self._reuse_publish_pane(*record)

    def _reuse_publish_window(
        self,
        state: _QueryState,
        recurrence: int,
        output_pairs: List[KeyValue],
        finish: float,
    ) -> None:
        from ..reuse.store import ReuseLineage

        fp = state.reuse_plan_fp
        if fp is None:
            return
        query = state.query
        bounds = query.window_bounds(recurrence)
        if self.reuse.has_window(fp, bounds):
            return
        identity = self._window_input_sha(state, recurrence)
        if identity is None:
            return
        input_sha, n_records, n_bytes = identity
        lineage = ReuseLineage(
            producer=query.name,
            job=query.job.name,
            created_at=finish,
            input_records=n_records,
            input_bytes=n_bytes,
            input_sha=input_sha,
            recompute_cost=float(max(1, n_bytes)),
        )
        self.reuse.publish_window(
            fp, bounds, output_pairs,
            out_pair_size=query.job.output_pair_size,
            lineage=lineage,
        )

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------

    def _registry(self, node_id: int) -> LocalCacheRegistry:
        registry = self._registries.get(node_id)
        if registry is None:
            registry = LocalCacheRegistry(
                self.cluster.node(node_id),
                purge_cycle=self._default_purge_cycle(),
                capacity_bytes=self.cache_capacity_bytes,
                counters=self.counters,
            )
            self._registries[node_id] = registry
        return registry

    def _default_purge_cycle(self) -> float:
        slides = [s.query.slide for s in self._states.values()]
        return min(slides) if slides else 3600.0

    def _refresh_purge_cycles(self) -> None:
        """Re-derive registry purge cycles after query churn.

        The default cycle is the minimum registered slide, but it is
        copied into each registry at first touch — without this hook,
        serve-mode churn (queries registered or removed later) would
        leave existing registries sweeping on the stale frozen cycle.
        """
        cycle = self._default_purge_cycle()
        for registry in self._registries.values():
            registry.purge_cycle = cycle

    def _pinned_pids(self) -> Set[str]:
        """Pane pids whose reduce-input caches eviction must not touch.

        Every registered query's *upcoming* window (``next_recurrence``
        — the one currently executing, between recurrences the next
        due) relies on those rin caches: once ``_pane_caches_intact``
        said a pane is served from cache, the combine phase has no
        other way to rebuild its input mid-window. Everything else —
        reduce-output caches, combination caches, panes of past or
        far-future windows — can always be recomputed from HDFS.
        """
        pinned: Set[str] = set()
        for state in self._states.values():
            for src in state.query.sources:
                for idx in state.spec(src).panes_in_window(
                    state.next_recurrence
                ):
                    pinned.add(state.qpid(src, idx))
        return pinned

    def _make_room(
        self,
        registry: LocalCacheRegistry,
        pid: str,
        cache_type: int,
        partition: int,
        nbytes: int,
        now: float,
    ) -> bool:
        """Admission control: can ``nbytes`` fit under the node budget?

        Reclaims space in escalating order — expired entries first
        (the paper's on-demand purge), then live entries chosen by the
        eviction policy — and answers ``False`` only when even evicting
        every unpinned entry would not make room.
        """
        cap = registry.capacity_bytes
        if cap is None:
            return True
        if nbytes > cap:
            return False
        # Overwriting an existing key (cache re-construction) frees its
        # current bytes, so they count against the incoming size.
        credit = registry.entry_size(pid, cache_type, partition)

        def overflow() -> int:
            return registry.cached_bytes - credit + nbytes - cap

        if overflow() <= 0:
            return True
        purged = registry.on_demand_purge()
        if purged:
            self.counters.increment("cache.entries_purged", len(purged))
        need = overflow()
        if need <= 0:
            return True
        pinned = self._pinned_pids()
        candidates = [
            e
            for e in registry.eviction_candidates()
            if (e.pid, e.cache_type, e.partition) != (pid, cache_type, partition)
            and not (e.cache_type == REDUCE_INPUT and e.pid in pinned)
        ]
        victims = select_victims(
            self.eviction_policy, candidates, need, self.controller.remaining_uses
        )
        if sum(v.size for v in victims) < need:
            return False
        for victim in victims:
            self.counters.increment("cache.bytes_evicted", victim.size)
            # drop_tasks=False: eviction fires inside reduce drains; any
            # queued request touching the victim re-verifies and falls
            # back (same contract as the corruption path). The pin set
            # guarantees no current-window rin disappears.
            self.discard_cache(
                registry.node.node_id,
                victim.pid,
                victim.cache_type,
                victim.partition,
                reason="evicted",
                at=now,
                drop_tasks=False,
            )
        return True

    def _store_cache(
        self,
        state: _QueryState,
        node_id: int,
        pid: str,
        cache_type: int,
        partition: int,
        payload: Any,
        nbytes: int,
        now: float,
    ) -> bool:
        registry = self._registry(node_id)
        if not self._make_room(registry, pid, cache_type, partition, nbytes, now):
            # Budget refusal: the write is dropped, not the window. A
            # reduce-input run is spilled unregistered (same tmp path
            # as no-cache mode) so this window's combine phase can
            # still read it; the ready bit stays HDFS_AVAILABLE and
            # later windows recompute from the pane files.
            self.counters.increment("cache.admission_rejected")
            if cache_type == REDUCE_INPUT:
                registry.node.store_local(
                    f"tmp/{state.query.name}/{pid}/p{partition}",
                    nbytes,
                    payload,
                    created_at=now,
                )
            return False
        entry = registry.add_entry(
            pid, cache_type, partition, nbytes, payload, now=now
        )
        self.controller.cache_created(pid, cache_type, partition, node_id)
        self.counters.increment("cache.bytes_written", nbytes)
        if self._recurrence_cache_log is not None:
            self._recurrence_cache_log.append(
                (node_id, pid, cache_type, partition)
            )
            if cache_type == REDUCE_INPUT:
                self._verified_rins.setdefault(pid, {})[partition] = (
                    registry.node.read_local(entry.local_name)
                )
        return True

    def discard_cache(
        self,
        node_id: int,
        pid: str,
        cache_type: int,
        partition: int,
        *,
        reason: str = "lost",
        at: Optional[float] = None,
        drop_tasks: bool = True,
    ) -> None:
        """Destroy one cache partition and roll back its metadata.

        The single Sec. 5 rollback path shared by injected cache loss
        (:class:`~repro.core.recovery.RecoveryManager`), corruption
        detected on read, and degraded-window cleanup: delete the data,
        forget the registry row, revert the controller's ready bit when
        no copies remain (ready listeners re-mark the pane
        map-eligible), and drop scheduled reduce tasks that relied on
        the cache.

        ``drop_tasks=False`` skips the task-list purge. Required when
        the discard fires *during* a recurrence's reduce drain (a
        checksum failure surfaces on read, mid-execution): the queued
        requests are that recurrence's own plan — each re-verifies the
        caches it touches and recomputes from reduce input, so removing
        them would desync the drain, not protect it.
        """
        registry = self._registries.get(node_id)
        if registry is None:
            raise ValueError(f"node {node_id} holds no caches")
        name = cache_file_name(pid, cache_type, partition)
        if registry.node.has_local(name):
            registry.node.delete_local(name)
        registry.drop_lost(pid, cache_type, partition)
        if cache_type == REDUCE_INPUT and self._verified_rins:
            self._verified_rins.get(pid, {}).pop(partition, None)
        self.controller.cache_lost(pid, cache_type, partition)
        if drop_tasks:
            self.scheduler.drop_reduce_tasks_using(pid)
        if reason == "degraded":
            self.counters.increment("faults.caches_rolled_back")
        elif reason == "evicted":
            # Planned invalidation under the byte budget, not a fault.
            self.counters.increment("cache.evicted")
        elif reason == "reuse-aborted":
            # All-or-nothing seeding rollback: a later partition of a
            # store-seeded pane was refused admission, so the earlier
            # ones retract (a half-seeded pane must read as uncached).
            self.counters.increment("reuse.seed_rollbacks")
        else:
            self.counters.increment("faults.caches_destroyed")
        self.tracer.instant(
            "cache.lost",
            CAT_FAULT,
            time=self.cluster.clock.now if at is None else at,
            node_id=node_id,
            pid=pid,
            cache_type=cache_type,
            partition=partition,
            reason=reason,
        )

    def _read_cache_verified(
        self, pid: str, cache_type: int, partition: int
    ) -> Optional[Tuple[Any, int, int]]:
        """Read a cache through its checksum; quarantine on corruption.

        Returns ``(payload, nbytes, node_id)``, or ``None`` when the
        cache is absent *or* failed its integrity check — in the latter
        case the entry is discarded through the Sec. 5 rollback first,
        so callers' fallback paths (rebuild from reduce input, re-map
        from HDFS) see a consistent world.

        A reduce-input run the pane probe verified, or ``_store_cache``
        wrote, earlier in this recurrence is served from
        ``_verified_rins`` without hashing it again, as long as it is
        still the entry's file; the use still counts a hit and advances
        the entry's LRU clock, as the read would. Reduce outputs are
        verified on every read.
        """
        node_id = self.controller.placement(pid, cache_type, partition)
        registry = None if node_id is None else self._registries.get(node_id)
        if registry is None:
            self.counters.increment("cache.misses")
            return None
        if cache_type == REDUCE_INPUT and self._verified_rins:
            runs = self._verified_rins.get(pid)
            lf = None if runs is None else runs.get(partition)
            if lf is not None and registry.use_verified(
                pid, cache_type, partition, lf
            ):
                self.counters.increment("cache.hits")
                return lf.payload, lf.size, node_id
        try:
            payload, nbytes = registry.read(pid, cache_type, partition)
        except KeyError:
            self.counters.increment("cache.misses")
            return None
        except CacheCorruptionError:
            self.counters.increment("cache.corruptions_detected")
            self.counters.increment("cache.misses")
            self.discard_cache(
                node_id, pid, cache_type, partition,
                reason="corrupt", drop_tasks=False,
            )
            return None
        self.counters.increment("cache.hits")
        return payload, nbytes, node_id

    def registries(self) -> Dict[int, LocalCacheRegistry]:
        """Per-node cache registries created so far (testing/monitoring)."""
        return dict(self._registries)

    # ------------------------------------------------------------------
    # post-execution: profiler, purging, adaptivity
    # ------------------------------------------------------------------

    def _after_recurrence(
        self, state: _QueryState, result: RecurrenceResult
    ) -> None:
        query = state.query
        # Volume observed since the previous recurrence: a processing-
        # mode-independent signal for the fluctuation detector.
        ingested = state.bytes_ingested - state.last_ingest_snapshot
        state.last_ingest_snapshot = state.bytes_ingested
        state.profiler.observe(result.response_time, ingested)

        # Drop pane-work timing for panes that have left the window so
        # long-lived queries do not accumulate state without bound.
        current = {
            (src, idx)
            for src in query.sources
            for idx in state.spec(src).panes_in_window(result.recurrence)
        }
        state.pane_work = {
            key: work for key, work in state.pane_work.items() if key in current
        }
        # Drop proactive partials for panes that have left the window —
        # they can never seal into a future window. Without this, panes
        # skipped wholesale (cache hit, reuse seed, window-level reuse)
        # would leak their partial map state forever.
        first_next = {
            src: min(
                state.spec(src).panes_in_window(result.recurrence + 1),
                default=0,
            )
            for src in query.sources
        }
        state.partials = {
            (src, idx): partial
            for (src, idx), partial in state.partials.items()
            if idx >= first_next.get(src, 0)
        }

        # Expiration + purge notifications (PurgeCycle = slide).
        notifications = self.controller.advance_window(
            query.name, result.recurrence
        )
        self._apply_purge_notifications(notifications)
        now = self.cluster.clock.now
        for registry in self._registries.values():
            purged = registry.maybe_purge(now)
            if purged:
                self.counters.increment("cache.entries_purged", len(purged))

        # Drop unregistered temporary runs — no-cache mode's shuffled
        # runs, and admission-rejected spills under a byte budget.
        prefix = f"tmp/{query.name}/"
        for node in self.cluster.live_nodes():
            for name in node.local_files(prefix):
                node.delete_local(name)

        # Shared-map entries below every reader's next-window floor can
        # never be absorbed again; retire them (watermark GC).
        if self.scan_sharing is not None:
            self._retire_shared_maps()

        # Adaptive mode switch (Sec. 3.3): triggered by a forecast
        # execution-time change or by recent fluctuation, per the paper's
        # scale-factor mechanism.
        if self.adaptive:
            was = state.proactive
            state.proactive = state.profiler.fluctuation_detected()
            if state.proactive != was:
                self.counters.increment("adaptive.mode_switches")
                if state.proactive:
                    factor = max(
                        state.profiler.change_factor(),
                        state.profiler.volatility(),
                    )
                    for src, plan in state.plans.items():
                        state.plans[src] = self.analyzer.replan_adaptive(
                            plan, factor
                        )

    def _retire_shared_maps(self) -> None:
        """Watermark GC over the shared-scan registry.

        A source's floor is the lowest pane index any registered
        reader's *next* window can still cover (paused tenants count —
        their backlog fires on resume); entries below the floor, and
        entries of sources nobody reads anymore, are dropped.
        """
        floors: Dict[str, int] = {}
        for st in self._states.values():
            for src in st.query.sources:
                first = min(
                    st.spec(src).panes_in_window(st.next_recurrence),
                    default=0,
                )
                floors[src] = min(floors.get(src, first), first)
        retired = 0
        for src in self.scan_sharing.sources():
            if src not in floors:
                retired += self.scan_sharing.drop_source(src)
            else:
                retired += self.scan_sharing.retire(src, floors[src])
        if retired:
            self.counters.increment("plan.map_outputs_retired", retired)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _require_data(self, state: _QueryState, recurrence: int) -> None:
        for src in state.query.sources:
            needed = state.query.spec(src).execution_time(recurrence)
            covered = state.packers[src].covered_until
            if covered + 1e-9 < needed:
                raise RuntimeError(
                    f"source {src!r} has data only until {covered}, but "
                    f"recurrence {recurrence} needs it through {needed}; "
                    "ingest the missing batches first"
                )

    def _state(self, query_name: str) -> _QueryState:
        try:
            return self._states[query_name]
        except KeyError:
            raise ValueError(f"query {query_name!r} is not registered") from None
