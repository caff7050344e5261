"""The master-side job tracker: split planning, scheduling, execution.

This is the plain-Hadoop execution path: every job reads its full input
from HDFS, shuffles every map output pair, and reduces every group. The
Redoop runtime (:mod:`repro.core.runtime`) replaces parts of this
pipeline with cache-aware equivalents but reuses the same slot
simulation, cost model, logical task execution, and task engine
(:mod:`repro.hadoop.engine`).

Timing model
------------
Map tasks are list-scheduled onto map slots in split order; each task
starts at ``max(job start, earliest slot free)`` on its chosen node.
Reducers begin copying map output as soon as the first mapper finishes
(Hadoop's early-shuffle), so a partition's shuffle completes at
``max(last map finish, first map finish + transfer time)``. Reduce
tasks then queue on reduce slots. The job finishes when the last reduce
task does. Phase spans are recorded the way the paper measures them
(Sec. 6.2 "Time distribution").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exec import ExecBackend
from repro.trace import CAT_JOB, CAT_PHASE, CAT_TASK, Span, Tracer

from .cluster import Cluster
from .counters import Counters, PhaseTimes
from .engine import TaskEngine
from .faults import FaultInjector
from .hdfs import FileSplit
from .job import MapReduceJob
from .node import MAP_SLOT, REDUCE_SLOT, SlotKind, TaskNode
from .task import MapExecution, ReduceExecution, execute_map, execute_reduce
from .timeline import SchedulingDecision, record_decision
from .types import KeyValue

__all__ = ["FIFOScheduler", "JobResult", "JobTracker"]


class FIFOScheduler:
    """Hadoop's default scheduler: earliest free slot, locality on ties.

    Among live nodes, the node whose next ``kind`` slot frees earliest
    wins; when several free at the same instant, data-local nodes are
    preferred, then the lowest node id (for determinism).

    Like the cache-aware scheduler, it can record every placement on a
    span spine as a :class:`~repro.hadoop.timeline.SchedulingDecision`,
    so baseline runs expose the same decision log as Redoop runs.
    """

    def __init__(self, *, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer

    def choose_node(
        self,
        cluster: Cluster,
        kind: SlotKind,
        now: float,
        *,
        preferred: Set[int] = frozenset(),
        task: str = "",
    ) -> TaskNode:
        live = cluster.live_nodes()
        if not live:
            raise RuntimeError("no live nodes to schedule on")

        def rank(node: TaskNode) -> Tuple[float, int, int]:
            est_start = max(now, node.earliest_slot_time(kind))
            local = 0 if node.node_id in preferred else 1
            return (est_start, local, node.node_id)

        node = min(live, key=rank)
        if self.tracer is not None:
            record_decision(
                self.tracer,
                SchedulingDecision(
                    event="select",
                    kind=kind,
                    task=task,
                    node_id=node.node_id,
                    load=node.load_at(now),
                    time=now,
                )
            )
        return node

    def record_task_failure(self, node_id: int, now: float, *, failures: float = 1.0) -> None:
        """Hadoop's FIFO scheduler keeps no failure scores: a no-op."""


@dataclass(slots=True)
class JobResult:
    """Everything a caller needs to know about a finished job."""

    job_name: str
    start_time: float
    finish_time: float
    phase_times: PhaseTimes
    #: Reduce output per partition index.
    outputs: Dict[int, List[KeyValue]]
    counters: Counters
    #: Node each reduce partition ran on (Redoop uses this for cache locality).
    reduce_nodes: Dict[int, int] = field(default_factory=dict)

    @property
    def span(self) -> float:
        """End-to-end (virtual) response time of the job."""
        return self.finish_time - self.start_time

    def merged_output(self) -> List[KeyValue]:
        """All output pairs across partitions, in partition order."""
        merged: List[KeyValue] = []
        for partition in sorted(self.outputs):
            merged.extend(self.outputs[partition])
        return merged


class JobTracker(TaskEngine):
    """Runs complete MapReduce jobs on a cluster, FIFO by default.

    Jobs, phases and tasks land on the tracer, so plain-Hadoop runs
    export the same trace shape as Redoop runs (the ``job`` category
    replaces ``recurrence``).
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        scheduler: Optional[FIFOScheduler] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        backend: Optional[ExecBackend] = None,
    ) -> None:
        super().__init__(
            cluster, "hadoop-run", tracer=tracer, backend=backend, faults=fault_injector
        )
        self.scheduler = scheduler or FIFOScheduler()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_job(
        self,
        job: MapReduceJob,
        input_paths: Sequence[str],
        *,
        start: Optional[float] = None,
        output_path: Optional[str] = None,
        trace_attrs: Optional[Mapping[str, Any]] = None,
    ) -> JobResult:
        """Execute ``job`` over ``input_paths`` and advance the clock.

        Parameters
        ----------
        job:
            The job specification.
        input_paths:
            HDFS paths the job reads; missing paths raise ``HDFSError``.
        start:
            Earliest virtual time the job may begin (defaults to now).
        output_path:
            When given, the merged reduce output is materialised as an
            HDFS file at this path (write cost is already charged inside
            the reduce tasks).
        trace_attrs:
            Extra attributes for the job's trace span. A ``"due"`` key
            (the window's deadline, for recurring drivers) anchors the
            span's start so response time reads off the span directly;
            a ``"window"`` key labels it for per-window reports.
        """
        cluster = self.cluster
        counters = Counters()
        t_submit = max(cluster.clock.now, start if start is not None else 0.0)
        t0 = t_submit + cluster.config.job_overhead

        attrs = dict(trace_attrs or {})
        due = float(attrs.pop("due", t_submit))
        job_span = self.tracer.begin(
            job.name, CAT_JOB, min(due, t_submit), parent=self._run_span,
            due=due, **attrs,
        )
        map_span = self.tracer.begin("map", CAT_PHASE, t0, parent=job_span)
        shuffle_span = self.tracer.begin(
            "shuffle", CAT_PHASE, t0, parent=job_span
        )
        reduce_span = self.tracer.begin(
            "reduce", CAT_PHASE, t0, parent=job_span
        )

        splits = self._plan_splits(input_paths)
        map_execs, map_finishes = self._run_map_phase(
            job, splits, t0, counters, map_span
        )
        maps_done = max(map_finishes, default=t0)
        first_map_done = min(map_finishes, default=t0)

        outputs, reduce_nodes, shuffle_all_done, finish = self._run_reduce_phase(
            job,
            map_execs,
            first_map_done,
            maps_done,
            counters,
            shuffle_span,
            reduce_span,
        )

        finish = max(finish, maps_done)
        cluster.clock.advance_to(finish)
        phases = PhaseTimes(
            map=maps_done - t0,
            shuffle=max(0.0, shuffle_all_done - first_map_done),
            reduce=max(0.0, finish - shuffle_all_done),
        )

        if output_path is not None:
            merged = [pair for p in sorted(outputs) for pair in outputs[p]]
            self._write_output(output_path, merged, job.output_pair_size, finish)

        counters.increment("job.runs")
        self.tracer.end(map_span, max(maps_done, t0))
        shuffle_span.start = min(first_map_done, shuffle_all_done)
        self.tracer.end(shuffle_span, shuffle_all_done)
        reduce_span.start = min(shuffle_all_done, finish)
        self.tracer.end(reduce_span, finish)
        self._end_job_span(job_span, finish, due, phases, counters)
        return JobResult(
            job_name=job.name,
            start_time=t_submit,
            finish_time=finish,
            phase_times=phases,
            outputs=outputs,
            counters=counters,
            reduce_nodes=reduce_nodes,
        )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _plan_splits(self, input_paths: Sequence[str]) -> List[FileSplit]:
        splits: List[FileSplit] = []
        for path in input_paths:
            splits.extend(self.cluster.hdfs.splits(path))
        return splits

    def _run_map_phase(
        self,
        job: MapReduceJob,
        splits: Sequence[FileSplit],
        t0: float,
        counters: Counters,
        phase_span: Span,
    ) -> Tuple[List[MapExecution], List[float]]:
        cluster = self.cluster
        cost = cluster.cost_model
        finishes: List[float] = []
        nodes_used: List[int] = []
        durations: List[float] = []
        # Task bodies first (possibly in parallel — results come back in
        # split order), then the sequential list-scheduling pass below
        # charges virtual time exactly as before.
        execs: List[MapExecution] = self._run_backend(
            execute_map,
            [((job, split.records), {"input_bytes": split.size}) for split in splits],
            phase="map",
            counters=counters,
            now=t0,
            task_key=f"{job.name}/exec-map",
        )
        for split, ex in zip(splits, execs):
            task = f"{job.name}/map/{split.path}#{split.split_index}"
            node = self.scheduler.choose_node(
                cluster, MAP_SLOT, t0, preferred=set(split.locations), task=task
            )
            local = node.node_id in split.locations
            duration = cost.map_task_duration(
                ex.input_bytes,
                ex.input_records,
                ex.output_bytes,
                data_local=local,
            )
            duration, task_finish = self._charge(
                task, node, MAP_SLOT, t0, duration, counters
            )
            finishes.append(task_finish)
            self.tracer.span(
                f"map/{split.path}#{split.split_index}",
                CAT_TASK,
                task_finish - duration / node.speed,
                task_finish,
                parent=phase_span,
                node_id=node.node_id,
                slot="map",
                bytes=ex.input_bytes,
                data_local=local,
            )
            nodes_used.append(node.node_id)
            durations.append(duration)
            counters.increment("map.tasks")
            counters.increment("map.input_records", ex.input_records)
            counters.increment("map.input_bytes", ex.input_bytes)
            counters.increment("map.output_bytes", ex.output_bytes)
            if not local:
                counters.increment("map.rack_remote_tasks")
        if cluster.config.speculative_execution and len(finishes) > 1:
            finishes = self._speculate_stragglers(
                finishes, nodes_used, durations, counters, phase_span
            )
        return execs, finishes

    def _speculate_stragglers(
        self,
        finishes: List[float],
        nodes_used: List[int],
        durations: List[float],
        counters: Counters,
        phase_span: Span,
    ) -> List[float]:
        """Launch backup copies of straggler map tasks (Hadoop-style).

        A task projected to finish later than ``speculative_slowness``
        times the phase's fast-quartile finish gets a backup on a
        different node, launched once the straggle is apparent; the
        task completes when either copy does. The quartile (rather than
        the median) keeps the baseline honest even when a degraded node
        swallowed most of the tasks.
        """
        cluster = self.cluster
        ordered = sorted(finishes)
        baseline = ordered[len(ordered) // 4]
        threshold = baseline * cluster.config.speculative_slowness
        adjusted = list(finishes)
        for i, finish in enumerate(finishes):
            if finish <= threshold:
                continue
            candidates = [
                n for n in cluster.live_nodes() if n.node_id != nodes_used[i]
            ]
            if not candidates:
                continue
            backup_node = min(
                candidates,
                key=lambda n: (n.earliest_slot_time(MAP_SLOT), n.node_id),
            )
            backup_finish = backup_node.occupy_slot(
                MAP_SLOT, baseline, durations[i]
            )
            self.tracer.span(
                f"map-backup#{i}",
                CAT_TASK,
                backup_finish - durations[i] / backup_node.speed,
                backup_finish,
                parent=phase_span,
                node_id=backup_node.node_id,
                slot="map",
                speculative=True,
            )
            adjusted[i] = min(finish, backup_finish)
            counters.increment("map.speculative_tasks")
        return adjusted

    def _run_reduce_phase(
        self,
        job: MapReduceJob,
        map_execs: Sequence[MapExecution],
        first_map_done: float,
        maps_done: float,
        counters: Counters,
        shuffle_span: Span,
        reduce_span: Span,
    ) -> Tuple[Dict[int, List[KeyValue]], Dict[int, int], float, float]:
        cluster = self.cluster
        cost = cluster.cost_model
        outputs: Dict[int, List[KeyValue]] = {}
        reduce_nodes: Dict[int, int] = {}
        shuffle_all_done = maps_done
        finish = maps_done

        by_partition: Dict[int, List[KeyValue]] = {}
        for ex in map_execs:
            for partition, pairs in ex.partitioned.items():
                by_partition.setdefault(partition, []).extend(pairs)

        # Reduce bodies run through the backend in partition order; the
        # scheduling pass below then charges each partition's virtual
        # shuffle + reduce time sequentially, exactly as before.
        partitions = sorted(by_partition)
        rexes: Dict[int, ReduceExecution] = dict(
            zip(
                partitions,
                self._run_backend(
                    execute_reduce,
                    [((job, p, by_partition[p]), {}) for p in partitions],
                    phase="reduce",
                    counters=counters,
                    now=maps_done,
                    task_key=f"{job.name}/exec-reduce",
                ),
            )
        )
        for partition in partitions:
            pairs = by_partition[partition]
            fetch_bytes = len(pairs) * job.intermediate_pair_size
            shuffle_done = max(
                maps_done,
                first_map_done + cost.shuffle_fetch_duration(fetch_bytes),
            )
            shuffle_all_done = max(shuffle_all_done, shuffle_done)

            rex = rexes[partition]
            duration = cost.reduce_task_duration(
                shuffled_bytes=fetch_bytes,
                shuffled_records=rex.input_pairs,
                cached_bytes=0.0,
                cached_records=0,
                output_bytes=rex.output_bytes,
            )
            task = f"{job.name}/reduce/{partition}"
            node = self.scheduler.choose_node(cluster, REDUCE_SLOT, shuffle_done, task=task)
            duration, task_finish = self._charge(
                task, node, REDUCE_SLOT, shuffle_done, duration, counters
            )
            finish = max(finish, task_finish)
            if shuffle_done > first_map_done:
                self.tracer.span(
                    f"shuffle/p{partition}",
                    CAT_TASK,
                    first_map_done,
                    shuffle_done,
                    parent=shuffle_span,
                    node_id=node.node_id,
                    slot="net",
                    bytes=fetch_bytes,
                )
            self.tracer.span(
                f"reduce/p{partition}",
                CAT_TASK,
                task_finish - duration / node.speed,
                task_finish,
                parent=reduce_span,
                node_id=node.node_id,
                slot="reduce",
                bytes=fetch_bytes,
            )
            outputs[partition] = rex.output
            reduce_nodes[partition] = node.node_id
            counters.increment("reduce.tasks")
            counters.increment("shuffle.bytes", fetch_bytes)
            counters.increment("reduce.output_bytes", rex.output_bytes)
        return outputs, reduce_nodes, shuffle_all_done, finish
