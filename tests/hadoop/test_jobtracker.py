"""Unit tests for the job tracker and FIFO scheduler."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.exec import BatchStats, SerialBackend, WorkerFaultError
from repro.hadoop import Cluster, FaultInjector, JobTracker, small_test_config
from repro.hadoop.faults import TaskAttemptsExhaustedError
from repro.hadoop.jobtracker import FIFOScheduler
from repro.hadoop.node import MAP_SLOT

from ..conftest import make_records, wordcount_job


def _load_wordcount_input(cluster, n=200, path="/in/batch1", **kw):
    records = make_records(n, key_space=5, **kw)
    cluster.hdfs.create(path, records)
    return records


class TestFIFOScheduler:
    def test_picks_earliest_free_slot(self, small_cluster):
        sched = FIFOScheduler()
        # Busy up node 0 entirely.
        for _ in range(small_cluster.config.map_slots_per_node):
            small_cluster.node(0).occupy_slot(MAP_SLOT, 0.0, 100.0)
        chosen = sched.choose_node(small_cluster, MAP_SLOT, 0.0)
        assert chosen.node_id != 0

    def test_prefers_local_on_tie(self, small_cluster):
        sched = FIFOScheduler()
        chosen = sched.choose_node(
            small_cluster, MAP_SLOT, 0.0, preferred={2}
        )
        assert chosen.node_id == 2

    def test_no_live_nodes_raises(self, small_cluster):
        for nid in list(small_cluster.live_node_ids()):
            small_cluster.fail_node(nid)
        with pytest.raises(RuntimeError):
            FIFOScheduler().choose_node(small_cluster, MAP_SLOT, 0.0)


class TestRunJob:
    def test_wordcount_correctness(self, small_cluster):
        records = _load_wordcount_input(small_cluster)
        tracker = JobTracker(small_cluster)
        result = tracker.run_job(wordcount_job(), ["/in/batch1"])
        counts = dict(result.merged_output())
        expected = Counter(r.value for r in records)
        assert counts == dict(expected)

    def test_clock_advances_to_finish(self, small_cluster):
        _load_wordcount_input(small_cluster)
        tracker = JobTracker(small_cluster)
        result = tracker.run_job(wordcount_job(), ["/in/batch1"])
        assert small_cluster.clock.now == result.finish_time
        assert result.finish_time > result.start_time

    def test_phase_times_non_negative(self, small_cluster):
        _load_wordcount_input(small_cluster)
        result = JobTracker(small_cluster).run_job(wordcount_job(), ["/in/batch1"])
        assert result.phase_times.map > 0
        assert result.phase_times.shuffle >= 0
        assert result.phase_times.reduce >= 0

    def test_multiple_inputs(self, small_cluster):
        _load_wordcount_input(small_cluster, path="/in/a", seed=1)
        _load_wordcount_input(small_cluster, path="/in/b", seed=2)
        result = JobTracker(small_cluster).run_job(
            wordcount_job(), ["/in/a", "/in/b"]
        )
        total = sum(v for _, v in result.merged_output())
        assert total == 400

    def test_output_path_written(self, small_cluster):
        _load_wordcount_input(small_cluster)
        JobTracker(small_cluster).run_job(
            wordcount_job(), ["/in/batch1"], output_path="/out/w0"
        )
        assert small_cluster.hdfs.exists("/out/w0")

    def test_empty_input_list(self, small_cluster):
        result = JobTracker(small_cluster).run_job(wordcount_job(), [])
        assert result.outputs == {}
        assert result.span >= small_cluster.config.job_overhead

    def test_start_time_respected(self, small_cluster):
        _load_wordcount_input(small_cluster)
        result = JobTracker(small_cluster).run_job(
            wordcount_job(), ["/in/batch1"], start=500.0
        )
        assert result.start_time == 500.0

    def test_counters_populated(self, small_cluster):
        _load_wordcount_input(small_cluster)
        result = JobTracker(small_cluster).run_job(wordcount_job(), ["/in/batch1"])
        assert result.counters.get("map.tasks") >= 1
        assert result.counters.get("reduce.tasks") >= 1
        assert result.counters.get("map.input_records") == 200

    def test_reduce_nodes_recorded(self, small_cluster):
        _load_wordcount_input(small_cluster)
        result = JobTracker(small_cluster).run_job(wordcount_job(), ["/in/batch1"])
        assert set(result.reduce_nodes) == set(result.outputs)
        for node_id in result.reduce_nodes.values():
            assert node_id in small_cluster.live_node_ids()

    def test_larger_input_takes_longer(self):
        def span_for(n):
            cluster = Cluster(small_test_config(), seed=3)
            cluster.hdfs.create("/in", make_records(n, size=50_000, key_space=5))
            return JobTracker(cluster).run_job(wordcount_job(), ["/in"]).span

        assert span_for(2000) > span_for(200)

    def test_deterministic(self):
        def fingerprint():
            cluster = Cluster(small_test_config(), seed=3)
            _load_wordcount_input(cluster)
            r = JobTracker(cluster).run_job(wordcount_job(), ["/in/batch1"])
            return (r.finish_time, tuple(sorted(r.merged_output())))

        assert fingerprint() == fingerprint()


class TestFaultyJobs:
    def test_task_failures_slow_job_but_preserve_output(self):
        def run(prob):
            cluster = Cluster(small_test_config(), seed=3)
            records = make_records(500, key_space=5, size=20_000)
            cluster.hdfs.create("/in", records)
            injector = FaultInjector(task_failure_prob=prob, seed=1)
            tracker = JobTracker(cluster, fault_injector=injector)
            return tracker.run_job(wordcount_job(), ["/in"])

        clean = run(0.0)
        faulty = run(0.4)
        assert dict(faulty.merged_output()) == dict(clean.merged_output())
        assert faulty.span > clean.span
        assert faulty.counters.get("task.retries") >= 1


def _exhausted(tracer):
    return [e for e in tracer.events(category="fault") if e.name == "task.exhausted"]


class _DeadPool(SerialBackend):
    """A backend whose worker pool dies past its rebuild budget."""

    def run_tasks(self, fn, calls, **_kw):
        raise WorkerFaultError(
            "pool lost", tasks_lost=len(calls), attempts=3, stats=BatchStats()
        )


class TestAttemptExhaustion:
    """Plain Hadoop has no degraded window: exhaustion fails the job."""

    def test_doomed_reduce_fails_the_job(self, small_cluster):
        _load_wordcount_input(small_cluster)
        injector = FaultInjector(seed=1)
        injector.doom("/reduce/0")
        tracker = JobTracker(small_cluster, fault_injector=injector)
        with pytest.raises(TaskAttemptsExhaustedError) as err:
            tracker.run_job(wordcount_job(), ["/in/batch1"])
        assert err.value.task_key == "wordcount/reduce/0"
        assert err.value.node_id in small_cluster.live_node_ids()
        (event,) = _exhausted(tracker.tracer)
        assert event.node_id == err.value.node_id
        assert event.attrs["task"] == "wordcount/reduce/0"
        assert event.attrs["attempts"] == injector.max_attempts

    def test_terminal_worker_fault_fails_the_job(self, small_cluster):
        _load_wordcount_input(small_cluster)
        tracker = JobTracker(small_cluster, backend=_DeadPool())
        with pytest.raises(TaskAttemptsExhaustedError) as err:
            tracker.run_job(wordcount_job(), ["/in/batch1"], start=100.0)
        assert err.value.task_key == "wordcount/exec-map"
        assert err.value.attempts == 3
        assert isinstance(err.value.__cause__, WorkerFaultError)
        (event,) = _exhausted(tracker.tracer)
        assert event.time == 100.0 + small_cluster.config.job_overhead
        assert event.node_id is None
        assert event.attrs["task"] == "wordcount/exec-map"
