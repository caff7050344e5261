"""Graceful degradation: attempt exhaustion at the runtime level."""

from __future__ import annotations


from repro.core import RedoopRuntime
from repro.exec import SerialBackend, WorkerFaultError
from repro.exec.supervisor import BatchStats
from repro.hadoop import Cluster, FaultInjector, small_test_config
from repro.trace import CAT_FAULT, CAT_RECURRENCE

from tests.core.test_runtime import RATE, feed, make_query



def make_doomed_runtime(doom: str = "/w2/") -> RedoopRuntime:
    cluster = Cluster(small_test_config(), seed=3)
    injector = FaultInjector(seed=9)
    injector.doom(doom)
    runtime = RedoopRuntime(cluster, fault_injector=injector)
    runtime.register_query(make_query(), {"S1": RATE})
    return runtime


class TestDegradedWindow:
    def test_run_survives_exhaustion(self):
        runtime = make_doomed_runtime()
        feed(runtime, 70.0)
        r1 = runtime.run_recurrence("wc", 1)
        assert not r1.degraded
        r2 = runtime.run_recurrence("wc", 2)
        assert r2.degraded
        assert r2.output == []
        assert runtime.counters.get("faults.windows_degraded") == 1
        assert r2.counters.get("faults.windows_degraded") == 1

    def test_later_windows_match_fault_free_run(self):
        doomed = make_doomed_runtime()
        clean_cluster = Cluster(small_test_config(), seed=3)
        clean = RedoopRuntime(clean_cluster)
        clean.register_query(make_query(), {"S1": RATE})
        feed(doomed, 90.0)
        feed(clean, 90.0)
        for recurrence in (1, 2, 3):
            got = doomed.run_recurrence("wc", recurrence)
            want = clean.run_recurrence("wc", recurrence)
            if recurrence == 2:
                assert got.degraded
                continue
            assert sorted(map(repr, got.output)) == sorted(
                map(repr, want.output)
            )

    def test_no_partial_caches_leak(self):
        # The degraded recurrence's published caches are rolled back:
        # nothing from window 2's fresh pane survives.
        runtime = make_doomed_runtime()
        feed(runtime, 70.0)
        runtime.run_recurrence("wc", 1)
        before = {
            (e.pid, e.cache_type, e.partition)
            for reg in runtime.registries().values()
            for e in reg.live_entries()
        }
        result = runtime.run_recurrence("wc", 2)
        assert result.degraded
        after = {
            (e.pid, e.cache_type, e.partition)
            for reg in runtime.registries().values()
            for e in reg.live_entries()
        }
        assert after <= before

    def test_scheduler_lists_drained(self):
        runtime = make_doomed_runtime()
        feed(runtime, 70.0)
        runtime.run_recurrence("wc", 1)
        runtime.run_recurrence("wc", 2)
        assert not runtime.scheduler.map_task_list
        assert not runtime.scheduler.reduce_task_list
        assert runtime.counters.get("sched.tasks_aborted") >= 0

    def test_degradation_is_traced(self):
        runtime = make_doomed_runtime()
        feed(runtime, 70.0)
        runtime.run_recurrence("wc", 1)
        runtime.run_recurrence("wc", 2)
        names = [e.name for e in runtime.tracer.events(category=CAT_FAULT)]
        assert "task.exhausted" in names
        assert "window.degraded" in names
        degraded = [
            e
            for e in runtime.tracer.events(category=CAT_FAULT)
            if e.name == "window.degraded"
        ][0]
        assert degraded.attrs["window"] == 2

    def test_doom_is_consumed(self):
        runtime = make_doomed_runtime()
        feed(runtime, 70.0)
        runtime.run_recurrence("wc", 1)
        runtime.run_recurrence("wc", 2)
        assert runtime.faults.doomed() == []
        r3 = runtime.run_recurrence("wc", 3)
        assert not r3.degraded
        assert r3.output


class _DeadPool(SerialBackend):
    """A backend whose worker pool is dead past its rebuild budget."""

    def run_tasks(self, fn, calls, **kwargs):
        raise WorkerFaultError(
            "pool died", tasks_lost=len(calls), attempts=3, stats=BatchStats()
        )


class TestDeadWorkerPool:
    def test_exhaustion_counted_in_the_degraded_window(self):
        cluster = Cluster(small_test_config(), seed=3)
        runtime = RedoopRuntime(cluster, backend=_DeadPool())
        runtime.register_query(make_query(), {"S1": RATE})
        feed(runtime, 50.0)
        result = runtime.run_recurrence("wc", 1)
        assert result.degraded
        # Where a simulated exhaustion is counted: the window's own bag
        # and the recurrence span ``repro report`` reads.
        assert result.counters.get("task.exhausted") == 1
        assert result.counters.get("faults.windows_degraded") == 1
        [span] = runtime.tracer.spans(category=CAT_RECURRENCE)
        assert span.attrs["counters"]["task.exhausted"] == 1
        # The lifetime bag, which also holds exec.*, keeps its copy.
        assert runtime.counters.get("task.exhausted") == 1
        assert runtime.counters.get("faults.windows_degraded") == 1
