"""Multi-query support: shared pane planning and cross-query caching.

The Semantic Analyzer "takes as input a sequence of recurring queries
with different window constraints" (Sec. 3.1): a source shared by
several queries is partitioned once, at the GCD of all their window
parameters, and the doneQueryMask machinery (Sec. 4.2) coordinates
cache purging across the queries.
"""

from __future__ import annotations

from collections import Counter as PyCounter

import pytest

from repro.core import RecurringQuery, RedoopRuntime, WindowSpec, merging_finalizer
from repro.core.semantic_analyzer import shared_pane_seconds
from repro.hadoop import Cluster, small_test_config

from ..conftest import wordcount_job
from .test_runtime import RATE, batch, feed


def query_for(job, win, slide, name):
    return RecurringQuery(
        name=name,
        job=job,
        windows={"S1": WindowSpec(win=win, slide=slide)},
        finalize=merging_finalizer(sum),
    )


def make_runtime():
    return RedoopRuntime(Cluster(small_test_config(), seed=3))


class TestSharedPanePlanning:
    def test_shared_pane_is_gcd_over_all(self):
        specs = [
            WindowSpec(win=40.0, slide=10.0),  # own pane 10
            WindowSpec(win=30.0, slide=15.0),  # own pane 15
        ]
        assert shared_pane_seconds(specs) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shared_pane_seconds([])

    def test_with_pane_override(self):
        spec = WindowSpec(win=40.0, slide=10.0).with_pane(5.0)
        assert spec.pane_seconds == 5.0
        assert spec.panes_per_window == 8
        assert spec.panes_per_slide == 2

    def test_with_pane_must_divide_gcd(self):
        with pytest.raises(ValueError):
            WindowSpec(win=40.0, slide=10.0).with_pane(3.0)

    def test_with_pane_same_size_is_identity(self):
        spec = WindowSpec(win=40.0, slide=10.0)
        assert spec.with_pane(10.0) is spec

    def test_window_math_consistent_under_override(self):
        base = WindowSpec(win=40.0, slide=10.0)
        fine = base.with_pane(5.0)
        # Same window ranges, twice as many panes.
        assert fine.window_bounds(3) == base.window_bounds(3)
        assert len(fine.panes_in_window(3)) == 2 * len(base.panes_in_window(3))


class TestSharedSourceRuntime:
    def test_pane_files_created_once(self):
        runtime = make_runtime()
        job = wordcount_job(num_reducers=4, name="wc")
        runtime.register_query(query_for(job, 40.0, 10.0, "q-short"), {"S1": RATE})
        runtime.register_query(query_for(job, 60.0, 20.0, "q-long"), {"S1": RATE})
        feed(runtime, 60.0)
        pane_files = runtime.cluster.hdfs.glob("/panes/S1/*")
        # Shared pane = GCD(40,10,60,20) = 10 -> 6 pane files for 60 s.
        assert len(pane_files) == 6

    def test_both_queries_correct(self):
        runtime = make_runtime()
        job = wordcount_job(num_reducers=4, name="wc")
        runtime.register_query(query_for(job, 40.0, 10.0, "q-short"), {"S1": RATE})
        runtime.register_query(query_for(job, 60.0, 20.0, "q-long"), {"S1": RATE})
        records = feed(runtime, 80.0)

        def expect(start, end):
            return dict(
                PyCounter(r.value for r in records if start <= r.ts < end)
            )

        r_short = runtime.run_recurrence("q-short", 1)
        assert dict(r_short.output) == expect(0.0, 40.0)
        r_long = runtime.run_recurrence("q-long", 1)
        assert dict(r_long.output) == expect(0.0, 60.0)
        r_short2 = runtime.run_recurrence("q-short", 2)
        assert dict(r_short2.output) == expect(10.0, 50.0)

    def test_same_job_shares_caches(self):
        """The second query's first window reuses the first query's caches."""
        runtime = make_runtime()
        job = wordcount_job(num_reducers=4, name="wc")
        runtime.register_query(query_for(job, 40.0, 10.0, "q-short"), {"S1": RATE})
        runtime.register_query(query_for(job, 40.0, 20.0, "q-other"), {"S1": RATE})
        feed(runtime, 50.0)
        r1 = runtime.run_recurrence("q-short", 1)
        assert r1.counters.get("cache.pane_hits") == 0
        # q-other reads the same panes with the same job: all cached.
        r2 = runtime.run_recurrence("q-other", 1)
        assert r2.counters.get("cache.pane_hits") == len(
            runtime._states["q-other"].spec("S1").panes_in_window(1)
        )
        assert r2.counters.get("map.tasks") == 0

    def test_different_jobs_do_not_share_caches(self):
        runtime = make_runtime()
        job_a = wordcount_job(num_reducers=4, name="wc-a")
        job_b = wordcount_job(num_reducers=4, name="wc-b")
        runtime.register_query(query_for(job_a, 40.0, 10.0, "qa"), {"S1": RATE})
        runtime.register_query(query_for(job_b, 40.0, 10.0, "qb"), {"S1": RATE})
        feed(runtime, 40.0)
        runtime.run_recurrence("qa", 1)
        r = runtime.run_recurrence("qb", 1)
        assert r.counters.get("cache.pane_hits") == 0  # separate namespaces

    def test_cache_survives_until_all_sharing_queries_done(self):
        """doneQueryMask coordination: purge waits for the slower query."""
        runtime = make_runtime()
        job = wordcount_job(num_reducers=4, name="wc")
        # Same job and source, different windows -> shared caches.
        runtime.register_query(query_for(job, 20.0, 10.0, "fast"), {"S1": RATE})
        runtime.register_query(query_for(job, 40.0, 10.0, "slow"), {"S1": RATE})
        feed(runtime, 80.0)
        # Advance the fast query far enough that pane 0 expires for it.
        runtime.run_recurrence("fast", 1)
        runtime.run_recurrence("fast", 2)
        runtime.run_recurrence("fast", 3)
        runtime.run_recurrence("fast", 4)
        # Pane 0 is done and out of fast's window, but slow has not even
        # run yet — the cache must still exist.
        held = {
            e.pid
            for r in runtime.registries().values()
            for e in r.live_entries()
        }
        assert "wc:S1P0" in held
        # slow's first window reuses it.
        r = runtime.run_recurrence("slow", 1)
        assert r.counters.get("cache.pane_hits") == 4


class TestRegistrationGuards:
    def test_job_name_collision_rejected(self):
        runtime = make_runtime()
        job_a = wordcount_job(num_reducers=4, name="wc")
        job_b = wordcount_job(num_reducers=4, name="wc")  # same name, new obj
        runtime.register_query(query_for(job_a, 40.0, 10.0, "qa"), {"S1": RATE})
        with pytest.raises(ValueError):
            runtime.register_query(query_for(job_b, 40.0, 10.0, "qb"), {"S1": RATE})

    def test_refining_pane_after_ingest_rejected(self):
        runtime = make_runtime()
        job = wordcount_job(num_reducers=4, name="wc")
        runtime.register_query(query_for(job, 40.0, 10.0, "qa"), {"S1": RATE})
        feed(runtime, 20.0)  # data has arrived at pane=10
        other_job = wordcount_job(num_reducers=4, name="wc2")
        with pytest.raises(ValueError):
            # pane would need to shrink to GCD(10, 15) = 5
            runtime.register_query(
                query_for(other_job, 30.0, 15.0, "qb"), {"S1": RATE}
            )

    def test_compatible_late_registration_allowed(self):
        runtime = make_runtime()
        job = wordcount_job(num_reducers=4, name="wc")
        runtime.register_query(query_for(job, 40.0, 10.0, "qa"), {"S1": RATE})
        feed(runtime, 20.0)
        other_job = wordcount_job(num_reducers=4, name="wc2")
        # GCD(40,10,20,10) is still 10: no re-partitioning needed.
        runtime.register_query(
            query_for(other_job, 20.0, 10.0, "qb"), {"S1": RATE}
        )
        assert runtime._states["qb"].spec("S1").pane_seconds == 10.0


class TestChurn:
    """register -> run -> deregister -> re-register on a shared source."""

    def _pair(self, runtime):
        job_a = wordcount_job(num_reducers=4, name="wc-a")
        job_b = wordcount_job(num_reducers=4, name="wc-b")
        runtime.register_query(query_for(job_a, 40.0, 10.0, "qa"), {"S1": RATE})
        runtime.register_query(query_for(job_b, 30.0, 15.0, "qb"), {"S1": RATE})

    def test_deregister_pre_ingest_rederives_coarser_pane(self):
        runtime = make_runtime()
        self._pair(runtime)
        assert runtime.shared_pane("S1") == 5.0  # GCD(40,10,30,15)
        runtime.deregister_query("qb")
        # No data has arrived: the source re-plans at qa's own GCD.
        assert runtime.shared_pane("S1") == 10.0
        assert runtime.counters.get("runtime.queries_deregistered") == 1

    def test_deregister_post_ingest_keeps_finer_pane(self):
        runtime = make_runtime()
        self._pair(runtime)
        records = feed(runtime, 20.0)
        runtime.deregister_query("qb")
        # Pane files at 5 s already exist; they stay (still valid for qa).
        assert runtime.shared_pane("S1") == 5.0
        # And qa still computes the right answer on them.
        for i in (2, 3):
            b, more = batch(i, i * 10.0, (i + 1) * 10.0)
            runtime.ingest(b, more)
            records.extend(more)
        result = runtime.run_recurrence("qa", 1)
        expect = dict(PyCounter(r.value for r in records if r.ts < 40.0))
        assert dict(result.output) == expect

    def test_last_reader_reset_allows_different_slide(self):
        runtime = make_runtime()
        job = wordcount_job(num_reducers=4, name="wc")
        runtime.register_query(query_for(job, 40.0, 10.0, "qa"), {"S1": RATE})
        feed(runtime, 20.0)  # pane fixed at 10 s
        runtime.deregister_query("qa")
        with pytest.raises(ValueError):
            runtime.shared_pane("S1")  # no readers left
        # After a full reset a slide that would have *refined* the old
        # pane is acceptable: partitioning starts from scratch.
        job2 = wordcount_job(num_reducers=4, name="wc2")
        runtime.register_query(query_for(job2, 30.0, 15.0, "qb"), {"S1": RATE})
        assert runtime.shared_pane("S1") == 15.0

    def test_surviving_tenant_answers_unchanged_by_churn(self):
        churned = make_runtime()
        self._pair(churned)
        control = make_runtime()
        control.register_query(
            query_for(wordcount_job(num_reducers=4, name="wc-a"), 40.0, 10.0, "qa"),
            {"S1": RATE},
        )
        feed(churned, 60.0)
        feed(control, 60.0)
        churned.run_recurrence("qb", 1)
        churned.deregister_query("qb")
        for k in (1, 2, 3):
            got = churned.run_recurrence("qa", k)
            want = control.run_recurrence("qa", k)
            assert got.output == want.output, f"recurrence {k} diverged"

    def test_deregister_purges_last_reader_caches(self):
        runtime = make_runtime()
        self._pair(runtime)
        feed(runtime, 40.0)
        runtime.run_recurrence("qa", 1)
        held = lambda: {
            e.pid
            for r in runtime.registries().values()
            for e in r.live_entries()
        }
        assert any(pid.startswith("wc-a:") for pid in held())
        runtime.deregister_query("qa")
        # qa's job namespace had no other readers: everything reclaimed.
        assert not any(pid.startswith("wc-a:") for pid in held())


class TestAbortIsolation:
    """One tenant's degraded-window rollback must not flush the others.

    ``abort_pending`` used to clear both whole task lists; in serve
    mode that silently discarded work other queries had already
    enqueued, stalling their recurrences.
    """

    def _scheduler_with_two_tenants(self):
        from repro.core.scheduler import (
            CacheAwareTaskScheduler,
            MapTaskRequest,
            ReduceTaskRequest,
        )
        from repro.hadoop import Cluster, Counters, small_test_config

        sched = CacheAwareTaskScheduler(
            Cluster(small_test_config(), seed=5), counters=Counters()
        )
        for query in ("qa", "qb"):
            sched.enqueue_map(
                MapTaskRequest(query=query, pid="S1P0", input_bytes=100)
            )
            sched.enqueue_reduce(
                ReduceTaskRequest(
                    query=query,
                    panes=(("S1", 0),),
                    partition=0,
                    input_bytes=100,
                )
            )
        return sched

    def test_abort_pending_filters_by_query(self):
        sched = self._scheduler_with_two_tenants()
        assert sched.abort_pending(query="qa") == 2
        assert [r.query for r in sched.map_task_list] == ["qb"]
        assert [r.query for r in sched.reduce_task_list] == ["qb"]
        assert sched.counters.get("sched.tasks_aborted") == 2

    def test_abort_pending_without_query_flushes_all(self):
        sched = self._scheduler_with_two_tenants()
        assert sched.abort_pending() == 4
        assert not sched.map_task_list
        assert not sched.reduce_task_list

    def test_abort_pending_noop_for_unknown_query(self):
        sched = self._scheduler_with_two_tenants()
        assert sched.abort_pending(query="ghost") == 0
        assert len(sched.map_task_list) == 2
        assert len(sched.reduce_task_list) == 2


class TestPurgeCycleChurn:
    """Registry purge cycles follow query churn (no frozen default).

    The default cycle is the minimum registered slide, but it used to
    be copied into each registry at first touch and never updated —
    after churn, long-lived registries kept sweeping on a departed
    query's cadence.
    """

    def _two_tenant_runtime(self):
        runtime = make_runtime()
        runtime.register_query(
            query_for(wordcount_job(num_reducers=4, name="wc-a"), 40.0, 10.0, "qa"),
            {"S1": RATE},
        )
        runtime.register_query(
            query_for(wordcount_job(num_reducers=4, name="wc-b"), 60.0, 20.0, "qb"),
            {"S1": RATE},
        )
        feed(runtime, 60.0)
        runtime.run_recurrence("qa", 1)
        assert runtime.registries(), "expected registries to exist"
        return runtime

    def test_deregister_rederives_cycle_on_existing_registries(self):
        runtime = self._two_tenant_runtime()
        assert all(
            r.purge_cycle == 10.0 for r in runtime.registries().values()
        )
        runtime.deregister_query("qa")
        assert all(
            r.purge_cycle == 20.0 for r in runtime.registries().values()
        )

    def test_late_registration_rederives_cycle(self):
        runtime = make_runtime()
        runtime.register_query(
            query_for(wordcount_job(num_reducers=4, name="wc-b"), 60.0, 20.0, "qb"),
            {"S1": RATE},
        )
        feed(runtime, 60.0)
        runtime.run_recurrence("qb", 1)
        assert all(
            r.purge_cycle == 20.0 for r in runtime.registries().values()
        )
        # A second tenant with a faster slide tightens every registry.
        # (Slide 20 keeps the shared pane at 20 s; win 40 = 2 panes.)
        runtime.deregister_query("qb")
        runtime.register_query(
            query_for(wordcount_job(num_reducers=4, name="wc-c"), 40.0, 20.0, "qc"),
            {"S1": RATE},
        )
        assert all(
            r.purge_cycle == 20.0 for r in runtime.registries().values()
        )
