"""End-to-end tests: the task lists are the only path to execution.

The acceptance bar for the scheduler refactor (Sec. 4.3, Algorithm 2):
in a two-query run, every map and reduce task the runtime executes must
be the *object* popped from the corresponding task list — no
enqueue-then-discard, no side-channel selection on a request that was
never dequeued. The scheduling trace records pops, Eq. 4 selections,
and executions with the request objects themselves, so identity (not
mere equality) is assertable.
"""

from __future__ import annotations


from repro.core import RecurringQuery, RedoopRuntime, WindowSpec, merging_finalizer
from repro.hadoop import Cluster, small_test_config
from repro.hadoop.node import MAP_SLOT, REDUCE_SLOT
from repro.hadoop.timeline import decisions

from ..conftest import wordcount_job
from .test_runtime import RATE, WIN, SLIDE, batch, feed, make_query


def make_two_query_runtime() -> RedoopRuntime:
    """Two queries sharing source S1, registered before ingest."""
    cluster = Cluster(small_test_config(), seed=3)
    runtime = RedoopRuntime(cluster)
    runtime.register_query(make_query(name="wc"), {"S1": RATE})
    second = RecurringQuery(
        name="wc2",
        job=wordcount_job(num_reducers=3, name="wc2"),
        windows={"S1": WindowSpec(win=WIN, slide=SLIDE)},
        finalize=merging_finalizer(sum),
    )
    runtime.register_query(second, {"S1": RATE})
    return runtime


class TestExecutedIsPopped:
    def test_every_executed_task_is_the_popped_request(self):
        runtime = make_two_query_runtime()
        feed(runtime, 70.0)
        results = runtime.run_due_recurrences(70.0)
        assert len(results) >= 2  # both queries ran at least once
        assert all(r.output for r in results)

        for kind in (MAP_SLOT, REDUCE_SLOT):
            pops = decisions(runtime.tracer, event="pop", kind=kind)
            execs = decisions(runtime.tracer, event="execute", kind=kind)
            assert execs, f"no {kind} executions were traced"
            # Every executed request object IS a popped one, in the
            # exact order the task list dictated.
            assert len(pops) == len(execs)
            for pop, ex in zip(pops, execs):
                assert ex.request is pop.request

    def test_both_queries_flow_through_the_lists(self):
        runtime = make_two_query_runtime()
        feed(runtime, 50.0)
        runtime.run_recurrence("wc")
        runtime.run_recurrence("wc2")
        queries = {d.request.query for d in decisions(runtime.tracer, event="pop")}
        assert queries == {"wc", "wc2"}

    def test_task_lists_drain_empty_after_a_recurrence(self):
        runtime = make_two_query_runtime()
        feed(runtime, 50.0)
        runtime.run_recurrence("wc")
        assert not runtime.scheduler.map_task_list
        assert not runtime.scheduler.reduce_task_list

    def test_selects_carry_eq4_evidence(self):
        runtime = make_two_query_runtime()
        feed(runtime, 50.0)
        runtime.run_recurrence("wc")
        selects = decisions(runtime.tracer, event="select")
        assert selects
        for d in selects:
            assert d.node_id is not None
            assert d.load is not None
            assert d.c_task is not None


class TestMapEligibility:
    def test_arrived_panes_become_map_eligible(self):
        runtime = make_two_query_runtime()
        feed(runtime, 20.0)
        eligible = runtime.map_eligible()
        assert "wc:S1P0" in eligible
        assert "wc2:S1P0" in eligible

    def test_processing_retires_eligibility(self):
        runtime = make_two_query_runtime()
        feed(runtime, 50.0)
        runtime.run_recurrence("wc")
        # Every wc pane in the first window now has caches.
        eligible = runtime.map_eligible()
        assert not any(
            pid.startswith("wc:") and pid in eligible
            for pid in (f"wc:S1P{i}" for i in range(4))
        )

    def test_counter_tracks_transitions(self):
        runtime = make_two_query_runtime()
        feed(runtime, 20.0)
        assert runtime.counters.get("sched.map_eligible_transitions") > 0


class TestStickyReduceTarget:
    def test_partition_nodes_reused_across_recurrences(self):
        runtime = make_two_query_runtime()
        feed(runtime, 50.0)
        runtime.run_recurrence("wc")
        b, records = batch(5, 50.0, 60.0)
        runtime.ingest(b, records)
        runtime.run_recurrence("wc")
        assert runtime.counters.get("sched.sticky_reuses") > 0

    def test_no_phantom_requests_in_trace(self):
        """Every traced reduce request names its panes and partition —
        the phantom ``ReduceTaskRequest(panes=(), input_bytes=0)`` that
        used to drive node selection is gone."""
        runtime = make_two_query_runtime()
        feed(runtime, 50.0)
        runtime.run_recurrence("wc")
        for d in decisions(runtime.tracer, kind=REDUCE_SLOT):
            assert d.request.panes, f"phantom request traced: {d.request!r}"
