"""Unit tests for the Cache-Aware Task Scheduler (Algorithm 2, Eq. 4)."""

from __future__ import annotations

import pytest

from repro.core.scheduler import (
    CacheAwareTaskScheduler,
    MapTaskRequest,
    ReduceTaskRequest,
)
from repro.hadoop import Cluster, small_test_config
from repro.hadoop.node import MAP_SLOT, REDUCE_SLOT
from repro.hadoop.types import MEGABYTE


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(small_test_config(), seed=5)


@pytest.fixture
def scheduler(cluster) -> CacheAwareTaskScheduler:
    return CacheAwareTaskScheduler(cluster)


def map_request(nbytes=8 * MEGABYTE, locations=()):
    return MapTaskRequest(
        query="q", pid="S1P0", input_bytes=nbytes, locations=tuple(locations)
    )


def reduce_request(nbytes=8 * MEGABYTE, cached=(), partition=0):
    return ReduceTaskRequest(
        query="q",
        panes=(("S1", 0),),
        partition=partition,
        input_bytes=nbytes,
        cached_bytes_by_node=tuple(cached),
    )


class TestEq4MapSelection:
    def test_prefers_data_local_node(self, scheduler):
        node = scheduler.select_map_node(map_request(locations=[2]), now=0.0)
        assert node.node_id == 2

    def test_load_outweighs_locality(self, scheduler, cluster):
        # Pile enough work on the local node that Eq. 4 sends the task away.
        for _ in range(cluster.config.map_slots_per_node):
            cluster.node(2).occupy_slot(MAP_SLOT, 0.0, 1000.0)
        node = scheduler.select_map_node(map_request(locations=[2]), now=0.0)
        assert node.node_id != 2

    def test_locality_wins_under_mild_load(self, scheduler, cluster):
        # A small load on the local node should not evict the task:
        # the I/O penalty of going remote exceeds the wait.
        cluster.node(2).occupy_slot(MAP_SLOT, 0.0, 0.01)
        node = scheduler.select_map_node(
            map_request(nbytes=64 * MEGABYTE, locations=[2]), now=0.0
        )
        assert node.node_id == 2

    def test_no_live_nodes_raises(self, scheduler, cluster):
        for nid in list(cluster.live_node_ids()):
            cluster.fail_node(nid)
        with pytest.raises(RuntimeError):
            scheduler.select_map_node(map_request(), now=0.0)


class TestEq4ReduceSelection:
    def test_prefers_cache_host(self, scheduler):
        request = reduce_request(cached=[(3, 8 * MEGABYTE)])
        node = scheduler.select_reduce_node(request, now=0.0)
        assert node.node_id == 3

    def test_overloaded_cache_host_loses(self, scheduler, cluster):
        for _ in range(cluster.config.reduce_slots_per_node):
            cluster.node(3).occupy_slot(REDUCE_SLOT, 0.0, 1000.0)
        request = reduce_request(cached=[(3, 8 * MEGABYTE)])
        node = scheduler.select_reduce_node(request, now=0.0)
        assert node.node_id != 3

    def test_partial_cache_weighting(self, scheduler):
        # Node 1 holds more of the input than node 2: node 1 wins.
        request = reduce_request(
            nbytes=10 * MEGABYTE,
            cached=[(1, 6 * MEGABYTE), (2, 2 * MEGABYTE)],
        )
        assert scheduler.select_reduce_node(request, now=0.0).node_id == 1

    def test_deterministic_tiebreak_by_node_id(self, scheduler):
        node = scheduler.select_reduce_node(reduce_request(), now=0.0)
        assert node.node_id == 0


class TestTaskLists:
    def test_map_fifo(self, scheduler):
        a, b = map_request(), map_request()
        scheduler.enqueue_map(a)
        scheduler.enqueue_map(b)
        assert scheduler.next_map() is a
        assert scheduler.next_map() is b
        assert scheduler.next_map() is None

    def test_reduce_prefers_fully_cached(self, scheduler):
        uncached = reduce_request(nbytes=10, cached=())
        partial = reduce_request(nbytes=10, cached=[(0, 4)])
        full = reduce_request(nbytes=10, cached=[(0, 10)])
        for r in (uncached, partial, full):
            scheduler.enqueue_reduce(r)
        assert scheduler.next_reduce() is full
        assert scheduler.next_reduce() is partial
        assert scheduler.next_reduce() is uncached
        assert scheduler.next_reduce() is None

    def test_reduce_fifo_within_class(self, scheduler):
        first = reduce_request(partition=0)
        second = reduce_request(partition=1)
        scheduler.enqueue_reduce(first)
        scheduler.enqueue_reduce(second)
        assert scheduler.next_reduce() is first

    def test_drop_reduce_tasks_using_lost_cache(self, scheduler):
        keep = ReduceTaskRequest(
            query="q", panes=(("S1", 1),), partition=0, input_bytes=1
        )
        drop = ReduceTaskRequest(
            query="q", panes=(("S1", 0), ("S2", 3)), partition=0, input_bytes=1
        )
        scheduler.enqueue_reduce(keep)
        scheduler.enqueue_reduce(drop)
        removed = scheduler.drop_reduce_tasks_using("S2P3")
        assert removed == [drop]
        assert list(scheduler.reduce_task_list) == [keep]

    def test_drop_with_no_match_is_noop(self, scheduler):
        keep = reduce_request()
        scheduler.enqueue_reduce(keep)
        assert scheduler.drop_reduce_tasks_using("S9P9") == []
        assert list(scheduler.reduce_task_list) == [keep]

    def test_drop_matches_job_namespaced_pids(self, scheduler):
        """Runtime requests carry qsource names like ``wc:S1``; a lost
        cache reported as ``wc:S1P3`` must match them."""
        drop = ReduceTaskRequest(
            query="wc", panes=(("wc:S1", 3),), partition=0, input_bytes=1
        )
        keep = ReduceTaskRequest(
            query="wc", panes=(("wc:S1", 4),), partition=0, input_bytes=1
        )
        scheduler.enqueue_reduce(drop)
        scheduler.enqueue_reduce(keep)
        assert scheduler.drop_reduce_tasks_using("wc:S1P3") == [drop]
        assert list(scheduler.reduce_task_list) == [keep]

    def test_drop_matches_combination_pids(self, scheduler):
        """A lost join-output cache (``AxB`` pid) drops every queued
        task reading either constituent pane."""
        reads_a = ReduceTaskRequest(
            query="j", panes=(("j:S1", 1),), partition=0, input_bytes=1
        )
        reads_b = ReduceTaskRequest(
            query="j", panes=(("j:S2", 2),), partition=1, input_bytes=1
        )
        keep = ReduceTaskRequest(
            query="j", panes=(("j:S1", 9),), partition=2, input_bytes=1
        )
        for r in (reads_a, reads_b, keep):
            scheduler.enqueue_reduce(r)
        removed = scheduler.drop_reduce_tasks_using("j:S1P1xj:S2P2")
        assert removed == [reads_a, reads_b]
        assert list(scheduler.reduce_task_list) == [keep]

    def test_drop_keeps_equal_duplicates_not_using_the_cache(self, scheduler):
        """Equal duplicate requests must be judged independently: the
        old ``r not in removed`` filter dropped innocent twins."""
        twin_a = reduce_request(partition=7)
        twin_b = reduce_request(partition=7)
        assert twin_a == twin_b and twin_a is not twin_b
        victim = ReduceTaskRequest(
            query="q", panes=(("S2", 0),), partition=7, input_bytes=1
        )
        for r in (twin_a, victim, twin_b):
            scheduler.enqueue_reduce(r)
        removed = scheduler.drop_reduce_tasks_using("S2P0")
        assert removed == [victim]
        assert list(scheduler.reduce_task_list) == [twin_a, twin_b]
        assert scheduler.reduce_task_list[0] is twin_a
        assert scheduler.reduce_task_list[1] is twin_b


class TestCacheRank:
    rank = staticmethod(CacheAwareTaskScheduler._cache_rank)

    def test_rank_ordering_full_partial_empty(self):
        full = reduce_request(nbytes=10, cached=[(0, 10)])
        partial = reduce_request(nbytes=10, cached=[(0, 4)])
        empty = reduce_request(nbytes=10, cached=())
        ranks = [self.rank(r) for r in (full, partial, empty)]
        assert ranks == [0, 1, 2]
        assert ranks == sorted(ranks)

    def test_overfull_coverage_is_fully_cached(self):
        assert self.rank(reduce_request(nbytes=10, cached=[(0, 6), (1, 6)])) == 0

    def test_zero_input_is_not_fully_cached(self):
        """A request with nothing to read must not jump the queue as
        "fully cached" — the phantom-request bug."""
        assert self.rank(reduce_request(nbytes=0, cached=())) == 2
        assert self.rank(reduce_request(nbytes=0, cached=[(0, 5)])) == 2

    def test_zero_input_never_precedes_cached_work(self, scheduler):
        empty = reduce_request(nbytes=0)
        cached = reduce_request(nbytes=10, cached=[(0, 10)])
        scheduler.enqueue_reduce(empty)
        scheduler.enqueue_reduce(cached)
        assert scheduler.next_reduce() is cached
        assert scheduler.next_reduce() is empty


class TestContendedOrdering:
    def test_rank_order_decides_slot_assignment_under_contention(self, cluster):
        """Algorithm 2's pop order must decide who gets the early slots
        when reduce slots are contended: fully cached tasks run first,
        then partially cached, then uncached — regardless of enqueue
        order."""
        scheduler = CacheAwareTaskScheduler(cluster)
        uncached = reduce_request(nbytes=10 * MEGABYTE, partition=0)
        partial = reduce_request(
            nbytes=10 * MEGABYTE, cached=[(1, 4 * MEGABYTE)], partition=1
        )
        full = reduce_request(
            nbytes=10 * MEGABYTE, cached=[(2, 10 * MEGABYTE)], partition=2
        )
        for r in (uncached, partial, full):  # worst-first enqueue order
            scheduler.enqueue_reduce(r)

        starts = {}
        now = 0.0
        while True:
            request = scheduler.next_reduce()
            if request is None:
                break
            node = scheduler.select_reduce_node(request, now)
            start = max(now, node.earliest_slot_time(REDUCE_SLOT))
            node.occupy_slot(REDUCE_SLOT, now, 100.0)
            starts[request.partition] = start
            now = start  # serialise: each pop contends with the last

        assert starts[2] <= starts[1] <= starts[0]


class TestDecisionLog:
    def test_pops_and_selects_are_recorded_with_rank(self, cluster):
        from repro.hadoop.timeline import decisions
        from repro.trace import Tracer

        tracer = Tracer()
        scheduler = CacheAwareTaskScheduler(cluster, tracer=tracer)
        full = reduce_request(nbytes=10, cached=[(1, 10)])
        uncached = reduce_request(nbytes=10)
        scheduler.enqueue_reduce(uncached)
        scheduler.enqueue_reduce(full)

        popped = scheduler.next_reduce()
        scheduler.select_reduce_node(popped, now=0.0)

        [pop] = decisions(tracer, event="pop", kind=REDUCE_SLOT)
        assert pop.request is full
        assert pop.rank == 0
        [select] = decisions(tracer, event="select", kind=REDUCE_SLOT)
        assert select.request is full
        assert select.node_id == 1
        assert select.load is not None and select.c_task is not None

    def test_counters_track_dispatch_by_rank(self, cluster):
        from repro.hadoop.counters import Counters

        counters = Counters()
        scheduler = CacheAwareTaskScheduler(cluster, counters=counters)
        scheduler.enqueue_reduce(reduce_request(nbytes=10, cached=[(0, 10)]))
        scheduler.enqueue_reduce(reduce_request(nbytes=10))
        scheduler.next_reduce()
        scheduler.next_reduce()
        assert counters.get("sched.reduce_enqueued") == 2
        assert counters.get("sched.reduce_dispatched") == 2
        assert counters.get("sched.reduce_rank0_dispatched") == 1
        assert counters.get("sched.reduce_rank2_dispatched") == 1


class TestEq4DecisionRecord:
    """The recorded ``load``/``c_task`` are the terms the winner won on."""

    @pytest.fixture
    def loaded(self, cluster):
        # Uneven pending work, so load and locality pull different ways.
        for node_id, seconds in ((0, 3.0), (1, 0.5), (2, 7.25)):
            cluster.node(node_id).occupy_slot(MAP_SLOT, 0.0, seconds)
            cluster.node(node_id).occupy_slot(REDUCE_SLOT, 0.0, seconds / 2)
        return cluster

    @staticmethod
    def traced(cluster):
        from repro.trace import Tracer

        tracer = Tracer()
        return CacheAwareTaskScheduler(cluster, tracer=tracer), tracer

    def test_map_select_records_winner_terms(self, loaded):
        from repro.hadoop.timeline import decisions

        scheduler, tracer = self.traced(loaded)
        request = map_request(nbytes=64 * MEGABYTE, locations=[2])
        node = scheduler.select_map_node(request, now=1.0)

        def io_cost(n):
            local = request.input_bytes if n.node_id == 2 else 0
            return loaded.cost_model.task_io_cost(
                request.input_bytes, bytes_local=local
            )

        expected = min(
            loaded.live_nodes(),
            key=lambda n: (n.load_at(1.0) + io_cost(n), n.node_id),
        )
        [select] = decisions(tracer, event="select", kind=MAP_SLOT)
        assert node is expected and select.node_id == node.node_id
        assert select.load == node.load_at(1.0)
        assert select.c_task == io_cost(node)

    def test_reduce_select_records_winner_terms(self, loaded):
        from repro.hadoop.timeline import decisions

        scheduler, tracer = self.traced(loaded)
        request = reduce_request(
            nbytes=16 * MEGABYTE, cached=[(2, 12 * MEGABYTE), (1, 4 * MEGABYTE)]
        )
        node = scheduler.select_reduce_node(request, now=1.0)
        cached = dict(request.cached_bytes_by_node)

        def io_cost(n):
            return loaded.cost_model.task_io_cost(
                request.input_bytes,
                bytes_local=min(cached.get(n.node_id, 0), request.input_bytes),
            )

        expected = min(
            loaded.live_nodes(),
            key=lambda n: (n.load_at(1.0) + io_cost(n), n.node_id),
        )
        [select] = decisions(tracer, event="select", kind=REDUCE_SLOT)
        assert node is expected and select.node_id == node.node_id
        assert select.load == node.load_at(1.0)
        assert select.c_task == io_cost(node)

    def test_load_evaluated_once_per_candidate(self, loaded, monkeypatch):
        from repro.hadoop.node import TaskNode

        calls = []
        original = TaskNode.load_at

        def spy(self, now):
            calls.append(self.node_id)
            return original(self, now)

        monkeypatch.setattr(TaskNode, "load_at", spy)
        scheduler, _tracer = self.traced(loaded)
        scheduler.select_map_node(map_request(locations=[2]), now=1.0)
        scheduler.select_reduce_node(reduce_request(cached=[(1, 10)]), now=1.0)
        assert sorted(calls) == sorted(2 * loaded.live_node_ids())

    @pytest.mark.parametrize(
        "place, holders",
        [
            (lambda s: s.select_map_node(map_request(), now=1.0), 0),
            (lambda s: s.select_map_node(map_request(locations=[2]), now=1.0), 1),
            (
                lambda s: s.select_reduce_node(
                    reduce_request(cached=[(2, 6), (1, 2)]), now=1.0
                ),
                2,
            ),
        ],
        ids=["map-no-replica", "map-one-replica", "reduce-two-holders"],
    )
    def test_c_task_priced_once_plus_once_per_holder(self, loaded, monkeypatch, place, holders):
        """Nodes holding none of the input share one C_task price."""
        from repro.hadoop.costmodel import CostModel

        calls = []
        original = CostModel.task_io_cost

        def spy(self, input_bytes, *, bytes_local=0.0):
            calls.append(bytes_local)
            return original(self, input_bytes, bytes_local=bytes_local)

        monkeypatch.setattr(CostModel, "task_io_cost", spy)
        scheduler, _tracer = self.traced(loaded)
        place(scheduler)
        assert len(loaded.live_node_ids()) > 1 + holders
        assert len(calls) <= 1 + holders
