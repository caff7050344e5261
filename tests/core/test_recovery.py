"""Tests for cache/node failure recovery (paper Sec. 5, Fig. 9)."""

from __future__ import annotations

from collections import Counter as PyCounter

import pytest

from repro.core import (
    REDUCE_INPUT,
    REDUCE_OUTPUT,
    HDFS_AVAILABLE,
    LostCache,
    RecoveryManager,
)
from repro.hadoop import FaultInjector
from repro.hadoop.timeline import decisions

from .test_runtime import feed, make_runtime


@pytest.fixture
def warm_runtime():
    """A runtime with window 1 executed (caches populated) + later data."""
    runtime = make_runtime()
    records = feed(runtime, 70.0)
    runtime.run_recurrence("wc", 1)
    return runtime, records


class TestInventory:
    def test_live_caches_enumerated(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        caches = recovery.live_caches()
        assert len(caches) == 32  # 4 panes x 4 partitions x 2 types
        assert all(isinstance(c, LostCache) for c in caches)

    def test_keys_unique(self, warm_runtime):
        runtime, _ = warm_runtime
        caches = RecoveryManager(runtime).live_caches()
        keys = [c.key for c in caches]
        assert len(keys) == len(set(keys))


class TestDestroyCache:
    def test_metadata_rolled_back(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        victims = [
            c
            for c in recovery.live_caches()
            if c.pid == "wc:S1P1" and c.cache_type == REDUCE_INPUT
        ]
        for v in victims:
            recovery.destroy_cache(v)
        # Every partition's rin gone -> pane rolls back to HDFS-available
        # once its output caches are destroyed too.
        for v in [
            c for c in recovery.live_caches() if c.pid == "wc:S1P1"
        ]:
            recovery.destroy_cache(v)
        assert runtime.controller.pane_ready("wc:S1P1") == HDFS_AVAILABLE

    def test_unknown_node_rejected(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        with pytest.raises(ValueError):
            recovery.destroy_cache(
                LostCache(node_id=99, pid="S1P0", cache_type=1, partition=0)
            )

    def test_counter_incremented(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        recovery.destroy_cache(recovery.live_caches()[0])
        assert runtime.counters.get("faults.caches_destroyed") == 1


class TestCacheFailureRecovery:
    def test_window_output_correct_after_cache_loss(self, warm_runtime):
        runtime, records = warm_runtime
        recovery = RecoveryManager(runtime)
        injector = FaultInjector(cache_loss_fraction=0.5, seed=1)
        recovery.inject_pane_cache_failures(injector)
        result = runtime.run_recurrence("wc", 2)
        start, end = result.window_bounds["S1"]
        expected = PyCounter(r.value for r in records if start <= r.ts < end)
        assert dict(result.output) == dict(expected)

    def test_lost_panes_remapped(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        injector = FaultInjector(cache_loss_fraction=1.0, seed=1)
        destroyed = recovery.inject_pane_cache_failures(injector)
        assert destroyed
        result = runtime.run_recurrence("wc", 2)
        # All 4 window panes must be re-mapped (no cache survives).
        assert result.counters.get("cache.pane_hits") == 0
        assert result.counters.get("map.tasks") >= 4

    def test_caches_reconstructed_after_loss(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        injector = FaultInjector(cache_loss_fraction=1.0, seed=1)
        recovery.inject_pane_cache_failures(injector)
        runtime.run_recurrence("wc", 2)
        pids = {
            e.pid
            for r in runtime.registries().values()
            for e in r.live_entries()
        }
        # Window 2 panes (1-4) all have caches again.
        assert {"wc:S1P1", "wc:S1P2", "wc:S1P3", "wc:S1P4"} <= pids

    def test_partial_loss_cheaper_than_total_loss(self):
        """Pane-granular caching: losing some panes costs less than all."""

        def response_after_loss(fraction):
            runtime = make_runtime()
            feed(runtime, 70.0)
            runtime.run_recurrence("wc", 1)
            recovery = RecoveryManager(runtime)
            if fraction:
                injector = FaultInjector(cache_loss_fraction=fraction, seed=1)
                recovery.inject_pane_cache_failures(injector)
            return runtime.run_recurrence("wc", 2).response_time

        none = response_after_loss(0.0)
        partial = response_after_loss(0.5)
        total = response_after_loss(1.0)
        assert none <= partial <= total
        assert total > none

    def test_type_filtered_injection(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        injector = FaultInjector(cache_loss_fraction=1.0, seed=1)
        destroyed = recovery.inject_cache_failures(
            injector, cache_type=REDUCE_OUTPUT
        )
        assert destroyed
        assert all(c.cache_type == REDUCE_OUTPUT for c in destroyed)
        # Reduce-input caches survive; merge rebuilds from them.
        result = runtime.run_recurrence("wc", 2)
        assert result.counters.get("cache.rin_rebuilds") > 0


class TestNodeFailureRecovery:
    def test_node_failure_rolls_back_and_recovers(self, warm_runtime):
        runtime, records = warm_runtime
        recovery = RecoveryManager(runtime)
        # Fail a node that hosts at least one cache.
        hosting = {c.node_id for c in recovery.live_caches()}
        victim = sorted(hosting)[0]
        lost = recovery.fail_node(victim)
        assert lost  # caches were lost with the node
        assert victim not in runtime.cluster.live_node_ids()
        result = runtime.run_recurrence("wc", 2)
        start, end = result.window_bounds["S1"]
        expected = PyCounter(r.value for r in records if start <= r.ts < end)
        assert dict(result.output) == dict(expected)

    def test_recover_node_rejoins(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        recovery.fail_node(0)
        recovery.recover_node(0)
        assert 0 in runtime.cluster.live_node_ids()

    def test_queued_reduce_tasks_dropped_on_node_failure(self, warm_runtime):
        """Sec. 5: scheduled tasks using a lost cache must leave the
        ReduceTaskList immediately — matched by job-namespaced pid."""
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        from repro.core.scheduler import ReduceTaskRequest

        hosting = {c.node_id for c in recovery.live_caches()}
        victim = sorted(hosting)[0]
        lost_pids = {
            c.pid for c in recovery.live_caches() if c.node_id == victim
        }
        assert lost_pids

        # Queue reduce tasks over every cache the victim hosts, plus
        # one reading a pane the victim does not host (it must survive).
        surviving_pid = "wc:S1P9"
        assert surviving_pid not in lost_pids
        queued = []
        for i, pid in enumerate(sorted(lost_pids)):
            src, _, idx = pid.rpartition("P")
            request = ReduceTaskRequest(
                query="wc", panes=((src, int(idx)),), partition=i, input_bytes=1
            )
            runtime.scheduler.enqueue_reduce(request)
            queued.append(request)
        keeper = ReduceTaskRequest(
            query="wc", panes=(("wc:S1", 9),), partition=0, input_bytes=1
        )
        runtime.scheduler.enqueue_reduce(keeper)

        lost = recovery.fail_node(victim)
        assert lost
        remaining = list(runtime.scheduler.reduce_task_list)
        # No queued task referencing a lost cache survives; tasks
        # reading unaffected panes do.
        lost_cache_pids = {pid for pid, _t, _p in lost}
        for request in remaining:
            assert not (set(request.pane_pids()) & lost_cache_pids)
        assert keeper in remaining
        assert runtime.counters.get("sched.reduce_dropped") >= len(queued)
        # Dropped tasks are re-created by the next recurrence: drain the
        # keeper so the recurrence starts from clean lists, then run it.
        runtime.scheduler.reduce_task_list.clear()
        result = runtime.run_recurrence("wc", 2)
        assert result.output

    def test_drops_are_traced(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        from repro.core.scheduler import ReduceTaskRequest

        hosting = {c.node_id for c in recovery.live_caches()}
        victim = sorted(hosting)[0]
        pid = sorted(
            c.pid for c in recovery.live_caches() if c.node_id == victim
        )[0]
        src, _, idx = pid.rpartition("P")
        request = ReduceTaskRequest(
            query="wc", panes=((src, int(idx)),), partition=0, input_bytes=1
        )
        runtime.scheduler.enqueue_reduce(request)
        recovery.fail_node(victim)
        drops = decisions(runtime.tracer, event="drop")
        assert any(d.request is request for d in drops)

    def test_sticky_partitions_remap_after_node_loss(self, warm_runtime):
        """Partitions homed on a dead node move elsewhere."""
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        state = runtime._states["wc"]
        victim = next(iter(state.partition_nodes.values()))
        recovery.fail_node(victim)
        runtime.run_recurrence("wc", 2)
        # The dead node's registry stays empty; new cache placements all
        # land on live nodes.
        for registry in runtime.registries().values():
            if registry.node.node_id == victim:
                assert not registry.live_entries()
        for signature in runtime.controller.signatures():
            assert victim not in signature.nodes


class TestSeededInjection:
    def test_same_seed_same_victims(self):
        # Two identical runtimes + same-seed injectors pick byte-identical
        # victim lists: chaos schedules replay deterministically.
        def victims(seed):
            runtime = make_runtime()
            feed(runtime, 70.0)
            runtime.run_recurrence("wc", 1)
            recovery = RecoveryManager(runtime)
            injector = FaultInjector(cache_loss_fraction=0.5, seed=seed)
            return [c.key for c in recovery.inject_cache_failures(injector)]

        assert victims(7) == victims(7)
        assert victims(7) != victims(8)

    def test_corruption_victims_deterministic(self):
        def victims(seed):
            runtime = make_runtime()
            feed(runtime, 70.0)
            runtime.run_recurrence("wc", 1)
            recovery = RecoveryManager(runtime)
            injector = FaultInjector(cache_corruption_fraction=0.5, seed=seed)
            return [c.key for c in recovery.inject_cache_corruption(injector)]

        assert victims(7) == victims(7)

    def test_fraction_override_wins(self, warm_runtime):
        runtime, _ = warm_runtime
        recovery = RecoveryManager(runtime)
        # Injector says "lose nothing"; the per-event fraction says 100%.
        injector = FaultInjector(cache_loss_fraction=0.0, seed=1)
        destroyed = recovery.inject_cache_failures(injector, fraction=1.0)
        assert len(destroyed) == 32

    def test_same_seed_same_digest_after_recovery(self):
        def digest(seed):
            runtime = make_runtime()
            feed(runtime, 90.0)
            runtime.run_recurrence("wc", 1)
            recovery = RecoveryManager(runtime)
            injector = FaultInjector(cache_loss_fraction=0.5, seed=seed)
            recovery.inject_cache_failures(injector)
            result = runtime.run_recurrence("wc", 2)
            return tuple(sorted(map(repr, result.output)))

        assert digest(7) == digest(7)
