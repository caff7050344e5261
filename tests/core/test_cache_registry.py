"""Unit tests for the Local Cache Registry (paper Sec. 4.1, Table 1)."""

from __future__ import annotations

import pytest

from repro.core.cache_registry import (
    REDUCE_INPUT,
    REDUCE_OUTPUT,
    LocalCacheRegistry,
    cache_file_name,
)
from repro.hadoop.node import TaskNode


@pytest.fixture
def node() -> TaskNode:
    return TaskNode(0, map_slots=2, reduce_slots=1)


@pytest.fixture
def registry(node) -> LocalCacheRegistry:
    return LocalCacheRegistry(node, purge_cycle=100.0)


class TestValidation:
    def test_purge_cycle_positive(self, node):
        with pytest.raises(ValueError):
            LocalCacheRegistry(node, purge_cycle=0.0)

    def test_capacity_positive_when_set(self, node):
        with pytest.raises(ValueError):
            LocalCacheRegistry(node, capacity_bytes=0)

    def test_unknown_cache_type_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.add_entry("S1P1", 9, 0, 10, None)

    def test_negative_partition_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.add_entry("S1P1", REDUCE_INPUT, -1, 10, None)


class TestPaperTable1Example:
    def test_registry_rows(self, registry):
        """Table 1: S1P3 expired reduce-output; S2P4 live reduce-input."""
        registry.add_entry("S1P3", REDUCE_OUTPUT, 0, 10, ["x"])
        registry.add_entry("S2P4", REDUCE_INPUT, 0, 10, ["y"])
        registry.mark_expired(["S1P3"])
        rows = {(e.pid, e.cache_type, e.expiration) for e in registry.entries()}
        assert rows == {
            ("S1P3", REDUCE_OUTPUT, True),
            ("S2P4", REDUCE_INPUT, False),
        }


class TestAddAndRead:
    def test_roundtrip(self, registry):
        registry.add_entry("S1P1", REDUCE_INPUT, 3, 128, [("k", 1)])
        payload, size = registry.read("S1P1", REDUCE_INPUT, 3)
        assert payload == [("k", 1)]
        assert size == 128

    def test_has_distinguishes_type_and_partition(self, registry):
        registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, None)
        assert registry.has("S1P1", REDUCE_INPUT, 0)
        assert not registry.has("S1P1", REDUCE_OUTPUT, 0)
        assert not registry.has("S1P1", REDUCE_INPUT, 1)

    def test_read_missing_raises(self, registry):
        with pytest.raises(KeyError):
            registry.read("nope", REDUCE_INPUT, 0)

    def test_overwrite_for_reconstruction(self, registry):
        registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, "old")
        registry.add_entry("S1P1", REDUCE_INPUT, 0, 20, "new")
        payload, size = registry.read("S1P1", REDUCE_INPUT, 0)
        assert (payload, size) == ("new", 20)

    def test_cached_bytes(self, registry):
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("b", REDUCE_OUTPUT, 0, 32, None)
        assert registry.cached_bytes == 42

    def test_file_naming_convention(self):
        assert cache_file_name("S1P3", REDUCE_INPUT, 5) == "cache/rin/S1P3/part-00005"
        assert cache_file_name("S1P3", REDUCE_OUTPUT, 5) == "cache/rout/S1P3/part-00005"


class TestExpiration:
    def test_mark_expired_flags_matching_pids(self, registry):
        registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("S1P1", REDUCE_OUTPUT, 0, 10, None)
        registry.add_entry("S1P2", REDUCE_INPUT, 0, 10, None)
        assert registry.mark_expired(["S1P1"]) == 2
        assert not registry.has("S1P1", REDUCE_INPUT, 0)
        assert registry.has("S1P2", REDUCE_INPUT, 0)

    def test_mark_expired_idempotent(self, registry):
        registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["S1P1"])
        assert registry.mark_expired(["S1P1"]) == 0

    def test_expired_data_stays_until_purge(self, registry, node):
        entry = registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["S1P1"])
        assert node.has_local(entry.local_name)  # data not yet deleted


class TestPurging:
    def test_periodic_purge_respects_cycle(self, registry, node):
        entry = registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["S1P1"])
        assert registry.periodic_purge(now=50.0) == []  # cycle not elapsed
        purged = registry.periodic_purge(now=150.0)
        assert [e.pid for e in purged] == ["S1P1"]
        assert not node.has_local(entry.local_name)

    def test_periodic_purge_only_removes_expired(self, registry):
        registry.add_entry("live", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("dead", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["dead"])
        purged = registry.periodic_purge(now=200.0)
        assert [e.pid for e in purged] == ["dead"]
        assert registry.has("live", REDUCE_INPUT, 0)

    def test_on_demand_purge_ignores_cycle(self, registry):
        registry.add_entry("x", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["x"])
        assert [e.pid for e in registry.on_demand_purge()] == ["x"]

    def test_maybe_purge_on_demand_when_over_capacity(self, node):
        registry = LocalCacheRegistry(node, purge_cycle=1e9, capacity_bytes=15)
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("b", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["a"])
        # Over capacity (20 > 15): purge immediately despite the cycle.
        purged = registry.maybe_purge(now=1.0)
        assert [e.pid for e in purged] == ["a"]

    def test_maybe_purge_periodic_under_capacity(self, node):
        registry = LocalCacheRegistry(node, purge_cycle=100.0, capacity_bytes=1000)
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["a"])
        assert registry.maybe_purge(now=1.0) == []  # too early, under budget
        assert len(registry.maybe_purge(now=150.0)) == 1

    def test_maybe_purge_compares_cached_not_local_bytes(self, node):
        """Non-cache local data must not trigger on-demand purging.

        The node also hosts HDFS blocks, shuffle runs, and tmp spills;
        the budget governs *cache* bytes only. A registry that compared
        ``node.local_bytes`` would sweep expired caches early whenever
        unrelated local data pushed the node past the budget.
        """
        registry = LocalCacheRegistry(node, purge_cycle=1e9, capacity_bytes=1000)
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["a"])
        node.store_local("tmp/unrelated", 5000, None, created_at=0.0)
        assert node.local_bytes > registry.capacity_bytes
        assert registry.cached_bytes <= registry.capacity_bytes
        assert registry.maybe_purge(now=1.0) == []  # cycle gates, budget ok

    def test_over_budget_noop_sweep_counted(self, node):
        from repro.hadoop import Counters

        counters = Counters()
        registry = LocalCacheRegistry(
            node, purge_cycle=1e9, capacity_bytes=15, counters=counters
        )
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("b", REDUCE_INPUT, 0, 10, None)
        # Over budget but nothing expired: the sweep reclaims nothing
        # and says so, instead of silently returning [].
        assert registry.maybe_purge(now=1.0) == []
        assert counters.get("cache.purge_noop") == 1

    def test_on_demand_before_periodic_when_both_due(self, node):
        """Over budget *and* cycle elapsed: the on-demand path wins.

        Expired entries are swept exactly once either way; a follow-up
        sweep (now under budget, periodic path) finds nothing left.
        """
        registry = LocalCacheRegistry(node, purge_cycle=50.0, capacity_bytes=15)
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("b", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["a"])
        purged = registry.maybe_purge(now=100.0)
        assert [e.pid for e in purged] == ["a"]
        assert registry.maybe_purge(now=101.0) == []

    def test_eviction_candidates_skip_expired_and_unbacked(self, node):
        registry = LocalCacheRegistry(node, purge_cycle=100.0)
        registry.add_entry("live", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("dead", REDUCE_INPUT, 0, 10, None)
        gone = registry.add_entry("gone", REDUCE_INPUT, 0, 10, None)
        registry.mark_expired(["dead"])
        node.delete_local(gone.local_name)
        assert [e.pid for e in registry.eviction_candidates()] == ["live"]


class TestFailureBookkeeping:
    def test_drop_lost_forgets_entry(self, registry):
        registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, None)
        registry.drop_lost("S1P1", REDUCE_INPUT, 0)
        assert not registry.has("S1P1", REDUCE_INPUT, 0)
        # dropping again is harmless
        registry.drop_lost("S1P1", REDUCE_INPUT, 0)

    def test_forget_all(self, registry):
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("b", REDUCE_OUTPUT, 1, 10, None)
        registry.forget_all()
        assert registry.entries() == []

    def test_has_false_when_backing_file_destroyed(self, registry, node):
        entry = registry.add_entry("S1P1", REDUCE_INPUT, 0, 10, None)
        node.delete_local(entry.local_name)
        assert not registry.has("S1P1", REDUCE_INPUT, 0)


class _CountingNode(TaskNode):
    """A node that counts ``has_local`` probes, the registry's unit of work."""

    has_local_calls = 0

    def has_local(self, name: str) -> bool:
        self.has_local_calls += 1
        return super().has_local(name)


class TestByteAccounting:
    """``cached_bytes`` is a running total; it must stay exact and O(1)."""

    @staticmethod
    def backed_sum(registry) -> int:
        return sum(
            e.size
            for e in registry.entries()
            if registry.node.has_local(e.local_name)
        )

    def test_exact_through_every_update(self, registry):
        def check(expected, peak):
            assert registry.cached_bytes == expected == self.backed_sum(registry)
            assert registry.peak_cached_bytes == peak

        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        registry.add_entry("b", REDUCE_OUTPUT, 0, 32, None)
        check(42, 42)
        registry.add_entry("a", REDUCE_INPUT, 0, 4, None)  # overwrite
        check(36, 42)
        registry.drop_lost("b", REDUCE_OUTPUT, 0)
        registry.drop_lost("b", REDUCE_OUTPUT, 0)  # already gone: no change
        check(4, 42)
        registry.add_entry("c", REDUCE_INPUT, 1, 50, None)
        registry.mark_expired(["c"])
        check(54, 54)  # expired entries count until the sweep
        assert [e.pid for e in registry.on_demand_purge()] == ["c"]
        check(4, 54)
        registry.forget_all()
        check(0, 54)

    def test_dead_node_holds_nothing(self, registry, node):
        registry.add_entry("a", REDUCE_INPUT, 0, 10, None)
        node.fail()
        assert registry.cached_bytes == 0
        registry.forget_all()  # what RecoveryManager.fail_node does
        node.recover()
        assert registry.cached_bytes == 0
        registry.add_entry("a", REDUCE_INPUT, 0, 7, None)
        assert registry.cached_bytes == 7

    def test_add_entry_cost_independent_of_registry_size(self):
        def probes_for_one_add(existing: int) -> int:
            node = _CountingNode(0, map_slots=1, reduce_slots=1)
            registry = LocalCacheRegistry(node)
            for i in range(existing):
                registry.add_entry(f"p{i}", REDUCE_INPUT, 0, 1, None)
            node.has_local_calls = 0
            registry.add_entry("new", REDUCE_INPUT, 0, 1, None)
            assert registry.cached_bytes == existing + 1
            return node.has_local_calls

        assert probes_for_one_add(1000) == probes_for_one_add(10)

    def test_touch_sizes_without_reading_and_counts_as_a_use(self, registry):
        registry.add_entry("a", REDUCE_INPUT, 0, 10, ["x"])
        registry.add_entry("b", REDUCE_INPUT, 0, 0, [])
        before = registry.entries()[0].last_used
        assert registry.touch("a", REDUCE_INPUT, 0) == 10
        assert registry.entries()[0].last_used > before
        assert registry.touch("b", REDUCE_INPUT, 0) == 0  # empty, yet live
        assert registry.touch("a", REDUCE_OUTPUT, 0) is None
        registry.mark_expired(["a"])
        assert registry.touch("a", REDUCE_INPUT, 0) is None

    def test_use_verified_only_while_the_file_is_the_one_checked(
        self, registry, node
    ):
        registry.add_entry("a", REDUCE_INPUT, 0, 10, ["x"])
        lf = registry.verify("a", REDUCE_INPUT, 0)
        assert lf.payload == ["x"]
        before = registry.entries()[0].last_used
        assert registry.use_verified("a", REDUCE_INPUT, 0, lf)
        assert registry.entries()[0].last_used > before
        # A rewrite, or tampering that replaces the file, needs a new check.
        node.store_local(lf.name, 10, ["x", "corrupt"])
        assert not registry.use_verified("a", REDUCE_INPUT, 0, lf)
        registry.add_entry("a", REDUCE_INPUT, 0, 10, ["x"])
        assert not registry.use_verified("a", REDUCE_INPUT, 0, lf)
        lf = registry.verify("a", REDUCE_INPUT, 0)
        registry.mark_expired(["a"])
        assert not registry.use_verified("a", REDUCE_INPUT, 0, lf)


class TestPurgeBatching:
    def test_one_mark_expired_call_per_node(self, monkeypatch):
        from repro.core.cache_controller import PurgeNotification

        from .test_runtime import make_runtime

        runtime = make_runtime()
        for node_id in (0, 1):
            registry = runtime._registry(node_id)
            for pid in ("a", "b", "c"):
                registry.add_entry(pid, REDUCE_INPUT, node_id, 1, None)
        calls = []
        original = LocalCacheRegistry.mark_expired

        def spy(self, pids):
            pids = list(pids)
            calls.append((self.node.node_id, sorted(pids)))
            return original(self, pids)

        monkeypatch.setattr(LocalCacheRegistry, "mark_expired", spy)
        runtime._apply_purge_notifications(
            [
                PurgeNotification("a", (0, 1)),
                PurgeNotification("b", (0, 1)),
                PurgeNotification("c", (1, 3)),  # node 3 holds no registry
            ]
        )
        assert sorted(calls) == [(0, ["a", "b"]), (1, ["a", "b", "c"])]
        live = {
            (node_id, e.pid)
            for node_id, r in runtime.registries().items()
            for e in r.live_entries()
        }
        assert live == {(0, "c")}
