"""Cache integrity: silent corruption is detected on read and healed."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import join_config
from repro.chaos import ChaosSchedule, run_chaos_series, run_differential
from repro.core import (
    REDUCE_INPUT,
    REDUCE_OUTPUT,
    CacheCorruptionError,
    RecoveryManager,
)
from repro.hadoop import FaultInjector

from tests.core.test_runtime import feed, make_runtime

#: The schedule the CI chaos smoke replays with ``--schedule-in``.
CORRUPT_BOTH_TYPES = Path(__file__).parent / "fixtures" / "corrupt_both_cache_types.json"


@pytest.fixture
def warm_pair():
    """Two identical warm runtimes; one gets corrupted, one stays clean."""
    pair = []
    for _ in range(2):
        runtime = make_runtime()
        feed(runtime, 90.0)
        runtime.run_recurrence("wc", 1)
        pair.append(runtime)
    return pair


class TestCorruptCache:
    def test_metadata_untouched_until_read(self, warm_pair):
        runtime, _ = warm_pair
        recovery = RecoveryManager(runtime)
        victim = recovery.live_caches()[0]
        recovery.corrupt_cache(victim)
        registry = runtime.registries()[victim.node_id]
        # The registry row, file, placement, and ready bit all survive —
        # corruption is silent by construction.
        assert registry.has(victim.pid, victim.cache_type, victim.partition)
        assert (
            runtime.controller.placement(
                victim.pid, victim.cache_type, victim.partition
            )
            == victim.node_id
        )
        # ...but verification and reads see through it.
        assert not registry.verify(
            victim.pid, victim.cache_type, victim.partition
        )
        with pytest.raises(CacheCorruptionError):
            registry.read(victim.pid, victim.cache_type, victim.partition)
        assert runtime.counters.get("faults.caches_corrupted") == 1

    def test_corrupting_missing_cache_rejected(self, warm_pair):
        runtime, _ = warm_pair
        recovery = RecoveryManager(runtime)
        from repro.core import LostCache

        with pytest.raises(ValueError):
            recovery.corrupt_cache(
                LostCache(node_id=99, pid="wc:S1P0", cache_type=1, partition=0)
            )

    def test_chaos_trace_instant_emitted(self, warm_pair):
        runtime, _ = warm_pair
        recovery = RecoveryManager(runtime)
        recovery.corrupt_cache(recovery.live_caches()[0])
        names = [e.name for e in runtime.tracer.events(category="chaos")]
        assert "chaos.cache_corrupted" in names


class TestSelfHealing:
    def test_corrupt_rin_heals_via_remap(self, warm_pair):
        corrupted, clean = warm_pair
        recovery = RecoveryManager(corrupted)
        recovery.inject_cache_corruption(
            FaultInjector(cache_corruption_fraction=1.0, seed=4),
            cache_type=REDUCE_INPUT,
        )
        got = corrupted.run_recurrence("wc", 2)
        want = clean.run_recurrence("wc", 2)
        assert sorted(map(repr, got.output)) == sorted(map(repr, want.output))

    def test_corrupt_rout_detected_and_healed(self, warm_pair):
        corrupted, clean = warm_pair
        recovery = RecoveryManager(corrupted)
        victims = recovery.inject_cache_corruption(
            FaultInjector(cache_corruption_fraction=1.0, seed=4),
            cache_type=REDUCE_OUTPUT,
        )
        assert victims
        got = corrupted.run_recurrence("wc", 2)
        want = clean.run_recurrence("wc", 2)
        assert sorted(map(repr, got.output)) == sorted(map(repr, want.output))
        assert corrupted.counters.get("cache.corruptions_detected") >= 1
        # Detection funnels through the rollback path (reason=corrupt).
        lost = [
            e
            for e in corrupted.tracer.events(category="fault")
            if e.name == "cache.lost" and e.attrs.get("reason") == "corrupt"
        ]
        assert lost


class TestInjectionFiltering:
    def test_cache_type_filter(self, warm_pair):
        runtime, _ = warm_pair
        recovery = RecoveryManager(runtime)
        victims = recovery.inject_cache_corruption(
            FaultInjector(seed=4),
            cache_type=REDUCE_INPUT,
            fraction=0.5,
        )
        assert victims
        assert all(v.cache_type == REDUCE_INPUT for v in victims)

    def test_seeded_determinism(self, warm_pair):
        a, b = warm_pair
        victims_a = RecoveryManager(a).inject_cache_corruption(
            FaultInjector(seed=7), fraction=0.5
        )
        victims_b = RecoveryManager(b).inject_cache_corruption(
            FaultInjector(seed=7), fraction=0.5
        )
        assert [v.key for v in victims_a] == [v.key for v in victims_b]


class TestFixedCorruptionSchedule:
    """Corruption of both cache types, so both verifying read paths run:
    the pane probe (reduce input) and the verified read (reduce output)."""

    #: What ``repro chaos --windows 4`` replays the schedule against.
    CONFIG = join_config(0.5, scale=0.05, num_windows=4)

    @pytest.fixture(scope="class")
    def schedule(self):
        return ChaosSchedule.from_json(CORRUPT_BOTH_TYPES.read_text())

    def test_both_types_over_several_windows(self, schedule):
        slide = self.CONFIG.slide
        for cache_type in (REDUCE_INPUT, REDUCE_OUTPUT):
            windows = {
                int(e.at // slide)
                for e in schedule.events
                if e.kind == "cache-corrupt" and e.cache_type == cache_type
            }
            assert len(windows) >= 3, (cache_type, windows)

    @pytest.mark.parametrize("cache_type", [REDUCE_INPUT, REDUCE_OUTPUT])
    def test_each_type_is_detected(self, schedule, cache_type):
        only = ChaosSchedule(
            seed=schedule.seed,
            events=tuple(e for e in schedule.events if e.cache_type == cache_type),
        )
        report = run_chaos_series(self.CONFIG, only)
        assert report.ok, report.violations
        counters = report.series.runtime_counters
        assert counters.get("faults.caches_corrupted", 0) >= 1
        assert counters.get("cache.corruptions_detected", 0) >= 1

    def test_replay_matches_the_fault_free_run(self, schedule):
        result = run_differential(self.CONFIG, schedule)
        assert result.ok, result.summary()
