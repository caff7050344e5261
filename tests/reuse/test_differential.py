"""The reuse differential: fault-free and under chaos, store-off vs.
cold vs. warm."""

from __future__ import annotations

from repro.bench.experiments import join_config
from repro.chaos import ChaosEvent, ChaosSchedule, run_differential
from repro.reuse import ReuseStore

CONFIG = join_config(0.75, scale=0.05, num_windows=3)


class TestReuseDifferential:
    def test_fault_free_parity_and_hits(self):
        report = run_differential(CONFIG, reuse_store=ReuseStore())
        assert report.ok, report.summary()
        assert list(report.runs) == ["fault-free", "cold", "warm"]
        assert report.mismatches == []
        assert report.violations == []
        warm = report.runs["warm"].runtime_counters
        assert warm["reuse.hits"] > 0
        assert warm["reuse.bytes_saved"] > 0
        assert "verdict: OK" in report.summary()

    def test_warm_run_without_hits_fails_the_verdict(self):
        # A one-byte store retains nothing, so the warm run recomputes
        # everything: answers still agree, but the store never served.
        report = run_differential(CONFIG, reuse_store=ReuseStore(capacity_bytes=1))
        assert report.mismatches == []
        assert report.runs["warm"].runtime_counters.get("reuse.hits", 0) == 0
        assert report.unmet == ["the warm run hit the store (reuse.hits > 0)"]
        assert not report.ok
        assert "UNMET: the warm run hit the store" in report.summary()

    def test_parity_holds_under_chaos_schedule(self):
        schedule = ChaosSchedule(
            seed=3,
            events=(
                ChaosEvent(at=40.0, kind="task-kill", prob=0.25),
                ChaosEvent(at=120.0, kind="cache-loss", cache_type=1, fraction=0.5),
                ChaosEvent(at=200.0, kind="task-kill", prob=0.0),
                ChaosEvent(at=400.0, kind="cache-corrupt", cache_type=2, fraction=0.5),
            ),
        )
        report = run_differential(CONFIG, schedule, reuse_store=ReuseStore())
        assert report.mismatches == []
        assert report.violations == []

    def test_random_seeded_schedules(self):
        for seed in (1, 2):
            schedule = ChaosSchedule.random(
                seed,
                horizon=CONFIG.horizon,
                num_nodes=CONFIG.cluster_config.num_nodes,
                num_windows=CONFIG.num_windows,
                slide=CONFIG.slide,
                events_per_window=1.0,
            )
            report = run_differential(CONFIG, schedule, reuse_store=ReuseStore())
            assert report.mismatches == [], report.summary()
            assert report.violations == [], report.summary()
