"""The differential oracle: the comparison primitive, and output
neutrality end to end."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosEvent, ChaosSchedule, differential, run_differential

from .conftest import mini_config


def composed_schedule() -> ChaosSchedule:
    """Every recoverable fault domain, composed mid-flight."""
    return ChaosSchedule(
        seed=3,
        events=(
            ChaosEvent(at=45.0, kind="task-kill", prob=0.3),
            ChaosEvent(at=55.0, kind="node-kill"),
            ChaosEvent(at=62.0, kind="cache-corrupt", fraction=0.5),
            ChaosEvent(at=70.0, kind="node-recover"),
            ChaosEvent(at=75.0, kind="cache-loss", fraction=0.4),
            ChaosEvent(at=82.0, kind="slow-node", node_id=1, speed=0.5),
            ChaosEvent(at=95.0, kind="slow-node", node_id=1, speed=1.0),
            ChaosEvent(at=100.0, kind="task-kill", prob=0.0),
        ),
    )


def compare(*tables, **kwargs):
    labels = ["ref", "a", "b"][: len(tables)]
    return differential(dict.fromkeys(labels), dict(zip(labels, tables)), **kwargs)


class TestDifferentialPrimitive:
    def test_identical_tables_pass(self):
        report = compare({1: "x", 2: "y"}, {1: "x", 2: "y"})
        assert report.mismatches == []
        assert report.ok
        assert report.summary().endswith("verdict: OK")

    def test_mismatch_is_named_by_run_and_window(self):
        report = compare({1: "x", 2: "y"}, {1: "x", 2: "y"}, {1: "x", 2: "z"})
        assert report.mismatches == [(2, "b")]
        assert not report.ok
        text = report.summary()
        assert "DIGEST MISMATCH window 2: b differs from ref" in text
        assert text.endswith("verdict: FAILED")

    def test_window_fired_by_one_run_only_is_a_mismatch(self):
        extra = compare({1: "x"}, {1: "x", 2: "y"})
        assert extra.mismatches == [(2, "a")]
        assert "window 2: fired by a only" in extra.summary()
        missing = compare({1: "x", 2: "y"}, {1: "x"})
        assert missing.mismatches == [(2, "a")]
        assert "window 2: fired by ref only" in missing.summary()
        assert not missing.ok

    def test_skipped_window_is_not_a_mismatch(self):
        report = compare({1: "x", 2: "y", 3: "w"}, {1: "x", 2: (), 3: "w"}, skip=[2])
        assert report.mismatches == []
        assert report.skipped == [2]
        assert report.ok
        assert "degraded windows (empty output, by design): 2" in report.summary()

    def test_invariant_violation_fails_the_verdict(self):
        report = compare({1: "x"}, {1: "x"}, violations=["after window 1: bad"])
        assert not report.ok
        assert "INVARIANT VIOLATION after window 1: bad" in report.summary()

    def test_unmet_requirement_fails_the_verdict(self):
        report = compare(
            {1: "x"},
            {1: "x"},
            require={"the warm run hit the store": False, "it ran": True},
        )
        assert report.unmet == ["the warm run hit the store"]
        assert not report.ok
        text = report.summary()
        assert "UNMET: the warm run hit the store" in text
        assert "it ran" not in text

    def test_notes_lead_the_summary(self):
        report = compare({1: "x"}, {1: "x"}, notes=["seed=3"])
        assert report.summary().splitlines() == ["seed=3", "  verdict: OK"]


class TestOutputNeutrality:
    @pytest.mark.parametrize("kind", ["aggregation", "join"])
    def test_composed_faults_are_output_neutral(self, kind):
        report = run_differential(mini_config(kind), composed_schedule())
        assert report.mismatches == []
        assert report.violations == []
        assert report.ok
        assert list(report.runs) == ["fault-free", "chaos"]
        assert report.summary().count("injected") == 8

    def test_summary_mentions_verdict(self):
        report = run_differential(mini_config(), composed_schedule())
        text = report.summary()
        assert "verdict: OK" in text
        assert "injected" in text


class TestDegradedWindows:
    def test_degraded_window_is_sanctioned_divergence(self):
        sched = ChaosSchedule(
            seed=5,
            events=(ChaosEvent(at=45.0, kind="task-exhaust", doom="/w3/"),),
        )
        report = run_differential(mini_config(), sched)
        assert report.skipped == [3]
        # The degraded window's (empty) output differs from the reference
        # but is not a mismatch; every later window converges back exactly.
        assert report.mismatches == []
        reference, chaos = report.digests["fault-free"], report.digests["chaos"]
        assert chaos[3] != reference[3]
        for window in (4, 5):
            assert chaos[window] == reference[window]
        assert report.ok

    def test_summary_reports_degradation(self):
        sched = ChaosSchedule(
            seed=5,
            events=(ChaosEvent(at=45.0, kind="task-exhaust", doom="/w2/"),),
        )
        report = run_differential(mini_config(), sched)
        assert "degraded windows" in report.summary()


class TestRandomizedSweep:
    def test_fast_three_seed_sweep(self):
        cfg = mini_config("join")
        for seed in (1, 2, 3):
            sched = ChaosSchedule.random(
                seed,
                horizon=cfg.horizon,
                num_nodes=cfg.cluster_config.num_nodes,
                num_windows=cfg.num_windows,
                slide=cfg.slide,
                events_per_window=1.5,
            )
            report = run_differential(cfg, sched)
            assert report.ok, f"seed {seed}:\n{report.summary()}"

    @pytest.mark.slow
    def test_ten_seed_sweep_with_exhaustion(self):
        # The acceptance sweep: >= 10 random seeds, all fault domains,
        # plus a doomed window per run; recovery must hold everywhere.
        cfg = mini_config("join")
        for seed in range(1, 11):
            sched = ChaosSchedule.random(
                seed,
                horizon=cfg.horizon,
                num_nodes=cfg.cluster_config.num_nodes,
                num_windows=cfg.num_windows,
                slide=cfg.slide,
                events_per_window=2.0,
                exhaust_window=3,
            )
            report = run_differential(cfg, sched)
            assert report.ok, f"seed {seed}:\n{report.summary()}"
            assert 3 in report.skipped
