"""Smoke tests for the per-figure experiment functions (tiny scales)."""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.experiments import (
    PAPER_OVERLAPS,
    ablation_cache_levels,
    aggregation_config,
    fig6_aggregation,
    fig8_adaptive,
    fig9_fault_tolerance,
    join_config,
)
from repro.hadoop.config import small_test_config

TINY = dict(scale=0.02, num_windows=2)


class TestConfigs:
    def test_aggregation_config_shape(self):
        config = aggregation_config(0.9, scale=0.5)
        assert config.kind == "aggregation"
        assert config.overlap == 0.9
        assert config.rate == pytest.approx(15_000_000.0)

    def test_join_config_shape(self):
        config = join_config(0.5, scale=1.0)
        assert config.kind == "join"
        assert config.record_size == 2_000_000

    def test_paper_overlaps(self):
        assert PAPER_OVERLAPS == (0.9, 0.5, 0.1)


class TestFigureFunctions:
    def test_fig6_returns_series_per_overlap(self):
        results = fig6_aggregation(
            overlaps=(0.5,), cluster_config=small_test_config(8), **TINY
        )
        assert set(results) == {0.5}
        assert set(results[0.5]) == {"hadoop", "redoop"}
        assert len(results[0.5]["redoop"].windows) == 2

    def test_fig6_outputs_verified_internally(self):
        # _compare raises if the two systems diverge; reaching here is
        # the assertion.
        fig6_aggregation(
            overlaps=(0.75,), cluster_config=small_test_config(4), **TINY
        )

    def test_fig8_three_systems(self):
        results = fig8_adaptive(
            overlaps=(0.5,), cluster_config=small_test_config(8), **TINY
        )
        assert set(results[0.5]) == {"hadoop", "redoop", "adaptive"}

    def test_fig9_four_series(self):
        results = fig9_fault_tolerance(
            scale=0.02, num_windows=2, cluster_config=small_test_config(8)
        )
        assert set(results) == {"hadoop", "redoop", "redoop(f)", "hadoop(f)"}
        assert results["redoop(f)"].total_response() >= results[
            "redoop"
        ].total_response()

    def test_fig9_six_series_pinned(self):
        # Plain Hadoop's task retries and Redoop's cache-loss,
        # corruption and node-failure series all charge their tasks
        # through the one task engine; pin every series' virtual times.
        results = fig9_fault_tolerance(
            scale=0.02,
            num_windows=3,
            cluster_config=small_test_config(8),
            node_failure_window=2,
            cache_corruption_fraction=0.5,
        )
        expected = {
            "hadoop": (5.835234831009984, 5.768656122624634, 5.7682349061842615),
            "hadoop(f)": (6.352046004922613, 6.218687080659038, 6.10185208639723),
            "redoop": (6.4197297103264646, 4.152934172060668, 4.153088835450035),
            "redoop(f)": (6.4197297103264646, 6.336384169946541, 4.153088835450035),
            "redoop(c)": (6.4197297103264646, 6.336384169946541, 6.336538833335908),
            "redoop(node-f)": (
                6.4197297103264646, 6.970316802544403, 4.153605211853574,
            ),
        }
        assert set(results) == set(expected)
        for label, times in expected.items():
            series = results[label]
            assert series.response_times() == pytest.approx(times, rel=1e-9), label
            digests = [
                hashlib.sha256("\n".join(window).encode()).hexdigest()[:16]
                for window in series.output_digests
            ]
            assert digests == [
                "3daedd5998da9c9a", "8e16fded980d77e0", "e38b78c0e507624b",
            ], label

    def test_ablation_cache_levels_ordering(self):
        results = ablation_cache_levels(scale=0.02)
        assert set(results) == {"both-caches", "input-only", "no-caching"}
        assert (
            results["both-caches"].avg_response(skip_first=True)
            <= results["no-caching"].avg_response(skip_first=True)
        )
