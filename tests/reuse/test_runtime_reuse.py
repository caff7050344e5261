"""Runtime integration: seeding, window short-circuit, digest parity.

Every test here enforces the tier's core contract — the store may only
ever change *when* an answer is computed, never *what* it is — and the
satellite regression that externally-seeded panes are indistinguishable
from locally-computed ones in the status matrix's ``remaining_uses``
accounting.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.experiments import aggregation_config, join_config
from repro.bench.harness import ExperimentConfig, build_workload, run_redoop_series
from repro.chaos import run_differential
from repro.core.runtime import RedoopRuntime
from repro.hadoop.cluster import Cluster
from repro.reuse import ReuseStore

SCALE = 0.05


def drive(
    config: ExperimentConfig,
    store: Optional[ReuseStore],
    workload,
) -> tuple:
    """Run one query to completion; returns (runtime, digests, snapshots).

    ``snapshots`` holds, per recurrence, the controller's
    ``remaining_uses`` for every signature pid — the matrix-accounting
    surface the eviction policies rank by.
    """
    cluster = Cluster(config.cluster_config, seed=config.seed)
    runtime = RedoopRuntime(cluster, reuse_store=store)
    query = config.build_query()
    runtime.register_query(query, {s: config.rate for s in config.sources})
    pending = sorted(
        (item for items in workload.values() for item in items),
        key=lambda bw: (bw[0].t_end, bw[0].source),
    )
    cursor = 0
    digests: List[tuple] = []
    snapshots: List[dict] = []
    for recurrence in range(1, config.num_windows + 1):
        due = query.execution_time(recurrence)
        while cursor < len(pending) and pending[cursor][0].t_end <= due + 1e-9:
            runtime.ingest(*pending[cursor])
            cursor += 1
        result = runtime.run_recurrence(query.name, recurrence)
        digests.append(tuple(sorted(map(repr, result.output))))
        pids = sorted({s.pid for s in runtime.controller.signatures()})
        snapshots.append(
            {pid: runtime.controller.remaining_uses(pid) for pid in pids}
        )
    return runtime, digests, snapshots


class TestWarmWindowShortCircuit:
    def test_second_tenant_is_served_from_window_artifacts(self):
        report = run_differential(
            join_config(0.75, scale=SCALE, num_windows=3), reuse_store=ReuseStore()
        )
        assert report.ok, report.summary()
        cold, warm = report.runs["cold"], report.runs["warm"]
        assert warm.runtime_counters["reuse.window_hits"] == 3
        assert warm.avg_response() < cold.avg_response() / 2
        assert warm.runtime_counters["reuse.bytes_saved"] > 0

    def test_publication_is_timing_neutral(self):
        # The cold (publishing) run must clock exactly like a store-free
        # run: publication happens outside the measured window path.
        report = run_differential(
            aggregation_config(0.75, scale=SCALE, num_windows=3),
            reuse_store=ReuseStore(),
        )
        assert (
            report.runs["fault-free"].response_times()
            == report.runs["cold"].response_times()
        )


class TestPaneSubsumption:
    def _geometry_pair(self):
        producer = ExperimentConfig(
            kind="aggregation", win=3600.0, overlap=0.75, num_windows=5,
            rate=30_000_000.0 * SCALE, record_size=1_000_000, seed=7,
        )
        consumer = ExperimentConfig(
            kind="aggregation", win=5400.0, overlap=2 / 3, num_windows=2,
            rate=30_000_000.0 * SCALE, record_size=1_000_000, seed=7,
        )
        return producer, consumer

    def test_finer_panes_tile_a_coarser_consumer(self):
        producer_cfg, consumer_cfg = self._geometry_pair()
        workload = build_workload(producer_cfg)
        store = ReuseStore()
        drive(producer_cfg, store, workload)
        warm_rt, warm_digests, _ = drive(consumer_cfg, store, workload)
        off_rt, off_digests, _ = drive(consumer_cfg, None, workload)
        assert warm_digests == off_digests
        counters = warm_rt.counters.as_dict()
        assert counters["reuse.panes_seeded"] > 0
        assert counters["reuse.bytes_saved"] > 0

    def test_seeded_panes_match_local_remaining_uses(self):
        # Satellite regression: a pane seeded from the store must be
        # indistinguishable from a locally-computed one in the status
        # matrix's remaining_uses accounting, at every recurrence.
        producer_cfg, consumer_cfg = self._geometry_pair()
        workload = build_workload(producer_cfg)
        store = ReuseStore()
        drive(producer_cfg, store, workload)
        warm_rt, _, warm_snapshots = drive(consumer_cfg, store, workload)
        assert warm_rt.counters.as_dict()["reuse.panes_seeded"] > 0
        _, _, off_snapshots = drive(consumer_cfg, None, workload)
        assert warm_snapshots == off_snapshots


class TestLineageGuard:
    def test_different_data_is_never_served(self):
        # Same plan, same time ranges, different workload: the input-sha
        # lineage check must refuse every match and recompute honestly.
        config = aggregation_config(0.75, scale=SCALE, num_windows=3)
        other = build_workload(
            aggregation_config(0.75, scale=SCALE, num_windows=3, seed=11)
        )
        mine = build_workload(config)
        store = ReuseStore()
        cluster = Cluster(config.cluster_config, seed=config.seed)
        producer_rt = RedoopRuntime(cluster, reuse_store=store)
        query = config.build_query()
        producer_rt.register_query(
            query, {s: config.rate for s in config.sources}
        )
        pending = sorted(
            (item for items in other.values() for item in items),
            key=lambda bw: (bw[0].t_end, bw[0].source),
        )
        cursor = 0
        for recurrence in range(1, config.num_windows + 1):
            due = query.execution_time(recurrence)
            while (
                cursor < len(pending)
                and pending[cursor][0].t_end <= due + 1e-9
            ):
                producer_rt.ingest(*pending[cursor])
                cursor += 1
            producer_rt.run_recurrence(query.name, recurrence)
        assert len(store) > 0

        warm_rt, warm_digests, _ = drive(config, store, mine)
        _, off_digests, _ = drive(config, None, mine)
        assert warm_digests == off_digests
        counters = warm_rt.counters.as_dict()
        assert counters["reuse.lineage_mismatches"] > 0
        assert counters.get("reuse.window_hits", 0) == 0
        assert counters.get("reuse.panes_seeded", 0) == 0


class TestDigestParityAcrossFigures:
    def test_fig6_and_fig7_style_workloads(self):
        for config in (
            aggregation_config(0.9, scale=SCALE, num_windows=3),
            aggregation_config(0.1, scale=SCALE, num_windows=3),
            join_config(0.5, scale=SCALE, num_windows=3),
        ):
            report = run_differential(config, reuse_store=ReuseStore())
            assert report.mismatches == [], config.kind
            assert report.ok, report.summary()


class TestSeriesHarnessThreading:
    def test_run_redoop_series_accepts_a_store(self):
        config = aggregation_config(0.5, scale=SCALE, num_windows=2)
        workload = build_workload(config)
        store = ReuseStore()
        cold = run_redoop_series(
            config, label="cold", workload=workload, reuse_store=store
        )
        warm = run_redoop_series(
            config, label="warm", workload=workload, reuse_store=store
        )
        assert cold.output_digests == warm.output_digests
        assert warm.runtime_counters["reuse.hits"] > 0
