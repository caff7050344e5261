"""The backend parity oracle: serial vs process digests, byte-identical.

The same pattern as the chaos differential oracle: run one workload
twice on independent, identically-seeded clusters — once per backend —
and require every per-window output digest to match. Any divergence is
a determinism bug in the backend (ordering, pickling, per-process
state), never noise.

Covers the benchmark figure workloads (WCC aggregation, FFG join, the
fig9 FFG aggregation), the plain-Hadoop baseline driver, a chaos
schedule (faults + parallel user-code composed), and a mid-run
checkpoint/restore on the process backend.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    ExperimentConfig,
    build_workload,
    run_hadoop_series,
    run_redoop_series,
)
from repro.chaos import ChaosEvent, ChaosSchedule, run_differential
from repro.exec import ProcessPoolBackend
from repro.hadoop import small_test_config


def mini_config(kind: str = "aggregation", **overrides) -> ExperimentConfig:
    defaults = dict(
        kind=kind,
        win=40.0,
        overlap=0.5,
        num_windows=4,
        rate=1_500_000.0,
        record_size=150_000,
        num_reducers=4,
        cluster_config=small_test_config(),
        seed=11,
        batches_per_pane=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


class TestRedoopParity:
    @pytest.mark.parametrize(
        "kind", ["aggregation", "join", "ffg-aggregation"]
    )
    def test_figure_workload_digests_identical(self, kind, process_backend):
        config = mini_config(kind)
        workload = build_workload(config)
        serial = run_redoop_series(config, workload=workload)
        parallel = run_redoop_series(
            config, workload=workload, backend=process_backend
        )
        assert serial.output_digests == parallel.output_digests
        # Virtual time is backend-independent too: the cost model, not
        # the wall clock, decides response times.
        assert [w.response_time for w in serial.windows] == [
            w.response_time for w in parallel.windows
        ]

    def test_adaptive_mode_parity(self, process_backend):
        config = mini_config("aggregation")
        workload = build_workload(config)
        serial = run_redoop_series(config, adaptive=True, workload=workload)
        parallel = run_redoop_series(
            config, adaptive=True, workload=workload, backend=process_backend
        )
        assert serial.output_digests == parallel.output_digests

    def test_exec_counters_present_only_on_request(self, process_backend):
        config = mini_config("aggregation")
        workload = build_workload(config)
        series = run_redoop_series(
            config, workload=workload, backend=process_backend
        )
        exec_counters = {
            k for k in series.runtime_counters if k.startswith("exec.")
        }
        assert "exec.batches" in exec_counters
        assert "exec.tasks_dispatched" in exec_counters

    def test_counter_bag_is_deterministic_across_backends(
        self, process_backend
    ):
        """The whole counter snapshot — exec.* included — is identical
        between backends and across repeat runs: physical measurements
        never leak into it."""
        config = mini_config("aggregation")
        workload = build_workload(config)
        serial = run_redoop_series(config, workload=workload)
        parallel = run_redoop_series(
            config, workload=workload, backend=process_backend
        )
        again = run_redoop_series(
            config, workload=workload, backend=process_backend
        )
        assert parallel.runtime_counters == again.runtime_counters
        non_exec = lambda c: {  # noqa: E731
            k: v for k, v in c.items() if not k.startswith("exec.")
        }
        assert non_exec(serial.runtime_counters) == non_exec(
            parallel.runtime_counters
        )


class TestHadoopParity:
    def test_baseline_driver_digests_identical(self, process_backend):
        config = mini_config("join")
        workload = build_workload(config)
        serial = run_hadoop_series(config, workload=workload)
        parallel = run_hadoop_series(
            config, workload=workload, backend=process_backend
        )
        assert serial.output_digests == parallel.output_digests


class TestChaosParity:
    def test_differential_oracle_holds_on_process_backend(
        self, process_backend
    ):
        """Faults and parallel user-code composed: the chaos run on the
        process backend must still match its fault-free serial reference."""
        schedule = ChaosSchedule(
            seed=3,
            events=(
                ChaosEvent(at=45.0, kind="task-kill", prob=0.3),
                ChaosEvent(at=55.0, kind="node-kill"),
                ChaosEvent(at=62.0, kind="cache-loss", fraction=0.4),
                ChaosEvent(at=70.0, kind="node-recover"),
            ),
        )
        report = run_differential(
            mini_config("aggregation"),
            schedule,
            backend=process_backend,
        )
        assert report.ok
        assert report.mismatches == []

    def test_chaos_digests_match_across_backends(self, process_backend):
        """The *chaos* series itself is backend-deterministic: same
        schedule, same faults, same digests on serial and process."""
        from repro.chaos import run_chaos_series

        config = mini_config("aggregation")
        schedule = ChaosSchedule(
            seed=5,
            events=(
                ChaosEvent(at=45.0, kind="cache-loss", fraction=0.5),
                ChaosEvent(at=65.0, kind="task-kill", prob=0.2),
            ),
        )
        workload = build_workload(config)
        serial = run_chaos_series(config, schedule, workload=workload)
        parallel = run_chaos_series(
            config, schedule, workload=workload, backend=process_backend
        )
        assert (
            serial.series.output_digests == parallel.series.output_digests
        )


class _CountingPool(ProcessPoolBackend):
    """A process backend that counts the batches it was handed."""

    batches = 0

    def run_tasks(self, fn, calls, **kwargs):
        self.batches += 1
        return super().run_tasks(fn, calls, **kwargs)


class TestCheckpointParity:
    def test_mid_run_checkpoint_restore_on_process_backend(self, tmp_path):
        """Kill a process-backend server mid-run, restore, finish: the
        digests must equal an uninterrupted serial run's."""
        from repro.bench.service import (
            ServiceScenario,
            build_server,
            drive_scenario,
        )
        from repro.service import QueryServer, latest_checkpoint

        scenario = ServiceScenario(
            tenants=2, recurrences=6, rate=150_000.0, seed=3
        )

        # Uninterrupted serial reference.
        want = drive_scenario(scenario, build_server(scenario)).digests

        # Process-backend run, killed after 3 recurrences.
        backend = ProcessPoolBackend(workers=2)
        try:
            server = build_server(
                scenario,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                backend=backend,
            )
            drive_scenario(scenario, server, stop_after_recurrences=3)
        finally:
            backend.close()

        # Restore (deserialises with pool handles stripped) and finish
        # on a fresh process backend.
        path = latest_checkpoint(tmp_path)
        assert path is not None
        restored = QueryServer.restore(path)
        resumed_backend = _CountingPool(workers=2)
        try:
            restored.runtime.backend = resumed_backend
            resumed = drive_scenario(scenario, restored)
        finally:
            resumed_backend.close()
        assert resumed.digests == want
        # Digests match whichever backend runs, so only the count shows
        # that the swapped-in backend really ran the resumed tasks.
        assert resumed_backend.batches > 0
