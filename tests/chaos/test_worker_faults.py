"""Real-process worker faults under the chaos harness.

``worker-kill`` / ``worker-hang`` events crash and hang *actual* pool
workers mid-run; the differential oracle then pins the supervised
process backend's digests to a fault-free serial run. Deadlines stay
small (≤ 2s) so a hung worker can never stall the fast lane.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosSchedule,
    EVENT_KINDS,
    run_chaos_series,
    run_differential,
)
from repro.exec import ProcessPoolBackend, SerialBackend

from .conftest import mini_config


def worker_schedule(**first_kwargs) -> ChaosSchedule:
    """A kill and a hang, early enough to be consumed mid-run."""
    return ChaosSchedule(
        seed=4,
        events=(
            ChaosEvent(at=45.0, kind="worker-kill", **first_kwargs),
            ChaosEvent(at=55.0, kind="worker-hang"),
        ),
    )


class TestScheduleKinds:
    def test_worker_kinds_are_registered(self):
        assert "worker-kill" in EVENT_KINDS
        assert "worker-hang" in EVENT_KINDS

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be positive"):
            ChaosEvent(at=10.0, kind="worker-kill", count=0)
        # count=None means "one fault" and is fine.
        ChaosEvent(at=10.0, kind="worker-hang")

    def test_json_round_trip(self):
        sched = worker_schedule(count=2)
        revived = ChaosSchedule.from_json(sched.to_json())
        assert revived == sched
        assert [e.kind for e in revived.events] == [
            "worker-kill",
            "worker-hang",
        ]

    def test_random_schedules_scatter_worker_events(self):
        kwargs = dict(
            horizon=120.0,
            num_nodes=4,
            num_windows=5,
            slide=20.0,
            events_per_window=0.0,
            worker_kills=2,
            worker_hangs=1,
        )
        sched = ChaosSchedule.random(9, **kwargs)
        kinds = [e.kind for e in sched.events]
        assert kinds.count("worker-kill") == 2
        assert kinds.count("worker-hang") == 1
        assert all(0 <= e.at <= 120.0 for e in sched.events)
        # Seeded: the same call replays the same scattering.
        assert ChaosSchedule.random(9, **kwargs) == sched


class TestDriverApplication:
    def test_serial_backend_skips_worker_events(self):
        # The default runtime backend is serial: real worker faults
        # have nowhere to land, so the events report applied=False.
        report = run_chaos_series(mini_config(), worker_schedule())
        assert report.events_applied == []
        assert report.ok, report.violations

    def test_process_backend_consumes_worker_events(self):
        backend = ProcessPoolBackend(
            workers=2, batch_deadline=2.0, backoff_base=0.01
        )
        try:
            report = run_chaos_series(
                mini_config(), worker_schedule(), backend=backend
            )
            # Leftover armed faults are drained at end of run, so a
            # shared backend cannot leak faults into the next series.
            assert backend.pending_worker_faults() == 0
            assert backend.pool_healthy()
        finally:
            backend.close()
        assert len(report.events_applied) == 2
        assert any("worker-kill" in d for d in report.events_applied)
        assert any("worker-hang" in d for d in report.events_applied)
        assert report.series.runtime_counters.get("exec.worker_lost", 0) > 0
        assert report.ok, report.violations


@pytest.fixture
def supervised():
    backend = ProcessPoolBackend(workers=2, batch_deadline=2.0)
    yield backend
    backend.close()


class ArmedButHarmless(SerialBackend):
    """Accepts worker faults like a pool backend, then never loses one."""

    parallel = True

    def inject_worker_faults(self, kind, *, count=1):
        pass


class TestWorkerFaultDifferential:
    def test_kill_and_hang_are_output_neutral(self, supervised):
        report = run_differential(
            mini_config(), worker_schedule(), backend=supervised
        )
        assert report.runs["chaos"].runtime_counters["exec.worker_lost"] > 0
        assert report.mismatches == []
        assert report.skipped == []
        assert report.unmet == []
        assert report.ok, report.summary()
        assert "recovery:" in report.summary()

    def test_join_workload_parity_under_kills(self, supervised):
        sched = ChaosSchedule(
            seed=6,
            events=(ChaosEvent(at=45.0, kind="worker-kill", count=2),),
        )
        report = run_differential(
            mini_config("join"), sched, backend=supervised
        )
        assert report.runs["chaos"].runtime_counters["exec.worker_lost"] > 0
        assert report.mismatches == []
        assert report.ok, report.summary()

    def test_terminal_fault_degrades_one_window_and_converges(self):
        # A rebuild budget of zero turns the first worker loss into the
        # terminal path: WorkerFaultError -> TaskAttemptsExhaustedError
        # -> degraded window with cache rollback. Later windows must
        # converge back to the fault-free reference exactly.
        backend = ProcessPoolBackend(
            workers=2,
            batch_deadline=2.0,
            max_task_retries=0,
            max_pool_rebuilds=0,
        )
        sched = ChaosSchedule(
            seed=8, events=(ChaosEvent(at=45.0, kind="worker-kill"),)
        )
        try:
            report = run_differential(mini_config(), sched, backend=backend)
        finally:
            backend.close()
        assert report.runs["chaos"].runtime_counters["exec.worker_lost"] > 0
        assert report.skipped != []
        assert report.mismatches == []
        reference, chaos = report.digests["fault-free"], report.digests["chaos"]
        for window in range(max(report.skipped) + 1, len(reference) + 1):
            assert chaos[window] == reference[window]
        assert report.ok, report.summary()

    def test_armed_but_unexercised_run_fails_the_verdict(self):
        # A worker event that never actually lost a worker proves
        # nothing — the report must refuse to claim fault coverage even
        # when every digest matches.
        sched = ChaosSchedule(
            seed=2, events=(ChaosEvent(at=45.0, kind="worker-kill"),)
        )
        report = run_differential(
            mini_config(num_windows=2), sched, backend=ArmedButHarmless()
        )
        assert report.mismatches == []
        assert report.unmet == [
            "chaos: applied worker faults lost a worker (exec.worker_lost > 0)"
        ]
        assert not report.ok
        assert "UNMET: chaos: applied worker faults lost a worker" in report.summary()
