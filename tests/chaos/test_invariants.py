"""The cross-layer invariant checker: clean runs pass, drift is caught."""

from __future__ import annotations

import pytest

from repro.chaos import check_invariants
from repro.core import RecoveryManager
from repro.core.scheduler import MapTaskRequest

from tests.core.test_runtime import feed, make_runtime


@pytest.fixture
def warm_runtime():
    runtime = make_runtime()
    feed(runtime, 70.0)
    runtime.run_recurrence("wc", 1)
    return runtime


class TestCleanState:
    def test_fresh_runtime_consistent(self):
        assert check_invariants(make_runtime()) == []

    def test_warm_runtime_consistent(self, warm_runtime):
        assert check_invariants(warm_runtime) == []

    def test_consistent_after_managed_recovery(self, warm_runtime):
        # The sanctioned paths (RecoveryManager) leave no drift behind.
        recovery = RecoveryManager(warm_runtime)
        recovery.fail_node(1)
        assert check_invariants(warm_runtime) == []
        recovery.recover_node(1)
        assert check_invariants(warm_runtime) == []


class TestDriftDetection:
    def test_unmanaged_node_death_flagged(self, warm_runtime):
        # Killing the node behind the RecoveryManager's back leaves
        # placements pointing at a dead node and a stale registry.
        warm_runtime.cluster.fail_node(1)
        violations = check_invariants(warm_runtime)
        assert any("node is dead" in v for v in violations)
        assert any("dead node 1 registry" in v for v in violations)

    def test_vanished_local_file_flagged(self, warm_runtime):
        registry = warm_runtime.registries()[1]
        entry = registry.live_entries()[0]
        registry.node.delete_local(entry.local_name)
        violations = check_invariants(warm_runtime)
        assert any("no live registry entry" in v for v in violations) or any(
            "file is gone" in v for v in violations
        )

    def test_cached_bytes_drift_flagged(self, warm_runtime):
        # A backing file deleted behind the registry's back: the running
        # total still counts it, the files no longer hold it.
        registry = warm_runtime.registries()[1]
        entry = registry.live_entries()[0]
        registry.node.delete_local(entry.local_name)
        violations = check_invariants(warm_runtime)
        assert any(
            f"node 1 registry counts {registry.cached_bytes} cached bytes "
            f"but its files hold {registry.cached_bytes - entry.size}" in v
            for v in violations
        )

    def test_leftover_map_task_flagged(self, warm_runtime):
        warm_runtime.scheduler.enqueue_map(
            MapTaskRequest(
                query="wc", pid="wc:S1P0", input_bytes=100, locations=(1,)
            )
        )
        violations = check_invariants(warm_runtime)
        assert any("mapTaskList" in v for v in violations)

    def test_bogus_map_eligibility_flagged(self, warm_runtime):
        # A pane whose ready bit says CACHE_AVAILABLE must not be
        # map-eligible; forcing it in simulates a misfired listener.
        warm_runtime._map_eligible.add("wc:S1P0")
        violations = check_invariants(warm_runtime)
        assert any("map-eligible wc:S1P0" in v for v in violations)
