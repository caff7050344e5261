"""The shared-scan differential oracle, end to end through the service.

These are the tests the CI fast lane's smoke step mirrors
(``repro plan --differential``): sharing on vs. off must be
byte-identical per tenant per window, under churn, under a
deterministic node kill/recover plan, and under a real process-pool
backend — while the shared run demonstrably skips map work.
"""

from __future__ import annotations

import pytest

from repro.bench.service import ServiceScenario, build_server
from repro.bench.sharing import (
    FaultAction,
    default_fault_plan,
    run_sharing_differential,
)

SCENARIO = ServiceScenario(tenants=3, recurrences=6)


def test_differential_is_byte_identical_and_shares():
    report = run_sharing_differential(SCENARIO)
    assert report.mismatches == []
    counters = report.runs["shared"].counters
    assert counters["plan.shared_scans"] > 0
    assert counters["plan.shared_map_bytes_saved"] > 0
    assert report.unmet == []
    assert report.ok
    assert report.summary().endswith("verdict: OK")
    # Windows are keyed per tenant: every tenant's recurrences compared.
    assert {tenant for tenant, _ in report.digests["shared"]} == {"t00", "t01", "t01r", "t02"}


def test_differential_survives_a_node_kill():
    plan = default_fault_plan(SCENARIO)
    assert [a.kind for a in plan] == ["node-kill", "node-recover"]
    report = run_sharing_differential(SCENARIO, fault_plan=plan)
    assert "faults_applied=2" in report.summary()
    assert report.ok, report.summary()


def test_differential_reports_a_manufactured_mismatch():
    # The oracle itself must be falsifiable: feed it runs that cannot
    # share (single tenant fleet) and require a non-ok report.
    lone = ServiceScenario(tenants=1, recurrences=3, churn=False)
    report = run_sharing_differential(lone)
    assert report.mismatches == []  # outputs still agree...
    assert report.runs["shared"].counters.get("plan.shared_scans", 0) == 0
    assert "the shared run shared a scan (plan.shared_scans > 0)" in report.unmet
    assert not report.ok  # ...but nothing was shared
    assert "UNMET: the shared run shared a scan" in report.summary()


def test_submit_counts_prefix_matches():
    server = build_server(SCENARIO, share_scans=True)
    counters = server.counters.as_dict()
    # t01 and t02 each matched an already-registered IR-equal prefix.
    assert counters["plan.prefix_matches"] == 2.0
    assert server.runtime.shared_prefix_peers("t00") == {
        "wcc": ["t01", "t02"]
    }


def test_submit_without_sharing_emits_no_plan_counters():
    server = build_server(SCENARIO, share_scans=False)
    assert not any(
        name.startswith("plan.") for name in server.counters.as_dict()
    )


@pytest.mark.slow
def test_differential_with_process_backend():
    from repro.exec import ProcessPoolBackend

    scenario = ServiceScenario(tenants=2, recurrences=5, churn=False)
    report = run_sharing_differential(
        scenario,
        backend_factory=lambda: ProcessPoolBackend(workers=2),
    )
    assert report.ok, report.summary()


@pytest.mark.slow
def test_fault_plan_actions_are_idempotent_against_dead_nodes():
    # Killing an already-dead node (or recovering a live one) is a
    # no-op, so a fault plan denser than the node's state transitions
    # still drives to an ok report.
    plan = list(default_fault_plan(SCENARIO))
    victim = plan[0].node_id
    plan.insert(
        1, FaultAction(time=plan[0].time, kind="node-kill", node_id=victim)
    )
    report = run_sharing_differential(SCENARIO, fault_plan=plan)
    assert report.ok, report.summary()
