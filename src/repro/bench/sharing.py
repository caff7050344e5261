"""Shared-scan differential: sharing on vs. off, byte-identical.

The shared-scan optimizer (``docs/plan.md``) must be a pure performance
optimization — fanning one tenant's partitioned map output into another
tenant's shuffle may never change an answer. This module pins that with
the same :func:`~repro.chaos.oracle.differential` primitive the chaos
and reuse tiers use: run the multi-tenant service scenario twice, once
with sharing off (the reference) and once with sharing on, and require
every tenant's per-window output digest to match byte-for-byte, while
the shared run actually shares (``plan.shared_scans`` > 0,
``plan.shared_map_bytes_saved`` > 0 — an oracle that never exercises the
optimizer proves nothing).

A deterministic *fault plan* (node kills/recoveries at fixed virtual
times, applied identically to both runs) extends the differential to
chaos schedules: a failed node loses its caches, the re-mapped panes go
through the registry's absorb path, and the digests still must match.
Process backends ride through the ``backend_factory`` hook — each run
gets a fresh backend so pool state never leaks between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..chaos.oracle import Differential, differential
from .service import (
    ScenarioRun,
    ServiceScenario,
    build_server,
    drive_scenario,
)

__all__ = [
    "FaultAction",
    "default_fault_plan",
    "run_sharing_differential",
]


@dataclass(frozen=True)
class FaultAction:
    """One deterministic fault step: kill or recover a node by id."""

    time: float
    kind: str  # "node-kill" | "node-recover"
    node_id: int


def default_fault_plan(scenario: ServiceScenario) -> List[FaultAction]:
    """Kill one node mid-horizon, recover it a few slides later."""
    h, s = scenario.horizon, scenario.slide
    victim = scenario.num_nodes - 1
    return [
        FaultAction(time=round(h * 0.4 / s) * s, kind="node-kill", node_id=victim),
        FaultAction(time=round(h * 0.7 / s) * s, kind="node-recover", node_id=victim),
    ]


def _drive_one(
    scenario: ServiceScenario,
    *,
    share_scans: bool,
    backend,
    fault_plan: Sequence[FaultAction],
) -> Tuple[ScenarioRun, int]:
    server = build_server(scenario, backend=backend, share_scans=share_scans)
    applied = 0
    if fault_plan:
        from ..core.recovery import RecoveryManager

        recovery = RecoveryManager(server.runtime)
        pending = sorted(fault_plan, key=lambda a: (a.time, a.node_id))
        cursor = [0]

        def pace(now: float) -> None:
            while cursor[0] < len(pending) and pending[cursor[0]].time <= now + 1e-9:
                action = pending[cursor[0]]
                cursor[0] += 1
                node = server.runtime.cluster.node(action.node_id)
                if action.kind == "node-kill" and node.alive:
                    recovery.fail_node(action.node_id)
                elif action.kind == "node-recover" and not node.alive:
                    recovery.recover_node(action.node_id)

        run = drive_scenario(scenario, server, pace=pace)
        applied = cursor[0]
    else:
        run = drive_scenario(scenario, server)
    return run, applied


def run_sharing_differential(
    scenario: Optional[ServiceScenario] = None,
    *,
    backend_factory: Optional[Callable[[], object]] = None,
    fault_plan: Sequence[FaultAction] = (),
) -> Differential:
    """Drive the scenario with sharing off then on; compare digests.

    Both runs see the identical batch schedule, churn plan, and fault
    plan — the only difference is the shared-scan registry. Windows are
    keyed ``(tenant, recurrence)``; the report is ``ok`` when every one
    matches byte-for-byte AND the shared run actually skipped map phases.
    """
    scenario = scenario if scenario is not None else ServiceScenario()
    runs = {}
    applied = 0
    for label, share in (("unshared", False), ("shared", True)):
        backend = backend_factory() if backend_factory is not None else None
        try:
            runs[label], applied = _drive_one(
                scenario,
                share_scans=share,
                backend=backend,
                fault_plan=fault_plan,
            )
        finally:
            if backend is not None:
                backend.close()
    counters = runs["shared"].counters
    notes = [
        f"tenants={scenario.tenants} recurrences={scenario.recurrences} "
        f"faults_applied={applied}"
    ]
    for name in (
        "plan.shared_scans",
        "plan.shared_map_bytes_saved",
        "plan.map_outputs_published",
        "plan.map_outputs_retired",
    ):
        notes.append(f"{name:28} {counters.get(name, 0.0):10.0f}")
    return differential(
        runs,
        {
            label: {
                (tenant, recurrence): digest
                for tenant, rows in run.digests.items()
                for recurrence, digest in rows
            }
            for label, run in runs.items()
        },
        require={
            "the shared run shared a scan (plan.shared_scans > 0)": (
                counters.get("plan.shared_scans", 0.0) > 0
            ),
            "sharing saved map bytes (plan.shared_map_bytes_saved > 0)": (
                counters.get("plan.shared_map_bytes_saved", 0.0) > 0
            ),
        },
        notes=notes,
    )
