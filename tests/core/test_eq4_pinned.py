"""Eq. 4 placements pinned decision by decision.

Three small runs (a Fig. 6 aggregation, a Fig. 7 join, and a join whose
injected task failures blacklist nodes) record every ``select``
decision's ``(task, node_id, load, c_task)`` and the run's ``sched.*``
counters. The fixture holds the sequences the closure-based Eq. 4
produced, so a faster evaluation must reproduce every placement and
both terms of the objective to the last bit.

Regenerate (only for a deliberate change of placement)::

    PYTHONPATH=src python -m tests.core.test_eq4_pinned
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.bench.experiments import aggregation_config, join_config
from repro.bench.harness import build_workload
from repro.core import RedoopRuntime
from repro.hadoop import Cluster
from repro.hadoop.faults import FaultInjector
from repro.hadoop.timeline import decisions

FIXTURE = Path(__file__).parent / "fixtures" / "eq4_decisions.json"


def _faulty_join():
    return join_config(0.5, scale=0.02, num_windows=4), FaultInjector(
        task_failure_prob=0.3, seed=11
    )


RUNS = {
    "fig6-aggregation": lambda: (aggregation_config(0.5, scale=0.05, num_windows=4), None),
    "fig7-join": lambda: (join_config(0.5, scale=0.02, num_windows=4), None),
    "fig7-join-blacklisting": _faulty_join,
}


def record(name: str) -> Dict[str, object]:
    """Run ``name`` and return its select decisions and sched counters."""
    config, faults = RUNS[name]()
    cluster = Cluster(config.cluster_config, seed=config.seed)
    runtime = RedoopRuntime(cluster, fault_injector=faults)
    query = config.build_query()
    runtime.register_query(query, {src: config.rate for src in config.sources})
    workload = build_workload(config)
    pending = sorted(
        (item for items in workload.values() for item in items),
        key=lambda bw: (bw[0].t_end, bw[0].source),
    )
    cursor = 0
    for recurrence in range(1, config.num_windows + 1):
        due = query.execution_time(recurrence)
        while cursor < len(pending) and pending[cursor][0].t_end <= due + 1e-9:
            runtime.ingest(*pending[cursor])
            cursor += 1
        runtime.run_recurrence(query.name, recurrence)
    selects: List[list] = [
        [d.task, d.node_id, d.load, d.c_task]
        for d in decisions(runtime.tracer, event="select")
    ]
    counters = {
        k: v for k, v in sorted(runtime.counters.as_dict().items())
        if k.startswith("sched.")
    }
    return {"selects": selects, "sched_counters": counters}


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, object]]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_select_decisions_match_the_pinned_sequence(name, pinned):
    got = record(name)
    want = pinned[name]
    assert len(got["selects"]) == len(want["selects"])
    for i, (g, w) in enumerate(zip(got["selects"], want["selects"])):
        assert g == w, f"select #{i} of {name} moved"
    assert got["sched_counters"] == want["sched_counters"]


def test_the_blacklist_branch_ran(pinned):
    counters = pinned["fig7-join-blacklisting"]["sched_counters"]
    assert counters.get("sched.nodes_blacklisted", 0) >= 1
    assert counters.get("sched.nodes_unblacklisted", 0) >= 1


def _dump(runs: Dict[str, Dict[str, object]]) -> str:
    """JSON with one decision per line, so a moved placement diffs as one line."""
    blocks = []
    for name, run in runs.items():
        selects = ",\n".join("  " + json.dumps(s) for s in run["selects"])
        blocks.append(
            f' {json.dumps(name)}: {{"sched_counters": '
            f'{json.dumps(run["sched_counters"])}, "selects": [\n{selects}\n ]}}'
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_dump({name: record(name) for name in sorted(RUNS)}))
    print(f"wrote {FIXTURE}")
