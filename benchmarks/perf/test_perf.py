"""Checks of the wall-clock benchmark itself, on its ``--size smoke`` workloads.

Not part of tier-1; run explicitly (about half a minute on two cores)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf.cli import ROOT, load_benchmark
from benchmarks.perf.workloads import SMOKE, StepTimer, workload


def _run(out: Path, *args: str) -> dict:
    cmd = [sys.executable, "benchmarks/perf/run.py", "--size", "smoke", "--seconds", "0"]
    proc = subprocess.run(
        [*cmd, "--out", str(out), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two untraced runs and one traced run of every smoke workload."""
    out = tmp_path_factory.mktemp("perf") / "runs.json"
    untraced = _run(out, "--repeat", "2")
    traced = _run(out, "--trace", "1")
    return untraced, traced, json.loads(out.read_text())["runs"]


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    untraced, traced, _runs = smoke
    bench = load_benchmark()
    for line, family in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        for name in SMOKE:
            for metric in bench[family]:
                emitted = line["metrics"][f"{name}.{metric['name']}"]
                assert emitted["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(emitted["value"], (int, float))


def test_every_expected_wrapper_fires(smoke):
    _untraced, traced, runs = smoke
    for run in runs:
        if not run["trace"]:
            continue
        assert run["missing_wrappers"] == []
        assert run["errors"] == []
        for layer in workload(run["workload"], "smoke").layers():
            assert traced["metrics"][f"{run['workload']}.{layer}.calls"]["value"] > 0, layer


def test_deterministic_counts_repeat_exactly(smoke):
    _untraced, _traced, runs = smoke
    for name in SMOKE:
        first, second = [r for r in runs if r["workload"] == name and not r["trace"]]
        assert first["work"] == second["work"]
        for metric in ("sim_response_s.p50", "checkpoint_kb"):
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)


@pytest.mark.parametrize("name", ["agg-steady", "join-combos"])
def test_oracle_flags_an_output_with_one_pair_dropped(tmp_path, name):
    wl = workload(name, "smoke")
    inputs = wl.generate(3)
    outcome = wl.run(wl.setup(inputs, tmp_path), inputs, StepTimer(), tmp_path)
    assert inputs.oracle.mismatches(outcome.results) == []
    victim = outcome.results[-1]
    assert victim.output
    victim.output.pop(len(victim.output) // 2)
    assert inputs.oracle.mismatches(outcome.results) == [(victim.query, victim.recurrence)]
