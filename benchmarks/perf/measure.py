"""One measured run of one workload, in a fresh process.

``python -m benchmarks.perf.measure --workload W --seed S --seconds T
--trace 0|1`` generates the workload's input from the seed, then runs
passes of the workload for about ``T`` seconds (at least one pass; a
pass starts when it would end the run nearer to ``T`` than stopping).
Every pass sets the program up from scratch, drives all its steps, and
has its windows checked by the oracle outside the timed region. The
last line of standard output is one JSON record.

Untraced runs report the end-to-end metrics. Traced runs alternate
untraced and traced passes (the pair gives ``trace_overhead``) and
report the per-layer metrics averaged per traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .layers import LAYER_NAMES, LayerClock
from .workloads import PassOutcome, StepTimer, workload

__all__ = ["main", "measure"]

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 41
#: Restores of the post-run checkpoint; ``restore_s`` is their median.
RESTORE_SAMPLES = 3
#: The traced run fails below this share of step time attributed.
MIN_COVERAGE = 0.90

#: Deterministic work counts reported per pass in traced runs.
WORK_COUNTS = {
    "map.tasks": "count",
    "shuffle.bytes": "B",
    "hdfs.bytes_written": "B",
    "cache.bytes_written": "B",
    "join.combos_computed": "count",
    "plan.shared_scans": "count",
}


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentile(values: Sequence[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


class _Pass:
    """A finished pass: the program's outcome plus its timings."""

    def __init__(self, outcome: PassOutcome, timer: StepTimer, bad: set, wall: float):
        self.outcome = outcome
        self.timer = timer
        self.bad = bad
        self.wall = wall
        self.windows = len(outcome.results)
        # Checked already; holding every pass's outputs would let the
        # heap grow with the pass count.
        outcome.results = []

    @property
    def step_s(self) -> float:
        return sum(self.timer.walls)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str, scratch: Path) -> dict:
    wl = workload(name, size)
    inputs = wl.generate(seed)
    # The pre-generated input stands in for data arriving from outside
    # the process: keep it out of the collector's generations so it
    # does not slow the program's own garbage collections.
    gc.collect()
    gc.freeze()
    rss_base = _rss_mb()

    setups: List[float] = []
    passes: List[_Pass] = []
    peak: List[float] = []

    def run_pass(clock: Optional[LayerClock]) -> _Pass:
        if passes:
            passes[-1].outcome.program = None
        gc.collect()
        where = scratch / f"pass{len(passes)}"
        where.mkdir(parents=True)
        started = time.perf_counter()
        program = wl.setup(inputs, where)
        setups.append(time.perf_counter() - started)
        timer = StepTimer(clock)
        outcome = wl.run(program, inputs, timer, where)
        bad = {(r.query, r.recurrence) for r in outcome.results if r.degraded}
        bad.update(inputs.oracle.mismatches(outcome.results))
        shutil.rmtree(where)
        done = _Pass(outcome, timer, bad, time.perf_counter() - started)
        passes.append(done)
        if len(passes) == 1:
            # Later passes reuse (and fragment) the first pass's heap, so
            # the footprint is read once, independent of the pass count.
            peak.append(_peak_rss_mb() - rss_base)
        return done

    def budget_left() -> bool:
        # Another pass if that ends the run nearer to ``seconds`` than
        # stopping now does.
        spent = sum(p.wall for p in passes)
        return spent + passes[-1].wall / 2 < seconds

    errors: List[str] = []
    record: dict = {
        "workload": name, "size": size, "seed": seed, "seconds": seconds, "trace": trace
    }
    if trace:
        # Untraced and traced passes alternate, so the first pass's
        # warm-up cost does not all land on one side of the overhead.
        untraced: List[_Pass] = []
        traced: List[_Pass] = []
        while not traced or budget_left():
            if len(untraced) <= len(traced):
                untraced.append(run_pass(None))
                continue
            with LayerClock() as clock:
                traced.append(run_pass(clock))
            record["missing_wrappers"] = clock.missing
        metrics = _layer_metrics(wl, untraced, traced, record, errors)
    else:
        while not passes or budget_left():
            run_pass(None)
        metrics = _end_to_end(wl, inputs, passes, setups, peak[0], scratch, record)

    first = passes[0].outcome
    for p in passes[1:]:
        if (p.outcome.sim_response_p50, p.outcome.work) != (first.sim_response_p50, first.work):
            errors.append("passes over the same input disagree on virtual time or work counts")
            break
    bad = [key for p in passes for key in sorted(p.bad)]
    if bad:
        errors.append(f"{len(bad)} windows failed the oracle or degraded, e.g. {bad[:3]}")
    attempted = sum(p.windows + p.outcome.batches for p in passes)
    failed = len(bad) + sum(p.outcome.rejected for p in passes)
    record.update(
        passes=len(passes),
        records=inputs.records,
        steps_per_pass=len(passes[0].timer.walls),
        windows_per_pass=passes[0].windows,
        correct=not errors and failed == 0,
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        errors=errors,
        work=first.work,
        metrics=metrics,
    )
    return record


def _end_to_end(
    wl, inputs, passes: List[_Pass], setups: List[float], peak: float, scratch: Path, record: dict
):
    steps = [w for p in passes for w in p.timer.walls[wl.warmup:]]
    last = passes[-1].outcome
    path = scratch / "final.ckpt"
    wl.checkpoint(last.program, path)
    checkpoint_kb = path.stat().st_size / 1024
    last.program = None
    restores = []
    for _ in range(RESTORE_SAMPLES):
        # Start each restore from a settled heap, as a freshly started
        # process would: otherwise how much the run kept alive shifts
        # when the collector's full passes fall during the restore.
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        restored = wl.restore(path)
        restores.append(time.perf_counter() - t0)
        del restored
    path.unlink()
    while len(setups) < SETUP_SAMPLES:
        where = scratch / f"setup{len(setups)}"
        where.mkdir(parents=True)
        # As before every pass: without it, whether a young-generation
        # collection of earlier garbage lands inside a ~100 us set-up
        # makes the samples bimodal (75 vs 130 us) and the median jump.
        gc.collect()
        t0 = time.perf_counter()
        program = wl.setup(inputs, where)
        setups.append(time.perf_counter() - t0)
        del program
        shutil.rmtree(where)
    record["mid_restore_s"] = [s for p in passes for s in p.outcome.mid_restores]
    return {
        "records_per_s": _metric(
            statistics.median(inputs.records / p.step_s for p in passes), "records/s"
        ),
        "step_ms.p50": _metric(_percentile(steps, 50) * 1e3, "ms"),
        "step_ms.p90": _metric(_percentile(steps, 90) * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak, "MB"),
        "sim_response_s.p50": _metric(passes[0].outcome.sim_response_p50, "virtual_s"),
        "checkpoint_kb": _metric(checkpoint_kb, "KB"),
        "restore_s": _metric(statistics.median(restores), "s"),
    }


def _layer_metrics(
    wl, untraced: List[_Pass], traced: List[_Pass], record: dict, errors: List[str]
):
    n = len(traced)
    step_s = sum(p.step_s for p in traced) / n
    functions: Dict[str, Dict[str, float]] = {}
    calls = dict.fromkeys(LAYER_NAMES, 0.0)
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    for p in traced:
        for (layer, fn), (c, s) in p.timer.totals.items():
            calls[layer] += c / n
            self_s[layer] += s / n
            entry = functions.setdefault(f"{layer}:{fn}", {"calls": 0.0, "self_s": 0.0})
            entry["calls"] += c / n
            entry["self_s"] += s / n
    coverage = sum(self_s.values()) / step_s
    if coverage < MIN_COVERAGE:
        errors.append(f"layers cover {coverage:.1%} of traced step time, below {MIN_COVERAGE:.0%}")
    silent = [layer for layer in wl.layers() if calls[layer] == 0]
    if silent:
        errors.append(f"expected layers recorded no calls: {silent}")

    metrics: Dict[str, Dict[str, object]] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = _metric(calls[layer], "count")
        metrics[f"{layer}.self_s"] = _metric(self_s[layer], "s")
        metrics[f"{layer}.share"] = _metric(self_s[layer] / step_s, "ratio")
    outcome = traced[0].outcome
    work = outcome.work
    hits, misses = work.get("cache.hits", 0.0), work.get("cache.misses", 0.0)
    # With sharing on, every pane map is either served by the registry
    # (a shared scan) or run and published for later consumers.
    shared = work.get("plan.shared_scans", 0.0)
    maps = shared + work.get("plan.map_outputs_published", 0.0)
    metrics.update(
        {
            "core.cache_registry.hit_ratio": _metric(
                hits / (hits + misses) if hits + misses else 0.0, "ratio"
            ),
            "core.cache_registry.entries": _metric(outcome.cache_entries, "count"),
            "plan.sharing.hit_ratio": _metric(shared / maps if maps else 0.0, "ratio"),
            "trace.spine.items": _metric(outcome.trace_items, "count"),
            "service.checkpoint.bytes": _metric(outcome.checkpoint_bytes, "B"),
            "coverage": _metric(coverage, "ratio"),
            "trace_overhead": _metric(
                statistics.median(p.step_s for p in traced)
                / statistics.median(p.step_s for p in untraced)
                - 1.0,
                "ratio",
            ),
        }
    )
    for name, unit in WORK_COUNTS.items():
        metrics[name] = _metric(work.get(name, 0.0), unit)
    record["functions"] = functions
    # One row per traced step, so slow (p90) steps can be attributed.
    record["step_columns"] = ["pass", "step", "wall_ms", *LAYER_NAMES]
    record["steps"] = [
        [k, i, round(wall * 1e3, 3), *(round(split.get(ly, 0.0) * 1e3, 3) for ly in LAYER_NAMES)]
        for k, p in enumerate(traced)
        for i, (wall, split) in enumerate(zip(p.timer.walls, p.timer.splits))
    ]
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--scratch", type=Path, required=True, help="checkpoint directory; the caller removes it"
    )
    args = parser.parse_args(argv)
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.scratch
    )
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
