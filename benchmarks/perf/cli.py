"""Command line of the wall-clock benchmark.

``python3 benchmarks/perf/run.py`` (or ``python -m benchmarks.perf``)
runs each selected workload ``--repeat`` times, every run in a fresh
subprocess (``benchmarks.perf.measure``) with a fixed hash seed, prints
every metric by name with its unit as a median with quartiles, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``BENCHMARK.json``'s ``end_to_end``
list, with ``--trace 1`` its ``per_layer`` list. With several workloads
the metric names are prefixed ``<workload>.``. ``--out F`` writes every
run record (per-step layer splits included) to ``F``; when ``F`` exists
its runs are kept and the new ones appended, which is how one file
collects untraced and traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

__all__ = ["main", "summarize"]

ROOT = Path(__file__).resolve().parents[2]

#: A run that takes longer than this is stopped and counts as failed.
RUN_TIMEOUT_S = 170


def load_benchmark(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: Sequence[dict]) -> Dict[str, Dict[str, Dict[str, dict]]]:
    """``mode -> workload -> metric -> {unit, median, q1, q3, n}``.

    ``mode`` is ``untraced`` or ``traced``; runs of each are summarized
    apart, since only untraced runs measure end-to-end metrics.
    """
    grouped: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        mode = "traced" if run["trace"] else "untraced"
        per_metric = grouped.setdefault(mode, {}).setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {
        mode: {
            wl: {
                name: {"unit": units[name], **quartiles(values)}
                for name, values in metrics.items()
            }
            for wl, metrics in workloads.items()
        }
        for mode, workloads in grouped.items()
    }


def _run_child(args, name: str, scratch: Path) -> dict:
    env = dict(os.environ)
    # String hashing seeds the join generators and orders sets in the
    # program; a fixed mmap threshold stops glibc from adapting it at run
    # time, which otherwise makes peak RSS flip between two values.
    env["PYTHONHASHSEED"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [
        sys.executable,
        "-m",
        "benchmarks.perf.measure",
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--size",
        args.size,
        "--scratch",
        str(scratch),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{name}: the measuring process exited {proc.returncode} without a record"
        )
    return json.loads(lines[-1])


def _print_summary(summary, runs: Sequence[dict]) -> None:
    for mode, workloads in summary.items():
        for wl, metrics in workloads.items():
            traced = mode == "traced"
            mine = [r for r in runs if r["workload"] == wl and bool(r["trace"]) == traced]
            failed = sum(r["failed"] for r in mine)
            attempted = sum(r["attempted"] for r in mine)
            print(
                f"{wl} [{mode}] runs={len(mine)} passes={sum(r['passes'] for r in mine)} "
                f"failed_ratio={failed / attempted:.4g} ({failed}/{attempted})"
            )
            for name, s in metrics.items():
                spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                print(
                    f"  {name:<36} {s['median']:>14.6g} {s['unit']:<10} "
                    f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread:.1%}"
                )
            for r in mine:
                for error in r["errors"]:
                    print(f"  ERROR: {error}", file=sys.stderr)


def _final_line(bench: dict, summary, runs: Sequence[dict], trace: bool) -> dict:
    wanted = bench["per_layer" if trace else "end_to_end"]
    table = summary.get("traced" if trace else "untraced", {})
    prefix = len(table) > 1
    metrics = {}
    for wl, measured in table.items():
        for m in wanted:
            s = measured[m["name"]]
            if s["unit"] != m["unit"]:
                raise RuntimeError(f"{m['name']}: measured in {s['unit']}, declared in {m['unit']}")
            key = f"{wl}.{m['name']}" if prefix else m["name"]
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from .workloads import WORKLOADS

    bench = load_benchmark()
    parser = argparse.ArgumentParser(description="Wall-clock benchmark for recurring queries.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--repeat", type=int, default=1, help="fresh-process runs per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): traced runs reporting per-layer metrics",
    )
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="append run records to this JSON file")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    # Turn a termination request into an exception, so the running
    # measurement process is killed and reaped rather than orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else list(WORKLOADS)
    scratch = ROOT / ".perf_scratch"
    runs = [
        _run_child(args, name, scratch / f"{os.getpid()}-{i}")
        for i, name in enumerate(n for n in names for _ in range(args.repeat))
    ]
    summary = summarize(runs)
    _print_summary(summary, runs)
    if args.out:
        previous = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
        everything = previous + runs
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpu_count": os.cpu_count(),
                    "summary": summarize(everything),
                    "runs": everything,
                },
                separators=(",", ":"),
            )
            + "\n"
        )
    line = _final_line(bench, summary, runs, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1
