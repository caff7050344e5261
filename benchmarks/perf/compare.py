"""Compare two benchmark result files: ``compare.py BASE.json NEW.json``.

For every workload and end-to-end metric it prints both sides' median
and quartiles over their untraced runs and a verdict under the bounds in
``BENCHMARK.json``:

* ``unresolved`` when either side's spread, (q3 - q1) / median, is
  wider than the bound, unless every new run reads better than every
  base run;
* ``worse`` / ``better`` when the new median moved by more than the
  bound in the metric's bad / good direction (and, for set-up time, by
  more than an absolute floor);
* ``same`` otherwise.

Exits 1 if any verdict is ``worse``. Run as
``python3 benchmarks/perf/compare.py A.json B.json`` from a checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf.cli import load_benchmark, quartiles  # noqa: E402

__all__ = ["compare", "main"]

#: Absolute change below which a time counts as unchanged, in seconds:
#: set-up takes microseconds to milliseconds, where a relative bound
#: alone would flag noise.
FLOORS = {"setup_s": 0.020}


def _values(path: Path) -> Dict[str, Dict[str, List[float]]]:
    runs = json.loads(path.read_text())["runs"]
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    return table


def verdict(metric: dict, base: Sequence[float], new: Sequence[float]) -> str:
    """One metric's verdict; ``metric`` is its ``BENCHMARK.json`` entry."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a, b = quartiles(base), quartiles(new)

    def spread(s):
        return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0

    if max(spread(a), spread(b)) > bound:
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "better"
        return "unresolved"
    delta = b["median"] - a["median"]
    if abs(delta) <= FLOORS.get(metric["name"], 0.0):
        return "same"
    change = sign * delta / abs(a["median"]) if a["median"] else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base: Path, new: Path, bench: Optional[dict] = None) -> List[dict]:
    bench = bench or load_benchmark()
    a, b = _values(base), _values(new)
    rows = []
    for workload in sorted(set(a) | set(b)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            row = {
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "bound": metric["bound"],
            }
            if not va or not vb:
                row["verdict"] = "missing"
            else:
                row.update(base=quartiles(va), new=quartiles(vb), verdict=verdict(metric, va, vb))
            rows.append(row)
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.base, args.new)

    def fmt(s):
        return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"

    for row in rows:
        sides = (
            f"{fmt(row['base'])}  ->  {fmt(row['new'])}" if "base" in row else "(not in both files)"
        )
        print(
            f"{row['workload']:<13} {row['metric']:<20} {row['unit']:<10} "
            f"bound {row['bound']:<5} {row['verdict']:<10} {sides}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
