"""Benchmark entry point: ``python3 benchmarks/perf/run.py --help``.

Runs from the root of a checkout; see ``benchmarks/perf/README.md``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.perf.cli import main

    sys.exit(main())
