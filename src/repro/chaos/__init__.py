"""Chaos harness: declarative fault schedules and a differential oracle.

Redoop's fault-tolerance claim (paper Sec. 5) is that metadata rollback
plus re-execution makes every recoverable failure *output-neutral*: the
per-window answers of a run that suffered task kills, node losses,
cache losses, cache corruption, stragglers, and ingest bursts must be
byte-identical to a fault-free run of the same workload. This package
turns that claim into an executable check:

* :class:`~repro.chaos.schedule.ChaosSchedule` — a seeded, replayable
  composition of mid-flight fault events (JSON round-trippable so CI
  can upload a failing schedule as an artifact);
* :func:`~repro.chaos.invariants.check_invariants` — structural
  consistency of controller ready bits vs. registry entries vs.
  scheduler task lists vs. node-local files, run after every injection;
* :func:`~repro.chaos.driver.run_chaos_series` — executes a workload
  under a schedule, applying events between ingest steps;
* :func:`~repro.chaos.oracle.differential` — the one comparison
  primitive: per-window digest tables of a reference run and variant
  runs must agree outside excused (degraded) windows, with no invariant
  violation and every stated requirement met;
* :func:`~repro.chaos.oracle.run_differential` — builds the runs: a
  fault-free serial reference vs. a chaos run on any backend (whose
  real OS workers ``worker-kill`` / ``worker-hang`` events crash and
  hang), or vs. cold and warm runs against a cross-query reuse store.

See ``docs/fault-tolerance.md`` for the failure domains and semantics.
"""

from .schedule import ChaosEvent, ChaosSchedule, EVENT_KINDS
from .invariants import check_invariants
from .driver import ChaosReport, run_chaos_series
from .oracle import Differential, differential, run_differential

__all__ = [
    "ChaosEvent",
    "ChaosReport",
    "ChaosSchedule",
    "Differential",
    "EVENT_KINDS",
    "check_invariants",
    "differential",
    "run_chaos_series",
    "run_differential",
]
