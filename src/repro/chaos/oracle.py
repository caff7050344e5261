"""The differential oracle: a reference run vs. variant runs, per window.

Redoop's recovery contract (paper Sec. 5) is *output neutrality*: for
every recoverable fault, metadata rollback plus re-execution yields the
same per-window answers the fault-free run produced — faults may cost
time, never correctness. The same contract covers every optimization
that may only change *when* an answer is computed: real worker faults
under the supervised process backend, the cross-query reuse store, and
shared scans. One primitive checks all of them:

* :func:`differential` compares ``window -> digest`` tables of several
  runs against the first (the reference). A window whose digest differs,
  or that one run fired and another did not, is a mismatch. Degraded
  windows — attempt exhaustion, the non-recoverable fault, whose output
  is empty by design — are excused via ``skip``; every later window must
  still converge. ``require`` names the evidence that the variant really
  exercised what it claims to (a worker was lost, the store served), so
  a run that never injected anything cannot pass as proof.
* :func:`run_differential` builds the runs for one workload: a
  fault-free serial reference, then one chaos run on ``backend`` — or,
  with a ``reuse_store``, a cold and a warm run against that store.

Digests are placement- and timing-independent (sorted reprs of the final
output pairs), so retries, node kills, cache loss/corruption, stragglers
and served artifacts must not move them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..bench.harness import ExperimentConfig, SeriesResult, build_workload, run_redoop_series
from .driver import run_chaos_series
from .schedule import ChaosSchedule

__all__ = ["Differential", "differential", "run_differential"]

#: Stands in for the digest of a window a run never fired.
_ABSENT = object()

#: ``exec.*`` recovery counters a worker-fault run reports.
_RECOVERY_COUNTERS = ("exec.retries", "exec.worker_lost", "exec.quarantined", "exec.pool_rebuilds")


@dataclass(slots=True)
class Differential:
    """Outcome of one differential comparison."""

    #: label -> the run object, for callers to report on.
    runs: Dict[str, Any]
    #: label -> ``window -> digest``; the first label is the reference.
    digests: Dict[str, Dict[Hashable, Any]]
    #: ``(window, label)``: ``label``'s digest for ``window`` differs from
    #: the reference's, or only one of the two fired the window.
    mismatches: List[Tuple[Hashable, str]] = field(default_factory=list)
    #: Excused (degraded) windows, sorted.
    skipped: List[Hashable] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    #: Requirement sentences that did not hold.
    unmet: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def reference(self) -> str:
        return next(iter(self.digests))

    @property
    def ok(self) -> bool:
        """Every digest matched where it must, no invariant broke, and
        every requirement held."""
        return not (self.mismatches or self.violations or self.unmet)

    def summary(self) -> str:
        """One paragraph for CLI output / CI logs."""
        lines = list(self.notes)
        if self.skipped:
            lines.append(
                "  degraded windows (empty output, by design): "
                + ", ".join(map(str, self.skipped))
            )
        for window, label in self.mismatches:
            fired = [run for run in (self.reference, label) if window in self.digests[run]]
            detail = (
                f"{label} differs from {self.reference}"
                if len(fired) == 2
                else f"fired by {fired[0]} only"
            )
            lines.append(f"  DIGEST MISMATCH window {window}: {detail}")
        lines.extend(f"  INVARIANT VIOLATION {v}" for v in self.violations)
        lines.extend(f"  UNMET: {sentence}" for sentence in self.unmet)
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def differential(
    runs: Mapping[str, Any],
    digests: Mapping[str, Mapping[Hashable, Any]],
    *,
    skip: Iterable[Hashable] = (),
    violations: Iterable[str] = (),
    require: Optional[Mapping[str, bool]] = None,
    notes: Iterable[str] = (),
) -> Differential:
    """Compare every run's ``window -> digest`` table with the first's.

    ``digests`` maps each run label to its table; the first label is the
    reference. A window present in one table and absent from the other
    is a mismatch, unless it is in ``skip``. ``require`` maps a sentence
    (e.g. "the warm run hit the store") to whether it held; each one
    that did not fails the verdict.
    """
    tables = {label: dict(table) for label, table in digests.items()}
    reference = next(iter(tables.values()))
    excused = set(skip)
    mismatches = [
        (window, label)
        for label, table in list(tables.items())[1:]
        for window in sorted(set(reference) | set(table))
        if window not in excused and reference.get(window, _ABSENT) != table.get(window, _ABSENT)
    ]
    return Differential(
        runs=dict(runs),
        digests=tables,
        mismatches=mismatches,
        skipped=sorted(excused),
        violations=list(violations),
        unmet=[sentence for sentence, held in (require or {}).items() if not held],
        notes=list(notes),
    )


def run_differential(
    config: ExperimentConfig,
    schedule: Optional[ChaosSchedule] = None,
    *,
    backend=None,
    reuse_store=None,
    check: bool = True,
) -> Differential:
    """Run one workload fault-free and under ``schedule``; compare digests.

    The reference is a fault-free ``run_redoop_series`` on the serial
    backend. The variant is one ``run_chaos_series`` on ``backend``; with
    a ``reuse_store`` it is two — ``cold`` (publishes into the store)
    then ``warm`` (a fresh cluster served from it). All runs share one
    generated workload but execute on independent, identically-seeded
    clusters, so a divergence outside degraded windows is a bug.

    Requirements: applied ``worker-kill`` / ``worker-hang`` events must
    have lost a real worker, and the warm run must have hit the store.
    """
    schedule = schedule if schedule is not None else ChaosSchedule(seed=0, events=())
    workload = build_workload(config)
    runs: Dict[str, SeriesResult] = {
        "fault-free": run_redoop_series(config, label="fault-free", workload=workload)
    }
    notes = []
    skip = set()
    violations = []
    require: Dict[str, bool] = {}
    for label in ("cold", "warm") if reuse_store is not None else ("chaos",):
        chaos = run_chaos_series(
            config,
            schedule,
            label=label,
            workload=workload,
            check=check,
            backend=backend,
            reuse_store=reuse_store,
        )
        runs[label] = chaos.series
        skip.update(chaos.degraded_windows)
        violations.extend(f"{label}: {v}" for v in chaos.violations)
        counters = chaos.series.runtime_counters
        notes.append(
            f"{label}: seed={schedule.seed} events={len(schedule)} "
            f"applied={len(chaos.events_applied)} windows={config.num_windows}"
        )
        notes.extend(f"  injected {desc}" for desc in chaos.events_applied)
        recovery = [
            f"{name.split('.', 1)[1]}={counters[name]:.0f}"
            for name in _RECOVERY_COUNTERS
            if name in counters
        ]
        if recovery:
            notes.append("  recovery: " + " ".join(recovery))
        if any("worker-kill" in d or "worker-hang" in d for d in chaos.events_applied):
            require[f"{label}: applied worker faults lost a worker (exec.worker_lost > 0)"] = (
                counters.get("exec.worker_lost", 0) > 0
            )
    if reuse_store is not None:
        warm = runs["warm"].runtime_counters
        notes.append(
            f"warm: reuse hits={warm.get('reuse.hits', 0):.0f} "
            f"bytes_saved={warm.get('reuse.bytes_saved', 0):.0f}"
        )
        require["the warm run hit the store (reuse.hits > 0)"] = warm.get("reuse.hits", 0) > 0
    return differential(
        runs,
        {label: dict(enumerate(series.output_digests, 1)) for label, series in runs.items()},
        skip=skip,
        violations=violations,
        require=require,
        notes=notes,
    )
