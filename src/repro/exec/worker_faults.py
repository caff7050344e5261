"""Real-process worker fault injection for the execution backends.

The chaos harness's other fault domains are *simulated*: they mutate
metadata (ready bits, registries, placements) and let the recovery
protocol repair it. This module injects faults into the **real** OS
processes of a :class:`~repro.exec.backends.ProcessPoolBackend` worker
pool: a worker can crash hard (``os._exit`` — no exception, no cleanup,
exactly like an OOM kill), hang past the supervisor's batch deadline,
or merely slow down. The supervisor in :mod:`repro.exec.supervisor`
must detect each, recover, and keep window digests byte-identical to a
fault-free serial run — the contract the differential oracle
(``repro.chaos.oracle.run_differential`` on a supervised process
backend) enforces.

Faults are armed on the *coordinator* side (a seeded plan or a chaos
event decides which task ordinals are hit) and shipped into the worker
as a tiny picklable :class:`WorkerFault` riding the submitted call.
Only first attempts carry faults: a retried task re-runs clean, which
is what makes every injected worker fault recoverable by construction.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

__all__ = [
    "WORKER_FAULT_KINDS",
    "WorkerFault",
    "WorkerFaultPlan",
    "faulty_invoke",
]

#: Fault kinds a worker wrapper can apply inside the pool process.
WORKER_FAULT_KINDS = ("kill", "hang", "slow")


@dataclass(frozen=True)
class WorkerFault:
    """One armed fault, applied by :func:`faulty_invoke` in the worker.

    ``seconds`` is the sleep for ``hang``/``slow``; a hang must be
    armed with a duration comfortably past the supervisor's batch
    deadline (the supervisor computes it), so the only way the batch
    finishes is a deadline reap.
    """

    kind: str
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"unknown worker fault kind {self.kind!r}; "
                f"expected one of {WORKER_FAULT_KINDS}"
            )
        if self.kind in ("hang", "slow") and self.seconds <= 0:
            raise ValueError(f"{self.kind} needs a positive seconds")


def faulty_invoke(
    fault: Optional[WorkerFault],
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
):
    """Run one task in a pool worker, applying ``fault`` first.

    Module-level so it pickles into workers. Mirrors the payload of
    ``backends._timed_invoke``: ``(pid, thread ident, wall, result)``.
    A ``kill`` never returns — ``os._exit`` skips ``atexit`` handlers
    and ``finally`` blocks, so the coordinator sees a broken pool, not
    a tidy exception. A ``hang`` sleeps past the batch deadline; the
    worker is reaped before the sleep ends, so the trailing task body
    is never observed.
    """
    if fault is not None:
        if fault.kind == "kill":
            os._exit(17)
        elif fault.kind in ("hang", "slow"):
            time.sleep(fault.seconds)
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return (os.getpid(), threading.get_ident(), time.perf_counter() - t0, result)


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A seeded scattering of worker faults over future task ordinals.

    ``span`` first-attempt submissions (counted from the moment the
    plan is armed) form the target space; ``kills`` + ``hangs`` +
    ``slows`` distinct ordinals inside it are drawn with
    ``random.Random(seed)``, so one ``(seed, span, counts)`` tuple
    replays the exact same fault placement. Used by the throughput
    bench and the CLI's ``--worker-fault-*`` flags; chaos schedules
    instead pin faults to virtual times via ``worker-kill`` /
    ``worker-hang`` events.
    """

    seed: int
    kills: int = 0
    hangs: int = 0
    slows: int = 0
    #: Ordinal space the faults are scattered over.
    span: int = 64
    slow_seconds: float = 0.05

    def __post_init__(self) -> None:
        total = self.kills + self.hangs + self.slows
        if min(self.kills, self.hangs, self.slows) < 0:
            raise ValueError("fault counts are non-negative")
        if total > self.span:
            raise ValueError(
                f"{total} faults do not fit in a span of {self.span} tasks"
            )

    def assign(
        self, start_ordinal: int, *, hang_seconds: float
    ) -> Dict[int, WorkerFault]:
        """Map absolute task ordinals to faults, deterministically."""
        rng = random.Random(self.seed)
        slots = rng.sample(range(self.span), self.kills + self.hangs + self.slows)
        faults: Dict[int, WorkerFault] = {}
        cursor = 0
        for _ in range(self.kills):
            faults[start_ordinal + slots[cursor]] = WorkerFault("kill")
            cursor += 1
        for _ in range(self.hangs):
            faults[start_ordinal + slots[cursor]] = WorkerFault(
                "hang", seconds=hang_seconds
            )
            cursor += 1
        for _ in range(self.slows):
            faults[start_ordinal + slots[cursor]] = WorkerFault(
                "slow", seconds=self.slow_seconds
            )
            cursor += 1
        return faults
