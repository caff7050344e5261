"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates the paper's figures from a shell, printing the same
rows/series the paper plots and optionally exporting them as CSV::

    python -m repro list
    python -m repro fig6 --scale 0.5 --windows 10
    python -m repro fig8 --overlaps 0.1 0.9 --csv fig8.csv
    python -m repro headline --scale 1.0
    python -m repro fig6 --trace-out fig6-trace.json
    python -m repro report fig6-trace.json --top 5
    python -m repro serve --tenants 3 --recurrences 20 --seed 7
    python -m repro serve --restore-from ckpts/ckpt-r00023.bin
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from .bench import (
    ablation_cache_levels,
    ablation_pane_headers,
    ablation_scheduler,
    fig6_aggregation,
    fig7_join,
    fig8_adaptive,
    fig9_fault_tolerance,
    format_cumulative_table,
    format_phase_split,
    format_response_table,
    format_speedup_summary,
    headline_series,
)
from .bench.plots import plot_series, plot_speedups
from .bench.reporting import write_series_csv
from .core import EVICTION_POLICIES
from .exec import BACKENDS, make_backend
from .hadoop.config import DEFAULT_CONFIG, ClusterConfig
from .trace import (
    Tracer,
    export_chrome_trace,
    format_window_reports,
    load_chrome_trace,
    reports_as_rows,
    window_reports_from_document,
)

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig6": "aggregation response times + phase split per overlap",
    "fig7": "join response times + phase split per overlap",
    "fig8": "adaptive partitioning under 2x load spikes",
    "fig9": "fault tolerance (cumulative time, cache removals)",
    "chaos": "differential recovery oracle under seeded fault schedules",
    "capacity": "cache hit rate / cost sweep at descending byte budgets",
    "throughput": "wall-clock records/sec of the execution backends",
    "headline": "the 'up to 9x' best-case speedups",
    "ablations": "pane headers / cache levels / Eq.4 scheduling",
    "report": "per-window phase/cache/task report from a --trace-out JSON",
    "serve": "multi-tenant query server soak (churn, checkpoints, restore)",
    "reuse-bench": "cross-query reuse store: warm-vs-cold response times",
    "plan": "logical-plan IR trees, fingerprints, and shared-scan analysis",
}


def _positive(kind):
    """argparse ``type=``: parse with ``kind`` and require a value > 0.

    A malformed or non-positive value then exits with status 2 and a
    usage line, not a traceback from deep inside the run.
    """

    def parse(text: str):
        value = kind(text)  # ValueError -> "invalid int value: 'x'"
        if not value > 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


_POSITIVE_INT = _positive(int)
_POSITIVE_FLOAT = _positive(float)


def _megabytes(mb: Optional[float]) -> Optional[int]:
    """A ``--*-mb`` flag in bytes; ``None`` stays unbounded."""
    return None if mb is None else max(1, int(mb * 2**20))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Redoop paper's evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=list(BACKENDS),
            default="serial",
            help="execution backend for task user-code (default: serial; "
            "'process' runs map/reduce bodies on a worker pool — virtual "
            "time and outputs are identical either way)",
        )
        p.add_argument(
            "--workers",
            type=_POSITIVE_INT,
            default=None,
            metavar="N",
            help="worker count for --backend process "
            "(default: cpu count - 1, at least 2)",
        )

    def add_common(p: argparse.ArgumentParser, *, overlaps: bool) -> None:
        add_backend(p)
        p.add_argument(
            "--scale",
            type=_POSITIVE_FLOAT,
            default=0.5,
            help="fraction of paper-scale data volume (default 0.5)",
        )
        p.add_argument(
            "--windows",
            type=_POSITIVE_INT,
            default=10,
            help="windows per series (paper: 10)",
        )
        p.add_argument("--csv", help="also write the series to this CSV file")
        p.add_argument(
            "--plot",
            action="store_true",
            help="render ASCII bar charts of the per-window times",
        )
        p.add_argument(
            "--trace-out",
            help="write a Chrome-trace/Perfetto JSON of every series here",
        )
        p.add_argument(
            "--cache-capacity-mb",
            type=_POSITIVE_FLOAT,
            default=None,
            metavar="MB",
            help="cap each node's cache at this many megabytes "
            "(default: unbounded)",
        )
        p.add_argument(
            "--eviction-policy",
            choices=list(EVICTION_POLICIES),
            default=None,
            help="victim ranking when a write would exceed the budget "
            "(default: lru)",
        )
        if overlaps:
            p.add_argument(
                "--overlaps",
                type=float,
                nargs="+",
                default=[0.9, 0.5, 0.1],
                help="overlap factors to sweep (default: 0.9 0.5 0.1)",
            )

    for name in ("fig6", "fig7", "fig8"):
        add_common(sub.add_parser(name, help=_EXPERIMENTS[name]), overlaps=True)
    fig9 = sub.add_parser("fig9", help=_EXPERIMENTS["fig9"])
    add_common(fig9, overlaps=False)
    fig9.add_argument(
        "--node-failure-window",
        type=int,
        default=None,
        metavar="W",
        help="also run redoop(node-f): kill one node before window W, "
        "recover it before window W+1",
    )
    fig9.add_argument(
        "--cache-corruption",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="also run redoop(c): silently corrupt this fraction of live "
        "caches before each window (checksums must catch it)",
    )
    chaos = sub.add_parser("chaos", help=_EXPERIMENTS["chaos"])
    add_backend(chaos)
    chaos.add_argument(
        "--seed", type=int, default=1, help="first schedule seed (default 1)"
    )
    chaos.add_argument(
        "--seeds",
        type=_POSITIVE_INT,
        default=1,
        metavar="N",
        help="sweep N consecutive seeds starting at --seed (default 1)",
    )
    chaos.add_argument(
        "--scale",
        type=_POSITIVE_FLOAT,
        default=0.05,
        help="fraction of paper-scale data volume (default 0.05)",
    )
    chaos.add_argument(
        "--windows", type=_POSITIVE_INT, default=5, help="windows per run (default 5)"
    )
    chaos.add_argument(
        "--events-per-window",
        type=float,
        default=1.5,
        help="average injected events per window (default 1.5)",
    )
    chaos.add_argument(
        "--exhaust-window",
        type=int,
        default=None,
        metavar="W",
        help="also doom window W's combine task to attempt exhaustion "
        "(expects a degraded window, not a wrong answer)",
    )
    chaos.add_argument(
        "--capacity-fraction",
        type=float,
        default=None,
        metavar="F",
        help="bound each node's cache at F x the peak cached working "
        "set of a fault-free unbounded probe run (exercises eviction "
        "under faults; default: unbounded)",
    )
    chaos.add_argument(
        "--eviction-policy",
        choices=list(EVICTION_POLICIES),
        default=None,
        help="victim ranking used with --capacity-fraction (default: lru)",
    )
    chaos.add_argument(
        "--schedule-in",
        metavar="FILE",
        help="replay this schedule JSON (ignores --seeds and the "
        "generator knobs)",
    )
    chaos.add_argument(
        "--schedule-out",
        metavar="FILE",
        help="write the first failing schedule (else the last one run) "
        "as JSON here",
    )
    chaos.add_argument(
        "--trace-out",
        help="write Chrome-trace/Perfetto JSON of the last fault-free + "
        "chaos pair here",
    )
    chaos.add_argument(
        "--reuse",
        action="store_true",
        help="run the reuse differential instead: store-off vs cold vs "
        "warm runs under each schedule must agree on every non-degraded "
        "window digest, and the warm run must actually hit the store",
    )
    worker_faults = chaos.add_argument_group(
        "real worker faults",
        "crash/hang actual process-pool workers (implies a supervised "
        "process backend for the chaos run; the baseline stays serial "
        "and fault-free)",
    )
    worker_faults.add_argument(
        "--worker-fault-kills",
        type=int,
        default=0,
        metavar="N",
        help="scatter N worker-kill events (os._exit in a real worker) "
        "over each generated schedule (default 0)",
    )
    worker_faults.add_argument(
        "--worker-fault-hangs",
        type=int,
        default=0,
        metavar="N",
        help="scatter N worker-hang events (worker sleeps past the "
        "batch deadline) over each generated schedule (default 0)",
    )
    worker_faults.add_argument(
        "--worker-fault-deadline",
        type=float,
        default=5.0,
        metavar="S",
        help="supervisor batch deadline in wall seconds; hung workers "
        "are reaped when it expires (default 5.0)",
    )
    worker_faults.add_argument(
        "--worker-fault-retries",
        type=int,
        default=2,
        metavar="N",
        help="per-task retries before quarantine (default 2)",
    )
    worker_faults.add_argument(
        "--worker-fault-rebuilds",
        type=int,
        default=3,
        metavar="N",
        help="pool rebuilds per batch before the terminal degraded-"
        "window path (default 3)",
    )
    capacity = sub.add_parser("capacity", help=_EXPERIMENTS["capacity"])
    add_backend(capacity)
    capacity.add_argument(
        "--scale",
        type=_POSITIVE_FLOAT,
        default=0.1,
        help="fraction of paper-scale data volume (default 0.1)",
    )
    capacity.add_argument(
        "--windows", type=_POSITIVE_INT, default=6, help="windows per run (default 6)"
    )
    capacity.add_argument(
        "--overlap",
        type=float,
        default=0.5,
        help="window overlap factor of the join workload (default 0.5)",
    )
    capacity.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=[1.0, 0.75, 0.5, 0.25],
        metavar="F",
        help="budget fractions of the measured peak to sweep "
        "(default: 1.0 0.75 0.5 0.25)",
    )
    capacity.add_argument(
        "--policies",
        nargs="+",
        choices=list(EVICTION_POLICIES),
        default=list(EVICTION_POLICIES),
        help="eviction policies to sweep (default: all)",
    )
    capacity.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the sweep report as JSON here",
    )
    throughput = sub.add_parser(
        "throughput", help=_EXPERIMENTS["throughput"]
    )
    throughput.add_argument(
        "--workers",
        type=_POSITIVE_INT,
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="worker counts to sweep; 1 means the serial backend "
        "(default: 1 2 4)",
    )
    throughput.add_argument(
        "--records",
        type=int,
        default=2048,
        help="records in the workload (default 2048)",
    )
    throughput.add_argument(
        "--splits",
        type=int,
        default=32,
        help="map tasks to carve the records into (default 32)",
    )
    throughput.add_argument(
        "--spins",
        type=int,
        default=4000,
        help="arithmetic spin iterations per record (default 4000)",
    )
    throughput.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timed attempts per point; the best is kept (default 1)",
    )
    throughput.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the report as JSON here",
    )
    throughput.add_argument(
        "--worker-fault-kills",
        type=int,
        default=0,
        metavar="N",
        help="arm N seeded worker crashes per process-backend point to "
        "measure throughput under supervised recovery (default 0)",
    )
    throughput.add_argument(
        "--worker-fault-hangs",
        type=int,
        default=0,
        metavar="N",
        help="arm N seeded worker hangs per process-backend point "
        "(requires the batch deadline; default 0)",
    )
    throughput.add_argument(
        "--worker-fault-deadline",
        type=float,
        default=5.0,
        metavar="S",
        help="supervisor batch deadline for the fault points "
        "(default 5.0)",
    )
    throughput.add_argument(
        "--worker-fault-seed",
        type=int,
        default=1,
        metavar="N",
        help="seed of the fault placement plan (default 1)",
    )
    headline = sub.add_parser("headline", help=_EXPERIMENTS["headline"])
    headline.add_argument("--scale", type=_POSITIVE_FLOAT, default=0.5)
    headline.add_argument(
        "--trace-out",
        help="write a Chrome-trace/Perfetto JSON of every series here",
    )
    ablations = sub.add_parser("ablations", help=_EXPERIMENTS["ablations"])
    ablations.add_argument("--scale", type=_POSITIVE_FLOAT, default=0.5)
    ablations.add_argument(
        "--trace-out",
        help="write a Chrome-trace/Perfetto JSON of every series here",
    )
    serve = sub.add_parser("serve", help=_EXPERIMENTS["serve"])
    add_backend(serve)
    serve.add_argument(
        "--tenants", type=_POSITIVE_INT, default=3, help="concurrent queries (default 3)"
    )
    serve.add_argument(
        "--recurrences",
        type=_POSITIVE_INT,
        default=20,
        help="base-slide recurrences in the batch horizon (default 20)",
    )
    serve.add_argument(
        "--scale",
        type=_POSITIVE_FLOAT,
        default=1.0,
        help="multiplier on the scenario's arrival rate (default 1.0)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="seed for data + cluster RNG"
    )
    serve.add_argument(
        "--no-churn",
        action="store_true",
        help="disable the mid-run deregister/submit/pause/resume schedule",
    )
    serve.add_argument(
        "--checkpoint-dir",
        help="snapshot the server here at recurrence boundaries",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint every N recurrences (default 1; needs "
        "--checkpoint-dir)",
    )
    serve.add_argument(
        "--restore-from",
        metavar="CKPT",
        help="resume from this checkpoint file instead of starting fresh",
    )
    serve.add_argument(
        "--kill-after",
        type=int,
        metavar="N",
        help="stop once N recurrences have fired (simulated crash; "
        "restart with --restore-from)",
    )
    serve.add_argument(
        "--wall-clock",
        type=float,
        default=None,
        metavar="SPEEDUP",
        help="pace the virtual schedule against real time at SPEEDUP x "
        "virtual-per-wall (default: run as fast as possible)",
    )
    serve.add_argument(
        "--digests",
        action="store_true",
        help="print every per-window output digest (for soak comparison)",
    )
    serve.add_argument(
        "--trace-out",
        help="write the service trace (Chrome/Perfetto JSON) here",
    )
    serve.add_argument(
        "--reuse",
        action="store_true",
        help="attach a cross-query reuse store: overlapping tenants are "
        "served from stored pane/window artifacts (checkpointed with the "
        "server, so it survives --restore-from restarts)",
    )
    serve.add_argument(
        "--reuse-capacity-mb",
        type=_POSITIVE_FLOAT,
        default=None,
        metavar="MB",
        help="bound the reuse store at this many megabytes (cost-benefit "
        "eviction; default: unbounded; implies --reuse)",
    )
    serve.add_argument(
        "--share-scans",
        action="store_true",
        help="enable the plan-IR shared-scan optimizer: tenants with "
        "IR-equal Scan → Map → Shuffle prefixes run each pane's map "
        "phase once and fan the output out (outputs are byte-identical "
        "either way — see `repro plan --differential`)",
    )
    plan_cmd = sub.add_parser("plan", help=_EXPERIMENTS["plan"])
    add_backend(plan_cmd)
    plan_cmd.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="figure workloads to plan (aggregation, join, distinct, "
        "extrema; default: all four)",
    )
    plan_cmd.add_argument(
        "--win", type=float, default=60.0, help="window size in s (default 60)"
    )
    plan_cmd.add_argument(
        "--slide", type=float, default=30.0, help="window slide in s (default 30)"
    )
    plan_cmd.add_argument(
        "--num-reducers", type=int, default=4, help="reduce fan-out (default 4)"
    )
    plan_cmd.add_argument(
        "--serve-fleet",
        action="store_true",
        help="plan the multi-tenant serve scenario's fleet instead of the "
        "figure workloads (all tenants share one source — the sharing "
        "report shows the shared prefix groups)",
    )
    plan_cmd.add_argument(
        "--differential",
        action="store_true",
        help="run the shared-scan differential oracle: drive the serve "
        "scenario with sharing off then on and require byte-identical "
        "window digests while sharing is actually exercised (exit 1 "
        "otherwise)",
    )
    plan_cmd.add_argument(
        "--tenants", type=_POSITIVE_INT, default=3,
        help="fleet size for --serve-fleet / --differential (default 3)",
    )
    plan_cmd.add_argument(
        "--recurrences", type=_POSITIVE_INT, default=8,
        help="base-slide recurrences for --differential (default 8)",
    )
    plan_cmd.add_argument(
        "--scale", type=_POSITIVE_FLOAT, default=1.0,
        help="multiplier on the differential's arrival rate (default 1.0)",
    )
    plan_cmd.add_argument(
        "--seed", type=int, default=0, help="seed for data + cluster RNG"
    )
    plan_cmd.add_argument(
        "--no-churn",
        action="store_true",
        help="disable the differential's mid-run churn schedule",
    )
    plan_cmd.add_argument(
        "--faults",
        action="store_true",
        help="apply the deterministic node kill/recover plan to both "
        "differential runs (chaos-extended oracle)",
    )
    reuse_bench = sub.add_parser(
        "reuse-bench", help=_EXPERIMENTS["reuse-bench"]
    )
    add_backend(reuse_bench)
    reuse_bench.add_argument(
        "--kind",
        choices=("aggregation", "join"),
        default="join",
        help="workload shape (default: join)",
    )
    reuse_bench.add_argument(
        "--overlap",
        type=float,
        default=0.75,
        help="window overlap factor (default 0.75)",
    )
    reuse_bench.add_argument(
        "--scale",
        type=_POSITIVE_FLOAT,
        default=0.05,
        help="fraction of paper-scale data volume (default 0.05)",
    )
    reuse_bench.add_argument(
        "--windows", type=_POSITIVE_INT, default=4, help="windows per run (default 4)"
    )
    reuse_bench.add_argument(
        "--capacity-mb",
        type=_POSITIVE_FLOAT,
        default=None,
        metavar="MB",
        help="bound the store at this many megabytes (default: unbounded)",
    )
    reuse_bench.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the report as JSON here",
    )
    reuse_bench.add_argument(
        "--no-check",
        action="store_true",
        help="report numbers even when digests mismatch or the warm run "
        "never hits (default: exit 1 on either)",
    )
    report = sub.add_parser("report", help=_EXPERIMENTS["report"])
    report.add_argument("trace", help="trace JSON written by --trace-out")
    report.add_argument(
        "--top",
        type=int,
        default=3,
        help="slowest tasks to list per window (default 3)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the report as JSON instead of text",
    )
    return parser


def _backend_from(args):
    """Build the requested execution backend, or ``None`` for serial.

    Returning ``None`` for serial lets every callee fall through to its
    own default — the serial path stays byte-identical to a build
    without the flag.
    """
    name = getattr(args, "backend", "serial")
    if name == "serial":
        return None
    return make_backend(name, workers=getattr(args, "workers", None))


def _cluster_config_from(args) -> ClusterConfig:
    """``DEFAULT_CONFIG`` with any budget knobs from the command line."""
    overrides: Dict[str, object] = {}
    capacity_mb = getattr(args, "cache_capacity_mb", None)
    if capacity_mb is not None:
        overrides["cache_capacity_bytes"] = _megabytes(capacity_mb)
    policy = getattr(args, "eviction_policy", None)
    if policy is not None:
        overrides["cache_eviction_policy"] = policy
    return DEFAULT_CONFIG.with_overrides(**overrides) if overrides else DEFAULT_CONFIG


def _gather_tracers(series_by_key: Dict[str, object]) -> Dict[str, Tracer]:
    """Tracers per series key, skipping series without one (averaged)."""
    return {
        key: series.tracer
        for key, series in series_by_key.items()
        if getattr(series, "tracer", None) is not None
    }


def _print_overlap_sweep(
    results, *, plot: bool = False
) -> Dict[str, object]:
    merged: Dict[str, object] = {}
    for overlap, series in results.items():
        print(format_response_table(series, title=f"--- overlap = {overlap} ---"))
        print()
        if plot:
            print(plot_series(series))
            print()
            print(plot_speedups(series, title="speedups vs hadoop:"))
            print()
        if any(w.phases.shuffle or w.phases.reduce for s in series.values()
               for w in s.windows):
            print(format_phase_split(series))
            print()
        print(format_speedup_summary(series))
        print()
        for label, result in series.items():
            merged[f"{label}@{overlap}"] = result
    return merged


def _run_serve(args) -> int:
    from .bench.service import (
        ServiceScenario,
        build_server,
        drive_scenario,
    )
    from .service import (
        CheckpointError,
        QueryServer,
        WallClockPacer,
        latest_checkpoint,
    )

    backend = _backend_from(args)

    scenario = ServiceScenario(
        tenants=args.tenants,
        recurrences=args.recurrences,
        rate=200_000.0 * args.scale,
        seed=args.seed,
        churn=not args.no_churn,
    )
    try:
        if args.restore_from:
            from pathlib import Path

            restore_path = Path(args.restore_from)
            if restore_path.is_dir():
                newest = latest_checkpoint(restore_path)
                if newest is None:
                    print(
                        f"error: no checkpoint files in {restore_path}",
                        file=sys.stderr,
                    )
                    return 1
                restore_path = newest
            server = QueryServer.restore(restore_path)
            if args.checkpoint_dir:
                server.checkpoint_dir = Path(args.checkpoint_dir)
                server.checkpoint_every = args.checkpoint_every
            if backend is not None:
                # A restored runtime deserialises with the default
                # serial backend; honour the flag on the revived server.
                server.runtime.backend = backend
            print(
                f"restored from {restore_path} at virtual time "
                f"{server.now:.1f}s with tenants {server.tenants()}"
            )
        else:
            reuse_store = None
            if args.reuse or args.reuse_capacity_mb is not None:
                from .reuse import ReuseStore

                reuse_store = ReuseStore(
                    capacity_bytes=_megabytes(args.reuse_capacity_mb)
                )
            server = build_server(
                scenario,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=(
                    args.checkpoint_every if args.checkpoint_dir else 0
                ),
                backend=backend,
                reuse_store=reuse_store,
                share_scans=args.share_scans,
            )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    pace = None
    if args.wall_clock:
        pace = WallClockPacer(args.wall_clock, start_virtual=server.now)

    try:
        run = drive_scenario(
            scenario, server, stop_after_recurrences=args.kill_after, pace=pace
        )
    finally:
        if pace is not None:
            pace.wake()
        if backend is not None:
            backend.close()
    killed = args.kill_after is not None and run.recurrences_fired >= args.kill_after
    print(
        f"{'killed' if killed else 'drained'} at virtual time "
        f"{server.now:.1f}s after {run.recurrences_fired} recurrences; "
        f"tenants: {server.tenants()}"
    )
    for name in sorted(run.counters):
        print(f"  {name:40} {run.counters[name]:10.0f}")
    if args.digests:
        for tenant in sorted(run.digests):
            for recurrence, digest in run.digests[tenant]:
                print(f"digest {tenant} w{recurrence:03d} {digest}")
    if args.trace_out:
        count = export_chrome_trace({"serve": server.tracer}, args.trace_out)
        print(f"wrote {count} trace events to {args.trace_out}")
    return 0


def _run_plan(args) -> int:
    """Print IR trees + fingerprints, or run the sharing differential."""
    from .plan import format_sharing_report, render_plan, sharing_report

    if args.differential:
        from .bench.service import ServiceScenario
        from .bench.sharing import default_fault_plan, run_sharing_differential

        scenario = ServiceScenario(
            tenants=args.tenants,
            recurrences=args.recurrences,
            rate=200_000.0 * args.scale,
            seed=args.seed,
            churn=not args.no_churn,
        )
        backend_factory = None
        if getattr(args, "backend", "serial") != "serial":
            def backend_factory():
                return make_backend(args.backend, workers=args.workers)

        report = run_sharing_differential(
            scenario,
            backend_factory=backend_factory,
            fault_plan=default_fault_plan(scenario) if args.faults else (),
        )
        print(report.summary())
        if not report.ok:
            print("plan --differential: FAILED", file=sys.stderr)
            return 1
        return 0

    plans = {}
    if args.serve_fleet:
        from .bench.service import ServiceScenario, tenant_specs
        from .service import build_query

        scenario = ServiceScenario(
            tenants=args.tenants, churn=not args.no_churn
        )
        for spec in tenant_specs(scenario):
            plans[spec.name] = build_query(spec).plan()
    else:
        from .workloads.queries import (
            aggregation_query,
            distinct_count_query,
            extrema_query,
            join_query,
        )

        factories = {
            "aggregation": aggregation_query,
            "join": join_query,
            "distinct": distinct_count_query,
            "extrema": extrema_query,
        }
        names = args.workloads or list(factories)
        for label in names:
            factory = factories.get(label)
            if factory is None:
                print(
                    f"error: unknown workload {label!r}; choose from "
                    + ", ".join(factories),
                    file=sys.stderr,
                )
                return 2
            query = factory(
                args.win, args.slide, num_reducers=args.num_reducers
            )
            plans[query.name] = query.plan()
    for name in sorted(plans):
        print(f"--- {name} ---")
        print(render_plan(plans[name]))
        print()
    print("sharing report:")
    print(format_sharing_report(sharing_report(plans)))
    return 0


def _run_chaos(args) -> int:
    """The differential oracle under seeded fault schedules (fig7 join
    workload, overlap 0.5).

    Exit status 0 means, for every seed, the chaos run (or the cold and
    warm runs with ``--reuse``) matched the fault-free serial run on all
    non-degraded windows with zero invariant violations and every
    requirement met; 1 means a guarantee broke somewhere — the offending
    schedule is written to ``--schedule-out`` (when given) for replay.
    """
    import dataclasses
    from pathlib import Path

    from .bench import build_workload, join_config, run_redoop_series
    from .chaos import ChaosSchedule, run_differential
    from .exec import ProcessPoolBackend
    from .reuse import ReuseStore

    replay = (
        ChaosSchedule.from_json(Path(args.schedule_in).read_text())
        if args.schedule_in
        else None
    )
    if args.worker_fault_kills + args.worker_fault_hangs > 0 or (
        replay is not None
        and any(e.kind in ("worker-kill", "worker-hang") for e in replay.events)
    ):
        # Real process faults need a supervised process backend; one
        # instance is shared across seeds (the supervisor rebuilds its
        # pool as faults destroy it).
        backend = ProcessPoolBackend(
            workers=args.workers,
            batch_deadline=args.worker_fault_deadline,
            max_task_retries=args.worker_fault_retries,
            max_pool_rebuilds=args.worker_fault_rebuilds,
        )
    else:
        backend = _backend_from(args)
    try:
        config = join_config(0.5, scale=args.scale, num_windows=args.windows)
        if args.capacity_fraction is not None:
            # Probe a fault-free unbounded run for the peak cached working
            # set, then re-arm the whole differential (reference + chaos) at
            # the requested fraction of it: the oracle's digest comparison
            # now also proves eviction never changes an answer under faults.
            probe = run_redoop_series(
                config,
                label="probe",
                workload=build_workload(config),
                backend=backend,
            )
            capacity = max(
                1, int(probe.peak_cached_bytes * args.capacity_fraction)
            )
            cluster_config = config.cluster_config.with_overrides(
                cache_capacity_bytes=capacity,
                cache_eviction_policy=args.eviction_policy or "lru",
            )
            config = dataclasses.replace(config, cluster_config=cluster_config)
            print(
                f"capacity: {capacity} B/node "
                f"({args.capacity_fraction:g} x peak {probe.peak_cached_bytes} B, "
                f"policy {cluster_config.cache_eviction_policy})"
            )
        seeds = [args.seed] if replay else list(
            range(args.seed, args.seed + args.seeds)
        )
        failing_schedule: Optional[ChaosSchedule] = None
        last_schedule: Optional[ChaosSchedule] = None
        last_report = None
        failures = 0
        for seed in seeds:
            schedule = replay or ChaosSchedule.random(
                seed,
                horizon=config.horizon,
                num_nodes=config.cluster_config.num_nodes,
                num_windows=config.num_windows,
                slide=config.slide,
                events_per_window=args.events_per_window,
                exhaust_window=args.exhaust_window,
                worker_kills=args.worker_fault_kills,
                worker_hangs=args.worker_fault_hangs,
            )
            report = run_differential(
                config,
                schedule,
                backend=backend,
                reuse_store=ReuseStore() if args.reuse else None,
            )
            print(report.summary())
            last_schedule, last_report = schedule, report
            if not report.ok:
                failures += 1
                if failing_schedule is None:
                    failing_schedule = schedule
    finally:
        if backend is not None:
            backend.close()
    print(f"chaos: {len(seeds) - failures}/{len(seeds)} seed(s) ok")
    if args.schedule_out and last_schedule is not None:
        dumped = failing_schedule or last_schedule
        Path(args.schedule_out).write_text(dumped.to_json() + "\n")
        kind = "failing" if failing_schedule else "last"
        print(f"wrote {kind} schedule to {args.schedule_out}")
    if args.trace_out and last_report is not None:
        tracers = {label: run.tracer for label, run in last_report.runs.items()}
        count = export_chrome_trace(tracers, args.trace_out)
        print(f"wrote {count} trace events to {args.trace_out}")
    return 1 if failures else 0


def _run_capacity(args) -> int:
    """Hit-rate-vs-capacity sweep (fig7 join workload under budgets).

    Exit status 0 means every bounded point reproduced the unbounded
    run's window outputs byte-for-byte; 1 means some budget changed an
    answer — which is a cache-lifecycle bug, not a tuning problem.
    """
    from pathlib import Path

    from .bench import format_capacity_table, sweep_hit_rate_vs_capacity

    backend = _backend_from(args)
    try:
        sweep = sweep_hit_rate_vs_capacity(
            scale=args.scale,
            overlap=args.overlap,
            num_windows=args.windows,
            fractions=tuple(args.fractions),
            policies=tuple(args.policies),
            backend=backend,
        )
    finally:
        if backend is not None:
            backend.close()
    print(format_capacity_table(sweep))
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(sweep.as_report(), indent=2) + "\n"
        )
        print(f"wrote sweep report to {args.json_out}")
    diverged = [p for p in sweep.points if not p.outputs_match]
    if diverged:
        print(
            f"capacity: {len(diverged)} point(s) DIVERGED from the "
            f"unbounded outputs",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_reuse_bench(args) -> int:
    """Warm-vs-cold reuse benchmark: the reuse differential, timed.

    Exit status 0 means the warm run served from the store AND the cold
    and warm runs matched the store-free reference on every window
    digest; 1 means the store either never hit or changed an answer
    (suppress with ``--no-check``).
    """
    from pathlib import Path

    from .bench.experiments import aggregation_config, join_config
    from .chaos import run_differential
    from .reuse import ReuseStore

    backend = _backend_from(args)
    make_config = aggregation_config if args.kind == "aggregation" else join_config
    config = make_config(
        args.overlap, scale=args.scale, num_windows=args.windows
    )
    try:
        report = run_differential(
            config,
            backend=backend,
            reuse_store=ReuseStore(capacity_bytes=_megabytes(args.capacity_mb)),
        )
    finally:
        if backend is not None:
            backend.close()
    cold = report.runs["cold"].avg_response()
    warm = report.runs["warm"].avg_response()
    speedup = cold / warm if warm > 0 else float("inf")
    print(
        f"{config.kind} overlap={config.overlap:g} windows={config.num_windows}\n"
        f"  cold avg response: {cold:10.2f} s\n"
        f"  warm avg response: {warm:10.2f} s   ({speedup:.1f}x faster)"
    )
    print(report.summary())
    if args.json_out:
        payload = {
            "kind": config.kind,
            "overlap": config.overlap,
            "num_windows": config.num_windows,
            "cold_avg_response": cold,
            "warm_avg_response": warm,
            "speedup": speedup,
            "digests_equal": not report.mismatches,
            "reuse_counters": {
                name: value
                for name, value in report.runs["warm"].runtime_counters.items()
                if name.startswith("reuse.")
            },
        }
        Path(args.json_out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote reuse report to {args.json_out}")
    if not report.ok and not args.no_check:
        print("reuse-bench: FAILED", file=sys.stderr)
        return 1
    return 0


def _run_throughput(args) -> int:
    """Wall-clock backend throughput sweep (real seconds, not virtual)."""
    from pathlib import Path

    from .bench import format_throughput_table, run_throughput_bench

    report = run_throughput_bench(
        worker_counts=tuple(args.workers),
        fault_kills=args.worker_fault_kills,
        fault_hangs=args.worker_fault_hangs,
        fault_seed=args.worker_fault_seed,
        batch_deadline=(
            args.worker_fault_deadline
            if (args.worker_fault_kills or args.worker_fault_hangs)
            else None
        ),
        num_records=args.records,
        num_splits=args.splits,
        spins=args.spins,
        repeats=args.repeats,
    )
    print(format_throughput_table(report))
    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n")
        print(f"wrote throughput report to {args.json_out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name, blurb in _EXPERIMENTS.items():
            print(f"{name:10} {blurb}")
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "plan":
        return _run_plan(args)

    if args.command == "chaos":
        return _run_chaos(args)

    if args.command == "capacity":
        return _run_capacity(args)

    if args.command == "throughput":
        return _run_throughput(args)

    if args.command == "reuse-bench":
        return _run_reuse_bench(args)

    if args.command == "report":
        document = load_chrome_trace(args.trace)
        reports = window_reports_from_document(document)
        if args.as_json:
            print(json.dumps(reports_as_rows(reports), indent=2))
        else:
            print(format_window_reports(reports, top_k=args.top), end="")
        return 0

    csv_series: Dict[str, object] = {}
    backend = _backend_from(args)
    try:
        if args.command == "fig6":
            results = fig6_aggregation(
                scale=args.scale,
                overlaps=args.overlaps,
                num_windows=args.windows,
                cluster_config=_cluster_config_from(args),
                backend=backend,
            )
            csv_series = _print_overlap_sweep(results, plot=args.plot)
        elif args.command == "fig7":
            results = fig7_join(
                scale=args.scale,
                overlaps=args.overlaps,
                num_windows=args.windows,
                cluster_config=_cluster_config_from(args),
                backend=backend,
            )
            csv_series = _print_overlap_sweep(results, plot=args.plot)
        elif args.command == "fig8":
            results = fig8_adaptive(
                scale=args.scale,
                overlaps=args.overlaps,
                num_windows=args.windows,
                cluster_config=_cluster_config_from(args),
                backend=backend,
            )
            csv_series = _print_overlap_sweep(results, plot=args.plot)
        elif args.command == "fig9":
            series = fig9_fault_tolerance(
                scale=args.scale,
                num_windows=args.windows,
                cache_corruption_fraction=args.cache_corruption,
                node_failure_window=args.node_failure_window,
                cluster_config=_cluster_config_from(args),
                backend=backend,
            )
            print(
                format_cumulative_table(series, title="Fig 9 cumulative time")
            )
            if args.plot:
                print()
                print(plot_speedups(series, title="speedups vs hadoop:"))
            csv_series = dict(series)
    finally:
        if backend is not None:
            backend.close()
    if args.command == "headline":
        by_kind = headline_series(scale=args.scale)
        print("steady-state speedups at overlap 0.9 (paper: up to 9x):")
        for kind, runs in by_kind.items():
            factor = runs["redoop"].speedup_vs(runs["hadoop"], skip_first=True)
            print(f"  {kind:12} {factor:5.2f}x")
        csv_series = {
            f"{kind}/{label}": result
            for kind, runs in by_kind.items()
            for label, result in runs.items()
        }
    elif args.command == "ablations":
        for name, fn in (
            ("pane headers", ablation_pane_headers),
            ("cache levels", ablation_cache_levels),
            ("scheduler", ablation_scheduler),
        ):
            series = fn(scale=args.scale)
            print(format_response_table(series, title=f"--- ablation: {name} ---"))
            print()
            for label, result in series.items():
                csv_series[f"{name}/{label}"] = result

    if getattr(args, "csv", None) and csv_series:
        rows = write_series_csv(args.csv, csv_series)
        print(f"wrote {rows} rows to {args.csv}")
    if getattr(args, "trace_out", None):
        tracers = _gather_tracers(csv_series)
        if tracers:
            count = export_chrome_trace(tracers, args.trace_out)
            print(f"wrote {count} trace events to {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
