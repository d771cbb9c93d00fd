"""Command-line interface: ``python -m repro <command>``.

Gives the paper's workflow a shell entry point:

* ``tables`` -- print Tables I-III (capability matrix, evaluated power
  models, technology/design parameters);
* ``fig4`` -- run the LNA-noise demonstration sweep and print the series;
* ``sweep`` -- run the Fig. 7 search-space exploration at a chosen scale,
  print fronts/optima, and optionally save the raw sweep as JSON/CSV;
* ``report`` -- re-analyse a saved sweep (Figs. 7-10) without
  re-simulating;
* ``budget`` -- print the closed-form noise budget of a design point;
* ``robustness`` -- Monte-Carlo fault-injection yield analysis of the two
  reference optima (accuracy degradation vs fault severity);
* ``worker`` -- join a fleet sweep as a remote worker
  (``repro worker --connect HOST:PORT``); the coordinator side is
  ``repro sweep --fleet`` (see :mod:`repro.fleet` and
  ``docs/distributed.md``);
* ``serve`` -- run the sweep-as-a-service HTTP API; always exposes a
  live ``GET /metrics`` OpenMetrics surface and an enriched
  ``/healthz`` (uptime, sweep counts, store size, drain state);
* ``trace merge`` -- combine Chrome-trace JSON files (e.g. per-host
  ``--trace`` outputs) into one multi-lane timeline; ``--align``
  compensates unsynchronised capture clocks.

Every command prints plain text (ASCII charts included), suitable for
logs and CI artefacts.

Observability flags (shared by every command):

* ``--profile`` activates a :class:`~repro.core.telemetry.Telemetry`
  sink for the whole command and prints its summary tables at the end;
  for ``sweep`` it also writes a :class:`~repro.core.telemetry.RunManifest`
  JSON next to the sweep outputs.  Result values are identical with and
  without profiling.
* ``--trace FILE`` records a hierarchical span timeline (sweep -> shard
  -> point -> block -> solver, one lane per worker process) and writes
  it as Chrome-trace/Perfetto JSON.
* ``--metrics-out FILE`` writes the final telemetry state as an
  OpenMetrics/Prometheus textfile.
* ``--events-out FILE`` streams every structured telemetry event to a
  JSONL file as it happens (crash-safe, unlike the bounded buffer).
* ``--log-level`` configures stdlib :mod:`logging` for the run.
* ``--no-progress`` suppresses the live per-point progress/ETA line that
  ``sweep`` prints to stderr.

Any of ``--trace``/``--metrics-out``/``--events-out`` (like
``--manifest``) implies ``--profile``.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from collections.abc import Sequence

from repro.core.execution import EXECUTORS, ExecutionPolicy, resolve_executor
from repro.core.goal import MIN_ACCURACY
from repro.util.constants import MICRO

LOG_LEVELS = ("debug", "info", "warning", "error")


def _timeout_s(text: str) -> float:
    """``--timeout`` seconds, checked as :class:`ExecutionPolicy` checks them."""
    try:
        return ExecutionPolicy(timeout_s=float(text)).timeout_s
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _progress_printer(total: int, stream=None):
    """Live ``[done/total] ... eta`` line, rewritten in place on stderr.

    Completion order drives the line (parallel sweeps finish out of grid
    order); the ETA extrapolates the mean per-point rate so far.
    """
    if stream is None:
        stream = sys.stderr
    state = {"done": 0, "start": time.perf_counter()}

    def callback(index, evaluation) -> None:
        del index
        state["done"] += 1
        done = state["done"]
        elapsed = time.perf_counter() - state["start"]
        eta = (total - done) * elapsed / done if done else float("inf")
        status = "FAIL" if evaluation.error is not None else "ok"
        stream.write(
            f"\r[{done}/{total}] {100.0 * done / total:5.1f}%  "
            f"elapsed {elapsed:6.1f}s  eta {eta:6.1f}s  last: {status}   "
        )
        if done == total:
            stream.write("\n")
        stream.flush()

    return callback


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments import render_table1, render_table2, render_table3

    print("== Table I: framework comparison ==\n")
    print(render_table1())
    print("\n== Table II: power models (evaluated) ==\n")
    print(render_table2())
    print("\n== Table III: technology & design parameters ==\n")
    print(render_table3())
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments import render_fig4, run_fig4
    from repro.util.textplot import scatter

    rows = run_fig4()
    print(render_fig4(rows))
    print()
    print(
        scatter(
            {
                "SNDR [dB]": ([r.noise_uv for r in rows], [r.sndr_db for r in rows]),
            },
            x_label="LNA noise [uVrms]",
            y_label="SNDR [dB]",
            title="Fig. 4: SNDR vs noise floor",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.serialization import save_result
    from repro.core.telemetry import get_active
    from repro.experiments import (
        analyze_fig7,
        build_run_manifest,
        render_front,
        run_search_space,
        search_space_for,
    )
    from repro.experiments.runner import default_workers
    from repro.util.textplot import pareto_chart

    telemetry = get_active()
    # Resolved once, so the manifest records what the run used.
    workers = args.workers if args.workers is not None else default_workers()
    fleet_options = None
    if args.fleet:
        from repro.fleet import FleetOptions

        fleet_kwargs = {}
        if args.fleet_lease_timeout is not None:
            fleet_kwargs["lease_timeout_s"] = args.fleet_lease_timeout
        fleet_options = FleetOptions(
            # Advertise the evaluator recipe so external workers
            # (repro worker --connect) can rebuild the same harness.
            spec={"kind": "scale", "scale": args.scale},
            host=args.fleet_host,
            port=args.fleet_port,
            spawn_workers=(
                args.fleet_spawn if args.fleet_spawn is not None else (workers or 3)
            ),
            **fleet_kwargs,
        )
    try:
        executor = resolve_executor(args.executor, workers, fleet_options)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sweep = run_search_space(
        args.scale,
        executor=executor,
        n_workers=workers,
        checkpoint=args.checkpoint,
        cache=None if args.no_cache else args.cache_dir,
        telemetry=telemetry if telemetry.enabled else None,
        policy=ExecutionPolicy(timeout_s=args.timeout),
        progress=(
            None
            if args.no_progress
            else _progress_printer(search_space_for(args.scale).size)
        ),
        fleet=fleet_options,
    )
    full_sweep = sweep
    failures = sweep.failures()
    print(f"evaluated {len(sweep)} design points at scale {args.scale!r}")
    if failures:
        print(f"WARNING: {len(failures)} design points failed:")
        for failed in failures:
            print(f"  {failed.point.describe()}: {failed.error}")
        sweep = sweep.successes()
    print()
    fig7 = analyze_fig7(sweep, min_accuracy=args.min_accuracy)
    print("baseline accuracy front:")
    print(render_front(fig7.accuracy_front_baseline, "accuracy"))
    print("\ncs accuracy front:")
    print(render_front(fig7.accuracy_front_cs, "accuracy"))
    print("\n" + fig7.summary())
    print()
    print(
        pareto_chart(
            {
                "baseline": fig7.accuracy_front_baseline,
                "cs": fig7.accuracy_front_cs,
            },
            title="Fig. 7b: accuracy vs power Pareto fronts",
        )
    )
    if args.save:
        save_result(full_sweep, args.save)
        print(f"\nsaved sweep to {args.save}")
    if args.csv:
        full_sweep.to_csv(args.csv)
        print(f"saved CSV to {args.csv}")
    if telemetry.enabled:
        from pathlib import Path

        if args.manifest:
            manifest_path = Path(args.manifest)
        elif args.save:
            # "Next to the sweep outputs": sweep.json -> sweep.manifest.json.
            manifest_path = Path(args.save).with_suffix(".manifest.json")
        else:
            manifest_path = Path("repro-manifest.json")
        manifest = build_run_manifest(
            full_sweep,
            telemetry,
            args.scale,
            executor=executor,
            # A fleet records the workers it spawned.
            n_workers=fleet_options.spawn_workers if fleet_options else workers,
        )
        manifest.save(manifest_path)
        print(f"wrote run manifest to {manifest_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_result
    from repro.experiments import analyze_fig7, analyze_fig8, analyze_fig9, analyze_fig10

    sweep = load_result(args.sweep_file)
    print(f"loaded {len(sweep)} evaluations from {args.sweep_file}\n")
    fig7 = analyze_fig7(sweep, min_accuracy=args.min_accuracy)
    print("== Fig. 7: optimal points ==")
    print(fig7.summary())
    try:
        fig8 = analyze_fig8(sweep, min_accuracy=args.min_accuracy)
        print("\n== Fig. 8: power breakdown of the optima ==")
        print(fig8.savings_table())
    except ValueError as error:
        print(f"\nFig. 8 skipped: {error}")
    fig9 = analyze_fig9(sweep)
    print("\n== Fig. 9: area ==")
    print(f"median area ratio (cs / baseline): {fig9.area_ratio():.2f}x")
    print("\n== Fig. 10: area-constrained fronts ==")
    print(analyze_fig10(sweep).render())
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.telemetry import get_active
    from repro.experiments.robustness import (
        build_robustness_manifest,
        render_robustness,
        run_robustness,
    )

    telemetry = get_active()
    result = run_robustness(
        args.scale,
        severities=tuple(args.severities),
        n_realisations=args.realisations,
        max_degradation=args.max_degradation,
        policy=ExecutionPolicy(timeout_s=args.timeout),
        telemetry=telemetry if telemetry.enabled else None,
    )
    print(f"robustness analysis at scale {args.scale!r}\n")
    print(render_robustness(result))
    if telemetry.enabled:
        manifest_path = Path(args.manifest or "repro-robustness-manifest.json")
        manifest = build_robustness_manifest(result, telemetry, args.scale)
        manifest.save(manifest_path)
        print(f"\nwrote run manifest to {manifest_path}")
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    from repro.power.noise_budget import noise_budget
    from repro.power.technology import DesignPoint

    point = DesignPoint(
        n_bits=args.bits,
        lna_noise_rms=args.noise_uv * MICRO,
        use_cs=args.cs,
        cs_m=args.m,
    )
    budget = noise_budget(point)
    print(f"design point: {point.describe()}\n")
    print(budget.as_table())
    signal_rms = args.signal_uv * MICRO
    print(f"\npredicted SNR for a {args.signal_uv:g} uVrms signal: "
          f"{budget.snr_db(signal_rms):.2f} dB")
    from repro.power.models import chain_power

    print(f"estimated power: {chain_power(point).total_uw:.3f} uW")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fleet import FleetWorker, ProtocolError

    host, _, port_text = args.connect.rpartition(":")
    try:
        endpoint = (host, int(port_text))
        if not host:
            raise ValueError("missing host")
    except ValueError:
        print(
            f"error: --connect wants HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    worker = FleetWorker(
        endpoint, label=args.label, connect_timeout_s=args.connect_timeout
    )
    print(f"worker {worker.label} connecting to {endpoint[0]}:{endpoint[1]}")
    try:
        worker.run()
    except KeyboardInterrupt:
        print("\nworker interrupted")
        return 130
    except (ProtocolError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    stats = worker.stats
    print(
        f"worker {worker.label} done: {stats['chunks']} chunks, "
        f"{stats['points']} points, {stats['reconnects']} reconnects"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging as _logging

    from repro.core.resources import ResourceSampler
    from repro.core.telemetry import Telemetry, get_active
    from repro.serve import SweepService, serve_forever
    from repro.store import ResultStore

    # A service without telemetry has an empty /metrics surface, so the
    # server always runs with a live sink even when --profile is off
    # (the ambient one when profiling, a private one otherwise).
    telemetry = get_active()
    if not telemetry.enabled:
        telemetry = Telemetry(logger=_logging.getLogger("repro.serve"))
    store = ResultStore(args.store)
    service = SweepService(store, telemetry=telemetry)
    sampler = ResourceSampler(telemetry, label="serve")
    print(f"serving sweeps from {store.root} on http://{args.host}:{args.port}")
    with sampler:
        serve_forever(
            service, host=args.host, port=args.port, drain_timeout_s=args.drain_timeout
        )
    print("\nshut down")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.store import ResultStore, StoreError

    store = ResultStore(args.store)
    if args.action == "ls":
        index = store.index()
        sweeps = index.get("sweeps", {})
        if not sweeps:
            print(f"no sweeps stored in {store.root}")
            return 0
        print(f"{'name':24} {'digest':14} {'n':>5} {'fail':>5}  created")
        for name in sorted(sweeps):
            row = sweeps[name]
            created = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(row.get("created_unix", 0))
            )
            print(
                f"{name:24} {row['digest'][:12] + '..':14} "
                f"{row['n_evaluations']:5d} {row['n_failures']:5d}  {created}"
            )
        return 0
    if args.action == "get":
        try:
            manifest = store.get_sweep(args.name)
        except (StoreError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if manifest is None:
            print(
                f"error: no sweep named {args.name!r} in {store.root} "
                f"(known: {store.sweep_names()})",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(manifest.to_dict(), indent=1))
        return 0
    if args.action == "gc":
        try:
            removed = store.gc()
        except StoreError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"removed {len(removed)} unreferenced evaluation blob(s)")
        return 0
    raise AssertionError(f"unhandled store action {args.action!r}")  # pragma: no cover


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.core.tracing import merge_chrome_traces

    if args.action == "merge":
        payloads = []
        for path in args.inputs:
            try:
                payloads.append(json.loads(Path(path).read_text()))
            except (OSError, ValueError) as error:
                print(f"error: cannot read trace {path}: {error}", file=sys.stderr)
                return 2
        try:
            merged = merge_chrome_traces(payloads, align=args.align)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(merged, indent=1) + "\n")
        events = merged["traceEvents"]
        lanes = {event["pid"] for event in events}
        print(
            f"merged {len(payloads)} trace(s) into {out}: "
            f"{len(events)} events across {len(lanes)} lane(s)"
        )
        return 0
    raise AssertionError(f"unhandled trace action {args.action!r}")  # pragma: no cover


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EffiCSense reproduction: pathfinding experiments from the shell.",
    )
    # Observability trio, shared by every subcommand (so it can be given
    # after the command name: ``repro sweep --profile``).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile",
        action="store_true",
        help="collect telemetry (timings, counters) and print its summary; "
        "sweep also writes a RunManifest JSON",
    )
    common.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help="configure stdlib logging for the run",
    )
    common.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the live progress/ETA line on stderr",
    )
    common.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome-trace/Perfetto JSON span timeline (implies --profile)",
    )
    common.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the final telemetry state as an OpenMetrics/Prometheus "
        "textfile (implies --profile)",
    )
    common.add_argument(
        "--events-out",
        metavar="FILE",
        help="stream structured telemetry events to a JSONL file as they "
        "happen (implies --profile)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I-III", parents=[common]).set_defaults(
        func=_cmd_tables
    )
    sub.add_parser(
        "fig4", help="run the Fig. 4 noise sweep", parents=[common]
    ).set_defaults(func=_cmd_fig4)

    sweep = sub.add_parser(
        "sweep", help="run the Fig. 7 search-space sweep", parents=[common]
    )
    sweep.add_argument("--scale", default="smoke", choices=["smoke", "small", "paper"])
    sweep.add_argument(
        "--min-accuracy",
        type=float,
        default=MIN_ACCURACY,
        help="accuracy bound of the Fig. 7b optima (default: the paper's "
        f"{MIN_ACCURACY:g}; smoke-scale accuracies stay below it, so pass "
        "0.9 at --scale smoke)",
    )
    sweep.add_argument("--save", help="write the raw sweep as JSON")
    sweep.add_argument("--csv", help="write the sweep metrics as CSV")
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers (default: REPRO_WORKERS env var, else serial)",
    )
    sweep.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="execution backend (default: process when --workers > 1 or "
        "with --fleet); process leases chunks to workers over TCP",
    )
    sweep.add_argument(
        "--fleet",
        action="store_true",
        help="configure the process executor's fleet coordinator with the "
        "--fleet-* flags: chunks are leased to workers over TCP, dead "
        "workers are recovered by lease expiry, and remote workers can "
        "join with 'repro worker --connect HOST:PORT'",
    )
    sweep.add_argument(
        "--fleet-host",
        default="127.0.0.1",
        metavar="HOST",
        help="coordinator bind address (use 0.0.0.0 to accept remote workers)",
    )
    sweep.add_argument(
        "--fleet-port",
        type=int,
        default=0,
        metavar="PORT",
        help="coordinator bind port (default: an ephemeral port)",
    )
    sweep.add_argument(
        "--fleet-spawn",
        type=int,
        default=None,
        metavar="N",
        help="local worker processes to spawn (default: --workers, else 3; "
        "0 waits for external workers only)",
    )
    sweep.add_argument(
        "--fleet-lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease deadline: a worker silent this long loses its chunk "
        "and it is requeued (default: 30)",
    )
    sweep.add_argument(
        "--checkpoint",
        help="JSONL checkpoint path; re-running with the same path resumes the sweep",
    )
    sweep.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="on-disk evaluation cache directory (repeat runs skip evaluated points)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk evaluation cache"
    )
    sweep.add_argument(
        "--manifest",
        help="RunManifest JSON path (default: next to --save, else "
        "repro-manifest.json; written when profiling is on)",
    )
    sweep.add_argument(
        "--timeout",
        type=_timeout_s,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock ceiling; a hung evaluation becomes a "
        "failed point instead of stalling the sweep",
    )
    sweep.set_defaults(func=_cmd_sweep)

    robustness = sub.add_parser(
        "robustness",
        help="Monte-Carlo fault-injection yield analysis of the two optima",
        parents=[common],
    )
    robustness.add_argument(
        "--scale", default="smoke", choices=["smoke", "small", "paper"]
    )
    robustness.add_argument(
        "--severities",
        type=float,
        nargs="+",
        default=[0.1, 0.25, 0.5, 1.0],
        help="fault severity grid in [0, 1] (0 = clean, run implicitly)",
    )
    robustness.add_argument(
        "--realisations",
        type=int,
        default=None,
        help="fault realisations per (chain, severity) cell "
        "(default: 3 at smoke scale, 8 otherwise)",
    )
    robustness.add_argument(
        "--max-degradation",
        type=float,
        default=0.05,
        help="yield spec: max tolerated accuracy degradation vs clean",
    )
    robustness.add_argument(
        "--timeout",
        type=_timeout_s,
        default=None,
        metavar="SECONDS",
        help="per-evaluation wall-clock ceiling",
    )
    robustness.add_argument(
        "--manifest",
        help="RunManifest JSON path (default: repro-robustness-manifest.json; "
        "written when profiling is on)",
    )
    robustness.set_defaults(func=_cmd_robustness)

    report = sub.add_parser("report", help="re-analyse a saved sweep", parents=[common])
    report.add_argument("sweep_file")
    report.add_argument(
        "--min-accuracy",
        type=float,
        default=MIN_ACCURACY,
        help=f"accuracy bound of the optima (default: {MIN_ACCURACY:g})",
    )
    report.set_defaults(func=_cmd_report)

    budget = sub.add_parser(
        "budget", help="closed-form noise budget of a design point", parents=[common]
    )
    budget.add_argument("--bits", type=int, default=8)
    budget.add_argument("--noise-uv", type=float, default=2.0)
    budget.add_argument("--signal-uv", type=float, default=700.0)
    budget.add_argument("--cs", action="store_true")
    budget.add_argument("--m", type=int, default=150)
    budget.set_defaults(func=_cmd_budget)

    worker = sub.add_parser(
        "worker",
        help="join a fleet sweep as a worker (pair of 'repro sweep --fleet')",
        parents=[common],
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator endpoint printed by 'repro sweep --fleet'",
    )
    worker.add_argument(
        "--label",
        default=None,
        help="worker label for telemetry attribution (default: hostname:pid)",
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long to keep retrying the initial dial before giving up",
    )
    worker.set_defaults(func=_cmd_worker)

    serve = sub.add_parser(
        "serve",
        help="run the sweep-as-a-service HTTP API over a result store",
        parents=[common],
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8731, help="bind port")
    serve.add_argument(
        "--store",
        default=".repro-store",
        help="result store root (evaluation blobs + sweep manifests + index)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT: refuse new submissions, then wait this "
        "long for running sweeps to finish before exiting",
    )
    serve.set_defaults(func=_cmd_serve)

    store = sub.add_parser(
        "store",
        help="inspect and maintain the content-addressed result store",
        parents=[common],
    )
    store_sub = store.add_subparsers(dest="action", required=True)
    store_common = argparse.ArgumentParser(add_help=False)
    store_common.add_argument(
        "--store", default=".repro-store", help="result store root"
    )
    store_sub.add_parser(
        "ls", help="list stored sweeps (name, digest, counts)", parents=[store_common]
    )
    store_get = store_sub.add_parser(
        "get", help="print one sweep manifest as JSON", parents=[store_common]
    )
    store_get.add_argument("name", help="sweep name")
    store_sub.add_parser(
        "gc",
        help="remove evaluation blobs not referenced by any stored sweep",
        parents=[store_common],
    )
    store.set_defaults(func=_cmd_store)

    trace = sub.add_parser(
        "trace",
        help="work with Chrome-trace/Perfetto JSON trace artifacts",
        parents=[common],
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)
    trace_merge = trace_sub.add_parser(
        "merge",
        help="merge Chrome-trace JSON files into one multi-lane timeline",
    )
    trace_merge.add_argument(
        "inputs", nargs="+", metavar="TRACE", help="input Chrome-trace JSON files"
    )
    trace_merge.add_argument(
        "-o", "--output", required=True, metavar="FILE", help="merged trace path"
    )
    trace_merge.add_argument(
        "--align",
        action="store_true",
        help="shift each input so its earliest event lines up with the "
        "first input's (for traces captured on unsynchronised clocks)",
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.core.telemetry import Telemetry, activate

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        )
    # Artifact flags imply profiling: each names a telemetry artifact.
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    events_path = getattr(args, "events_out", None)
    if (
        args.profile
        or getattr(args, "manifest", None)
        or trace_path
        or metrics_path
        or events_path
    ):
        tracer = None
        if trace_path:
            from repro.core.tracing import Tracer

            tracer = Tracer(label="driver")
        event_sink = None
        if events_path:
            from repro.core.metrics import JsonlEventWriter

            event_sink = JsonlEventWriter(events_path)
        telemetry = Telemetry(
            logger=logging.getLogger("repro.telemetry"),
            tracer=tracer,
            event_sink=event_sink,
        )
        try:
            with activate(telemetry):
                code = args.func(args)
        finally:
            if event_sink is not None:
                event_sink.close()
        if trace_path:
            from repro.core.tracing import write_chrome_trace

            write_chrome_trace(trace_path, tracer)
            print(f"wrote trace to {trace_path}")
        if metrics_path:
            from repro.core.metrics import write_openmetrics

            write_openmetrics(metrics_path, telemetry)
            print(f"wrote metrics to {metrics_path}")
        print()
        print(telemetry.summary())
        return code
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
