"""Fig. 7 design-point throughput benchmark, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cs --seed 1 --seconds 20 --trace 0

One run builds the seeded harness ``SETUP_REPEATS`` times (``setup_s`` is
the median), evaluates every design point of the workload directly as the
correctness reference (this also warms every lazy cache), then sweeps the
workload's points repeatedly for ``--seconds`` through the serial explorer
with a fresh checkpoint and a cache holding only the workload's warm
points.  Every sweep's results must equal the reference bit for bit.

``--trace 0`` reports the end-to-end metrics (per-point latency median,
sweep throughput, set-up time); ``--trace 1`` repeats the measurement
with per-layer timing wrappers installed and reports each layer's self
time per swept point (see ``perfbench/layers.py``).  Times are scaled to
a reference host speed by a calibration kernel timed in step with the
work (see ``perfbench/calibration.py``).  A table of reference and raw
host values goes to stderr; the last stdout line is the JSON result.
BLAS runs on one thread so timings do not depend on free cores.
"""

from __future__ import annotations

import os

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: Harness builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from repro.core.execution import EvaluationCache, evaluator_fingerprint
    from repro.core.explorer import DesignSpaceExplorer
    from perfbench import harness
    from perfbench.calibration import Calibration, PointTimer
    from perfbench.layers import LAYERS, LayerClock

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    calibration = Calibration()
    setup_host, setup_reference = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        evaluator = harness.build_evaluator(args.seed)
        elapsed = time.perf_counter() - start
        setup_host.append(elapsed)
        setup_reference.append(elapsed * calibration.factor(elapsed))

    points = workload.points(harness.fig7_grid())
    warm = workload.warm_points(points)
    references = {point.describe(): evaluator.evaluate(point) for point in points}
    errors = harness.sanity_errors(references)
    fingerprint = evaluator_fingerprint(evaluator)
    explorer = DesignSpaceExplorer(evaluator)

    clock = LayerClock() if args.trace else None
    if clock is None:
        instrumentation = contextlib.nullcontext()
        measure = calibrating = contextlib.nullcontext
    else:
        block_classes = {
            type(block)
            for point in points[:1] + points[-1:]
            for block in evaluator.build_point_chain(point)[0].blocks
        }
        instrumentation = clock.installed(block_classes, type(evaluator.detector))
        measure = clock.measure
        calibrating = clock.calibrating
    timer = PointTimer(calibration, calibrating)

    workdir = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    sweeps, failed = 0, 0
    try:
        with instrumentation:
            begin = time.perf_counter()
            # Stop at the sweep boundary nearest the deadline.
            while not sweeps or (
                time.perf_counter() - begin
            ) * (1 + 0.5 / sweeps) < args.seconds:
                shutil.rmtree(workdir, ignore_errors=True)
                cache = EvaluationCache(workdir / "cache")
                for point in warm:
                    cache.put(fingerprint, point, references[point.describe()])
                with measure():
                    timer.start()
                    result = explorer.explore(
                        points,
                        executor="serial",
                        cache=cache,
                        checkpoint=workdir / "checkpoint.jsonl",
                        progress=timer.point_done,
                    )
                    timer.stop()
                sweeps += 1
                sweep_errors = harness.mismatches(result, references)
                failed += len(sweep_errors)
                errors.extend(sweep_errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    attempted = sweeps * len(points)
    if clock is None:
        rows = {
            "point_ms": (
                statistics.median(timer.reference) * 1e3,
                statistics.median(timer.host) * 1e3,
                "ms",
            ),
            "points_per_s": (
                attempted / sum(timer.reference),
                attempted / sum(timer.host),
                "1/s",
            ),
            "setup_s": (statistics.median(setup_reference), statistics.median(setup_host), "s"),
        }
    else:
        factor = calibration.run_factor()
        rows = {}
        for layer in LAYERS:
            host_ms = clock.self_s[layer] * 1e3 / attempted
            rows[f"{layer}_ms"] = (host_ms * factor, host_ms, "ms")
        hit_pct = 100.0 * clock.cache_hits / attempted
        rows["cache_hit_pct"] = (hit_pct, hit_pct, "%")

    for error in errors[:20]:
        print(f"perfbench: INCORRECT: {error}", file=sys.stderr)
    print(
        f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace} "
        f"sweeps={sweeps} points/sweep={len(points)} warm={len(warm)} "
        f"blas_threads={os.environ['OMP_NUM_THREADS']} "
        f"calibrations={len(calibration.samples)} "
        f"host_factor={calibration.run_factor():.4f}",
        file=sys.stderr,
    )
    print(f"perfbench:   {'metric':<16} {'reference':>12} {'host':>12}", file=sys.stderr)
    for name, (value, host, unit) in rows.items():
        print(f"perfbench:   {name:<16} {value:>12.4f} {host:>12.4f} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, _host, unit) in rows.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
