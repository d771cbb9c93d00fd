#!/usr/bin/env python3
"""The paper's headline experiment, end to end, at reduced scale.

Reproduces the Fig. 7 b) pathfinding flow for EEG epilepsy detection:

1. synthesise a Bonn-like EEG corpus and train the seizure detector;
2. sweep the Table III search space over both architectures (baseline and
   passive charge-sharing CS);
3. extract the accuracy/power Pareto fronts and the optimal (minimum
   power at >= 98 % accuracy) design point per architecture;
4. compare the optima's power breakdowns (Fig. 8).

Run:  python examples/epilepsy_pathfinding.py            (smoke scale, ~1 min)
      REPRO_SCALE=small python examples/epilepsy_pathfinding.py   (~10 min)

Large sweeps parallelise, checkpoint and cache:

      python examples/epilepsy_pathfinding.py --workers 4 \
          --checkpoint sweep.ckpt.jsonl --cache-dir .repro-cache

Interrupt it mid-sweep and re-run: completed points are restored from the
JSONL checkpoint (and any earlier run's on-disk cache) instead of being
re-simulated.

Add ``--profile`` for the telemetry summary (per-block wall time, solver
iterations, per-point latency) and ``--no-progress`` to silence the live
ETA line.
"""

import argparse

from repro.experiments import (
    MIN_ACCURACY,
    active_scale,
    analyze_fig7,
    analyze_fig8,
    render_front,
    run_search_space,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: REPRO_WORKERS, else serial)")
    parser.add_argument("--executor", choices=["serial", "process", "thread"],
                        default=None)
    parser.add_argument("--checkpoint", default=None,
                        help="JSONL checkpoint path (re-run resumes)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk evaluation cache directory")
    parser.add_argument("--profile", action="store_true",
                        help="collect telemetry and print its summary at the end")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress the live per-point progress line")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    scale = active_scale()
    print(
        f"scale={scale.name}: {scale.n_eval_records} eval records x "
        f"{scale.frames_per_record} frames, noise sweep {scale.noise_values_uv} uV, "
        f"N bits {scale.n_bits_values}, M {scale.cs_m_values}"
    )

    from repro.cli import _progress_printer
    from repro.core import Telemetry, activate
    from repro.experiments import search_space_for

    telemetry = Telemetry() if args.profile else None
    progress = None if args.no_progress else _progress_printer(
        search_space_for(scale.name).size
    )

    print("\nsweeping the search space (baseline + CS grids)...")
    with activate(telemetry):
        sweep = run_search_space(
            scale.name,
            executor=args.executor,
            n_workers=args.workers,
            checkpoint=args.checkpoint,
            cache=args.cache_dir,
            progress=progress,
            telemetry=telemetry,
        )
    print(f"evaluated {len(sweep)} design points")
    if sweep.failures():
        for failed in sweep.failures():
            print(f"  FAILED {failed.point.describe()}: {failed.error}")
        sweep = sweep.successes()

    # The paper's 98 % bound needs the small/paper scales; the smoke
    # scale's short records raise the oracle's variance floor, so the
    # bound is relaxed there (shape, not absolute level, is the point).
    min_accuracy = 0.90 if scale.name == "smoke" else MIN_ACCURACY
    fig7 = analyze_fig7(sweep, min_accuracy=min_accuracy)
    print("\n--- Fig. 7 b): accuracy vs power Pareto fronts ---")
    print("\nbaseline front:")
    print(render_front(fig7.accuracy_front_baseline, "accuracy"))
    print("\nCS front:")
    print(render_front(fig7.accuracy_front_cs, "accuracy"))

    print(f"\n--- optimal design points (min power at >= {min_accuracy:.0%} accuracy) ---")
    print(fig7.summary())
    print("(paper: baseline 98.1 % @ 8.8 uW, CS 99.3 % @ 2.44 uW, 3.6x)")

    print("\n--- Fig. 7 b) as a chart ---")
    from repro.util.textplot import pareto_chart

    print(
        pareto_chart(
            {
                "baseline": fig7.accuracy_front_baseline,
                "cs": fig7.accuracy_front_cs,
            },
            title="accuracy vs power (Pareto fronts)",
        )
    )

    print("\n--- Fig. 8: power breakdown of the two optima ---")
    fig8 = analyze_fig8(sweep, min_accuracy=min_accuracy)
    print(fig8.savings_table())
    print(
        "\nreading: CS saves mostly in the transmitter (fewer words) and the "
        "LNA (higher tolerable noise floor); the CS encoder's digital power "
        "is a modest increase."
    )

    if telemetry is not None:
        print()
        print(telemetry.summary())


if __name__ == "__main__":
    main()
