"""Parallel explorer benchmark: serial vs process (local fleet) wall-clock.

Sweeps the Fig. 7 *small*-scale grid (48 design points) with a toy
evaluator whose per-point cost is a fixed delay, standing in for the
full-corpus simulation.  A delay-dominated evaluator is used (rather than
the real one) so the benchmark isolates the dispatch/reassembly machinery
and demonstrates overlap even on single-core CI runners; the real
evaluator's bit-identity across backends is covered by the unit tests.

Asserts the acceptance contract: at 4 workers the parallel sweep is
> 1.5x faster than serial, and the results are bit-identical in grid
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.explorer import DesignSpaceExplorer
from repro.core.results import Evaluation
from repro.experiments.runner import SCALES
from repro.experiments.table3 import paper_search_space
from repro.util.rng import derive_seed

#: Per-point simulated evaluation cost, seconds.
DELAY_S = 0.05

#: Acceptance threshold for the 4-worker speedup.
MIN_SPEEDUP = 1.5


@dataclass(frozen=True)
class DelayedToyEvaluator:
    """Picklable stand-in evaluator: fixed delay + seed-derived metrics."""

    delay_s: float = DELAY_S

    def fingerprint(self) -> str:
        return f"delayed-toy:{self.delay_s}"

    def __call__(self, point) -> Evaluation:
        time.sleep(self.delay_s)
        seed = derive_seed(0, point.describe())
        return Evaluation(
            point=point,
            metrics={
                "power_uw": (seed % 10_000) / 1_000.0,
                "accuracy": 0.9 + (seed % 97) / 1_000.0,
            },
        )


def small_grid():
    scale = SCALES["small"]
    return paper_search_space(
        noise_values_uv=scale.noise_values_uv,
        n_bits_values=scale.n_bits_values,
        cs_m_values=scale.cs_m_values,
    )


def test_parallel_speedup_and_bit_identity():
    explorer = DesignSpaceExplorer(DelayedToyEvaluator())
    space = small_grid()

    start = time.perf_counter()
    serial = explorer.explore(space, name="serial")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = explorer.explore(space, name="parallel", executor="process", n_workers=4)
    parallel_s = time.perf_counter() - start

    assert len(serial) == len(parallel) == space.size
    for expected, actual in zip(serial, parallel):
        assert expected.point.describe() == actual.point.describe()
        assert expected.metrics == actual.metrics  # bit-identical, same order

    speedup = serial_s / parallel_s
    print(
        f"\n{len(serial)} points x {DELAY_S * 1000:.0f} ms: "
        f"serial {serial_s:.2f} s, process(4) {parallel_s:.2f} s, {speedup:.2f}x"
    )
    assert speedup > MIN_SPEEDUP, (
        f"4-worker sweep only {speedup:.2f}x faster (need > {MIN_SPEEDUP}x)"
    )


def test_parallel_overhead_report(benchmark):
    """pytest-benchmark record of the 4-worker sweep (reporting only)."""
    explorer = DesignSpaceExplorer(DelayedToyEvaluator())
    space = small_grid()
    result = benchmark.pedantic(
        lambda: explorer.explore(space, executor="process", n_workers=4),
        rounds=1,
        iterations=1,
    )
    assert len(result) == space.size


#: Disabled-telemetry overhead tolerance, seconds per design point.  The
#: no-op hooks cost well under a microsecond each; the bound is generous
#: only to absorb scheduler noise on loaded CI runners.
MAX_DISABLED_TELEMETRY_OVERHEAD_S = 0.002


def test_disabled_telemetry_adds_no_measurable_overhead():
    """An unprofiled sweep must not pay for the instrumentation hooks.

    Compares the explorer's per-point wall time (zero-delay evaluator, so
    pure machinery) against a bare evaluation loop; the difference bounds
    everything `explore` adds on top -- including every disabled-telemetry
    hook on the hot path.
    """
    evaluator = DelayedToyEvaluator(delay_s=0.0)
    explorer = DesignSpaceExplorer(evaluator)
    space = small_grid()
    points = list(space.grid())

    # Warm-up: JIT-free Python, but populates caches (describe(), imports).
    explorer.explore(space)
    for point in points:
        evaluator(point)

    n_rounds = 5
    start = time.perf_counter()
    for _ in range(n_rounds):
        for point in points:
            evaluator(point)
    bare_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(n_rounds):
        explorer.explore(space)
    explored_s = time.perf_counter() - start

    per_point = (explored_s - bare_s) / (n_rounds * space.size)
    print(
        f"\nexplore machinery overhead: {per_point * 1e6:.1f} us/point "
        f"(bare {bare_s:.3f} s, explore {explored_s:.3f} s, "
        f"{n_rounds} x {space.size} points)"
    )
    assert per_point < MAX_DISABLED_TELEMETRY_OVERHEAD_S, (
        f"explore adds {per_point * 1e3:.3f} ms/point with telemetry disabled "
        f"(bound: {MAX_DISABLED_TELEMETRY_OVERHEAD_S * 1e3:.1f} ms)"
    )
