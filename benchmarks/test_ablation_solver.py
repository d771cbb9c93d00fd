"""Ablation + micro-benchmark: reconstruction solver choice.

Benchmarks the three solvers on identical CS instances.  Batched FISTA is
the production choice (it carries every dataset sweep); this benchmark
verifies it is both faster per frame than per-frame OMP and at least as
accurate as ISTA at an equal iteration budget -- and it records the
absolute throughput that makes Python-scale sweeps feasible.
"""

import math
import time

import numpy as np

from repro.cs.charge_sharing import ChargeSharingConfig, ChargeSharingEncoder
from repro.cs.dictionaries import dct_basis
from repro.cs.matrices import srbm_balanced
from repro.cs.reconstruction import Reconstructor
from repro.metrics.quality import nmse


def make_problem(harness, n_frames=48):
    frames = harness.records.reshape(-1, 384)[:n_frames]
    matrix = srbm_balanced(150, 384, 2, seed=3)
    encoder = ChargeSharingEncoder(
        matrix, ChargeSharingConfig(c_sample=2e-15, c_hold=16e-15, kt=0.0), seed=1
    )
    return frames, encoder, encoder.encode(frames)


def test_ablation_solver(benchmark, harness):
    frames, encoder, measurements = make_problem(harness)
    basis = dct_basis(384)
    phi_eff = encoder.phi_effective

    solvers = {
        "fista": Reconstructor(basis=basis, method="fista", lam_rel=0.002, n_iter=200),
        "ista": Reconstructor(basis=basis, method="ista", lam_rel=0.002, n_iter=200),
        "omp": Reconstructor(basis=basis, method="omp", sparsity=40),
    }

    quality = {
        name: nmse(frames, reconstructor.recover(phi_eff, measurements))
        for name, reconstructor in solvers.items()
    }
    # FISTA and OMP run interleaved over three rounds, and each keeps its
    # fastest round: on a runner shared with other jobs, the minimum is
    # the reading least disturbed by their load.
    runtime = {"fista": math.inf, "omp": math.inf}
    for _ in range(3):
        for name in runtime:
            start = time.perf_counter()
            solvers[name].recover(phi_eff, measurements)
            runtime[name] = min(runtime[name], time.perf_counter() - start)

    # The timed benchmark measures the production solver (batched FISTA).
    production = Reconstructor(basis=basis, method="fista", lam_rel=0.002, n_iter=200)
    benchmark.pedantic(
        production.recover, args=(phi_eff, measurements), rounds=3, iterations=1
    )

    print()
    for name in solvers:
        wall = (
            f"  fastest wall={runtime[name] * 1e3:8.1f} ms "
            f"({runtime[name] / frames.shape[0] * 1e3:6.2f} ms/frame)"
            if name in runtime
            else ""
        )
        print(f"{name:<8} NMSE={quality[name]:.4f}{wall}")

    # FISTA beats ISTA at equal budget (Nesterov acceleration).
    assert quality["fista"] <= quality["ista"] * 1.05
    # Batched FISTA is far cheaper per frame than per-frame OMP.
    assert runtime["fista"] < runtime["omp"]
    # And all solvers produce sane reconstructions on this easy instance.
    assert all(np.isfinite(v) and v < 1.0 for v in quality.values())
