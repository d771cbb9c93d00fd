"""Backend-conformance harness: lock every kernel backend to the reference.

The registry's safety story is that enabling an accelerated backend can
never change a sweep's numbers beyond its *declared* contract: exact
backends must be bit-identical to the numpy reference, tolerance
backends must agree within their documented ``rtol``.  This module is
the enforcement mechanism — a deterministic problem generator plus
comparison drivers that ``tests/test_kernel_conformance.py`` (and any
out-of-tree backend) runs over every registered backend:

* :func:`solver_problems` / :func:`encoder_problems` — deterministic
  suites covering representative and degenerate inputs (zero
  measurements, single-atom dictionaries, zero operators, non-finite
  values); Hypothesis-generated cases in the test suite extend them
  with random shapes/dtypes.
* :func:`check_kernel` — run one kernel on one backend against the
  reference and return human-readable mismatch strings (empty = pass).
* :func:`check_backend` — the full sweep across kernels and problems.
* :func:`golden_replay` — recompute the ``fig7a`` golden under a
  backend and compare against the stored numbers, so conformance is
  checked end-to-end through the real evaluation chain, not just at the
  kernel boundary.

Adding a backend is "register + pass this suite": see
``docs/extending.md`` §12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.kernels import registry as default_registry
from repro.kernels.registry import REFERENCE_BACKEND, KernelRegistry


@dataclass(frozen=True)
class Problem:
    """One conformance case: a kernel name plus its call arguments."""

    name: str
    kernel: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def solver_problems(seed: int = 0) -> list[Problem]:
    """Deterministic solver cases (fista/ista/omp), degenerate cases included."""
    rng = np.random.default_rng(seed)
    problems: list[Problem] = []

    def lasso(name, a, y2, lam=0.05, n_iter=60, tol=1e-9):
        for kernel in ("fista", "ista"):
            problems.append(Problem(f"{kernel}:{name}", kernel, (a, np.atleast_2d(y2), lam, n_iter, tol)))

    a = rng.normal(size=(16, 48))
    lasso("gaussian_batch", a, rng.normal(size=(5, 16)))
    lasso("gaussian_single", a, rng.normal(size=(1, 16)))
    wide = rng.normal(size=(4, 64))
    lasso("very_underdetermined", wide, rng.normal(size=(3, 4)))
    lasso("zero_measurements", a, np.zeros((2, 16)))
    lasso("zero_operator", np.zeros((8, 12)), rng.normal(size=(2, 8)))
    lasso("single_atom", rng.normal(size=(6, 1)), rng.normal(size=(2, 6)))
    nonfinite = rng.normal(size=(2, 16))
    nonfinite[0, 3] = np.nan
    nonfinite[1, 7] = np.inf
    lasso("non_finite_measurements", a, nonfinite, n_iter=8)
    ill = rng.normal(size=(16, 24))
    ill[:, 1] = ill[:, 0]  # duplicate atom: correlated dictionary
    lasso("duplicate_atoms", ill, rng.normal(size=(2, 16)))

    def greedy(name, a, y, sparsity=4, tol=0.0):
        problems.append(Problem(f"omp:{name}", "omp", (a, y, sparsity, tol)))

    greedy("gaussian", a, rng.normal(size=16))
    greedy("zero_measurements", a, np.zeros(16))
    greedy("single_atom", rng.normal(size=(6, 1)), rng.normal(size=6), sparsity=1)
    greedy("early_exit", a, a @ _sparse_vector(48, 3, rng), sparsity=8, tol=1e-6)
    greedy("sparsity_exceeds_rows", rng.normal(size=(3, 10)), rng.normal(size=3), sparsity=9)
    return problems


def _sparse_vector(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros(n)
    x[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
    return x


def encoder_problems(seed: int = 0) -> list[Problem]:
    """Deterministic encoder-multiply cases (noise on/off, single frame)."""
    rng = np.random.default_rng(seed + 1)
    problems: list[Problem] = []

    def case(name, n=24, m=8, s=2, n_frames=3, noise=True, kt=4.14e-21):
        routes = np.stack([
            np.sort(rng.choice(m, size=s, replace=False)) for _ in range(n)
        ]).astype(np.int64)
        frames = rng.normal(size=(n_frames, n))
        c_sample = 1e-14 * (1.0 + rng.normal(0, 0.01, size=s))
        c_hold = 8e-14 * (1.0 + rng.normal(0, 0.01, size=m))
        sample_draws = rng.normal(size=(n, n_frames, s)) * 1e-4 if noise else None
        share_draws = rng.normal(size=(n, n_frames, s)) if noise else None
        problems.append(
            Problem(
                f"encoder_multiply:{name}",
                "encoder_multiply",
                (frames, routes, c_sample, c_hold, kt if noise else 0.0,
                 sample_draws, share_draws),
            )
        )

    case("noisy_batch")
    case("noiseless", noise=False)
    case("single_frame", n_frames=1)
    case("dense_routes", m=4, s=3)
    return problems


def default_problems(seed: int = 0) -> list[Problem]:
    return solver_problems(seed) + encoder_problems(seed)


def _compare_arrays(name: str, got, want, *, exact: bool, rtol: float) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    if exact:
        # Bytes, not ``==``: equality misses a flipped sign of zero, a NaN
        # payload and (after a cast) a changed dtype.
        if got.dtype != want.dtype:
            return [f"{name}: dtype {got.dtype} != reference {want.dtype}"]
        if got.tobytes() != want.tobytes():
            rows = (got.size, got.dtype.itemsize)
            bits = [np.frombuffer(x.tobytes(), np.uint8).reshape(rows) for x in (got, want)]
            count = int(np.count_nonzero((bits[0] != bits[1]).any(axis=1)))
            return [f"{name}: not bit-identical to reference ({count} of {got.size} values differ)"]
        return []
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    finite_mismatch = ~(np.isfinite(got) == np.isfinite(want))
    if np.any(finite_mismatch):
        return [f"{name}: finiteness pattern differs from reference"]
    if not np.allclose(got, want, rtol=rtol, atol=rtol, equal_nan=True):
        denom = np.maximum(np.abs(want), 1.0)
        worst = float(np.nanmax(np.abs(got - want) / denom)) if got.size else 0.0
        return [f"{name}: exceeds rtol={rtol:g} (worst relative error {worst:.3e})"]
    return []


def check_kernel(
    backend_name: str,
    problem: Problem,
    *,
    registry: KernelRegistry | None = None,
) -> list[str]:
    """Run one problem on ``backend_name`` vs the reference; [] means pass.

    The backend implementation is called *directly* (not through
    ``registry.call``) so a failure surfaces as a mismatch instead of
    being masked by auto-fallback.
    """
    reg = registry if registry is not None else default_registry
    backend = reg.backend(backend_name)
    reference = reg.backend(REFERENCE_BACKEND)
    if problem.kernel not in reference.kernels:
        return [f"{problem.name}: no reference implementation for {problem.kernel!r}"]
    if problem.kernel not in backend.kernels:
        return []  # not implemented: dispatch falls back, nothing to conform
    want = reference.kernels[problem.kernel](*problem.args, **problem.kwargs)
    try:
        got = backend.kernels[problem.kernel](*problem.args, **problem.kwargs)
    except Exception as exc:  # noqa: BLE001 - reported as a conformance failure
        return [f"{problem.name}: {backend_name} raised {type(exc).__name__}: {exc}"]
    mismatches: list[str] = []
    if isinstance(want, tuple):
        if not isinstance(got, tuple) or len(got) != len(want):
            return [f"{problem.name}: return arity differs from reference"]
        for i, (g, w) in enumerate(zip(got, want)):
            if isinstance(w, (int, np.integer)) and backend.exact and g != w:
                mismatches.append(f"{problem.name}[{i}]: {g} != reference {w}")
            elif isinstance(w, np.ndarray):
                mismatches.extend(
                    _compare_arrays(
                        f"{problem.name}[{i}]", g, w, exact=backend.exact, rtol=backend.rtol
                    )
                )
    else:
        mismatches.extend(
            _compare_arrays(problem.name, got, want, exact=backend.exact, rtol=backend.rtol)
        )
    return mismatches


def check_backend(
    backend_name: str,
    *,
    problems: list[Problem] | None = None,
    registry: KernelRegistry | None = None,
    seed: int = 0,
) -> list[str]:
    """Run the full deterministic suite for one backend; [] means pass."""
    reg = registry if registry is not None else default_registry
    backend = reg.backend(backend_name)
    if not backend.available:
        return []  # unavailable backends fall back; nothing to conform
    cases = problems if problems is not None else default_problems(seed)
    mismatches: list[str] = []
    for problem in cases:
        mismatches.extend(check_kernel(backend_name, problem, registry=reg))
    return mismatches


def conformant_backends(registry: KernelRegistry | None = None) -> list[str]:
    """Names of registered, available, non-reference backends."""
    reg = registry if registry is not None else default_registry
    return [
        b.name
        for b in reg.backends()
        if b.name != REFERENCE_BACKEND and b.available and b.kernels
    ]


def golden_replay(backend_name: str, golden: dict[str, Any] | None = None) -> list[str]:
    """Recompute the fig7a golden with ``backend_name`` active; [] = pass.

    Exercises the backend through the full evaluation chain (encoder,
    solver, scoring) rather than at the kernel boundary.  The stored
    golden's own tolerance applies — it already reflects what the
    downstream figures can absorb — widened to the backend's documented
    ``rtol`` if that is looser.
    """
    from repro.testing.goldens import compare_to_golden, compute_golden, load_golden

    reg = default_registry
    backend = reg.backend(backend_name)
    if golden is None:
        golden = load_golden("fig7a")
    if not backend.exact and backend.rtol > float(golden.get("tolerance", {}).get("rtol", 0.0)):
        golden = dict(golden)
        golden["tolerance"] = dict(golden.get("tolerance", {}), rtol=backend.rtol)
    with reg.use_backend(backend_name):
        fresh = compute_golden("fig7a")
    return compare_to_golden(golden, fresh)
