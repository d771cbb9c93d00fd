"""Sparse-signal reconstruction solvers.

Recovers ``x`` from compressed measurements ``y = A x + noise`` where
``A = Phi_eff @ Psi`` is the effective sensing matrix composed with a
sparsifying basis.  Three solvers are implemented from scratch:

* :func:`omp` -- Orthogonal Matching Pursuit, a greedy support-growing
  solver; the reference algorithm of most CS ASIC papers.
* :func:`ista` / :func:`fista` -- proximal-gradient solvers of the LASSO
  problem ``min 0.5 ||y - A z||^2 + lam ||z||_1``.  FISTA adds Nesterov
  momentum and is the workhorse: it is fully vectorised across *batches* of
  frames (two matrix-matrix products per iteration for thousands of
  frames), which is what makes sweeping 500-record datasets feasible in
  Python.  It iterates in float32 and returns float64: the 6-8-bit codes
  it reconstructs sit 16 bits above float32's rounding, and the products
  stream half the bytes.  ISTA, the ablation reference, stays in float64.
* :func:`least_squares_on_support` -- the least-squares refit on a
  support that OMP grows.

:class:`Reconstructor` packages a basis + solver + parameters into the
object the simulation chain and the explorer consume, and
:class:`FistaReconstructorFactory` is the one place the receiver of every
CS chain is configured.

The numeric solver cores live in :mod:`repro.kernels.numpy_backend`;
the functions here validate their inputs, call the core, and report
its convergence to telemetry.  :func:`fista` rejects finite inputs beyond
float32's range, which its float32 loop would turn into NaN; non-finite
inputs propagate as they always have.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.cs.dictionaries import dct_basis
from repro.kernels import numpy_backend
from repro.kernels.numpy_backend import least_squares_on_support
from repro.util.validation import check_positive, check_positive_int

if TYPE_CHECKING:
    from repro.power.technology import DesignPoint

_GET_ACTIVE_TELEMETRY = None

#: Largest finite float32: FISTA's loop cannot hold a finite input beyond it.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _telemetry():
    """The ambient telemetry sink (lazily imported).

    ``repro.core.__init__`` imports the explorer, which imports this
    module, so a top-level ``from repro.core.telemetry import ...`` would
    be circular when ``repro.cs`` is imported first.  The first solve
    resolves and caches the accessor instead; with telemetry disabled the
    ambient sink is the shared no-op instance.
    """
    global _GET_ACTIVE_TELEMETRY
    if _GET_ACTIVE_TELEMETRY is None:
        from repro.core.telemetry import get_active

        _GET_ACTIVE_TELEMETRY = get_active
    return _GET_ACTIVE_TELEMETRY()


def _note_solve(method: str, iterations: int, frames: int, elapsed_s: float) -> None:
    """Report one solver convergence (iterations + wall time) to telemetry."""
    telemetry = _telemetry()
    if not telemetry.enabled:
        return
    telemetry.count(f"cs.{method}.solves")
    telemetry.count(f"cs.{method}.frames", frames)
    # The histogram's p99 adds the tail view a mean cannot: an iteration
    # count at the solver's cap flags near-divergence even when the
    # average looks healthy.
    from repro.core.metrics import DEFAULT_ITERATION_BUCKETS

    telemetry.observe(
        f"cs.{method}.iterations", iterations, bounds=DEFAULT_ITERATION_BUCKETS
    )
    telemetry.observe(f"cs.{method}.solve_seconds", elapsed_s)


def _check_float32_range(name: str, values: np.ndarray) -> None:
    magnitude = np.abs(values)
    if np.any((magnitude > _FLOAT32_MAX) & np.isfinite(magnitude)):
        raise ValueError(
            f"{name} has a finite entry beyond float32's range "
            f"(|x| <= {_FLOAT32_MAX:.6g}); FISTA iterates in float32"
        )


def omp(
    a: np.ndarray,
    y: np.ndarray,
    sparsity: int,
    tol: float = 0.0,
) -> np.ndarray:
    """Orthogonal Matching Pursuit.

    Greedily selects the dictionary atom most correlated with the residual,
    re-fits on the grown support, and repeats ``sparsity`` times or until
    the residual norm drops below ``tol * ||y||``.

    Parameters
    ----------
    a:
        Measurement matrix (M x N), columns need not be normalised (they
        are normalised internally for atom selection).
    y:
        Measurement vector (M,).
    sparsity:
        Maximum number of atoms to select (K).
    tol:
        Optional relative residual early-exit threshold.

    Returns
    -------
    Coefficient vector (N,) with at most K nonzeros.
    """
    sparsity = check_positive_int("sparsity", sparsity)
    y = np.asarray(y, dtype=np.float64)
    m, _n = a.shape
    if y.shape != (m,):
        raise ValueError(f"y must have shape ({m},), got {y.shape}")
    start = time.perf_counter()
    coeffs, n_selected = numpy_backend.omp(a, y, sparsity, tol)
    if n_selected:
        _note_solve("omp", n_selected, 1, time.perf_counter() - start)
    return coeffs


def ista(
    a: np.ndarray,
    y: np.ndarray,
    lam: float,
    n_iter: int = 200,
    tol: float = 1e-8,
) -> np.ndarray:
    """Iterative Shrinkage-Thresholding for the LASSO.

    Plain proximal gradient descent with step ``1/L``; converges at O(1/k).
    Provided mainly as the reference against which FISTA's acceleration is
    benchmarked; supports single vectors (M,) or batches (B, M) like
    :func:`fista`.
    """
    check_positive("lam", lam)
    n_iter = check_positive_int("n_iter", n_iter)
    y2 = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y2.shape[1] != a.shape[0]:
        raise ValueError(f"y frames have length {y2.shape[1]}, expected {a.shape[0]}")
    start = time.perf_counter()
    z, iterations = numpy_backend.ista(a, y2, lam, n_iter, tol)
    if iterations:
        _note_solve("ista", iterations, y2.shape[0], time.perf_counter() - start)
    return z[0] if np.ndim(y) == 1 else z


def fista(
    a: np.ndarray,
    y: np.ndarray,
    lam: float,
    n_iter: int = 100,
    tol: float = 1e-9,
) -> np.ndarray:
    """FISTA (Beck & Teboulle) for the LASSO, batched across frames.

    Parameters
    ----------
    a:
        Measurement matrix (M x N).
    y:
        One measurement vector (M,) or a batch (B, M).  The batch form
        performs every iteration as two products, (B, N) x (N, M) and
        (B, M) x (M, N), which is how full-dataset evaluation stays fast.
    lam:
        l1 regularisation weight, in the units of ``y`` squared.
    n_iter:
        Maximum iterations (O(1/k^2) convergence).
    tol:
        Early exit when the max coefficient update falls below this.

    Returns
    -------
    Coefficients (N,) or (B, N) matching the input rank.

    Raises
    ------
    ValueError
        If ``a`` or ``y`` holds a finite entry beyond float32's range,
        where the float32 loop would return NaN.
    """
    check_positive("lam", lam)
    n_iter = check_positive_int("n_iter", n_iter)
    single = np.ndim(y) == 1
    y2 = np.atleast_2d(np.asarray(y, dtype=np.float64))
    b, m = y2.shape
    if m != a.shape[0]:
        raise ValueError(f"y frames have length {m}, expected {a.shape[0]}")
    _check_float32_range("a", a)
    _check_float32_range("y", y2)
    start = time.perf_counter()
    z, iterations = numpy_backend.fista(a, y2, lam, n_iter, tol)
    if iterations:
        _note_solve("fista", iterations, b, time.perf_counter() - start)
    return z[0] if single else z


@dataclass
class Reconstructor:
    """Basis + solver bundle used by the CS signal chain.

    Parameters
    ----------
    basis:
        N x N synthesis matrix ``Psi`` (columns are atoms); ``None`` means
        the canonical basis (recover ``x`` directly).
    method:
        ``"fista"`` (default), ``"ista"`` or ``"omp"``.
    lam_rel:
        For the LASSO solvers: ``lam = lam_rel * max|A^T y|`` per batch,
        the standard scale-free parameterisation.
    sparsity:
        For OMP: atoms to select.
    n_iter:
        Iteration budget for the LASSO solvers.
    """

    basis: np.ndarray | None = None
    method: str = "fista"
    lam_rel: float = 0.02
    sparsity: int = 32
    n_iter: int = 120

    def __post_init__(self) -> None:
        if self.method not in ("fista", "ista", "omp"):
            raise ValueError(f"unknown reconstruction method {self.method!r}")
        check_positive("lam_rel", self.lam_rel)
        check_positive_int("sparsity", self.sparsity)
        check_positive_int("n_iter", self.n_iter)

    def recover(self, phi_eff: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Recover signal frames from measurements.

        ``phi_eff`` is the effective (weighted) sensing matrix; ``y`` a
        single measurement (M,) or batch (B, M).  Returns reconstructed
        signal frames (N,) or (B, N).
        """
        telemetry = _telemetry()
        phi_eff = np.ascontiguousarray(phi_eff)
        a = phi_eff if self.basis is None else phi_eff @ self.basis
        single = np.ndim(y) == 1
        y2 = np.atleast_2d(np.asarray(y, dtype=np.float64))
        with telemetry.span(f"cs.recover.{self.method}"):
            return self._solve(a, y2, single)

    def _solve(self, a: np.ndarray, y2: np.ndarray, single: bool) -> np.ndarray:
        if self.method == "omp":
            coeffs = np.stack([omp(a, row, sparsity=self.sparsity) for row in y2])
        else:
            lam_scale = np.max(np.abs(y2 @ a))
            lam = self.lam_rel * (lam_scale if lam_scale > 0 else 1.0)
            if self.method == "fista":
                coeffs = fista(a, y2, lam, n_iter=self.n_iter)
            else:
                coeffs = ista(a, y2, lam, n_iter=self.n_iter)
            coeffs = np.atleast_2d(coeffs)
        frames = coeffs if self.basis is None else coeffs @ self.basis.T
        return frames[0] if single else frames


@lru_cache(maxsize=8)
def _shared_dct_basis(n: int) -> np.ndarray:
    # One read-only N x N basis per frame length, shared by every
    # reconstructor (and every evaluator) in the process.
    basis = dct_basis(n)
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True)
class FistaReconstructorFactory:
    """The receiver of every CS chain: batched FISTA on a DCT basis.

    DCT with light shrinkage preserves narrow spectral structure (rhythms,
    low-voltage fast activity) best -- orthogonal wavelets smear
    narrowband content across detail coefficients that l1 shrinkage then
    suppresses.  The basis is sized from each point's ``cs_n_phi``.  A
    module-level frozen dataclass (not a closure or a bound method) so an
    evaluator holding it pickles for process sweeps; ``fingerprint`` keys
    the on-disk evaluation cache.
    """

    n_iter: int = 300
    lam_rel: float = 0.002

    def __call__(self, point: DesignPoint) -> Reconstructor:
        return Reconstructor(
            basis=_shared_dct_basis(point.cs_n_phi),
            method="fista",
            lam_rel=self.lam_rel,
            n_iter=self.n_iter,
        )

    def fingerprint(self) -> str:
        return f"fista:dct:lam{self.lam_rel}:iters{self.n_iter}"
