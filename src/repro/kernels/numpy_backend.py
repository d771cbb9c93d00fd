"""Reference (numpy) implementations of the hot kernels.

These are the *definitional* implementations: the golden suite locks
their numbers down, and every other backend is accepted only if the
conformance harness proves agreement with them (bit-identical for
``exact`` backends, documented tolerance otherwise).  The solver bodies
perform exactly the floating-point operations, in the same order, of the
loops that used to live inline in :mod:`repro.cs.reconstruction`; the
wrappers there now validate, time and dispatch, while the numeric cores
live behind the registry.

Kernel contract
---------------
``fista`` / ``ista``
    ``(a(M,N), y2(B,M), lam, n_iter, tol) -> (z(B,N), iterations)``;
    ``iterations == 0`` only for the degenerate zero-operator case.
``omp``
    ``(a(M,N), y(M,), sparsity, tol) -> (coeffs(N,), n_selected)``.
``encoder_multiply``
    The charge-sharing accumulation of paper Eq. (1) with *pre-drawn*
    noise: ``(frames(B,N), routes(N,s), c_sample(s,), c_hold(m,), kt,
    sample_draws(N,B,s)|None, share_draws(N,B,s)|None) ->
    (v_hold(B,m), last_touch(m,))``.  The caller draws the noise from
    its RNG in the original order, so replay stays bit-identical no
    matter which backend runs the arithmetic.
"""

from __future__ import annotations

import numpy as np


def _soft_threshold(z: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - threshold, 0.0)


def _lipschitz(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, ord=2) ** 2)


def least_squares_on_support(a: np.ndarray, y: np.ndarray, support: np.ndarray) -> np.ndarray:
    coeffs = np.zeros(a.shape[1])
    if support.size == 0:
        return coeffs
    sub = a[:, support]
    solution, *_ = np.linalg.lstsq(sub, y, rcond=None)
    coeffs[support] = solution
    return coeffs


def fista(
    a: np.ndarray, y2: np.ndarray, lam: float, n_iter: int, tol: float
) -> tuple[np.ndarray, int]:
    """Batched FISTA core (Beck & Teboulle); see module docstring.

    Each iteration computes, in this order and with these operands::

        gradient = momentum @ gram - ya
        v        = momentum - step * gradient
        z_next   = sign(v) * maximum(abs(v) - lam * step, 0.0)
        momentum = z_next + ((t - 1.0) / t_next) * (z_next - z)
        delta    = max(abs(z_next - z))

    That sequence is the exactness contract of every ``exact`` backend.
    It runs in four ``(B, N)`` buffers allocated once per solve: ``out=``
    ufuncs overwrite them, ``z_next - z`` is formed once for both the
    momentum and the convergence test, and the buffers rotate roles
    instead of being reallocated.  ``sign`` writes to a buffer other
    than its input because numpy's in-place ``sign`` loop is ~8x slower
    (numpy 2.4 on one Xeon core, 192 x 384 float64: ~400 vs ~50 us).
    """
    b, _m = y2.shape
    n = a.shape[1]
    lipschitz = _lipschitz(a)
    if lipschitz == 0:
        return np.zeros((b, n)), 0
    step = 1.0 / lipschitz
    threshold = lam * step
    z = np.zeros((b, n))
    momentum = np.zeros((b, n))
    z_next = np.empty((b, n))
    work = np.empty((b, n))
    t = 1.0
    gram = a.T @ a  # (N, N), precomputed: gradient = momentum @ gram - y A
    ya = y2 @ a  # (B, N)
    iterations = 0
    for _ in range(n_iter):
        iterations += 1
        np.matmul(momentum, gram, out=work)
        np.subtract(work, ya, out=work)  # gradient
        np.multiply(step, work, out=work)
        np.subtract(momentum, work, out=work)  # v; momentum is dead from here
        np.abs(work, out=z_next)
        np.subtract(z_next, threshold, out=z_next)
        np.maximum(z_next, 0.0, out=z_next)
        np.sign(work, out=momentum)
        np.multiply(momentum, z_next, out=z_next)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        diff = np.subtract(z_next, z, out=z)  # z is dead from here
        delta = np.max(np.abs(diff, out=work))
        np.multiply((t - 1.0) / t_next, diff, out=diff)
        np.add(z_next, diff, out=diff)
        z, momentum, z_next = z_next, diff, momentum
        t = t_next
        if delta <= tol:
            break
    return z, iterations


def ista(
    a: np.ndarray, y2: np.ndarray, lam: float, n_iter: int, tol: float
) -> tuple[np.ndarray, int]:
    """Batched ISTA core; see module docstring."""
    lipschitz = _lipschitz(a)
    if lipschitz == 0:
        return np.zeros((y2.shape[0], a.shape[1])), 0
    step = 1.0 / lipschitz
    z = np.zeros((y2.shape[0], a.shape[1]))
    iterations = 0
    for _ in range(n_iter):
        iterations += 1
        gradient = (z @ a.T - y2) @ a  # (B, N): (A z - y) A, batched
        z_next = _soft_threshold(z - step * gradient, lam * step)
        if np.max(np.abs(z_next - z)) <= tol:
            z = z_next
            break
        z = z_next
    return z, iterations


def omp(a: np.ndarray, y: np.ndarray, sparsity: int, tol: float) -> tuple[np.ndarray, int]:
    """Greedy OMP core; see module docstring."""
    m, n = a.shape
    norms = np.linalg.norm(a, axis=0)
    norms = np.where(norms == 0, 1.0, norms)
    residual = y.copy()
    support: list[int] = []
    y_norm = np.linalg.norm(y)
    if y_norm == 0:
        return np.zeros(n), 0
    for _ in range(min(sparsity, m)):
        correlations = np.abs(a.T @ residual) / norms
        if support:
            correlations[support] = -np.inf
        atom = int(np.argmax(correlations))
        support.append(atom)
        coeffs = least_squares_on_support(a, y, np.array(support))
        residual = y - a @ coeffs
        if tol > 0 and np.linalg.norm(residual) <= tol * y_norm:
            break
    return least_squares_on_support(a, y, np.array(support)), len(support)


def encoder_multiply(
    frames: np.ndarray,
    routes: np.ndarray,
    c_sample: np.ndarray,
    c_hold: np.ndarray,
    kt: float,
    sample_draws: np.ndarray | None,
    share_draws: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Charge-sharing accumulation (paper Eq. 1) with pre-drawn noise."""
    n_frames = frames.shape[0]
    n = routes.shape[0]
    m = c_hold.shape[0]
    v_hold = np.zeros((n_frames, m))
    last_touch = np.zeros(m)  # sample index of the last share per row
    for j in range(n):
        rows = routes[j]  # (s,) destinations of sample j
        vin = frames[:, j][:, None]  # (n_frames, 1)
        if sample_draws is not None:
            vin = vin + sample_draws[j]
        cs = c_sample[: len(rows)]  # one sampling cap per route slot
        ch = c_hold[rows]
        a = cs / (cs + ch)  # (s,)
        b = ch / (cs + ch)
        v_hold[:, rows] = b * v_hold[:, rows] + a * vin
        if share_draws is not None:
            share_noise = np.sqrt(kt / (cs + ch))
            v_hold[:, rows] += share_draws[j] * (share_noise)
        last_touch[rows] = j
    return v_hold, last_touch


def make_backend():
    from repro.kernels.registry import KernelBackend

    return KernelBackend(
        name="numpy",
        exact=True,
        kernels={
            "fista": fista,
            "ista": ista,
            "omp": omp,
            "encoder_multiply": encoder_multiply,
        },
    )
