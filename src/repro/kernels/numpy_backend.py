"""The numpy implementations of the hot kernels.

These are the *definitional* implementations: the golden suite locks
their numbers down, and ``tests/test_kernel_conformance.py`` pins them
to their own bytes.  The wrappers in :mod:`repro.cs.reconstruction`
validate, time and call them; the numeric cores live here.  Their
floating-point operations, in order, are the contract: ``fista`` spells
its sequence out in its docstring, and changing it changes the
package's numbers (see ``docs/extending.md`` §11).  Every kernel
returns float64; ``fista`` iterates in float32 (release 1.4.0), the
others in float64.

Kernel contract
---------------
``fista`` / ``ista``
    ``(a(M,N), y2(B,M), lam, n_iter, tol) -> (z(B,N), iterations)``;
    ``iterations == 0`` only for the degenerate zero-operator case.
    ``fista`` rounds ``a`` and ``y2`` to float32, so their finite
    entries must lie within float32's range; the validating wrapper
    checks that.
``omp``
    ``(a(M,N), y(M,), sparsity, tol) -> (coeffs(N,), n_selected)``.
``encoder_multiply``
    The charge-sharing accumulation of paper Eq. (1) with *pre-drawn*
    noise: ``(frames(B,N), routes(N,s), c_sample(s,), c_hold(m,), kt,
    sample_draws(N,B,s)|None, share_draws(N,B,s)|None) ->
    (v_hold(B,m), last_touch(m,))``.  Each column of ``routes`` holds s
    distinct rows.  The caller draws the noise from its RNG in the
    original order, so seeded replay stays bit-identical however the
    arithmetic is looped.  The exactness contract is per element: every
    ``v_hold[f, r]`` takes its shares in column order with the
    operations its docstring lists.  The loop order is free; this one
    loops over share rank.
"""

from __future__ import annotations

import numpy as np


def _soft_threshold(z: np.ndarray, threshold: float) -> np.ndarray:
    # sign(z) * max(|z| - t, 0) in two passes; writes +0.0 inside the threshold.
    return z - np.clip(z, -threshold, threshold)


def _lipschitz(a: np.ndarray) -> float:
    """Largest eigenvalue of A^T A (squared spectral norm), the gradient
    Lipschitz constant of the LASSO smooth term."""
    return float(np.linalg.norm(a, ord=2) ** 2)


def least_squares_on_support(a: np.ndarray, y: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Solve ``min ||y - A[:, support] z||`` and embed into full length.

    The standard debiasing step: after the support is identified (greedily
    or by thresholding a LASSO solution), re-fit the nonzero coefficients
    without the l1 shrinkage bias.
    """
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

    The loop runs in float32.  ``a`` and ``y2`` are rounded to float32
    once; the Lipschitz constant comes from ``a`` as given, and each
    scalar (``step``, ``lam * step``, ``(t - 1.0) / t_next``) is computed
    in float64 and rounded once to ``np.float32``, so no scalar promotion
    rule of numpy touches the loop.  Each iteration computes, in this
    order, with these operands, every array in float32::

        gradient = (momentum @ a.T - y2) @ a
        v        = momentum - step * gradient
        z_next   = v - clip(v, -lam * step, lam * step)
        momentum = z_next + ((t - 1.0) / t_next) * (z_next - z)
        delta    = max(abs(z_next - z))

    and stops early once ``delta <= tol``, compared in float64.  The
    returned ``z`` is the last ``z_next`` cast to float64.  That sequence
    is the contract the byte-lock tests hold it to.  The soft threshold
    writes +0.0 for every ``v`` inside the threshold.

    The loop runs in one ``(B, M)`` and four ``(B, N)`` buffers allocated
    once per solve: ``out=`` ufuncs overwrite them, ``z_next - z`` is
    formed once for both the momentum and the convergence test, and the
    buffers rotate roles instead of being reallocated.  The factored
    gradient costs two ``B x M x N`` products per iteration where the
    ``a.T @ a`` form costs one ``B x N x N``: cheaper when ``2M < N``,
    and level at ``M = N/2``, the densest receiver the grids sweep (192
    of 384).  float32 halves the bytes those products stream, and the
    6-8-bit codes the receiver reconstructs sit 16 bits above float32's
    rounding.
    """
    b, m = y2.shape
    n = a.shape[1]
    lipschitz = _lipschitz(a)
    if lipschitz == 0:
        return np.zeros((b, n)), 0
    step = 1.0 / lipschitz
    step32 = np.float32(step)
    threshold = np.float32(lam * step)
    a = a.astype(np.float32)
    y2 = y2.astype(np.float32)
    z = np.zeros((b, n), np.float32)
    momentum = np.zeros((b, n), np.float32)
    z_next = np.empty((b, n), np.float32)
    work = np.empty((b, n), np.float32)
    residual = np.empty((b, m), np.float32)
    t = 1.0
    iterations = 0
    for _ in range(n_iter):
        iterations += 1
        np.matmul(momentum, a.T, out=residual)
        np.subtract(residual, y2, out=residual)
        np.matmul(residual, a, out=work)  # gradient
        np.multiply(step32, work, out=work)
        np.subtract(momentum, work, out=work)  # v; momentum is dead from here
        np.clip(work, -threshold, threshold, out=z_next)
        np.subtract(work, z_next, out=z_next)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        diff = np.subtract(z_next, z, out=z)  # z is dead from here
        delta = float(np.max(np.abs(diff, out=work)))
        np.multiply(np.float32((t - 1.0) / t_next), diff, out=diff)
        np.add(z_next, diff, out=diff)
        z, momentum, z_next = z_next, diff, momentum
        t = t_next
        if delta <= tol:
            break
    return z.astype(np.float64), iterations


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
    # Past n atoms every correlation is -inf and argmax would re-pick atom 0.
    for _ in range(min(sparsity, m, n)):
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
    """Charge-sharing accumulation (paper Eq. 1) with pre-drawn noise.

    Share ``(j, slot)`` moves sample ``j`` onto hold row ``r = routes[j,
    slot]``; for every frame ``f`` it computes, in this order::

        cs, ch = c_sample[slot], c_hold[r]
        vin    = frames[f, j] + sample_draws[j, f, slot]   # if drawn
        v      = (ch / (cs + ch)) * v + (cs / (cs + ch)) * vin
        v      = v + share_draws[j, f, slot] * sqrt(kt / (cs + ch))  # if drawn

    and each row takes its shares in column order.  That per-element
    sequence is the exactness contract; the loop order is free.  Here
    step ``k`` applies the ``k``-th share of every row at once, so the
    loop runs max-row-degree times instead of N.
    """
    n_frames = frames.shape[0]
    s = routes.shape[1]
    m = c_hold.shape[0]
    v_hold = np.zeros((n_frames, m))
    last_touch = np.zeros(m)  # sample index of the last share per row
    # Shares in column order, then grouped by row (stable: column order
    # within a row), then ordered by their rank within the row.
    flat = routes.ravel()
    by_row = np.argsort(flat, kind="stable")
    grouped = flat[by_row]
    rank = np.empty_like(by_row)
    rank[by_row] = np.arange(flat.size) - np.searchsorted(grouped, grouped)
    shares = np.argsort(rank, kind="stable")
    rows = flat[shares]
    cols, slots = np.divmod(shares, s)
    cs = c_sample[slots]
    ch = c_hold[rows]
    a = cs / (cs + ch)
    b = ch / (cs + ch)
    share_noise = np.sqrt(kt / (cs + ch)) if share_draws is not None else None
    stop = 0
    for width in np.bincount(rank):  # step k updates `width` distinct rows
        step = slice(stop, stop + width)
        stop += width
        r, j, slot = rows[step], cols[step], slots[step]
        vin = frames[:, j]
        if sample_draws is not None:
            vin = vin + sample_draws[j, :, slot].T
        v_hold[:, r] = b[step] * v_hold[:, r] + a[step] * vin
        if share_draws is not None:
            v_hold[:, r] += share_draws[j, :, slot].T * share_noise[step]
        last_touch[r] = j
    return v_hold, last_touch

