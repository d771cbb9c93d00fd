"""Optional numba JIT backend for the hot kernels.

Everything is gated on ``import numba`` succeeding: when numba is not
installed (the default container has only numpy/scipy) the backend
registers as *unavailable* and every dispatch falls back to the numpy
reference, with the fallback counted in telemetry and recorded in the
manifest ``kernels`` section.

Exactness: **documented tolerance, not bit-identity** (``rtol``
below).  The JIT loops accumulate in a different order than numpy's
BLAS calls (and the Lipschitz constant comes from an SVD rather than
``np.linalg.norm(ord=2)``), so results agree to floating-point
round-off but not bitwise.  Its FISTA also keeps the ``a.T @ a``
gradient the reference used before 1.1.0.  The conformance suite
(:mod:`repro.testing.conformance`) enforces the tolerance; because the
backend is non-exact, the registry qualifies evaluation-cache keys with
the backend name whenever it is active (see
:meth:`repro.kernels.registry.KernelRegistry.cache_tag`).

Compilation is lazy: the first dispatched call pays the JIT cost, and
any compile/runtime error is contained by the registry (demote + fall
back to the reference), so a broken numba install can never take down a
sweep.
"""

from __future__ import annotations

import numpy as np

#: Documented agreement tolerance versus the numpy reference.
RTOL = 1e-6

_COMPILED: dict | None = None


def available() -> tuple[bool, str | None]:
    try:
        import numba  # noqa: F401
    except Exception as exc:  # pragma: no cover - depends on environment
        return False, f"numba not importable: {type(exc).__name__}: {exc}"
    return True, None


def _compiled() -> dict:
    """Compile the JIT kernels once per process (lazy)."""
    global _COMPILED
    if _COMPILED is not None:
        return _COMPILED
    import numba

    njit = numba.njit

    @njit(fastmath=False)
    def _soft_threshold_into(candidate, thr, out):
        b, n = candidate.shape
        for i in range(b):
            for k in range(n):
                v = candidate[i, k]
                if v > thr:
                    out[i, k] = v - thr
                elif v < -thr:
                    out[i, k] = v + thr
                else:
                    # +0.0 inside the threshold, and NaN stays NaN: the
                    # reference's v - clip(v, -thr, thr).
                    out[i, k] = v - v

    @njit(fastmath=False)
    def _fista(a, y2, lam, n_iter, tol):
        b, _m = y2.shape
        n = a.shape[1]
        sv = np.linalg.svd(a)[1]
        lipschitz = sv[0] * sv[0] if sv.shape[0] > 0 else 0.0
        z = np.zeros((b, n))
        if lipschitz == 0.0:
            return z, 0
        step = 1.0 / lipschitz
        momentum = z.copy()
        t = 1.0
        gram = np.dot(a.T, a)
        ya = np.dot(y2, a)
        z_next = np.zeros((b, n))
        iterations = 0
        for _ in range(n_iter):
            iterations += 1
            gradient = np.dot(momentum, gram) - ya
            _soft_threshold_into(momentum - step * gradient, lam * step, z_next)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            coef = (t - 1.0) / t_next
            delta = 0.0
            nan_seen = False
            for i in range(b):
                for k in range(n):
                    diff = z_next[i, k] - z[i, k]
                    momentum[i, k] = z_next[i, k] + coef * diff
                    d = abs(diff)
                    if d != d:
                        nan_seen = True
                    elif d > delta:
                        delta = d
            tmp = z
            z = z_next
            z_next = tmp
            t = t_next
            if not nan_seen and delta <= tol:
                break
        return z, iterations

    @njit(fastmath=False)
    def _ista(a, y2, lam, n_iter, tol):
        b, _m = y2.shape
        n = a.shape[1]
        sv = np.linalg.svd(a)[1]
        lipschitz = sv[0] * sv[0] if sv.shape[0] > 0 else 0.0
        z = np.zeros((b, n))
        if lipschitz == 0.0:
            return z, 0
        step = 1.0 / lipschitz
        z_next = np.zeros((b, n))
        iterations = 0
        for _ in range(n_iter):
            iterations += 1
            gradient = np.dot(np.dot(z, a.T) - y2, a)
            _soft_threshold_into(z - step * gradient, lam * step, z_next)
            delta = 0.0
            nan_seen = False
            for i in range(b):
                for k in range(n):
                    d = abs(z_next[i, k] - z[i, k])
                    if d != d:
                        nan_seen = True
                    elif d > delta:
                        delta = d
            tmp = z
            z = z_next
            z_next = tmp
            if not nan_seen and delta <= tol:
                break
        return z, iterations

    @njit(fastmath=False)
    def _lstsq_on_support(a, y, support, n_selected):
        sub = np.empty((a.shape[0], n_selected))
        for k in range(n_selected):
            sub[:, k] = a[:, support[k]]
        solution = np.linalg.lstsq(sub, y)[0]
        coeffs = np.zeros(a.shape[1])
        for k in range(n_selected):
            coeffs[support[k]] = solution[k]
        return coeffs

    @njit(fastmath=False)
    def _omp(a, y, sparsity, tol):
        m, n = a.shape
        norms = np.empty(n)
        for k in range(n):
            acc = 0.0
            for i in range(m):
                acc += a[i, k] * a[i, k]
            norms[k] = np.sqrt(acc) if acc > 0.0 else 1.0
        y_norm = np.sqrt(np.dot(y, y))
        if y_norm == 0.0:
            return np.zeros(n), 0
        residual = y.copy()
        support = np.empty(min(sparsity, m), dtype=np.int64)
        n_selected = 0
        coeffs = np.zeros(n)
        for _ in range(min(sparsity, m)):
            correlations = np.abs(np.dot(a.T, residual)) / norms
            for k in range(n_selected):
                correlations[support[k]] = -np.inf
            atom = int(np.argmax(correlations))
            support[n_selected] = atom
            n_selected += 1
            coeffs = _lstsq_on_support(a, y, support, n_selected)
            residual = y - np.dot(a, coeffs)
            if tol > 0.0 and np.sqrt(np.dot(residual, residual)) <= tol * y_norm:
                break
        return _lstsq_on_support(a, y, support, n_selected), n_selected

    @njit(fastmath=False)
    def _encoder_multiply(
        frames, routes, c_sample, c_hold, kt, sample_draws, share_draws, has_sample, has_share
    ):
        n_frames = frames.shape[0]
        n, s = routes.shape
        m = c_hold.shape[0]
        v_hold = np.zeros((n_frames, m))
        last_touch = np.zeros(m)
        for j in range(n):
            for slot in range(s):
                row = routes[j, slot]
                cs = c_sample[slot]
                ch = c_hold[row]
                a = cs / (cs + ch)
                b = ch / (cs + ch)
                share_noise = np.sqrt(kt / (cs + ch)) if has_share else 0.0
                for f in range(n_frames):
                    vin = frames[f, j]
                    if has_sample:
                        vin += sample_draws[j, f, slot]
                    v = b * v_hold[f, row] + a * vin
                    if has_share:
                        v += share_draws[j, f, slot] * share_noise
                    v_hold[f, row] = v
            for slot in range(s):
                last_touch[routes[j, slot]] = j
        return v_hold, last_touch

    _COMPILED = {
        "fista": _fista,
        "ista": _ista,
        "omp": _omp,
        "encoder_multiply": _encoder_multiply,
    }
    return _COMPILED


def _as_f64(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def fista(a, y2, lam, n_iter, tol):
    z, iterations = _compiled()["fista"](
        _as_f64(a), _as_f64(y2), float(lam), int(n_iter), float(tol)
    )
    return z, int(iterations)


def ista(a, y2, lam, n_iter, tol):
    z, iterations = _compiled()["ista"](
        _as_f64(a), _as_f64(y2), float(lam), int(n_iter), float(tol)
    )
    return z, int(iterations)


def omp(a, y, sparsity, tol):
    coeffs, n_selected = _compiled()["omp"](
        _as_f64(a), _as_f64(y), int(sparsity), float(tol)
    )
    return coeffs, int(n_selected)


def encoder_multiply(frames, routes, c_sample, c_hold, kt, sample_draws, share_draws):
    frames = _as_f64(frames)
    routes = np.ascontiguousarray(np.asarray(routes, dtype=np.int64))
    empty = np.zeros((routes.shape[0], frames.shape[0], routes.shape[1]))
    return _compiled()["encoder_multiply"](
        frames,
        routes,
        _as_f64(c_sample),
        _as_f64(c_hold),
        float(kt),
        empty if sample_draws is None else _as_f64(sample_draws),
        empty if share_draws is None else _as_f64(share_draws),
        sample_draws is not None,
        share_draws is not None,
    )


def make_backend():
    from repro.kernels.registry import KernelBackend

    ok, reason = available()
    kernels = (
        {"fista": fista, "ista": ista, "omp": omp, "encoder_multiply": encoder_multiply}
        if ok
        else {}
    )
    return KernelBackend(
        name="numba",
        kernels=kernels,
        exact=False,
        rtol=RTOL,
        available=ok,
        unavailable_reason=reason,
    )
