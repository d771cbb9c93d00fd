"""Backend-conformance suite: every kernel backend locked to the reference.

Three layers of enforcement:

* the deterministic problem suite in :mod:`repro.testing.conformance`
  (representative + degenerate inputs) runs against every available
  accelerated backend;
* Hypothesis extends it with random shapes, dtypes and degenerate
  values, re-using the same comparison driver;
* the fig7a golden replays end-to-end under each backend, so agreement
  is checked through the real evaluation chain, not just per kernel.

An accelerated FISTA must also beat the reference by
``KERNELS_FISTA_MIN_SPEEDUP``, or it is not worth dispatching to.

On machines without numba the accelerated legs skip (there is
nothing to conform — dispatch falls back); the numba kernels' source
still runs uncompiled against the reference, and the harness itself is
validated against deliberately broken fake backends.

The reference is also pinned to its own bits: ``fista`` to its
operation sequence written with temporaries, and ``encoder_multiply``
to the column loop it replaced.
"""

import sys
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    REFERENCE_BACKEND,
    KernelBackend,
    KernelRegistry,
    registry,
)
from repro.cs.matrices import srbm, srbm_balanced
from repro.kernels import numba_backend, numpy_backend
from repro.testing.conformance import (
    Problem,
    check_backend,
    check_kernel,
    conformant_backends,
    default_problems,
    encoder_problems,
    golden_replay,
    solver_problems,
)

ACCELERATED = conformant_backends()


def accelerated_or_skip():
    if not ACCELERATED:
        pytest.skip("no accelerated kernel backend installed (numba)")
    return ACCELERATED


# --- deterministic suite ----------------------------------------------------


class TestProblemSuite:
    def test_covers_all_dispatched_solvers(self):
        kernels = {p.kernel for p in default_problems()}
        assert kernels == {"fista", "ista", "omp", "encoder_multiply"}

    def test_degenerate_cases_present(self):
        names = {p.name for p in solver_problems()}
        for expected in (
            "fista:zero_measurements",
            "fista:zero_operator",
            "fista:single_atom",
            "fista:non_finite_measurements",
            "omp:zero_measurements",
            "omp:sparsity_exceeds_rows",
        ):
            assert expected in names
        assert "encoder_multiply:noiseless" in {p.name for p in encoder_problems()}

    def test_suite_is_deterministic(self):
        a = solver_problems(seed=7)
        b = solver_problems(seed=7)
        for pa, pb in zip(a, b):
            assert pa.name == pb.name
            for xa, xb in zip(pa.args, pb.args):
                if isinstance(xa, np.ndarray):
                    np.testing.assert_array_equal(xa, xb)

    def test_reference_conforms_to_itself(self):
        assert check_backend(REFERENCE_BACKEND) == []


@pytest.mark.parametrize("backend_name", ACCELERATED or ["<none>"])
class TestAcceleratedBackends:
    def test_deterministic_suite(self, backend_name):
        accelerated_or_skip()
        mismatches = check_backend(backend_name)
        assert mismatches == [], "\n".join(mismatches)

    def test_golden_replay(self, backend_name):
        accelerated_or_skip()
        mismatches = golden_replay(backend_name)
        assert mismatches == [], "\n".join(mismatches)


def test_golden_replay_reference_backend():
    """The golden replays bit-identically through the dispatch layer."""
    assert golden_replay(REFERENCE_BACKEND) == []


def _identity_numba() -> types.ModuleType:
    """A stand-in ``numba`` whose ``njit`` returns the function unchanged."""
    module = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda function: function

    module.njit = njit
    return module


def test_numba_kernel_bodies_conform_as_plain_python(monkeypatch):
    """The numba kernels' source, run uncompiled, conforms at ``RTOL``.

    Hosts without numba skip the accelerated legs above, so this is the
    only check of the numba kernels' arithmetic that every host runs.
    """
    monkeypatch.setitem(sys.modules, "numba", _identity_numba())
    monkeypatch.setattr(numba_backend, "_COMPILED", None)
    reg = KernelRegistry()
    reg.register(numpy_backend.make_backend())
    reg.register(
        KernelBackend(
            name="numba-uncompiled",
            kernels={
                name: getattr(numba_backend, name)
                for name in ("fista", "ista", "omp", "encoder_multiply")
            },
            rtol=numba_backend.RTOL,
        )
    )
    mismatches = check_backend("numba-uncompiled", registry=reg)
    assert mismatches == [], "\n".join(mismatches)


#: Speedup an accelerated FISTA backend must deliver over the numpy
#: reference on the small batched solve below, where per-call numpy
#: overhead dominates.
KERNELS_FISTA_MIN_SPEEDUP = 2.0


def _best_fista_seconds(backend_name, a, y2, lam, n_iter):
    """Best-of-3 wall time of one solve, after a warm-up that pays the JIT."""

    def solve():
        with registry.use_backend(backend_name):
            registry.call("fista", a, y2, lam, n_iter, 0.0)

    solve()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        solve()
        best = min(best, time.perf_counter() - start)
    return best


def test_accelerated_fista_meets_speedup_gate():
    """m, n, B = 16, 64, 4 and 400 iterations with no early exit: every
    accelerated FISTA is at least KERNELS_FISTA_MIN_SPEEDUP x faster than
    the numpy reference, best of 3 each."""
    backends = [
        name for name in accelerated_or_skip() if "fista" in registry.backend(name).kernels
    ]
    rng = np.random.default_rng(7)
    m, n, b = 16, 64, 4
    a = rng.normal(size=(m, n)) / np.sqrt(m)
    y2 = rng.normal(size=(b, m))
    lam = 0.02 * float(np.max(np.abs(y2 @ a)))
    numpy_best = _best_fista_seconds(REFERENCE_BACKEND, a, y2, lam, 400)
    for backend_name in backends:
        speedup = numpy_best / _best_fista_seconds(backend_name, a, y2, lam, 400)
        assert speedup >= KERNELS_FISTA_MIN_SPEEDUP, f"{backend_name}: {speedup:.2f}x"


# --- Hypothesis: random problems against every available backend ------------

#: Modest bounds keep each case fast; Hypothesis explores the corners.
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _check_on_all_backends(problem: Problem) -> None:
    for backend_name in ACCELERATED or [REFERENCE_BACKEND]:
        mismatches = check_kernel(backend_name, problem)
        assert mismatches == [], "\n".join(mismatches)


@settings(max_examples=25, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 24),
    n=st.integers(1, 32),
    batch=st.integers(1, 4),
    lam=st.floats(1e-6, 1.0),
    n_iter=st.integers(1, 80),
    dtype=st.sampled_from([np.float64, np.float32]),
    kernel=st.sampled_from(["fista", "ista"]),
)
def test_lasso_solvers_conform_on_random_problems(
    seed, m, n, batch, lam, n_iter, dtype, kernel
):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)).astype(dtype)
    y2 = rng.normal(size=(batch, m)).astype(dtype)
    problem = Problem(f"{kernel}:hypothesis", kernel, (a, y2, lam, n_iter, 1e-9))
    _check_on_all_backends(problem)


@settings(max_examples=25, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 24),
    n=st.integers(1, 32),
    sparsity=st.integers(1, 10),
    zero_y=st.booleans(),
)
def test_omp_conforms_on_random_problems(seed, m, n, sparsity, zero_y):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    y = np.zeros(m) if zero_y else rng.normal(size=m)
    _check_on_all_backends(Problem("omp:hypothesis", "omp", (a, y, sparsity, 0.0)))


@settings(max_examples=15, deadline=None)
@given(
    seed=_seeds,
    n=st.integers(2, 32),
    m=st.integers(2, 12),
    n_frames=st.integers(1, 4),
    noisy=st.booleans(),
)
def test_encoder_multiply_conforms_on_random_problems(seed, n, m, n_frames, noisy):
    rng = np.random.default_rng(seed)
    s = min(2, m)
    routes = np.stack(
        [np.sort(rng.choice(m, size=s, replace=False)) for _ in range(n)]
    ).astype(np.int64)
    frames = rng.normal(size=(n_frames, n))
    c_sample = np.full(s, 1e-14)
    c_hold = np.full(m, 8e-14)
    sample_draws = rng.normal(size=(n, n_frames, s)) * 1e-4 if noisy else None
    share_draws = rng.normal(size=(n, n_frames, s)) if noisy else None
    kt = 4.14e-21 if noisy else 0.0
    _check_on_all_backends(
        Problem(
            "encoder_multiply:hypothesis",
            "encoder_multiply",
            (frames, routes, c_sample, c_hold, kt, sample_draws, share_draws),
        )
    )


# --- the encoder reference pinned to the column loop --------------------------
#
# ``_column_loop_encoder`` is the reference ``encoder_multiply`` as it was
# before it looped over share rank: one numpy step per column of Phi.  Both
# give every (frame, row) element the same operands in the same order, so
# the rank loop must return exactly its bytes.


def _column_loop_encoder(frames, routes, c_sample, c_hold, kt, sample_draws, share_draws):
    n_frames = frames.shape[0]
    n = routes.shape[0]
    m = c_hold.shape[0]
    v_hold = np.zeros((n_frames, m))
    last_touch = np.zeros(m)
    for j in range(n):
        rows = routes[j]
        vin = frames[:, j][:, None]
        if sample_draws is not None:
            vin = vin + sample_draws[j]
        cs = c_sample[: len(rows)]
        ch = c_hold[rows]
        a = cs / (cs + ch)
        b = ch / (cs + ch)
        v_hold[:, rows] = b * v_hold[:, rows] + a * vin
        if share_draws is not None:
            share_noise = np.sqrt(kt / (cs + ch))
            v_hold[:, rows] += share_draws[j] * (share_noise)
        last_touch[rows] = j
    return v_hold, last_touch


def _assert_encoder_bits_match_column_loop(*args) -> None:
    got = numpy_backend.encoder_multiply(*args)
    want = _column_loop_encoder(*args)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("problem", encoder_problems(), ids=lambda p: p.name)
def test_reference_encoder_is_byte_identical_to_column_loop(problem):
    _assert_encoder_bits_match_column_loop(*problem.args)


@settings(max_examples=60, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 12),
    extra_columns=st.integers(1, 30),
    n_frames=st.integers(1, 4),
    noisy=st.booleans(),
    balanced=st.booleans(),
    non_finite=st.sampled_from([None, np.nan, np.inf]),
    data=st.data(),
)
def test_reference_encoder_bits_on_random_routes(
    seed, m, extra_columns, n_frames, noisy, balanced, non_finite, data
):
    # Plain srbm routes leave the row degrees unbalanced, so some steps of
    # the rank loop update only a few rows.
    s = data.draw(st.integers(1, m), label="s")
    n = m + extra_columns
    build = srbm_balanced if balanced else srbm
    routes = np.stack(build(m, n, s, seed=seed).column_support())
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(n_frames, n))
    if non_finite is not None:
        frames[rng.integers(n_frames), rng.integers(n)] = non_finite
    c_sample = 1e-14 * (1.0 + rng.normal(0, 0.01, size=s))
    c_hold = 8e-14 * (1.0 + rng.normal(0, 0.01, size=m))
    sample_draws = rng.normal(size=(n, n_frames, s)) * 1e-4 if noisy else None
    share_draws = rng.normal(size=(n, n_frames, s)) if noisy else None
    kt = 4.14e-21 if noisy else 0.0
    _assert_encoder_bits_match_column_loop(
        frames, routes, c_sample, c_hold, kt, sample_draws, share_draws
    )


@settings(max_examples=10, deadline=None)
@given(seed=_seeds, m=st.integers(2, 12), n=st.integers(2, 24))
def test_solvers_conform_with_nonfinite_measurements(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    y2 = rng.normal(size=(2, m))
    y2[0, 0] = np.nan
    y2[1, -1] = np.inf
    for kernel in ("fista", "ista"):
        _check_on_all_backends(
            Problem(f"{kernel}:nonfinite", kernel, (a, y2, 0.05, 8, 1e-9))
        )


# --- the reference pinned to its own bits -------------------------------------
#
# The conformance checks above compare other backends against numpy, and
# the goldens allow rtol 1e-6, so neither would notice a change to the
# reference's own floating-point operations.  ``_allocating_fista`` is the
# reference's operation sequence (1.1.0: factored gradient, two-pass soft
# threshold) written with temporaries; the reference must keep returning
# exactly its bytes and iteration count.  ``_gram_fista`` is the reference
# before 1.1.0 (``a.T @ a`` gradient, five-pass threshold), kept as a
# second oracle at an explicit tolerance so the re-based sequence still
# solves the same problem.


def _allocating_fista(a, y2, lam, n_iter, tol):
    b, _m = y2.shape
    n = a.shape[1]
    lipschitz = float(np.linalg.norm(a, ord=2) ** 2)
    if lipschitz == 0:
        return np.zeros((b, n)), 0
    step = 1.0 / lipschitz
    threshold = lam * step
    z = np.zeros((b, n))
    momentum = z.copy()
    t = 1.0
    iterations = 0
    for _ in range(n_iter):
        iterations += 1
        gradient = (momentum @ a.T - y2) @ a
        v = momentum - step * gradient
        z_next = v - np.clip(v, -threshold, threshold)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = z_next + ((t - 1.0) / t_next) * (z_next - z)
        delta = np.max(np.abs(z_next - z))
        z = z_next
        t = t_next
        if delta <= tol:
            break
    return z, iterations


def _gram_fista(a, y2, lam, n_iter, tol):
    b, _m = y2.shape
    n = a.shape[1]
    lipschitz = float(np.linalg.norm(a, ord=2) ** 2)
    if lipschitz == 0:
        return np.zeros((b, n)), 0
    step = 1.0 / lipschitz
    z = np.zeros((b, n))
    momentum = z.copy()
    t = 1.0
    gram = a.T @ a  # (N, N), precomputed: gradient = momentum @ gram - y A
    ya = y2 @ a  # (B, N)
    iterations = 0
    for _ in range(n_iter):
        iterations += 1
        gradient = momentum @ gram - ya
        v = momentum - step * gradient
        z_next = np.sign(v) * np.maximum(np.abs(v) - lam * step, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = z_next + ((t - 1.0) / t_next) * (z_next - z)
        delta = np.max(np.abs(z_next - z))
        z = z_next
        t = t_next
        if delta <= tol:
            break
    return z, iterations


def _assert_fista_bits_match_oracle(a, y2, lam, n_iter, tol) -> int:
    want, want_iterations = _allocating_fista(a, y2, lam, n_iter, tol)
    got, got_iterations = numpy_backend.fista(a, y2, lam, n_iter, tol)
    assert got_iterations == want_iterations
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    return got_iterations


#: Allowed ``max|z - z_gram| / max(1, max|z_gram|)`` against the pre-1.1.0
#: loop, per input dtype, >= 10x the worst gap measured over 53k random
#: problems per dtype drawn like the Hypothesis test below: 4.1e-13
#: (float64) and 1.3e-4 (float32, where the old loop formed ``a.T @ a``).
GRAM_LOOP_TOLERANCE = {np.float64: 5e-12, np.float32: 2e-3}


def _assert_fista_tracks_gram_loop(a, y2, lam, n_iter, dtype) -> None:
    # tol = -1 disables the early exit: two loops that round differently
    # may reach delta == 0 at different iterations.
    want, want_iterations = _gram_fista(a, y2, lam, n_iter, -1.0)
    got, got_iterations = numpy_backend.fista(a, y2, lam, n_iter, -1.0)
    assert got_iterations == want_iterations
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    if finite.any():
        scale = max(1.0, float(np.max(np.abs(want[finite]))))
        gap = float(np.max(np.abs(got[finite] - want[finite]))) / scale
        assert gap <= GRAM_LOOP_TOLERANCE[dtype], f"{gap:.3e}"


@pytest.mark.parametrize(
    "problem",
    [p for p in solver_problems() if p.kernel == "fista"],
    ids=lambda p: p.name,
)
def test_reference_fista_is_byte_identical_to_allocating_loop(problem):
    _assert_fista_bits_match_oracle(*problem.args)


@pytest.mark.parametrize(
    "problem",
    [p for p in solver_problems() if p.kernel == "fista"],
    ids=lambda p: p.name,
)
def test_reference_fista_tracks_the_gram_loop(problem):
    a, y2, lam, n_iter, _tol = problem.args
    _assert_fista_tracks_gram_loop(a, y2, lam, n_iter, np.float64)


def test_reference_fista_bits_survive_the_early_exit():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(24, 64))
    y2 = rng.normal(size=(6, 24))
    iterations = _assert_fista_bits_match_oracle(a, y2, 0.5, 500, 1e-3)
    assert 1 < iterations < 500


@settings(max_examples=40, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 24),
    n=st.integers(1, 40),
    batch=st.integers(1, 6),
    lam=st.floats(1e-6, 1.0),
    n_iter=st.integers(1, 80),
    tol=st.sampled_from([0.0, 1e-9, 1e-3, 1e-1]),
    non_finite=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_reference_fista_bits_on_random_problems(
    seed, m, n, batch, lam, n_iter, tol, non_finite, dtype
):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)).astype(dtype)
    y2 = rng.normal(size=(batch, m)).astype(dtype)
    if non_finite is not None:
        y2[rng.integers(batch), rng.integers(m)] = non_finite
    _assert_fista_bits_match_oracle(a, y2, lam, n_iter, tol)


@settings(max_examples=40, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 24),
    n=st.integers(1, 40),
    batch=st.integers(1, 6),
    lam=st.floats(1e-6, 1.0),
    n_iter=st.integers(1, 80),
    non_finite=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_reference_fista_tracks_the_gram_loop_on_random_problems(
    seed, m, n, batch, lam, n_iter, non_finite, dtype
):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)).astype(dtype)
    y2 = rng.normal(size=(batch, m)).astype(dtype)
    if non_finite is not None:
        y2[rng.integers(batch), rng.integers(m)] = non_finite
    _assert_fista_tracks_gram_loop(a, y2, lam, n_iter, dtype)


# --- the harness itself must catch broken backends --------------------------


class TestHarnessCatchesBrokenBackends:
    def _registry_with(self, backend: KernelBackend) -> KernelRegistry:
        reg = KernelRegistry()
        reg.register(numpy_backend.make_backend())
        reg.register(backend)
        return reg

    def test_flags_wrong_values_from_exact_backend(self):
        def off_by_eps(a, y2, lam, n_iter, tol):
            z, iters = numpy_backend.fista(a, y2, lam, n_iter, tol)
            return z + 1e-12, iters

        reg = self._registry_with(
            KernelBackend(name="liar", kernels={"fista": off_by_eps}, exact=True)
        )
        problems = [p for p in solver_problems() if p.kernel == "fista"]
        mismatches = check_backend("liar", problems=problems, registry=reg)
        assert any("not bit-identical" in m for m in mismatches)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda z: np.where(z == 0, -0.0, z),  # == to z, other sign of zero
            lambda z: z.astype(z.dtype.newbyteorder()),  # == to z, other dtype
        ],
        ids=["negative_zeros", "byte_swapped_dtype"],
    )
    def test_flags_equal_values_with_other_bits_from_exact_backend(self, rewrite):
        def same_values(a, y2, lam, n_iter, tol):
            z, iters = numpy_backend.fista(a, y2, lam, n_iter, tol)
            return rewrite(z), iters

        reg = self._registry_with(
            KernelBackend(name="signless", kernels={"fista": same_values}, exact=True)
        )
        problems = [p for p in solver_problems() if p.kernel == "fista"]
        mismatches = check_backend("signless", problems=problems, registry=reg)
        assert mismatches, "an exact backend must match the reference's bytes, not just =="

    def test_flags_tolerance_violations(self):
        def way_off(a, y2, lam, n_iter, tol):
            z, iters = numpy_backend.fista(a, y2, lam, n_iter, tol)
            return z + 1.0, iters

        reg = self._registry_with(
            KernelBackend(name="sloppy", kernels={"fista": way_off}, rtol=1e-6)
        )
        problems = [p for p in solver_problems() if p.kernel == "fista"]
        mismatches = check_backend("sloppy", problems=problems, registry=reg)
        assert any("exceeds rtol" in m for m in mismatches)

    def test_flags_raising_backend_as_failure_not_fallback(self):
        def explodes(a, y2, lam, n_iter, tol):
            raise FloatingPointError("jit miscompiled")

        reg = self._registry_with(
            KernelBackend(name="bomb", kernels={"fista": explodes}, rtol=1e-6)
        )
        problems = [p for p in solver_problems() if p.kernel == "fista"]
        mismatches = check_backend("bomb", problems=problems, registry=reg)
        assert mismatches and all("FloatingPointError" in m for m in mismatches)

    def test_flags_wrong_shapes(self):
        def truncated(a, y, sparsity, tol):
            coeffs, n_sel = numpy_backend.omp(a, y, sparsity, tol)
            return coeffs[:-1], n_sel

        reg = self._registry_with(
            KernelBackend(name="short", kernels={"omp": truncated}, exact=True)
        )
        problems = [p for p in solver_problems() if p.kernel == "omp"]
        mismatches = check_backend("short", problems=problems, registry=reg)
        assert any("shape" in m for m in mismatches)

    def test_unimplemented_kernels_are_not_failures(self):
        reg = self._registry_with(KernelBackend(name="empty", kernels={}, rtol=1e-6))
        assert check_backend("empty", registry=reg) == []

    def test_unavailable_backends_are_not_failures(self):
        reg = self._registry_with(
            KernelBackend(name="ghost", kernels={}, available=False)
        )
        assert check_backend("ghost", registry=reg) == []


# --- fallback dispatch stays correct -----------------------------------------


def test_dispatch_falls_back_when_backend_missing(monkeypatch):
    """Requesting an uninstalled backend degrades to reference numbers."""
    a = np.random.default_rng(0).normal(size=(8, 16))
    y2 = np.random.default_rng(1).normal(size=(2, 8))
    reference, _ = registry.call("fista", a, y2, 0.05, 30, 1e-9)
    ghost = KernelBackend(
        name="ghost-accel", kernels={}, available=False, unavailable_reason="not installed"
    )
    registry.register(ghost)
    try:
        with registry.use_backend("ghost-accel"):
            got, _ = registry.call("fista", a, y2, 0.05, 30, 1e-9)
            usage = registry.usage()["fista"]
            assert usage["backend"] == REFERENCE_BACKEND
            assert usage["requested"] == "ghost-accel"
            assert "not installed" in usage["fallback_reason"]
    finally:
        registry.unregister("ghost-accel")
    np.testing.assert_array_equal(got, reference)
