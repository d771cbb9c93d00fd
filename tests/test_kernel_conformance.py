"""The numpy kernels pinned to their own bits and checked against oracles.

:mod:`repro.kernels.numpy_backend` is the only implementation of the hot
kernels, so no test here compares two implementations of one
arithmetic.  Instead:

* every kernel returns float64 arrays of its documented shapes, and the
  same bytes on a second call, over a deterministic problem suite of
  representative and degenerate inputs and over Hypothesis-drawn shapes,
  dtypes and non-finite values;
* ISTA's LASSO objective never rises as the iteration count grows, and
  OMP returns the least-squares fit on at most ``min(sparsity, M, N)``
  atoms;
* ``encoder_multiply`` is pinned to the column loop it replaced, and
  ``fista`` to its float32 operation sequence written with temporaries,
  byte for byte; ``fista`` also tracks the same sequence run in float64
  at a tolerance derived from float32's round-off, across the signal
  range the chain produces.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cs.matrices import srbm, srbm_balanced
from repro.kernels import numpy_backend

# --- deterministic problem suite ----------------------------------------------


@dataclass(frozen=True)
class Problem:
    """One kernel call: a case name, the kernel's name and its arguments."""

    name: str
    kernel: str
    args: tuple = ()


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


class TestProblemSuite:
    def test_covers_all_dispatched_solvers(self):
        kernels = {p.kernel for p in solver_problems() + encoder_problems()}
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


# --- the kernel contract: documented shapes, float64, repeatable bytes -------


def _documented_shapes(problem: Problem) -> list[tuple]:
    """The array shapes the module docstring of ``numpy_backend`` promises."""
    if problem.kernel == "encoder_multiply":
        frames, _routes, _c_sample, c_hold = problem.args[:4]
        return [(frames.shape[0], c_hold.size), (c_hold.size,)]
    a, y = problem.args[:2]
    if problem.kernel == "omp":
        return [(a.shape[1],)]
    return [(y.shape[0], a.shape[1])]


def _assert_kernel_contract(problem: Problem) -> None:
    kernel = getattr(numpy_backend, problem.kernel)
    first = kernel(*problem.args)
    second = kernel(*problem.args)
    arrays = [x for x in first if isinstance(x, np.ndarray)]
    assert [x.shape for x in arrays] == _documented_shapes(problem)
    assert all(x.dtype == np.float64 for x in arrays)
    for x, y in zip(first, second):
        if isinstance(x, np.ndarray):
            # Bytes, not ``==``: equality misses a flipped sign of zero
            # and a NaN payload.
            assert x.tobytes() == y.tobytes(), problem.name
        else:
            assert type(x) is int and x == y, problem.name


@pytest.mark.parametrize(
    "problem", solver_problems() + encoder_problems(), ids=lambda p: p.name
)
def test_kernels_meet_their_contract_on_the_problem_suite(problem):
    _assert_kernel_contract(problem)


#: Modest bounds keep each case fast; Hypothesis explores the corners.
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


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
    _assert_kernel_contract(Problem(f"{kernel}:hypothesis", kernel, (a, y2, lam, n_iter, 1e-9)))


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
    _assert_kernel_contract(Problem("omp:hypothesis", "omp", (a, y, sparsity, 0.0)))


@settings(max_examples=10, deadline=None)
@given(seed=_seeds, m=st.integers(2, 12), n=st.integers(2, 24))
def test_solvers_conform_with_nonfinite_measurements(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    y2 = rng.normal(size=(2, m))
    y2[0, 0] = np.nan
    y2[1, -1] = np.inf
    for kernel in ("fista", "ista"):
        _assert_kernel_contract(
            Problem(f"{kernel}:nonfinite", kernel, (a, y2, 0.05, 8, 1e-9))
        )


# --- oracles that need no second implementation -------------------------------

#: Allowed rise of the ISTA objective from one iteration count to the next,
#: relative to its value at z = 0: >= 10x the worst rise measured over 4,000
#: random float64 problems drawn like the test below (6.1e-16).
ISTA_OBJECTIVE_RISE = 1e-14


def _lasso_objective(a, y2, z, lam) -> np.ndarray:
    residual = y2 - z @ a.T
    return 0.5 * np.sum(residual * residual, axis=1) + lam * np.sum(np.abs(z), axis=1)


@settings(max_examples=25, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 24),
    n=st.integers(1, 32),
    batch=st.integers(1, 4),
    lam=st.floats(1e-6, 1.0),
    n_iter=st.integers(1, 40),
)
def test_ista_objective_never_rises_with_the_iteration_count(seed, m, n, batch, lam, n_iter):
    # A proximal-gradient step of size 1/L never raises the LASSO objective.
    # ``tol = -1`` disables the early exit, so ``n_iter = k`` returns the
    # k-th iterate from z = 0.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    y2 = rng.normal(size=(batch, m))
    start = _lasso_objective(a, y2, np.zeros((batch, n)), lam)
    previous = start
    for k in range(1, n_iter + 1):
        z, iterations = numpy_backend.ista(a, y2, lam, k, -1.0)
        assert iterations == k
        current = _lasso_objective(a, y2, z, lam)
        assert np.all(current - previous <= ISTA_OBJECTIVE_RISE * start), k
        previous = current


#: Allowed ``||A_S^T r|| / (||A_S|| ||y||)`` for OMP's answer on its support S:
#: >= 10x the worst measured over 6,000 random problems drawn like the test
#: below (2.2e-14).
OMP_NORMAL_EQUATIONS_GAP = 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 24),
    n=st.integers(1, 32),
    sparsity=st.integers(1, 10),
)
@example(seed=0, m=6, n=3, sparsity=5)  # sparsity > n: every atom gets selected
def test_omp_fits_least_squares_on_at_most_min_sparsity_m_n_atoms(seed, m, n, sparsity):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    coeffs, n_selected = numpy_backend.omp(a, y, sparsity, 0.0)
    support = np.flatnonzero(coeffs)
    assert support.size <= n_selected <= min(sparsity, m, n)
    if support.size:
        atoms = a[:, support]
        residual = y - a @ coeffs
        gap = np.linalg.norm(atoms.T @ residual) / (
            np.linalg.norm(atoms, ord=2) * np.linalg.norm(y)
        )
        assert gap <= OMP_NORMAL_EQUATIONS_GAP, f"{gap:.3e}"


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


# --- the reference pinned to its own bits -------------------------------------
#
# The contract checks above hold for any arithmetic, and the goldens allow
# rtol 1e-6, so neither would notice a change to the reference's own
# floating-point operations.  ``_allocating_fista`` is the reference's
# operation sequence (1.4.0: the 1.1.0 factored gradient and two-pass soft
# threshold, iterated in float32) written with temporaries; the reference
# must keep returning exactly its bytes and iteration count.
# ``_float64_fista`` is the same sequence in float64, the reference from
# 1.1.0 to 1.3.0, kept as a tolerance oracle so the float32 loop still
# solves the same problem.


def _allocating_fista(a, y2, lam, n_iter, tol):
    b, _m = y2.shape
    n = a.shape[1]
    lipschitz = float(np.linalg.norm(a, ord=2) ** 2)
    if lipschitz == 0:
        return np.zeros((b, n)), 0
    step = 1.0 / lipschitz
    step32 = np.float32(step)
    threshold = np.float32(lam * step)
    a = a.astype(np.float32)
    y2 = y2.astype(np.float32)
    z = np.zeros((b, n), np.float32)
    momentum = z.copy()
    t = 1.0
    iterations = 0
    for _ in range(n_iter):
        iterations += 1
        gradient = (momentum @ a.T - y2) @ a
        v = momentum - step32 * gradient
        z_next = v - np.clip(v, -threshold, threshold)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = z_next + np.float32((t - 1.0) / t_next) * (z_next - z)
        delta = float(np.max(np.abs(z_next - z)))
        z = z_next
        t = t_next
        if delta <= tol:
            break
    return z.astype(np.float64), iterations


def _float64_fista(a, y2, lam, n_iter, tol):
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


def _assert_fista_bits_match_oracle(a, y2, lam, n_iter, tol) -> int:
    want, want_iterations = _allocating_fista(a, y2, lam, n_iter, tol)
    got, got_iterations = numpy_backend.fista(a, y2, lam, n_iter, tol)
    assert got_iterations == want_iterations
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    return got_iterations


def fista_round_off(m: int, n: int, n_iter: int) -> float:
    """Allowed ``max|z - z64| / scale`` of the float32 loop against the
    float64 loop after ``n_iter`` iterations on an ``(M, N)`` operator.

    Derived, not fitted.  Each float32 iteration is an exact FISTA
    iteration with an inexact gradient and prox.  Its two products take
    inner products of length at most K = max(M, N) over operands rounded
    once to float32, so each is within Higham's gamma_{K+1} =
    (K+1)u / (1 - (K+1)u) of its exact value, and the step 1/L scales the
    gradient back to the iterate's scale; the four elementwise roundings
    (step * gradient, momentum - that, v - clip(v), the momentum update)
    add at most u each.  That is delta = 2 gamma_{K+1} + 4u per
    iteration.  In the inexact accelerated proximal-gradient analysis of
    Schmidt, Le Roux & Bach (2011, Prop. 2) the error of iteration i
    enters with weight i, so n iterations accumulate
    sum_{i<=n} i * delta = n (n + 1) / 2 * delta.  The float64 loop's
    own round-off is 2^29 times smaller and is not counted.
    """
    u = 2.0**-24  # float32's unit round-off
    k1 = max(m, n) + 1
    gamma = k1 * u / (1.0 - k1 * u)
    return n_iter * (n_iter + 1) / 2 * (2.0 * gamma + 4.0 * u)


def _assert_fista_tracks_float64_loop(a, y2, lam, n_iter, scale=1.0) -> None:
    # tol = -1 disables the early exit: in float32 an update can reach
    # exactly 0, so the two loops may stop at different iterations.
    want, want_iterations = _float64_fista(a, y2, lam, n_iter, -1.0)
    got, got_iterations = numpy_backend.fista(a, y2, lam, n_iter, -1.0)
    assert got_iterations == want_iterations
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    if finite.any():
        scale = max(scale, float(np.max(np.abs(want[finite]))))
        gap = float(np.max(np.abs(got[finite] - want[finite]))) / scale
        assert gap <= fista_round_off(*a.shape, n_iter), f"{gap:.3e}"


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
def test_reference_fista_tracks_the_float64_loop(problem):
    a, y2, lam, n_iter, _tol = problem.args
    _assert_fista_tracks_float64_loop(a, y2, lam, n_iter)


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
def test_reference_fista_tracks_the_float64_loop_on_random_problems(
    seed, m, n, batch, lam, n_iter, non_finite, dtype
):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)).astype(dtype)
    y2 = rng.normal(size=(batch, m)).astype(dtype)
    if non_finite is not None:
        y2[rng.integers(batch), rng.integers(m)] = non_finite
    _assert_fista_tracks_float64_loop(a, y2, lam, n_iter)


@settings(max_examples=40, deadline=None)
@given(
    seed=_seeds,
    m=st.integers(1, 24),
    n=st.integers(1, 40),
    batch=st.integers(1, 6),
    lam=st.floats(1e-6, 1.0),
    n_iter=st.integers(1, 80),
    exponent=st.floats(-9.0, 3.0),
)
@example(seed=0, m=16, n=48, batch=4, lam=0.05, n_iter=60, exponent=-9.0)
@example(seed=0, m=16, n=48, batch=4, lam=0.05, n_iter=60, exponent=3.0)
def test_reference_fista_tracks_the_float64_loop_across_the_signal_range(
    seed, m, n, batch, lam, n_iter, exponent
):
    # Measurements from 1 nV to 1 kV: the chain's volts at the receiver,
    # with margin on both sides.  lam scales with them, as the
    # Reconstructor's lam_rel * max|y A| does, so each draw is a unit
    # problem scaled by ``scale``, and the gap is measured against it.
    scale = 10.0**exponent
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    y2 = scale * rng.normal(size=(batch, m))
    _assert_fista_tracks_float64_loop(a, y2, lam * scale, n_iter, scale=scale)
