"""Tests of the sparse reconstruction solvers (OMP, ISTA, FISTA)."""

import numpy as np
import pytest

from repro.cs.dictionaries import dct_basis
from repro.cs.matrices import gaussian, srbm_balanced
from repro.cs.reconstruction import (
    Reconstructor,
    fista,
    ista,
    least_squares_on_support,
    omp,
)
from tests.test_kernel_conformance import fista_round_off


def sparse_problem(m=32, n=128, k=5, seed=0, noise=0.0):
    """A standard K-sparse recovery instance."""
    rng = np.random.default_rng(seed)
    a = gaussian(m, n, seed=seed).phi
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.normal(size=k) + np.sign(rng.normal(size=k))
    y = a @ x
    if noise > 0:
        y = y + rng.normal(0, noise, size=m)
    return a, x, y, support


class TestLeastSquaresOnSupport:
    def test_exact_on_true_support(self):
        a, x, y, support = sparse_problem()
        x_hat = least_squares_on_support(a, y, np.sort(support))
        np.testing.assert_allclose(x_hat, x, atol=1e-10)

    def test_empty_support_returns_zero(self):
        a, _, y, _ = sparse_problem()
        assert np.all(least_squares_on_support(a, y, np.array([], dtype=int)) == 0)


class TestOmp:
    def test_exact_recovery_noiseless(self):
        a, x, y, _ = sparse_problem(k=5)
        x_hat = omp(a, y, sparsity=5)
        np.testing.assert_allclose(x_hat, x, atol=1e-8)

    def test_recovers_support(self):
        a, x, y, support = sparse_problem(k=4, seed=3)
        x_hat = omp(a, y, sparsity=4)
        assert set(np.flatnonzero(x_hat)) == set(support)

    def test_early_exit_on_tolerance(self):
        a, x, y, _ = sparse_problem(k=3, seed=1)
        x_hat = omp(a, y, sparsity=30, tol=1e-10)
        assert np.count_nonzero(x_hat) <= 5

    def test_zero_measurement_returns_zero(self):
        a, *_ = sparse_problem()
        assert np.all(omp(a, np.zeros(a.shape[0]), sparsity=3) == 0)

    def test_sparsity_capped_at_m(self):
        a, _, y, _ = sparse_problem(m=16, n=64, k=3, seed=2)
        x_hat = omp(a, y, sparsity=10_000)
        assert np.count_nonzero(x_hat) <= 16

    def test_robust_to_moderate_noise(self):
        a, x, y, _ = sparse_problem(k=4, seed=5, noise=0.01)
        x_hat = omp(a, y, sparsity=4)
        nmse = np.sum((x - x_hat) ** 2) / np.sum(x**2)
        assert nmse < 0.05

    def test_shape_validation(self):
        a, *_ = sparse_problem()
        with pytest.raises(ValueError):
            omp(a, np.zeros(7), sparsity=3)


class TestIsta:
    def test_converges_to_sparse_solution(self):
        a, x, y, _ = sparse_problem(k=4, seed=2)
        # tol=0 disables the update-size early exit: ISTA's O(1/k) steps
        # shrink below any tolerance long before reaching the optimum.
        z = ista(a, y, lam=3e-3, n_iter=5000, tol=0.0)
        nmse = np.sum((x - z) ** 2) / np.sum(x**2)
        assert nmse < 0.02

    def test_large_lambda_gives_zero(self):
        a, _, y, _ = sparse_problem()
        lam = 10 * np.max(np.abs(a.T @ y))
        assert np.all(ista(a, y, lam=lam, n_iter=50) == 0)

    def test_batched_matches_single(self):
        a, _, y, _ = sparse_problem(seed=4)
        single = ista(a, y, lam=1e-3, n_iter=200)
        batched = ista(a, np.stack([y, y]), lam=1e-3, n_iter=200)
        np.testing.assert_allclose(batched[0], single, atol=1e-12)
        np.testing.assert_allclose(batched[1], single, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1,), (3, 1)], ids=["single", "batch"])
    def test_rejects_wrong_length(self, shape):
        # A length-1 measurement would broadcast across all M rows.
        a, *_ = sparse_problem()
        with pytest.raises(ValueError):
            ista(a, np.ones(shape), lam=1e-3)


class TestFista:
    def test_exact_recovery_small_lambda(self):
        a, x, y, _ = sparse_problem(k=4, seed=2)
        z = fista(a, y, lam=1e-4, n_iter=2000)
        nmse = np.sum((x - z) ** 2) / np.sum(x**2)
        assert nmse < 1e-3

    def test_faster_than_ista(self):
        """FISTA must reach a better objective than ISTA at equal budget."""
        a, _, y, _ = sparse_problem(k=6, seed=7)
        lam = 1e-3

        def objective(z):
            return 0.5 * np.sum((y - a @ z) ** 2) + lam * np.sum(np.abs(z))

        budget = 60
        z_ista = ista(a, y, lam=lam, n_iter=budget, tol=0.0)
        z_fista = fista(a, y, lam=lam, n_iter=budget, tol=0.0)
        assert objective(z_fista) <= objective(z_ista) + 1e-12

    def test_batch_consistency(self, rng):
        a, _, _, _ = sparse_problem(seed=9)
        ys = rng.normal(size=(6, a.shape[0]))
        batched = fista(a, ys, lam=1e-3, n_iter=150)
        for i in range(6):
            single = fista(a, ys[i], lam=1e-3, n_iter=150)
            # The 1-row and 6-row calls round differently in float32 (the
            # products take different sgemm paths); each stays within
            # fista_round_off of the float64 loop, so they stay within
            # twice that of each other.
            scale = max(1.0, float(np.max(np.abs(single))))
            atol = 2 * fista_round_off(*a.shape, 150) * scale
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=atol)

    def test_output_rank_matches_input(self):
        a, _, y, _ = sparse_problem()
        assert fista(a, y, lam=1e-3, n_iter=10).ndim == 1
        assert fista(a, np.stack([y]), lam=1e-3, n_iter=10).ndim == 2

    def test_rejects_wrong_length(self):
        a, *_ = sparse_problem()
        with pytest.raises(ValueError):
            fista(a, np.zeros(a.shape[0] + 1), lam=1e-3)

    def test_rejects_bad_lambda(self):
        a, _, y, _ = sparse_problem()
        with pytest.raises(ValueError):
            fista(a, y, lam=0.0)

    @pytest.mark.parametrize("operand", ["a", "y"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rejects_finite_entries_beyond_float32_range(self, operand, sign):
        # Finite in float64, inf once rounded to float32: the loop would
        # turn it into NaN.
        a, _, y, _ = sparse_problem()
        a, y = a.copy(), y.copy()
        (a if operand == "a" else y).flat[0] = sign * 1e39
        with pytest.raises(ValueError, match=f"{operand} .*float32's range"):
            fista(a, y, lam=1e-3, n_iter=10)

    def test_accepts_the_float32_extremes_and_non_finite_entries(self):
        a, _, y, _ = sparse_problem()
        y = np.stack([y, y, y])
        y[0, 0] = np.finfo(np.float32).max
        y[1, 0] = np.inf
        y[2, 0] = np.nan
        z = fista(a, y, lam=1e-3, n_iter=10)
        assert not np.isfinite(z[1:]).all(axis=1).any()


class TestReconstructor:
    def test_recovers_dct_sparse_signal(self):
        n = 128
        psi = dct_basis(n)
        alpha = np.zeros(n)
        alpha[[2, 9, 30]] = [1.0, -0.7, 0.4]
        x = psi @ alpha
        mat = srbm_balanced(48, n, 2, seed=3)
        from repro.cs.charge_sharing import ChargeSharingConfig, ChargeSharingEncoder

        enc = ChargeSharingEncoder(
            mat, ChargeSharingConfig(c_sample=2e-15, c_hold=16e-15, kt=0.0), seed=1
        )
        y = enc.encode(x)
        rec = Reconstructor(basis=psi, method="fista", lam_rel=0.002, n_iter=600)
        x_hat = rec.recover(enc.phi_effective, y)
        nmse = np.sum((x - x_hat) ** 2) / np.sum(x**2)
        assert nmse < 1e-3

    def test_omp_method(self):
        n = 128
        psi = dct_basis(n)
        alpha = np.zeros(n)
        alpha[[4, 17]] = [1.0, 0.5]
        x = psi @ alpha
        mat = srbm_balanced(48, n, 2, seed=3)
        rec = Reconstructor(basis=psi, method="omp", sparsity=4)
        x_hat = rec.recover(mat.phi, mat.phi @ x)
        nmse = np.sum((x - x_hat) ** 2) / np.sum(x**2)
        assert nmse < 1e-6

    def test_identity_basis_when_none(self):
        a, x, y, _ = sparse_problem(k=3, seed=11)
        rec = Reconstructor(basis=None, method="fista", lam_rel=0.001, n_iter=800)
        x_hat = rec.recover(a, y)
        assert np.sum((x - x_hat) ** 2) / np.sum(x**2) < 0.01

    def test_batch_shape(self):
        a, _, y, _ = sparse_problem()
        rec = Reconstructor(basis=None, n_iter=20)
        out = rec.recover(a, np.stack([y, y, y]))
        assert out.shape == (3, a.shape[1])

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            Reconstructor(method="lars")


class TestEffectiveDictionaryCache:
    """Recovery depends on the content of Phi_eff, not on object identity:
    equal bytes, a pickled copy and a strided layout all recover alike."""

    def problem(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(16, 32))
        basis = np.linalg.qr(rng.normal(size=(32, 32)))[0]
        y = rng.normal(size=(4, 16))
        return phi, basis, y

    def test_equal_content_hits_cache(self):
        phi, basis, y = self.problem()
        recon = Reconstructor(basis=basis, method="fista", n_iter=20)
        first = recon.recover(phi, y)
        second = recon.recover(phi.copy(), y)  # different object, same bytes
        np.testing.assert_array_equal(first, second)

    def test_changed_content_recomputed(self):
        phi, basis, y = self.problem()
        recon = Reconstructor(basis=basis, method="fista", n_iter=20)
        before = recon.recover(phi, y)
        changed = recon.recover(phi * 2.0, y)
        fresh = Reconstructor(basis=basis, method="fista", n_iter=20)
        np.testing.assert_array_equal(changed, fresh.recover(phi * 2.0, y))
        assert not np.array_equal(changed, before)

    def test_cache_survives_pickling(self):
        import pickle

        phi, basis, y = self.problem()
        recon = Reconstructor(basis=basis, method="fista", n_iter=20)
        expected = recon.recover(phi, y)
        clone = pickle.loads(pickle.dumps(recon))
        np.testing.assert_array_equal(clone.recover(phi, y), expected)

    def test_non_contiguous_phi_handled(self):
        phi, basis, y = self.problem()
        recon = Reconstructor(basis=basis, method="fista", n_iter=20)
        strided = np.asfortranarray(phi)
        np.testing.assert_allclose(
            recon.recover(strided, y), recon.recover(phi, y)
        )
