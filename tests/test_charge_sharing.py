"""Tests of the passive charge-sharing encoder (paper Eq. 1)."""

import numpy as np
import pytest

from repro.cs.charge_sharing import (
    ChargeSharingConfig,
    ChargeSharingEncoder,
    EncoderPerturbation,
    effective_matrix,
)
from repro.cs.matrices import gaussian, srbm_balanced


def ideal_config(ratio: float = 8.0) -> ChargeSharingConfig:
    return ChargeSharingConfig(c_sample=2e-15, c_hold=ratio * 2e-15, kt=0.0)


class TestConfig:
    def test_share_gain_and_retention(self):
        cfg = ChargeSharingConfig(c_sample=1e-15, c_hold=1e-15, kt=0.0)
        assert cfg.share_gain == pytest.approx(0.5)
        assert cfg.retention == pytest.approx(0.5)

    def test_gain_plus_retention_is_one(self):
        cfg = ideal_config(7.3)
        assert cfg.share_gain + cfg.retention == pytest.approx(1.0)

    def test_noise_rms_formulae(self):
        cfg = ChargeSharingConfig(c_sample=1e-14, c_hold=3e-14)
        assert cfg.share_noise_rms == pytest.approx(np.sqrt(cfg.kt / 4e-14))
        assert cfg.sample_noise_rms == pytest.approx(np.sqrt(cfg.kt / 1e-14))

    def test_zero_kt_disables_noise(self):
        cfg = ideal_config()
        assert cfg.share_noise_rms == 0.0
        assert cfg.sample_noise_rms == 0.0

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ValueError):
            ChargeSharingConfig(c_sample=0.0, c_hold=1e-15)


class TestEquationOne:
    """The paper's Eq. (1) verified explicitly against the simulation."""

    def test_single_row_weighted_sum(self):
        # One hold capacitor accumulating every sample: V = sum Vj a b^(N-j).
        phi = np.zeros((1, 6))
        phi[0, :] = 1.0
        # Force a single-row route by building the matrix by hand.
        from repro.cs.matrices import SensingMatrix

        mat = SensingMatrix(phi=phi, kind="srbm", sparsity=1, seed=None)
        cfg = ChargeSharingConfig(c_sample=1e-15, c_hold=1e-15, kt=0.0)
        enc = ChargeSharingEncoder(mat, cfg, seed=0)
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        expected = sum(x[j] * 0.5 * 0.5 ** (5 - j) for j in range(6))
        assert enc.encode(x)[0] == pytest.approx(expected)

    def test_effective_matrix_weights(self):
        mat = srbm_balanced(4, 16, 1, seed=2)
        weights = effective_matrix(mat, share_gain=0.2, retention=0.8)
        # Each nonzero is a * b^(later ones in the row).
        for i in range(4):
            cols = np.flatnonzero(mat.phi[i])
            for rank, j in enumerate(cols):
                later = len(cols) - 1 - rank
                assert weights[i, j] == pytest.approx(0.2 * 0.8**later)

    def test_effective_matrix_zeros_stay_zero(self):
        mat = srbm_balanced(8, 32, 2, seed=2)
        weights = effective_matrix(mat, 0.1, 0.9)
        assert np.all((weights != 0) == (mat.phi != 0))

    def test_last_sample_has_largest_weight(self):
        mat = srbm_balanced(8, 32, 2, seed=2)
        weights = effective_matrix(mat, 0.1, 0.9)
        for i in range(8):
            cols = np.flatnonzero(mat.phi[i])
            magnitudes = np.abs(weights[i, cols])
            assert np.all(np.diff(magnitudes) >= -1e-15)  # ascending in time


class TestEncoderSimulation:
    def test_noiseless_matches_effective_matrix(self, rng):
        mat = srbm_balanced(16, 64, 2, seed=3)
        enc = ChargeSharingEncoder(mat, ideal_config(), seed=1)
        x = rng.normal(size=64)
        np.testing.assert_allclose(enc.encode(x), enc.phi_effective @ x, atol=1e-14)

    def test_batch_matches_loop(self, rng):
        mat = srbm_balanced(8, 32, 2, seed=3)
        enc = ChargeSharingEncoder(mat, ideal_config(), seed=1)
        frames = rng.normal(size=(5, 32))
        batch = enc.encode(frames)
        singles = np.stack([enc.encode(frame) for frame in frames])
        np.testing.assert_allclose(batch, singles, atol=1e-14)

    def test_output_shape_single_and_batch(self, rng):
        mat = srbm_balanced(8, 32, 2, seed=3)
        enc = ChargeSharingEncoder(mat, ideal_config(), seed=1)
        assert enc.encode(np.zeros(32)).shape == (8,)
        assert enc.encode(np.zeros((3, 32))).shape == (3, 8)

    def test_rejects_wrong_frame_length(self):
        mat = srbm_balanced(8, 32, 2, seed=3)
        enc = ChargeSharingEncoder(mat, ideal_config(), seed=1)
        with pytest.raises(ValueError, match="N_phi"):
            enc.encode(np.zeros(33))

    def test_requires_srbm_matrix(self):
        with pytest.raises(ValueError, match="s-SRBM"):
            ChargeSharingEncoder(gaussian(8, 32, seed=1), ideal_config(), seed=1)

    def test_mismatch_matches_phi_true(self, rng):
        mat = srbm_balanced(8, 32, 2, seed=3)
        cfg = ChargeSharingConfig(
            c_sample=2e-15,
            c_hold=16e-15,
            kt=0.0,
            mismatch_sigma_sample=0.02,
            mismatch_sigma_hold=0.02,
        )
        enc = ChargeSharingEncoder(mat, cfg, seed=7)
        x = rng.normal(size=32)
        np.testing.assert_allclose(enc.encode(x), enc.phi_true() @ x, atol=1e-14)

    def test_mismatch_moves_matrix_but_stays_close(self):
        mat = srbm_balanced(8, 32, 2, seed=3)
        cfg = ChargeSharingConfig(
            c_sample=2e-15,
            c_hold=16e-15,
            kt=0.0,
            mismatch_sigma_sample=0.01,
            mismatch_sigma_hold=0.01,
        )
        enc = ChargeSharingEncoder(mat, cfg, seed=7)
        nominal = enc.phi_effective
        true = enc.phi_true()
        assert not np.allclose(nominal, true)
        rel = np.linalg.norm(true - nominal) / np.linalg.norm(nominal)
        assert rel < 0.1

    def test_noise_present_when_kt_enabled(self, rng):
        mat = srbm_balanced(8, 32, 2, seed=3)
        cfg = ChargeSharingConfig(c_sample=2e-15, c_hold=16e-15)
        enc = ChargeSharingEncoder(mat, cfg, seed=7)
        x = rng.normal(size=32)
        noisy = enc.encode(x)
        assert not np.allclose(noisy, enc.phi_effective @ x, atol=1e-9)

    def test_kt_noise_variance_matches_closed_form(self):
        # Paper Eq. (1) applied to the noise: sample j's kT/C_s noise is
        # weighted like the sample, Phi_eff[i, j]; the kT/(C_s + C_h) noise
        # of its share onto row i then decays by b per later share, so it
        # reaches readout weighted Phi_eff[i, j] / a.  All draws are
        # independent, so per row
        #   var_i = sum_j Phi_eff[i, j]^2 kT/C_s
        #                 + (Phi_eff[i, j] / a)^2 kT/(C_s + C_h).
        # Mismatch and leakage are off, so the nominal a, b and Phi_eff are
        # the physical ones.
        n_frames = 40_000
        mat = srbm_balanced(8, 32, 2, seed=3)
        cfg = ChargeSharingConfig(c_sample=2e-15, c_hold=16e-15)
        enc = ChargeSharingEncoder(mat, cfg, seed=7)
        v_hold = enc.encode(np.zeros((n_frames, 32)))
        phi = enc.phi_effective
        predicted = np.sum(
            phi**2 * cfg.kt / cfg.c_sample
            + (phi / cfg.share_gain) ** 2 * cfg.kt / (cfg.c_sample + cfg.c_hold),
            axis=1,
        )
        # The zero-mean estimator sum(v^2) / n of a Gaussian variance has
        # relative standard deviation sqrt(2 / n); allow five of them.
        measured = np.mean(v_hold**2, axis=0)
        np.testing.assert_allclose(
            measured / predicted, 1.0, rtol=0, atol=5 * np.sqrt(2 / n_frames)
        )

    def test_reset_noise_replays_identically(self, rng):
        mat = srbm_balanced(8, 32, 2, seed=3)
        cfg = ChargeSharingConfig(c_sample=2e-15, c_hold=16e-15)
        enc = ChargeSharingEncoder(mat, cfg, seed=7)
        x = rng.normal(size=32)
        first = enc.encode(x)
        enc.reset_noise()
        second = enc.encode(x)
        np.testing.assert_array_equal(first, second)

    def test_leakage_droop_reduces_magnitude(self):
        mat = srbm_balanced(4, 16, 2, seed=3)
        quiet = ChargeSharingEncoder(mat, ideal_config(), seed=1)
        leaky_cfg = ChargeSharingConfig(
            c_sample=2e-15, c_hold=16e-15, kt=0.0, i_leak=1e-16, f_sample=537.6
        )
        leaky = ChargeSharingEncoder(mat, leaky_cfg, seed=1)
        x = np.ones(16)
        assert np.all(np.abs(leaky.encode(x)) <= np.abs(quiet.encode(x)) + 1e-15)


def _per_column_encode(enc: ChargeSharingEncoder, frames: np.ndarray) -> np.ndarray:
    """``encode`` as it drew its noise before the one-call draw.

    Two ``normal`` calls per column (the sample noise, then the share
    noise) and the column loop for the accumulation; no droop.
    """
    cfg = enc.config
    pert = enc.perturbation
    c_hold = cfg.c_hold * (1.0 + pert.hold_errors)
    c_sample = cfg.c_sample * (1.0 + pert.sample_errors)
    routes = np.stack(enc.matrix.column_support())
    n, s = routes.shape
    n_frames = frames.shape[0]
    sample_noise = cfg.sample_noise_rms
    sample_draws = np.empty((n, n_frames, s)) if sample_noise > 0 else None
    share_draws = np.empty((n, n_frames, s)) if cfg.kt > 0 else None
    for j in range(n):
        if sample_draws is not None:
            sample_draws[j] = enc._rng.normal(0.0, sample_noise, size=(n_frames, s))
        if share_draws is not None:
            share_draws[j] = enc._rng.normal(0.0, 1.0, size=(n_frames, s))
    v_hold = np.zeros((n_frames, enc.matrix.m))
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
            share_noise = np.sqrt(cfg.kt / (cs + ch))
            v_hold[:, rows] += share_draws[j] * (share_noise)
    return v_hold


class TestNoiseStreamLock:
    """One noise draw per encode replays the per-column draws bit for bit."""

    @pytest.mark.parametrize("kt", [0.0, 4.14e-21], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("shape", [(40,), (1, 40), (5, 40)], ids=["1d", "one", "batch"])
    @pytest.mark.parametrize("sparsity", [1, 2, 5])
    def test_encode_matches_per_column_draws(self, kt, shape, sparsity, rng):
        mat = srbm_balanced(8, 40, sparsity, seed=11)
        cfg = ChargeSharingConfig(
            c_sample=2e-15,
            c_hold=16e-15,
            kt=kt,
            mismatch_sigma_sample=0.01,
            mismatch_sigma_hold=0.02,
        )
        enc = ChargeSharingEncoder(mat, cfg, seed=3)
        oracle = ChargeSharingEncoder(mat, cfg, seed=3)
        frames = rng.normal(size=shape)

        def assert_same_bytes():
            got = enc.encode(frames)
            want = _per_column_encode(oracle, np.atleast_2d(frames)).reshape(got.shape)
            assert got.tobytes() == want.tobytes()

        assert_same_bytes()
        assert_same_bytes()  # the second encode continues the stream
        enc.reset_noise()
        oracle.reset_noise()
        assert_same_bytes()
        # The generator is left where the per-column draws left it.
        assert enc._rng.random() == oracle._rng.random()


class TestNominalAlgebra:
    def test_phi_effective_is_read_only_and_nominal(self):
        mat = srbm_balanced(8, 32, 2, seed=3)
        cfg = ideal_config(6.0)
        enc = ChargeSharingEncoder(mat, cfg, seed=1)
        phi_eff = enc.phi_effective
        assert phi_eff is enc.phi_effective  # computed once per encoder
        assert not phi_eff.flags.writeable
        with pytest.raises(ValueError):
            phi_eff[0, 0] = 1.0
        expected = effective_matrix(mat, cfg.share_gain, cfg.retention)
        assert phi_eff.tobytes() == expected.tobytes()

    def test_rejects_column_without_s_nonzeros(self):
        from repro.cs.matrices import SensingMatrix

        phi = srbm_balanced(4, 12, 2, seed=1).phi.copy()
        phi[:, 5] = 0.0
        phi[0, 5] = 1.0
        mat = SensingMatrix(phi=phi, kind="srbm", sparsity=2, seed=None)
        with pytest.raises(ValueError, match="column 5 .* 1 nonzeros"):
            ChargeSharingEncoder(mat, ideal_config(), seed=1)


class TestPerturbation:
    def test_none_is_zero(self):
        pert = EncoderPerturbation.none(2, 8)
        assert np.all(pert.sample_errors == 0)
        assert np.all(pert.hold_errors == 0)

    def test_draw_shapes(self, rng):
        pert = EncoderPerturbation.draw(2, 8, 0.01, 0.02, rng)
        assert pert.sample_errors.shape == (2,)
        assert pert.hold_errors.shape == (8,)

    def test_zero_sigma_draws_zero(self, rng):
        pert = EncoderPerturbation.draw(2, 8, 0.0, 0.0, rng)
        assert np.all(pert.sample_errors == 0)

