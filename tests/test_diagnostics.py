"""Tests of the CS diagnostics (coherence, weight dynamic range)."""

import numpy as np
import pytest

from repro.cs.charge_sharing import ChargeSharingConfig, ChargeSharingEncoder
from repro.cs.diagnostics import (
    mutual_coherence,
    weight_dynamic_range,
)
from repro.cs.matrices import gaussian, srbm_balanced


class TestMutualCoherence:
    def test_orthogonal_matrix_zero_coherence(self):
        assert mutual_coherence(np.eye(8)[:4]) == pytest.approx(0.0)

    def test_duplicated_column_full_coherence(self):
        a = np.random.default_rng(0).normal(size=(8, 4))
        a = np.hstack([a, a[:, :1]])
        assert mutual_coherence(a) == pytest.approx(1.0)

    def test_gaussian_coherence_reasonable(self):
        mu = mutual_coherence(gaussian(64, 256, seed=1).phi)
        assert 0.1 < mu < 0.8

    def test_zero_columns_do_not_crash(self):
        a = np.zeros((4, 3))
        a[:, 0] = 1.0
        assert mutual_coherence(a) == pytest.approx(0.0)


class TestWeightDynamicRange:
    def test_binary_matrix_has_unit_range(self):
        mat = srbm_balanced(8, 32, 2, seed=1)
        assert weight_dynamic_range(mat.phi) == pytest.approx(1.0)

    def test_larger_cap_ratio_flattens_weights(self):
        mat = srbm_balanced(16, 64, 2, seed=1)
        ranges = []
        for ratio in (2.0, 8.0, 32.0):
            cfg = ChargeSharingConfig(c_sample=1e-15, c_hold=ratio * 1e-15, kt=0.0)
            enc = ChargeSharingEncoder(mat, cfg, seed=1)
            ranges.append(weight_dynamic_range(enc.phi_effective))
        assert ranges[0] > ranges[1] > ranges[2]

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            weight_dynamic_range(np.zeros((4, 8)))
