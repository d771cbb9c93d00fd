"""Tests of the sensing-matrix constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cs.matrices import (
    SensingMatrix,
    bernoulli,
    gaussian,
    make_sensing_matrix,
    srbm,
    srbm_balanced,
)
from repro.util.rng import make_rng


class TestSrbm:
    def test_exact_column_sparsity(self):
        mat = srbm(16, 64, sparsity=2, seed=1)
        assert np.all(np.count_nonzero(mat.phi, axis=0) == 2)

    def test_entries_are_binary(self):
        mat = srbm(16, 64, sparsity=3, seed=1)
        assert set(np.unique(mat.phi)).issubset({0.0, 1.0})

    def test_deterministic_given_seed(self):
        a = srbm(8, 32, 2, seed=5)
        b = srbm(8, 32, 2, seed=5)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_seed_changes_matrix(self):
        assert not np.array_equal(srbm(8, 32, 2, seed=5).phi, srbm(8, 32, 2, seed=6).phi)

    def test_rejects_sparsity_above_m(self):
        with pytest.raises(ValueError):
            srbm(4, 16, sparsity=5)

    def test_rejects_tall_matrix(self):
        with pytest.raises(ValueError):
            srbm(32, 16)

    def test_paper_dimensions(self):
        for m in (75, 150, 192):
            mat = srbm(m, 384, 2, seed=m)
            assert mat.phi.shape == (m, 384)
            assert mat.compression_ratio == pytest.approx(384 / m)


class TestSrbmBalanced:
    def test_row_degrees_within_one(self):
        mat = srbm_balanced(16, 64, sparsity=2, seed=1)
        degrees = mat.row_degrees()
        assert degrees.max() - degrees.min() <= 1

    def test_column_sparsity_preserved(self):
        mat = srbm_balanced(16, 64, sparsity=2, seed=1)
        assert np.all(np.count_nonzero(mat.phi, axis=0) == 2)

    def test_deterministic(self):
        a = srbm_balanced(12, 48, 2, seed=3)
        b = srbm_balanced(12, 48, 2, seed=3)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_paper_geometry_balanced(self):
        mat = srbm_balanced(150, 384, 2, seed=9)
        degrees = mat.row_degrees()
        # 384*2/150 = 5.12 -> rows hold 5 or 6 samples.
        assert set(degrees.tolist()).issubset({5, 6})


def _visit_every_column_srbm_balanced(m, n, sparsity, seed):
    """``srbm_balanced`` as it was before its repair pass skipped valid columns.

    The repair loop visits every column and ``phi`` is filled one column
    at a time; the generated matrix must be the same, byte for byte.
    """
    rng = make_rng(seed)
    total = n * sparsity
    base, remainder = divmod(total, m)
    pool = np.repeat(np.arange(m), base)
    if remainder:
        pool = np.concatenate([pool, rng.choice(m, size=remainder, replace=False)])
    rng.shuffle(pool)

    def column_ok(column):
        segment = pool[column * sparsity : (column + 1) * sparsity]
        return len(set(segment.tolist())) == sparsity

    for j in range(n):
        guard = 0
        while not column_ok(j):
            guard += 1
            if guard > 10_000:
                return srbm(m, n, sparsity=sparsity, seed=seed).phi
            rows = pool[j * sparsity : (j + 1) * sparsity]
            seen = set()
            dup_offset = 0
            for offset, row in enumerate(rows.tolist()):
                if row in seen:
                    dup_offset = offset
                    break
                seen.add(row)
            src = j * sparsity + dup_offset
            dst = int(rng.integers(0, total))
            other = dst // sparsity
            if other == j:
                continue
            pool[src], pool[dst] = pool[dst], pool[src]
            if not column_ok(other):
                pool[src], pool[dst] = pool[dst], pool[src]
    phi = np.zeros((m, n), dtype=np.float64)
    for j in range(n):
        phi[pool[j * sparsity : (j + 1) * sparsity], j] = 1.0
    return phi


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 24),
    extra_columns=st.integers(1, 72),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_srbm_balanced_matches_the_visit_every_column_repair(m, extra_columns, seed, data):
    sparsity = data.draw(st.integers(1, m), label="sparsity")
    n = m + extra_columns
    got = srbm_balanced(m, n, sparsity, seed=seed).phi
    want = _visit_every_column_srbm_balanced(m, n, sparsity, seed)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestDenseMatrices:
    def test_gaussian_variance(self):
        mat = gaussian(64, 256, seed=2)
        assert np.var(mat.phi) == pytest.approx(1 / 64, rel=0.1)

    def test_bernoulli_entries(self):
        mat = bernoulli(16, 64, seed=2)
        assert set(np.round(np.unique(mat.phi) * 4, 6)) == {-1.0, 1.0}

    def test_dense_have_no_sparsity(self):
        assert gaussian(8, 32, seed=1).sparsity is None
        assert bernoulli(8, 32, seed=1).sparsity is None


class TestSensingMatrixApi:
    def test_measure_single_vector(self):
        mat = srbm(8, 32, 2, seed=1)
        x = np.arange(32, dtype=float)
        np.testing.assert_allclose(mat.measure(x), mat.phi @ x)

    def test_measure_batch(self):
        mat = srbm(8, 32, 2, seed=1)
        batch = np.random.default_rng(0).normal(size=(5, 32))
        np.testing.assert_allclose(mat.measure(batch), batch @ mat.phi.T)

    def test_measure_rejects_3d(self):
        mat = srbm(8, 32, 2, seed=1)
        with pytest.raises(ValueError):
            mat.measure(np.zeros((2, 2, 32)))

    def test_column_support_matches_phi(self):
        mat = srbm(8, 32, 2, seed=1)
        support = mat.column_support()
        for j, rows in enumerate(support):
            assert np.all(mat.phi[rows, j] == 1.0)
            assert len(rows) == 2

    def test_mutual_coherence_in_unit_interval(self):
        mat = gaussian(32, 128, seed=1)
        mu = mat.mutual_coherence()
        assert 0.0 < mu < 1.0

    def test_coherence_with_basis(self):
        from repro.cs.dictionaries import dct_basis

        mat = srbm_balanced(32, 128, 2, seed=1)
        assert 0.0 < mat.mutual_coherence(dct_basis(128)) <= 1.0

    def test_rejects_square_matrix(self):
        with pytest.raises(ValueError):
            SensingMatrix(phi=np.eye(4), kind="x", sparsity=None, seed=None)


class TestFactory:
    def test_kinds(self):
        assert make_sensing_matrix("srbm", 8, 32, seed=1).kind == "srbm-balanced"
        assert make_sensing_matrix("srbm", 8, 32, seed=1, balanced=False).kind == "srbm"
        assert make_sensing_matrix("gaussian", 8, 32, seed=1).kind == "gaussian"
        assert make_sensing_matrix("bernoulli", 8, 32, seed=1).kind == "bernoulli"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            make_sensing_matrix("fourier", 8, 32)
