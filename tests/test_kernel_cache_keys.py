"""Cache-key policy across kernel backends.

The contract (registry docstring, ``FrontEndEvaluator.fingerprint``):
exact backends are bit-identical to the reference, so evaluation-cache
keys stay backend-invariant — warm caches survive enabling an exact
accelerator.  Documented-tolerance backends qualify the fingerprint, so
their results can never be served to (or from) a run on a different
backend.
"""

import numpy as np
import pytest

from repro.core.execution import EvaluationCache, evaluator_fingerprint
from repro.core.explorer import Evaluation, FrontEndEvaluator
from repro.cs.dictionaries import dct_basis
from repro.cs.reconstruction import Reconstructor
from repro.kernels import KernelBackend, registry
from repro.kernels import numpy_backend
from repro.power.technology import DesignPoint

F_SAMPLE = 2.1 * 256.0


@pytest.fixture
def evaluator():
    records = np.random.default_rng(5).normal(0.0, 20e-6, size=(2, 384))
    return FrontEndEvaluator(records, None, F_SAMPLE, seed=13)


@pytest.fixture
def fake_backends():
    """Register an exact and a tolerance fake backend; clean up after."""
    exact = KernelBackend(
        name="fake-exact", kernels={"fista": numpy_backend.fista}, exact=True
    )
    tolerance = KernelBackend(
        name="fake-tol", kernels={"fista": numpy_backend.fista}, exact=False, rtol=1e-6
    )
    registry.register(exact)
    registry.register(tolerance)
    try:
        yield exact, tolerance
    finally:
        registry.unregister("fake-exact")
        registry.unregister("fake-tol")


class TestEvaluatorFingerprint:
    def test_backend_invariant_for_exact_backends(self, evaluator, fake_backends):
        baseline = evaluator.fingerprint()
        with registry.use_backend("fake-exact"):
            assert evaluator.fingerprint() == baseline

    def test_qualified_for_tolerance_backends(self, evaluator, fake_backends):
        baseline = evaluator.fingerprint()
        with registry.use_backend("fake-tol"):
            qualified = evaluator.fingerprint()
        assert qualified != baseline
        # Restored selection restores the key.
        assert evaluator.fingerprint() == baseline

    def test_changes_with_the_package_version(self, evaluator, monkeypatch):
        """A release that changes the reference's arithmetic bumps the
        version; the stamp is what keeps old cache entries from being served."""
        import repro

        baseline = evaluator.fingerprint()
        monkeypatch.setattr(repro, "__version__", "0.0.0")
        assert evaluator.fingerprint() != baseline

    def test_unavailable_tolerance_backend_is_effectively_reference(self, evaluator):
        ghost = KernelBackend(name="fake-ghost", kernels={}, available=False, rtol=1e-6)
        registry.register(ghost)
        try:
            baseline = evaluator.fingerprint()
            with registry.use_backend("fake-ghost"):
                # Nothing can dispatch off-reference: keys stay shared.
                assert evaluator.fingerprint() == baseline
        finally:
            registry.unregister("fake-ghost")


class TestEvaluationCacheIsolation:
    def _evaluation(self):
        return Evaluation(
            point=DesignPoint(), metrics={"snr_db": 12.0}, breakdown={}, error=None
        )

    def test_exact_backend_shares_cached_evaluations(
        self, tmp_path, evaluator, fake_backends
    ):
        cache = EvaluationCache(tmp_path)
        point = DesignPoint()
        cache.put(evaluator_fingerprint(evaluator), point, self._evaluation())
        with registry.use_backend("fake-exact"):
            hit = cache.get(evaluator_fingerprint(evaluator), point)
        assert hit is not None and hit.metrics["snr_db"] == 12.0

    def test_tolerance_backend_is_isolated_both_ways(
        self, tmp_path, evaluator, fake_backends
    ):
        cache = EvaluationCache(tmp_path)
        point = DesignPoint()
        cache.put(evaluator_fingerprint(evaluator), point, self._evaluation())
        with registry.use_backend("fake-tol"):
            assert cache.get(evaluator_fingerprint(evaluator), point) is None
            cache.put(evaluator_fingerprint(evaluator), point, self._evaluation())
        # The tolerance entry must not leak back to the reference key
        # (both entries coexist under their own fingerprints).
        assert cache.get(evaluator_fingerprint(evaluator), point) is not None
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestReconstructorDictionaryCache:
    """A mid-process swap to an exact backend recovers bit-identically."""

    def _phi(self):
        rng = np.random.default_rng(3)
        phi = (rng.random((24, 96)) < 0.1).astype(np.float64)
        phi[:, 0] = 1.0  # ensure non-degenerate
        return phi

    def test_recovered_signal_identical_across_exact_swap(self, fake_backends):
        recon = Reconstructor(basis=dct_basis(96), method="fista", n_iter=40)
        phi = self._phi()
        y = np.random.default_rng(4).normal(size=24)
        reference = recon.recover(phi, y)
        with registry.use_backend("fake-exact"):
            swapped = recon.recover(phi, y)
        np.testing.assert_array_equal(swapped, reference)
