"""Evaluation-cache keys follow the kernels' arithmetic.

``FrontEndEvaluator.fingerprint`` keys the on-disk evaluation cache.  It
hashes the package version, so a release that changes the kernels'
arithmetic (and bumps the version, ``docs/extending.md`` §11) never
serves evaluations cached under the old arithmetic.
"""

import numpy as np
import pytest

from repro.core.explorer import FrontEndEvaluator

F_SAMPLE = 2.1 * 256.0


@pytest.fixture
def evaluator():
    records = np.random.default_rng(5).normal(0.0, 20e-6, size=(2, 384))
    return FrontEndEvaluator(records, None, F_SAMPLE, seed=13)


class TestEvaluatorFingerprint:
    def test_changes_with_the_package_version(self, evaluator, monkeypatch):
        """A release that changes the reference's arithmetic bumps the
        version; the stamp is what keeps old cache entries from being served."""
        import repro

        baseline = evaluator.fingerprint()
        monkeypatch.setattr(repro, "__version__", "0.0.0")
        assert evaluator.fingerprint() != baseline
