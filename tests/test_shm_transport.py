"""Evaluator transport to process workers: a plain pickle, corpus included.

(The module keeps the name of the shared-memory corpus transport it used
to cover; no shared-memory segment is involved any more.)
"""

import pickle

import numpy as np

from repro.core.explorer import DesignSpaceExplorer
from repro.core.telemetry import Telemetry
from tests.test_parallel_explorer import REAL_POINTS, hex_rows, real_evaluator


class TestEvaluatorTransport:
    def test_roundtripped_evaluator_evaluates_identically(self):
        evaluator = real_evaluator()
        clone = evaluator.with_chain_transform(None)
        for original in (evaluator, clone):
            restored = pickle.loads(pickle.dumps(original))
            for point in REAL_POINTS:
                assert hex_rows([restored.evaluate(point)]) == hex_rows(
                    [original.evaluate(point)]
                )

    def test_plain_pickle_still_works_unarmed(self):
        # The corpus bytes ride in the pickle itself: each spawned worker
        # unpickles its own copy.
        evaluator = real_evaluator()
        restored = pickle.loads(pickle.dumps(evaluator))
        assert restored.records is not evaluator.records
        np.testing.assert_array_equal(restored.records, evaluator.records)

    def test_clone_pickle_does_not_carry_the_original(self):
        evaluator = real_evaluator()
        corpus_only = len(pickle.dumps(evaluator))
        evaluator.evaluate(REAL_POINTS[2])  # builds a 384 x 384 basis (1.2 MB)
        clone = evaluator.with_chain_transform(None)
        # The default factory is a small frozen dataclass: the clone's
        # pickle holds no basis and no reference to the original.
        assert len(pickle.dumps(clone)) < 1.5 * corpus_only
        restored = pickle.loads(pickle.dumps(clone))
        assert restored.reconstructor_factory == evaluator.reconstructor_factory


class TestProcessSweepParity:
    def test_process_sweep_with_shm_matches_serial(self):
        serial = DesignSpaceExplorer(real_evaluator()).explore(REAL_POINTS)
        tel = Telemetry()
        parallel = DesignSpaceExplorer(real_evaluator()).explore(
            REAL_POINTS, executor="process", n_workers=2, telemetry=tel
        )
        assert hex_rows(parallel.evaluations) == hex_rows(serial.evaluations)
        # No corpus segment is published: nothing counts under ``shm.``.
        assert not [name for name in tel.counters if name.startswith("shm.")]

    def test_driver_evaluator_restored_after_sweep(self):
        evaluator = real_evaluator()
        records = evaluator.records
        explorer = DesignSpaceExplorer(evaluator)
        explorer.explore(REAL_POINTS[:2], executor="process", n_workers=2)
        # Workers get their own copy; the parent process's evaluator and
        # corpus are untouched.
        assert explorer.evaluator is evaluator
        assert evaluator.records is records
