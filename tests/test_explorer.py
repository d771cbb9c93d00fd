"""Tests of FrontEndEvaluator and DesignSpaceExplorer."""

import numpy as np
import pytest

from repro.core.explorer import DesignSpaceExplorer, FrontEndEvaluator
from repro.core.parameters import ParameterSpace
from repro.core.results import Evaluation
from repro.detection.spectral import SpectralCombDetector
from repro.power.technology import DesignPoint

FS = 2.1 * 256.0


def small_corpus(n_records=4, frames=2, seed=0):
    """Tiny smooth corpus: enough for SNR metrics, no detector."""
    rng = np.random.default_rng(seed)
    from scipy import signal as sp

    b, a = sp.butter(4, 20, fs=FS)
    records = np.stack(
        [sp.lfilter(b, a, rng.normal(size=frames * 384)) * 1e-4 for _ in range(n_records)]
    )
    return records


class TestFrontEndEvaluator:
    def test_baseline_metrics_present(self):
        evaluator = FrontEndEvaluator(small_corpus(), None, FS, seed=1)
        evaluation = evaluator.evaluate(DesignPoint(n_bits=8, lna_noise_rms=2e-6))
        assert set(evaluation.metrics) == {"snr_db", "power_w", "power_uw", "area_units"}
        assert evaluation.metrics["snr_db"] > 10
        assert evaluation.breakdown  # per-block power recorded

    def test_cs_point_evaluates(self):
        evaluator = FrontEndEvaluator(small_corpus(), None, FS, seed=1)
        point = DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150)
        evaluation = evaluator.evaluate(point)
        assert evaluation.metrics["power_uw"] < 4.0
        assert evaluation.metrics["snr_db"] > 3.0

    def test_accuracy_requires_detector(self):
        evaluator = FrontEndEvaluator(small_corpus(), None, FS, seed=1)
        evaluation = evaluator.evaluate(DesignPoint())
        assert "accuracy" not in evaluation.metrics

    def test_deterministic_per_seed(self):
        records = small_corpus()
        e1 = FrontEndEvaluator(records, None, FS, seed=5).evaluate(DesignPoint())
        e2 = FrontEndEvaluator(records, None, FS, seed=5).evaluate(DesignPoint())
        assert e1.metrics == e2.metrics

    def test_rate_mismatch_rejected(self):
        evaluator = FrontEndEvaluator(small_corpus(), None, 512.0, seed=1)
        with pytest.raises(ValueError, match="resample"):
            evaluator.evaluate(DesignPoint(bw_in=256.0))

    def test_frame_misalignment_rejected(self):
        records = small_corpus()[:, :500]  # not a multiple of 384
        evaluator = FrontEndEvaluator(records, None, FS, seed=1)
        with pytest.raises(ValueError, match="multiple"):
            evaluator.evaluate(DesignPoint(use_cs=True, cs_m=150))

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            FrontEndEvaluator(small_corpus(4), np.zeros(3, dtype=int), FS)

    def test_records_must_be_2d(self):
        with pytest.raises(ValueError):
            FrontEndEvaluator(np.zeros(100), None, FS)

    def test_unfitted_detector_rejected(self):
        with pytest.raises(ValueError, match="fitted"):
            FrontEndEvaluator(
                small_corpus(), np.zeros(4, dtype=int), FS, detector=SpectralCombDetector(FS)
            )

    @staticmethod
    def fitted_detector(rate):
        records = np.random.default_rng(0).normal(size=(4, 2048))
        return SpectralCombDetector(rate).fit(records, np.array([0, 1, 0, 1]))

    def test_detector_rate_mismatch_rejected(self):
        # A detector calibrated at the raw Bonn rate mis-scores records at
        # f_sample; the evaluator must refuse it and name both rates.
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ValueError, match=r"records are at 537\.6 Hz.* at 173\.61 Hz"):
            FrontEndEvaluator(small_corpus(), labels, FS, detector=self.fitted_detector(173.61))
        # The design-point rule: 3 % apart is rejected, 1.5 % accepted.
        with pytest.raises(ValueError, match="recalibrate"):
            FrontEndEvaluator(small_corpus(), labels, FS, detector=self.fitted_detector(FS / 0.97))
        evaluator = FrontEndEvaluator(
            small_corpus(), labels, FS, detector=self.fitted_detector(FS * 1.015)
        )
        assert "accuracy" in evaluator.evaluate(DesignPoint()).metrics


class TestDesignSpaceExplorer:
    def fake_evaluator(self, point):
        return Evaluation(
            point=point,
            metrics={"power_uw": point.n_bits * 1.0, "accuracy": 0.9},
        )

    def test_explores_parameter_space(self):
        explorer = DesignSpaceExplorer(self.fake_evaluator)
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        result = explorer.explore(space, name="bits")
        assert len(result) == 3
        assert result.values("power_uw") == [6.0, 7.0, 8.0]

    def test_explores_point_iterable(self):
        explorer = DesignSpaceExplorer(self.fake_evaluator)
        result = explorer.explore([DesignPoint(n_bits=6), DesignPoint(n_bits=8)])
        assert len(result) == 2

    def test_progress_callback(self):
        calls = []
        explorer = DesignSpaceExplorer(self.fake_evaluator)
        explorer.explore(
            [DesignPoint(n_bits=6)], progress=lambda i, e: calls.append((i, e))
        )
        assert len(calls) == 1
        assert calls[0][0] == 0

    def test_empty_space_rejected(self):
        explorer = DesignSpaceExplorer(self.fake_evaluator)
        with pytest.raises(ValueError):
            explorer.explore([])

    def test_real_evaluator_sweep(self):
        evaluator = FrontEndEvaluator(small_corpus(), None, FS, seed=1)
        explorer = DesignSpaceExplorer(evaluator)
        space = ParameterSpace({"lna_noise_rms": [2e-6, 20e-6]})
        result = explorer.explore(space)
        # Power must fall and SNR must fall as noise rises.
        assert result[0].metrics["power_uw"] > result[1].metrics["power_uw"]
        assert result[0].metrics["snr_db"] > result[1].metrics["snr_db"]


class TestSampleRateTolerance:
    """Regression: the 2 % tolerance must be symmetric (relative to the
    larger of the two rates), not divided by point.f_sample only."""

    def test_two_percent_below_accepted(self):
        # f_sample = 0.9802 * record rate: |diff| / max(rates) = 1.98 %,
        # but |diff| / f_sample = 2.02 % -- the old asymmetric check
        # (dividing by f_sample only) rejected this point.
        records = small_corpus()
        evaluator = FrontEndEvaluator(records, None, FS, seed=1)
        point = DesignPoint(bw_in=256.0 * 0.9802)
        evaluation = evaluator.evaluate(point)
        assert "snr_db" in evaluation.metrics

    def test_two_percent_above_accepted(self):
        records = small_corpus()
        evaluator = FrontEndEvaluator(records, None, FS, seed=1)
        point = DesignPoint(bw_in=256.0 / 0.9802)
        evaluation = evaluator.evaluate(point)
        assert "snr_db" in evaluation.metrics

    def test_three_percent_rejected_both_sides(self):
        records = small_corpus()
        evaluator = FrontEndEvaluator(records, None, FS, seed=1)
        with pytest.raises(ValueError, match="resample"):
            evaluator.evaluate(DesignPoint(bw_in=256.0 * 0.97))
        with pytest.raises(ValueError, match="resample"):
            evaluator.evaluate(DesignPoint(bw_in=256.0 / 0.97))
