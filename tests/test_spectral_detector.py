"""Tests of the spectral-comb detector (the experiments' accuracy oracle)."""

import numpy as np
import pytest

from repro.detection.spectral import (
    SpectralCombDetector,
    hard_accuracy,
    logistic_fit,
    logistic_predict,
    mean_correct_probability,
)
from repro.eeg.synthetic import SyntheticEegConfig, generate_record
from repro.util.rng import derive_seed

FS = 173.61


def corpus(n_seizure=20, n_background=20, config=None, seed=0, samples=3072):
    config = config or SyntheticEegConfig()
    records, labels = [], []
    for i in range(n_seizure):
        rec = generate_record("seizure", config, derive_seed(seed, f"s{i}"), f"s{i}")
        records.append(rec.data[:samples])
        labels.append(1)
    for i in range(n_background):
        kind = "artifact" if i % 3 == 0 else "background"
        rec = generate_record(kind, config, derive_seed(seed, f"b{i}"), f"b{i}")
        records.append(rec.data[:samples])
        labels.append(0)
    return np.stack(records), np.array(labels)


class TestLogistic:
    def test_separable_data_fits(self, rng):
        x = np.vstack([rng.normal(-2, 0.5, (50, 2)), rng.normal(2, 0.5, (50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        w = logistic_fit(x, y)
        probs = logistic_predict(w, x)
        assert np.mean((probs > 0.5) == y) > 0.95

    def test_probabilities_bounded(self, rng):
        x = rng.normal(size=(20, 3)) * 100
        w = logistic_fit(x, (x[:, 0] > 0).astype(int))
        probs = logistic_predict(w, x)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_deterministic(self, rng):
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] > 0).astype(int)
        np.testing.assert_array_equal(logistic_fit(x, y), logistic_fit(x, y))


class TestFeatures:
    def test_feature_shape(self):
        det = SpectralCombDetector(sample_rate=FS)
        records, _ = corpus(3, 3)
        assert det.features(records).shape == (6, 3)

    def test_seizure_gamma_contrast_higher(self):
        det = SpectralCombDetector(sample_rate=FS)
        config = SyntheticEegConfig(seizure_severity_range=(0.5, 1.0))
        records, labels = corpus(10, 10, config=config)
        features = det.features(records)
        gamma = features[:, 1]
        assert np.mean(gamma[labels == 1]) > np.mean(gamma[labels == 0])

    def test_comb_ratio_higher_for_strong_spike_wave(self):
        det = SpectralCombDetector(sample_rate=FS)
        config = SyntheticEegConfig(
            seizure_severity_range=(2.0, 3.0), gamma_weight=0.0, spike_weight=1.0
        )
        records, labels = corpus(8, 8, config=config)
        comb = det.features(records)[:, 0]
        assert np.mean(comb[labels == 1]) > np.mean(comb[labels == 0])

    @pytest.mark.xfail(
        strict=True,
        reason="the comb integral spans the gaps between its teeth: white noise reads 0.3-0.9",
    )
    def test_white_noise_puts_little_power_on_the_comb(self):
        # Four teeth of 0.5 Hz (3 bins each at 537.6 Hz) hold 2 / 44.5 of a
        # flat 0.5-45 Hz spectrum.  Summed tooth by tooth, the best of the
        # 27 combs reads a median of 0.07 on white noise, at most 0.13.
        det = SpectralCombDetector(sample_rate=537.6)
        noise = np.random.default_rng(8).normal(0.0, 1e-5, size=(32, 3072))
        ratio = 10 ** det.features(noise)[:, 0]
        assert np.all(ratio <= 0.2)

    def test_rejects_1d(self):
        det = SpectralCombDetector(sample_rate=FS)
        with pytest.raises(ValueError):
            det.features(np.zeros(100))
        with pytest.raises(ValueError, match="n_samples"):
            det.features(np.zeros((2, 0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralCombDetector(sample_rate=FS, band=(50.0, 10.0))
        with pytest.raises(ValueError):
            SpectralCombDetector(sample_rate=FS, f0_grid=())
        with pytest.raises(ValueError):
            SpectralCombDetector(sample_rate=FS, reference_band=(100.0, 90.0))


class TestDetection:
    @pytest.fixture(scope="class")
    def fitted(self):
        records, labels = corpus(25, 25, seed=1)
        det = SpectralCombDetector(sample_rate=FS).fit(records, labels)
        return det, records, labels

    def test_high_clean_accuracy(self, fitted):
        det, records, labels = fitted
        assert det.accuracy(records, labels) > 0.9

    def test_generalisation(self, fitted):
        det, *_ = fitted
        fresh_records, fresh_labels = corpus(10, 10, seed=99)
        assert det.accuracy(fresh_records, fresh_labels) > 0.8

    def test_soft_accuracy_tracks_hard(self, fitted):
        det, records, labels = fitted
        assert abs(det.soft_accuracy(records, labels) - det.accuracy(records, labels)) < 0.1

    def test_noise_degrades_monotonically(self, fitted):
        det, _, _ = fitted
        fresh_records, fresh_labels = corpus(15, 15, seed=7)
        rng = np.random.default_rng(3)
        noisy_levels = [0.0, 8e-6, 25e-6]
        accuracies = [
            det.soft_accuracy(
                fresh_records + rng.normal(0, level, fresh_records.shape)
                if level
                else fresh_records,
                fresh_labels,
            )
            for level in noisy_levels
        ]
        assert accuracies[0] >= accuracies[1] >= accuracies[2] - 0.02
        assert accuracies[0] > accuracies[2]

    def test_accuracies_follow_from_the_probabilities(self, fitted):
        det, records, labels = fitted
        rng = np.random.default_rng(5)
        noisy = records + rng.normal(0, 25e-6, records.shape)
        probs = det.predict_proba(noisy)
        hard = hard_accuracy(probs, labels)
        soft = mean_correct_probability(probs, labels)
        assert hard == float(np.mean(det.predict(noisy) == labels))
        assert soft == float(np.mean(np.where(labels == 1, probs, 1.0 - probs)))
        assert (det.accuracy(noisy, labels), det.soft_accuracy(noisy, labels)) == (hard, soft)

    def test_probabilities_in_unit_interval(self, fitted):
        det, records, _ = fitted
        probs = det.predict_proba(records)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_sensitivity_specificity(self, fitted):
        det, records, labels = fitted
        sens, spec = det.sensitivity_specificity(records, labels)
        assert 0.5 < sens <= 1.0
        assert 0.5 < spec <= 1.0

    def test_unfitted_raises(self):
        det = SpectralCombDetector(sample_rate=FS)
        with pytest.raises(RuntimeError):
            det.predict_proba(np.zeros((2, 1024)))

    def test_deterministic_oracle(self):
        """Same data, same calibration: the oracle has no training noise."""
        records, labels = corpus(10, 10, seed=4)
        a = SpectralCombDetector(sample_rate=FS).fit(records, labels)
        b = SpectralCombDetector(sample_rate=FS).fit(records, labels)
        np.testing.assert_array_equal(a.predict_proba(records), b.predict_proba(records))
