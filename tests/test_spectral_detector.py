"""Tests of the spectral seizure detector (the experiments' accuracy oracle)."""

import dataclasses

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
        assert det.features(records).shape == (6, 2)

    def test_seizure_gamma_contrast_higher(self):
        det = SpectralCombDetector(sample_rate=FS)
        config = SyntheticEegConfig(seizure_severity_range=(0.5, 1.0))
        records, labels = corpus(10, 10, config=config)
        features = det.features(records)
        gamma = features[:, 0]
        assert np.mean(gamma[labels == 1]) > np.mean(gamma[labels == 0])

    def test_log_power_higher_for_strong_spike_wave(self):
        # Without the gamma marker, a large discharge still reaches the
        # read-out through in-band power.
        det = SpectralCombDetector(sample_rate=FS)
        config = SyntheticEegConfig(
            seizure_severity_range=(2.0, 3.0), gamma_weight=0.0, spike_weight=1.0
        )
        records, labels = corpus(8, 8, config=config)
        power = det.features(records)[:, 1]
        assert np.mean(power[labels == 1]) > np.mean(power[labels == 0])

    def test_features_are_gamma_contrast_and_in_band_power(self):
        # White noise of variance s^2 has the flat one-sided density
        # 2 s^2 / fs: gamma contrast 1 and 0.5-45 Hz power 2 s^2 / fs * 44.5.
        # A record is one 4 s Hann segment, so the ~40 gamma and ~120
        # reference bins leave its log contrast ~0.1 decades noisy; the
        # median of 32 records is within ~0.03 of 0 (a 0.1 bound is ~3
        # sigma) and their in-band power within ~0.01 of the density's.
        fs, sigma = 537.6, 1e-5
        det = SpectralCombDetector(sample_rate=fs)
        noise = np.random.default_rng(8).normal(0.0, sigma, size=(32, 3072))
        features = det.features(noise)
        assert features.shape == (32, 2)
        contrast, power = np.median(features, axis=0)
        assert contrast == pytest.approx(0.0, abs=0.1)
        assert power == pytest.approx(np.log10(2 * sigma**2 / fs * 44.5), abs=0.05)
        # A 70 Hz tone lifts only the reference floor: the contrast falls
        # and the in-band power stays.
        toned = det.features(noise + 3e-5 * np.sin(2 * np.pi * 70.0 * np.arange(3072) / fs))
        assert np.all(toned[:, 0] < features[:, 0] - 1.0)
        np.testing.assert_allclose(toned[:, 1], features[:, 1], rtol=0, atol=1e-6)
        # Four settings, none of them the comb's: any other keyword is a
        # TypeError.
        settings = [f.name for f in dataclasses.fields(det) if not f.name.startswith("_")]
        assert settings == ["sample_rate", "band", "gamma_band", "reference_band"]

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
            SpectralCombDetector(sample_rate=FS, reference_band=(100.0, 90.0))


class TestDetection:
    @pytest.fixture(scope="class")
    def fitted(self):
        records, labels = corpus(25, 25, seed=1)
        det = SpectralCombDetector(sample_rate=FS).fit(records, labels)
        return det, records, labels

    def test_high_clean_accuracy(self, fitted):
        det, records, labels = fitted
        assert hard_accuracy(det.predict_proba(records), labels) > 0.9

    def test_generalisation(self, fitted):
        det, *_ = fitted
        fresh_records, fresh_labels = corpus(10, 10, seed=99)
        assert hard_accuracy(det.predict_proba(fresh_records), fresh_labels) > 0.8

    def test_soft_accuracy_tracks_hard(self, fitted):
        det, records, labels = fitted
        probs = det.predict_proba(records)
        assert abs(mean_correct_probability(probs, labels) - hard_accuracy(probs, labels)) < 0.1

    def test_noise_degrades_monotonically(self, fitted):
        det, _, _ = fitted
        fresh_records, fresh_labels = corpus(15, 15, seed=7)
        rng = np.random.default_rng(3)
        noisy_levels = [0.0, 8e-6, 25e-6]
        accuracies = [
            mean_correct_probability(
                det.predict_proba(
                    fresh_records + rng.normal(0, level, fresh_records.shape)
                    if level
                    else fresh_records
                ),
                fresh_labels,
            )
            for level in noisy_levels
        ]
        assert accuracies[0] >= accuracies[1] >= accuracies[2] - 0.02
        assert accuracies[0] > accuracies[2]

    def test_probabilities_in_unit_interval(self, fitted):
        det, records, _ = fitted
        probs = det.predict_proba(records)
        assert np.all((probs >= 0) & (probs <= 1))

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
