"""Spectral-comb seizure detector: deterministic accuracy oracle.

Generalised spike-wave seizures are *rhythmic*: a 2.5-4.5 Hz discharge
with strong harmonics.  The classical detector family (Gotman-style
spectral detectors) therefore scores a record by how much of its power is
concentrated on a low-frequency harmonic comb.  This module implements
that detector with a two-feature logistic read-out:

* ``comb ratio`` -- the best fraction of in-band power sitting on a
  harmonic comb ``{f0, 2 f0, 3 f0, 4 f0}`` over the discharge-frequency
  grid, against the total 0.5-45 Hz power;
* ``gamma power`` -- power in the low-voltage-fast-activity band
  (35-45 Hz), the classical low-amplitude seizure-onset marker and the
  noise-critical feature: the 1/f background is weak there, so the
  front-end's microvolt noise floor competes with it directly;
* ``log power`` -- total in-band power (ictal EEG is large).

Why this oracle (rather than a learned network) drives the experiments:
its score is a *smooth, monotone* functional of signal quality.  Broadband
front-end noise lifts the off-comb floor and dilutes the comb ratio;
quantization does the same; CS reconstruction -- which preserves dominant
spectral lines while shrinking the broadband floor -- passes it almost
unharmed.  That is precisely the averaging-effect asymmetry the paper
reports, obtained here from first principles instead of from the training
noise of a small neural network.

The logistic calibration (2 weights + bias, deterministic Newton solve)
is fitted once on clean training records; accuracy and the soft accuracy
estimator then evaluate any processed records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from repro.util.validation import check_positive


def logistic_fit(
    features: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-3,
    n_iter: int = 50,
) -> np.ndarray:
    """L2-regularised logistic regression via Newton's method.

    Returns weights of shape (n_features + 1,) with the bias last.
    Deterministic: no initialisation randomness, convex objective.
    """
    x = np.hstack([features, np.ones((features.shape[0], 1))])
    y = np.asarray(labels, dtype=np.float64)
    w = np.zeros(x.shape[1])
    for _ in range(n_iter):
        z = x @ w
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
        gradient = x.T @ (p - y) + l2 * w
        hessian = (x * (p * (1 - p))[:, None]).T @ x + l2 * np.eye(x.shape[1])
        step = np.linalg.solve(hessian, gradient)
        w = w - step
        if np.max(np.abs(step)) < 1e-10:
            break
    return w


def logistic_predict(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Probabilities under a fitted logistic model."""
    x = np.hstack([features, np.ones((features.shape[0], 1))])
    z = np.clip(x @ weights, -30, 30)
    return 1.0 / (1.0 + np.exp(-z))


def hard_accuracy(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Share of records whose decision at probability 0.5 matches the label."""
    decisions = (probabilities >= 0.5).astype(int)
    return float(np.mean(decisions == np.asarray(labels, dtype=int)))


def mean_correct_probability(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean probability assigned to the correct class (soft accuracy)."""
    labels = np.asarray(labels, dtype=int)
    correct = np.where(labels == 1, probabilities, 1.0 - probabilities)
    return float(np.mean(correct))


@dataclass
class SpectralCombDetector:
    """Deterministic rhythmic-discharge detector with logistic read-out.

    Parameters
    ----------
    sample_rate:
        Rate of the records it scores, Hz.
    f0_grid:
        Candidate discharge fundamentals, Hz (paper generator: 2.5-4.5 Hz).
    n_harmonics:
        Harmonics included in the comb (fundamental counts as the first).
    comb_halfwidth:
        Half-width of each comb tooth in Hz.
    band:
        (low, high) analysis band in Hz for the total-power reference.
    gamma_band:
        (low, high) LVFA band in Hz (matches the generator's marker).
    reference_band:
        (low, high) marker-free band in Hz used as the broadband-floor
        reference: the logistic read-out learns the gamma power *relative*
        to this floor, the standard normalisation of clinical spectral
        detectors.  It keeps the calibration valid when the front-end's
        noise floor rises (the decision degrades through estimator
        variance rather than collapsing through a shifted threshold).
    """

    sample_rate: float
    f0_grid: tuple[float, ...] = tuple(np.arange(2.2, 4.9, 0.1).round(2))
    n_harmonics: int = 4
    comb_halfwidth: float = 0.35
    band: tuple[float, float] = (0.5, 45.0)
    gamma_band: tuple[float, float] = (35.0, 45.0)
    reference_band: tuple[float, float] = (55.0, 85.0)
    _weights: np.ndarray | None = field(default=None, repr=False)
    _feature_mean: np.ndarray | None = field(default=None, repr=False)
    _feature_std: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive("sample_rate", self.sample_rate)
        if not self.f0_grid:
            raise ValueError("f0_grid must be non-empty")
        low, high = self.band
        if not 0 < low < high < self.sample_rate / 2:
            raise ValueError(f"invalid analysis band {self.band}")
        r_lo, r_hi = self.reference_band
        if not 0 < r_lo < r_hi <= self.sample_rate / 2:
            raise ValueError(f"invalid reference band {self.reference_band}")

    # --- score -----------------------------------------------------------------

    def _psd(self, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nperseg = min(records.shape[1], int(self.sample_rate * 4))
        freqs, psd = sp_signal.welch(records, fs=self.sample_rate, nperseg=nperseg, axis=1)
        return freqs, psd

    def features(self, records: np.ndarray) -> np.ndarray:
        """(n_records, 3) features: [log comb ratio, log gamma power, log power]."""
        records = np.asarray(records, dtype=np.float64)
        if records.ndim != 2:
            raise ValueError(f"records must be (n_records, n_samples), got {records.shape}")
        freqs, psd = self._psd(records)
        low, high = self.band
        in_band = (freqs >= low) & (freqs <= high)
        total = np.trapezoid(psd[:, in_band], freqs[in_band], axis=1)
        total = np.where(total > 0, total, 1e-30)

        best = np.zeros(records.shape[0])
        for f0 in self.f0_grid:
            mask = np.zeros_like(freqs, dtype=bool)
            for k in range(1, self.n_harmonics + 1):
                center = k * f0
                mask |= (freqs >= center - self.comb_halfwidth) & (
                    freqs <= center + self.comb_halfwidth
                )
            mask &= in_band
            comb = np.trapezoid(psd[:, mask], freqs[mask], axis=1)
            best = np.maximum(best, comb / total)

        g_lo, g_hi = self.gamma_band
        gamma_mask = (freqs >= g_lo) & (freqs <= g_hi)
        gamma = np.trapezoid(psd[:, gamma_mask], freqs[gamma_mask], axis=1)

        r_lo, r_hi = self.reference_band
        ref_mask = (freqs >= r_lo) & (freqs <= r_hi)
        reference = np.trapezoid(psd[:, ref_mask], freqs[ref_mask], axis=1)
        # Floor-compensated gamma contrast: marker power over the local
        # broadband floor (scaled to the gamma bandwidth).
        bandwidth_ratio = (g_hi - g_lo) / (r_hi - r_lo)
        contrast = (gamma + 1e-30) / (reference * bandwidth_ratio + 1e-30)
        return np.column_stack(
            [
                np.log10(best + 1e-12),
                np.log10(contrast),
                np.log10(total),
            ]
        )

    # --- calibration -----------------------------------------------------------

    def fit(self, records: np.ndarray, labels: np.ndarray) -> "SpectralCombDetector":
        """Calibrate the logistic read-out on clean labelled records."""
        features = self.features(records)
        self._feature_mean = features.mean(axis=0)
        std = features.std(axis=0)
        self._feature_std = np.where(std > 0, std, 1.0)
        standardized = (features - self._feature_mean) / self._feature_std
        self._weights = logistic_fit(standardized, np.asarray(labels, dtype=int))
        return self

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self._weights is not None

    # --- inference ------------------------------------------------------------

    def predict_proba(self, records: np.ndarray) -> np.ndarray:
        """Seizure probability per record."""
        if self._weights is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        features = (self.features(records) - self._feature_mean) / self._feature_std
        return logistic_predict(self._weights, features)

    def predict(self, records: np.ndarray) -> np.ndarray:
        """Hard 0/1 decisions at probability 0.5."""
        return (self.predict_proba(records) >= 0.5).astype(int)

    def accuracy(self, records: np.ndarray, labels: np.ndarray) -> float:
        """Hard record-level accuracy."""
        return hard_accuracy(self.predict_proba(records), labels)

    def soft_accuracy(self, records: np.ndarray, labels: np.ndarray) -> float:
        """Mean correct-class probability (continuous accuracy estimator)."""
        return mean_correct_probability(self.predict_proba(records), labels)

    def sensitivity_specificity(
        self, records: np.ndarray, labels: np.ndarray
    ) -> tuple[float, float]:
        """(sensitivity, specificity) of the hard decisions."""
        labels = np.asarray(labels, dtype=int)
        predictions = self.predict(records)
        tp = int(np.sum((labels == 1) & (predictions == 1)))
        fn = int(np.sum((labels == 1) & (predictions == 0)))
        tn = int(np.sum((labels == 0) & (predictions == 0)))
        fp = int(np.sum((labels == 0) & (predictions == 1)))
        sensitivity = tp / (tp + fn) if (tp + fn) else 0.0
        specificity = tn / (tn + fp) if (tn + fp) else 0.0
        return float(sensitivity), float(specificity)
