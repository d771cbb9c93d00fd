"""Spectral seizure detector: deterministic accuracy oracle.

Ictal records carry low-voltage fast activity (LVFA): a gamma burst train
of a few microvolts at 35-45 Hz, the classical low-amplitude seizure-onset
marker.  The 1/f EEG background is weak there, so the front end's
microvolt noise floor competes with the marker directly: this is where
the class information meets the noise the sweeps trade for power.  The
detector scores each record on two spectral features with a logistic
read-out:

* ``gamma contrast`` -- power in the LVFA band (35-45 Hz) over the
  broadband floor of a marker-free reference band (55-85 Hz), scaled to
  the gamma bandwidth;
* ``log power`` -- total 0.5-45 Hz power (ictal EEG is large).

Why this oracle (rather than a learned network) drives the experiments:
its score is a *smooth, monotone* functional of signal quality.  Broadband
front-end noise lifts the floor under the marker and pulls the contrast
towards 1; quantization does the same; CS reconstruction -- which keeps
the dominant spectral content while shrinking the broadband floor --
passes it almost unharmed.  That is precisely the averaging-effect
asymmetry the paper reports, obtained here from first principles instead
of from the training noise of a small neural network.

Gotman-style spectral detectors also score the 2.5-4.5 Hz spike-wave
discharge by the share of power on a harmonic comb ``{f0, 2 f0, ...}``.
This one does not: on the paper-scale corpus that ratio separates ictal
from non-ictal records at chance (AUC 0.46-0.50, against 1.00 for gamma
contrast and 0.66 for log power), and the discharge's size already
reaches the read-out through log power.

The logistic calibration (2 weights + bias, deterministic Newton solve)
is fitted once on clean training records; :func:`hard_accuracy` and the
soft accuracy estimator :func:`mean_correct_probability` then score the
probabilities of any processed records.

Every design point is scored here, so the spectral set-up that depends
only on the detector's configuration and the record length -- the Welch
segmentation, the scaled window, the frequency grid and the bins of each
band -- is built once per (configuration, length) and cached at module
level (:func:`_spectral_plan`).  The PSD it drives has the bytes of
scipy 1.17's ``scipy.signal.welch`` (one-sided density, periodic Hann
window, half overlap, per-segment mean removed); releases whose
``welch`` scales after the FFT differ by a few ulps.  The plan is kept
off the detector, because the evaluator fingerprint hashes the pickled
detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft
from scipy.signal import get_window

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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class _SpectralPlan:
    """Everything ``features()`` needs that depends only on the record length.

    The arrays are read-only: one plan is shared by every caller of a
    configuration, threads included.
    """

    hop: int
    window: np.ndarray
    freqs: np.ndarray
    in_band: tuple[np.ndarray, np.ndarray]
    gamma: tuple[np.ndarray, np.ndarray]
    reference: tuple[np.ndarray, np.ndarray]

    def psd(self, records: np.ndarray) -> np.ndarray:
        """One-sided Welch PSD of each row, with the bytes of ``scipy.signal.welch``.

        The operations and their order are scipy's: per segment, subtract
        its mean, multiply by the scaled window, ``rfft`` all records at
        once (as scipy does; a larger batch changes the sign of a NaN)
        and take re^2 + im^2; then double every bin but DC (and Nyquist,
        for an even segment) and average the segments -- over a
        contiguous last axis in the (records, freqs, segments) layout,
        since a reduction over a strided axis sums in another order.  A
        single segment is reshaped, not averaged.
        """
        nperseg = self.window.size
        starts = range(0, records.shape[1] - nperseg + 1, self.hop)
        power = np.empty((records.shape[0], nperseg // 2 + 1, len(starts)))
        for index, start in enumerate(starts):
            segment = records[:, start : start + nperseg]
            windowed = segment - segment.mean(axis=-1, keepdims=True)
            windowed *= self.window
            spectrum = sp_fft.rfft(windowed, axis=-1)
            np.add(spectrum.real**2, spectrum.imag**2, out=power[:, :, index])
        power[:, 1 : -1 if nperseg % 2 == 0 else None] *= 2
        if power.shape[-1] > 1:
            return power.mean(axis=-1)
        return power.reshape(power.shape[:-1])


def _bins(freqs: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    bins = np.flatnonzero(mask)
    return _read_only(bins), _read_only(freqs[bins])


@lru_cache(maxsize=32)
def _spectral_plan(
    sample_rate: float,
    band: tuple[float, float],
    gamma_band: tuple[float, float],
    reference_band: tuple[float, float],
    n_samples: int,
) -> _SpectralPlan:
    """The cached plan of one detector configuration at one record length."""
    nperseg = min(n_samples, int(sample_rate * 4))
    # scipy's ShortTimeFFT scales the window to unit PSD area with the
    # builtin ``sum``, which adds sequentially: keep that, not np.sum.
    window = get_window("hann", nperseg)
    window = window * (1 / np.sqrt(sum(window**2) / (1 / sample_rate)))
    freqs = sp_fft.rfftfreq(nperseg, 1 / sample_rate)

    low, high = band
    g_lo, g_hi = gamma_band
    r_lo, r_hi = reference_band
    return _SpectralPlan(
        hop=nperseg - nperseg // 2,
        window=_read_only(window),
        freqs=_read_only(freqs),
        in_band=_bins(freqs, (freqs >= low) & (freqs <= high)),
        gamma=_bins(freqs, (freqs >= g_lo) & (freqs <= g_hi)),
        reference=_bins(freqs, (freqs >= r_lo) & (freqs <= r_hi)),
    )


@dataclass
class SpectralCombDetector:
    """Deterministic gamma-marker detector with logistic read-out.

    Parameters
    ----------
    sample_rate:
        Rate of the records it scores, Hz.
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
    band: tuple[float, float] = (0.5, 45.0)
    gamma_band: tuple[float, float] = (35.0, 45.0)
    reference_band: tuple[float, float] = (55.0, 85.0)
    _weights: np.ndarray | None = field(default=None, repr=False)
    _feature_mean: np.ndarray | None = field(default=None, repr=False)
    _feature_std: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive("sample_rate", self.sample_rate)
        low, high = self.band
        if not 0 < low < high < self.sample_rate / 2:
            raise ValueError(f"invalid analysis band {self.band}")
        r_lo, r_hi = self.reference_band
        if not 0 < r_lo < r_hi <= self.sample_rate / 2:
            raise ValueError(f"invalid reference band {self.reference_band}")

    # --- score -----------------------------------------------------------------

    def _plan(self, n_samples: int) -> _SpectralPlan:
        # Keyed on hashable copies: the bands may be lists.
        return _spectral_plan(
            self.sample_rate,
            tuple(self.band),
            tuple(self.gamma_band),
            tuple(self.reference_band),
            n_samples,
        )

    def features(self, records: np.ndarray) -> np.ndarray:
        """(n_records, 2) features: [log gamma contrast, log in-band power]."""
        records = np.asarray(records, dtype=np.float64)
        if records.ndim != 2 or records.shape[1] == 0:
            raise ValueError(f"records must be (n_records, n_samples), got {records.shape}")
        plan = self._plan(records.shape[1])
        psd = plan.psd(records)
        bins, freqs = plan.in_band
        total = np.trapezoid(psd[:, bins], freqs, axis=1)
        total = np.where(total > 0, total, 1e-30)
        bins, freqs = plan.gamma
        gamma = np.trapezoid(psd[:, bins], freqs, axis=1)
        bins, freqs = plan.reference
        reference = np.trapezoid(psd[:, bins], freqs, axis=1)
        # Floor-compensated gamma contrast: marker power over the local
        # broadband floor (scaled to the gamma bandwidth).
        g_lo, g_hi = self.gamma_band
        r_lo, r_hi = self.reference_band
        bandwidth_ratio = (g_hi - g_lo) / (r_hi - r_lo)
        contrast = (gamma + 1e-30) / (reference * bandwidth_ratio + 1e-30)
        return np.column_stack([np.log10(contrast), np.log10(total)])

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
