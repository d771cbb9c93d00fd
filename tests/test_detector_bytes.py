"""The seizure detector's spectral plan pinned to oracles.

``SpectralCombDetector.features`` takes its Welch segmentation, scaled
window, frequency grid and band bins from a plan cached per (detector
configuration, record length), and computes the one-sided Welch PSD
itself.

* Byte lock: ``_allocating_psd`` and ``_integrals`` are the same
  sequence with the window, every mask and the power array rebuilt per
  call.  The plan's grid and PSD, and ``features()`` and
  ``predict_proba()`` of a fitted detector, must return exactly their
  bytes, dtype and shape, on interleaved record lengths and over
  Hypothesis-drawn ones (1, 4, 7, 8 and 10 segments, odd segment
  lengths), both corpus rates, amplitudes, all-zero records and
  non-finite samples.
* Tolerance oracle: ``_welch_psd`` is the PSD before the plan,
  ``scipy.signal.welch``, and with ``_integrals`` it gives ``features()``
  before the plan.  scipy releases differ in where ``welch`` applies the
  window's scale (before or after the FFT), so the two agree to a few
  ulps in general and to the byte on scipy 1.17.
* Fingerprint: the plan lives at module level, never on the detector,
  so scoring leaves the pickled detector and the evaluator's cache key
  unchanged.
"""

import pickle
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy import signal as sp_signal
from scipy.signal import get_window

from repro.core.execution import evaluator_fingerprint
from repro.core.explorer import FrontEndEvaluator
from repro.detection.spectral import SpectralCombDetector, _spectral_plan, logistic_predict
from repro.eeg.preprocessing import resample_dataset
from repro.eeg.synthetic import make_bonn_like_dataset
from repro.power.technology import DesignPoint

RATES = (173.61, 537.6)
#: ``features()`` against ``scipy.signal.welch``: 0 on scipy 1.17; a few
#: ulps where ``welch`` scales after the FFT.
WELCH_RTOL = 1e-12


def _integrals(det, freqs, psd):
    """The band integrals, with every mask rebuilt from ``freqs``."""
    low, high = det.band
    in_band = (freqs >= low) & (freqs <= high)
    total = np.trapezoid(psd[:, in_band], freqs[in_band], axis=1)
    total = np.where(total > 0, total, 1e-30)
    g_lo, g_hi = det.gamma_band
    gamma_mask = (freqs >= g_lo) & (freqs <= g_hi)
    gamma = np.trapezoid(psd[:, gamma_mask], freqs[gamma_mask], axis=1)
    r_lo, r_hi = det.reference_band
    ref_mask = (freqs >= r_lo) & (freqs <= r_hi)
    reference = np.trapezoid(psd[:, ref_mask], freqs[ref_mask], axis=1)
    bandwidth_ratio = (g_hi - g_lo) / (r_hi - r_lo)
    contrast = (gamma + 1e-30) / (reference * bandwidth_ratio + 1e-30)
    return np.column_stack([np.log10(contrast), np.log10(total)])


def _allocating_psd(det, records):
    """The plan's PSD sequence, with everything rebuilt and allocated per call."""
    n = records.shape[1]
    nperseg = min(n, int(det.sample_rate * 4))
    hop = nperseg - nperseg // 2
    window = get_window("hann", nperseg)
    window = window * (1 / np.sqrt(sum(window**2) / (1 / det.sample_rate)))
    freqs = sp_fft.rfftfreq(nperseg, 1 / det.sample_rate)
    starts = range(0, n - nperseg + 1, hop)
    # Each segment's power is added into its slot of a fresh (records,
    # freqs, segments) array, as in scipy's ``welch``: numpy's add into a
    # contiguous temporary takes the other operand's NaN in its tail lanes.
    power = np.empty((records.shape[0], freqs.size, len(starts)))
    for index, start in enumerate(starts):
        segment = records[:, start : start + nperseg]
        segment = segment - segment.mean(axis=-1, keepdims=True)
        spectrum = sp_fft.rfft(segment * window, axis=-1)
        np.add(spectrum.real**2, spectrum.imag**2, out=power[:, :, index])
    power[:, 1 : -1 if nperseg % 2 == 0 else None] *= 2
    return freqs, power.mean(axis=-1) if power.shape[-1] > 1 else power[..., 0]


def _welch_psd(det, records):
    """The PSD before the plan: ``scipy.signal.welch``."""
    nperseg = min(records.shape[1], int(det.sample_rate * 4))
    return sp_signal.welch(records, fs=det.sample_rate, nperseg=nperseg, axis=1)


def _assert_same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _assert_locked(det, records):
    """Plan, PSD, features and probabilities against both oracles."""
    freqs, psd = _allocating_psd(det, records)
    plan = det._plan(records.shape[1])
    _assert_same_bytes(plan.freqs, freqs)
    _assert_same_bytes(plan.psd(records), psd)
    want = _integrals(det, freqs, psd)
    _assert_same_bytes(det.features(records), want)
    standardized = (want - det._feature_mean) / det._feature_std
    _assert_same_bytes(det.predict_proba(records), logistic_predict(det._weights, standardized))

    welch_freqs, welch_psd = _welch_psd(det, records)
    _assert_same_bytes(welch_freqs, freqs)
    np.testing.assert_allclose(welch_psd, psd, rtol=WELCH_RTOL, atol=0.0)
    np.testing.assert_allclose(
        _integrals(det, welch_freqs, welch_psd), want, rtol=WELCH_RTOL, atol=0.0
    )


@st.composite
def _records(draw):
    """Records at one corpus rate, long enough for 1-10 Welch segments."""
    rate = draw(st.sampled_from(RATES))
    full = int(rate * 4)
    hop = full - full // 2
    if draw(st.booleans()):
        n_segments = draw(st.sampled_from([1, 4, 7, 8, 10]))
        n = full + (n_segments - 1) * hop + draw(st.integers(0, hop - 1))
    else:
        # Shorter than a full segment: the record is one odd-length segment.
        n = 2 * draw(st.integers(1, (full - 1) // 2)) + 1
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = 10.0 ** draw(st.floats(-9.0, -3.0))
    records = rng.normal(0.0, amplitude, size=(rows, n))
    kind = draw(st.sampled_from(["noise", "zeros", "zero-row", "non-finite"]))
    if kind == "zeros":
        records[:] = 0.0
    elif kind == "zero-row":
        records[rng.integers(rows)] = 0.0
    elif kind == "non-finite":
        picks = rng.random(records.shape) < 0.01
        records[picks] = rng.choice([np.nan, np.inf, -np.inf], size=int(picks.sum()))
    return rate, records


def _corpus(n_records, seed, samples, rate=537.6):
    dataset = resample_dataset(make_bonn_like_dataset(n_records=n_records, seed=seed), rate)
    return dataset.stacked(samples), dataset.labels()


@lru_cache(maxsize=None)
def _fitted(rate):
    return SpectralCombDetector(sample_rate=rate).fit(*_corpus(30, 11, 3072, rate))


@settings(max_examples=120, deadline=None)
@given(case=_records())
def test_features_bits_match_the_allocating_sequence(case):
    rate, records = case
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        _assert_locked(_fitted(rate), records)


def test_features_bits_on_interleaved_record_lengths():
    # Paper-length records (10 segments) and the smoke length (1) in
    # turn, and a short odd one: a plan served to the wrong length, or
    # changed by an earlier call, shows here.
    records, _ = _corpus(8, 12, 12_672)
    for n in [3072, 12_672, 1501, 3072, 6144, 12_672, 1501, 9999]:
        _assert_locked(_fitted(537.6), records[:, :n])


@pytest.mark.parametrize("rows", [1, 3])
def test_non_finite_samples_keep_scipys_nan_bits(rows):
    # scipy transforms one segment of every record per ``rfft`` call.  At
    # this segment length (694 = 2 x 347), transforming all segments in
    # one batch flips the sign of some NaNs, which the byte lock sees.
    rng = np.random.default_rng(rows)
    records = rng.normal(0.0, 1e-5, size=(rows, 4142))  # 10 segments at 173.61 Hz
    picks = rng.random(records.shape) < 0.01
    records[picks] = rng.choice([np.nan, np.inf, -np.inf], size=int(picks.sum()))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        _assert_locked(_fitted(173.61), records)


def test_plan_arrays_are_read_only():
    plan = SpectralCombDetector(sample_rate=537.6)._plan(12_672)
    arrays = [plan.window, plan.freqs]
    for bins, freqs in (plan.in_band, plan.gamma, plan.reference):
        arrays += [bins, freqs]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_plan_is_shared_across_detectors_and_list_valued_bands():
    # The cache key is built from hashable copies: list-valued fields
    # work and reach the same plan as their tuples.
    a = SpectralCombDetector(sample_rate=537.6)
    b = SpectralCombDetector(
        sample_rate=537.6,
        band=list(a.band),
        gamma_band=list(a.gamma_band),
        reference_band=list(a.reference_band),
    )
    assert b._plan(3072) is a._plan(3072)
    records = np.random.default_rng(3).normal(0.0, 1e-5, size=(3, 3072))
    _assert_same_bytes(b.features(records), a.features(records))


def test_scoring_leaves_the_pickled_detector_and_fingerprint_alone():
    _spectral_plan.cache_clear()
    records, labels = _corpus(6, 13, 3072)
    detector = pickle.loads(pickle.dumps(_fitted(537.6)))
    evaluator = FrontEndEvaluator(records, labels, 537.6, detector=detector, seed=5)
    before = pickle.dumps(detector), evaluator_fingerprint(evaluator)
    evaluation = evaluator.evaluate(DesignPoint(n_bits=8, lna_noise_rms=2e-6))
    assert "accuracy" in evaluation.metrics
    detector.predict_proba(records[:, :2000])
    assert (pickle.dumps(detector), evaluator_fingerprint(evaluator)) == before
