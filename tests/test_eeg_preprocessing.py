"""Tests of EEG preprocessing (resampling)."""

import numpy as np
import pytest

from repro.eeg.dataset import EegDataset, EegRecord
from repro.eeg.preprocessing import (
    SIMULATION_RATE,
    resample_dataset,
    resample_record,
)


def tone_record(freq=10.0, rate=173.61, duration=2.0, label=0):
    n = int(round(rate * duration))
    t = np.arange(n) / rate
    return EegRecord(np.sin(2 * np.pi * freq * t), rate, label, "tone")


class TestResample:
    def test_paper_upsampling_ratio(self):
        record = tone_record(duration=23.6)
        up = resample_record(record, 512.0)
        assert up.sample_rate == 512.0
        expected = int(round(record.data.size * 512.0 / 173.61))
        assert up.data.size == expected

    def test_tone_preserved(self):
        record = tone_record(freq=10.0)
        up = resample_record(record, 512.0)
        spectrum = np.abs(np.fft.rfft(up.data * np.hanning(up.data.size)))
        freqs = np.fft.rfftfreq(up.data.size, 1 / 512.0)
        peak = freqs[np.argmax(spectrum)]
        assert peak == pytest.approx(10.0, abs=0.5)

    def test_same_rate_is_identity(self):
        record = tone_record()
        assert resample_record(record, record.sample_rate) is record

    def test_metadata_provenance(self):
        up = resample_record(tone_record(), 512.0)
        assert up.meta["resampled_from"] == pytest.approx(173.61)

    def test_dataset_resample(self):
        ds = EegDataset([tone_record(), tone_record()])
        up = resample_dataset(ds, SIMULATION_RATE)
        assert up.sample_rate == SIMULATION_RATE
        assert len(up) == 2

    def test_energy_approximately_preserved(self):
        record = tone_record(freq=5.0, duration=4.0)
        up = resample_record(record, 512.0)
        assert np.std(up.data) == pytest.approx(np.std(record.data), rel=0.05)

