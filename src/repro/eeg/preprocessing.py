"""EEG preprocessing: resampling.

Implements the paper's Step 4 conditioning: the 173.61 Hz Bonn records are
upsampled to 512 Hz to mimic a continuous-time signal entering the analog
front-end.  FFT-based resampling handles the non-rational rate ratio
exactly on the fixed-length records.
"""

from __future__ import annotations

from scipy import signal as sp_signal

from repro.eeg.dataset import EegDataset, EegRecord
from repro.util.validation import check_positive

#: The simulation rate used by the paper after upsampling.
SIMULATION_RATE = 512.0


def resample_record(record: EegRecord, new_rate: float) -> EegRecord:
    """Resample one record to ``new_rate`` (FFT method, exact length ratio)."""
    check_positive("new_rate", new_rate)
    if new_rate == record.sample_rate:
        return record
    n_new = int(round(record.data.size * new_rate / record.sample_rate))
    data = sp_signal.resample(record.data, n_new)
    return EegRecord(
        data=data,
        sample_rate=new_rate,
        label=record.label,
        record_id=record.record_id,
        meta={**record.meta, "resampled_from": record.sample_rate},
    )


def resample_dataset(dataset: EegDataset, new_rate: float = SIMULATION_RATE) -> EegDataset:
    """Resample every record (the paper's 173.61 -> 512 Hz upsampling)."""
    return EegDataset(
        [resample_record(record, new_rate) for record in dataset],
        name=f"{dataset.name}@{new_rate:g}Hz",
    )

