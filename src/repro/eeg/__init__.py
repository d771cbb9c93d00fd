"""EEG substrate: dataset containers, synthetic Bonn-like generator,
preprocessing (Step 4 of the paper's flow)."""

from repro.eeg.dataset import NON_SEIZURE, SEIZURE, EegDataset, EegRecord
from repro.eeg.preprocessing import (
    SIMULATION_RATE,
    resample_dataset,
    resample_record,
)
from repro.eeg.synthetic import (
    BANDS,
    BONN_DURATION,
    BONN_SAMPLE_RATE,
    SyntheticEegConfig,
    colored_noise,
    generate_background,
    generate_record,
    make_bonn_like_dataset,
)

__all__ = [
    "BANDS",
    "BONN_DURATION",
    "BONN_SAMPLE_RATE",
    "EegDataset",
    "EegRecord",
    "NON_SEIZURE",
    "SEIZURE",
    "SIMULATION_RATE",
    "SyntheticEegConfig",
    "colored_noise",
    "generate_background",
    "generate_record",
    "make_bonn_like_dataset",
    "resample_dataset",
    "resample_record",
]
