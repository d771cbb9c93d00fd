"""Seizure detection: the accuracy oracle of the pathfinding experiments.

:class:`SpectralCombDetector` is a deterministic spectral detector
(floor-compensated gamma contrast + log in-band power, logistic
read-out).  It stands in for the CNN of the paper's ref. [20] in every
experiment; see :mod:`repro.detection.spectral` for why a deterministic
oracle, not a learned network, drives the sweeps.
"""

from repro.detection.spectral import SpectralCombDetector, logistic_fit, logistic_predict

__all__ = [
    "SpectralCombDetector",
    "logistic_fit",
    "logistic_predict",
]
