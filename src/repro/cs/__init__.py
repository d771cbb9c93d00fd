"""Compressive-sensing mathematics: matrices, charge-sharing, reconstruction.

This package implements the CS substrate the paper's architecture depends
on: s-SRBM sensing matrices (Zhao et al. [9]), the passive charge-sharing
encoder algebra of Section III / Eq. (1) with its analog non-idealities,
sparsifying dictionaries (DCT, orthogonal wavelets), and from-scratch
OMP/ISTA/FISTA reconstruction.
"""

from repro.cs.charge_sharing import (
    ChargeSharingConfig,
    ChargeSharingEncoder,
    EncoderPerturbation,
    effective_matrix,
)
from repro.cs.diagnostics import (
    mutual_coherence,
    weight_dynamic_range,
)
from repro.cs.dictionaries import (
    WAVELET_FILTERS,
    dct_basis,
    identity_basis,
    make_basis,
    wavelet_basis,
)
from repro.cs.matrices import (
    SensingMatrix,
    bernoulli,
    gaussian,
    make_sensing_matrix,
    srbm,
    srbm_balanced,
)
from repro.cs.reconstruction import (
    Reconstructor,
    fista,
    ista,
    least_squares_on_support,
    omp,
)

__all__ = [
    "ChargeSharingConfig",
    "ChargeSharingEncoder",
    "EncoderPerturbation",
    "Reconstructor",
    "SensingMatrix",
    "WAVELET_FILTERS",
    "bernoulli",
    "dct_basis",
    "effective_matrix",
    "fista",
    "gaussian",
    "identity_basis",
    "ista",
    "least_squares_on_support",
    "make_basis",
    "make_sensing_matrix",
    "mutual_coherence",
    "omp",
    "srbm",
    "srbm_balanced",
    "wavelet_basis",
    "weight_dynamic_range",
]
