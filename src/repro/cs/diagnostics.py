"""Diagnostics for sensing-matrix / dictionary quality.

Two small numerical tools used when choosing CS parameters: the mutual
coherence of a dictionary, and the weight dynamic range of the
charge-sharing encoder's effective matrix (the C_hold/C_sample ablation
reports it).
"""

from __future__ import annotations

import numpy as np


def mutual_coherence(a: np.ndarray) -> float:
    """Maximum normalised off-diagonal Gram entry of ``a``'s columns."""
    norms = np.linalg.norm(a, axis=0)
    norms = np.where(norms == 0, 1.0, norms)
    gram = (a / norms).T @ (a / norms)
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram)))


def weight_dynamic_range(phi_eff: np.ndarray) -> float:
    """Ratio of the largest to the smallest nonzero |weight| of ``phi_eff``.

    For the charge-sharing encoder this quantifies how uneven the
    accumulation weights are: a large value means early samples are nearly
    invisible in the measurement, degrading the conditioning of the
    effective dictionary.  Controlled by the C_hold/C_sample ratio.
    """
    magnitudes = np.abs(phi_eff[phi_eff != 0])
    if magnitudes.size == 0:
        raise ValueError("phi_eff has no nonzero entries")
    return float(magnitudes.max() / magnitudes.min())
