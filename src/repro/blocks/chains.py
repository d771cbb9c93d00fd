"""Pre-wired front-end chains for the two architectures of Fig. 1.

These builders assemble the standard baseline and compressive-sensing
acquisition chains from a :class:`~repro.power.technology.DesignPoint`,
wiring every block's electrical parameters from the shared design point so
the functional simulation and the power estimate stay consistent -- the
core discipline of the framework.

Both chains end in a :class:`~repro.blocks.dsp.Normalizer` so their output
is sensor-referred (LNA gain removed) and directly comparable against the
clean input for SNR/accuracy goals.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.cs_frontend import CsEncoderBlock, CsReconstructionBlock
from repro.blocks.dsp import Normalizer
from repro.blocks.lna import LNA
from repro.blocks.sample_hold import SampleHold
from repro.blocks.sar_adc import SarAdc
from repro.blocks.transmitter import Transmitter
from repro.core.system import SystemModel
from repro.cs.matrices import SensingMatrix, make_sensing_matrix
from repro.cs.reconstruction import FistaReconstructorFactory, Reconstructor
from repro.power.technology import DesignPoint
from repro.util.rng import derive_seed


def build_baseline_chain(point: DesignPoint, seed: int = 0) -> SystemModel:
    """Classical acquisition chain: LNA -> S&H -> SAR ADC -> TX (Fig. 1 a).

    ``seed`` controls the static mismatch realisations (one fabricated
    instance); the per-run noise comes from the simulator's context.
    """
    if point.use_cs:
        raise ValueError("design point has use_cs=True; use build_cs_chain")
    return SystemModel(
        [
            LNA.from_design(point),
            SampleHold.from_design(point),
            SarAdc.from_design(point, seed=derive_seed(seed, "adc-mismatch")),
            Transmitter.from_design(point),
            Normalizer(),
        ],
        name="baseline",
    )


def encoder_attenuation(phi_effective) -> float:
    """RMS attenuation of the passive encoder for white inputs.

    For a zero-mean uncorrelated input of variance ``s^2`` the measurement
    on row i has variance ``s^2 * sum_j w_ij^2``, so the encoder's
    amplitude scale is ``sqrt(mean_i sum_j w_ij^2)``.  The charge-sharing
    weights (a * b^k, all < 1) make this well below 1 -- unlike a digital
    binary encoder, which *amplifies* by sqrt(row degree).
    """
    row_energy = float(np.mean(np.sum(np.square(phi_effective), axis=1)))
    if row_energy <= 0:
        raise ValueError("effective matrix has no energy")
    return float(row_energy**0.5)


def build_cs_chain(
    point: DesignPoint,
    matrix: SensingMatrix | None = None,
    reconstructor: Reconstructor | None = None,
    seed: int = 0,
    compensate_attenuation: bool = True,
) -> SystemModel:
    """Compressive chain: LNA -> CS encoder -> SAR ADC -> TX -> reconstruction.

    Parameters
    ----------
    point:
        Design point with ``use_cs=True`` (defines M, N_phi, s, capacitor
        sizing).
    matrix:
        s-SRBM routing matrix; generated from the design point (balanced
        variant, seeded) when omitted.
    reconstructor:
        Receiver-side solver; defaults to the one
        :class:`~repro.cs.reconstruction.FistaReconstructorFactory` builds.
    seed:
        Controls matrix generation and mismatch realisations.
    compensate_attenuation:
        Scale the LNA gain by the inverse of the encoder's passive
        charge-sharing attenuation so the compressed measurements use the
        same fraction of the ADC full scale as the baseline chain does --
        the gain-plan step any designer performs (without it the
        measurements sit several LSBs down and quantization dominates).
        The boost is a few units and does not move the LNA's power-
        dominating noise bound.
    """
    if not point.use_cs:
        raise ValueError("design point has use_cs=False; use build_baseline_chain")
    if point.cs_architecture != "analog":
        raise ValueError(
            "design point selects the digital CS encoder; use build_digital_cs_chain"
        )
    if matrix is None:
        matrix = make_sensing_matrix(
            "srbm",
            point.cs_m,
            point.cs_n_phi,
            sparsity=point.cs_sparsity,
            seed=derive_seed(seed, "sensing-matrix"),
        )
    if matrix.m != point.cs_m or matrix.n != point.cs_n_phi:
        raise ValueError(
            f"matrix is {matrix.m}x{matrix.n} but design point wants "
            f"{point.cs_m}x{point.cs_n_phi}"
        )
    if reconstructor is None:
        reconstructor = FistaReconstructorFactory()(point)
    encoder = CsEncoderBlock.from_design(point, matrix, seed=derive_seed(seed, "cs-mismatch"))
    lna = LNA.from_design(point)
    if compensate_attenuation:
        lna.gain = point.lna_gain / encoder_attenuation(encoder.phi_effective)
    return SystemModel(
        [
            lna,
            encoder,
            SarAdc.from_design(point, seed=derive_seed(seed, "adc-mismatch")),
            Transmitter.from_design(point),
            CsReconstructionBlock(reconstructor),
            Normalizer(),
        ],
        name="cs",
    )


def build_digital_cs_chain(
    point: DesignPoint,
    matrix: SensingMatrix | None = None,
    reconstructor: Reconstructor | None = None,
    seed: int = 0,
) -> SystemModel:
    """Digital-CS chain: LNA -> S&H -> full-rate ADC -> MAC encoder -> TX.

    The Chen [2]-style comparator the paper's Section III motivates
    exploring: the measurement is computed exactly in the digital domain
    (binary Phi, no analog encoder non-idealities), but every input sample
    must be digitised, and the MAC logic replaces the passive capacitor
    network -- the trade the Fig. 8-style breakdown exposes.
    """
    if not (point.use_cs and point.cs_architecture == "digital"):
        raise ValueError(
            "design point must have use_cs=True and cs_architecture='digital'"
        )
    if matrix is None:
        matrix = make_sensing_matrix(
            "srbm",
            point.cs_m,
            point.cs_n_phi,
            sparsity=point.cs_sparsity,
            seed=derive_seed(seed, "sensing-matrix"),
        )
    if matrix.m != point.cs_m or matrix.n != point.cs_n_phi:
        raise ValueError(
            f"matrix is {matrix.m}x{matrix.n} but design point wants "
            f"{point.cs_m}x{point.cs_n_phi}"
        )
    if reconstructor is None:
        reconstructor = FistaReconstructorFactory()(point)
    from repro.blocks.cs_frontend import DigitalCsEncoderBlock

    return SystemModel(
        [
            LNA.from_design(point),
            SampleHold.from_design(point),
            SarAdc.from_design(point, seed=derive_seed(seed, "adc-mismatch")),
            DigitalCsEncoderBlock(matrix),
            Transmitter.from_design(point),
            CsReconstructionBlock(reconstructor),
            Normalizer(),
        ],
        name="cs-digital",
    )


def build_chain(point: DesignPoint, seed: int = 0, **kwargs) -> SystemModel:
    """Dispatch to the architecture selected by the design point."""
    if point.use_cs:
        if point.cs_architecture == "digital":
            return build_digital_cs_chain(point, seed=seed, **kwargs)
        return build_cs_chain(point, seed=seed, **kwargs)
    return build_baseline_chain(point, seed=seed)
