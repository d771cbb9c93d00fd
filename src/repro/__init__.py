"""EffiCSense -- architectural pathfinding for energy-constrained sensors.

A faithful Python reproduction of *"EffiCSense: an Architectural
Pathfinding Framework for Energy-Constrained Sensor Applications"*
(Van Assche, Helsen, Gielen -- DATE 2022), built on numpy/scipy instead of
MATLAB Simulink.

Package map
-----------
``repro.core``
    Block/dataflow simulation engine, parameter spaces, goal functions,
    Pareto extraction, the design-space explorer.
``repro.blocks``
    Functional + power coupled block library: sources, LNA, S&H, SAR ADC,
    passive charge-sharing CS encoder, DSP, transmitter, and pre-wired
    chains for the paper's two architectures.
``repro.power``
    Table II analytical power models, Table III technology constants,
    the Fig. 9 capacitor-area model.
``repro.cs``
    CS mathematics: s-SRBM matrices, charge-sharing algebra (Eq. 1),
    DCT/wavelet dictionaries, OMP/ISTA/FISTA reconstruction.
``repro.eeg``
    Synthetic Bonn-like EEG corpus and preprocessing (Step 4 substitute).
``repro.detection``
    Deterministic spectral seizure detector (the accuracy goal oracle).
``repro.metrics``
    SNR/SNDR/ENOB, NMSE/PRD.
``repro.faults``
    Composable fault injection (dropouts, ADC bit faults, saturation
    bursts, drift, packet loss, NaN glitches) and Monte-Carlo yield
    analysis.
``repro.experiments``
    One module per paper table/figure, plus the scaled experiment harness.

Quickstart
----------
>>> from repro.power import DesignPoint
>>> from repro.blocks import build_baseline_chain, sine
>>> from repro.core import Simulator
>>> point = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
>>> src = sine(frequency=40.0, amplitude=0.9e-3,
...            sample_rate=point.f_sample, n_samples=4096)
>>> result = Simulator(build_baseline_chain(point), point, seed=1).run(src)
>>> result.power.total_uw  # doctest: +SKIP
8.34
"""

__version__ = "1.4.0"

from repro.power.technology import GPDK045, DesignPoint, Technology

__all__ = ["DesignPoint", "GPDK045", "Technology", "__version__"]
