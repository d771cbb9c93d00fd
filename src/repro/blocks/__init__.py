"""Functional block library: sources, LNA, S&H, SAR ADC, CS encoder, DSP, TX.

Every block couples a vectorised behavioural model with the matching
Table II power model, so assembling a chain from this library yields both
waveform quality and a power breakdown from a single simulation run.
"""

from repro.blocks.chains import (
    build_baseline_chain,
    build_chain,
    build_cs_chain,
    build_digital_cs_chain,
    encoder_attenuation,
)
from repro.blocks.cs_frontend import (
    CsEncoderBlock,
    CsReconstructionBlock,
    DigitalCsEncoderBlock,
    FramerBlock,
    frame_stream,
)
from repro.blocks.dsp import Normalizer
from repro.blocks.lna import LNA
from repro.blocks.sample_hold import SampleHold
from repro.blocks.sar_adc import SarAdc, ideal_quantize
from repro.blocks.sources import from_array, multitone, sine
from repro.blocks.transmitter import Transmitter

__all__ = [
    "CsEncoderBlock",
    "DigitalCsEncoderBlock",
    "CsReconstructionBlock",
    "FramerBlock",
    "LNA",
    "Normalizer",
    "SampleHold",
    "SarAdc",
    "Transmitter",
    "build_baseline_chain",
    "build_chain",
    "build_cs_chain",
    "build_digital_cs_chain",
    "encoder_attenuation",
    "frame_stream",
    "from_array",
    "ideal_quantize",
    "multitone",
    "sine",
]
