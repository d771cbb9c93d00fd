"""Low-noise amplifier model (paper Fig. 3 + Table II row 1).

Functional pipeline, in signal order:

1. **Input-referred noise** -- additive white Gaussian noise with total RMS
   equal to the design's ``lna_noise_rms``.  The sampled simulation runs
   below the LNA bandwidth (BW_LNA = 3 x BW_in vs f_sim = 2 x BW_in), so
   the out-of-band part of the LNA's noise aliases into the sampled band;
   injecting the full integrated RMS models exactly that, matching how a
   S&H downstream would fold the wideband noise.
2. **Gain** -- linear voltage gain.
3. **Bandwidth** -- single-pole low-pass at BW_LNA (applied as a bilinear
   IIR; a no-op when BW_LNA is above simulation Nyquist, which is the
   paper's default geometry).
4. **Non-linearity** -- odd third-order term ``v + a3 v^3`` expressed via
   ``hd3_at_fs``: the third-harmonic distortion ratio when driven at
   full-scale output amplitude (a designer-facing spec rather than a raw
   polynomial coefficient).  Inputs past the cubic's turning point are
   held there, so the transfer never folds back.
5. **Clipping** -- hard saturation at the output swing limit (supply rail
   by default).

The power model is the three-bound maximum of Table II (see
:func:`repro.power.models.lna_power`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import signal as sp_signal

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.power.models import lna_power
from repro.power.technology import DesignPoint
from repro.util.validation import check_non_negative, check_positive


class LNA(Block):
    """Behavioural LNA with noise, gain, bandwidth, distortion and clipping.

    Parameters
    ----------
    gain:
        Linear voltage gain (> 0).
    noise_rms:
        Total input-referred noise in Vrms (0 disables noise injection).
    bandwidth:
        -3 dB bandwidth in Hz; ``None`` for an ideal (unlimited) response.
    hd3_at_fs:
        Third-harmonic distortion (amplitude ratio, e.g. 0.001 = -60 dBc)
        when the *output* swings to ``clip_level``.  0 disables the
        non-linearity.
    clip_level:
        Output saturation in volts (None disables clipping).
    """

    def __init__(
        self,
        name: str = "lna",
        gain: float = 1000.0,
        noise_rms: float = 0.0,
        bandwidth: float | None = None,
        hd3_at_fs: float = 0.0,
        clip_level: float | None = None,
    ):
        super().__init__(name)
        self.gain = check_positive("gain", gain)
        self.noise_rms = check_non_negative("noise_rms", noise_rms)
        self.bandwidth = None if bandwidth is None else check_positive("bandwidth", bandwidth)
        self.hd3_at_fs = check_non_negative("hd3_at_fs", hd3_at_fs)
        self.clip_level = None if clip_level is None else check_positive("clip_level", clip_level)

    @classmethod
    def from_design(cls, point: DesignPoint, name: str = "lna", hd3_at_fs: float = 1e-4) -> "LNA":
        """Configure the LNA from a design point (gain, noise, BW, clip)."""
        return cls(
            name=name,
            gain=point.lna_gain,
            noise_rms=point.lna_noise_rms,
            bandwidth=point.bw_lna,
            hd3_at_fs=hd3_at_fs,
            clip_level=point.v_fs / 2.0,
        )

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        data = signal.data
        if data.ndim != 1:
            raise ValueError(f"LNA expects a 1-D stream, got shape {data.shape}")
        # 1. input-referred noise
        if self.noise_rms > 0:
            rng = ctx.rng(self.name)
            data = data + rng.normal(0.0, self.noise_rms, size=data.shape)
        # 2. gain
        data = data * self.gain
        # 3. bandwidth limitation (single pole)
        if self.bandwidth is not None and self.bandwidth < signal.sample_rate / 2:
            b, a = sp_signal.butter(1, self.bandwidth, fs=signal.sample_rate)
            data = sp_signal.lfilter(b, a, data)
        # 4. third-order non-linearity: v - a3 v^3 (compressive), with a3
        #    chosen so the HD3 of a clip-level sine equals hd3_at_fs.
        #    For v = A sin(wt): HD3 amplitude ratio = a3 A^2 / 4.  The cube
        #    is two multiplies: ``data**3`` goes through libm's ``pow``,
        #    which is far slower.  The cubic peaks at v_turn = 1/sqrt(3 a3)
        #    and falls beyond it, so larger inputs are held at v_turn: an
        #    overdriven amplifier saturates, it does not fold back.
        if self.hd3_at_fs > 0 and self.clip_level is not None:
            a3 = 4.0 * self.hd3_at_fs / self.clip_level**2
            v_turn = 1.0 / math.sqrt(3.0 * a3)
            np.clip(data, -v_turn, v_turn, out=data)
            data = data - a3 * (data * data * data)
        # 5. clipping
        if self.clip_level is not None:
            data = np.clip(data, -self.clip_level, self.clip_level)
        return signal.replaced(data=data, lna_gain=self.gain)

    def power(self, point: DesignPoint) -> dict[str, float]:
        return {"lna": lna_power(point)}
