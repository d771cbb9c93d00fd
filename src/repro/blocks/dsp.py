"""Digital signal-conditioning blocks (the paper's "DSP" box in Fig. 1).

Simple vectorised digital stages used for signal conditioning ahead of
the transmitter or the application metric: FIR low-pass/band-pass
filtering, decimation, and a digital gain/offset normaliser used to map
reconstructed streams back to sensor-referred units.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.util.validation import check_positive, check_positive_int


class FirFilter(Block):
    """Linear-phase FIR filter (windowed-sinc design via scipy.firwin).

    Parameters
    ----------
    cutoff:
        Scalar for low-pass, (low, high) pair for band-pass, in Hz.
    n_taps:
        Filter order + 1 (odd keeps the group delay integer).
    """

    def __init__(
        self,
        cutoff: float | tuple[float, float],
        n_taps: int = 63,
        name: str = "fir",
    ):
        super().__init__(name)
        self.n_taps = check_positive_int("n_taps", n_taps)
        self.cutoff = cutoff
        self._taps_cache: dict[float, np.ndarray] = {}

    def _taps(self, sample_rate: float) -> np.ndarray:
        taps = self._taps_cache.get(sample_rate)
        if taps is None:
            if np.isscalar(self.cutoff):
                taps = sp_signal.firwin(self.n_taps, self.cutoff, fs=sample_rate)
            else:
                low, high = self.cutoff
                taps = sp_signal.firwin(
                    self.n_taps, [low, high], pass_zero=False, fs=sample_rate
                )
            self._taps_cache[sample_rate] = taps
        return taps

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        taps = self._taps(signal.sample_rate)
        # Zero-phase compensation: shift by the integer group delay.
        filtered = np.convolve(signal.data, taps, mode="full")
        delay = (len(taps) - 1) // 2
        filtered = filtered[delay : delay + signal.data.size]
        return signal.replaced(data=filtered)


class Decimator(Block):
    """Integer decimation with anti-alias FIR pre-filtering."""

    def __init__(self, factor: int, name: str = "decimator"):
        super().__init__(name)
        self.factor = check_positive_int("factor", factor)

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        if self.factor == 1:
            return signal
        data = sp_signal.decimate(signal.data, self.factor, ftype="fir", zero_phase=True)
        return signal.replaced(data=data, sample_rate=signal.sample_rate / self.factor)


class Normalizer(Block):
    """Digital gain/offset stage, e.g. to undo the LNA gain.

    ``gain=None`` divides by the ``lna_gain`` annotation if present
    (sensor-referred output), else leaves the data unchanged.
    """

    def __init__(self, gain: float | None = None, offset: float = 0.0, name: str = "normalizer"):
        super().__init__(name)
        self.gain = None if gain is None else check_positive("gain", gain)
        self.offset = float(offset)

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        gain = self.gain
        if gain is None:
            gain = signal.annotations.get("lna_gain", 1.0)
        return signal.replaced(data=signal.data / gain + self.offset)
