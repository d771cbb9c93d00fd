"""Digital signal conditioning (the paper's "DSP" box in Fig. 1).

:class:`Normalizer` is a digital gain/offset stage that maps
reconstructed streams back to sensor-referred units.
"""

from __future__ import annotations

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.util.validation import check_positive


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
