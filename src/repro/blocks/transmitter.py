"""Transmitter / storage model (Table II row 6).

Functionally the transmitter is lossless -- it forwards the digitised
stream -- but it dominates the sensor power budget (E_bit per transmitted
bit, refs [4], [12] of the paper).  The block counts the bits it would
radiate and reports the corresponding power; the compression achieved by
the CS encoder shows up here as the biggest single saving of Fig. 8.
"""

from __future__ import annotations

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.power.models import transmitter_power
from repro.power.technology import DesignPoint
from repro.util.validation import check_positive, check_positive_int


class Transmitter(Block):
    """Bit-counting transmitter with the E_bit energy model.

    Parameters
    ----------
    bits_per_sample:
        Word width of each transmitted sample (the ADC resolution).
    e_bit:
        Energy per transmitted bit in joules.
    """

    def __init__(self, name: str = "transmitter", bits_per_sample: int = 8, e_bit: float = 1e-9):
        super().__init__(name)
        self.bits_per_sample = check_positive_int("bits_per_sample", bits_per_sample)
        self.e_bit = check_positive("e_bit", e_bit)
        self.transmitted_bits = 0

    @classmethod
    def from_design(cls, point: DesignPoint, name: str = "transmitter") -> "Transmitter":
        """Configure word width and E_bit from the design point."""
        return cls(name=name, bits_per_sample=point.n_bits, e_bit=point.technology.e_bit)

    def reset(self) -> None:
        self.transmitted_bits = 0

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        self.transmitted_bits += signal.n_samples * self.bits_per_sample
        return signal.replaced(transmitted_bits=self.transmitted_bits)

    def energy(self) -> float:
        """Total transmit energy of the processed stream, joules."""
        return self.transmitted_bits * self.e_bit

    def average_power(self, duration: float) -> float:
        """Average transmit power over ``duration`` seconds (measured)."""
        check_positive("duration", duration)
        return self.energy() / duration

    def power(self, point: DesignPoint) -> dict[str, float]:
        return {"transmitter": transmitter_power(point)}
