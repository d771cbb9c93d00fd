"""Sample-and-hold model (Table II row 2).

The chain is simulated at the sampled rate already, so the functional job
of the S&H block is to add its electrical imperfections to each sample:

* **kT/C noise** of the sampling capacitor (the capacitor is sized from
  the design point's quantization-matched rule, the same sizing the power
  model assumes);
* **aperture jitter** -- timing noise converts to voltage noise through
  the signal slope, ``sigma_v = dV/dt * sigma_t``;
* **droop** -- leakage discharge during the hold interval (one conversion
  period).

Power is the charge-delivery bound of Table II.
"""

from __future__ import annotations

import numpy as np

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.power.models import sample_hold_power
from repro.power.technology import DesignPoint
from repro.util.constants import KT_ROOM
from repro.util.validation import check_non_negative, check_positive


class SampleHold(Block):
    """Behavioural S&H with kT/C noise, aperture jitter and droop.

    Parameters
    ----------
    capacitance:
        Sampling capacitor in farads (sets the kT/C noise floor).
    aperture_jitter:
        RMS sampling-instant jitter in seconds (0 disables).
    droop_rate:
        Hold-node discharge in volts/second (0 disables).
    hold_time:
        Hold interval for droop, in seconds; ``None`` uses one sample
        period of the incoming stream.
    kt:
        Thermal energy (exposed for tests; 0 disables kT/C noise).
    """

    def __init__(
        self,
        name: str = "sample_hold",
        capacitance: float = 1e-14,
        aperture_jitter: float = 0.0,
        droop_rate: float = 0.0,
        hold_time: float | None = None,
        kt: float = KT_ROOM,
    ):
        super().__init__(name)
        self.capacitance = check_positive("capacitance", capacitance)
        self.aperture_jitter = check_non_negative("aperture_jitter", aperture_jitter)
        self.droop_rate = check_non_negative("droop_rate", droop_rate)
        self.hold_time = None if hold_time is None else check_positive("hold_time", hold_time)
        self.kt = check_non_negative("kt", kt)

    @classmethod
    def from_design(
        cls,
        point: DesignPoint,
        name: str = "sample_hold",
        include_droop: bool = False,
    ) -> "SampleHold":
        """Size the capacitor (and optionally droop) from the design point.

        Droop is off by default: at Table III's I_leak = 1 pA the
        noise-sized (femtofarad) capacitor would droop by volts within one
        conversion -- real designs mitigate this with low-leakage switches
        and bottom-plate techniques that the paper's behavioural level
        abstracts away.  Leakage still appears as static power in the
        chain's power report; enable ``include_droop`` to study the raw
        effect explicitly.
        """
        cap = point.sampling_capacitance
        return cls(
            name=name,
            capacitance=cap,
            droop_rate=point.technology.i_leak / cap if include_droop else 0.0,
            kt=point.technology.kt,
        )

    @property
    def noise_rms(self) -> float:
        """kT/C noise RMS in volts."""
        if self.kt == 0:
            return 0.0
        return float(np.sqrt(self.kt / self.capacitance))

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        data = signal.data
        if data.ndim != 1:
            raise ValueError(f"S&H expects a 1-D stream, got shape {data.shape}")
        rng = ctx.rng(self.name)
        if self.aperture_jitter > 0:
            # Voltage error = slope * timing error, slope from differences.
            slope = np.gradient(data) * signal.sample_rate
            data = data + slope * rng.normal(0.0, self.aperture_jitter, size=data.shape)
        noise = self.noise_rms
        if noise > 0:
            data = data + rng.normal(0.0, noise, size=data.shape)
        if self.droop_rate > 0:
            hold = self.hold_time if self.hold_time is not None else 1.0 / signal.sample_rate
            droop = self.droop_rate * hold
            data = data - np.sign(data) * np.minimum(np.abs(data), droop)
        return signal.replaced(data=data)

    def power(self, point: DesignPoint) -> dict[str, float]:
        return {"sample_hold": sample_hold_power(point)}
