"""CS front-end blocks: framing, passive encoder, reconstruction.

Three blocks implement the compressive branch of the paper's Fig. 1 b):

* :class:`CsEncoderBlock` -- splits the incoming stream into N_phi-sample
  frames and runs the passive charge-sharing accumulation of Section III
  on each, emitting (n_frames, M) compressed measurements.  The nominal
  effective matrix ``Phi_eff`` is attached to the signal's annotations so
  downstream reconstruction uses the correct (weighted) model without any
  out-of-band plumbing.
* :class:`CsReconstructionBlock` -- recovers the frames with the
  configured solver/basis and re-assembles the 1-D stream.  This block
  models the *receiver side* (base station / phone), so it contributes no
  power to the sensor budget -- exactly the asymmetry CS exploits.
* :class:`FramerBlock` -- standalone framing utility (also used by tests).
"""

from __future__ import annotations

import numpy as np

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.cs.charge_sharing import ChargeSharingConfig, ChargeSharingEncoder
from repro.cs.matrices import SensingMatrix
from repro.cs.reconstruction import Reconstructor
from repro.power.models import cs_encoder_logic_power
from repro.power.technology import DesignPoint
from repro.util.validation import check_positive_int


def frame_stream(data: np.ndarray, frame_length: int) -> np.ndarray:
    """Split a 1-D stream into complete frames, dropping the remainder.

    Returns shape (n_frames, frame_length).  Raises if not even one
    complete frame is available.
    """
    frame_length = check_positive_int("frame_length", frame_length)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1:
        raise ValueError(f"expected 1-D stream, got shape {data.shape}")
    n_frames = data.size // frame_length
    if n_frames == 0:
        raise ValueError(
            f"stream of {data.size} samples is shorter than one frame ({frame_length})"
        )
    return data[: n_frames * frame_length].reshape(n_frames, frame_length)


class FramerBlock(Block):
    """Reshape a 1-D stream into (n_frames, frame_length) frames."""

    def __init__(self, frame_length: int, name: str = "framer"):
        super().__init__(name)
        self.frame_length = check_positive_int("frame_length", frame_length)

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        frames = frame_stream(signal.data, self.frame_length)
        return signal.replaced(data=frames, frame_length=self.frame_length)


class CsEncoderBlock(Block):
    """Passive charge-sharing CS encoder as a chain block.

    Parameters
    ----------
    matrix:
        The s-SRBM routing matrix (M x N_phi).
    config:
        Electrical configuration of the capacitor network.
    seed:
        Mismatch-realisation seed of this encoder instance.  The per-run
        noise stream comes from the simulation context, so identical runs
        replay identically while distinct design points decorrelate.
    """

    def __init__(
        self,
        matrix: SensingMatrix,
        config: ChargeSharingConfig,
        name: str = "cs_encoder",
        seed: int | None = None,
    ):
        super().__init__(name)
        self.matrix = matrix
        self.config = config
        self.seed = seed
        self._encoder = ChargeSharingEncoder(matrix=matrix, config=config, seed=seed)

    @classmethod
    def from_design(
        cls,
        point: DesignPoint,
        matrix: SensingMatrix,
        name: str = "cs_encoder",
        seed: int | None = None,
    ) -> "CsEncoderBlock":
        """Wire capacitor sizing and mismatch from the design point.

        Mismatch sigmas follow Pelgrom from the technology.  Leakage droop
        is off, for the same reason as in :meth:`SampleHold.from_design`:
        at Table III's raw I_leak the pathfinding-scale hold capacitors
        would droop by volts over a frame, which real charge-sharing
        designs prevent with low-leakage switches; leakage remains in the
        static-power budget.  A droop study builds the block from a
        :class:`ChargeSharingConfig` with ``i_leak`` set.
        """
        tech = point.technology
        c_hold = point.cs_hold_capacitance
        c_sample = point.cs_sample_capacitance
        config = ChargeSharingConfig(
            c_sample=c_sample,
            c_hold=c_hold,
            kt=tech.kt,
            mismatch_sigma_sample=tech.cap_mismatch_sigma(c_sample),
            mismatch_sigma_hold=tech.cap_mismatch_sigma(c_hold),
            f_sample=point.f_sample,
        )
        return cls(matrix=matrix, config=config, name=name, seed=seed)

    @property
    def phi_effective(self) -> np.ndarray:
        """Nominal weighted sensing matrix (reconstruction model)."""
        return self._encoder.phi_effective

    def reset(self) -> None:
        self._encoder.reset_noise()

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx  # noise stream is owned by the encoder (seeded, replayable)
        frames = frame_stream(signal.data, self.matrix.n)
        measurements = self._encoder.encode(frames)
        frame_rate = signal.sample_rate / self.matrix.n
        return signal.replaced(
            data=measurements,
            sample_rate=frame_rate * self.matrix.m,
            domain="compressed",
            phi_effective=self.phi_effective,
            cs_frame_length=self.matrix.n,
            cs_measurements=self.matrix.m,
            input_sample_rate=signal.sample_rate,
        )

    def power(self, point: DesignPoint) -> dict[str, float]:
        # One routing switch pair per sampling capacitor plus one per hold
        # capacitor leaks statically (Table III's I_leak per switch).
        tech = point.technology
        n_switches = point.cs_sparsity + point.cs_m
        return {
            "cs_encoder": cs_encoder_logic_power(point),
            "leakage": n_switches * tech.i_leak * point.v_dd,
        }


class DigitalCsEncoderBlock(Block):
    """Post-ADC digital MAC CS encoder (the Chen [2]-style comparator).

    Computes the exact binary measurement ``y = Phi x`` on the digitised
    samples -- no analog non-idealities, but the ADC upstream must run at
    the full input rate (the power model charges it accordingly).  The
    plain ``Phi`` is attached as ``phi_effective`` so the same
    reconstruction block serves both encoder variants.
    """

    def __init__(self, matrix: SensingMatrix, name: str = "cs_encoder"):
        super().__init__(name)
        self.matrix = matrix

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        frames = frame_stream(signal.data, self.matrix.n)
        measurements = self.matrix.measure(frames)
        frame_rate = signal.sample_rate / self.matrix.n
        return signal.replaced(
            data=measurements,
            sample_rate=frame_rate * self.matrix.m,
            domain="compressed",
            phi_effective=self.matrix.phi,
            cs_frame_length=self.matrix.n,
            cs_measurements=self.matrix.m,
            input_sample_rate=signal.sample_rate,
        )

    def power(self, point: DesignPoint) -> dict[str, float]:
        from repro.power.models import digital_cs_encoder_power

        return {"cs_encoder": digital_cs_encoder_power(point)}


class CsReconstructionBlock(Block):
    """Receiver-side sparse reconstruction of compressed frames.

    Consumes the ``phi_effective`` annotation placed by the encoder (after
    quantization the annotation is still attached -- the ADC preserves
    annotations) and emits the re-assembled 1-D stream at the original
    input rate.  Contributes no sensor-side power.
    """

    def __init__(self, reconstructor: Reconstructor, name: str = "reconstruction"):
        super().__init__(name)
        self.reconstructor = reconstructor

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        if signal.data.ndim != 2:
            raise ValueError(
                f"reconstruction expects (n_frames, M) measurements, got {signal.data.shape}"
            )
        phi_eff = signal.annotations.get("phi_effective")
        if phi_eff is None:
            raise ValueError(
                "signal carries no 'phi_effective' annotation; place a "
                "CsEncoderBlock upstream"
            )
        frames = self.reconstructor.recover(phi_eff, signal.data)
        stream = np.asarray(frames).reshape(-1)
        rate = signal.annotations.get("input_sample_rate")
        if rate is None:
            frame_length = signal.annotations["cs_frame_length"]
            m = signal.annotations["cs_measurements"]
            rate = signal.sample_rate * frame_length / m
        return signal.replaced(data=stream, sample_rate=float(rate), domain="digital")
