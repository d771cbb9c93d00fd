"""SAR ADC model (comparator + capacitive DAC + SAR logic).

The functional model walks the actual successive-approximation algorithm
bit by bit (vectorised across all samples), which lets the three dominant
imperfections enter exactly where they do in silicon:

* **Comparator noise** -- an independent Gaussian draw on *every bit
  decision* (not per sample), so near-threshold codes flicker like a real
  latch.
* **Capacitive-DAC mismatch** -- each binary-weighted capacitor carries a
  static relative error drawn with Pelgrom scaling
  (``sigma_u / sqrt(2^k)`` for the 2^k-unit capacitor).  The comparator
  thresholds use the *true* weights while the output code is interpreted
  with *nominal* weights, producing a realistic static INL/DNL signature.
* **Quantization** -- the algorithm itself.

Inputs are treated as bipolar around 0 with full scale ``v_fs`` (range
[-v_fs/2, +v_fs/2]); out-of-range samples saturate.  The block's output is
the code re-expressed in volts (nominal weights, mid-tread offset), i.e.
"what the digital back-end believes the voltage was".

Power: the comparator, SAR-logic and DAC rows of Table II.
"""

from __future__ import annotations

import numpy as np

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.power.models import comparator_power, dac_power, sar_logic_power
from repro.power.technology import DesignPoint
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_positive, check_positive_int


def ideal_quantize(data: np.ndarray, n_bits: int, v_fs: float) -> np.ndarray:
    """Ideal mid-tread quantization of a bipolar signal to N bits.

    Reference implementation used in tests and by the ideal-ADC fallback:
    clips to [-v_fs/2, v_fs/2] and rounds to the nearest of 2^N levels.
    """
    n_bits = check_positive_int("n_bits", n_bits)
    check_positive("v_fs", v_fs)
    lsb = v_fs / (2.0**n_bits)
    clipped = np.clip(data, -v_fs / 2.0, v_fs / 2.0 - lsb)
    codes = np.round((clipped + v_fs / 2.0) / lsb)
    codes = np.clip(codes, 0, 2.0**n_bits - 1)
    return codes * lsb - v_fs / 2.0 + lsb / 2.0


class SarAdc(Block):
    """Behavioural SAR ADC.

    Parameters
    ----------
    n_bits:
        Resolution.
    v_fs:
        Full-scale range in volts (bipolar: +-v_fs/2).
    comparator_noise_rms:
        RMS input-referred comparator noise per decision, volts.
    dac_mismatch_sigma:
        Relative sigma of a *unit* DAC capacitor; bit k (2^k units) gets
        ``sigma / sqrt(2^k)``.  0 gives an ideal DAC.
    mismatch_seed:
        Seed of the static mismatch realisation (per fabricated instance).
    """

    def __init__(
        self,
        name: str = "adc",
        n_bits: int = 8,
        v_fs: float = 2.0,
        comparator_noise_rms: float = 0.0,
        dac_mismatch_sigma: float = 0.0,
        mismatch_seed: int | None = None,
    ):
        super().__init__(name)
        self.n_bits = check_positive_int("n_bits", n_bits)
        self.v_fs = check_positive("v_fs", v_fs)
        self.comparator_noise_rms = check_non_negative(
            "comparator_noise_rms", comparator_noise_rms
        )
        self.dac_mismatch_sigma = check_non_negative("dac_mismatch_sigma", dac_mismatch_sigma)
        self.mismatch_seed = mismatch_seed
        self._weights_nominal, self._weights_true = self._draw_weights()

    def _draw_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Nominal and mismatched bit weights, MSB first, in volts."""
        k = np.arange(self.n_bits - 1, -1, -1)  # MSB..LSB unit counts 2^k
        nominal = self.v_fs * (2.0**k) / (2.0**self.n_bits)
        if self.dac_mismatch_sigma > 0:
            rng = make_rng(self.mismatch_seed)
            errors = rng.normal(0.0, self.dac_mismatch_sigma / np.sqrt(2.0**k))
            true = nominal * (1.0 + errors)
            # Renormalise so the array total (full scale) is preserved --
            # a gain error is absorbed by the reference, mismatch is not.
            true *= nominal.sum() / true.sum()
        else:
            true = nominal.copy()
        return nominal, true

    @classmethod
    def from_design(cls, point: DesignPoint, name: str = "adc", seed: int | None = None) -> "SarAdc":
        """Configure resolution, FS, mismatch and comparator noise.

        Comparator noise is tied to the quantization noise at 1/2 LSB RMS
        divided by sqrt(12) -- i.e. it sits comfortably below quantization
        for a well-designed comparator, scaling with resolution the way the
        power model's ``2N ln 2`` decision-accuracy factor assumes.
        """
        lsb = point.v_fs / 2.0**point.n_bits
        sigma_u = point.technology.unit_cap_mismatch_sigma
        # Per-unit sigma of the matching-sized DAC unit capacitor.
        units = point.technology.dac_unit_cap(point.n_bits) / point.technology.cu_min
        return cls(
            name=name,
            n_bits=point.n_bits,
            v_fs=point.v_fs,
            comparator_noise_rms=lsb / 4.0,
            dac_mismatch_sigma=sigma_u / np.sqrt(units),
            mismatch_seed=seed,
        )

    @property
    def lsb(self) -> float:
        """LSB size in volts."""
        return self.v_fs / 2.0**self.n_bits

    def convert(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Run the SAR algorithm on an array of voltages.

        Returns the digital estimate re-expressed in volts (nominal
        weights, mid-tread centre) as float64.  Shape is preserved.

        Each bit costs one comparator draw of ``v.size`` normals plus a
        few passes over preallocated buffers.  The per-element operations
        and the RNG stream are those of the allocating loop this replaced
        (``tests/test_front_end_bytes.py`` keeps it as a byte oracle):
        ``standard_normal`` scaled as ``0.0 + sigma * z`` is what
        ``normal(0.0, sigma)`` computes per value, and a kept bit adds
        ``1.0 * w_true`` to ``acc_true`` -- the add that formed the
        threshold -- while a rejected one adds ``0.0``.
        """
        shape = data.shape
        v = np.clip(data.ravel(), -self.v_fs / 2.0, self.v_fs / 2.0)
        v += self.v_fs / 2.0  # unipolar for the search, in the input's dtype
        # The weights are float64, so the search runs in float64 whatever
        # the input dtype (widening a float32 ``v`` is exact).
        v = v.astype(np.float64, copy=False)
        acc_true = np.zeros(v.size)
        acc_nominal = np.zeros(v.size)
        threshold = np.empty(v.size)
        step = np.empty(v.size)
        keep = np.empty(v.size, dtype=bool)
        sigma = self.comparator_noise_rms
        observed = np.empty(v.size) if sigma > 0 else v
        for w_nom, w_true in zip(self._weights_nominal, self._weights_true):
            np.add(acc_true, w_true, out=threshold)
            if sigma > 0:
                rng.standard_normal(out=observed)
                np.multiply(observed, sigma, out=observed)
                np.add(observed, 0.0, out=observed)
                np.add(v, observed, out=observed)
            np.greater_equal(observed, threshold, out=keep)
            np.multiply(keep, w_true, out=step)
            np.add(acc_true, step, out=acc_true)
            np.multiply(keep, w_nom, out=step)
            np.add(acc_nominal, step, out=acc_nominal)
        np.add(acc_nominal, self.lsb / 2.0, out=acc_nominal)
        np.subtract(acc_nominal, self.v_fs / 2.0, out=acc_nominal)
        return acc_nominal.reshape(shape)

    def codes(self, data: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Integer output codes (0 .. 2^N - 1) for ``data``."""
        rng = make_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        voltages = self.convert(np.asarray(data, dtype=np.float64), rng)
        return np.round((voltages + self.v_fs / 2.0 - self.lsb / 2.0) / self.lsb).astype(int)

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        rng = ctx.rng(self.name)
        converted = self.convert(signal.data, rng)
        # adc_v_fs rides along so downstream consumers (e.g. the fault
        # models re-deriving integer codes) need not reach into the block.
        return signal.replaced(
            data=converted,
            domain="digital",
            adc_bits=self.n_bits,
            adc_v_fs=self.v_fs,
        )

    def power(self, point: DesignPoint) -> dict[str, float]:
        # Leakage of the converter's switch network: the S&H switch plus
        # two per bit of the DAC bank (Table III's I_leak per switch).
        tech = point.technology
        return {
            "comparator": comparator_power(point),
            "sar_logic": sar_logic_power(point),
            "dac": dac_power(point),
            "leakage": (1 + 2 * point.n_bits) * tech.i_leak * point.v_dd,
        }

    def static_transfer(self) -> np.ndarray:
        """Code transition thresholds (true weights) for INL/DNL analysis.

        Returns the 2^N - 1 input voltages at which the output code
        increments, computed by exercising every code with the mismatched
        weight set (noiseless).
        """
        n_codes = 2**self.n_bits
        # Threshold of code c is sum of true weights of its set bits.
        thresholds = np.zeros(n_codes)
        for code in range(n_codes):
            bits = [(code >> (self.n_bits - 1 - i)) & 1 for i in range(self.n_bits)]
            thresholds[code] = float(np.dot(bits, self._weights_true))
        return np.sort(thresholds)[1:] - self.v_fs / 2.0
