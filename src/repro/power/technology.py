"""Technology and design parameters (paper Table III).

The paper extracts a small set of technology constants from a gpdk045
predictive PDK using Cadence Virtuoso and reduces the technology to those
scalars; this module hard-codes the published values.  Where the published
table is ambiguous (units garbled by typesetting) the interpretation is
documented on the field.

Two kinds of objects live here:

* :class:`Technology` -- process constants (logic capacitance, gm/Id,
  capacitor density and matching, leakage, transmit energy, thermal voltage,
  LNA noise-efficiency factor).
* :class:`DesignPoint` -- the per-architecture design parameters that the
  pathfinding explorer sweeps (input bandwidth, ADC resolution, supply,
  sensing-matrix size, LNA noise floor, ...), together with the derived
  clocking relations of Table III (f_sample = 2.1 * BW_in,
  f_clk = (N+1) * f_sample, BW_LNA = 3 * BW_in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.util.constants import FEMTO, KT_ROOM, MICRO, NANO, PICO
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class Technology:
    """Extracted technology constants (Table III, top half).

    Attributes
    ----------
    c_logic:
        Capacitance of a minimum logic gate input, in farads (paper: 1 fF).
    gm_over_id:
        Transconductance efficiency of the analog transistors in 1/V
        (paper: 20 /V, weak-inversion biased amplifiers).
    cap_density:
        MIM/MOM capacitor density in F/um^2.  The paper prints
        ".001025 F/um^2" which is dimensionally implausible (it would be a
        millifarad per 1000 um^2); the extracted gpdk045 MIM density is
        ~1 fF/um^2, so we read the entry as 1.025 fF/um^2.
    cu_min:
        Minimum realisable unit capacitor, in farads (paper: 1 fF).
    c_pk:
        Published capacitor matching figure, kept verbatim for provenance
        (paper: 3.48e-9 %/um^2).  The operational mismatch model is
        :meth:`cap_mismatch_sigma`, parameterised by
        ``unit_cap_mismatch_sigma``.
    unit_cap_mismatch_sigma:
        Relative standard deviation of a single minimum unit capacitor
        (sigma of dC/C).  Mismatch of a capacitor built from ``k`` units
        improves as 1/sqrt(k) (Pelgrom scaling with area).  Default 1 %,
        typical for ~1 fF lateral MOM in a 45 nm node.
    i_leak:
        Leakage current of a minimum switch in amperes (paper: 1 pA).
    e_bit:
        Transmit/store energy per bit in joules (paper: 1 nJ, a typical
        low-power radio figure used by refs [4], [12]).
    v_t:
        Thermal voltage kT/q in volts as extracted (paper: 25.27 mV).
    nef:
        LNA noise-efficiency factor (Steyaert/Sansen).  Not tabulated in
        Table III; the reference LNA [16] and modern bio-LNAs sit near
        NEF = 2, which we adopt as the default.
    kt:
        Thermal energy kT in joules at the simulation temperature.
    """

    c_logic: float = 1.0 * FEMTO
    gm_over_id: float = 20.0
    cap_density: float = 1.025 * FEMTO  # F per um^2
    cu_min: float = 1.0 * FEMTO
    c_pk: float = 3.48e-9
    unit_cap_mismatch_sigma: float = 0.01
    i_leak: float = 1.0 * PICO
    e_bit: float = 1.0 * NANO
    v_t: float = 25.27e-3
    nef: float = 2.0
    kt: float = KT_ROOM

    def __post_init__(self) -> None:
        for name in (
            "c_logic",
            "gm_over_id",
            "cap_density",
            "cu_min",
            "i_leak",
            "e_bit",
            "v_t",
            "nef",
            "kt",
        ):
            check_positive(name, getattr(self, name))
        if not 0 <= self.unit_cap_mismatch_sigma < 1:
            raise ValueError(
                "unit_cap_mismatch_sigma must be in [0, 1), got "
                f"{self.unit_cap_mismatch_sigma}"
            )

    # --- derived sizing rules ---------------------------------------------

    def cap_area_um2(self, capacitance: float) -> float:
        """Silicon area in um^2 occupied by ``capacitance`` farads."""
        check_positive("capacitance", capacitance)
        return capacitance / self.cap_density

    def cap_mismatch_sigma(self, capacitance: float) -> float:
        """Relative mismatch sigma of a capacitor of ``capacitance`` farads.

        Pelgrom-style area scaling: a capacitor made of
        ``k = C / cu_min`` unit cells has sigma = sigma_u / sqrt(k).
        Capacitors below one unit cell are clamped to the unit-cell sigma.
        """
        check_positive("capacitance", capacitance)
        units = max(1.0, capacitance / self.cu_min)
        return self.unit_cap_mismatch_sigma / math.sqrt(units)

    def kt_c_noise_rms(self, capacitance: float) -> float:
        """RMS voltage of kT/C sampling noise on ``capacitance`` farads."""
        check_positive("capacitance", capacitance)
        return math.sqrt(self.kt / capacitance)

    def sampling_cap_for_quantization(self, n_bits: int, v_fs: float) -> float:
        """Sampling capacitor sized so kT/C noise sits below quantization noise.

        The paper's S&H power model (Table II) embeds the sizing rule
        ``C_s = 12 kT 2^(2N) / V_FS^2`` -- the capacitance at which kT/C
        noise power equals the quantization noise power
        ``V_FS^2 / (12 * 2^(2N))`` of an N-bit converter.
        """
        n_bits = check_positive_int("n_bits", n_bits)
        check_positive("v_fs", v_fs)
        return 12.0 * self.kt * (4.0**n_bits) / (v_fs**2)

    def dac_unit_cap(self, n_bits: int) -> float:
        """Unit capacitor of an N-bit binary-weighted SAR DAC.

        Sized by the matching requirement that the 3-sigma DNL of the MSB
        transition stays below half an LSB: the MSB capacitor aggregates
        2^(N-1) units, so its relative sigma is
        ``sigma_u / sqrt(2^(N-1))`` and the DNL constraint gives
        ``sigma_u <= sqrt(2^(N-1)) / (3 * 2^N)`` per-unit sigma -- i.e. the
        unit must contain enough minimum cells.  Never smaller than
        ``cu_min``.
        """
        n_bits = check_positive_int("n_bits", n_bits)
        if self.unit_cap_mismatch_sigma == 0:
            return self.cu_min
        # Required per-unit sigma for 3-sigma MSB DNL < 0.5 LSB:
        # sigma_msb = sigma_u / sqrt(2^(N-1)) and 3*sigma_msb*2^N < 0.5.
        sigma_required = math.sqrt(2.0 ** (n_bits - 1)) / (6.0 * 2.0**n_bits)
        units_needed = (self.unit_cap_mismatch_sigma / sigma_required) ** 2
        return max(self.cu_min, units_needed * self.cu_min)

    def hold_cap_for_noise(self, noise_rms_target: float) -> float:
        """Capacitor sized so its kT/C noise is at most ``noise_rms_target``.

        Used for the CS encoder's C_hold: the charge-sharing operation adds
        one kT/C sample per redistribution, so the hold capacitor sets the
        analog noise floor of the compressed measurements.  Never smaller
        than ``cu_min``.
        """
        check_positive("noise_rms_target", noise_rms_target)
        return max(self.cu_min, self.kt / noise_rms_target**2)


#: The gpdk045 extraction used throughout the paper's experiments.
GPDK045 = Technology()


@dataclass(frozen=True)
class DesignPoint:
    """One point in the architectural design space (Table III, bottom half).

    The explorer sweeps instances of this class.  Derived clocking follows
    the paper exactly: ``f_sample = sampling_ratio * bw_in``,
    ``f_clk = (n_bits + 1) * f_sample`` (one cycle per bit plus sampling),
    ``bw_lna = lna_bw_ratio * bw_in``.

    Attributes
    ----------
    bw_in:
        Input signal bandwidth in Hz (paper: 256 Hz for EEG).
    n_bits:
        SAR ADC resolution in bits (paper sweep: 6-8).
    v_dd:
        Supply voltage in volts (paper: 2 V).
    v_fs:
        ADC full-scale range in volts (paper: 2 V, equals v_ref).
    v_ref:
        DAC reference voltage in volts (paper: 2 V).
    lna_noise_rms:
        Total input-referred noise of the LNA in Vrms integrated over the
        LNA bandwidth (paper sweep: 1-20, read as uVrms -- EEG signals are
        tens of uV so this spans "limiting" to "negligible" noise).
    lna_gain:
        LNA voltage gain (linear).  The paper does not tabulate it; a gain
        mapping the ~+-1 mV electrode range onto the 2 V full scale
        (i.e. 1000 V/V, 60 dB) is the natural choice and the default.
    use_cs:
        Whether the front-end includes a CS encoder.
    cs_architecture:
        ``"analog"`` (the paper's passive charge-sharing encoder, before
        the ADC) or ``"digital"`` (Chen [2]-style MAC encoder after a
        full-rate ADC).  The digital variant is the comparator the paper's
        Section III motivates exploring; it keeps the transmitter saving
        but pays full-rate conversion plus digital MAC power.
    cs_m:
        Number of compressed measurements M per frame (paper: 75/150/192).
    cs_n_phi:
        CS frame length N_phi (paper: 384).
    cs_sparsity:
        s of the s-SRBM sensing matrix (paper architecture: 2).
    sampling_ratio:
        f_sample / bw_in (paper: 2.1, slightly above Nyquist).
    lna_bw_ratio:
        bw_lna / bw_in (paper: 3).
    """

    bw_in: float = 256.0
    n_bits: int = 8
    v_dd: float = 2.0
    v_fs: float = 2.0
    v_ref: float = 2.0
    lna_noise_rms: float = 5.0 * MICRO
    lna_gain: float = 1000.0
    use_cs: bool = False
    cs_architecture: str = "analog"
    cs_m: int = 150
    cs_n_phi: int = 384
    cs_sparsity: int = 2
    cs_cap_ratio: float = 8.0
    cs_weight_mismatch_sigma: float = 0.0025
    sampling_ratio: float = 2.1
    lna_bw_ratio: float = 3.0
    technology: Technology = field(default=GPDK045)

    def __post_init__(self) -> None:
        check_positive("bw_in", self.bw_in)
        check_positive_int("n_bits", self.n_bits)
        check_positive("v_dd", self.v_dd)
        check_positive("v_fs", self.v_fs)
        check_positive("v_ref", self.v_ref)
        check_positive("lna_noise_rms", self.lna_noise_rms)
        check_positive("lna_gain", self.lna_gain)
        check_positive("sampling_ratio", self.sampling_ratio)
        check_positive("lna_bw_ratio", self.lna_bw_ratio)
        if self.use_cs:
            if self.cs_architecture not in ("analog", "digital"):
                raise ValueError(
                    "cs_architecture must be 'analog' or 'digital', got "
                    f"{self.cs_architecture!r}"
                )
            check_positive_int("cs_m", self.cs_m)
            check_positive_int("cs_n_phi", self.cs_n_phi)
            check_positive_int("cs_sparsity", self.cs_sparsity)
            check_positive("cs_cap_ratio", self.cs_cap_ratio)
            check_non_negative("cs_weight_mismatch_sigma", self.cs_weight_mismatch_sigma)
            if self.cs_m >= self.cs_n_phi:
                raise ValueError(
                    f"cs_m ({self.cs_m}) must be < cs_n_phi ({self.cs_n_phi}) "
                    "for compression"
                )
            if self.cs_sparsity > self.cs_m:
                raise ValueError(
                    f"cs_sparsity ({self.cs_sparsity}) cannot exceed cs_m ({self.cs_m})"
                )

    # --- derived quantities (Table III relations) ---------------------------

    @property
    def f_sample(self) -> float:
        """ADC sample rate in Hz: sampling_ratio * bw_in."""
        return self.sampling_ratio * self.bw_in

    @property
    def f_clk(self) -> float:
        """SAR clock in Hz: (N+1) cycles per conversion."""
        return (self.n_bits + 1) * self.f_sample

    @property
    def bw_lna(self) -> float:
        """LNA bandwidth in Hz: lna_bw_ratio * bw_in."""
        return self.lna_bw_ratio * self.bw_in

    @property
    def compression_ratio(self) -> float:
        """N_phi / M when CS is enabled, 1.0 otherwise (>= 1)."""
        if not self.use_cs:
            return 1.0
        return self.cs_n_phi / self.cs_m

    @property
    def output_sample_rate(self) -> float:
        """Rate at which digitised words leave the front-end, in Hz.

        Without CS every analog sample is digitised; with CS only M out of
        every N_phi samples reach the ADC/transmitter.
        """
        return self.f_sample / self.compression_ratio

    @property
    def adc_conversion_rate(self) -> float:
        """Conversions per second performed by the SAR ADC.

        The analog (pre-ADC) CS encoder lets the ADC run at the compressed
        rate; the digital variant must digitise every input sample.
        """
        if self.use_cs and self.cs_architecture == "digital":
            return self.f_sample
        return self.output_sample_rate

    @property
    def bit_rate(self) -> float:
        """Transmitted bits per second."""
        return self.output_sample_rate * self.n_bits

    @property
    def sampling_capacitance(self) -> float:
        """Baseline S&H capacitor, sized for quantization-matched kT/C noise."""
        return max(
            self.technology.cu_min,
            self.technology.sampling_cap_for_quantization(self.n_bits, self.v_fs),
        )

    @property
    def cs_hold_capacitance(self) -> float:
        """CS encoder hold capacitor C_hold, in farads.

        Sized by the stricter of two constraints:

        * **Noise** -- kT/C noise of the passive charge-sharing network must
          stay at or below the ADC quantization noise (same rule as the
          baseline S&H capacitor).
        * **Matching** -- the charge-sharing weights are capacitor ratios;
          their relative sigma must not exceed ``cs_weight_mismatch_sigma``
          or the effective sensing matrix departs from the one used for
          reconstruction.  Pelgrom scaling gives the required multiple of
          unit cells.
        """
        tech = self.technology
        noise_sized = tech.sampling_cap_for_quantization(self.n_bits, self.v_fs)
        if self.cs_weight_mismatch_sigma > 0 and tech.unit_cap_mismatch_sigma > 0:
            units = (tech.unit_cap_mismatch_sigma / self.cs_weight_mismatch_sigma) ** 2
            match_sized = units * tech.cu_min
        else:
            match_sized = tech.cu_min
        return max(tech.cu_min, noise_sized, match_sized)

    @property
    def cs_sample_capacitance(self) -> float:
        """CS encoder sampling capacitor C_sample.

        ``C_hold / cs_cap_ratio`` (never below the minimum unit capacitor).
        The ratio sets the charge-sharing geometry of paper Eq. 1: each
        redistribution multiplies previously stored charge by
        ``C_hold / (C_sample + C_hold)``, so a larger ratio gives flatter
        accumulation weights at the cost of smaller per-sample gain.
        """
        return max(self.technology.cu_min, self.cs_hold_capacitance / self.cs_cap_ratio)

    @property
    def lna_load_capacitance(self) -> float:
        """Capacitive load seen by the LNA output.

        For the baseline chain this is the ADC S&H capacitor; with the CS
        front-end the paper takes the LNA load equal to the C_hold value of
        the encoder (Section III: "the load of the LNA should also be taken
        equal to the C_hold value") -- the conservative choice, since the
        amplifier must settle the charge-sharing network.  The digital CS
        variant keeps the baseline's S&H load (its encoder sits after the
        ADC).
        """
        if self.use_cs and self.cs_architecture == "analog":
            return self.cs_hold_capacitance
        return self.sampling_capacitance

    @property
    def lna_noise_density(self) -> float:
        """Input-referred noise density in V/sqrt(Hz) over the LNA bandwidth."""
        return self.lna_noise_rms / math.sqrt(self.bw_lna)

    def with_(self, **changes) -> "DesignPoint":
        """Return a copy with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary used in sweep logs.

        Also the tag per-point seeds derive from and the name cache files
        are filed under.  It omits most fields (supply, CS architecture,
        technology, ...) and rounds the LNA noise, so it is no identity:
        compare points, not descriptions.
        """
        kind = (
            f"CS(M={self.cs_m}/{self.cs_n_phi}, s={self.cs_sparsity})"
            if self.use_cs
            else "baseline"
        )
        return (
            f"{kind} N={self.n_bits}b noise={self.lna_noise_rms / MICRO:.1f}uV "
            f"fs={self.f_sample:.0f}Hz"
        )
