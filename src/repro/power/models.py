"""Analytical power models of the circuit blocks (paper Table II).

Each function implements one row of Table II as a closed-form power bound,
parameterised by a :class:`~repro.power.technology.DesignPoint` (which in
turn carries the :class:`~repro.power.technology.Technology` constants of
Table III).  The functions return watts.

Clocking conventions (Table III):

* ``f_sample = 2.1 * BW_in`` -- analog sampling rate at the front-end input.
* ``f_clk = (N+1) * f_sample`` -- SAR clock on the input side.
* With CS enabled the ADC only converts the M compressed measurements of
  every N_phi-sample frame, so ADC-side blocks (S&H, comparator, SAR logic,
  DAC) and the transmitter run at the *compressed* rate
  ``f_out = f_sample * M / N_phi`` with ADC clock ``(N+1) * f_out``, while
  the LNA and CS encoder logic keep running at the input rate.  This is the
  mechanism behind the paper's headline saving: fewer conversions and far
  fewer transmitted bits.

The module also provides :class:`PowerReport` (a per-block breakdown with
pretty-printing, used by Figs. 4 and 8) and :func:`chain_power`, which
assembles the full front-end estimate for either architecture.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.power.technology import DesignPoint
from repro.util.constants import MICRO
from repro.util.validation import check_non_negative, check_positive

#: Activity factor of the SAR control logic (Table II, alpha = 0.4).
SAR_LOGIC_ACTIVITY = 0.4

#: Activity factor of the CS encoder shift register (Table II, alpha = 1).
CS_LOGIC_ACTIVITY = 1.0

#: Gate-equivalents per shift-register cell of the CS encoder (Table II: the
#: ``8 C_logic`` factor -- a D flip-flop plus routing switches).
CS_GATES_PER_CELL = 8


def _adc_rates(point: DesignPoint) -> tuple[float, float]:
    """(f_conv, f_clk_adc): conversion rate and SAR clock of the ADC.

    For the baseline these equal ``f_sample`` and ``f_clk``; with the
    analog (pre-ADC) CS encoder the ADC runs at the compressed output
    rate, while the digital (post-ADC) encoder keeps it at full rate.
    """
    f_conv = point.adc_conversion_rate
    return f_conv, (point.n_bits + 1) * f_conv


# --------------------------------------------------------------------------
# Table II, row by row
# --------------------------------------------------------------------------


def lna_power(point: DesignPoint, c_load: float | None = None) -> float:
    """LNA power (Table II row 1, after Steyaert [16]).

    ``P = V_dd * max(I_gbw, I_slew, I_noise)`` with three current bounds:

    * ``I_gbw   = GBW * 2 pi * C_load / (gm/Id)`` -- gain-bandwidth limit;
      GBW is the closed-loop gain times the LNA bandwidth.
    * ``I_slew  = V_ref * f_clk * C_load`` -- charge delivery to the sampled
      load every clock period.
    * ``I_noise = (NEF / v_n)^2 * 2 pi * 4kT * BW_LNA * V_T`` -- thermal-noise
      limit from the noise-efficiency factor, with ``v_n`` the total
      input-referred noise in Vrms.

    The noise bound dominates at the low-noise end of the paper's sweep and
    is the reason the CS system (which tolerates a higher noise floor) saves
    LNA power.
    """
    return point.v_dd * max(lna_current_bounds(point, c_load).values())


def lna_current_bounds(point: DesignPoint, c_load: float | None = None) -> dict[str, float]:
    """The three LNA current bounds individually (amperes).

    :func:`lna_power` draws the largest; the others are diagnostics.
    """
    tech = point.technology
    if c_load is None:
        c_load = point.lna_load_capacitance
    check_positive("c_load", c_load)
    gbw = point.lna_gain * point.bw_lna
    return {
        "gbw": gbw * 2.0 * math.pi * c_load / tech.gm_over_id,
        "slew": point.v_ref * point.f_clk * c_load,
        "noise": (
            (tech.nef / point.lna_noise_rms) ** 2
            * 2.0
            * math.pi
            * 4.0
            * tech.kt
            * point.bw_lna
            * tech.v_t
        ),
    }


def sample_hold_power(point: DesignPoint) -> float:
    """Sample-and-hold power (Table II row 2, after Sundstrom [14]).

    ``P = V_ref * f_clk * 12 kT 2^(2N) / V_FS^2`` -- the energy of charging
    a sampling capacitor sized so that kT/C noise matches the quantization
    noise of the N-bit converter, delivered once per clock.
    """
    tech = point.technology
    _, f_clk_adc = _adc_rates(point)
    c_s = 12.0 * tech.kt * (4.0**point.n_bits) / (point.v_fs**2)
    return point.v_ref * f_clk_adc * c_s


def comparator_power(
    point: DesignPoint,
    c_load: float | None = None,
    v_eff: float | None = None,
) -> float:
    """Dynamic comparator power (Table II row 3, after Sundstrom [14]).

    ``P = 2 N ln(2) * (f_clk - f_sample) * C_load * V_FS * V_eff``.

    ``(f_clk - f_sample)`` is the number of comparator decisions per second
    (N per conversion).  ``V_eff`` is the input-pair overdrive; with the
    weak-inversion bias of Table III (gm/Id = 20/V) the effective overdrive
    is ``2 / (gm/Id) = 100 mV``, used as the default.  ``C_load`` defaults
    to the technology's logic capacitance (minimum latch regeneration node).
    """
    tech = point.technology
    if c_load is None:
        c_load = tech.c_logic
    if v_eff is None:
        v_eff = 2.0 / tech.gm_over_id
    check_positive("c_load", c_load)
    check_positive("v_eff", v_eff)
    f_conv, f_clk_adc = _adc_rates(point)
    decisions_per_s = f_clk_adc - f_conv
    return 2.0 * point.n_bits * math.log(2.0) * decisions_per_s * c_load * point.v_fs * v_eff


def sar_logic_power(point: DesignPoint) -> float:
    """SAR control-logic power (Table II row 4, after Bos [17]).

    ``P = alpha * (2N+1) * C_logic * V_dd^2 * (f_clk - f_sample)`` with
    activity factor alpha = 0.4: the successive-approximation register plus
    control state machine toggles (2N+1) gate capacitances per bit cycle.
    """
    tech = point.technology
    f_conv, f_clk_adc = _adc_rates(point)
    toggles_per_s = f_clk_adc - f_conv
    return (
        SAR_LOGIC_ACTIVITY
        * (2.0 * point.n_bits + 1.0)
        * tech.c_logic
        * point.v_dd**2
        * toggles_per_s
    )


def dac_power(point: DesignPoint, vin: float | np.ndarray = 0.0) -> float:
    """Binary-weighted SAR DAC switching power (Table II row 5, Saberi [3]).

    ``P = 2^N f_clk C_u / (N+1) * { (5/6 - (1/2)^N - 1/3 (1/2)^(2N)) V_ref^2
    - 1/2 V_in^2 - (1/2)^N V_in V_ref }``

    The bracketed term depends on the sampled input voltage; pass the actual
    ADC input samples (array) to average the signal-dependent part over the
    waveform, or a scalar (default 0 = mid-scale) for a signal-independent
    estimate.  ``C_u`` is the matching-sized unit capacitor from
    :meth:`Technology.dac_unit_cap`.
    """
    tech = point.technology
    n = point.n_bits
    _, f_clk_adc = _adc_rates(point)
    c_u = tech.dac_unit_cap(n)
    vin_arr = np.asarray(vin, dtype=np.float64)
    half_n = 0.5**n
    bracket = (
        (5.0 / 6.0 - half_n - (1.0 / 3.0) * half_n**2) * point.v_ref**2
        - 0.5 * np.mean(vin_arr**2)
        - half_n * float(np.mean(vin_arr)) * point.v_ref
    )
    power = (2.0**n) * f_clk_adc * c_u / (n + 1.0) * float(bracket)
    # The Saberi expression can go slightly negative for inputs near the
    # rails at very low N; switching energy is physically non-negative.
    return max(power, 0.0)


def transmitter_power(point: DesignPoint) -> float:
    """Transmitter / storage power (Table II row 6, refs [4], [12]).

    ``P = f_clk / (N+1) * N * E_bit = f_out * N * E_bit`` -- every
    transmitted word of N bits costs E_bit per bit to radiate or store.
    Both CS variants transmit at the compressed output rate (that rate is
    the whole point of compression); only the analog variant additionally
    converts at the compressed rate.
    """
    tech = point.technology
    return point.output_sample_rate * point.n_bits * tech.e_bit


def cs_encoder_logic_power(point: DesignPoint) -> float:
    """CS encoder digital power (Table II row 7, derived in Section III).

    ``P = alpha * (ceil(log2 N_phi) + 1) * N_phi * 8 C_logic * V_dd^2 * f_clk``
    with alpha = 1: a shift register of N_phi cells (8 gate capacitances per
    cell: flip-flop plus charge-sharing switch drivers) clocked at the input
    SAR clock, plus the (log2 N_phi + 1)-deep control/addressing overhead.

    Returns 0 for non-CS and digital-CS design points (the digital
    comparator has its own model, :func:`digital_cs_encoder_power`).
    """
    if not (point.use_cs and point.cs_architecture == "analog"):
        return 0.0
    tech = point.technology
    depth = math.ceil(math.log2(point.cs_n_phi)) + 1
    return (
        CS_LOGIC_ACTIVITY
        * depth
        * point.cs_n_phi
        * CS_GATES_PER_CELL
        * tech.c_logic
        * point.v_dd**2
        * point.f_clk
    )


#: Switching gate-capacitances toggled per bit of a ripple-carry add
#: (full adder: ~10 equivalent gate loads including carry routing).
DIGITAL_MAC_GATES_PER_BIT = 10

#: Gate-equivalents per accumulator register bit (flip-flop + clocking).
DIGITAL_ACC_GATES_PER_BIT = 8


def digital_cs_encoder_power(point: DesignPoint) -> float:
    """Digital MAC CS encoder power (the Chen [2]-style comparator).

    A post-ADC encoder adds every N-bit sample into ``s`` partial-sum
    accumulators of ``N + ceil(log2 K)`` bits (K = worst-case
    accumulations per measurement, ``ceil(N_phi s / M)``):

    ``P = alpha * s * (adder + accumulator) * C_logic * V_dd^2 * f_sample``
    plus the same sequencing/storage overhead as the analog encoder's
    shift register (the sensing matrix must be stored and scanned either
    way).

    Returns 0 for non-CS or analog-CS design points.
    """
    if not (point.use_cs and point.cs_architecture == "digital"):
        return 0.0
    tech = point.technology
    accumulations = -(-point.cs_n_phi * point.cs_sparsity // point.cs_m)  # ceil
    acc_bits = point.n_bits + max(1, math.ceil(math.log2(max(accumulations, 2))))
    adder_caps = DIGITAL_MAC_GATES_PER_BIT * acc_bits
    register_caps = DIGITAL_ACC_GATES_PER_BIT * acc_bits
    mac = (
        CS_LOGIC_ACTIVITY
        * point.cs_sparsity
        * (adder_caps + register_caps)
        * tech.c_logic
        * point.v_dd**2
        * point.f_sample
    )
    # Matrix storage / sequencing: identical to the analog encoder's
    # shift-register term (Table II row 7).
    depth = math.ceil(math.log2(point.cs_n_phi)) + 1
    sequencing = (
        CS_LOGIC_ACTIVITY
        * depth
        * point.cs_n_phi
        * CS_GATES_PER_CELL
        * tech.c_logic
        * point.v_dd**2
        * point.f_clk
    )
    return mac + sequencing


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------

#: Canonical block ordering used by reports and the Fig. 4 / Fig. 8 plots.
BLOCK_ORDER = (
    "lna",
    "sample_hold",
    "comparator",
    "sar_logic",
    "dac",
    "cs_encoder",
    "transmitter",
    "leakage",
)


@dataclass(frozen=True)
class PowerReport:
    """Per-block power breakdown of one design point, in watts.

    Produced by :func:`chain_power`; consumed by the Fig. 4 sweep, the
    Fig. 8 breakdown comparison, and the explorer's goal functions.
    """

    blocks: Mapping[str, float]

    def __post_init__(self) -> None:
        for name, value in self.blocks.items():
            check_non_negative(f"power of block {name!r}", value)

    @property
    def total(self) -> float:
        """Total chain power in watts."""
        return float(sum(self.blocks.values()))

    @property
    def total_uw(self) -> float:
        """Total chain power in microwatts (the paper's reporting unit)."""
        return self.total / MICRO

    def fraction(self, block: str) -> float:
        """Share of the total consumed by ``block`` (0 if total is 0)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.blocks.get(block, 0.0) / total

    def fractions(self) -> dict[str, float]:
        """All block shares, in canonical order."""
        return {name: self.fraction(name) for name in self.ordered_blocks()}

    def ordered_blocks(self) -> list[str]:
        """Block names in canonical order (known blocks first)."""
        known = [name for name in BLOCK_ORDER if name in self.blocks]
        extra = sorted(set(self.blocks) - set(BLOCK_ORDER))
        return known + extra

    def dominant_block(self) -> str:
        """Name of the block consuming the most power."""
        return max(self.blocks, key=lambda name: self.blocks[name])

    def scaled(self, factor: float) -> "PowerReport":
        """Report with every block scaled by ``factor`` (e.g. duty cycling)."""
        check_non_negative("factor", factor)
        return PowerReport({name: value * factor for name, value in self.blocks.items()})

    def merged(self, other: "PowerReport") -> "PowerReport":
        """Block-wise sum of two reports (e.g. analog + digital partitions)."""
        names = set(self.blocks) | set(other.blocks)
        return PowerReport(
            {name: self.blocks.get(name, 0.0) + other.blocks.get(name, 0.0) for name in names}
        )

    def as_table(self) -> str:
        """Fixed-width text table of the breakdown (uW and % of total)."""
        lines = [f"{'block':<12} {'power [uW]':>12} {'share':>8}"]
        for name in self.ordered_blocks():
            power_uw = self.blocks[name] / MICRO
            lines.append(f"{name:<12} {power_uw:>12.4f} {self.fraction(name):>7.1%}")
        lines.append(f"{'total':<12} {self.total_uw:>12.4f} {'100.0%':>8}")
        return "\n".join(lines)


def chain_power(point: DesignPoint) -> PowerReport:
    """Full front-end power estimate for one design point.

    The sum of every block's Table II models over the chain
    :func:`~repro.blocks.chains.build_chain` builds for ``point`` -- what
    :meth:`~repro.core.simulator.Simulator.collect_power` reports for a
    simulated run, so this estimate and every sweep agree.
    """
    # Imported here: repro.blocks and repro.core import this module.
    from repro.blocks.chains import build_chain
    from repro.core.simulator import Simulator

    return Simulator(build_chain(point), point).collect_power()
