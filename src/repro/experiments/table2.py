"""Table II -- power models of the building blocks, evaluated.

Regenerates the paper's Table II as numbers: every block's power model is
evaluated at a reference operating point (Table III defaults, N = 8,
baseline and CS variants) so the table becomes a concrete power budget.
The benchmark asserts the structural facts the paper derives from it
(transmitter and LNA dominate the baseline; the CS encoder adds only a
modest digital term).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.models import chain_power
from repro.power.technology import DesignPoint
from repro.util.constants import MICRO


@dataclass(frozen=True)
class PowerModelRow:
    """One Table II row evaluated at a design point."""

    block: str
    formula: str
    reference: str
    power_w: float

    @property
    def power_uw(self) -> float:
        """Power in microwatts."""
        return self.power_w / MICRO


#: Formula strings as printed in the paper; their order is Table II's,
#: which the rows and the rendered table both follow.
FORMULAS = {
    "lna": "Vdd * max(GBW*2pi*Cl/(gm/Id), Vref*fclk*Cl, (NEF/vn)^2*2pi*4kT*BW*VT)",
    "sample_hold": "Vref * fclk * 12kT * 2^(2N) / VFS^2",
    "comparator": "2N ln2 (fclk - fs) Cl VFS Veff",
    "sar_logic": "a (2N+1) Clogic Vdd^2 (fclk - fs), a=0.4",
    "dac": "2^N fclk Cu/(N+1) {(5/6 - 2^-N - 2^-2N/3) Vref^2 - Vin^2/2 - 2^-N Vin Vref}",
    "transmitter": "fclk/(N+1) * N * Ebit",
    "cs_encoder": "a (ceil(log2 Nphi)+1) Nphi 8Clogic Vdd^2 fclk, a=1",
    "leakage": "n_switches * Ileak * Vdd",
}

REFERENCES = {
    "lna": "[16] Steyaert",
    "sample_hold": "[14] Sundstrom",
    "comparator": "[14] Sundstrom",
    "sar_logic": "[17] Bos",
    "dac": "[15]/[3] Saberi",
    "transmitter": "[4],[12]",
    "cs_encoder": "[17] Bos (derived, Sec. III)",
    "leakage": "Table III",
}


#: The digital-CS chain's encoder is the MAC model, not Table II's row 7.
DIGITAL_CS_ENCODER = (
    "a s (adder + accumulator) Clogic Vdd^2 fs + shift-register sequencing",
    "[2] Chen (comparator, Sec. III)",
)


def power_model_rows(point: DesignPoint) -> list[PowerModelRow]:
    """Table II's rows for the chain ``point`` builds, in the paper's order.

    The powers are :func:`~repro.power.models.chain_power`'s blocks, so the
    rows sum to what a sweep reports for ``point``, and a block the chain
    lacks (the analog-CS chain has no S&H) has no row.
    """
    blocks = chain_power(point).blocks
    rows = []
    for name in FORMULAS:
        if name not in blocks:
            continue
        formula, reference = FORMULAS[name], REFERENCES[name]
        if name == "cs_encoder" and point.cs_architecture == "digital":
            formula, reference = DIGITAL_CS_ENCODER
        rows.append(PowerModelRow(name, formula, reference, blocks[name]))
    return rows


def reference_operating_points() -> dict[str, DesignPoint]:
    """The two reference points the rendered table evaluates."""
    return {
        "baseline": DesignPoint(n_bits=8, lna_noise_rms=2e-6),
        "cs": DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150),
    }


def render_table2() -> str:
    """Table II with evaluated power columns for both architectures.

    Lists every block either chain has, in Table II's order; ``-`` marks
    a block one chain lacks.
    """
    points = reference_operating_points()
    rows_by_arch = {name: power_model_rows(point) for name, point in points.items()}
    baseline_map = {row.block: row for row in rows_by_arch["baseline"]}
    cs_map = {row.block: row for row in rows_by_arch["cs"]}
    lines = [
        f"{'block':<14}{'reference':<28}{'baseline [uW]':>16}{'cs [uW]':>12}",
    ]
    for block in FORMULAS:
        base = baseline_map.get(block)
        cs = cs_map.get(block)
        if base is None and cs is None:
            continue
        base_cell = f"{base.power_uw:>16.4f}" if base else f"{'-':>16}"
        cs_cell = f"{cs.power_uw:>12.4f}" if cs else f"{'-':>12}"
        reference = (cs or base).reference
        lines.append(f"{block:<14}{reference:<28}{base_cell}{cs_cell}")
    total_base = sum(r.power_uw for r in rows_by_arch["baseline"])
    total_cs = sum(r.power_uw for r in rows_by_arch["cs"])
    lines.append(f"{'total':<14}{'':<28}{total_base:>16.4f}{total_cs:>12.4f}")
    return "\n".join(lines)
