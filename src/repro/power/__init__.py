"""Power and area models: Table II equations, Table III technology constants.

Public surface:

* :class:`Technology`, :data:`GPDK045` -- process constants.
* :class:`DesignPoint` -- one point of the architectural design space with
  the derived clocking/sizing relations.
* Per-block power functions (``lna_power`` etc.), :func:`chain_power` and
  :class:`PowerReport` for whole-chain breakdowns.
* :func:`chain_area` / :class:`AreaReport` for the Fig. 9 capacitor metric.
"""

from repro.power.area import AreaReport, chain_area
from repro.power.noise_budget import NoiseBudget, noise_budget, required_noise_floor
from repro.power.models import (
    BLOCK_ORDER,
    CS_GATES_PER_CELL,
    CS_LOGIC_ACTIVITY,
    SAR_LOGIC_ACTIVITY,
    PowerReport,
    chain_power,
    comparator_power,
    cs_encoder_logic_power,
    dac_power,
    digital_cs_encoder_power,
    lna_current_bounds,
    lna_power,
    sample_hold_power,
    sar_logic_power,
    transmitter_power,
)
from repro.power.technology import GPDK045, DesignPoint, Technology

__all__ = [
    "AreaReport",
    "BLOCK_ORDER",
    "CS_GATES_PER_CELL",
    "CS_LOGIC_ACTIVITY",
    "DesignPoint",
    "GPDK045",
    "PowerReport",
    "SAR_LOGIC_ACTIVITY",
    "Technology",
    "chain_area",
    "chain_power",
    "comparator_power",
    "cs_encoder_logic_power",
    "dac_power",
    "digital_cs_encoder_power",
    "lna_current_bounds",
    "lna_power",
    "NoiseBudget",
    "noise_budget",
    "required_noise_floor",
    "sample_hold_power",
    "sar_logic_power",
    "transmitter_power",
]
