"""Goal functions (paper Step 5).

A goal couples the optimisation objectives (what the Pareto front trades)
with an optional feasibility constraint (minimum quality, maximum area).
The three goals below are the ones the paper's experiments use; arbitrary
goals compose from :class:`~repro.core.pareto.Objective` directly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.pareto import Objective

#: The paper's minimum acceptable detection accuracy (its 98 % application
#: bound on the Fig. 7 b) and Fig. 10 optima).
MIN_ACCURACY = 0.98


@dataclass(frozen=True)
class Goal:
    """Objectives + feasibility constraint + the metric to minimise when
    picking the single "optimal point"."""

    name: str
    objectives: tuple[Objective, ...]
    constraint: Callable[[dict], bool] | None = None
    minimize: str = "power_uw"

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("goal needs at least one objective")


def snr_power_goal() -> Goal:
    """Fig. 7 a): trade achieved SNR (max) against power (min)."""
    return Goal(
        name="snr-vs-power",
        objectives=(Objective("power_uw", maximize=False), Objective("snr_db", maximize=True)),
    )


def accuracy_power_goal(min_accuracy: float = MIN_ACCURACY) -> Goal:
    """Fig. 7 b): accuracy (max) vs power (min), optimum requires
    ``accuracy >= min_accuracy`` (the paper's 98 % application bound)."""
    if not 0.0 < min_accuracy <= 1.0:
        raise ValueError(f"min_accuracy must be in (0, 1], got {min_accuracy}")
    return Goal(
        name="accuracy-vs-power",
        objectives=(
            Objective("power_uw", maximize=False),
            Objective("accuracy", maximize=True),
        ),
        constraint=lambda metrics: metrics["accuracy"] >= min_accuracy,
    )


def area_constrained_goal(max_area_units: float, min_accuracy: float = MIN_ACCURACY) -> Goal:
    """Fig. 10: accuracy vs power under a total-capacitance cap."""
    if max_area_units <= 0:
        raise ValueError(f"max_area_units must be > 0, got {max_area_units}")
    return Goal(
        name=f"area<={max_area_units:g}",
        objectives=(
            Objective("power_uw", maximize=False),
            Objective("accuracy", maximize=True),
        ),
        constraint=lambda metrics: (
            metrics["area_units"] <= max_area_units and metrics["accuracy"] >= min_accuracy
        ),
    )

