"""Fig. 7 -- search-space sweep: Pareto fronts and optimal points.

Fig. 7 a) plots achieved SNR vs power for every point of the Table III
search space, with the baseline and CS Pareto fronts; the paper's reading
is that **CS wins at low SNR while the classical chain wins at high SNR**
(the passive encoder's reconstruction quality saturates, the baseline's
does not).

Fig. 7 b) plots the same search space against *detection accuracy*; now
**CS dominates the whole range**, and the optimal (minimum-power,
accuracy >= 98 %) points are:

=============  =============  ==========
architecture   accuracy       power
=============  =============  ==========
baseline       98.1 %         8.8 uW
CS             99.3 %         2.44 uW   (3.6x saving)
=============  =============  ==========

This module extracts both figures (and the optimal-point table) from the
shared search-space sweep of :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.goal import MIN_ACCURACY, accuracy_power_goal, snr_power_goal
from repro.core.results import Evaluation, ExplorationResult

#: Paper-reported optima, for the EXPERIMENTS.md comparison.
PAPER_BASELINE_OPTIMUM = {"accuracy": 0.981, "power_uw": 8.8}
PAPER_CS_OPTIMUM = {"accuracy": 0.993, "power_uw": 2.44}
PAPER_POWER_SAVING = 3.6


@dataclass
class Fig7Result:
    """Both panels of Fig. 7 extracted from one sweep."""

    sweep: ExplorationResult
    baseline: ExplorationResult
    cs: ExplorationResult
    snr_front_baseline: list[Evaluation]
    snr_front_cs: list[Evaluation]
    accuracy_front_baseline: list[Evaluation]
    accuracy_front_cs: list[Evaluation]
    optimal_baseline: Evaluation | None
    optimal_cs: Evaluation | None

    @property
    def power_saving(self) -> float | None:
        """Optimal baseline power / optimal CS power (the paper's 3.6x)."""
        if self.optimal_baseline is None or self.optimal_cs is None:
            return None
        return self.optimal_baseline.metric("power_uw") / self.optimal_cs.metric("power_uw")

    def summary(self) -> str:
        """Optimal-point table in the paper's reporting format."""
        lines = [f"{'architecture':<14}{'accuracy':>10}{'power [uW]':>12}"]
        for name, opt in (("baseline", self.optimal_baseline), ("cs", self.optimal_cs)):
            if opt is None:
                lines.append(f"{name:<14}{'infeasible':>10}{'-':>12}")
            else:
                lines.append(
                    f"{name:<14}{opt.metric('accuracy'):>10.3f}"
                    f"{opt.metric('power_uw'):>12.2f}"
                )
        saving = self.power_saving
        if saving is not None:
            lines.append(f"power saving: {saving:.2f}x")
        return "\n".join(lines)


def analyze_fig7(sweep: ExplorationResult, min_accuracy: float = MIN_ACCURACY) -> Fig7Result:
    """Extract Fig. 7 a) and b) artefacts from a search-space sweep."""
    baseline, cs = sweep.split_by_architecture()
    snr_goal = snr_power_goal()
    acc_goal = accuracy_power_goal(min_accuracy)
    return Fig7Result(
        sweep=sweep,
        baseline=baseline,
        cs=cs,
        snr_front_baseline=baseline.pareto(snr_goal.objectives),
        snr_front_cs=cs.pareto(snr_goal.objectives),
        accuracy_front_baseline=baseline.pareto(acc_goal.objectives),
        accuracy_front_cs=cs.pareto(acc_goal.objectives),
        optimal_baseline=baseline.best(minimize="power_uw", constraint=acc_goal.constraint),
        optimal_cs=cs.best(minimize="power_uw", constraint=acc_goal.constraint),
    )


def render_front(front: list[Evaluation], metric: str) -> str:
    """Text series of a Pareto front (power ascending)."""
    lines = [f"{'power [uW]':>12}{metric:>14}  design point"]
    for evaluation in front:
        lines.append(
            f"{evaluation.metric('power_uw'):>12.3f}{evaluation.metric(metric):>14.4g}"
            f"  {evaluation.point.describe()}"
        )
    return "\n".join(lines)


def max_quality(front: list[Evaluation], metric: str) -> float:
    """Best quality value along a front (used in shape assertions)."""
    if not front:
        raise ValueError("empty front")
    return max(evaluation.metric(metric) for evaluation in front)


def quality_at_power(
    evaluations: list[Evaluation], metric: str, max_power_uw: float
) -> float | None:
    """Best ``metric`` among points at or below a power budget."""
    candidates = [
        evaluation.metric(metric)
        for evaluation in evaluations
        if evaluation.metric("power_uw") <= max_power_uw
    ]
    return max(candidates) if candidates else None
