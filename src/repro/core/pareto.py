"""Pareto-front extraction over evaluated design points.

The paper's Figs. 7 and 10 report Pareto fronts trading power (minimise)
against quality (maximise SNR or accuracy).  These helpers are metric-
agnostic: callers declare, per objective, whether it is minimised or
maximised, and optionally add feasibility constraints (the area caps of
Fig. 10, the >= 98 % accuracy requirement of the optimal-point selection).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

#: Candidate block size of the vectorised domination filter: bounds peak
#: memory at ``n * block * n_objectives`` comparisons per step.
_PARETO_BLOCK = 256


@dataclass(frozen=True)
class Objective:
    """One optimisation axis: a metric name plus its direction."""

    metric: str
    maximize: bool = False

    def better_or_equal(self, a: float, b: float) -> bool:
        """True if value ``a`` is at least as good as ``b``.

        NaN follows IEEE comparison semantics (every comparison with NaN
        is False): a NaN value is never "at least as good" as anything,
        and nothing is "at least as good" as it -- exactly how NaN rows
        behave inside the vectorised :func:`pareto_front` filter.
        """
        return a >= b if self.maximize else a <= b

    def strictly_better(self, a: float, b: float) -> bool:
        """True if value ``a`` is strictly better than ``b`` (False when
        either value is NaN, per IEEE semantics)."""
        return a > b if self.maximize else a < b


def _all_finite(metrics: dict, objectives: Sequence[Objective]) -> bool:
    """True when every objective value is present and finite."""
    for obj in objectives:
        value = metrics.get(obj.metric)
        if value is None or not math.isfinite(value):
            return False
    return True


def dominates(a: dict, b: dict, objectives: Sequence[Objective]) -> bool:
    """True if metrics ``a`` Pareto-dominate metrics ``b``.

    ``a`` dominates when it is at least as good on every objective and
    strictly better on at least one.

    Non-finite objective values (NaN, +/-inf) carry the same semantics as
    the vectorised :func:`pareto_front` filter, which treats them as
    infeasible: a point with any non-finite objective value never
    dominates, and is dominated by every point whose objective values are
    all finite.  (Two non-finite points do not dominate each other.)
    Applied pairwise over an all-finite cloud this reduces to the
    textbook definition.
    """
    if not objectives:
        raise ValueError("need at least one objective")
    a_finite = _all_finite(a, objectives)
    b_finite = _all_finite(b, objectives)
    if not a_finite:
        return False
    if not b_finite:
        return True
    at_least_as_good = all(
        obj.better_or_equal(a[obj.metric], b[obj.metric]) for obj in objectives
    )
    strictly = any(obj.strictly_better(a[obj.metric], b[obj.metric]) for obj in objectives)
    return at_least_as_good and strictly


def pareto_front(
    evaluations: Sequence,
    objectives: Sequence[Objective],
    metrics_of: Callable[[object], dict] = lambda e: e.metrics,
    constraint: Callable[[dict], bool] | None = None,
) -> list:
    """Non-dominated subset of ``evaluations``.

    Parameters
    ----------
    evaluations:
        Any sequence; ``metrics_of`` extracts the metric dict from each
        item (defaults to an ``.metrics`` attribute).
    objectives:
        The axes of the trade-off.
    constraint:
        Optional feasibility predicate on the metric dict; infeasible
        items are excluded before domination filtering (Fig. 10's area
        caps).

    Returns the non-dominated items, sorted by the first objective
    (ascending for minimised, descending for maximised).  Items missing
    one of the objective metrics (heterogeneous sweeps, failed points)
    are treated as infeasible and excluded, like constraint violations.
    Non-finite objective values (NaN, +/-inf) are excluded the same way:
    NaN fails every ``<=``/``<`` comparison, so without the exclusion a
    NaN-valued point is never dominated and always pollutes the front.
    """
    if not objectives:
        raise ValueError("need at least one objective")
    names = [obj.metric for obj in objectives]
    feasible = []
    for item in evaluations:
        metrics = metrics_of(item)
        if not _all_finite(metrics, objectives):
            continue
        if constraint is None or constraint(metrics):
            feasible.append(item)
    if not feasible:
        return []
    # Vectorised non-dominated filter.  Sign-flip maximised axes so every
    # objective is minimised, then a candidate is dominated iff some row
    # is <= on every axis and < on at least one.  Identical rows never
    # strictly improve, so ties/duplicates all stay on the front, and the
    # diagonal (self vs self) needs no masking -- exactly the semantics of
    # the scalar ``dominates`` applied pairwise.
    signs = np.array([-1.0 if obj.maximize else 1.0 for obj in objectives])
    values = np.array(
        [[metrics_of(item)[name] for name in names] for item in feasible], dtype=float
    )
    values *= signs
    keep = np.ones(len(feasible), dtype=bool)
    for start in range(0, len(feasible), _PARETO_BLOCK):
        block = values[start : start + _PARETO_BLOCK]  # (b, k) candidates
        at_least = (values[:, None, :] <= block[None, :, :]).all(axis=2)  # (n, b)
        strictly = (values[:, None, :] < block[None, :, :]).any(axis=2)
        keep[start : start + block.shape[0]] = ~(at_least & strictly).any(axis=0)
    front = [item for item, kept in zip(feasible, keep) if kept]
    primary = objectives[0]
    front.sort(key=lambda item: metrics_of(item)[primary.metric], reverse=primary.maximize)
    return front


def best_feasible(
    evaluations: Sequence,
    minimize_metric: str,
    metrics_of: Callable[[object], dict] = lambda e: e.metrics,
    constraint: Callable[[dict], bool] | None = None,
):
    """The feasible item minimising ``minimize_metric`` (paper's "optimal point").

    E.g. the minimum-power design meeting accuracy >= 98 %.  Returns
    ``None`` when nothing is feasible.  Items missing ``minimize_metric``
    are infeasible by definition (heterogeneous sweeps, failed points),
    and so are NaN targets: NaN fails every comparison inside ``min``, so
    admitting one would make the winner depend on input order.
    """
    def usable(metrics: dict) -> bool:
        target = metrics.get(minimize_metric)
        if target is None or math.isnan(target):
            return False
        return constraint is None or constraint(metrics)

    feasible = [item for item in evaluations if usable(metrics_of(item))]
    if not feasible:
        return None
    return min(feasible, key=lambda item: metrics_of(item)[minimize_metric])

