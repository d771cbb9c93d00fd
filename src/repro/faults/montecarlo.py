"""Monte-Carlo yield analysis: fault severity x chip realisations.

Answers the robustness question behind the paper's headline numbers: how
quickly does each architecture's detection accuracy degrade as physical
non-idealities grow, and what fraction of simulated chip instances still
meets spec ("yield") at each severity?

:class:`MonteCarloYield` sweeps a :class:`~repro.faults.FaultSuite`
scaled to each severity over ``n_realisations`` independent fault
realisations per (chain, severity) cell, evaluating through the same
:class:`~repro.core.explorer.FrontEndEvaluator` the Pareto sweeps use --
so "degradation" is measured on the actual application metric.  Severity
0 is evaluated once per chain as the clean reference (all fault hooks
are exact no-ops there, so it is bit-identical to an un-instrumented
evaluation).

Everything is deterministic: fault realisations derive from the
evaluator's master seed and the realisation index, never from wall-clock
or global RNG state, so re-running a yield analysis reproduces the table
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.execution import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    evaluate_one,
    evaluate_one_timed,
    timed_out,
)
from repro.core.explorer import FrontEndEvaluator
from repro.core.telemetry import Telemetry, activate, get_active
from repro.faults.injection import FaultSuite
from repro.power.technology import DesignPoint


@dataclass(frozen=True)
class YieldRow:
    """One Monte-Carlo cell: (chain, severity, realisation) -> outcome."""

    chain: str
    severity: float
    realisation: int
    ok: bool
    metric: float | None
    degradation: float | None
    error: str | None
    elapsed_s: float


@dataclass
class YieldResult:
    """Collected yield sweep: per-cell rows plus the clean references."""

    metric: str
    max_degradation: float
    severities: tuple[float, ...]
    n_realisations: int
    clean: dict[str, float] = field(default_factory=dict)
    rows: list[YieldRow] = field(default_factory=list)

    def chains(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.chain not in seen:
                seen.append(row.chain)
        return seen

    def cell(self, chain: str, severity: float) -> list[YieldRow]:
        return [
            r
            for r in self.rows
            if r.chain == chain and math.isclose(r.severity, severity)
        ]

    def yield_at(self, chain: str, severity: float) -> float:
        """Fraction of realisations meeting spec at this severity."""
        rows = self.cell(chain, severity)
        if not rows:
            return float("nan")
        return sum(r.ok for r in rows) / len(rows)

    def yield_curve(self, chain: str) -> list[tuple[float, float]]:
        """``(severity, yield)`` pairs, severity-ascending."""
        return [(s, self.yield_at(chain, s)) for s in self.severities]

    def degradation_stats(self, chain: str, severity: float) -> dict[str, float]:
        """Mean/worst metric degradation among *completed* realisations."""
        values = [
            r.degradation
            for r in self.cell(chain, severity)
            if r.degradation is not None and math.isfinite(r.degradation)
        ]
        if not values:
            return {"mean": float("nan"), "worst": float("nan"), "n": 0}
        return {
            "mean": sum(values) / len(values),
            "worst": max(values),
            "n": len(values),
        }

    def as_table(self) -> str:
        """Plain-text yield/degradation table (deterministic formatting)."""
        lines = [
            f"Monte-Carlo yield ({self.metric}; spec: degradation <= "
            f"{self.max_degradation:g}; {self.n_realisations} realisations/cell)",
            "",
            f"{'chain':<10} {'severity':>8} {'yield':>7} {'mean deg':>9} "
            f"{'worst deg':>9} {'failed':>6}",
        ]
        for chain in self.chains():
            clean = self.clean.get(chain)
            clean_note = f" (clean {self.metric} = {clean:.4f})" if clean is not None else ""
            lines.append(f"-- {chain}{clean_note}")
            for severity in self.severities:
                rows = self.cell(chain, severity)
                if not rows:
                    continue
                stats = self.degradation_stats(chain, severity)
                failed = sum(1 for r in rows if r.error is not None)
                lines.append(
                    f"{chain:<10} {severity:>8.3f} "
                    f"{self.yield_at(chain, severity):>6.1%} "
                    f"{stats['mean']:>9.4f} {stats['worst']:>9.4f} {failed:>6d}"
                )
        return "\n".join(lines)

    def summary(self) -> dict:
        """JSON-ready digest (feeds the run manifest)."""
        return {
            "metric": self.metric,
            "max_degradation": self.max_degradation,
            "severities": list(self.severities),
            "n_realisations": self.n_realisations,
            "clean": dict(self.clean),
            "yield_curves": {c: self.yield_curve(c) for c in self.chains()},
            "failures": sum(1 for r in self.rows if r.error is not None),
            "rows": len(self.rows),
        }


class MonteCarloYield:
    """Sweeps fault severity x chip realisations for one or more chains.

    Parameters
    ----------
    evaluators:
        Chain label -> :class:`FrontEndEvaluator` (typically
        ``{"baseline": ..., "cs": ...}`` sharing one corpus).
    points:
        Chain label -> the :class:`DesignPoint` to stress (typically the
        Fig. 7 b optima).  Keys must match ``evaluators``.
    suite:
        The fault plan; it is re-scaled to each severity via
        :meth:`FaultSuite.scaled`, so the models' own severities act as
        relative weights only insofar as their ``max_*`` parameters
        differ.
    severities:
        Severity grid.  0 need not be included -- the clean reference is
        always evaluated separately.
    n_realisations:
        Independent fault realisations per (chain, severity) cell.
    metric:
        Metric key the spec is written against (default ``accuracy``;
        falls back to ``snr_db`` when the evaluator has no detector).
    max_degradation:
        Spec: a realisation *yields* when it completes without error and
        ``clean_metric - metric <= max_degradation`` (metric NaN fails).
    policy:
        :class:`ExecutionPolicy` guarding each evaluation (timeout),
        reusing the sweep engine's fault isolation so a diverging solve
        becomes a failed row, not a hung analysis.
    """

    def __init__(
        self,
        evaluators: dict[str, FrontEndEvaluator],
        points: dict[str, DesignPoint],
        suite: FaultSuite,
        severities: tuple[float, ...] | list[float] = (0.1, 0.25, 0.5, 1.0),
        n_realisations: int = 8,
        metric: str = "accuracy",
        max_degradation: float = 0.05,
        policy: ExecutionPolicy = DEFAULT_POLICY,
    ):
        missing = set(evaluators) - set(points)
        if missing:
            raise ValueError(f"no design point for chain(s): {sorted(missing)}")
        if not severities:
            raise ValueError("severities must be non-empty")
        for severity in severities:
            if not 0.0 <= severity <= 1.0:
                raise ValueError(f"severities must be in [0, 1], got {severity}")
        if n_realisations < 1:
            raise ValueError(f"n_realisations must be >= 1, got {n_realisations}")
        self.evaluators = dict(evaluators)
        self.points = dict(points)
        self.suite = suite
        self.severities = tuple(float(s) for s in severities)
        self.n_realisations = int(n_realisations)
        self.metric = metric
        self.max_degradation = float(max_degradation)
        self.policy = policy

    def _metric_of(self, evaluation) -> float | None:
        value = evaluation.metrics.get(self.metric)
        if value is None and self.metric == "accuracy":
            value = evaluation.metrics.get("snr_db")
        return None if value is None else float(value)

    def run(self, telemetry: Telemetry | None = None) -> YieldResult:
        """Run the full severity x realisation grid (serial, deterministic)."""
        tel = telemetry if telemetry is not None else get_active()
        result = YieldResult(
            metric=self.metric,
            max_degradation=self.max_degradation,
            severities=self.severities,
            n_realisations=self.n_realisations,
        )
        # Activate ``tel`` ambiently so in-chain counters (faults.applied,
        # solver spans) land in the same sink as the sweep counters.
        with activate(tel), tel.span("robustness.total"):
            for chain, evaluator in self.evaluators.items():
                point = self.points[chain]
                clean_eval = evaluate_one(evaluator, point, False, self.policy)
                self._count(tel, clean_eval)
                if clean_eval.error is not None:
                    raise RuntimeError(
                        f"clean reference evaluation failed for chain "
                        f"{chain!r}: {clean_eval.error}"
                    )
                clean_metric = self._metric_of(clean_eval)
                if clean_metric is None:
                    raise ValueError(
                        f"evaluator for {chain!r} produced no {self.metric!r} "
                        f"metric (available: {sorted(clean_eval.metrics)})"
                    )
                result.clean[chain] = clean_metric
                for severity in self.severities:
                    for realisation in range(self.n_realisations):
                        suite = self.suite.scaled(severity).with_realisation(
                            realisation
                        )
                        faulty = evaluator.with_chain_transform(suite)
                        evaluation, elapsed = evaluate_one_timed(
                            faulty, point, False, self.policy
                        )
                        self._count(tel, evaluation)
                        tel.count("robustness.evaluations")
                        metric = (
                            None
                            if evaluation.error is not None
                            else self._metric_of(evaluation)
                        )
                        degradation = (
                            None if metric is None else clean_metric - metric
                        )
                        ok = (
                            evaluation.error is None
                            and metric is not None
                            and math.isfinite(metric)
                            and degradation <= self.max_degradation
                        )
                        result.rows.append(
                            YieldRow(
                                chain=chain,
                                severity=severity,
                                realisation=realisation,
                                ok=ok,
                                metric=metric,
                                degradation=degradation,
                                error=evaluation.error,
                                elapsed_s=elapsed,
                            )
                        )
        return result

    @staticmethod
    def _count(tel: Telemetry, evaluation) -> None:
        if evaluation.error is not None:
            tel.count("robustness.failures")
            if timed_out(evaluation):
                tel.count("robustness.timeouts")
