"""Adaptive multi-fidelity exploration: successive halving over fidelity rungs.

The exhaustive :meth:`~repro.core.explorer.DesignSpaceExplorer.explore`
evaluates every grid point at full fidelity, but the paper's pathfinding
goal only needs the *Pareto front* -- the overwhelming majority of a dense
grid is dominated and its full-fidelity evaluations are wasted.  This
module implements the classic successive-halving remedy:

1. A :class:`FidelitySchedule` derives *cheap* evaluator variants from the
   full-fidelity evaluator -- a smoke-scale corpus slice and a reduced
   solver iteration budget for :class:`~repro.core.explorer.FrontEndEvaluator`,
   or a user-supplied ``derive`` hook for custom evaluators.  Each variant
   carries its own cache fingerprint (the corpus slice and the scaled
   solver factory both feed :meth:`FrontEndEvaluator.fingerprint`), so
   low- and full-fidelity evaluations never share a cache entry.
2. Each *rung* runs one wave of the surviving points through the ordinary
   :class:`~repro.core.explorer.DesignSpaceExplorer` -- so every
   executor, :class:`~repro.core.execution.EvaluationCache`, per-rung
   checkpoint resume, timeouts/retries, telemetry and tracing all compose
   unchanged.
3. Survivors -- the rung's Pareto front, plus an optional
   epsilon-dominance band (:func:`~repro.core.pareto.epsilon_nondominated`)
   absorbing low-fidelity metric noise, topped up to a ``keep_frac`` floor
   by non-dominated-sorting layers -- are promoted to the next (more
   expensive) rung.  The final rung runs at full fidelity; its wave is the
   returned result.

The run is summarised in a :class:`PromotionLedger` (points proposed /
kept / promoted per rung plus the headline full-fidelity saving), which
the experiment runner records into the run manifest.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.execution import component_fingerprint
from repro.core.pareto import Objective, epsilon_nondominated, pareto_front
from repro.core.results import Evaluation, ExplorationResult

log = logging.getLogger("repro.adaptive")

#: Fewest solver iterations a scaled reconstructor may run: below this
#: FISTA output is noise, which misranks rather than merely blurs.
MIN_SOLVER_ITERATIONS = 10


@dataclass(frozen=True)
class FidelityRung:
    """One evaluation fidelity of the successive-halving ladder.

    ``corpus_fraction`` scales the number of evaluation records (corpus
    rows); ``solver_scale`` scales the reconstruction solver's iteration
    budget.  Both are relative to the full-fidelity evaluator, in
    ``(0, 1]``; the product is the rung's approximate relative cost.
    """

    name: str
    corpus_fraction: float = 1.0
    solver_scale: float = 1.0

    def __post_init__(self) -> None:
        for label, value in (
            ("corpus_fraction", self.corpus_fraction),
            ("solver_scale", self.solver_scale),
        ):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {value}")

    @property
    def is_full(self) -> bool:
        """True for the full-fidelity rung (the original evaluator)."""
        return self.corpus_fraction == 1.0 and self.solver_scale == 1.0

    @property
    def cost_fraction(self) -> float:
        """Approximate relative evaluation cost of this rung."""
        return self.corpus_fraction * self.solver_scale


@dataclass(frozen=True)
class ScaledSolverFactory:
    """Reconstructor factory scaling the inner factory's iteration budget.

    A module-level frozen dataclass so low-fidelity evaluators stay
    picklable for process sweeps; exposes a content ``fingerprint`` so a
    scaled solver never shares a cache key with the full-budget one.
    """

    inner: Callable
    scale: float

    def __call__(self, point):
        reconstructor = self.inner(point)
        iterations = max(
            MIN_SOLVER_ITERATIONS, int(round(reconstructor.n_iter * self.scale))
        )
        return replace(reconstructor, n_iter=iterations)

    def fingerprint(self) -> str:
        return f"{component_fingerprint(self.inner)}:solver_scale={self.scale!r}"


def derive_low_fidelity(evaluator, rung: FidelityRung):
    """Default low-fidelity derivation for :class:`FrontEndEvaluator`.

    Slices the evaluation corpus to the leading ``corpus_fraction`` of its
    records (labels follow) and wraps the reconstructor factory in a
    :class:`ScaledSolverFactory`.  Evaluators that are not
    :class:`FrontEndEvaluator` instances are returned unchanged -- their
    "low fidelity" is the full computation, so adaptive runs still save
    full-fidelity *evaluation counts* but not per-evaluation cost;
    custom evaluators get real savings via ``FidelitySchedule(derive=...)``.
    """
    from repro.core.explorer import FrontEndEvaluator

    if rung.is_full or not isinstance(evaluator, FrontEndEvaluator):
        return evaluator
    n_records = evaluator.records.shape[0]
    keep = max(1, int(round(rung.corpus_fraction * n_records)))
    derived = FrontEndEvaluator(
        records=evaluator.records[:keep],
        labels=None if evaluator.labels is None else evaluator.labels[:keep],
        sample_rate=evaluator.sample_rate,
        detector=evaluator.detector,
        seed=evaluator.seed,
        reconstructor_factory=evaluator.reconstructor_factory,
        chain_transform=evaluator.chain_transform,
    )
    if rung.solver_scale < 1.0:
        derived.reconstructor_factory = ScaledSolverFactory(
            derived.reconstructor_factory, rung.solver_scale
        )
    return derived


class FidelitySchedule:
    """An ordered ladder of :class:`FidelityRung` ending at full fidelity.

    Parameters
    ----------
    rungs:
        Cheapest first; the last rung must be full fidelity (the search
        must finish on the real evaluator).  Costs must be non-decreasing.
    derive:
        Optional ``f(evaluator, rung) -> evaluator`` hook replacing
        :func:`derive_low_fidelity` for custom evaluator types.  It must
        return a picklable evaluator whose cache fingerprint differs from
        the full-fidelity one whenever its results do.
    """

    def __init__(
        self,
        rungs: Sequence[FidelityRung],
        derive: Callable[[object, FidelityRung], object] | None = None,
    ):
        rungs = tuple(rungs)
        if not rungs:
            raise ValueError("schedule needs at least one rung")
        if not rungs[-1].is_full:
            raise ValueError(
                "the last rung must be full fidelity "
                "(corpus_fraction == solver_scale == 1.0)"
            )
        costs = [rung.cost_fraction for rung in rungs]
        if any(a > b for a, b in zip(costs, costs[1:])):
            raise ValueError(f"rung costs must be non-decreasing, got {costs}")
        self.rungs = rungs
        self.derive = derive

    def __len__(self) -> int:
        return len(self.rungs)

    def __repr__(self) -> str:
        ladder = " -> ".join(
            f"{rung.name}({rung.cost_fraction:.3g})" for rung in self.rungs
        )
        return f"FidelitySchedule({ladder})"

    @classmethod
    def geometric(
        cls,
        n_rungs: int = 3,
        reduction: float = 4.0,
        min_corpus_fraction: float = 0.05,
        min_solver_scale: float = 0.25,
        derive: Callable[[object, FidelityRung], object] | None = None,
    ) -> "FidelitySchedule":
        """The standard successive-halving ladder.

        ``n_rungs`` rungs whose corpus fraction shrinks geometrically by
        ``reduction`` per rung below full fidelity (floored at
        ``min_corpus_fraction``), with the solver budget scaled by the
        square root of the corpus fraction (floored at
        ``min_solver_scale``) -- solvers degrade more gracefully than
        statistics, so they are throttled more gently.
        """
        if n_rungs < 1:
            raise ValueError(f"n_rungs must be >= 1, got {n_rungs}")
        if reduction <= 1.0:
            raise ValueError(f"reduction must be > 1, got {reduction}")
        rungs = []
        for level in range(n_rungs - 1, 0, -1):
            fraction = max(min_corpus_fraction, reduction**-level)
            solver = max(min_solver_scale, math.sqrt(fraction))
            rungs.append(
                FidelityRung(
                    name=f"rung{n_rungs - 1 - level}",
                    corpus_fraction=fraction,
                    solver_scale=solver,
                )
            )
        rungs.append(FidelityRung(name="full"))
        return cls(rungs, derive=derive)

    def evaluator_for(self, evaluator, rung: FidelityRung):
        """The evaluator variant to use at ``rung``."""
        if rung.is_full:
            return evaluator
        if self.derive is not None:
            return self.derive(evaluator, rung)
        return derive_low_fidelity(evaluator, rung)


@dataclass
class RungReport:
    """Promotion accounting of one rung (one row of the ledger)."""

    rung: int
    name: str
    corpus_fraction: float
    solver_scale: float
    proposed: int
    failures: int
    kept: int
    promoted: int
    wall_s: float
    interrupted: bool = False

    def to_dict(self) -> dict:
        return {
            "rung": self.rung,
            "name": self.name,
            "corpus_fraction": self.corpus_fraction,
            "solver_scale": self.solver_scale,
            "proposed": self.proposed,
            "failures": self.failures,
            "kept": self.kept,
            "promoted": self.promoted,
            "wall_s": self.wall_s,
            "interrupted": self.interrupted,
        }


@dataclass
class PromotionLedger:
    """Per-rung promotion history of one adaptive run."""

    grid_size: int
    keep_frac: float
    rungs: list[RungReport] = field(default_factory=list)

    @property
    def interrupted(self) -> bool:
        """True when the run stopped before finishing its final rung."""
        return any(report.interrupted for report in self.rungs)

    @property
    def full_fidelity_evaluations(self) -> int:
        """Points evaluated on the full-fidelity (final) rung."""
        return sum(
            report.proposed
            for report in self.rungs
            if report.corpus_fraction == 1.0 and report.solver_scale == 1.0
        )

    @property
    def low_fidelity_evaluations(self) -> int:
        """Points evaluated on reduced-fidelity rungs."""
        return sum(
            report.proposed
            for report in self.rungs
            if not (report.corpus_fraction == 1.0 and report.solver_scale == 1.0)
        )

    @property
    def reduction(self) -> float | None:
        """Grid size / full-fidelity evaluations (the headline saving)."""
        full = self.full_fidelity_evaluations
        return self.grid_size / full if full else None

    def to_dict(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "keep_frac": self.keep_frac,
            "rungs": [report.to_dict() for report in self.rungs],
            "full_fidelity_evaluations": self.full_fidelity_evaluations,
            "low_fidelity_evaluations": self.low_fidelity_evaluations,
            "reduction": self.reduction,
            "interrupted": self.interrupted,
        }

    def summary(self) -> str:
        """Fixed-width per-rung table (repo plain-text conventions)."""
        lines = [
            f"{'rung':<10}{'fidelity':>10}{'proposed':>10}{'failed':>8}"
            f"{'kept':>7}{'promoted':>10}{'wall [s]':>10}"
        ]
        for report in self.rungs:
            tag = report.name + (" (interrupted)" if report.interrupted else "")
            lines.append(
                f"{tag:<10}{report.corpus_fraction * report.solver_scale:>10.3g}"
                f"{report.proposed:>10}{report.failures:>8}{report.kept:>7}"
                f"{report.promoted:>10}{report.wall_s:>10.2f}"
            )
        reduction = self.reduction
        if reduction is not None:
            lines.append(
                f"full-fidelity evaluations: {self.full_fidelity_evaluations} of "
                f"{self.grid_size} grid points ({reduction:.1f}x fewer than exhaustive)"
            )
        return "\n".join(lines)


class AdaptiveExplorationResult(ExplorationResult):
    """Full-fidelity finishers of an adaptive run plus its promotion ledger.

    Behaves exactly like an :class:`ExplorationResult` restricted to the
    points that reached the final rung (eliminated points were only ever
    measured at low fidelity, so their metrics are not comparable and are
    not included); ``ledger`` records what happened to the rest.
    """

    def __init__(
        self,
        evaluations: Sequence[Evaluation],
        ledger: PromotionLedger,
        name: str = "adaptive",
    ):
        super().__init__(evaluations, name=name)
        self.ledger = ledger


def select_survivors(
    entries: Sequence[tuple[int, Evaluation]],
    objectives: Sequence[Objective],
    keep_frac: float,
    epsilon: Mapping[str, float] | None = None,
    group_by: Callable[[Evaluation], object] | None = None,
) -> list[int]:
    """Indices (from ``entries``) promoted to the next rung.

    Per group (``group_by`` partitions the cloud, e.g. by architecture, so
    one group's dominance cannot starve another's front): the exact Pareto
    front, widened to the epsilon-dominance band when ``epsilon`` is
    given, then topped up with successive non-dominated-sorting layers
    until at least ``ceil(keep_frac * group size)`` points survive -- the
    floor hedges low-fidelity misranking near the front.  Points whose
    objective values are missing or non-finite are never promoted.
    """
    if not 0.0 < keep_frac <= 1.0:
        raise ValueError(f"keep_frac must be in (0, 1], got {keep_frac}")
    groups: dict[object, list[tuple[int, Evaluation]]] = {}
    for index, evaluation in entries:
        key = None if group_by is None else group_by(evaluation)
        groups.setdefault(key, []).append((index, evaluation))

    kept: list[int] = []
    use_band = epsilon is not None and any(v > 0 for v in epsilon.values())
    for members in groups.values():
        index_of = {id(evaluation): index for index, evaluation in members}
        evaluations = [evaluation for _, evaluation in members]
        if use_band:
            survivors = epsilon_nondominated(evaluations, objectives, dict(epsilon))
        else:
            survivors = pareto_front(evaluations, objectives)
        surviving_ids = {id(evaluation) for evaluation in survivors}
        floor = math.ceil(keep_frac * len(members))
        remaining = [e for e in evaluations if id(e) not in surviving_ids]
        while len(surviving_ids) < floor and remaining:
            layer = pareto_front(remaining, objectives)
            if not layer:
                break  # everything left is infeasible (NaN/missing metrics)
            surviving_ids.update(id(evaluation) for evaluation in layer)
            layer_ids = {id(evaluation) for evaluation in layer}
            remaining = [e for e in remaining if id(e) not in layer_ids]
        kept.extend(index_of[eid] for eid in surviving_ids)
    return sorted(kept)


def _rung_checkpoint(checkpoint: str | Path | None, rung: int) -> Path | None:
    """Per-rung checkpoint path: ``sweep.jsonl`` -> ``sweep.rung0.jsonl``."""
    if checkpoint is None:
        return None
    path = Path(checkpoint)
    return path.with_name(f"{path.stem}.rung{rung}{path.suffix or '.jsonl'}")


def run_adaptive(
    explorer,
    points: Iterable,
    *,
    objectives: Sequence[Objective],
    schedule: FidelitySchedule,
    keep_frac: float = 1 / 3,
    epsilon: Mapping[str, float] | None = None,
    group_by: Callable[[Evaluation], object] | None = None,
    name: str = "adaptive",
    telemetry=None,
    checkpoint: str | Path | None = None,
    **explore_kwargs,
) -> AdaptiveExplorationResult:
    """The successive-halving engine behind ``explore_adaptive``.

    ``explorer`` is the :class:`~repro.core.explorer.DesignSpaceExplorer`
    holding the *full-fidelity* evaluator; ``explore_kwargs`` are passed
    through to each rung's :meth:`explore` call (executor, workers, cache,
    policy, ...).  See
    :meth:`~repro.core.explorer.DesignSpaceExplorer.explore_adaptive` for
    the user-facing contract.
    """
    from repro.core.explorer import DesignSpaceExplorer
    from repro.core.telemetry import activate, get_active

    points = list(points)
    if not points:
        raise ValueError("design space produced no points to evaluate")
    if not objectives:
        raise ValueError("need at least one objective")
    tel = telemetry if telemetry is not None else get_active()
    ledger = PromotionLedger(grid_size=len(points), keep_frac=keep_frac)
    survivors = list(range(len(points)))
    final_wave: list[Evaluation] = []

    with activate(tel), tel.span("adaptive.total"):
        tel.count("adaptive.runs")
        for level, rung in enumerate(schedule.rungs):
            rung_points = [points[i] for i in survivors]
            rung_evaluator = schedule.evaluator_for(explorer.evaluator, rung)
            rung_explorer = (
                explorer
                if rung_evaluator is explorer.evaluator
                else DesignSpaceExplorer(rung_evaluator)
            )
            start = time.perf_counter()
            with tel.span("adaptive.rung", rung=level, rung_name=rung.name):
                wave = rung_explorer.explore(
                    rung_points,
                    name=f"{name}-{rung.name}",
                    checkpoint=_rung_checkpoint(checkpoint, level),
                    **explore_kwargs,
                )
            wall_s = time.perf_counter() - start
            failures = wave.failures()
            interrupted = any(
                e.error is not None and e.error.startswith("Interrupted")
                for e in failures
            )
            tel.count("adaptive.rungs")
            tel.count(
                "adaptive.full_fidelity_points"
                if rung.is_full
                else "adaptive.low_fidelity_points",
                len(rung_points),
            )
            if interrupted:
                ledger.rungs.append(
                    RungReport(
                        rung=level,
                        name=rung.name,
                        corpus_fraction=rung.corpus_fraction,
                        solver_scale=rung.solver_scale,
                        proposed=len(rung_points),
                        failures=len(failures),
                        kept=0,
                        promoted=0,
                        wall_s=wall_s,
                        interrupted=True,
                    )
                )
                tel.count("adaptive.interrupted")
                log.warning(
                    "adaptive run interrupted on %s (%d/%d rungs); returning the "
                    "partial wave -- resume with the same checkpoint path to "
                    "continue",
                    rung.name,
                    level + 1,
                    len(schedule),
                )
                final_wave = list(wave)
                break
            successes = [
                (index, evaluation)
                for index, evaluation in zip(survivors, wave)
                if evaluation.ok
            ]
            is_last = level == len(schedule.rungs) - 1
            if is_last:
                final_wave = list(wave)
                front = pareto_front([e for _, e in successes], objectives)
                kept_count, promoted = len(front), 0
            else:
                with tel.span("adaptive.select", rung=level):
                    promoted_indices = select_survivors(
                        successes, objectives, keep_frac, epsilon, group_by
                    )
                if not promoted_indices:
                    raise ValueError(
                        f"rung {rung.name!r} produced no feasible survivors for "
                        f"objectives {[obj.metric for obj in objectives]}; do the "
                        "evaluations carry those metrics with finite values?"
                    )
                kept_count = promoted = len(promoted_indices)
                survivors = promoted_indices
            tel.count("adaptive.kept", kept_count)
            tel.count("adaptive.promoted", promoted)
            ledger.rungs.append(
                RungReport(
                    rung=level,
                    name=rung.name,
                    corpus_fraction=rung.corpus_fraction,
                    solver_scale=rung.solver_scale,
                    proposed=len(rung_points),
                    failures=len(failures),
                    kept=kept_count,
                    promoted=promoted,
                    wall_s=wall_s,
                )
            )
            tel.event(
                "adaptive.rung_done",
                rung=level,
                name=rung.name,
                proposed=len(rung_points),
                kept=kept_count,
                promoted=promoted,
            )
    return AdaptiveExplorationResult(final_wave, ledger=ledger, name=name)
