"""Tests of the adaptive multi-fidelity explorer and its Pareto foundations.

Covers the successive-halving engine (rung accounting, survivor
selection, checkpoint resume after an interrupt), the fidelity-schedule
derivation of low-cost evaluators, and the NaN/inf hardening of the
Pareto helpers the search steers by -- including Hypothesis suites
asserting (a) adaptive == exhaustive fronts on closed-form evaluators
and (b) no non-finite point ever survives onto a front.
"""

import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import (
    AdaptiveExplorationResult,
    FidelityRung,
    FidelitySchedule,
    MIN_SOLVER_ITERATIONS,
    PromotionLedger,
    RungReport,
    ScaledSolverFactory,
    derive_low_fidelity,
    select_survivors,
)
from repro.core.explorer import DesignSpaceExplorer, FrontEndEvaluator
from repro.core.pareto import (
    Objective,
    best_feasible,
    dominates,
    epsilon_nondominated,
    pareto_front,
)
from repro.core.results import Evaluation
from repro.experiments.runner import FistaReconstructorFactory
from repro.power.technology import DesignPoint

OBJ = (Objective("power", maximize=False), Objective("quality", maximize=True))


def make_points(n):
    """Distinct design points (distinct describe()) to hang metrics on."""
    return [DesignPoint(lna_noise_rms=(i + 1) * 1e-6) for i in range(n)]


def table_evaluator(points, rows):
    """Closed-form evaluator: point identity -> fixed metric dict."""
    table = {id(p): {"power": power, "quality": quality} for p, (power, quality) in zip(points, rows)}
    return lambda point: Evaluation(point=point, metrics=dict(table[id(point)]))


def front_values(evaluations, objectives=OBJ):
    return sorted(
        (e.metrics["power"], e.metrics["quality"])
        for e in pareto_front([e for e in evaluations if e.ok], objectives)
    )


finite_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
)

# Metric values including the pathological ones: NaN, +/-inf, and huge
# magnitudes, alongside ordinary finite floats.
wild_value = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just(float("nan")),
    st.just(float("inf")),
    st.just(float("-inf")),
)
wild_rows = st.lists(st.tuples(wild_value, wild_value), min_size=1, max_size=40)


class TestFidelityRungAndSchedule:
    def test_rung_validation(self):
        with pytest.raises(ValueError, match="corpus_fraction"):
            FidelityRung("bad", corpus_fraction=0.0)
        with pytest.raises(ValueError, match="solver_scale"):
            FidelityRung("bad", solver_scale=1.5)

    def test_full_rung_properties(self):
        rung = FidelityRung("full")
        assert rung.is_full
        assert rung.cost_fraction == 1.0

    def test_schedule_requires_full_final_rung(self):
        with pytest.raises(ValueError, match="full fidelity"):
            FidelitySchedule([FidelityRung("lo", corpus_fraction=0.5)])

    def test_schedule_requires_nondecreasing_cost(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            FidelitySchedule(
                [
                    FidelityRung("a", corpus_fraction=0.5),
                    FidelityRung("b", corpus_fraction=0.25),
                    FidelityRung("full"),
                ]
            )

    def test_schedule_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one rung"):
            FidelitySchedule([])

    def test_geometric_shape(self):
        schedule = FidelitySchedule.geometric(4, reduction=4.0)
        assert len(schedule) == 4
        assert schedule.rungs[-1].is_full
        costs = [r.cost_fraction for r in schedule.rungs]
        assert costs == sorted(costs)
        # 4**-3 would be 1/64; the default min_corpus_fraction floors it.
        assert schedule.rungs[0].corpus_fraction == pytest.approx(0.05)
        deeper = FidelitySchedule.geometric(3, reduction=2.0)
        assert deeper.rungs[0].corpus_fraction == pytest.approx(0.25)

    def test_geometric_single_rung_degenerates_to_exhaustive(self):
        schedule = FidelitySchedule.geometric(1)
        assert len(schedule) == 1
        assert schedule.rungs[0].is_full

    def test_geometric_validation(self):
        with pytest.raises(ValueError, match="n_rungs"):
            FidelitySchedule.geometric(0)
        with pytest.raises(ValueError, match="reduction"):
            FidelitySchedule.geometric(3, reduction=1.0)

    def test_full_rung_returns_original_evaluator(self):
        sentinel = object()
        schedule = FidelitySchedule([FidelityRung("full")])
        assert schedule.evaluator_for(sentinel, schedule.rungs[0]) is sentinel

    def test_custom_derive_hook(self):
        derived = object()
        schedule = FidelitySchedule(
            [FidelityRung("lo", corpus_fraction=0.5), FidelityRung("full")],
            derive=lambda evaluator, rung: derived,
        )
        assert schedule.evaluator_for(object(), schedule.rungs[0]) is derived

    def test_non_frontend_evaluators_pass_through_unchanged(self):
        evaluator = lambda p: None  # noqa: E731 - any callable
        rung = FidelityRung("lo", corpus_fraction=0.25)
        assert derive_low_fidelity(evaluator, rung) is evaluator


class TestDeriveLowFidelity:
    def make_evaluator(self, n_records=8, n_samples=128):
        rng = np.random.default_rng(0)
        records = rng.normal(0.0, 20e-6, size=(n_records, n_samples))
        return FrontEndEvaluator(records, None, 2.1 * 256, seed=3)

    def test_slices_corpus_rows(self):
        evaluator = self.make_evaluator()
        derived = derive_low_fidelity(evaluator, FidelityRung("lo", corpus_fraction=0.25))
        assert derived.records.shape == (2, 128)
        np.testing.assert_array_equal(derived.records, evaluator.records[:2])

    def test_labels_follow_the_slice(self):
        rng = np.random.default_rng(0)
        records = rng.normal(0.0, 20e-6, size=(8, 128))
        labels = np.arange(8) % 2
        evaluator = FrontEndEvaluator(records, labels, 2.1 * 256, seed=3)
        # No detector, so accuracy is skipped -- but labels must stay
        # consistent with the sliced corpus for evaluators that carry one.
        derived = derive_low_fidelity(evaluator, FidelityRung("lo", corpus_fraction=0.5))
        assert derived.labels.size == derived.records.shape[0] == 4

    def test_keeps_at_least_one_record(self):
        evaluator = self.make_evaluator(n_records=3)
        derived = derive_low_fidelity(evaluator, FidelityRung("lo", corpus_fraction=0.01))
        assert derived.records.shape[0] == 1

    def test_fingerprints_distinct_per_rung_and_from_full(self):
        evaluator = self.make_evaluator()
        rungs = [
            FidelityRung("a", corpus_fraction=0.25, solver_scale=0.25),
            FidelityRung("b", corpus_fraction=0.5, solver_scale=0.5),
        ]
        prints = {derive_low_fidelity(evaluator, rung).fingerprint() for rung in rungs}
        prints.add(evaluator.fingerprint())
        assert len(prints) == 3

    def test_solver_scale_wraps_factory(self):
        evaluator = self.make_evaluator()
        derived = derive_low_fidelity(
            evaluator, FidelityRung("lo", corpus_fraction=1.0, solver_scale=0.1)
        )
        reconstructor = derived.reconstructor_factory(DesignPoint(use_cs=True, cs_m=32, cs_n_phi=64))
        assert reconstructor.n_iter == max(MIN_SOLVER_ITERATIONS, 30)

    def test_scaled_solver_floor(self):
        factory = ScaledSolverFactory(
            derive_low_fidelity(
                self.make_evaluator(), FidelityRung("lo", solver_scale=0.9)
            ).reconstructor_factory,
            0.001,
        )
        point = DesignPoint(use_cs=True, cs_m=32, cs_n_phi=64)
        assert factory(point).n_iter == MIN_SOLVER_ITERATIONS

    def test_derived_evaluator_is_picklable(self):
        evaluator = self.make_evaluator()
        derived = derive_low_fidelity(
            evaluator, FidelityRung("lo", corpus_fraction=0.5, solver_scale=0.5)
        )
        clone = pickle.loads(pickle.dumps(derived))
        assert clone.records.shape == derived.records.shape
        assert clone.fingerprint() == derived.fingerprint()


class TestSelectSurvivors:
    def entries(self, rows):
        points = make_points(len(rows))
        return [
            (i, Evaluation(point=p, metrics={"power": power, "quality": quality}))
            for i, (p, (power, quality)) in enumerate(zip(points, rows))
        ]

    def test_front_always_survives(self):
        entries = self.entries([(1, 0.9), (2, 0.95), (3, 0.5), (4, 0.4)])
        kept = select_survivors(entries, OBJ, keep_frac=0.01)
        assert set(kept) >= {0, 1}

    def test_keep_frac_floor_peels_layers(self):
        # One dominating point; the floor forces dominated layers in.
        entries = self.entries([(1, 0.9), (2, 0.8), (3, 0.7), (4, 0.6)])
        assert select_survivors(entries, OBJ, keep_frac=0.01) == [0]
        assert select_survivors(entries, OBJ, keep_frac=0.75) == [0, 1, 2]

    def test_group_by_keeps_per_group_fronts(self):
        entries = self.entries([(1, 0.9), (10, 0.5), (12, 0.4)])
        # Ungrouped: (10, 0.5) and (12, 0.4) are dominated by (1, 0.9).
        assert select_survivors(entries, OBJ, keep_frac=0.01) == [0]
        # Grouped (say, by architecture): each group keeps its own front.
        kept = select_survivors(
            entries, OBJ, keep_frac=0.01, group_by=lambda e: e.metrics["power"] > 5
        )
        assert kept == [0, 1]

    def test_non_finite_points_never_promoted(self):
        entries = self.entries(
            [(1, 0.9), (float("nan"), 0.95), (2, float("inf")), (3, 0.5)]
        )
        kept = select_survivors(entries, OBJ, keep_frac=1.0)
        assert kept == [0, 3]

    def test_epsilon_band_widens_selection(self):
        entries = self.entries([(1.0, 0.9), (1.05, 0.895), (5.0, 0.2)])
        assert select_survivors(entries, OBJ, keep_frac=0.01) == [0]
        kept = select_survivors(
            entries, OBJ, keep_frac=0.01, epsilon={"power": 0.1, "quality": 0.01}
        )
        assert kept == [0, 1]

    def test_keep_frac_validation(self):
        with pytest.raises(ValueError, match="keep_frac"):
            select_survivors(self.entries([(1, 0.5)]), OBJ, keep_frac=0.0)


class TestPromotionLedger:
    def report(self, **overrides):
        base = dict(
            rung=0,
            name="rung0",
            corpus_fraction=0.25,
            solver_scale=0.5,
            proposed=100,
            failures=2,
            kept=20,
            promoted=20,
            wall_s=1.5,
        )
        base.update(overrides)
        return RungReport(**base)

    def test_full_fidelity_accounting(self):
        ledger = PromotionLedger(grid_size=100, keep_frac=0.2)
        ledger.rungs.append(self.report())
        ledger.rungs.append(
            self.report(rung=1, name="full", corpus_fraction=1.0, solver_scale=1.0, proposed=10)
        )
        assert ledger.full_fidelity_evaluations == 10
        assert ledger.low_fidelity_evaluations == 100
        assert ledger.reduction == pytest.approx(10.0)
        assert not ledger.interrupted

    def test_reduction_none_before_final_rung(self):
        ledger = PromotionLedger(grid_size=100, keep_frac=0.2)
        ledger.rungs.append(self.report(interrupted=True))
        assert ledger.reduction is None
        assert ledger.interrupted

    def test_to_dict_and_summary(self):
        ledger = PromotionLedger(grid_size=50, keep_frac=0.3)
        ledger.rungs.append(
            self.report(corpus_fraction=1.0, solver_scale=1.0, name="full", proposed=5)
        )
        payload = ledger.to_dict()
        assert payload["grid_size"] == 50
        assert payload["full_fidelity_evaluations"] == 5
        assert payload["reduction"] == pytest.approx(10.0)
        assert payload["rungs"][0]["name"] == "full"
        text = ledger.summary()
        assert "full-fidelity evaluations: 5 of 50" in text
        assert "10.0x" in text


class TestAdaptiveExploration:
    def test_matches_exhaustive_front_basic(self):
        rows = [(float(i % 7 + 1), float((i * 13) % 10) / 10) for i in range(40)]
        points = make_points(len(rows))
        evaluator = table_evaluator(points, rows)
        explorer = DesignSpaceExplorer(evaluator)
        exhaustive = explorer.explore(points)
        result = explorer.explore_adaptive(
            points, objectives=OBJ, rungs=3, keep_frac=0.2, executor="serial"
        )
        assert isinstance(result, AdaptiveExplorationResult)
        assert front_values(list(result)) == front_values(list(exhaustive))

    @settings(max_examples=30, deadline=None)
    @given(finite_rows, st.integers(min_value=1, max_value=4))
    def test_adaptive_equals_exhaustive_on_closed_form(self, rows, rungs):
        """Under identity fidelity derivation the adaptive front is exact.

        Non-domination is monotone under subsets, so every exhaustive-
        front point survives every rung, and dominated stowaways are
        eliminated in the final full-fidelity wave.
        """
        points = make_points(len(rows))
        evaluator = table_evaluator(points, rows)
        explorer = DesignSpaceExplorer(evaluator)
        exhaustive = explorer.explore(points)
        result = explorer.explore_adaptive(
            points, objectives=OBJ, rungs=rungs, keep_frac=0.25, executor="serial"
        )
        assert front_values(list(result)) == front_values(list(exhaustive))
        ledger = result.ledger
        assert ledger.grid_size == len(points)
        assert len(ledger.rungs) == rungs
        assert ledger.full_fidelity_evaluations <= len(points)
        assert ledger.rungs[0].proposed == len(points)
        for earlier, later in zip(ledger.rungs, ledger.rungs[1:]):
            assert later.proposed == earlier.promoted

    def test_accepts_goal_and_defaults(self):
        from repro.core.goal import Goal

        rows = [(1.0, 0.9), (2.0, 0.5)]
        points = make_points(2)
        evaluator = table_evaluator(points, rows)
        goal = Goal(name="g", objectives=OBJ)
        result = DesignSpaceExplorer(evaluator).explore_adaptive(
            points, objectives=goal, rungs=2, executor="serial"
        )
        assert len(result.pareto(OBJ)) == 1

    def test_raises_when_no_feasible_survivors(self):
        points = make_points(4)
        evaluator = table_evaluator(points, [(float("nan"), float("nan"))] * 4)
        with pytest.raises(ValueError, match="no feasible survivors"):
            DesignSpaceExplorer(evaluator).explore_adaptive(
                points, objectives=OBJ, rungs=2, executor="serial"
            )

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            DesignSpaceExplorer(lambda p: None).explore_adaptive(
                [], objectives=OBJ, executor="serial"
            )

    def test_single_rung_is_exhaustive(self):
        rows = [(1.0, 0.5), (2.0, 0.9), (3.0, 0.1)]
        points = make_points(3)
        evaluator = table_evaluator(points, rows)
        result = DesignSpaceExplorer(evaluator).explore_adaptive(
            points, objectives=OBJ, rungs=1, executor="serial"
        )
        assert len(result) == 3
        assert result.ledger.full_fidelity_evaluations == 3
        assert result.ledger.reduction == pytest.approx(1.0)

    def test_telemetry_counters_emitted(self):
        from repro.core.telemetry import Telemetry

        telemetry = Telemetry()
        rows = [(float(i + 1), 0.5) for i in range(10)]
        points = make_points(10)
        evaluator = table_evaluator(points, rows)
        DesignSpaceExplorer(evaluator).explore_adaptive(
            points, objectives=OBJ, rungs=2, executor="serial", telemetry=telemetry
        )
        counters = telemetry.snapshot()["counters"]
        assert counters["adaptive.runs"] == 1
        assert counters["adaptive.rungs"] == 2
        assert counters["adaptive.full_fidelity_points"] >= 1
        assert counters["adaptive.low_fidelity_points"] == 10
        timers = telemetry.timers()
        assert "adaptive.total" in timers
        assert "adaptive.rung" in timers


class InterruptingEvaluator:
    """Closed-form evaluator raising KeyboardInterrupt after N calls."""

    def __init__(self, rows, points, interrupt_after=None):
        self.table = {
            p.describe(): {"power": power, "quality": quality}
            for p, (power, quality) in zip(points, rows)
        }
        self.interrupt_after = interrupt_after
        self.calls = 0

    def __call__(self, point):
        if self.interrupt_after is not None and self.calls >= self.interrupt_after:
            raise KeyboardInterrupt
        self.calls += 1
        return Evaluation(point=point, metrics=dict(self.table[point.describe()]))


class TestCheckpointResume:
    def test_interrupted_adaptive_run_resumes_from_checkpoint(self, tmp_path):
        rows = [(float(i % 5 + 1), float((i * 7) % 10) / 10) for i in range(20)]
        points = make_points(len(rows))
        checkpoint = tmp_path / "adaptive.jsonl"

        interrupted = DesignSpaceExplorer(
            InterruptingEvaluator(rows, points, interrupt_after=8)
        ).explore_adaptive(
            points,
            objectives=OBJ,
            rungs=2,
            keep_frac=0.25,
            executor="serial",
            checkpoint=checkpoint,
        )
        assert interrupted.ledger.interrupted
        assert interrupted.ledger.rungs[-1].interrupted
        assert any(
            e.error is not None and e.error.startswith("Interrupted")
            for e in interrupted
        )
        assert (tmp_path / "adaptive.rung0.jsonl").exists()

        resumed_evaluator = InterruptingEvaluator(rows, points)
        result = DesignSpaceExplorer(resumed_evaluator).explore_adaptive(
            points,
            objectives=OBJ,
            rungs=2,
            keep_frac=0.25,
            executor="serial",
            checkpoint=checkpoint,
        )
        assert not result.ledger.interrupted
        # The 8 points completed before the interrupt were restored from
        # the rung-0 checkpoint, not re-evaluated.
        assert resumed_evaluator.calls < 20 + result.ledger.full_fidelity_evaluations

        reference = DesignSpaceExplorer(
            InterruptingEvaluator(rows, points)
        ).explore_adaptive(
            points, objectives=OBJ, rungs=2, keep_frac=0.25, executor="serial"
        )
        assert front_values(list(result)) == front_values(list(reference))


@dataclass(frozen=True)
class FidelityEvaluator:
    """Closed-form evaluator stamping its fidelity into every evaluation."""

    fidelity: float = 1.0

    def fingerprint(self) -> str:
        return f"fidelity:{self.fidelity}"

    def __call__(self, point):
        power = point.lna_noise_rms * 1e6
        return Evaluation(
            point=point,
            metrics={"power": power, "quality": 1.0 / power, "fidelity": self.fidelity},
        )


class TestCheckpointFidelity:
    def test_resume_never_restores_another_rungs_evaluations(self, tmp_path):
        """A 2-rung run resumed on a 3-rung run's checkpoint path: its
        rung 1 (full fidelity) must not restore the 3-rung run's rung 1
        (a quarter of the corpus), whose grid matches point for point."""
        points = make_points(6)
        checkpoint = tmp_path / "adaptive.jsonl"

        def run(rungs):
            schedule = FidelitySchedule.geometric(
                rungs, derive=lambda evaluator, rung: FidelityEvaluator(rung.corpus_fraction)
            )
            return DesignSpaceExplorer(FidelityEvaluator()).explore_adaptive(
                points,
                objectives=OBJ,
                schedule=schedule,
                keep_frac=1.0,
                executor="serial",
                checkpoint=checkpoint,
            )

        assert [e.metrics["fidelity"] for e in run(3)] == [1.0] * 6
        resumed = run(2)
        assert [e.metrics["fidelity"] for e in resumed] == [1.0] * 6


class TestParetoNonFiniteFuzz:
    def evals(self, rows):
        return [
            Evaluation(point=p, metrics={"power": power, "quality": quality})
            for p, (power, quality) in zip(make_points(len(rows)), rows)
        ]

    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_front_never_contains_non_finite_point(self, rows):
        front = pareto_front(self.evals(rows), OBJ)
        for evaluation in front:
            assert math.isfinite(evaluation.metrics["power"])
            assert math.isfinite(evaluation.metrics["quality"])

    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_epsilon_band_never_contains_non_finite_point(self, rows):
        band = epsilon_nondominated(
            self.evals(rows), OBJ, {"power": 0.5, "quality": 0.05}
        )
        for evaluation in band:
            assert math.isfinite(evaluation.metrics["power"])
            assert math.isfinite(evaluation.metrics["quality"])

    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_zero_epsilon_equals_exact_front(self, rows):
        evals = self.evals(rows)
        assert epsilon_nondominated(evals, OBJ, {}) == pareto_front(evals, OBJ)

    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_band_is_superset_of_front(self, rows):
        evals = self.evals(rows)
        band = {id(e) for e in epsilon_nondominated(evals, OBJ, {"power": 1.0})}
        assert band >= {id(e) for e in pareto_front(evals, OBJ)}

    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_scalar_dominates_matches_vectorised_filter(self, rows):
        """Brute force via dominates() == the vectorised filter, NaN included."""
        evals = self.evals(rows)
        brute = [
            candidate
            for candidate in evals
            if all(math.isfinite(v) for v in candidate.metrics.values())
            and not any(
                dominates(other.metrics, candidate.metrics, OBJ)
                for other in evals
                if other is not candidate
            )
        ]
        assert sorted(map(id, brute)) == sorted(map(id, pareto_front(evals, OBJ)))

    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_best_feasible_is_order_independent(self, rows):
        evals = self.evals(rows)
        forward = best_feasible(evals, "power")
        backward = best_feasible(list(reversed(evals)), "power")
        if forward is None:
            assert backward is None
        else:
            assert not math.isnan(forward.metrics["power"])
            assert forward.metrics["power"] == backward.metrics["power"]

    @settings(max_examples=30, deadline=None)
    @given(wild_rows, st.integers(min_value=1, max_value=3))
    def test_adaptive_result_front_never_non_finite(self, rows, rungs):
        points = make_points(len(rows))
        evaluator = table_evaluator(points, rows)
        if not any(
            math.isfinite(p) and math.isfinite(q) for p, q in rows
        ):
            return  # all-infeasible grids raise (tested elsewhere)
        result = DesignSpaceExplorer(evaluator).explore_adaptive(
            points, objectives=OBJ, rungs=rungs, keep_frac=0.5, executor="serial"
        )
        for evaluation in result.pareto(OBJ):
            assert math.isfinite(evaluation.metrics["power"])
            assert math.isfinite(evaluation.metrics["quality"])


class TestDominatesNonFinite:
    def test_nan_point_never_dominates(self):
        nan = {"power": float("nan"), "quality": 0.9}
        good = {"power": 5.0, "quality": 0.1}
        assert not dominates(nan, good, OBJ)

    def test_finite_point_dominates_nan_point(self):
        nan = {"power": float("nan"), "quality": 0.9}
        good = {"power": 5.0, "quality": 0.1}
        assert dominates(good, nan, OBJ)

    def test_two_non_finite_points_tie(self):
        a = {"power": float("nan"), "quality": 0.9}
        b = {"power": 1.0, "quality": float("inf")}
        assert not dominates(a, b, OBJ)
        assert not dominates(b, a, OBJ)

    def test_inf_treated_like_nan(self):
        inf = {"power": float("-inf"), "quality": 0.9}
        good = {"power": 5.0, "quality": 0.1}
        assert dominates(good, inf, OBJ)
        assert not dominates(inf, good, OBJ)


class TestEpsilonValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            epsilon_nondominated(
                [Evaluation(point=DesignPoint(), metrics={"power": 1.0, "quality": 0.5})],
                OBJ,
                {"power": -1.0},
            )

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            epsilon_nondominated([], OBJ, {"power": float("nan")})

    def test_requires_objectives(self):
        with pytest.raises(ValueError, match="objective"):
            epsilon_nondominated([], (), {})


#: The reduction claim of adaptive exploration on a fig7a-style grid: at
#: least this many times fewer full-fidelity evaluations than grid points.
ADAPTIVE_MIN_REDUCTION = 10.0


def _adaptive_fig7a_setup():
    """Evaluator + 480-point grid of the adaptive fig7a reduction check.

    A fig7a-style power-vs-SNR pathfinding problem shaped so the
    reduction claim is meaningful: a grid dominated by quality-neutral
    axes (``v_dd`` sweeps power without touching SNR) over a small
    sparse-friendly multi-sine corpus -- CS reconstruction of white noise
    is meaningless, and its SNR too unstable across fidelities to steer by.
    """
    sample_rate = 2.1 * 256
    rng = np.random.default_rng(7)
    t = np.arange(512) / sample_rate
    records = np.stack(
        [
            sum(
                a * np.sin(2 * np.pi * f * t + p)
                for a, f, p in zip(
                    rng.uniform(30e-6, 120e-6, 5),
                    rng.uniform(2.0, 40.0, 5),
                    rng.uniform(0, 2 * np.pi, 5),
                )
            )
            for _ in range(4)
        ]
    )
    evaluator = FrontEndEvaluator(
        records,
        None,
        sample_rate,
        seed=11,
        reconstructor_factory=FistaReconstructorFactory(n_iter=60),
    )
    noises = np.linspace(1e-6, 26e-6, 6)
    vdds = np.linspace(0.9, 2.0, 20)
    points = [
        DesignPoint(n_bits=n_bits, lna_noise_rms=noise, v_dd=v_dd)
        for n_bits in (8, 10)
        for noise in noises
        for v_dd in vdds
    ] + [
        DesignPoint(use_cs=True, cs_n_phi=256, cs_m=cs_m, lna_noise_rms=noise, v_dd=v_dd)
        for cs_m in (64, 128)
        for noise in noises
        for v_dd in vdds
    ]
    return evaluator, points


@pytest.mark.slow
class TestAdaptiveFig7aBench:
    def test_registered_and_meets_reduction_claim(self):
        """The ROADMAP claim, end to end on a 480-point fig7a-style grid:
        adaptive exploration recovers both exhaustive per-architecture
        fronts (rtol 1e-6) at >= ADAPTIVE_MIN_REDUCTION x fewer
        full-fidelity evaluations than the grid size."""
        evaluator, points = _adaptive_fig7a_setup()
        explorer = DesignSpaceExplorer(evaluator)
        objectives = (Objective("power_uw"), Objective("snr_db", maximize=True))

        def fronts(evaluations) -> dict[bool, np.ndarray]:
            return {
                arch: np.array(
                    sorted(
                        (e.metrics["power_uw"], e.metrics["snr_db"])
                        for e in pareto_front(
                            [e for e in evaluations if e.ok and e.point.use_cs == arch],
                            objectives,
                        )
                    )
                )
                for arch in (False, True)
            }

        expected = fronts(list(explorer.explore(points)))
        result = explorer.explore_adaptive(
            points,
            objectives=objectives,
            schedule=FidelitySchedule(
                [
                    FidelityRung("half", corpus_fraction=0.5, solver_scale=0.5),
                    FidelityRung("full"),
                ]
            ),
            keep_frac=0.06,
            group_by=lambda e: e.point.use_cs,
        )

        ledger = result.ledger
        assert ledger.grid_size == len(points)
        assert (ledger.reduction or 0.0) >= ADAPTIVE_MIN_REDUCTION
        assert ledger.full_fidelity_evaluations * ADAPTIVE_MIN_REDUCTION <= ledger.grid_size
        got = fronts(list(result))
        for arch in (False, True):
            assert expected[arch].size > 0
            assert got[arch].shape == expected[arch].shape
            np.testing.assert_allclose(got[arch], expected[arch], rtol=1e-6)
