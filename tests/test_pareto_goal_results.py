"""Tests of Pareto extraction, goal functions and result containers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goal import (
    Goal,
    accuracy_power_goal,
    area_constrained_goal,
    snr_power_goal,
)
from repro.core.pareto import Objective, best_feasible, dominates, pareto_front
from repro.core.results import Evaluation, ExplorationResult
from repro.power.technology import DesignPoint


def ev(power, quality, use_cs=False, area=100.0):
    return Evaluation(
        point=DesignPoint(use_cs=use_cs),
        metrics={"power_uw": power, "accuracy": quality, "snr_db": quality, "area_units": area},
    )


OBJ = (Objective("power_uw", maximize=False), Objective("accuracy", maximize=True))

# Metric values including the pathological ones: NaN, +/-inf, and huge
# magnitudes, alongside ordinary finite floats.
wild_value = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just(float("nan")),
    st.just(float("inf")),
    st.just(float("-inf")),
)
wild_rows = st.lists(st.tuples(wild_value, wild_value), min_size=1, max_size=40)


class TestDominates:
    def test_strictly_better_both(self):
        assert dominates({"power_uw": 1, "accuracy": 0.9}, {"power_uw": 2, "accuracy": 0.8}, OBJ)

    def test_equal_does_not_dominate(self):
        a = {"power_uw": 1, "accuracy": 0.9}
        assert not dominates(a, dict(a), OBJ)

    def test_tradeoff_does_not_dominate(self):
        a = {"power_uw": 1, "accuracy": 0.8}
        b = {"power_uw": 2, "accuracy": 0.9}
        assert not dominates(a, b, OBJ)
        assert not dominates(b, a, OBJ)

    def test_better_on_one_equal_other(self):
        a = {"power_uw": 1, "accuracy": 0.9}
        b = {"power_uw": 2, "accuracy": 0.9}
        assert dominates(a, b, OBJ)

    def test_requires_objectives(self):
        with pytest.raises(ValueError):
            dominates({}, {}, ())


class TestParetoFront:
    def test_extracts_non_dominated(self):
        evals = [ev(1, 0.8), ev(2, 0.9), ev(3, 0.85), ev(1.5, 0.95)]
        front = pareto_front(evals, OBJ)
        powers = [e.metrics["power_uw"] for e in front]
        assert powers == [1.0, 1.5]

    def test_single_point_is_front(self):
        assert len(pareto_front([ev(1, 0.5)], OBJ)) == 1

    def test_constraint_filters_first(self):
        evals = [ev(1, 0.8, area=1000), ev(2, 0.7, area=10)]
        front = pareto_front(evals, OBJ, constraint=lambda m: m["area_units"] < 100)
        assert len(front) == 1
        assert front[0].metrics["power_uw"] == 2

    def test_duplicates_survive(self):
        evals = [ev(1, 0.9), ev(1, 0.9)]
        assert len(pareto_front(evals, OBJ)) == 2

    def test_sorted_by_primary(self):
        evals = [ev(3, 0.99), ev(1, 0.8), ev(2, 0.9)]
        front = pareto_front(evals, OBJ)
        powers = [e.metrics["power_uw"] for e in front]
        assert powers == sorted(powers)


class TestBestFeasible:
    def test_minimum_power_meeting_constraint(self):
        evals = [ev(1, 0.7), ev(2, 0.99), ev(5, 0.999)]
        best = best_feasible(evals, "power_uw", constraint=lambda m: m["accuracy"] >= 0.98)
        assert best.metrics["power_uw"] == 2

    def test_none_when_infeasible(self):
        evals = [ev(1, 0.5)]
        assert best_feasible(evals, "power_uw", constraint=lambda m: m["accuracy"] > 0.9) is None

    def test_no_constraint_returns_global_min(self):
        evals = [ev(3, 0.1), ev(1, 0.0)]
        assert best_feasible(evals, "power_uw").metrics["power_uw"] == 1


class TestNonFiniteHandling:
    """Regression tests: NaN/inf metrics must never pollute a front.

    A crashed reconstruction used to report ``power_uw=NaN`` and ride
    onto the Pareto front because every NaN comparison is False, so no
    finite point appeared to dominate it.
    """

    nan = float("nan")
    inf = float("inf")

    def test_nan_metric_excluded_from_front(self):
        evals = [ev(1, 0.8), ev(self.nan, 0.99), ev(2, self.nan)]
        front = pareto_front(evals, OBJ)
        assert len(front) == 1
        assert front[0].metrics["power_uw"] == 1

    def test_inf_metric_excluded_from_front(self):
        evals = [ev(1, 0.8), ev(-self.inf, 0.99), ev(2, self.inf)]
        front = pareto_front(evals, OBJ)
        assert len(front) == 1
        assert front[0].metrics["power_uw"] == 1

    def test_all_nan_cloud_yields_empty_front(self):
        assert pareto_front([ev(self.nan, self.nan)] * 3, OBJ) == []

    def test_nan_never_dominates(self):
        assert not dominates({"power_uw": self.nan, "accuracy": 0.99}, {"power_uw": 5, "accuracy": 0.1}, OBJ)

    def test_finite_dominates_nan(self):
        assert dominates({"power_uw": 5, "accuracy": 0.1}, {"power_uw": self.nan, "accuracy": 0.99}, OBJ)

    def test_two_nan_points_do_not_dominate_each_other(self):
        a = {"power_uw": self.nan, "accuracy": 0.9}
        b = {"power_uw": 1.0, "accuracy": self.nan}
        assert not dominates(a, b, OBJ)
        assert not dominates(b, a, OBJ)

    def test_two_non_finite_points_tie(self):
        a = {"power_uw": self.nan, "accuracy": 0.9}
        b = {"power_uw": 1.0, "accuracy": self.inf}
        assert not dominates(a, b, OBJ)
        assert not dominates(b, a, OBJ)

    def test_inf_treated_like_nan(self):
        inf = {"power_uw": -self.inf, "accuracy": 0.9}
        good = {"power_uw": 5.0, "accuracy": 0.1}
        assert dominates(good, inf, OBJ)
        assert not dominates(inf, good, OBJ)

    def test_best_feasible_skips_nan_target(self):
        # The NaN candidate must lose regardless of scan order.
        evals = [ev(self.nan, 0.9), ev(3, 0.9)]
        assert best_feasible(evals, "power_uw").metrics["power_uw"] == 3
        assert best_feasible(list(reversed(evals)), "power_uw").metrics["power_uw"] == 3

    def test_best_feasible_all_nan_returns_none(self):
        assert best_feasible([ev(self.nan, 0.9)], "power_uw") is None


class TestParetoNonFiniteFuzz:
    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_front_never_contains_non_finite_point(self, rows):
        front = pareto_front([ev(power, quality) for power, quality in rows], OBJ)
        for evaluation in front:
            assert math.isfinite(evaluation.metrics["power_uw"])
            assert math.isfinite(evaluation.metrics["accuracy"])

    @settings(max_examples=60, deadline=None)
    @given(wild_rows)
    def test_scalar_dominates_matches_vectorised_filter(self, rows):
        """Brute force via dominates() == the vectorised filter, NaN included."""
        evals = [ev(power, quality) for power, quality in rows]
        brute = [
            candidate
            for candidate in evals
            if all(math.isfinite(candidate.metrics[obj.metric]) for obj in OBJ)
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
        evals = [ev(power, quality) for power, quality in rows]
        forward = best_feasible(evals, "power_uw")
        backward = best_feasible(list(reversed(evals)), "power_uw")
        if forward is None:
            assert backward is None
        else:
            assert not math.isnan(forward.metrics["power_uw"])
            assert forward.metrics["power_uw"] == backward.metrics["power_uw"]


class TestGoals:
    def test_snr_goal_objectives(self):
        goal = snr_power_goal()
        assert {o.metric for o in goal.objectives} == {"power_uw", "snr_db"}
        assert goal.constraint is None

    def test_accuracy_goal_constraint(self):
        goal = accuracy_power_goal(0.98)
        assert goal.constraint({"accuracy": 0.985})
        assert not goal.constraint({"accuracy": 0.975})

    def test_accuracy_goal_validation(self):
        with pytest.raises(ValueError):
            accuracy_power_goal(0.0)

    def test_area_goal_combines_constraints(self):
        goal = area_constrained_goal(500.0, min_accuracy=0.9)
        assert goal.constraint({"accuracy": 0.95, "area_units": 400})
        assert not goal.constraint({"accuracy": 0.95, "area_units": 600})
        assert not goal.constraint({"accuracy": 0.85, "area_units": 400})

    def test_area_goal_validation(self):
        with pytest.raises(ValueError):
            area_constrained_goal(0.0)

    def test_goal_requires_objectives(self):
        with pytest.raises(ValueError):
            Goal(name="empty", objectives=())


class TestEvaluation:
    def test_metric_accessor(self):
        evaluation = ev(1.0, 0.9)
        assert evaluation.metric("power_uw") == 1.0
        with pytest.raises(KeyError, match="available"):
            evaluation.metric("zz")

    def test_summary_contains_metrics(self):
        text = ev(1.0, 0.9).summary()
        assert "power_uw" in text
        assert "baseline" in text


class TestExplorationResult:
    def make_result(self):
        return ExplorationResult(
            [ev(1, 0.8), ev(2, 0.99, use_cs=True), ev(3, 0.7)], name="test"
        )

    def test_len_iter_getitem(self):
        result = self.make_result()
        assert len(result) == 3
        assert result[0].metrics["power_uw"] == 1
        assert len(list(result)) == 3

    def test_split_by_architecture(self):
        baseline, cs = self.make_result().split_by_architecture()
        assert len(baseline) == 2
        assert len(cs) == 1

    def test_values(self):
        assert self.make_result().values("power_uw") == [1, 2, 3]

    def test_pareto_delegates(self):
        front = self.make_result().pareto(OBJ)
        assert [e.metrics["power_uw"] for e in front] == [1, 2]

    def test_best_with_constraint(self):
        best = self.make_result().best(constraint=lambda m: m["accuracy"] > 0.9)
        assert best.metrics["power_uw"] == 2

    def test_filter(self):
        filtered = self.make_result().filter(lambda e: e.metrics["power_uw"] < 2.5)
        assert len(filtered) == 2

    def test_as_table(self):
        table = self.make_result().as_table(["power_uw", "accuracy"])
        assert "power_uw" in table
        assert table.count("\n") == 3

    def test_to_dicts(self):
        dicts = self.make_result().to_dicts()
        assert len(dicts) == 3
        assert "point" in dicts[0]
        assert dicts[0]["power_uw"] == 1


class TestCsvExport:
    def test_to_csv_roundtrip(self, tmp_path):
        result = ExplorationResult([ev(1, 0.8), ev(2, 0.9, use_cs=True)])
        path = tmp_path / "sweep.csv"
        result.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "point"
        assert "power_uw" in header
        assert "accuracy" in header

    def test_to_csv_selected_metrics(self, tmp_path):
        result = ExplorationResult([ev(1, 0.8)])
        path = tmp_path / "sweep.csv"
        result.to_csv(str(path), metrics=["power_uw"])
        header = path.read_text().splitlines()[0]
        assert header == "point,power_uw"


class TestHeterogeneousSweeps:
    """Regression: mixed metric sets (e.g. baseline/CS with and without
    accuracy) must not raise from values/as_table, matching to_csv."""

    def make_mixed(self):
        full = ev(1, 0.9)
        bare = Evaluation(point=DesignPoint(), metrics={"power_uw": 2.0})
        return ExplorationResult([full, bare], name="mixed")

    def test_values_renders_missing_as_nan(self):
        import math

        values = self.make_mixed().values("accuracy")
        assert values[0] == 0.9
        assert math.isnan(values[1])

    def test_as_table_renders_missing_as_blank(self):
        table = self.make_mixed().as_table(["power_uw", "accuracy"])
        lines = table.splitlines()
        assert len(lines) == 3
        assert "0.9" in lines[1]
        assert lines[2].rstrip().endswith("2")  # power present, accuracy blank

    def test_pareto_skips_items_missing_objectives(self):
        front = self.make_mixed().pareto(OBJ)
        assert [e.metrics["power_uw"] for e in front] == [1]

    def test_best_skips_items_missing_metric(self):
        best = self.make_mixed().best(minimize="accuracy")
        assert best.metrics["power_uw"] == 1

    def make_with_error_row(self):
        """A sweep where one point carries NaN metrics (failed batch shard)."""
        nan = float("nan")
        error = Evaluation(
            point=DesignPoint(n_bits=10),
            metrics={"power_uw": nan, "accuracy": nan},
            error="boom",
        )
        return ExplorationResult([ev(1, 0.9), error], name="witherror")

    def test_as_table_renders_nan_metrics_as_blank(self):
        """Error rows use the same blank convention as missing metrics --
        previously NaN values printed as right-padded 'nan' text, breaking
        the column convention for heterogeneous sweeps."""
        table = self.make_with_error_row().as_table(["power_uw", "accuracy"])
        lines = table.splitlines()
        assert len(lines) == 3
        assert "nan" not in table
        # The error row carries only its point description, both metric
        # cells blank; column width stays on the same fixed grid.
        assert lines[2].strip() == "baseline N=10b noise=5.0uV fs=538Hz"
        assert len(lines[1]) == len(lines[0])

    def test_to_csv_exports_nan_metrics_as_empty(self, tmp_path):
        path = tmp_path / "sweep.csv"
        self.make_with_error_row().to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert "nan" not in lines[2]
        # NaN metric cells are blank; the trailing error column carries
        # the failure message (see TestLossyExportRegression).
        cells = lines[2].split(",")
        assert cells[-1] == "boom"
        assert set(cells[1:-1]) == {""}


class TestLossyExportRegression:
    """Regression: ``to_dicts``/``to_csv`` used to drop ``breakdown`` and
    ``error``, so a failed point exported as a bare ``{"point": ...}`` row
    indistinguishable from a metric-less success, and per-block power was
    unrecoverable from the export."""

    def make_result(self):
        good = Evaluation(
            point=DesignPoint(n_bits=6),
            metrics={"power_uw": 1.0, "accuracy": 0.9},
            breakdown={"lna": 0.4, "adc": 0.6},
        )
        failed = Evaluation(
            point=DesignPoint(n_bits=10), metrics={}, error="ValueError: boom"
        )
        return ExplorationResult([good, failed], name="mixed")

    def test_to_dicts_includes_breakdown(self):
        rows = self.make_result().to_dicts()
        assert rows[0]["breakdown"] == {"lna": 0.4, "adc": 0.6}
        assert "error" not in rows[0]

    def test_to_dicts_includes_error(self):
        rows = self.make_result().to_dicts()
        assert rows[1]["error"] == "ValueError: boom"
        assert "breakdown" not in rows[1]

    def test_to_dicts_round_trips_failed_point_visibly(self):
        # The failed row must be distinguishable from a success.
        rows = self.make_result().to_dicts()
        assert [("error" in r) for r in rows] == [False, True]

    def test_to_csv_mixed_sweep_gets_error_column(self, tmp_path):
        path = tmp_path / "sweep.csv"
        self.make_result().to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[-1] == "error"
        assert lines[1].endswith(",")  # success row: empty error cell
        assert lines[2].endswith("ValueError: boom")

    def test_to_csv_all_success_keeps_historical_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        ExplorationResult([ev(1, 0.9)]).to_csv(str(path))
        header = path.read_text().splitlines()[0]
        assert "error" not in header.split(",")


class TestVectorisedParetoParity:
    """The numpy non-dominated filter must match the pairwise definition."""

    def brute_force(self, evals, objectives):
        front = [
            candidate
            for candidate in evals
            if not any(
                dominates(other.metrics, candidate.metrics, objectives)
                for other in evals
                if other is not candidate
            )
        ]
        primary = objectives[0]
        front.sort(key=lambda e: e.metrics[primary.metric], reverse=primary.maximize)
        return front

    def test_matches_brute_force_on_random_clouds(self):
        import numpy as np

        rng = np.random.default_rng(42)
        for trial in range(5):
            evals = [
                ev(power, quality, area=area)
                for power, quality, area in rng.uniform(0, 10, size=(60, 3)).round(1)
            ]
            for objectives in (
                OBJ,
                (Objective("power_uw"),),
                (
                    Objective("power_uw"),
                    Objective("accuracy", maximize=True),
                    Objective("area_units"),
                ),
            ):
                expected = self.brute_force(evals, objectives)
                actual = pareto_front(evals, objectives)
                assert actual == expected

    def test_rounded_duplicates_all_kept(self):
        evals = [ev(1, 0.9), ev(1, 0.9), ev(1, 0.9), ev(2, 0.8)]
        front = pareto_front(evals, OBJ)
        assert len(front) == 3

    def test_empty_objectives_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            pareto_front([ev(1, 0.9)], ())

    def test_large_front_crosses_block_boundary(self):
        # >256 mutually non-dominated points exercises the blocked filter.
        evals = [ev(float(i), float(i)) for i in range(600)]
        front = pareto_front(evals, OBJ)
        assert len(front) == 600
