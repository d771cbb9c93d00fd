"""Tests of the experiment modules (tables, fig4, harness plumbing).

The heavy Fig. 7-10 sweeps are exercised by the benchmarks; here we test
the analysis logic on synthetic sweeps and the cheap experiments for real.
"""

import numpy as np
import pytest

from repro.core.results import Evaluation, ExplorationResult
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig7 import analyze_fig7, max_quality, quality_at_power, render_front
from repro.experiments.fig8 import analyze_fig8
from repro.experiments.fig9 import analyze_fig9
from repro.experiments.fig10 import analyze_fig10
from repro.experiments.runner import SCALES, active_scale, make_harness
from repro.experiments.table1 import TABLE1_COLUMNS, render_table1, verify_capability_evidence
from repro.experiments.table2 import power_model_rows, reference_operating_points, render_table2
from repro.experiments.table3 import paper_search_space, render_table3, space_summary
from repro.power.technology import DesignPoint


def fake_sweep():
    """A hand-built sweep with the paper's qualitative structure."""
    rows = [
        # (use_cs, power, snr, accuracy, area)
        (False, 20.0, 25.0, 0.99, 470, {"lna": 16e-6, "transmitter": 4.3e-6}),
        (False, 8.0, 24.0, 0.985, 470, {"lna": 4e-6, "transmitter": 4.3e-6}),
        (False, 5.0, 20.0, 0.97, 470, {"lna": 0.7e-6, "transmitter": 4.3e-6}),
        (False, 4.5, 15.0, 0.94, 470, {"lna": 0.2e-6, "transmitter": 4.3e-6}),
        (True, 6.0, 16.0, 1.0, 2900, {"lna": 3e-6, "transmitter": 1.7e-6, "cs_encoder": 0.6e-6}),
        (True, 2.5, 14.0, 0.99, 2900, {"lna": 0.2e-6, "transmitter": 1.7e-6, "cs_encoder": 0.6e-6}),
        (True, 1.5, 8.0, 0.95, 1700, {"lna": 0.05e-6, "transmitter": 0.85e-6, "cs_encoder": 0.6e-6}),
    ]
    evals = []
    for use_cs, power, snr, acc, area, breakdown in rows:
        point = DesignPoint(use_cs=use_cs, cs_m=150) if use_cs else DesignPoint()
        evals.append(
            Evaluation(
                point=point,
                metrics={
                    "power_uw": power,
                    "snr_db": snr,
                    "accuracy": acc,
                    "area_units": area,
                },
                breakdown=breakdown,
            )
        )
    return ExplorationResult(evals, name="fake")


class TestTable1:
    def test_three_columns(self):
        assert len(TABLE1_COLUMNS) == 3
        assert TABLE1_COLUMNS[-1].name == "EffiCSense"

    def test_efficsense_is_the_only_full_column(self):
        full = [
            p
            for p in TABLE1_COLUMNS
            if p.mixed_signal_modeling and p.power_modeling and not p.application_specific
        ]
        assert [p.name for p in full] == ["EffiCSense"]

    def test_render_contains_rows(self):
        text = render_table1()
        for row in ("Mixed-Signal Modeling", "Power Modeling", "Application Specific"):
            assert row in text

    def test_capability_evidence_importable(self):
        results = verify_capability_evidence()
        assert results
        assert all(results.values())


class TestTable2:
    def test_rows_for_both_architectures(self):
        points = reference_operating_points()
        baseline_rows = power_model_rows(points["baseline"])
        cs_rows = power_model_rows(points["cs"])
        assert {r.block for r in baseline_rows} >= {"lna", "transmitter", "dac"}
        assert "cs_encoder" in {r.block for r in cs_rows}
        assert "cs_encoder" not in {r.block for r in baseline_rows}

    def test_all_rows_nonnegative(self):
        for point in reference_operating_points().values():
            assert all(r.power_w >= 0 for r in power_model_rows(point))

    def test_render_contains_totals(self):
        assert "total" in render_table2()

    def test_paper_structure_tx_and_lna_dominate_baseline(self):
        rows = {r.block: r.power_w for r in power_model_rows(reference_operating_points()["baseline"])}
        total = sum(rows.values())
        assert (rows["transmitter"] + rows["lna"]) / total > 0.9


class TestTable3:
    def test_search_space_counts(self):
        summary = space_summary()
        # 8 noise x 3 bits = 24 baseline; x3 M values = 72 CS.
        assert summary["baseline_points"] == 24
        assert summary["cs_points"] == 72
        assert summary["total_points"] == 96

    def test_space_contains_both_architectures(self):
        points = list(paper_search_space().grid())
        assert any(p.use_cs for p in points)
        assert any(not p.use_cs for p in points)

    def test_custom_sweep_values(self):
        space = paper_search_space(noise_values_uv=(5.0,), n_bits_values=(8,), cs_m_values=(75,))
        points = list(space.grid())
        assert len(points) == 2  # one baseline + one CS

    def test_render_mentions_table_rows(self):
        text = render_table3()
        for symbol in ("C_logic", "E_bit", "BW_LNA", "f_clk"):
            assert symbol in text


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig4(noise_values_uv=(1.0, 4.0, 12.0, 20.0), n_samples=4096)

    def test_sndr_monotone_decreasing(self, rows):
        sndrs = [row.sndr_db for row in rows]
        assert all(a >= b - 0.5 for a, b in zip(sndrs, sndrs[1:]))
        assert sndrs[0] > sndrs[-1] + 5

    def test_power_decreasing_then_flat(self, rows):
        powers = [row.power_uw for row in rows]
        assert powers[0] > 3 * powers[-1]

    def test_dominance_shifts_from_lna_to_tx(self, rows):
        assert rows[0].dominant_block() == "lna"
        assert rows[-1].dominant_block() == "transmitter"

    def test_breakdown_sums_to_total(self, rows):
        for row in rows:
            assert sum(row.breakdown_uw.values()) == pytest.approx(row.power_uw, rel=1e-6)


class TestFig7Analysis:
    def test_optimal_points(self):
        result = analyze_fig7(fake_sweep())
        assert result.optimal_baseline.metric("power_uw") == 8.0
        assert result.optimal_cs.metric("power_uw") == 2.5
        assert result.power_saving == pytest.approx(3.2)

    def test_fronts_sorted_by_power(self):
        result = analyze_fig7(fake_sweep())
        for front in (result.accuracy_front_baseline, result.accuracy_front_cs):
            powers = [e.metric("power_uw") for e in front]
            assert powers == sorted(powers)

    def test_summary_text(self):
        text = analyze_fig7(fake_sweep()).summary()
        assert "baseline" in text
        assert "power saving" in text

    def test_render_front(self):
        result = analyze_fig7(fake_sweep())
        text = render_front(result.accuracy_front_cs, "accuracy")
        assert "power" in text

    def test_quality_helpers(self):
        result = analyze_fig7(fake_sweep())
        assert max_quality(result.snr_front_baseline, "snr_db") == 25.0
        assert quality_at_power(result.cs.evaluations, "accuracy", 3.0) == 0.99
        assert quality_at_power(result.cs.evaluations, "accuracy", 0.1) is None


class TestFig8Analysis:
    def test_savings_structure(self):
        result = analyze_fig8(fake_sweep())
        # TX and LNA savings, encoder increase -- the paper's reading.
        assert result.delta_uw("transmitter") < 0
        assert result.delta_uw("lna") < 0
        assert result.delta_uw("cs_encoder") > 0

    def test_savings_table_renders(self):
        text = analyze_fig8(fake_sweep()).savings_table()
        assert "cs_encoder" in text
        assert "total" in text

    def test_infeasible_raises(self):
        sweep = ExplorationResult(
            [Evaluation(DesignPoint(), {"power_uw": 1.0, "accuracy": 0.5, "area_units": 1})]
        )
        with pytest.raises(ValueError, match="feasible"):
            analyze_fig8(sweep)


class TestFig9Analysis:
    def test_cs_larger_area(self):
        result = analyze_fig9(fake_sweep())
        assert result.area_ratio() > 3.0
        assert result.median_area("cs") > result.median_area("baseline")

    def test_scatter_pairs(self):
        result = analyze_fig9(fake_sweep())
        assert len(result.scatter("baseline")) == 4
        assert len(result.scatter("cs")) == 3

    def test_single_architecture_rejected(self):
        sweep = ExplorationResult(
            [Evaluation(DesignPoint(), {"power_uw": 1.0, "accuracy": 0.9, "area_units": 1})]
        )
        with pytest.raises(ValueError):
            analyze_fig9(sweep)


class TestFig10Analysis:
    def test_tight_cap_excludes_cs(self):
        result = analyze_fig10(fake_sweep(), area_caps=(500.0, 5000.0))
        assert not result.fronts[0].contains_cs()
        assert result.fronts[1].contains_cs()

    def test_max_accuracy_non_decreasing_with_cap(self):
        result = analyze_fig10(fake_sweep(), area_caps=(500.0, 2000.0, 5000.0))
        accuracies = [a for a in result.max_accuracies() if a is not None]
        assert all(a <= b + 1e-12 for a, b in zip(accuracies, accuracies[1:]))

    def test_render(self):
        assert "area cap" in analyze_fig10(fake_sweep()).render()

    def test_requires_caps(self):
        with pytest.raises(ValueError):
            analyze_fig10(fake_sweep(), area_caps=())


class TestRunner:
    def test_scales_defined(self):
        assert set(SCALES) == {"smoke", "small", "paper"}
        assert SCALES["paper"].n_eval_records == 500
        assert SCALES["paper"].frames_per_record == 33

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert active_scale().name == "small"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            active_scale()

    def test_smoke_harness_builds_and_caches(self):
        h1 = make_harness("smoke")
        h2 = make_harness("smoke")
        assert h1 is h2  # lru cache
        assert h1.records.shape == (
            SCALES["smoke"].n_eval_records,
            SCALES["smoke"].samples_per_record,
        )
        assert h1.detector.is_fitted

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            make_harness("enormous")
