"""Additional unit tests for the table experiment modules."""

import pytest

from repro.experiments.table2 import PowerModelRow, power_model_rows
from repro.experiments.table3 import design_rows, technology_rows
from repro.power.technology import DesignPoint, Technology
from repro.util.constants import MICRO


class TestPowerModelRow:
    def test_uw_conversion(self):
        row = PowerModelRow(block="x", formula="f", reference="r", power_w=2e-6)
        assert row.power_uw == pytest.approx(2.0)

    def test_rows_carry_formula_and_reference(self):
        rows = power_model_rows(DesignPoint())
        for row in rows:
            assert row.formula
            assert row.reference

    def test_cs_row_follows_paper_table_order(self):
        # Paper Table II lists "CS Encoder Logic" after the transmitter.
        rows = power_model_rows(DesignPoint(use_cs=True, cs_m=150))
        names = [row.block for row in rows]
        assert names.index("transmitter") < names.index("cs_encoder")
        assert names[-1] == "leakage"

    def test_total_matches_chain_power(self):
        from repro.power.models import chain_power

        for point in (
            DesignPoint(n_bits=8, lna_noise_rms=4e-6),
            DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150),
        ):
            rows = power_model_rows(point)
            report = chain_power(point)
            assert {row.block: row.power_w for row in rows} == dict(report.blocks)
            total_rows = sum(row.power_w for row in rows)
            assert total_rows == pytest.approx(report.total, rel=1e-9)

    def test_analog_cs_column_has_no_sample_hold(self):
        from repro.experiments.table2 import render_table2

        rows = power_model_rows(DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True))
        assert "sample_hold" not in {row.block for row in rows}
        sample_hold = next(
            line for line in render_table2().splitlines() if line.startswith("sample_hold")
        )
        assert sample_hold.split()[-1] == "-"

    def test_digital_cs_encoder_row_names_its_own_model(self):
        rows = power_model_rows(DesignPoint(use_cs=True, cs_architecture="digital"))
        encoder = next(row for row in rows if row.block == "cs_encoder")
        assert encoder.power_w > 0
        assert "Chen" in encoder.reference


class TestTable3Rows:
    def test_technology_rows_reflect_instance(self):
        tech = Technology(nef=3.3)
        rows = {symbol: value for symbol, _, value, _ in technology_rows(tech)}
        assert rows["NEF"] == pytest.approx(3.3)
        assert rows["C_logic"] == pytest.approx(1e-15)

    def test_design_rows_reflect_point(self):
        point = DesignPoint(bw_in=128.0)
        rows = {symbol: value for symbol, _, value, _ in design_rows(point)}
        assert rows["BW_in"] == pytest.approx(128.0)
        assert rows["f_sample"] == pytest.approx(2.1 * 128.0)

    def test_row_units_present(self):
        for _, _, _, unit in technology_rows():
            assert unit
        for _, _, _, unit in design_rows():
            assert unit


class TestOperatingPointSanity:
    def test_reference_points_are_the_papers_optima_scale(self):
        from repro.experiments.table2 import reference_operating_points
        from repro.power.models import chain_power

        points = reference_operating_points()
        assert chain_power(points["baseline"]).total / MICRO == pytest.approx(8.8, rel=0.25)
        assert chain_power(points["cs"]).total / MICRO == pytest.approx(2.44, rel=0.4)
