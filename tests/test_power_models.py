"""Tests of the Table II power models.

Each model is checked against a hand-evaluated value of its closed form at
the Table III operating point, plus the scaling laws the paper's analysis
relies on (noise bound ~ 1/vn^2, transmitter ~ rate * bits, compression
shrinking the ADC/TX terms, etc.).
"""

import math

import numpy as np
import pytest

from repro.power.models import (
    BLOCK_ORDER,
    PowerReport,
    SAR_LOGIC_ACTIVITY,
    chain_power,
    comparator_power,
    cs_encoder_logic_power,
    dac_power,
    lna_current_bounds,
    lna_power,
    sample_hold_power,
    sar_logic_power,
    transmitter_power,
)
from repro.power.technology import DesignPoint
from repro.util.constants import MICRO


class TestLnaPower:
    def test_noise_bound_hand_value(self, baseline_point):
        tech = baseline_point.technology
        expected_current = (
            (tech.nef / baseline_point.lna_noise_rms) ** 2
            * 2 * math.pi * 4 * tech.kt * baseline_point.bw_lna * tech.v_t
        )
        bounds = lna_current_bounds(baseline_point)
        assert bounds["noise"] == pytest.approx(expected_current)

    def test_noise_bound_dominates_at_low_noise(self, baseline_point):
        bounds = lna_current_bounds(baseline_point)
        assert bounds["noise"] > bounds["gbw"]
        assert bounds["noise"] > bounds["slew"]

    def test_power_is_vdd_times_max_bound(self, baseline_point):
        bounds = lna_current_bounds(baseline_point)
        assert lna_power(baseline_point) == pytest.approx(
            baseline_point.v_dd * max(bounds.values())
        )

    def test_inverse_square_noise_scaling(self, baseline_point):
        # In the noise-limited regime, halving vn quadruples the power.
        p1 = lna_power(baseline_point)
        p2 = lna_power(baseline_point.with_(lna_noise_rms=baseline_point.lna_noise_rms / 2))
        assert p2 == pytest.approx(4 * p1)

    def test_gbw_bound_with_huge_load(self, baseline_point):
        bounds = lna_current_bounds(baseline_point, c_load=1e-9)
        assert max(bounds.values()) in (bounds["gbw"], bounds["slew"])

    def test_rejects_nonpositive_load(self, baseline_point):
        with pytest.raises(ValueError):
            lna_power(baseline_point, c_load=0.0)

    def test_microwatt_scale_at_table3_point(self, baseline_point):
        assert 1e-7 < lna_power(baseline_point) < 1e-4


class TestSampleHoldPower:
    def test_hand_value(self, baseline_point):
        tech = baseline_point.technology
        c_s = 12 * tech.kt * 4.0**8 / 4.0
        expected = 2.0 * baseline_point.f_clk * c_s
        assert sample_hold_power(baseline_point) == pytest.approx(expected)

    def test_grows_4x_per_bit(self, baseline_point):
        p8 = sample_hold_power(baseline_point)
        p9 = sample_hold_power(baseline_point.with_(n_bits=9))
        # 4x from 2^(2N) and 10/9 from the clock.
        assert p9 / p8 == pytest.approx(4 * 10 / 9)

    def test_cs_uses_compressed_clock(self, cs_point):
        full_rate = sample_hold_power(cs_point.with_(use_cs=False))
        assert sample_hold_power(cs_point) == pytest.approx(
            full_rate * 150 / 384
        )


class TestComparatorPower:
    def test_hand_value(self, baseline_point):
        n = 8
        f_s = baseline_point.f_sample
        decisions = (n + 1) * f_s - f_s
        v_eff = 2.0 / 20.0
        expected = 2 * n * math.log(2) * decisions * 1e-15 * 2.0 * v_eff
        assert comparator_power(baseline_point) == pytest.approx(expected)

    def test_scales_with_load(self, baseline_point):
        assert comparator_power(baseline_point, c_load=2e-15) == pytest.approx(
            2 * comparator_power(baseline_point, c_load=1e-15)
        )

    def test_compression_reduces_decisions(self, cs_point):
        assert comparator_power(cs_point) < comparator_power(cs_point.with_(use_cs=False))


class TestSarLogicPower:
    def test_hand_value(self, baseline_point):
        n = 8
        toggles = n * baseline_point.f_sample
        expected = SAR_LOGIC_ACTIVITY * (2 * n + 1) * 1e-15 * 4.0 * toggles
        assert sar_logic_power(baseline_point) == pytest.approx(expected)

    def test_monotone_in_bits(self, baseline_point):
        assert sar_logic_power(baseline_point.with_(n_bits=10)) > sar_logic_power(
            baseline_point.with_(n_bits=6)
        )


class TestDacPower:
    def test_positive_at_midscale(self, baseline_point):
        assert dac_power(baseline_point) > 0

    def test_signal_dependence_reduces_power(self, baseline_point):
        # The -Vin^2/2 term: a large swing reduces switching energy.
        quiet = dac_power(baseline_point, vin=0.0)
        loud = dac_power(baseline_point, vin=np.full(128, 1.0))
        assert loud < quiet

    def test_accepts_waveform_average(self, baseline_point):
        wave = np.sin(np.linspace(0, 20 * np.pi, 1000))
        assert 0 < dac_power(baseline_point, vin=wave) < dac_power(baseline_point, vin=0.0)

    def test_never_negative(self, baseline_point):
        assert dac_power(baseline_point.with_(n_bits=1), vin=np.full(4, 2.0)) >= 0.0

    def test_bracket_hand_value(self, baseline_point):
        n = 8
        tech = baseline_point.technology
        c_u = tech.dac_unit_cap(n)
        bracket = (5 / 6 - 0.5**n - (1 / 3) * 0.25**n) * 4.0
        expected = 2.0**n * baseline_point.f_clk * c_u / (n + 1) * bracket
        assert dac_power(baseline_point, vin=0.0) == pytest.approx(expected)


class TestTransmitterPower:
    def test_baseline_hand_value(self, baseline_point):
        # fclk/(N+1) * N * E_bit = fs * N * E_bit = 537.6 * 8 * 1 nJ.
        assert transmitter_power(baseline_point) == pytest.approx(
            537.6 * 8 * 1e-9, rel=1e-6
        )

    def test_dominates_baseline_budget(self, baseline_point):
        report = chain_power(baseline_point.with_(lna_noise_rms=20e-6))
        assert report.dominant_block() == "transmitter"

    def test_compression_scales_linearly(self, cs_point):
        assert transmitter_power(cs_point) == pytest.approx(
            transmitter_power(cs_point.with_(use_cs=False)) * 150 / 384
        )

    def test_fewer_bits_fewer_joules(self, baseline_point):
        assert transmitter_power(baseline_point.with_(n_bits=6)) == pytest.approx(
            transmitter_power(baseline_point) * 6 / 8
        )


class TestCsEncoderPower:
    def test_zero_for_baseline(self, baseline_point):
        assert cs_encoder_logic_power(baseline_point) == 0.0

    def test_hand_value(self, cs_point):
        depth = math.ceil(math.log2(384)) + 1  # 10
        expected = 1.0 * depth * 384 * 8 * 1e-15 * 4.0 * cs_point.f_clk
        assert cs_encoder_logic_power(cs_point) == pytest.approx(expected)

    def test_independent_of_m(self, cs_point):
        assert cs_encoder_logic_power(cs_point) == pytest.approx(
            cs_encoder_logic_power(cs_point.with_(cs_m=75))
        )

    def test_submicrowatt_at_table3(self, cs_point):
        assert cs_encoder_logic_power(cs_point) < 1e-6


class TestLeakagePower:
    def test_counts_cs_switches(self, baseline_point, cs_point):
        leakage = chain_power(cs_point).blocks["leakage"]
        assert leakage > chain_power(baseline_point).blocks["leakage"]

    def test_orders_of_magnitude_below_dynamic(self, cs_point):
        report = chain_power(cs_point)
        assert report.blocks["leakage"] < 0.01 * report.total


class TestChainPower:
    def test_baseline_blocks_present(self, baseline_point):
        report = chain_power(baseline_point)
        assert set(report.blocks) == {
            "lna",
            "sample_hold",
            "comparator",
            "sar_logic",
            "dac",
            "transmitter",
            "leakage",
        }

    def test_cs_adds_encoder_block(self, cs_point):
        assert "cs_encoder" in chain_power(cs_point).blocks

    def test_paper_scale_baseline(self, baseline_point):
        # ~8-9 uW at 2 uV / 8 bit (paper's optimal baseline: 8.8 uW).
        assert chain_power(baseline_point).total / MICRO == pytest.approx(8.8, rel=0.15)

    def test_paper_scale_cs(self):
        point = DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=75)
        # ~1.5-3 uW (paper's optimal CS point: 2.44 uW).
        assert chain_power(point).total / MICRO == pytest.approx(2.44, rel=0.5)

    def test_cs_cheaper_than_baseline_at_matched_quality_corner(self, cs_point):
        baseline = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
        assert chain_power(cs_point).total < 0.5 * chain_power(baseline).total

    @pytest.mark.parametrize(
        "point",
        [
            DesignPoint(n_bits=8, lna_noise_rms=2e-6),
            DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150),
            DesignPoint(
                n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150, cs_architecture="digital"
            ),
        ],
        ids=["baseline", "analog-cs", "digital-cs"],
    )
    def test_equals_the_simulated_chains_power(self, point):
        # The estimate `repro budget` prints and the power every sweep
        # reports are one sum over one chain: the analog-CS chain
        # (LNA -> CS encoder -> SAR -> TX) has no S&H block to add.
        from repro.blocks.chains import build_chain
        from repro.core.simulator import Simulator

        simulated = Simulator(build_chain(point), point).collect_power()
        assert chain_power(point).blocks == simulated.blocks


class TestPowerReport:
    def test_total_is_sum(self):
        report = PowerReport({"a": 1e-6, "b": 2e-6})
        assert report.total == pytest.approx(3e-6)
        assert report.total_uw == pytest.approx(3.0)

    def test_fractions_sum_to_one(self, baseline_point):
        report = chain_power(baseline_point)
        assert sum(report.fractions().values()) == pytest.approx(1.0)

    def test_fraction_of_missing_block_is_zero(self):
        assert PowerReport({"a": 1.0}).fraction("zz") == 0.0

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerReport({"a": -1.0})

    def test_ordered_blocks_canonical_first(self):
        report = PowerReport({"zzz": 1.0, "lna": 1.0, "transmitter": 1.0})
        ordered = report.ordered_blocks()
        assert ordered.index("lna") < ordered.index("transmitter") < ordered.index("zzz")
        assert ordered[0] == BLOCK_ORDER[0]

    def test_scaled(self):
        report = PowerReport({"a": 2.0}).scaled(0.25)
        assert report.blocks["a"] == pytest.approx(0.5)

    def test_merged(self):
        merged = PowerReport({"a": 1.0}).merged(PowerReport({"a": 1.0, "b": 2.0}))
        assert merged.blocks == {"a": 2.0, "b": 2.0}

    def test_as_table_lists_total(self, baseline_point):
        table = chain_power(baseline_point).as_table()
        assert "total" in table
        assert "lna" in table
