"""Tests of the digital MAC CS encoder variant (the Chen [2] comparator)."""

import numpy as np
import pytest

from repro.blocks.chains import build_chain, build_cs_chain, build_digital_cs_chain
from repro.blocks.cs_frontend import DigitalCsEncoderBlock
from repro.blocks.sources import from_array
from repro.core.block import SimulationContext
from repro.core.signal import Signal
from repro.core.simulator import Simulator
from repro.cs.matrices import srbm_balanced
from repro.metrics.snr import snr_vs_reference
from repro.power.models import chain_power, digital_cs_encoder_power
from repro.power.technology import DesignPoint


@pytest.fixture
def digital_point():
    return DesignPoint(
        n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_architecture="digital", cs_m=150
    )


class TestDesignPoint:
    def test_architecture_validated(self):
        with pytest.raises(ValueError, match="cs_architecture"):
            DesignPoint(use_cs=True, cs_architecture="quantum")

    def test_adc_runs_full_rate(self, digital_point):
        assert digital_point.adc_conversion_rate == pytest.approx(digital_point.f_sample)

    def test_analog_adc_runs_compressed(self, cs_point):
        assert cs_point.adc_conversion_rate == pytest.approx(
            cs_point.f_sample * 150 / 384
        )

    def test_tx_rate_compressed_for_both(self, digital_point, cs_point):
        assert digital_point.output_sample_rate == pytest.approx(
            cs_point.output_sample_rate
        )

    def test_lna_load_is_sh_cap(self, digital_point):
        assert digital_point.lna_load_capacitance == digital_point.sampling_capacitance


class TestPowerModel:
    def test_zero_for_analog_and_baseline(self, cs_point, baseline_point):
        assert digital_cs_encoder_power(cs_point) == 0.0
        assert digital_cs_encoder_power(baseline_point) == 0.0

    def test_positive_for_digital(self, digital_point):
        assert digital_cs_encoder_power(digital_point) > 0.0

    def test_digital_costs_more_than_analog(self, digital_point):
        analog = digital_point.with_(cs_architecture="analog")
        assert chain_power(digital_point).total > chain_power(analog).total

    def test_both_cheaper_than_baseline(self, digital_point):
        baseline = DesignPoint(n_bits=8, lna_noise_rms=8e-6)
        assert chain_power(digital_point).total < chain_power(baseline).total

    def test_tx_power_identical_across_encoders(self, digital_point):
        analog = digital_point.with_(cs_architecture="analog")
        assert chain_power(digital_point).blocks["transmitter"] == pytest.approx(
            chain_power(analog).blocks["transmitter"]
        )

    def test_adc_side_scales_with_compression_ratio(self, digital_point):
        analog = digital_point.with_(cs_architecture="analog")
        ratio = 384 / 150
        dig, ana = chain_power(digital_point).blocks, chain_power(analog).blocks
        # The converter blocks both chains have (the analog-CS chain has no S&H).
        for block in ("comparator", "sar_logic", "dac"):
            assert dig[block] / ana[block] == pytest.approx(ratio)


class TestBlock:
    def test_exact_binary_measurement(self, rng):
        mat = srbm_balanced(16, 64, 2, seed=1)
        block = DigitalCsEncoderBlock(mat)
        x = rng.normal(size=2 * 64)
        out = block.process(Signal(x, 512.0), SimulationContext())
        expected = x.reshape(2, 64) @ mat.phi.T
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_annotations_match_analog_contract(self, rng):
        mat = srbm_balanced(16, 64, 2, seed=1)
        block = DigitalCsEncoderBlock(mat)
        out = block.process(Signal(rng.normal(size=64), 512.0), SimulationContext())
        np.testing.assert_array_equal(out.annotations["phi_effective"], mat.phi)
        assert out.domain == "compressed"

    def test_power_row(self, digital_point):
        mat = srbm_balanced(150, 384, 2, seed=1)
        rows = DigitalCsEncoderBlock(mat).power(digital_point)
        assert rows["cs_encoder"] > 0


class TestChain:
    def test_block_order(self, digital_point):
        chain = build_digital_cs_chain(digital_point, seed=1)
        assert chain.block_names() == [
            "lna",
            "sample_hold",
            "adc",
            "cs_encoder",
            "transmitter",
            "reconstruction",
            "normalizer",
        ]

    def test_dispatch(self, digital_point, cs_point, baseline_point):
        assert build_chain(digital_point).name == "cs-digital"
        assert build_chain(cs_point).name == "cs"
        assert build_chain(baseline_point).name == "baseline"

    def test_analog_builder_rejects_digital_point(self, digital_point):
        with pytest.raises(ValueError, match="digital"):
            build_cs_chain(digital_point)

    def test_digital_builder_rejects_analog_point(self, cs_point):
        with pytest.raises(ValueError):
            build_digital_cs_chain(cs_point)

    def test_end_to_end_roundtrip(self, digital_point, rng):
        from scipy import signal as sp

        b, a = sp.butter(4, 15, fs=digital_point.f_sample)
        x = sp.lfilter(b, a, rng.normal(size=4 * 384)) * 2e-4
        chain = build_digital_cs_chain(digital_point, seed=1)
        result = Simulator(chain, digital_point, seed=2).run(
            from_array(x, digital_point.f_sample)
        )
        assert result.output.data.shape == x.shape
        assert snr_vs_reference(x, result.output.data) > 8.0

    def test_transmits_compressed_bits(self, digital_point):
        chain = build_digital_cs_chain(digital_point, seed=1)
        Simulator(chain, digital_point, seed=2).run(
            from_array(np.zeros(4 * 384), digital_point.f_sample)
        )
        assert chain.block("transmitter").transmitted_bits == 4 * 150 * 8
