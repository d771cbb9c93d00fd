"""Tests of the transmitter and DSP blocks."""

import numpy as np
import pytest

from repro.blocks.dsp import Normalizer
from repro.blocks.transmitter import Transmitter
from repro.core.block import SimulationContext
from repro.core.signal import Signal


def ctx(seed=0):
    return SimulationContext(seed=seed)


class TestTransmitter:
    def test_passthrough_data(self):
        tx = Transmitter(bits_per_sample=8)
        sig = Signal(np.arange(4, dtype=float), 100.0)
        out = tx.process(sig, ctx())
        np.testing.assert_array_equal(out.data, sig.data)

    def test_counts_bits(self):
        tx = Transmitter(bits_per_sample=8)
        tx.process(Signal(np.zeros(100), 100.0), ctx())
        assert tx.transmitted_bits == 800
        tx.process(Signal(np.zeros(50), 100.0), ctx())
        assert tx.transmitted_bits == 1200

    def test_counts_2d_measurements(self):
        tx = Transmitter(bits_per_sample=6)
        tx.process(Signal(np.zeros((4, 10)), 100.0), ctx())
        assert tx.transmitted_bits == 240

    def test_reset_clears_counter(self):
        tx = Transmitter()
        tx.process(Signal(np.zeros(10), 100.0), ctx())
        tx.reset()
        assert tx.transmitted_bits == 0

    def test_measured_energy_and_power(self):
        tx = Transmitter(bits_per_sample=8, e_bit=1e-9)
        tx.process(Signal(np.zeros(1000), 100.0), ctx())
        assert tx.energy() == pytest.approx(8000e-9)
        assert tx.average_power(10.0) == pytest.approx(800e-9)

    def test_measured_power_matches_model_for_baseline(self, baseline_point):
        """The bit-counting measurement agrees with the Table II estimate."""
        from repro.power.models import transmitter_power

        tx = Transmitter.from_design(baseline_point)
        duration = 10.0
        n_samples = int(duration * baseline_point.f_sample)
        tx.process(Signal(np.zeros(n_samples), baseline_point.f_sample), ctx())
        assert tx.average_power(duration) == pytest.approx(
            transmitter_power(baseline_point), rel=0.01
        )


class TestNormalizer:
    def test_explicit_gain(self):
        norm = Normalizer(gain=10.0)
        out = norm.process(Signal(np.full(4, 5.0), 100.0), ctx())
        np.testing.assert_allclose(out.data, 0.5)

    def test_uses_lna_gain_annotation(self):
        norm = Normalizer()
        sig = Signal(np.full(4, 100.0), 100.0, annotations={"lna_gain": 100.0})
        np.testing.assert_allclose(norm.process(sig, ctx()).data, 1.0)

    def test_no_annotation_identity(self):
        norm = Normalizer()
        sig = Signal(np.full(4, 7.0), 100.0)
        np.testing.assert_allclose(norm.process(sig, ctx()).data, 7.0)

    def test_offset(self):
        norm = Normalizer(gain=1.0, offset=-1.0)
        np.testing.assert_allclose(
            norm.process(Signal(np.zeros(3), 1.0), ctx()).data, -1.0
        )
