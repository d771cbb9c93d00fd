"""Tests of the LNA behavioural model (paper Fig. 3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.lna import LNA
from repro.blocks.sources import sine
from repro.core.block import SimulationContext
from repro.core.signal import Signal
from repro.metrics.snr import analyze_sine


def run_block(block, signal, seed=0):
    return block.process(signal, SimulationContext(seed=seed))


class TestGain:
    def test_ideal_gain(self):
        lna = LNA(gain=100.0)
        out = run_block(lna, Signal(np.array([1e-3, -2e-3]), 1000.0))
        np.testing.assert_allclose(out.data, [0.1, -0.2])

    def test_gain_annotation_recorded(self):
        lna = LNA(gain=42.0)
        out = run_block(lna, Signal(np.zeros(4), 1000.0))
        assert out.annotations["lna_gain"] == 42.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            run_block(LNA(), Signal(np.zeros((2, 2)), 1000.0))


class TestNoise:
    def test_output_noise_is_gain_times_input_noise(self):
        lna = LNA(gain=1000.0, noise_rms=5e-6)
        out = run_block(lna, Signal(np.zeros(200_000), 1000.0))
        assert np.std(out.data) == pytest.approx(5e-3, rel=0.02)

    def test_noise_reproducible_per_seed(self):
        lna = LNA(gain=1.0, noise_rms=1e-3)
        sig = Signal(np.zeros(64), 1000.0)
        a = run_block(lna, sig, seed=1).data
        b = run_block(lna, sig, seed=1).data
        np.testing.assert_array_equal(a, b)
        c = run_block(lna, sig, seed=2).data
        assert not np.array_equal(a, c)

    def test_zero_noise_is_deterministic(self):
        lna = LNA(gain=2.0, noise_rms=0.0)
        sig = Signal(np.ones(8), 1000.0)
        np.testing.assert_array_equal(run_block(lna, sig).data, np.full(8, 2.0))


class TestBandwidth:
    def test_in_band_tone_passes(self):
        lna = LNA(gain=1.0, bandwidth=100.0)
        tone = sine(frequency=10.0, amplitude=1.0, sample_rate=1000.0, n_samples=4096)
        out = run_block(lna, tone)
        assert np.std(out.data) == pytest.approx(np.std(tone.data), rel=0.05)

    def test_out_of_band_tone_attenuated(self):
        lna = LNA(gain=1.0, bandwidth=20.0)
        tone = sine(frequency=400.0, amplitude=1.0, sample_rate=1000.0, n_samples=4096)
        out = run_block(lna, tone)
        assert np.std(out.data) < 0.2 * np.std(tone.data)

    def test_bandwidth_above_nyquist_is_noop(self):
        lna = LNA(gain=1.0, bandwidth=1e6)
        tone = sine(frequency=100.0, amplitude=1.0, sample_rate=1000.0, n_samples=1024)
        np.testing.assert_array_equal(run_block(lna, tone).data, tone.data)


class TestNonlinearityAndClipping:
    def test_hd3_matches_spec(self):
        hd3 = 1e-3
        lna = LNA(gain=1.0, hd3_at_fs=hd3, clip_level=1.0)
        tone = sine(frequency=50.0, amplitude=0.99, sample_rate=4096.0, n_samples=4096)
        out = run_block(lna, tone)
        analysis = analyze_sine(out.data, n_harmonics=3)
        measured_hd3 = 10 ** (analysis.thd_db / 20)
        assert measured_hd3 == pytest.approx(hd3, rel=0.2)

    def test_small_signal_distortion_negligible(self):
        lna = LNA(gain=1.0, hd3_at_fs=1e-3, clip_level=1.0)
        tone = sine(frequency=50.0, amplitude=0.05, sample_rate=4096.0, n_samples=4096)
        analysis = analyze_sine(run_block(lna, tone).data, n_harmonics=3)
        assert analysis.thd_db < -80

    def test_clipping_limits_output(self):
        lna = LNA(gain=10.0, clip_level=1.0)
        out = run_block(lna, Signal(np.array([1.0, -1.0, 0.05]), 1000.0))
        np.testing.assert_allclose(out.data, [1.0, -1.0, 0.5])

    def test_no_clip_when_disabled(self):
        lna = LNA(gain=10.0, clip_level=None)
        out = run_block(lna, Signal(np.array([1.0]), 1000.0))
        assert out.data[0] == pytest.approx(10.0)


class TestOverdrive:
    """Past the cubic's turning point the LNA saturates; it never folds back."""

    @pytest.mark.parametrize("drive", [49.0, 50.0, 50.1, 60.0])
    def test_overdriven_input_reads_the_rail(self, drive):
        # v - a3 v^3 turns at 28.9 x clip here and crossed zero at 50 x.
        lna = LNA(gain=1000.0, hd3_at_fs=1e-4, clip_level=1.0)
        out = run_block(lna, Signal(np.array([drive, -drive]) / 1000.0, 1000.0))
        assert out.data.tolist() == [1.0, -1.0]

    @settings(max_examples=80, deadline=None)
    @given(
        gain=st.floats(1.0, 2000.0),
        hd3=st.floats(1e-6, 1e-2),
        clip=st.floats(1e-3, 10.0),
        n=st.integers(2, 4001),
    )
    def test_transfer_is_monotone_and_unchanged_below_the_turn(self, gain, hd3, clip, n):
        sweep = np.linspace(-100.0, 100.0, n) * clip / gain
        lna = LNA(gain=gain, hd3_at_fs=hd3, clip_level=clip)
        out = run_block(lna, Signal(sweep, 1000.0)).data
        assert np.all(np.diff(out) >= 0.0)
        # Below the turning point: the bytes of the cube without the hold.
        v = sweep * gain
        a3 = 4.0 * hd3 / clip**2
        unheld = np.clip(v - a3 * (v * v * v), -clip, clip)
        below = np.abs(v) < 1.0 / math.sqrt(3.0 * a3)
        assert out[below].tobytes() == unheld[below].tobytes()


class TestFromDesign:
    def test_wires_design_parameters(self, baseline_point):
        lna = LNA.from_design(baseline_point)
        assert lna.gain == baseline_point.lna_gain
        assert lna.noise_rms == baseline_point.lna_noise_rms
        assert lna.bandwidth == baseline_point.bw_lna
        assert lna.clip_level == baseline_point.v_fs / 2

    def test_power_reports_lna_row(self, baseline_point):
        from repro.power.models import lna_power

        lna = LNA.from_design(baseline_point)
        assert lna.power(baseline_point) == {"lna": lna_power(baseline_point)}
