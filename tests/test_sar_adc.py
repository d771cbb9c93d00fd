"""Tests of the SAR ADC model."""

import numpy as np
import pytest

from repro.blocks.sar_adc import SarAdc, ideal_quantize
from repro.blocks.sources import sine
from repro.core.block import SimulationContext
from repro.core.signal import Signal
from repro.metrics.snr import analyze_sine
from repro.power.technology import DesignPoint
from repro.util.rng import make_rng


def run_block(block, signal, seed=0):
    return block.process(signal, SimulationContext(seed=seed))


class TestIdealQuantize:
    def test_quantization_step(self):
        out = ideal_quantize(np.array([0.0]), n_bits=8, v_fs=2.0)
        lsb = 2.0 / 256
        # Mid-tread reconstruction sits on a half-LSB grid.
        assert abs(out[0]) <= lsb

    def test_clipping_at_rails(self):
        out = ideal_quantize(np.array([10.0, -10.0]), n_bits=4, v_fs=2.0)
        assert out[0] <= 1.0
        assert out[1] >= -1.0

    def test_error_bounded_by_lsb(self, rng):
        data = rng.uniform(-0.9, 0.9, size=1000)
        out = ideal_quantize(data, n_bits=8, v_fs=2.0)
        assert np.max(np.abs(out - data)) <= 2.0 / 256

    def test_more_bits_less_error(self, rng):
        data = rng.uniform(-0.9, 0.9, size=1000)
        err6 = np.std(ideal_quantize(data, 6, 2.0) - data)
        err10 = np.std(ideal_quantize(data, 10, 2.0) - data)
        assert err10 < err6 / 10


class TestIdealSar:
    def test_matches_ideal_quantizer(self, rng):
        adc = SarAdc(n_bits=8, v_fs=2.0)
        data = rng.uniform(-0.99, 0.99, size=2000)
        converted = adc.convert(data, make_rng(0))
        reference = ideal_quantize(data, 8, 2.0)
        np.testing.assert_allclose(converted, reference, atol=2.0 / 256 + 1e-12)

    def test_quantization_error_below_lsb(self, rng):
        adc = SarAdc(n_bits=8, v_fs=2.0)
        data = rng.uniform(-0.99, 0.99, size=500)
        out = adc.convert(data, make_rng(0))
        assert np.max(np.abs(out - data)) <= 2.0 / 256

    def test_sndr_near_ideal_8bit(self):
        adc = SarAdc(n_bits=8, v_fs=2.0)
        tone = sine(frequency=41.0, amplitude=0.99, sample_rate=4096.0, n_samples=8192)
        out = run_block(adc, tone)
        analysis = analyze_sine(out.data)
        assert analysis.sndr_db == pytest.approx(49.9, abs=2.5)

    def test_preserves_shape(self):
        adc = SarAdc(n_bits=6)
        out = adc.convert(np.zeros((3, 5)), make_rng(0))
        assert out.shape == (3, 5)

    def test_saturation(self):
        adc = SarAdc(n_bits=8, v_fs=2.0)
        out = adc.convert(np.array([5.0, -5.0]), make_rng(0))
        assert out[0] <= 1.0
        assert out[1] >= -1.0

    def test_codes_range(self, rng):
        adc = SarAdc(n_bits=6, v_fs=2.0)
        codes = adc.codes(rng.uniform(-2, 2, size=300))
        assert codes.min() >= 0
        assert codes.max() <= 63

    def test_domain_marked_digital(self):
        adc = SarAdc(n_bits=8)
        out = run_block(adc, Signal(np.zeros(8), 1000.0))
        assert out.domain == "digital"
        assert out.annotations["adc_bits"] == 8


class TestComparatorNoise:
    def test_noise_degrades_sndr(self):
        tone = sine(frequency=41.0, amplitude=0.99, sample_rate=4096.0, n_samples=8192)
        clean = analyze_sine(run_block(SarAdc(n_bits=8), tone).data).sndr_db
        noisy_adc = SarAdc(n_bits=8, comparator_noise_rms=0.05)
        noisy = analyze_sine(run_block(noisy_adc, tone).data).sndr_db
        assert noisy < clean - 6

    def test_noise_reproducible(self):
        adc = SarAdc(n_bits=8, comparator_noise_rms=0.01)
        sig = Signal(np.linspace(-0.5, 0.5, 64), 1000.0)
        a = run_block(adc, sig, seed=5).data
        b = run_block(adc, sig, seed=5).data
        np.testing.assert_array_equal(a, b)


class TestDacMismatch:
    def test_mismatch_creates_static_inl(self):
        ideal = SarAdc(n_bits=8)
        skewed = SarAdc(n_bits=8, dac_mismatch_sigma=0.05, mismatch_seed=3)
        ramp = np.linspace(-0.99, 0.99, 4000)
        out_ideal = ideal.convert(ramp, make_rng(0))
        out_skewed = skewed.convert(ramp, make_rng(0))
        assert np.max(np.abs(out_skewed - out_ideal)) > 2.0 / 256

    def test_mismatch_instance_reproducible(self):
        a = SarAdc(n_bits=8, dac_mismatch_sigma=0.02, mismatch_seed=3)
        b = SarAdc(n_bits=8, dac_mismatch_sigma=0.02, mismatch_seed=3)
        ramp = np.linspace(-0.9, 0.9, 100)
        np.testing.assert_array_equal(a.convert(ramp, make_rng(0)), b.convert(ramp, make_rng(0)))

    def test_distinct_instances_differ(self):
        a = SarAdc(n_bits=8, dac_mismatch_sigma=0.05, mismatch_seed=3)
        b = SarAdc(n_bits=8, dac_mismatch_sigma=0.05, mismatch_seed=4)
        ramp = np.linspace(-0.9, 0.9, 400)
        assert not np.array_equal(a.convert(ramp, make_rng(0)), b.convert(ramp, make_rng(0)))

    def test_static_transfer_monotone_count(self):
        adc = SarAdc(n_bits=6, dac_mismatch_sigma=0.01, mismatch_seed=1)
        thresholds = adc.static_transfer()
        assert thresholds.size == 2**6 - 1
        assert np.all(np.diff(thresholds) >= -1e-12)  # sorted by construction


class TestFromDesign:
    def test_wires_resolution_and_noise(self, baseline_point):
        adc = SarAdc.from_design(baseline_point, seed=1)
        assert adc.n_bits == baseline_point.n_bits
        assert adc.v_fs == baseline_point.v_fs
        assert adc.comparator_noise_rms == pytest.approx(adc.lsb / 4)

    def test_power_rows(self, baseline_point):
        adc = SarAdc.from_design(baseline_point, seed=1)
        rows = adc.power(baseline_point)
        assert set(rows) == {"comparator", "sar_logic", "dac", "leakage"}
        assert all(v >= 0 for v in rows.values())


class TestSndrAcrossResolution:
    """The SAR that ``from_design`` builds, against the closed form.

    Prediction: 6.02 N + 1.76 dB for a full-scale sine, 20 log10(0.99)
    for the 0.99 FS tone, and -10 log10(1 + 12 sigma^2 / LSB^2) for the
    comparator noise, which ``from_design`` sets to sigma = LSB/4: 0.75 of
    the LSB^2/12 quantization noise, a 2.43 dB penalty (1.75 in all).

    Tolerance, from what can move one record of one converter off it:

    * FFT estimate: the noise is summed over the ~4089 bins of one
      8192-point record that hold neither DC, the tone nor its harmonics.
      Each bin of a white floor is an exponential draw, so the sum is
      known to 1/sqrt(4089) = 1.6 %; 3 sigma is 0.20 dB either way.
    * Coherence: 41 Hz repeats every 4096 samples, so the record is one
      fixed pattern of codes.  A sine of amplitude A LSB spreads its
      samples over an LSB with a density that departs from uniform by
      2 J0(2 pi A) <= 2 / (pi sqrt(A)) at first order; every noise term
      is an average over that density, so it moves by up to that share:
      0.47, 0.33 and 0.24 dB at N = 6, 7, 8, either way.
    * DAC mismatch, low side only: with unit sigma s_u, bit k's weight
      errs by LSB s_u sqrt(2^k).  A sine toggles each bit half the time,
      so the static INL adds 3 s_u^2 (2^N - 1) of LSB^2/12 on average
      (0.05-0.10 dB here).  The MSB carries half of it as one Gaussian
      draw, so a 1-in-100 converter costs about 4 times the average.
    """

    @staticmethod
    def bounds_db(adc):
        fft = 10 * np.log10(1 + 3 / np.sqrt(4089))
        amplitude_lsb = 0.99 * 2 ** (adc.n_bits - 1)
        coherence = 10 * np.log10(1 + 2 / (np.pi * np.sqrt(amplitude_lsb)))
        inl_share = 3 * adc.dac_mismatch_sigma**2 * (2**adc.n_bits - 1) / 1.75
        mismatch = 10 * np.log10(1 + 4 * inl_share)
        return -(fft + coherence + mismatch), fft + coherence

    @pytest.mark.parametrize("n_bits", [6, 7, 8])
    def test_sndr_matches_the_closed_form(self, n_bits):
        point = DesignPoint(n_bits=n_bits, lna_noise_rms=2e-6)
        tone = sine(
            frequency=41.0, amplitude=0.99 * point.v_fs / 2, sample_rate=4096.0, n_samples=8192
        )
        predicted = (
            6.02 * n_bits + 1.76 + 20 * np.log10(0.99) - 10 * np.log10(1 + 12 / 4**2)
        )
        for seed in range(5):
            adc = SarAdc.from_design(point, seed=seed)
            assert adc.comparator_noise_rms == pytest.approx(adc.lsb / 4)
            low, high = self.bounds_db(adc)
            sndr = analyze_sine(run_block(adc, tone, seed=seed).data).sndr_db
            assert low <= sndr - predicted <= high, (seed, sndr, predicted)
