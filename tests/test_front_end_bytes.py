"""The baseline front end's two hot blocks pinned to oracles.

* ``SarAdc.convert`` runs its bit search in preallocated float64 buffers
  and draws the comparator noise with ``standard_normal(out=)``.  The
  allocating loop it replaced is kept here (``_allocating_convert``); the
  block must return exactly its bytes, dtype and shape and leave the RNG
  in exactly its state, over Hypothesis-drawn resolutions, noise and
  mismatch settings, shapes, dtypes and edge inputs.
* ``LNA.process`` forms its third-order term as ``v * v * v`` since
  release 1.2.0.  The ``v**3`` form before it (libm ``pow``) is kept as a
  tolerance oracle (``_pow_cube_process``), and the paths that skip the
  cube -- no HD3, no clip level -- stay byte-identical to it, as do the
  samples that clip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from repro.blocks.lna import LNA
from repro.blocks.sar_adc import SarAdc
from repro.core.block import SimulationContext
from repro.core.signal import Signal
from repro.power.technology import DesignPoint

_seeds = st.integers(0, 2**32 - 1)

# --- SAR ADC: byte lock against the allocating loop -------------------------


def _allocating_convert(adc: SarAdc, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``SarAdc.convert`` before its buffers: one new array per operation."""
    shape = data.shape
    flat = np.clip(data.ravel(), -adc.v_fs / 2.0, adc.v_fs / 2.0)
    v = flat + adc.v_fs / 2.0
    acc_true = np.zeros_like(v)
    acc_nominal = np.zeros_like(v)
    for w_nom, w_true in zip(adc._weights_nominal, adc._weights_true):
        threshold = acc_true + w_true
        observed = v
        if adc.comparator_noise_rms > 0:
            observed = v + rng.normal(0.0, adc.comparator_noise_rms, size=v.shape)
        keep = observed >= threshold
        acc_true = np.where(keep, threshold, acc_true)
        acc_nominal = acc_nominal + keep * w_nom
    result = acc_nominal + adc.lsb / 2.0 - adc.v_fs / 2.0
    return result.reshape(shape)


def _assert_convert_matches_oracle(adc: SarAdc, data: np.ndarray, seed: int) -> np.ndarray:
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = _allocating_convert(adc, data, want_rng)
    got = adc.convert(data, got_rng)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


def _edge_inputs(adc: SarAdc) -> np.ndarray:
    """Rails, beyond-rail and non-finite values, and every nominal code edge."""
    half = adc.v_fs / 2.0
    edges = np.arange(2**adc.n_bits + 1) * adc.lsb - half
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, half, -half, 3.0 * half, -3.0 * half]
    return np.concatenate(
        [specials, edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=_seeds,
    n_bits=st.sampled_from([1, 6, 8, 12]),
    v_fs=st.sampled_from([2.0, 1.8, 0.3]),
    noise_lsb=st.sampled_from([0.0, 0.25, 3.0]),
    mismatch=st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
    shape=st.sampled_from([(), (1,), (37,), (5, 8), (3, 1)]),
    dtype=st.sampled_from([np.float64, np.float32, np.int64]),
    with_edges=st.booleans(),
)
def test_sar_convert_bits_match_the_allocating_loop(
    seed, n_bits, v_fs, noise_lsb, mismatch, shape, dtype, with_edges
):
    adc = SarAdc(
        n_bits=n_bits,
        v_fs=v_fs,
        comparator_noise_rms=noise_lsb * v_fs / 2.0**n_bits,
        dac_mismatch_sigma=mismatch,
        mismatch_seed=seed,
    )
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    if np.issubdtype(dtype, np.integer):
        data = rng.integers(-3, 4, size=size)
    else:
        data = rng.uniform(-0.75 * v_fs, 0.75 * v_fs, size=size)
        if with_edges:
            edges = _edge_inputs(adc)
            picks = rng.random(size) < 0.5
            data[picks] = rng.choice(edges, size=int(picks.sum()))
    data = data.astype(dtype).reshape(shape)
    got = _assert_convert_matches_oracle(adc, data, seed + 1)
    assert got.dtype == np.float64


@pytest.mark.parametrize("n_bits", [1, 6, 8, 12])
@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
def test_sar_convert_bits_at_every_code_edge(n_bits, noisy):
    sigma = 0.25 * 2.0 / 2**n_bits if noisy else 0.0
    adc = SarAdc(n_bits=n_bits, v_fs=2.0, comparator_noise_rms=sigma)
    _assert_convert_matches_oracle(adc, _edge_inputs(adc), seed=3)


def test_sar_convert_bits_on_a_design_point_stream():
    # The smoke-scale stream length and a Fig. 7 converter: comparator
    # noise at LSB/4 and the technology's DAC mismatch.
    adc = SarAdc.from_design(DesignPoint(n_bits=8, lna_noise_rms=2e-6), seed=5)
    data = np.random.default_rng(1).normal(0.0, adc.v_fs / 4.0, size=73_728)
    _assert_convert_matches_oracle(adc, data, seed=7)


def test_sar_convert_widens_float32_without_rounding_through_it():
    # A float32 input is rounded once, into its own unipolar offset, and
    # the search then runs in float64 -- it used to promote at the first
    # bit.  float32 buffers would round every threshold through float32.
    adc = SarAdc(
        n_bits=12, v_fs=1.8, comparator_noise_rms=1e-4, dac_mismatch_sigma=0.01, mismatch_seed=2
    )
    data = np.random.default_rng(4).uniform(-1.0, 1.0, size=512).astype(np.float32)
    got = _assert_convert_matches_oracle(adc, data, seed=9)
    assert got.dtype == np.float64


# --- LNA: the cube against the ``pow`` form ---------------------------------


def _pow_cube_process(lna: LNA, signal: Signal, ctx: SimulationContext) -> np.ndarray:
    """``LNA.process`` before release 1.2.0, which cubed with ``data**3``."""
    data = signal.data
    if lna.noise_rms > 0:
        data = data + ctx.rng(lna.name).normal(0.0, lna.noise_rms, size=data.shape)
    data = data * lna.gain
    if lna.bandwidth is not None and lna.bandwidth < signal.sample_rate / 2:
        b, a = sp_signal.butter(1, lna.bandwidth, fs=signal.sample_rate)
        data = sp_signal.lfilter(b, a, data)
    if lna.hd3_at_fs > 0 and lna.clip_level is not None:
        a3 = 4.0 * lna.hd3_at_fs / lna.clip_level**2
        data = data - a3 * data**3
    if lna.clip_level is not None:
        data = np.clip(data, -lna.clip_level, lna.clip_level)
    return data


#: Allowed ``|v*v*v form - v**3 form| / |v**3 form|`` per LNA output
#: sample, >= 10x the worst gap measured over 4000 random configurations
#: drawn like the Hypothesis test below: 2.2e-16, one rounding of the
#: output (460 of the 2.05 M samples differed at all).  Past the swing,
#: where ``v - a3 v^3`` folds back through zero, the relative gap grows
#: without bound, so the oracle stays inside it.
LNA_CUBE_RTOL = 5e-15


def _lna_case(seed, gain, noise_frac, bandwidth, hd3, clip, swing=2.0, n=512):
    """Both forms on ``n`` samples spanning ``swing`` x the clip level.

    The input-referred noise is ``noise_frac`` of the input amplitude.
    """
    amplitude = swing * (clip if clip is not None else 1.0) / gain
    lna = LNA(
        gain=gain,
        noise_rms=noise_frac * amplitude,
        bandwidth=bandwidth,
        hd3_at_fs=hd3,
        clip_level=clip,
    )
    data = np.random.default_rng(seed).uniform(-amplitude, amplitude, size=n)
    signal = Signal(data, sample_rate=1000.0)
    got = lna.process(signal, SimulationContext(seed=seed)).data
    want = _pow_cube_process(lna, signal, SimulationContext(seed=seed))
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    return got, want


@settings(max_examples=60, deadline=None)
@given(
    seed=_seeds,
    gain=st.floats(1.0, 2000.0),
    noise_frac=st.sampled_from([0.0, 0.01, 0.1]),
    bandwidth=st.sampled_from([None, 100.0]),
    hd3=st.floats(1e-6, 1e-2),
    clip=st.floats(1e-3, 10.0),
)
def test_lna_cube_tracks_the_pow_form(seed, gain, noise_frac, bandwidth, hd3, clip):
    got, want = _lna_case(seed, gain, noise_frac, bandwidth, hd3, clip)
    np.testing.assert_allclose(got, want, rtol=LNA_CUBE_RTOL, atol=0.0)


@pytest.mark.parametrize("noise_frac", [0.0, 0.1], ids=["quiet", "noisy"])
@pytest.mark.parametrize(
    "hd3, clip", [(0.0, 0.9), (1e-3, None), (0.0, None)], ids=["no-hd3", "no-clip", "neither"]
)
def test_lna_paths_without_the_cube_keep_their_bytes(noise_frac, hd3, clip):
    got, want = _lna_case(11, 500.0, noise_frac, 100.0, hd3, clip)
    assert got.tobytes() == want.tobytes()


def test_lna_clipped_samples_keep_their_bytes():
    got, want = _lna_case(12, 1000.0, 0.01, None, 1e-3, 0.9, swing=3.0, n=4096)
    clipped = np.abs(want) == 0.9
    assert clipped.sum() > 1000
    assert got[clipped].tobytes() == want[clipped].tobytes()
