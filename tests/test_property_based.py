"""Property-based tests (hypothesis) on the core invariants.

These cover the algebraic hearts of the system: charge-sharing weight
algebra (Eq. 1), quantizer monotonicity, Pareto-front axioms, dictionary
orthogonality, power-model scaling laws, and dataset determinism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import Objective, dominates, pareto_front
from repro.cs.charge_sharing import effective_matrix
from repro.cs.dictionaries import dct_basis, wavelet_basis
from repro.cs.matrices import srbm_balanced
from repro.power.models import chain_power, lna_power, transmitter_power
from repro.power.technology import DesignPoint, Technology

# --- strategies -------------------------------------------------------------

dims = st.tuples(
    st.integers(min_value=4, max_value=24),  # m
    st.integers(min_value=25, max_value=96),  # n
    st.integers(min_value=1, max_value=3),  # s
).filter(lambda t: t[2] <= t[0] and t[0] < t[1])

metric_dicts = st.fixed_dictionaries(
    {
        "power": st.floats(min_value=0.1, max_value=100, allow_nan=False),
        "quality": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    }
)

OBJ = (Objective("power", maximize=False), Objective("quality", maximize=True))


class FakeEval:
    def __init__(self, metrics):
        self.metrics = metrics


# --- charge-sharing algebra --------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(dims, st.floats(min_value=0.05, max_value=0.5), st.integers(0, 2**31 - 1))
def test_effective_matrix_weights_bounded(dim, share_gain, seed):
    """Every effective weight lies in (0, a] and zeros are preserved."""
    m, n, s = dim
    mat = srbm_balanced(m, n, s, seed=seed)
    weights = effective_matrix(mat, share_gain, 1.0 - share_gain)
    nonzero = weights[mat.phi != 0]
    assert np.all(nonzero > 0)
    assert np.all(nonzero <= share_gain + 1e-12)
    assert np.all(weights[mat.phi == 0] == 0)


@settings(max_examples=25, deadline=None)
@given(dims, st.integers(0, 2**31 - 1))
def test_effective_row_sums_below_unity(dim, seed):
    """Accumulated DC gain a * sum b^k < 1: passive networks cannot amplify."""
    m, n, s = dim
    mat = srbm_balanced(m, n, s, seed=seed)
    weights = effective_matrix(mat, 0.2, 0.8)
    assert np.all(weights.sum(axis=1) < 1.0 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(dims, st.integers(0, 2**31 - 1))
def test_encoder_linear_in_input(dim, seed):
    """The noiseless encoder is a linear operator (superposition holds)."""
    from repro.cs.charge_sharing import ChargeSharingConfig, ChargeSharingEncoder

    m, n, s = dim
    mat = srbm_balanced(m, n, s, seed=seed)
    enc = ChargeSharingEncoder(
        mat, ChargeSharingConfig(c_sample=1e-15, c_hold=8e-15, kt=0.0), seed=seed
    )
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    lhs = enc.encode(2.0 * x1 - 3.0 * x2)
    rhs = 2.0 * enc.encode(x1) - 3.0 * enc.encode(x2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# --- s-SRBM construction -----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(dims, st.integers(0, 2**31 - 1))
def test_srbm_balanced_invariants(dim, seed):
    m, n, s = dim
    mat = srbm_balanced(m, n, s, seed=seed)
    assert np.all(np.count_nonzero(mat.phi, axis=0) == s)
    degrees = mat.row_degrees()
    assert degrees.max() - degrees.min() <= 1
    assert degrees.sum() == n * s


# --- quantizer ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=2, max_size=64),
    st.integers(min_value=2, max_value=12),
)
def test_ideal_quantizer_monotone_and_bounded(values, n_bits):
    from repro.blocks.sar_adc import ideal_quantize

    data = np.array(values)
    out = ideal_quantize(data, n_bits=n_bits, v_fs=2.0)
    lsb = 2.0 / 2**n_bits
    # Bounded error inside the rails.
    inside = np.abs(data) <= 1.0 - lsb
    assert np.all(np.abs(out[inside] - data[inside]) <= lsb)
    # Monotone: sorting the input sorts the output.
    order = np.argsort(data)
    assert np.all(np.diff(out[order]) >= -1e-12)


# --- Pareto axioms -------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(metric_dicts, min_size=1, max_size=30))
def test_pareto_front_members_not_dominated(metrics_list):
    evals = [FakeEval(m) for m in metrics_list]
    front = pareto_front(evals, OBJ)
    assert front  # non-empty for non-empty input
    for member in front:
        assert not any(
            dominates(other.metrics, member.metrics, OBJ)
            for other in evals
            if other is not member
        )


@settings(max_examples=50, deadline=None)
@given(st.lists(metric_dicts, min_size=1, max_size=30))
def test_pareto_front_covers_all_non_members(metrics_list):
    evals = [FakeEval(m) for m in metrics_list]
    front = pareto_front(evals, OBJ)
    outside = [e for e in evals if e not in front]
    for loser in outside:
        assert any(dominates(w.metrics, loser.metrics, OBJ) for w in evals if w is not loser)


@settings(max_examples=30, deadline=None)
@given(st.lists(metric_dicts, min_size=2, max_size=20))
def test_pareto_idempotent(metrics_list):
    evals = [FakeEval(m) for m in metrics_list]
    front = pareto_front(evals, OBJ)
    assert set(map(id, pareto_front(front, OBJ))) == set(map(id, front))


# --- dictionaries --------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([8, 16, 32, 64, 128]))
def test_dct_parseval(n):
    psi = dct_basis(n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    assert np.linalg.norm(psi.T @ x) == pytest.approx(np.linalg.norm(x), rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([32, 64, 128]), st.sampled_from(["haar", "db2", "db4"]))
def test_wavelet_roundtrip(n, wavelet):
    psi = wavelet_basis(n, wavelet)
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    np.testing.assert_allclose(psi @ (psi.T @ x), x, atol=1e-9)


# --- power scaling laws ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=19e-6, allow_nan=False),
    st.floats(min_value=1.02, max_value=2.0),
)
def test_lna_noise_power_monotone(noise, factor):
    """More tolerated noise never costs more LNA power."""
    lo = DesignPoint(lna_noise_rms=noise)
    hi = DesignPoint(lna_noise_rms=noise * factor)
    assert lna_power(hi) <= lna_power(lo) + 1e-18


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=14))
def test_transmitter_power_linear_in_bits(n_bits):
    point = DesignPoint(n_bits=n_bits)
    per_bit = transmitter_power(point) / n_bits
    assert per_bit == pytest.approx(point.f_sample * point.technology.e_bit)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([75, 100, 150, 192, 250]))
def test_compression_reduces_total_power(m):
    cs = DesignPoint(use_cs=True, cs_m=m, lna_noise_rms=8e-6)
    baseline = DesignPoint(use_cs=False, lna_noise_rms=8e-6)
    # TX dominates at this noise level, so compression must win overall.
    assert chain_power(cs).blocks["transmitter"] < chain_power(baseline).blocks["transmitter"]


# --- dataset determinism ----------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_record_generation_deterministic(seed):
    from repro.eeg.synthetic import SyntheticEegConfig, generate_record

    config = SyntheticEegConfig(duration=2.0)
    a = generate_record("seizure", config, seed, "s")
    b = generate_record("seizure", config, seed, "s")
    np.testing.assert_array_equal(a.data, b.data)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_snr_gain_invariance_property(seed):
    from repro.metrics.snr import snr_vs_reference

    rng = np.random.default_rng(seed)
    ref = rng.normal(size=512)
    noisy = ref + 0.1 * rng.normal(size=512)
    gain = float(10 ** rng.uniform(-3, 3))
    assert snr_vs_reference(ref, noisy * gain) == pytest.approx(
        snr_vs_reference(ref, noisy), abs=1e-6
    )


# --- serialization round-trips ----------------------------------------------------


design_points = st.builds(
    DesignPoint,
    n_bits=st.integers(min_value=4, max_value=12),
    lna_noise_rms=st.floats(min_value=1e-7, max_value=1e-4, allow_nan=False),
    lna_gain=st.floats(min_value=10.0, max_value=1e5, allow_nan=False),
    use_cs=st.booleans(),
    cs_architecture=st.sampled_from(["analog", "digital"]),
    cs_m=st.sampled_from([75, 150, 192]),
    cs_cap_ratio=st.floats(min_value=1.0, max_value=64.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(design_points)
def test_design_point_serialization_roundtrip(point):
    from repro.core.serialization import design_point_from_dict, design_point_to_dict

    assert design_point_from_dict(design_point_to_dict(point)) == point


def _positive(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


any_design_points = st.builds(
    DesignPoint,
    bw_in=_positive(1.0, 1e4),
    n_bits=st.integers(min_value=1, max_value=16),
    v_dd=_positive(0.1, 5.0),
    v_fs=_positive(0.1, 5.0),
    v_ref=_positive(0.1, 5.0),
    lna_noise_rms=_positive(1e-8, 1e-3),
    lna_gain=_positive(1.0, 1e6),
    use_cs=st.booleans(),
    cs_architecture=st.sampled_from(["analog", "digital"]),
    cs_m=st.sampled_from([75, 150, 192]),
    cs_cap_ratio=_positive(0.5, 64.0),
    cs_weight_mismatch_sigma=_positive(0.0, 0.1),
    lna_bw_ratio=_positive(0.5, 10.0),
    technology=st.builds(
        Technology,
        c_logic=_positive(1e-16, 1e-14),
        unit_cap_mismatch_sigma=_positive(0.0, 0.5),
        i_leak=_positive(1e-14, 1e-9),
        nef=_positive(1.0, 10.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(any_design_points)
def test_design_point_to_dict_is_asdict(point):
    import dataclasses
    import json

    from repro.core.serialization import design_point_to_dict

    payload = design_point_to_dict(point)
    assert payload == dataclasses.asdict(point)
    assert json.dumps(payload) == json.dumps(dataclasses.asdict(point))


@settings(max_examples=25, deadline=None)
@given(design_points)
def test_chain_power_always_positive_and_finite(point):
    report = chain_power(point)
    assert np.isfinite(report.total)
    assert report.total > 0
    assert all(v >= 0 for v in report.blocks.values())


@settings(max_examples=25, deadline=None)
@given(design_points)
def test_noise_budget_total_dominates_contributors(point):
    from repro.power.noise_budget import noise_budget

    budget = noise_budget(point)
    total = budget.total
    for value in budget.contributions().values():
        assert value <= total + 1e-18
    assert abs(sum(budget.fractions().values()) - 1.0) < 1e-9


# --- area model invariants ------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(design_points)
def test_area_positive_and_cs_larger(point):
    from repro.power.area import chain_area

    report = chain_area(point)
    assert report.units > 0
    if point.use_cs and point.cs_architecture == "analog":
        baseline = chain_area(point.with_(use_cs=False))
        assert report.units > baseline.units
