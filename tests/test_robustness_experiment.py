"""Tests of Monte-Carlo yield analysis (repro.faults.montecarlo + CLI exp)."""

import time
from dataclasses import dataclass

import pytest

from repro.core.execution import ExecutionPolicy
from repro.core.explorer import FrontEndEvaluator
from repro.core.results import Evaluation
from repro.core.telemetry import RunManifest, Telemetry
from repro.faults import (
    FaultSuite,
    GainDrift,
    MonteCarloYield,
    PacketLoss,
    SampleDropout,
    YieldResult,
)
from repro.power.technology import DesignPoint
from tests.test_explorer import FS, small_corpus

SUITE = FaultSuite(
    entries=(
        ("lna", GainDrift(severity=1.0)),
        ("sample_hold", SampleDropout(severity=1.0)),
        ("transmitter", PacketLoss(severity=1.0)),
    )
)
POINTS = {
    "baseline": DesignPoint(n_bits=8, lna_noise_rms=2e-6),
    "cs": DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150),
}


@dataclass(frozen=True)
class HangsUnderFaults:
    """Scores the clean chain at once and hangs on every faulted clone."""

    faulted: bool = False

    def with_chain_transform(self, transform):
        return HangsUnderFaults(faulted=transform is not None)

    def __call__(self, point):
        if self.faulted:
            time.sleep(5.0)  # abandoned by the timeout watchdog
        return Evaluation(point=point, metrics={"snr_db": 40.0})


def make_runner(**overrides):
    evaluator = FrontEndEvaluator(small_corpus(), None, FS, seed=3)
    kwargs = dict(
        evaluators={name: evaluator for name in POINTS},
        points=POINTS,
        suite=SUITE,
        severities=(0.25, 1.0),
        n_realisations=2,
        metric="snr_db",
        max_degradation=6.0,
    )
    kwargs.update(overrides)
    return MonteCarloYield(**kwargs)


@pytest.fixture(scope="module")
def result():
    return make_runner().run()


class TestMonteCarloYield:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_runner(severities=())
        with pytest.raises(ValueError):
            make_runner(severities=(0.5, 2.0))
        with pytest.raises(ValueError):
            make_runner(n_realisations=0)

    def test_row_count_and_clean_references(self, result):
        assert len(result.rows) == len(POINTS) * 2 * 2
        assert set(result.clean) == set(POINTS)
        for value in result.clean.values():
            assert value == pytest.approx(value)  # finite

    def test_deterministic_across_runs(self, result):
        again = make_runner().run()
        assert again.summary() == result.summary()

    def test_yield_curve_shape(self, result):
        for chain in POINTS:
            curve = result.yield_curve(chain)
            assert [sev for sev, _ in curve] == [0.25, 1.0]
            for _, y in curve:
                assert 0.0 <= y <= 1.0

    def test_degradation_grows_with_severity(self, result):
        # Mean degradation at full severity should not be below the
        # low-severity mean for either chain (among finite realisations).
        for chain in POINTS:
            low = result.degradation_stats(chain, 0.25)
            high = result.degradation_stats(chain, 1.0)
            if low["n"] and high["n"]:
                assert high["mean"] >= low["mean"] - 1e-9

    def test_as_table_mentions_every_chain_and_severity(self, result):
        table = result.as_table()
        for chain in POINTS:
            assert chain in table
        assert "0.25" in table and "1.00" in table

    def test_summary_is_json_ready(self, result):
        import json

        payload = json.loads(json.dumps(result.summary()))
        assert payload["metric"] == "snr_db"
        assert set(payload["yield_curves"]) == set(POINTS)

    def test_telemetry_counters(self):
        tel = Telemetry()
        make_runner().run(telemetry=tel)
        # Faulted evaluations only; the per-chain clean references are
        # accounted separately.
        assert tel.counters["robustness.evaluations"] == len(POINTS) * 2 * 2
        assert tel.counters["faults.applied"] > 0

    def test_timed_out_realisations_are_counted_once(self):
        from repro.experiments.robustness import build_robustness_manifest

        tel = Telemetry()
        result = make_runner(
            evaluators={name: HangsUnderFaults() for name in POINTS},
            policy=ExecutionPolicy(timeout_s=0.05),
        ).run(telemetry=tel)
        assert all(row.error.startswith("EvaluationTimeout") for row in result.rows)
        manifest = build_robustness_manifest(result, telemetry=tel, scale="smoke")
        n_faulted = len(POINTS) * 2 * 2
        assert manifest.robustness["counters"] == {
            "faults_applied": 0,
            "evaluations": n_faulted,
            "failures": n_faulted,
            "timeouts": n_faulted,
        }


class TestRobustnessExperiment:
    @pytest.fixture(scope="class")
    def smoke(self):
        from repro.experiments.robustness import run_robustness

        return run_robustness(
            scale="smoke", severities=(0.5,), n_realisations=1
        )

    def test_smoke_run_covers_both_chains(self, smoke):
        assert isinstance(smoke, YieldResult)
        assert sorted(smoke.chains()) == ["baseline", "cs"]
        assert smoke.metric == "accuracy"

    def test_render_contains_verdicts(self, smoke):
        from repro.experiments.robustness import render_robustness

        text = render_robustness(smoke)
        assert "baseline" in text and "cs" in text
        assert "yield" in text.lower()

    def test_manifest_round_trip(self, smoke):
        from repro.experiments.robustness import build_robustness_manifest

        tel = Telemetry()
        tel.count("faults.applied", 3)
        manifest = build_robustness_manifest(smoke, telemetry=tel, scale="smoke")
        assert manifest.robustness["counters"]["faults_applied"] == 3
        import json

        # Simulate a disk round trip (tuples become JSON lists).
        restored = RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert restored.robustness["yield_curves"] == {
            chain: [list(pair) for pair in smoke.yield_curve(chain)]
            for chain in smoke.chains()
        }
