"""End-to-end integration tests across module boundaries.

These run the whole pipeline at miniature scale: synthetic corpus ->
front-end simulation -> detection -> exploration -> figure analyses.
"""

import numpy as np
import pytest

from repro.core.explorer import DesignSpaceExplorer
from repro.core.goal import accuracy_power_goal, snr_power_goal
from repro.core.parameters import ParameterSpace
from repro.core.simulator import Simulator
from repro.detection.spectral import (
    SpectralCombDetector,
    hard_accuracy,
    mean_correct_probability,
)
from repro.experiments.fig7 import analyze_fig7
from repro.experiments.runner import make_harness
from repro.power.technology import DesignPoint
from repro.util.constants import MICRO


@pytest.fixture(scope="module")
def harness():
    return make_harness("smoke")


class TestHarnessIntegrity:
    def test_records_are_whole_frames(self, harness):
        assert harness.records.shape[1] % 384 == 0

    def test_detector_accurate_on_clean_eval_set(self, harness):
        probabilities = harness.detector.predict_proba(harness.records)
        assert hard_accuracy(probabilities, harness.labels) > 0.85

    def test_labels_cover_both_classes(self, harness):
        labels = set(harness.labels.tolist())
        assert labels == {0, 1}


class TestEndToEndEvaluation:
    def test_baseline_point_full_metrics(self, harness):
        evaluation = harness.evaluator.evaluate(DesignPoint(n_bits=8, lna_noise_rms=2e-6))
        for metric in ("snr_db", "power_uw", "area_units", "accuracy", "accuracy_hard"):
            assert metric in evaluation.metrics
        assert evaluation.metrics["accuracy"] > 0.8
        assert 5.0 < evaluation.metrics["power_uw"] < 15.0

    def test_cs_point_full_metrics(self, harness):
        point = DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150)
        evaluation = harness.evaluator.evaluate(point)
        assert evaluation.metrics["power_uw"] < 4.0
        assert evaluation.metrics["accuracy"] > 0.8
        assert "cs_encoder" in evaluation.breakdown

    def test_score_output_runs_the_detector_once(self, harness, monkeypatch):
        evaluator = harness.evaluator
        point = DesignPoint(n_bits=8, lna_noise_rms=8e-6)
        chain, run_seed = evaluator.build_point_chain(point)
        result = Simulator(chain, point, seed=run_seed).run(
            evaluator.source_signal(), record_taps=False
        )
        features = SpectralCombDetector.features
        calls = []

        def counted(detector, records):
            calls.append(records.shape)
            return features(detector, records)

        monkeypatch.setattr(SpectralCombDetector, "features", counted)
        evaluation = evaluator.score_output(point, result.output, result.power)
        assert len(calls) == 1
        output = np.asarray(result.output.data).reshape(harness.records.shape[0], -1)
        probabilities = harness.detector.predict_proba(output)
        assert evaluation.metrics["accuracy_hard"] == hard_accuracy(probabilities, harness.labels)
        assert evaluation.metrics["accuracy"] == mean_correct_probability(
            probabilities, harness.labels
        )

    def test_noise_tradeoff_monotone(self, harness):
        quiet = harness.evaluator.evaluate(DesignPoint(lna_noise_rms=2e-6))
        loud = harness.evaluator.evaluate(DesignPoint(lna_noise_rms=20e-6))
        assert quiet.metrics["snr_db"] > loud.metrics["snr_db"]
        assert quiet.metrics["power_uw"] > loud.metrics["power_uw"]
        assert quiet.metrics["accuracy"] >= loud.metrics["accuracy"] - 1e-6

    def test_averaging_effect(self, harness):
        """The paper's key insight: at the SAME noise floor, the CS chain's
        detection accuracy is at least the baseline's (reconstruction
        denoises), despite its lower waveform SNR."""
        noise = 8e-6
        baseline = harness.evaluator.evaluate(DesignPoint(n_bits=8, lna_noise_rms=noise))
        cs = harness.evaluator.evaluate(
            DesignPoint(n_bits=8, lna_noise_rms=noise, use_cs=True, cs_m=150)
        )
        assert cs.metrics["accuracy"] >= baseline.metrics["accuracy"] - 0.01
        assert cs.metrics["snr_db"] <= baseline.metrics["snr_db"] + 3.0

    def test_deterministic_evaluation(self, harness):
        point = DesignPoint(n_bits=8, lna_noise_rms=4e-6)
        a = harness.evaluator.evaluate(point)
        b = harness.evaluator.evaluate(point)
        assert a.metrics == b.metrics


class TestMiniExploration:
    def test_explore_and_analyze(self, harness):
        space = ParameterSpace(
            {"use_cs": [False], "lna_noise_rms": [2e-6, 20e-6], "n_bits": [8]}
        ) | ParameterSpace(
            {"use_cs": [True], "lna_noise_rms": [8e-6], "n_bits": [8], "cs_m": [150]}
        )
        result = DesignSpaceExplorer(harness.evaluator).explore(space, name="mini")
        assert len(result) == 3

        fig7 = analyze_fig7(result, min_accuracy=0.5)
        assert fig7.optimal_baseline is not None
        assert fig7.optimal_cs is not None
        # CS point must be the cheaper optimum under this loose constraint.
        assert fig7.optimal_cs.metric("power_uw") < fig7.optimal_baseline.metric("power_uw")

    def test_goal_objects_compose_with_results(self, harness):
        space = ParameterSpace({"lna_noise_rms": [2e-6, 20e-6]})
        result = DesignSpaceExplorer(harness.evaluator).explore(space)
        snr_front = result.pareto(snr_power_goal().objectives)
        assert 1 <= len(snr_front) <= 2
        goal = accuracy_power_goal(0.5)
        best = result.best(constraint=goal.constraint)
        assert best is not None


class TestPowerConsistency:
    def test_simulated_tx_power_matches_model(self, harness):
        """Cross-check: the transmitter block's *measured* bit count implies
        the same power the Table II model predicts."""
        from repro.blocks.chains import build_baseline_chain
        from repro.core import Signal, Simulator
        from repro.power.models import transmitter_power

        point = DesignPoint(n_bits=8, lna_noise_rms=8e-6)
        chain = build_baseline_chain(point, seed=0)
        stream = Signal(harness.records[0], sample_rate=harness.sample_rate)
        Simulator(chain, point, seed=0).run(stream, record_taps=False)
        tx = chain.block("transmitter")
        measured = tx.average_power(stream.duration)
        assert measured == pytest.approx(transmitter_power(point), rel=0.02)

    def test_cs_tx_power_measured_compression(self, harness):
        from repro.blocks.chains import build_cs_chain
        from repro.core import Signal, Simulator

        point = DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150)
        chain = build_cs_chain(point, seed=0)
        stream = Signal(harness.records[0], sample_rate=harness.sample_rate)
        Simulator(chain, point, seed=0).run(stream, record_taps=False)
        tx = chain.block("transmitter")
        expected_bits = (harness.records.shape[1] // 384) * 150 * 8
        assert tx.transmitted_bits == expected_bits
