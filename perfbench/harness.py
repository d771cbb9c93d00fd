"""Seeded inputs, workloads and correctness checks of the benchmark.

Every workload sweeps design points of the ``smoke``-scale Fig. 7 grid
(Table III: LNA noise x ADC resolution, plus M for the CS chain) through
:class:`repro.core.explorer.DesignSpaceExplorer` with the serial executor,
an on-disk evaluation cache and a JSONL checkpoint -- the path
``repro sweep --checkpoint`` takes.  ``--seed`` draws the synthetic EEG
corpora (evaluation and detector-training records) and the evaluator's
master seed; the grid itself is fixed, so every seed costs the same work.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.explorer import FrontEndEvaluator
from repro.detection.spectral import SpectralCombDetector
from repro.eeg.preprocessing import resample_dataset
from repro.eeg.synthetic import make_bonn_like_dataset
from repro.experiments.runner import (
    F_SAMPLE,
    SCALES,
    FistaReconstructorFactory,
    search_space_for,
)
from repro.power.technology import DesignPoint
from repro.util.rng import derive_seed

SCALE = SCALES["smoke"]


@dataclass(frozen=True)
class Workload:
    """The design points one sweep covers, and those already cached.

    ``warm`` selects the points the cache holds when each sweep starts;
    the rest are simulated and stored.  Why each workload exists is
    recorded in ``BENCHMARK.json``.
    """

    name: str
    select: Callable[[DesignPoint], bool]
    warm: Callable[[DesignPoint], bool] = lambda point: False

    def points(self, grid: list[DesignPoint]) -> list[DesignPoint]:
        return [point for point in grid if self.select(point)]

    def warm_points(self, points: list[DesignPoint]) -> list[DesignPoint]:
        return [point for point in points if self.warm(point)]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("baseline", select=lambda point: not point.use_cs),
        Workload("cs", select=lambda point: point.use_cs),
        Workload("grid", select=lambda point: True),
        # The grid re-swept after adding 6-bit baseline points: 15 of 18 hit.
        Workload(
            "cached",
            select=lambda point: True,
            warm=lambda point: point.use_cs or point.n_bits != 6,
        ),
    )
}


def fig7_grid() -> list[DesignPoint]:
    """The smoke-scale Table III search space in grid order."""
    return list(search_space_for(SCALE).grid())


def _corpus(n_records: int, seed: int):
    dataset = resample_dataset(make_bonn_like_dataset(n_records=n_records, seed=seed), F_SAMPLE)
    return dataset.stacked(SCALE.samples_per_record), dataset.labels()


def build_evaluator(seed: int) -> FrontEndEvaluator:
    """Corpora, calibrated detector and evaluator for one ``seed``.

    The same stack ``repro.experiments.runner.make_harness`` builds, which
    pins the seed to the scale's.
    """
    records, labels = _corpus(SCALE.n_eval_records, derive_seed(seed, "eval"))
    train_records, train_labels = _corpus(SCALE.n_train_records, derive_seed(seed, "train"))
    detector = SpectralCombDetector(sample_rate=F_SAMPLE)
    detector.fit(train_records, train_labels)
    return FrontEndEvaluator(
        records=records,
        labels=labels,
        sample_rate=F_SAMPLE,
        detector=detector,
        seed=derive_seed(seed, "evaluator"),
        reconstructor_factory=FistaReconstructorFactory(n_iter=SCALE.fista_iters),
    )


# --- correctness ---------------------------------------------------------------


def sanity_errors(references: dict) -> list[str]:
    """Physical checks on directly evaluated points (description -> Evaluation).

    Each metric is finite and in range, and the total power is the sum of
    the per-block breakdown.  At fixed architecture, resolution and M a
    noisier LNA must draw strictly less power (P ~ 1/v_n^2); on the
    baseline chain it must also cost SNR.  (CS points sit near the
    reconstruction floor, where SNR is flat in the LNA noise.)
    """
    errors = []
    curves: dict[tuple, list] = {}
    for description, evaluation in references.items():
        metrics = evaluation.metrics
        if evaluation.error is not None:
            errors.append(f"{description}: failed: {evaluation.error}")
            continue
        if not all(math.isfinite(value) for value in metrics.values()):
            errors.append(f"{description}: non-finite metric {metrics}")
            continue
        if not 0.0 <= metrics["accuracy"] <= 1.0:
            errors.append(f"{description}: accuracy {metrics['accuracy']} outside [0, 1]")
        total = sum(evaluation.breakdown.values())
        if not (metrics["power_w"] > 0 and math.isclose(total, metrics["power_w"], rel_tol=1e-9)):
            errors.append(f"{description}: power {metrics['power_w']} != breakdown sum {total}")
        point = evaluation.point
        key = (point.use_cs, point.n_bits, point.cs_m if point.use_cs else 0)
        curves.setdefault(key, []).append((point.lna_noise_rms, metrics))
    for (use_cs, n_bits, cs_m), curve in curves.items():
        curve.sort(key=lambda item: item[0])
        for (_, quiet), (_, noisy) in zip(curve, curve[1:]):
            if not noisy["power_w"] < quiet["power_w"]:
                errors.append(f"cs={use_cs} N={n_bits} M={cs_m}: power does not fall with noise")
            if not use_cs and not noisy["snr_db"] < quiet["snr_db"]:
                errors.append(f"baseline N={n_bits}: SNR does not fall with LNA noise")
    return errors


def mismatches(result, references: dict) -> list[str]:
    """Points of a sweep result that failed or differ from their reference."""
    errors = []
    for evaluation in result:
        description = evaluation.point.describe()
        reference = references[description]
        if evaluation.error is not None:
            errors.append(f"{description}: failed: {evaluation.error}")
        elif (evaluation.metrics, evaluation.breakdown) != (
            reference.metrics,
            reference.breakdown,
        ):
            errors.append(f"{description}: differs from its direct evaluation")
    return errors
