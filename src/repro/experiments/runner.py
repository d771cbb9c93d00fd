"""Shared experiment harness: dataset, detector, evaluator, scales.

Every figure experiment runs on the same stack:

1. a synthetic Bonn-like corpus resampled to the front-end rate
   ``f_sample = 2.1 * 256 Hz`` and truncated to a whole number of CS
   frames;
2. the deterministic spectral seizure detector calibrated once on an
   *independent* clean corpus (the accuracy oracle standing in for the CNN
   of ref. [20] -- see :mod:`repro.detection.spectral` for the rationale);
3. a :class:`~repro.core.explorer.FrontEndEvaluator` scoring design points.

Because full paper scale (500 records x 23.6 s x ~100 grid points) takes
hours in pure Python, the harness exposes named :class:`ExperimentScale`
presets.  ``smoke`` checks code paths in seconds; ``small`` (the default
for benchmark reporting) resolves accuracy to <1 % in minutes; ``paper``
is the faithful full-size run.  Select one globally with the
``REPRO_SCALE`` environment variable.

Harnesses are cached per scale, so every experiment at one scale shares
one corpus and one calibrated detector.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.explorer import DesignSpaceExplorer, FrontEndEvaluator
from repro.core.results import ExplorationResult
from repro.core.resources import resources_section
from repro.core.telemetry import Telemetry, RunManifest
from repro.cs.reconstruction import FistaReconstructorFactory
from repro.detection.spectral import SpectralCombDetector
from repro.eeg.preprocessing import resample_dataset
from repro.eeg.synthetic import make_bonn_like_dataset
from repro.experiments.table3 import CS_N_PHI, paper_search_space
from repro.util.rng import derive_seed

#: Front-end sampling rate of all experiments (Table III: 2.1 * 256 Hz).
F_SAMPLE = 2.1 * 256.0


@dataclass(frozen=True)
class ExperimentScale:
    """Size preset of an experiment run."""

    name: str
    n_eval_records: int
    n_train_records: int
    frames_per_record: int
    noise_values_uv: tuple[float, ...]
    n_bits_values: tuple[int, ...]
    cs_m_values: tuple[int, ...]
    fista_iters: int
    seed: int = 2022

    @property
    def samples_per_record(self) -> int:
        """Record length in samples (whole CS frames)."""
        return self.frames_per_record * CS_N_PHI


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        n_eval_records=24,
        n_train_records=40,
        frames_per_record=8,
        noise_values_uv=(2.0, 8.0, 20.0),
        n_bits_values=(6, 8),
        cs_m_values=(75, 150),
        fista_iters=120,
    ),
    "small": ExperimentScale(
        name="small",
        n_eval_records=120,
        n_train_records=150,
        frames_per_record=16,
        noise_values_uv=(1.0, 2.0, 4.0, 8.0, 14.0, 20.0),
        n_bits_values=(6, 8),
        cs_m_values=(75, 150, 192),
        fista_iters=250,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_eval_records=500,
        n_train_records=300,
        frames_per_record=33,
        noise_values_uv=(1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0),
        n_bits_values=(6, 7, 8),
        cs_m_values=(75, 150, 192),
        fista_iters=400,
    ),
}


def active_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (default ``smoke``)."""
    name = os.environ.get("REPRO_SCALE", "smoke")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"REPRO_SCALE={name!r}; known scales: {sorted(SCALES)}") from None


def default_workers() -> int | None:
    """Worker count selected by ``REPRO_WORKERS`` (``None`` = serial)."""
    value = os.environ.get("REPRO_WORKERS")
    if value is None:
        return None
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS={value!r} is not an integer") from None
    if workers < 1:
        raise ValueError(f"REPRO_WORKERS={workers} must be >= 1")
    return workers


@dataclass
class ExperimentHarness:
    """Everything a figure experiment needs, built once per scale."""

    scale: ExperimentScale
    records: np.ndarray
    labels: np.ndarray
    detector: SpectralCombDetector
    evaluator: FrontEndEvaluator

    @property
    def sample_rate(self) -> float:
        """Record rate, Hz."""
        return F_SAMPLE


def _truncated_records(n_records: int, seed: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    dataset = resample_dataset(make_bonn_like_dataset(n_records=n_records, seed=seed), F_SAMPLE)
    return dataset.stacked(samples), dataset.labels()


@lru_cache(maxsize=4)
def _harness_cached(scale_name: str) -> ExperimentHarness:
    scale = SCALES[scale_name]
    samples = scale.samples_per_record
    eval_records, eval_labels = _truncated_records(
        scale.n_eval_records, derive_seed(scale.seed, "eval"), samples
    )
    train_records, train_labels = _truncated_records(
        scale.n_train_records, derive_seed(scale.seed, "train"), samples
    )
    # The accuracy oracle: the deterministic spectral detector,
    # calibrated once on the clean training corpus (see
    # repro.detection.spectral for why this oracle -- rather than a small
    # learned network -- drives the sweeps).
    detector = SpectralCombDetector(sample_rate=F_SAMPLE)
    detector.fit(train_records, train_labels)
    evaluator = FrontEndEvaluator(
        records=eval_records,
        labels=eval_labels,
        sample_rate=F_SAMPLE,
        detector=detector,
        seed=derive_seed(scale.seed, "evaluator"),
        reconstructor_factory=FistaReconstructorFactory(n_iter=scale.fista_iters),
    )
    return ExperimentHarness(
        scale=scale,
        records=eval_records,
        labels=eval_labels,
        detector=detector,
        evaluator=evaluator,
    )


def make_harness(scale: str | ExperimentScale | None = None) -> ExperimentHarness:
    """Build (or fetch the cached) harness for ``scale``."""
    if scale is None:
        scale = active_scale()
    name = scale if isinstance(scale, str) else scale.name
    if name not in SCALES:
        raise ValueError(f"unknown scale {name!r}; known: {sorted(SCALES)}")
    return _harness_cached(name)


def search_space_for(scale: str | ExperimentScale):
    """The Table III search space at ``scale`` (both architectures)."""
    if isinstance(scale, str):
        scale = SCALES[scale]
    return paper_search_space(
        noise_values_uv=scale.noise_values_uv,
        n_bits_values=scale.n_bits_values,
        cs_m_values=scale.cs_m_values,
    )


def run_search_space(
    scale: str | ExperimentScale | None = None, **explore_kwargs
) -> ExplorationResult:
    """The Fig. 7 search-space sweep at ``scale`` (default ``REPRO_SCALE``).

    ``explore_kwargs`` go to :meth:`DesignSpaceExplorer.explore`
    unchanged; ``n_workers`` defaults to ``REPRO_WORKERS`` (serial when
    unset), and ``explore`` picks the executor from it.
    """
    harness = make_harness(scale)
    if explore_kwargs.get("n_workers") is None:
        explore_kwargs["n_workers"] = default_workers()
    return DesignSpaceExplorer(harness.evaluator).explore(
        search_space_for(harness.scale),
        name=f"fig7-{harness.scale.name}",
        **explore_kwargs,
    )


def build_run_manifest(
    sweep: ExplorationResult,
    telemetry: Telemetry,
    scale: str | ExperimentScale | None = None,
    *,
    executor: str | None = None,
    n_workers: int | None = None,
    command: str = "sweep",
    max_eta_events: int = 200,
) -> RunManifest:
    """Assemble the :class:`RunManifest` of one profiled sweep.

    Combines the sweep result (per-block *power* breakdown of the optimum,
    failure counts) with the telemetry state (per-phase and per-block
    *time* breakdowns, cache/checkpoint counters, per-point latency, ETA
    history).  ``block_time_s`` holds the ``block.*`` spans every executor
    brings home; it is empty when nothing was simulated (fully cached or
    restored sweeps, evaluators without a signal chain).
    """
    if scale is None:
        scale = active_scale()
    if isinstance(scale, str):
        scale = SCALES[scale]

    snapshot = telemetry.snapshot()
    counters = snapshot["counters"]
    eta_history = [
        event for event in snapshot["events"] if event["kind"] == "explore.progress"
    ]
    if len(eta_history) > max_eta_events:
        # Thin evenly but always keep the final event (the run's end state).
        stride = -(-len(eta_history) // max_eta_events)
        thinned = eta_history[::stride]
        if thinned[-1] is not eta_history[-1]:
            thinned.append(eta_history[-1])
        eta_history = thinned
    # A fleet run reports its lease/requeue/quarantine accounting as one
    # ``fleet.report`` event when the coordinator finishes; the last one
    # wins (resumed runs emit one per attempt).
    fleet_section: dict = {}
    for event in snapshot["events"]:
        if event["kind"] == "fleet.report":
            fleet_section = {
                key: value
                for key, value in event.items()
                if key not in ("kind", "t_unix")
            }

    best = sweep.best()
    representative = best if best is not None else next(
        (e for e in sweep if e.ok), None
    )

    point_stats = snapshot["histograms"].get("explore.point_seconds", {})
    return RunManifest(
        command=command,
        created_unix=time.time(),
        seed=scale.seed,
        scale=scale.name,
        grid_size=search_space_for(scale).size,
        executor=executor,
        n_workers=n_workers,
        phases=telemetry.timers(),
        block_time_s=telemetry.timers("block."),
        block_power_w=dict(representative.breakdown) if representative else {},
        sweep={
            "name": sweep.name,
            "evaluated": len(sweep),
            "failures": len(sweep.failures()),
            "cache_hits": counters.get("explore.cache_hits", 0),
            "cache_misses": counters.get("explore.cache_misses", 0),
            "checkpoint_restored": counters.get("explore.checkpoint_restored", 0),
            "progress_errors": counters.get("explore.progress_errors", 0),
            "cache_corrupt": counters.get("cache.corrupt", 0),
            "timeouts": counters.get("explore.timeouts", 0),
            "retries": counters.get("explore.retries", 0),
            "interrupted": counters.get("explore.interrupted", 0),
            "point_seconds": point_stats,
            "events_dropped": counters.get("telemetry.events_dropped", 0),
            "max_events": telemetry.max_events,
            "representative_point": (
                representative.point.describe() if representative else None
            ),
        },
        trace=telemetry.tracer.summary() if telemetry.tracer is not None else {},
        resources=resources_section(snapshot),
        fleet=fleet_section,
        workers=snapshot["workers"],
        histograms=snapshot["histograms"],
        eta_history=eta_history,
        environment=RunManifest.describe_environment(),
    )
