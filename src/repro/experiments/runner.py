"""Shared experiment harness: dataset, detector, evaluator, scales.

Every figure experiment runs on the same stack:

1. a synthetic Bonn-like corpus resampled to the front-end rate
   ``f_sample = 2.1 * 256 Hz`` and truncated to a whole number of CS
   frames;
2. the deterministic spectral-comb seizure detector calibrated once on an
   *independent* clean corpus (the accuracy oracle standing in for the CNN
   of ref. [20] -- see :mod:`repro.detection.spectral` for the rationale);
3. a :class:`~repro.core.explorer.FrontEndEvaluator` scoring design points.

Because full paper scale (500 records x 23.6 s x ~100 grid points) takes
hours in pure Python, the harness exposes named :class:`ExperimentScale`
presets.  ``smoke`` checks code paths in seconds; ``small`` (the default
for benchmark reporting) resolves accuracy to <1 % in minutes; ``paper``
is the faithful full-size run.  Select one globally with the
``REPRO_SCALE`` environment variable.

Harnesses and full Fig. 7 sweeps are cached per scale so the Fig. 7/8/9/10
benchmarks share a single exploration.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.adaptive import AdaptiveExplorationResult
from repro.core.explorer import DesignSpaceExplorer, FrontEndEvaluator
from repro.core.pareto import Objective
from repro.core.results import Evaluation, ExplorationResult
from repro.core.resources import resources_section
from repro.core.telemetry import Telemetry, RunManifest
from repro.cs.dictionaries import dct_basis
from repro.cs.reconstruction import Reconstructor
from repro.kernels import registry as kernel_registry
from repro.detection.spectral import SpectralCombDetector
from repro.eeg.preprocessing import resample_dataset
from repro.eeg.synthetic import make_bonn_like_dataset
from repro.experiments.table3 import CS_N_PHI, paper_search_space
from repro.power.technology import DesignPoint
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


@lru_cache(maxsize=8)
def _dct_basis_cached(n_phi: int) -> np.ndarray:
    return dct_basis(n_phi)


@dataclass(frozen=True)
class FistaReconstructorFactory:
    """Picklable reconstructor factory of the experiment harness.

    A module-level frozen dataclass (not a closure) so the evaluator can
    cross process boundaries in parallel sweeps; exposes a content
    ``fingerprint`` for the on-disk evaluation cache.
    """

    n_iter: int
    n_phi: int = CS_N_PHI
    lam_rel: float = 0.002

    def __call__(self, point: DesignPoint) -> Reconstructor:
        return Reconstructor(
            basis=_dct_basis_cached(self.n_phi),
            method="fista",
            lam_rel=self.lam_rel,
            n_iter=self.n_iter,
        )

    def fingerprint(self) -> str:
        return f"fista:dct{self.n_phi}:lam{self.lam_rel}:iters{self.n_iter}"


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
    # The accuracy oracle: the deterministic spectral-comb detector,
    # calibrated once on the clean training corpus (see
    # repro.detection.spectral for why this oracle -- rather than a small
    # learned network -- drives the sweeps).
    detector = SpectralCombDetector(sample_rate=F_SAMPLE)
    detector.fit(train_records, train_labels)

    reconstructor_factory = FistaReconstructorFactory(n_iter=scale.fista_iters)

    evaluator = FrontEndEvaluator(
        records=eval_records,
        labels=eval_labels,
        sample_rate=F_SAMPLE,
        detector=detector,
        seed=derive_seed(scale.seed, "evaluator"),
        reconstructor_factory=reconstructor_factory,
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


def _run_sweep(
    scale_name: str,
    executor: str,
    n_workers: int | None,
    checkpoint: str | None,
    cache_dir: str | None,
    progress: Callable[[int, Evaluation], None] | None = None,
    telemetry: Telemetry | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    fleet=None,
) -> ExplorationResult:
    harness = make_harness(scale_name)
    explorer = DesignSpaceExplorer(harness.evaluator)
    return explorer.explore(
        search_space_for(harness.scale),
        name=f"fig7-{scale_name}",
        executor=executor,
        n_workers=n_workers,
        checkpoint=checkpoint,
        cache=cache_dir,
        progress=progress,
        telemetry=telemetry,
        timeout_s=timeout_s,
        retries=retries,
        fleet=fleet,
    )


@lru_cache(maxsize=8)
def _sweep_cached(
    scale_name: str,
    executor: str,
    n_workers: int | None,
    checkpoint: str | None,
    cache_dir: str | None,
    timeout_s: float | None = None,
    retries: int = 0,
) -> ExplorationResult:
    return _run_sweep(
        scale_name,
        executor,
        n_workers,
        checkpoint,
        cache_dir,
        timeout_s=timeout_s,
        retries=retries,
    )


def run_search_space(
    scale: str | ExperimentScale | None = None,
    *,
    executor: str | None = None,
    n_workers: int | None = None,
    checkpoint: str | None = None,
    cache_dir: str | None = None,
    progress: Callable[[int, Evaluation], None] | None = None,
    telemetry: Telemetry | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    fleet=None,
) -> ExplorationResult:
    """The Fig. 7 search-space sweep (cached per scale; Figs. 8-10 reuse it).

    ``n_workers`` defaults to ``REPRO_WORKERS`` (serial when unset);
    ``executor`` defaults to ``"process"`` whenever more than one worker
    is requested.  Parallel runs are bit-identical to serial ones, so the
    in-process per-scale cache stays valid across backends.  ``checkpoint``
    (JSONL resume) and ``cache_dir`` (on-disk evaluation cache) are passed
    through to :meth:`DesignSpaceExplorer.explore`, as are ``progress``
    (live per-point callback) and ``telemetry`` (sweep statistics sink) --
    runs observed through either bypass the in-process memo so the
    observers actually fire.  ``timeout_s``/``retries`` harden the run
    (per-point wall-clock ceiling, bounded retry of transient failures).
    ``fleet`` (:class:`repro.fleet.FleetOptions`, or executor="fleet")
    distributes the sweep over lease-based worker processes; fleet runs
    always bypass the memo -- their per-run report (and any chaos plans)
    is per-run state.
    """
    if scale is None:
        scale = active_scale()
    name = scale if isinstance(scale, str) else scale.name
    if n_workers is None:
        n_workers = default_workers()
    if executor is None:
        executor = "fleet" if fleet is not None else (
            "process" if (n_workers or 1) > 1 else "serial"
        )
    if progress is not None or telemetry is not None or executor == "fleet":
        return _run_sweep(
            name,
            executor,
            n_workers,
            checkpoint,
            cache_dir,
            progress,
            telemetry,
            timeout_s=timeout_s,
            retries=retries,
            fleet=fleet,
        )
    return _sweep_cached(
        name, executor, n_workers, checkpoint, cache_dir, timeout_s, retries
    )


#: Survivor-selection objectives of adaptive experiment runs: the Fig. 7
#: trade-off axes.  Accuracy is deliberately included alongside SNR so the
#: fig7b front survives promotion too.
ADAPTIVE_OBJECTIVES = (
    Objective("power_uw", maximize=False),
    Objective("snr_db", maximize=True),
    Objective("accuracy", maximize=True),
)


def _architecture_of(evaluation: Evaluation) -> bool:
    """Survivor-selection grouping key: baseline vs CS (Fig. 7's curves)."""
    return evaluation.point.use_cs


def run_adaptive_search_space(
    scale: str | ExperimentScale | None = None,
    *,
    rungs: int = 3,
    keep_frac: float = 1 / 3,
    executor: str | None = None,
    n_workers: int | None = None,
    checkpoint: str | None = None,
    cache_dir: str | None = None,
    progress: Callable[[int, Evaluation], None] | None = None,
    telemetry: Telemetry | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
) -> AdaptiveExplorationResult:
    """The Fig. 7 search space explored adaptively (successive halving).

    Same harness and Table III grid as :func:`run_search_space`, but only
    rung survivors reach the full-fidelity evaluator -- see
    :mod:`repro.core.adaptive`.  Survivor selection uses the Fig. 7
    trade-off axes (:data:`ADAPTIVE_OBJECTIVES`) and is grouped by
    architecture so both the baseline and the CS fronts survive promotion.
    ``executor`` defaults as in :func:`run_search_space`: ``"process"``
    when more than one worker is requested, else ``"serial"``.
    Not memoised: the promotion ledger is per-run state callers typically
    want fresh (the per-scale exhaustive cache in :func:`run_search_space`
    exists because Figs. 8-10 share one sweep).
    """
    if scale is None:
        scale = active_scale()
    name = scale if isinstance(scale, str) else scale.name
    if n_workers is None:
        n_workers = default_workers()
    harness = make_harness(name)
    explorer = DesignSpaceExplorer(harness.evaluator)
    return explorer.explore_adaptive(
        search_space_for(harness.scale),
        name=f"fig7-adaptive-{name}",
        objectives=ADAPTIVE_OBJECTIVES,
        rungs=rungs,
        keep_frac=keep_frac,
        group_by=_architecture_of,
        executor=executor,
        n_workers=n_workers,
        checkpoint=checkpoint,
        cache=cache_dir,
        progress=progress,
        telemetry=telemetry,
        timeout_s=timeout_s,
        retries=retries,
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
    adaptive: dict | None = None,
) -> RunManifest:
    """Assemble the :class:`RunManifest` of one profiled sweep.

    Combines the sweep result (per-block *power* breakdown of the optimum,
    failure counts) with the telemetry state (per-phase and per-block
    *time* breakdowns, cache/checkpoint counters, per-point latency, ETA
    history).  ``block_time_s`` holds the ``block.*`` spans every executor
    brings home; it is empty when nothing was simulated (fully cached or
    restored sweeps, evaluators without a signal chain).  ``adaptive`` is
    the promotion ledger dict
    (:meth:`~repro.core.adaptive.PromotionLedger.to_dict`) of an adaptive
    run; exhaustive sweeps leave it empty.
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
        adaptive=dict(adaptive) if adaptive else {},
        fleet=fleet_section,
        workers=snapshot["workers"],
        histograms=snapshot["histograms"],
        kernels=kernel_registry.manifest_section(),
        eta_history=eta_history,
        environment=RunManifest.describe_environment(),
    )
