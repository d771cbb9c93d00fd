"""Design-space exploration: evaluate design points over a real dataset.

Two layers:

* :class:`FrontEndEvaluator` -- evaluates ONE design point: builds the
  matching front-end chain, streams the whole (truncated, stacked) dataset
  through it, and returns quality (SNR vs clean reference, detection
  accuracy via a calibrated :class:`~repro.detection.SpectralCombDetector`)
  together with the Table II power estimate and the Fig. 9 area metric.
  Records are concatenated into one stream so the CS reconstruction runs
  as a single batched FISTA solve across all frames -- the trick that
  makes Python-scale sweeps feasible.

* :class:`DesignSpaceExplorer` -- maps an evaluator over a
  :class:`~repro.core.parameters.ParameterSpace` (or any iterable of
  design points) into an :class:`~repro.core.results.ExplorationResult`.
"""

from __future__ import annotations

import contextvars
import copy
import hashlib
import logging
import math
import os
import pickle
import time
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.execution import (
    DEFAULT_POLICY,
    EvaluationCache,
    ExecutionPolicy,
    PointEvaluationError,
    SweepCheckpoint,
    chunk_pending,
    component_fingerprint,
    evaluate_chunk_with,
    evaluate_one_timed,
    evaluator_fingerprint,
    resolve_executor,
)
from repro.core.resources import ResourceSampler
from repro.core.telemetry import Telemetry, activate, get_active
from repro.core.parameters import CompositeSpace, ParameterSpace
from repro.core.results import Evaluation, ExplorationResult
from repro.core.signal import Signal
from repro.core.simulator import Simulator
from repro.cs.reconstruction import FistaReconstructorFactory, Reconstructor
from repro.detection.spectral import (
    SpectralCombDetector,
    hard_accuracy,
    mean_correct_probability,
)
from repro.metrics.snr import snr_vs_reference
from repro.power.area import chain_area
from repro.power.technology import DesignPoint
from repro.util.constants import MICRO
from repro.util.rng import derive_seed
from repro.util.validation import check_positive

log = logging.getLogger("repro.explorer")


def _check_rate(records_rate: float, other_rate: float, what: str, remedy: str) -> None:
    """Reject ``other_rate`` unless it is within 2 % of ``records_rate``.

    The tolerance is symmetric (relative to the larger rate, as in
    :func:`math.isclose`): dividing by only one of the two rates would
    accept/reject asymmetrically around the nominal rate.
    """
    if not math.isclose(records_rate, other_rate, rel_tol=0.02):
        raise ValueError(
            f"records are at {records_rate} Hz but {what} at {other_rate} Hz; {remedy}"
        )


class FrontEndEvaluator:
    """Evaluates design points against a fixed labelled signal corpus.

    Parameters
    ----------
    records:
        Clean sensor-referred records, shape (n_records, n_samples), in
        volts, at ``sample_rate``.  ``n_samples`` should be a multiple of
        the CS frame length in the space being explored, so both
        architectures process identical record lengths.
    labels:
        0/1 seizure labels, or ``None`` when only SNR goals are evaluated.
    sample_rate:
        Record rate, Hz.  Must equal the design points' ``f_sample`` for
        the functional simulation and the power models to describe the
        same system (a tolerance check enforces this).
    detector:
        Detector calibrated at ``sample_rate`` (the same 2 % tolerance
        applies); ``None`` skips accuracy.
    seed:
        Master seed: mismatch realisations and noise streams derive from
        it per design point, so the sweep is reproducible point-by-point.
    reconstructor_factory:
        ``f(point) -> Reconstructor`` building each CS point's receiver;
        default :class:`~repro.cs.reconstruction.FistaReconstructorFactory`
        (batched FISTA on a DCT basis sized from the point's ``cs_n_phi``).
    chain_transform:
        Optional ``f(chain, point, point_seed) -> chain`` applied to the
        freshly built chain before simulation -- the hook the fault-
        injection layer (:class:`repro.faults.FaultSuite`) uses to wrap
        blocks with non-idealities without the evaluator knowing about
        faults.  Must be picklable for process sweeps, and should expose
        ``fingerprint()`` (or a stable ``describe()``) so transformed and
        clean evaluations never share a cache key.
    """

    def __init__(
        self,
        records: np.ndarray,
        labels: np.ndarray | None,
        sample_rate: float,
        detector: SpectralCombDetector | None = None,
        seed: int = 0,
        reconstructor_factory: Callable[[DesignPoint], Reconstructor] | None = None,
        chain_transform: Callable[..., object] | None = None,
    ):
        self.records = np.asarray(records, dtype=np.float64)
        if self.records.ndim != 2:
            raise ValueError(f"records must be (n_records, n_samples), got {self.records.shape}")
        self.labels = None if labels is None else np.asarray(labels, dtype=int)
        if self.labels is not None and self.labels.size != self.records.shape[0]:
            raise ValueError(
                f"{self.labels.size} labels for {self.records.shape[0]} records"
            )
        self.sample_rate = check_positive("sample_rate", sample_rate)
        self.detector = detector
        if detector is not None:
            if not detector.is_fitted:
                raise ValueError("detector must be fitted before exploration")
            _check_rate(
                self.sample_rate,
                detector.sample_rate,
                "the detector is calibrated",
                "recalibrate it on records at the corpus rate",
            )
        self.seed = int(seed)
        self.reconstructor_factory = reconstructor_factory or FistaReconstructorFactory()
        self.chain_transform = chain_transform

    def with_chain_transform(
        self, chain_transform: Callable[..., object] | None
    ) -> "FrontEndEvaluator":
        """Shallow clone evaluating through ``chain_transform``.

        The corpus/labels/detector are shared (they are read-only during
        evaluation), so cloning per fault configuration is cheap -- the
        Monte-Carlo yield runner creates one clone per (severity,
        realisation) cell.
        """
        clone = copy.copy(self)
        clone.chain_transform = chain_transform
        return clone

    def fingerprint(self) -> str:
        """Content identity for the on-disk evaluation cache.

        Hashes everything the evaluation outcome depends on besides the
        design point itself: corpus, labels, rate, master seed, detector
        state and the reconstructor configuration.  Custom reconstructor
        factories should expose their own ``fingerprint()``; otherwise
        their qualified name stands in (correct only when the factory is
        stateless).
        """
        import repro

        digest = hashlib.sha256()
        # Version-stamp the key: a model change that bumps the package
        # version invalidates cached evaluations.
        digest.update(f"repro={getattr(repro, '__version__', '?')}".encode())
        digest.update(self.records.tobytes())
        digest.update(repr(self.records.shape).encode())
        if self.labels is not None:
            digest.update(self.labels.tobytes())
        digest.update(f"rate={self.sample_rate!r}:seed={self.seed}".encode())
        if self.detector is not None:
            digest.update(pickle.dumps(self.detector))
        digest.update(component_fingerprint(self.reconstructor_factory).encode())
        if self.chain_transform is not None:
            transform_tag = component_fingerprint(self.chain_transform)
            digest.update(f"chain_transform={transform_tag}".encode())
        return digest.hexdigest()

    # --- single-point evaluation ---------------------------------------------

    def build_point_chain(self, point: DesignPoint):
        """Validate ``point`` against the corpus and build its chain.

        Returns ``(chain, run_seed)``: the fully configured (and, when a
        ``chain_transform`` is set, transformed) block chain plus the seed
        the simulation run must use.  :meth:`evaluate` simulates it over
        :meth:`source_signal`.
        """
        # Imported here: repro.blocks imports repro.core (Block base class),
        # so a module-level import would be circular.
        from repro.blocks.chains import (
            build_baseline_chain,
            build_cs_chain,
            build_digital_cs_chain,
        )

        _check_rate(
            self.sample_rate,
            point.f_sample,
            "the design point samples",
            "resample the corpus to f_sample",
        )
        n_samples = self.records.shape[1]
        point_seed = derive_seed(self.seed, point.describe())
        if point.use_cs:
            if n_samples % point.cs_n_phi:
                raise ValueError(
                    f"record length {n_samples} is not a multiple of N_phi="
                    f"{point.cs_n_phi}"
                )
            builder = (
                build_digital_cs_chain
                if point.cs_architecture == "digital"
                else build_cs_chain
            )
            chain = builder(
                point,
                reconstructor=self.reconstructor_factory(point),
                seed=point_seed,
            )
        else:
            chain = build_baseline_chain(point, seed=point_seed)
        if self.chain_transform is not None:
            chain = self.chain_transform(chain, point, point_seed)
        return chain, derive_seed(point_seed, "run")

    def source_signal(self) -> Signal:
        """The whole corpus concatenated into one simulation stream."""
        return Signal(self.records.reshape(-1), sample_rate=self.sample_rate)

    def score_output(self, point: DesignPoint, output_signal: Signal, power) -> Evaluation:
        """Score one simulated output stream against the clean corpus.

        ``power`` is the chain's :class:`~repro.power.models.PowerReport`.
        Every executor reaches it through :meth:`evaluate`, so the metric
        computation is the same wherever a point runs.
        """
        n_records = self.records.shape[0]
        output = np.asarray(output_signal.data).reshape(n_records, -1)
        reference = self.records[:, : output.shape[1]]

        snrs = [snr_vs_reference(ref, out) for ref, out in zip(reference, output)]
        metrics: dict[str, float] = {
            "snr_db": float(np.mean(snrs)),
            "power_w": power.total,
            "power_uw": power.total / MICRO,
            "area_units": chain_area(point).units,
        }
        if self.detector is not None and self.labels is not None:
            # "accuracy" is the mean correct-class probability: a continuous,
            # low-variance estimator of population accuracy.  Hard accuracy
            # over R records is quantised at 1/R, which masks the sub-percent
            # differences the paper resolves with 500 records; the soft
            # estimate restores that resolution at reduced scale.  One
            # feature pass scores both accuracies.
            probabilities = self.detector.predict_proba(output)
            metrics["accuracy_hard"] = hard_accuracy(probabilities, self.labels)
            metrics["accuracy"] = mean_correct_probability(probabilities, self.labels)
        return Evaluation(point=point, metrics=metrics, breakdown=dict(power.blocks))

    def evaluate(self, point: DesignPoint) -> Evaluation:
        """Simulate one design point over the corpus and score it."""
        chain, run_seed = self.build_point_chain(point)
        result = Simulator(chain, point, seed=run_seed).run(
            self.source_signal(), record_taps=False
        )
        return self.score_output(point, result.output, result.power)

    __call__ = evaluate


class DesignSpaceExplorer:
    """Sweeps an evaluator over a design space.

    ``evaluator`` is any callable mapping a DesignPoint to an
    :class:`Evaluation` -- usually a :class:`FrontEndEvaluator`, but tests
    plug in closed-form evaluators to exercise the exploration logic in
    isolation.  Worker processes started by spawn or forkserver need a
    picklable evaluator (:class:`FrontEndEvaluator` qualifies).
    """

    def __init__(self, evaluator: Callable[[DesignPoint], Evaluation]):
        self.evaluator = evaluator
        #: :class:`~repro.fleet.FleetReport` of the most recent process
        #: sweep (``None`` before one runs).
        self.last_fleet_report = None

    def explore(
        self,
        space: ParameterSpace | CompositeSpace | Iterable[DesignPoint],
        base: DesignPoint | None = None,
        name: str = "sweep",
        progress: Callable[[int, Evaluation], None] | None = None,
        *,
        executor: str | None = None,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        cache: EvaluationCache | str | Path | None = None,
        checkpoint: str | Path | None = None,
        strict: bool = False,
        telemetry: Telemetry | None = None,
        policy: ExecutionPolicy = DEFAULT_POLICY,
        fleet=None,
    ) -> ExplorationResult:
        """Evaluate every point of ``space``.

        Parameters
        ----------
        progress:
            ``progress(index, evaluation)`` is invoked once per completed
            point (used by the example scripts for live logging).  Under a
            parallel executor the invocation order follows *completion*
            order; the returned result is always in grid order.
        executor:
            ``"serial"``, ``"thread"`` or ``"process"``; ``None`` (default)
            picks ``"process"`` when ``fleet`` is given or ``n_workers > 1``
            and ``"serial"`` otherwise
            (:func:`~repro.core.execution.resolve_executor`).  Seeds derive
            from the master seed and the point description, never from
            evaluation order, so every executor returns bit-identical
            results.  ``"process"`` runs a fleet: chunks are leased to
            worker processes over the TCP protocol of :mod:`repro.fleet`,
            surviving killed workers, silent leases and socket partitions.
        n_workers:
            Worker count for parallel executors (default ``os.cpu_count()``,
            at most one per pending point).
        chunk_size:
            Points per dispatch chunk (default targets ~4 chunks/worker).
        cache:
            :class:`EvaluationCache` or a directory path.  Points whose
            ``(evaluator fingerprint, description)`` key is already on
            disk are not re-evaluated.
        checkpoint:
            JSONL path.  Every completed evaluation is appended; re-running
            with the same path resumes the sweep after an interruption
            without re-evaluating completed points.  Lines of another
            grid or evaluator fingerprint are not restored.
        strict:
            When ``False`` (default) a raising design point is recorded as
            a failed :class:`Evaluation` (``error`` set, empty metrics)
            instead of killing the sweep; ``True`` raises
            :class:`~repro.core.execution.PointEvaluationError` naming the
            first failed (or quarantined) point, before the checkpoint or
            cache sees it.  A raising ``progress`` callback is isolated the same way
            (logged and skipped) so a broken logger cannot kill a sweep
            or poison the parallel completion loop.
        telemetry:
            :class:`~repro.core.telemetry.Telemetry` sink for sweep
            statistics (per-point latency, cache hits/misses, checkpoint
            restores, failures) and live ``explore.progress`` events with
            ETA, activated as the ambient sink for the call.  Defaults
            to the ambient sink
            (:func:`repro.core.telemetry.get_active`), which is a no-op
            unless one was activated.  Progress events follow *completion*
            order under parallel executors; aggregation (the returned
            result, latency stats) is always in grid order.
        policy:
            :class:`~repro.core.execution.ExecutionPolicy` applied to every
            point: a wall-clock timeout (a timed-out point becomes a
            failed :class:`Evaluation` when non-strict, so a hung
            reconstruction cannot stall the sweep) and bounded retry with
            exponential backoff of *failing* (not timed-out) points.
        fleet:
            :class:`~repro.fleet.FleetOptions` of the ``"process"``
            executor (endpoint, spawned local workers, lease timeout,
            chaos plans).  Without it the fleet is an ephemeral loopback
            port with ``n_workers`` forked worker processes (at most one
            per pending point).  The run's
            :class:`~repro.fleet.FleetReport` lands in
            :attr:`last_fleet_report`, in the ``fleet.report``
            telemetry event, and (via the runner) in the manifest's
            ``fleet`` section.

        Hardened semantics (non-strict):

        * A worker process killed mid-sweep (OOM, segfault) loses its
          lease; the chunk is requeued and the worker replaced.  A chunk
          that keeps losing workers is split into single points, and a
          point that still kills its worker is quarantined as a failed
          evaluation (``error`` starting with ``PoisonChunk``) while
          every other point completes; :attr:`last_fleet_report` counts
          both.
        * ``KeyboardInterrupt`` stops dispatch, fills the unevaluated
          slots with failed evaluations (``error`` starting with
          ``"Interrupted"``) *without* checkpointing them -- so a resumed
          run retries them -- and returns the partial result.
        """
        executor = resolve_executor(executor, n_workers, fleet)
        if isinstance(space, (ParameterSpace, CompositeSpace)):
            points = list(space.grid(base))
        else:
            points = list(space)
        if not points:
            raise ValueError("design space produced no points to evaluate")

        cache_store: EvaluationCache | None
        if cache is None or isinstance(cache, EvaluationCache):
            cache_store = cache
        else:
            cache_store = EvaluationCache(cache)
        # Cache and checkpoint both key evaluations by evaluator identity.
        fingerprint = (
            evaluator_fingerprint(self.evaluator)
            if cache_store is not None or checkpoint is not None
            else ""
        )

        ckpt = SweepCheckpoint(checkpoint, fingerprint) if checkpoint is not None else None
        restored: dict[int, Evaluation] = {}
        if ckpt is not None:
            # Take the writer lock before loading: a doomed concurrent
            # sweep sharing the checkpoint path fails here, before any
            # evaluation work is spent.
            ckpt.acquire()
            restored = ckpt.load(dict(enumerate(points)))

        tel = telemetry if telemetry is not None else get_active()
        total = len(points)
        start_time = time.perf_counter()
        completed = 0

        results: list[Evaluation | None] = [None] * total
        pending: list[tuple[int, DesignPoint]] = []

        def finalize(
            index: int,
            evaluation: Evaluation,
            record: bool = True,
            elapsed: float | None = None,
            stats: dict | None = None,
        ) -> None:
            nonlocal completed
            results[index] = evaluation
            completed += 1
            if record and ckpt is not None:
                ckpt.append(index, evaluation)
            if record and cache_store is not None:
                cache_store.put(fingerprint, points[index], evaluation)
            if tel.enabled:
                if elapsed is not None:
                    tel.observe("explore.point_seconds", elapsed)
                if stats:
                    if stats.get("retries"):
                        tel.count("explore.retries", stats["retries"])
                    if stats.get("timeouts"):
                        tel.count("explore.timeouts", stats["timeouts"])
                if evaluation.error is not None:
                    tel.count("explore.failures")
                run_elapsed = time.perf_counter() - start_time
                rate = completed / run_elapsed if run_elapsed > 0 else 0.0
                tel.event(
                    "explore.progress",
                    done=completed,
                    total=total,
                    elapsed_s=run_elapsed,
                    eta_s=(total - completed) / rate if rate > 0 else None,
                )
            if progress is not None:
                # The callback is user code observing the sweep; isolate
                # its failures like point failures, otherwise one raising
                # logger kills an hours-long (possibly parallel) sweep.
                try:
                    progress(index, evaluation)
                except Exception as error:
                    if strict:
                        raise
                    tel.count("explore.progress_errors")
                    log.warning(
                        "progress callback raised for point %d (%s): %s",
                        index,
                        evaluation.point.describe(),
                        error,
                        exc_info=True,
                    )

        # Sample driver RSS/CPU/threads for the sweep's duration so the
        # manifest's `resources` section covers the coordinating process
        # (fleet workers run their own samplers).
        sampler = ResourceSampler(tel, label="driver") if tel.enabled else None
        try:
            if sampler is not None:
                sampler.start()
            # Install `tel` as the ambient sink for the sweep's duration:
            # the serial path then feeds the simulator/solver
            # instrumentation (block spans, FISTA iteration stats) into the
            # same sink the sweep reports to, which is what makes the
            # exported trace hierarchical.
            with activate(tel), tel.span("explore.total"):
                tel.count("explore.sweeps")
                mirrored: list[tuple[int, Evaluation]] = []
                for index, point in enumerate(points):
                    evaluation = restored.get(index)
                    if evaluation is not None:
                        tel.count("explore.checkpoint_restored")
                        tel.instant("checkpoint.restored", index=index)
                        finalize(index, evaluation, record=False)
                        continue
                    if cache_store is not None:
                        evaluation = cache_store.get(fingerprint, point)
                        if evaluation is not None:
                            tel.count("explore.cache_hits")
                            tel.instant("cache.hit", index=index)
                            # Mirror the hit into the checkpoint so resume
                            # stays complete even without the cache
                            # directory; batched below into ONE durable
                            # write instead of one fsync per hit.
                            if ckpt is not None:
                                mirrored.append((index, evaluation))
                            finalize(index, evaluation, record=False)
                            continue
                        tel.count("explore.cache_misses")
                    pending.append((index, point))
                if mirrored and ckpt is not None:
                    ckpt.append_many(mirrored)

                try:
                    if pending and executor == "serial":
                        for index, point in pending:
                            with tel.span("explore.point", index=index):
                                evaluation, elapsed, stats = evaluate_one_timed(
                                    self.evaluator, point, strict, policy
                                )
                            finalize(index, evaluation, elapsed=elapsed, stats=stats)
                    elif pending and executor == "thread":
                        self._run_threads(
                            pending, n_workers, chunk_size, strict, policy, finalize
                        )
                    elif pending:
                        self._run_fleet(
                            pending, n_workers, chunk_size, strict, policy, finalize, fleet
                        )
                except KeyboardInterrupt:
                    if strict:
                        raise
                    tel.count("explore.interrupted")
                    log.warning(
                        "sweep interrupted after %d/%d points; returning partial "
                        "results (unevaluated points are marked failed and are "
                        "NOT checkpointed, so a resumed run retries them)",
                        completed,
                        total,
                    )
                    for index, point in enumerate(points):
                        if results[index] is None:
                            # Deliberately bypasses finalize: an interrupted
                            # placeholder must reach neither the checkpoint
                            # nor the cache.
                            results[index] = Evaluation(
                                point=point,
                                metrics={},
                                error="Interrupted: sweep stopped before this "
                                "point was evaluated",
                            )
        finally:
            if sampler is not None:
                sampler.stop()
            if ckpt is not None:
                ckpt.close()
        return ExplorationResult(results, name=name)

    def _run_threads(
        self,
        pending: list[tuple[int, DesignPoint]],
        n_workers: int | None,
        chunk_size: int | None,
        strict: bool,
        policy: ExecutionPolicy,
        finalize: Callable[..., None],
    ) -> None:
        """Fan ``pending`` out over a thread pool, finalising in completion order."""
        workers = n_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(pending)))
        chunks = chunk_pending(pending, workers, chunk_size)
        # Each chunk runs in a copy of the sweep's context, so the pool
        # threads report to the sweep's ambient telemetry (it is
        # thread-safe); their spans land in per-thread trace lanes.
        pool = ThreadPoolExecutor(max_workers=workers)
        task = partial(evaluate_chunk_with, self.evaluator, strict, policy=policy)
        with pool:
            futures = {pool.submit(contextvars.copy_context().run, task, c) for c in chunks}
            try:
                while futures:
                    done, futures = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        for index, evaluation, elapsed, stats in future.result():
                            finalize(index, evaluation, elapsed=elapsed, stats=stats)
            except BaseException:
                for future in futures:
                    future.cancel()
                raise

    def _run_fleet(
        self,
        pending: list[tuple[int, DesignPoint]],
        n_workers: int | None,
        chunk_size: int | None,
        strict: bool,
        policy: ExecutionPolicy,
        finalize: Callable[..., None],
        options,
    ) -> None:
        """Lease ``pending`` to a worker fleet (the ``"process"`` executor).

        The coordinator binds an ephemeral (or configured) TCP port,
        optionally forks local worker processes against it, and blocks
        until every point is finalised -- completed by some worker, or
        quarantined by the requeue ladder as a poison point.  Workers
        that die, go silent or partition mid-lease are recovered by the
        coordinator (see :mod:`repro.fleet.coordinator`), and a local
        worker that exits while points remain is replaced under a fresh
        label.  The finalize hook runs on the driver exactly once per
        point, so checkpoint, cache and progress semantics match every
        other executor.  Workers evaluate non-strict; under ``strict``
        the first failed evaluation raises here instead.
        """
        # Imported lazily: the fleet layer depends on execution/telemetry
        # and nothing in the core import graph may depend on it.
        from repro import fleet as fleet_mod

        if options is None:
            workers = max(1, min(n_workers or os.cpu_count() or 1, len(pending)))
            options = fleet_mod.FleetOptions(spawn_workers=workers)
        hint = options.spawn_workers or n_workers or 4

        def fleet_finalize(index, evaluation, elapsed_s, stats):
            if strict and evaluation.error is not None:
                raise PointEvaluationError(evaluation.point.describe(), evaluation.error)
            # A worker cache hit reports 0.0s; keep it out of the
            # latency stats like driver-side hits are.
            finalize(
                index,
                evaluation,
                elapsed=elapsed_s if elapsed_s > 0 else None,
                stats=stats,
            )

        coordinator = fleet_mod.FleetCoordinator(
            evaluator_fingerprint(self.evaluator),
            host=options.host,
            port=options.port,
            spec=options.spec,
            lease_timeout_s=options.lease_timeout_s,
            heartbeat_interval_s=options.heartbeat_interval_s,
            max_requeues=options.max_requeues,
            wait_for_workers=options.wait_for_workers,
            policy=policy,
        )
        host, port = coordinator.endpoint
        log.info("fleet coordinator listening on %s:%d", host, port)
        processes: list = []
        # The requeue -> split -> quarantine ladder absorbs at most
        # max_requeues + 2 deaths per point; workers that keep exiting
        # past that (at start-up, say) would be replaced forever.
        max_respawns = (options.max_requeues + 2) * len(pending)
        respawns = 0

        def replace_exited_workers() -> None:
            nonlocal respawns
            for slot, process in enumerate(processes):
                if process.is_alive():
                    continue
                if respawns >= max_respawns:
                    raise RuntimeError(
                        f"local fleet workers kept exiting: {respawns} replaced "
                        f"for {len(pending)} points, the most the requeue "
                        "ladder can use; see the workers' log output"
                    )
                respawns += 1
                label_number = options.spawn_workers + respawns - 1
                log.warning(
                    "fleet worker %s exited (code %s); starting worker-%d",
                    process.name,
                    process.exitcode,
                    label_number,
                )
                processes[slot] = fleet_mod.spawn_local_workers(
                    1,
                    coordinator.endpoint,
                    evaluator=self.evaluator,
                    cache_dir=options.worker_cache_dir,
                    first=label_number,
                )[0]

        try:
            if options.spawn_workers:
                processes = fleet_mod.spawn_local_workers(
                    options.spawn_workers,
                    coordinator.endpoint,
                    evaluator=self.evaluator,
                    cache_dir=options.worker_cache_dir,
                    plans=tuple(options.chaos_plans),
                )
            self.last_fleet_report = coordinator.run(
                pending,
                fleet_finalize,
                n_workers=hint,
                chunk_size=chunk_size,
                interrupt_after_points=options.interrupt_after_points,
                supervise=replace_exited_workers,
            )
            for process in processes:
                process.join(timeout=10.0)
        finally:
            coordinator.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
