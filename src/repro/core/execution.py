"""Sweep execution infrastructure: caching, checkpointing, point isolation.

The design-space sweep is the framework's hot path (hundreds of points,
each a full-corpus simulation), so :meth:`DesignSpaceExplorer.explore`
layers these mechanisms on top of the bare evaluation loop:

* **Parallel dispatch** -- design points fan out in index-tagged chunks,
  over a thread pool (:func:`evaluate_chunk_with`) or, for
  ``executor="process"`` and ``"fleet"``, as leases to worker processes
  (:mod:`repro.fleet`, whose requeue -> split -> quarantine ladder is
  the sweep's crash recovery).  Results reassemble in grid order, so the
  returned :class:`~repro.core.results.ExplorationResult` is bit-identical
  to a serial sweep regardless of completion order.  Per-point seeds are
  derived from the master seed and the point description (never from the
  evaluation order), which is what makes the reordering safe.
* **On-disk caching** (:class:`EvaluationCache`) -- evaluations persist
  keyed by ``(evaluator fingerprint, point description)``; re-running an
  experiment skips every already-evaluated point.
* **JSONL checkpointing** (:class:`SweepCheckpoint`) -- each completed
  evaluation is appended as one JSON line; a re-run with the same
  checkpoint path resumes mid-sweep after an interruption.  A lock-file
  guard makes two concurrent sweeps sharing a checkpoint path fail fast
  instead of interleaving appends into corrupt JSONL.
* **Hardened evaluation** (:class:`ExecutionPolicy`) -- per-point
  wall-clock timeouts (a hung solve becomes a failed
  :class:`Evaluation`, not a stalled sweep) and bounded retry with
  exponential backoff for transient failures.

Worker processes receive the evaluator once, when they start, not per
chunk, so the corpus array crosses the process boundary a single time
per worker.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core import flight
from repro.core.results import Evaluation
from repro.core.serialization import evaluation_from_dict, evaluation_to_dict
from repro.core.telemetry import Telemetry, get_active
from repro.power.technology import DesignPoint
from repro.util.fsio import atomic_write_text
from repro.util.rng import derive_seed

try:  # POSIX advisory locking; the fallback covers other platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

log = logging.getLogger("repro.execution")

#: Valid values of ``DesignSpaceExplorer.explore(executor=...)``.
EXECUTORS = ("serial", "process", "thread", "fleet")


class EvaluationTimeout(TimeoutError):
    """A design-point evaluation exceeded its wall-clock budget."""


class PointEvaluationError(RuntimeError):
    """Strict-mode failure wrapper that names the offending design point.

    Parallel chunks surface exceptions at chunk granularity; without this
    wrapper a strict sweep's traceback gives no indication of *which*
    design point failed.  The message embeds ``point.describe()`` and the
    original error text, and the instance pickles across processes.
    """

    def __init__(self, point_description: str, message: str):
        super().__init__(f"design point {point_description}: {message}")
        self.point_description = point_description
        self.message = message

    def __reduce__(self):
        return (type(self), (self.point_description, self.message))


class CheckpointLockedError(RuntimeError):
    """A second sweep tried to append to an already-locked checkpoint."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs applied to every point evaluation.

    Parameters
    ----------
    timeout_s:
        Per-point wall-clock ceiling in seconds; ``None`` disables the
        watchdog.  The evaluation runs on a daemon watchdog thread, so a
        timed-out solve is *abandoned* (its thread keeps running until the
        worker process exits) rather than interrupted -- the standard
        pure-Python trade-off; pick a ceiling well above the honest
        per-point latency.
    retries:
        Extra attempts after a failed evaluation (0 = fail immediately).
        Evaluations are deterministic given their seed, so retries pay off
        only for *transient* failures (OOM kills, flaky I/O in custom
        evaluators), which is exactly what they are bounded for.
    retry_backoff_s:
        Base of the exponential backoff between attempts: attempt ``k``
        sleeps up to ``retry_backoff_s * 2**(k-1)`` seconds.  0 disables
        the sleep (used by tests).
    retry_timeouts:
        Whether a timed-out evaluation is retried.  Off by default: each
        abandoned attempt leaks a watchdog thread, and a deterministic
        hang would leak ``retries + 1`` of them.
    retry_jitter:
        Apply seeded *full jitter* to the backoff: attempt ``k`` sleeps
        ``uniform(0, retry_backoff_s * 2**(k-1))`` seconds, with the
        uniform draw seeded from the point description and attempt
        number (:func:`repro.util.rng.derive_seed`), so a fleet of
        workers retrying after a shared transient fault spreads its
        retries instead of stampeding in lockstep -- while any single
        point's backoff schedule stays reproducible.  On by default;
        irrelevant when ``retry_backoff_s`` is 0, so the deterministic
        0-backoff test path is unchanged.
    """

    timeout_s: float | None = None
    retries: int = 0
    retry_backoff_s: float = 0.5
    retry_timeouts: bool = False
    retry_jitter: bool = True

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0 or None, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )


#: The do-nothing policy: no timeout, no retries (pre-hardening semantics).
DEFAULT_POLICY = ExecutionPolicy()


def retry_delay_s(
    policy: ExecutionPolicy, point: DesignPoint, attempt: int
) -> float:
    """Backoff before retry ``attempt`` (1-based) of ``point``.

    Exponential in the attempt number; with ``policy.retry_jitter`` the
    delay is a full-jitter uniform draw over ``[0, ceiling]`` seeded from
    the point description and attempt, so concurrent workers retrying
    the same transient fault decorrelate deterministically.
    """
    ceiling = policy.retry_backoff_s * 2 ** (attempt - 1)
    if ceiling <= 0:
        return 0.0
    if not policy.retry_jitter:
        return ceiling
    rng = random.Random(derive_seed(attempt, f"retry:{point.describe()}"))
    return rng.uniform(0.0, ceiling)


def _call_with_timeout(
    evaluator: Callable[[DesignPoint], Evaluation],
    point: DesignPoint,
    timeout_s: float,
) -> Evaluation:
    """Run one evaluation under a wall-clock watchdog.

    The evaluation runs on a daemon thread; if it does not finish within
    ``timeout_s`` an :class:`EvaluationTimeout` is raised and the thread
    is abandoned (daemon threads never block process exit).
    """
    outcome: list = []

    def run() -> None:
        try:
            outcome.append((True, evaluator(point)))
        except BaseException as error:  # noqa: BLE001 - relayed to the caller
            outcome.append((False, error))

    watchdog = threading.Thread(target=run, name="repro-eval-watchdog", daemon=True)
    watchdog.start()
    watchdog.join(timeout_s)
    if not outcome:
        raise EvaluationTimeout(
            f"evaluation exceeded the {timeout_s:g}s wall-clock ceiling"
        )
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


def _evaluate_with_policy(
    evaluator: Callable[[DesignPoint], Evaluation],
    point: DesignPoint,
    strict: bool,
    policy: ExecutionPolicy,
) -> tuple[Evaluation, dict]:
    """Evaluate ``point`` under ``policy``; returns (evaluation, stats).

    ``stats`` counts ``{"retries": n, "timeouts": n}`` for this point so
    the driver can aggregate them into its telemetry (worker processes
    have no ambient telemetry of their own).
    """
    stats = {"retries": 0, "timeouts": 0}
    attempt = 0
    while True:
        try:
            if policy.timeout_s is None:
                return evaluator(point), stats
            return _call_with_timeout(evaluator, point, policy.timeout_s), stats
        except EvaluationTimeout as error:
            stats["timeouts"] += 1
            # A timed-out point is exactly the moment a postmortem wants
            # the recent event trail: dump the flight-recorder ring.
            flight.record(
                "point.timeout", point=point.describe(), timeout_s=policy.timeout_s
            )
            flight.dump(
                "point-timeout",
                detail=str(error),
                point=point.describe(),
                timeout_s=policy.timeout_s,
                attempt=attempt,
            )
            failure: Exception = error
            retryable = policy.retry_timeouts
        except Exception as error:  # noqa: BLE001 - the isolation boundary
            failure = error
            retryable = True
        if retryable and attempt < policy.retries:
            attempt += 1
            stats["retries"] += 1
            if policy.retry_backoff_s > 0:
                time.sleep(retry_delay_s(policy, point, attempt))
            continue
        if strict:
            raise PointEvaluationError(
                point.describe(), f"{type(failure).__name__}: {failure}"
            ) from failure
        return (
            Evaluation(
                point=point,
                metrics={},
                error=f"{type(failure).__name__}: {failure}",
            ),
            stats,
        )


def evaluate_one(
    evaluator: Callable[[DesignPoint], Evaluation],
    point: DesignPoint,
    strict: bool,
    policy: ExecutionPolicy = DEFAULT_POLICY,
) -> Evaluation:
    """Evaluate ``point``, isolating failures unless ``strict``.

    A raising design point becomes a failed :class:`Evaluation` (empty
    metrics, ``error`` set) so one pathological grid corner cannot kill an
    hours-long sweep; ``strict=True`` restores fail-fast semantics (and
    wraps the failure in :class:`PointEvaluationError` so the traceback
    names the point).  ``policy`` adds per-point timeouts and bounded
    retry on top; the default policy is a plain single attempt.
    """
    evaluation, _ = _evaluate_with_policy(evaluator, point, strict, policy)
    return evaluation


def evaluate_one_timed(
    evaluator: Callable[[DesignPoint], Evaluation],
    point: DesignPoint,
    strict: bool,
    policy: ExecutionPolicy = DEFAULT_POLICY,
) -> tuple[Evaluation, float, dict]:
    """:func:`evaluate_one` plus wall time and retry/timeout stats.

    The timing is measured *inside* the worker so parallel sweeps report
    true per-point latency, not per-chunk completion granularity; the
    stats dict travels with the result for driver-side aggregation.
    """
    start = time.perf_counter()
    evaluation, stats = _evaluate_with_policy(evaluator, point, strict, policy)
    return evaluation, time.perf_counter() - start, stats


def point_digest(point: DesignPoint) -> str:
    """SHA-256 content digest of one design point (its description).

    ``DesignPoint.describe()`` is the point's canonical identity string
    (seeds, cache keys and checkpoint matching all key on it already);
    hashing it gives a fixed-width address usable in filenames and URLs.
    """
    return hashlib.sha256(point.describe().encode()).hexdigest()


def evaluation_key(fingerprint: str, point: DesignPoint) -> str:
    """Content address of one ``(evaluator, point)`` evaluation.

    The SHA-256 of the evaluator fingerprint and the point description --
    the key :class:`EvaluationCache` has always filed entries under, now
    exposed so the content-addressed result store (:mod:`repro.store`)
    and the serving layer address the *same* artefacts: a sweep manifest
    can reference cache entries directly, and a store lookup never
    re-evaluates what the cache already holds.
    """
    return hashlib.sha256(f"{fingerprint}\n{point.describe()}".encode()).hexdigest()


def evaluator_fingerprint(evaluator: object) -> str:
    """Cache identity of an evaluator.

    Prefers an explicit ``fingerprint()`` method (implemented by
    :class:`~repro.core.explorer.FrontEndEvaluator` over its corpus,
    seed and detector); falls back to the qualified class name, which is
    correct only for stateless evaluators -- custom stateful evaluators
    should implement ``fingerprint()``.
    """
    method = getattr(evaluator, "fingerprint", None)
    if callable(method):
        return str(method())
    kind = type(evaluator)
    return f"{kind.__module__}.{kind.__qualname__}"


def chunk_pending(
    pending: Sequence[tuple[int, DesignPoint]],
    n_workers: int,
    chunk_size: int | None = None,
) -> list[list[tuple[int, DesignPoint]]]:
    """Split index-tagged points into dispatch chunks.

    Default sizing aims at ~4 chunks per worker: large enough to amortise
    dispatch overhead, small enough that a slow chunk cannot straggle the
    whole pool.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-len(pending) // (n_workers * 4)))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    items = list(pending)
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def evaluate_chunk_with(
    evaluator: Callable,
    strict: bool,
    chunk: list[tuple[int, DesignPoint]],
    policy: ExecutionPolicy = DEFAULT_POLICY,
    telemetry: Telemetry | None = None,
) -> list[tuple[int, Evaluation, float, dict]]:
    """Evaluate one chunk with an explicit evaluator (the thread executor).

    ``telemetry`` (when profiling) wraps the chunk in an
    ``explore.shard`` span and each evaluation in an ``explore.point``
    span, the skeleton of the hierarchical trace; disabled telemetry
    reduces both to shared no-op context managers.
    """
    tel = telemetry if telemetry is not None else get_active()
    rows: list[tuple[int, Evaluation, float, dict]] = []
    with tel.span("explore.shard", points=len(chunk)):
        for index, point in chunk:
            with tel.span("explore.point", index=index):
                rows.append(
                    (index, *evaluate_one_timed(evaluator, point, strict, policy))
                )
    return rows


# --- on-disk evaluation cache ------------------------------------------------


class EvaluationCache:
    """Directory of evaluated design points, keyed by content.

    One JSON file per ``(evaluator fingerprint, point description)`` pair,
    named by the SHA-256 of the key, written atomically (temp file +
    rename) so concurrent sweeps sharing a cache directory never observe
    torn entries.  Failed evaluations are never cached: a crash is worth
    retrying on the next run.  A corrupt entry (torn write from a killed
    process, disk error, key collision) is quarantined to ``*.corrupt``
    on first read so it is not re-parsed -- and re-missed -- on every
    subsequent run.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _path(self, fingerprint: str, point: DesignPoint) -> Path:
        return self.directory / f"{evaluation_key(fingerprint, point)}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (best effort) and count it."""
        self.corrupt += 1
        get_active().count("cache.corrupt")
        try:
            os.replace(path, str(path) + ".corrupt")
            log.warning("quarantined corrupt cache entry %s", path.name)
        except OSError:  # pragma: no cover - raced by a concurrent sweep
            pass

    def get(self, fingerprint: str, point: DesignPoint) -> Evaluation | None:
        """Cached evaluation of ``point``, or ``None``."""
        path = self._path(fingerprint, point)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if payload.get("point_description") != point.describe():
                raise ValueError("cache key collision")
            evaluation = evaluation_from_dict(payload["evaluation"])
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return evaluation

    def put(self, fingerprint: str, point: DesignPoint, evaluation: Evaluation) -> None:
        """Store one evaluation (no-op for failed evaluations)."""
        if evaluation.error is not None:
            return
        payload = {
            "point_description": point.describe(),
            "evaluation": evaluation_to_dict(evaluation),
        }
        atomic_write_text(self._path(fingerprint, point), json.dumps(payload))

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


# --- JSONL checkpointing -----------------------------------------------------


class SweepCheckpoint:
    """Append-only JSONL record of completed evaluations.

    Each line is ``{"index": i, "point": describe, "evaluation": {...}}``.
    Appends are single ``write`` calls followed by flush+fsync, so an
    interrupted sweep loses at most the in-flight line -- which
    :meth:`load` tolerates by skipping unparseable trailing data.
    Resume matches entries against the grid by *both* index and point
    description: a checkpoint from a different grid is ignored rather
    than trusted.

    A sidecar lock file (``<path>.lock``) guards the writer: two
    concurrent sweeps pointed at the same checkpoint raise
    :class:`CheckpointLockedError` instead of interleaving appends into
    corrupt JSONL.  On POSIX the guard is ``flock`` (released by the
    kernel even if the holder is SIGKILLed, so no stale locks); elsewhere
    it falls back to an exclusive-create file with a stale-pid check.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None
        self._lock_handle = None

    @property
    def lock_path(self) -> Path:
        return Path(str(self.path) + ".lock")

    def acquire(self) -> None:
        """Take the writer lock, or raise :class:`CheckpointLockedError`.

        Idempotent for the holding instance.  Called automatically on
        first append; the explorer calls it eagerly before loading so a
        doomed concurrent sweep fails before any work is done.
        """
        if self._lock_handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._acquire_flock()
        else:  # pragma: no cover - non-POSIX platform
            self._acquire_exclusive_create()

    def _acquire_flock(self) -> None:
        # Loop: the lock file may be unlinked by a releasing holder
        # between our open() and flock(); re-stat after locking and retry
        # if we locked a ghost inode.
        while True:
            handle = open(self.lock_path, "a+")
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise CheckpointLockedError(
                    f"checkpoint {self.path} is locked by another sweep "
                    f"(lock file: {self.lock_path})"
                ) from None
            try:
                if os.fstat(handle.fileno()).st_ino == os.stat(self.lock_path).st_ino:
                    handle.seek(0)
                    handle.truncate()
                    handle.write(f"{os.getpid()}\n")
                    handle.flush()
                    self._lock_handle = handle
                    return
            except OSError:
                pass  # lock file vanished underneath us: retry
            handle.close()

    def _acquire_exclusive_create(self) -> None:  # pragma: no cover - non-POSIX
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                pid = int(Path(self.lock_path).read_text().strip() or "0")
            except (OSError, ValueError):
                pid = 0
            alive = False
            if pid > 0:
                try:
                    os.kill(pid, 0)
                    alive = True
                except OSError:
                    alive = False
            if alive:
                raise CheckpointLockedError(
                    f"checkpoint {self.path} is locked by pid {pid} "
                    f"(lock file: {self.lock_path})"
                ) from None
            # Stale lock from a dead process: steal it.
            Path(self.lock_path).unlink(missing_ok=True)
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        handle = os.fdopen(fd, "w")
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        self._lock_handle = handle

    def release(self) -> None:
        """Drop the writer lock and remove the lock file."""
        if self._lock_handle is None:
            return
        try:
            Path(self.lock_path).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - permissions race
            pass
        self._lock_handle.close()
        self._lock_handle = None

    def load(self, expected: dict[int, str] | None = None) -> dict[int, Evaluation]:
        """Completed evaluations by grid index (last write wins).

        ``expected`` maps grid index -> point description; entries that
        do not match (stale checkpoint, changed grid) are dropped.
        """
        restored: dict[int, Evaluation] = {}
        if not self.path.exists():
            return restored
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    index = int(payload["index"])
                    description = payload["point"]
                    evaluation = evaluation_from_dict(payload["evaluation"])
                except (ValueError, KeyError, TypeError):
                    continue  # torn/corrupt line (e.g. a killed writer)
                if expected is not None and expected.get(index) != description:
                    continue
                restored[index] = evaluation
        return restored

    def append(self, index: int, evaluation: Evaluation) -> None:
        """Record one completed evaluation (atomic single-line append)."""
        self.append_many([(index, evaluation)])

    def append_many(self, entries: Iterable[tuple[int, Evaluation]]) -> None:
        """Record a batch of evaluations with ONE flush + fsync.

        Mirroring cache hits into the checkpoint used to fsync once per
        hit, so resuming a fully-cached 96-point sweep paid 96 fsyncs
        before evaluating anything; batching makes that a single durable
        write.  Crash durability is unchanged for the per-point path
        (``append`` is a one-entry batch).
        """
        lines = [
            json.dumps(
                {
                    "index": index,
                    "point": evaluation.point.describe(),
                    "evaluation": evaluation_to_dict(evaluation),
                }
            )
            + "\n"
            for index, evaluation in entries
        ]
        if not lines:
            return
        if self._handle is None:
            self.acquire()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")
        self._handle.write("".join(lines))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the append handle and drop the lock (load still works)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.release()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
