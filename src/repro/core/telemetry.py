"""Observability: counters, wall-time spans, structured events, run manifests.

The sweep engine is the framework's hot path, and PR 1 made it parallel,
cached and resumable -- which also made it opaque: a five-minute ``fig7``
run could be simulating, waiting on a pool, or replaying a checkpoint and
the user cannot tell which.  This module is the single place the engine
reports what it is doing:

* :class:`Telemetry` -- a lightweight, thread-safe sink for **counters**
  (cache hits, failures), **spans** (wall-time of named code regions via
  ``time.perf_counter``), **observations** (per-point latency, solver
  iterations) and bounded **structured events** (live progress with ETA).
  Spans and observations aggregate into one primitive, the fixed-bucket
  :class:`~repro.core.metrics.Histogram` with exact count/total/min/max/
  mean/stddev.  ``summary()`` renders the whole state as fixed-width
  text tables.
* :class:`NullTelemetry` / :data:`NULL` -- the disabled implementation.
  Every hook is an empty method (and :meth:`NullTelemetry.span` returns a
  shared no-op context manager), so instrumented code pays nothing
  measurable when telemetry is off.  This is the ambient default.
* **Ambient plumbing** -- :func:`get_active` and the :func:`activate`
  context manager install one telemetry object for a region of code.
  Deep layers (:class:`~repro.core.simulator.Simulator`, the FISTA
  solvers) report to the ambient sink without threading an argument
  through every call.  The slot is a context variable, so each thread
  sees only the sink its own call stack activated; the thread executor
  and the timeout watchdog run their work in a copy of the sweep's
  context.
* **Cross-process aggregation** -- when a sweep profiles, fleet workers
  run a real per-worker :class:`Telemetry`; ``snapshot(drain=True)``
  ships its state as a JSON-ready delta with each completed chunk, and
  the driver folds it in with the associative :meth:`Telemetry.merge`
  -- so counters, span and observation histograms and events from
  every worker land in one driver-side sink.
* :class:`RunManifest` -- the JSON artifact a profiled run writes next to
  its outputs: seed, scale preset, grid size, per-phase timings, per-block
  power *and* time breakdowns, sweep statistics, latency histograms,
  per-worker counters, the trace digest and the ETA history.

Everything here is stdlib-only (``time``, ``threading``,
``contextvars``, ``json``, ``logging``; the :mod:`repro.core.metrics` and :mod:`repro.core.tracing`
helpers it builds on are stdlib-only too) by design: telemetry must
never add a dependency, and this module must stay importable from
anywhere in the package without cycles.
"""

from __future__ import annotations

import contextvars
import json
import logging
import math
import platform
import sys
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core import flight
from repro.core.metrics import Histogram

log = logging.getLogger("repro.telemetry")

#: Version stamp of the :class:`RunManifest` JSON schema.
#: v2 added the ``robustness`` section (fault/retry/timeout accounting and
#: yield-analysis digests) and the hardened-execution counters in ``sweep``.
#: v3 added ``trace`` (hierarchical-trace digest), ``workers`` (per-worker
#: counter/span totals) and ``histograms`` (fixed-bucket latency/iteration
#: distributions with p50/p95/p99), plus stddev in every stats dict.
#: v4 added ``adaptive`` (the multi-fidelity promotion ledger: per-rung
#: proposed/kept/promoted counts and the full-fidelity reduction factor).
#: v5 added ``fleet`` (the distributed-sweep report: per-worker chunk and
#: evaluator-call attribution, lease grant/expiry/requeue counts,
#: duplicate-completion drops and quarantined poison chunks).
#: v6 added ``kernels`` (the backend-dispatch record: requested kernel
#: backend, per-backend availability/exactness, and the per-kernel ledger
#: of which backend actually ran each kernel including fallbacks).
#: v7 added ``resources`` (RSS/CPU/thread sampling with per-worker
#: attribution) and the trace-merge bookkeeping in ``trace``
#: (per-lane clock offsets and dropped-event counts).
#: v8 folded ``resources.values`` into ``resources.histograms`` (threads
#: and cumulative CPU seconds are histograms now, and per-worker resource
#: digests are merged histograms of every ``resources.*`` family), and
#: every stats dict gained the histogram fields (``bounds``, ``counts``,
#: ``m2``, ``p50``/``p95``/``p99``), since one histogram type now
#: aggregates spans and observations alike.
#: v9 dropped the two ``sweep`` fields that counted and listed the points
#: the batched executor demoted to the scalar path, with that executor.
#: v10 dropped the two ``sweep`` fields that counted process-pool
#: restarts and isolated worker crashes, with the pool: process sweeps
#: run on a local fleet, whose ``fleet`` section counts ``requeues`` and
#: ``points_quarantined``.
#: v11 dropped ``kernels``, the record of which implementation ran each
#: hot kernel: the numpy kernels are the only one, called directly.
#: v12 dropped ``adaptive``, with the multi-fidelity explorer: every
#: sweep evaluates its whole grid.
#: v13 dropped ``sweep.retries`` and ``robustness.counters.retries``: each
#: point is evaluated once, so nothing is retried.
MANIFEST_SCHEMA_VERSION = 13


class _Span:
    """Context manager timing one region into a :class:`Telemetry`.

    When the telemetry carries a :class:`~repro.core.tracing.Tracer`,
    entering also opens one trace span instance (with explicit span ID
    and the same thread's enclosing span as parent), so the aggregate
    histogram and the hierarchical timeline come from a single
    instrumentation point.
    """

    __slots__ = ("_telemetry", "_name", "_start", "_args", "_token")

    def __init__(self, telemetry: "Telemetry", name: str, args: dict | None = None):
        self._telemetry = telemetry
        self._name = name
        self._args = args
        self._start = 0.0
        self._token = None

    def __enter__(self) -> "_Span":
        tracer = self._telemetry.tracer
        if tracer is not None:
            self._token = tracer.start(self._name, **(self._args or {}))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._telemetry._record_span(self._name, time.perf_counter() - self._start)
        if self._token is not None:
            self._telemetry.tracer.finish(self._token)


class _NullSpan:
    """Shared do-nothing span of the disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


def _merge_histograms(into: dict[str, Histogram], source: dict[str, Histogram]) -> None:
    """Fold every histogram of ``source`` into its namesake in ``into``."""
    for name, histogram in source.items():
        mine = into.get(name)
        if mine is None:
            into[name] = histogram.copy()
        else:
            mine.merge(histogram)


def _parse_payload(payload: dict) -> tuple[dict, dict, dict, list]:
    """Check a :meth:`Telemetry.snapshot` dict and rebuild its histograms.

    Counters must be finite numbers, histograms must parse through
    :meth:`~repro.core.metrics.Histogram.from_dict` and events must be
    dicts; anything else raises :class:`ValueError` (a number beyond the
    float range included).
    """
    try:
        counters = dict(payload.get("counters", {}))
        spans = {n: Histogram.from_dict(h) for n, h in payload.get("spans", {}).items()}
        histograms = {
            n: Histogram.from_dict(h) for n, h in payload.get("histograms", {}).items()
        }
        events = list(payload.get("events", []))
        for name, amount in counters.items():
            if not isinstance(amount, (int, float)) or isinstance(amount, bool):
                raise ValueError(f"counter {name!r} must be a number, got {amount!r}")
            if not math.isfinite(amount):
                raise ValueError(f"counter {name!r} must be finite, got {amount!r}")
    except (AttributeError, KeyError, TypeError, OverflowError) as error:
        raise ValueError(f"malformed telemetry payload: {error!r}") from None
    if not all(isinstance(event, dict) for event in events):
        raise ValueError("telemetry events must be dicts")
    return counters, spans, histograms, events


class Telemetry:
    """Thread-safe sink for counters, spans, observations and events.

    Thread safety matters because the explorer's *thread* executor runs
    instrumented evaluators concurrently against the ambient telemetry of
    the driver; a plain dict update would race.  All mutation happens
    under one lock; reads used for reporting take the same lock and copy.

    Parameters
    ----------
    logger:
        Optional stdlib logger; every :meth:`event` is mirrored to it at
        DEBUG level, which is the bridge between structured telemetry and
        ordinary ``--log-level debug`` console logging.
    max_events:
        Bound on the retained events.  Once full, each new event evicts
        the oldest (``telemetry.events_dropped`` counts them), so
        unbounded sweeps cannot grow memory without limit and the end of
        a run -- its last progress event, the fleet report -- survives.
    tracer:
        Optional :class:`~repro.core.tracing.Tracer`; when attached,
        every :meth:`span` also records one hierarchical trace event and
        :meth:`instant` markers become timeline instants.
    event_sink:
        Optional callable receiving every :meth:`event` payload (e.g.
        :class:`~repro.core.metrics.JsonlEventWriter`); called outside
        the lock, and isolated -- a raising sink is logged, not raised.
    """

    enabled = True

    def __init__(
        self,
        logger: logging.Logger | None = None,
        max_events: int = 10_000,
        tracer=None,
        event_sink: Callable[[dict], None] | None = None,
    ):
        self._lock = threading.Lock()
        self._logger = logger
        self.max_events = int(max_events)
        self.tracer = tracer
        self.event_sink = event_sink
        self.counters: dict[str, float] = {}
        #: Wall seconds per span name, in the default latency buckets.
        self.spans: dict[str, Histogram] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: deque[dict] = deque(maxlen=self.max_events)
        #: Per-worker digests accumulated by :meth:`merge`:
        #: label -> {"counters": {...}, "span_seconds": {...}, "merges": n,
        #: "resources": {name: Histogram}}.
        self.workers: dict[str, dict] = {}

    # --- recording hooks ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float, bounds: tuple | None = None) -> None:
        """Fold one observation into the fixed-bucket histogram ``name``.

        ``bounds`` picks the bucket upper bounds on first use (default:
        the latency buckets); later calls ignore it, so every observer
        of one quantity shares one histogram.
        """
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = (
                    Histogram(bounds=bounds) if bounds is not None else Histogram()
                )
            histogram.observe(value)

    def span(self, name: str, **args) -> _Span:
        """Context manager timing a region: ``with tel.span("solve"): ...``.

        ``args`` annotate the trace event (ignored without a tracer):
        ``tel.span("explore.point", index=i)``.
        """
        return _Span(self, name, args or None)

    def _record_span(self, name: str, elapsed_s: float) -> None:
        with self._lock:
            histogram = self.spans.get(name)
            if histogram is None:
                histogram = self.spans[name] = Histogram()
            histogram.observe(elapsed_s)

    def instant(self, name: str, **args) -> None:
        """Mark a zero-duration timeline occurrence (cache hit, restore).

        A no-op without an attached tracer: instants exist for the
        timeline, the corresponding counters carry the aggregates.
        """
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    def event(self, kind: str, **fields) -> None:
        """Append one structured event (bounded; see ``max_events``).

        Every event is also filed on the crash flight-recorder ring
        (:mod:`repro.core.flight`), so a postmortem dump carries the
        recent structured trail regardless of sinks.
        """
        payload = {"kind": kind, "t_unix": time.time(), **fields}
        with self._lock:
            self._keep_event(payload)
        flight.get_recorder().note(payload)
        if self.event_sink is not None:
            try:
                self.event_sink(payload)
            except Exception:  # noqa: BLE001 - a sink must never kill the run
                log.warning("telemetry event sink raised", exc_info=True)
        if self._logger is not None:
            self._logger.debug("%s %s", kind, fields)

    def _keep_event(self, payload: dict) -> None:
        """File one event, evicting the oldest when full (lock held)."""
        if len(self.events) == self.max_events:
            self.counters["telemetry.events_dropped"] = (
                self.counters.get("telemetry.events_dropped", 0) + 1
            )
        self.events.append(payload)

    # --- snapshots and merging ------------------------------------------------

    def snapshot(self, drain: bool = False) -> dict:
        """JSON-ready copy of the whole state, the one snapshot format.

        Manifests, OpenMetrics and the fleet wire read it, and
        :meth:`merge` folds it back in.  ``drain=True`` resets the state
        in the same lock hold: each fleet chunk ships a *delta* home, so
        the driver's :meth:`merge` sums to exactly the union of all
        worker activity.
        """
        with self._lock:
            payload = {
                "counters": dict(self.counters),
                "spans": {name: h.to_dict() for name, h in self.spans.items()},
                "histograms": {
                    name: h.to_dict() for name, h in self.histograms.items()
                },
                "events": [dict(e) for e in self.events],
                "workers": {
                    label: {
                        "counters": dict(digest["counters"]),
                        "span_seconds": dict(digest["span_seconds"]),
                        "merges": digest["merges"],
                        "resources": {
                            name: h.to_dict() for name, h in digest["resources"].items()
                        },
                    }
                    for label, digest in self.workers.items()
                },
            }
            if drain:
                self.counters = {}
                self.spans = {}
                self.histograms = {}
                self.events.clear()
                self.workers = {}
        return payload

    def merge(self, payload: dict, worker: str | None = None) -> None:
        """Fold a :meth:`snapshot` dict into this telemetry.

        Associative and commutative on the aggregates: counters add,
        span and observation histograms combine via
        :meth:`~repro.core.metrics.Histogram.merge`, and events append
        (bounded, oldest evicted).  ``worker`` additionally accumulates
        the payload's counters, span totals and ``resources.*``
        histograms into :attr:`workers`, the per-worker attribution the
        run manifest reports -- so a fleet manifest can name the worker
        whose RSS grew.  A malformed payload (see :func:`_parse_payload`,
        or histogram bounds other than the sink's) raises
        :class:`ValueError` before any state changes.
        """
        counters, spans, histograms, events = _parse_payload(payload)
        with self._lock:
            for held, parsed in ((self.spans, spans), (self.histograms, histograms)):
                if any(n in held and held[n].bounds != h.bounds for n, h in parsed.items()):
                    raise ValueError("payload histogram bounds differ from the sink's")
            for name, amount in counters.items():
                self.counters[name] = self.counters.get(name, 0) + amount
            _merge_histograms(self.spans, spans)
            _merge_histograms(self.histograms, histograms)
            for event in events:
                self._keep_event(dict(event))
            if worker:
                digest = self.workers.setdefault(
                    worker,
                    {"counters": {}, "span_seconds": {}, "merges": 0, "resources": {}},
                )
                digest["merges"] += 1
                for name, amount in counters.items():
                    digest["counters"][name] = digest["counters"].get(name, 0) + amount
                for name, histogram in spans.items():
                    digest["span_seconds"][name] = (
                        digest["span_seconds"].get(name, 0.0) + histogram.total
                    )
                _merge_histograms(
                    digest["resources"],
                    {
                        name: histogram
                        for name, histogram in histograms.items()
                        if name.startswith("resources.")
                    },
                )

    # --- reporting ------------------------------------------------------------

    def timers(self, prefix: str = "") -> dict[str, float]:
        """Total wall seconds per span whose name starts with ``prefix``.

        The prefix is stripped from the returned keys, so
        ``timers("block.")`` maps plain block names to seconds.
        """
        with self._lock:
            return {
                name[len(prefix):]: histogram.total
                for name, histogram in self.spans.items()
                if name.startswith(prefix)
            }

    def summary(self) -> str:
        """Fixed-width text tables of counters and histograms.

        Follows the repo's plain-text reporting conventions (compare
        ``ExplorationResult.as_table`` and :mod:`repro.util.textplot`):
        stable ordering, no colour, suitable for logs and CI artefacts.
        Spans share the histogram table as ``span <name>`` rows (wall
        seconds).
        """
        with self._lock:
            counters = dict(self.counters)
            rows = sorted(
                [(f"span {name}", h.copy()) for name, h in self.spans.items()]
                + [(name, h.copy()) for name, h in self.histograms.items()],
                key=lambda row: row[0],
            )
            workers = sorted(self.workers)
            n_events = len(self.events)
            max_events = self.max_events
        lines: list[str] = ["== telemetry summary =="]
        dropped = counters.get("telemetry.events_dropped", 0)
        if dropped:
            # Surfaced first and loudly: the retained trail is incomplete.
            lines.append(
                f"WARNING: {dropped:g} event(s) dropped -- the bounded buffer "
                f"kept the newest max_events={max_events}; construct "
                f"Telemetry(max_events=<larger>) to keep the full trail"
            )
        if counters:
            lines.append("")
            lines.append(f"{'counter':<40}{'value':>14}")
            for name in sorted(counters):
                lines.append(f"{name:<40}{counters[name]:>14g}")
        if rows:
            lines.append("")
            lines.append(
                f"{'histogram':<40}{'count':>8}{'total':>11}{'mean':>11}"
                f"{'stddev':>11}{'min':>11}{'max':>11}"
                f"{'p50':>11}{'p95':>11}{'p99':>11}"
            )
            for name, h in rows:
                lines.append(
                    f"{name:<40}{h.count:>8d}{h.total:>11.4g}{h.mean:>11.4g}"
                    f"{h.stddev:>11.4g}{h.min:>11.4g}{h.max:>11.4g}"
                    f"{h.quantile(0.5):>11.4g}{h.quantile(0.95):>11.4g}"
                    f"{h.quantile(0.99):>11.4g}"
                )
        if workers:
            lines.append("")
            lines.append(f"worker lanes merged: {', '.join(workers)}")
        if n_events:
            lines.append("")
            lines.append(f"events recorded: {n_events}")
        if len(lines) == 1:
            lines.append("(nothing recorded)")
        return "\n".join(lines)


class NullTelemetry(Telemetry):
    """Disabled telemetry: every hook is a no-op.

    Instrumented code can call the hooks unconditionally -- with this
    implementation installed (the ambient default) each call is a single
    empty method invocation, which keeps the hot sweep loop at its
    pre-instrumentation cost.
    """

    enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def observe(self, name: str, value: float, bounds: tuple | None = None) -> None:
        pass

    def span(self, name: str, **args) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def instant(self, name: str, **args) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass

    def merge(self, payload: dict, worker: str | None = None) -> None:
        pass


#: The shared disabled instance; also the ambient default.
NULL = NullTelemetry()

#: The ambient sink.  Context-local: each thread (and each copied
#: context) sees only what its own call stack activated, so overlapping
#: sweeps on different threads never report into each other's sink.
_active: contextvars.ContextVar[Telemetry] = contextvars.ContextVar(
    "repro_telemetry", default=NULL
)


def get_active() -> Telemetry:
    """The ambient telemetry of this context (:data:`NULL` by default)."""
    return _active.get()


@contextmanager
def activate(telemetry: Telemetry | None) -> Iterator[Telemetry]:
    """Scope the ambient telemetry: ``with activate(tel): ...``.

    ``None`` installs the disabled :data:`NULL`.  The slot is a context
    variable: a new thread starts with :data:`NULL`, so code that runs
    an evaluator on a pool or watchdog thread runs it in a copy of the
    caller's context (:func:`contextvars.copy_context`).  Nesting
    restores the previous sink on exit.
    """
    token = _active.set(telemetry if telemetry is not None else NULL)
    try:
        yield _active.get()
    finally:
        _active.reset(token)


# --- run manifest -------------------------------------------------------------


@dataclass
class RunManifest:
    """JSON artifact describing one profiled run, written next to outputs.

    The manifest is the machine-readable counterpart of
    :meth:`Telemetry.summary`: a CI job archives it, a later run compares
    against it, a human reads it to see where the wall-clock time of a
    sweep went.  All fields are plain JSON types; ``save``/``load``
    round-trip exactly.
    """

    command: str = ""
    created_unix: float = 0.0
    seed: int | None = None
    scale: str | None = None
    grid_size: int | None = None
    executor: str | None = None
    n_workers: int | None = None
    #: Per-phase wall seconds (span name -> total seconds).
    phases: dict = field(default_factory=dict)
    #: Per-block simulation wall seconds (block name -> total seconds).
    block_time_s: dict = field(default_factory=dict)
    #: Per-block power in watts of the representative optimum.
    block_power_w: dict = field(default_factory=dict)
    #: Sweep statistics: cache hits/misses, restores, failures, latency.
    sweep: dict = field(default_factory=dict)
    #: Robustness accounting: fault/failure/timeout counters and, for yield
    #: runs, the severity grid, clean references and yield curves.
    robustness: dict = field(default_factory=dict)
    #: Hierarchical-trace digest: event/drop counts, the pid -> label
    #: lane table, and the trace-merge bookkeeping (per-lane clock
    #: offsets and dropped-event counts); trace bodies live in the
    #: ``--trace`` JSON file.
    trace: dict = field(default_factory=dict)
    #: Resource-sampling digest (:func:`repro.core.resources.
    #: resources_section`): RSS/CPU/thread histograms plus the per-worker
    #: resource attribution; empty when sampling never ran.
    resources: dict = field(default_factory=dict)
    #: Per-worker attribution: label -> counters, span-second totals and
    #: resource histograms merged from that worker's telemetry snapshots.
    workers: dict = field(default_factory=dict)
    #: Fixed-bucket latency/iteration histograms (bucket counts + p50/95/99).
    histograms: dict = field(default_factory=dict)
    #: Distributed-sweep report (:meth:`repro.fleet.FleetReport.to_dict`):
    #: per-worker attribution, lease/requeue/duplicate accounting and
    #: quarantined poison chunks; empty for single-host runs.
    fleet: dict = field(default_factory=dict)
    #: Completion-order progress events (done/total/elapsed/ETA).
    eta_history: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA_VERSION

    @staticmethod
    def describe_environment() -> dict:
        """Interpreter/platform stamp recorded into manifests."""
        try:
            import numpy

            numpy_version = numpy.__version__
        except Exception:  # pragma: no cover - numpy is a hard dependency
            numpy_version = None
        return {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "numpy": numpy_version,
        }

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output.

        Unknown keys are rejected (they indicate a newer schema); a
        missing or different ``schema`` version is rejected explicitly.
        """
        if not isinstance(payload, dict):
            raise TypeError(f"manifest payload must be a dict, got {type(payload)}")
        schema = payload.get("schema")
        if schema != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema {schema!r} != supported {MANIFEST_SCHEMA_VERSION}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        return cls(**payload)

    def save(self, path: str | Path) -> Path:
        """Write the manifest as indented JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Read a manifest written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))
