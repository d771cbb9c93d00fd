"""Sweep-as-a-service: a threaded HTTP/JSON API over the result store.

The pathfinding engine is evaluation-bound; its readers are not.  This
module puts a thin, stdlib-only HTTP layer between the two so
read-mostly clients hit the content-addressed store
(:mod:`repro.store`) instead of the simulator:

* ``POST /v1/sweeps`` submits a sweep.  The request resolves to an
  evaluator + design-point grid (by experiment scale through
  :mod:`repro.experiments.runner`, or through an injected resolver), and
  runs via :class:`~repro.core.explorer.DesignSpaceExplorer` on a worker
  thread, composing the existing machinery: the store's blob directory
  *is* the evaluation cache, per-sweep telemetry streams structured
  events to a JSONL sink, and the finished result is persisted as a
  named, digest-stamped sweep.  A re-submitted sweep whose content is
  already stored completes instantly from the store -- no evaluator
  call, no worker thread.
* ``GET /v1/sweeps/<name>/events`` streams progress as newline-delimited
  JSON by tailing the sweep's JSONL event sink (the PR-5
  ``explore.progress`` events) until the run completes.
* ``GET /v1/sweeps/<name>`` (manifest), ``/evaluations`` (raw rows,
  paginated), ``/pareto`` (non-dominated front under caller-chosen
  objectives) and ``/breakdown`` (per-block power) serve query views.
  Every view of a finished sweep carries an ``ETag`` equal to the
  sweep's content digest; a conditional request with a matching
  ``If-None-Match`` is answered ``304 Not Modified`` with no store read
  beyond the manifest -- the revalidation path costs nothing and keeps
  repeat readers entirely off the simulator.

The transport is the stdlib's :class:`~http.server.ThreadingHTTPServer`
with one request-handler class: a daemon thread per connection, each
serving sequential keep-alive requests, so a slow store read stalls only
its own client, and a client whose request line, headers and body have
not all arrived :data:`READ_TIMEOUT_S` after the handler started waiting
is disconnected.  The handler narrows the
stdlib's parser to what the API serves -- a ``METHOD target HTTP/1.x``
request line, a clean header block, and a body of at most
:data:`MAX_BODY_BYTES` that arrives in full -- and answers every
rejection with the API's JSON ``{"error": ...}`` body.  It is not a
general-purpose web server: it serves JSON to cooperating clients and
rejects everything else with 4xx.
"""

from __future__ import annotations

import io
import json
import logging
import signal
import socket
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.execution import evaluation_key, evaluator_fingerprint
from repro.core.explorer import DesignSpaceExplorer
from repro.core.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    JsonlEventWriter,
    render_openmetrics,
)
from repro.core.pareto import Objective, pareto_front
from repro.core.results import ExplorationResult
from repro.core.telemetry import Telemetry, activate, get_active
from repro.core.tracing import Tracer, chrome_trace
from repro.store import ResultStore, SweepManifest, check_sweep_name
from repro.power.technology import DesignPoint

log = logging.getLogger("repro.serve")

#: Largest accepted request body (sweep submissions are tiny JSON).
MAX_BODY_BYTES = 1 << 20

#: Pagination defaults/bounds shared by every collection view.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Poll interval of the progress tail (seconds).
EVENT_POLL_S = 0.05

#: Seconds a whole request (line, headers and body) may take to arrive,
#: and one socket write may wait, before the connection is closed, so a
#: client that stalls or trickles mid-request, or idles between
#: keep-alive requests, cannot pin a handler thread.  The event stream
#: only writes, so it stays open for as long as its client reads.
READ_TIMEOUT_S = 30.0

#: Response-size histogram bucket upper bounds (bytes): log-spaced from a
#: health-check ping to the largest paginated evaluation page.
RESPONSE_BYTES_BUCKETS: tuple[float, ...] = (
    256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
)

#: Content type of the ``/metrics`` exposition body.
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


class SubmissionError(ValueError):
    """A sweep submission payload is invalid (HTTP 400)."""


class ServiceDraining(RuntimeError):
    """The service is shutting down and refuses new work (HTTP 503)."""


def default_resolver(payload: dict):
    """Resolve a submission payload against the experiment harness.

    Accepts ``{"scale": "smoke"|"small"|"paper", "name"?: str,
    "executor"?: str, "workers"?: int}`` and returns
    ``(name, evaluator, points, explore_kwargs)``.  An absent executor
    passes through as ``None``, so :meth:`DesignSpaceExplorer.explore`
    picks it from the worker count as it does for the CLI.  Tests and
    embedders inject their own resolver with the same signature to serve
    custom evaluators.
    """
    from repro.core.execution import EXECUTORS
    from repro.experiments.runner import SCALES, make_harness, search_space_for

    if not isinstance(payload, dict):
        raise SubmissionError("submission body must be a JSON object")
    scale = payload.get("scale")
    if scale not in SCALES:
        raise SubmissionError(
            f"unknown scale {scale!r}; choose one of {sorted(SCALES)}"
        )
    executor = payload.get("executor")
    if executor is not None and executor not in EXECUTORS:
        raise SubmissionError(
            f"unknown executor {executor!r}; choose one of {EXECUTORS}"
        )
    workers = payload.get("workers")
    # bool is an int subclass: JSON ``true`` must not pass as one worker.
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, int) or workers < 1
    ):
        raise SubmissionError(f"workers must be a positive integer, got {workers!r}")
    name = payload.get("name") or f"fig7-{scale}"
    harness = make_harness(scale)
    points = list(search_space_for(scale).grid(None))
    return name, harness.evaluator, points, {"executor": executor, "n_workers": workers}


@dataclass
class SweepJob:
    """In-memory state of one submitted sweep."""

    name: str
    status: str = "running"  # running | done | failed
    error: str | None = None
    digest: str | None = None
    from_store: bool = False
    submitted_unix: float = field(default_factory=time.time)
    events_path: Path | None = None
    thread: threading.Thread | None = None

    def view(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "error": self.error,
            "digest": self.digest,
            "from_store": self.from_store,
            "submitted_unix": self.submitted_unix,
        }


class SweepService:
    """Submission/query engine behind the HTTP API (transport-agnostic).

    Parameters
    ----------
    store:
        The :class:`~repro.store.ResultStore` sweeps are persisted to and
        served from.
    resolver:
        ``f(payload) -> (name, evaluator, points, explore_kwargs)``;
        default resolves experiment scales
        (:func:`default_resolver`).  Raise :class:`SubmissionError` for
        invalid payloads.
    telemetry:
        Service-level sink for ``serve.*`` counters and the merged
        per-sweep exploration telemetry.  Defaults to the ambient sink.
    """

    def __init__(
        self,
        store: ResultStore,
        resolver: Callable | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.store = store
        self.resolver = resolver or default_resolver
        self.telemetry = telemetry if telemetry is not None else get_active()
        self.events_dir = store.root / "events"
        self.jobs: dict[str, SweepJob] = {}
        self.started_unix = time.time()
        self._lock = threading.Lock()
        self._draining = threading.Event()

    # --- shutdown -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether the service has begun shutting down."""
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Refuse new submissions; running sweeps keep going.

        Idempotent.  Readers are unaffected -- query views keep serving
        from the store until the process exits.
        """
        if not self._draining.is_set():
            self._draining.set()
            self.telemetry.count("serve.drain")
            log.info("draining: refusing new sweep submissions")

    def drain(self, timeout_s: float = 30.0) -> list[str]:
        """Block until running sweeps settle; returns names still running.

        Sets the draining flag, then joins the worker threads of every
        running job for up to ``timeout_s`` total.  A job that outlives
        the timeout is reported (and logged) rather than killed: its
        thread is a daemon, and every point it has already finished is
        persisted in the store's content-addressed cache, so a
        re-submission after restart resumes from there instead of
        re-evaluating.  Jobs that do settle have flushed and closed
        their JSONL event sinks (the sink closes in the job thread's
        ``finally``).
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout_s
        with self._lock:
            running = [
                (job.name, job.thread)
                for job in self.jobs.values()
                if job.status == "running" and job.thread is not None
            ]
        for _name, thread in running:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        unfinished = [name for name, thread in running if thread.is_alive()]
        for name in unfinished:
            log.warning(
                "sweep %s still running after %.0fs drain; its finished "
                "points are preserved in the store cache",
                name,
                timeout_s,
            )
        return unfinished

    # --- submission -----------------------------------------------------------

    def submit(self, payload: dict) -> tuple[SweepJob, bool]:
        """Submit one sweep; returns ``(job, accepted)``.

        ``accepted`` is ``False`` when an identically named sweep is
        already running (the existing job is returned instead of racing
        a duplicate).  A submission whose content-addressed entries are
        already stored completes synchronously from the store.
        """
        if self._draining.is_set():
            raise ServiceDraining("service is draining; not accepting new sweeps")
        name, evaluator, points, explore_kwargs = self.resolver(payload)
        check_sweep_name(name)
        if not points:
            raise SubmissionError("submission resolved to an empty design grid")
        fingerprint = evaluator_fingerprint(evaluator)
        with self._lock:
            existing = self.jobs.get(name)
            if existing is not None and existing.status == "running":
                return existing, False
            job = SweepJob(name=name, events_path=self.events_dir / f"{name}.jsonl")
            self.jobs[name] = job

        expected = [evaluation_key(fingerprint, point) for point in points]
        manifest = self.store.get_sweep(name)
        if (
            manifest is not None
            and manifest.fingerprint == fingerprint
            and manifest.keys == expected
            and manifest.n_failures == 0
        ):
            # Identical content already stored: served entirely from the
            # content-addressed store, no evaluator call at all.
            job.status = "done"
            job.digest = manifest.digest
            job.from_store = True
            self.telemetry.count("serve.store_hits")
            return job, True

        self.telemetry.count("serve.submitted")
        job.events_path.unlink(missing_ok=True)
        thread = threading.Thread(
            target=self._run_job,
            args=(job, evaluator, points, fingerprint, explore_kwargs),
            name=f"repro-serve-{name}",
            daemon=True,
        )
        job.thread = thread
        thread.start()
        return job, True

    def _run_job(
        self,
        job: SweepJob,
        evaluator,
        points: list[DesignPoint],
        fingerprint: str,
        explore_kwargs: dict,
    ) -> None:
        """Worker-thread body: run the sweep, persist it, settle the job."""
        sink = JsonlEventWriter(job.events_path)
        tel = Telemetry(
            logger=log, event_sink=sink, tracer=Tracer(label=f"sweep-{job.name}")
        )
        try:
            # The job thread starts with no ambient sink: activate the
            # service's, so the store's counters reach ``/metrics``.
            with activate(self.telemetry):
                result = DesignSpaceExplorer(evaluator).explore(
                    points,
                    name=job.name,
                    cache=self.store.cache,
                    telemetry=tel,
                    **explore_kwargs,
                )
                manifest = self.store.put_sweep(
                    job.name,
                    fingerprint,
                    result,
                    meta={
                        "submitted_unix": job.submitted_unix,
                        **explore_kwargs_meta(explore_kwargs),
                    },
                )
            job.digest = manifest.digest
            job.status = "done"
            tel.event("serve.sweep_done", name=job.name, status="done",
                      digest=manifest.digest, n=manifest.n_evaluations)
            self.telemetry.count("serve.sweeps_completed")
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            job.error = f"{type(error).__name__}: {error}"
            job.status = "failed"
            tel.event("serve.sweep_done", name=job.name, status="failed", error=job.error)
            self.telemetry.count("serve.sweeps_failed")
            log.warning("sweep %s failed: %s", job.name, job.error, exc_info=True)
        finally:
            # Persist the sweep's Chrome trace next to its event sink
            # (``GET /v1/sweeps/<name>/trace`` serves it) *before* the
            # drain below empties the tracer's span buffer.
            try:
                self.trace_path(job.name).write_text(
                    json.dumps(chrome_trace(tel.tracer.snapshot()), indent=1) + "\n"
                )
            except OSError as error:  # pragma: no cover - disk full etc.
                log.warning("could not write trace for sweep %s: %s", job.name, error)
            # Fold the sweep's exploration telemetry (cache hit/miss
            # counters, point latencies) into the service sink so the
            # service's counters tell the whole story.
            if self.telemetry.enabled:
                self.telemetry.merge(tel.snapshot(drain=True), worker=f"sweep-{job.name}")
                if self.telemetry.tracer is not None:
                    self.telemetry.tracer.absorb(tel.tracer.snapshot(drain=True))
            sink.close()

    # --- queries --------------------------------------------------------------

    def trace_path(self, name: str) -> Path:
        """Where the Chrome trace of sweep ``name`` is persisted."""
        return self.events_dir / f"{name}.trace.json"

    def health_view(self) -> dict:
        """The enriched ``/healthz`` body: liveness plus capacity signals.

        Load balancers key on ``ok``/``draining``; operators read the
        rest -- uptime, how many sweeps are running/queued against done/
        failed, and how big the store behind the read paths has grown.
        """
        with self._lock:
            statuses = [job.status for job in self.jobs.values()]
        index = self.store.index()
        return {
            "ok": True,
            "draining": self.draining,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "started_unix": self.started_unix,
            "sweeps": {
                "running": statuses.count("running"),
                "done": statuses.count("done"),
                "failed": statuses.count("failed"),
            },
            "store": {
                "sweeps": len(index.get("sweeps", {})),
                "cached_evaluations": len(self.store.cache),
            },
        }

    def job_or_stored(self, name: str) -> tuple[SweepJob | None, SweepManifest | None]:
        """Live job and/or stored manifest for ``name`` (either may be None)."""
        job = self.jobs.get(name)
        manifest = self.store.get_sweep(name)
        return job, manifest

    def manifest_view(self, name: str) -> dict | None:
        """The status/manifest view of one sweep, or ``None`` if unknown."""
        job, manifest = self.job_or_stored(name)
        if job is None and manifest is None:
            return None
        view: dict = {"name": name}
        if manifest is not None:
            view.update(manifest.summary_dict())
            view["status"] = "done"
        if job is not None:
            view.update(job.view())
            if job.status == "done" and manifest is not None:
                view["status"] = "done"
        return view

    def sweep_digest(self, name: str) -> str | None:
        """Content digest of a *finished* sweep (the ETag), else ``None``."""
        job, manifest = self.job_or_stored(name)
        if job is not None and job.status == "running":
            return None
        if manifest is not None:
            return manifest.digest
        return None


def explore_kwargs_meta(explore_kwargs: dict) -> dict:
    """The JSON-safe subset of explore kwargs recorded in sweep meta."""
    return {
        key: value
        for key, value in explore_kwargs.items()
        if isinstance(value, (str, int, float, bool)) and key != "telemetry"
    }


# --- minimal HTTP layer -------------------------------------------------------


@dataclass
class Request:
    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        try:
            return json.loads(self.body.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}") from error


@dataclass
class Response:
    status: int
    payload: dict | list | None = None
    headers: dict[str, str] = field(default_factory=dict)
    stream: Iterator[str] | None = None
    #: Pre-rendered text body (e.g. the OpenMetrics exposition); wins over
    #: ``payload`` and defaults the Content-Type to plain text.
    text: str | None = None

    def encode_body(self) -> bytes:
        """The response body bytes (empty for streams/304/error-no-payload)."""
        if self.stream is not None:
            return b""
        if self.text is not None:
            return self.text.encode()
        if self.status == 304 or (self.payload is None and self.status != 200):
            return b""
        return (json.dumps(self.payload, indent=1) + "\n").encode()


class HttpError(Exception):
    """Maps to an error response: ``raise HttpError(404, "...")``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def etag_of(digest: str) -> str:
    return f'"{digest}"'


def if_none_match_hits(header: str | None, etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` check (weak comparison, ``*`` wildcard)."""
    if header is None:
        return False
    header = header.strip()
    if header == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def parse_page(query: dict[str, list[str]]) -> tuple[int, int]:
    """Validated ``(offset, limit)`` pagination bounds (400 on nonsense)."""
    def one_int(name: str, default: int) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            raise HttpError(400, f"{name} must be an integer, got {values[-1]!r}") from None

    offset = one_int("offset", 0)
    limit = one_int("limit", DEFAULT_PAGE_LIMIT)
    if offset < 0:
        raise HttpError(400, f"offset must be >= 0, got {offset}")
    if not 1 <= limit <= MAX_PAGE_LIMIT:
        raise HttpError(400, f"limit must be in [1, {MAX_PAGE_LIMIT}], got {limit}")
    return offset, limit


class SweepApi:
    """Routes HTTP requests onto a :class:`SweepService`."""

    def __init__(self, service: SweepService):
        self.service = service

    @property
    def telemetry(self) -> Telemetry:
        return self.service.telemetry

    #: Recognised per-sweep views (route labels stay bounded: an unknown
    #: view or path instruments as ``other``, never as raw request text).
    SWEEP_VIEWS = ("manifest", "evaluations", "pareto", "breakdown", "events", "trace")

    @classmethod
    def route_label(cls, method: str, parts: list[str]) -> str:
        """Low-cardinality route label for per-route request metrics."""
        if parts == ["healthz"]:
            return "healthz"
        if parts == ["metrics"]:
            return "metrics"
        if parts == ["v1", "sweeps"]:
            return "sweeps.submit" if method == "POST" else "sweeps.list"
        if len(parts) in (3, 4) and parts[:2] == ["v1", "sweeps"]:
            view = parts[3] if len(parts) == 4 else "manifest"
            if view in cls.SWEEP_VIEWS:
                return f"sweep.{view}"
        return "other"

    def dispatch(self, request: Request) -> Response:
        """Route one request; observe per-route latency and response size."""
        started = time.perf_counter()
        self.telemetry.count("serve.requests")
        parts = [unquote(p) for p in request.path.strip("/").split("/") if p]
        route = self.route_label(request.method, parts)
        try:
            response = self._route(request, parts)
        except HttpError as error:
            if error.status >= 500:  # pragma: no cover - no 5xx HttpErrors today
                self.telemetry.count("serve.errors")
            response = Response(error.status, {"error": error.message})
        except Exception as error:  # noqa: BLE001 - the server must answer
            self.telemetry.count("serve.errors")
            log.exception("unhandled error serving %s %s", request.method, request.path)
            response = Response(500, {"error": f"{type(error).__name__}: {error}"})
        self.telemetry.observe(
            f"serve.request_seconds.{route}",
            time.perf_counter() - started,
            bounds=DEFAULT_LATENCY_BUCKETS_S,
        )
        if response.stream is None:  # streamed bodies have no known size
            self.telemetry.observe(
                f"serve.response_bytes.{route}",
                len(response.encode_body()),
                bounds=RESPONSE_BYTES_BUCKETS,
            )
        return response

    def _route(self, request: Request, parts: list[str]) -> Response:
        if parts == ["healthz"]:
            return self._method(
                request, "GET", lambda: Response(200, self.service.health_view())
            )
        if parts == ["metrics"]:
            return self._method(request, "GET", self._metrics)
        if parts == ["v1", "sweeps"]:
            if request.method == "GET":
                return self._list_sweeps()
            if request.method == "POST":
                return self._submit(request)
            raise HttpError(405, f"{request.method} not allowed here")
        if len(parts) in (3, 4) and parts[:2] == ["v1", "sweeps"]:
            name = parts[2]
            view = parts[3] if len(parts) == 4 else "manifest"
            if view == "events":
                return self._method(request, "GET", lambda: self._events(name))
            handler = {
                "manifest": self._manifest,
                "evaluations": self._evaluations,
                "pareto": self._pareto,
                "breakdown": self._breakdown,
                "trace": self._trace,
            }.get(view)
            if handler is None:
                raise HttpError(404, f"unknown sweep view {view!r}")
            return self._method(request, "GET", lambda: handler(name, request))
        raise HttpError(404, f"no route for {request.path!r}")

    @staticmethod
    def _method(request: Request, allowed: str, handler: Callable[[], Response]) -> Response:
        if request.method != allowed:
            raise HttpError(405, f"{request.method} not allowed here (use {allowed})")
        return handler()

    # --- handlers -------------------------------------------------------------

    def _metrics(self) -> Response:
        """OpenMetrics exposition of the service telemetry.

        Includes the ``serve.*`` counters, the per-route request-latency
        and response-size histograms, any resource-sampler histograms,
        and everything merged from finished sweeps.  The body is also
        valid Prometheus exposition format, so plain scrapers work too.
        """
        return Response(
            200,
            text=render_openmetrics(self.telemetry),
            headers={"Content-Type": OPENMETRICS_CONTENT_TYPE},
        )

    def _trace(self, name: str, request: Request) -> Response:
        """The persisted Chrome trace of one finished (or failed) sweep."""
        del request  # no conditional handling: traces are write-once
        job, manifest = self.service.job_or_stored(name)
        path = self.service.trace_path(name)
        if job is None and manifest is None and not path.exists():
            raise HttpError(404, f"no sweep named {name!r}")
        if job is not None and job.status == "running":
            raise HttpError(404, f"sweep {name!r} is still running; no trace yet")
        try:
            payload = json.loads(path.read_text())
        except OSError:
            raise HttpError(
                404,
                f"no trace recorded for sweep {name!r} (stored sweeps served "
                f"from cache never ran, so they have no trace)",
            ) from None
        except ValueError as error:  # pragma: no cover - torn write
            raise HttpError(500, f"trace for {name!r} is unreadable: {error}") from None
        return Response(200, payload)

    def _list_sweeps(self) -> Response:
        index = self.service.store.index()
        # Other handler threads may be adding jobs: copy under the lock.
        with self.service._lock:
            running = [
                job.view()
                for job in self.service.jobs.values()
                if job.status == "running"
            ]
        return Response(200, {"sweeps": index.get("sweeps", {}), "running": running})

    def _submit(self, request: Request) -> Response:
        if len(request.body) > MAX_BODY_BYTES:
            raise HttpError(413, "submission body too large")
        try:
            job, accepted = self.service.submit(request.json())
        except ServiceDraining as error:
            raise HttpError(503, str(error)) from None
        except (SubmissionError, ValueError) as error:
            raise HttpError(400, str(error)) from None
        view = job.view()
        view["already_running"] = not accepted
        status = 200 if job.status == "done" else 202
        return Response(status, view)

    def _conditional(
        self, name: str, request: Request, build: Callable[[SweepManifest], dict]
    ) -> Response:
        """Shared ETag/304 wrapper of the finished-sweep query views."""
        job, manifest = self.service.job_or_stored(name)
        if job is None and manifest is None:
            raise HttpError(404, f"no sweep named {name!r}")
        if manifest is None:
            # Known job but nothing stored yet: still running or failed.
            assert job is not None
            if job.status == "failed":
                return Response(200, job.view())
            raise HttpError(404, f"sweep {name!r} is still running; no results yet")
        etag = etag_of(manifest.digest)
        if if_none_match_hits(request.headers.get("if-none-match"), etag):
            self.telemetry.count("serve.not_modified")
            return Response(304, None, headers={"ETag": etag})
        payload = build(manifest)
        return Response(200, payload, headers={"ETag": etag})

    def _manifest(self, name: str, request: Request) -> Response:
        view = self.service.manifest_view(name)
        if view is None:
            raise HttpError(404, f"no sweep named {name!r}")
        digest = self.service.sweep_digest(name)
        if digest is None:
            return Response(200, view)
        etag = etag_of(digest)
        if if_none_match_hits(request.headers.get("if-none-match"), etag):
            self.telemetry.count("serve.not_modified")
            return Response(304, None, headers={"ETag": etag})
        return Response(200, view, headers={"ETag": etag})

    def _evaluations(self, name: str, request: Request) -> Response:
        def build(manifest: SweepManifest) -> dict:
            from repro.core.serialization import evaluation_to_dict

            offset, limit = parse_page(request.query)
            result = self.service.store.load_result(name)
            rows = [
                evaluation_to_dict(evaluation)
                for evaluation in list(result)[offset : offset + limit]
            ]
            return {
                "name": name,
                "total": len(result),
                "offset": offset,
                "limit": limit,
                "evaluations": rows,
            }

        return self._conditional(name, request, build)

    def _pareto(self, name: str, request: Request) -> Response:
        def build(manifest: SweepManifest) -> dict:
            objectives = self._objectives(request.query)
            result = self.service.store.load_result(name)
            front = pareto_front(
                [e for e in result if e.ok], objectives
            )
            offset, limit = parse_page(request.query)
            return {
                "name": name,
                "objectives": [
                    {"metric": o.metric, "maximize": o.maximize} for o in objectives
                ],
                "total": len(front),
                "offset": offset,
                "limit": limit,
                "front": ExplorationResult(front[offset : offset + limit]).to_dicts(),
            }

        return self._conditional(name, request, build)

    def _breakdown(self, name: str, request: Request) -> Response:
        def build(manifest: SweepManifest) -> dict:
            result = self.service.store.load_result(name)
            evaluations = list(result)
            offset, limit = parse_page(request.query)
            rows = [
                {
                    "point": e.point.describe(),
                    "power_uw": e.metrics.get("power_uw"),
                    "breakdown": dict(e.breakdown),
                }
                for e in evaluations[offset : offset + limit]
                if e.ok
            ]
            return {
                "name": name,
                "total": len(evaluations),
                "offset": offset,
                "limit": limit,
                "breakdown": rows,
            }

        return self._conditional(name, request, build)

    @staticmethod
    def _objectives(query: dict[str, list[str]]) -> tuple[Objective, ...]:
        """Objectives from ``minimize``/``maximize`` params (comma-splittable)."""
        def names(param: str) -> list[str]:
            collected: list[str] = []
            for value in query.get(param, []):
                collected.extend(n.strip() for n in value.split(",") if n.strip())
            return collected

        minimize, maximize = names("minimize"), names("maximize")
        if not minimize and not maximize:
            minimize, maximize = ["power_uw"], ["snr_db"]
        return tuple(
            [Objective(n, maximize=False) for n in minimize]
            + [Objective(n, maximize=True) for n in maximize]
        )

    def _events(self, name: str) -> Response:
        job, manifest = self.service.job_or_stored(name)
        if job is None and manifest is None:
            raise HttpError(404, f"no sweep named {name!r}")
        return Response(
            200,
            None,
            headers={"Content-Type": "application/x-ndjson"},
            stream=self._tail_events(name, job),
        )

    def _tail_events(self, name: str, job: SweepJob | None) -> Iterator[str]:
        """Tail the sweep's JSONL event sink until the job settles.

        Replays everything already written, then follows appends while
        the job is running; ends with one ``serve.stream_end`` line so
        clients need no out-of-band completion signal.
        """
        path = (
            job.events_path
            if job is not None and job.events_path is not None
            else self.service.events_dir / f"{name}.jsonl"
        )
        position = 0
        buffered = ""
        while True:
            running = job is not None and job.status == "running"
            try:
                with open(path, "r") as handle:
                    handle.seek(position)
                    chunk = handle.read()
                    position = handle.tell()
            except OSError:
                chunk = ""
            if chunk:
                buffered += chunk
                *lines, buffered = buffered.split("\n")
                for line in lines:
                    if line.strip():
                        yield line + "\n"
            if not running:
                break
            time.sleep(EVENT_POLL_S)
        if buffered.strip():
            yield buffered + "\n"
        status = job.status if job is not None else "done"
        yield json.dumps({"kind": "serve.stream_end", "name": name, "status": status}) + "\n"


# --- transport ----------------------------------------------------------------


class _RequestReader(io.RawIOBase):
    """A connection's read side, bounded per request instead of per wait.

    Every ``recv`` waits at most until :attr:`deadline`, which the handler
    sets when it starts waiting for a request, so a client cannot stretch
    one request past :data:`READ_TIMEOUT_S` by sending a byte just before
    each wait would time out.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.deadline = 0.0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request not received within READ_TIMEOUT_S")
        self._sock.settimeout(remaining)
        return self._sock.recv_into(buffer)


class _Handler(BaseHTTPRequestHandler):
    """One client connection: the stdlib parses, :class:`SweepApi` routes.

    Where the API differs from the stdlib's defaults: a garbled request
    line gets a ``400`` status line (not silence or an HTTP/0.9 reply),
    every rejection answers with the API's JSON error body (not an HTML
    page), and every method reaches the router, which answers ``405``
    (not the stdlib's ``501``).
    """

    protocol_version = "HTTP/1.1"  # keep-alive
    default_request_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body are two writes: with Nagle on, a keep-alive
    # client waits ~40 ms for the body of every response.
    disable_nagle_algorithm = True

    def version_string(self) -> str:
        return self.server_version  # no interpreter version on the wire

    def log_message(self, format: str, *args) -> None:
        log.debug("%s " + format, self.address_string(), *args)

    def __getattr__(self, name: str):
        # The stdlib looks up ``do_<METHOD>``; route them all.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def setup(self) -> None:
        # The stdlib applies ``timeout`` to the socket here, and its
        # ``handle_one_request`` closes the connection on TimeoutError.
        self.timeout = READ_TIMEOUT_S
        super().setup()
        self.rfile.close()
        self.rfile = io.BufferedReader(_RequestReader(self.connection))

    def handle_one_request(self) -> None:
        self.rfile.raw.deadline = time.monotonic() + READ_TIMEOUT_S
        super().handle_one_request()

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the peer vanished mid-request or mid-response

    def parse_request(self) -> bool:
        # Only ``METHOD target HTTP/1.x`` is served.  Checked before the
        # stdlib's parse, which answers a blank line with silence and the
        # HTTP/0.9 forms without a status line.
        self.requestline = str(self.raw_requestline, "latin-1").rstrip("\r\n")
        self.request_version = self.default_request_version
        words = self.requestline.split()
        if len(words) != 3 or not words[2].startswith("HTTP/1."):
            self.send_error(400, "malformed request line")
            return False
        if not super().parse_request():
            return False
        # The stdlib ends the header block at a line that is not a header
        # (no colon, say) and keeps the rest as payload; reject it.
        rest = self.headers.get_payload()
        if rest:
            line = "".join(rest.partition("\n")[:2]).encode("latin-1")
            self.send_error(400, f"malformed header line {line!r}")
            return False
        return True

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        self.close_connection = True
        self._send(Response(code, {"error": message or self.responses[code][0]}))

    def _dispatch(self) -> None:
        headers = {name.lower(): value.strip() for name, value in self.headers.items()}
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            self.send_error(400, "malformed Content-Length")
            return
        if not 0 <= length <= MAX_BODY_BYTES:
            self.send_error(413, f"body larger than {MAX_BODY_BYTES} bytes")
            return
        body = self.rfile.read(length)
        if len(body) < length:
            # The client hit EOF inside the body: a torn request is
            # dropped, never dispatched.
            self.close_connection = True
            return
        try:
            split = urlsplit(self.path)
        except ValueError:
            self.send_error(400, "malformed request target")
            return
        request = Request(
            method=self.command.upper(),
            path=split.path,
            query=parse_qs(split.query),
            headers=headers,
            body=body,
        )
        self._send(self.server.api.dispatch(request))

    def _send(self, response: Response) -> None:
        # The request's deadline bounds reads only: each write gets the
        # whole timeout, so the event stream outlives it.
        self.connection.settimeout(READ_TIMEOUT_S)
        headers = dict(response.headers)
        if response.stream is not None:
            headers.setdefault("Content-Type", "application/x-ndjson")
            headers["Transfer-Encoding"] = "chunked"
            self.close_connection = True
        else:
            body = response.encode_body()
            if response.status != 304:
                content_type = (
                    "text/plain; charset=utf-8" if response.text is not None
                    else "application/json"
                )
                headers.setdefault("Content-Type", content_type)
            headers["Content-Length"] = str(len(body))
        headers["Connection"] = "close" if self.close_connection else "keep-alive"
        self.send_response(response.status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        if response.stream is None:
            self.wfile.write(body)
            return
        for text in response.stream:
            data = text.encode()
            self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))
        self.wfile.write(b"0\r\n\r\n")


def _make_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the API server; ``serve_forever()`` on the result serves it."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.api = SweepApi(service)
    return server


def serve_forever(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 8731,
    *,
    drain_timeout_s: float = 30.0,
) -> None:
    """Run the API server until SIGTERM/SIGINT, then drain and return.

    Shutdown sequence (the ``repro serve`` body):

    1. the first SIGTERM or SIGINT flips the service to *draining* --
       new ``POST /v1/sweeps`` get 503, ``/healthz`` reports
       ``draining: true`` (so load balancers rotate the node out),
       readers are unaffected and keep connecting;
    2. running sweeps are joined for up to ``drain_timeout_s``; each one
       that settles has persisted its result to the store and flushed
       its JSONL event sink.  A sweep that outlives the timeout is
       abandoned to its daemon thread -- its finished points are in the
       store cache, so resubmitting after restart resumes, not restarts;
    3. the listener closes and the function returns.

    The signal handlers are installed with :func:`signal.signal`, so
    this must run on the main thread; embed with :class:`ServerThread`
    anywhere else.
    """
    server = _make_server(service, host=host, port=port)
    log.info("serving on http://%s:%s", *server.server_address[:2])
    stop = threading.Event()
    received: list[str] = []

    def request_stop(signum: int, _frame) -> None:
        # Only record it: a handler runs between two bytecodes of the
        # main thread, which may hold any lock at that moment.
        received.append(signal.Signals(signum).name)
        stop.set()

    def drain_then_shutdown() -> None:
        stop.wait()
        log.info("received %s; beginning graceful shutdown", received[0])
        # The server keeps answering while the sweeps drain: submissions
        # get 503, readers and health checks are served as usual.
        unfinished = service.drain(drain_timeout_s)
        if unfinished:
            log.warning("exiting with %d sweep(s) unfinished: %s",
                        len(unfinished), ", ".join(sorted(unfinished)))
        else:
            log.info("drained cleanly")
        server.shutdown()

    previous = {
        signum: signal.signal(signum, request_stop)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    threading.Thread(target=drain_then_shutdown, name="repro-serve-drain", daemon=True).start()
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()


class ServerThread:
    """Run the API server on a daemon thread (tests and embedding).

    ``with ServerThread(service) as server: ...`` binds an ephemeral port
    (``server.port``), serves on a background thread and shuts the
    listener down on exit.
    """

    def __init__(self, service: SweepService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: ThreadingHTTPServer | None = None

    def start(self) -> "ServerThread":
        self._server = _make_server(self.service, host=self.host, port=self.port)
        self.port = self._server.server_address[1]
        # stop() waits up to one poll interval for the accept loop.
        threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        ).start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
