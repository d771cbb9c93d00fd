"""Fleet worker: lease, evaluate with the local cache, heartbeat, report.

A worker is a loop around four messages: ``request`` a lease, evaluate
its points under the coordinator's :class:`ExecutionPolicy` (heartbeat
thread keeping the lease alive), ``complete`` with the result rows (plus
a drained ``Telemetry.snapshot`` delta and trace delta when the
coordinator profiles), and repeat until the coordinator answers
``done``.  Evaluations go through
:func:`~repro.core.execution.evaluate_one_timed` -- the same per-point
isolation, timeout and retry machinery as every other executor -- and
an optional local :class:`~repro.core.execution.EvaluationCache` keyed
by the coordinator's fingerprint, so a re-run fleet skips points any
worker has already evaluated.

Workers obtain their evaluator one of two ways: locally spawned
processes (:func:`spawn_local_workers`) inherit the evaluator object
(over ``fork``, or as a pickle under another start method); external
workers (``repro worker --connect``) resolve the coordinator's
advertised ``spec`` via :func:`resolve_spec` and then *verify* their
evaluator's fingerprint against the coordinator's -- a worker computing
against the wrong corpus or seed refuses to serve rather than poisoning
the sweep.

Chaos plans (:mod:`repro.fleet.chaos`) hook the exact points where real
fleets fail: after N evaluated points (SIGKILL), around heartbeats
(silence), before completion (late delivery), after a lease arrives
(partition + reconnect).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import socket
import threading
import time
from typing import Callable

from repro.core import flight
from repro.core.execution import (
    EvaluationCache,
    ExecutionPolicy,
    evaluate_one_timed,
    evaluator_fingerprint,
)
from repro.core.resources import ResourceSampler
from repro.core.telemetry import NULL, Telemetry, activate
from repro.core.tracing import DEFAULT_MAX_TRACE_EVENTS, Tracer
from repro.fleet import protocol
from repro.fleet.chaos import ChaosPlan

log = logging.getLogger("repro.fleet.worker")


def resolve_spec(spec: dict) -> Callable:
    """Build an evaluator from a coordinator-advertised recipe.

    The one kind names a runner preset::

        {"kind": "scale", "scale": "smoke"}

    and the worker rebuilds the paper harness for that preset (each
    worker regenerates the corpus deterministically from the preset's
    seed).  A spec names data, never code: any other kind, or a scale
    that is not a key of :data:`repro.experiments.runner.SCALES`, raises
    ``ValueError`` before anything is built.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"evaluator spec must be a dict with 'kind', got {spec!r}")
    if spec["kind"] != "scale":
        raise ValueError(f"unknown evaluator spec kind {spec['kind']!r}; the one kind is 'scale'")
    from repro.experiments.runner import make_harness

    # make_harness rejects a name that is not a key of SCALES.
    return make_harness(str(spec.get("scale"))).evaluator


class FleetWorker:
    """One worker process's connection to a coordinator.

    ``run()`` blocks until the coordinator reports the sweep done (or
    the connection is lost with reconnection exhausted) and returns an
    accounting dict: chunks completed, points evaluated, cache hits,
    evaluator calls.  The evaluator-call count is the currency of the
    exactly-once acceptance test -- summed across workers it must equal
    the number of distinct points evaluated, chaos or no chaos.
    """

    def __init__(
        self,
        endpoint: tuple[str, int],
        evaluator: Callable | None = None,
        *,
        label: str | None = None,
        cache_dir: str | None = None,
        chaos: ChaosPlan | None = None,
        connect_timeout_s: float = 10.0,
    ):
        self.endpoint = (str(endpoint[0]), int(endpoint[1]))
        self.evaluator = evaluator
        self.label = label or f"{socket.gethostname()}:{os.getpid()}"
        self.cache = EvaluationCache(cache_dir) if cache_dir else None
        self.chaos = chaos or ChaosPlan()
        self.connect_timeout_s = float(connect_timeout_s)
        self.stats = {
            "chunks": 0,
            "points": 0,
            "cache_hits": 0,
            "evaluator_calls": 0,
            "reconnects": 0,
        }
        self._points_seen = 0
        self._chunks_seen = 0
        self._sock: socket.socket | None = None
        self._reader = None
        self._writer = None
        self._write_lock = threading.Lock()
        #: Estimated coordinator-minus-local clock offset (sync exchange).
        self.clock_offset_s = 0.0
        self.sync_rtt_s = 0.0
        #: Per-worker sink: the no-op NULL unless the welcome asks for
        #: telemetry (and tracing) to be shipped home.
        self.telemetry: Telemetry = NULL

    # --- connection plumbing --------------------------------------------------

    def _connect(self) -> dict:
        """Dial the coordinator (with retry) and complete the handshake.

        Retry-with-deadline matters in both real and test topologies:
        workers routinely start before the coordinator binds its port.
        """
        deadline = time.monotonic() + self.connect_timeout_s
        while True:
            try:
                self._sock = socket.create_connection(self.endpoint, timeout=None)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        # Completions are long lines; see FleetCoordinator._accept_loop.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._writer = self._sock.makefile("w", encoding="utf-8", newline="\n")
        self._send(
            {
                "type": "hello",
                "protocol": protocol.PROTOCOL_VERSION,
                "label": self.label,
            }
        )
        welcome = protocol.recv_message(self._reader, expect=("welcome", "error"))
        if welcome is None:
            raise protocol.ProtocolError("coordinator closed during handshake")
        if welcome["type"] == "error":
            raise protocol.ProtocolError(f"coordinator refused: {welcome.get('error')}")
        if welcome.get("protocol") != protocol.PROTOCOL_VERSION:
            raise protocol.ProtocolError(
                f"coordinator speaks protocol {welcome.get('protocol')!r}, "
                f"this worker speaks {protocol.PROTOCOL_VERSION}"
            )
        self._sync_clock()
        return welcome

    def _sync_clock(self) -> None:
        """NTP-style probe: estimate the coordinator-minus-local offset.

        ``t0`` (local send) and ``t2`` (local receive) bracket the
        coordinator's ``t1``; assuming symmetric network delay the
        coordinator clock at the midpoint reads ``t1``, so the offset is
        ``t1 - (t0 + t2) / 2``.  The estimate is stamped on every trace
        snapshot this worker ships (re-measured after each reconnect),
        which is what lets the coordinator merge lanes from machines
        whose wall clocks disagree.
        """
        t0 = time.time()
        self._send({"type": "sync"})
        ack = protocol.recv_message(self._reader, expect=("sync_ack", "error"))
        t2 = time.time()
        if ack is None or ack["type"] == "error":
            raise protocol.ProtocolError("coordinator failed the clock sync")
        t1 = protocol.decode_sync_time(ack)
        self.clock_offset_s = t1 - (t0 + t2) / 2.0
        self.sync_rtt_s = max(0.0, t2 - t0)
        if self.telemetry.tracer is not None:
            self.telemetry.tracer.clock_offset_s = self.clock_offset_s

    def _send(self, payload: dict) -> None:
        with self._write_lock:
            protocol.send_message(self._writer, payload)

    def _disconnect(self) -> None:
        for closer in (self._reader, self._writer, self._sock):
            try:
                if closer is not None:
                    closer.close()
            except OSError:
                pass
        self._sock = self._reader = self._writer = None

    # --- the work loop --------------------------------------------------------

    def run(self) -> dict:
        """Serve leases until the coordinator says done; returns stats."""
        welcome = self._connect()
        policy = ExecutionPolicy(**welcome["policy"])
        heartbeat_s = float(welcome.get("heartbeat_interval_s") or 1.0)
        fingerprint = str(welcome["fingerprint"])
        evaluator = self.evaluator
        if evaluator is None:
            spec = welcome.get("spec")
            if spec is None:
                raise protocol.ProtocolError(
                    "coordinator advertised no evaluator spec and this worker "
                    "was started without a local evaluator"
                )
            evaluator = resolve_spec(spec)
        local_fingerprint = evaluator_fingerprint(evaluator)
        if local_fingerprint != fingerprint:
            self._send({"type": "bye"})
            raise protocol.ProtocolError(
                f"evaluator fingerprint mismatch: coordinator={fingerprint[:16]}... "
                f"local={local_fingerprint[:16]}... (different corpus/seed/config?)"
            )
        telemetry_config = welcome.get("telemetry") or {}
        sampler = None
        if telemetry_config.get("enabled"):
            tracer = None
            if telemetry_config.get("trace"):
                tracer = Tracer(
                    label=self.label,
                    max_events=int(
                        telemetry_config.get("max_trace_events")
                        or DEFAULT_MAX_TRACE_EVENTS
                    ),
                )
                tracer.clock_offset_s = self.clock_offset_s
            self.telemetry = Telemetry(tracer=tracer)
            sampler = ResourceSampler(self.telemetry, label=self.label).start()
        try:
            while True:
                try:
                    self._send({"type": "request"})
                except OSError:
                    # The socket died between chunks (coordinator shut
                    # down after our last completion, most likely).
                    log.warning("%s: coordinator went away; exiting", self.label)
                    return self.stats
                message = protocol.recv_message(
                    self._reader, expect=("lease", "wait", "done")
                )
                if message is None:
                    # EOF instead of a reply: the coordinator went away.
                    # Most often the sweep just finished and its shutdown
                    # raced our request (the explorer closes connections
                    # right after the last point is finalised); a crashed
                    # coordinator looks the same, and either way there is
                    # nothing left for this worker to serve.
                    log.warning("%s: coordinator went away; exiting", self.label)
                    return self.stats
                if message["type"] == "done":
                    self._send({"type": "bye"})
                    return self.stats
                if message["type"] == "wait":
                    time.sleep(float(message.get("delay_s", 0.05)))
                    continue
                if self.chaos.partition_on_chunk == self._chunks_seen:
                    self._chunks_seen += 1
                    self._partition_and_reconnect()
                    continue
                self._serve_lease(message, evaluator, fingerprint, policy, heartbeat_s)
        finally:
            if sampler is not None:
                sampler.stop()
            self._disconnect()

    def _partition_and_reconnect(self) -> None:
        """Chaos: drop the socket with a lease in hand, then come back."""
        log.warning("%s: chaos partition (reconnecting)", self.label)
        self._disconnect()
        time.sleep(self.chaos.partition_reconnect_s)
        self.stats["reconnects"] += 1
        self._connect()

    def _serve_lease(
        self,
        lease: dict,
        evaluator: Callable,
        fingerprint: str,
        policy: ExecutionPolicy,
        heartbeat_s: float,
    ) -> None:
        lease_id = str(lease["lease"])
        chunk = protocol.decode_chunk(lease["points"])
        chunk_ordinal = self._chunks_seen
        self._chunks_seen += 1
        silenced = self.chaos.drop_heartbeats_on_chunk == chunk_ordinal
        stop_beating = threading.Event()
        beater: threading.Thread | None = None
        if not silenced:
            beater = threading.Thread(
                target=self._heartbeat_loop,
                args=(lease_id, heartbeat_s, stop_beating),
                name="fleet-heartbeat",
                daemon=True,
            )
            beater.start()
        tel = self.telemetry
        flight.record(
            "fleet.worker.lease",
            label=self.label,
            lease=lease_id,
            chunk=lease.get("chunk_id"),
            points=len(chunk),
        )
        # Parent this worker's lease span under the coordinator's
        # ``fleet.run`` span (the lease carries the trace context), so the
        # merged trace links every worker lane back to the driver.
        trace_context = lease.get("trace") or {}
        lease_token = None
        if tel.tracer is not None:
            lease_token = tel.tracer.start(
                "fleet.worker.lease",
                lease=lease_id,
                chunk=lease.get("chunk_id"),
                trace_id=trace_context.get("id"),
            )
            if lease_token.parent_id is None and trace_context.get("parent"):
                lease_token.parent_id = str(trace_context["parent"])
        rows: list[tuple] = []
        try:
            with activate(tel):
                for index, point in chunk:
                    cached = (
                        self.cache.get(fingerprint, point) if self.cache else None
                    )
                    if cached is not None:
                        self.stats["cache_hits"] += 1
                        tel.count("fleet.worker.cache_hits")
                        rows.append((index, cached, 0.0, {"retries": 0, "timeouts": 0}))
                    else:
                        self.stats["evaluator_calls"] += 1
                        tel.count("fleet.worker.evaluator_calls")
                        with tel.span("explore.point", index=index):
                            evaluation, elapsed_s, stats = evaluate_one_timed(
                                evaluator, point, strict=False, policy=policy
                            )
                        if self.cache is not None:
                            self.cache.put(fingerprint, point, evaluation)
                        rows.append((index, evaluation, elapsed_s, stats))
                    self.stats["points"] += 1
                    self._points_seen += 1
                    if self.chaos.kill_after_points == self._points_seen:
                        # A real crash: no goodbye, no completion, no
                        # flush.  SIGKILL cannot be caught or delayed.
                        log.warning("%s: chaos SIGKILL", self.label)
                        os.kill(os.getpid(), signal.SIGKILL)
        except Exception as error:  # noqa: BLE001 - report, then drop the lease
            stop_beating.set()
            flight.record(
                "fleet.worker.fail",
                label=self.label,
                lease=lease_id,
                error=repr(error),
            )
            self._send({"type": "fail", "lease": lease_id, "error": repr(error)})
            protocol.recv_message(self._reader, expect=("ack",))
            return
        finally:
            stop_beating.set()
            if lease_token is not None and tel.tracer is not None:
                tel.tracer.finish(lease_token)
            if beater is not None:
                beater.join(timeout=heartbeat_s + 1.0)
        if silenced and self.chaos.complete_delay_s > 0:
            time.sleep(self.chaos.complete_delay_s)
        completion = {
            "type": "complete",
            "lease": lease_id,
            "chunk_digest": lease["chunk_digest"],
            "rows": protocol.encode_rows(rows),
        }
        if tel.enabled:
            completion["telemetry"] = tel.snapshot(drain=True)
        if tel.tracer is not None:
            completion["trace"] = tel.tracer.snapshot(drain=True)
        self._send(completion)
        ack = protocol.recv_message(self._reader, expect=("ack",))
        if ack is None:
            # Lost ack: the rows were written out before the connection
            # died, and if this chunk closed out the sweep the
            # coordinator acks-then-shuts-down faster than we read.
            # Either the coordinator merged them (fine) or it died and
            # the lease will be requeued to someone else (also fine) --
            # never an error on the worker.
            log.warning(
                "%s: coordinator went away before acking %s", self.label, lease_id
            )
        self.stats["chunks"] += 1
        flight.record(
            "fleet.worker.complete",
            label=self.label,
            lease=lease_id,
            points=len(rows),
        )

    def _heartbeat_loop(
        self, lease_id: str, interval_s: float, stop: threading.Event
    ) -> None:
        while not stop.wait(interval_s):
            payload = {"type": "heartbeat", "lease": lease_id}
            # Piggyback drained trace deltas so a long chunk streams its
            # spans home while still running (the coordinator absorbs
            # them without replying -- heartbeats are one-way).
            tracer = self.telemetry.tracer
            if tracer is not None and tracer.n_events:
                payload["trace"] = tracer.snapshot(drain=True)
            try:
                self._send(payload)
            except (OSError, ValueError, AttributeError):
                return  # connection is gone; the main loop will notice


# --- local process spawning ---------------------------------------------------


def _worker_process_main(
    endpoint: tuple[str, int],
    evaluator: Callable | None,
    label: str,
    cache_dir: str | None,
    chaos: ChaosPlan | None,
    connect_timeout_s: float,
) -> None:
    """Entry point of a spawned local worker process."""
    logging.basicConfig(level=logging.WARNING)
    try:
        FleetWorker(
            endpoint,
            evaluator,
            label=label,
            cache_dir=cache_dir,
            chaos=chaos,
            connect_timeout_s=connect_timeout_s,
        ).run()
    except (protocol.ProtocolError, OSError) as error:
        # Expected when the coordinator finishes or dies first; a worker
        # is disposable by design.
        log.warning("%s exiting: %s", label, error)


def spawn_local_workers(
    n_workers: int,
    endpoint: tuple[str, int],
    evaluator: Callable | None = None,
    *,
    cache_dir: str | None = None,
    plans: tuple[ChaosPlan | None, ...] = (),
    connect_timeout_s: float = 10.0,
    first: int = 0,
) -> list[multiprocessing.Process]:
    """Start ``n_workers`` local worker processes against ``endpoint``.

    Workers start with the interpreter's start method.  Fork (the Linux
    default up to Python 3.13) hands each child the evaluator object
    without pickling, so the corpus array crosses once, as shared pages;
    spawn and forkserver pickle it, so the evaluator must be picklable.
    Workers are labelled ``worker-<first + i>``, and ``plans[i]`` (when
    provided) scripts worker *i*'s chaos.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    ctx = multiprocessing.get_context()
    processes = []
    for i in range(n_workers):
        plan = plans[i] if i < len(plans) else None
        label = f"worker-{first + i}"
        process = ctx.Process(
            target=_worker_process_main,
            args=(endpoint, evaluator, label, cache_dir, plan, connect_timeout_s),
            name=f"repro-fleet-{label}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
