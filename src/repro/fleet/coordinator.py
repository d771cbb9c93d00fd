"""Fleet coordinator: lease-based chunk distribution with dead-worker recovery.

The coordinator owns the sweep's ground truth -- which point indices are
done -- and rents out everything else.  Work is sharded into chunks
(:func:`~repro.core.execution.chunk_pending`, same sizing as the thread
executor) and granted to workers as **leases**: a chunk, a wall-clock
deadline, and the evaluator fingerprint.  Heartbeats extend the
deadline; a lease that goes silent past it is *expired* and its
unfinished points are requeued.  The failure ladder is the sweep's
only crash recovery (``executor="process"`` runs on a fleet):

1. expiry / worker disconnect / reported failure -> requeue the chunk
   (bounded by ``max_requeues``);
2. a multi-point chunk over budget -> split into single-point chunks,
   each with one remaining attempt, so the next death names the poison
   point exactly;
3. a single point over budget -> **quarantine**: it is finalised as a
   failed :class:`~repro.core.results.Evaluation` naming the point, and
   the sweep completes without it.

Completions deduplicate at point-index granularity: a worker whose
lease expired mid-evaluation may still deliver late, and whichever
completion lands first wins -- every point is finalised exactly once,
so a chaos run merges to the same result set as a single-host sweep.
Finalisation happens through the caller-supplied callback (the
explorer's cache/checkpoint/telemetry hook), so checkpoint resume after
a coordinator kill works unchanged: finished points are on disk,
unfinished ones re-shard on the next run.  A finalize hook that raises
(a full disk under the checkpoint, a strict sweep's failed point) stops
the grants, and :meth:`FleetCoordinator.run` re-raises its first error.

Everything is plain threads over blocking sockets: one acceptor, one
handler thread per worker connection, and lease expiry swept from the
:meth:`FleetCoordinator.run` loop.  All shared state mutates under one
lock; the telemetry sink has its own.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

from repro.core import flight
from repro.core.execution import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    chunk_pending,
)
from repro.core.results import Evaluation
from repro.core.telemetry import Telemetry, get_active
from repro.fleet import protocol
from repro.power.technology import DesignPoint

log = logging.getLogger("repro.fleet")

#: Default lease wall-clock budget; generous for smoke-scale points.
DEFAULT_LEASE_TIMEOUT_S = 30.0

#: Requeue budget per chunk before the poison ladder escalates.
DEFAULT_MAX_REQUEUES = 2

#: Trace-event bound advertised to workers (each ships drained deltas on
#: heartbeats/completions, so the worker-side buffer stays small).
WORKER_TRACE_MAX_EVENTS = 20_000


@dataclass
class Lease:
    """One granted chunk: who holds it, until when, and what exactly."""

    lease_id: str
    chunk_id: int
    worker: str
    deadline: float  # time.monotonic() horizon, extended by heartbeats
    chunk_digest: str
    #: index -> every granted point.
    points: dict[int, DesignPoint]

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass
class FleetReport:
    """Accounting of one fleet run (the manifest's ``fleet`` section)."""

    points_total: int = 0
    points_completed: int = 0
    points_quarantined: int = 0
    chunks: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    requeues: int = 0
    splits: int = 0
    duplicates_dropped: int = 0
    worker_failures: int = 0
    #: label -> {"chunks": n, "points": n, "disconnects": n}
    workers: dict = field(default_factory=dict)
    #: Quarantined poison points: {"index", "point", "reason"}.
    quarantined: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


class LeaseTable:
    """The coordinator's pure lease state machine (no sockets, no threads).

    Callers hold their own lock; the table itself is not thread-safe.
    Keeping it socket-free makes the recovery ladder unit-testable at
    interactive speed -- the chaos suite exercises the same transitions
    end-to-end over real connections.
    """

    def __init__(
        self,
        chunks: list[list[tuple[int, DesignPoint]]],
        *,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        clock: Callable[[], float] = time.monotonic,
    ):
        if lease_timeout_s <= 0:
            raise ValueError(f"lease_timeout_s must be > 0, got {lease_timeout_s}")
        if max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {max_requeues}")
        self.lease_timeout_s = float(lease_timeout_s)
        self.max_requeues = int(max_requeues)
        self.clock = clock
        self.chunks: dict[int, list[tuple[int, DesignPoint]]] = {
            i: list(chunk) for i, chunk in enumerate(chunks)
        }
        self.queue: deque[int] = deque(self.chunks)
        self.leases: dict[str, Lease] = {}
        #: Every lease granted, kept after expiry so a late completion
        #: can still be validated and deduplicated.
        self.lease_history: dict[str, Lease] = {}
        self.requeues: dict[int, int] = dict.fromkeys(self.chunks, 0)
        self.done: set[int] = set()
        self.points: dict[int, DesignPoint] = {
            index: point for chunk in chunks for index, point in chunk
        }
        self.report = FleetReport(
            points_total=len(self.points), chunks=len(self.chunks)
        )

    @property
    def all_done(self) -> bool:
        return len(self.done) >= len(self.points)

    def grant(self, worker: str) -> tuple[Lease, list[tuple[int, DesignPoint]]] | None:
        """Lease the next chunk with unfinished points to ``worker``."""
        while self.queue:
            chunk_id = self.queue.popleft()
            remaining = [
                (index, point)
                for index, point in self.chunks[chunk_id]
                if index not in self.done
            ]
            if not remaining:
                continue
            self.chunks[chunk_id] = remaining
            self.report.leases_granted += 1
            lease = Lease(
                lease_id=f"lease-{self.report.leases_granted:06d}",
                chunk_id=chunk_id,
                worker=worker,
                deadline=self.clock() + self.lease_timeout_s,
                chunk_digest=protocol.chunk_digest(remaining),
                points=dict(remaining),
            )
            self.leases[lease.lease_id] = self.lease_history[lease.lease_id] = lease
            return lease, remaining
        return None

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease's deadline; ``False`` if it already expired."""
        lease = self.leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = self.clock() + self.lease_timeout_s
        return True

    def complete(
        self, lease_id: str, rows: list[tuple[int, Evaluation, float, dict]]
    ) -> tuple[list[tuple[int, Evaluation, float, dict]], int]:
        """Merge a completion; returns (fresh rows, duplicate count).

        Accepts completions from expired leases (the worker was slow,
        not wrong); index-level dedup guarantees exactly-once merging
        whichever copy arrives first.  Unknown leases are rejected, and
        so is a completion with any row the lease did not grant (an
        index outside the lease, or an evaluation of another point),
        before any row is merged.
        """
        granted = self.lease_history.get(lease_id)
        if granted is None:
            raise protocol.ProtocolError(f"completion for unknown lease {lease_id!r}")
        for index, evaluation, _elapsed_s, _stats in rows:
            if granted.points.get(index) != evaluation.point:
                raise protocol.ProtocolError(
                    f"completion row {index} ({evaluation.point.describe()}) "
                    f"was not granted by lease {lease_id!r}"
                )
        self.leases.pop(lease_id, None)
        fresh = []
        for row in rows:
            if row[0] not in self.done:
                self.done.add(row[0])
                fresh.append(row)
        duplicates = len(rows) - len(fresh)
        self.report.points_completed += len(fresh)
        self.report.duplicates_dropped += duplicates
        return fresh, duplicates

    def release_worker(self, worker: str) -> list[dict]:
        """Requeue every lease held by a vanished worker (disconnect)."""
        events: list[dict] = []
        for lease in [x for x in self.leases.values() if x.worker == worker]:
            del self.leases[lease.lease_id]
            events.extend(self._requeue(lease, "worker disconnected"))
        return events

    def fail(self, lease_id: str, reason: str) -> list[dict]:
        """A worker reported it cannot finish the lease; requeue now."""
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return []
        self.report.worker_failures += 1
        return self._requeue(lease, f"worker failure: {reason}")

    def expire(self, now: float | None = None) -> list[dict]:
        """Requeue every lease whose deadline has passed."""
        now = self.clock() if now is None else now
        events: list[dict] = []
        for lease in [x for x in self.leases.values() if x.deadline < now]:
            del self.leases[lease.lease_id]
            self.report.leases_expired += 1
            events.extend(self._requeue(lease, "lease expired"))
        return events

    def _requeue(self, lease: Lease, reason: str) -> list[dict]:
        """The recovery ladder: requeue -> split -> quarantine.

        Returns event dicts for the telemetry trail; quarantine events
        carry the poisoned ``index`` so the coordinator can finalise a
        failed evaluation for it.
        """
        chunk_id = lease.chunk_id
        remaining = [
            (index, point)
            for index, point in self.chunks[chunk_id]
            if index not in self.done
        ]
        base = {"lease": lease.lease_id, "chunk": chunk_id, "reason": reason}
        if not remaining:
            return []  # a racing completion already finished the chunk
        self.requeues[chunk_id] += 1
        if self.requeues[chunk_id] <= self.max_requeues:
            self.chunks[chunk_id] = remaining
            self.queue.append(chunk_id)
            self.report.requeues += 1
            return [{"action": "requeue", "n_points": len(remaining), **base}]
        if len(remaining) > 1:
            # Over budget as a group: isolate.  Each single-point chunk
            # gets exactly one more attempt before quarantine.
            events = [{"action": "split", "n_points": len(remaining), **base}]
            self.chunks[chunk_id] = []
            for index, point in remaining:
                new_id = max(self.chunks) + 1
                self.chunks[new_id] = [(index, point)]
                self.requeues[new_id] = self.max_requeues
                self.queue.append(new_id)
            self.report.splits += 1
            self.report.chunks = len(self.chunks)
            return events
        index, point = remaining[0]
        self.done.add(index)
        self.chunks[chunk_id] = []
        detail = (
            f"PoisonChunk: point {point.describe()} leased "
            f"{self.requeues[chunk_id]} times without completion "
            f"(last failure: {reason}); quarantined"
        )
        self.report.points_quarantined += 1
        self.report.quarantined.append(
            {"index": index, "point": point.describe(), "reason": detail}
        )
        return [{"action": "quarantine", "index": index, "detail": detail, **base}]


@dataclass
class FleetOptions:
    """Fleet of a ``"process"`` sweep (``explore(fleet=FleetOptions(...))``).

    ``spawn_workers`` forks that many local worker processes against the
    coordinator's endpoint -- the processes-as-nodes mode the tests and
    CI use; 0 means external workers will connect on their own
    (``repro worker --connect``).  ``spec`` is the evaluator recipe
    advertised to external workers (see
    :func:`repro.fleet.worker.resolve_spec`); local spawned workers
    inherit the evaluator object directly over ``fork``.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 -> ephemeral; the bound port is in .endpoint
    spawn_workers: int = 3
    spec: dict | None = None
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S
    heartbeat_interval_s: float | None = None  # default: lease_timeout_s / 3
    max_requeues: int = DEFAULT_MAX_REQUEUES
    worker_cache_dir: str | None = None
    #: Fair-start gate: hold early grants so the first N *distinct*
    #: workers each receive one of the first N leases before any worker
    #: gets a second.  Without it, one fast worker can drain a cheap
    #: queue before its siblings finish connecting -- harmless for
    #: throughput, fatal for chaos determinism and load spreading.
    #: ``None``/0 disables; capped at the chunk count of the run.
    wait_for_workers: int | None = None
    #: Per-worker chaos plans for spawned workers (tests/CI only).
    chaos_plans: tuple = ()
    #: Chaos hook: raise KeyboardInterrupt after N finalised points, to
    #: exercise coordinator-kill + checkpoint-resume in-process.
    interrupt_after_points: int | None = None


class FleetCoordinator:
    """TCP server renting sweep chunks to workers under leases.

    Lifecycle::

        with FleetCoordinator(fingerprint, policy=policy, telemetry=tel) as co:
            procs = spawn_local_workers(3, co.endpoint, evaluator=ev)
            report = co.run(pending, finalize, n_workers=3)

    ``run`` blocks until every point index is finalised (completed or
    quarantined).  ``finalize(index, evaluation, elapsed_s, stats)`` is
    invoked under the coordinator lock in completion order -- the
    explorer's hook appends to the checkpoint, fills the cache and
    updates progress, exactly as the serial path does.  Its first
    exception stops the grants and is re-raised by ``run``.
    """

    def __init__(
        self,
        fingerprint: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spec: dict | None = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        heartbeat_interval_s: float | None = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        wait_for_workers: int | None = None,
        policy: ExecutionPolicy = DEFAULT_POLICY,
        telemetry: Telemetry | None = None,
    ):
        self.fingerprint = fingerprint
        self.spec = spec
        self.wait_for_workers = int(wait_for_workers or 0)
        self.lease_timeout_s = float(lease_timeout_s)
        self.heartbeat_interval_s = (
            float(heartbeat_interval_s)
            if heartbeat_interval_s is not None
            else self.lease_timeout_s / 3.0
        )
        self.max_requeues = int(max_requeues)
        self.policy = policy
        self.telemetry = telemetry if telemetry is not None else get_active()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._table: LeaseTable | None = None
        self._finalize: Callable | None = None
        self._interrupt_after: int | None = None
        self._interrupted = False
        self._finalize_error: BaseException | None = None
        self._closing = False
        self._fair_start_granted: set[str] = set()
        self._fair_start_left = 0
        #: Trace context stamped into every lease: one id per sweep, the
        #: parent span id of the live ``fleet.run`` span (None when the
        #: attached telemetry has no tracer).
        self._trace_id = f"fleet-{fingerprint[:12]}"
        self._trace_parent: str | None = None
        self._session_counter = 0
        self._sessions: set[socket.socket] = set()
        self._server = socket.create_server((host, port))
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._acceptor.start()

    @property
    def endpoint(self) -> tuple[str, int]:
        """The bound (host, port) workers should connect to."""
        return self._server.getsockname()[:2]

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting, drop every worker connection."""
        self._closing = True
        # close() alone leaves an accept() blocked in the acceptor thread,
        # which keeps the port listening until one more worker connects;
        # shutdown() wakes it.
        for stop in (partial(self._server.shutdown, socket.SHUT_RDWR), self._server.close):
            try:
                stop()
            except OSError:  # already closed
                pass
        self._acceptor.join(timeout=5.0)
        with self._lock:
            sessions = list(self._sessions)
        for sock in sessions:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # --- the run loop ---------------------------------------------------------

    def run(
        self,
        pending: list[tuple[int, DesignPoint]],
        finalize: Callable[[int, Evaluation, float, dict], None],
        *,
        n_workers: int = 1,
        chunk_size: int | None = None,
        interrupt_after_points: int | None = None,
        supervise: Callable[[], None] | None = None,
    ) -> FleetReport:
        """Distribute ``pending`` and block until every index is finalised.

        ``supervise()`` runs on every poll while points remain (the
        explorer replaces exited local workers there).  The first
        exception a ``finalize`` call raised is re-raised here.
        """
        chunks = chunk_pending(pending, max(1, n_workers), chunk_size)
        tel = self.telemetry
        with self._lock:
            self._table = LeaseTable(
                chunks,
                lease_timeout_s=self.lease_timeout_s,
                max_requeues=self.max_requeues,
            )
            self._finalize = finalize
            self._interrupt_after = interrupt_after_points
            self._interrupted = False
            self._finalize_error = None
            # The fair-start gate cannot wait for more workers than
            # there are chunks to hand out (a resumed run may have a
            # tiny remainder), or held workers would stall the sweep.
            self._fair_start_granted = set()
            self._fair_start_left = min(self.wait_for_workers, len(chunks))
            table = self._table
        tel.count("fleet.chunks", len(chunks))
        tel.event(
            "fleet.start",
            points=len(pending),
            chunks=len(chunks),
            lease_timeout_s=self.lease_timeout_s,
        )
        # Sweep expiries from here rather than a dedicated reaper thread:
        # the wait is idle time anyway, and it keeps every lease decision
        # on one thread family (this one + connection handlers).
        poll_s = max(0.01, min(0.25, self.lease_timeout_s / 4.0))
        with tel.span("fleet.run"):
            if tel.tracer is not None:
                # Captured on this thread, inside the span: leases carry
                # it so worker lease spans parent under fleet.run.
                self._trace_parent = tel.tracer.current_span_id()
            try:
                while True:
                    with self._lock:
                        if self._finalize_error is not None:
                            raise self._finalize_error
                        if self._interrupted:
                            raise KeyboardInterrupt("fleet chaos interrupt")
                        if table.all_done:
                            break
                        events = table.expire()
                        self._finalize_quarantined(events)
                    self._emit_lease_events(events)
                    if supervise is not None:
                        supervise()
                    self._wake.wait(poll_s)
                    self._wake.clear()
            finally:
                self._trace_parent = None
        report = table.report
        tel.count("fleet.points.completed", report.points_completed)
        tel.event("fleet.report", **report.to_dict())
        return report

    def _emit_lease_events(self, events: list[dict]) -> None:
        tel = self.telemetry
        for event in events:
            action = event["action"]
            tel.count(f"fleet.leases.{action}")
            tel.event("fleet.lease", **event)
            if not tel.enabled:
                # Telemetry events normally reach the flight ring through
                # the Telemetry.event tap; keep the postmortem trail alive
                # for unprofiled runs too.
                flight.record("fleet.lease", **event)
            if action in ("requeue", "split"):
                # A lost/silent worker is a postmortem-worthy incident
                # even though the sweep recovers: dump the recent trail.
                flight.dump(
                    "fleet-worker-lost",
                    detail=str(event.get("reason", "")),
                    lease=event.get("lease"),
                    chunk=event.get("chunk"),
                    action=action,
                )
            if action == "quarantine":
                flight.dump(
                    "fleet-quarantine",
                    detail=str(event.get("detail", "")),
                    lease=event.get("lease"),
                    index=event.get("index"),
                )
                log.warning(
                    "fleet quarantined point %d: %s", event["index"], event["detail"]
                )
                self._wake.set()

    def _finalize_quarantined(self, events: list[dict]) -> None:
        """Finalise the points ``events`` quarantined.

        Called in the lock hold that marked them done, or :meth:`run`
        could see the sweep done with a point unfinalised.
        """
        for event in events:
            if event["action"] == "quarantine":
                index = event["index"]
                self._finalize_row(
                    index,
                    Evaluation(
                        point=self._table.points[index], metrics={}, error=event["detail"]
                    ),
                    0.0,
                    {"retries": 0, "timeouts": 0},
                )

    def _finalize_row(
        self, index: int, evaluation: Evaluation, elapsed_s: float, stats: dict
    ) -> None:
        """Hand one finished point to ``finalize`` (caller holds the lock).

        On a connection thread an exception would only drop the worker:
        keep the first for :meth:`run` to re-raise, and finalise no more.
        """
        if self._finalize is None or self._finalize_error is not None:
            return
        try:
            self._finalize(index, evaluation, elapsed_s, stats)
        except BaseException as error:  # noqa: BLE001 - re-raised by run()
            self._finalize_error = error
            self._wake.set()

    # --- connection handling --------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:  # listener closed
                return
            # Nagle would hold a reply's tail segment until the worker's
            # delayed ACK: tens of milliseconds per long line.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._sessions.add(sock)
            threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="fleet-session",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        tel = self.telemetry
        worker = "<unknown>"
        session: str | None = None
        reader = sock.makefile("r", encoding="utf-8", newline="\n")
        writer = sock.makefile("w", encoding="utf-8", newline="\n")
        try:
            hello = protocol.recv_message(reader, expect=("hello",))
            if hello is None:
                return
            if hello.get("protocol") != protocol.PROTOCOL_VERSION:
                protocol.send_message(
                    writer,
                    {
                        "type": "error",
                        "error": (
                            f"protocol {hello.get('protocol')!r} != "
                            f"{protocol.PROTOCOL_VERSION}"
                        ),
                    },
                )
                return
            worker = str(hello.get("label") or "worker")
            # Leases are owned by the *session*, not the label: a worker
            # that reconnects after a partition must not have its fresh
            # lease requeued when the stale connection's handler finally
            # notices the old socket died.
            with self._lock:
                self._session_counter += 1
                session = f"{worker}#{self._session_counter}"
            tel.count("fleet.workers.connected")
            tel.event("fleet.worker", action="connect", worker=worker)
            protocol.send_message(
                writer,
                {
                    "type": "welcome",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "fingerprint": self.fingerprint,
                    "spec": self.spec,
                    "policy": asdict(self.policy),
                    "heartbeat_interval_s": self.heartbeat_interval_s,
                    # Tell the worker what to ship home: telemetry deltas
                    # and, when the driver is tracing, its own bounded
                    # Tracer whose spans merge into per-worker lanes.
                    "telemetry": {
                        "enabled": bool(tel.enabled),
                        "trace": tel.tracer is not None,
                        "max_trace_events": WORKER_TRACE_MAX_EVENTS,
                    },
                },
            )
            while True:
                message = protocol.recv_message(
                    reader,
                    expect=(
                        "sync",
                        "request",
                        "heartbeat",
                        "complete",
                        "fail",
                        "bye",
                    ),
                )
                if message is None or message["type"] == "bye":
                    return
                reply = self._dispatch(worker, session, message)
                if reply is not None:
                    protocol.send_message(writer, reply)
        except (protocol.ProtocolError, OSError, ValueError) as error:
            # ValueError covers a writer used after close(); protocol
            # errors and socket resets both mean this worker is gone.
            if not self._closing:
                log.warning("fleet connection to %s dropped: %s", worker, error)
        finally:
            with self._lock:
                self._sessions.discard(sock)
                table = self._table
                events = (
                    table.release_worker(session) if table and session else []
                )
                self._finalize_quarantined(events)
                if table and worker in table.report.workers:
                    table.report.workers[worker]["disconnects"] += 1
            self._emit_lease_events(events)
            tel.event("fleet.worker", action="disconnect", worker=worker)
            self._wake.set()
            # The socket closes only once its file objects are closed too.
            for stream in (reader, writer, sock):
                try:
                    stream.close()
                except OSError:  # pragma: no cover - already closed
                    pass

    def _dispatch(self, worker: str, session: str, message: dict) -> dict | None:
        kind = message["type"]
        if kind == "sync":
            # Clock probe: our receive time lets the worker estimate the
            # coordinator-minus-worker offset.
            return {"type": "sync_ack", "t1": time.time()}
        if kind == "request":
            return self._handle_request(worker, session)
        if kind == "heartbeat":
            return self._handle_heartbeat(worker, message)
        if kind == "complete":
            return self._handle_complete(worker, message)
        return self._handle_fail(worker, message)

    def _handle_request(self, worker: str, session: str) -> dict:
        tel = self.telemetry
        with self._lock:
            table = self._table
            if table is None:
                # The sweep has not started (worker connected early).
                return {"type": "wait", "delay_s": 0.05}
            if self._interrupted or self._finalize_error is not None:
                # The run loop is about to raise: leases granted now
                # would let fast workers finish points past the interrupt.
                return {"type": "wait", "delay_s": 0.05}
            if table.all_done:
                return {"type": "done"}
            if self._fair_start_left > 0 and worker in self._fair_start_granted:
                # Hold repeat customers until every expected worker has
                # taken its first lease (see FleetOptions.wait_for_workers).
                return {"type": "wait", "delay_s": 0.05}
            granted = table.grant(session)
            if granted is not None and self._fair_start_left > 0:
                if worker not in self._fair_start_granted:
                    self._fair_start_granted.add(worker)
                    self._fair_start_left -= 1
        if granted is None:
            # Everything is leased out; poll back shortly in case one
            # expires or splits.  Shortly: the join after the sweep's last
            # point waits for idle workers to hear "done".
            return {"type": "wait", "delay_s": min(0.01, self.lease_timeout_s / 10)}
        lease, chunk = granted
        tel.count("fleet.leases.granted")
        tel.event(
            "fleet.lease",
            action="grant",
            lease=lease.lease_id,
            chunk=lease.chunk_id,
            worker=worker,
            n_points=lease.n_points,
        )
        reply = {
            "type": "lease",
            "lease": lease.lease_id,
            "chunk_id": lease.chunk_id,
            "deadline_s": self.lease_timeout_s,
            "fingerprint": self.fingerprint,
            "chunk_digest": lease.chunk_digest,
            "points": protocol.encode_chunk(chunk),
        }
        if tel.tracer is not None:
            reply["trace"] = {"id": self._trace_id, "parent": self._trace_parent}
        return reply

    def _handle_heartbeat(self, worker: str, message: dict) -> None:
        # Heartbeats are deliberately fire-and-forget: the worker's main
        # thread and its heartbeat thread share one socket, and replying
        # here would interleave acks into the lease/complete reply
        # stream the main thread is reading.  A worker whose lease
        # silently expired finds out from its completion ack instead.
        lease_id = protocol.decode_lease(message)
        with self._lock:
            ok = self._table.heartbeat(lease_id) if self._table else False
        self.telemetry.count("fleet.heartbeats")
        self._absorb_diagnostics(worker, message)
        if not ok:
            self.telemetry.event(
                "fleet.lease", action="stale-heartbeat", lease=lease_id, worker=worker
            )
        return None

    def _handle_complete(self, worker: str, message: dict) -> dict:
        tel = self.telemetry
        lease_id = protocol.decode_lease(message)
        rows = protocol.decode_rows(message.get("rows", []))
        with self._lock:
            table = self._table
            if table is None:
                raise protocol.ProtocolError("completion before any sweep started")
            history = table.lease_history.get(lease_id)
            if history is None:
                raise protocol.ProtocolError(
                    f"completion for unknown lease {lease_id!r}"
                )
            if message.get("chunk_digest") != history.chunk_digest:
                raise protocol.ProtocolError(
                    f"completion digest mismatch on lease {lease_id!r}"
                )
            fresh, duplicates = table.complete(lease_id, rows)
            for row in fresh:
                self._finalize_row(*row)
            digest = table.report.workers.setdefault(
                worker, {"chunks": 0, "points": 0, "disconnects": 0}
            )
            digest["chunks"] += 1
            digest["points"] += len(fresh)
            interrupt_after = self._interrupt_after
            if (
                interrupt_after is not None
                and table.report.points_completed >= interrupt_after
            ):
                self._interrupted = True
        tel.count("fleet.points.fresh", len(fresh))
        if duplicates:
            tel.count("fleet.duplicates.dropped", duplicates)
            tel.event(
                "fleet.lease",
                action="duplicate",
                lease=lease_id,
                worker=worker,
                duplicates=duplicates,
            )
        tel.event(
            "fleet.lease",
            action="complete",
            lease=lease_id,
            worker=worker,
            fresh=len(fresh),
            duplicates=duplicates,
        )
        self._absorb_diagnostics(worker, message)
        self._wake.set()
        return {
            "type": "ack",
            "lease": lease_id,
            "ok": True,
            "fresh": len(fresh),
            "duplicates": duplicates,
        }

    def _absorb_diagnostics(self, worker: str, message: dict) -> None:
        """Fold the ``telemetry`` and ``trace`` deltas of a message.

        Completions carry both, heartbeats a trace.  A malformed part is
        logged and dropped: diagnostics never cost the connection or the
        rows a completion delivers.
        """
        tel = self.telemetry
        for part, fold in (
            ("telemetry", partial(tel.merge, worker=worker)),
            ("trace", tel.tracer.absorb if tel.tracer is not None else None),
        ):
            payload = message.get(part)
            if payload and fold is not None:
                try:
                    fold(payload)
                except ValueError as error:
                    log.warning("dropping bad %s from %s: %s", part, worker, error)

    def _handle_fail(self, worker: str, message: dict) -> dict:
        lease_id = protocol.decode_lease(message)
        # The reason lands in requeue events and quarantined evaluations,
        # so only a string is one.
        reason = message.get("error")
        if not isinstance(reason, str):
            raise protocol.ProtocolError(f"fail error must be a string: {reason!r}")
        with self._lock:
            events = self._table.fail(lease_id, reason) if self._table else []
            self._finalize_quarantined(events)
        self.telemetry.count("fleet.worker_failures")
        self._emit_lease_events(events)
        self._wake.set()
        return {"type": "ack", "lease": lease_id, "ok": True}
