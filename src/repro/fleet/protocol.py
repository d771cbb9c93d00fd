"""Wire protocol of the fleet layer: JSON lines over a TCP stream.

One message per line, each a JSON object with a ``type`` field.  The
framing is deliberately primitive -- ``socket.makefile`` readers and
``json.loads`` on both ends, no length prefixes, no binary -- because
the payloads are small (a chunk of design points, a list of
evaluations, a telemetry delta) and the protocol must stay debuggable
with ``nc`` and readable in captured logs.  Everything on the wire is
built from the canonical serialisers in :mod:`repro.core.serialization`
(``design_point_to_dict`` / ``evaluation_to_dict`` round-trip exactly)
and the telemetry and trace ``snapshot()`` dicts, so a fleet sweep
produces byte-identical evaluations to a single-host run.

Message flow (worker-initiated; the coordinator only ever replies)::

    worker                         coordinator
    ------                         -----------
    hello {protocol, label}    ->
                               <-  welcome {protocol, fingerprint, spec,
                                            policy: {timeout_s},
                                            heartbeat_interval_s,
                                            telemetry: {enabled, trace,
                                                        max_trace_events}}
    sync {}                    ->
                               <-  sync_ack {t1}
    request {}                 ->
                               <-  lease {lease, chunk_id, deadline_s,
                                          fingerprint, chunk_digest,
                                          trace?: {id, parent},
                                          points: [{index, point}]}
                                   | wait {delay_s} | done {}
    heartbeat {lease, trace?}  ->  (no reply: the worker's heartbeat
                                    thread shares the socket with its
                                    main thread, so replies here would
                                    interleave into the lease stream)
    complete {lease, chunk_digest,
              rows: [{index, evaluation, elapsed_s}],
              telemetry?, trace?}
                               ->
                               <-  ack {lease, ok, fresh, duplicates}
    fail {lease, error}        ->
                               <-  ack {lease, ok}
    bye {}                     ->  (connection closes)

A lease is the unit of fault tolerance: the coordinator grants a chunk
with a deadline; heartbeats extend the deadline; a worker that goes
silent past it loses the lease and the chunk is requeued.  Completions
are validated against the lease's ``chunk_digest`` and granted points
(a row the lease never granted drops the connection, merging none) and
deduplicated at *point index* granularity on the coordinator, so late
completions from expired leases merge exactly-once.  A malformed
``telemetry`` or ``trace`` part is logged and dropped, and the rows
still merge.

Distributed tracing rides this protocol instead of adding a second
channel.  The ``sync`` exchange is an NTP-style clock probe: the worker
records its send time ``t0`` and the coordinator answers with its own
receive time ``t1``; from its read time ``t2`` the worker estimates the
coordinator-minus-worker clock offset as ``t1 - (t0 + t2) / 2`` and
stamps it into every trace snapshot it ships, so the coordinator's
:meth:`~repro.core.tracing.Tracer.absorb` files remote spans on one
aligned timeline.  Each ``lease`` carries the coordinator's trace
context (a trace id plus the parent span id of the coordinator's
``fleet.run`` span); the worker parents its ``fleet.worker.lease`` span
under it.  Drained trace deltas ride ``heartbeat`` and ``complete`` in
their own ``trace`` field -- a long chunk streams its spans home while
still running.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from typing import IO

from repro.core.results import Evaluation
from repro.core.serialization import (
    design_point_from_dict,
    design_point_to_dict,
    evaluation_from_dict,
    evaluation_to_dict,
)
from repro.power.technology import DesignPoint

#: Version stamp exchanged in hello/welcome; mismatches refuse the worker.
#: v2 added the ``sync``/``sync_ack`` clock probe, the ``telemetry``
#: advertisement in ``welcome``, lease trace context and trace deltas on
#: heartbeats -- an incompatible handshake, hence the bump.
#: v3 moved ``complete``'s trace delta into its own ``trace`` field, sent
#: telemetry as a ``Telemetry.snapshot`` dict and cut the ``welcome``
#: policy to ``timeout_s``/``retries``/``retry_backoff_s``.
#: v4 dropped retries: the ``welcome`` policy is ``{timeout_s}``, and a
#: ``complete`` row lost its ``stats`` (the per-point retry and timeout
#: counts; a timeout shows in the evaluation's ``error``).
PROTOCOL_VERSION = 4

#: Longest accepted message line in characters, newline included (the
#: wire is ASCII JSON, so characters are bytes).  The largest message the
#: fleet tests, the chaos smoke and a traced smoke-scale fleet sweep send
#: is a ~14 KB ``complete``; a worker's whole trace buffer (20 000 events
#: of at most ~250 bytes) drained into one message stays under 5 MB.  A
#: longer line is a misbehaving peer, not a message.
MAX_LINE_LENGTH = 16 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid fleet message."""


def send_message(stream: IO[str], payload: dict) -> None:
    """Write one message as a compact JSON line and flush it.

    Evaluation metrics may legitimately be non-finite (a dead channel's
    SNR is ``-inf``), and ``evaluation_to_dict`` keeps them as floats, so
    the line may carry ``NaN``/``Infinity``/``-Infinity`` tokens: the same
    JSON the checkpoint and the cache write, which :func:`recv_message`'s
    ``json.loads`` reads back exactly.  The line goes out in one write:
    a separate newline would be a second segment for Nagle to delay.
    """
    stream.write(json.dumps(payload, separators=(",", ":")) + "\n")
    stream.flush()


def recv_message(stream: IO[str], expect: Sequence[str] | None = None) -> dict | None:
    """Read one message line; ``None`` on a closed connection.

    ``expect`` optionally restricts the acceptable ``type`` values;
    out-of-band types raise :class:`ProtocolError` (the caller decides
    whether that kills the connection or the run), as does a line that
    reaches :data:`MAX_LINE_LENGTH` without a newline, so a peer cannot
    grow this process's memory without bound.
    """
    line = stream.readline(MAX_LINE_LENGTH)
    if not line:
        return None
    if len(line) == MAX_LINE_LENGTH and not line.endswith("\n"):
        raise ProtocolError(f"message line exceeds {MAX_LINE_LENGTH} characters")
    try:
        payload = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"undecodable message line: {line[:200]!r}") from error
    if not isinstance(payload, dict) or not isinstance(payload.get("type"), str):
        raise ProtocolError(f"message must be an object with a 'type': {line[:200]!r}")
    if expect is not None and payload["type"] not in expect:
        raise ProtocolError(
            f"unexpected message type {payload['type']!r} (expected one of {expect})"
        )
    return payload


# --- chunk and result row encoding -------------------------------------------


def chunk_digest(chunk: Sequence[tuple[int, DesignPoint]]) -> str:
    """Content digest of an index-tagged chunk.

    Hashes the (index, describe()) pairs in order, so the coordinator
    can verify a completion refers to exactly the points it leased --
    a worker answering with a stale or foreign chunk is rejected
    instead of silently merged.
    """
    body = "\n".join(f"{index}:{point.describe()}" for index, point in chunk)
    return hashlib.sha256(body.encode()).hexdigest()


def encode_chunk(chunk: Sequence[tuple[int, DesignPoint]]) -> list[dict]:
    """Wire form of an index-tagged chunk."""
    return [
        {"index": int(index), "point": design_point_to_dict(point)}
        for index, point in chunk
    ]


def decode_chunk(payload: Sequence[dict]) -> list[tuple[int, DesignPoint]]:
    """Inverse of :func:`encode_chunk`."""
    try:
        return [
            (_decode_index(entry["index"]), design_point_from_dict(entry["point"]))
            for entry in payload
        ]
    except (KeyError, TypeError) as error:
        raise ProtocolError(f"malformed chunk payload: {error}") from error


def encode_rows(rows: Sequence[tuple[int, Evaluation, float]]) -> list[dict]:
    """Wire form of completed result rows (index, evaluation, timing)."""
    return [
        {
            "index": int(index),
            "evaluation": evaluation_to_dict(evaluation),
            "elapsed_s": float(elapsed_s),
        }
        for index, evaluation, elapsed_s in rows
    ]


def decode_rows(payload: Sequence[dict]) -> list[tuple[int, Evaluation, float]]:
    """Inverse of :func:`encode_rows`.

    A row's ``index`` must be an int and its ``elapsed_s`` a finite,
    non-negative number (the explorer's latency histogram takes it as
    is).
    """
    try:
        return [
            (
                _decode_index(entry["index"]),
                evaluation_from_dict(entry["evaluation"]),
                _decode_elapsed(entry["elapsed_s"]),
            )
            for entry in payload
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed result rows: {error}") from error


def decode_lease(message: dict) -> str:
    """The lease id a heartbeat, completion or failure refers to.

    Only a string is an id: coercing ``null`` or ``7`` would ack a lease
    that does not exist while the worker's real lease waits out its
    timeout.
    """
    lease = message.get("lease")
    if not isinstance(lease, str):
        raise ProtocolError(f"lease id must be a string: {lease!r}")
    return lease


def decode_sync_time(message: dict) -> float:
    """The coordinator's clock reading ``t1`` in a ``sync_ack``.

    Only a finite number is a time: a ``NaN`` would become the worker's
    clock offset and shift every span it ships to ``NaN``.
    """
    t1 = message.get("t1")
    if not _is_finite_number(t1):
        raise ProtocolError(f"sync_ack t1 must be a finite number: {t1!r}")
    return float(t1)


def _is_finite_number(value) -> bool:
    # bool is an int subclass: JSON ``true`` is not the number 1.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _decode_index(index) -> int:
    # bool is an int subclass: JSON ``true`` must not pass as index 1.
    if not isinstance(index, int) or isinstance(index, bool):
        raise TypeError(f"index must be an int: {index!r}")
    return index


def _decode_elapsed(elapsed_s) -> float:
    if not _is_finite_number(elapsed_s) or elapsed_s < 0:
        raise ValueError(f"elapsed_s must be a finite number >= 0: {elapsed_s!r}")
    return float(elapsed_s)
