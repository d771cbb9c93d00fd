"""Hierarchical tracing: parent/child spans, lanes, Chrome-trace export.

The flat ``Telemetry`` span *statistics* answer "how much total time went
into FISTA"; they cannot answer "which shard stalled at minute three".
This module records the individual span instances -- with explicit span
IDs, parent links, and a (process, thread) lane per event -- and exports
them as Chrome trace-event JSON, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* :class:`Tracer` -- a thread-safe, bounded recorder attached to a
  :class:`~repro.core.telemetry.Telemetry`.  Every ``telemetry.span()``
  entered while a tracer is attached emits one complete ("X") event;
  the parent is whatever span the *same thread* is currently inside
  (a thread-local stack), which is how sweep -> shard -> point -> block
  -> solver nesting emerges without any block knowing about tracing.
* **Instant events** -- :meth:`Tracer.instant` marks zero-duration
  occurrences (cache hits, checkpoint restores) as "i" events so they
  are visible on the timeline without faking spans.
* **Cross-process lanes** -- each tracer stamps its events with its
  ``os.getpid()`` and a human label ("driver", "worker-1234").  Fleet
  workers ship drained snapshots home on their ``heartbeat`` and
  ``complete`` messages; the driver's :meth:`Tracer.absorb` files them
  under the worker's lane, so the exported trace shows one swimlane per
  process.

Timestamps: events are recorded with ``time.perf_counter()`` (monotonic,
sub-microsecond) and exported on an epoch-aligned axis by anchoring each
tracer's perf-counter origin to ``time.time()`` once at construction.
Lanes from different processes therefore line up to wall-clock accuracy,
which on one machine is far below a design-point evaluation.  For lanes
from *other machines* the wall clocks themselves may disagree: a remote
tracer carries a ``clock_offset_s`` (measured by the fleet handshake,
NTP-style) that :meth:`Tracer.absorb` adds to every absorbed timestamp,
and the per-lane offsets are reported in :meth:`Tracer.summary` so the
manifest records how far each worker's clock was skewed.

Stdlib-only by design (``os``, ``threading``, ``time``, ``json``): the
telemetry stack must stay importable from anywhere without cycles.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from pathlib import Path
from typing import Sequence

log = logging.getLogger("repro.tracing")

#: Bound on retained trace events per tracer; at ~6 events per design
#: point (point + blocks + solver) this covers sweeps of ~30k points.
DEFAULT_MAX_TRACE_EVENTS = 200_000

#: Trace snapshot schema (the JSON payload fleet workers ship home).
TRACE_SNAPSHOT_VERSION = 1


def _category(name: str) -> str:
    """Trace category of a span name: the prefix before the first dot."""
    return name.split(".", 1)[0]


class _SpanToken:
    """Open-span bookkeeping handed from :meth:`Tracer.start` to ``finish``."""

    __slots__ = ("name", "span_id", "parent_id", "start_perf", "args")

    def __init__(self, name: str, span_id: str, parent_id: str | None, args: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_perf = time.perf_counter()
        self.args = args


class Tracer:
    """Thread-safe recorder of individual span instances and instants.

    Parameters
    ----------
    label:
        Human name of this process's lane ("driver", "worker-51123").
    max_events:
        Bound on retained events; once full, further events are counted
        (``dropped``) but discarded, so tracing an unbounded sweep
        cannot grow memory without limit.
    """

    def __init__(self, label: str = "driver", max_events: int = DEFAULT_MAX_TRACE_EVENTS):
        self.label = str(label)
        self.pid = os.getpid()
        self.max_events = int(max_events)
        self.dropped = 0
        #: Seconds to ADD to this tracer's wall timestamps to land on the
        #: coordinator's clock; stamped into snapshots so the absorbing
        #: side aligns remote lanes (0.0 for local tracers).
        self.clock_offset_s = 0.0
        self._lock = threading.Lock()
        self._events: list[dict] = []
        #: pid -> lane label, including lanes absorbed from workers.
        self._lanes: dict[int, str] = {self.pid: self.label}
        #: lane label -> measured clock offset applied at absorb time.
        self._lane_offsets: dict[str, float] = {}
        #: lane label -> events that lane reported dropping (own + absorbed).
        self._lane_dropped: dict[str, int] = {}
        self._drop_warned = False
        self._stack = threading.local()
        self._next_id = 0
        self._tids: dict[int, int] = {}
        # Epoch anchor: perf_counter deltas from here map onto wall time.
        self._epoch_unix = time.time()
        self._epoch_perf = time.perf_counter()

    # --- recording ------------------------------------------------------------

    def _thread_stack(self) -> list:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        return stack

    def _tid(self) -> int:
        """Small stable per-thread lane id (1, 2, ... in first-seen order)."""
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids) + 1
            return tid

    def _allocate_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{self.pid}:{self._next_id}"

    def _to_unix(self, perf: float) -> float:
        return self._epoch_unix + (perf - self._epoch_perf)

    def current_span_id(self) -> str | None:
        """Span id of the calling thread's innermost open span, if any.

        The fleet coordinator reads this inside its ``fleet.run`` span to
        stamp leases with a parent span id workers can link under.
        """
        stack = getattr(self._stack, "spans", None)
        return stack[-1].span_id if stack else None

    def start(self, name: str, **args) -> _SpanToken:
        """Open one span instance; the same thread's open span is its parent."""
        stack = self._thread_stack()
        parent_id = stack[-1].span_id if stack else None
        token = _SpanToken(name, self._allocate_id(), parent_id, args)
        stack.append(token)
        return token

    def finish(self, token: _SpanToken) -> None:
        """Close ``token`` and record its complete event."""
        end_perf = time.perf_counter()
        stack = self._thread_stack()
        # Tolerate out-of-order exits (a generator span escaping its
        # frame): pop up to and including the token instead of asserting.
        while stack:
            if stack.pop() is token:
                break
        self._append(
            {
                "ph": "X",
                "name": token.name,
                "cat": _category(token.name),
                "t": self._to_unix(token.start_perf),
                "dur": end_perf - token.start_perf,
                "pid": self.pid,
                "tid": self._tid(),
                "id": token.span_id,
                "parent": token.parent_id,
                "args": token.args,
            }
        )

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker (cache hit, restore, demotion)."""
        stack = self._thread_stack()
        self._append(
            {
                "ph": "i",
                "name": name,
                "cat": _category(name),
                "t": self._to_unix(time.perf_counter()),
                "dur": 0.0,
                "pid": self.pid,
                "tid": self._tid(),
                "id": self._allocate_id(),
                "parent": stack[-1].span_id if stack else None,
                "args": args,
            }
        )

    def counter(self, name: str, **values: float) -> None:
        """Record a Chrome counter ("C") sample: a named set of series values.

        Perfetto renders these as stacked per-process counter tracks --
        the resource sampler uses them for RSS/CPU/thread timelines.
        """
        self._append(
            {
                "ph": "C",
                "name": name,
                "cat": _category(name),
                "t": self._to_unix(time.perf_counter()),
                "dur": 0.0,
                "pid": self.pid,
                "tid": 0,
                "id": None,
                "parent": None,
                "args": {key: float(value) for key, value in values.items()},
            }
        )

    def _append(self, event: dict) -> None:
        with self._lock:
            if len(self._events) < self.max_events:
                self._events.append(event)
                return
            self.dropped += 1
            self._lane_dropped[self.label] = self._lane_dropped.get(self.label, 0) + 1
            warn_now = not self._drop_warned
            self._drop_warned = True
        if warn_now:
            log.warning(
                "tracer %r hit max_events=%d; further trace events are "
                "dropped (counted in the manifest trace section)",
                self.label,
                self.max_events,
            )

    # --- snapshot / merge -------------------------------------------------------

    def snapshot(self, drain: bool = False) -> dict:
        """Picklable copy of the recorded events and lane table.

        ``drain=True`` atomically clears the event buffer (worker chunks
        ship deltas home, so driver-side absorption never double-counts).
        """
        with self._lock:
            events = list(self._events)
            lanes = dict(self._lanes)
            dropped = self.dropped
            if drain:
                self._events = []
                self.dropped = 0
                self._lane_dropped.pop(self.label, None)
        return {
            "version": TRACE_SNAPSHOT_VERSION,
            "label": self.label,
            "pid": self.pid,
            "events": events,
            "lanes": lanes,
            "dropped": dropped,
            "clock_offset_s": self.clock_offset_s,
        }

    def absorb(self, snapshot: dict, clock_offset_s: float | None = None) -> None:
        """File another tracer's snapshot under its own lanes.

        Events keep their original pid/tid (that *is* the lane), so a
        worker's spans render in the worker's swimlane, not the driver's.
        Timestamps are shifted onto this tracer's clock by
        ``clock_offset_s`` (explicit argument, else the offset the remote
        tracer stamped into the snapshot); the applied offset and the
        remote side's dropped-event count are remembered per lane for
        :meth:`summary`.  A malformed snapshot -- one :func:`chrome_trace`
        could not export, or with a non-numeric dropped count or an offset
        that is not a finite number -- raises :class:`ValueError` before
        anything is filed.
        """
        version = snapshot.get("version") if isinstance(snapshot, dict) else None
        if version != TRACE_SNAPSHOT_VERSION:
            raise ValueError(
                f"trace snapshot version {version!r} != supported {TRACE_SNAPSHOT_VERSION}"
            )
        try:
            # A dry-run export reads every field the trace file needs.
            chrome_trace(snapshot)
            offset = clock_offset_s
            if offset is None:
                offset = float(snapshot.get("clock_offset_s") or 0.0)
            remote_dropped = int(snapshot.get("dropped", 0))
        except (AttributeError, KeyError, OverflowError, TypeError) as error:
            raise ValueError(f"malformed trace snapshot: {error!r}") from None
        if not math.isfinite(offset):
            # json.loads reads NaN off the wire; it would shift every
            # absorbed event to NaN.
            raise ValueError(f"trace clock offset must be finite: {offset!r}")
        events = snapshot["events"]
        if offset:
            events = [{**event, "t": event["t"] + offset} for event in events]
        label = str(snapshot.get("label", "")) or None
        with self._lock:
            # Lane keys arrive as ints from pickled snapshots but as
            # strings after a JSON round-trip (the fleet wire); normalise.
            # A tracer in this process (a served sweep's) shares our pid:
            # our own lane keeps our label.
            lanes = {int(pid): str(name) for pid, name in snapshot.get("lanes", {}).items()}
            lanes.pop(self.pid, None)
            self._lanes.update(lanes)
            room = self.max_events - len(self._events)
            self._events.extend(events[:room])
            overflow = max(0, len(events) - room)
            self.dropped += remote_dropped + overflow
            if label is not None:
                if offset or label in self._lane_offsets:
                    self._lane_offsets[label] = offset
                if remote_dropped:
                    self._lane_dropped[label] = (
                        self._lane_dropped.get(label, 0) + remote_dropped
                    )
                if overflow:
                    self._lane_dropped[self.label] = (
                        self._lane_dropped.get(self.label, 0) + overflow
                    )

    @property
    def n_events(self) -> int:
        """Number of retained events (post-drop)."""
        with self._lock:
            return len(self._events)

    def lanes(self) -> dict[int, str]:
        """pid -> label for every lane seen (own + absorbed)."""
        with self._lock:
            return dict(self._lanes)

    def summary(self) -> dict:
        """JSON-ready digest for the run manifest (no event bodies).

        Beyond the totals this reports the trace-merge bookkeeping: the
        clock offset applied to each absorbed lane and how many events
        each lane dropped, so a truncated or skewed distributed trace is
        visible from the manifest alone.
        """
        with self._lock:
            return {
                "events": len(self._events),
                "dropped": self.dropped,
                "lanes": {str(pid): label for pid, label in sorted(self._lanes.items())},
                "clock_offsets": {
                    label: offset
                    for label, offset in sorted(self._lane_offsets.items())
                },
                "dropped_by_lane": {
                    label: count
                    for label, count in sorted(self._lane_dropped.items())
                    if count
                },
            }


# --- Chrome trace-event export -----------------------------------------------


def chrome_trace(snapshot: dict) -> dict:
    """Convert a :meth:`Tracer.snapshot` into Chrome trace-event JSON.

    Emits the JSON-object flavour (``{"traceEvents": [...]}``) with
    process-name metadata per lane, complete ("X") events carrying
    ``span_id``/``parent_id`` in their args, and instant ("i") events
    with thread scope.  Timestamps are microseconds (the format's unit);
    durations are floored at a tenth of a microsecond so zero-length
    spans stay clickable in Perfetto.
    """
    events: list[dict] = []
    lanes = snapshot.get("lanes", {})
    for pid, label in sorted(lanes.items(), key=lambda item: int(item[0])):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": int(pid),
                "tid": 0,
                "args": {"name": label},
            }
        )
    for record in snapshot["events"]:
        exported = {
            "ph": record["ph"],
            "name": record["name"],
            "cat": record["cat"],
            "pid": record["pid"],
            "tid": record["tid"],
            "ts": record["t"] * 1e6,
        }
        if record["ph"] == "C":
            # Counter samples: args are the series values, verbatim.
            exported["args"] = dict(record.get("args", {}))
        else:
            exported["args"] = {
                **record.get("args", {}),
                "span_id": record["id"],
                "parent_id": record["parent"],
            }
        if record["ph"] == "X":
            exported["dur"] = max(record["dur"] * 1e6, 0.1)
        elif record["ph"] == "i":
            exported["s"] = "t"  # thread-scoped instant
        events.append(exported)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, tracer: Tracer) -> Path:
    """Write ``tracer``'s events as a Chrome/Perfetto trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer.snapshot())) + "\n")
    return path


# --- merging exported traces ---------------------------------------------------


def _coerce_trace(payload: dict | list) -> list[dict]:
    """Events of a Chrome trace in either the object or array flavour."""
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
    else:
        events = payload
    if not isinstance(events, list):
        raise ValueError("not a Chrome trace: expected traceEvents list")
    return events


def trace_time_bounds(payload: dict | list) -> tuple[float, float] | None:
    """(min, max) timestamp in microseconds over the trace's timed events."""
    stamps = [
        event["ts"]
        for event in _coerce_trace(payload)
        if event.get("ph") != "M" and isinstance(event.get("ts"), (int, float))
    ]
    if not stamps:
        return None
    return min(stamps), max(stamps)


def merge_chrome_traces(
    payloads: Sequence[dict | list],
    *,
    align: bool = False,
) -> dict:
    """Merge exported Chrome-trace files into one multi-lane trace.

    This is the offline counterpart of :meth:`Tracer.absorb` for traces
    that were already exported (per-worker dumps, separate runs): the
    same clock-alignment idea, applied to ``ts`` microseconds instead of
    snapshot seconds.

    ``align=True`` shifts each trace so its earliest event coincides
    with the first trace's earliest (for dumps whose clocks were never
    synchronised).  Colliding pids between files that name
    *different* processes are remapped to fresh lanes so no two sources
    overwrite each other's swimlane.
    """
    anchor: float | None = None
    merged: list[dict] = []
    lane_names: dict[int, str] = {}
    seen_meta: set[tuple[int, str]] = set()
    next_pid = 1 + max(
        (
            int(event.get("pid", 0))
            for payload in payloads
            for event in _coerce_trace(payload)
            if isinstance(event.get("pid"), int)
        ),
        default=0,
    )

    for payload in payloads:
        events = _coerce_trace(payload)
        offset_us = 0.0
        if align:
            bounds = trace_time_bounds(payload)
            if bounds is not None:
                if anchor is None:
                    anchor = bounds[0]
                else:
                    offset_us = anchor - bounds[0]

        # Lane labels this file declares, for collision detection.
        declared = {
            int(event["pid"]): str(event.get("args", {}).get("name", ""))
            for event in events
            if event.get("ph") == "M" and event.get("name") == "process_name"
        }
        remap: dict[int, int] = {}
        for pid, name in declared.items():
            known = lane_names.get(pid)
            if known is not None and known != name:
                remap[pid] = next_pid
                lane_names[next_pid] = name
                next_pid += 1
            else:
                lane_names[pid] = name

        for event in events:
            exported = dict(event)
            pid = exported.get("pid")
            if isinstance(pid, int) and pid in remap:
                exported["pid"] = remap[pid]
            if exported.get("ph") == "M":
                key = (exported.get("pid", 0), str(exported.get("name", "")))
                if key in seen_meta:
                    continue
                seen_meta.add(key)
            elif offset_us and isinstance(exported.get("ts"), (int, float)):
                exported["ts"] = exported["ts"] + offset_us
            merged.append(exported)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}
