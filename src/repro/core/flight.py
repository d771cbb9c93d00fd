"""Crash flight recorder: always-on bounded ring of recent engine events.

Traces and telemetry answer questions about runs you *chose* to profile;
a postmortem usually concerns a run you did not.  This module keeps a
small, always-on ring buffer (a :class:`collections.deque`) of the most
recent notable events -- lease grants, chunk dispatches, point failures,
resource samples, anything recorded through :func:`record` or tapped
from :meth:`Telemetry.event` -- and dumps it to a ``flight-<ts>.json``
artifact the moment something goes wrong:

* a design-point evaluation exceeds its wall-clock ceiling
  (:class:`~repro.core.execution.EvaluationTimeout`);
* the fleet coordinator loses a worker mid-lease or quarantines a
  poison point (:mod:`repro.fleet.coordinator`; ``executor="process"``
  sweeps run on a local fleet, so this covers their crashes too).

Recording costs one dict build and a deque append, so it is safe to
leave on unconditionally -- which is the point: the artifact exists even
when ``--trace``/``--profile`` were off.

Dump location: ``$REPRO_FLIGHT_DIR`` if set, else ``.repro-flight/`` in
the working directory.  ``REPRO_FLIGHT=0`` disables dumping (the ring
still records, so an embedding application can call :func:`dump`
itself).  Dumps are rate-limited per process so a pathological sweep
cannot fill a disk with thousands of artifacts.

Stdlib-only, like the rest of the telemetry stack.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from pathlib import Path

log = logging.getLogger("repro.flight")

#: Flight artifact schema.
FLIGHT_SCHEMA_VERSION = 1

#: Events retained in the ring (per process).
DEFAULT_FLIGHT_CAPACITY = 512

#: Hard per-process cap on dumped artifacts (a dump storm is itself a bug).
DEFAULT_MAX_DUMPS = 20

#: Environment switches.
ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"
ENV_FLIGHT = "REPRO_FLIGHT"

_DEFAULT_DIR = ".repro-flight"


class FlightRecorder:
    """Bounded, thread-safe ring of recent events with artifact dumping."""

    def __init__(
        self,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        directory: str | Path | None = None,
        max_dumps: int = DEFAULT_MAX_DUMPS,
    ):
        self.capacity = int(capacity)
        self.directory = Path(directory) if directory is not None else None
        self.max_dumps = int(max_dumps)
        self.recorded = 0
        self.dumps = 0
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=self.capacity)

    # --- recording ------------------------------------------------------------

    def record(self, kind: str, **fields) -> None:
        """Append one event to the ring (cheap; never raises)."""
        entry = {"kind": kind, "t_unix": time.time(), "pid": os.getpid(), **fields}
        with self._lock:
            self._ring.append(entry)
            self.recorded += 1

    def note(self, payload: dict) -> None:
        """Event-sink style tap: file an already-shaped telemetry event."""
        entry = dict(payload)
        entry.setdefault("t_unix", time.time())
        entry.setdefault("pid", os.getpid())
        with self._lock:
            self._ring.append(entry)
            self.recorded += 1

    def snapshot(self) -> list[dict]:
        """Copy of the ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    # --- dumping --------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether :meth:`dump` writes artifacts (``REPRO_FLIGHT=0`` opts out)."""
        return os.environ.get(ENV_FLIGHT, "1") != "0"

    def resolve_directory(self) -> Path:
        """Where dumps land: explicit > ``$REPRO_FLIGHT_DIR`` > cwd default."""
        if self.directory is not None:
            return self.directory
        return Path(os.environ.get(ENV_FLIGHT_DIR) or _DEFAULT_DIR)

    def dump(
        self,
        trigger: str,
        detail: str = "",
        directory: str | Path | None = None,
        **context,
    ) -> Path | None:
        """Write the ring as a ``flight-<ts>.json`` artifact; return its path.

        Returns ``None`` when dumping is disabled or the per-process dump
        budget is exhausted.  Never raises: a failing postmortem writer
        must not take down the run it is documenting.
        """
        if not self.enabled:
            return None
        with self._lock:
            if self.dumps >= self.max_dumps:
                return None
            sequence = self.dumps
            self.dumps += 1
            events = list(self._ring)
        try:
            target = Path(directory) if directory is not None else self.resolve_directory()
            target.mkdir(parents=True, exist_ok=True)
            now = time.time()
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
            path = target / f"flight-{stamp}-{os.getpid()}-{sequence:02d}.json"
            payload = {
                "version": FLIGHT_SCHEMA_VERSION,
                "trigger": trigger,
                "detail": detail,
                "context": context,
                "t_unix": now,
                "pid": os.getpid(),
                "recorded": self.recorded,
                "capacity": self.capacity,
                "events": events,
                "resources": _sample_resources_safely(),
            }
            path.write_text(json.dumps(payload, default=repr) + "\n")
        except OSError as exc:  # pragma: no cover - disk-full style failures
            log.warning("flight recorder could not write artifact: %s", exc)
            return None
        log.warning(
            "flight recorder dumped %d events to %s (trigger: %s%s)",
            len(events),
            path,
            trigger,
            f": {detail}" if detail else "",
        )
        return path


def _sample_resources_safely() -> dict:
    """Resource snapshot for dump context; empty on any failure."""
    try:
        from repro.core.resources import sample_resources

        return sample_resources()
    except Exception:  # pragma: no cover - defensive
        return {}


# --- process-global recorder ---------------------------------------------------

_recorder = FlightRecorder()
_recorder_lock = threading.Lock()


def _reset_lock_in_child() -> None:
    """Give a forked child an unlocked ring.

    A fleet forks replacement workers while its connection threads record
    and dump on the very disconnects that trigger a replacement; a lock
    held at the fork stays held in the child (``logging`` resets its own
    locks the same way).
    """
    _recorder._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_in_child)


def get_recorder() -> FlightRecorder:
    """The process-global flight recorder (always present, always on)."""
    return _recorder


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Replace the global recorder (tests, embedders); returns the old one."""
    global _recorder
    with _recorder_lock:
        previous = _recorder
        _recorder = recorder
    return previous


def record(kind: str, **fields) -> None:
    """Record one event on the global ring."""
    _recorder.record(kind, **fields)


def dump(trigger: str, detail: str = "", **context) -> Path | None:
    """Dump the global ring; see :meth:`FlightRecorder.dump`."""
    return _recorder.dump(trigger, detail, **context)
