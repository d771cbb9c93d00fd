"""Stdlib resource sampling: RSS / CPU / thread-count timelines, no psutil.

A sweep that slows down because a worker is swapping looks identical, in
span stats, to one that slows down because FISTA got harder.  This
module samples process resource usage on a small daemon thread and files
it through the normal observability stack, so the answer is in the same
artifacts as everything else:

* histograms in :class:`~repro.core.telemetry.Telemetry`
  (``resources.rss_mb``, ``resources.cpu_pct``, ``resources.threads``,
  ``resources.cpu_s``) -- mergeable across processes, so fleet
  workers get per-worker attribution in ``telemetry.workers`` and the
  manifest;
* Chrome counter ("C") events on the attached tracer, rendering as
  per-process RSS/CPU/thread counter tracks in Perfetto;
* ``resources.sample`` entries on the crash flight recorder ring, so a
  flight artifact shows the resource history leading up to the failure.

Sources, in order of preference: ``/proc/self/status`` (VmRSS, Threads)
and ``/proc/self/stat`` where available, with portable fallbacks from
the :mod:`resource` module (``ru_maxrss``) and
:func:`threading.active_count`.  Stdlib-only by design.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time

from repro.core import flight

#: Histogram bounds for resident-set size in MB.
RSS_MB_BUCKETS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

#: Histogram bounds for CPU utilisation percent (can exceed 100 with threads).
CPU_PCT_BUCKETS = (5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 200.0, 400.0, 800.0)

#: Histogram bounds for the process thread count.
THREAD_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

DEFAULT_SAMPLE_INTERVAL_S = 0.5

_PROC_STATUS = "/proc/self/status"


def _read_proc_status() -> dict:
    """VmRSS (bytes) and thread count from /proc, or {} off-Linux."""
    out: dict = {}
    try:
        with open(_PROC_STATUS) as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    out["rss_bytes"] = int(line.split()[1]) * 1024
                elif line.startswith("Threads:"):
                    out["threads"] = int(line.split()[1])
    except OSError:
        return {}
    return out


def _max_rss_bytes(ru_maxrss: int) -> int:
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(ru_maxrss) if sys.platform == "darwin" else int(ru_maxrss) * 1024


def sample_resources() -> dict:
    """One JSON-ready resource sample for the current process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sample = {
        "t_unix": time.time(),
        "pid": os.getpid(),
        "cpu_user_s": usage.ru_utime,
        "cpu_system_s": usage.ru_stime,
        "max_rss_bytes": _max_rss_bytes(usage.ru_maxrss),
    }
    proc = _read_proc_status()
    sample["rss_bytes"] = proc.get("rss_bytes", sample["max_rss_bytes"])
    sample["threads"] = proc.get("threads", threading.active_count())
    return sample


class ResourceSampler:
    """Daemon thread sampling :func:`sample_resources` into a Telemetry.

    Parameters
    ----------
    telemetry:
        Destination for the histograms; its attached tracer (if
        any) additionally receives Chrome counter events.
    interval_s:
        Sampling period.  Each tick is a handful of syscalls; 0.5 s
        keeps the overhead unmeasurable next to a design-point
        evaluation.
    label:
        Lane attribution for flight-ring entries ("driver",
        "worker-1234", a fleet worker label).
    """

    def __init__(
        self,
        telemetry,
        interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        label: str = "driver",
    ):
        self.telemetry = telemetry
        self.interval_s = float(interval_s)
        self.label = str(label)
        self.samples = 0
        self.last: dict = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._prev_cpu: float | None = None
        self._prev_wall: float | None = None

    # --- lifecycle ------------------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Take one immediate sample, then sample on a daemon thread."""
        if self._thread is not None:
            return self
        self.tick()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-resources-{self.label}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 2.0) -> None:
        """Stop the thread and take a final sample (so totals are current)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout_s)
            self.tick()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.tick()

    # --- sampling -------------------------------------------------------------

    def tick(self) -> dict:
        """Take one sample and file it everywhere; returns the sample."""
        sample = sample_resources()
        cpu_total = sample["cpu_user_s"] + sample["cpu_system_s"]
        wall = sample["t_unix"]
        cpu_pct = None
        if self._prev_cpu is not None and wall > (self._prev_wall or 0.0):
            elapsed = wall - self._prev_wall
            if elapsed > 1e-6:
                cpu_pct = 100.0 * (cpu_total - self._prev_cpu) / elapsed
        self._prev_cpu, self._prev_wall = cpu_total, wall

        rss_mb = sample["rss_bytes"] / 1e6
        tel = self.telemetry
        tel.observe("resources.rss_mb", rss_mb, bounds=RSS_MB_BUCKETS)
        tel.observe("resources.threads", float(sample["threads"]), bounds=THREAD_BUCKETS)
        tel.observe("resources.cpu_s", cpu_total)
        if cpu_pct is not None:
            tel.observe("resources.cpu_pct", cpu_pct, bounds=CPU_PCT_BUCKETS)

        tracer = getattr(tel, "tracer", None)
        if tracer is not None:
            tracer.counter("resources.rss_mb", value=rss_mb)
            tracer.counter("resources.threads", value=float(sample["threads"]))
            if cpu_pct is not None:
                tracer.counter("resources.cpu_pct", value=cpu_pct)

        flight.record(
            "resources.sample",
            label=self.label,
            rss_mb=round(rss_mb, 3),
            threads=sample["threads"],
            cpu_s=round(cpu_total, 4),
            **({"cpu_pct": round(cpu_pct, 2)} if cpu_pct is not None else {}),
        )
        self.samples += 1
        self.last = sample
        return sample

    def summary(self) -> dict:
        """JSON-ready digest (manifest ``resources.sampler`` section)."""
        return {
            "label": self.label,
            "interval_s": self.interval_s,
            "samples": self.samples,
            "last": dict(self.last),
        }


def resources_section(snapshot: dict, sampler: ResourceSampler | None = None) -> dict:
    """Manifest ``resources`` section from a ``Telemetry.snapshot()`` dict.

    Collects every ``resources.*`` histogram plus the per-worker resource
    histograms that :meth:`Telemetry.merge` files under ``workers``, so a
    fleet manifest attributes RSS/CPU per worker.
    """
    section: dict = {
        "histograms": {
            name: body
            for name, body in snapshot.get("histograms", {}).items()
            if name.startswith("resources.")
        },
        "workers": {
            label: digest.get("resources", {})
            for label, digest in snapshot.get("workers", {}).items()
            if digest.get("resources")
        },
    }
    if sampler is not None:
        section["sampler"] = sampler.summary()
    return section
