"""Host-speed calibration: a fixed kernel timed in step with the workload.

On a shared VM the host's speed drifts by 10-20 % over seconds to
minutes, which swamps the differences a benchmark must resolve.  The
benchmark therefore times a fixed kernel between design points (about a
tenth of the measured time) and scales each stretch of measured time by
``REFERENCE_S / median(kernel time)`` of the kernel runs that directly
follow it.  Times are reported as they would read on a host where the
kernel takes :data:`REFERENCE_S`; the raw host times are printed beside
them.  The kernel belongs to the benchmark, so no change to the program
under test can change it.  Its mix follows the program's: dense BLAS
products with elementwise maps (the FISTA iterations), an FFT (the
detector's spectra) and an interpreted loop (the per-block Python glue).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time, in seconds, on the reference host.
REFERENCE_S = 0.012

#: Kernel time per second of measured time.
SHARE = 0.1

#: Measured time, in seconds, between two calibrations.
INTERVAL_S = 0.1


class Calibration:
    """Times the calibration kernel; keeps every sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((384, 384))
        self._frames = rng.standard_normal((48, 384))
        self._signal = rng.standard_normal(1 << 14)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        frames = self._frames
        for _ in range(24):
            frames = np.tanh(frames @ self._matrix * 0.05)
        spectrum = np.fft.rfft(self._signal)
        total = 0.0
        for index in range(8000):
            total += index * 0.5
        return float(frames[0, 0] + spectrum[1].real + total)

    def factor(self, measured_s: float) -> float:
        """Calibrate after ``measured_s`` of work; return its reference factor.

        Runs the kernel once, then again until ``SHARE * measured_s`` is spent.
        """
        fresh: list[float] = []
        while not fresh or sum(fresh) < SHARE * measured_s:
            start = time.perf_counter()
            self._kernel()
            fresh.append(time.perf_counter() - start)
        self.samples.extend(fresh)
        return REFERENCE_S / statistics.median(fresh)

    def run_factor(self) -> float:
        """Reference factor over every sample of the run."""
        return REFERENCE_S / statistics.median(self.samples)


class PointTimer:
    """Per-point latencies of sweeps, in host and in reference seconds.

    :meth:`point_done` is the explorer's progress callback.  A latency is
    the gap since the previous completion (the first from :meth:`start`),
    and the last one runs to :meth:`stop`, so a sweep's latencies add up
    to its wall time without the calibrations.  ``calibrating`` wraps each
    calibration, so a caller can keep the kernel out of its own spans.
    """

    def __init__(self, calibration: Calibration, calibrating):
        self.calibration = calibration
        self.calibrating = calibrating
        self.host: list[float] = []
        self.reference: list[float] = []
        self._pending: list[float] = []

    def start(self) -> None:
        self._last = time.perf_counter()

    def point_done(self, index=None, evaluation=None) -> None:
        self._pending.append(time.perf_counter() - self._last)
        if sum(self._pending) >= INTERVAL_S:
            self._calibrate()
        self._last = time.perf_counter()

    def stop(self) -> None:
        tail = time.perf_counter() - self._last
        if self._pending:
            self._pending[-1] += tail
            self._calibrate()
        else:
            self.host[-1] += tail
            self.reference[-1] += tail * self._factor

    def _calibrate(self) -> None:
        with self.calibrating():
            self._factor = self.calibration.factor(sum(self._pending))
        self.host.extend(self._pending)
        self.reference.extend(latency * self._factor for latency in self._pending)
        self._pending = []
