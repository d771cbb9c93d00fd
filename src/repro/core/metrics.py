"""Fixed-bucket histograms and metrics export (OpenMetrics, JSONL events).

A mean answers "how slow on average" but not "how slow at the tail" --
and a sweep whose p99 point latency is 40x its p50 has a batching or
caching problem that the mean hides entirely.  This module holds the one
aggregate every timed or observed quantity goes through:

* :class:`Histogram` -- a fixed-bucket counting histogram (Prometheus
  style: cumulative ``le`` upper bounds plus an implicit ``+Inf``
  bucket) that also keeps count/total/min/max and the Welford ``m2``,
  so it reports mean and stddev exactly next to interpolated
  :meth:`quantile` estimates (p50/p95/p99).  Its :meth:`merge` is
  associative -- the property that lets worker snapshots combine into
  driver totals without losing tail information.
* :func:`render_openmetrics` -- serialises a
  :class:`~repro.core.telemetry.Telemetry` as an OpenMetrics/Prometheus
  textfile (``--metrics-out metrics.prom``), so a node-exporter textfile
  collector or a CI artifact diff can scrape sweep statistics.
* :class:`JsonlEventWriter` -- a structured-event sink: every telemetry
  event is appended to a JSONL file as it happens, surviving crashes
  that would lose the in-memory (bounded) event buffer.

Everything is stdlib-only (``bisect``, ``json``, ``math``) by design:
:mod:`repro.core.telemetry` imports this module, and telemetry must stay
importable from anywhere in the package without cycles or third-party
dependencies.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

#: Default latency bucket upper bounds in seconds: log-spaced from 100 us
#: to ~2 minutes, the honest range of a per-point evaluation (smoke-scale
#: toy evaluators to paper-scale FISTA solves).
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Default iteration-count buckets (solver convergence histograms).
DEFAULT_ITERATION_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 300, 500, 1000,
)

#: The quantiles every histogram summary reports.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


@dataclass
class Histogram:
    """Fixed-bucket counting histogram with exact moments and merge.

    ``bounds`` are ascending finite upper bounds; an observation lands in
    the first bucket whose bound is ``>= value``, or in the implicit
    ``+Inf`` overflow bucket.  ``counts`` has ``len(bounds) + 1`` slots
    (the last is the overflow).  Because the buckets are fixed at
    construction, merging two histograms with identical bounds is a
    plain elementwise sum -- associative and commutative, which is what
    cross-process telemetry merging requires.

    Next to the buckets it keeps count/total/min/max and the Welford
    ``m2`` running sum of squared deviations, so :attr:`mean` and
    :attr:`stddev` are exact rather than bucket estimates -- latency
    *jitter* is as diagnostic as latency mean.
    """

    bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    #: Welford running sum of squared deviations from the mean.
    m2: float = 0.0

    def __post_init__(self) -> None:
        self.bounds = tuple(float(b) for b in self.bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending: {self.bounds}")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"{len(self.counts)} counts for {len(self.bounds)} bounds "
                f"(expected bounds + 1)"
            )

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram (Welford update)."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        mean_before = self.total / self.count if self.count else 0.0
        self.count += 1
        self.total += value
        self.m2 += (value - mean_before) * (value - self.total / self.count)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observation (nan before the first one)."""
        return self.total / self.count if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator; nan below two observations)."""
        return self.m2 / (self.count - 1) if self.count >= 2 else math.nan

    @property
    def stddev(self) -> float:
        """Sample standard deviation (nan below two observations)."""
        return math.sqrt(self.variance) if self.count >= 2 else math.nan

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate from the bucket counts.

        Linear interpolation within the containing bucket (the standard
        Prometheus ``histogram_quantile`` estimator), clamped to the
        observed ``[min, max]`` so a wide outermost bucket cannot report
        a quantile outside the data.  ``nan`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if i == len(self.bounds):  # overflow bucket: no upper bound
                    return self.max
                upper = self.bounds[i]
                lower = self.bounds[i - 1] if i else min(self.min, upper)
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits above

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (same bounds required).

        Buckets, count/total/min/max combine exactly; ``m2`` combines
        with Chan's pairwise-variance formula, so merging per-worker
        histograms yields the same moments as observing the union (up
        to float rounding) regardless of merge order.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        if not other.count:
            return self
        if self.count:
            n1, n2 = self.count, other.count
            delta = other.total / n2 - self.total / n1
            self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2)
        else:
            self.m2 = other.m2
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def copy(self) -> "Histogram":
        """Independent deep copy (merge mutates in place)."""
        return Histogram(
            bounds=self.bounds,
            counts=list(self.counts),
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            m2=self.m2,
        )

    def to_dict(self) -> dict:
        """JSON-ready dict: the raw aggregate plus derived summaries.

        ``bounds``/``counts``/``count``/``total``/``min``/``max``/``m2``
        are the raw state :meth:`from_dict` rebuilds from, so a
        round-tripped histogram merges exactly like the original.
        Undefined summaries (min/max/mean/quantiles when empty, stddev
        below two observations) are ``None``, keeping the dict inside
        strict JSON.
        """
        empty = not self.count
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "m2": self.m2,
            "mean": None if empty else self.mean,
            "stddev": None if self.count < 2 else self.stddev,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            **{
                f"p{int(q * 100)}": (None if empty else self.quantile(q))
                for q in SUMMARY_QUANTILES
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild from :meth:`to_dict` output (summaries are recomputed)."""
        return cls(
            bounds=tuple(payload["bounds"]),
            counts=[int(c) for c in payload["counts"]],
            count=int(payload["count"]),
            total=float(payload["total"]),
            min=math.inf if payload["min"] is None else float(payload["min"]),
            max=-math.inf if payload["max"] is None else float(payload["max"]),
            m2=float(payload["m2"]),
        )


# --- OpenMetrics / Prometheus textfile export --------------------------------

_NAME_SANITISER = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """Telemetry name -> legal Prometheus metric name.

    ``explore.cache_hits`` becomes ``repro_explore_cache_hits``; any
    character outside ``[a-zA-Z0-9_]`` collapses to ``_``.
    """
    sanitised = _NAME_SANITISER.sub("_", name).strip("_")
    return f"{prefix}_{sanitised}" if prefix else sanitised


def _format_value(value: float) -> str:
    """Prometheus exposition value (special-cases the infinities)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_openmetrics(telemetry) -> str:
    """Serialise ``telemetry`` as an OpenMetrics textfile.

    Emits one metric family per telemetry name, each declared once:

    * counters -> ``counter`` families (``_total`` suffix);
    * histograms -> native ``histogram`` families (cumulative ``le``
      buckets, ``_sum``, ``_count``);
    * spans -> the same native histograms under
      ``repro_span_<name>_seconds``, a namespace no observation shares;
    * the p50/p95/p99 estimates and the stddev of every histogram and
      span -> one ``gauge`` family each (``<family>_p50`` ...
      ``<family>_stddev``), since plain Prometheus histograms carry no
      precomputed quantiles; undefined estimates are omitted.

    The output ends with the OpenMetrics ``# EOF`` terminator and is
    also valid Prometheus exposition format, so it works both as a
    node-exporter textfile and as a scrape body.
    """
    snapshot = telemetry.snapshot()
    lines: list[str] = []

    for name in sorted(snapshot["counters"]):
        family = metric_name(name)
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family}_total {_format_value(snapshot['counters'][name])}")

    families = [
        (metric_name(f"span.{name}_seconds"), payload)
        for name, payload in snapshot["spans"].items()
    ] + [(metric_name(name), payload) for name, payload in snapshot["histograms"].items()]
    for family, payload in sorted(families, key=lambda item: item[0]):
        lines.append(f"# TYPE {family} histogram")
        cumulative = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += count
            lines.append(f'{family}_bucket{{le="{_format_value(bound)}"}} {cumulative}')
        cumulative += payload["counts"][-1]
        lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{family}_sum {_format_value(payload['total'])}")
        lines.append(f"{family}_count {payload['count']}")
        for stat in (*(f"p{int(q * 100)}" for q in SUMMARY_QUANTILES), "stddev"):
            if payload[stat] is not None:
                lines.append(f"# TYPE {family}_{stat} gauge")
                lines.append(f"{family}_{stat} {_format_value(payload[stat])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str | Path, telemetry) -> Path:
    """Write :func:`render_openmetrics` output to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_openmetrics(telemetry))
    return path


# --- JSONL structured-event sink ---------------------------------------------


class JsonlEventWriter:
    """Append-only JSONL sink for telemetry events.

    Attach as ``Telemetry(event_sink=JsonlEventWriter(path))``: every
    :meth:`~repro.core.telemetry.Telemetry.event` is written as one JSON
    line immediately (line-buffered), so a crashed run keeps its event
    trail even though the in-memory buffer is bounded and lost.  A
    payload that JSON cannot encode is degraded to its ``repr`` rather
    than raised -- a telemetry sink must never kill the run it observes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", buffering=1)

    def __call__(self, payload: dict) -> None:
        try:
            line = json.dumps(payload)
        except (TypeError, ValueError):
            line = json.dumps({"kind": payload.get("kind"), "repr": repr(payload)})
        try:
            self._handle.write(line + "\n")
        except ValueError:  # closed handle: a late event after close()
            pass

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
