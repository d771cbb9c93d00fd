"""Tests of histograms, the OpenMetrics exporter and the JSONL event sink."""

import json
import math

import numpy as np
import pytest

from repro.core.metrics import (
    DEFAULT_ITERATION_BUCKETS,
    Histogram,
    JsonlEventWriter,
    metric_name,
    render_openmetrics,
    write_openmetrics,
)
from repro.core.telemetry import NullTelemetry, Telemetry


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            h.observe(value)
        assert h.counts == [1, 1, 1, 1]  # last slot is the +Inf overflow
        assert h.count == 4
        assert h.min == 0.5 and h.max == 100.0

    def test_quantiles_monotonic_and_clamped(self):
        h = Histogram()
        rng = np.random.default_rng(0)
        values = rng.uniform(0.001, 1.0, size=500)
        for value in values:
            h.observe(value)
        p50, p95, p99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert h.min <= p50 <= p95 <= p99 <= h.max

    def test_quantile_tracks_distribution(self):
        h = Histogram(bounds=tuple(np.linspace(0.01, 1.0, 100)))
        values = np.linspace(0.0, 1.0, 1000)
        for value in values:
            h.observe(value)
        assert h.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert h.quantile(0.95) == pytest.approx(0.95, abs=0.05)

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))
        assert math.isnan(Histogram().quantile(0.0))
        assert math.isnan(Histogram().quantile(1.0))
        assert math.isnan(Histogram(bounds=(1.0,)).quantile(0.99))

    def test_single_bucket_histogram(self):
        h = Histogram(bounds=(1.0,))
        for value in (0.2, 0.4, 0.9):
            h.observe(value)
        h.observe(5.0)  # overflow bucket
        assert h.counts == [3, 1]
        assert h.count == 4
        # Quantiles stay inside the observed range even though the only
        # finite bucket spans [min, 1.0] and the overflow is unbounded.
        assert h.min <= h.quantile(0.5) <= h.max
        assert h.quantile(1.0) == h.max
        # Merge of single-bucket histograms is a plain elementwise sum.
        other = Histogram(bounds=(1.0,))
        other.observe(0.7)
        h.merge(other)
        assert h.counts == [4, 1] and h.count == 5

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram().quantile(1.5)

    def test_merge_equals_union(self):
        rng = np.random.default_rng(1)
        left_values = rng.uniform(0.0001, 10.0, size=200)
        right_values = rng.uniform(0.0001, 10.0, size=300)
        left, right, union = Histogram(), Histogram(), Histogram()
        for v in left_values:
            left.observe(v)
            union.observe(v)
        for v in right_values:
            right.observe(v)
            union.observe(v)
        left.merge(right)
        assert left.counts == union.counts  # exact, not approximate
        assert left.count == union.count
        assert left.total == pytest.approx(union.total)
        assert left.min == union.min and left.max == union.max

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(
            ValueError, match="cannot merge histograms with different bounds"
        ):
            Histogram(bounds=(1.0, 2.0)).merge(Histogram(bounds=(1.0, 3.0)))
        # Same edges, different count: also a clear mismatch, not silence.
        with pytest.raises(
            ValueError, match="cannot merge histograms with different bounds"
        ):
            Histogram(bounds=(1.0, 2.0)).merge(Histogram(bounds=(1.0, 2.0, 3.0)))

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(bounds=())

    def test_dict_round_trip(self):
        h = Histogram(bounds=DEFAULT_ITERATION_BUCKETS)
        for value in (3, 17, 40, 2000):
            h.observe(value)
        payload = json.loads(json.dumps(h.to_dict()))
        restored = Histogram.from_dict(payload)
        assert restored == h  # buckets, moments and m2 survive exactly
        assert restored.quantile(0.5) == h.quantile(0.5)

    def test_empty_to_dict_is_json_safe(self):
        payload = Histogram().to_dict()
        assert payload["min"] is None and payload["p99"] is None
        json.dumps(payload, allow_nan=False)


class TestTelemetryHistograms:
    def test_observe_creates_and_fills(self):
        tel = Telemetry()
        tel.observe("lat", 0.01)
        tel.observe("lat", 0.02)
        assert tel.histograms["lat"].count == 2

    def test_first_use_picks_bounds(self):
        tel = Telemetry()
        tel.observe("iters", 10, bounds=DEFAULT_ITERATION_BUCKETS)
        tel.observe("iters", 20, bounds=(1.0, 2.0))  # ignored: already created
        assert tel.histograms["iters"].bounds == tuple(
            float(b) for b in DEFAULT_ITERATION_BUCKETS
        )

    def test_null_telemetry_observe_is_noop(self):
        tel = NullTelemetry()
        tel.observe("lat", 1.0)
        assert not tel.histograms

    def test_summary_includes_histogram_table(self):
        tel = Telemetry()
        tel.observe("explore.point_seconds", 0.02)
        text = tel.summary()
        assert "histogram" in text and "p99" in text

    def test_solver_iterations_observed_into_histograms(self):
        from repro.core.telemetry import activate
        from repro.cs.dictionaries import dct_basis
        from repro.cs.reconstruction import Reconstructor

        rng = np.random.default_rng(0)
        phi = rng.normal(size=(16, 32))
        y = rng.normal(size=(4, 16))
        tel = Telemetry()
        with activate(tel):
            Reconstructor(basis=dct_basis(32), method="fista", n_iter=40).recover(phi, y)
        assert tel.histograms["cs.fista.iterations"].count == 1
        assert tel.histograms["cs.fista.solve_seconds"].count == 1


class TestOpenMetrics:
    def test_metric_name_sanitised(self):
        assert metric_name("explore.cache_hits") == "repro_explore_cache_hits"
        assert metric_name("cs.fista.solve-time!", prefix="") == "cs_fista_solve_time"

    def _telemetry(self):
        tel = Telemetry()
        tel.count("explore.cache_hits", 4)
        with tel.span("explore.total"):
            pass
        tel.observe("explore.point_seconds", 0.25)
        tel.observe("explore.point_seconds", 0.75)
        for value in (0.01, 0.02, 0.5):
            tel.observe("point_latency", value)
        return tel

    def test_render_families_and_terminator(self):
        from examples.serve_smoke import validate_openmetrics

        text = render_openmetrics(self._telemetry())
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_explore_cache_hits counter" in text
        assert "repro_explore_cache_hits_total 4" in text
        assert "# TYPE repro_span_explore_total_seconds histogram" in text
        assert "repro_explore_point_seconds_count 2" in text
        assert "# TYPE repro_explore_point_seconds_stddev gauge" in text
        assert "# TYPE repro_point_latency histogram" in text
        assert "# TYPE repro_point_latency_p99 gauge" in text
        validate_openmetrics(text)

    def test_histogram_buckets_cumulative(self):
        text = render_openmetrics(self._telemetry())
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_point_latency_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 3  # le="+Inf" covers every observation
        assert 'le="+Inf"' in text

    def test_write_openmetrics(self, tmp_path):
        path = write_openmetrics(tmp_path / "metrics.prom", self._telemetry())
        assert path.read_text().endswith("# EOF\n")


class TestJsonlEventWriter:
    def test_events_streamed_as_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tel = Telemetry(max_events=1, event_sink=JsonlEventWriter(path))
        for i in range(3):
            tel.event("tick", i=i)
        # The bounded buffer kept one event; the sink kept all three.
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["i"] for line in lines] == [0, 1, 2]
        assert all(line["kind"] == "tick" for line in lines)

    def test_unencodable_payload_degrades_to_repr(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventWriter(path) as sink:
            sink({"kind": "bad", "payload": object()})
        record = json.loads(path.read_text())
        assert record["kind"] == "bad" and "repr" in record

    def test_closed_sink_never_raises(self, tmp_path):
        sink = JsonlEventWriter(tmp_path / "events.jsonl")
        sink.close()
        sink({"kind": "late"})  # swallowed, not raised

    def test_raising_sink_does_not_kill_the_run(self):
        def sink(payload):
            raise RuntimeError("boom")

        tel = Telemetry(event_sink=sink)
        tel.event("tick")  # must not raise
        assert tel.events[0]["kind"] == "tick"
