"""Property and stress tests of telemetry merging and histogram moments."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import Histogram
from repro.core.telemetry import Telemetry

SETTINGS = {"max_examples": 25, "deadline": None}

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def snapshots(draw):
    """A random telemetry snapshot built through the real recording hooks."""
    tel = Telemetry()
    for name in draw(st.lists(st.sampled_from("abc"), max_size=5)):
        tel.count(name, draw(st.integers(-5, 5)))
    for name in ("v1", "v2"):
        for value in draw(st.lists(finite, max_size=15)):
            tel.observe(name, value)
    for value in draw(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=10)
    ):
        tel.observe("h", value)
    for i in range(draw(st.integers(0, 3))):
        tel.event("e", i=i)
    return tel.snapshot()


def merged(snaps) -> Telemetry:
    tel = Telemetry()
    for snap in snaps:
        tel.merge(snap)
    return tel


def assert_same_aggregates(left: Telemetry, right: Telemetry) -> None:
    assert left.counters == right.counters
    assert set(left.histograms) == set(right.histograms)
    for name in left.histograms:
        a, b = left.histograms[name], right.histograms[name]
        assert a.counts == b.counts
        assert a.count == b.count
        assert a.total == pytest.approx(b.total)
        assert a.min == b.min and a.max == b.max
        assert a.m2 == pytest.approx(b.m2, rel=1e-9, abs=1e-6)
    assert len(left.events) == len(right.events)


class TestMergeLaws:
    @settings(**SETTINGS)
    @given(first=snapshots(), second=snapshots())
    def test_merge_commutative(self, first, second):
        assert_same_aggregates(merged([first, second]), merged([second, first]))

    @settings(**SETTINGS)
    @given(first=snapshots(), second=snapshots(), third=snapshots())
    def test_merge_associative(self, first, second, third):
        left = Telemetry()
        left.merge(merged([first, second]).snapshot())
        left.merge(third)
        right = Telemetry()
        right.merge(first)
        right.merge(merged([second, third]).snapshot())
        assert_same_aggregates(left, right)

    @settings(**SETTINGS)
    @given(snapshot=snapshots())
    def test_merge_into_empty_is_identity(self, snapshot):
        tel = merged([snapshot])
        assert tel.counters == snapshot["counters"]
        for name, histogram in snapshot["histograms"].items():
            assert tel.histograms[name] == Histogram.from_dict(histogram)


class TestDrainDiscipline:
    def test_drained_deltas_sum_to_the_full_stream(self):
        worker = Telemetry()
        driver = Telemetry()
        values = np.random.default_rng(0).normal(size=30)
        for chunk in np.split(values, 3):  # three chunk-sized deltas
            for value in chunk:
                worker.count("n")
                worker.observe("v", value)
            driver.merge(worker.snapshot(drain=True), worker="worker-1")
        assert driver.counters["n"] == 30
        assert driver.histograms["v"].count == 30
        assert driver.histograms["v"].total == pytest.approx(values.sum())
        assert driver.histograms["v"].stddev == pytest.approx(values.std(ddof=1))
        # Per-worker attribution saw every merge and the full counter sum.
        assert driver.workers["worker-1"]["merges"] == 3
        assert driver.workers["worker-1"]["counters"]["n"] == 30
        # The worker is empty after draining: nothing double-counts.
        assert not worker.counters and not worker.histograms

    def test_merge_respects_event_bound(self):
        worker = Telemetry()
        for i in range(10):
            worker.event("tick", i=i)
        driver = Telemetry(max_events=4)
        driver.merge(worker.snapshot())
        assert len(driver.events) == 4
        assert driver.counters["telemetry.events_dropped"] == 6
        assert "WARNING" in driver.summary()
        assert "max_events=4" in driver.summary()


def _good_payload() -> dict:
    tel = Telemetry()
    tel.count("n", 2)
    tel.observe("v", 1.0)
    with tel.span("s"):
        pass
    tel.event("e")
    return tel.snapshot()


def _corrupt(**parts) -> dict:
    payload = _good_payload()
    payload.update(parts)
    return payload


def _one_sample(**changes) -> dict:
    histogram = Histogram()
    histogram.observe(1.0)
    return {**histogram.to_dict(), **changes}


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "payload",
        [
            ["not", "a", "dict"],
            _corrupt(counters=[1, 2]),
            _corrupt(counters={"x": "boom"}),
            _corrupt(counters={"x": True}),
            _corrupt(counters={"x": float("nan")}),
            _corrupt(counters={"x": float("inf")}),
            _corrupt(counters={"x": None}),
            _corrupt(spans={"s": {"bounds": [1.0, 0.5]}}),
            _corrupt(spans={"s": "boom"}),
            _corrupt(histograms={"v": {**Histogram().to_dict(), "counts": [0]}}),
            _corrupt(histograms=[]),
            _corrupt(histograms={"v": Histogram(bounds=(1.0, 2.0)).to_dict()}),
            _corrupt(events={"kind": "e"}),
            _corrupt(events=[{"kind": "e"}, "boom"]),
            # Integer literals beyond the float range, as a JSON wire
            # delivers them.
            _corrupt(counters={"x": 10**400}),
            _corrupt(spans={"s": {**Histogram().to_dict(), "total": 10**400}}),
            _corrupt(histograms={"v": {**Histogram().to_dict(), "total": 10**400}}),
            _corrupt(counters={"n": 1}, histograms={"v": _one_sample(count=10**400)}),
        ],
        ids=lambda payload: repr(payload)[:40],
    )
    def test_rejected_whole_and_sink_unchanged(self, payload):
        driver = Telemetry()
        driver.merge(_good_payload(), worker="w")
        before = driver.snapshot()
        with pytest.raises(ValueError):
            driver.merge(payload, worker="w")
        assert driver.snapshot() == before


class TestConcurrentMerging:
    def test_no_lost_increments_under_thread_hammer(self):
        source = Telemetry()
        source.count("n", 1)
        source.observe("v", 2.0)
        snapshot = source.snapshot()
        driver = Telemetry()

        def hammer():
            for _ in range(50):
                driver.merge(snapshot)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert driver.counters["n"] == 400
        assert driver.histograms["v"].count == 400
        assert driver.histograms["v"].total == pytest.approx(800.0)

    def test_concurrent_recording_and_merging(self):
        driver = Telemetry()
        source = Telemetry()
        source.count("merged.n")
        snapshot = source.snapshot()

        def record():
            for _ in range(200):
                driver.count("direct.n")
                driver.observe("v", 1.0)

        def merge():
            for _ in range(200):
                driver.merge(snapshot)

        threads = [threading.Thread(target=fn) for fn in (record, merge, record, merge)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert driver.counters["direct.n"] == 400
        assert driver.counters["merged.n"] == 400
        assert driver.histograms["v"].count == 400


class TestWelford:
    def test_stddev_matches_numpy(self):
        values = np.random.default_rng(3).normal(5.0, 2.0, size=1000)
        stats = Histogram()
        for value in values:
            stats.observe(value)
        assert stats.mean == pytest.approx(values.mean())
        assert stats.stddev == pytest.approx(values.std(ddof=1))

    def test_small_counts_are_nan_and_json_safe(self):
        import json
        import math

        stats = Histogram()
        stats.observe(1.0)
        assert math.isnan(stats.stddev)
        payload = stats.to_dict()
        assert payload["stddev"] is None
        json.dumps(payload, allow_nan=False)

    @settings(**SETTINGS)
    @given(values=st.lists(finite, max_size=30), cut=st.integers(0, 30))
    def test_split_merge_matches_whole_stream(self, values, cut):
        whole = Histogram()
        for value in values:
            whole.observe(value)
        left, right = Histogram(), Histogram()
        for value in values[:cut]:
            left.observe(value)
        for value in values[cut:]:
            right.observe(value)
        for merged_stats in (left.copy().merge(right), right.copy().merge(left)):
            assert merged_stats.counts == whole.counts
            assert merged_stats.count == whole.count
            assert merged_stats.total == pytest.approx(whole.total, abs=1e-6)
            assert merged_stats.min == whole.min and merged_stats.max == whole.max
            assert merged_stats.m2 == pytest.approx(whole.m2, rel=1e-9, abs=1e-6)
        if len(values) >= 2:
            assert whole.stddev == pytest.approx(np.std(values, ddof=1), rel=1e-6, abs=1e-6)

    def test_merge_with_empty_sides(self):
        stats = Histogram()
        stats.observe(2.0)
        stats.merge(Histogram())  # empty right side: unchanged
        assert stats.count == 1
        empty = Histogram()
        empty.merge(stats)  # empty left side: adopts
        assert empty.count == 1 and empty.total == 2.0

    def test_summary_shows_stddev_column(self):
        tel = Telemetry()
        tel.observe("v", 1.0)
        tel.observe("v", 3.0)
        assert "stddev" in tel.summary()
