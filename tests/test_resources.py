"""Tests of the stdlib resource sampler and its manifest section."""

import time

from repro.core import flight
from repro.core.flight import FlightRecorder
from repro.core.resources import (
    CPU_PCT_BUCKETS,
    RSS_MB_BUCKETS,
    THREAD_BUCKETS,
    ResourceSampler,
    resources_section,
    sample_resources,
)
from repro.core.telemetry import Telemetry
from repro.core.tracing import Tracer


class TestSampleResources:
    def test_sample_fields(self):
        sample = sample_resources()
        assert sample["pid"] > 0
        assert sample["rss_bytes"] > 0
        assert sample["max_rss_bytes"] > 0
        assert sample["threads"] >= 1
        assert sample["cpu_user_s"] >= 0.0
        assert sample["cpu_system_s"] >= 0.0
        assert sample["t_unix"] > 0

    def test_cpu_monotone_across_samples(self):
        first = sample_resources()
        sum(i * i for i in range(200_000))  # burn some CPU
        second = sample_resources()
        assert second["cpu_user_s"] + second["cpu_system_s"] >= (
            first["cpu_user_s"] + first["cpu_system_s"]
        )


class TestResourceSampler:
    def test_ticks_fill_telemetry(self):
        tel = Telemetry()
        sampler = ResourceSampler(tel, interval_s=60.0, label="unit")
        sampler.tick()
        sampler.tick()
        snapshot = tel.snapshot()
        assert snapshot["histograms"]["resources.rss_mb"]["count"] == 2
        assert snapshot["histograms"]["resources.rss_mb"]["bounds"] == list(
            RSS_MB_BUCKETS
        )
        assert snapshot["histograms"]["resources.threads"]["count"] == 2
        assert snapshot["histograms"]["resources.threads"]["bounds"] == list(
            THREAD_BUCKETS
        )
        assert snapshot["histograms"]["resources.cpu_s"]["count"] == 2
        # cpu_pct needs a delta, so only the second tick observes it.
        assert snapshot["histograms"]["resources.cpu_pct"]["count"] == 1
        assert snapshot["histograms"]["resources.cpu_pct"]["bounds"] == list(
            CPU_PCT_BUCKETS
        )

    def test_counter_events_on_attached_tracer(self):
        tracer = Tracer(label="unit")
        tel = Telemetry(tracer=tracer)
        ResourceSampler(tel, interval_s=60.0).tick()
        events = tracer.snapshot()["events"]
        counters = [e for e in events if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert {"resources.rss_mb", "resources.threads"} <= names
        assert all(isinstance(v, float) for e in counters for v in e["args"].values())

    def test_flight_ring_entries(self):
        previous = flight.set_recorder(FlightRecorder(capacity=16))
        try:
            ResourceSampler(Telemetry(), interval_s=60.0, label="w-9").tick()
            entries = [
                e
                for e in flight.get_recorder().snapshot()
                if e["kind"] == "resources.sample"
            ]
            assert entries and entries[-1]["label"] == "w-9"
            assert entries[-1]["rss_mb"] > 0
        finally:
            flight.set_recorder(previous)

    def test_start_stop_thread(self):
        tel = Telemetry()
        sampler = ResourceSampler(tel, interval_s=0.01, label="thread")
        with sampler:
            time.sleep(0.08)
        # immediate tick on start, periodic ticks, and a final tick on stop
        assert sampler.samples >= 3
        assert sampler.last["rss_bytes"] > 0
        summary = sampler.summary()
        assert summary["label"] == "thread"
        assert summary["samples"] == sampler.samples

    def test_stop_is_idempotent(self):
        sampler = ResourceSampler(Telemetry(), interval_s=60.0)
        sampler.start()
        sampler.stop()
        count = sampler.samples
        assert count >= 2  # immediate tick on start + final tick on stop
        sampler.stop()
        assert sampler.samples == count  # second stop is a no-op


class TestResourcesSection:
    def test_section_collects_resource_families(self):
        tel = Telemetry()
        sampler = ResourceSampler(tel, interval_s=60.0)
        sampler.tick()
        tel.observe("explore.point_seconds", 0.1)  # non-resource noise
        section = resources_section(tel.snapshot(), sampler=sampler)
        assert set(section["histograms"]) == {
            "resources.rss_mb",
            "resources.threads",
            "resources.cpu_s",
        }
        assert section["sampler"]["samples"] == 1

    def test_per_worker_attribution_via_merge(self):
        worker_tel = Telemetry()
        sampler = ResourceSampler(worker_tel, interval_s=60.0, label="worker-1")
        sampler.tick()
        sampler.tick()  # cpu_pct needs a delta between two samples
        driver = Telemetry()
        driver.merge(worker_tel.snapshot(drain=True), worker="worker-1")
        section = resources_section(driver.snapshot())
        assert "worker-1" in section["workers"]
        digest = section["workers"]["worker-1"]
        assert digest["resources.threads"]["count"] == 2
        assert digest["resources.threads"]["max"] >= 1.0
        assert digest["resources.rss_mb"]["count"] == 2
        assert digest["resources.rss_mb"]["max"] > 0
        assert digest["resources.cpu_pct"]["count"] == 1
