"""Tests of the crash flight recorder and its dump triggers."""

import json
import os

import pytest

from repro.core import flight
from repro.core.execution import ExecutionPolicy, evaluate_one
from repro.core.flight import (
    DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
)
from repro.core.results import Evaluation
from repro.core.telemetry import Telemetry
from repro.power.technology import DesignPoint


@pytest.fixture
def recorder(tmp_path):
    """A fresh recorder installed as the process global for the test."""
    fresh = FlightRecorder(capacity=8, directory=tmp_path / "dumps")
    previous = flight.set_recorder(fresh)
    yield fresh
    flight.set_recorder(previous)


class TestRing:
    def test_record_is_bounded(self, recorder):
        for i in range(20):
            recorder.record("tick", i=i)
        events = recorder.snapshot()
        assert len(events) == 8  # capacity, not total
        assert recorder.recorded == 20
        assert [e["i"] for e in events] == list(range(12, 20))

    def test_entries_are_stamped(self, recorder):
        recorder.record("lease", worker="w-1")
        (entry,) = recorder.snapshot()
        assert entry["kind"] == "lease"
        assert entry["worker"] == "w-1"
        assert entry["t_unix"] > 0
        assert isinstance(entry["pid"], int)

    def test_note_taps_preshaped_payloads(self, recorder):
        recorder.note({"kind": "explore.progress", "done": 3})
        (entry,) = recorder.snapshot()
        assert entry["done"] == 3
        assert "t_unix" in entry and "pid" in entry

    def test_telemetry_events_reach_the_ring(self, recorder):
        tel = Telemetry()
        tel.event("fleet.lease", action="grant", lease="L1")
        kinds = [e["kind"] for e in recorder.snapshot()]
        assert "fleet.lease" in kinds

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_CAPACITY

    def test_forked_child_gets_an_unlocked_ring(self, recorder):
        # A fleet forks replacement workers while connection threads may
        # be recording; the child must not inherit a held lock.
        with recorder._lock:
            pid = os.fork()
            if pid == 0:
                os._exit(0 if recorder._lock.acquire(timeout=2.0) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestDump:
    def test_dump_writes_schema_and_ring(self, recorder):
        recorder.record("setup", phase="one")
        recorder.record("fail", reason="boom")
        path = recorder.dump("unit-test", detail="why", extra=7)
        assert path is not None and path.exists()
        assert path.name.startswith("flight-") and path.suffix == ".json"
        payload = json.loads(path.read_text())
        assert payload["version"] == FLIGHT_SCHEMA_VERSION
        assert payload["trigger"] == "unit-test"
        assert payload["detail"] == "why"
        assert payload["context"] == {"extra": 7}
        assert [e["kind"] for e in payload["events"]] == ["setup", "fail"]
        # The dump carries a live resource snapshot for context.
        assert payload["resources"]["rss_bytes"] > 0

    def test_dump_rate_limited(self, tmp_path):
        recorder = FlightRecorder(directory=tmp_path, max_dumps=2)
        assert recorder.dump("a") is not None
        assert recorder.dump("b") is not None
        assert recorder.dump("c") is None  # budget exhausted
        assert len(list(tmp_path.glob("flight-*.json"))) == 2

    def test_env_kill_switch(self, recorder, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT", "0")
        assert not recorder.enabled
        assert recorder.dump("suppressed") is None

    def test_env_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "via-env"))
        recorder = FlightRecorder()  # no explicit directory
        path = recorder.dump("env-dir")
        assert path is not None
        assert path.parent == tmp_path / "via-env"

    def test_configure_keeps_ring_contents(self, recorder):
        for i in range(5):
            flight.record("tick", i=i)
        flight.configure(capacity=3)
        assert [e["i"] for e in recorder.snapshot()] == [2, 3, 4]


class TestTimeoutTrigger:
    def test_point_timeout_dumps_flight_artifact(self, recorder):
        def hang(point):
            import time as _time

            _time.sleep(5.0)
            return Evaluation(point=point, metrics={})  # pragma: no cover

        point = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
        evaluation = evaluate_one(
            hang, point, strict=False, policy=ExecutionPolicy(timeout_s=0.05)
        )
        assert evaluation.error is not None and "Timeout" in evaluation.error
        dumps = list((recorder.directory).glob("flight-*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert payload["trigger"] == "point-timeout"
        assert payload["context"]["point"] == point.describe()
        assert any(e["kind"] == "point.timeout" for e in payload["events"])
