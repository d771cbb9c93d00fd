"""Tests of hierarchical tracing and cross-process telemetry shipping."""

import json
from dataclasses import dataclass

import pytest

from repro.core.explorer import DesignSpaceExplorer
from repro.core.results import Evaluation
from repro.core.telemetry import Telemetry, get_active
from repro.core.tracing import (
    TRACE_SNAPSHOT_VERSION,
    Tracer,
    chrome_trace,
    merge_chrome_traces,
    write_chrome_trace,
)

from tests.test_parallel_explorer import ToyEvaluator, smoke_grid


def validate_chrome_trace(payload: dict) -> list[dict]:
    """Structural validation of Chrome-trace JSON; returns the events."""
    assert isinstance(payload, dict)
    events = payload["traceEvents"]
    assert isinstance(events, list) and events
    for event in events:
        assert event["ph"] in {"X", "i", "M", "C"}
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] == "process_name"
            assert event["args"]["name"]
        elif event["ph"] == "C":
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["ts"], float)
            assert event["args"]  # raw counter series, no span bookkeeping
            assert all(isinstance(v, float) for v in event["args"].values())
        else:
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["ts"], float)
            assert isinstance(event["args"]["span_id"], str)
            if event["ph"] == "X":
                assert event["dur"] > 0
            else:
                assert event["s"] == "t"
    json.dumps(payload)  # must be serialisable as-is
    return events


def spans_by_name(events: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for event in events:
        if event["ph"] == "X":
            grouped.setdefault(event["name"], []).append(event)
    return grouped


@dataclass(frozen=True)
class TallyEvaluator:
    """Picklable evaluator counting its calls into the ambient telemetry."""

    def fingerprint(self) -> str:
        return "tally"

    def __call__(self, point) -> Evaluation:
        get_active().count("tally.evals")
        return ToyEvaluator()(point)


class TestTracer:
    def test_same_thread_nesting_sets_parent(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.finish(inner)
        tracer.finish(outer)
        events = {e["name"]: e for e in tracer.snapshot()["events"]}
        assert events["inner"]["parent"] == events["outer"]["id"]
        assert events["outer"]["parent"] is None

    def test_instant_parented_to_open_span(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.instant("mark", detail=1)
        tracer.finish(outer)
        events = {e["name"]: e for e in tracer.snapshot()["events"]}
        assert events["mark"]["ph"] == "i"
        assert events["mark"]["parent"] == events["outer"]["id"]
        assert events["mark"]["args"] == {"detail": 1}

    def test_out_of_order_finish_tolerated(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.finish(outer)  # inner escapes its frame
        tracer.finish(inner)
        assert tracer.n_events == 2

    def test_bounded_with_drop_counting(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.instant("tick", i=i)
        assert tracer.n_events == 2
        assert tracer.dropped == 3

    def test_snapshot_drain_resets(self):
        tracer = Tracer()
        tracer.instant("one")
        first = tracer.snapshot(drain=True)
        assert len(first["events"]) == 1
        assert tracer.n_events == 0

    def test_absorb_files_worker_lane(self):
        driver = Tracer(label="driver")
        worker = Tracer(label="worker-999")
        worker.pid = 999  # simulate another process
        worker._lanes = {999: "worker-999"}
        worker.instant("w")
        driver.absorb(worker.snapshot())
        assert driver.lanes() == {driver.pid: "driver", 999: "worker-999"}
        assert driver.n_events == 1

    def test_absorb_rejects_unknown_version(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="version"):
            tracer.absorb({"version": TRACE_SNAPSHOT_VERSION + 1, "events": []})

    def test_absorb_respects_bound(self):
        driver = Tracer(max_events=1)
        other = Tracer()
        other.instant("a")
        other.instant("b")
        driver.absorb(other.snapshot())
        assert driver.n_events == 1
        assert driver.dropped == 1

    def test_summary_digest(self):
        tracer = Tracer(label="driver")
        tracer.instant("x")
        digest = tracer.summary()
        assert digest["events"] == 1
        assert digest["dropped"] == 0
        assert digest["lanes"] == {str(tracer.pid): "driver"}


class TestTelemetrySpanTracing:
    def test_spans_emit_trace_events_with_hierarchy(self):
        tel = Telemetry(tracer=Tracer())
        with tel.span("explore.total"):
            with tel.span("explore.point", index=3):
                pass
        events = validate_chrome_trace(chrome_trace(tel.tracer.snapshot()))
        named = spans_by_name(events)
        point = named["explore.point"][0]
        total = named["explore.total"][0]
        assert point["args"]["parent_id"] == total["args"]["span_id"]
        assert point["args"]["index"] == 3

    def test_instants_require_tracer(self):
        tel = Telemetry()
        tel.instant("cache.hit", index=0)  # no tracer: silent no-op
        tel = Telemetry(tracer=Tracer())
        tel.instant("cache.hit", index=0)
        assert tel.tracer.n_events == 1


class TestSweepTracing:
    def test_serial_sweep_emits_valid_hierarchical_trace(self, tmp_path):
        tel = Telemetry(tracer=Tracer())
        space = smoke_grid()
        DesignSpaceExplorer(ToyEvaluator()).explore(
            space, executor="serial", telemetry=tel
        )
        path = write_chrome_trace(tmp_path / "run.trace.json", tel.tracer)
        events = validate_chrome_trace(json.loads(path.read_text()))
        named = spans_by_name(events)
        assert len(named["explore.total"]) == 1
        assert len(named["explore.point"]) == space.size
        total_id = named["explore.total"][0]["args"]["span_id"]
        assert all(
            e["args"]["parent_id"] == total_id for e in named["explore.point"]
        )

    def test_process_sweep_traces_per_worker_lanes(self, tmp_path):
        tel = Telemetry(tracer=Tracer())
        space = smoke_grid()
        DesignSpaceExplorer(ToyEvaluator()).explore(
            space, executor="process", n_workers=2, telemetry=tel
        )
        lanes = tel.tracer.lanes()
        worker_lanes = [label for label in lanes.values() if label.startswith("worker-")]
        assert worker_lanes, f"expected worker lanes, got {lanes}"
        assert "driver" in lanes.values()

        path = write_chrome_trace(tmp_path / "run.trace.json", tel.tracer)
        events = validate_chrome_trace(json.loads(path.read_text()))
        named = spans_by_name(events)
        # Every point span was recorded in some worker process's lane.
        assert len(named["explore.point"]) == space.size
        driver_pid = tel.tracer.pid
        assert all(e["pid"] != driver_pid for e in named["explore.point"])
        assert named["fleet.worker.lease"], "worker chunks should emit lease spans"
        # Lane metadata names every worker process.
        metadata = {
            e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert set(metadata) == set(lanes)

    def test_cache_hits_and_restores_marked_as_instants(self, tmp_path):
        space = smoke_grid()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        explorer.explore(space, cache=tmp_path / "cache")
        tel = Telemetry(tracer=Tracer())
        explorer.explore(space, cache=tmp_path / "cache", telemetry=tel)
        events = validate_chrome_trace(chrome_trace(tel.tracer.snapshot()))
        hits = [e for e in events if e["ph"] == "i" and e["name"] == "cache.hit"]
        assert len(hits) == space.size

        ckpt = tmp_path / "sweep.jsonl"
        explorer.explore(space, checkpoint=ckpt)
        tel = Telemetry(tracer=Tracer())
        explorer.explore(space, checkpoint=ckpt, telemetry=tel)
        events = validate_chrome_trace(chrome_trace(tel.tracer.snapshot()))
        restores = [
            e for e in events if e["ph"] == "i" and e["name"] == "checkpoint.restored"
        ]
        assert len(restores) == space.size


class TestCrossProcessCounters:
    def test_driver_counters_equal_sum_of_worker_snapshots(self):
        tel = Telemetry()
        space = smoke_grid()
        DesignSpaceExplorer(TallyEvaluator()).explore(
            space, executor="process", n_workers=2, telemetry=tel
        )
        assert tel.counters["tally.evals"] == space.size
        per_worker = [
            digest["counters"].get("tally.evals", 0)
            for digest in tel.workers.values()
        ]
        assert sum(per_worker) == space.size
        assert all(label.startswith("worker-") for label in tel.workers)
        # Worker-side point spans merged into the driver's span stats.
        assert tel.spans["explore.point"].count == space.size

    def test_crash_isolation_path_keeps_worker_accounting(self):
        # Workers ship their snapshots home with failed points too.
        from tests.test_parallel_explorer import FailingEvaluator

        tel = Telemetry()
        space = smoke_grid()
        result = DesignSpaceExplorer(FailingEvaluator(bad_bits=6)).explore(
            space, executor="process", n_workers=2, telemetry=tel
        )
        assert len(result) == space.size
        assert tel.spans["explore.point"].count == space.size


class TestClockAlignment:
    def test_absorb_applies_snapshot_offset(self):
        driver = Tracer(label="driver")
        worker = Tracer(label="worker-7")
        worker.pid = 7
        worker._lanes = {7: "worker-7"}
        worker.clock_offset_s = 2.5  # measured by the fleet handshake
        worker.instant("w")
        original_t = worker.snapshot()["events"][0]["t"]
        driver.absorb(worker.snapshot())
        absorbed = [e for e in driver.snapshot()["events"] if e["name"] == "w"]
        assert absorbed[0]["t"] == pytest.approx(original_t + 2.5)
        assert driver.summary()["clock_offsets"] == {"worker-7": 2.5}

    def test_explicit_offset_wins_over_snapshot(self):
        driver = Tracer()
        worker = Tracer(label="w")
        worker.clock_offset_s = 100.0
        worker.instant("w")
        snap = worker.snapshot()
        before = snap["events"][0]["t"]
        driver.absorb(snap, clock_offset_s=-1.0)
        (event,) = [e for e in driver.snapshot()["events"] if e["name"] == "w"]
        assert event["t"] == pytest.approx(before - 1.0)

    def test_json_round_trip_normalises_lane_keys(self):
        # The fleet wire JSON-encodes snapshots, which stringifies the
        # int pid keys of the lane table; absorb must re-int them.
        driver = Tracer(label="driver")
        worker = Tracer(label="worker-1")
        worker.pid = 4242
        worker._lanes = {4242: "worker-1"}
        worker.instant("w")
        wire = json.loads(json.dumps(worker.snapshot()))
        driver.absorb(wire)
        assert driver.lanes()[4242] == "worker-1"
        assert all(isinstance(pid, int) for pid in driver.lanes())


class TestCounterEvents:
    def test_counter_records_c_event(self):
        tracer = Tracer()
        tracer.counter("resources.rss_mb", value=123.0)
        (event,) = tracer.snapshot()["events"]
        assert event["ph"] == "C"
        assert event["args"] == {"value": 123.0}
        assert event["parent"] is None

    def test_chrome_export_keeps_counter_args_raw(self):
        tracer = Tracer()
        tracer.counter("resources.threads", value=4)
        exported = chrome_trace(tracer.snapshot())
        counters = [e for e in exported["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["args"] == {"value": 4.0}
        assert "span_id" not in counters[0]["args"]
        assert "dur" not in counters[0]
        validate_chrome_trace(exported)


class TestDropAccounting:
    def test_one_time_drop_warning(self, caplog):
        tracer = Tracer(label="tiny", max_events=1)
        with caplog.at_level("WARNING", logger="repro.tracing"):
            tracer.instant("kept")
            tracer.instant("dropped-1")
            tracer.instant("dropped-2")
        warnings = [r for r in caplog.records if "max_events" in r.getMessage()]
        assert len(warnings) == 1  # loud once, not once per event
        assert tracer.dropped == 2

    def test_dropped_by_lane_in_summary(self):
        driver = Tracer(label="driver")
        worker = Tracer(label="worker-3", max_events=1)
        worker.instant("kept")
        worker.instant("lost")
        driver.absorb(worker.snapshot())
        summary = driver.summary()
        assert summary["dropped_by_lane"] == {"worker-3": 1}
        assert summary["dropped"] == 1

    def test_drain_clears_local_drop_count(self):
        tracer = Tracer(label="w", max_events=1)
        tracer.instant("kept")
        tracer.instant("lost")
        snap = tracer.snapshot(drain=True)
        assert snap["dropped"] == 1
        assert tracer.snapshot()["dropped"] == 0


class TestMergeChromeTraces:
    def _trace_for(self, label: str, pid: int, at_s: float) -> dict:
        tracer = Tracer(label=label)
        tracer.pid = pid
        tracer._lanes = {pid: label}
        token = tracer.start("work")
        tracer.finish(token)
        payload = chrome_trace(tracer.snapshot())
        for event in payload["traceEvents"]:
            if event["ph"] != "M":
                event["ts"] = at_s * 1e6  # pin for deterministic arithmetic
        return payload

    def test_merge_preserves_distinct_lanes(self):
        a = self._trace_for("host-a", 100, at_s=0.0)
        b = self._trace_for("host-b", 200, at_s=0.0)
        merged = merge_chrome_traces([a, b])
        names = {
            e["pid"]: e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M"
        }
        assert names == {100: "host-a", 200: "host-b"}
        validate_chrome_trace(merged)

    def test_colliding_pids_remapped(self):
        a = self._trace_for("host-a", 100, at_s=0.0)
        b = self._trace_for("host-b", 100, at_s=0.0)  # same pid, other host
        merged = merge_chrome_traces([a, b])
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M"
        }
        assert len(lanes) == 2 and set(lanes.values()) == {"host-a", "host-b"}
        remapped = [pid for pid, name in lanes.items() if name == "host-b"]
        assert remapped != [100]
        # The remapped file's events moved with its metadata.
        xs = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == set(lanes)

    def test_offsets_shift_timestamps(self):
        a = self._trace_for("a", 1, at_s=10.0)
        b = self._trace_for("b", 2, at_s=10.0)
        merged = merge_chrome_traces([a, b], offsets_s=[0.0, 3.0])
        by_pid = {
            e["pid"]: e["ts"] for e in merged["traceEvents"] if e["ph"] == "X"
        }
        assert by_pid[2] - by_pid[1] == pytest.approx(3.0 * 1e6)

    def test_align_anchors_to_first_trace(self):
        a = self._trace_for("a", 1, at_s=100.0)
        b = self._trace_for("b", 2, at_s=900.0)  # captured on a skewed clock
        merged = merge_chrome_traces([a, b], align=True)
        stamps = [e["ts"] for e in merged["traceEvents"] if e["ph"] == "X"]
        assert max(stamps) - min(stamps) < 10e6  # lanes now overlap

    def test_offsets_and_align_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            merge_chrome_traces([], offsets_s=[], align=True)
        with pytest.raises(ValueError, match="offsets"):
            merge_chrome_traces([{"traceEvents": []}], offsets_s=[0.0, 1.0])

    def test_rejects_non_traces(self):
        with pytest.raises(ValueError, match="traceEvents"):
            merge_chrome_traces([{"nope": 1}])
