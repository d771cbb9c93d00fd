"""The chaos harness: deterministic fault injection against real fleets.

Every test here runs a real coordinator, real TCP sockets and real
forked worker processes, with faults scripted by
:class:`~repro.fleet.chaos.ChaosPlan` at the exact seams where
production fleets fail: SIGKILL mid-chunk, heartbeats silenced past the
lease deadline, sockets partitioned with a lease in hand, and the
coordinator itself killed mid-sweep.  The acceptance bar is the same
everywhere: the merged result is *identical* to a single-host serial
run -- zero lost points, zero double-finalised points -- and the fleet
report accounts for every recovery action taken.
"""

import pytest

from repro.core.explorer import DesignSpaceExplorer
from repro.core.telemetry import Telemetry
from repro.fleet import ChaosPlan, FleetOptions, seeded_plans
from tests.test_parallel_explorer import (
    ToyEvaluator,
    assert_sweeps_identical,
    smoke_grid,
)

#: Short leases so silence/expiry recovery happens at test speed.
FAST = dict(lease_timeout_s=1.0, heartbeat_interval_s=0.25)


def run_fleet(space, options, telemetry=None):
    explorer = DesignSpaceExplorer(ToyEvaluator())
    result = explorer.explore(
        space, executor="process", fleet=options, telemetry=telemetry
    )
    return result, explorer.last_fleet_report


class TestSeededPlans:
    def test_same_seed_same_plans(self):
        kwargs = dict(kill_fraction=0.4, silence_fraction=0.3, kill_after_points=2)
        assert seeded_plans(7, 6, **kwargs) == seeded_plans(7, 6, **kwargs)

    def test_different_seed_differs(self):
        kwargs = dict(kill_fraction=0.5, silence_fraction=0.5)
        assert seeded_plans(1, 8, **kwargs) != seeded_plans(2, 8, **kwargs)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            seeded_plans(1, 3, kill_fraction=0.8, silence_fraction=0.6)
        with pytest.raises(ValueError):
            seeded_plans(1, 3, kill_fraction=-0.1)

    def test_zero_fractions_are_benign(self):
        for plan in seeded_plans(3, 4):
            assert plan.kill_after_points is None
            assert plan.drop_heartbeats_on_chunk is None
            assert plan.partition_on_chunk is None


class TestWorkerChaos:
    def test_sigkilled_worker_is_recovered(self):
        """SIGKILL one worker mid-chunk: survivors absorb its leases."""
        space = smoke_grid()
        serial = DesignSpaceExplorer(ToyEvaluator()).explore(space, name="serial")
        tel = Telemetry()
        result, report = run_fleet(
            space,
            FleetOptions(
                spawn_workers=3,
                # Fair start: on a loaded (or single-core) host the
                # benign workers could otherwise drain the queue before
                # worker-0 gets the lease its chaos plan needs.
                wait_for_workers=3,
                chaos_plans=(ChaosPlan(kill_after_points=2),),
                **FAST,
            ),
            telemetry=tel,
        )
        assert_sweeps_identical(serial, result)
        assert report.points_completed == space.size
        assert report.points_quarantined == 0
        # The kill mid-chunk forced at least one recovery (the dropped
        # connection requeues immediately; a slow EOF expires instead).
        assert report.requeues + report.leases_expired >= 1
        actions = {
            event["action"] for event in tel.events if event["kind"] == "fleet.lease"
        }
        assert "grant" in actions
        assert "requeue" in actions

    def test_silent_worker_expires_and_late_completion_dedups(self):
        """Heartbeats dropped + slow completion: expiry, regrant, dedup."""
        space = smoke_grid()
        serial = DesignSpaceExplorer(ToyEvaluator()).explore(space, name="serial")
        result, report = run_fleet(
            space,
            FleetOptions(
                spawn_workers=3,
                wait_for_workers=3,
                chaos_plans=(
                    ChaosPlan(drop_heartbeats_on_chunk=0, complete_delay_s=2.5),
                ),
                **FAST,
            ),
        )
        assert_sweeps_identical(serial, result)
        assert report.leases_expired >= 1
        # The late copy arrived after the regrant finished those points:
        # every row of it deduplicated instead of double-finalising.
        assert report.duplicates_dropped >= 1
        assert report.points_completed == space.size

    def test_partitioned_worker_reconnects(self):
        # A single worker: it must receive the partition chunk (with
        # siblings, a fast fleet can drain the queue before worker-0
        # ever sees its second lease, injecting nothing).
        space = smoke_grid()
        serial = DesignSpaceExplorer(ToyEvaluator()).explore(space, name="serial")
        result, report = run_fleet(
            space,
            FleetOptions(
                spawn_workers=1,
                chaos_plans=(
                    ChaosPlan(partition_on_chunk=1, partition_reconnect_s=0.2),
                ),
                **FAST,
            ),
        )
        assert_sweeps_identical(serial, result)
        assert report.points_completed == space.size
        # The partition dropped a granted lease (requeued on disconnect)
        # and the worker came back under a fresh session.
        assert report.requeues >= 1
        assert report.workers["worker-0"]["disconnects"] >= 1

    def test_combined_chaos_converges(self):
        """Kill + silence + partition in one fleet: still digest-identical."""
        space = smoke_grid()
        serial = DesignSpaceExplorer(ToyEvaluator()).explore(space, name="serial")
        result, report = run_fleet(
            space,
            FleetOptions(
                spawn_workers=4,
                wait_for_workers=4,
                chaos_plans=(
                    ChaosPlan(kill_after_points=3),
                    ChaosPlan(drop_heartbeats_on_chunk=1, complete_delay_s=2.0),
                    ChaosPlan(partition_on_chunk=0, partition_reconnect_s=0.1),
                ),
                **FAST,
            ),
        )
        assert_sweeps_identical(serial, result)
        assert report.points_completed == space.size
        assert report.points_quarantined == 0


class TestCoordinatorKill:
    def test_interrupt_then_checkpoint_resume(self, tmp_path):
        """A killed coordinator resumes mid-sweep from its checkpoint."""
        space = smoke_grid()
        serial = DesignSpaceExplorer(ToyEvaluator()).explore(space, name="serial")
        checkpoint = tmp_path / "fleet.jsonl"

        explorer = DesignSpaceExplorer(ToyEvaluator())
        partial = explorer.explore(
            space,
            checkpoint=checkpoint,
            executor="process",
            fleet=FleetOptions(spawn_workers=2, interrupt_after_points=4, **FAST),
        )
        interrupted = [
            e for e in partial if e.error and e.error.startswith("Interrupted")
        ]
        finished_early = space.size - len(interrupted)
        assert 0 < finished_early < space.size  # it really stopped mid-sweep

        tel = Telemetry()
        resumed = explorer.explore(
            space,
            checkpoint=checkpoint,
            executor="process",
            fleet=FleetOptions(spawn_workers=2, **FAST),
            telemetry=tel,
        )
        report = explorer.last_fleet_report
        assert_sweeps_identical(serial, resumed)
        # Only the unfinished remainder was re-sharded; checkpointed
        # points were restored, not re-evaluated.
        assert report.points_total == len(interrupted)
        assert tel.counters["explore.checkpoint_restored"] == finished_early
        assert tel.counters["fleet.worker.evaluator_calls"] == len(interrupted)

    def test_interrupted_run_counts_in_telemetry(self, tmp_path):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        explorer.explore(
            smoke_grid(),
            checkpoint=tmp_path / "cp.jsonl",
            executor="process",
            fleet=FleetOptions(spawn_workers=2, interrupt_after_points=1, **FAST),
            telemetry=tel,
        )
        assert tel.counters["explore.interrupted"] == 1


class TestDistributedObservability:
    """The tentpole acceptance path: one chaos-injected fleet sweep must
    leave behind (a) a single merged Chrome trace with per-worker lanes
    and coordinator-parented, clock-aligned spans, (b) a flight-recorder
    artifact for the killed worker, and (c) a schema-v13 manifest whose
    ``trace``/``resources`` sections account for the merge."""

    def test_chaos_sweep_produces_merged_trace_and_flight_artifact(
        self, tmp_path, monkeypatch
    ):
        import json
        import os
        import time

        from repro.core.tracing import Tracer, chrome_trace
        from repro.core.telemetry import MANIFEST_SCHEMA_VERSION, RunManifest
        from repro.experiments.runner import build_run_manifest

        flight_dir = tmp_path / "flight"
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(flight_dir))

        space = smoke_grid()
        tel = Telemetry(tracer=Tracer(label="driver"))
        run_started = time.time()
        result, report = run_fleet(
            space,
            FleetOptions(
                spawn_workers=3,
                wait_for_workers=3,
                chaos_plans=(ChaosPlan(kill_after_points=2),),
                **FAST,
            ),
            telemetry=tel,
        )
        run_ended = time.time()
        assert report.points_completed == space.size

        # (a) One merged trace: worker lanes absorbed into the driver's.
        trace = chrome_trace(tel.tracer.snapshot())
        lane_labels = {
            event["args"]["name"]: event["pid"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        worker_lanes = [name for name in lane_labels if name.startswith("worker-")]
        assert len(worker_lanes) >= 2, f"lanes: {sorted(lane_labels)}"
        assert "driver" in lane_labels

        # Worker lease spans are parented under the coordinator's
        # fleet.run span: the lease trace context crossed the wire.
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        fleet_run = [e for e in spans if e["name"] == "fleet.run"]
        assert len(fleet_run) == 1
        lease_spans = [e for e in spans if e["name"] == "fleet.worker.lease"]
        assert lease_spans, "workers shipped no lease spans"
        assert {e["args"]["parent_id"] for e in lease_spans} == {
            fleet_run[0]["args"]["span_id"]
        }
        driver_pid = os.getpid()
        assert all(e["pid"] != driver_pid for e in lease_spans)

        # Clock-aligned and monotone: every absorbed span lies inside
        # the run's wall-clock window (sync offsets on one host are
        # sub-millisecond; a second of slack absorbs scheduling noise).
        for event in spans:
            start_s = event["ts"] / 1e6
            end_s = start_s + event["dur"] / 1e6
            assert start_s >= run_started - 1.0
            assert end_s <= run_ended + 1.0
            assert event["dur"] >= 0

        # (b) The killed worker left a flight artifact behind (the
        # coordinator dumps on the requeue/expiry recovery action).
        dumps = sorted(flight_dir.glob("flight-*.json"))
        assert dumps, "no flight artifact for the killed worker"
        triggers = {json.loads(p.read_text())["trigger"] for p in dumps}
        assert triggers & {"fleet-worker-lost", "fleet-quarantine"}

        # (c) Schema-v10 manifest: trace-merge bookkeeping + resources.
        manifest = build_run_manifest(
            result, tel, "smoke", executor="process", n_workers=3
        )
        assert manifest.schema == MANIFEST_SCHEMA_VERSION == 13
        assert manifest.trace["events"] > 0
        assert set(manifest.trace) >= {"clock_offsets", "dropped_by_lane", "lanes"}
        offsets = manifest.trace["clock_offsets"]
        assert all(abs(v) < 5.0 for v in offsets.values())  # same host
        histograms = manifest.resources["histograms"]
        assert histograms["resources.rss_mb"]["count"] >= 1
        workers = manifest.resources["workers"]
        assert workers, "no per-worker resource attribution"
        assert any(label.startswith("worker-") for label in workers)
        # Each worker's RSS histogram is attributed to it, not only the
        # thread/CPU-second samples.
        assert any("resources.rss_mb" in digest for digest in workers.values())
        rebuilt = RunManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert rebuilt == manifest
