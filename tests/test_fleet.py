"""Tests of the fleet layer: protocol, lease state machine, clean runs.

The chaos suite (``test_fleet_chaos.py``) proves fault recovery over
real sockets and SIGKILLed processes; this file pins down everything
that must hold *before* chaos means anything -- exact wire round-trips,
the requeue -> split -> quarantine ladder at interactive speed (fake
clock, no sockets), and digest-identical clean fleet runs with
exactly-once evaluator-call accounting.
"""

import errno
import io
import json
import math
import socket
import threading

import pytest

from repro.core.execution import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    PointEvaluationError,
    SweepCheckpoint,
    evaluator_fingerprint,
    retry_delay_s,
)
from repro.core.explorer import DesignSpaceExplorer
from repro.core.results import Evaluation
from repro.core.telemetry import (
    MANIFEST_SCHEMA_VERSION,
    NULL,
    RunManifest,
    Telemetry,
    TelemetrySnapshot,
)
from repro.fleet import (
    FleetOptions,
    LeaseTable,
    ProtocolError,
    protocol,
    resolve_spec,
)
from repro.power.technology import DesignPoint
from tests.test_parallel_explorer import (
    FailingEvaluator,
    ToyEvaluator,
    assert_sweeps_identical,
    smoke_grid,
)


def points(n: int, start: int = 0) -> list[tuple[int, DesignPoint]]:
    return [
        (i, DesignPoint(n_bits=6 + (i % 6), lna_noise_rms=2e-6))
        for i in range(start, start + n)
    ]


def rows_for(chunk, value: float = 1.0):
    return [
        (index, Evaluation(point, metrics={"m": value}), 0.01, {"retries": 0, "timeouts": 0})
        for index, point in chunk
    ]


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_table(chunks, **kwargs) -> tuple[LeaseTable, FakeClock]:
    clock = FakeClock()
    kwargs.setdefault("lease_timeout_s", 10.0)
    return LeaseTable(chunks, clock=clock, **kwargs), clock


# --- protocol wire round-trips ------------------------------------------------


class TestProtocol:
    def test_chunk_round_trip(self):
        chunk = points(4)
        decoded = protocol.decode_chunk(protocol.encode_chunk(chunk))
        assert [(i, p.describe()) for i, p in decoded] == [
            (i, p.describe()) for i, p in chunk
        ]

    def test_chunk_digest_tracks_content(self):
        chunk = points(3)
        assert protocol.chunk_digest(chunk) == protocol.chunk_digest(list(chunk))
        assert protocol.chunk_digest(chunk) != protocol.chunk_digest(chunk[:2])
        reindexed = [(i + 1, p) for i, p in chunk]
        assert protocol.chunk_digest(chunk) != protocol.chunk_digest(reindexed)

    def test_rows_round_trip_including_failures(self):
        chunk = points(2)
        rows = rows_for(chunk) + [
            (99, Evaluation(chunk[0][1], metrics={}, error="boom"), 0.0, {}),
        ]
        decoded = protocol.decode_rows(protocol.encode_rows(rows))
        assert decoded[0][0] == chunk[0][0]
        assert decoded[0][1].metrics == {"m": 1.0}
        assert decoded[0][2] == pytest.approx(0.01)
        assert decoded[2][1].error == "boom"

    def test_send_recv_round_trip(self):
        buffer = io.StringIO()
        protocol.send_message(buffer, {"type": "request", "n": 3})
        buffer.seek(0)
        assert protocol.recv_message(buffer) == {"type": "request", "n": 3}
        assert protocol.recv_message(buffer) is None  # EOF

    def test_non_finite_metrics_cross_the_wire(self):
        (index, point), = points(1)
        metrics = {"snr_db": -math.inf, "gain": math.inf, "acc": math.nan}
        rows = [(index, Evaluation(point, metrics=metrics), 0.01, {})]
        buffer = io.StringIO()
        protocol.send_message(
            buffer, {"type": "complete", "rows": protocol.encode_rows(rows)}
        )
        buffer.seek(0)
        (row,) = protocol.decode_rows(protocol.recv_message(buffer)["rows"])
        assert row[1].metrics["snr_db"] == -math.inf
        assert row[1].metrics["gain"] == math.inf
        assert math.isnan(row[1].metrics["acc"])

    def test_a_long_message_goes_out_in_one_write(self):
        # A separate newline write would be a second TCP segment, which
        # Nagle's algorithm holds until the peer's delayed ACK.
        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        protocol.send_message(Recording(), {"type": "ack", "pad": "x" * 20_000})
        assert len(writes) == 1 and writes[0].endswith("\n")

    def test_recv_rejects_junk_and_unexpected_types(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.recv_message(io.StringIO("not json\n"))
        with pytest.raises(ProtocolError, match="must be an object"):
            protocol.recv_message(io.StringIO('["a", "list"]\n'))
        with pytest.raises(ProtocolError, match="unexpected message type"):
            protocol.recv_message(
                io.StringIO('{"type": "lease"}\n'), expect=("ack",)
            )

    @staticmethod
    def _read_from_socket(payload: bytes, reads: int = 1) -> list:
        """recv_message ``reads`` times on a socket fed ``payload`` by a peer."""
        ours, peer = socket.socketpair()

        def feed():
            try:
                peer.sendall(payload)
            except OSError:
                pass  # we hung up mid-line after rejecting it
            finally:
                peer.close()

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        reader = ours.makefile("r", encoding="utf-8", newline="\n")
        try:
            return [protocol.recv_message(reader) for _ in range(reads)]
        finally:
            reader.close()
            ours.close()
            feeder.join(timeout=10)

    def test_recv_rejects_a_line_that_reaches_the_cap(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            self._read_from_socket(b"x" * (protocol.MAX_LINE_LENGTH + 1))

    def test_recv_parses_a_message_just_under_the_cap(self):
        empty = json.dumps({"type": "heartbeat", "pad": ""}, separators=(",", ":"))
        pad = "x" * (protocol.MAX_LINE_LENGTH - 1 - len(empty))
        line = json.dumps({"type": "heartbeat", "pad": pad}, separators=(",", ":"))
        assert len(line) + 1 == protocol.MAX_LINE_LENGTH
        follow_up = b'{"type":"request"}\n'
        big, small = self._read_from_socket(line.encode() + b"\n" + follow_up, reads=2)
        assert big["pad"] == pad
        assert small == {"type": "request"}

    def test_malformed_chunk_and_rows_raise(self):
        with pytest.raises(ProtocolError, match="malformed chunk"):
            protocol.decode_chunk([{"index": 0}])
        with pytest.raises(ProtocolError, match="malformed result rows"):
            protocol.decode_rows([{"index": 0, "elapsed_s": 0.0}])


class TestTelemetryWire:
    def test_snapshot_survives_json_round_trip(self):
        tel = Telemetry()
        tel.count("c", 3)
        tel.observe("v", 1.5)
        tel.observe("v", 2.5)
        for _ in range(3):
            with tel.span("s"):
                pass
        tel.event("e", detail="x")
        snapshot = tel.drain_snapshot("w")
        wire = json.loads(json.dumps(snapshot.to_wire()))
        rebuilt = TelemetrySnapshot.from_wire(wire)
        assert rebuilt.to_wire() == snapshot.to_wire()
        assert rebuilt.counters == snapshot.counters
        assert rebuilt.histograms["v"].total == pytest.approx(4.0)
        # Spans keep buckets, count/total/min/max and the Welford m2
        # bit-for-bit, so a rebuilt span merges exactly like the original.
        assert rebuilt.spans == snapshot.spans
        assert rebuilt.spans["s"].count == 3

    def test_malformed_histograms_rejected(self):
        tel = Telemetry()
        with tel.span("s"):
            pass
        wire = tel.drain_snapshot("w").to_wire()
        for corrupt in ({"bounds": [1.0, 0.5]}, {"counts": [0]}, {"m2": None}):
            bad = json.loads(json.dumps(wire))
            bad["spans"]["s"].update(corrupt)
            with pytest.raises((TypeError, ValueError)):
                TelemetrySnapshot.from_wire(bad)

    def test_empty_stats_infinities_survive(self):
        """An empty histogram has min=+inf / max=-inf; JSON has no inf."""
        tel = Telemetry()
        tel.count("only.counter")
        snapshot = tel.drain_snapshot("w")
        wire = json.loads(
            json.dumps(snapshot.to_wire(), allow_nan=False)
        )
        rebuilt = TelemetrySnapshot.from_wire(wire)
        assert rebuilt.counters == {"only.counter": 1}


# --- the lease state machine --------------------------------------------------


class TestLeaseTable:
    def test_grant_complete_done(self):
        chunk = points(3)
        table, _clock = make_table([chunk])
        lease, granted = table.grant("w#1")
        assert granted == chunk
        assert lease.n_points == 3
        fresh, duplicates = table.complete(lease.lease_id, rows_for(chunk))
        assert len(fresh) == 3 and duplicates == 0
        assert table.all_done
        assert table.report.points_completed == 3
        assert table.grant("w#2") is None

    def test_heartbeat_extends_deadline(self):
        table, clock = make_table([points(2)], lease_timeout_s=10.0)
        lease, _ = table.grant("w#1")
        clock.advance(8.0)
        assert table.heartbeat(lease.lease_id)
        clock.advance(8.0)  # 16s since grant, 8s since heartbeat
        assert table.expire() == []
        clock.advance(3.0)
        events = table.expire()
        assert [e["action"] for e in events] == ["requeue"]
        assert not table.heartbeat(lease.lease_id)  # lease is gone

    def test_expiry_ladder_requeue_split_quarantine(self):
        chunk = points(2)
        table, clock = make_table([chunk], lease_timeout_s=1.0, max_requeues=1)

        lease, _ = table.grant("w#1")
        clock.advance(2.0)
        assert [e["action"] for e in table.expire()] == ["requeue"]

        lease, granted = table.grant("w#1")
        assert granted == chunk  # same chunk back
        clock.advance(2.0)
        events = table.expire()
        assert [e["action"] for e in events] == ["split"]
        assert table.report.splits == 1

        # Two single-point chunks, each one expiry away from quarantine.
        quarantined = []
        for _ in range(2):
            lease, granted = table.grant("w#2")
            assert len(granted) == 1
            clock.advance(2.0)
            events = table.expire()
            assert [e["action"] for e in events] == ["quarantine"]
            quarantined.append(events[0]["index"])
        assert sorted(quarantined) == [0, 1]
        assert table.all_done
        assert table.report.points_quarantined == 2
        assert "PoisonChunk" in table.report.quarantined[0]["reason"]
        assert table.report.leases_expired == 4

    def test_late_completion_after_expiry_is_deduplicated(self):
        chunk = points(3)
        table, clock = make_table([chunk], lease_timeout_s=1.0)
        stale, _ = table.grant("w#1")
        clock.advance(2.0)
        table.expire()

        fresh_lease, granted = table.grant("w#2")
        fresh, duplicates = table.complete(fresh_lease.lease_id, rows_for(granted))
        assert len(fresh) == 3 and duplicates == 0

        # The first worker was slow, not dead: its copy arrives late and
        # must merge as pure duplicates -- exactly-once per index.
        late_fresh, late_duplicates = table.complete(stale.lease_id, rows_for(chunk))
        assert late_fresh == [] and late_duplicates == 3
        assert table.report.points_completed == 3
        assert table.report.duplicates_dropped == 3

    def test_partial_overlap_dedups_per_index(self):
        chunk = points(4)
        table, clock = make_table([chunk], lease_timeout_s=1.0)
        stale, _ = table.grant("w#1")
        clock.advance(2.0)
        table.expire()
        # The late copy lands FIRST with half the points...
        fresh, duplicates = table.complete(stale.lease_id, rows_for(chunk[:2]))
        assert len(fresh) == 2 and duplicates == 0
        # ...then the regrant completes everything: only the other half counts.
        lease, granted = table.grant("w#2")
        assert [i for i, _ in granted] == [2, 3]  # done indices filtered out
        fresh, duplicates = table.complete(lease.lease_id, rows_for(granted))
        assert len(fresh) == 2 and duplicates == 0
        assert table.all_done

    def test_unknown_lease_completion_rejected(self):
        table, _clock = make_table([points(1)])
        with pytest.raises(ProtocolError, match="unknown lease"):
            table.complete("lease-999999", [])

    def test_release_worker_requeues_only_their_leases(self):
        table, _clock = make_table([points(2), points(2, start=2)])
        mine, _ = table.grant("w#1")
        theirs, theirs_chunk = table.grant("w#2")
        events = table.release_worker("w#1")
        assert [e["action"] for e in events] == ["requeue"]
        assert mine.lease_id not in table.leases
        assert theirs.lease_id in table.leases
        table.complete(theirs.lease_id, rows_for(theirs_chunk))
        lease, granted = table.grant("w#3")
        assert lease.chunk_id == mine.chunk_id

    def test_reported_failure_requeues(self):
        table, _clock = make_table([points(2)])
        lease, _ = table.grant("w#1")
        events = table.fail(lease.lease_id, "OOM")
        assert [e["action"] for e in events] == ["requeue"]
        assert events[0]["reason"] == "worker failure: OOM"
        assert table.report.worker_failures == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="lease_timeout_s"):
            LeaseTable([points(1)], lease_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_requeues"):
            LeaseTable([points(1)], max_requeues=-1)


# --- retry backoff jitter (satellite) -----------------------------------------


class TestRetryJitter:
    def test_jitter_is_deterministic_and_bounded(self):
        policy = ExecutionPolicy(retries=3, retry_backoff_s=0.5)
        point = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
        delays = [retry_delay_s(policy, point, attempt) for attempt in (1, 2, 3)]
        assert delays == [retry_delay_s(policy, point, a) for a in (1, 2, 3)]
        for attempt, delay in zip((1, 2, 3), delays):
            assert 0.0 <= delay <= 0.5 * 2 ** (attempt - 1)

    def test_jitter_decorrelates_points(self):
        policy = ExecutionPolicy(retries=1, retry_backoff_s=1.0)
        a = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
        b = DesignPoint(n_bits=6, lna_noise_rms=2e-6)
        assert retry_delay_s(policy, a, 1) != retry_delay_s(policy, b, 1)

    def test_zero_backoff_stays_zero(self):
        """The deterministic 0-backoff test path must not start sleeping."""
        policy = ExecutionPolicy(retries=3, retry_backoff_s=0.0)
        point = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
        assert retry_delay_s(policy, point, 1) == 0.0
        assert retry_delay_s(policy, point, 5) == 0.0

    def test_jitter_off_gives_full_ceiling(self):
        policy = ExecutionPolicy(retries=2, retry_backoff_s=0.25, retry_jitter=False)
        point = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
        assert retry_delay_s(policy, point, 1) == 0.25
        assert retry_delay_s(policy, point, 3) == 1.0


# --- evaluator spec resolution ------------------------------------------------


def make_toy_evaluator(master_seed: int = 7):
    """Factory target for the ``callable`` spec kind."""
    return ToyEvaluator(master_seed=master_seed)


class TestResolveSpec:
    def test_callable_spec(self):
        evaluator = resolve_spec(
            {
                "kind": "callable",
                "target": "tests.test_fleet:make_toy_evaluator",
                "args": {"master_seed": 11},
            }
        )
        assert evaluator.fingerprint() == "toy:11"

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError, match="must be a dict"):
            resolve_spec("smoke")
        with pytest.raises(ValueError, match="unknown evaluator spec kind"):
            resolve_spec({"kind": "carrier-pigeon"})
        with pytest.raises(ValueError, match="module:attr"):
            resolve_spec({"kind": "callable", "target": "no-colon"})


# --- clean end-to-end fleet runs ----------------------------------------------


class TestFleetExplorer:
    def test_fleet_matches_serial(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        serial = explorer.explore(space, name="serial")
        fleet = explorer.explore(
            space,
            name="fleet",
            executor="fleet",
            fleet=FleetOptions(spawn_workers=3),
        )
        assert_sweeps_identical(serial, fleet)

    def test_clean_run_evaluates_each_point_exactly_once(self):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        result = explorer.explore(
            space,
            executor="fleet",
            fleet=FleetOptions(spawn_workers=3),
            telemetry=tel,
        )
        report = explorer.last_fleet_report
        assert report is not None
        assert report.points_total == space.size == len(result)
        assert report.points_completed == space.size
        assert report.points_quarantined == 0
        assert report.duplicates_dropped == 0
        assert report.requeues == 0
        # Worker telemetry merges home: total evaluator calls over the
        # fleet equal the grid size -- nothing re-evaluated, nothing lost.
        assert tel.counters["fleet.worker.evaluator_calls"] == space.size
        assert sum(w["points"] for w in report.workers.values()) == space.size

    def test_fair_start_spreads_first_leases(self):
        """wait_for_workers guarantees every worker at least one chunk.

        Without the gate a fast worker may drain the whole (cheap)
        queue before its siblings finish connecting -- which is why
        the chaos suite relies on this property to make its fault
        injection deterministic.
        """
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        explorer.explore(
            space,
            executor="fleet",
            fleet=FleetOptions(spawn_workers=3, wait_for_workers=3),
        )
        report = explorer.last_fleet_report
        assert sorted(report.workers) == ["worker-0", "worker-1", "worker-2"]
        assert all(w["points"] > 0 for w in report.workers.values())
        assert report.points_completed == space.size

    def test_strict_raises_for_the_first_failed_point(self, tmp_path):
        sweep = [DesignPoint(n_bits=n) for n in (6, 7, 8, 9)]
        checkpoint = tmp_path / "strict.jsonl"
        explorer = DesignSpaceExplorer(FailingEvaluator(bad_bits=7))
        with pytest.raises(PointEvaluationError) as excinfo:
            explorer.explore(
                sweep,
                executor="fleet",
                strict=True,
                chunk_size=1,
                checkpoint=checkpoint,
                fleet=FleetOptions(spawn_workers=2),
            )
        assert excinfo.value.point_description == sweep[1].describe()
        assert "cannot evaluate 7-bit points" in str(excinfo.value)
        # The failed point never reached the checkpoint.
        restored = SweepCheckpoint(checkpoint).load()
        assert 1 not in restored
        assert all(evaluation.error is None for evaluation in restored.values())

    def test_finalize_error_is_raised_not_swallowed(self, tmp_path, monkeypatch):
        # A full disk under the checkpoint fails the sweep, as it does on
        # the serial path, instead of dropping one checkpoint line.
        original = SweepCheckpoint.append_many
        calls = []

        def append_many(self, entries):
            calls.append(None)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            original(self, entries)

        monkeypatch.setattr(SweepCheckpoint, "append_many", append_many)
        checkpoint = tmp_path / "full.jsonl"
        explorer = DesignSpaceExplorer(ToyEvaluator())
        with pytest.raises(OSError, match="No space left"):
            explorer.explore(
                smoke_grid(),
                executor="fleet",
                checkpoint=checkpoint,
                fleet=FleetOptions(spawn_workers=2),
            )
        assert len(checkpoint.read_text().splitlines()) == 2

    def test_unprofiled_fleet_leaves_null_telemetry_empty(self):
        DesignSpaceExplorer(ToyEvaluator()).explore(
            smoke_grid(), executor="fleet", fleet=FleetOptions(spawn_workers=2)
        )
        assert not (NULL.counters or NULL.spans or NULL.histograms)
        assert not (NULL.events or NULL.workers)

    def test_fleet_options_demand_fleet_executor(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        with pytest.raises(ValueError, match="require executor='fleet'"):
            explorer.explore(smoke_grid(), fleet=FleetOptions())

    def test_worker_cache_prefills_second_run(self, tmp_path):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        options = FleetOptions(spawn_workers=2, worker_cache_dir=str(tmp_path))
        first = explorer.explore(space, executor="fleet", fleet=options)
        second = explorer.explore(
            space, executor="fleet", fleet=options, telemetry=tel
        )
        assert_sweeps_identical(first, second)
        assert tel.counters.get("fleet.worker.evaluator_calls", 0) == 0
        assert tel.counters["fleet.worker.cache_hits"] == space.size

    def test_manifest_carries_fleet_section(self):
        from repro.experiments.runner import build_run_manifest

        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        result = explorer.explore(
            space,
            name="fleet-manifest",
            executor="fleet",
            # The fair-start gate gives both workers a chunk; without it a
            # worker that connects late may find the queue already drained.
            fleet=FleetOptions(spawn_workers=2, wait_for_workers=2),
            telemetry=tel,
        )
        manifest = build_run_manifest(
            result, tel, "smoke", executor="fleet", n_workers=2
        )
        assert manifest.schema == MANIFEST_SCHEMA_VERSION == 10
        assert manifest.fleet["points_total"] == space.size
        assert manifest.fleet["points_completed"] == space.size
        assert sorted(manifest.fleet["workers"]) == ["worker-0", "worker-1"]
        rebuilt = RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert rebuilt.fleet == manifest.fleet

    def test_no_lease_after_interrupt(self):
        """After the completion that crosses ``interrupt_after_points``,
        the next request gets no lease, however fast the worker is."""
        from repro.fleet import FleetCoordinator

        coordinator = FleetCoordinator("f" * 64, policy=DEFAULT_POLICY)
        interrupted = threading.Event()

        def run():
            try:
                coordinator.run(
                    points(6), lambda *row: None, chunk_size=1, interrupt_after_points=1
                )
            except KeyboardInterrupt:
                interrupted.set()

        def ask(writer, reader, message, expect):
            protocol.send_message(writer, message)
            return protocol.recv_message(reader, expect=expect)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        try:
            with socket.create_connection(coordinator.endpoint, timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                writer = sock.makefile("w", encoding="utf-8", newline="\n")
                hello = {"type": "hello", "protocol": protocol.PROTOCOL_VERSION, "label": "w"}
                ask(writer, reader, hello, ("welcome",))
                lease = ask(writer, reader, {"type": "request"}, ("lease", "wait"))
                while lease["type"] == "wait" and runner.is_alive():  # not started yet
                    lease = ask(writer, reader, {"type": "request"}, ("lease", "wait"))
                chunk = protocol.decode_chunk(lease["points"])
                complete = {
                    "type": "complete",
                    "lease": lease["lease"],
                    "chunk_digest": lease["chunk_digest"],
                    "rows": protocol.encode_rows(rows_for(chunk)),
                }
                assert ask(writer, reader, complete, ("ack",))["fresh"] == 1
                after = ask(writer, reader, {"type": "request"}, ("lease", "wait", "done"))
                assert after["type"] == "wait"
            runner.join(10)
            assert interrupted.is_set()
        finally:
            coordinator.close()

    def test_fingerprint_mismatch_refuses_worker(self):
        """A worker on the wrong evaluator must refuse, not poison."""
        from repro.fleet import FleetCoordinator, FleetWorker

        coordinator = FleetCoordinator(
            evaluator_fingerprint(ToyEvaluator(master_seed=1)),
            policy=DEFAULT_POLICY,
        )
        try:
            worker = FleetWorker(
                coordinator.endpoint, ToyEvaluator(master_seed=2), label="wrong"
            )
            with pytest.raises(ProtocolError, match="fingerprint mismatch"):
                worker.run()
        finally:
            coordinator.close()
