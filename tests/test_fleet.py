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
import sys
import threading
import time
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SlowToyEvaluator(ToyEvaluator):
    """:class:`ToyEvaluator` taking long enough that every worker leases."""

    def __call__(self, point) -> Evaluation:
        time.sleep(0.05)
        return super().__call__(point)


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
        point = protocol.encode_chunk([(0, DesignPoint())])[0]["point"]
        for index in (True, 1.7, math.inf):
            with pytest.raises(ProtocolError, match="malformed chunk"):
                protocol.decode_chunk([{"index": index, "point": point}])
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
        spans = {name: histogram.copy() for name, histogram in tel.spans.items()}
        snapshot = tel.snapshot(drain=True)
        wire = json.loads(json.dumps(snapshot))
        rebuilt = Telemetry()
        rebuilt.merge(wire, worker="w")
        again = rebuilt.snapshot()
        for key in ("counters", "spans", "histograms", "events"):
            assert again[key] == snapshot[key]
        assert rebuilt.histograms["v"].total == pytest.approx(4.0)
        # Spans keep buckets, count/total/min/max and the Welford m2
        # bit-for-bit, so a rebuilt span merges exactly like the original.
        assert rebuilt.spans == spans
        assert rebuilt.spans["s"].count == 3

    def test_malformed_histograms_rejected(self):
        tel = Telemetry()
        with tel.span("s"):
            pass
        wire = tel.snapshot(drain=True)
        for corrupt in ({"bounds": [1.0, 0.5]}, {"counts": [0]}, {"m2": None}):
            bad = json.loads(json.dumps(wire))
            bad["spans"]["s"].update(corrupt)
            with pytest.raises(ValueError):
                Telemetry().merge(bad)

    def test_empty_stats_infinities_survive(self):
        """An empty histogram has min=+inf / max=-inf; JSON has no inf."""
        tel = Telemetry()
        tel.count("only.counter")
        snapshot = tel.snapshot(drain=True)
        wire = json.loads(json.dumps(snapshot, allow_nan=False))
        rebuilt = Telemetry()
        rebuilt.merge(wire)
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


# --- evaluator spec resolution ------------------------------------------------


class TestResolveSpec:
    def test_callable_spec(self, tmp_path, monkeypatch):
        # A spec names data, never code: a coordinator naming a module to
        # import and call is refused before the module is imported.
        (tmp_path / "spec_target_probe.py").write_text(
            "raise AssertionError('a worker imported a spec target')\n"
            "def make():\n    return None\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        with pytest.raises(ValueError, match="unknown evaluator spec kind 'callable'"):
            resolve_spec({"kind": "callable", "target": "spec_target_probe:make", "args": {}})
        assert "spec_target_probe" not in sys.modules

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError, match="must be a dict"):
            resolve_spec("smoke")
        with pytest.raises(ValueError, match="unknown evaluator spec kind"):
            resolve_spec({"kind": "carrier-pigeon"})
        with pytest.raises(ValueError, match="unknown scale 'galactic'"):
            resolve_spec({"kind": "scale", "scale": "galactic"})
        with pytest.raises(ValueError, match="unknown scale"):
            resolve_spec({"kind": "scale"})


# --- clean end-to-end fleet runs ----------------------------------------------


class TestFleetExplorer:
    def test_fleet_matches_serial(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        serial = explorer.explore(space, name="serial")
        fleet = explorer.explore(
            space,
            name="fleet",
            executor="process",
            fleet=FleetOptions(spawn_workers=3),
        )
        assert_sweeps_identical(serial, fleet)

    def test_clean_run_evaluates_each_point_exactly_once(self):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        result = explorer.explore(
            space,
            executor="process",
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
            executor="process",
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
                executor="process",
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
                executor="process",
                checkpoint=checkpoint,
                fleet=FleetOptions(spawn_workers=2),
            )
        assert len(checkpoint.read_text().splitlines()) == 2

    def test_unprofiled_fleet_leaves_null_telemetry_empty(self):
        DesignSpaceExplorer(ToyEvaluator()).explore(
            smoke_grid(), executor="process", fleet=FleetOptions(spawn_workers=2)
        )
        assert not (NULL.counters or NULL.spans or NULL.histograms)
        assert not (NULL.events or NULL.workers)

    def test_fleet_options_demand_fleet_executor(self):
        # Fleet options configure the process executor and no other.
        explorer = DesignSpaceExplorer(ToyEvaluator())
        for executor in ("serial", "thread"):
            with pytest.raises(ValueError, match="'process' executor"):
                explorer.explore(smoke_grid(), executor=executor, fleet=FleetOptions())

    def test_worker_cache_prefills_second_run(self, tmp_path):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        options = FleetOptions(spawn_workers=2, worker_cache_dir=str(tmp_path))
        first = explorer.explore(space, executor="process", fleet=options)
        second = explorer.explore(
            space, executor="process", fleet=options, telemetry=tel
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
            executor="process",
            # The fair-start gate gives both workers a chunk; without it a
            # worker that connects late may find the queue already drained.
            fleet=FleetOptions(spawn_workers=2, wait_for_workers=2),
            telemetry=tel,
        )
        manifest = build_run_manifest(
            result, tel, "smoke", executor="process", n_workers=2
        )
        assert manifest.schema == MANIFEST_SCHEMA_VERSION == 12
        assert manifest.fleet["points_total"] == space.size
        assert manifest.fleet["points_completed"] == space.size
        assert sorted(manifest.fleet["workers"]) == ["worker-0", "worker-1"]
        rebuilt = RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert rebuilt.fleet == manifest.fleet

    def test_fleet_without_options_spawns_n_workers(self, monkeypatch):
        # Without FleetOptions the local fleet is sized like "process":
        # n_workers forked workers, not FleetOptions()'s default three.
        import repro.fleet

        spawned = []
        spawn = repro.fleet.spawn_local_workers

        def counting_spawn(count, *args, **kwargs):
            spawned.append(count)
            return spawn(count, *args, **kwargs)

        monkeypatch.setattr(repro.fleet, "spawn_local_workers", counting_spawn)
        explorer = DesignSpaceExplorer(SlowToyEvaluator())
        explorer.explore(
            [DesignPoint(n_bits=n) for n in range(6, 14)],
            executor="process",
            n_workers=2,
            chunk_size=1,
        )
        assert spawned == [2]
        assert sorted(explorer.last_fleet_report.workers) == ["worker-0", "worker-1"]

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


# --- what a completion may carry ----------------------------------------------


class RawWorker:
    """A hand-driven worker connection: one JSON line at a time."""

    def __init__(self, endpoint, label="raw"):
        self.sock = socket.create_connection(endpoint, timeout=10)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")
        self.writer = self.sock.makefile("w", encoding="utf-8", newline="\n")
        hello = {"type": "hello", "protocol": protocol.PROTOCOL_VERSION, "label": label}
        assert self.ask(hello, ("welcome",))["type"] == "welcome"

    def send(self, message):
        protocol.send_message(self.writer, message)

    def ask(self, message, expect):
        self.send(message)
        return protocol.recv_message(self.reader, expect=expect)

    def lease(self):
        reply = self.ask({"type": "request"}, ("lease", "wait"))
        while reply["type"] == "wait":  # the run has not started yet
            time.sleep(0.01)
            reply = self.ask({"type": "request"}, ("lease", "wait"))
        return reply

    def close(self):
        self.sock.close()


def complete_message(lease, rows, **extra):
    return {
        "type": "complete",
        "lease": lease["lease"],
        "chunk_digest": lease["chunk_digest"],
        "rows": protocol.encode_rows(rows),
        **extra,
    }


class TestCompletionValidation:
    def _start(self, tel, n_points=4):
        """A coordinator running ``points(n_points)`` in chunks of two."""
        from repro.fleet import FleetCoordinator

        coordinator = FleetCoordinator(
            evaluator_fingerprint(ToyEvaluator()), policy=DEFAULT_POLICY, telemetry=tel
        )
        finalized = []
        outcome = {}

        def run():
            outcome["report"] = coordinator.run(
                points(n_points),
                lambda index, evaluation, *_: finalized.append(
                    (index, evaluation.point.describe())
                ),
                chunk_size=2,
            )

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        return coordinator, runner, finalized, outcome

    def test_lease_table_rejects_rows_it_never_granted(self):
        chunk = points(2)
        table, _clock = make_table([chunk, points(2, start=2)])
        lease, _ = table.grant("w#1")
        foreign = rows_for(points(1, start=3))
        wrong_point = rows_for([(1, DesignPoint(n_bits=12, lna_noise_rms=9e-6))])
        for rows in (foreign, rows_for(chunk[:1]) + wrong_point):
            with pytest.raises(ProtocolError, match="not granted"):
                table.complete(lease.lease_id, rows)
        assert not table.done and lease.lease_id in table.leases
        fresh, duplicates = table.complete(lease.lease_id, rows_for(chunk + chunk[:1]))
        assert [row[0] for row in fresh] == [0, 1] and duplicates == 1

    def test_lease_table_rejects_a_point_that_only_shares_the_label(self):
        chunk = points(2)
        table, _clock = make_table([chunk])
        lease, _ = table.grant("w#1")
        index, point = chunk[1]
        twin = point.with_(v_dd=1.2)
        assert twin.describe() == point.describe()
        with pytest.raises(ProtocolError, match="not granted"):
            table.complete(lease.lease_id, rows_for(chunk[:1] + [(index, twin)]))
        assert not table.done

    def test_forged_completion_drops_connection_and_requeues(self):
        tel = Telemetry()
        coordinator, runner, finalized, outcome = self._start(tel)
        try:
            forger = RawWorker(coordinator.endpoint, label="forger")
            lease = forger.lease()
            assert [row["index"] for row in lease["points"]] == [0, 1]
            forged = (3, Evaluation(DesignPoint(n_bits=12, lna_noise_rms=9e-6), {"m": 1.0}))
            forger.send(complete_message(lease, [(*forged, 0.01, {})]))
            assert protocol.recv_message(forger.reader) is None  # dropped
            forger.close()
            from repro.fleet import FleetWorker

            FleetWorker(coordinator.endpoint, ToyEvaluator(), label="honest").run()
            runner.join(10)
            assert not runner.is_alive()
        finally:
            coordinator.close()
        expected = [(index, point.describe()) for index, point in points(4)]
        assert sorted(finalized) == expected
        report = outcome["report"]
        assert report.requeues == 1
        assert report.workers["honest"]["points"] == 4

    def test_malformed_diagnostics_cost_no_rows(self, monkeypatch):
        from repro.core.tracing import Tracer

        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        tel = Telemetry(tracer=Tracer(label="driver"))
        coordinator, runner, finalized, _ = self._start(tel, n_points=2)
        try:
            worker = RawWorker(coordinator.endpoint, label="sloppy")
            lease = worker.lease()
            worker.send({"type": "heartbeat", "lease": lease["lease"], "trace": {"version": 1}})
            chunk = protocol.decode_chunk(lease["points"])
            ack = worker.ask(
                complete_message(
                    lease,
                    rows_for(chunk),
                    telemetry={"counters": {"x": "boom"}},
                    trace={"version": 1, "events": [{"ph": "X"}]},
                ),
                ("ack",),
            )
            assert ack["fresh"] == 2
            worker.send({"type": "bye"})
            worker.close()
            runner.join(10)
            assert not runner.is_alive()
        finally:
            coordinator.close()
        assert escaped == []
        assert sorted(finalized) == [(i, p.describe()) for i, p in points(2)]
        assert "x" not in tel.counters and not tel.workers
        assert tel.tracer.lanes() == {tel.tracer.pid: "driver"}

    @staticmethod
    def _sweep_past_a_sloppy_worker(monkeypatch, misbehave):
        """Sweep 4 toy points while a raw worker misbehaves on its lease.

        ``misbehave(worker, lease)`` sends the bad message.  The
        coordinator must drop that connection and requeue its lease once;
        an honest worker then finishes the sweep with the serial results,
        and no exception escapes into a thread and no thread outlives it.
        Returns the sweep's telemetry.
        """
        from repro.fleet import FleetWorker

        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        threads_before = set(threading.enumerate())
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            endpoint = probe.getsockname()
        grid = [point for _, point in points(4)]
        explorer = DesignSpaceExplorer(ToyEvaluator())
        tel = Telemetry()
        outcome = {}

        def sweep():
            outcome["result"] = explorer.explore(
                grid,
                executor="process",
                chunk_size=2,
                telemetry=tel,
                fleet=FleetOptions(spawn_workers=0, port=endpoint[1]),
            )

        runner = threading.Thread(target=sweep, daemon=True)
        runner.start()
        deadline = time.monotonic() + 10
        while True:
            try:
                sloppy = RawWorker(endpoint, label="sloppy")
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        try:
            lease = sloppy.lease()
            assert [row["index"] for row in lease["points"]] == [0, 1]
            misbehave(sloppy, lease)
            assert protocol.recv_message(sloppy.reader) is None  # dropped
        finally:
            sloppy.close()
            FleetWorker(endpoint, ToyEvaluator(), label="honest").run()
            runner.join(10)
        assert not runner.is_alive()
        deadline = time.monotonic() + 5
        while set(threading.enumerate()) - threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert set(threading.enumerate()) <= threads_before
        assert escaped == []
        assert_sweeps_identical(explorer.explore(grid), outcome["result"])
        report = explorer.last_fleet_report
        assert report.requeues == 1
        assert report.workers["honest"]["points"] == 4
        return tel

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("stats", {"retries": "x"}),
            ("stats", {"retries": -1}),
            ("stats", {"timeouts": True}),
            ("stats", {"retries": 1.5}),
            ("stats", []),
            ("index", math.inf),
            ("index", 1.7),
            ("index", True),
            ("elapsed_s", math.inf),
            ("elapsed_s", -5.0),
            pytest.param("elapsed_s", 10**400, id="elapsed_s-beyond-float"),
        ],
    )
    def test_mistyped_row_stats_drop_the_connection_not_the_sweep(
        self, monkeypatch, field, value
    ):
        # The explorer's finalize hook files a row under its index, adds
        # its stats to telemetry counters and its elapsed time to the
        # latency histogram; a mistyped field must reach none of them.
        def misbehave(sloppy, lease):
            message = complete_message(lease, rows_for(protocol.decode_chunk(lease["points"])))
            # Only the second row: an index of 1.7 or true must not pass
            # as its own index 1.
            message["rows"][1][field] = value
            sloppy.send(message)

        tel = self._sweep_past_a_sloppy_worker(monkeypatch, misbehave)
        assert "explore.retries" not in tel.counters
        for histogram in tel.histograms.values():
            assert math.isfinite(histogram.total) and math.isfinite(histogram.m2)

    @pytest.mark.parametrize("kind", ["heartbeat", "complete", "fail"])
    @pytest.mark.parametrize(
        "lease_id",
        [None, 7, 1.5, True, ["lease-000001"], {"id": "lease-000001"}],
        ids=["null", "int", "float", "bool", "list", "object"],
    )
    def test_mistyped_lease_id_drops_the_connection_not_the_sweep(
        self, monkeypatch, kind, lease_id
    ):
        # Coerced with str(), a null or 7 lease would be acked (or, for a
        # heartbeat, silently ignored) while the real lease waits out its
        # timeout.
        def misbehave(sloppy, lease):
            if kind == "complete":
                message = complete_message(
                    lease, rows_for(protocol.decode_chunk(lease["points"]))
                )
            else:
                message = {"type": kind, "lease": lease["lease"], "error": "boom"}
            message["lease"] = lease_id
            sloppy.send(message)

        tel = self._sweep_past_a_sloppy_worker(monkeypatch, misbehave)
        assert "fleet.worker_failures" not in tel.counters

    @pytest.mark.parametrize(
        "error", [None, 7, ["boom"], {"why": "boom"}], ids=["null", "int", "list", "object"]
    )
    def test_mistyped_fail_error_drops_the_connection_not_the_sweep(
        self, monkeypatch, error
    ):
        # Coerced with str(), the reason would land in requeue events and
        # in quarantined evaluations.
        def misbehave(sloppy, lease):
            sloppy.send({"type": "fail", "lease": lease["lease"], "error": error})

        tel = self._sweep_past_a_sloppy_worker(monkeypatch, misbehave)
        assert "fleet.worker_failures" not in tel.counters


# --- the clock-sync exchange --------------------------------------------------


class TestClockSync:
    def test_ack_carries_only_the_coordinator_clock(self):
        # The worker times the exchange on its own clock, so nothing it
        # sends in a sync comes back.
        from repro.fleet import FleetCoordinator

        coordinator = FleetCoordinator(
            evaluator_fingerprint(ToyEvaluator()), policy=DEFAULT_POLICY
        )
        try:
            worker = RawWorker(coordinator.endpoint, label="sync")
            ack = worker.ask({"type": "sync", "t0": {"at": [1, {"deep": "x"}]}}, ("sync_ack",))
            worker.close()
        finally:
            coordinator.close()
        assert set(ack) == {"type", "t1"}
        assert math.isfinite(ack["t1"])

    @pytest.mark.parametrize(
        "t1", ['"soon"', "null", "NaN", "Infinity", "true"], ids=lambda token: token
    )
    def test_worker_refuses_a_clock_that_is_not_a_finite_number(self, t1):
        from repro.fleet import FleetWorker

        received = []

        def stub_coordinator(listener):
            conn, _ = listener.accept()
            with conn, conn.makefile("r", encoding="utf-8", newline="\n") as reader:
                received.append(json.loads(reader.readline()))
                welcome = {"type": "welcome", "protocol": protocol.PROTOCOL_VERSION}
                conn.sendall((json.dumps(welcome) + "\n").encode())
                received.append(json.loads(reader.readline()))
                conn.sendall(('{"type": "sync_ack", "t1": ' + t1 + "}\n").encode())
                reader.readline()  # until the worker hangs up

        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            stub = threading.Thread(target=stub_coordinator, args=(listener,), daemon=True)
            stub.start()
            worker = FleetWorker(listener.getsockname(), ToyEvaluator(), label="w")
            try:
                with pytest.raises(ProtocolError, match="t1"):
                    worker.run()
            finally:
                worker._disconnect()
            stub.join(10)
        assert not stub.is_alive()
        assert received[1] == {"type": "sync"}
