"""Smoke-test of the process executor's fault-tolerant fleet under scripted chaos.

Runs the same smoke-scale paper sweep twice -- once serially, once on a
three-worker lease-based fleet where one worker is SIGKILLed mid-chunk
and another drops its heartbeats past the lease deadline -- and asserts
the fault-tolerance contract:

1. the fleet result is point-for-point identical to the serial run
   (same metrics, same errors, zero lost and zero duplicated points);
2. the coordinator actually recovered something (at least one lease
   was requeued or expired -- chaos that injures nothing proves
   nothing);
3. no point was quarantined as poison (the faults are environmental,
   not evaluator bugs);
4. the lease-event trail (``fleet.lease`` grant/requeue/complete
   actions) lands in the ``--events-out`` JSONL for post-mortems;
5. with ``--trace-out``, the merged Chrome trace carries at least two
   clock-aligned ``worker-*`` lanes next to the driver's (distributed
   tracing crossed the wire);
6. with ``--flight-dir``, the killed/silenced worker left a
   ``flight-*.json`` crash artifact behind.

Used as the CI chaos smoke test::

    PYTHONPATH=src python examples/fleet_chaos_smoke.py \
        --events-out fleet-events.jsonl \
        --trace-out fleet-trace.json --flight-dir flight

Exits non-zero (assertion) on any contract violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core.explorer import DesignSpaceExplorer
from repro.core.metrics import JsonlEventWriter
from repro.core.telemetry import Telemetry
from repro.core.tracing import Tracer, chrome_trace
from repro.experiments.runner import make_harness, search_space_for
from repro.fleet import ChaosPlan, FleetOptions


def assert_identical(serial, fleet) -> None:
    assert len(serial) == len(fleet), (len(serial), len(fleet))
    for ours, theirs in zip(serial, fleet):
        assert ours.point.describe() == theirs.point.describe()
        assert ours.metrics == theirs.metrics, ours.point.describe()
        assert ours.error == theirs.error, ours.point.describe()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--events-out", default=None, metavar="PATH")
    parser.add_argument("--trace-out", default=None, metavar="PATH")
    parser.add_argument("--flight-dir", default=None, metavar="DIR")
    args = parser.parse_args(argv)
    if args.flight_dir:
        # Workers inherit the environment, so their dumps land here too.
        os.environ["REPRO_FLIGHT_DIR"] = args.flight_dir

    harness = make_harness(args.scale)
    space = search_space_for(args.scale)
    print(f"sweeping {space.size} points at scale {args.scale!r}")

    serial = DesignSpaceExplorer(harness.evaluator).explore(space, name="serial")
    print(f"serial baseline done ({len(serial)} points)")

    sink = JsonlEventWriter(args.events_out) if args.events_out else None
    tracer = Tracer(label="driver") if args.trace_out else None
    telemetry = Telemetry(event_sink=sink, tracer=tracer)
    explorer = DesignSpaceExplorer(harness.evaluator)
    try:
        result = explorer.explore(
            space,
            executor="process",
            telemetry=telemetry,
            fleet=FleetOptions(
                spawn_workers=args.workers,
                # Fair start: guarantee every worker (and so every chaos
                # plan) gets a lease even on a single-core CI runner.
                wait_for_workers=args.workers,
                lease_timeout_s=2.0,
                heartbeat_interval_s=0.5,
                chaos_plans=(
                    ChaosPlan(kill_after_points=2),
                    ChaosPlan(drop_heartbeats_on_chunk=0, complete_delay_s=4.0),
                ),
            ),
        )
    finally:
        if sink is not None:
            sink.close()
    report = explorer.last_fleet_report

    print(
        f"fleet done: {report.points_completed}/{report.points_total} points, "
        f"{report.leases_granted} leases, {report.requeues} requeues, "
        f"{report.leases_expired} expired, "
        f"{report.duplicates_dropped} duplicates dropped"
    )
    for name, stats in sorted(report.workers.items()):
        print(f"  {name}: {stats}")

    assert_identical(serial, result)
    print("fleet result is point-for-point identical to the serial run")
    assert report.points_completed == space.size, report
    assert report.points_quarantined == 0, report.quarantined
    assert report.requeues + report.leases_expired >= 1, (
        "chaos injured nothing; the smoke test proved nothing"
    )

    if args.events_out:
        actions = set()
        with open(args.events_out) as handle:
            for line in handle:
                event = json.loads(line)
                if event.get("kind") == "fleet.lease":
                    actions.add(event["action"])
        print(f"lease-event trail in {args.events_out}: actions={sorted(actions)}")
        assert {"grant", "complete"} <= actions, actions

    if args.trace_out:
        trace = chrome_trace(tracer.snapshot())
        Path(args.trace_out).write_text(json.dumps(trace, indent=1) + "\n")
        lanes = sorted(
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        )
        workers = [lane for lane in lanes if lane.startswith("worker-")]
        spans = sum(1 for e in trace["traceEvents"] if e["ph"] == "X")
        print(f"merged trace in {args.trace_out}: {spans} spans, lanes={lanes}")
        assert len(workers) >= 2, (
            f"expected >=2 worker lanes in the merged trace, got {lanes}"
        )
        offsets = tracer.summary().get("clock_offsets", {})
        print(f"handshake clock offsets (s): {offsets}")

    if args.flight_dir:
        dumps = sorted(Path(args.flight_dir).glob("flight-*.json"))
        triggers = [json.loads(p.read_text())["trigger"] for p in dumps]
        print(f"flight artifacts in {args.flight_dir}: {triggers}")
        assert "fleet-worker-lost" in triggers, (
            "the killed worker left no flight-recorder artifact"
        )

    print("fleet chaos smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
