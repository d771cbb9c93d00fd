"""Distributed fleet sweeps: lease-based coordinator/worker execution.

This package is ROADMAP item 4 -- the layer that takes a design-space
sweep beyond one machine without giving up any of the single-host
guarantees.  A :class:`FleetCoordinator` shards the sweep into chunks
and rents them to workers as deadline-bounded **leases** over a
JSON-lines TCP protocol (:mod:`repro.fleet.protocol`); workers
(:class:`FleetWorker`, ``repro worker --connect HOST:PORT``) evaluate
with their local :class:`~repro.core.execution.EvaluationCache`,
heartbeat while working, and ship results plus telemetry deltas home.
Dead workers are recovered by lease expiry and a bounded
requeue -> split -> quarantine ladder (:class:`LeaseTable`); late
completions deduplicate at point-index granularity, so the merged
result is exactly-once and digest-identical to a serial run.  The
deterministic chaos harness (:mod:`repro.fleet.chaos`) proves it by
SIGKILLing workers mid-chunk, silencing heartbeats and partitioning
sockets on seeded schedules.

Entry points:

* ``DesignSpaceExplorer.explore(executor="process")``, which runs a
  local fleet sized by ``n_workers``; ``fleet=FleetOptions(...)`` sets
  its endpoint, spawned workers and lease timing;
* ``repro sweep --fleet`` / ``repro worker --connect HOST:PORT`` (CLI)
* :class:`FleetCoordinator` + :func:`spawn_local_workers` directly.
"""

from repro.fleet.chaos import BENIGN, ChaosPlan, seeded_plans
from repro.fleet.coordinator import (
    DEFAULT_LEASE_TIMEOUT_S,
    DEFAULT_MAX_REQUEUES,
    FleetCoordinator,
    FleetOptions,
    FleetReport,
    Lease,
    LeaseTable,
)
from repro.fleet.protocol import PROTOCOL_VERSION, ProtocolError
from repro.fleet.worker import FleetWorker, resolve_spec, spawn_local_workers

__all__ = [
    "BENIGN",
    "DEFAULT_LEASE_TIMEOUT_S",
    "DEFAULT_MAX_REQUEUES",
    "PROTOCOL_VERSION",
    "ChaosPlan",
    "FleetCoordinator",
    "FleetOptions",
    "FleetReport",
    "FleetWorker",
    "Lease",
    "LeaseTable",
    "ProtocolError",
    "resolve_spec",
    "seeded_plans",
    "spawn_local_workers",
]
