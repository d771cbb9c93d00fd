"""Batched design-point evaluation: one vectorised pass over many points.

The scalar sweep path walks every design point through its chain one
block at a time over one sample stream, so NumPy dispatch overhead (and
per-point Python bookkeeping: chain construction, filter design, RNG
derivation) dominates small-signal sweeps.  This module adds the batched
path the ROADMAP's "as fast as the hardware allows" goal asks for:

* :class:`BatchSignal` -- a stack of per-point sample streams, shape
  ``(n_points, *stream_shape)``, with per-row sample rates, domains and
  annotation dicts.  The batched analogue of
  :class:`~repro.core.signal.Signal`.
* :class:`BatchCompiler` -- builds every point's chain through the
  evaluator (so seeding, fault transforms and validation are identical
  to the scalar path) and groups points whose chains share a *topology*
  (same block types, same batch-relevant shapes) into parameter-stacked
  batches.  Chains containing any block without a ``process_batch``
  kernel -- fault-wrapped chains, custom user blocks -- are handed back
  for transparent scalar fallback.
* :class:`BatchedEvaluator` -- runs each compiled group through the
  blocks' ``process_batch`` kernels in one vectorised pass and scatters
  the per-point results back as ordinary
  :class:`~repro.core.results.Evaluation` rows, so the explorer's cache,
  checkpoint and telemetry machinery is reused unchanged.

Batch kernel contract
---------------------

``process_batch(batch, peers, ctxs) -> BatchSignal`` receives the batch
signal, the per-point block instances occupying this chain position
(``peers[i]`` belongs to point ``i``; ``peers[0] is self``) and the
per-point simulation contexts.  A kernel MUST reproduce the scalar
``process`` bit-for-bit per row, which pins down its RNG discipline:
call ``ctxs[i].rng(self.name)`` exactly as often as the scalar path does
(once per block invocation, reused across that block's draws) and issue
identical draw shapes in identical order.  Blocks whose grouped
parameters change array shapes (ADC bit depth, CS matrix dimensions)
declare them via ``batch_group_key()`` so the compiler never stacks
incompatible instances.

Evaluator protocol
------------------

Batching needs more than the ``evaluator(point) -> Evaluation`` callable
the explorer requires: the evaluator must expose ``build_point_chain``,
``source_signal`` and ``score_output`` (see
:class:`~repro.core.explorer.FrontEndEvaluator`).  Evaluators without
the protocol degrade to the scalar path, point by point, so
``executor="batched"`` is always safe to request.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from repro.core.block import SimulationContext
from repro.core.execution import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    _call_with_timeout,
    evaluate_one_timed,
)
from repro.core.results import Evaluation
from repro.core.signal import Signal
from repro.core.simulator import collect_power
from repro.core.telemetry import get_active
from repro.power.technology import DesignPoint

log = logging.getLogger("repro.batch")

#: Methods an evaluator must expose for the batched fast path.
BATCH_EVALUATOR_PROTOCOL = ("build_point_chain", "source_signal", "score_output")

#: Default ceiling on points per vectorised group (bounds peak memory:
#: every kernel materialises a few (n_points, n_samples) temporaries).
DEFAULT_MAX_GROUP_POINTS = 32


def supports_batching(evaluator: object) -> bool:
    """Whether ``evaluator`` implements the batch protocol."""
    return all(callable(getattr(evaluator, name, None)) for name in BATCH_EVALUATOR_PROTOCOL)


@dataclass
class BatchSignal:
    """A stack of per-point sample streams flowing through batch kernels.

    Attributes
    ----------
    data:
        Stacked sample arrays, shape ``(n_points, *stream_shape)``; row
        ``i`` is point ``i``'s stream.  Kernels must treat it as
        read-only and build their output out-of-place (mirroring the
        scalar ``process`` contract).
    sample_rates:
        Per-row scalar sample rate, shape ``(n_points,)``.
    domains:
        Per-row signal domain (see :data:`repro.core.signal.DOMAINS`).
    annotations:
        Per-row annotation dicts (side-channel metadata, e.g. each
        point's ``lna_gain`` or effective sensing matrix).
    """

    data: np.ndarray
    sample_rates: np.ndarray
    domains: list[str]
    annotations: list[dict[str, Any]]

    def __post_init__(self) -> None:
        self.sample_rates = np.asarray(self.sample_rates, dtype=np.float64)
        n = len(self.data)
        if not (len(self.sample_rates) == len(self.domains) == len(self.annotations) == n):
            raise ValueError(
                f"inconsistent batch: {n} data rows, {len(self.sample_rates)} rates, "
                f"{len(self.domains)} domains, {len(self.annotations)} annotation dicts"
            )

    @property
    def n_points(self) -> int:
        """Number of stacked streams."""
        return len(self.data)

    @classmethod
    def from_signals(cls, signals: Sequence[Signal]) -> "BatchSignal":
        """Stack per-point signals (must share one data shape)."""
        if not signals:
            raise ValueError("cannot batch zero signals")
        shapes = {s.data.shape for s in signals}
        if len(shapes) != 1:
            raise ValueError(f"cannot stack heterogeneous shapes: {sorted(shapes)}")
        return cls(
            data=np.stack([s.data for s in signals]),
            sample_rates=np.array([s.sample_rate for s in signals]),
            domains=[s.domain for s in signals],
            annotations=[dict(s.annotations) for s in signals],
        )

    @classmethod
    def broadcast(cls, signal: Signal, n_points: int) -> "BatchSignal":
        """Batch with every row viewing ``signal`` (no data copy).

        The rows share one read-only buffer; the first out-of-place
        kernel materialises per-row arrays.  An in-place write by a
        misbehaving kernel raises instead of silently corrupting peers.
        """
        data = np.broadcast_to(signal.data, (n_points,) + signal.data.shape)
        return cls(
            data=data,
            sample_rates=np.full(n_points, signal.sample_rate),
            domains=[signal.domain] * n_points,
            annotations=[dict(signal.annotations) for _ in range(n_points)],
        )

    def row(self, i: int) -> Signal:
        """Point ``i``'s stream as an ordinary :class:`Signal`."""
        return Signal(
            data=np.asarray(self.data[i]),
            sample_rate=float(self.sample_rates[i]),
            domain=self.domains[i],
            annotations=dict(self.annotations[i]),
        )

    def to_signals(self) -> list[Signal]:
        """All rows as ordinary signals."""
        return [self.row(i) for i in range(self.n_points)]

    def replaced(
        self,
        data: np.ndarray | None = None,
        sample_rates: np.ndarray | None = None,
        domain: str | None = None,
        row_annotations: Sequence[dict[str, Any]] | None = None,
    ) -> "BatchSignal":
        """Copy with selected fields replaced; annotations merge per row.

        The batched analogue of :meth:`Signal.replaced`:
        ``row_annotations[i]`` (when given) is merged over row ``i``'s
        existing annotations, so metadata survives the chain.
        """
        if row_annotations is None:
            merged = [dict(a) for a in self.annotations]
        else:
            if len(row_annotations) != self.n_points:
                raise ValueError(
                    f"{len(row_annotations)} annotation dicts for {self.n_points} rows"
                )
            merged = [
                {**old, **new} for old, new in zip(self.annotations, row_annotations)
            ]
        return BatchSignal(
            data=self.data if data is None else data,
            sample_rates=self.sample_rates if sample_rates is None else sample_rates,
            domains=list(self.domains) if domain is None else [domain] * self.n_points,
            annotations=merged,
        )


@dataclass
class CompiledPoint:
    """One design point with its freshly built chain, ready to batch."""

    index: int
    point: DesignPoint
    chain: Any
    run_seed: int


@dataclass
class CompiledBatch:
    """A topology-sharing group of compiled points."""

    key: tuple
    members: list[CompiledPoint] = field(default_factory=list)


class FallbackPoint(NamedTuple):
    """One point demoted to the scalar path, with the attributed cause.

    ``reason`` is a ``category:detail`` string -- e.g.
    ``no_batch_kernel:FaultyChain``, ``chain_build_error:ValueError``,
    ``group_failure:RuntimeError`` -- so sweeps can report *which* block
    class or failure mode forced scalar demotion, not just how many
    points were demoted.
    """

    index: int
    point: DesignPoint
    reason: str


class BatchCompiler:
    """Groups sweep points into parameter-stacked, topology-sharing batches.

    Chains are built through the evaluator's ``build_point_chain`` so the
    batched path inherits the scalar path's validation, seeding and fault
    transforms exactly.  Two points land in the same group when their
    chains agree position-by-position on block *type* and on the block's
    ``batch_group_key()`` (shape-determining parameters: ADC bit depth,
    CS matrix dimensions).  A chain containing any block without a
    ``process_batch`` kernel is returned in the fallback list instead --
    which is how fault-wrapped chains transparently stay on the scalar
    path.
    """

    def __init__(self, evaluator: object):
        if not supports_batching(evaluator):
            raise TypeError(
                f"{type(evaluator).__name__} does not implement the batch evaluator "
                f"protocol {BATCH_EVALUATOR_PROTOCOL}"
            )
        self.evaluator = evaluator

    @staticmethod
    def chain_key(chain: Any) -> tuple | None:
        """Topology key of ``chain``, or ``None`` when it cannot batch."""
        blocks = getattr(chain, "blocks", None)
        if not blocks:
            return None
        parts = []
        for block in blocks:
            if not callable(getattr(block, "process_batch", None)):
                return None
            group_key = getattr(block, "batch_group_key", None)
            parts.append(
                (type(block).__qualname__, group_key() if callable(group_key) else None)
            )
        return tuple(parts)

    @staticmethod
    def demotion_reason(chain: Any) -> str | None:
        """Why ``chain`` cannot batch (``None`` when it can).

        Names every distinct block class in the chain that lacks a
        ``process_batch`` kernel -- the attribution a sweep report needs
        to say "these 40 points fell back because of ``FaultyChain``".
        """
        blocks = getattr(chain, "blocks", None)
        if not blocks:
            return f"no_blocks:{type(chain).__qualname__}"
        missing = dict.fromkeys(
            type(block).__qualname__
            for block in blocks
            if not callable(getattr(block, "process_batch", None))
        )
        if missing:
            return "no_batch_kernel:" + ",".join(missing)
        return None

    def compile(
        self, pending: Sequence[tuple[int, DesignPoint]]
    ) -> tuple[list[CompiledBatch], list[FallbackPoint]]:
        """Partition ``pending`` into vectorisable groups + scalar fallback.

        Points whose chain *construction* raises are also routed to the
        scalar path, so the error surfaces with the scalar path's exact
        message and strict/isolation semantics.  Every
        :class:`FallbackPoint` carries the attributed demotion reason.
        """
        groups: dict[tuple, CompiledBatch] = {}
        fallback: list[FallbackPoint] = []
        for index, point in pending:
            try:
                chain, run_seed = self.evaluator.build_point_chain(point)
                key = self.chain_key(chain)
            except Exception as error:
                fallback.append(
                    FallbackPoint(
                        index, point, f"chain_build_error:{type(error).__name__}"
                    )
                )
                continue
            if key is None:
                reason = self.demotion_reason(chain) or "unbatchable_chain"
                fallback.append(FallbackPoint(index, point, reason))
                continue
            group = groups.setdefault(key, CompiledBatch(key=key))
            group.members.append(CompiledPoint(index, point, chain, run_seed))
        return list(groups.values()), fallback


class BatchedEvaluator:
    """Evaluates design points group-wise through ``process_batch`` kernels.

    Wraps a protocol-compliant evaluator (usually
    :class:`~repro.core.explorer.FrontEndEvaluator`).  Groups compiled by
    :class:`BatchCompiler` run as one vectorised chain pass; everything
    else -- incompatible chains, chain-construction errors, kernels that
    raise, exceeded group timeouts -- degrades to the scalar
    :func:`~repro.core.execution.evaluate_one_timed` path with its full
    policy (timeout/retry) semantics.  Results come back as the same
    ``(index, evaluation, elapsed, stats)`` rows the scalar chunk workers
    produce, so caching, checkpointing and telemetry are reused verbatim;
    batched rows carry ``stats["batched"]`` and demoted rows
    ``stats["batch_fallback"]`` for driver-side counters.
    """

    def __init__(
        self,
        evaluator: Callable[[DesignPoint], Evaluation],
        max_group_points: int = DEFAULT_MAX_GROUP_POINTS,
    ):
        if max_group_points < 1:
            raise ValueError(f"max_group_points must be >= 1, got {max_group_points}")
        self.evaluator = evaluator
        self.max_group_points = max_group_points

    def evaluate_chunk(
        self,
        chunk: Sequence[tuple[int, DesignPoint]],
        strict: bool = False,
        policy: ExecutionPolicy = DEFAULT_POLICY,
    ) -> list[tuple[int, Evaluation, float, dict]]:
        """Evaluate ``chunk``, vectorising where possible.

        Returns rows in ``chunk`` order regardless of how points were
        grouped, so the driver's reassembly logic is unaffected.
        """
        tel = get_active()
        rows: dict[int, tuple[int, Evaluation, float, dict]] = {}
        scalar: list[tuple[int, DesignPoint, dict]] = []
        groups: list[CompiledBatch] = []
        if supports_batching(self.evaluator):
            groups, fallback = BatchCompiler(self.evaluator).compile(chunk)
            for entry in fallback:
                scalar.append(self._demote(tel, entry.index, entry.point, entry.reason))
        else:
            reason = f"no_batch_protocol:{type(self.evaluator).__name__}"
            for i, p in chunk:
                scalar.append(self._demote(tel, i, p, reason))

        for group in groups:
            for start in range(0, len(group.members), self.max_group_points):
                members = group.members[start : start + self.max_group_points]
                began = time.perf_counter()
                try:
                    evaluations = self._run_group_with_policy(members, policy)
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    tel.count("batch.group_fallbacks")
                    log.warning(
                        "batched group of %d point(s) failed (%s: %s); falling "
                        "back to the scalar path",
                        len(members),
                        type(error).__name__,
                        error,
                    )
                    reason = f"group_failure:{type(error).__name__}"
                    scalar.extend(
                        self._demote(tel, m.index, m.point, reason) for m in members
                    )
                    continue
                elapsed = (time.perf_counter() - began) / len(members)
                tel.count("batch.groups")
                tel.count("batch.points", len(members))
                for member, evaluation in zip(members, evaluations):
                    rows[member.index] = (
                        member.index,
                        evaluation,
                        elapsed,
                        {"retries": 0, "timeouts": 0, "batched": 1},
                    )

        for index, point, extra in scalar:
            evaluation, elapsed, stats = evaluate_one_timed(
                self.evaluator, point, strict, policy
            )
            stats = {**stats, **extra}
            rows[index] = (index, evaluation, elapsed, stats)
        return [rows[index] for index, _ in chunk]

    @staticmethod
    def _demote(
        tel, index: int, point: DesignPoint, reason: str
    ) -> tuple[int, DesignPoint, dict]:
        """Record one scalar demotion (structured event + row stats)."""
        tel.event("batch.fallback", index=index, reason=reason)
        return index, point, {"batch_fallback": 1, "batch_fallback_reason": reason}

    def _run_group_with_policy(
        self, members: list[CompiledPoint], policy: ExecutionPolicy
    ) -> list[Evaluation]:
        """Run one group under the policy's (scaled) wall-clock ceiling.

        The per-point timeout scales to the group size -- a group of 16
        points gets 16x the single-point budget, preserving the policy's
        per-point intent.  A timed-out group raises and is demoted to the
        scalar path, where the per-point watchdog attributes the hang.
        """
        if policy.timeout_s is None:
            return self._run_group(members)
        ceiling = policy.timeout_s * len(members)
        return _call_with_timeout(lambda _point: self._run_group(members), None, ceiling)

    def run_group_signals(self, members: list[CompiledPoint]) -> BatchSignal:
        """One vectorised signal pass over a compiled group.

        Resets every member chain, builds per-point contexts, and drives
        the source stream through the stacked ``process_batch`` kernels.
        This is the part of an evaluation the batched engine actually
        vectorises (per-point scoring and power collection are
        executor-independent), so benchmarks time it directly.  Each
        block position runs under its ``block.<name>`` span.
        """
        stream = self.evaluator.source_signal()
        n_points = len(members)
        for member in members:
            member.chain.reset()
        ctxs = [
            SimulationContext(seed=member.run_seed, design_point=member.point)
            for member in members
        ]
        batch = BatchSignal.broadcast(stream, n_points)
        tel = get_active()
        for position in range(len(members[0].chain.blocks)):
            peers = [member.chain.blocks[position] for member in members]
            with tel.span(f"block.{peers[0].name}"):
                batch = peers[0].process_batch(batch, peers, ctxs)
            if batch.n_points != n_points:
                raise RuntimeError(
                    f"batch kernel {type(peers[0]).__name__}.process_batch returned "
                    f"{batch.n_points} rows for {n_points} points"
                )
        return batch

    def _run_group(self, members: list[CompiledPoint]) -> list[Evaluation]:
        """One vectorised chain pass over a compiled group, scored."""
        batch = self.run_group_signals(members)
        return [
            self.evaluator.score_output(
                member.point, batch.row(i), collect_power(member.chain, member.point)
            )
            for i, member in enumerate(members)
        ]
