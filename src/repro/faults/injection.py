"""Attaching fault models to chains without modifying the blocks.

:class:`FaultBlock` wraps a victim :class:`~repro.core.block.Block`,
applying each attached :class:`~repro.faults.models.FaultModel` around
the victim's ``process``.  The wrapper *keeps the victim's name*, so tap
records, power reports and -- crucially -- the victim's own seed stream
(``ctx.rng(name)``) are untouched: with every severity at zero the
wrapped chain is bit-identical to the bare one.

Fault randomness comes from separate named streams
(``fault.<block>.<i>.<kind>.<stage>.r<realisation>``) of the same seed
registry, so fault realisations are deterministic functions of the master
seed, reproducible across serial/process/thread sweeps, and the
``realisation`` index varies the drawn fault pattern *without* touching
the design point (one design point, many simulated chip instances).

:func:`inject` applies a fault plan to a chain; :class:`FaultSuite` is
the frozen, picklable form of a plan that plugs into
:class:`~repro.core.explorer.FrontEndEvaluator` as a ``chain_transform``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.core.telemetry import get_active
from repro.faults.models import FaultModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import SystemModel
    from repro.power.technology import DesignPoint


class FaultBlock(Block):
    """Wraps a block, corrupting its input and/or output signals.

    The wrapper impersonates the victim (same ``name``) so the rest of
    the system -- taps, power breakdown, the victim's noise streams -- is
    oblivious to the injection.
    """

    def __init__(
        self,
        inner: Block,
        faults: list[FaultModel] | tuple[FaultModel, ...],
        realisation: int = 0,
    ):
        super().__init__(inner.name)
        if isinstance(inner, FaultBlock):
            # Flatten nested wrappers: injection plans compose by
            # concatenation, not by stacking impersonators.
            faults = list(inner.faults) + list(faults)
            inner = inner.inner
        self.inner = inner
        self.faults = tuple(faults)
        self.realisation = int(realisation)

    def _stream(self, index: int, fault: FaultModel, stage: str) -> str:
        return (
            f"fault.{self.name}.{index}.{fault.kind}.{stage}.r{self.realisation}"
        )

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        tel = get_active()
        for index, fault in enumerate(self.faults):
            if fault.severity > 0:
                rng = ctx.rng(self._stream(index, fault, "in"))
                signal = fault.apply_input(signal, rng, self.inner)
                tel.count("faults.applied")
        signal = self.inner.process(signal, ctx)
        for index, fault in enumerate(self.faults):
            if fault.severity > 0:
                rng = ctx.rng(self._stream(index, fault, "out"))
                signal = fault.apply_output(signal, rng, self.inner)
        return signal

    def power(self, point: "DesignPoint") -> dict[str, float]:
        return self.inner.power(point)

    def reset(self) -> None:
        self.inner.reset()

    def __repr__(self) -> str:
        kinds = ",".join(f.kind for f in self.faults)
        return (
            f"FaultBlock(name={self.name!r}, faults=[{kinds}], "
            f"realisation={self.realisation})"
        )


def inject(
    chain: "SystemModel",
    plan: dict[str, FaultModel | list[FaultModel]] | list[tuple[str, FaultModel]],
    realisation: int = 0,
    missing_ok: bool = True,
) -> "SystemModel":
    """Wrap the named blocks of ``chain`` with their planned faults.

    ``plan`` maps block name -> fault model(s) (or is a list of
    ``(block_name, fault)`` pairs, preserving order).  Block names absent
    from the chain are skipped when ``missing_ok`` -- the same plan then
    serves both architectures (e.g. a ``cs_encoder`` entry is a no-op on
    the baseline chain).  The chain is modified in place and returned.
    """
    if isinstance(plan, dict):
        pairs = [
            (name, fault)
            for name, faults in plan.items()
            for fault in (faults if isinstance(faults, (list, tuple)) else [faults])
        ]
    else:
        pairs = list(plan)
    grouped: dict[str, list[FaultModel]] = {}
    for name, fault in pairs:
        if not isinstance(fault, FaultModel):
            raise TypeError(f"plan entry for {name!r} is not a FaultModel: {fault!r}")
        grouped.setdefault(name, []).append(fault)
    names = set(chain.block_names())
    for name, faults in grouped.items():
        if name not in names:
            if missing_ok:
                continue
            raise KeyError(f"chain {chain.name!r} has no block named {name!r}")
        chain.replace(name, FaultBlock(chain.block(name), faults, realisation))
    return chain


@dataclass(frozen=True)
class FaultSuite:
    """A frozen, picklable fault plan usable as an evaluator chain transform.

    ``entries`` is a tuple of ``(block_name, fault)`` pairs.  Instances
    plug straight into
    :meth:`FrontEndEvaluator.with_chain_transform
    <repro.core.explorer.FrontEndEvaluator.with_chain_transform>`; being
    frozen dataclasses they pickle across processes and contribute a
    stable :meth:`fingerprint` to the evaluator's cache key (so faulty
    and clean evaluations never collide in the on-disk cache).
    """

    entries: tuple[tuple[str, FaultModel], ...]
    realisation: int = 0

    def __call__(
        self, chain: "SystemModel", point: "DesignPoint", point_seed: int
    ) -> "SystemModel":
        del point, point_seed  # fault streams key off the simulation seed
        return inject(chain, list(self.entries), realisation=self.realisation)

    def scaled(self, severity: float) -> "FaultSuite":
        """Every model of the suite cloned at ``severity``."""
        return dataclasses.replace(
            self,
            entries=tuple(
                (name, fault.scaled(severity)) for name, fault in self.entries
            ),
        )

    def with_realisation(self, realisation: int) -> "FaultSuite":
        """Same plan, different simulated chip instance."""
        return dataclasses.replace(self, realisation=int(realisation))

    def describe(self) -> str:
        body = ";".join(f"{name}:{fault.describe()}" for name, fault in self.entries)
        return f"faultsuite[r{self.realisation}]({body})"

    def fingerprint(self) -> str:
        return self.describe()

    def __len__(self) -> int:
        return len(self.entries)
