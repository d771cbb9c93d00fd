"""Block abstraction of the simulation engine.

EffiCSense models a front-end as a chain of *blocks*, mirroring
the plug-and-play Simulink library of the paper.  Each block couples

* a **functional model** -- :meth:`Block.process` transforms an incoming
  :class:`~repro.core.signal.Signal` (vectorised over the whole stream);
* an optional **power model** -- :meth:`Block.power` returns the block's
  estimated consumption in watts for the active design point, so a single
  simulation yields both waveforms and the power breakdown.

Blocks are stateful only through their RNG stream (obtained from the
simulation context so runs are reproducible) and any mismatch realisation
drawn at construction; :meth:`Block.reset` restores a block for an
identical re-run.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.core.signal import Signal
from repro.util.rng import SeedSequenceRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.power.technology import DesignPoint


class SimulationContext:
    """Shared per-run state handed to every block.

    Carries the seed registry (one independent, replayable noise stream
    per block name), the active design point, and the tap dictionary into
    which the simulator records intermediate signals.
    """

    def __init__(self, seed: int = 0, design_point: "DesignPoint | None" = None):
        self.seeds = SeedSequenceRegistry(seed)
        self.design_point = design_point
        self.taps: dict[str, Signal] = {}

    def rng(self, block_name: str) -> np.random.Generator:
        """Independent deterministic generator for ``block_name``."""
        return self.seeds.rng(block_name)

    def record(self, name: str, signal: Signal) -> None:
        """Store an intermediate signal under ``name``."""
        self.taps[name] = signal


class Block(abc.ABC):
    """Abstract base of every functional block.

    Subclasses implement :meth:`process`; blocks with a Table II power
    model override :meth:`power`.  ``name`` identifies the block in tap
    records, power reports and seed derivation, so it must be unique
    within a system.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("block name must be non-empty")
        self.name = name

    @abc.abstractmethod
    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        """Transform ``signal``; must not mutate the input's data array."""

    def power(self, point: "DesignPoint") -> dict[str, float]:
        """Power contribution in watts, keyed by report block name.

        Default: the block consumes nothing (ideal models, sources, sinks).
        A block may report several entries (the SAR ADC contributes its
        comparator, logic, DAC and S&H rows separately so Fig. 4/8 can show
        them individually).
        """
        del point
        return {}

    def reset(self) -> None:
        """Clear per-run state.  Default blocks are stateless."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionBlock(Block):
    """Adapter turning a plain array function into a Block.

    Handy for quick experiments and for users extending the library
    without subclassing::

        rectifier = FunctionBlock("abs", lambda data: np.abs(data))
    """

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray]):
        super().__init__(name)
        self._fn = fn

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        return signal.replaced(data=np.asarray(self._fn(signal.data), dtype=np.float64))


class PassthroughBlock(Block):
    """Identity block, useful as an explicit tap point in a chain."""

    def process(self, signal: Signal, ctx: SimulationContext) -> Signal:
        del ctx
        return signal
