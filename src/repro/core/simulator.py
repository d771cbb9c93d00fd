"""The simulator: runs a system on a signal and assembles the joint result.

This is the piece that makes EffiCSense a *pathfinding* framework rather
than just a behavioural simulator: one :meth:`Simulator.run` produces the
processed waveform **and** the per-block power breakdown of the active
design point, so goal functions can trade signal quality against watts
directly (paper Section II, Step 5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.block import SimulationContext
from repro.core.signal import Signal
from repro.core.system import SystemModel
from repro.core.telemetry import get_active
from repro.power.models import PowerReport
from repro.power.technology import DesignPoint

#: Histogram bounds for ``simulate.samples_per_s`` (decades of throughput).
SAMPLES_PER_S_BUCKETS = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes
    ----------
    output:
        The chain's final signal.
    taps:
        Name -> intermediate signal for every block (plus ``"input"``).
    power:
        Per-block power breakdown collected from the blocks' power models.
    design_point:
        The design point the run was configured with.
    """

    output: Signal
    taps: dict[str, Signal] = field(default_factory=dict)
    power: PowerReport = field(default_factory=lambda: PowerReport({}))
    design_point: DesignPoint | None = None

    @property
    def total_power(self) -> float:
        """Total estimated power in watts."""
        return self.power.total

    def tap(self, name: str) -> Signal:
        """Intermediate signal recorded after block ``name``."""
        try:
            return self.taps[name]
        except KeyError:
            raise KeyError(
                f"no tap named {name!r}; available: {sorted(self.taps)}"
            ) from None


class Simulator:
    """Executes a :class:`SystemModel` under a design point with a seed.

    Parameters
    ----------
    system:
        The block chain to execute.
    design_point:
        Architecture parameters; handed to every block via the context and
        used to evaluate the blocks' power models.
    seed:
        Master seed of the run.  Two runs with the same system, design
        point and seed produce bit-identical outputs.
    """

    def __init__(self, system: SystemModel, design_point: DesignPoint, seed: int = 0):
        self.system = system
        self.design_point = design_point
        self.seed = int(seed)

    def run(self, signal: Signal, record_taps: bool = True) -> SimulationResult:
        """Simulate ``signal`` through the chain.

        Blocks are reset first, so repeated calls replay identically.

        When an ambient :class:`~repro.core.telemetry.Telemetry` is
        active, the run records per-block wall time (``block.<name>``
        spans, via :meth:`SystemModel.run`), total run time and the
        achieved samples/second throughput; disabled telemetry reduces
        every hook to a no-op.
        """
        telemetry = get_active()
        start = time.perf_counter()
        self.system.reset()
        ctx = SimulationContext(seed=self.seed, design_point=self.design_point)
        output = self.system.run(signal, ctx, record_taps=record_taps)
        power = self.collect_power()
        if telemetry.enabled:
            elapsed = time.perf_counter() - start
            telemetry.count("simulate.runs")
            telemetry.count("simulate.samples", signal.n_samples)
            telemetry.observe("simulate.seconds", elapsed)
            if elapsed > 0:
                telemetry.observe(
                    "simulate.samples_per_s",
                    signal.n_samples / elapsed,
                    bounds=SAMPLES_PER_S_BUCKETS,
                )
        return SimulationResult(
            output=output,
            taps=ctx.taps if record_taps else {},
            power=power,
            design_point=self.design_point,
        )

    def collect_power(self) -> PowerReport:
        """Aggregate every block's power model at the active design point."""
        blocks: dict[str, float] = {}
        for block in self.system.blocks:
            for name, watts in block.power(self.design_point).items():
                blocks[name] = blocks.get(name, 0.0) + watts
        return PowerReport(blocks)
