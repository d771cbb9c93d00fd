"""System composition: an ordered chain of blocks.

:class:`SystemModel` is the ordered single-path chain that covers both of
the paper's architectures (Fig. 1 a/b are linear chains).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.block import Block, SimulationContext
from repro.core.signal import Signal
from repro.core.telemetry import get_active


class SystemModel:
    """An ordered chain of blocks with unique names.

    The chain is the unit the simulator executes and the explorer rebuilds
    per design point.  Blocks can be appended, inserted, replaced or
    removed by name, mirroring the "swap one block, re-simulate"
    pathfinding workflow of the paper.
    """

    def __init__(self, blocks: Iterable[Block] = (), name: str = "system"):
        self.name = name
        self._blocks: list[Block] = []
        for block in blocks:
            self.append(block)

    # --- composition --------------------------------------------------------

    def append(self, block: Block) -> "SystemModel":
        """Add ``block`` at the end of the chain (fluent)."""
        self._check_unique(block.name)
        self._blocks.append(block)
        return self

    def insert_after(self, existing: str, block: Block) -> "SystemModel":
        """Insert ``block`` right after the block named ``existing``."""
        self._check_unique(block.name)
        idx = self._index_of(existing)
        self._blocks.insert(idx + 1, block)
        return self

    def insert_before(self, existing: str, block: Block) -> "SystemModel":
        """Insert ``block`` right before the block named ``existing``."""
        self._check_unique(block.name)
        idx = self._index_of(existing)
        self._blocks.insert(idx, block)
        return self

    def replace(self, existing: str, block: Block) -> "SystemModel":
        """Swap the block named ``existing`` for ``block``."""
        idx = self._index_of(existing)
        if block.name != existing:
            self._check_unique(block.name)
        self._blocks[idx] = block
        return self

    def remove(self, name: str) -> "SystemModel":
        """Remove the block named ``name``."""
        del self._blocks[self._index_of(name)]
        return self

    def _check_unique(self, name: str) -> None:
        if any(existing.name == name for existing in self._blocks):
            raise ValueError(f"block name {name!r} already present in {self.name!r}")

    def _index_of(self, name: str) -> int:
        for idx, block in enumerate(self._blocks):
            if block.name == name:
                return idx
        raise KeyError(f"no block named {name!r} in {self.name!r}")

    # --- introspection --------------------------------------------------------

    @property
    def blocks(self) -> Sequence[Block]:
        """The chain's blocks in execution order (read-only view)."""
        return tuple(self._blocks)

    def block(self, name: str) -> Block:
        """Look a block up by name."""
        return self._blocks[self._index_of(name)]

    def block_names(self) -> list[str]:
        """Names in execution order."""
        return [block.name for block in self._blocks]

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, name: str) -> bool:
        return any(block.name == name for block in self._blocks)

    def __repr__(self) -> str:
        chain = " -> ".join(self.block_names()) or "<empty>"
        return f"SystemModel({self.name!r}: {chain})"

    # --- execution -------------------------------------------------------------

    def run(
        self,
        signal: Signal,
        ctx: SimulationContext,
        record_taps: bool = True,
    ) -> Signal:
        """Execute the chain on ``signal`` under ``ctx``.

        Each block's output is recorded as a tap named after the block when
        ``record_taps`` is enabled (the Fig. 4-style per-block inspection
        relies on this).  The ambient telemetry gets one ``block.<name>``
        wall-time span per block, the data behind the manifest's per-block
        time breakdown; with telemetry disabled the spans are shared
        no-ops.
        """
        if not self._blocks:
            raise ValueError(f"system {self.name!r} has no blocks")
        telemetry = get_active()
        current = signal
        if record_taps:
            ctx.record("input", current)
        for block in self._blocks:
            with telemetry.span(f"block.{block.name}"):
                current = block.process(current, ctx)
            if record_taps:
                ctx.record(block.name, current)
        return current

    def reset(self) -> None:
        """Reset every block for an identical re-run."""
        for block in self._blocks:
            block.reset()

