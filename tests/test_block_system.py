"""Tests of the Block abstraction, SystemModel chains and the Simulator."""

import numpy as np
import pytest

from repro.core.block import Block, FunctionBlock, PassthroughBlock, SimulationContext
from repro.core.signal import Signal
from repro.core.simulator import SimulationResult, Simulator
from repro.core.system import SystemModel
from repro.power.technology import DesignPoint


class AddConstant(Block):
    """Test block: adds a constant; reports a fixed power."""

    def __init__(self, constant, name="add", watts=1e-6):
        super().__init__(name)
        self.constant = constant
        self.watts = watts

    def process(self, signal, ctx):
        return signal.replaced(data=signal.data + self.constant)

    def power(self, point):
        return {self.name: self.watts}


class NoisyBlock(Block):
    """Test block drawing from the context RNG."""

    def process(self, signal, ctx):
        rng = ctx.rng(self.name)
        return signal.replaced(data=signal.data + rng.normal(size=signal.data.shape))


def make_signal(n=16):
    return Signal(np.zeros(n), sample_rate=100.0)


class TestBlockBasics:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            PassthroughBlock("")

    def test_default_power_empty(self):
        assert PassthroughBlock("p").power(DesignPoint()) == {}

    def test_function_block_wraps_callable(self):
        block = FunctionBlock("abs", np.abs)
        ctx = SimulationContext()
        out = block.process(Signal(np.array([-1.0, 2.0]), 1.0), ctx)
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_passthrough_identity(self):
        block = PassthroughBlock("tap")
        signal = make_signal()
        assert block.process(signal, SimulationContext()) is signal

    def test_repr_contains_name(self):
        assert "tap" in repr(PassthroughBlock("tap"))


class TestSystemModelComposition:
    def test_append_and_names(self):
        system = SystemModel([AddConstant(1, "a")]).append(AddConstant(2, "b"))
        assert system.block_names() == ["a", "b"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already present"):
            SystemModel([AddConstant(1, "a"), AddConstant(2, "a")])

    def test_insert_after(self):
        system = SystemModel([AddConstant(1, "a"), AddConstant(2, "c")])
        system.insert_after("a", AddConstant(3, "b"))
        assert system.block_names() == ["a", "b", "c"]

    def test_insert_before(self):
        system = SystemModel([AddConstant(1, "b")])
        system.insert_before("b", AddConstant(0, "a"))
        assert system.block_names() == ["a", "b"]

    def test_replace_keeps_position(self):
        system = SystemModel([AddConstant(1, "a"), AddConstant(2, "b")])
        system.replace("a", AddConstant(9, "a2"))
        assert system.block_names() == ["a2", "b"]

    def test_replace_same_name_allowed(self):
        system = SystemModel([AddConstant(1, "a")])
        system.replace("a", AddConstant(5, "a"))
        assert system.block("a").constant == 5

    def test_remove(self):
        system = SystemModel([AddConstant(1, "a"), AddConstant(2, "b")]).remove("a")
        assert system.block_names() == ["b"]

    def test_missing_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            SystemModel([AddConstant(1, "a")]).block("zz")

    def test_contains_and_len(self):
        system = SystemModel([AddConstant(1, "a")])
        assert "a" in system
        assert "b" not in system
        assert len(system) == 1


class TestSystemModelExecution:
    def test_chain_applies_in_order(self):
        system = SystemModel([AddConstant(1, "a"), FunctionBlock("double", lambda d: d * 2)])
        out = system.run(make_signal(4), SimulationContext())
        np.testing.assert_array_equal(out.data, np.full(4, 2.0))

    def test_taps_recorded(self):
        ctx = SimulationContext()
        system = SystemModel([AddConstant(1, "a"), AddConstant(2, "b")])
        system.run(make_signal(4), ctx)
        assert set(ctx.taps) == {"input", "a", "b"}
        np.testing.assert_array_equal(ctx.taps["a"].data, np.ones(4))

    def test_taps_disabled(self):
        ctx = SimulationContext()
        SystemModel([AddConstant(1, "a")]).run(make_signal(4), ctx, record_taps=False)
        assert ctx.taps == {}

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="no blocks"):
            SystemModel().run(make_signal(), SimulationContext())


class TestSimulator:
    def test_runs_and_collects_power(self):
        system = SystemModel([AddConstant(1, "a", watts=2e-6), AddConstant(2, "b", watts=3e-6)])
        result = Simulator(system, DesignPoint(), seed=0).run(make_signal(4))
        assert isinstance(result, SimulationResult)
        assert result.total_power == pytest.approx(5e-6)
        np.testing.assert_array_equal(result.output.data, np.full(4, 3.0))

    def test_power_entries_with_same_key_sum(self):
        system = SystemModel(
            [AddConstant(1, "x", watts=2e-6), AddConstant(1, "y", watts=3e-6)]
        )
        # Rename both reports to the same block key.
        system.block("x").name = "x"
        result = Simulator(system, DesignPoint(), seed=0).run(make_signal(4))
        assert result.power.total == pytest.approx(5e-6)

    def test_reproducible_noise(self):
        system = SystemModel([NoisyBlock("noise")])
        sim = Simulator(system, DesignPoint(), seed=3)
        first = sim.run(make_signal(32)).output.data
        second = sim.run(make_signal(32)).output.data
        np.testing.assert_array_equal(first, second)

    def test_seed_changes_noise(self):
        system = SystemModel([NoisyBlock("noise")])
        a = Simulator(system, DesignPoint(), seed=3).run(make_signal(32)).output.data
        b = Simulator(system, DesignPoint(), seed=4).run(make_signal(32)).output.data
        assert not np.array_equal(a, b)

    def test_tap_accessor_and_error(self):
        system = SystemModel([AddConstant(1, "a")])
        result = Simulator(system, DesignPoint(), seed=0).run(make_signal(4))
        assert result.tap("a") is result.taps["a"]
        with pytest.raises(KeyError, match="available"):
            result.tap("zz")

    def test_design_point_reaches_context(self):
        captured = {}

        class Probe(Block):
            def process(self, signal, ctx):
                captured["point"] = ctx.design_point
                return signal

        point = DesignPoint(n_bits=7)
        Simulator(SystemModel([Probe("probe")]), point, seed=0).run(make_signal(2))
        assert captured["point"].n_bits == 7

