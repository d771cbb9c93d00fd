"""Tests of the CS front-end blocks (framer, encoder block, reconstruction)."""

import numpy as np
import pytest

from repro.blocks.cs_frontend import (
    CsEncoderBlock,
    CsReconstructionBlock,
    FramerBlock,
    frame_stream,
)
from repro.core.block import SimulationContext
from repro.core.signal import Signal
from repro.cs.dictionaries import dct_basis
from repro.cs.matrices import srbm_balanced
from repro.cs.reconstruction import Reconstructor


def ctx(seed=0):
    return SimulationContext(seed=seed)


class TestFrameStream:
    def test_exact_frames(self):
        frames = frame_stream(np.arange(12), 4)
        assert frames.shape == (3, 4)
        np.testing.assert_array_equal(frames[1], [4, 5, 6, 7])

    def test_remainder_dropped(self):
        frames = frame_stream(np.arange(10), 4)
        assert frames.shape == (2, 4)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            frame_stream(np.arange(3), 4)

    def test_framer_block(self):
        block = FramerBlock(frame_length=8)
        out = block.process(Signal(np.arange(24, dtype=float), 100.0), ctx())
        assert out.data.shape == (3, 8)
        assert out.annotations["frame_length"] == 8


class TestCsEncoderBlock:
    def make_block(self, cs_point, seed=1):
        mat = srbm_balanced(cs_point.cs_m, cs_point.cs_n_phi, cs_point.cs_sparsity, seed=7)
        return CsEncoderBlock.from_design(cs_point, mat, seed=seed), mat

    def test_from_design_wires_capacitances(self, cs_point):
        config = self.make_block(cs_point)[0].config
        tech = cs_point.technology
        assert config.c_hold == pytest.approx(cs_point.cs_hold_capacitance)
        assert config.c_sample == pytest.approx(cs_point.cs_sample_capacitance)
        assert config.mismatch_sigma_hold == tech.cap_mismatch_sigma(config.c_hold)
        assert config.mismatch_sigma_sample == tech.cap_mismatch_sigma(config.c_sample)

    def test_from_design_droop_disabled(self, cs_point):
        assert self.make_block(cs_point)[0].config.i_leak == 0.0

    def test_output_shape_and_domain(self, cs_point):
        block, mat = self.make_block(cs_point)
        stream = Signal(np.zeros(2 * 384), cs_point.f_sample)
        out = block.process(stream, ctx())
        assert out.data.shape == (2, 150)
        assert out.domain == "compressed"

    def test_compressed_rate_annotation(self, cs_point):
        block, _ = self.make_block(cs_point)
        stream = Signal(np.zeros(384), cs_point.f_sample)
        out = block.process(stream, ctx())
        assert out.sample_rate == pytest.approx(cs_point.output_sample_rate)
        assert out.annotations["input_sample_rate"] == cs_point.f_sample

    def test_phi_effective_annotation_attached(self, cs_point):
        block, _ = self.make_block(cs_point)
        out = block.process(Signal(np.zeros(384), cs_point.f_sample), ctx())
        phi_eff = out.annotations["phi_effective"]
        assert phi_eff.shape == (150, 384)
        np.testing.assert_array_equal(phi_eff, block.phi_effective)

    def test_reset_replays_noise(self, cs_point, rng):
        block, _ = self.make_block(cs_point)
        stream = Signal(rng.normal(size=384), cs_point.f_sample)
        first = block.process(stream, ctx()).data
        block.reset()
        second = block.process(stream, ctx()).data
        np.testing.assert_array_equal(first, second)

    def test_power_rows(self, cs_point):
        block, _ = self.make_block(cs_point)
        rows = block.power(cs_point)
        assert set(rows) == {"cs_encoder", "leakage"}
        assert rows["cs_encoder"] > 0


class TestCsReconstructionBlock:
    def test_roundtrip_sparse_signal(self):
        n, m = 128, 64
        psi = dct_basis(n)
        alpha = np.zeros(n)
        alpha[[3, 11]] = [1.0, -0.6]
        x = np.tile(psi @ alpha, 2)  # two identical frames
        mat = srbm_balanced(m, n, 2, seed=5)

        from repro.cs.charge_sharing import ChargeSharingConfig

        block = CsEncoderBlock(
            mat, ChargeSharingConfig(c_sample=2e-15, c_hold=16e-15, kt=0.0), seed=1
        )
        encoded = block.process(Signal(x, 512.0), ctx())
        recon = CsReconstructionBlock(
            Reconstructor(basis=psi, method="fista", lam_rel=0.002, n_iter=500)
        )
        out = recon.process(encoded, ctx())
        assert out.data.shape == (2 * n,)
        assert out.sample_rate == pytest.approx(512.0)
        nmse = np.sum((x - out.data) ** 2) / np.sum(x**2)
        assert nmse < 1e-3

    def test_requires_2d_measurements(self):
        recon = CsReconstructionBlock(Reconstructor())
        with pytest.raises(ValueError, match="frames"):
            recon.process(Signal(np.zeros(8), 100.0), ctx())

    def test_requires_phi_annotation(self):
        recon = CsReconstructionBlock(Reconstructor())
        with pytest.raises(ValueError, match="phi_effective"):
            recon.process(Signal(np.zeros((2, 8)), 100.0), ctx())

    def test_marks_output_digital(self):
        n, m = 64, 32
        mat = srbm_balanced(m, n, 2, seed=5)
        from repro.cs.charge_sharing import ChargeSharingConfig

        enc = CsEncoderBlock(
            mat, ChargeSharingConfig(c_sample=2e-15, c_hold=16e-15, kt=0.0), seed=1
        )
        encoded = enc.process(Signal(np.random.default_rng(0).normal(size=n), 512.0), ctx())
        out = CsReconstructionBlock(Reconstructor(n_iter=10)).process(encoded, ctx())
        assert out.domain == "digital"
