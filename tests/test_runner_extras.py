"""Extra coverage of the experiment runner and harness plumbing."""

import math

import pytest

from repro.experiments.runner import (
    F_SAMPLE,
    SCALES,
    ExperimentScale,
    make_harness,
    run_search_space,
)
from repro.power.technology import DesignPoint


class TestScalesConsistency:
    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_samples_are_whole_frames(self, name):
        scale = SCALES[name]
        assert scale.samples_per_record == scale.frames_per_record * 384

    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_record_fits_source_duration(self, name):
        # Truncated records must fit inside the 23.6 s source records
        # after resampling to f_sample.
        scale = SCALES[name]
        available = int(23.6 * 173.61 * F_SAMPLE / 173.61)
        assert scale.samples_per_record <= available

    def test_scales_strictly_ordered_in_size(self):
        smoke, small, paper = SCALES["smoke"], SCALES["small"], SCALES["paper"]
        assert smoke.n_eval_records < small.n_eval_records < paper.n_eval_records
        assert smoke.samples_per_record < small.samples_per_record <= paper.samples_per_record

    def test_custom_scale_dataclass(self):
        scale = ExperimentScale(
            name="tiny",
            n_eval_records=4,
            n_train_records=4,
            frames_per_record=2,
            noise_values_uv=(5.0,),
            n_bits_values=(8,),
            cs_m_values=(150,),
            fista_iters=20,
        )
        assert scale.samples_per_record == 768


class TestSweepCaching:
    def test_harness_and_sweep_consistent(self):
        harness = make_harness("smoke")
        sweep = run_search_space("smoke")
        # Sweep point count = baseline grid + CS grid of the smoke scale.
        scale = harness.scale
        expected = len(scale.noise_values_uv) * len(scale.n_bits_values) * (
            1 + len(scale.cs_m_values)
        )
        assert len(sweep) == expected


class TestHarnessReceiver:
    def test_cs_point_sizes_its_basis_from_its_frame_length(self):
        # The smoke records (3072 samples) hold whole 256-sample frames,
        # so the harness evaluator must reconstruct on a 256 x 256 basis.
        evaluator = make_harness("smoke").evaluator
        point = DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=75, cs_n_phi=256)
        evaluation = evaluator.evaluate(point)
        assert all(math.isfinite(value) for value in evaluation.metrics.values())
        assert evaluator.reconstructor_factory(point).basis.shape == (256, 256)
