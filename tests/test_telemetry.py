"""Tests of the telemetry subsystem and its sweep/simulator integration."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.explorer import DesignSpaceExplorer
from repro.core.metrics import Histogram
from repro.core.parameters import ParameterSpace
from repro.core.results import Evaluation
from repro.core.telemetry import (
    MANIFEST_SCHEMA_VERSION,
    NULL,
    NullTelemetry,
    RunManifest,
    Telemetry,
    activate,
    get_active,
    set_active,
)
from repro.metrics.snr import snr_vs_reference
from repro.power.technology import DesignPoint
from repro.util.rng import derive_seed

from tests.test_parallel_explorer import FailingEvaluator, ToyEvaluator, smoke_grid

EXECUTORS = ["serial", "thread", "process", "fleet"]


class TestHistogramMoments:
    def test_aggregates(self):
        stats = Histogram()
        for value in (1.0, 3.0, 2.0):
            stats.observe(value)
        assert stats.count == 3
        assert stats.total == 6.0
        assert stats.mean == 2.0
        assert stats.min == 1.0
        assert stats.max == 3.0
        assert stats.stddev == 1.0

    def test_empty_to_dict_is_json_safe(self):
        payload = Histogram().to_dict()
        assert payload["mean"] is None and payload["min"] is None
        assert payload["stddev"] is None and payload["m2"] == 0.0
        json.dumps(payload, allow_nan=False)  # no infinities leak into JSON


class TestTelemetry:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("hits")
        tel.count("hits", 2)
        assert tel.counters["hits"] == 3

    def test_span_records_wall_time(self):
        tel = Telemetry()
        with tel.span("region"):
            pass
        assert tel.spans["region"].count == 1
        assert tel.spans["region"].total >= 0.0

    def test_record_values(self):
        tel = Telemetry()
        tel.observe("latency", 0.5)
        tel.observe("latency", 1.5)
        assert tel.histograms["latency"].mean == 1.0

    def test_events_bounded(self):
        tel = Telemetry(max_events=2)
        for i in range(5):
            tel.event("tick", i=i)
        assert len(tel.events) == 2
        assert tel.counters["telemetry.events_dropped"] == 3

    def test_summary_lists_everything(self):
        tel = Telemetry()
        tel.count("explore.cache_hits", 4)
        with tel.span("explore.total"):
            pass
        tel.observe("point_seconds", 0.25)
        text = tel.summary()
        assert "explore.cache_hits" in text
        assert "explore.total" in text
        assert "point_seconds" in text

    def test_empty_summary(self):
        assert "nothing recorded" in Telemetry().summary()

    def test_timers_prefix_stripping(self):
        tel = Telemetry()
        with tel.span("block.lna"):
            pass
        with tel.span("explore.total"):
            pass
        assert set(tel.timers("block.")) == {"lna"}

    def test_snapshot_round_trips_through_json(self):
        tel = Telemetry()
        tel.count("c")
        tel.observe("v", 1.0)
        with tel.span("s"):
            pass
        tel.event("e", detail="x")
        restored = json.loads(json.dumps(tel.snapshot()))
        assert restored["counters"]["c"] == 1
        assert restored["events"][0]["kind"] == "e"

    def test_thread_safety_under_concurrent_recording(self):
        from concurrent.futures import ThreadPoolExecutor

        tel = Telemetry()

        def hammer(_):
            for _ in range(500):
                tel.count("n")
                tel.observe("v", 1.0)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, range(4)))
        assert tel.counters["n"] == 2000
        assert tel.histograms["v"].count == 2000


class TestNullTelemetry:
    def test_disabled_hooks_record_nothing(self):
        tel = NullTelemetry()
        tel.count("c")
        tel.observe("v", 1.0)
        with tel.span("s"):
            pass
        tel.event("e")
        assert not tel.counters and not tel.histograms and not tel.spans and not tel.events
        assert tel.enabled is False

    def test_null_span_is_shared(self):
        tel = NullTelemetry()
        assert tel.span("a") is tel.span("b")


class TestAmbient:
    def test_default_is_null(self):
        assert get_active() is NULL

    def test_activate_scopes_and_restores(self):
        tel = Telemetry()
        with activate(tel) as active:
            assert active is tel
            assert get_active() is tel
        assert get_active() is NULL

    def test_set_active_none_means_null(self):
        previous = set_active(None)
        try:
            assert get_active() is NULL
        finally:
            set_active(previous)


class TestExplorerTelemetry:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_per_point_latency_and_progress(self, executor):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        result = explorer.explore(space, executor=executor, n_workers=2, telemetry=tel)
        assert len(result) == space.size
        assert tel.histograms["explore.point_seconds"].count == space.size
        progress = [e for e in tel.events if e["kind"] == "explore.progress"]
        assert len(progress) == space.size
        # Events follow completion order, but `done` is cumulative.
        assert [e["done"] for e in progress] == list(range(1, space.size + 1))
        assert all(e["total"] == space.size for e in progress)
        assert all(e["eta_s"] is None or e["eta_s"] >= 0.0 for e in progress)

    def test_cache_hits_and_misses_counted(self, tmp_path):
        space = smoke_grid()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        explorer.explore(space, cache=tmp_path / "cache")

        tel = Telemetry()
        explorer.explore(space, cache=tmp_path / "cache", telemetry=tel)
        assert tel.counters["explore.cache_hits"] == space.size
        assert "explore.cache_misses" not in tel.counters

        tel_miss = Telemetry()
        explorer.explore(space, cache=tmp_path / "fresh", telemetry=tel_miss)
        assert tel_miss.counters["explore.cache_misses"] == space.size

    def test_checkpoint_restores_counted(self, tmp_path):
        space = smoke_grid()
        ckpt = tmp_path / "sweep.jsonl"
        explorer = DesignSpaceExplorer(ToyEvaluator())
        explorer.explore(space, checkpoint=ckpt)
        tel = Telemetry()
        explorer.explore(space, checkpoint=ckpt, telemetry=tel)
        assert tel.counters["explore.checkpoint_restored"] == space.size

    def test_failures_counted(self):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(FailingEvaluator(bad_bits=6))
        result = explorer.explore(smoke_grid(), telemetry=tel)
        assert tel.counters["explore.failures"] == len(result.failures()) > 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_results_identical_with_and_without_telemetry(self, executor):
        space = smoke_grid()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        bare = explorer.explore(space, executor=executor, n_workers=2)
        observed = explorer.explore(
            space, executor=executor, n_workers=2, telemetry=Telemetry()
        )
        for left, right in zip(bare, observed):
            assert left.point.describe() == right.point.describe()
            assert left.metrics == right.metrics


class TestSimulatorTelemetry:
    def _run(self, with_telemetry: bool):
        from repro.blocks.chains import build_baseline_chain
        from repro.blocks.sources import sine
        from repro.core.simulator import Simulator

        point = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
        chain = build_baseline_chain(point, seed=3)
        tone = sine(
            frequency=40.0,
            amplitude=0.9e-3,
            sample_rate=point.f_sample,
            n_samples=1536,
        )
        simulator = Simulator(chain, point, seed=1)
        if not with_telemetry:
            return simulator.run(tone), None
        tel = Telemetry()
        with activate(tel):
            return simulator.run(tone), tel

    def test_per_block_spans_and_throughput(self):
        _, tel = self._run(with_telemetry=True)
        assert tel.timers("block."), "expected per-block spans under active telemetry"
        assert tel.counters["simulate.runs"] == 1
        assert tel.counters["simulate.samples"] == 1536
        assert tel.histograms["simulate.samples_per_s"].count == 1

    def test_profiled_output_bit_identical(self):
        bare, _ = self._run(with_telemetry=False)
        observed, _ = self._run(with_telemetry=True)
        np.testing.assert_array_equal(bare.output.data, observed.output.data)


class TestReconstructionTelemetry:
    def test_solver_iterations_and_time_recorded(self):
        from repro.cs.dictionaries import dct_basis
        from repro.cs.reconstruction import Reconstructor

        rng = np.random.default_rng(0)
        phi = rng.normal(size=(16, 32))
        y = rng.normal(size=(4, 16))
        tel = Telemetry()
        with activate(tel):
            Reconstructor(basis=dct_basis(32), method="fista", n_iter=40).recover(phi, y)
        assert tel.counters["cs.fista.solves"] == 1
        assert tel.counters["cs.fista.frames"] == 4
        assert 1 <= tel.histograms["cs.fista.iterations"].max <= 40
        assert tel.histograms["cs.fista.solve_seconds"].count == 1
        assert "cs.recover.fista" in tel.spans


class TestRunManifest:
    def _sample(self):
        return RunManifest(
            command="sweep",
            created_unix=1754400000.0,
            seed=2022,
            scale="smoke",
            grid_size=18,
            executor="serial",
            n_workers=None,
            phases={"explore.total": 3.5},
            block_time_s={"lna": 0.1, "reconstruction": 2.9},
            block_power_w={"lna": 4e-8},
            sweep={"evaluated": 18, "failures": 0, "cache_hits": 0},
            eta_history=[{"kind": "explore.progress", "done": 18, "total": 18}],
            environment=RunManifest.describe_environment(),
        )

    def test_round_trip_exact(self, tmp_path):
        manifest = self._sample()
        path = manifest.save(tmp_path / "m.json")
        assert RunManifest.load(path) == manifest

    def test_schema_version_stamped(self, tmp_path):
        path = self._sample().save(tmp_path / "m.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == MANIFEST_SCHEMA_VERSION

    def test_wrong_schema_rejected(self):
        payload = self._sample().to_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            RunManifest.from_dict(payload)

    def test_unknown_keys_rejected(self):
        payload = self._sample().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            RunManifest.from_dict(payload)

    def test_payload_is_plain_json(self, tmp_path):
        text = self._sample().save(tmp_path / "m.json").read_text()
        assert "Infinity" not in text and "NaN" not in text

    def test_build_run_manifest_from_toy_sweep(self):
        from repro.experiments.runner import build_run_manifest

        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        sweep = explorer.explore(space, telemetry=tel)
        manifest = build_run_manifest(
            sweep, tel, "smoke", executor="serial", n_workers=None
        )
        assert manifest.scale == "smoke"
        assert manifest.grid_size == space.size
        assert manifest.sweep["evaluated"] == space.size
        assert manifest.sweep["failures"] == 0
        assert manifest.eta_history[-1]["done"] == space.size
        # Toy evaluations simulate no signal chain: no block.* spans, and
        # the manifest reports an empty breakdown instead of inventing one.
        assert manifest.block_time_s == {}
        assert "profile.representative" not in manifest.phases
        assert manifest.sweep["point_seconds"]["count"] == space.size
        RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))

    def test_thinned_eta_history_keeps_final_event_once(self):
        # 201 events at a cap of 200 thin with stride 2, which lands on the
        # final event itself: it must not be appended a second time.
        from repro.experiments.runner import build_run_manifest

        sweep = DesignSpaceExplorer(ToyEvaluator()).explore(smoke_grid())
        tel = Telemetry()
        for done in range(1, 202):
            tel.event("explore.progress", done=done, total=201)
        manifest = build_run_manifest(sweep, tel, "smoke", max_eta_events=200)
        done = [event["done"] for event in manifest.eta_history]
        assert len(done) == len(set(done))
        assert done[-1] == 201


@dataclass(frozen=True)
class DeadChannelEvaluator:
    """Picklable evaluator producing an identically-zero processed stream."""

    n_samples: int = 64

    def __call__(self, point) -> Evaluation:
        reference = np.ones(self.n_samples)
        processed = np.zeros(self.n_samples)
        return Evaluation(
            point=point,
            metrics={
                "snr_db": snr_vs_reference(reference, processed),
                "power_uw": float(derive_seed(0, point.describe()) % 100),
            },
        )


class TestDeadChannelAcrossExecutors:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_dead_channel_is_minus_inf_under_every_executor(self, executor):
        explorer = DesignSpaceExplorer(DeadChannelEvaluator())
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        result = explorer.explore(space, executor=executor, n_workers=2)
        assert [e.metrics["snr_db"] for e in result] == [-np.inf] * 3
