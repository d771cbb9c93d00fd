"""Tests of the parallel/cached/resumable exploration backend."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.execution import (
    EvaluationCache,
    SweepCheckpoint,
    chunk_pending,
    evaluator_fingerprint,
)
from repro.core.explorer import DesignSpaceExplorer, FrontEndEvaluator
from repro.core.parameters import ParameterSpace
from repro.core.results import Evaluation
from repro.core.telemetry import Telemetry
from repro.experiments.runner import SCALES
from repro.experiments.table3 import paper_search_space
from repro.power.technology import DesignPoint
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class ToyEvaluator:
    """Deterministic, picklable closed-form evaluator."""

    master_seed: int = 7

    def fingerprint(self) -> str:
        return f"toy:{self.master_seed}"

    def __call__(self, point) -> Evaluation:
        seed = derive_seed(self.master_seed, point.describe())
        return Evaluation(
            point=point,
            metrics={
                "power_uw": (seed % 10_000) / 1_000.0,
                "snr_db": (seed % 613) / 10.0,
            },
        )


@dataclass(frozen=True)
class FailingEvaluator:
    """Raises on a configured resolution, evaluates the rest."""

    bad_bits: int = 7

    def __call__(self, point) -> Evaluation:
        if point.n_bits == self.bad_bits:
            raise RuntimeError(f"cannot evaluate {point.n_bits}-bit points")
        return ToyEvaluator()(point)


@dataclass
class CountingEvaluator:
    """Counts serial in-process evaluations (for cache/resume tests)."""

    calls: list = field(default_factory=list)

    def fingerprint(self) -> str:
        return "counting"

    def __call__(self, point) -> Evaluation:
        self.calls.append(point.describe())
        return ToyEvaluator()(point)


@dataclass
class FieldEvaluator:
    """Counts calls; its metrics come from fields ``describe()`` omits or rounds."""

    calls: list = field(default_factory=list)

    def fingerprint(self) -> str:
        return "fields"

    def __call__(self, point) -> Evaluation:
        self.calls.append(point)
        return Evaluation(
            point=point,
            metrics={
                "v_dd": point.v_dd,
                "lna_noise_rms": point.lna_noise_rms,
                "digital_cs": float(point.cs_architecture == "digital"),
            },
        )


#: Pairs of points that differ but share one ``describe()`` label.
LABEL_TWINS = {
    "digital-after-analog-cs": (
        DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150),
        DesignPoint(
            n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150, cs_architecture="digital"
        ),
    ),
    "v_dd-1.2-after-2.0": (DesignPoint(v_dd=2.0), DesignPoint(v_dd=1.2)),
    "noise-2.04-after-2.00uV": (
        DesignPoint(lna_noise_rms=2.00e-6),
        DesignPoint(lna_noise_rms=2.04e-6),
    ),
}


@dataclass
class VersionedEvaluator(CountingEvaluator):
    """:class:`CountingEvaluator` whose identity carries a version."""

    version: str = "v1"

    def fingerprint(self) -> str:
        return f"toy-{self.version}"


def smoke_grid():
    scale = SCALES["smoke"]
    return paper_search_space(
        noise_values_uv=scale.noise_values_uv,
        n_bits_values=scale.n_bits_values,
        cs_m_values=scale.cs_m_values,
    )


#: Two baseline points and one CS point on :func:`real_evaluator`.
REAL_POINTS = [
    DesignPoint(n_bits=8, lna_noise_rms=2e-6),
    DesignPoint(n_bits=10, lna_noise_rms=4e-6),
    DesignPoint(n_bits=8, lna_noise_rms=8e-6, use_cs=True, cs_m=150),
]


def real_evaluator():
    from tests.test_explorer import FS, small_corpus

    return FrontEndEvaluator(small_corpus(), None, FS, seed=3)


def hex_rows(evaluations):
    """Each evaluation's metrics and power breakdown as ``float.hex`` strings."""
    return [
        {
            "point": e.point.describe(),
            "metrics": {k: float(v).hex() for k, v in sorted(e.metrics.items())},
            "breakdown": {k: float(v).hex() for k, v in sorted(e.breakdown.items())},
            "error": e.error,
        }
        for e in evaluations
    ]


def assert_sweeps_identical(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert left.point.describe() == right.point.describe()
        assert left.metrics == right.metrics
        assert left.error == right.error


class TestParallelBitIdentity:
    def test_process_matches_serial_on_fig7_grid(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        serial = explorer.explore(space, name="s")
        parallel = explorer.explore(space, name="p", executor="process", n_workers=4)
        assert_sweeps_identical(serial, parallel)

    def test_thread_matches_serial(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        serial = explorer.explore(space)
        threaded = explorer.explore(space, executor="thread", n_workers=3)
        assert_sweeps_identical(serial, threaded)

    def test_process_matches_serial_real_evaluator(self):
        evaluator = real_evaluator()
        explorer = DesignSpaceExplorer(evaluator)
        points = [REAL_POINTS[0], REAL_POINTS[2]]
        serial = explorer.explore(points)
        parallel = explorer.explore(points, executor="process", n_workers=2)
        assert_sweeps_identical(serial, parallel)

    def test_spawned_process_pool_matches_serial(self):
        # Every other process test forks, and a forked worker inherits the
        # evaluator without pickling it.  Spawn (and forkserver) workers
        # unpickle it instead, so run that transport in a fresh interpreter.
        script = (
            "import json, multiprocessing\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from repro.core.explorer import DesignSpaceExplorer\n"
            "from tests.test_parallel_explorer import REAL_POINTS, hex_rows, real_evaluator\n"
            "explorer = DesignSpaceExplorer(real_evaluator())\n"
            "result = explorer.explore(REAL_POINTS, executor='process', n_workers=2)\n"
            "print(json.dumps(hex_rows(result.evaluations)))\n"
        )
        root = Path(__file__).resolve().parents[1]
        src = Path(repro.__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(root)])),
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert completed.returncode == 0, completed.stderr
        spawned = json.loads(completed.stdout.splitlines()[-1])
        serial = DesignSpaceExplorer(real_evaluator()).explore(REAL_POINTS)
        assert spawned == hex_rows(serial.evaluations)

    def test_chunk_size_does_not_change_results(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        serial = explorer.explore(space)
        chunked = explorer.explore(space, executor="process", n_workers=2, chunk_size=1)
        assert_sweeps_identical(serial, chunked)

    def test_unknown_executor_rejected(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        for executor in ("gpu", "fleet"):
            with pytest.raises(ValueError, match="executor"):
                explorer.explore([DesignPoint()], executor=executor)

    def test_worker_count_alone_picks_the_process_executor(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        serial = explorer.explore(space, n_workers=1)
        assert explorer.last_fleet_report is None
        parallel = explorer.explore(space, n_workers=2)
        assert explorer.last_fleet_report.points_completed == space.size
        assert_sweeps_identical(serial, parallel)

    def test_progress_called_for_every_point(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        seen = []
        explorer.explore(
            space, executor="process", n_workers=2,
            progress=lambda i, e: seen.append(i),
        )
        assert sorted(seen) == list(range(space.size))


class TestFaultIsolation:
    def test_failed_point_recorded_not_raised(self):
        explorer = DesignSpaceExplorer(FailingEvaluator(bad_bits=7))
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        result = explorer.explore(space)
        assert len(result) == 3
        assert result[1].error is not None
        assert "cannot evaluate 7-bit" in result[1].error
        assert result[1].metrics == {}
        assert result[0].ok and result[2].ok
        assert [e.point.n_bits for e in result.failures()] == [7]
        assert [e.point.n_bits for e in result.successes()] == [6, 8]

    def test_strict_reraises(self):
        explorer = DesignSpaceExplorer(FailingEvaluator(bad_bits=7))
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        with pytest.raises(RuntimeError, match="7-bit"):
            explorer.explore(space, strict=True)

    def test_parallel_failures_isolated(self):
        explorer = DesignSpaceExplorer(FailingEvaluator(bad_bits=6))
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        result = explorer.explore(space, executor="process", n_workers=2)
        assert [e.point.n_bits for e in result.failures()] == [6]

    def test_parallel_strict_reraises(self):
        explorer = DesignSpaceExplorer(FailingEvaluator(bad_bits=8))
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        with pytest.raises(RuntimeError, match="8-bit"):
            explorer.explore(space, executor="process", n_workers=2, strict=True)

    def test_failed_points_excluded_from_analysis(self):
        explorer = DesignSpaceExplorer(FailingEvaluator(bad_bits=7))
        result = explorer.explore(ParameterSpace({"n_bits": [6, 7, 8]}))
        best = result.best(minimize="power_uw")
        assert best is not None and best.ok
        from repro.core.pareto import Objective

        front = result.pareto([Objective("power_uw"), Objective("snr_db", maximize=True)])
        assert front and all(e.ok for e in front)


class TestCheckpoint:
    def test_resume_skips_completed_points(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        space = ParameterSpace({"n_bits": [6, 7, 8], "lna_noise_rms": [2e-6, 8e-6]})
        first = CountingEvaluator()
        full = DesignSpaceExplorer(first).explore(space, checkpoint=path)
        assert len(first.calls) == 6
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6

        # Simulate an interruption: keep only the first 4 completed lines.
        path.write_text("\n".join(lines[:4]) + "\n")
        second = CountingEvaluator()
        resumed = DesignSpaceExplorer(second).explore(space, checkpoint=path)
        assert len(second.calls) == 2  # only the missing points
        assert_sweeps_identical(full, resumed)
        # The checkpoint is complete again after the resume.
        assert len(path.read_text().strip().splitlines()) == 6

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        full = DesignSpaceExplorer(CountingEvaluator()).explore(space, checkpoint=path)
        with open(path, "a") as handle:
            handle.write('{"index": 99, "point": "trunc')  # killed mid-write
        second = CountingEvaluator()
        resumed = DesignSpaceExplorer(second).explore(space, checkpoint=path)
        assert len(second.calls) == 0
        assert_sweeps_identical(full, resumed)

    def test_checkpoint_of_another_evaluator_is_not_restored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        DesignSpaceExplorer(VersionedEvaluator(version="v1")).explore(
            space, checkpoint=path
        )
        v2 = VersionedEvaluator(version="v2")
        tel = Telemetry()
        DesignSpaceExplorer(v2).explore(space, checkpoint=path, telemetry=tel)
        assert len(v2.calls) == 3  # every point re-evaluated
        assert "explore.checkpoint_restored" not in tel.counters

    def test_checkpoint_lines_without_a_fingerprint_are_not_restored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        space = ParameterSpace({"n_bits": [6, 7]})
        with SweepCheckpoint(path) as old_format:
            for index, point in enumerate(space.grid()):
                old_format.append(index, ToyEvaluator()(point))
        fresh = CountingEvaluator()
        DesignSpaceExplorer(fresh).explore(space, checkpoint=path)
        assert len(fresh.calls) == 2

    def test_stale_checkpoint_from_other_grid_ignored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        DesignSpaceExplorer(CountingEvaluator()).explore(
            ParameterSpace({"n_bits": [6, 7]}), checkpoint=path
        )
        other = CountingEvaluator()
        DesignSpaceExplorer(other).explore(
            ParameterSpace({"lna_noise_rms": [2e-6, 8e-6]}), checkpoint=path
        )
        assert len(other.calls) == 2  # nothing restored from the stale file

    def test_parallel_sweep_checkpoints(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        explorer = DesignSpaceExplorer(ToyEvaluator())
        space = smoke_grid()
        result = explorer.explore(space, executor="process", n_workers=2, checkpoint=path)
        restored = SweepCheckpoint(path).load()
        assert len(restored) == len(result)
        for index, evaluation in restored.items():
            assert evaluation.metrics == result[index].metrics

    def test_grid_differing_only_in_unlabelled_fields_is_not_restored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        old, new = DesignPoint(v_dd=2.0), DesignPoint(v_dd=1.2)
        assert old.describe() == new.describe()
        DesignSpaceExplorer(FieldEvaluator()).explore([old], checkpoint=path)
        evaluator = FieldEvaluator()
        resumed = DesignSpaceExplorer(evaluator).explore([new], checkpoint=path)
        assert evaluator.calls == [new]
        assert resumed[0].point == new
        assert resumed[0].metrics["v_dd"] == 1.2

    def test_checkpoint_restores_in_grid_order(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        explorer = DesignSpaceExplorer(ToyEvaluator())
        first = explorer.explore(space, checkpoint=path)
        # Shuffle the checkpoint lines: restore order must not matter.
        lines = path.read_text().strip().splitlines()
        path.write_text("\n".join(reversed(lines)) + "\n")
        resumed = explorer.explore(space, checkpoint=path)
        assert_sweeps_identical(first, resumed)


class TestEvaluationCache:
    def test_second_run_hits_cache(self, tmp_path):
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        first = CountingEvaluator()
        run1 = DesignSpaceExplorer(first).explore(space, cache=tmp_path / "cache")
        assert len(first.calls) == 3
        second = CountingEvaluator()
        run2 = DesignSpaceExplorer(second).explore(space, cache=tmp_path / "cache")
        assert len(second.calls) == 0
        assert_sweeps_identical(run1, run2)

    def test_distinct_fingerprints_do_not_collide(self, tmp_path):
        space = ParameterSpace({"n_bits": [6, 7]})
        cache = EvaluationCache(tmp_path / "cache")
        DesignSpaceExplorer(ToyEvaluator(master_seed=1)).explore(space, cache=cache)
        other = DesignSpaceExplorer(ToyEvaluator(master_seed=2)).explore(space, cache=cache)
        fresh = DesignSpaceExplorer(ToyEvaluator(master_seed=2)).explore(space)
        assert_sweeps_identical(fresh, other)

    def test_failures_not_cached(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache")
        space = ParameterSpace({"n_bits": [6, 7, 8]})
        DesignSpaceExplorer(FailingEvaluator(bad_bits=7)).explore(space, cache=cache)
        assert len(cache) == 2  # only the two successes persisted
        recovered = DesignSpaceExplorer(ToyEvaluator()).explore(space, cache=cache)
        assert not recovered.failures()  # the failed point was retried

    def test_corrupt_cache_entry_ignored(self, tmp_path):
        cache_dir = tmp_path / "cache"
        space = ParameterSpace({"n_bits": [6, 7]})
        DesignSpaceExplorer(CountingEvaluator()).explore(space, cache=cache_dir)
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{not json")
        retry = CountingEvaluator()
        DesignSpaceExplorer(retry).explore(space, cache=cache_dir)
        assert len(retry.calls) == 2

    def test_cache_round_trips_metrics_exactly(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache")
        point = DesignPoint(n_bits=8)
        evaluation = Evaluation(
            point=point, metrics={"power_uw": 1.2345678901234567e-3}
        )
        cache.put("fp", point, evaluation)
        loaded = cache.get("fp", point)
        assert loaded.metrics == evaluation.metrics

    def test_hit_carries_the_requested_point(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache")
        point = DesignPoint(n_bits=8, use_cs=True)
        cache.put("fp", point, ToyEvaluator()(point))
        twin = DesignPoint(n_bits=8, use_cs=True)
        assert cache.get("fp", twin).point is twin

    @pytest.mark.parametrize("twins", LABEL_TWINS.values(), ids=LABEL_TWINS.keys())
    def test_points_sharing_a_label_get_their_own_evaluation(self, tmp_path, twins):
        first, second = twins
        assert first != second and first.describe() == second.describe()
        cache = tmp_path / "cache"
        DesignSpaceExplorer(FieldEvaluator()).explore([first], cache=cache)

        evaluator = FieldEvaluator()
        result = DesignSpaceExplorer(evaluator).explore([second], cache=cache)
        assert evaluator.calls == [second]
        assert result[0].point == second
        assert result[0].metrics == FieldEvaluator()(second).metrics

        # Each point has its own entry: both hit, nothing is quarantined.
        again = FieldEvaluator()
        rerun = DesignSpaceExplorer(again).explore([second, first], cache=cache)
        assert again.calls == []
        assert [e.metrics for e in rerun] == [
            FieldEvaluator()(second).metrics,
            FieldEvaluator()(first).metrics,
        ]
        assert list(cache.glob("*.corrupt")) == []

    def test_fingerprint_fallback_is_class_name(self):
        class Anonymous:
            def __call__(self, point):  # pragma: no cover - never invoked
                raise NotImplementedError

        assert "Anonymous" in evaluator_fingerprint(Anonymous())


class TestHelpers:
    def test_chunk_pending_covers_everything(self):
        pending = [(i, DesignPoint()) for i in range(10)]
        chunks = chunk_pending(pending, n_workers=3)
        flattened = [pair for chunk in chunks for pair in chunk]
        assert flattened == pending

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="chunk_size"):
            chunk_pending([(0, DesignPoint())], n_workers=1, chunk_size=0)

    def test_checkpoint_line_format(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with SweepCheckpoint(path) as ckpt:
            ckpt.append(0, ToyEvaluator()(DesignPoint()))
        payload = json.loads(path.read_text())
        assert set(payload) == {"index", "point", "evaluation"}

    def test_front_end_evaluator_fingerprint_tracks_corpus(self):
        from repro.core.explorer import FrontEndEvaluator
        from tests.test_explorer import FS, small_corpus

        records = small_corpus()
        base = FrontEndEvaluator(records, None, FS, seed=1).fingerprint()
        same = FrontEndEvaluator(records.copy(), None, FS, seed=1).fingerprint()
        other_seed = FrontEndEvaluator(records, None, FS, seed=2).fingerprint()
        other_corpus = FrontEndEvaluator(records * 1.0001, None, FS, seed=1).fingerprint()
        assert base == same
        assert base != other_seed
        assert base != other_corpus


class TestProgressCallbackIsolation:
    """A raising progress callback must not kill a non-strict sweep."""

    @staticmethod
    def _raising_progress(index, evaluation):
        raise RuntimeError("observer exploded")

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_non_strict_sweep_survives_raising_callback(self, executor):
        from repro.core.telemetry import Telemetry

        space = smoke_grid()
        tel = Telemetry()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        result = explorer.explore(
            space,
            progress=self._raising_progress,
            executor=executor,
            n_workers=2,
            telemetry=tel,
        )
        assert len(result) == space.size
        assert not result.failures()
        assert tel.counters["explore.progress_errors"] == space.size
        assert_sweeps_identical(explorer.explore(space), result)

    def test_strict_sweep_propagates_callback_error(self):
        explorer = DesignSpaceExplorer(ToyEvaluator())
        with pytest.raises(RuntimeError, match="observer exploded"):
            explorer.explore(
                smoke_grid(), progress=self._raising_progress, strict=True
            )


class TestBatchedCacheMirroring:
    """Cache hits mirrored into a checkpoint flush as one batch, not N."""

    def test_fully_cached_resume_pays_one_fsync(self, tmp_path, monkeypatch):
        import os as _os

        space = smoke_grid()
        explorer = DesignSpaceExplorer(ToyEvaluator())
        explorer.explore(space, cache=tmp_path / "cache")

        fsyncs = []
        real_fsync = _os.fsync
        monkeypatch.setattr(
            "repro.core.execution.os.fsync",
            lambda fd: (fsyncs.append(fd), real_fsync(fd))[1],
        )
        result = explorer.explore(
            space, cache=tmp_path / "cache", checkpoint=tmp_path / "resume.jsonl"
        )
        assert len(result) == space.size
        assert len(fsyncs) == 1, (
            f"{space.size} cache hits should mirror in one batched flush, "
            f"saw {len(fsyncs)} fsyncs"
        )

    def test_append_many_writes_every_entry(self, tmp_path):
        entries = [(i, ToyEvaluator()(DesignPoint(n_bits=b))) for i, b in enumerate((6, 7, 8))]
        path = tmp_path / "batch.jsonl"
        with SweepCheckpoint(path) as ckpt:
            ckpt.append_many(entries)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["index"] for line in lines] == [0, 1, 2]
