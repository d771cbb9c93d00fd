"""Tests of hardened sweep execution: timeouts, crash recovery."""

import os
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.core.execution import (
    DEFAULT_POLICY,
    CheckpointLockedError,
    EvaluationCache,
    EvaluationTimeout,
    ExecutionPolicy,
    PointEvaluationError,
    SweepCheckpoint,
)
from repro.core.explorer import DesignSpaceExplorer
from repro.core.telemetry import Telemetry
from repro.power.technology import DesignPoint
from tests.test_parallel_explorer import (
    FailingEvaluator,
    ToyEvaluator,
    assert_sweeps_identical,
)

POINTS = [DesignPoint(n_bits=n) for n in (6, 7, 8, 9)]
BAD_BITS = 7


@dataclass(frozen=True)
class HangingEvaluator:
    """Sleeps far past any test timeout on the marked resolution."""

    bad_bits: int = BAD_BITS
    sleep_s: float = 5.0

    def fingerprint(self) -> str:
        return f"hanging:{self.bad_bits}"

    def __call__(self, point):
        if point.n_bits == self.bad_bits:
            time.sleep(self.sleep_s)
        return ToyEvaluator()(point)


@dataclass(frozen=True)
class KamikazeEvaluator:
    """Kills its own process on the marked point.

    With ``crash_once`` the first attempt leaves a flag file behind, so the
    requeued chunk succeeds on the next worker.  Without it the point
    crashes every worker that touches it.
    """

    flag_dir: str
    bad_bits: int = BAD_BITS
    crash_once: bool = True

    def fingerprint(self) -> str:
        return f"kamikaze:{self.bad_bits}:{self.crash_once}"

    def __call__(self, point):
        if point.n_bits == self.bad_bits:
            flag = os.path.join(self.flag_dir, "crashed")
            if not (self.crash_once and os.path.exists(flag)):
                with open(flag, "w") as handle:
                    handle.write(str(os.getpid()))
                os._exit(17)
        return ToyEvaluator()(point)


@dataclass(frozen=True)
class PidFingerprintEvaluator(ToyEvaluator):
    """Fingerprints differently in every process.

    A forked worker's fingerprint never matches its parent's, so every
    worker refuses the sweep and exits right after the handshake.
    """

    def fingerprint(self) -> str:
        return f"pid:{os.getpid()}"


@dataclass(frozen=True)
class InterruptOnceEvaluator:
    """Raises KeyboardInterrupt on the marked point, once."""

    flag_dir: str
    bad_bits: int = BAD_BITS

    def fingerprint(self) -> str:
        return f"interrupt-once:{self.bad_bits}"

    def __call__(self, point):
        if point.n_bits == self.bad_bits:
            flag = os.path.join(self.flag_dir, "interrupted")
            if not os.path.exists(flag):
                with open(flag, "w") as handle:
                    handle.write("1")
                raise KeyboardInterrupt
        return ToyEvaluator()(point)


def clean_reference():
    return DesignSpaceExplorer(ToyEvaluator()).explore(POINTS)


class TestExecutionPolicy:
    def test_defaults_are_permissive(self):
        assert DEFAULT_POLICY.timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)


class TestTimeouts:
    @pytest.mark.parametrize("executor_kwargs", [
        {},
        {"executor": "thread", "n_workers": 2},
        {"executor": "process", "n_workers": 2},
    ], ids=["serial", "thread", "process"])
    def test_hung_point_fails_others_match_clean(self, executor_kwargs, tmp_path):
        tel = Telemetry()
        explorer = DesignSpaceExplorer(HangingEvaluator())
        checkpoint = tmp_path / "ck.jsonl"
        result = explorer.explore(
            POINTS, policy=ExecutionPolicy(timeout_s=0.3), telemetry=tel,
            checkpoint=checkpoint, **executor_kwargs,
        )
        reference = clean_reference()
        for left, right in zip(reference, result):
            if right.point.n_bits == BAD_BITS:
                assert right.error is not None
                assert "EvaluationTimeout" in right.error
            else:
                assert left.metrics == right.metrics
                assert right.error is None
        assert tel.counters["explore.timeouts"] == 1
        # A resumed run restores the timed-out point; it did not time out again.
        resumed = Telemetry()
        explorer.explore(POINTS, telemetry=resumed, checkpoint=checkpoint, **executor_kwargs)
        assert resumed.counters["explore.checkpoint_restored"] == len(POINTS)
        assert "explore.timeouts" not in resumed.counters

    def test_strict_timeout_raises_with_point_description(self):
        explorer = DesignSpaceExplorer(HangingEvaluator())
        bad = [DesignPoint(n_bits=BAD_BITS)]
        with pytest.raises(PointEvaluationError) as excinfo:
            explorer.explore(bad, policy=ExecutionPolicy(timeout_s=0.2), strict=True)
        assert bad[0].describe() in str(excinfo.value)
        assert "EvaluationTimeout" in str(excinfo.value)


class TestStrictParallelErrors:
    def test_error_carries_point_description(self):
        explorer = DesignSpaceExplorer(FailingEvaluator())
        bad_points = [DesignPoint(n_bits=BAD_BITS)]
        with pytest.raises(PointEvaluationError) as excinfo:
            explorer.explore(
                bad_points, strict=True, executor="process", n_workers=2
            )
        assert bad_points[0].describe() in str(excinfo.value)
        assert "7-bit" in str(excinfo.value)

    def test_point_evaluation_error_pickles(self):
        error = PointEvaluationError("n_bits=7", "RuntimeError: boom")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, PointEvaluationError)
        assert clone.point_description == "n_bits=7"
        assert "n_bits=7" in str(clone)


class TestWorkerCrashes:
    def test_pool_restart_recovers_crash_once(self, tmp_path):
        evaluator = KamikazeEvaluator(flag_dir=str(tmp_path))
        explorer = DesignSpaceExplorer(evaluator)
        result = explorer.explore(
            POINTS, executor="process", n_workers=2, chunk_size=1,
        )
        assert not result.failures()
        assert_sweeps_identical(clean_reference(), result)
        assert explorer.last_fleet_report.requeues >= 1

    def test_persistent_crasher_is_isolated_and_named(self, tmp_path):
        evaluator = KamikazeEvaluator(flag_dir=str(tmp_path), crash_once=False)
        explorer = DesignSpaceExplorer(evaluator)
        result = explorer.explore(
            POINTS, executor="process", n_workers=2, chunk_size=1,
        )
        reference = clean_reference()
        failures = result.failures()
        assert len(failures) == 1
        assert failures[0].point.n_bits == BAD_BITS
        assert failures[0].error.startswith("PoisonChunk")
        assert "worker disconnected" in failures[0].error
        for left, right in zip(reference, result):
            if right.point.n_bits != BAD_BITS:
                assert left.metrics == right.metrics
        assert explorer.last_fleet_report.points_quarantined == 1

    def test_strict_mode_reraises_pool_break(self, tmp_path):
        evaluator = KamikazeEvaluator(flag_dir=str(tmp_path), crash_once=False)
        explorer = DesignSpaceExplorer(evaluator)
        with pytest.raises(PointEvaluationError) as excinfo:
            explorer.explore(
                POINTS, strict=True, executor="process", n_workers=2,
                chunk_size=1,
            )
        assert DesignPoint(n_bits=BAD_BITS).describe() in str(excinfo.value)

    def test_workers_dying_at_start_up_raise_instead_of_hanging(self):
        explorer = DesignSpaceExplorer(PidFingerprintEvaluator())
        with pytest.raises(RuntimeError, match="kept exiting"):
            explorer.explore(POINTS[:2], executor="process", n_workers=2)


class TestInterrupt:
    def test_partial_results_kept_and_resume_completes(self, tmp_path):
        tel = Telemetry()
        ckpt = tmp_path / "sweep.jsonl"
        evaluator = InterruptOnceEvaluator(flag_dir=str(tmp_path))
        explorer = DesignSpaceExplorer(evaluator)
        partial = explorer.explore(
            POINTS, checkpoint=str(ckpt), telemetry=tel
        )
        assert tel.counters["explore.interrupted"] == 1
        by_bits = {e.point.n_bits: e for e in partial}
        assert by_bits[6].error is None  # evaluated before the interrupt
        for n in (7, 8, 9):
            assert by_bits[n].error is not None
            assert by_bits[n].error.startswith("Interrupted")
        # Interrupted slots were NOT checkpointed, so the resumed sweep
        # evaluates them and matches a clean run exactly.
        resumed = explorer.explore(POINTS, checkpoint=str(ckpt))
        assert_sweeps_identical(clean_reference(), resumed)

    def test_strict_mode_reraises_interrupt(self, tmp_path):
        evaluator = InterruptOnceEvaluator(flag_dir=str(tmp_path))
        explorer = DesignSpaceExplorer(evaluator)
        with pytest.raises(KeyboardInterrupt):
            explorer.explore(POINTS, strict=True)


class TestCheckpointLock:
    def test_concurrent_sweep_fails_fast(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        holder = SweepCheckpoint(path)
        holder.acquire()
        try:
            with pytest.raises(CheckpointLockedError):
                DesignSpaceExplorer(ToyEvaluator()).explore(
                    POINTS, checkpoint=str(path)
                )
        finally:
            holder.close()

    def test_lock_released_on_close_allows_reuse(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        explorer = DesignSpaceExplorer(ToyEvaluator())
        explorer.explore(POINTS, checkpoint=str(path))
        result = explorer.explore(POINTS, checkpoint=str(path))
        assert not result.failures()
        assert not path.with_name(path.name + ".lock").exists()


class TestCacheQuarantine:
    def test_corrupt_entry_renamed_and_counted(self, tmp_path):
        from repro.core.telemetry import activate

        cache = EvaluationCache(tmp_path / "cache")
        point = DesignPoint(n_bits=8)
        from repro.core.results import Evaluation

        cache.put("fp", point, Evaluation(point=point, metrics={"m": 1.0}))
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.write_text("{not json")
        with activate(Telemetry()) as tel:
            assert cache.get("fp", point) is None
        assert cache.corrupt == 1
        assert tel.counters["cache.corrupt"] == 1
        assert list((tmp_path / "cache").glob("*.json")) == []
        assert len(list((tmp_path / "cache").glob("*.corrupt"))) == 1

    def test_quarantined_entry_is_re_evaluated_and_rewritten(self, tmp_path):
        cache_dir = tmp_path / "cache"
        explorer = DesignSpaceExplorer(ToyEvaluator())
        explorer.explore(POINTS, cache=cache_dir)
        for entry in cache_dir.glob("*.json"):
            entry.write_text("garbage")
        recovered = explorer.explore(POINTS, cache=cache_dir)
        assert_sweeps_identical(clean_reference(), recovered)
        # Fresh entries were written next to the quarantined ones.
        assert len(list(cache_dir.glob("*.json"))) == len(POINTS)
        assert len(list(cache_dir.glob("*.corrupt"))) == len(POINTS)


class TestEvaluationTimeoutType:
    def test_is_a_timeout_error(self):
        assert issubclass(EvaluationTimeout, TimeoutError)
