"""Durability of the execution layer's shared on-disk state under abuse.

Two pieces of machinery let independent processes share one directory
safely -- the :class:`~repro.core.execution.EvaluationCache` (atomic
entry writes, corrupt-entry quarantine) and the
:class:`~repro.core.execution.SweepCheckpoint` writer lock (``flock``
sidecar, kernel-released on SIGKILL).  These tests attack both the way
real fleets do: torn writes, garbage bytes, key collisions, concurrent
writers racing for the lock, and a lock holder that dies without
releasing.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.core.execution import (
    CheckpointLockedError,
    EvaluationCache,
    SweepCheckpoint,
)
from repro.core.results import Evaluation
from repro.core.telemetry import Telemetry, activate
from repro.power.technology import DesignPoint

FINGERPRINT = "contention-test:1"


def _point(bits: int = 8) -> DesignPoint:
    return DesignPoint(n_bits=bits, lna_noise_rms=2e-6, use_cs=False)


def _evaluation(bits: int = 8) -> Evaluation:
    return Evaluation(_point(bits), metrics={"power_uw": float(bits)})


# --- cache corrupt-entry quarantine ------------------------------------------


class TestCacheQuarantine:
    def test_garbage_entry_is_quarantined_once(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        point = _point()
        cache.put(FINGERPRINT, point, _evaluation())
        entry = cache._path(FINGERPRINT, point)
        entry.write_text("{ not json")

        assert cache.get(FINGERPRINT, point) is None
        assert cache.corrupt == 1
        assert not entry.exists()
        quarantined = Path(str(entry) + ".corrupt")
        assert quarantined.read_text() == "{ not json"

        # The miss is now a plain miss: no re-parse, no re-quarantine.
        assert cache.get(FINGERPRINT, point) is None
        assert cache.corrupt == 1
        assert cache.misses == 2

    def test_torn_write_is_quarantined(self, tmp_path):
        """A truncated (killed-mid-write) entry reads as a miss, not a crash."""
        cache = EvaluationCache(tmp_path)
        point = _point()
        cache.put(FINGERPRINT, point, _evaluation())
        entry = cache._path(FINGERPRINT, point)
        entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])

        assert cache.get(FINGERPRINT, point) is None
        assert cache.corrupt == 1

    @pytest.mark.parametrize(
        "entry",
        [b"[1, 2]", b'"text"', b"7", b'{"evaluation": []}'],
        ids=["array", "string", "number", "array-evaluation"],
    )
    def test_entry_that_is_not_an_object_is_quarantined(self, tmp_path, entry):
        cache = EvaluationCache(tmp_path)
        point = _point()
        cache._path(FINGERPRINT, point).write_bytes(entry)

        assert cache.get(FINGERPRINT, point) is None
        assert cache.corrupt == 1

    def test_entry_that_is_not_utf8_is_quarantined(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        point = _point()
        cache.put(FINGERPRINT, point, _evaluation())
        cache._path(FINGERPRINT, point).write_bytes(b'{"evaluation": "\xff\xfe"}')

        assert cache.get(FINGERPRINT, point) is None
        assert cache.corrupt == 1

    def test_key_collision_is_quarantined(self, tmp_path):
        """Valid JSON describing a *different* point must not be served."""
        cache = EvaluationCache(tmp_path)
        point = _point(bits=8)
        cache.put(FINGERPRINT, _point(bits=6), _evaluation(bits=6))
        foreign = cache._path(FINGERPRINT, _point(bits=6))
        # Graft the bits=6 entry under the bits=8 key.
        os.replace(foreign, cache._path(FINGERPRINT, point))

        assert cache.get(FINGERPRINT, point) is None
        assert cache.corrupt == 1

    def test_label_twins_get_their_own_entries(self, tmp_path):
        """Points sharing a description (v_dd is not in it) are filed apart."""
        cache = EvaluationCache(tmp_path)
        first = _point().with_(v_dd=2.0)
        twin = first.with_(v_dd=1.2)
        assert twin.describe() == first.describe()
        cache.put(FINGERPRINT, first, Evaluation(first, metrics={"power_uw": 7.268}))

        assert cache.get(FINGERPRINT, twin) is None
        cache.put(FINGERPRINT, twin, Evaluation(twin, metrics={"power_uw": 5.651}))
        assert cache._path(FINGERPRINT, twin) != cache._path(FINGERPRINT, first)
        assert cache.get(FINGERPRINT, first).metrics == {"power_uw": 7.268}
        assert cache.get(FINGERPRINT, twin).metrics == {"power_uw": 5.651}
        assert cache.corrupt == 0 and len(cache) == 2

    def test_quarantine_counts_into_active_telemetry(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        point = _point()
        cache.put(FINGERPRINT, point, _evaluation())
        cache._path(FINGERPRINT, point).write_text("garbage")
        tel = Telemetry()
        with activate(tel):
            cache.get(FINGERPRINT, point)
        assert tel.counters["cache.corrupt"] == 1

    def test_quarantined_entry_can_be_rewritten(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        point = _point()
        cache.put(FINGERPRINT, point, _evaluation())
        cache._path(FINGERPRINT, point).write_text("garbage")
        assert cache.get(FINGERPRINT, point) is None

        cache.put(FINGERPRINT, point, _evaluation())
        restored = cache.get(FINGERPRINT, point)
        assert restored is not None
        assert restored.metrics == {"power_uw": 8.0}


# --- checkpoint writer-lock contention ---------------------------------------


def _race_for_lock(path, barrier, results, slot):
    """Child-process body: race to acquire, hold briefly, append, release."""
    checkpoint = SweepCheckpoint(path)
    barrier.wait()
    try:
        checkpoint.acquire()
    except CheckpointLockedError:
        results[slot] = "locked"
        return
    try:
        # Hold long enough that every loser has attempted and failed.
        time.sleep(0.5)
        checkpoint.append(slot, Evaluation(_point(), metrics={"slot": float(slot)}))
        results[slot] = "won"
    finally:
        checkpoint.close()


def _hold_lock_forever(path, acquired):
    checkpoint = SweepCheckpoint(path)
    checkpoint.acquire()
    acquired.set()
    time.sleep(120)  # killed long before this expires


class TestCheckpointContention:
    def test_second_writer_in_process_is_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = SweepCheckpoint(path)
        first.acquire()
        second = SweepCheckpoint(path)
        with pytest.raises(CheckpointLockedError):
            second.acquire()
        first.release()
        second.acquire()  # released lock is immediately acquirable
        second.release()

    def test_flock_writes_nothing_into_the_lock_file(self, tmp_path):
        # The kernel lock is the guard; a written (truncated, rewritten)
        # lock file stalled release() on ext4.
        checkpoint = SweepCheckpoint(tmp_path / "sweep.jsonl")
        checkpoint.acquire()
        try:
            assert checkpoint.lock_path.exists()
            assert checkpoint.lock_path.stat().st_size == 0
        finally:
            checkpoint.close()
        assert not checkpoint.lock_path.exists()

    def test_concurrent_processes_one_winner(self, tmp_path):
        """N processes race one checkpoint: exactly one writer, N-1 refused."""
        path = tmp_path / "sweep.jsonl"
        ctx = multiprocessing.get_context("fork")
        n = 4
        barrier = ctx.Barrier(n)
        results = ctx.Manager().dict()
        processes = [
            ctx.Process(target=_race_for_lock, args=(path, barrier, results, slot))
            for slot in range(n)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=30)
        outcomes = sorted(results.values())
        assert outcomes == ["locked"] * (n - 1) + ["won"]

        # The winner's append landed and is loadable; no torn JSONL.
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        # And the lock is gone: a fresh writer acquires instantly.
        fresh = SweepCheckpoint(path)
        fresh.acquire()
        fresh.release()

    def test_sigkilled_holder_leaves_no_stale_lock(self, tmp_path):
        """flock dies with the process: SIGKILL must not wedge the checkpoint."""
        path = tmp_path / "sweep.jsonl"
        ctx = multiprocessing.get_context("fork")
        acquired = ctx.Event()
        holder = ctx.Process(target=_hold_lock_forever, args=(path, acquired))
        holder.start()
        assert acquired.wait(timeout=10)

        checkpoint = SweepCheckpoint(path)
        with pytest.raises(CheckpointLockedError):
            checkpoint.acquire()

        os.kill(holder.pid, signal.SIGKILL)
        holder.join(timeout=10)
        # The kernel released the flock with the process; only the inert
        # sidecar file remains and is safely re-lockable.
        checkpoint.acquire()
        checkpoint.append(0, _evaluation())
        checkpoint.close()
        assert checkpoint.load() == {0: _evaluation()}

    def test_torn_trailing_line_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        checkpoint = SweepCheckpoint(path)
        checkpoint.append(0, _evaluation(bits=6))
        checkpoint.append(1, _evaluation(bits=8))
        checkpoint.close()
        with open(path, "a") as handle:
            handle.write('{"index": 2, "point": "torn')  # killed mid-write

        restored = SweepCheckpoint(path).load()
        assert sorted(restored) == [0, 1]
        assert restored[1].metrics == {"power_uw": 8.0}

    def test_line_that_is_not_utf8_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        checkpoint = SweepCheckpoint(path)
        checkpoint.append(0, _evaluation(bits=6))
        checkpoint.close()
        with open(path, "ab") as handle:
            handle.write(b'{"index": 1, "po\xc3')  # torn inside a UTF-8 sequence

        assert SweepCheckpoint(path).load() == {0: _evaluation(bits=6)}
