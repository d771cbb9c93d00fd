"""EvaluationCache parity between the serial and thread executors.

The cache key is ``(evaluator fingerprint, point description)`` -- no
executor in sight -- so a sweep warmed by one executor must be served
entirely from cache by another, with identical results.  These tests
pin that contract in both directions, for a half-warm cache and for a
JSON round trip, and assert the exact hit/miss accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.execution import EvaluationCache
from repro.core.explorer import DesignSpaceExplorer, FrontEndEvaluator
from repro.power.technology import DesignPoint

F_SAMPLE = 2.1 * 256.0


@pytest.fixture
def evaluator():
    records = np.random.default_rng(5).normal(0.0, 20e-6, size=(1, 64))
    return FrontEndEvaluator(records, None, F_SAMPLE, seed=13)


@pytest.fixture
def points():
    return [
        DesignPoint(n_bits=n_bits, lna_noise_rms=noise)
        for n_bits in (6, 8)
        for noise in (2e-6, 20e-6)
    ]


def assert_same_results(first, second):
    for expected, actual in zip(first, second):
        assert expected.point.describe() == actual.point.describe()
        assert expected.metrics == actual.metrics


@pytest.mark.parametrize(
    "warm_executor, replay_executor",
    [("serial", "thread"), ("thread", "serial")],
)
def test_cache_warmed_by_one_executor_serves_the_other(
    tmp_path, evaluator, points, warm_executor, replay_executor
):
    explorer = DesignSpaceExplorer(evaluator)

    warm_cache = EvaluationCache(tmp_path)
    warmed = explorer.explore(points, executor=warm_executor, cache=warm_cache)
    assert warm_cache.hits == 0
    assert warm_cache.misses == len(points)

    replay_cache = EvaluationCache(tmp_path)
    replayed = explorer.explore(points, executor=replay_executor, cache=replay_cache)
    assert replay_cache.hits == len(points)
    assert replay_cache.misses == 0
    assert_same_results(warmed, replayed)


def test_partial_warm_batches_only_the_misses(tmp_path, evaluator, points):
    """A half-warm cache: hits come from disk, misses run on the threads."""
    explorer = DesignSpaceExplorer(evaluator)
    half = points[: len(points) // 2]

    explorer.explore(half, executor="serial", cache=EvaluationCache(tmp_path))

    cache = EvaluationCache(tmp_path)
    full = explorer.explore(points, executor="thread", cache=cache)
    assert cache.hits == len(half)
    assert cache.misses == len(points) - len(half)

    fresh = explorer.explore(points, executor="serial")
    assert_same_results(fresh, full)


def test_cached_batched_results_round_trip_identically(tmp_path, evaluator, points):
    """put/get through JSON preserves thread-executor metrics bit for bit."""
    explorer = DesignSpaceExplorer(evaluator)
    cache = EvaluationCache(tmp_path)
    computed = explorer.explore(points, executor="thread", cache=cache)

    replay = explorer.explore(points, executor="thread", cache=cache)
    assert cache.hits == len(points)
    assert_same_results(computed, replay)
