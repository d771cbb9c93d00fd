"""Shared benchmark fixtures.

The Fig. 7-10 benchmarks share one search-space sweep (the session fixture
``search_sweep``), so the whole suite costs a single sweep plus the cheap
per-figure analyses.  Scale selection: ``REPRO_SCALE`` env var
(``smoke`` default; ``small`` is the EXPERIMENTS.md reporting scale).
"""

import pytest

from repro.core.goal import MIN_ACCURACY
from repro.experiments.runner import active_scale, make_harness, run_search_space

#: Accuracy bound used when selecting the "optimal point" per scale.  The
#: paper's 98 % bound is kept at the small/paper scales; the smoke scale
#: (24 records x 5.7 s) relaxes it to 90 % because the short records give
#: the spectral oracle ~1.4 Welch segments, raising its variance floor --
#: smoke checks code paths and shape, not absolute accuracy levels.
MIN_ACCURACY_BY_SCALE = {"smoke": 0.90, "small": MIN_ACCURACY, "paper": MIN_ACCURACY}


@pytest.fixture(scope="session")
def scale():
    """The active experiment scale."""
    return active_scale()


@pytest.fixture(scope="session")
def min_accuracy(scale):
    """Scale-appropriate optimal-point accuracy bound."""
    return MIN_ACCURACY_BY_SCALE[scale.name]


@pytest.fixture(scope="session")
def harness(scale):
    """Dataset + detector + evaluator (built once per session)."""
    return make_harness(scale.name)


@pytest.fixture(scope="session")
def search_sweep(scale):
    """The shared Fig. 7 search-space exploration."""
    return run_search_space(scale.name)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
