"""Golden regression numbers for the paper's headline artefacts.

A *golden* is a canonical JSON snapshot of one table/figure result,
stored under ``tests/goldens/`` and regenerated with::

    python -m repro.testing.refresh_goldens

``tests/test_goldens.py`` recomputes each golden fresh and fails when a
code change drifts the numbers beyond the tolerance stated *inside the
golden file* -- the file, not the test, owns its own pass/fail contract,
so loosening a tolerance shows up in review as a data change.

Three goldens are maintained:

``table1``
    The rendered capability-comparison table plus the programmatic
    capability-evidence checks.  Purely structural -- exact match.
``table2``
    Per-block Table II power numbers (watts) at the two reference
    operating points.  Analytic closed forms -- tight 1e-9 rtol.
``fig7a``
    A miniature smoke-scale Fig. 7a sweep (the same 6-point grid the
    fast test suite uses): per-point metrics, the accuracy-constrained
    optima and the headline power-saving ratio.  Simulation outputs --
    1e-6 rtol absorbs platform libm drift.  The golden is computed and
    replayed with the serial executor.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable

from repro.core.explorer import DesignSpaceExplorer
from repro.core.parameters import ParameterSpace
from repro.experiments.fig7 import analyze_fig7
from repro.experiments.runner import make_harness
from repro.experiments.table1 import render_table1, verify_capability_evidence
from repro.experiments.table2 import power_model_rows, reference_operating_points

#: Names of the maintained goldens, in refresh order (cheap first).
GOLDEN_NAMES = ("table1", "table2", "fig7a")

#: Schema version of the golden file format.
SCHEMA_VERSION = 1

#: Accuracy floor for the miniature Fig. 7a sweep.  The smoke-scale
#: detector is far from the paper's 98% goal, so the golden uses the same
#: relaxed constraint as the fast-suite tests exercising the analysis.
FIG7A_MIN_ACCURACY = 0.5


def default_goldens_dir() -> Path:
    """``tests/goldens`` of this repository checkout."""
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


def fig7a_space():
    """The miniature Fig. 7a grid: 4 baseline + 2 CS smoke-scale points."""
    return ParameterSpace(
        {"use_cs": [False], "lna_noise_rms": [2e-6, 20e-6], "n_bits": [6, 8]}
    ) | ParameterSpace(
        {"use_cs": [True], "lna_noise_rms": [8e-6], "n_bits": [8], "cs_m": [75, 150]}
    )


def _optimum_payload(evaluation) -> dict[str, Any]:
    return {
        "point": evaluation.point.describe(),
        "metrics": {name: float(value) for name, value in sorted(evaluation.metrics.items())},
    }


def compute_table1_golden() -> dict[str, Any]:
    """Capability table: rendered text + evidence booleans (exact)."""
    return {
        "name": "table1",
        "schema": SCHEMA_VERSION,
        "tolerance": {"rtol": 0.0},
        "payload": {
            "rendered": render_table1(),
            "capability_evidence": verify_capability_evidence(),
        },
    }


def compute_table2_golden() -> dict[str, Any]:
    """Table II power models at the reference points (analytic, 1e-9)."""
    payload: dict[str, Any] = {}
    for arch, point in reference_operating_points().items():
        rows = power_model_rows(point)
        payload[arch] = {
            "rows": {row.block: row.power_w for row in rows},
            "total_w": float(sum(row.power_w for row in rows)),
        }
    return {
        "name": "table2",
        "schema": SCHEMA_VERSION,
        "tolerance": {"rtol": 1e-9},
        "payload": payload,
    }


def compute_fig7a_golden(executor: str = "serial") -> dict[str, Any]:
    """Miniature Fig. 7a sweep + headline optima (simulation, 1e-6)."""
    harness = make_harness("smoke")
    sweep = DesignSpaceExplorer(harness.evaluator).explore(
        fig7a_space(), name="fig7a-golden", executor=executor
    )
    result = analyze_fig7(sweep, min_accuracy=FIG7A_MIN_ACCURACY)
    return {
        "name": "fig7a",
        "schema": SCHEMA_VERSION,
        "tolerance": {"rtol": 1e-6},
        "payload": {
            "min_accuracy": FIG7A_MIN_ACCURACY,
            "points": [_optimum_payload(evaluation) for evaluation in sweep],
            "optimal_baseline": _optimum_payload(result.optimal_baseline),
            "optimal_cs": _optimum_payload(result.optimal_cs),
            "power_saving": float(result.power_saving),
        },
    }


_COMPUTERS: dict[str, Callable[..., dict[str, Any]]] = {
    "table1": compute_table1_golden,
    "table2": compute_table2_golden,
    "fig7a": compute_fig7a_golden,
}


def compute_golden(name: str, **kwargs: Any) -> dict[str, Any]:
    """Compute the golden ``name`` fresh (KeyError lists valid names)."""
    try:
        computer = _COMPUTERS[name]
    except KeyError:
        raise KeyError(f"no golden {name!r}; available: {list(GOLDEN_NAMES)}") from None
    return computer(**kwargs)


def golden_path(name: str, directory: Path | str | None = None) -> Path:
    base = Path(directory) if directory is not None else default_goldens_dir()
    return base / f"{name}.json"


def write_golden(golden: dict[str, Any], directory: Path | str | None = None) -> Path:
    """Serialise ``golden`` under its canonical filename; returns the path."""
    path = golden_path(golden["name"], directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return path


def load_golden(name: str, directory: Path | str | None = None) -> dict[str, Any]:
    """Load a stored golden (FileNotFoundError names the refresh command)."""
    path = golden_path(name, directory)
    if not path.exists():
        raise FileNotFoundError(
            f"golden {name!r} missing at {path}; regenerate with "
            f"`python -m repro.testing.refresh_goldens`"
        )
    return json.loads(path.read_text())


def _compare(expected: Any, actual: Any, rtol: float, trail: str, errors: list[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            errors.append(f"{trail}: key mismatch {sorted(expected)} vs "
                          f"{sorted(actual) if isinstance(actual, dict) else type(actual).__name__}")
            return
        for key in expected:
            _compare(expected[key], actual[key], rtol, f"{trail}.{key}", errors)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            errors.append(f"{trail}: length mismatch")
            return
        for i, (exp, act) in enumerate(zip(expected, actual)):
            _compare(exp, act, rtol, f"{trail}[{i}]", errors)
    elif isinstance(expected, bool) or not isinstance(expected, (int, float)):
        if expected != actual:
            errors.append(f"{trail}: {expected!r} != {actual!r}")
    else:  # numeric: relative comparison per the golden's stated tolerance
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            errors.append(f"{trail}: expected number, got {actual!r}")
        elif not math.isclose(float(expected), float(actual), rel_tol=rtol, abs_tol=0.0):
            errors.append(f"{trail}: {expected!r} != {actual!r} (rtol={rtol})")


def compare_to_golden(golden: dict[str, Any], fresh: dict[str, Any]) -> list[str]:
    """Mismatches between a stored golden and a freshly computed one.

    Compares the payloads under the *stored* golden's tolerance; an empty
    list means the fresh computation is within contract.
    """
    rtol = float(golden.get("tolerance", {}).get("rtol", 0.0))
    errors: list[str] = []
    _compare(golden["payload"], fresh["payload"], rtol, golden["name"], errors)
    return errors
