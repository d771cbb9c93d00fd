"""Benchmark harness: tracked performance records with a regression gate.

The repo's performance claims (the batched executor's >= 3x signal-pass
speedup, the parallel executor's scaling) are enforced once in the
benchmark suite but never *tracked*: a 15% regression that stays above
the acceptance floor lands silently.  ``repro bench`` closes that gap:

* each invocation runs the registered benchmarks and **appends** one
  schema'd record per benchmark to a dated ledger
  (``BENCH_<YYYYMMDD>.json``), so a directory of ledgers is a
  performance history;
* ``repro bench --compare [BASELINE]`` additionally gates against a
  baseline ledger (default: the newest *other* ``BENCH_*.json`` in the
  output directory) and exits non-zero when any benchmark's best wall
  time regressed by more than ``--threshold`` (default 20%).  With no
  baseline available it warns and passes -- the CI bootstrap case.

Records are compared on the *best* (minimum) wall time per benchmark
name within a ledger, the same best-of discipline the benchmark suite
uses to keep scheduler noise out of single-core CI timings.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.util.fsio import FileLock, atomic_write_text

#: Version stamp of the benchmark-record JSON schema.
BENCH_SCHEMA_VERSION = 1

#: Default regression gate: fail when best wall time grows by more than this.
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Ledger filename pattern (one file per day; append within a day).
LEDGER_GLOB = "BENCH_*.json"


@dataclass
class BenchRecord:
    """One benchmark measurement appended to the dated ledger."""

    name: str
    wall_s: float
    points: int
    reps: int
    created_unix: float = 0.0
    meta: dict = field(default_factory=dict)
    schema: int = BENCH_SCHEMA_VERSION

    @property
    def points_per_s(self) -> float:
        """Throughput (0 when the wall time is degenerate)."""
        return self.points / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["points_per_s"] = self.points_per_s
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchRecord":
        if payload.get("schema") != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"bench record schema {payload.get('schema')!r} != "
                f"supported {BENCH_SCHEMA_VERSION}"
            )
        return cls(
            name=str(payload["name"]),
            wall_s=float(payload["wall_s"]),
            points=int(payload["points"]),
            reps=int(payload["reps"]),
            created_unix=float(payload.get("created_unix", 0.0)),
            meta=dict(payload.get("meta", {})),
        )


# --- ledger I/O ---------------------------------------------------------------


def default_ledger_path(directory: str | Path = ".") -> Path:
    """Today's ledger path: ``<directory>/BENCH_<YYYYMMDD>.json``."""
    return Path(directory) / time.strftime("BENCH_%Y%m%d.json")


def load_records(path: str | Path) -> list[BenchRecord]:
    """Read a ledger written by :func:`append_records`."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(f"{path}: not a bench ledger (schema {BENCH_SCHEMA_VERSION})")
    return [BenchRecord.from_dict(record) for record in payload.get("records", [])]


def append_records(path: str | Path, records: list[BenchRecord]) -> Path:
    """Append ``records`` to the ledger at ``path`` (created if missing).

    The append is a read-modify-write cycle, so it is serialised under an
    advisory sidecar lock (two concurrent CI bench jobs pointed at one
    ledger queue instead of losing each other's records) and the rewrite
    is atomic (temp file + ``os.replace``): a reader -- or a crash
    mid-write -- never observes a torn ledger.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with FileLock(path):
        existing = load_records(path) if path.exists() else []
        payload = {
            "schema": BENCH_SCHEMA_VERSION,
            "records": [record.to_dict() for record in existing + records],
        }
        atomic_write_text(
            path, json.dumps(payload, indent=2, sort_keys=True) + "\n", fsync=True
        )
    return path


def find_baseline(out_path: str | Path) -> Path | None:
    """Newest ``BENCH_*.json`` sibling of ``out_path`` other than itself."""
    out_path = Path(out_path)
    candidates = sorted(
        p for p in out_path.parent.glob(LEDGER_GLOB) if p.name != out_path.name
    )
    return candidates[-1] if candidates else None


# --- comparison ---------------------------------------------------------------


def best_wall_times(records: list[BenchRecord]) -> dict[str, float]:
    """Best (minimum) wall seconds per benchmark name."""
    best: dict[str, float] = {}
    for record in records:
        previous = best.get(record.name)
        if previous is None or record.wall_s < previous:
            best[record.name] = record.wall_s
    return best


def compare_records(
    baseline: list[BenchRecord],
    current: list[BenchRecord],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list[dict]:
    """Per-benchmark comparison rows; ``regressed`` marks gate failures.

    A benchmark regresses when its best current wall time exceeds the
    best baseline wall time by more than ``threshold`` (relative).
    Benchmarks present on only one side are reported but never fail the
    gate (a new benchmark has no baseline; a removed one has no current).
    """
    base = best_wall_times(baseline)
    now = best_wall_times(current)
    rows: list[dict] = []
    for name in sorted(set(base) | set(now)):
        row = {
            "name": name,
            "baseline_s": base.get(name),
            "current_s": now.get(name),
            "ratio": None,
            "regressed": False,
        }
        if name in base and name in now and base[name] > 0:
            row["ratio"] = now[name] / base[name]
            row["regressed"] = row["ratio"] > 1.0 + threshold
        rows.append(row)
    return rows


def render_comparison(rows: list[dict], threshold: float) -> str:
    """Fixed-width comparison table (repo plain-text conventions)."""
    lines = [
        f"{'benchmark':<28}{'baseline':>12}{'current':>12}{'ratio':>8}  verdict",
    ]
    for row in rows:
        baseline = f"{row['baseline_s']:.3f}s" if row["baseline_s"] is not None else "-"
        current = f"{row['current_s']:.3f}s" if row["current_s"] is not None else "-"
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-"
        if row["regressed"]:
            verdict = f"REGRESSED (> {1.0 + threshold:.2f}x)"
        elif row["ratio"] is None:
            verdict = "no baseline" if row["baseline_s"] is None else "not run"
        else:
            verdict = "ok"
        lines.append(f"{row['name']:<28}{baseline:>12}{current:>12}{ratio:>8}  {verdict}")
    return "\n".join(lines)


# --- benchmark implementations ------------------------------------------------


def _bench_grid(n_points: int) -> list:
    """Baseline LNA/S&H/SAR grid of ``n_points`` (resolutions x noise)."""
    import numpy as np

    from repro.power.technology import DesignPoint

    resolutions = (8, 10, 12, 14)
    per_resolution = max(1, n_points // len(resolutions))
    return [
        DesignPoint(n_bits=n_bits, lna_noise_rms=noise, lna_bw_ratio=1.0)
        for n_bits in resolutions
        for noise in np.linspace(1e-6, 30e-6, per_resolution)
    ][:n_points]


def _bench_evaluator():
    import numpy as np

    from repro.core.explorer import FrontEndEvaluator

    records = np.random.default_rng(1).normal(0.0, 20e-6, size=(1, 64))
    return FrontEndEvaluator(records, None, 2.1 * 256, seed=3)


def _best_of(fn, reps: int) -> float:
    fn()  # warm-up: imports, filter design, allocator
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_batched_sweep(n_points: int = 64, reps: int = 3) -> BenchRecord:
    """End-to-end ``explore(executor="batched")`` over the baseline grid."""
    from repro.core.explorer import DesignSpaceExplorer

    explorer = DesignSpaceExplorer(_bench_evaluator())
    points = _bench_grid(n_points)
    wall_s = _best_of(lambda: explorer.explore(points, executor="batched"), reps)
    return BenchRecord(
        name="batched-sweep",
        wall_s=wall_s,
        points=len(points),
        reps=reps,
        created_unix=time.time(),
        meta={"executor": "batched"},
    )


def bench_parallel_sweep(
    n_points: int = 32, n_workers: int = 2, reps: int = 2
) -> BenchRecord:
    """End-to-end process-pool ``explore`` (pool startup included)."""
    from repro.core.explorer import DesignSpaceExplorer

    explorer = DesignSpaceExplorer(_bench_evaluator())
    points = _bench_grid(n_points)
    wall_s = _best_of(
        lambda: explorer.explore(points, executor="process", n_workers=n_workers),
        reps,
    )
    return BenchRecord(
        name="parallel-sweep",
        wall_s=wall_s,
        points=len(points),
        reps=reps,
        created_unix=time.time(),
        meta={"executor": "process", "n_workers": n_workers},
    )


def _adaptive_fig7a_setup():
    """Evaluator + grid of the ``adaptive_fig7a`` benchmark.

    A fig7a-style power-vs-SNR pathfinding problem shaped so the
    reduction claim is meaningful: a 480-point grid dominated by
    quality-neutral axes (``v_dd`` sweeps power without touching SNR)
    over a small sparse-friendly multi-sine corpus -- CS reconstruction
    of white noise is meaningless, and its SNR too unstable across
    fidelities to steer by.
    """
    import numpy as np

    from repro.core.explorer import FrontEndEvaluator
    from repro.experiments.runner import FistaReconstructorFactory
    from repro.power.technology import DesignPoint

    sample_rate = 2.1 * 256
    rng = np.random.default_rng(7)
    t = np.arange(512) / sample_rate
    records = np.stack(
        [
            sum(
                a * np.sin(2 * np.pi * f * t + p)
                for a, f, p in zip(
                    rng.uniform(30e-6, 120e-6, 5),
                    rng.uniform(2.0, 40.0, 5),
                    rng.uniform(0, 2 * np.pi, 5),
                )
            )
            for _ in range(4)
        ]
    )
    evaluator = FrontEndEvaluator(
        records,
        None,
        sample_rate,
        seed=11,
        reconstructor_factory=FistaReconstructorFactory(n_iter=60, n_phi=256),
    )
    noises = np.linspace(1e-6, 26e-6, 6)
    vdds = np.linspace(0.9, 2.0, 20)
    points = [
        DesignPoint(n_bits=n_bits, lna_noise_rms=noise, v_dd=v_dd)
        for n_bits in (8, 10)
        for noise in noises
        for v_dd in vdds
    ] + [
        DesignPoint(use_cs=True, cs_n_phi=256, cs_m=cs_m, lna_noise_rms=noise, v_dd=v_dd)
        for cs_m in (64, 128)
        for noise in noises
        for v_dd in vdds
    ]
    return evaluator, points


#: Correctness gate of the adaptive benchmark: the reduction the ROADMAP
#: claims.  ``bench_adaptive_fig7a`` raises below this.
ADAPTIVE_MIN_REDUCTION = 10.0


def bench_adaptive_fig7a(reps: int = 2) -> BenchRecord:
    """Adaptive (successive-halving) fig7a exploration vs the exhaustive sweep.

    Measures the adaptive explorer's wall time on the 480-point grid and
    **verifies its two claims before recording anything**: the per-
    architecture Pareto fronts must equal the exhaustive sweep's exactly
    (golden relative tolerance 1e-6), and the run must use at least
    :data:`ADAPTIVE_MIN_REDUCTION` x fewer full-fidelity evaluations than
    the grid size -- otherwise this raises ``RuntimeError`` and nothing
    reaches the ledger.  The exhaustive reference sweep doubles as the
    warm-up and is not timed.
    """
    import numpy as np

    from repro.core.adaptive import FidelityRung, FidelitySchedule
    from repro.core.explorer import DesignSpaceExplorer
    from repro.core.pareto import Objective, pareto_front

    evaluator, points = _adaptive_fig7a_setup()
    explorer = DesignSpaceExplorer(evaluator)
    objectives = (Objective("power_uw"), Objective("snr_db", maximize=True))
    schedule = FidelitySchedule(
        [FidelityRung("half", corpus_fraction=0.5, solver_scale=0.5), FidelityRung("full")]
    )

    def front_points(evaluations) -> dict[bool, np.ndarray]:
        return {
            arch: np.array(
                sorted(
                    (e.metrics["power_uw"], e.metrics["snr_db"])
                    for e in pareto_front(
                        [e for e in evaluations if e.ok and e.point.use_cs == arch],
                        objectives,
                    )
                )
            )
            for arch in (False, True)
        }

    exhaustive = explorer.explore(points, executor="batched")
    expected = front_points(list(exhaustive))

    def run_adaptive():
        return explorer.explore_adaptive(
            points,
            objectives=objectives,
            schedule=schedule,
            keep_frac=0.06,
            group_by=lambda e: e.point.use_cs,
            executor="batched",
        )

    result = run_adaptive()
    wall_s = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = run_adaptive()
        wall_s = min(wall_s, time.perf_counter() - start)

    ledger = result.ledger
    reduction = ledger.reduction or 0.0
    if reduction < ADAPTIVE_MIN_REDUCTION:
        raise RuntimeError(
            f"adaptive_fig7a used {ledger.full_fidelity_evaluations} full-fidelity "
            f"evaluations for {ledger.grid_size} grid points "
            f"({reduction:.1f}x < required {ADAPTIVE_MIN_REDUCTION:.0f}x reduction)"
        )
    got = front_points(list(result))
    for arch in (False, True):
        if expected[arch].shape != got[arch].shape or not np.allclose(
            expected[arch], got[arch], rtol=1e-6
        ):
            raise RuntimeError(
                f"adaptive_fig7a front mismatch (use_cs={arch}): exhaustive "
                f"{expected[arch].shape[0]} points vs adaptive {got[arch].shape[0]}"
            )
    return BenchRecord(
        name="adaptive_fig7a",
        wall_s=wall_s,
        points=len(points),
        reps=reps,
        created_unix=time.time(),
        meta={
            "executor": "batched",
            "grid_size": ledger.grid_size,
            "full_fidelity_evaluations": ledger.full_fidelity_evaluations,
            "low_fidelity_evaluations": ledger.low_fidelity_evaluations,
            "reduction": reduction,
            "keep_frac": ledger.keep_frac,
            "rungs": len(ledger.rungs),
            "front_points": int(sum(f.shape[0] for f in expected.values())),
        },
    )


#: Correctness gate of the kernel benchmark: the speedup an accelerated
#: backend must deliver over the numpy reference before it is recorded.
KERNELS_FISTA_MIN_SPEEDUP = 2.0


def bench_kernels_fista(reps: int = 3) -> BenchRecord:
    """FISTA kernel: best available accelerated backend vs numpy reference.

    Times a smoke-scale batched LASSO solve (the shape class that
    dominates sweep wall time: small matrices, many iterations, where
    per-op numpy overhead is the bottleneck a JIT removes).  With an
    accelerated backend importable (numba), its conformance is checked,
    the :data:`KERNELS_FISTA_MIN_SPEEDUP` x claim is **verified before
    recording** (otherwise ``RuntimeError`` and nothing reaches the
    ledger), and the accelerated wall time is recorded.  Without numba
    the record is the reference timing with ``meta.fallback = true`` --
    the auto-fallback path, exercised so the ledger entry never silently
    vanishes when the accelerator is absent.
    """
    import numpy as np

    from repro.kernels import registry

    rng = np.random.default_rng(7)
    m, n, b = 16, 64, 4
    a = rng.normal(size=(m, n)) / np.sqrt(m)
    y2 = rng.normal(size=(b, m))
    lam = 0.02 * float(np.max(np.abs(y2 @ a)))
    n_iter = 400
    tol = 0.0  # no early exit: pure kernel throughput, comparable runs

    def run(backend: str):
        with registry.use_backend(backend):
            return registry.call("fista", a, y2, lam, n_iter, tol)

    numpy_wall = _best_of(lambda: run("numpy"), reps)
    backend_name, wall_s, speedup, fallback = "numpy", numpy_wall, 1.0, True
    numba = registry.backend("numba")
    if numba.available and "fista" in numba.kernels:
        from repro.testing.conformance import check_backend

        mismatches = check_backend("numba")
        if mismatches:
            raise RuntimeError(
                "kernels_fista: numba backend failed conformance: "
                + "; ".join(mismatches[:3])
            )
        accel_wall = _best_of(lambda: run("numba"), reps)  # warm-up pays the JIT
        speedup = numpy_wall / accel_wall if accel_wall > 0 else float("inf")
        if speedup < KERNELS_FISTA_MIN_SPEEDUP:
            raise RuntimeError(
                f"kernels_fista: numba speedup {speedup:.2f}x < required "
                f"{KERNELS_FISTA_MIN_SPEEDUP:.0f}x over the numpy reference"
            )
        backend_name, wall_s, fallback = "numba", accel_wall, False
    return BenchRecord(
        name="kernels_fista",
        wall_s=wall_s,
        points=b,
        reps=reps,
        created_unix=time.time(),
        meta={
            "backend": backend_name,
            "fallback": fallback,
            "numpy_wall_s": numpy_wall,
            "speedup_vs_numpy": speedup,
            "problem": {"m": m, "n": n, "batch": b, "n_iter": n_iter},
        },
    )


#: Registered benchmarks, in execution order.
BENCHMARKS = {
    "batched-sweep": bench_batched_sweep,
    "parallel-sweep": bench_parallel_sweep,
    "adaptive_fig7a": bench_adaptive_fig7a,
    "kernels_fista": bench_kernels_fista,
}


def run_benchmarks(names: list[str] | None = None) -> list[BenchRecord]:
    """Run the named benchmarks (default: all registered)."""
    selected = list(BENCHMARKS) if names is None else list(names)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmark(s) {unknown}; registered: {list(BENCHMARKS)}")
    return [BENCHMARKS[name]() for name in selected]
