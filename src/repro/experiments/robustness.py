"""Robustness experiment: Monte-Carlo yield analysis of the two optima.

Beyond-the-paper validation of its central claim: the Fig. 7 b optimal
operating points (baseline 8 bit @ 2 uVrms; CS 8 bit, M = 150 @ 8 uVrms)
are stressed with the :mod:`repro.faults` non-ideality suite over a grid
of fault severities and independent chip/fault realisations, reporting
how detection accuracy degrades and what fraction of instances still
meets spec -- the "yield" a silicon team would quote.

The default suite spans the whole signal path:

* ``lna``          -- saturation bursts (artefacts) + slow gain drift;
* ``sample_hold``  -- missed conversions (held samples, baseline only);
* ``adc``          -- transient bit flips + a possible stuck bit;
* ``transmitter``  -- lost packets/frames + rare NaN glitches.

The same plan serves both architectures (entries whose block is absent
from a chain are skipped), so the comparison is apples-to-apples.

Everything derives from the harness master seed: re-running the
experiment reproduces the table bit-exactly, at any executor.
"""

from __future__ import annotations

import time

from repro.core.execution import DEFAULT_POLICY, ExecutionPolicy
from repro.core.telemetry import RunManifest, Telemetry, get_active
from repro.experiments.runner import SCALES, ExperimentScale, active_scale, make_harness
from repro.experiments.table2 import reference_operating_points
from repro.faults import (
    AdcBitFlip,
    AdcStuckBit,
    FaultSuite,
    GainDrift,
    MonteCarloYield,
    NanGlitch,
    PacketLoss,
    SampleDropout,
    SaturationBurst,
    YieldResult,
)

#: Severity grid of the yield sweep (0 = clean reference, added implicitly).
DEFAULT_SEVERITIES = (0.1, 0.25, 0.5, 1.0)

#: Spec: a realisation yields when accuracy degrades by at most this much.
DEFAULT_MAX_DEGRADATION = 0.05

#: Full-path fault plan at unit severity; scaled down by the sweep.
DEFAULT_FAULT_SUITE = FaultSuite(
    entries=(
        ("lna", SaturationBurst(severity=1.0)),
        ("lna", GainDrift(severity=1.0)),
        ("sample_hold", SampleDropout(severity=1.0)),
        ("adc", AdcBitFlip(severity=1.0)),
        ("adc", AdcStuckBit(severity=1.0)),
        ("transmitter", PacketLoss(severity=1.0)),
        ("transmitter", NanGlitch(severity=1.0)),
    )
)


def run_robustness(
    scale: str | ExperimentScale | None = None,
    *,
    suite: FaultSuite | None = None,
    severities: tuple[float, ...] = DEFAULT_SEVERITIES,
    n_realisations: int | None = None,
    max_degradation: float = DEFAULT_MAX_DEGRADATION,
    policy: ExecutionPolicy = DEFAULT_POLICY,
    telemetry: Telemetry | None = None,
) -> YieldResult:
    """Run the yield analysis at ``scale`` for both reference optima.

    ``n_realisations`` defaults to 3 at smoke scale and 8 otherwise (the
    smoke run exists to validate code paths in seconds, not statistics).
    ``policy`` guards each evaluation as it does a sweep's points.
    """
    if scale is None:
        scale = active_scale()
    if isinstance(scale, str):
        scale = SCALES[scale]
    if n_realisations is None:
        n_realisations = 3 if scale.name == "smoke" else 8
    harness = make_harness(scale.name)
    points = reference_operating_points()
    runner = MonteCarloYield(
        evaluators={name: harness.evaluator for name in points},
        points=points,
        suite=suite if suite is not None else DEFAULT_FAULT_SUITE,
        severities=severities,
        n_realisations=n_realisations,
        metric="accuracy",
        max_degradation=max_degradation,
        policy=policy,
    )
    return runner.run(telemetry=telemetry)


def render_robustness(result: YieldResult) -> str:
    """The yield/degradation table plus a one-line verdict per chain."""
    lines = [result.as_table(), ""]
    for chain in result.chains():
        curve = result.yield_curve(chain)
        held = [s for s, y in curve if y >= 0.5]
        verdict = (
            f"{chain}: holds >= 50% yield up to severity {max(held):g}"
            if held
            else f"{chain}: below 50% yield across the whole severity grid"
        )
        lines.append(verdict)
    return "\n".join(lines)


def build_robustness_manifest(
    result: YieldResult,
    telemetry: Telemetry | None = None,
    scale: str | ExperimentScale | None = None,
    *,
    command: str = "robustness",
) -> RunManifest:
    """A :class:`RunManifest` for one robustness run.

    The ``robustness`` section carries the yield digest plus the fault /
    failure / timeout counters the hardened execution layer accumulated.
    """
    if scale is None:
        scale = active_scale()
    if isinstance(scale, str):
        scale = SCALES[scale]
    tel = telemetry if telemetry is not None else get_active()
    counters = tel.snapshot()["counters"] if tel.enabled else {}
    return RunManifest(
        command=command,
        created_unix=time.time(),
        seed=scale.seed,
        scale=scale.name,
        executor="serial",
        n_workers=1,
        phases=tel.timers() if tel.enabled else {},
        robustness={
            **result.summary(),
            "counters": {
                "faults_applied": counters.get("faults.applied", 0),
                "evaluations": counters.get("robustness.evaluations", 0),
                "failures": counters.get("robustness.failures", 0),
                "timeouts": counters.get("robustness.timeouts", 0),
            },
        },
        environment=RunManifest.describe_environment(),
    )
