"""Paper experiments: one module per table/figure, plus the shared harness.

* :mod:`repro.experiments.runner` -- dataset/detector/evaluator harness
  with ``smoke``/``small``/``paper`` scales (``REPRO_SCALE`` env var).
* ``table1``..``table3`` -- the paper's tables as data + rendered text.
* ``fig4`` -- LNA noise sweep (SNDR + power breakdown).
* ``fig7`` -- search-space sweep, Pareto fronts, optimal points.
* ``fig8`` -- power breakdown of the two optima.
* ``fig9`` -- accuracy vs capacitor area.
* ``fig10`` -- area-constrained Pareto fronts.
"""

from repro.experiments.fig4 import DEFAULT_NOISE_SWEEP_UV, Fig4Row, render_fig4, run_fig4
from repro.experiments.fig7 import (
    MIN_ACCURACY,
    PAPER_BASELINE_OPTIMUM,
    PAPER_CS_OPTIMUM,
    PAPER_POWER_SAVING,
    Fig7Result,
    analyze_fig7,
    render_front,
)
from repro.experiments.fig8 import Fig8Result, analyze_fig8
from repro.experiments.fig9 import Fig9Result, analyze_fig9
from repro.experiments.fig10 import DEFAULT_AREA_CAPS, Fig10Result, analyze_fig10
from repro.experiments.robustness import (
    DEFAULT_FAULT_SUITE,
    DEFAULT_MAX_DEGRADATION,
    DEFAULT_SEVERITIES,
    build_robustness_manifest,
    render_robustness,
    run_robustness,
)
from repro.experiments.runner import (
    F_SAMPLE,
    SCALES,
    ExperimentHarness,
    ExperimentScale,
    FistaReconstructorFactory,
    active_scale,
    build_run_manifest,
    default_workers,
    make_harness,
    run_search_space,
    search_space_for,
)
from repro.experiments.table1 import TABLE1_COLUMNS, render_table1, verify_capability_evidence
from repro.experiments.table2 import power_model_rows, reference_operating_points, render_table2
from repro.experiments.table3 import (
    CS_M_SWEEP,
    CS_N_PHI,
    N_BITS_SWEEP,
    NOISE_SWEEP_UV,
    paper_search_space,
    render_table3,
    space_summary,
)

__all__ = [
    "CS_M_SWEEP",
    "CS_N_PHI",
    "DEFAULT_AREA_CAPS",
    "DEFAULT_FAULT_SUITE",
    "DEFAULT_MAX_DEGRADATION",
    "DEFAULT_NOISE_SWEEP_UV",
    "DEFAULT_SEVERITIES",
    "ExperimentHarness",
    "ExperimentScale",
    "F_SAMPLE",
    "Fig10Result",
    "Fig4Row",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "MIN_ACCURACY",
    "N_BITS_SWEEP",
    "NOISE_SWEEP_UV",
    "PAPER_BASELINE_OPTIMUM",
    "PAPER_CS_OPTIMUM",
    "PAPER_POWER_SAVING",
    "SCALES",
    "TABLE1_COLUMNS",
    "FistaReconstructorFactory",
    "active_scale",
    "default_workers",
    "analyze_fig10",
    "analyze_fig7",
    "analyze_fig8",
    "analyze_fig9",
    "build_robustness_manifest",
    "build_run_manifest",
    "make_harness",
    "search_space_for",
    "paper_search_space",
    "power_model_rows",
    "reference_operating_points",
    "render_fig4",
    "render_front",
    "render_robustness",
    "run_robustness",
    "render_table1",
    "render_table2",
    "render_table3",
    "run_fig4",
    "run_search_space",
    "space_summary",
    "verify_capability_evidence",
]
