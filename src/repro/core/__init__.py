"""Simulation engine and pathfinding core.

* :class:`Signal`, :class:`Block`, :class:`SystemModel`, :class:`Simulator`
  -- the Simulink-equivalent block/dataflow engine.
* :class:`ParameterSpace`, goal functions, Pareto extraction and the
  :class:`DesignSpaceExplorer` -- the pathfinding layer (Steps 1-5 of the
  paper's flow).
"""

from repro.core.block import Block, FunctionBlock, PassthroughBlock, SimulationContext
from repro.core.execution import (
    DEFAULT_POLICY,
    CheckpointLockedError,
    EvaluationCache,
    EvaluationTimeout,
    ExecutionPolicy,
    PointEvaluationError,
    SweepCheckpoint,
    evaluation_key,
    evaluator_fingerprint,
)
from repro.core.explorer import DesignSpaceExplorer, FrontEndEvaluator
from repro.core.goal import (
    Goal,
    accuracy_power_goal,
    area_constrained_goal,
    snr_power_goal,
)
from repro.core.parameters import SWEEPABLE_FIELDS, CompositeSpace, ParameterSpace
from repro.core.pareto import Objective, best_feasible, dominates, pareto_front
from repro.core.results import Evaluation, ExplorationResult
from repro.core.serialization import (
    design_point_from_dict,
    design_point_to_dict,
    load_result,
    save_result,
)
from repro.core.flight import FlightRecorder
from repro.core.metrics import Histogram, JsonlEventWriter, write_openmetrics
from repro.core.resources import ResourceSampler, resources_section, sample_resources
from repro.core.signal import DOMAINS, Signal
from repro.core.simulator import SimulationResult, Simulator
from repro.core.system import SystemModel
from repro.core.telemetry import (
    NULL,
    NullTelemetry,
    RunManifest,
    Telemetry,
    activate,
    get_active,
)
from repro.core.tracing import Tracer, merge_chrome_traces, write_chrome_trace

__all__ = [
    "Block",
    "CheckpointLockedError",
    "CompositeSpace",
    "DEFAULT_POLICY",
    "DOMAINS",
    "DesignSpaceExplorer",
    "Evaluation",
    "EvaluationCache",
    "EvaluationTimeout",
    "ExecutionPolicy",
    "ExplorationResult",
    "FlightRecorder",
    "FrontEndEvaluator",
    "FunctionBlock",
    "Goal",
    "Histogram",
    "JsonlEventWriter",
    "NULL",
    "NullTelemetry",
    "Objective",
    "RunManifest",
    "Telemetry",
    "Tracer",
    "ParameterSpace",
    "PassthroughBlock",
    "PointEvaluationError",
    "ResourceSampler",
    "SWEEPABLE_FIELDS",
    "SimulationContext",
    "SimulationResult",
    "Simulator",
    "SweepCheckpoint",
    "SystemModel",
    "Signal",
    "accuracy_power_goal",
    "activate",
    "get_active",
    "area_constrained_goal",
    "best_feasible",
    "design_point_from_dict",
    "design_point_to_dict",
    "evaluation_key",
    "evaluator_fingerprint",
    "load_result",
    "save_result",
    "dominates",
    "merge_chrome_traces",
    "pareto_front",
    "resources_section",
    "sample_resources",
    "snr_power_goal",
    "write_chrome_trace",
    "write_openmetrics",
]
