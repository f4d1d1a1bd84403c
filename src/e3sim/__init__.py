"""Deterministic techno-economic evaluation of heterogeneous RAN deployments.

Builds immutable deployment scenarios (station kinds, X-Haul links, edge
caches, daily demand), computes spectral, energy, cost, and cost-weighted
energy efficiency, and sweeps configuration knobs for optimal operating
points.
"""

__version__ = "0.1.0"

from .cache import hit_ratio
from .document import build_scenario, scenario_to_document
from .energy_cost import cost_coefficient, effective_cost_per_area, resolve_benchmark_cost
from .metrics import SECONDS_PER_YEAR, MetricReport, evaluate, evaluate_daily
from .model import (
    BsKind,
    CacheConfig,
    CostBreakdown,
    InvariantError,
    ScenarioError,
    SchemaError,
    TrafficProfile,
    UnknownKindError,
    XHaulSolution,
)
from .scenario import NetworkScenario, StationLayout, UePopulation, validate_scenario
from .sweep import (
    ParameterPathError,
    SweepResult,
    SweepRow,
    SweepSpec,
    argmax,
    resolve_parameter,
    run_sweep,
    set_parameter,
)

__all__ = [
    "__version__",
    "BsKind",
    "CacheConfig",
    "CostBreakdown",
    "InvariantError",
    "MetricReport",
    "NetworkScenario",
    "ParameterPathError",
    "ScenarioError",
    "SchemaError",
    "SECONDS_PER_YEAR",
    "StationLayout",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "TrafficProfile",
    "UePopulation",
    "UnknownKindError",
    "XHaulSolution",
    "argmax",
    "build_scenario",
    "cost_coefficient",
    "effective_cost_per_area",
    "evaluate",
    "evaluate_daily",
    "hit_ratio",
    "resolve_benchmark_cost",
    "resolve_parameter",
    "run_sweep",
    "scenario_to_document",
    "set_parameter",
    "validate_scenario",
]
