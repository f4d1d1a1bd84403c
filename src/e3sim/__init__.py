"""Deterministic techno-economic evaluation of heterogeneous RAN deployments.

Builds immutable deployment scenarios (station kinds, X-Haul links, edge
caches, daily demand), computes spectral, energy, cost, and cost-weighted
energy efficiency, and sweeps configuration knobs for optimal operating
points.
"""

__version__ = "0.1.0"

from .allocation import effective_bs_capacity, max_min_rates
from .cache import Popularity, hit_ratio, zipf_popularity
from .document import build_scenario, scenario_to_document
from .energy_cost import (
    cost_coefficient,
    effective_cost_per_area,
    resolve_benchmark_cost,
    total_cost_rate,
)
from .metrics import SECONDS_PER_YEAR, MetricReport, evaluate, evaluate_daily
from .model import (
    BaseStation,
    BsKind,
    CacheConfig,
    CostBreakdown,
    InvariantError,
    NetworkScenario,
    ScenarioError,
    SchemaError,
    TrafficProfile,
    UePopulation,
    UnknownKindError,
    UserEquipment,
    XHaulSolution,
    validate_scenario,
)
from .sweep import (
    ParameterPathError,
    SweepResult,
    SweepRow,
    SweepSpec,
    argmax,
    pareto_front,
    resolve_parameter,
    run_sweep,
    set_parameter,
)

__all__ = [
    "__version__",
    "BaseStation",
    "BsKind",
    "CacheConfig",
    "CostBreakdown",
    "InvariantError",
    "MetricReport",
    "NetworkScenario",
    "ParameterPathError",
    "Popularity",
    "ScenarioError",
    "SchemaError",
    "SECONDS_PER_YEAR",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "TrafficProfile",
    "UePopulation",
    "UnknownKindError",
    "UserEquipment",
    "XHaulSolution",
    "argmax",
    "build_scenario",
    "cost_coefficient",
    "effective_bs_capacity",
    "effective_cost_per_area",
    "evaluate",
    "evaluate_daily",
    "hit_ratio",
    "max_min_rates",
    "pareto_front",
    "resolve_benchmark_cost",
    "resolve_parameter",
    "run_sweep",
    "scenario_to_document",
    "set_parameter",
    "total_cost_rate",
    "validate_scenario",
    "zipf_popularity",
]
