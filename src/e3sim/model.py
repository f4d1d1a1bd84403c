"""Deployment scenario model: the records of one kind, cache and traffic
setting, their invariants, and the errors that report them; and the schema
of one station and one UE.

``BaseStation`` and ``UserEquipment`` are schema only: their fields and
defaults are the keys of a ``base_stations`` or ``ues`` list entry, and
their names name an entity in errors. Stations and UEs are held, and their
invariants checked, only as columns, in ``scenario.StationLayout`` and
``scenario.UePopulation``, which ``NetworkScenario`` bundles with the rest;
``document`` reads and writes the JSON form. Every record is immutable after
construction and safe to share across concurrent evaluations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields

MEDIA = ("wired", "wireless")
STRATEGIES = ("none", "random_fill", "top_popular")
RADIO_MODES = ("abstract", "physical")

#: Sentinel benchmark cost: use the costliest kind in the scenario catalog.
MAX_KIND = "max-kind"

#: Largest ``cache.catalog_size``: the popularity table holds one weight per item.
MAX_CATALOG_SIZE = 10**6

#: Most samples of a daily average: the day is evaluated one row per sample.
MAX_SAMPLES_PER_DAY = 86_400

#: Most stations a ``grid`` and UEs a ``uniform_random`` generator may make:
#: each is one row of every station or UE array.
MAX_STATIONS = 10**6
MAX_UES = 10**7

#: Dynamic-power multiple of the transceiver part, applied when a solution
#: does not set one explicitly.
DEFAULT_XHAUL_POWER_FACTOR = {"wired": 0.0, "wireless": 3.0}


class ScenarioError(ValueError):
    """Base class for scenario construction failures."""


class SchemaError(ScenarioError):
    """Document does not match the scenario schema (bad key, type, shape)."""


class InvariantError(ScenarioError):
    """A domain invariant is violated (names the entity and the rule)."""


class UnknownKindError(ScenarioError):
    """A base station references a kind_id missing from the catalog."""


# A check whose message names a value raises inline, so a check that passes formats nothing.
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


@dataclass(frozen=True)
class XHaulSolution:
    """One backhaul/fronthaul option: capacity, medium, power overhead rule.

    ``xhaul_power_factor`` left at None takes the medium's default from
    ``DEFAULT_XHAUL_POWER_FACTOR``.
    """

    solution_id: str
    capacity_bps: float
    medium: str
    xhaul_power_factor: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.capacity_bps < math.inf:
            raise InvariantError(f"XHaulSolution '{self.solution_id}': capacity_bps must be finite and > 0")
        if self.medium not in MEDIA:
            raise InvariantError(f"XHaulSolution '{self.solution_id}': medium must be one of {MEDIA}")
        if self.xhaul_power_factor is None:
            object.__setattr__(self, "xhaul_power_factor", DEFAULT_XHAUL_POWER_FACTOR[self.medium])
        if not 0 <= self.xhaul_power_factor < math.inf:
            raise InvariantError(f"XHaulSolution '{self.solution_id}': xhaul_power_factor must be finite and >= 0")


@dataclass(frozen=True)
class CostBreakdown:
    """Per-area yearly cost split into its constituents.

    ``inherited_discount`` is the fraction of the capital components
    (infrastructure and site installation) saved by reusing equipment
    already deployed in a legacy network.
    """

    infrastructure: float
    site_installation: float
    site_operation: float
    optimization_maintenance: float
    cache_placement: float
    xhaul_configuration: float
    content_delivery: float
    inherited_discount: float = 0.0

    def __post_init__(self) -> None:
        for name in _BREAKDOWN_COMPONENTS:
            if not 0 <= getattr(self, name) < math.inf:
                raise InvariantError(f"CostBreakdown: {name} must be finite and >= 0")
        _require(
            0.0 <= self.inherited_discount <= 1.0,
            "CostBreakdown: inherited_discount must lie in [0, 1]",
        )

    def total(self) -> float:
        """Undiscounted sum of all components."""
        return math.fsum(getattr(self, name) for name in _BREAKDOWN_COMPONENTS)

    def effective_total(self) -> float:
        """Component sum with the inherited discount applied to capital items."""
        capital = self.infrastructure + self.site_installation
        return self.total() - capital * self.inherited_discount


#: The seven cost components: every CostBreakdown field but the discount.
_BREAKDOWN_COMPONENTS = tuple(f.name for f in fields(CostBreakdown) if f.default is MISSING)


@dataclass(frozen=True)
class BsKind:
    """A class of base stations sharing power, radio, X-Haul, cache, and cost.

    ``radio_capacity_bps`` is the aggregate air-interface capacity used in
    abstract radio mode; physical mode derives capacity from geometry and
    ignores it. ``cost_per_area`` is the yearly per-square-meter cost of one
    station, excluding the per-item cache cost which is added on top as
    ``cache_size * cache_item_cost_per_area``.
    """

    kind_id: str
    static_power_w: float
    max_tx_dynamic_power_w: float
    radio_capacity_bps: float
    bandwidth_hz: float
    coverage_area_m2: float
    cost_per_area: float
    xhaul: XHaulSolution
    tx_power_w: float = 0.13
    cache_size: int = 0
    cache_item_cost_per_area: float = 0.0
    cost_breakdown: CostBreakdown | None = None

    def __post_init__(self) -> None:
        for name in (
            "static_power_w",
            "max_tx_dynamic_power_w",
            "radio_capacity_bps",
            "bandwidth_hz",
            "coverage_area_m2",
            "cost_per_area",
            "tx_power_w",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise InvariantError(f"BsKind '{self.kind_id}': {name} must be finite and > 0")
        for name in ("cache_size", "cache_item_cost_per_area"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvariantError(f"BsKind '{self.kind_id}': {name} must be finite and >= 0")
        if self.cost_breakdown is not None:
            total = self.cost_breakdown.total()
            if not abs(total - self.cost_per_area) <= 1e-9 * max(abs(self.cost_per_area), 1.0):
                raise InvariantError(
                    f"BsKind '{self.kind_id}': cost_breakdown components sum to {total}, "
                    f"expected cost_per_area {self.cost_per_area}"
                )


@dataclass(frozen=True)
class BaseStation:
    """Schema of one placed station: identifier, kind reference, planar position."""

    bs_id: str
    kind: BsKind
    position_m: tuple[float, float]


@dataclass(frozen=True)
class UserEquipment:
    """Schema of one active user: position, peak-hour demand, and priority weight."""

    ue_id: str
    position_m: tuple[float, float]
    demand_peak_bps: float
    weight: float = 1.0


@dataclass(frozen=True)
class TrafficProfile:
    """Daily demand shape: peak-to-minimum ratio, peak hour, sample count."""

    peak_to_min_ratio: float = 1.0
    peak_hour: float = 0.0
    samples_per_day: int = 24

    def __post_init__(self) -> None:
        _require(
            1 <= self.peak_to_min_ratio < math.inf, "TrafficProfile: peak_to_min_ratio must be finite and >= 1"
        )
        _require(0 <= self.peak_hour < 24, "TrafficProfile: peak_hour must lie in [0, 24)")
        _require(self.samples_per_day >= 1, "TrafficProfile: samples_per_day must be >= 1")
        if self.samples_per_day > MAX_SAMPLES_PER_DAY:
            raise InvariantError(f"TrafficProfile: samples_per_day must be <= {MAX_SAMPLES_PER_DAY}")


@dataclass(frozen=True)
class CacheConfig:
    """Content catalog and caching strategy shared by every station.

    ``cache_power_per_item_w`` is an optional sensitivity knob adding static
    power per cached item; it defaults to zero (cache energy ignored).
    """

    catalog_size: int = 1
    zipf_exponent: float = 0.0
    strategy: str = "none"
    cache_power_per_item_w: float = 0.0

    def __post_init__(self) -> None:
        _require(self.catalog_size >= 1, "CacheConfig: catalog_size must be >= 1")
        if self.catalog_size > MAX_CATALOG_SIZE:
            raise InvariantError(f"CacheConfig: catalog_size must be <= {MAX_CATALOG_SIZE}")
        for name in ("zipf_exponent", "cache_power_per_item_w"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvariantError(f"CacheConfig: {name} must be finite and >= 0")
        if self.strategy not in STRATEGIES:
            raise InvariantError(f"CacheConfig: strategy must be one of {STRATEGIES}")


def _require_unique(what: str, ids: Iterable[str]) -> None:
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise InvariantError(f"NetworkScenario: duplicate {what} '{i}'")
        seen.add(i)
