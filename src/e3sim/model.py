"""Deployment scenario model: domain types, their invariants, and validation.

A scenario bundles everything one evaluation needs: the catalog of base
station kinds, the placed stations, the user population, cache and traffic
settings, and the cost benchmark. Scenario objects are immutable after
construction and safe to share across concurrent evaluations. Their JSON
document form is read and written by ``document``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Iterator

import numpy as np

MEDIA = ("wired", "wireless")
STRATEGIES = ("none", "random_fill", "top_popular")
RADIO_MODES = ("abstract", "physical")

#: Sentinel benchmark cost: use the costliest kind in the scenario catalog.
MAX_KIND = "max-kind"

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
    """One placed station: identifier, kind reference, planar position."""

    bs_id: str
    kind: BsKind
    position_m: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "position_m", _as_position(self.position_m, "BaseStation", self.bs_id))


@dataclass(frozen=True)
class UserEquipment:
    """One active user: position, peak-hour demand, and priority weight."""

    ue_id: str
    position_m: tuple[float, float]
    demand_peak_bps: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "position_m", _as_position(self.position_m, "UserEquipment", self.ue_id))
        for name in ("demand_peak_bps", "weight"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvariantError(f"UserEquipment '{self.ue_id}': {name} must be finite and > 0")


@dataclass(frozen=True, eq=False, repr=False)
class UePopulation:
    """Every user of a scenario as columns, one entry per UE.

    The fields are those of ``UserEquipment``, each a column: ``ue_id`` the
    ids of an explicit list, or None for a generated population, whose UEs
    are named ``ue000``, ``ue001``, ...; ``position_m`` a (U, 2) array;
    ``demand_peak_bps`` and ``weight`` length-U arrays. The arrays are
    copied and made read-only. The invariants of ``UserEquipment`` and the
    uniqueness of explicit ids are checked once, here, with array
    operations; an error names the first UE that breaks one. Indexing and
    iterating give ``UserEquipment`` records; a slice gives a population.
    """

    ue_id: tuple[str, ...] | None
    position_m: np.ndarray
    demand_peak_bps: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        position = _real_array(self.position_m, "position_m")
        if position.ndim != 2 or position.shape[1] != 2:
            raise InvariantError(f"UePopulation: position_m must have shape (U, 2), got {position.shape}")
        count = len(position)
        object.__setattr__(self, "position_m", position)
        for name in ("demand_peak_bps", "weight"):
            column = _real_array(getattr(self, name), name)
            if column.shape != (count,):
                raise InvariantError(f"UePopulation: {name} must have shape ({count},), got {column.shape}")
            object.__setattr__(self, name, column)
        if self.ue_id is not None:
            ids = tuple(self.ue_id)
            if len(ids) != count or not all(type(i) is str for i in ids):
                raise InvariantError(f"UePopulation: ue_id must hold {count} strings")
            object.__setattr__(self, "ue_id", ids)
        demand, weight = self.demand_peak_bps, self.weight
        checks = (
            (~np.isfinite(position).all(axis=1), "position_m must be finite"),
            (~((demand > 0) & (demand < math.inf)), "demand_peak_bps must be finite and > 0"),
            (~((weight > 0) & (weight < math.inf)), "weight must be finite and > 0"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            i = int(bad.argmax())
            rule = next(rule for mask, rule in checks if mask[i])
            raise InvariantError(f"UserEquipment '{self._id(i)}': {rule}")
        if self.ue_id is not None:
            _require_unique("ue_id", self.ue_id)

    @classmethod
    def of(cls, ues: Iterable[UserEquipment]) -> UePopulation:
        """The population of ``UserEquipment`` records, in their order."""
        ues = tuple(ues)
        for u in ues:
            if not isinstance(u, UserEquipment):
                raise InvariantError(f"NetworkScenario: ues must be UserEquipment records, got {u!r}")
        return cls(
            tuple(u.ue_id for u in ues),
            np.array([u.position_m for u in ues], dtype=float).reshape(-1, 2),
            [u.demand_peak_bps for u in ues],
            [u.weight for u in ues],
        )

    def _id(self, i: int) -> str:
        return f"ue{i:03d}" if self.ue_id is None else self.ue_id[i]

    def ids(self) -> tuple[str, ...]:
        """The id of every UE, generated names included."""
        return self.ue_id if self.ue_id is not None else tuple(map(self._id, range(len(self))))

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, index: int | slice) -> UserEquipment | UePopulation:
        if isinstance(index, slice):
            return UePopulation(
                self.ids()[index], self.position_m[index], self.demand_peak_bps[index], self.weight[index]
            )
        i = range(len(self))[index]
        x, y = self.position_m[i].tolist()
        return UserEquipment(self._id(i), (x, y), float(self.demand_peak_bps[i]), float(self.weight[i]))

    def __iter__(self) -> Iterator[UserEquipment]:
        columns = (self.position_m.tolist(), self.demand_peak_bps.tolist(), self.weight.tolist())
        for ue_id, (x, y), demand, weight in zip(self.ids(), *columns):
            yield UserEquipment(ue_id, (x, y), demand, weight)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UePopulation):
            return NotImplemented
        return self is other or (
            len(self) == len(other)
            and (self.ue_id == other.ue_id or self.ids() == other.ids())
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _UE_ARRAYS)
        )

    def __hash__(self) -> int:
        # equal populations have equal lengths; hashing the columns would cost O(U)
        return hash(len(self))

    def __repr__(self) -> str:
        return f"UePopulation({len(self)} UEs)"


#: The columns of a ``UePopulation``, its fields in the order of ``UserEquipment``'s.
_UE_FIELDS = tuple(f.name for f in fields(UserEquipment))
_UE_ARRAYS = _UE_FIELDS[1:]


def _real_array(value: Any, name: str) -> np.ndarray:
    """A read-only float64 copy of ``value``, which must hold real numbers."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "iuf":
        raise InvariantError(f"UePopulation: {name} must hold real numbers, got dtype {array.dtype}")
    array = array.astype(float)
    array.flags.writeable = False
    return array


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
        for name in ("zipf_exponent", "cache_power_per_item_w"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvariantError(f"CacheConfig: {name} must be finite and >= 0")
        if self.strategy not in STRATEGIES:
            raise InvariantError(f"CacheConfig: strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class NetworkScenario:
    """Complete immutable description of one deployment under evaluation.

    ``ues`` is a ``UePopulation``; a sequence of ``UserEquipment`` records
    given in its place becomes one.
    """

    kinds: tuple[BsKind, ...]
    base_stations: tuple[BaseStation, ...]
    ues: UePopulation
    cache: CacheConfig = field(default_factory=CacheConfig)
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    benchmark_cost: float | str = MAX_KIND
    radio_mode: str = "abstract"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "base_stations", tuple(self.base_stations))
        if not isinstance(self.ues, UePopulation):
            object.__setattr__(self, "ues", UePopulation.of(self.ues))
        _require(len(self.kinds) >= 1, "NetworkScenario: at least one kind required")
        _require(len(self.base_stations) >= 1, "NetworkScenario: at least one base station required")
        _require(len(self.ues) >= 1, "NetworkScenario: at least one UE required")
        _require_unique("kind_id", [k.kind_id for k in self.kinds])
        _require_unique("bs_id", [b.bs_id for b in self.base_stations])
        by_id = {k.kind_id: k for k in self.kinds}
        for bs in self.base_stations:
            kind = by_id.get(bs.kind.kind_id)
            if kind is not bs.kind and kind != bs.kind:
                raise UnknownKindError(
                    f"BaseStation '{bs.bs_id}': kind '{bs.kind.kind_id}' is not in the scenario catalog"
                )
        if isinstance(self.benchmark_cost, str):
            if self.benchmark_cost != MAX_KIND:
                raise InvariantError(f"NetworkScenario: benchmark_cost must be a number or '{MAX_KIND}'")
        else:
            _require(0 < self.benchmark_cost < math.inf, "NetworkScenario: benchmark_cost must be finite and > 0")
        if self.radio_mode not in RADIO_MODES:
            raise InvariantError(f"NetworkScenario: radio_mode must be one of {RADIO_MODES}")


def _require_unique(what: str, ids: Iterable[str]) -> None:
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise InvariantError(f"NetworkScenario: duplicate {what} '{i}'")
        seen.add(i)


def _is_real(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_position(value: Any, owner: str, owner_id: str) -> tuple[float, float]:
    if type(value) is not tuple:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if not isinstance(value, (tuple, list)):
            raise InvariantError(f"{owner} '{owner_id}': position_m must hold two real numbers, got {value!r}")
        value = tuple(value)
    if len(value) != 2:
        raise InvariantError(f"{owner} '{owner_id}': position_m must be an (x, y) pair")
    x, y = value
    # floats, as the parser and the generators give, skip the ~0.5 us ABC checks
    if type(x) is not float or type(y) is not float:
        if not (_is_real(x) and _is_real(y)):
            raise InvariantError(f"{owner} '{owner_id}': position_m must hold two real numbers, got ({x!r}, {y!r})")
        value = (float(x), float(y))
    if not (math.isfinite(value[0]) and math.isfinite(value[1])):
        raise InvariantError(f"{owner} '{owner_id}': position_m must be finite")
    return value


def validate_scenario(s: NetworkScenario) -> list[str]:
    """Return advisory warnings for suspicious but legal configurations.

    Checked: a kind whose cost coefficient exceeds 1 under the pinned
    benchmark, a caching strategy configured while no kind has cache
    capacity, and an X-Haul too small to carry even the least demanding
    UE at the daily traffic minimum.
    """
    from .energy_cost import effective_cost_per_area, resolve_benchmark_cost

    warnings: list[str] = []
    c0 = resolve_benchmark_cost(s)
    for kind in s.kinds:
        cn = effective_cost_per_area(kind) / c0
        if cn > 1.0 + 1e-12:
            warnings.append(
                f"cost coefficient of kind '{kind.kind_id}' exceeds 1 (C_n = {cn:.4g}); "
                f"benchmark cost {c0:.4g} is below its effective per-area cost"
            )
    if s.cache.strategy != "none" and all(k.cache_size == 0 for k in s.kinds):
        warnings.append(
            f"cache strategy '{s.cache.strategy}' is configured but every kind has cache_size 0"
        )
    min_demand = float(s.ues.demand_peak_bps.min()) / s.traffic.peak_to_min_ratio
    for kind in s.kinds:
        if kind.xhaul.capacity_bps < min_demand:
            warnings.append(
                f"X-Haul capacity of kind '{kind.kind_id}' ({kind.xhaul.capacity_bps:.4g} bit/s) "
                f"is below the minimum per-UE demand ({min_demand:.4g} bit/s)"
            )
    return warnings
