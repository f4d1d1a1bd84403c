"""Deployment scenario model: domain types, JSON loading, and validation.

A scenario bundles everything one evaluation needs: the catalog of base
station kinds, the placed stations, the user population, cache and traffic
settings, and the cost benchmark. Scenario objects are immutable after
construction and safe to share across concurrent evaluations.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

MEDIA = ("wired", "wireless")
STRATEGIES = ("none", "random_fill", "top_popular")
RADIO_MODES = ("abstract", "physical")

#: Sentinel benchmark cost: use the costliest kind in the scenario catalog.
MAX_KIND = "max-kind"

#: Dynamic-power multiple of the transceiver part, applied when a solution
#: document does not set one explicitly.
DEFAULT_XHAUL_POWER_FACTOR = {"wired": 0.0, "wireless": 3.0}

_BREAKDOWN_COMPONENTS = (
    "infrastructure",
    "site_installation",
    "site_operation",
    "optimization_maintenance",
    "cache_placement",
    "xhaul_configuration",
    "content_delivery",
)


class ScenarioError(ValueError):
    """Base class for scenario construction failures."""


class SchemaError(ScenarioError):
    """Document does not match the scenario schema (bad key, type, shape)."""


class InvariantError(ScenarioError):
    """A domain invariant is violated (names the entity and the rule)."""


class UnknownKindError(ScenarioError):
    """A base station references a kind_id missing from the catalog."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


@dataclass(frozen=True)
class XHaulSolution:
    """One backhaul/fronthaul option: capacity, medium, power overhead rule."""

    solution_id: str
    capacity_bps: float
    medium: str
    xhaul_power_factor: float

    def __post_init__(self) -> None:
        label = f"XHaulSolution '{self.solution_id}'"
        _require(0 < self.capacity_bps < math.inf, f"{label}: capacity_bps must be finite and > 0")
        _require(self.medium in MEDIA, f"{label}: medium must be one of {MEDIA}")
        _require(
            0 <= self.xhaul_power_factor < math.inf,
            f"{label}: xhaul_power_factor must be finite and >= 0",
        )


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
            _require(0 <= getattr(self, name) < math.inf, f"CostBreakdown: {name} must be finite and >= 0")
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
        label = f"BsKind '{self.kind_id}'"
        for name in (
            "static_power_w",
            "max_tx_dynamic_power_w",
            "radio_capacity_bps",
            "bandwidth_hz",
            "coverage_area_m2",
            "cost_per_area",
            "tx_power_w",
        ):
            _require(0 < getattr(self, name) < math.inf, f"{label}: {name} must be finite and > 0")
        for name in ("cache_size", "cache_item_cost_per_area"):
            _require(0 <= getattr(self, name) < math.inf, f"{label}: {name} must be finite and >= 0")
        if self.cost_breakdown is not None:
            total = self.cost_breakdown.total()
            _require(
                abs(total - self.cost_per_area) <= 1e-9 * max(abs(self.cost_per_area), 1.0),
                f"{label}: cost_breakdown components sum to {total}, "
                f"expected cost_per_area {self.cost_per_area}",
            )


@dataclass(frozen=True)
class BaseStation:
    """One placed station: identifier, kind reference, planar position."""

    bs_id: str
    kind: BsKind
    position_m: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "position_m", _as_position(self.position_m, f"BaseStation '{self.bs_id}'"))


@dataclass(frozen=True)
class UserEquipment:
    """One active user: position, peak-hour demand, and priority weight."""

    ue_id: str
    position_m: tuple[float, float]
    demand_peak_bps: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        label = f"UserEquipment '{self.ue_id}'"
        object.__setattr__(self, "position_m", _as_position(self.position_m, label))
        _require(0 < self.demand_peak_bps < math.inf, f"{label}: demand_peak_bps must be finite and > 0")
        _require(0 < self.weight < math.inf, f"{label}: weight must be finite and > 0")


@dataclass(frozen=True)
class TrafficProfile:
    """Daily demand shape: peak-to-minimum ratio, peak hour, sample count."""

    peak_to_min_ratio: float
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
            _require(0 <= getattr(self, name) < math.inf, f"CacheConfig: {name} must be finite and >= 0")
        _require(
            self.strategy in STRATEGIES,
            f"CacheConfig: strategy must be one of {STRATEGIES}",
        )


@dataclass(frozen=True)
class NetworkScenario:
    """Complete immutable description of one deployment under evaluation."""

    kinds: tuple[BsKind, ...]
    base_stations: tuple[BaseStation, ...]
    ues: tuple[UserEquipment, ...]
    cache: CacheConfig = field(default_factory=CacheConfig)
    traffic: TrafficProfile = field(default_factory=lambda: TrafficProfile(1.0))
    benchmark_cost: float | str = MAX_KIND
    radio_mode: str = "abstract"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "base_stations", tuple(self.base_stations))
        object.__setattr__(self, "ues", tuple(self.ues))
        _require(len(self.kinds) >= 1, "NetworkScenario: at least one kind required")
        _require(len(self.base_stations) >= 1, "NetworkScenario: at least one base station required")
        _require(len(self.ues) >= 1, "NetworkScenario: at least one UE required")
        _require_unique("kind_id", [k.kind_id for k in self.kinds])
        _require_unique("bs_id", [b.bs_id for b in self.base_stations])
        _require_unique("ue_id", [u.ue_id for u in self.ues])
        by_id = {k.kind_id: k for k in self.kinds}
        for bs in self.base_stations:
            if by_id.get(bs.kind.kind_id) != bs.kind:
                raise UnknownKindError(
                    f"BaseStation '{bs.bs_id}': kind '{bs.kind.kind_id}' is not in the scenario catalog"
                )
        if isinstance(self.benchmark_cost, str):
            _require(
                self.benchmark_cost == MAX_KIND,
                f"NetworkScenario: benchmark_cost must be a number or '{MAX_KIND}'",
            )
        else:
            _require(
                0 < self.benchmark_cost < math.inf,
                "NetworkScenario: benchmark_cost must be finite and > 0",
            )
        _require(
            self.radio_mode in RADIO_MODES,
            f"NetworkScenario: radio_mode must be one of {RADIO_MODES}",
        )


def _require_unique(what: str, ids: list[str]) -> None:
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise InvariantError(f"NetworkScenario: duplicate {what} '{i}'")
        seen.add(i)


def _as_position(value: Any, label: str) -> tuple[float, float]:
    try:
        x, y = value
        pos = (float(x), float(y))
    except (TypeError, ValueError):
        raise InvariantError(f"{label}: position_m must be an (x, y) pair") from None
    _require(math.isfinite(pos[0]) and math.isfinite(pos[1]), f"{label}: position_m must be finite")
    return pos


# ---------------------------------------------------------------------------
# Document parsing

#: (required, optional) keys of each document section, by the section's key
#: path with ``*`` for a list entry. ``("base_stations",)`` and ``("ues",)``
#: are the generator forms of those sections.
_SECTIONS: dict[tuple[str, ...], tuple[tuple[str, ...], tuple[str, ...]]] = {
    (): (("kinds", "base_stations", "ues"), ("cache", "traffic", "benchmark_cost", "radio_mode", "seed")),
    ("kinds", "*"): (
        ("kind_id", "static_power_w", "max_tx_dynamic_power_w", "radio_capacity_bps", "bandwidth_hz",
         "coverage_area_m2", "cost_per_area", "xhaul"),
        ("tx_power_w", "cache_size", "cache_item_cost_per_area", "cost_breakdown"),
    ),
    ("kinds", "*", "xhaul"): (("solution_id", "capacity_bps", "medium"), ("xhaul_power_factor",)),
    ("kinds", "*", "cost_breakdown"): (_BREAKDOWN_COMPONENTS, ("inherited_discount",)),
    ("base_stations",): (("grid",), ()),
    ("base_stations", "grid"): (("kind", "rows", "cols", "spacing_m"), ()),
    ("base_stations", "*"): (("bs_id", "kind", "position_m"), ()),
    ("ues",): (("uniform_random",), ()),
    ("ues", "uniform_random"): (("count", "area_m", "demand_peak_bps"), ("weight",)),
    ("ues", "*"): (("ue_id", "position_m", "demand_peak_bps"), ("weight",)),
    ("cache",): ((), ("catalog_size", "zipf_exponent", "strategy", "cache_power_per_item_w")),
    ("traffic",): ((), ("peak_to_min_ratio", "peak_hour", "samples_per_day")),
}


def section_keys(section: tuple[str, ...]) -> tuple[str, ...]:
    """Keys the schema admits in the section at a key path such as ``("kinds", "*")``."""
    required, optional = _SECTIONS.get(section, ((), ()))
    return required + optional


def _check_keys(doc: Any, path: str, section: tuple[str, ...]) -> None:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{path or 'document'}: expected an object")
    required, optional = _SECTIONS[section]
    for key in doc:
        if key not in required and key not in optional:
            raise SchemaError(f"{path + '.' if path else ''}{key}: unknown key")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path or 'document'}: missing required key '{key}'")


def _num(doc: Mapping[str, Any], key: str, path: str, default: float | None = None) -> float:
    if key not in doc:
        if default is None:
            raise SchemaError(f"{path}.{key}: missing required key")
        return default
    return _as_number(doc[key], f"{path}.{key}")


def _as_number(value: Any, path: str) -> float:
    """A JSON number as a finite float; anything else is a SchemaError at ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {number}")
    return number


def _position(doc: Mapping[str, Any], path: str) -> tuple[float, float]:
    value = doc["position_m"]
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{path}.position_m: expected [x, y]")
    x, y = (_as_number(v, f"{path}.position_m[{i}]") for i, v in enumerate(value))
    return x, y


def _int(doc: Mapping[str, Any], key: str, path: str, default: int | None = None) -> int:
    if key not in doc:
        if default is None:
            raise SchemaError(f"{path}.{key}: missing required key")
        return default
    value = doc[key]
    if isinstance(value, bool):
        raise SchemaError(f"{path}.{key}: expected an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise SchemaError(f"{path}.{key}: expected an integer, got {value}")
        value = int(value)
    if not isinstance(value, int):
        raise SchemaError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
    return value


def _str(doc: Mapping[str, Any], key: str, path: str, default: str | None = None) -> str:
    if key not in doc:
        if default is None:
            raise SchemaError(f"{path}.{key}: missing required key")
        return default
    value = doc[key]
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    return value


def _build_xhaul(doc: Any, path: str) -> XHaulSolution:
    _check_keys(doc, path, ("kinds", "*", "xhaul"))
    medium = _str(doc, "medium", path)
    if medium not in MEDIA:
        raise SchemaError(f"{path}.medium: expected one of {MEDIA}, got '{medium}'")
    factor = _num(doc, "xhaul_power_factor", path, DEFAULT_XHAUL_POWER_FACTOR[medium])
    return XHaulSolution(
        solution_id=_str(doc, "solution_id", path),
        capacity_bps=_num(doc, "capacity_bps", path),
        medium=medium,
        xhaul_power_factor=factor,
    )


def _build_breakdown(doc: Any, path: str) -> CostBreakdown:
    _check_keys(doc, path, ("kinds", "*", "cost_breakdown"))
    return CostBreakdown(
        **{name: _num(doc, name, path) for name in _BREAKDOWN_COMPONENTS},
        inherited_discount=_num(doc, "inherited_discount", path, 0.0),
    )


def _build_kind(doc: Any, path: str) -> BsKind:
    _check_keys(doc, path, ("kinds", "*"))
    breakdown = None
    if "cost_breakdown" in doc and doc["cost_breakdown"] is not None:
        breakdown = _build_breakdown(doc["cost_breakdown"], f"{path}.cost_breakdown")
    return BsKind(
        kind_id=_str(doc, "kind_id", path),
        static_power_w=_num(doc, "static_power_w", path),
        max_tx_dynamic_power_w=_num(doc, "max_tx_dynamic_power_w", path),
        radio_capacity_bps=_num(doc, "radio_capacity_bps", path),
        bandwidth_hz=_num(doc, "bandwidth_hz", path),
        coverage_area_m2=_num(doc, "coverage_area_m2", path),
        cost_per_area=_num(doc, "cost_per_area", path),
        xhaul=_build_xhaul(doc["xhaul"], f"{path}.xhaul"),
        tx_power_w=_num(doc, "tx_power_w", path, 0.13),
        cache_size=_int(doc, "cache_size", path, 0),
        cache_item_cost_per_area=_num(doc, "cache_item_cost_per_area", path, 0.0),
        cost_breakdown=breakdown,
    )


def _build_base_stations(
    doc: Any, kinds_by_id: Mapping[str, BsKind]
) -> tuple[BaseStation, ...]:
    if isinstance(doc, Mapping):
        _check_keys(doc, "base_stations", ("base_stations",))
        grid = doc["grid"]
        path = "base_stations.grid"
        _check_keys(grid, path, ("base_stations", "grid"))
        kind_id = _str(grid, "kind", path)
        if kind_id not in kinds_by_id:
            raise UnknownKindError(f"{path}: unknown kind_id '{kind_id}'")
        rows, cols = _int(grid, "rows", path), _int(grid, "cols", path)
        spacing = _num(grid, "spacing_m", path)
        if rows < 1 or cols < 1:
            raise SchemaError(f"{path}: rows and cols must be >= 1")
        if spacing <= 0:
            raise SchemaError(f"{path}.spacing_m: must be > 0")
        stations = []
        for r in range(rows):
            for c in range(cols):
                idx = r * cols + c
                stations.append(
                    BaseStation(f"bs{idx:03d}", kinds_by_id[kind_id], (c * spacing, r * spacing))
                )
        return tuple(stations)
    if not isinstance(doc, list) or not doc:
        raise SchemaError("base_stations: expected a non-empty list or a generator object")
    stations = []
    for i, entry in enumerate(doc):
        path = f"base_stations[{i}]"
        _check_keys(entry, path, ("base_stations", "*"))
        kind_id = _str(entry, "kind", path)
        if kind_id not in kinds_by_id:
            raise UnknownKindError(f"{path}: unknown kind_id '{kind_id}'")
        stations.append(
            BaseStation(_str(entry, "bs_id", path), kinds_by_id[kind_id], _position(entry, path))
        )
    return tuple(stations)


def _build_ues(doc: Any, seed: int) -> tuple[UserEquipment, ...]:
    if isinstance(doc, Mapping):
        _check_keys(doc, "ues", ("ues",))
        gen = doc["uniform_random"]
        path = "ues.uniform_random"
        _check_keys(gen, path, ("ues", "uniform_random"))
        count = _int(gen, "count", path)
        if count < 1:
            raise SchemaError(f"{path}.count: must be >= 1")
        area = gen["area_m"]
        if not isinstance(area, list) or len(area) != 2:
            raise SchemaError(f"{path}.area_m: expected [width, height]")
        width, height = (_as_number(v, f"{path}.area_m") for v in area)
        if width <= 0 or height <= 0:
            raise SchemaError(f"{path}.area_m: dimensions must be > 0")
        demand = _num(gen, "demand_peak_bps", path)
        weight = _num(gen, "weight", path, 1.0)
        rng = np.random.default_rng(seed)
        positions = rng.uniform((0.0, 0.0), (width, height), size=(count, 2))
        return tuple(
            UserEquipment(f"ue{idx:03d}", (float(x), float(y)), demand, weight)
            for idx, (x, y) in enumerate(positions)
        )
    if not isinstance(doc, list) or not doc:
        raise SchemaError("ues: expected a non-empty list or a generator object")
    ues = []
    for i, entry in enumerate(doc):
        path = f"ues[{i}]"
        _check_keys(entry, path, ("ues", "*"))
        ues.append(
            UserEquipment(
                _str(entry, "ue_id", path),
                _position(entry, path),
                _num(entry, "demand_peak_bps", path),
                _num(entry, "weight", path, 1.0),
            )
        )
    return tuple(ues)


def build_scenario(document: Mapping[str, Any] | str | bytes) -> NetworkScenario:
    """Build a validated scenario from a JSON document (text or parsed dict).

    Deterministic given the document content, including its ``seed``: two
    calls produce structurally identical scenarios. Generators (``grid``,
    ``uniform_random``) are expanded into explicit entity lists.

    Raises:
        SchemaError: a key is missing, unknown, or of the wrong type.
        InvariantError: a domain invariant fails (names entity and rule).
        UnknownKindError: a base station references a kind_id not in ``kinds``.
    """
    if isinstance(document, (str, bytes)):
        document = json.loads(document)
    return _build(document)


def _build(
    document: Any, base: tuple[Mapping[str, Any], NetworkScenario] | None = None
) -> NetworkScenario:
    """Build ``document``, reusing what ``base``, a (document, scenario) pair, built.

    A built section is reused when its inputs are the same objects in both
    documents, as a copy-on-write edit of the base document leaves every
    value off the edited path: the kinds when ``kinds`` is, the stations when
    ``kinds`` and ``base_stations`` are, and the UEs when ``ues`` is and the
    seed is equal. The rest is rebuilt and the scenario validated as a whole.
    """
    _check_keys(document, "", ())
    seed = _int(document, "seed", "document", 0)
    if seed < 0:
        raise SchemaError(f"document.seed: must be >= 0, got {seed}")
    shared = {k for k in ("kinds", "base_stations", "ues") if base and document[k] is base[0][k]}

    if "kinds" in shared:
        kinds = base[1].kinds
    else:
        kinds_doc = document["kinds"]
        if not isinstance(kinds_doc, list) or not kinds_doc:
            raise SchemaError("kinds: expected a non-empty list")
        kinds = tuple(_build_kind(k, f"kinds[{i}]") for i, k in enumerate(kinds_doc))

    cache_doc = document.get("cache", {})
    _check_keys(cache_doc, "cache", ("cache",))
    strategy = _str(cache_doc, "strategy", "cache", "none")
    if strategy not in STRATEGIES:
        raise SchemaError(f"cache.strategy: expected one of {STRATEGIES}, got '{strategy}'")
    cache = CacheConfig(
        catalog_size=_int(cache_doc, "catalog_size", "cache", 1),
        zipf_exponent=_num(cache_doc, "zipf_exponent", "cache", 0.0),
        strategy=strategy,
        cache_power_per_item_w=_num(cache_doc, "cache_power_per_item_w", "cache", 0.0),
    )

    traffic_doc = document.get("traffic", {})
    _check_keys(traffic_doc, "traffic", ("traffic",))
    traffic = TrafficProfile(
        peak_to_min_ratio=_num(traffic_doc, "peak_to_min_ratio", "traffic", 1.0),
        peak_hour=_num(traffic_doc, "peak_hour", "traffic", 0.0),
        samples_per_day=_int(traffic_doc, "samples_per_day", "traffic", 24),
    )

    benchmark: float | str
    if "benchmark_cost" not in document:
        benchmark = MAX_KIND
    elif isinstance(document["benchmark_cost"], str):
        benchmark = document["benchmark_cost"]
    else:
        benchmark = _num(document, "benchmark_cost", "document")

    if {"kinds", "base_stations"} <= shared:
        stations = base[1].base_stations
    else:
        stations = _build_base_stations(document["base_stations"], {k.kind_id: k for k in kinds})
    if "ues" in shared and seed == base[1].rng_seed:
        ues = base[1].ues
    else:
        ues = _build_ues(document["ues"], seed)

    return NetworkScenario(
        kinds=kinds,
        base_stations=stations,
        ues=ues,
        cache=cache,
        traffic=traffic,
        benchmark_cost=benchmark,
        radio_mode=_str(document, "radio_mode", "document", "abstract"),
        rng_seed=seed,
    )


def scenario_to_document(s: NetworkScenario) -> dict[str, Any]:
    """Serialize a scenario back to a plain JSON-compatible document.

    Round-trips: ``build_scenario(scenario_to_document(s)) == s``. Generator
    sections come back as the explicit entity lists they expanded to.
    """
    kinds = []
    for k in s.kinds:
        entry: dict[str, Any] = {
            "kind_id": k.kind_id,
            "static_power_w": k.static_power_w,
            "max_tx_dynamic_power_w": k.max_tx_dynamic_power_w,
            "radio_capacity_bps": k.radio_capacity_bps,
            "bandwidth_hz": k.bandwidth_hz,
            "coverage_area_m2": k.coverage_area_m2,
            "cost_per_area": k.cost_per_area,
            "xhaul": {
                "solution_id": k.xhaul.solution_id,
                "capacity_bps": k.xhaul.capacity_bps,
                "medium": k.xhaul.medium,
                "xhaul_power_factor": k.xhaul.xhaul_power_factor,
            },
            "tx_power_w": k.tx_power_w,
            "cache_size": k.cache_size,
            "cache_item_cost_per_area": k.cache_item_cost_per_area,
        }
        if k.cost_breakdown is not None:
            b = k.cost_breakdown
            entry["cost_breakdown"] = {
                **{name: getattr(b, name) for name in _BREAKDOWN_COMPONENTS},
                "inherited_discount": b.inherited_discount,
            }
        kinds.append(entry)
    return {
        "kinds": kinds,
        "base_stations": [
            {"bs_id": b.bs_id, "kind": b.kind.kind_id, "position_m": list(b.position_m)}
            for b in s.base_stations
        ],
        "ues": [
            {
                "ue_id": u.ue_id,
                "position_m": list(u.position_m),
                "demand_peak_bps": u.demand_peak_bps,
                "weight": u.weight,
            }
            for u in s.ues
        ],
        "cache": {
            "catalog_size": s.cache.catalog_size,
            "zipf_exponent": s.cache.zipf_exponent,
            "strategy": s.cache.strategy,
            "cache_power_per_item_w": s.cache.cache_power_per_item_w,
        },
        "traffic": {
            "peak_to_min_ratio": s.traffic.peak_to_min_ratio,
            "peak_hour": s.traffic.peak_hour,
            "samples_per_day": s.traffic.samples_per_day,
        },
        "benchmark_cost": s.benchmark_cost,
        "radio_mode": s.radio_mode,
        "seed": s.rng_seed,
    }


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
    min_demand = min(u.demand_peak_bps for u in s.ues) / s.traffic.peak_to_min_ratio
    for kind in s.kinds:
        if kind.xhaul.capacity_bps < min_demand:
            warnings.append(
                f"X-Haul capacity of kind '{kind.kind_id}' ({kind.xhaul.capacity_bps:.4g} bit/s) "
                f"is below the minimum per-UE demand ({min_demand:.4g} bit/s)"
            )
    return warnings
