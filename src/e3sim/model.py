"""Deployment scenario model: the records of one kind, cache and traffic
setting, their invariants, and the errors that report them; and the schema
of one station and one UE.

``BaseStation`` and ``UserEquipment`` are schema only: their fields and
defaults are the keys of a ``base_stations`` or ``ues`` list entry, and
their names name an entity in errors. Stations and UEs are held, and their
invariants checked, only as columns, in ``scenario.StationLayout`` and
``scenario.UePopulation``, which ``NetworkScenario`` bundles with the rest;
``document`` reads and writes the JSON form. Every record is immutable after
construction and safe to share across concurrent evaluations. The invariants
of a checked record are one ordered list of rules (``_Record``), which its
constructor runs whole and ``edit``, making a changed copy, runs only where
a rule reads a changed field.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import MISSING, dataclass, fields
from typing import Any

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


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer, a numpy one included, and not a bool.

    A plain int is settled first: the ``numbers.Integral`` check is an ABC
    lookup, and a rule may run at every sweep point.
    """
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """Whether ``value`` is a real number, a numpy one included, and not a bool.

    A plain float or int is settled first, for the reason ``_is_int`` gives.
    """
    return type(value) is float or type(value) is int or isinstance(value, numbers.Real) and not isinstance(value, bool)


def _or_inf(value: float) -> float:
    """Real ``value``, or inf (-inf) for one past the largest float, such as
    an int of 400 digits, which a finite range must reject as it does inf."""
    try:
        float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    return value


def _finite(value: float, name: str) -> float:
    """Real ``value`` as a float; a ValueError naming ``name`` unless finite."""
    value = float(_or_inf(value))
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


#: What each number field of a record must hold, by its annotation.
_NUMBER_RULES = {"float": "a number", "float | None": "a number", "int": "an integer"}

Check = Callable[[Any], None]


class _Record:
    """What the checked records share: one ordered list of invariant rules.

    ``_RULES`` holds each rule as (the fields it reads, its check); a check
    raises an InvariantError for a record that breaks the rule, and may set
    a field it derives from those it reads (a default, a normal form), so a
    derived value follows every edit. ``__post_init__`` runs every rule, in
    order; ``edit`` runs only those that read a field it changes. Errors
    name the record by class and, if it has one, by its ``_ID`` field.
    """

    _ID: str | None = None
    _RULES: tuple[tuple[frozenset[str], Check], ...] = ()

    def __post_init__(self) -> None:
        for _, check in self._RULES:
            check(self)

    def _owner(self) -> str:
        return type(self).__name__ + ("" if self._ID is None else f" '{getattr(self, self._ID)}'")


def _rules(*rules: tuple[str, Check]) -> tuple[tuple[frozenset[str], Check], ...]:
    """``_RULES`` from ``rules``, each (the fields it reads, space-separated; its check)."""
    return tuple((frozenset(reads.split()), check) for reads, check in rules)


@functools.cache
def rules_reading(record: type, names: tuple[str, ...]) -> tuple[Check, ...]:
    """The checks of the rules of record class ``record`` that read one of ``names``, in rule order."""
    return tuple(check for reads, check in record._RULES if not reads.isdisjoint(names))


def edit(record: Any, changes: dict[str, Any], checks: tuple[Check, ...] | None = None) -> Any:
    """A copy of ``record`` with each field in ``changes`` set to its value.

    The copy is made without its class's ``__init__``, and only the rules
    that read a changed field are run on it, in rule order (``checks``, the
    ``rules_reading`` them, when the caller knows them already). The other
    rules passed when ``record`` was built, so the copy equals, and the
    error raised is, what the class makes of the same values.
    """
    copy = object.__new__(type(record))
    copy.__dict__.update(record.__dict__)
    copy.__dict__.update(changes)
    for check in rules_reading(type(record), tuple(changes)) if checks is None else checks:
        check(copy)
    return copy


def _rule(reads: str, holds: Callable[[Any], bool], text: str) -> tuple[str, Check]:
    """The rule, reading ``reads``, that a record ``holds``; else ``{owner}: {text}``."""

    def check(record: Any) -> None:
        if not holds(record):
            raise InvariantError(f"{record._owner()}: {text}")

    return reads, check


def _above(name: str, low: float = 0) -> tuple[str, Check]:
    return _rule(name, lambda r: low < getattr(r, name) < math.inf, f"{name} must be finite and > {low}")


def _from(name: str, low: float = 0) -> tuple[str, Check]:
    # an integer field keeps its int, so one past the largest float is rejected here (``_or_inf``)
    return _rule(name, lambda r: low <= _or_inf(getattr(r, name)) < math.inf, f"{name} must be finite and >= {low}")


def _integer(name: str) -> tuple[str, Check]:
    return _rule(name, lambda r: _is_int(getattr(r, name)), f"{name} must be an integer")


def _one_of(name: str, choices: tuple[str, ...]) -> tuple[str, Check]:
    return _rule(name, lambda r: getattr(r, name) in choices, f"{name} must be one of {choices}")


def _count(name: str, most: int) -> tuple[tuple[str, Check], ...]:
    """The rules of an integer field that counts from 1 to ``most``."""
    return (
        _rule(name, lambda r: getattr(r, name) >= 1, f"{name} must be >= 1"),
        _rule(name, lambda r: getattr(r, name) <= most, f"{name} must be <= {most}"),
        _integer(name),
    )


def _is_a(name: str, record: type | tuple[type, ...], what: str | None = None) -> tuple[str, Check]:
    """The rule that field ``name`` holds a ``record``, ``what`` (by default ``a {record}``)."""
    what = what or f"a {record.__name__}"

    def check(r: Any) -> None:
        if not isinstance(getattr(r, name), record):
            raise InvariantError(f"{r._owner()}: {name} must be {what}, got {type(getattr(r, name)).__name__}")

    return name, check


def _numbers(record: type) -> list[tuple[str, Check]]:
    """The rule of each number field of ``record``, in field order: it holds
    a real number (``_is_real``), and so no bool, as the range rules that
    follow compare it. An integer field's own rule rejects a fraction. A
    float field holding a number past the largest float, such as an int of
    400 digits, holds inf instead (``_or_inf``), so its range rule rejects
    it with its own message. A document's numbers pass at once."""

    def number(name: str, annotation: str) -> tuple[str, Check]:
        plain = int if annotation == "int" else float

        def check(r: Any) -> None:
            value = getattr(r, name)
            if type(value) is not plain:
                if not _is_real(value):
                    raise InvariantError(f"{r._owner()}: {name} must be {_NUMBER_RULES[annotation]}")
                if plain is float:
                    object.__setattr__(r, name, _or_inf(value))

        return name, check

    return [number(f.name, f.type) for f in fields(record) if f.type in _NUMBER_RULES]


@dataclass(frozen=True)
class XHaulSolution(_Record):
    """One backhaul/fronthaul option: capacity, medium, power overhead rule.

    ``xhaul_power_factor`` left at None takes the medium's default from
    ``DEFAULT_XHAUL_POWER_FACTOR``, by a rule that reads both fields.
    """

    solution_id: str
    capacity_bps: float
    medium: str
    xhaul_power_factor: float | None = None

    _ID = "solution_id"


def _default_power_factor(xhaul: XHaulSolution) -> None:
    if xhaul.xhaul_power_factor is None:
        object.__setattr__(xhaul, "xhaul_power_factor", DEFAULT_XHAUL_POWER_FACTOR[xhaul.medium])


XHaulSolution._RULES = _rules(
    _one_of("medium", MEDIA),
    ("medium xhaul_power_factor", _default_power_factor),
    *_numbers(XHaulSolution),
    _above("capacity_bps"),
    _from("xhaul_power_factor"),
)


@dataclass(frozen=True)
class CostBreakdown(_Record):
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

    def total(self) -> float:
        """Undiscounted sum of all components."""
        return math.fsum(getattr(self, name) for name in _BREAKDOWN_COMPONENTS)

    def effective_total(self) -> float:
        """Component sum with the inherited discount applied to capital items."""
        capital = self.infrastructure + self.site_installation
        return self.total() - capital * self.inherited_discount


#: The seven cost components: every CostBreakdown field but the discount.
_BREAKDOWN_COMPONENTS = tuple(f.name for f in fields(CostBreakdown) if f.default is MISSING)


def _finite_total(breakdown: CostBreakdown) -> None:
    try:
        breakdown.total()
    except OverflowError:
        raise InvariantError("CostBreakdown: components must sum to a finite number") from None


CostBreakdown._RULES = _rules(
    *_numbers(CostBreakdown),
    *map(_from, _BREAKDOWN_COMPONENTS),
    _rule("inherited_discount", lambda b: 0.0 <= b.inherited_discount <= 1.0, "inherited_discount must lie in [0, 1]"),
    (" ".join(_BREAKDOWN_COMPONENTS), _finite_total),
)


@dataclass(frozen=True)
class BsKind(_Record):
    """A class of base stations sharing power, radio, X-Haul, cache, and cost.

    ``radio_capacity_bps`` is the aggregate air-interface capacity used in
    abstract radio mode; physical mode derives capacity from geometry and
    ignores it. ``cost_per_area`` is the yearly per-square-meter cost of one
    station, excluding the per-item cache cost which is added on top as
    ``cache_size * cache_item_cost_per_area``. A ``cost_breakdown``'s
    components must sum to ``cost_per_area``, a rule that reads both.
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

    _ID = "kind_id"


def _breakdown_sums_to_cost(kind: BsKind) -> None:
    if kind.cost_breakdown is not None:
        total = kind.cost_breakdown.total()
        if not abs(total - kind.cost_per_area) <= 1e-9 * max(abs(kind.cost_per_area), 1.0):
            raise InvariantError(
                f"{kind._owner()}: cost_breakdown components sum to {total}, "
                f"expected cost_per_area {kind.cost_per_area}"
            )


BsKind._RULES = _rules(
    *_numbers(BsKind),
    _is_a("xhaul", XHaulSolution, "an XHaulSolution"),
    *map(_above, ("static_power_w", "max_tx_dynamic_power_w", "radio_capacity_bps", "bandwidth_hz",
                  "coverage_area_m2", "cost_per_area", "tx_power_w")),
    _from("cache_size"),
    _from("cache_item_cost_per_area"),
    _integer("cache_size"),
    _is_a("cost_breakdown", (CostBreakdown, type(None)), "a CostBreakdown or None"),
    ("cost_breakdown cost_per_area", _breakdown_sums_to_cost),
)


@dataclass(frozen=True)
class BaseStation:
    """Schema of one placed station: identifier, the kind_id of its kind, planar position."""

    bs_id: str
    kind: str
    position_m: tuple[float, float]


@dataclass(frozen=True)
class UserEquipment:
    """Schema of one active user: position, peak-hour demand, and priority weight."""

    ue_id: str
    position_m: tuple[float, float]
    demand_peak_bps: float
    weight: float = 1.0


@dataclass(frozen=True)
class TrafficProfile(_Record):
    """Daily demand shape: peak-to-minimum ratio, peak hour, sample count."""

    peak_to_min_ratio: float = 1.0
    peak_hour: float = 0.0
    samples_per_day: int = 24


TrafficProfile._RULES = _rules(
    *_numbers(TrafficProfile),
    _from("peak_to_min_ratio", 1),
    _rule("peak_hour", lambda t: 0 <= t.peak_hour < 24, "peak_hour must lie in [0, 24)"),
    *_count("samples_per_day", MAX_SAMPLES_PER_DAY),
)


@dataclass(frozen=True)
class CacheConfig(_Record):
    """Content catalog and caching strategy shared by every station.

    ``cache_power_per_item_w`` is an optional sensitivity knob adding static
    power per cached item; it defaults to zero (cache energy ignored).
    """

    catalog_size: int = 1
    zipf_exponent: float = 0.0
    strategy: str = "none"
    cache_power_per_item_w: float = 0.0


CacheConfig._RULES = _rules(
    *_numbers(CacheConfig),
    *_count("catalog_size", MAX_CATALOG_SIZE),
    _from("zipf_exponent"),
    _from("cache_power_per_item_w"),
    _one_of("strategy", STRATEGIES),
)


def _require_unique(what: str, ids: Iterable[str]) -> None:
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise InvariantError(f"NetworkScenario: duplicate {what} '{i}'")
        seen.add(i)
