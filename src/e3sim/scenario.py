"""A whole scenario: its stations and UEs as columns, and its validation.

``NetworkScenario`` bundles everything one evaluation needs: the catalog of
base station kinds (``model.BsKind``), the placed stations as one
``StationLayout``, the users as one ``UePopulation``, cache and traffic
settings, and the cost benchmark. The two tables are the only form that
stations and UEs take, and the only place their invariants are checked.
A kind record is held only in the catalog; the layout names kinds by
kind_id. Its records are immutable after construction and safe to share
across concurrent evaluations; a sweep point shares every record its edit
leaves alone with its base. The JSON document form is read and written by
``document``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

import numpy as np

from .allocation import xhaul_limits
from .energy_cost import cost_coefficient, resolve_benchmark_cost
from .model import (
    MAX_KIND,
    RADIO_MODES,
    BaseStation,
    BsKind,
    CacheConfig,
    InvariantError,
    TrafficProfile,
    UnknownKindError,
    UserEquipment,
    _is_a,
    _is_int,
    _is_real,
    _one_of,
    _or_inf,
    _Record,
    _require_unique,
    _rule,
    _rules,
)


class _Columns:
    """What ``StationLayout`` and ``UePopulation`` share.

    Each holds the fields of one schema dataclass, ``_RECORD``, as columns,
    one entry per entity, and names an entity in its errors after that
    class: ``BaseStation 'b': ...``. The id column, ``_ID``, holds the ids of
    an explicit list, or None for generated entities, which are named after
    the id's prefix: ``bs000``, ``ue001``, ... ``position_m`` is an (N, 2)
    array. The arrays are read-only copies; a column given as a Python
    sequence must hold no bool (``_holds_bool``). Equality compares the ids and
    ``_compared()``; equal tables have equal lengths, which is their hash,
    as hashing the columns would cost O(N).
    """

    def _start(self) -> np.ndarray:
        """Check and store the position and id columns; returns the positions."""
        owner = type(self).__name__
        position = _real_array(self.position_m, "position_m", owner)
        if position.ndim != 2 or position.shape[1] != 2:
            raise InvariantError(
                f"{owner}: position_m must have shape ({self._ID[0].upper()}, 2), got {position.shape}"
            )
        object.__setattr__(self, "position_m", position)
        ids = getattr(self, self._ID)
        if ids is not None:
            ids = tuple(ids)
            if len(ids) != len(position) or not all(type(i) is str for i in ids):
                raise InvariantError(f"{owner}: {self._ID} must hold {len(position)} strings")
            object.__setattr__(self, self._ID, ids)
        return position

    def _finish(self, checks: list[tuple[np.ndarray, str]]) -> None:
        """Raise for the first entity that breaks one of ``checks``, each a
        (mask, rule) pair, then for the first duplicate id."""
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            i = int(bad.argmax())
            rule = next(rule for mask, rule in checks if mask[i])
            raise InvariantError(f"{self._RECORD.__name__} '{self._id(i)}': {rule}")
        if getattr(self, self._ID) is not None:
            _require_unique(self._ID, getattr(self, self._ID))

    def _id(self, i: int) -> str:
        ids = getattr(self, self._ID)
        return f"{self._ID[:2]}{i:03d}" if ids is None else ids[i]

    def ids(self) -> tuple[str, ...]:
        """The id of every entity, generated names included."""
        ids = getattr(self, self._ID)
        return ids if ids is not None else tuple(map(self._id, range(len(self))))

    def __len__(self) -> int:
        return len(self.position_m)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (
            len(self) == len(other)
            and (getattr(self, self._ID) == getattr(other, self._ID) or self.ids() == other.ids())
            and all(map(np.array_equal, self._compared(), other._compared()))
        )

    def __hash__(self) -> int:
        return hash(len(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} x {self._RECORD.__name__})"


@dataclass(frozen=True, eq=False, repr=False)
class StationLayout(_Columns):
    """Every base station of a scenario as columns, one entry per station.

    The fields are those of ``BaseStation``, each a column: ``bs_id`` the
    ids of an explicit list, or None for a grid, whose stations are named
    ``bs000``, ``bs001``, ...; ``kind`` each station's index into
    ``kind_ids``, the distinct kind_ids the stations were placed with (a
    document's in order of first use); ``position_m`` a (B, 2) array.
    Finite positions, valid kind indices, kind_ids that each place a station
    (the evaluation computes per placed kind, so an unplaced one could fail
    a scenario that equals one without it) and unique explicit ids are
    checked once, here, with array operations; an error names the first
    station that breaks a rule.
    Equality compares ids, each station's kind_id and positions.

    A layout names its kinds only by kind_id: the records are the
    scenario's catalog's (``NetworkScenario.placed_kinds``), so a sweep
    point that edits a kind shares its base's layout.
    """

    bs_id: tuple[str, ...] | None
    kind: np.ndarray
    position_m: np.ndarray
    kind_ids: tuple[str, ...]

    _ID = "bs_id"
    _RECORD = BaseStation

    def __post_init__(self) -> None:
        count = len(self._start())
        kind_ids = tuple(self.kind_ids)
        if not all(type(k) is str for k in kind_ids) or len(set(kind_ids)) != len(kind_ids):
            raise InvariantError("StationLayout: kind_ids must be distinct strings")
        object.__setattr__(self, "kind_ids", kind_ids)
        kind = np.array(self.kind)
        indices = kind.dtype.kind in "iu" and not _holds_bool(self.kind)
        if kind.shape != (count,) or not indices or not ((kind >= 0) & (kind < len(kind_ids))).all():
            raise InvariantError(f"StationLayout: kind must hold {count} indices into kinds")
        kind = kind.astype(np.intp)
        kind.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        unplaced = np.bincount(kind, minlength=len(kind_ids)) == 0
        if unplaced.any():
            raise InvariantError(f"StationLayout: no station is of kind '{kind_ids[int(unplaced.argmax())]}'")
        self._finish([(~np.isfinite(self.position_m).all(axis=1), "position_m must be finite")])

    @cached_property
    def id_order(self) -> np.ndarray:
        """Station indices sorted by bs_id."""
        order = np.array(sorted(range(len(self)), key=self.ids().__getitem__), dtype=np.intp)
        order.flags.writeable = False
        return order

    def _compared(self) -> tuple:
        return [self.kind_ids[j] for j in self.kind.tolist()], self.position_m


@dataclass(frozen=True, eq=False, repr=False)
class UePopulation(_Columns):
    """Every user of a scenario as columns, one entry per UE.

    The fields are those of ``UserEquipment``, each a column: ``ue_id`` the
    ids of an explicit list, or None for a generated population, whose UEs
    are named ``ue000``, ``ue001``, ...; ``position_m`` a (U, 2) array;
    ``demand_peak_bps`` and ``weight`` length-U arrays. The invariants of
    ``UserEquipment`` (finite positions, finite positive demands and
    weights) and the uniqueness of explicit ids are checked once, here,
    with array operations; an error names the first UE that breaks one.
    """

    ue_id: tuple[str, ...] | None
    position_m: np.ndarray
    demand_peak_bps: np.ndarray
    weight: np.ndarray

    _ID = "ue_id"
    _RECORD = UserEquipment

    def __post_init__(self) -> None:
        position = self._start()
        count = len(position)
        for name in _UE_ARRAYS[1:]:
            column = _real_array(getattr(self, name), name)
            if column.shape != (count,):
                raise InvariantError(f"UePopulation: {name} must have shape ({count},), got {column.shape}")
            object.__setattr__(self, name, column)
        demand, weight = self.demand_peak_bps, self.weight
        self._finish([
            (~np.isfinite(position).all(axis=1), "position_m must be finite"),
            (~((demand > 0) & (demand < math.inf)), "demand_peak_bps must be finite and > 0"),
            (~((weight > 0) & (weight < math.inf)), "weight must be finite and > 0"),
        ])

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in _UE_ARRAYS)


#: The columns of a ``UePopulation``, its fields in the order of ``UserEquipment``'s.
_UE_FIELDS = tuple(f.name for f in fields(UserEquipment))
_UE_ARRAYS = _UE_FIELDS[1:]


def _real_array(value: Any, name: str, owner: str = "UePopulation") -> np.ndarray:
    """A read-only float64 copy of ``value``, which must hold real numbers:
    no bool, as an array's dtype or (``_holds_bool``) a sequence's element."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    dtype = array.dtype
    if dtype.kind in "iuf" and _holds_bool(value):
        dtype = np.dtype(bool)
    if dtype.kind not in "iuf":
        raise InvariantError(f"{owner}: {name} must hold real numbers, got dtype {dtype}")
    array = array.astype(float)
    array.flags.writeable = False
    return array


def _holds_bool(value: Any) -> bool:
    """Whether ``value``, a Python sequence of numbers, holds a bool anywhere,
    which ``np.asarray`` would turn into a number. An array holds none: its
    dtype tells."""
    if isinstance(value, np.ndarray):
        return False
    return any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat)


@dataclass(frozen=True)
class NetworkScenario(_Record):
    """Complete immutable description of one deployment under evaluation.

    ``kinds`` must hold ``BsKind`` records, ``base_stations`` be a
    ``StationLayout``, ``ues`` a ``UePopulation``, ``cache`` a
    ``CacheConfig`` and ``traffic`` a ``TrafficProfile``. The layout names
    its kinds by kind_id; ``placed_kinds``, derived by a rule that reads
    ``kinds`` and ``base_stations``, holds the catalog record of each of its
    ``kind_ids``, so station i is of kind ``placed_kinds[base_stations.kind[i]]``.
    A sweep point is its base edited (``model.edit``): it runs only the
    rules that read a field the point replaced.
    """

    kinds: tuple[BsKind, ...]
    base_stations: StationLayout
    ues: UePopulation
    cache: CacheConfig = field(default_factory=CacheConfig)
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    benchmark_cost: float | str = MAX_KIND
    radio_mode: str = "abstract"
    rng_seed: int = 0
    placed_kinds: tuple[BsKind, ...] = field(init=False, repr=False, compare=False)

    def station_values(self, value: Callable[[BsKind], float]) -> np.ndarray:
        """``value`` of each station's kind, in station order; it is called once per placed kind."""
        return np.array([value(k) for k in self.placed_kinds], dtype=float)[self.base_stations.kind]


def _kinds_tuple(s: NetworkScenario) -> None:
    if type(s.kinds) is not tuple:
        object.__setattr__(s, "kinds", tuple(s.kinds))


def _kinds_are_records(s: NetworkScenario) -> None:
    for kind in s.kinds:
        if not isinstance(kind, BsKind):
            raise InvariantError(f"NetworkScenario: kinds must hold BsKind records, got {type(kind).__name__}")


def _placed_kinds(s: NetworkScenario) -> None:
    """Derive ``placed_kinds``; the kind_ids must be unique, and each the layout names in the catalog."""
    by_id = {k.kind_id: k for k in s.kinds}
    if len(by_id) < len(s.kinds):
        _require_unique("kind_id", [k.kind_id for k in s.kinds])
    layout = s.base_stations
    placed = tuple(map(by_id.get, layout.kind_ids))
    if not all(placed):
        i, j = next((i, j) for i, j in enumerate(layout.kind.tolist()) if placed[j] is None)
        raise UnknownKindError(
            f"BaseStation '{layout._id(i)}': kind '{layout.kind_ids[j]}' is not in the scenario catalog"
        )
    object.__setattr__(s, "placed_kinds", placed)


def _benchmark_cost(s: NetworkScenario) -> None:
    if s.benchmark_cost != MAX_KIND:
        if not _is_real(s.benchmark_cost):
            raise InvariantError(f"NetworkScenario: benchmark_cost must be a number or '{MAX_KIND}'")
        if not 0 < _or_inf(s.benchmark_cost) < math.inf:
            raise InvariantError("NetworkScenario: benchmark_cost must be finite and > 0")


def _rng_seed(s: NetworkScenario) -> None:
    if not _is_int(s.rng_seed) or s.rng_seed < 0:
        raise InvariantError(f"NetworkScenario: rng_seed must be an integer >= 0, got {s.rng_seed!r}")


NetworkScenario._RULES = _rules(
    ("kinds", _kinds_tuple),
    ("kinds", _kinds_are_records),
    _is_a("base_stations", StationLayout),
    _is_a("ues", UePopulation),
    _is_a("cache", CacheConfig),
    _is_a("traffic", TrafficProfile),
    _rule("kinds", lambda s: len(s.kinds) >= 1, "at least one kind required"),
    _rule("base_stations", lambda s: len(s.base_stations) >= 1, "at least one base station required"),
    _rule("ues", lambda s: len(s.ues) >= 1, "at least one UE required"),
    ("kinds base_stations", _placed_kinds),
    ("benchmark_cost", _benchmark_cost),
    _one_of("radio_mode", RADIO_MODES),
    ("rng_seed", _rng_seed),
)


def validate_scenario(s: NetworkScenario) -> list[str]:
    """Return advisory warnings for suspicious but legal configurations.

    Checked: a kind whose cost coefficient exceeds 1 under the pinned
    benchmark, a caching strategy configured while no kind has cache
    capacity, and an X-Haul too small to carry even the least demanding
    UE at the daily traffic minimum.

    Raises:
        ValueError: an input check every evaluation of ``s`` runs fails,
            as for a placed kind's cache larger than the catalog
            (``allocation.xhaul_limits``), with the evaluation's message.
    """
    xhaul_limits(s)
    warnings: list[str] = []
    c0 = resolve_benchmark_cost(s)
    for kind in s.kinds:
        cn = cost_coefficient(kind, c0)
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
