"""A whole scenario: its stations and UEs as columns, and its validation.

``NetworkScenario`` bundles everything one evaluation needs: the catalog of
base station kinds (``model.BsKind``), the placed stations as one
``StationLayout``, the users as one ``UePopulation``, cache and traffic
settings, and the cost benchmark. The two tables are the only form that
stations and UEs take, and the only place their invariants are checked.
Its records are immutable after construction and safe to share across
concurrent evaluations; a sweep point shares every record its edit leaves
alone with its base. The JSON document form is read and written by
``document``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

import numpy as np

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
    _is_int,
    _is_real,
    _require,
    _require_unique,
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
    ``kinds``, the distinct kinds the stations were placed with (a
    document's in order of first use); ``position_m`` a (B, 2) array.
    Finite positions, valid kind indices, kinds that each place a station
    (the evaluation computes per kind of ``kinds``, so an unplaced one could
    fail a scenario that equals one without it) and unique explicit ids are
    checked once, here, with array operations; an error names the first
    station that breaks a rule.
    Equality compares ids, kind ids and positions.

    A scenario holds its layout resolved against its own catalog by kind_id
    (``resolved``): the kinds are its catalog's, and the columns are the
    ones it was given, so a sweep point that edits a kind shares its base's
    columns.
    """

    bs_id: tuple[str, ...] | None
    kind: np.ndarray
    position_m: np.ndarray
    kinds: tuple[BsKind, ...]

    _ID = "bs_id"
    _RECORD = BaseStation

    def __post_init__(self) -> None:
        count = len(self._start())
        kinds = tuple(self.kinds)
        if not all(isinstance(k, BsKind) for k in kinds) or len({k.kind_id for k in kinds}) != len(kinds):
            raise InvariantError("StationLayout: kinds must be BsKind records with distinct kind_ids")
        object.__setattr__(self, "kinds", kinds)
        kind = np.array(self.kind)
        indices = kind.dtype.kind in "iu" and not _holds_bool(self.kind)
        if kind.shape != (count,) or not indices or not ((kind >= 0) & (kind < len(kinds))).all():
            raise InvariantError(f"StationLayout: kind must hold {count} indices into kinds")
        kind = kind.astype(np.intp)
        kind.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        unplaced = np.bincount(kind, minlength=len(kinds)) == 0
        if unplaced.any():
            raise InvariantError(f"StationLayout: no station is of kind '{kinds[int(unplaced.argmax())].kind_id}'")
        self._finish([(~np.isfinite(self.position_m).all(axis=1), "position_m must be finite")])

    def resolved(self, catalog: Mapping[str, BsKind]) -> StationLayout:
        """This layout with the kinds of ``catalog``, a map by kind_id.

        The result shares this layout's columns, and is this layout when
        ``catalog`` holds its very kinds. Raises ``UnknownKindError`` naming
        the first station whose kind_id ``catalog`` lacks.
        """
        kinds = tuple(catalog.get(k.kind_id) for k in self.kinds)
        unknown = [j for j, k in enumerate(kinds) if k is None]
        if unknown:
            i = int(np.isin(self.kind, unknown).argmax())
            raise _unknown_kind(self._id(i), self.kinds[self.kind[i]].kind_id)
        if all(map(operator.is_, kinds, self.kinds)):
            return self
        layout = object.__new__(StationLayout)
        layout.__dict__.update(self.__dict__, kinds=kinds)
        return layout

    def kind_ids(self) -> list[str]:
        """The kind_id of every station."""
        names = [k.kind_id for k in self.kinds]
        return [names[j] for j in self.kind.tolist()]

    def values(self, value: Callable[[BsKind], float]) -> np.ndarray:
        """``value`` of each station's kind, in station order; it is called once per kind."""
        return np.array([value(k) for k in self.kinds], dtype=float)[self.kind]

    @cached_property
    def id_order(self) -> np.ndarray:
        """Station indices sorted by bs_id."""
        order = np.array(sorted(range(len(self)), key=self.ids().__getitem__), dtype=np.intp)
        order.flags.writeable = False
        return order

    def _compared(self) -> tuple:
        return self.kind_ids(), self.position_m


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
class NetworkScenario:
    """Complete immutable description of one deployment under evaluation.

    ``base_stations`` must be a ``StationLayout`` and ``ues`` a
    ``UePopulation``. The layout is held resolved against ``kinds`` by
    kind_id, so station i is of kind
    ``base_stations.kinds[base_stations.kind[i]]``, a record of ``kinds``.
    """

    kinds: tuple[BsKind, ...]
    base_stations: StationLayout
    ues: UePopulation
    cache: CacheConfig = field(default_factory=CacheConfig)
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    benchmark_cost: float | str = MAX_KIND
    radio_mode: str = "abstract"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        for name, table in (("base_stations", StationLayout), ("ues", UePopulation)):
            value = getattr(self, name)
            if not isinstance(value, table):
                raise InvariantError(
                    f"NetworkScenario: {name} must be a {table.__name__}, got {type(value).__name__}"
                )
        _require(len(self.kinds) >= 1, "NetworkScenario: at least one kind required")
        _require(len(self.base_stations) >= 1, "NetworkScenario: at least one base station required")
        _require(len(self.ues) >= 1, "NetworkScenario: at least one UE required")
        _require_unique("kind_id", [k.kind_id for k in self.kinds])
        by_id = {k.kind_id: k for k in self.kinds}
        object.__setattr__(self, "base_stations", self.base_stations.resolved(by_id))
        if self.benchmark_cost != MAX_KIND:
            if not _is_real(self.benchmark_cost):
                raise InvariantError(f"NetworkScenario: benchmark_cost must be a number or '{MAX_KIND}'")
            _require(0 < self.benchmark_cost < math.inf, "NetworkScenario: benchmark_cost must be finite and > 0")
        if self.radio_mode not in RADIO_MODES:
            raise InvariantError(f"NetworkScenario: radio_mode must be one of {RADIO_MODES}")
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise InvariantError(f"NetworkScenario: rng_seed must be an integer >= 0, got {self.rng_seed!r}")


def _unknown_kind(bs_id: str, kind_id: str) -> UnknownKindError:
    return UnknownKindError(f"BaseStation '{bs_id}': kind '{kind_id}' is not in the scenario catalog")


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
