"""The JSON document form of a scenario: its schema, reading and writing.

Each record section of a document (a kind, its X-Haul and cost breakdown,
a listed station or UE, the cache and traffic settings) has the keys of
the fields of the ``model`` dataclass of the same shape. A kind, cache or
traffic section is read into its dataclass; the listed stations and UEs
are read into the columns of one ``StationLayout`` and one
``UePopulation``, and the generator sections (``grid``,
``uniform_random``) are expanded into them here.
``build_scenario`` reads a whole document, ``_build`` one that shares
sections with an already built base (a sweep point), and
``scenario_to_document`` writes a scenario back.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import MISSING, asdict, fields
from typing import Any, Callable

import numpy as np

from .model import (
    MAX_CATALOG_SIZE,
    MAX_KIND,
    MAX_SAMPLES_PER_DAY,
    MAX_STATIONS,
    MAX_UES,
    MEDIA,
    RADIO_MODES,
    STRATEGIES,
    BaseStation,
    BsKind,
    CacheConfig,
    CostBreakdown,
    SchemaError,
    TrafficProfile,
    UnknownKindError,
    UserEquipment,
    XHaulSolution,
)
from .scenario import _UE_ARRAYS, _UE_FIELDS, NetworkScenario, StationLayout, UePopulation

_BS_FIELDS = tuple(f.name for f in fields(BaseStation))
_UE_DEFAULTS = {f.name: f.default for f in fields(UserEquipment) if f.default is not MISSING}

#: The record sections by key path, ``*`` standing for a list entry. Each is
#: read into the dataclass whose fields are its keys: a field without a
#: default is a required key, and an absent optional key keeps the default.
_RECORDS: dict[tuple[str, ...], type] = {
    ("kinds", "*"): BsKind,
    ("kinds", "*", "xhaul"): XHaulSolution,
    ("kinds", "*", "cost_breakdown"): CostBreakdown,
    ("base_stations", "*"): BaseStation,
    ("ues", "*"): UserEquipment,
    ("cache",): CacheConfig,
    ("traffic",): TrafficProfile,
}

#: (required, optional) keys of each document section. The root and the
#: generator forms ``("base_stations",)`` and ``("ues",)`` are written out;
#: the record sections come from their dataclasses.
_SECTIONS: dict[tuple[str, ...], tuple[tuple[str, ...], tuple[str, ...]]] = {
    (): (("kinds", "base_stations", "ues"), ("cache", "traffic", "benchmark_cost", "radio_mode", "seed")),
    ("base_stations",): (("grid",), ()),
    ("base_stations", "grid"): (("kind", "rows", "cols", "spacing_m"), ()),
    ("ues",): (("uniform_random",), ()),
    ("ues", "uniform_random"): (("count", "area_m", "demand_peak_bps"), ("weight",)),
    **{
        section: tuple(
            tuple(f.name for f in fields(cls) if (f.default is MISSING) == required) for required in (True, False)
        )
        for section, cls in _RECORDS.items()
    },
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


def _as_int(value: Any, path: str, most: int | None = None) -> int:
    """A JSON integer, at most ``most`` if given; anything else is a SchemaError at ``path``."""
    if isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise SchemaError(f"{path}: expected an integer, got {value}")
        value = int(value)
    if not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {type(value).__name__}")
    if most is not None and value > most:
        raise SchemaError(f"{path}: must be <= {most}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _as_pair(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{path}: expected [x, y]")
    x, y = (_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    return x, y


def _as_choice(value: Any, path: str, choices: tuple[str, ...]) -> str:
    """A string from the closed set ``choices``; anything else is a SchemaError at ``path``."""
    if _as_str(value, path) not in choices:
        raise SchemaError(f"{path}: expected one of {choices}, got '{value}'")
    return value


Parser = Callable[[Any, str], Any]

#: Parser of a plain field by its annotation, one per JSON value type.
_VALUE_PARSERS: dict[str, Parser] = {
    "float": _as_number,
    "float | None": _as_number,
    "int": _as_int,
    "str": _as_str,
    "tuple[float, float]": _as_pair,
}

#: Fields whose string must be one of a closed set.
_CHOICES = {"medium": MEDIA, "strategy": STRATEGIES}

#: Integer fields with an upper bound: the popularity table holds one weight
#: per catalog item, and a daily evaluation one row per sample.
_LIMITS = {"catalog_size": MAX_CATALOG_SIZE, "samples_per_day": MAX_SAMPLES_PER_DAY}


def _field_parser(section: tuple[str, ...], f: Any) -> Parser | None:
    """How ``_record`` reads field ``f`` of ``section``; None where its caller must say."""
    nested = section + (f.name,)
    if nested in _RECORDS:
        if f.default is None:
            return lambda value, path: None if value is None else _record(nested, value, path)
        return functools.partial(_record, nested)
    if f.name in _CHOICES:
        return functools.partial(_as_choice, choices=_CHOICES[f.name])
    if f.name in _LIMITS:
        return functools.partial(_as_int, most=_LIMITS[f.name])
    return _VALUE_PARSERS.get(f.type)


def _values(section: tuple[str, ...], doc: Any, path: str, **parsers: Parser) -> dict[str, Any]:
    """The fields that ``doc``, record ``section`` at document ``path``, sets.

    Each key is parsed by its field's type, or by ``parsers`` for a field
    that is not a plain value (a station's ``kind``).
    """
    _check_keys(doc, path, section)
    return {
        name: (parse or parsers[name])(doc[name], f"{path}.{name}") for name, parse in _FIELDS[section] if name in doc
    }


def _record(
    section: tuple[str, ...], doc: Any, path: str, base: tuple[Any, Any] | None = None, **parsers: Parser
) -> Any:
    """The dataclass of record ``section`` read from ``doc`` at document ``path``;
    each key it leaves out keeps the dataclass default.

    ``base``, an optional (dict, record) pair of the same section, is reused:
    its record when ``doc`` is its dict; when ``doc`` is a dict with the same
    keys, each field whose value is the same object in both dicts, and a
    nested record (``xhaul``, ``cost_breakdown``) that is a dict in both is
    read against the base's in turn. Only the other values are parsed, and
    the record is made through its class, so every invariant runs again and
    the first error is the one a full parse gives.
    """
    if base is not None and doc is base[0]:
        return base[1]
    if base is None or not isinstance(doc, dict) or doc.keys() != base[0].keys():
        return _RECORDS[section](**_values(section, doc, path, **parsers))
    was, record = base
    values = {}
    for name, parse in _FIELDS[section]:
        if name in doc:
            value, old = doc[name], was[name]
            if value is old:
                values[name] = getattr(record, name)
            elif isinstance(value, dict) and isinstance(old, dict):
                values[name] = _record(section + (name,), value, f"{path}.{name}", (old, getattr(record, name)))
            else:
                values[name] = parse(value, f"{path}.{name}")
    return _RECORDS[section](**values)


#: (key, parser) of every field of each record section, in field order.
_FIELDS = {
    section: tuple((f.name, _field_parser(section, f)) for f in fields(cls)) for section, cls in _RECORDS.items()
}


def _build_base_stations(doc: Any, kinds_by_id: Mapping[str, BsKind]) -> StationLayout:
    def kind(value: Any, path: str) -> BsKind:
        """The catalog kind that the station ``kind`` key at ``path`` names."""
        kind_id = _as_str(value, path)
        if kind_id not in kinds_by_id:
            raise UnknownKindError(f"{path.removesuffix('.kind')}: unknown kind_id '{kind_id}'")
        return kinds_by_id[kind_id]

    if isinstance(doc, Mapping):
        _check_keys(doc, "base_stations", ("base_stations",))
        grid = doc["grid"]
        path = "base_stations.grid"
        _check_keys(grid, path, ("base_stations", "grid"))
        grid_kind = kind(grid["kind"], f"{path}.kind")
        rows, cols = _as_int(grid["rows"], f"{path}.rows"), _as_int(grid["cols"], f"{path}.cols")
        spacing = _as_number(grid["spacing_m"], f"{path}.spacing_m")
        if rows < 1 or cols < 1:
            raise SchemaError(f"{path}: rows and cols must be >= 1")
        if rows * cols > MAX_STATIONS:
            raise SchemaError(f"{path}: rows * cols must be <= {MAX_STATIONS}")
        if spacing <= 0:
            raise SchemaError(f"{path}.spacing_m: must be > 0")
        # station r * cols + c stands at (c * spacing, r * spacing)
        x = np.tile(np.arange(cols) * spacing, rows)
        y = np.repeat(np.arange(rows) * spacing, cols)
        return StationLayout(None, np.zeros(rows * cols, dtype=np.intp), np.column_stack([x, y]), (grid_kind,))
    if not isinstance(doc, list) or not doc:
        raise SchemaError("base_stations: expected a non-empty list or a generator object")
    entries = [_values(("base_stations", "*"), entry, f"base_stations[{i}]", kind=kind) for i, entry in enumerate(doc)]
    kinds: dict[str, int] = {}
    index = [kinds.setdefault(e["kind"].kind_id, len(kinds)) for e in entries]
    return StationLayout(
        tuple(e["bs_id"] for e in entries),
        np.array(index, dtype=np.intp),
        np.array([e["position_m"] for e in entries], dtype=float),
        tuple(kinds_by_id[kind_id] for kind_id in kinds),
    )


def _build_ues(doc: Any, seed: int) -> UePopulation:
    if isinstance(doc, Mapping):
        _check_keys(doc, "ues", ("ues",))
        gen = doc["uniform_random"]
        path = "ues.uniform_random"
        _check_keys(gen, path, ("ues", "uniform_random"))
        count = _as_int(gen["count"], f"{path}.count", MAX_UES)
        if count < 1:
            raise SchemaError(f"{path}.count: must be >= 1")
        area = gen["area_m"]
        if not isinstance(area, list) or len(area) != 2:
            raise SchemaError(f"{path}.area_m: expected [width, height]")
        width, height = (_as_number(v, f"{path}.area_m") for v in area)
        if width <= 0 or height <= 0:
            raise SchemaError(f"{path}.area_m: dimensions must be > 0")
        demand = _as_number(gen["demand_peak_bps"], f"{path}.demand_peak_bps")
        weight = _as_number(gen["weight"], f"{path}.weight") if "weight" in gen else UserEquipment.weight
        rng = np.random.default_rng(seed)
        positions = rng.uniform((0.0, 0.0), (width, height), size=(count, 2))
        return UePopulation(None, positions, np.full(count, demand), np.full(count, weight))
    if not isinstance(doc, list) or not doc:
        raise SchemaError("ues: expected a non-empty list or a generator object")
    entries = [{**_UE_DEFAULTS, **_values(("ues", "*"), entry, f"ues[{i}]")} for i, entry in enumerate(doc)]
    # the parsed values are floats, so the columns go in as arrays, which skip the bool scan
    columns = (np.array([e[name] for e in entries], dtype=float) for name in _UE_ARRAYS)
    return UePopulation(tuple(e["ue_id"] for e in entries), *columns)


def build_scenario(document: Mapping[str, Any] | str | bytes) -> NetworkScenario:
    """Build a validated scenario from a JSON document (text or parsed dict).

    Deterministic given the document content, including its ``seed``: two
    calls produce structurally identical scenarios. The stations, listed or
    a ``grid``, become one ``StationLayout``; the UEs, listed or
    ``uniform_random``, one ``UePopulation``.

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

    What is built from the same objects in both documents is reused, as a
    copy-on-write edit of the base document leaves every value off the
    edited path: the kinds when ``kinds`` is; the station columns when
    ``base_stations`` is and the kinds hold every kind_id it places, as a
    scenario resolves its layout's kinds against its own catalog by kind_id
    (``StationLayout.resolved``), which keeps the columns; the UEs when
    ``ues`` is and the seed is equal or the UEs are a list; and the cache
    and traffic records when their sections are (or both leave them out).
    Each other kind, cache and traffic record is read against the base's
    with ``_record``, which parses only its edited values. The scenario is
    validated as a whole.
    """
    _check_keys(document, "", ())
    seed = _as_int(document.get("seed", 0), "document.seed")
    if seed < 0:
        raise SchemaError(f"document.seed: must be >= 0, got {seed}")
    sections = ("kinds", "base_stations", "ues", "cache", "traffic")
    shared = {k for k in sections if base and document.get(k) is base[0].get(k)}

    if "kinds" in shared:
        kinds = base[1].kinds
    else:
        kinds_doc = document["kinds"]
        if not isinstance(kinds_doc, list) or not kinds_doc:
            raise SchemaError("kinds: expected a non-empty list")
        olds = list(zip(base[0]["kinds"], base[1].kinds)) if base else []
        kinds = tuple(
            _record(("kinds", "*"), k, f"kinds[{i}]", olds[i] if i < len(olds) else None)
            for i, k in enumerate(kinds_doc)
        )

    records = {}
    for key in ("cache", "traffic"):
        if key in shared:
            records[key] = getattr(base[1], key)
        else:
            old = (base[0][key], getattr(base[1], key)) if base and key in base[0] else None
            records[key] = _record((key,), document.get(key, {}), key, old)

    benchmark = document.get("benchmark_cost", MAX_KIND)
    if isinstance(benchmark, str):
        if benchmark != MAX_KIND:
            raise SchemaError(f"document.benchmark_cost: expected a number or '{MAX_KIND}', got '{benchmark}'")
    else:
        benchmark = _as_number(benchmark, "document.benchmark_cost")

    by_id = {k.kind_id: k for k in kinds}
    if "base_stations" in shared and all(k.kind_id in by_id for k in base[1].base_stations.kinds):
        stations = base[1].base_stations
    else:
        stations = _build_base_stations(document["base_stations"], by_id)
    if "ues" in shared and (seed == base[1].rng_seed or isinstance(document["ues"], list)):
        ues = base[1].ues
    else:
        ues = _build_ues(document["ues"], seed)

    return NetworkScenario(
        kinds=kinds,
        base_stations=stations,
        ues=ues,
        cache=records["cache"],
        traffic=records["traffic"],
        benchmark_cost=benchmark,
        radio_mode=_as_choice(document.get("radio_mode", "abstract"), "document.radio_mode", RADIO_MODES),
        rng_seed=seed,
    )


def _plain(record: Any, **given: Any) -> dict[str, Any]:
    """``record`` as its document section: its fields in order, ``given``
    values in place of field values, and no key for a None field."""
    return {key: given.get(key, value) for key, value in asdict(record).items() if value is not None}


def scenario_to_document(s: NetworkScenario) -> dict[str, Any]:
    """Serialize a scenario back to a plain JSON-compatible document.

    Round-trips: ``build_scenario(scenario_to_document(s)) == s``. Generator
    sections come back as the explicit entity lists they expanded to.
    """
    return {
        "kinds": [_plain(k) for k in s.kinds],
        "base_stations": [
            dict(zip(_BS_FIELDS, row))
            for row in zip(s.base_stations.ids(), s.base_stations.kind_ids(), s.base_stations.position_m.tolist())
        ],
        "ues": [
            dict(zip(_UE_FIELDS, row))
            for row in zip(s.ues.ids(), *(getattr(s.ues, name).tolist() for name in _UE_ARRAYS))
        ],
        "cache": _plain(s.cache),
        "traffic": _plain(s.traffic),
        "benchmark_cost": s.benchmark_cost,
        "radio_mode": s.radio_mode,
        "seed": s.rng_seed,
    }
