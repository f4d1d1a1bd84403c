"""The JSON document form of a scenario: its schema, reading and writing.

Each record section of a document (a kind, its X-Haul and cost breakdown,
a listed station or UE, the cache and traffic settings) has the keys of
the fields of the ``model`` dataclass of the same shape. A kind, cache or
traffic section is read into its dataclass; the listed stations and UEs
are read into the columns of one ``StationLayout`` and one
``UePopulation``, and the generator sections (``grid``,
``uniform_random``) are expanded into them here, the generated UE
positions by ``rng.uniform_positions`` from the document's ``seed``.
One reader, ``_build``, reads the root sections: all of them for
``build_scenario``, and for a sweep point only those on the edited paths,
the rest taken from its base scenario. ``scenario_to_document`` writes a
scenario back.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Container, Mapping
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
    ScenarioError,
    SchemaError,
    TrafficProfile,
    UnknownKindError,
    UserEquipment,
    XHaulSolution,
    edit,
    rules_reading,
)
from .rng import uniform_positions
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

#: A reader of one value or record section at a path fixed when it was made (``_at``, ``_maker``).
Maker = Callable[[Any], Any]


def _at(parse: Parser, path: str) -> Maker:
    """``parse`` of the value at document ``path``."""
    return lambda value: parse(value, path)

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


def _field_parser(section: tuple[str, ...], f: Any) -> Parser:
    """How ``_record`` reads field ``f`` of ``section``."""
    nested = section + (f.name,)
    if nested in _RECORDS:
        if f.default is None:
            return lambda value, path: None if value is None else _record(nested, value, path)
        return functools.partial(_record, nested)
    if f.name in _CHOICES:
        return functools.partial(_as_choice, choices=_CHOICES[f.name])
    if f.name in _LIMITS:
        return functools.partial(_as_int, most=_LIMITS[f.name])
    return _VALUE_PARSERS[f.type]


def _values(section: tuple[str, ...], doc: Any, path: str) -> dict[str, Any]:
    """The fields that ``doc``, record ``section`` at document ``path``, sets,
    each key parsed by its field's type."""
    _check_keys(doc, path, section)
    return {name: parse(doc[name], f"{path}.{name}") for name, parse in _FIELDS[section] if name in doc}


def _record(section: tuple[str, ...], doc: Any, path: str) -> Any:
    """The dataclass of record ``section`` read from ``doc`` at document ``path``;
    each key it leaves out keeps the dataclass default."""
    return _RECORDS[section](**_values(section, doc, path))


def _maker(section: tuple[str, ...], record: Any, doc: Any, edits: dict[str, Any] | None, path: str) -> Maker:
    """A reader of record ``section`` at document ``path`` for edits of
    ``doc``, the section ``record`` was read from, at the keys in ``edits``
    (a tree of ``_makers``; None for all). It parses the edited keys in
    field order, a nested record edited below made so at its field's
    position, so the first error is a full parse's, and makes ``record``
    edited at them (``model.edit``). A key ``doc`` leaves out whose value
    was derived (is not its default) is edited back to the default, so its
    rule derives it again. The fields edited, their paths and the rules run
    are chosen here, once."""
    if edits is None:
        return _at(functools.partial(_record, section), path)
    cls, reset, edited = _RECORDS[section], {}, []
    for f, (name, parse) in zip(fields(cls), _FIELDS[section]):
        if name in edits:
            below = f"{path}.{name}"
            if edits[name] is None:
                edited.append((name, _at(parse, below)))
            else:
                edited.append((name, _maker(section + (name,), getattr(record, name), doc[name], edits[name], below)))
        elif name not in doc and getattr(record, name) != f.default:
            reset[name] = f.default
    checks = rules_reading(cls, (*reset, *(name for name, _ in edited)))

    def make(doc: Any) -> Any:
        changes = reset.copy()
        for name, parse in edited:
            changes[name] = parse(doc[name])
        return edit(record, changes, checks)

    return make


#: (key, parser) of every field of each record section, in field order.
_FIELDS = {
    section: tuple((f.name, _field_parser(section, f)) for f in fields(cls)) for section, cls in _RECORDS.items()
}

#: What ``_build`` takes to read every section: each root key set whole.
_WHOLE = dict.fromkeys(section_keys(())) | {
    key: _at(functools.partial(_record, (key,)), key) for key in ("cache", "traffic")
}


def _build_base_stations(doc: Any, kind_ids: Container[str]) -> StationLayout:
    """The layout of section ``doc``; each station must name one of ``kind_ids``."""

    def known(kind_id: str, path: str) -> str:
        if kind_id not in kind_ids:
            raise UnknownKindError(f"{path}: unknown kind_id '{kind_id}'")
        return kind_id

    if isinstance(doc, Mapping):
        _check_keys(doc, "base_stations", ("base_stations",))
        grid = doc["grid"]
        path = "base_stations.grid"
        _check_keys(grid, path, ("base_stations", "grid"))
        grid_kind = known(_as_str(grid["kind"], f"{path}.kind"), path)
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
    entries = []
    for i, entry in enumerate(doc):  # entry by entry, so the first bad entry is the error
        entries.append(_values(("base_stations", "*"), entry, f"base_stations[{i}]"))
        known(entries[-1]["kind"], f"base_stations[{i}]")
    placed: dict[str, int] = {}
    index = [placed.setdefault(e["kind"], len(placed)) for e in entries]
    return StationLayout(
        tuple(e["bs_id"] for e in entries),
        np.array(index, dtype=np.intp),
        np.array([e["position_m"] for e in entries], dtype=float),
        tuple(placed),
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
        positions = uniform_positions(seed, width, height, count)
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
        ScenarioError: the text is not valid JSON, or nests too deeply to decode.
        SchemaError: a key is missing, unknown, or of the wrong type.
        InvariantError: a domain invariant fails (names entity and rule).
        UnknownKindError: a base station references a kind_id not in ``kinds``.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nesting level
            raise ScenarioError(f"not valid JSON ({exc})") from exc
    return _build(document)


def _build(document: Any, base: NetworkScenario | None = None, makers: Mapping[str, Any] = _WHOLE) -> NetworkScenario:
    """The scenario of ``document``, validated whole. With ``base``, of whose
    document it is an edit at the keys ``makers`` (``_makers``) names, only
    the sections on those paths are read, the stations also when a renamed
    kind leaves the layout naming a kind_id the kinds lack, and generated
    UEs when the seed changes; the scenario is ``base`` edited at the fields
    read (``model.edit``), so every other section is the base's own object
    and only the rules that read a field read run. Without, all are read.
    The one order here decides the error of a document bad in two sections."""
    if base is None:
        _check_keys(document, "", ())
    read: dict[str, Any] = {}
    if "seed" in makers:
        read["rng_seed"] = _seed(document)
    stations = "base_stations" in makers
    if base is None:
        entries = document["kinds"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("kinds: expected a non-empty list")
        read["kinds"] = tuple(_record(("kinds", "*"), k, f"kinds[{i}]") for i, k in enumerate(entries))
    elif "kinds" in makers:
        kinds, renamed = list(base.kinds), False
        for i, make in makers["kinds"].items():
            kinds[i] = make(document["kinds"][i])
            # an edit that leaves a kind_id alone keeps the base's very string
            renamed = renamed or kinds[i].kind_id is not base.kinds[i].kind_id
        read["kinds"] = tuple(kinds)
        stations = stations or renamed and not {k.kind_id for k in kinds}.issuperset(base.base_stations.kind_ids)
    for key in ("cache", "traffic"):
        if key in makers:
            read[key] = makers[key](document.get(key, {}))
    if "benchmark_cost" in makers:
        read["benchmark_cost"] = _benchmark_cost(document)
    if stations:
        kind_ids = {k.kind_id for k in (read["kinds"] if "kinds" in read else base.kinds)}
        read["base_stations"] = _build_base_stations(document["base_stations"], kind_ids)
    seed = read["rng_seed"] if "rng_seed" in read else base.rng_seed
    if "ues" in makers or seed != base.rng_seed and not isinstance(document["ues"], list):
        read["ues"] = _build_ues(document["ues"], seed)
    if "radio_mode" in makers:
        read["radio_mode"] = _as_choice(document.get("radio_mode", "abstract"), "document.radio_mode", RADIO_MODES)
    return NetworkScenario(**read) if base is None else edit(base, read)


def _makers(base: NetworkScenario, document: Any, paths: list[list[Any]]) -> dict[str, Any]:
    """What ``_build`` takes on ``base`` for ``document``, an edit of
    ``base``'s at ``paths``, each the keys (a list index as an int) from the
    root to an edited value: the tree of edited keys, each mapped to the
    keys edited below it and a path's last key to None, with each edited
    kind, cache or traffic record's maker (``_maker``) in place of its keys.
    A key one path sets whole stays whole when another goes below it."""
    edits: dict[Any, Any] = {}
    for keys in paths:
        node = edits
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if node is None:
                break
        else:
            node[keys[-1]] = None
    if "kinds" in edits:
        edits["kinds"] = {i: _maker(("kinds", "*"), base.kinds[i], document["kinds"][i], below, f"kinds[{i}]")
                          for i, below in sorted(edits["kinds"].items())}
    for key in ("cache", "traffic"):
        if key in edits:
            edits[key] = _maker((key,), getattr(base, key), document.get(key, {}), edits[key], key)
    return edits


def _seed(document: Any) -> int:
    seed = _as_int(document.get("seed", 0), "document.seed")
    if seed < 0:
        raise SchemaError(f"document.seed: must be >= 0, got {seed}")
    return seed


def _benchmark_cost(document: Any) -> float | str:
    benchmark = document.get("benchmark_cost", MAX_KIND)
    if not isinstance(benchmark, str):
        return _as_number(benchmark, "document.benchmark_cost")
    if benchmark != MAX_KIND:
        raise SchemaError(f"document.benchmark_cost: expected a number or '{MAX_KIND}', got '{benchmark}'")
    return benchmark


def _python(value: Any) -> Any:
    """``value``, or the Python number a numpy number holds."""
    return value.item() if isinstance(value, np.generic) else value


def _plain(record: Any) -> dict[str, Any]:
    """``record`` as its document section: its fields in order, numpy
    numbers as Python numbers, and no key for a None field."""
    return asdict(record, dict_factory=lambda items: {key: _python(value) for key, value in items if value is not None})


def scenario_to_document(s: NetworkScenario) -> dict[str, Any]:
    """Serialize a scenario back to a plain JSON-compatible document.

    Round-trips: ``build_scenario(scenario_to_document(s)) == s``. Generator
    sections come back as the explicit entity lists they expanded to.
    """
    layout = s.base_stations
    return {
        "kinds": [_plain(k) for k in s.kinds],
        "base_stations": [
            dict(zip(_BS_FIELDS, row))
            for row in zip(layout.ids(), [layout.kind_ids[j] for j in layout.kind.tolist()], layout.position_m.tolist())
        ],
        "ues": [
            dict(zip(_UE_FIELDS, row))
            for row in zip(s.ues.ids(), *(getattr(s.ues, name).tolist() for name in _UE_ARRAYS))
        ],
        "cache": _plain(s.cache),
        "traffic": _plain(s.traffic),
        "benchmark_cost": _python(s.benchmark_cost),
        "radio_mode": s.radio_mode,
        "seed": _python(s.rng_seed),
    }
