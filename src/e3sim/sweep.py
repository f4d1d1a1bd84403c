"""Parameter sweeps over scenario documents: ``open_sweep`` streams the rows
of a grid, and ``Argmax`` keeps the best of them, as ``e3 sweep`` runs them.

A sweep evaluates copies of a base scenario document with one or two
values set to each grid value, never touching the base. A parameter path
addresses a value of the parsed JSON document by key, ``key[i]`` list
index, or list-entry id: ``kinds.ap.cache_size``, ``kinds[0].xhaul.medium``,
``base_stations.grid.kind``, ``ues.uniform_random.count``, ``seed``. Its
last key may be one the document leaves at its default, and the two paths
of a sweep must address different values. Each first-axis point is the
base scenario with only the sections on its path read again by the one
reader (``document._build`` on the base), and each second-axis point is
its first-axis point with only the sections on the second path read
again. A record on the second path that every first-axis point shares
with the base (the cache of a cache-size by Zipf-exponent grid, the X-Haul
of a cache-size by X-Haul-capacity one) is made once per second-axis
value and shared by the points of every first-axis value (``_memo``). A
row that fails a schema or invariant check carries the message and the
sweep continues. Consecutive points that share a geometry are
evaluated together, a block of points at a time, and a point whose
evaluation inputs equal the previous point's takes its report.
"""

from __future__ import annotations

import numbers
import re
from collections.abc import Mapping, Set
from dataclasses import dataclass
from typing import Any, Iterator

from .allocation import Geometry, plan_geometry, same_geometry
from .document import Maker, Memo, _build, _makers, build_scenario, section_keys
from .metrics import METRICS, MetricReport, evaluate_block, point_inputs
from .model import _finite, _is_real
from .scenario import NetworkScenario

_SEGMENT = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)(\[(?P<index>[0-9]+)\])?")

#: Keys that name a list entry, so ``kinds.ap`` is the kind whose kind_id is "ap".
_ID_KEYS = ("kind_id", "bs_id", "ue_id")


class ParameterPathError(ValueError):
    """A sweep parameter path does not resolve in the scenario document."""


@dataclass(frozen=True)
class SweepSpec:
    """Axes and evaluation time of one sweep.

    ``daily`` evaluates every point's daily average, and then ``time_hours``
    must be None; else each point is evaluated at ``time_hours``, a finite
    number, or at its base's peak hour when that is None. Each axis is a
    sequence of values: a string, bytes or a mapping is refused rather than
    split, and so is a set, whose order is not fixed.
    """

    param_path: str
    values: tuple[Any, ...]
    param2_path: str | None = None
    values2: tuple[Any, ...] | None = None
    time_hours: float | None = None
    daily: bool = False

    def __post_init__(self) -> None:
        for name, values in (("values", self.values), ("values2", self.values2)):
            if isinstance(values, (str, bytes, bytearray, Mapping, Set)):
                raise TypeError(f"SweepSpec: {name} must be a sequence of values, got {type(values).__name__}")
        object.__setattr__(self, "values", tuple(self.values))
        if self.values2 is not None:
            object.__setattr__(self, "values2", tuple(self.values2))
        if not self.values:
            raise ValueError("SweepSpec: at least one value per axis required")
        if (self.param2_path is None) != (self.values2 is None):
            raise ValueError("SweepSpec: param2_path and values2 must be given together")
        if self.values2 is not None and not self.values2:
            raise ValueError("SweepSpec: at least one value per axis required")
        if self.time_hours is not None:
            if not _is_real(self.time_hours):
                raise TypeError(f"SweepSpec: time_hours must be a number, got {self.time_hours!r}")
            _finite(self.time_hours, "SweepSpec: time_hours")
            if self.daily:
                raise ValueError("SweepSpec: time_hours must be None for a daily sweep")


@dataclass(frozen=True)
class SweepRow:
    """One grid point: axis value(s) and its report, or the error that failed it."""

    values: tuple[Any, ...]
    report: MetricReport | None
    error: str | None = None


def _steps(document: Any, path: str) -> list[tuple[Any, Any]]:
    """(container, key) pairs leading from the document root to ``path``."""
    steps: list[tuple[Any, Any]] = []
    node, section = document, ()
    segments = path.split(".")
    for n, raw in enumerate(segments):
        m = _SEGMENT.fullmatch(raw)
        if not m:
            raise ParameterPathError(f"unresolvable parameter path '{path}': bad segment '{raw}'")
        name, index = m.group("name"), m.group("index")
        if isinstance(node, list):
            ids = (i for i, e in enumerate(node) if isinstance(e, dict) and name in map(e.get, _ID_KEYS))
            key = next(ids, None)
            if key is None:
                raise ParameterPathError(f"unresolvable parameter path '{path}': no entry '{name}'")
            section += ("*",)
        elif isinstance(node, dict):
            last = n == len(segments) - 1 and index is None
            if name not in node and not (last and name in section_keys(section)):
                raise ParameterPathError(f"unresolvable parameter path '{path}': no key '{name}'")
            key, section = name, section + (name,)
        else:
            raise ParameterPathError(f"unresolvable parameter path '{path}': '{raw}' is past a value")
        steps.append((node, key))
        node = node.get(key) if isinstance(node, dict) else node[key]
        if index is not None:
            if not isinstance(node, list) or not int(index) < len(node):
                raise ParameterPathError(f"unresolvable parameter path '{path}': no entry {raw}")
            steps.append((node, int(index)))
            node, section = node[int(index)], section + ("*",)
    if isinstance(node, (dict, list)):
        raise ParameterPathError(f"unresolvable parameter path '{path}': a section, not a value")
    return steps


def set_parameter(document: dict[str, Any], path: str, value: Any) -> dict[str, Any]:
    """Copy of ``document`` with the value at ``path`` set to ``value``.

    Only the dicts and lists along the path are copied; everything else is
    shared with ``document``, which is never modified.
    """
    return _assign(_steps(document, path), value)


def _assign(steps: list[tuple[Any, Any]], value: Any) -> Any:
    """Copy of the document that ``steps`` of ``_steps`` lead through, with
    ``value`` at their end: each container along them copied, in turn."""
    for container, key in reversed(steps):
        copy = container.copy()
        copy[key] = value
        value = copy
    return value


def _points(document: dict, steps: list, keys: list, spec: SweepSpec, base: NetworkScenario, t: float | None) -> Iterator:
    """(axis values, scenario, ``point_inputs`` at ``t``) of every grid
    point, in grid order, each built by ``document._build``; a failing point
    has its error, a second path's ParameterPathError or that of its build
    or inputs, in place of the scenario, and None for inputs.

    ``steps`` lead to the first path's value in ``document`` (``_steps``),
    and ``keys`` are their keys. The first path is compiled
    (``document._makers``) once, on ``document``, and each first-axis point
    is built with it on ``base``. The second path is resolved once per
    first-axis value, on that value's document, as setting the first value
    may rename the entry the second path names; it is compiled on the
    first-axis point, and each second-axis point is built as an edit of
    that point: every field outside the second value's edit holds what the
    first-axis point passed, so the first failing parse and rule are a
    fresh build's. A record the first-axis point shares with ``base`` is
    made once per second-axis value in the whole sweep (``_memo``, one per
    call). When the first-axis point fails, its second-axis points are
    built on ``base`` with both paths compiled together, and without the
    memo, as a second value may repair the first or fail in an earlier
    section.
    """
    first_path = _makers(base, document, [keys])
    memo = _memo(base)
    for v1 in spec.values:
        point = _assign(steps, v1)
        if spec.param2_path is None:
            grid, on, makers = [((v1,), point)], base, first_path
        else:
            try:
                steps2 = _steps(point, spec.param2_path)
            except ParameterPathError as exc:
                yield from (((v1, v2), exc, None) for v2 in spec.values2)
                continue
            keys2 = [key for _, key in steps2]
            try:
                on = _build(point, base, first_path)
            except (ValueError, ArithmeticError):
                on, makers = base, _makers(base, point, [keys, keys2])
            else:
                makers = _makers(on, point, [keys2], memo)
            grid = (((v1, v2), _assign(steps2, v2)) for v2 in spec.values2)
        for values, edited in grid:
            try:
                s = _build(edited, on, makers)
                new = point_inputs(s, t)
            except (ValueError, ArithmeticError) as exc:
                s, new = exc, None
            yield values, s, new


def _memo(base: NetworkScenario) -> Memo:
    """The record memo of one sweep (``document.Memo``): the reader of a
    record of ``base``'s own, compiled for the second path alone, makes the
    record once per raw second-axis value and reuses it at every first-axis
    value that leaves the record as ``base`` holds it. Such a reader parses
    only the value at the end of the path and edits the one record, so what
    it makes depends on that value alone. Only ``base``'s own records,
    alive for the whole sweep, are memoized; a record made per first-axis
    point could be freed and its id taken by the next one.

    Entries are keyed by the identity of the raw value, as a value's read
    depends on its type and ``1``, ``1.0`` and ``True`` are equal: ``True``
    must fail to read as a number. Each entry holds its value, so its id is
    not reused while the entry lives. A make that raises stores nothing, so
    its error is raised afresh. Each record holds at most one entry per
    second-axis value, and all are freed with the sweep."""
    records = [base.cache, base.traffic, *base.kinds]
    records += [r for k in base.kinds for r in (k.xhaul, k.cost_breakdown) if r is not None]
    tables: dict[int, dict[int, tuple[Any, Any]]] = {id(r): {} for r in records}

    def memo(record: Any, edits: dict[str, Any], make: Maker) -> Maker:
        table = tables.get(id(record))
        if table is None:
            return make
        keys = []  # the one path from the record to its edited value
        while edits is not None:
            (key, edits), = edits.items()
            keys.append(key)

        def made(doc: Any) -> Any:
            value = doc
            for key in keys:
                value = value[key]
            entry = table.get(id(value))
            if entry is None:
                entry = table[id(value)] = value, make(doc)
            return entry[1]

        return made

    return memo


def open_sweep(document: dict[str, Any], spec: SweepSpec) -> tuple[NetworkScenario, float | None, Iterator[SweepRow]]:
    """The base scenario of a sweep, the hour its rows are evaluated at, and
    an iterator over its rows.

    The document must build, and both paths must resolve in it to two
    different values, before any row is evaluated; these checks run here.
    Rows come in grid order, row-major in axis order, as each block of
    points is evaluated; a row whose document fails to build or to evaluate
    carries the error message instead of a report. The document is never
    modified. The hour is None for a daily sweep, else ``spec.time_hours``
    or, when that is None, the base scenario's peak hour.
    """
    base = build_scenario(document)
    steps = _steps(document, spec.param_path)
    keys = [key for _, key in steps]
    if spec.param2_path is not None and keys == [key for _, key in _steps(document, spec.param2_path)]:
        raise ParameterPathError(f"parameter paths '{spec.param_path}' and '{spec.param2_path}' address the same value")
    t = None if spec.daily else base.traffic.peak_hour if spec.time_hours is None else spec.time_hours
    return base, t, _rows(_points(document, steps, keys, spec, base, t), t)


def _rows(points: Iterator, t: float | None) -> Iterator[SweepRow]:
    """The rows of ``points`` (``_points``) at ``t``, evaluated in blocks of
    consecutive points that share a geometry (``same_geometry`` with the
    first point it was compiled for) and a sample count.

    A block ends when a point's geometry differs, which is then compiled
    once; when its sample count differs, and the geometry is kept; or once
    its evaluated points fill one chunk of rows, or it holds a chunk's
    number of entries. A point whose ``point_inputs`` equal the previous
    point's, the table compared as plain numbers (exact, as
    ``point_inputs`` says) and the arrays by identity or bytes, is a
    repeat: it takes that point's report or error, and is not evaluated.
    A failing point ends such a run, but neither ends
    a block nor compiles a geometry. Repeats and failing points take no
    rows. Every row is made at the end of its block (``_evaluated``).
    """
    block: list[tuple[tuple[Any, ...], NetworkScenario | Exception | None]] = []
    inputs: list[tuple] = []
    first = geometry = last = row = None
    per_block = entries = samples = 1
    for values, built, new in points:
        if new is not None:
            moved = first is None or not same_geometry(first, built)
            if moved or len(new[0]) != samples:
                row = yield from _evaluated(block, geometry, t, inputs, row)
                block, inputs, last = [], [], None
                if moved:
                    first, geometry = built, plan_geometry(built)
                    entries = geometry.rows_per_chunk
                samples = len(new[0])
                per_block = max(1, entries // samples)
            factors, kinds, table = new
            # a sweep shares the factors and kinds arrays of equal points; the tables are new each point
            if (
                last is not None
                and table == last[2]
                and (factors is last[0] or factors.tobytes() == last[0].tobytes())
                and (kinds is last[1] or kinds.tobytes() == last[1].tobytes())
            ):
                built = None
            else:
                inputs.append(new)
        last = new
        block.append((values, built))
        if len(inputs) >= per_block or len(block) >= entries:
            row = yield from _evaluated(block, geometry, t, inputs, row)
            block, inputs = [], []
    yield from _evaluated(block, geometry, t, inputs, row)


def _evaluated(
    block: list, geometry: Geometry | None, t: float | None, inputs: list, row: SweepRow | None
) -> Iterator[SweepRow]:
    """The rows of one block: its built points evaluated together, and each
    repeat (None) given the outcome of the row before it, ``row`` for the
    first. Returns the last row."""
    reports = iter(evaluate_block(geometry, inputs, t) if inputs else ())
    for values, built in block:
        if built is None:
            row = SweepRow(values, row.report, row.error)
        else:
            report = next(reports) if isinstance(built, NetworkScenario) else built
            row = SweepRow(values, report) if isinstance(report, MetricReport) else SweepRow(values, None, str(report))
        yield row
    return row


class Argmax:
    """Running argmax of a metric over sweep rows, ties to the smallest value(s)
    (``_ordered``: a number before any other value). A metric not in
    ``METRICS`` raises ValueError."""

    def __init__(self, metric: str = "e3") -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric '{metric}', expected one of {METRICS}")
        self.metric = metric
        self.best: SweepRow | None = None
        self.value = float("-inf")

    def add(self, row: SweepRow) -> None:
        """Take ``row`` into account; failed rows are skipped."""
        if row.report is None:
            return
        value = getattr(row.report, self.metric)
        best = self.best
        if best is None or value > self.value or (
            value == self.value and _ordered(row.values) < _ordered(best.values)
        ):
            self.best, self.value = row, value

    def result(self) -> tuple[tuple[Any, ...], float]:
        """(axis values, metric value) of the best row. Raises if every row failed."""
        if self.best is None:
            raise ValueError("all sweep rows failed; nothing to maximize")
        return self.best.values, self.value


def _ordered(value: Any) -> tuple[int, str, Any]:
    """The sort key of a row's axis values, a total order as an axis may mix
    types (``benchmark_cost=max-kind,100``) or hold records: a number before
    any other value, other values by type name, and values of one type in
    their own order, a list or tuple entry by entry, a dict by its sorted
    items."""
    if isinstance(value, numbers.Real):
        return (0, "", value)
    if isinstance(value, dict):
        return (1, "dict", tuple(sorted((str(k), _ordered(v)) for k, v in value.items())))
    return (1, type(value).__name__, tuple(map(_ordered, value)) if isinstance(value, (list, tuple)) else value)
