"""Parameter sweeps over scenario documents: grids, argmax, Pareto fronts.

A sweep evaluates copies of a base scenario document with one or two
values set to each grid value, never touching the base. A parameter path
addresses a value of the parsed JSON document by key, ``key[i]`` list
index, or list-entry id: ``kinds.ap.cache_size``, ``kinds[0].xhaul.medium``,
``base_stations.grid.kind``, ``ues.uniform_random.count``, ``seed``. Its
last key may be one the document leaves at its default. Each grid point is
built by ``document``; a row that fails a schema or invariant check carries
the message and the sweep continues. Consecutive points that share a
geometry are evaluated together, a block of points at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .allocation import Geometry, plan_geometry, same_geometry
from .document import _build, build_scenario, section_keys
from .metrics import MetricReport, evaluate_block
from .scenario import NetworkScenario

METRICS = ("se", "ee", "ce", "e3")

#: Pareto objectives and their optimization direction (+1 max, -1 min).
PARETO_OBJECTIVES = {"throughput": 1, "total_power": -1, "cost_rate": -1}

_SEGMENT = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(\[(?P<index>\d+)\])?$")

#: Keys that name a list entry, so ``kinds.ap`` is the kind whose kind_id is "ap".
_ID_KEYS = ("kind_id", "bs_id", "ue_id")


class ParameterPathError(ValueError):
    """A sweep parameter path does not resolve in the scenario document."""


@dataclass(frozen=True)
class SweepSpec:
    """Axes and evaluation time of one sweep."""

    param_path: str
    values: tuple[Any, ...]
    param2_path: str | None = None
    values2: tuple[Any, ...] | None = None
    time_hours: float | None = None
    daily: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.values2 is not None:
            object.__setattr__(self, "values2", tuple(self.values2))
        if not self.values:
            raise ValueError("SweepSpec: at least one value per axis required")
        if (self.param2_path is None) != (self.values2 is None):
            raise ValueError("SweepSpec: param2_path and values2 must be given together")
        if self.values2 is not None and not self.values2:
            raise ValueError("SweepSpec: at least one value per axis required")


@dataclass(frozen=True)
class SweepRow:
    """One grid point: axis value(s) and its report, or the error that failed it."""

    values: tuple[Any, ...]
    report: MetricReport | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """The rows of a sweep and the base scenario its document built."""

    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    base: NetworkScenario


def _steps(document: Any, path: str) -> list[tuple[Any, Any]]:
    """(container, key) pairs leading from the document root to ``path``."""
    steps: list[tuple[Any, Any]] = []
    node, section = document, ()
    segments = path.split(".")
    for n, raw in enumerate(segments):
        m = _SEGMENT.match(raw)
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


def resolve_parameter(document: dict[str, Any], path: str) -> Any:
    """Value at ``path`` in the document; None for a key left at its default.

    Raises ParameterPathError, naming the path, when it does not resolve.
    """
    container, key = _steps(document, path)[-1]
    return container.get(key) if isinstance(container, dict) else container[key]


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


def _points(document: dict[str, Any], spec: SweepSpec) -> Iterator[tuple[tuple[Any, ...], Any]]:
    """(axis values, document) of every grid point, in grid order; a point
    whose second path does not resolve gets its ParameterPathError instead.

    Each path is resolved once: the first on ``document``, the second once
    per first-axis value, on that value's document, as setting the first
    value may rename the entry the second path names.
    """
    steps = _steps(document, spec.param_path)
    for v1 in spec.values:
        point = _assign(steps, v1)
        if spec.param2_path is None:
            yield (v1,), point
            continue
        try:
            steps2 = _steps(point, spec.param2_path)
        except ParameterPathError as exc:
            steps2, point = None, exc
        for v2 in spec.values2:
            yield (v1, v2), point if steps2 is None else _assign(steps2, v2)


def open_sweep(document: dict[str, Any], spec: SweepSpec) -> tuple[NetworkScenario, Iterator[SweepRow]]:
    """The base scenario of a sweep, and an iterator over its rows.

    The document must build, and both paths must resolve in it, before
    any row is evaluated; both checks run here. Rows come in grid order,
    row-major in axis order, as each block of points is evaluated; a row
    whose document fails to build or to evaluate carries the error message
    instead of a report. The document is never modified. Without
    ``spec.daily`` every row is evaluated at ``spec.time_hours``, or else
    at the base scenario's peak hour.
    """
    base = build_scenario(document)
    resolve_parameter(document, spec.param_path)
    if spec.param2_path is not None:
        resolve_parameter(document, spec.param2_path)
    if spec.daily:
        t = None
    else:
        t = spec.time_hours if spec.time_hours is not None else base.traffic.peak_hour
    return base, _rows(document, spec, base, t)


def _rows(
    document: dict[str, Any], spec: SweepSpec, base: NetworkScenario, t: float | None
) -> Iterator[SweepRow]:
    """Build every grid point and evaluate it in blocks of consecutive points
    that share a geometry (``same_geometry`` with the group's first point).

    A group's geometry is compiled once; a block holds as many points as
    one chunk of rows takes, so memory does not grow with the grid.
    """
    block: list[tuple[tuple[Any, ...], NetworkScenario | Exception]] = []
    first = geometry = None
    per_block = 1
    for values, point in _points(document, spec):
        built: NetworkScenario | Exception = point
        if not isinstance(point, ParameterPathError):
            try:
                built = _build(point, (document, base))
            except (ValueError, ArithmeticError) as exc:
                built = exc
        if isinstance(built, NetworkScenario) and (first is None or not same_geometry(first, built)):
            yield from _evaluated(block, geometry, t)
            block = []
            first, geometry = built, plan_geometry(built)
            samples = built.traffic.samples_per_day if t is None else 1
            per_block = max(1, geometry.rows_per_chunk // samples)
        block.append((values, built))
        if len(block) >= per_block:
            yield from _evaluated(block, geometry, t)
            block = []
    yield from _evaluated(block, geometry, t)


def _evaluated(block: list, geometry: Geometry | None, t: float | None) -> Iterator[SweepRow]:
    """The rows of one block: its built points evaluated together."""
    points = [built for _, built in block if isinstance(built, NetworkScenario)]
    reports = iter(evaluate_block(points, t, geometry) if points else ())
    for values, built in block:
        report = next(reports) if isinstance(built, NetworkScenario) else built
        if isinstance(report, MetricReport):
            yield SweepRow(values, report)
        else:
            yield SweepRow(values, None, error=str(report))


def run_sweep(document: dict[str, Any], spec: SweepSpec) -> SweepResult:
    """Evaluate the scenario document at every grid point of the spec.

    Collects the rows of ``open_sweep``, which says how they are made.
    """
    base, rows = open_sweep(document, spec)
    return SweepResult(spec=spec, rows=tuple(rows), base=base)


class Argmax:
    """Running argmax of a metric over sweep rows, ties to the smallest value(s)."""

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
        if best is None or value > self.value or (value == self.value and row.values < best.values):
            self.best, self.value = row, value

    def result(self) -> tuple[tuple[Any, ...], float]:
        """(axis values, metric value) of the best row. Raises if every row failed."""
        if self.best is None:
            raise ValueError("all sweep rows failed; nothing to maximize")
        return self.best.values, self.value


def argmax(result: SweepResult, metric: str = "e3") -> tuple[tuple[Any, ...], float]:
    """Grid point maximizing the metric, ties broken by smallest value(s).

    Returns (axis values, metric value). Raises ValueError for a metric
    not in ``METRICS`` and if every row failed.
    """
    best = Argmax(metric)
    for row in result.rows:
        best.add(row)
    return best.result()


def _objective_vector(row: SweepRow, objectives: Sequence[str]) -> tuple[float, ...]:
    out = []
    for name in objectives:
        if name == "throughput":
            out.append(row.report.throughput_bps)
        elif name == "total_power":
            out.append(row.report.total_power_w)
        elif name == "cost_rate":
            out.append(row.report.cost_rate)
        else:
            raise ValueError(f"unknown objective '{name}', expected one of {tuple(PARETO_OBJECTIVES)}")
    return tuple(out)


def pareto_front(result: SweepResult, objectives: Sequence[str]) -> tuple[SweepRow, ...]:
    """Non-dominated rows under the stated objectives, in axis order.

    Throughput is maximized; total power and cost rate are minimized. A row
    is dropped when some other row is at least as good on every objective
    and strictly better on one.
    """
    if not objectives:
        raise ValueError("at least one objective required")
    directions = []
    for name in objectives:
        if name not in PARETO_OBJECTIVES:
            raise ValueError(f"unknown objective '{name}', expected one of {tuple(PARETO_OBJECTIVES)}")
        directions.append(PARETO_OBJECTIVES[name])
    candidates = [row for row in result.rows if row.report is not None]
    vectors = {
        id(row): tuple(d * v for d, v in zip(directions, _objective_vector(row, objectives)))
        for row in candidates
    }

    def dominates(a: SweepRow, b: SweepRow) -> bool:
        va, vb = vectors[id(a)], vectors[id(b)]
        return all(x >= y for x, y in zip(va, vb)) and any(x > y for x, y in zip(va, vb))

    return tuple(
        row for row in candidates if not any(dominates(other, row) for other in candidates)
    )
