"""Command-line front end: evaluate scenarios, run sweeps, emit CSV.

Commands:
    e3 eval <scenario.json> [--time H | --daily] [--out report.csv]
    e3 sweep <scenario.json> --param PATH=SPEC [--param2 PATH=SPEC]
             [--argmax M] [--time H | --daily] --out grid.csv
    e3 validate <scenario.json>

SPEC is either an inclusive START:STOP:STEP range or a comma list of
values. The E3_SEED environment variable overrides the scenario seed.
Output CSV is UTF-8 with LF line endings, one fixed column set, and a
``#``-prefixed manifest header; identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import operator
import os
import re
import shlex
import sys
from typing import Any, Iterable, Iterator, Sequence, TextIO

from . import __version__
from .document import build_scenario
from .metrics import MetricReport, evaluate, evaluate_daily, validate_scenario
from .model import ScenarioError
from .sweep import METRICS, Argmax, SweepSpec, open_sweep

#: The reported metrics, in CSV column order: ``MetricReport`` attribute,
#: CSV column, printed label and unit.
METRIC_TABLE = (
    ("throughput_bps", "throughput_bps", "throughput", "bit/s"),
    ("weighted_throughput_bps", "weighted_throughput_bps", "weighted throughput", "bit/s"),
    ("total_power_w", "total_power_w", "total power", "W"),
    ("weighted_power_w", "weighted_power_w", "weighted power", "W"),
    ("se", "se_bps_per_hz", "se", "bit/s/Hz"),
    ("ee", "ee_bit_per_joule", "ee", "bit/J"),
    ("ce", "ce_bit_per_cost", "ce", "bit/cost-unit"),
    ("e3", "e3_bit_per_joule", "e3", "bit/J"),
)

CSV_COLUMNS = ("param1", "param2", *(column for _, column, _, _ in METRIC_TABLE), "error")

#: A report's metric values, in ``METRIC_TABLE`` order.
_metric_values = operator.attrgetter(*(attribute for attribute, *_ in METRIC_TABLE))

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_IO = 2

#: Most values one sweep axis, or a whole two-axis grid, may hold.
MAX_GRID_POINTS = 100_000


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".12g")


def _metric_text(report: MetricReport | None) -> str:
    """The metric cells of a CSV row, ``report``'s values in ``METRIC_TABLE``
    order joined by commas; empty cells for no report."""
    if report is None:
        return "," * (len(METRIC_TABLE) - 1)
    return ",".join(map(_fmt, _metric_values(report)))


#: A character for which ``csv.writer`` may quote a field; a lone ``\r`` is
#: quoted by some Python versions only, so such rows are left to the writer.
_QUOTED = re.compile('[,"\r\n]')


#: The axis cells of a CSV row: its param1 and param2 cells (``_fmt``), and
#: whether either may need quoting.
Axes = tuple[str, str, bool]

#: A CSV row: its ``Axes``, its ``_metric_text`` and its error or None.
Row = tuple[Axes, str, str | None]


def _grid_axes(values1: Sequence[Any], values2: Sequence[Any]) -> Iterator[Axes]:
    """The ``Axes`` of each point of the ``values1`` x ``values2`` grid, in
    grid order; each value is formatted and searched once. A None value
    leaves its cell empty, as ``values2`` (None,) does for a one-path sweep."""
    second = [(cell, _QUOTED.search(cell) is not None) for cell in map(_fmt, values2)]
    for param1 in map(_fmt, values1):
        quoted = _QUOTED.search(param1) is not None
        for param2, quoted2 in second:
            yield param1, param2, quoted or quoted2


def _write_rows(f: TextIO, rows: Iterable[Row]) -> None:
    """Write each row as one CSV line, the bytes of ``csv.writer(f,
    lineterminator="\\n")``: a row whose axis cells and error need no
    quoting is formatted as text, any other goes through ``csv.writer``."""
    writer = csv.writer(f, lineterminator="\n")
    write = f.write
    for (param1, param2, quoted), cells, error in rows:
        error = error or ""
        if not quoted and (not error or _QUOTED.search(error) is None):
            write(f"{param1},{param2},{cells},{error}\n")
        else:
            writer.writerow([param1, param2, *cells.split(","), error])


def _write_csv(path: str, manifest: list[str], rows: Iterable[Row]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for line in manifest:
            f.write(line + "\n")
        csv.writer(f, lineterminator="\n").writerow(CSV_COLUMNS)
        _write_rows(f, rows)


def _print_report(report: MetricReport, out: TextIO) -> None:
    when = "daily-average" if report.is_daily_average else f"t = {report.time_hours:g} h"
    print(f"evaluated at: {when}", file=out)
    for attribute, _, label, unit in METRIC_TABLE:
        print(f"  {label:<22}{getattr(report, attribute):.6g} {unit}", file=out)


def _load_document(path: str) -> dict[str, Any]:
    """Read the scenario document at ``path`` and apply the E3_SEED override."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = json.load(f)
        except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nesting level
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    env_seed = os.environ.get("E3_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ScenarioError(f"E3_SEED must be an integer, got '{env_seed}'") from None
        if not isinstance(document, dict):
            raise ScenarioError(f"{path}: top-level JSON value must be an object")
        document["seed"] = seed
    return document


def _check_grid_size(count: float, flag: str) -> None:
    if count > MAX_GRID_POINTS:
        raise ScenarioError(f"{flag}: more than {MAX_GRID_POINTS} grid points")


def _parse_values(spec: str, flag: str) -> tuple[Any, ...]:
    if spec.count(":") == 2:
        parts = spec.split(":")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ScenarioError(f"{flag}: bad range '{spec}', expected START:STOP:STEP") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ScenarioError(f"{flag}: range bounds must be finite, got '{spec}'")
        if step <= 0:
            raise ScenarioError(f"{flag}: range step must be > 0, got {step}")
        limit = stop + step * 1e-9
        _check_grid_size((limit - start) // step + 1, flag)
        values = []
        v = start
        while v <= limit and len(values) <= MAX_GRID_POINTS:
            values.append(v)
            v = start + len(values) * step
        if not values:
            raise ScenarioError(f"{flag}: empty range '{spec}'")
        _check_grid_size(len(values), flag)
        return tuple(values)
    values = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ScenarioError(f"{flag}: empty value in '{spec}'")
        try:
            values.append(float(token))
        except ValueError:
            values.append(token)
    _check_grid_size(len(values), flag)
    return tuple(values)


def _parse_param(arg: str, flag: str) -> tuple[str, tuple[Any, ...]]:
    if "=" not in arg:
        raise ScenarioError(f"{flag}: expected PATH=VALUES, got '{arg}'")
    path, _, spec = arg.partition("=")
    if not path:
        raise ScenarioError(f"{flag}: empty parameter path in '{arg}'")
    return path, _parse_values(spec, flag)


def _one_line(text: Any) -> str:
    """``text`` as one printed line: a line break in it is written as ``\\n`` or ``\\r``."""
    return str(text).replace("\r", "\\r").replace("\n", "\\n")


def _manifest(args: argparse.Namespace, spec_text: str, seed: int, out: str) -> list[str]:
    """The ``#`` header lines of a CSV output, one per entry (``_one_line``)."""
    entries = {
        "command": "e3 " + " ".join(shlex.quote(a) for a in args.raw_argv),
        "scenario": args.scenario,
        "spec": spec_text,
        "seed": seed,
        "version": __version__,
        "out": out,
    }
    return [f"# {key}: {_one_line(value)}" for key, value in entries.items()]


def cmd_eval(args: argparse.Namespace) -> int:
    scenario = build_scenario(_load_document(args.scenario))
    if args.daily:
        report = evaluate_daily(scenario)
        spec_text = "eval daily"
    else:
        t = args.time if args.time is not None else scenario.traffic.peak_hour
        report = evaluate(scenario, t)
        spec_text = f"eval t={t:g}"
    _print_report(report, sys.stdout)
    if args.out:
        manifest = _manifest(args, spec_text, scenario.rng_seed, args.out)
        _write_csv(args.out, manifest, [(("", "", False), _metric_text(report), None)])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    document = _load_document(args.scenario)
    path1, values1 = _parse_param(args.param, "--param")
    path2, values2 = (None, None)
    if args.param2:
        path2, values2 = _parse_param(args.param2, "--param2")
        _check_grid_size(len(values1) * len(values2), "--param2")
    spec = SweepSpec(
        param_path=path1,
        values=values1,
        param2_path=path2,
        values2=values2,
        time_hours=args.time,
        daily=args.daily,
    )
    base, t, rows = open_sweep(document, spec)
    spec_text = f"sweep {path1}={len(values1)} values"
    if path2:
        spec_text += f"; {path2}={len(values2)} values"
    spec_text += "; daily" if t is None else f"; t={t:g}"
    manifest = _manifest(args, spec_text, base.rng_seed, args.out)
    best = Argmax(args.argmax) if args.argmax else None
    written = failed = 0

    def lines():
        nonlocal written, failed
        report = cells = None
        # the rows come in grid order, so each row's axis cells are the next of the grid's
        for row, axes in zip(rows, _grid_axes(values1, values2 or (None,))):
            written += 1
            failed += bool(row.error)
            if best is not None:
                best.add(row)
            # the rows of a run of equal points share one report, formatted once
            if cells is None or row.report is not report:
                report, cells = row.report, _metric_text(row.report)
            yield axes, cells, row.error

    _write_csv(args.out, manifest, lines())
    print(_one_line(f"wrote {written} rows to {args.out}" + (f" ({failed} failed)" if failed else "")))
    if best is not None:
        values, value = best.result()
        desc = f"{path1}={_fmt(values[0])}"
        if len(values) > 1:
            desc += f", {path2}={_fmt(values[1])}"
        print(_one_line(f"argmax {args.argmax}: {desc} ({args.argmax}={_fmt(value)})"))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = build_scenario(_load_document(args.scenario))
    warnings = validate_scenario(scenario)
    for warning in warnings:
        print(f"warning: {_one_line(warning)}")
    if not warnings:
        print(_one_line(f"{args.scenario}: ok ({len(scenario.base_stations)} BSs, {len(scenario.ues)} UEs)"))
    return EXIT_OK


@functools.cache  # one parser per process: building one looks up gettext catalogs for every help text
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e3",
        description="Evaluate RAN deployment scenarios under SE, EE, CE, and E3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_time_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--time", type=float, metavar="H", help="evaluate at hour H (default: peak hour)")
        group.add_argument("--daily", action="store_true", help="average over the daily profile")

    p_eval = sub.add_parser("eval", help="evaluate one scenario")
    p_eval.add_argument("scenario")
    add_time_flags(p_eval)
    p_eval.add_argument("--out", metavar="F", help="also write a one-row CSV")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="sweep one or two parameters")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True, metavar="PATH=SPEC")
    p_sweep.add_argument("--param2", metavar="PATH=SPEC")
    p_sweep.add_argument("--argmax", metavar="METRIC", choices=METRICS)
    add_time_flags(p_sweep)
    p_sweep.add_argument("--out", required=True, metavar="F")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="build a scenario and print warnings")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    args.raw_argv = raw
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
