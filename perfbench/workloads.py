"""Workload inputs and output checks of the e3sim benchmark.

Three workloads, each a list of ``e3`` command lines run through
``e3sim.cli.main``:

``paper_sweeps``
    The shipped paper studies (Figs. 2-4), 2,399 output rows on scenarios
    with 1-4 stations and 10-24 UEs. Time spreads over sweep, metrics,
    allocation, cache and association; physical capacity is never used.
    The inputs are the checked-in scenarios, so the seed does not change
    them.
``daily_physical``
    One ``eval --daily`` of a 10 x 10 grid serving 2,000 UEs in physical
    radio mode: interference-limited capacity and association, both
    recomputed for each of the 24 daily samples.
``metro_sweep``
    A 3-point X-Haul sweep at one hour on a 20 x 20 grid serving 10,000
    UEs in abstract mode: almost all association, and no sweep point
    changes geometry.

The generated workloads reuse ``scenarios/fig3.json`` with a larger
catalog, a station grid, a seeded uniform UE layout and a radio mode.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIOS = ROOT / "scenarios"
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOADS = ("paper_sweeps", "daily_physical", "metro_sweep")

#: Relative tolerance of generated-workload metrics against the reference.
#: An array core may differ from the scalar seed code by ~1e-11 relative.
REL_TOL = 1e-9

METRIC_COLUMNS = (
    "throughput_bps",
    "weighted_throughput_bps",
    "total_power_w",
    "weighted_power_w",
    "se_bps_per_hz",
    "ee_bit_per_joule",
    "ce_bit_per_cost",
    "e3_bit_per_joule",
)

CACHE_SIZES = "kinds.ap.cache_size=0:20:1"

#: Full and smoke-test sizes of the generated workloads.
SIZES = {
    "daily_physical": {
        "full": {"rows": 10, "cols": 10, "ues": 2000, "area_m": 1000.0},
        "tiny": {"rows": 2, "cols": 2, "ues": 40, "area_m": 200.0},
    },
    "metro_sweep": {
        "full": {"rows": 20, "cols": 20, "ues": 10000, "area_m": 2000.0},
        "tiny": {"rows": 3, "cols": 3, "ues": 60, "area_m": 300.0},
    },
}
RADIO_MODE = {"daily_physical": "physical", "metro_sweep": "abstract"}


@dataclass(frozen=True)
class Command:
    """One ``e3`` invocation, the CSV it writes and its number of data rows."""

    label: str
    argv: tuple[str, ...]
    out: str
    rows: int


@dataclass(frozen=True)
class Workload:
    """Commands to time, and the scenario documents set-up builds."""

    name: str
    seed: int
    commands: tuple[Command, ...]
    documents: tuple[str, ...]
    tiny: bool = False


def _write_json(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    return str(path)


def generated_document(name: str, seed: int, size: str = "full") -> dict:
    """fig3.json with a station grid, a uniform UE layout and a radio mode."""
    dims = SIZES[name][size]
    doc = json.loads((SCENARIOS / "fig3.json").read_text(encoding="utf-8"))
    doc["cache"]["catalog_size"] = 200
    doc["base_stations"] = {
        "grid": {"kind": "ap", "rows": dims["rows"], "cols": dims["cols"], "spacing_m": 100.0}
    }
    doc["ues"]["uniform_random"]["count"] = dims["ues"]
    doc["ues"]["uniform_random"]["area_m"] = [dims["area_m"], dims["area_m"]]
    doc["radio_mode"] = RADIO_MODE[name]
    doc["seed"] = seed
    return doc


def _paper_sweeps(workdir: Path, tiny: bool) -> tuple[list[Command], list[str]]:
    fig2 = json.loads((SCENARIOS / "fig2.json").read_text(encoding="utf-8"))
    commands, documents = [], []
    # The CLI cannot sweep base_stations.grid.kind, so Fig. 2 is one eval per option.
    for option in ("opt1", "opt2", "opt3", "opt4", "opt5"):
        doc = copy.deepcopy(fig2)
        doc["base_stations"]["grid"]["kind"] = option
        path = _write_json(workdir / f"fig2_{option}.json", doc)
        documents.append(path)
        out = str(workdir / f"fig2_{option}.csv")
        commands.append(Command(f"fig2_{option}", ("eval", path, "--daily", "--out", out), out, 1))
    fig3, c2, c3 = (str(SCENARIOS / f) for f in ("fig3.json", "fig4_c2.json", "fig4_c3.json"))
    documents += [fig3, c2, c3]
    # (label, scenario, extra flags, values of the second axis)
    sweeps = [
        ("fig3_cache", fig3, ("--argmax", "e3"), 1),
        ("fig3_cache_xhaul", fig3,
         ("--param2", "kinds.ap.xhaul.capacity_bps=1e6:1e8:1e6", "--argmax", "e3"), 100),
        ("fig4_c2_strategy", c2, ("--param2", "cache.strategy=random_fill,top_popular"), 2),
        ("fig4_c3_zipf", c3, ("--param2", "cache.zipf_exponent=0:2:0.2"), 11),
    ]
    if tiny:
        sweeps = sweeps[:1]
    for label, scenario, extra, values2 in sweeps:
        out = str(workdir / f"{label}.csv")
        argv = ("sweep", scenario, "--param", CACHE_SIZES, *extra, "--daily", "--out", out)
        commands.append(Command(label, argv, out, 21 * values2))
    return commands, documents


def prepare(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Write the workload's input documents into ``workdir`` and list its commands.

    ``tiny`` shrinks the workload for the smoke test: fewer paper sweeps,
    smaller generated scenarios.
    """
    if name == "paper_sweeps":
        commands, documents = _paper_sweeps(workdir, tiny)
        return Workload(name, seed, tuple(commands), tuple(documents), tiny)
    doc = _write_json(workdir / f"{name}.json", generated_document(name, seed, "tiny" if tiny else "full"))
    out = str(workdir / f"{name}.csv")
    if name == "daily_physical":
        command = Command(name, ("eval", doc, "--daily", "--out", out), out, 1)
    elif name == "metro_sweep":
        argv = ("sweep", doc, "--param", "kinds.ap.xhaul.capacity_bps=1e7,2e7,4e7",
                "--time", "20", "--out", out)
        command = Command(name, argv, out, 3)
    else:
        raise ValueError(f"unknown workload '{name}', expected one of {WORKLOADS}")
    return Workload(name, seed, (command,), (doc,), tiny)


def data_lines(path: str) -> list[str]:
    """CSV lines after the ``#`` manifest, header first."""
    with open(path, encoding="utf-8", newline="") as f:
        return [line for line in f.read().split("\n") if line and not line.startswith("#")]


def row_hash(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def _hash_failures(lines: list[str], expected: list[str], rows: int) -> int:
    """Failed rows of one CSV against its recorded line hashes (header first)."""
    if not lines or len(expected) != rows + 1 or row_hash(lines[0]) != expected[0]:
        return rows
    got = [row_hash(line) for line in lines[1:]]
    return sum(1 for i in range(rows) if i >= len(got) or got[i] != expected[i + 1])


def _row_ok(record: dict | None, want: list[float] | None) -> bool:
    if record is None or record.get("error"):
        return False
    try:
        values = [float(record[c]) for c in METRIC_COLUMNS]
    except (KeyError, TypeError, ValueError):
        return False
    if not all(math.isfinite(v) and v > 0 for v in values):
        return False
    return want is None or all(
        math.isclose(v, w, rel_tol=REL_TOL, abs_tol=0.0) for v, w in zip(values, want)
    )


def check(workload: Workload, reference: dict) -> tuple[int, int, list[str]]:
    """Check every output row: (rows attempted, rows failed, messages).

    paper_sweeps rows must match the recorded line hashes byte for byte.
    Generated rows must be error-free with finite positive metrics, and
    within ``REL_TOL`` of the reference values when the seed has them.
    """
    attempted = failed = 0
    messages = []
    for command in workload.commands:
        try:
            lines = data_lines(command.out)
        except OSError as exc:
            lines = []
            messages.append(f"{command.label}: {exc}")
        rows = command.rows
        if workload.name == "paper_sweeps":
            bad = _hash_failures(lines, reference["paper_sweeps"][command.label], rows)
        else:
            records = list(csv.DictReader(lines))
            wanted = None if workload.tiny else reference[workload.name].get(str(workload.seed))
            bad = sum(
                1 for i in range(rows)
                if not _row_ok(records[i] if i < len(records) else None,
                               None if wanted is None or i >= len(wanted) else wanted[i])
            )
        attempted += rows
        failed += bad
        if bad:
            messages.append(f"{command.label}: {bad} of {rows} rows failed the output check")
    return attempted, failed, messages
