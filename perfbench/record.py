"""Record the output reference that run.py checks against.

    python3 perfbench/record.py

Runs every workload once through ``e3sim.cli.main`` and writes
``reference.json``: line hashes of each paper_sweeps CSV (header first) and
the metric columns of each generated-workload row for seeds 0..31. The
checked-in file was recorded from the scalar seed implementation; record
again only when an intended change of output is accepted, never to make
a failing check pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))
import e3sim.cli  # noqa: E402

REFERENCE_SEEDS = range(32)


def outputs(name: str, seed: int, workdir: Path) -> wl.Workload:
    workload = wl.prepare(name, seed, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        for command in workload.commands:
            if e3sim.cli.main(list(command.argv)) != 0:
                raise SystemExit(f"{name} seed {seed}: '{command.label}' failed")
    return workload


def main() -> int:
    reference: dict = {"paper_sweeps": {}}
    out_dir = wl.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        for command in outputs("paper_sweeps", 0, workdir).commands:
            reference["paper_sweeps"][command.label] = [
                wl.row_hash(line) for line in wl.data_lines(command.out)
            ]
        for name in ("daily_physical", "metro_sweep"):
            reference[name] = {}
            for seed in REFERENCE_SEEDS:
                (command,) = outputs(name, seed, workdir).commands
                rows = csv.DictReader(wl.data_lines(command.out))
                reference[name][str(seed)] = [
                    [float(row[c]) for c in wl.METRIC_COLUMNS] for row in rows
                ]
                print(f"recorded {name} seed {seed}", flush=True)
    wl.REFERENCE_FILE.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
