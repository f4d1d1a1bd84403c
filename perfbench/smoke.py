"""Smoke test of the benchmark's own code at a tiny size.

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

Runs every workload generator, the output checks and the tracer on tiny
scenarios, and checks that each run emits exactly the metrics, with their
units, that BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, BINDINGS  # noqa: E402


def _workdir() -> Path:
    run.OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="smoke-", dir=run.OUT_DIR))


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_every_workload_emits_the_declared_metrics():
    workdir = _workdir()
    try:
        for name in wl.WORKLOADS:
            workload = wl.prepare(name, 5, workdir, tiny=True)
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                outcome = run.measure(workload, 0.0, trace, workdir)
                assert outcome["failed"] == 0, outcome["messages"]
                assert outcome["attempted"] > 0
                units = run.metric_units(trace)
                assert {m: units[m] for m in outcome["metrics"]} == _declared(kind), name
            assert outcome["metrics"]["metrics.evaluate_calls"] > 0
            assert outcome["metrics"]["trace.overhead_ratio"] > 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_bindings_name_known_layers():
    assert {layer for _, _, layer, _ in BINDINGS} == set(LAYERS)
    assert {m[2].split(".")[0] for m in run.PER_LAYER} <= set(LAYERS)


def test_a_changed_row_fails_the_check():
    workdir = _workdir()
    try:
        workload = wl.prepare("paper_sweeps", 0, workdir, tiny=True)
        run.measure(workload, 0.0, False, workdir)
        out = Path(workload.commands[-1].out)
        lines = out.read_text(encoding="utf-8").split("\n")
        last = max(i for i, line in enumerate(lines) if line)
        lines[last] = lines[last].replace("1", "2", 1)
        out.write_text("\n".join(lines), encoding="utf-8")
        attempted, failed, _ = wl.check(workload, wl.load_reference())
        assert (attempted, failed) == (26, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_to_run_without_the_program():
    workdir = _workdir()
    try:
        shutil.copy(wl.ROOT / "BENCHMARK.json", workdir)
        shutil.copytree(wl.BENCH_DIR, workdir / wl.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{wl.BENCH_DIR.name}/run.py", "--workload", "metro_sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=workdir, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    tests = [f for n, f in sorted(globals().items()) if n.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
