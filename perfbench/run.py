"""Benchmark of the e3sim command line, end to end and per layer.

    python3 perfbench/run.py --workload paper_sweeps --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each sample is a fresh single-threaded worker process that runs the
workload's command list through ``e3sim.cli.main`` from the checkout's
``src`` (see workloads.py for the workloads). Samples repeat while the
next would still end within ``--seconds``; every output row of every
sample is checked.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (wall time of the
command list, after ``import e3sim``), ``setup_s`` (time for a fresh
interpreter to import e3sim and build every scenario document) and
``peak_rss_mb`` (median ``ru_maxrss`` of the worker processes). Each time
is the median over the run's samples of the sample's time multiplied by
its ``host_scale`` (see worker.py): the time at a fixed reference CPU
speed, because on a shared host the same code's raw wall time moves by up
to 2x from one minute to the next. On a shared 2-vCPU VM, over five 30 s
runs of daily_physical, raw sample times ranged 4.7-7.5 s and scaled ones
4.9-5.5 s. The raw times are kept in the results file.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of tracer.py, each the median over the traced samples
(seconds scaled the same way), plus ``trace.overhead_ratio``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (output rows) and ``metrics``. A results file with the samples
and the environment goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = wl.BENCH_DIR
ROOT = wl.ROOT
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PER_SAMPLE = 3
WORKER_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Which end-to-end metric each layer metric should move, and on which workload:
#   radio.capacity_*      wall_s on daily_physical; nothing on the abstract
#                         workloads, where capacity is a constant lookup
#   radio.associate_*     wall_s on metro_sweep, daily_physical, paper_sweeps
#   calls of radio.associate, radio.capacity and cache.popularity fall when
#                         time-independent work leaves the 24-sample day loop:
#                         daily_physical and paper_sweeps, not metro_sweep
#   cache.*, allocation.*, metrics.*, energy_cost.*, sweep.*, cli.*
#                         wall_s on paper_sweeps (fixed costs per call on
#                         scenarios of 1-4 stations and 10-24 UEs)
#   model.build_*         setup_s on every workload, most on metro_sweep; wall_s
#                         on paper_sweeps if sweeps rebuild the scenario per point
#   trace.overhead_ratio  traced over untraced wall_s
# peak_rss_mb should move on metro_sweep, whose UEs x stations is 4 million.

#: (metric, "op" or "layer", name in the trace summary, field, unit).
PER_LAYER = (
    ("model.build_s", "op", "model.build", "self_s", "s"),
    ("model.build_calls", "op", "model.build", "calls", "count"),
    ("radio.associate_s", "op", "radio.associate", "self_s", "s"),
    ("radio.associate_calls", "op", "radio.associate", "calls", "count"),
    ("radio.capacity_s", "op", "radio.capacity", "self_s", "s"),
    ("radio.capacity_calls", "op", "radio.capacity", "calls", "count"),
    ("cache.popularity_s", "op", "cache.popularity", "self_s", "s"),
    ("cache.popularity_calls", "op", "cache.popularity", "calls", "count"),
    ("cache.hit_ratio_s", "op", "cache.hit_ratio", "self_s", "s"),
    ("allocation.self_s", "layer", "allocation", "self_s", "s"),
    ("allocation.allocate_calls", "op", "allocation.allocate", "calls", "count"),
    ("allocation.max_min_s", "op", "allocation.max_min", "self_s", "s"),
    ("allocation.max_min_calls", "op", "allocation.max_min", "calls", "count"),
    ("energy_cost.self_s", "layer", "energy_cost", "self_s", "s"),
    ("energy_cost.calls", "layer", "energy_cost", "calls", "count"),
    ("metrics.self_s", "layer", "metrics", "self_s", "s"),
    ("metrics.evaluate_calls", "op", "metrics.evaluate", "calls", "count"),
    ("metrics.daily_calls", "op", "metrics.daily", "calls", "count"),
    ("sweep.self_s", "layer", "sweep", "self_s", "s"),
    ("sweep.set_parameter_s", "op", "sweep.set_parameter", "self_s", "s"),
    ("sweep.set_parameter_calls", "op", "sweep.set_parameter", "calls", "count"),
    ("cli.self_s", "layer", "cli", "self_s", "s"),
)
#: Per-layer metrics measured by run.py itself rather than from spans.
RUN_METRICS = {"cli.csv_bytes": "bytes", "trace.overhead_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not run: missing checkout files or a crashed worker."""


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def worker_env() -> dict[str, str]:
    """Environment of every worker: single-threaded BLAS/OpenMP, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "E3_SEED")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job: dict, workdir: Path, env: dict[str, str]) -> dict:
    """Run one worker process on ``job`` and return its JSON result."""
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{job['mode']} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(summary: dict) -> dict[str, float]:
    return {
        metric: summary["ops" if kind == "op" else "layers"].get(name, {}).get(field, 0)
        for metric, kind, name, field, _ in PER_LAYER
    }


def metric_units(trace: bool) -> dict[str, str]:
    if not trace:
        return dict(END_TO_END)
    return {**{m[0]: m[4] for m in PER_LAYER}, **RUN_METRICS}


def measure(workload: wl.Workload, seconds: float, trace: bool, workdir: Path,
            spans_out: str | None = None) -> dict:
    """Sample the workload for ``seconds`` and return metrics, checks and samples.

    A new sample starts only if the previous one would still end before the
    deadline, so a run lasts about ``seconds``; there is always one sample
    (with ``trace``, one untraced and one traced).
    """
    env = worker_env()
    reference = wl.load_reference()
    base = {"src": str(SRC), "documents": list(workload.documents),
            "commands": [list(c.argv) for c in workload.commands]}
    samples: dict[str, list] = {"setup_s": [], "wall_s": [], "raw_wall_s": [],
                                "host_scale": [], "maxrss_kb": [],
                                "traced_wall_s": [], "layers": []}
    attempted = failed = 0
    messages: list[str] = []
    csv_bytes = 0
    info: dict = {}
    start = time.monotonic()
    deadline = start + seconds
    traced_next = False
    while True:
        if not trace:
            # Spread set-up samples over the run, so one noisy moment does not set the result.
            for _ in range(SETUP_PER_SAMPLE):
                result = spawn({**base, "mode": "setup"}, workdir, env)
                samples["setup_s"].append(result["setup_s"] * result["host_scale"])
        for command in workload.commands:
            Path(command.out).unlink(missing_ok=True)
        job = {**base, "mode": "run", "trace": traced_next,
               "spans_out": spans_out if traced_next and not samples["layers"] else None}
        result = spawn(job, workdir, env)
        info = {"e3sim_file": result["e3sim_file"], "numpy": result["numpy"]}
        if not Path(result["e3sim_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"measured {result['e3sim_file']}, not the checkout's {SRC}")
        if any(result["exit_codes"]):
            messages.append(f"exit codes {result['exit_codes']}: {result.get('output', '')}")
        ok, bad, msgs = wl.check(workload, reference)
        attempted, failed = attempted + ok, failed + bad
        messages += msgs
        scale = result["host_scale"]
        if traced_next:
            samples["traced_wall_s"].append(result["wall_s"] * scale)
            layers = layer_metrics(result["trace"])
            samples["layers"].append({m: v * scale if m.endswith("_s") else v
                                      for m, v in layers.items()})
            csv_bytes = sum(Path(c.out).stat().st_size for c in workload.commands
                            if Path(c.out).exists())
        else:
            samples["wall_s"].append(result["wall_s"] * scale)
            samples["raw_wall_s"].append(result["wall_s"])
            samples["host_scale"].append(scale)
            samples["maxrss_kb"].append(result["maxrss_kb"])
        traced_next = trace and not traced_next
        now = time.monotonic()
        # One pass is a sample, or in trace mode an untraced and a traced sample.
        per_pass = (now - start) / len(samples["wall_s"])
        if now + per_pass > deadline and (not trace or samples["layers"]) and not traced_next:
            break
    if trace:
        metrics = {m: statistics.median(layers[m] for layers in samples["layers"])
                   for m in samples["layers"][0]}
        metrics["cli.csv_bytes"] = csv_bytes
        metrics["trace.overhead_ratio"] = (statistics.median(samples["traced_wall_s"])
                                           / statistics.median(samples["wall_s"]))
    else:
        metrics = {
            "wall_s": statistics.median(samples["wall_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["maxrss_kb"]) / 1024.0,
        }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "messages": messages, "samples": samples, "info": info}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    environment = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
    }
    spans_out = str(results_dir / f"spans_{name}_seed{seed}.json") if trace else None
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        workload = wl.prepare(name, seed, workdir)
        outcome = measure(workload, seconds, trace, workdir, spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    environment.update(outcome.pop("info"))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment, **outcome}
    path = results_dir / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "e3sim" / "cli.py", wl.SCENARIOS / "fig3.json") if not p.is_file()]
    if missing:
        print(f"error: not an e3sim checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units(bool(args.trace))
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for message in record["messages"][:20]:
            print(f"{name}: check failed: {message}")
        n = len(record["samples"]["layers" if args.trace else "wall_s"])
        for metric, value in record["metrics"].items():
            print(f"{name:15s} {metric:28s} {value:14.6g} {units[metric]:6s} (n={n})")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            out["metrics"][key] = {"value": value, "unit": units[metric]}
        out["attempted"] += record["attempted"]
        out["failed"] += record["failed"]
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
