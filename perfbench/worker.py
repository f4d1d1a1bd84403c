"""One measured process of the benchmark; run.py starts a fresh one per sample.

    python3 perfbench/worker.py JOB.json

JOB holds ``mode`` ("setup" or "run"), ``src`` (put first on sys.path),
``documents``, ``commands`` (argv lists for ``e3sim.cli.main``), ``trace``
and ``spans_out``. The last stdout line is a JSON result:

* setup: ``setup_s``, seconds to import e3sim and build every document.
* run: ``wall_s`` of the whole command list (after ``import e3sim``),
  ``exit_codes``, ``maxrss_kb``, and with ``trace`` the span summary.

Both add ``host_scale``: the speed of the CPU the worker ran on, relative
to a reference speed, measured while the timed work runs. A shared host
slows a vCPU by up to 2x for tens of seconds at a time (other tenants on
the same physical core), which is neither steal nor visible in CPU time.
So every ``CALIBRATION_INTERVAL_S`` a SIGALRM handler times a fixed
pure-Python loop in this process, with attribute reads and float maths
like the simulator's, and ``host_scale`` is ``CALIBRATION_REF_S`` over
the mean loop time. Over 14 metro_sweep samples on a shared 2-vCPU VM,
the coefficient of variation of raw wall time was 12 %, of wall time
over the time of a 512-point version of this loop 3 %, and over a bare
integer loop's time 6 %. The loops' own time is taken out of ``wall_s``
and ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time

CALIBRATION_INTERVAL_S = 0.025
#: Time of one calibration loop at the reference speed (a quiet Xeon vCPU).
CALIBRATION_REF_S = 0.22e-3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


#: The calibration loop's data: small enough to stay in the core's own caches,
#: so the program's memory use does not change the loop's time.
_POINTS = [_Point((i * 37 % 1000) / 1000.0, (i * 91 % 1000) / 1000.0) for i in range(1024)]


def _calibration_loop() -> float:
    """Attribute reads, float maths and dict updates, like the simulator's own loops."""
    start = time.perf_counter()
    nearest: dict[int, float] = {}
    for i, point in enumerate(_POINTS):
        d = math.hypot(point.x - 0.5, point.y - 0.5)
        if d < nearest.get(i & 15, 9.0):
            nearest[i & 15] = d
    return time.perf_counter() - start


class HostSpeed:
    """Wall time of a ``with`` block, and the host speed sampled during it."""

    def __enter__(self) -> "HostSpeed":
        self.loops = [_calibration_loop()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        self._start = time.perf_counter()
        self._in_block = 0.0
        return self

    def _tick(self, signum, frame) -> None:
        spent = _calibration_loop()
        self._in_block += spent
        self.loops.append(spent)

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.loops.append(_calibration_loop())
        self.wall_s = wall - self._in_block
        self.host_scale = CALIBRATION_REF_S / statistics.fmean(self.loops)


def setup(job: dict) -> dict:
    with HostSpeed() as timer:
        import e3sim

        for path in job["documents"]:
            with open(path, encoding="utf-8") as f:
                e3sim.build_scenario(json.load(f))
    return {"setup_s": timer.wall_s, "host_scale": timer.host_scale}


def run(job: dict) -> dict:
    import e3sim
    import e3sim.cli
    import numpy

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    sink = io.StringIO()
    with HostSpeed() as timer, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in job["commands"]:
            codes.append(e3sim.cli.main(argv))
    result = {
        "wall_s": timer.wall_s,
        "host_scale": timer.host_scale,
        "exit_codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "e3sim_file": e3sim.__file__,
        "numpy": numpy.__version__,
    }
    if codes != [0] * len(codes):
        result["output"] = sink.getvalue()[-2000:]
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    result = setup(job) if job["mode"] == "setup" else run(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
