"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and runtime
budget and prints a PASS line when it holds. Run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the per-criterion lines).
"""

import itertools
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import allocation_at, load_document, make_kind, make_scenario, make_stations, make_ues, scenario_path
from e3sim import (
    SweepSpec,
    argmax,
    build_scenario,
    evaluate,
    hit_ratio,
    max_min_rates,
    run_sweep,
    set_parameter,
    zipf_popularity,
)
from e3sim.energy_cost import dynamic_parts
from oracles import allocate_bruteforce, expected_random_hit_exact

REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{criterion} exceeded its {seconds:.0f} s budget ({elapsed:.2f} s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f} s)")


def test_c1_e3_reduces_to_ee_under_unit_coefficients():
    with budget("C1 EE equivalence", 1.0):
        kinds = (
            make_kind(kind_id="a", cost_per_area=70.0),
            make_kind(kind_id="b", cost_per_area=70.0),
        )
        stations = make_stations([(0.0, 0.0), (200.0, 0.0)], kinds, ids=("b0", "b1"))
        ues = make_ues([(5.0, 0.0), (195.0, 0.0)], (1e7, 6e6), (1.0, 1.5), ids=("u0", "u1"))
        s = make_scenario(kinds=kinds, base_stations=stations, ues=ues, benchmark_cost="max-kind")
        report = evaluate(s, 0.0)
        assert abs(report.e3 - report.ee) / report.ee <= 1e-12


def test_c2_legacy_metrics_are_cost_blind():
    with budget("C2 cost blindness", 1.0):
        doc = load_document("fig3.json")
        base = evaluate(build_scenario(doc), 20.0)
        perturbed = evaluate(build_scenario(set_parameter(doc, "kinds.ap.cost_per_area", 500.0)), 20.0)
        assert perturbed.se == base.se  # bit-identical
        assert perturbed.ee == base.ee  # bit-identical
        assert perturbed.e3 != base.e3
        assert perturbed.ce != base.ce


def test_c3_xhaul_option_trend():
    with budget("C3 X-Haul option trend", 5.0):
        reports = []
        for option in range(1, 6):
            doc = load_document("fig2.json")
            doc["base_stations"]["grid"]["kind"] = f"opt{option}"
            reports.append(evaluate(build_scenario(doc), 20.0))
        se = [r.se for r in reports]
        ee = [r.ee for r in reports]
        e3 = [r.e3 for r in reports]

        # capacity keeps demand-limited throughput non-decreasing, and
        # demand saturates at the third option
        assert all(se[i + 1] >= se[i] for i in range(4))
        assert abs(se[3] - se[2]) <= 1e-3 * se[2]
        assert abs(se[4] - se[2]) <= 1e-3 * se[2]
        # beyond saturation the wired options draw identical power
        assert abs(ee[3] - ee[2]) <= 1e-3 * ee[2]
        assert abs(ee[4] - ee[2]) <= 1e-3 * ee[2]
        # over-provisioned capacity only adds cost: the optimum is interior
        best = max(range(5), key=lambda i: e3[i])
        assert best not in (0, 4)
        assert e3[best] >= 1.01 * e3[4]


def test_c4_cache_size_trend():
    with budget("C4 cache size trend", 10.0):
        doc = load_document("fig3.json")
        catalog = build_scenario(doc).cache.catalog_size
        spec = SweepSpec(
            param_path="kinds.ap.cache_size", values=tuple(range(catalog + 1)), time_hours=20.0
        )
        top = [row.report for row in run_sweep(doc, spec).rows]
        rand_doc = set_parameter(doc, "cache.strategy", "random_fill")
        rand = [row.report for row in run_sweep(rand_doc, spec).rows]

        for reports in (top, rand):
            se = [r.se for r in reports]
            ee = [r.ee for r in reports]
            assert all(se[i + 1] >= se[i] - 1e-12 for i in range(catalog))
            assert all(ee[i + 1] >= ee[i] - 1e-12 for i in range(catalog))
            # a flat saturated tail of at least two points exists
            sat = min(i for i in range(catalog + 1) if se[i] >= se[-1] * (1 - 1e-9))
            assert sat <= catalog - 2
            assert all(abs(se[i] - se[-1]) <= 1e-9 * se[-1] for i in range(sat, catalog + 1))
            # E3 peaks strictly inside the sweep and decays past the peak
            e3 = [r.e3 for r in reports]
            best = max(range(catalog + 1), key=lambda i: e3[i])
            assert 0 < best < catalog
            assert all(e3[i + 1] < e3[i] for i in range(best, catalog))

        # caching the most popular items dominates random filling everywhere
        assert all(t.e3 >= r.e3 - 1e-12 for t, r in zip(top, rand))


def test_c5_joint_xhaul_cache_trend():
    with budget("C5 joint trend", 10.0):
        optima = {}
        for name in ("fig4_c2.json", "fig4_c3.json"):
            doc = load_document(name)
            catalog = build_scenario(doc).cache.catalog_size
            spec = SweepSpec(
                param_path="kinds.ap.cache_size", values=tuple(range(catalog + 1)), time_hours=20.0
            )
            optima[name] = argmax(run_sweep(doc, spec), "e3")
        (m_small, e3_small) = optima["fig4_c2.json"]
        (m_large, e3_large) = optima["fig4_c3.json"]
        # a thinner X-Haul needs more cache at its optimum
        assert m_small[0] >= m_large[0]
        assert abs(e3_small - e3_large) >= 0.01 * max(e3_small, e3_large)


def test_c6_allocation_matches_bruteforce_oracle():
    with budget("C6 allocation oracle", 60.0):
        # every instance: up to 4 UEs, integer demands 1..5, capacities 1..10
        for n in range(1, 5):
            for demands in itertools.product((1.0, 2.0, 3.0, 4.0, 5.0), repeat=n):
                for capacity in range(1, 11):
                    exact = max_min_rates(demands, float(capacity))
                    oracle = allocate_bruteforce(demands, float(capacity))
                    assert all(abs(a - b) <= 1e-2 for a, b in zip(exact, oracle))
                    if sum(demands) <= capacity:
                        assert exact == list(demands)
                        assert oracle == list(demands)
        # closed-form hand cases hold exactly
        assert max_min_rates([5.0, 5.0], 6.0) == [3.0, 3.0]
        assert max_min_rates([2.0, 5.0, 5.0], 9.0) == [2.0, 3.5, 3.5]
        # the scenario-level allocator delegates to the same arithmetic
        from conftest import make_xhaul

        for demands in itertools.product((1.0, 3.0, 5.0), repeat=2):
            for capacity in (2.0, 5.0, 9.0):
                kind = make_kind(
                    radio_capacity_bps=1e9, xhaul=make_xhaul(capacity_bps=capacity)
                )
                stations = make_stations([(0.0, 0.0)], [kind], ids=("b0",))
                ues = make_ues(
                    [(float(i), 0.0) for i in range(len(demands))], demands, ids=[f"u{i}" for i in range(len(demands))]
                )
                s = make_scenario(kinds=(kind,), base_stations=stations, ues=ues)
                rates, _ = allocation_at(s, 0.0)
                assert rates.tolist() == max_min_rates(demands, capacity)


def test_c7_random_fill_matches_exact_expectation():
    with budget("C7 cache oracle", 5.0):
        for exponent in (0.0, 0.5, 0.8, 1.0, 1.5):
            for catalog in range(1, 11):
                pop = zipf_popularity(catalog, exponent)
                for m in range(catalog + 1):
                    formula = hit_ratio("random_fill", m, pop)
                    exact = expected_random_hit_exact(m, pop)
                    assert abs(formula - exact) <= 1e-12


def test_c8_cli_sweep_is_byte_deterministic(tmp_path):
    with budget("C8 CLI determinism", 30.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cmd = [
                sys.executable, "-m", "e3sim", "sweep", str(scenario_path("fig3.json")),
                "--param", "kinds.ap.cache_size=0:20:1", "--time", "20",
                "--out", str(out),
            ]
            proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        strip_manifest = lambda raw: [l for l in raw.splitlines() if not l.startswith(b"#")]
        assert strip_manifest(outputs[0]) == strip_manifest(outputs[1])
        # identical bytes for identical invocations, manifest aside from --out
        rerun = tmp_path / "a.csv"
        cmd = [
            sys.executable, "-m", "e3sim", "sweep", str(scenario_path("fig3.json")),
            "--param", "kinds.ap.cache_size=0:20:1", "--time", "20", "--out", str(rerun),
        ]
        proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert rerun.read_bytes() == outputs[0]


def test_c9_metric_arithmetic_and_wireless_rule():
    with budget("C9 metric arithmetic", 1.0):
        # hand case: R = 1e7 bit/s, P_dyn = 4 W, P_0 = 6 W, C_n = 0.5
        report = evaluate(make_scenario(), 0.0)
        assert abs(report.e3 - 1e7 / 7.0) <= 1e-12 * (1e7 / 7.0)
        # the wireless overhead multiplies dynamic power by exactly 4
        from conftest import make_xhaul

        wireless = make_kind(kind_id="wl", xhaul=make_xhaul(medium="wireless"))
        for load in (0.0, 0.25, 0.5, 1.0):
            transceiver, xhaul = dynamic_parts(
                wireless.max_tx_dynamic_power_w, wireless.xhaul.xhaul_power_factor, load
            )
            assert transceiver + xhaul == 4.0 * transceiver
            assert xhaul == 3.0 * transceiver
