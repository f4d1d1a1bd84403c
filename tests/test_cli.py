"""Command-line behavior: exit codes, CSV schema, determinism, seeding."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import e3sim
import oracles
from conftest import SCENARIO_DIR, load_document, scenario_path, serving_ids
from e3sim import SweepSpec, build_scenario, evaluate, evaluate_daily, run_sweep, validate_scenario
from e3sim.cli import CSV_COLUMNS, MAX_GRID_POINTS, _fmt, _metric_text, _parse_values, _write_rows, main
from e3sim.metrics import MetricReport
from e3sim.model import _BREAKDOWN_COMPONENTS, MAX_CATALOG_SIZE, MAX_SAMPLES_PER_DAY, MAX_STATIONS, MAX_UES

FIG3 = str(scenario_path("fig3.json"))


def read_csv(path):
    """Split an output file into manifest lines and parsed CSV records."""
    manifest, csv_lines = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        (manifest if line.startswith("#") else csv_lines).append(line)
    records = list(csv.reader(csv_lines))
    return manifest, records[0], records[1:]


class TestEval:
    def test_prints_report_at_requested_hour(self, capsys):
        assert main(["eval", FIG3, "--time", "14"]) == 0
        out = capsys.readouterr().out
        assert "t = 14 h" in out
        assert "e3" in out and "bit/J" in out

    def test_defaults_to_peak_hour(self, capsys):
        assert main(["eval", FIG3]) == 0
        assert "t = 20 h" in capsys.readouterr().out  # fig3 peaks at hour 20

    def test_missing_file_exits_2(self, capsys):
        assert main(["eval", "no-such-file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", str(bad)]) == 1

    def test_too_deeply_nested_json_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["eval", str(deep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: not valid JSON (") and err.count("\n") == 1

    def test_invariant_error_exits_1(self, tmp_path, capsys):
        doc = load_document("fig3.json")
        doc["kinds"][0]["cache_size"] = -2
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path)]) == 1
        assert "cache_size" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [MAX_CATALOG_SIZE + 1, 10**400], ids=["limit_plus_1", "401_digits"])
    def test_oversized_catalog_exits_1_naming_the_path(self, tmp_path, capsys, size):
        # a popularity table of 10**400 weights would grow until memory runs out
        doc = load_document("fig3.json")
        doc["cache"]["catalog_size"] = size
        path = tmp_path / "huge_catalog.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path)]) == 1
        assert capsys.readouterr().err == f"error: cache.catalog_size: must be <= {MAX_CATALOG_SIZE}\n"

    @pytest.mark.parametrize("samples", [MAX_SAMPLES_PER_DAY + 1, 10**9], ids=["limit_plus_1", "1e9"])
    def test_oversized_samples_per_day_exits_1_naming_the_path(self, tmp_path, capsys, samples):
        # a daily evaluation holds one row per sample: 10**9 of them ran out of memory
        doc = load_document("fig3.json")
        doc["traffic"]["samples_per_day"] = samples
        path = tmp_path / "huge_day.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            assert main(["eval", str(path), "--daily"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"error: traffic.samples_per_day: must be <= {MAX_SAMPLES_PER_DAY}\n"
        assert peak < 1 << 20

    def test_a_day_of_one_sample_a_second_evaluates(self, tmp_path, capsys):
        doc = load_document("fig3.json")
        doc["traffic"]["samples_per_day"] = MAX_SAMPLES_PER_DAY
        path = tmp_path / "fine_day.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "--daily"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "rows, cols, count, error",
        [
            (10**5, 10**5, 10, f"base_stations.grid: rows * cols must be <= {MAX_STATIONS}"),
            (1001, 1000, 10, f"base_stations.grid: rows * cols must be <= {MAX_STATIONS}"),
            (1, 1, 10**10, f"ues.uniform_random.count: must be <= {MAX_UES}"),
            (1, 1, MAX_UES + 1, f"ues.uniform_random.count: must be <= {MAX_UES}"),
        ],
        ids=["grid_1e10", "grid_limit_plus_1000", "ues_1e10", "ues_limit_plus_1"],
    )
    def test_oversized_generators_exit_1_naming_the_path(self, tmp_path, capsys, rows, cols, count, error):
        # a 10**10-row station or UE array is refused before any of it is allocated
        doc = load_document("fig3.json")
        doc["base_stations"] = {"grid": {"kind": "ap", "rows": rows, "cols": cols, "spacing_m": 10.0}}
        doc["ues"]["uniform_random"]["count"] = count
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            assert main(["eval", str(path)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"error: {error}\n"
        assert peak < 1 << 20

    def test_a_full_top_popular_cache_evaluates(self, tmp_path, capsys):
        # every item cached, and the rounded probabilities sum to just over 1
        doc = load_document("fig3.json")
        doc["cache"].update(catalog_size=18, zipf_exponent=1.5)
        doc["kinds"][0]["cache_size"] = 18
        path = tmp_path / "full_cache.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "--daily"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("hour", ["nan", "inf"])
    def test_non_finite_time_exits_1_naming_it(self, hour, capsys):
        assert main(["eval", FIG3, "--time", hour]) == 1
        err = capsys.readouterr().err
        assert "t_hours must be finite" in err and hour in err

    def test_a_huge_hour_evaluates(self, capsys):
        # 2 pi times 1e308 overflowed: "error: math domain error", exit 1
        assert main(["eval", FIG3, "--time", "1e308"]) == 0
        assert "t = 1e+308 h" in capsys.readouterr().out

    def test_daily_csv_matches_library_call(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["eval", FIG3, "--daily", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 1
        report = evaluate_daily(build_scenario(load_document("fig3.json")))
        row = dict(zip(header, rows[0]))
        assert row["e3_bit_per_joule"] == format(report.e3, ".12g")
        assert row["throughput_bps"] == format(report.throughput_bps, ".12g")
        assert row["param1"] == "" and row["error"] == ""


def overflowing_document():
    """fig3 with two stations whose radio and X-Haul carry 1e308 bit/s, and
    UEs that ask for as much: the two stations' throughputs sum past the
    largest float."""
    doc = load_document("fig3.json")
    kind = doc["kinds"][0]
    kind["radio_capacity_bps"] = kind["xhaul"]["capacity_bps"] = 1e308
    doc["base_stations"].append({"bs_id": "ap001", "kind": "ap", "position_m": [40.0, 40.0]})
    doc["ues"]["uniform_random"]["demand_peak_bps"] = 1e308
    return doc


def breakdown(**given):
    """A cost breakdown document section: the ``given`` items, every other component 0."""
    return {**dict.fromkeys(_BREAKDOWN_COMPONENTS, 0.0), **given}


class TestReportChecks:
    """A document whose report would hold a number that is not finite, or a
    zero cost rate, exits 1 naming it, with no traceback or warning."""

    def run(self, tmp_path, capsys, doc, *flags):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = main([flags[0], str(path), *flags[1:]])
        return code, capsys.readouterr()

    def test_an_overflowing_throughput_exits_1_naming_it(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, overflowing_document(), "eval", "--daily")
        assert (code, out.out, out.err) == (1, "", "error: throughput_bps must be finite, got inf\n")

    def test_an_overflowing_sweep_point_fails_only_its_row(self, tmp_path, capsys):
        out = tmp_path / "overflow.csv"
        param = "kinds.ap.xhaul.capacity_bps=1e7,1e308,2e7"
        code, printed = self.run(tmp_path, capsys, overflowing_document(), "sweep", "--param", param, "--daily",
                                 "--out", str(out))
        assert code == 0 and "Warning" not in printed.err
        _, header, rows = read_csv(out)
        rows = [dict(zip(header, row)) for row in rows]
        assert [row["error"] for row in rows] == ["", "throughput_bps must be finite, got inf", ""]
        assert all(rows[i]["e3_bit_per_joule"] != "" for i in (0, 2))

    def test_a_zero_cost_rate_exits_1_naming_it(self, tmp_path, capsys):
        # capital items only, all inherited: the yearly cost is 0, so CE would be inf
        doc = load_document("fig3.json")
        kind = doc["kinds"][0]
        kind.update(cost_per_area=50.0, cache_item_cost_per_area=0.0)
        kind["cost_breakdown"] = breakdown(infrastructure=30.0, site_installation=20.0, inherited_discount=1.0)
        code, out = self.run(tmp_path, capsys, doc, "eval", "--daily")
        assert (code, out.err) == (1, "error: cost_rate must be > 0, got 0.0\n")

    @pytest.mark.parametrize("command", [["validate"], ["eval"], ["sweep", "--param", "kinds.ap.cache_size=1,2"]],
                             ids=["validate", "eval", "sweep"])
    def test_a_cost_breakdown_past_the_largest_float_exits_1(self, tmp_path, capsys, command):
        doc = load_document("fig3.json")
        doc["kinds"][0]["cost_per_area"] = 1e308
        doc["kinds"][0]["cost_breakdown"] = breakdown(infrastructure=1e308, site_installation=1e308)
        flags = ["--out", str(tmp_path / "r.csv")] if command[0] == "sweep" else []
        code, out = self.run(tmp_path, capsys, doc, *command, *flags)
        assert (code, out.err) == (1, "error: CostBreakdown: components must sum to a finite number\n")


def far_document(rows, spacing_m, count, area_m, radio_mode="abstract"):
    """fig3 with a rows x rows station grid and UEs so far out that squared
    distances to the stations are past the largest float."""
    doc = load_document("fig3.json")
    doc["base_stations"] = {"grid": {"kind": "ap", "rows": rows, "cols": rows, "spacing_m": spacing_m}}
    doc["ues"]["uniform_random"].update(count=count, area_m=area_m)
    doc["radio_mode"] = radio_mode
    return doc


class TestFarLayouts:
    """UEs whose squared distances overflow are associated exactly and without
    a warning; in physical mode their received power underflows to 0 W, and a
    throughput of 0 is an error, not a report of zeros."""

    @pytest.mark.parametrize(
        "layout",
        [(3, 2.5e299, 10, [1e300, 1e300]), (5, 100.0, 400, [1e200, 1.0])],
        ids=["every_station_scored", "cell_search_first"],
    )
    def test_an_overflowing_squared_distance_evaluates_silently(self, tmp_path, capsys, layout):
        doc = far_document(*layout)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "--daily"]) == 0
        assert capsys.readouterr().err == ""
        s = build_scenario(doc)
        serving = oracles.associate(s).serving
        assert serving_ids(s) == [serving[u] for u in s.ues.ids()]

    def test_a_zero_physical_throughput_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(far_document(3, 2.5e299, 10, [1e300, 1e300], "physical")))
        assert main(["eval", str(path), "--daily"]) == 1
        assert capsys.readouterr() == ("", "error: throughput_bps must be > 0, got 0.0\n")

    def test_a_zero_physical_throughput_fails_only_its_sweep_row(self, tmp_path, capsys):
        path, out = tmp_path / "far.json", tmp_path / "far.csv"
        path.write_text(json.dumps(far_document(3, 2.5e299, 10, [1e300, 1e300])))
        assert main(["sweep", str(path), "--param", "radio_mode=abstract,physical", "--daily", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = read_csv(out)
        rows = [dict(zip(header, row)) for row in rows]
        assert [row["error"] for row in rows] == ["", "throughput_bps must be > 0, got 0.0"]
        assert float(rows[0]["throughput_bps"]) > 0


#: The environment of a subprocess that imports e3sim from this checkout.
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(e3sim.__file__).resolve().parents[1]),
                                               os.environ.get("PYTHONPATH")])),
}


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The first and last stdout lines of a fresh interpreter that builds every
    shipped scenario, then runs an eval and a sweep through ``main``: the e3sim
    modules loaded after the builds, before ``e3sim.cli`` is imported, and the
    numpy.random modules loaded at the end."""
    out = tmp_path_factory.mktemp("fresh") / "r.csv"
    script = f"""
import sys
from pathlib import Path
from e3sim import build_scenario
for path in sorted(Path({str(SCENARIO_DIR)!r}).glob("*.json")):
    build_scenario(path.read_text())
print(sorted(name for name in sys.modules if name.startswith("e3sim")))
from e3sim.cli import main
assert main(["eval", {FIG3!r}, "--daily"]) == 0
assert main(["sweep", {FIG3!r}, "--param", "kinds.ap.cache_size=0:4:1", "--daily", "--out", {str(out)!r}]) == 0
print(sorted(name for name in sys.modules if name.startswith("numpy.random")))
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    return lines[0], lines[-1]


def test_a_run_never_imports_numpys_random_module(fresh_run):
    # UE layouts come from e3sim.rng, which reproduces NumPy's stream without it
    assert fresh_run[1] == "[]"


def test_a_build_loads_only_the_build_path(fresh_run):
    # the package's exports resolve on first use, so no evaluation or sweep module loads
    assert fresh_run[0] == str(["e3sim", "e3sim.document", "e3sim.model", "e3sim.rng", "e3sim.scenario"])


def test_python_m_e3sim_runs_main(capsys):
    run = subprocess.run([sys.executable, "-m", "e3sim", "validate", FIG3], capture_output=True, text=True,
                         env=SRC_ENV, timeout=120)
    assert main(["validate", FIG3]) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")


class TestSweep:
    def test_inclusive_range_row_count(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0:50:10",
                     "--time", "20", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 6  # 0,10,20,30,40,50
        assert [r[0] for r in rows] == ["0", "10", "20", "30", "40", "50"]
        # values past the catalog fail row-by-row, the sweep continues
        errors = [dict(zip(header, r))["error"] for r in rows]
        assert errors[:3] == ["", "", ""]
        assert all("cache larger than catalog" in e for e in errors[3:])

    def test_a_huge_hour_evaluates_every_row(self, tmp_path, capsys):
        # every row once failed with "math domain error"
        out = tmp_path / "h.csv"
        assert main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0,6", "--time", "1e308", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert [dict(zip(header, r))["error"] for r in rows] == ["", ""]

    def test_two_axes_row_major(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = main(["sweep", FIG3, "--param", "kinds.ap.cache_size=1:3:1",
                     "--param2", "cache.zipf_exponent=1:2:1", "--time", "20",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert [(r[0], r[1]) for r in rows] == [
            ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"), ("3", "1"), ("3", "2")
        ]

    def test_argmax_summary_matches_sweep_module(self, tmp_path, capsys):
        from e3sim import SweepSpec, argmax, run_sweep

        out = tmp_path / "a.csv"
        code = main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0:20:1",
                     "--argmax", "e3", "--time", "20", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        spec = SweepSpec(param_path="kinds.ap.cache_size",
                         values=tuple(float(v) for v in range(21)), time_hours=20.0)
        values, best = argmax(run_sweep(load_document("fig3.json"), spec), "e3")
        assert f"kinds.ap.cache_size={values[0]:g}" in printed
        assert format(best, ".12g") in printed

    def test_argmax_of_a_tie_between_a_string_and_a_number(self, tmp_path, capsys):
        # SE is blind to cost: the two rows tie, and comparing their values ended in a TypeError
        out = tmp_path / "y.csv"
        code = main(["sweep", FIG3, "--param", "benchmark_cost=max-kind,100", "--argmax", "se", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "argmax se: benchmark_cost=100 (se=4)" in captured.out and captured.err == ""
        assert [row[0] for row in read_csv(out)[2]] == ["max-kind", "100"]

    @pytest.mark.parametrize("hour", ["nan", "inf"])
    def test_a_non_finite_hour_exits_1_before_any_row(self, tmp_path, capsys, hour):
        out = tmp_path / "x.csv"
        code = main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0:2:1", "--time", hour, "--out", str(out)])
        assert code == 1
        assert f"SweepSpec: time_hours must be finite, got {hour}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_param_spec_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0:10:-1",
                     "--out", str(out)]) == 1
        assert main(["sweep", FIG3, "--param", "kinds.ap.nope=1,2",
                     "--out", str(out)]) == 1

    def test_unresolvable_path_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", FIG3, "--param", "kinds.ap.xhaul.nope=1,2", "--out", str(out)]) == 1
        assert "unresolvable parameter path 'kinds.ap.xhaul.nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_a_line_break_in_a_param_path_exits_1_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", FIG3, "--param", "kinds.ap.cache_size\n=0,10", "--time", "20", "--out", str(out)]) == 1
        # the message is one line: its line breaks are written as the manifest writes them
        assert capsys.readouterr().err == (
            "error: unresolvable parameter path 'kinds.ap.cache_size\\n': bad segment 'cache_size\\n'\n"
        )
        assert not out.exists()

    def test_two_paths_to_one_value_write_no_csv(self, tmp_path, capsys):
        # every row was once evaluated at the second path's value, so the first axis did nothing
        out = tmp_path / "x.csv"
        assert main(["sweep", FIG3, "--param", "kinds.ap.cache_size=1,2", "--param2", "kinds[0].cache_size=3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: parameter paths 'kinds.ap.cache_size' and 'kinds[0].cache_size' address the same value\n"
        )
        assert not out.exists()

    def test_a_left_out_section_set_whole_fails_its_rows(self, tmp_path, capsys):
        doc = load_document("fig3.json")
        del doc["traffic"]
        path, out = tmp_path / "no_traffic.json", tmp_path / "t.csv"
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path), "--param", "traffic=5", "--time", "20", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert [dict(zip(header, row))["error"] for row in rows] == ["traffic: expected an object"]

    def test_rows_match_library_sweep(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0:20:5",
              "--time", "20", "--out", str(out)])
        _, header, rows = read_csv(out)
        from e3sim import SweepSpec, run_sweep

        spec = SweepSpec(param_path="kinds.ap.cache_size",
                         values=tuple(float(v) for v in range(0, 21, 5)), time_hours=20.0)
        result = run_sweep(load_document("fig3.json"), spec)
        for row, expected in zip(rows, result.rows):
            record = dict(zip(header, row))
            assert record["e3_bit_per_joule"] == format(expected.report.e3, ".12g")
            assert record["weighted_power_w"] == format(expected.report.weighted_power_w, ".12g")


class TestDocumentPaths:
    """Sweeps over generator sections and defaulted keys, row for row."""

    def sweep(self, tmp_path, scenario, *flags):
        out = tmp_path / "p.csv"
        assert main(["sweep", str(scenario), *flags, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        return [dict(zip(header, row)) for row in rows]

    def assert_row_is(self, record, report):
        assert record["error"] == ""
        for column, value in zip(CSV_COLUMNS[2:10], astuple(report)[:8]):
            assert record[column] == format(value, ".12g"), column

    def test_fig2_xhaul_options(self, tmp_path, capsys):
        options = ("opt1", "opt2", "opt3", "opt4", "opt5")
        fig2 = scenario_path("fig2.json")
        records = self.sweep(tmp_path, fig2, "--param", "base_stations.grid.kind=" + ",".join(options),
                             "--daily", "--argmax", "e3")
        assert "argmax e3: base_stations.grid.kind=opt3 " in capsys.readouterr().out
        spec = SweepSpec(param_path="base_stations.grid.kind", values=options, daily=True)
        rows = run_sweep(load_document("fig2.json"), spec).rows
        for option, record, row in zip(options, records, rows):
            doc = load_document("fig2.json")  # edited by hand, as acceptance test C3 does
            doc["base_stations"]["grid"]["kind"] = option
            expected = evaluate_daily(build_scenario(doc))
            assert row.report == expected
            assert record["param1"] == option
            self.assert_row_is(record, expected)

    @pytest.mark.parametrize(
        "path, spec, values",
        [
            ("ues.uniform_random.count", "5:15:5", (5, 10, 15)),
            ("seed", "1,2", (1, 2)),
            ("radio_mode", "abstract,physical", ("abstract", "physical")),
        ],
    )
    def test_generator_and_top_level_keys(self, tmp_path, capsys, path, spec, values):
        records = self.sweep(tmp_path, FIG3, "--param", f"{path}={spec}", "--time", "20")
        assert len(records) == len(values)
        for record, value in zip(records, values):
            doc = load_document("fig3.json")
            section = doc["ues"]["uniform_random"] if path.startswith("ues.") else doc
            section[path.rsplit(".", 1)[-1]] = value
            self.assert_row_is(record, evaluate(build_scenario(doc), 20.0))

    def test_wireless_medium_gets_its_default_power_factor(self, tmp_path, capsys):
        doc = load_document("fig3.json")
        del doc["kinds"][0]["xhaul"]["xhaul_power_factor"]
        scenario = tmp_path / "no_factor.json"
        scenario.write_text(json.dumps(doc))
        [record] = self.sweep(tmp_path, scenario, "--param", "kinds.ap.xhaul.medium=wireless",
                              "--time", "20")
        doc["kinds"][0]["xhaul"].update(medium="wireless", xhaul_power_factor=3.0)
        self.assert_row_is(record, evaluate(build_scenario(doc), 20.0))


class TestGridLimit:
    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--param", "kinds.ap.cache_size=0:1e9:1"], "--param"),
            (["--param", "kinds.ap.cache_size=0:20:1", "--param2", "cache.zipf_exponent=0:1e12:0.5"],
             "--param2"),
            (["--param", "kinds.ap.cache_size=0:999:1", "--param2", "cache.zipf_exponent=0:999:1"],
             "--param2"),
        ],
    )
    def test_oversized_grid_exits_1_before_any_row(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "big.csv"
        assert main(["sweep", FIG3, *flags, "--out", str(out)]) == 1
        assert f"{flag}: more than {MAX_GRID_POINTS} grid points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0:inf:1", "nan:1:1", "0:1:nan"])
    def test_non_finite_range_exits_1(self, tmp_path, capsys, spec):
        out = tmp_path / "x.csv"
        assert main(["sweep", FIG3, "--param", f"kinds.ap.cache_size={spec}", "--out", str(out)]) == 1
        assert "--param: range bounds must be finite" in capsys.readouterr().err

    def test_limit_sized_axis_is_accepted(self):
        values = _parse_values(f"1:{MAX_GRID_POINTS}:1", "--param")
        assert len(values) == MAX_GRID_POINTS and values[-1] == MAX_GRID_POINTS


class TestDeterminismAndSeed:
    def test_identical_invocations_are_byte_identical(self, tmp_path, capsys):
        args = ["sweep", FIG3, "--param", "kinds.ap.cache_size=0:20:1", "--time", "20"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        # same flags except the output path itself, which lands in the manifest
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(a)]) == 0
        first = a.read_bytes()
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == first
        body = lambda raw: b"\n".join(l for l in raw.splitlines() if not l.startswith(b"#"))
        assert body(a.read_bytes()) == body(b.read_bytes())

    def test_env_seed_overrides_scenario_seed(self, tmp_path, capsys, monkeypatch):
        fig2 = str(scenario_path("fig2.json"))
        monkeypatch.setenv("E3_SEED", "123")
        out = tmp_path / "seeded.csv"
        assert main(["eval", fig2, "--time", "20", "--out", str(out)]) == 0
        manifest, header, rows = read_csv(out)
        assert "# seed: 123" in manifest
        # the override reaches the UE generator: output matches a library
        # evaluation of the same document with seed 123 spliced in
        doc = load_document("fig2.json")
        assert doc["seed"] != 123
        doc["seed"] = 123
        expected = evaluate(build_scenario(doc), 20.0)
        record = dict(zip(header, rows[0]))
        assert record["e3_bit_per_joule"] == format(expected.e3, ".12g")
        assert build_scenario(doc) != build_scenario(load_document("fig2.json"))

    def test_env_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("E3_SEED", "abc")
        assert main(["eval", FIG3]) == 1

    def test_negative_env_seed_exits_1_naming_the_path(self, capsys, monkeypatch):
        monkeypatch.setenv("E3_SEED", "-3")
        assert main(["eval", FIG3]) == 1
        assert "error: document.seed: must be >= 0, got -3" in capsys.readouterr().err

    def test_negative_seed_fails_only_its_sweep_row(self, tmp_path, capsys):
        out = tmp_path / "seeds.csv"
        assert main(["sweep", FIG3, "--param", "seed=-1,1", "--time", "20", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        errors = [dict(zip(header, row))["error"] for row in rows]
        assert errors == ["document.seed: must be >= 0, got -1", ""]

    @pytest.mark.parametrize(
        "param, error",
        [
            ("radio_mode=abstract,foo", "document.radio_mode: expected one of ('abstract', 'physical'), got 'foo'"),
            ("benchmark_cost=100,cheap", "document.benchmark_cost: expected a number or 'max-kind', got 'cheap'"),
        ],
        ids=["radio_mode", "benchmark_cost"],
    )
    def test_closed_set_value_fails_its_row_naming_the_path(self, tmp_path, capsys, param, error):
        out = tmp_path / "closed.csv"
        assert main(["sweep", FIG3, "--param", param, "--time", "20", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert [dict(zip(header, row))["error"] for row in rows] == ["", error]

    def test_metric_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        with pytest.raises(SystemExit):
            main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0,1", "--metric", "e3", "--out", str(out)])
        assert "--metric" in capsys.readouterr().err
        assert not out.exists()


#: Text with every character ``csv.writer`` may quote, spaces, and non-ASCII letters.
_CELL_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "0", ".", "é", "日"]), max_size=6)


@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.one_of(st.floats(), st.integers(-10**20, 10**20), _CELL_TEXT), max_size=2).map(tuple),
            st.one_of(st.none(), st.lists(st.floats(), min_size=8, max_size=8)),
            st.one_of(st.none(), _CELL_TEXT),
        ),
        max_size=4,
    )
)
def test_text_rows_are_the_bytes_of_csv_writer(rows):
    # the rows as (axis values, metric values or None, error or None)
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    reports = [None if metrics is None else MetricReport(*metrics, None, 1.0) for _, metrics, _ in rows]
    _write_rows(got, [(values, _metric_text(report), error) for (values, _, error), report in zip(rows, reports)])
    writer = csv.writer(want, lineterminator="\n")
    for (values, metrics, error) in rows:
        params = [*map(_fmt, values), "", ""][:2]
        writer.writerow([*params, *(map(_fmt, metrics) if metrics else [""] * 8), error or ""])
    assert got.getvalue().encode() == want.getvalue().encode()


#: sha256 of the non-``#`` lines of CLI runs on ``scenarios/``, recorded
#: before the id-keyed allocation API was deleted; any change to the CSV
#: bytes the paper studies produce shows here.
GOLDEN = {
    "eval_fig2_daily": (["eval", "fig2.json", "--daily"],
                        "0e779b9af25068f14e3b9aa0f3dd5f5553399b9b43e27aed191221e072227445"),
    "eval_fig3_daily": (["eval", "fig3.json", "--daily"],
                        "5090d96e20f0854eaecf0c7c8c56afece52869204562c546372e478add0b639e"),
    "eval_fig4_c2_daily": (["eval", "fig4_c2.json", "--daily"],
                           "13c2d1b2ea39f77b2c5c1b925b82c6e9bbb29fc71d7ca587502f08c959986354"),
    "eval_fig4_c3_daily": (["eval", "fig4_c3.json", "--daily"],
                           "df7404d5167f07dc0aebdd3f282fc45bae3e296cf0569460aa58c3957427421d"),
    "fig2_xhaul_sweep": (["sweep", "fig2.json", "--param", "base_stations.grid.kind=opt1,opt2,opt3,opt4,opt5",
                          "--daily"],
                         "e3d112ea99bf1b65126ff5d61d4a1dfb23c08647b4a87180ad382ee631152161"),
    "fig3_cache_sweep": (["sweep", "fig3.json", "--param", "kinds.ap.cache_size=0:20:1", "--time", "20"],
                         "e980b7d628d296415b2bb3bb6f8b578a80bcd5a3afb91875c20bcbeed8781738"),
    # 2,100 points in blocks that share one geometry
    "fig3_cache_xhaul_daily": (["sweep", "fig3.json", "--param", "kinds.ap.cache_size=0:20:1",
                                "--param2", "kinds.ap.xhaul.capacity_bps=1e6:1e8:1e6", "--daily"],
                               "046d38413e70b5beff3912724a08ef7382ed4748c04734bbb17a2a6dad30c62a"),
    # schema, invariant and evaluation errors mixed with good rows in one block
    "fig3_failing_rows_daily": (["sweep", "fig3.json", "--param", "kinds.ap.cache_size=-1,0,2.5,1000,20,21",
                                 "--param2", "cache.zipf_exponent=0,0.8", "--daily"],
                                "916ad6cafb506bd623387579912d733b75e2f2b1aa9372a78e22c1777bb70245"),
    # both edits of one kind invalid: xhaul precedes cache_size in field order, so its error wins
    "fig3_both_axes_fail_daily": (["sweep", "fig3.json", "--param", "kinds.ap.cache_size=2.5,3",
                                   "--param2", "kinds.ap.xhaul.capacity_bps=0,1e7", "--daily"],
                                  "592ab248765dabf4013689f4cc96d2bb19586764a6b129ea89c8107668462e48"),
    # two sections bad at one point: the traffic section is read before the benchmark cost, so its error
    # wins over both a bad benchmark cost value and the scenario's check of a zero one
    "fig3_two_sections_fail_daily": (["sweep", "fig3.json", "--param", "traffic.peak_hour=30,20",
                                      "--param2", "benchmark_cost=cheap,0,100", "--daily"],
                                     "2bcf471aa940782fd431397fe1079b3e6dc3258f3788fa64ae7705af378e7385"),
    # an axis value and an error text that csv.writer quotes: '"ch""eap",,...,"document.benchmark_cost: ..."'
    "fig3_quoted_value_daily": (["sweep", "fig3.json", "--param", 'benchmark_cost=ch"eap,100', "--daily"],
                                "8f85b5146a1de53e324151da6cfe37d2ed557ab99f4ecdddcea20dcecb8ac2af"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_output_on_paper_scenarios(name, tmp_path, capsys):
    (command, scenario, *flags), digest = GOLDEN[name]
    out = tmp_path / "golden.csv"
    assert main([command, str(scenario_path(scenario)), *flags, "--out", str(out)]) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    body = b"".join(line for line in lines if not line.startswith(b"#"))
    assert hashlib.sha256(body).hexdigest() == digest


#: sha256 of the stdout of ``e3 validate``, ``e3 eval`` (peak hour) and
#: ``e3 eval --daily`` on each of ``scenarios/``, run from the repository
#: root; recorded before the fresh and the sweep-point document readers were
#: merged into one.
STDOUT_SHA256 = {
    "validate fig2.json": "14708f20e98fc5d036bef72cd7c6ccc36e94490bbcac40b1eab89a2e5576de75",
    "eval fig2.json": "ca2f2830fd1dfa4b1ac8dac41ab4f5ccb040d6e13c3afdccf381f7c39b6298fd",
    "eval fig2.json --daily": "d08c43008d9860d17aeaad162f3e0ba37e25c8b76194deca918b732a026ffe4b",
    "validate fig3.json": "752fc90937017319041d5f424e7a6457facfb7db2ae1932a56c8e942a1a506d9",
    "eval fig3.json": "5f91352ad257649f667fcd4005bb784449a6ed9bb32349066957ff7d9c3020fd",
    "eval fig3.json --daily": "c353c53aceee947bb139b4a1f696cb67135ef28500d2f678e09e5a0220bac078",
    "validate fig4_c2.json": "8dc90426c9555c06227375117f4674bd9fbd50f9d1f6b5d20634de610eea780e",
    "eval fig4_c2.json": "c1adf2b079bb4e7917dbe640c741ec08f990435c7ca4a8d8534b0348de3280df",
    "eval fig4_c2.json --daily": "4f267c7598c1c225e9a725d5c7894640771ba894a7702f51f8f3b1612ad5aac1",
    "validate fig4_c3.json": "8dc90426c9555c06227375117f4674bd9fbd50f9d1f6b5d20634de610eea780e",
    "eval fig4_c3.json": "1da50faf9a391b99842b43e2be3bd7ea501c0a48b06a14868c9c8dad53945309",
    "eval fig4_c3.json --daily": "0d8835d362ec637b8017b9f2633983bced49d1b6f9db5aa8d037e5a550a0de1e",
}


@pytest.mark.parametrize("run", list(STDOUT_SHA256))
def test_stdout_on_paper_scenarios(run, monkeypatch, capsys):
    command, scenario, *flags = run.split()
    monkeypatch.chdir(scenario_path(scenario).parent.parent)
    assert main([command, f"scenarios/{scenario}", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_SHA256[run]


#: The ``#`` manifest lines of CLI runs from a directory that holds
#: ``scenarios/``, with relative paths: (E3_SEED or None, argv, lines);
#: recorded before the manifest was made by one function.
_SWEEP = ["sweep", "scenarios/fig3.json", "--param", "kinds.ap.cache_size=0:20:10",
          "--param2", "kinds.ap.xhaul.capacity_bps=1e7,2e7", "--time", "20", "--argmax", "e3"]
MANIFESTS = {
    "eval_peak": (None, ["eval", "scenarios/fig3.json", "--out", "eval.csv"], [
        "# command: e3 eval scenarios/fig3.json --out eval.csv",
        "# scenario: scenarios/fig3.json",
        "# spec: eval t=20",
        "# seed: 7",
        "# version: 0.1.0",
        "# out: eval.csv",
    ]),
    "eval_daily": (None, ["eval", "scenarios/fig3.json", "--daily", "--out", "daily.csv"], [
        "# command: e3 eval scenarios/fig3.json --daily --out daily.csv",
        "# scenario: scenarios/fig3.json",
        "# spec: eval daily",
        "# seed: 7",
        "# version: 0.1.0",
        "# out: daily.csv",
    ]),
    "sweep_two_axes": (None, [*_SWEEP, "--out", "sweep.csv"], [
        "# command: e3 sweep scenarios/fig3.json --param kinds.ap.cache_size=0:20:10 --param2"
        " kinds.ap.xhaul.capacity_bps=1e7,2e7 --time 20 --argmax e3 --out sweep.csv",
        "# scenario: scenarios/fig3.json",
        "# spec: sweep kinds.ap.cache_size=3 values; kinds.ap.xhaul.capacity_bps=2 values; t=20",
        "# seed: 7",
        "# version: 0.1.0",
        "# out: sweep.csv",
    ]),
    "sweep_two_axes_env_seed": ("123", [*_SWEEP, "--out", "seeded.csv"], [
        "# command: e3 sweep scenarios/fig3.json --param kinds.ap.cache_size=0:20:10 --param2"
        " kinds.ap.xhaul.capacity_bps=1e7,2e7 --time 20 --argmax e3 --out seeded.csv",
        "# scenario: scenarios/fig3.json",
        "# spec: sweep kinds.ap.cache_size=3 values; kinds.ap.xhaul.capacity_bps=2 values; t=20",
        "# seed: 123",
        "# version: 0.1.0",
        "# out: seeded.csv",
    ]),
}


@pytest.mark.parametrize("name", list(MANIFESTS))
def test_manifest_lines_on_paper_scenarios(name, tmp_path, monkeypatch, capsys):
    env_seed, argv, lines = MANIFESTS[name]
    if env_seed is not None:
        monkeypatch.setenv("E3_SEED", env_seed)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenarios").symlink_to(SCENARIO_DIR)
    assert main(argv) == 0
    text = (tmp_path / argv[-1]).read_text(encoding="utf-8")
    assert text.splitlines()[:7] == [*lines, ",".join(CSV_COLUMNS)]


def test_a_line_break_in_a_path_stays_on_its_manifest_line(tmp_path, capsys):
    # the scenario path once ran across two lines, and the second, without
    # its '#', was read as the CSV header
    folder = tmp_path / "a\nb\rc"
    folder.mkdir()
    scenario = folder / "s.json"
    scenario.write_text(scenario_path("fig3.json").read_text())
    out = tmp_path / "x.csv"
    assert main(["eval", str(scenario), "--out", str(out)]) == 0
    escaped = str(scenario).replace("\r", "\\r").replace("\n", "\\n")
    manifest, header, rows = read_csv(out)
    assert header == list(CSV_COLUMNS) and len(rows) == 1
    assert manifest[1:] == [f"# scenario: {escaped}", "# spec: eval t=20", "# seed: 7", "# version: 0.1.0",
                            f"# out: {out}"]
    assert manifest[0].startswith("# command: e3 eval ") and escaped in manifest[0]


def test_a_line_break_in_an_unknown_key_stays_on_its_error_line(tmp_path, capsys):
    # the message once ran across two lines: "error: kinds" and ": unknown key"
    doc = load_document("fig3.json")
    doc["kinds\n"] = doc.pop("kinds")
    path = tmp_path / "key.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", str(path)]) == 1
    assert capsys.readouterr().err == "error: kinds\\n: unknown key\n"


def test_a_line_break_in_the_validated_path_stays_on_the_ok_line(tmp_path, capsys):
    # the ok line once ran across two lines, ".../a" and "b/s.json: ok (...)"
    folder = tmp_path / "a\nb\rc"
    folder.mkdir()
    scenario = folder / "s.json"
    scenario.write_text(scenario_path("fig3.json").read_text())
    assert main(["validate", str(scenario)]) == 0
    escaped = str(scenario).replace("\r", "\\r").replace("\n", "\\n")
    assert capsys.readouterr().out == f"{escaped}: ok (1 BSs, 10 UEs)\n"


def test_a_line_break_in_the_out_path_and_an_axis_value_stays_on_its_line(tmp_path, capsys):
    # "wrote N rows to" once printed the --out path as it is, and "argmax" the
    # axis values, so a line break in either split the line
    folder = tmp_path / "a\nb"
    folder.mkdir()
    out = folder / "x.csv"
    argv = ["sweep", FIG3, "--param", "base_stations[0].bs_id=p\rq,s\nt", "--time", "20", "--argmax", "e3",
            "--out", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.split("\n")
    escaped = str(out).replace("\n", "\\n")
    assert lines[0] == f"wrote 2 rows to {escaped}"
    assert lines[1].startswith("argmax e3: base_stations[0].bs_id=p\\rq (e3=") and lines[2:] == [""]
    assert "\r" not in lines[1]


class TestValidate:
    def test_clean_scenario_reports_ok(self, capsys):
        assert main(["validate", FIG3]) == 0
        assert "ok" in capsys.readouterr().out

    def test_a_line_break_in_a_kind_id_stays_on_its_warning_line(self, tmp_path, capsys):
        doc = load_document("fig3.json")
        doc["kinds"][0]["kind_id"] = "a\nb\rc"
        for station in doc["base_stations"]:
            station["kind"] = "a\nb\rc"
        doc["benchmark_cost"] = 40.0  # below the kind's effective cost
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "\r" not in out
        assert out.startswith("warning: cost coefficient of kind 'a\\nb\\rc' exceeds 1 ")

    def test_a_cache_larger_than_the_catalog_exits_1_as_eval_does(self, tmp_path, capsys):
        # validate printed "ok" for a scenario that every evaluation rejects
        doc = load_document("fig3.json")
        doc["kinds"][0]["cache_size"] = 30
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(doc))
        error = "cache larger than catalog: cache_size 30, catalog 20"
        for command in ("validate", "eval"):
            assert main([command, str(path)]) == 1
            assert tuple(capsys.readouterr()) == ("", f"error: {error}\n")
        with pytest.raises(ValueError, match=f"^{error}$"):
            validate_scenario(build_scenario(doc))

    def test_a_401_digit_cache_size_of_an_unplaced_kind_exits_1(self, tmp_path, capsys):
        # the kind's cost coefficient ended in a bare OverflowError
        doc = load_document("fig2.json")
        doc["kinds"][1]["cache_size"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert tuple(capsys.readouterr()) == ("", "error: BsKind 'opt2': cache_size must be finite and >= 0\n")

    def test_warnings_are_printed(self, tmp_path, capsys):
        doc = load_document("fig3.json")
        doc["benchmark_cost"] = 40.0  # below the kind's effective cost
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert "exceeds 1" in capsys.readouterr().out


def _places(node, path=()):
    """The path of every value below ``node``, a JSON document, whether it is
    a dict's value, and whether it is a leaf."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        container = isinstance(value, (dict, list))
        yield path + (key,), isinstance(node, dict), not container
        if container:
            yield from _places(value, path + (key,))


#: Leaf values of the wrong JSON type for most fields, and numbers at or past
#: the edges of what a float holds.
_BAD_LEAVES = (True, None, "x", [1.0], 1e308, -1e308, 5e-324, 2**63, 10**400)

#: The commands of the robustness property; the sweep's path is in every shipped scenario.
_COMMANDS = (
    ["validate"],
    ["eval", "--daily"],
    ["sweep", "--param", "cache.zipf_exponent=0.8,1.2", "--daily", "--out"],
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(p.name for p in SCENARIO_DIR.glob("*.json"))),
       command=st.sampled_from(_COMMANDS))
def test_a_damaged_document_exits_0_or_1_with_one_error_line(data, name, command, tmp_path_factory):
    # one key deleted, or one leaf replaced by a value of the wrong type or size
    doc = load_document(name)
    places = list(_places(doc))
    delete = data.draw(st.booleans(), label="delete a key")
    paths = [path for path, in_dict, leaf in places if (in_dict if delete else leaf)]
    *parents, last = data.draw(st.sampled_from(paths))
    container = functools.reduce(operator.getitem, parents, doc)
    if delete:
        del container[last]
    else:
        container[last] = data.draw(st.sampled_from(_BAD_LEAVES))
    folder = tmp_path_factory.getbasetemp()
    scenario = folder / "damaged.json"
    scenario.write_text(json.dumps(doc))
    argv = [command[0], str(scenario), *command[1:]]
    if command[0] == "sweep":
        argv.append(str(folder / "damaged.csv"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_csv_is_rfc4180_parseable(tmp_path, capsys):
    out = tmp_path / "p.csv"
    main(["sweep", FIG3, "--param", "kinds.ap.cache_size=0:25:5", "--time", "20",
          "--out", str(out)])
    _, header, rows = read_csv(out)
    assert header == list(CSV_COLUMNS)
    assert all(len(r) == len(CSV_COLUMNS) for r in rows)
    raw = out.read_text(encoding="utf-8")
    assert "\r" not in raw  # LF line endings
