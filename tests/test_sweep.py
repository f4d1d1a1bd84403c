"""Parameter paths, grid sweeps, and the running argmax."""

import contextlib
import copy
import itertools
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import load_document, make_scenario, sweep_rows
from e3sim import (
    Argmax,
    CacheConfig,
    InvariantError,
    ParameterPathError,
    SchemaError,
    SweepRow,
    SweepSpec,
    allocation,
    build_scenario,
    cache,
    evaluate,
    evaluate_daily,
    metrics,
    open_sweep,
    radio,
    scenario_to_document,
    set_parameter,
)
from e3sim import sweep
from e3sim.document import _build, _makers
from e3sim.model import _BREAKDOWN_COMPONENTS as BREAKDOWN_COMPONENTS, BaseStation
from e3sim.rng import uniform_positions


@pytest.fixture()
def fig3():
    return load_document("fig3.json")


def built(document, path, value):
    return build_scenario(set_parameter(document, path, value))


def best_of(rows, metric="e3"):
    """(axis values, metric value) of the best of ``rows``, fed one by one to ``Argmax``, as ``e3 sweep`` does."""
    best = Argmax(metric)
    for row in rows:
        best.add(row)
    return best.result()


def rebuilt(document, base, path, value):
    """The scenario of a sweep point of ``document`` with ``value`` at ``path``, built on ``base``."""
    steps = sweep._steps(document, path)
    return _build(sweep._assign(steps, value), base, _makers(base, document, [[key for _, key in steps]]))


class TestSetParameter:
    def test_kind_by_id_and_by_index(self, fig3):
        by_id = set_parameter(fig3, "kinds.ap.cache_size", 12)
        by_index = set_parameter(fig3, "kinds[0].cache_size", 12)
        assert by_id == by_index
        assert by_id["kinds"][0]["cache_size"] == 12
        # stations are built with the edited kind
        assert oracles.stations(build_scenario(by_id))[0].kind.cache_size == 12

    def test_nested_xhaul_field(self, fig3):
        s = built(fig3, "kinds.ap.xhaul.capacity_bps", 2.4e7)
        assert s.kinds[0].xhaul.capacity_bps == 2.4e7

    def test_cache_traffic_ue_and_benchmark(self, fig3):
        assert built(fig3, "cache.strategy", "random_fill").cache.strategy == "random_fill"
        assert built(fig3, "traffic.peak_to_min_ratio", 8.0).traffic.peak_to_min_ratio == 8.0
        explicit = scenario_to_document(build_scenario(fig3))  # UEs as a list
        assert built(explicit, "ues[0].weight", 2.5).ues.weight[0] == 2.5
        assert built(fig3, "benchmark_cost", 200.0).benchmark_cost == 200.0

    def test_base_scenario_is_untouched(self, fig3):
        before = evaluate(build_scenario(fig3), 20.0)
        snapshot = copy.deepcopy(fig3)
        set_parameter(fig3, "kinds.ap.cache_size", 15)
        assert fig3 == snapshot
        assert evaluate(build_scenario(fig3), 20.0) == before

    def test_integer_fields_reject_fractions(self, fig3):
        assert built(fig3, "kinds.ap.cache_size", 3.0).kinds[0].cache_size == 3
        with pytest.raises(SchemaError, match=r"kinds\[0\]\.cache_size: expected an integer, got 3.5"):
            built(fig3, "kinds.ap.cache_size", 3.5)

    @pytest.mark.parametrize(
        "path",
        [
            "nope",
            "kinds.macro.cache_size",
            "kinds[9].cache_size",
            "kinds.ap.no_such_field",
            "kinds.ap.xhaul.no_field",
            "cache.no_field",
            "ues[99].weight",
            "ues.weight",
        ],
    )
    def test_unresolvable_paths(self, fig3, path):
        with pytest.raises(ParameterPathError, match="unresolvable"):
            set_parameter(fig3, path, 0)

    @pytest.mark.parametrize("path", ["kinds.ap.cache_size\n", "kinds\n.ap.cache_size", "kinds[\u0660].cache_size"])
    def test_a_segment_with_a_line_break_or_a_non_ascii_digit_is_bad(self, fig3, path):
        # a whole segment must match the grammar: no trailing line break, an index of ASCII digits
        with pytest.raises(ParameterPathError, match="bad segment"):
            set_parameter(fig3, path, 0)

    def test_invariant_violations_surface(self, fig3):
        with pytest.raises(InvariantError):
            built(fig3, "kinds.ap.xhaul.capacity_bps", -1.0)


class TestDocumentPaths:
    def test_entries_by_id_and_generator_sections(self, fig3):
        assert built(fig3, "base_stations.ap000.position_m[1]", 5.0).base_stations.position_m[0].tolist() == [0.0, 5.0]
        assert len(built(fig3, "ues.uniform_random.count", 4).ues) == 4
        assert built(fig3, "seed", 8).rng_seed == 8
        assert built(fig3, "radio_mode", "physical").radio_mode == "physical"
        fig2 = load_document("fig2.json")
        s = built(fig2, "base_stations.grid.kind", "opt5")
        assert s.base_stations.kind_ids == ("opt5",)
        explicit = scenario_to_document(build_scenario(fig3))
        assert built(explicit, "ues.ue003.demand_peak_bps", 1e6).ues.demand_peak_bps[3] == 1e6

    def test_defaulted_key_gets_the_schema_rules(self, fig3):
        del fig3["kinds"][0]["xhaul"]["xhaul_power_factor"]
        del fig3["kinds"][0]["tx_power_w"]
        assert built(fig3, "kinds.ap.xhaul.xhaul_power_factor", 1.0).kinds[0].xhaul.xhaul_power_factor == 1.0
        # the medium default applies at build time, so a wireless point gets its factor
        assert built(fig3, "kinds.ap.xhaul.medium", "wireless").kinds[0].xhaul.xhaul_power_factor == 3.0
        assert built(fig3, "kinds.ap.tx_power_w", 0.5).kinds[0].tx_power_w == 0.5

    def test_only_the_path_is_copied(self, fig3):
        edited = set_parameter(fig3, "kinds.ap.cache_size", 3)
        assert edited["kinds"] is not fig3["kinds"] and edited["kinds"][0] is not fig3["kinds"][0]
        assert edited["kinds"][0]["xhaul"] is fig3["kinds"][0]["xhaul"]
        assert all(edited[key] is fig3[key] for key in fig3 if key != "kinds")
        assert fig3["kinds"][0]["cache_size"] == 6

    @pytest.mark.parametrize(
        "path",
        ["kinds.ap", "cache", "kinds.ap.cache_size[0]", "seed.x", "kinds.ap.cost_breakdown.infrastructure",
         "base_stations.ap001.kind", "ues.uniform_random.area_m[2]", "kinds.ap-1.cache_size"],
    )
    def test_sections_and_missing_entries_do_not_resolve(self, fig3, path):
        with pytest.raises(ParameterPathError, match=f"unresolvable parameter path '{re.escape(path)}'"):
            set_parameter(fig3, path, 1.0)

    @pytest.mark.parametrize(
        "path, values",
        [
            ("kinds.ap.cache_size", (0, 6)),
            ("seed", (7, 8)),
            ("radio_mode", ("abstract", "physical")),
            ("ues.uniform_random.count", (5, 10)),
            ("base_stations.ap000.position_m[0]", (0.0, 20.0)),
            ("traffic.peak_to_min_ratio", (2.0,)),
            ("traffic.peak_hour", (3.0, 20.0)),
            ("traffic.samples_per_day", (5, 24)),
            ("cache.zipf_exponent", (0.0, 1.2)),
            ("cache.strategy", ("random_fill", "none")),
        ],
    )
    def test_rows_equal_fresh_builds_of_each_point(self, fig3, path, values):
        # points reuse the base's built sections; the rows must not show it
        rows = sweep_rows(fig3, SweepSpec(param_path=path, values=values, daily=True))
        for value, row in zip(values, rows):
            assert row.report == evaluate_daily(built(fig3, path, value))
            assert row.report.cost_rate == oracles.total_cost_rate(built(fig3, path, value))

    def test_points_share_the_sections_they_do_not_touch(self, fig3):
        base = build_scenario(fig3)
        seeded = rebuilt(fig3, base, "seed", 9)
        assert seeded.kinds is base.kinds and seeded.base_stations is base.base_stations
        assert seeded.ues != base.ues
        resized = rebuilt(fig3, base, "kinds.ap.cache_size", 2)
        assert resized.ues is base.ues and oracles.stations(resized)[0].kind.cache_size == 2
        assert resized.base_stations is base.base_stations
        assert resized.cache is base.cache and resized.traffic is base.traffic
        skewed = rebuilt(fig3, base, "cache.zipf_exponent", 1.2)
        assert skewed.cache.zipf_exponent == 1.2 and skewed.traffic is base.traffic
        shifted = rebuilt(fig3, base, "traffic.peak_hour", 3.0)
        assert shifted.traffic.peak_hour == 3.0 and shifted.cache is base.cache

    def test_left_out_cache_and_traffic_are_shared_defaults(self, fig3):
        del fig3["cache"], fig3["traffic"]
        base = build_scenario(fig3)
        point = rebuilt(fig3, base, "seed", 9)
        assert point.cache is base.cache and point.traffic is base.traffic
        assert point == build_scenario(set_parameter(fig3, "seed", 9))

    def test_bad_value_at_a_valid_path_is_a_row_error(self, fig3):
        spec = SweepSpec(param_path="cache.strategy", values=("lru", "none"), time_hours=20.0)
        rows = sweep_rows(fig3, spec)
        assert rows[0].error.startswith("cache.strategy: expected one of")
        assert rows[1].error is None

    def test_result_carries_the_base_scenario(self, fig3):
        spec = SweepSpec(param_path="seed", values=(1,), time_hours=20.0)
        assert open_sweep(fig3, spec)[0] == build_scenario(fig3)


#: A path into each root section of fig3, in the order a build reads the
#: sections, with a bad value, fig3's own value and the bad value's error.
SECTION_ERRORS = [
    ("seed", -1, 7, "document.seed: must be >= 0, got -1"),
    ("kinds.ap.cache_size", 2.5, 6, "kinds[0].cache_size: expected an integer, got 2.5"),
    ("cache.zipf_exponent", "x", 0.8, "cache.zipf_exponent: expected a number, got str"),
    ("traffic.peak_hour", 30, 20.0, "TrafficProfile: peak_hour must lie in [0, 24)"),
    ("benchmark_cost", "cheap", 100.0, "document.benchmark_cost: expected a number or 'max-kind', got 'cheap'"),
    ("base_stations.ap000.kind", "zz", "ap", "base_stations[0]: unknown kind_id 'zz'"),
    ("ues.uniform_random.count", 0, 10, "ues.uniform_random.count: must be >= 1"),
    ("radio_mode", "foo", "abstract", "document.radio_mode: expected one of ('abstract', 'physical'), got 'foo'"),
]


class TestRunSweep:
    def test_single_value_axis_equals_direct_evaluate(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(6,), time_hours=20.0)
        rows = sweep_rows(fig3, spec)
        assert len(rows) == 1
        assert rows[0].report == evaluate(build_scenario(fig3), 20.0)

    def test_rows_match_independent_evaluations(self):
        # each sweep row equals a standalone evaluation of the modified copy
        s = load_document("fig2.json")
        values = (12e6, 24e6, 48e6, 96e6, 192e6)
        spec = SweepSpec(param_path="kinds.opt3.xhaul.capacity_bps", values=values, time_hours=20.0)
        rows = sweep_rows(s, spec)
        for value, row in zip(values, rows):
            expected = evaluate(built(s, "kinds.opt3.xhaul.capacity_bps", value), 20.0)
            assert row.report == expected
            assert row.error is None

    def test_unused_cache_leaves_throughput_flat(self, fig3):
        s = set_parameter(fig3, "cache.strategy", "none")
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(0, 21, 5)), time_hours=20.0)
        rows = sweep_rows(s, spec)
        throughputs = {row.report.throughput_bps for row in rows}
        assert len(throughputs) == 1

    def test_a_bigger_cache_at_equal_throughput_costs_more(self, fig3):
        # from size 10 on the X-Haul no longer binds at fig3's peak, so only the cost of cache items grows
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(10, 20), time_hours=20.0)
        small, large = (row.report for row in sweep_rows(fig3, spec))
        assert small.throughput_bps == large.throughput_bps
        assert small.cost_rate < large.cost_rate

    def test_row_level_errors_do_not_abort(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(0, 25, 10), time_hours=20.0)
        rows = sweep_rows(fig3, spec)
        assert [row.error is None for row in rows] == [True, False, True]
        assert "cache larger than catalog" in rows[1].error

    def test_unresolvable_path_raises_up_front(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.bogus", values=(1,))
        with pytest.raises(ParameterPathError):
            open_sweep(fig3, spec)

    @pytest.mark.parametrize("path2", ["kinds[0].cache_size", "kinds.ap.cache_size"])
    def test_two_paths_to_one_value_raise_up_front(self, fig3, path2):
        # every point once took the second value, so the first axis did nothing
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(1, 2), param2_path=path2, values2=(3,),
                         time_hours=20.0)
        message = f"parameter paths 'kinds.ap.cache_size' and '{path2}' address the same value"
        with pytest.raises(ParameterPathError, match=f"^{re.escape(message)}$"):
            open_sweep(fig3, spec)

    def test_a_second_path_that_reaches_the_first_value_takes_the_second_value(self, fig3):
        # naming kind 1 "x" makes it the entry that kinds.x names, so at that point both paths set one value
        fig3["kinds"] += [{**fig3["kinds"][0], "kind_id": kind_id} for kind_id in ("b", "x")]
        spec = SweepSpec(param_path="kinds[1].kind_id", values=("b", "x"), param2_path="kinds.x.kind_id",
                         values2=("y",), time_hours=20.0)
        points, on = [], []

        def recorded(*args):
            on.append(args[1])
            points.append(_build(*args))
            return points[-1]

        with mock.patch("e3sim.sweep._build", recorded):
            base, _, rows = open_sweep(fig3, spec)
            rows = list(rows)
        # "b" builds its first-axis point, then the second-axis point on it; at "x" two kinds are
        # named "x", so its first-axis point fails, and its second-axis point is built on the base
        assert points == [built(fig3, "kinds[1].kind_id", "b"), built(fig3, "kinds[2].kind_id", "y"),
                          built(fig3, "kinds[1].kind_id", "y")]
        assert [tuple(k.kind_id for k in p.kinds) for p in points] == [("ap", "b", "x"), ("ap", "b", "y"),
                                                                     ("ap", "y", "x")]
        assert [s is want for s, want in zip(on, [base, points[0], base, base])] == [True] * 4
        assert [row.report for row in rows] == [evaluate(p, 20.0) for p in points[1:]]

    @pytest.mark.parametrize("key, value", [("traffic", {"peak_hour": 3.0}), ("cache", {"catalog_size": 20})])
    def test_a_section_the_document_leaves_out_can_be_set_whole(self, fig3, key, value):
        del fig3[key]
        for spec in (SweepSpec(key, (value, 5), time_hours=20.0),
                     SweepSpec("seed", (0,), key, (value, 5), time_hours=20.0)):
            rows = sweep_rows(fig3, spec)
            assert rows[0].report == evaluate(built(fig3, key, value), 20.0)
            assert rows[1].error == f"{key}: expected an object"

    @pytest.mark.parametrize("earlier, later", zip(SECTION_ERRORS, SECTION_ERRORS[1:]),
                             ids=[f"{a[0]}-{b[0]}" for a, b in zip(SECTION_ERRORS, SECTION_ERRORS[1:])])
    def test_a_document_bad_in_two_sections_reports_the_earlier(self, fig3, earlier, later):
        # the sections are read in one order, fresh or on a sweep's base, whichever axis sets which
        (path1, bad1, good1, error1), (path2, bad2, good2, error2) = earlier, later
        with pytest.raises(ValueError, match=f"^{re.escape(error1)}$"):
            build_scenario(set_parameter(set_parameter(fig3, path1, bad1), path2, bad2))
        spec = SweepSpec(path1, (bad1, good1), path2, (bad2, good2), time_hours=20.0)
        assert [row.error for row in sweep_rows(fig3, spec)] == [error1, error1, error2, None]
        spec = SweepSpec(path2, (bad2, good2), path1, (bad1, good1), time_hours=20.0)
        assert [row.error for row in sweep_rows(fig3, spec)] == [error1, error2, error1, None]

    def test_base_scenario_reproduces_after_sweep(self, fig3):
        before = evaluate(build_scenario(fig3), 20.0)
        sweep_rows(fig3, SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)), time_hours=20.0))
        assert evaluate(build_scenario(fig3), 20.0) == before

    def test_repeat_runs_are_identical(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(0, 21, 2)), daily=True)
        (base, _, rows), (again, _, rows_again) = open_sweep(fig3, spec), open_sweep(fig3, spec)
        assert base == again
        assert tuple(rows) == tuple(rows_again)

    def test_two_axes_row_major(self, fig3):
        spec = SweepSpec(
            param_path="kinds.ap.cache_size",
            values=(0, 5, 10),
            param2_path="cache.zipf_exponent",
            values2=(0.5, 1.0),
            time_hours=20.0,
        )
        rows = sweep_rows(fig3, spec)
        assert [row.values for row in rows] == [
            (0, 0.5), (0, 1.0), (5, 0.5), (5, 1.0), (10, 0.5), (10, 1.0)
        ]

    def test_a_daily_sweep_takes_no_hour(self):
        # every row of such a sweep once reported the daily average, the hour dropped
        with pytest.raises(ValueError, match="^SweepSpec: time_hours must be None for a daily sweep$"):
            SweepSpec(param_path="kinds.ap.cache_size", values=(0, 6), time_hours=20.0, daily=True)

    @pytest.mark.parametrize("hour", [True, False, "20"])
    def test_the_hour_must_be_a_number(self, hour):
        # True was evaluated as hour 1
        with pytest.raises(TypeError, match=f"^SweepSpec: time_hours must be a number, got {hour!r}$"):
            SweepSpec(param_path="kinds.ap.cache_size", values=(0, 6), time_hours=hour)

    @pytest.mark.parametrize("field", ["values", "values2"])
    @pytest.mark.parametrize("values", ["wired", b"12", bytearray(b"12"), {"wired": 1}, {"wired", "fiber"}],
                             ids=lambda values: type(values).__name__)
    def test_an_axis_must_be_a_sequence_of_values(self, field, values):
        # a string was split into its characters, bytes into the numbers of its characters, a mapping
        # into its keys, and a set of strings gave its rows in an order that moved with the hash seed
        axes = {"values": (0, 6), "param2_path": "kinds.ap.xhaul.medium", "values2": ("wired",), field: values}
        message = f"^SweepSpec: {field} must be a sequence of values, got {type(values).__name__}$"
        with pytest.raises(TypeError, match=message):
            SweepSpec(param_path="kinds.ap.cache_size", time_hours=20.0, **axes)

    @pytest.mark.parametrize("hour", [float("nan"), float("inf"), -float("inf")])
    def test_the_hour_must_be_finite(self, hour):
        # every row of such a sweep once failed with the same t_hours error, and the sweep exited 0
        with pytest.raises(ValueError, match=f"^SweepSpec: time_hours must be finite, got {hour}$"):
            SweepSpec(param_path="kinds.ap.cache_size", values=(0, 6), time_hours=hour)

    def test_an_int_hour_past_the_largest_float_is_a_value_error(self):
        # it ended in a bare OverflowError
        with pytest.raises(ValueError, match="^SweepSpec: time_hours must be finite, got inf$"):
            SweepSpec(param_path="kinds.ap.cache_size", values=(0, 6), time_hours=10**400)


class TestArgmax:
    def test_unknown_metric_is_a_typed_error(self):
        with pytest.raises(ValueError, match=r"unknown metric 'bogus', expected one of \('se', 'ee', 'ce', 'e3'\)"):
            Argmax("bogus")

    def test_tie_breaks_to_smallest_value(self, fig3):
        s = set_parameter(fig3, "cache.strategy", "none")
        s = set_parameter(s, "kinds.ap.cache_item_cost_per_area", 0.0)
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(1, 2, 3), time_hours=20.0)
        values, _ = best_of(sweep_rows(s, spec))
        assert values == (1,)

    @pytest.mark.parametrize("values", [("max-kind", 100.0), (100.0, "max-kind")])
    def test_a_tie_between_a_string_and_a_number_goes_to_the_number(self, fig3, values):
        # SE is blind to cost, so both rows tie; comparing them once raised a TypeError
        spec = SweepSpec(param_path="benchmark_cost", values=values, time_hours=20.0)
        rows = sweep_rows(fig3, spec)
        assert rows[0].report.se == rows[1].report.se
        assert best_of(rows, "se")[0] == (100.0,)

    def test_ties_order_numbers_first_then_other_types_by_name(self):
        report = evaluate(make_scenario(), 20.0)

        def best(*values):
            return best_of(SweepRow(v, report) for v in values)[0]

        # values of one type keep their own order
        assert best(("b", 2.0), ("a", 3.0), ("a", 1.0)) == ("a", 1.0)
        assert best(("b", 2.0), ("a", 3.0), (2.0, "z"), (10.0, "a")) == (2.0, "z")
        assert best(({"k": 1.0},), ("s",), (None,)) == (None,)
        assert best(({"k": 1.0},), ("s",), (None,), (7,)) == (7,)
        # lists entry by entry, and dicts by their sorted items
        assert best(([1.0, 3.0],), ([1.0, 2.0, 0.0],), ([1.0, 2.0],)) == ([1.0, 2.0],)
        assert best(({"b": 1.0, "a": 2.0},), ({"a": 1.0, "b": 5.0},)) == ({"a": 1.0, "b": 5.0},)
        assert best(([{"k": 2.0}],), ([{"k": "x"}],), ([{"k": 1.0}],)) == ([{"k": 1.0}],)

    @pytest.mark.parametrize("discounts", [(0.5, 0.2), (0.2, 0.5)])
    def test_a_tie_between_two_cost_breakdowns_goes_to_the_smaller(self, fig3, discounts):
        # SE is blind to cost, so both rows tie; comparing the two dicts once raised a TypeError
        parts = {"infrastructure": 20.0, "site_installation": 10.0, "site_operation": 5.0,
                 "optimization_maintenance": 5.0, "cache_placement": 5.0, "xhaul_configuration": 3.0,
                 "content_delivery": 2.0}
        a, b = ({**parts, "inherited_discount": d} for d in discounts)
        rows = sweep_rows(fig3, SweepSpec("kinds.ap.cost_breakdown", (a, b), time_hours=20.0))
        assert rows[0].report.se == rows[1].report.se
        assert best_of(rows, "se")[0] == ({**parts, "inherited_discount": 0.2},)

    def test_matches_exhaustive_scan(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)), time_hours=20.0)
        rows = sweep_rows(fig3, spec)
        values, best = best_of(rows, "e3")
        scan_best = max(row.report.e3 for row in rows if row.report)
        assert best == scan_best
        assert values[0] == next(
            row.values[0] for row in rows if row.report and row.report.e3 == scan_best
        )

    def test_value_equals_row_maximum_for_every_metric(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(0, 21, 4)), time_hours=20.0)
        rows = sweep_rows(fig3, spec)
        for metric in ("se", "ee", "ce", "e3"):
            _, best = best_of(rows, metric)
            assert best == max(getattr(row.report, metric) for row in rows)

    def test_all_rows_failed(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(30, 40), time_hours=20.0)
        with pytest.raises(ValueError, match="all sweep rows failed"):
            best_of(sweep_rows(fig3, spec))


def two_station_fig3():
    """fig3 with a second station of the same kind, so positions move UEs."""
    doc = load_document("fig3.json")
    doc["base_stations"].append({"bs_id": "ap001", "kind": "ap", "position_m": [40.0, 40.0]})
    return doc


def derived_fig3():
    """two_station_fig3 whose X-Haul leaves out its power factor, which then
    follows the medium, and whose kind has a cost breakdown, which its
    cost_per_area must match."""
    doc = two_station_fig3()
    del doc["kinds"][0]["xhaul"]["xhaul_power_factor"]
    doc["kinds"][0]["cost_breakdown"] = {"infrastructure": 20.0, **dict.fromkeys(BREAKDOWN_COMPONENTS[1:], 5.0)}
    return doc


#: The document of each ``AXES`` entry.
DOCUMENTS = {"fig3": two_station_fig3, "fig3_derived": derived_fig3, "fig2": lambda: load_document("fig2.json")}


#: Sweep axes by document: each path with values that move the geometry,
#: change traffic or physical capacity, or fail to build or to evaluate.
AXES = {
    "fig3": {
        "seed": (0, 7, 8, -1),
        "radio_mode": ("abstract", "physical", "foo"),
        "ues.uniform_random.count": (1, 4, 10, 0),
        "base_stations.ap001.position_m[0]": (0.0, 30.0, 40.0, 1e3, "x"),
        "kinds.ap.tx_power_w": (0.05, 0.13, 2.0, 0.0),
        "kinds.ap.xhaul.capacity_bps": (1e6, 1.6e7, 1e8, -1.0),
        "kinds.ap.cache_size": (0, 6, 20, 21, 2.5),
        "traffic.peak_to_min_ratio": (1.0, 4.0, 0.5),
        "traffic.peak_hour": (0.0, 20.0, 24.0),
        "traffic.samples_per_day": (1, 5, 24, 0),
        "cache.zipf_exponent": (0.0, 0.8, -1.0),
        # below the cache size 6 a point builds but fails its inputs (a cache larger than the catalog)
        "cache.catalog_size": (3, 20),
        # above about 4e7 bit/s the X-Haul binds: equal effective capacity, but load and power differ
        "kinds.ap.radio_capacity_bps": (2e7, 5e7, 6e7, 1.2e8, 0.0),
        "cache.strategy": ("none", "random_fill", "top_popular", "lru"),
        "kinds.ap.max_tx_dynamic_power_w": (1.0, 3.2, 8.0, -1.0),
        # a renamed kind leaves the stations naming "ap" unknown
        "kinds[0].kind_id": ("ap", "zz"),
        "benchmark_cost": ("max-kind", 100, 0, "cheap"),
    },
    # values derived from another field, and a rule across two fields
    "fig3_derived": {
        "kinds.ap.xhaul.medium": ("wired", "wireless", "fiber"),
        "kinds.ap.xhaul.capacity_bps": (1e7, 2e7),
        "kinds.ap.cost_per_area": (50.0, 60.0, 0.0),
        "kinds.ap.cost_breakdown.infrastructure": (20.0, 30.0, -1.0),
        "kinds.ap.cache_size": (0, 6, 2.5),
        # -0.0 compares equal to 0.0, and gives the same report bits
        "kinds.ap.xhaul.xhaul_power_factor": (0.0, -0.0, 3.0),
    },
    "fig2": {
        "base_stations.grid.kind": ("opt1", "opt3", "opt5", "opt9", "zz"),
        # renaming opt1 to an id in use duplicates it; to "zz", the grid may name it
        "kinds[0].kind_id": ("opt1", "zz", "opt3"),
        "kinds.opt3.bandwidth_hz": (1e6, 2e7, 0.0),
        "kinds.opt3.tx_power_w": (0.05, 1.0),
        "kinds.opt3.xhaul.capacity_bps": (1e7, 1e8),
        "radio_mode": ("abstract", "physical"),
        "seed": (1, 2),
        "traffic.peak_hour": (0.0, 12.0),
    },
}


def fresh_outcome(document, spec, values):
    """A grid point's (report, cost rate), or its error, from a fresh edit and build."""
    try:
        point = set_parameter(document, spec.param_path, values[0])
        if spec.param2_path is not None:
            point = set_parameter(point, spec.param2_path, values[1])
        s = build_scenario(point)
        if spec.daily:
            report = evaluate_daily(s)
        else:
            report = evaluate(s, spec.time_hours if spec.time_hours is not None else 20.0)
        return report, oracles.total_cost_rate(s)
    except (ValueError, ArithmeticError) as exc:
        return str(exc)


@st.composite
def sweeps(draw):
    name = draw(st.sampled_from(sorted(AXES)))
    document = DOCUMENTS[name]()
    document["radio_mode"] = draw(st.sampled_from(("abstract", "physical")))
    paths = draw(st.lists(st.sampled_from(sorted(AXES[name])), min_size=1, max_size=2, unique=True))
    # unique by repr, so that an axis may hold both 0.0 and -0.0
    axes = [tuple(draw(st.lists(st.sampled_from(AXES[name][p]), min_size=1, max_size=4, unique_by=repr)))
            for p in paths]
    daily = draw(st.booleans())
    spec = SweepSpec(
        param_path=paths[0],
        values=axes[0],
        param2_path=paths[1] if len(paths) > 1 else None,
        values2=axes[1] if len(paths) > 1 else None,
        time_hours=None if daily else draw(st.sampled_from((None, 3.0, 20.0))),
        daily=daily,
    )
    return document, spec


def grid_fig3():
    """fig3 with its station replaced by a 2 x 2 grid of the same kind."""
    doc = load_document("fig3.json")
    doc["base_stations"] = {"grid": {"kind": "ap", "rows": 2, "cols": 2, "spacing_m": 30.0}}
    return doc


def assert_kind_sweep_shares_the_base_layout(document, spec):
    """Run a sweep of one kind value at hour 20: every point is built on the
    base's very layout with no station record made, its stations are of
    its own catalog's kinds, and its row equals a fresh build's report and
    the oracle's."""
    points = []

    def recorded(point, base, edits):
        points.append(_build(point, base, edits))
        return points[-1]

    check = mock.patch.object(BaseStation, "__init__", autospec=True, side_effect=BaseStation.__init__)
    with check as made, mock.patch("e3sim.sweep._build", recorded):
        base, _, rows = open_sweep(document, spec)
        rows = list(rows)
    assert made.call_count == 0 and len(points) == len(spec.values)
    for s in points:
        assert s.base_stations is base.base_stations
        assert oracles.stations(s)[0].kind is s.kinds[0]
    fresh = [built(document, spec.param_path, v) for v in spec.values]
    assert [row.report for row in rows] == [evaluate(s, 20.0) for s in fresh]
    assert [row.report for row in rows] == [oracles.evaluate(s, 20.0) for s in fresh]


@contextlib.contextmanager
def recorded_blocks():
    """Record (entries, evaluated points) of every non-empty block a sweep evaluates."""
    blocks = []
    real = sweep._evaluated

    def recorded(block, geometry, t, inputs, row):
        if block:
            blocks.append((len(block), len(inputs)))
        return real(block, geometry, t, inputs, row)

    with mock.patch("e3sim.sweep._evaluated", recorded):
        yield blocks


def assert_blocks_within_one_chunk(blocks, rows_per_chunk, samples):
    """Each block's evaluated points fill at most one chunk of rows, and it
    holds at most a chunk's number of entries."""
    for entries, points in blocks:
        assert points <= max(1, rows_per_chunk // samples) and entries <= rows_per_chunk


#: X-Haul capacities for fig3's ``top_popular`` cache: at cache size 6 the limit binds below
#: about 2.4e7 bit/s, and above it every point repeats the one before; -1.0 fails to build.
XHAUL_RUNS = (1e6, 2e6, 1.6e7, 3e7, 5e7, 1e8, 2e8, -1.0)


@st.composite
def long_runs(draw):
    """fig3 sweeps over cache size (21 exceeds the catalog, so its points fail)
    and a long X-Haul axis full of runs of equal points."""
    sizes = tuple(draw(st.lists(st.sampled_from((0, 6, 20, 21)), min_size=1, max_size=3)))
    xhaul = tuple(draw(st.lists(st.sampled_from(XHAUL_RUNS), min_size=20, max_size=60)))
    daily = draw(st.booleans())
    spec = SweepSpec(param_path="kinds.ap.cache_size", values=sizes, param2_path="kinds.ap.xhaul.capacity_bps",
                     values2=xhaul, time_hours=None if daily else draw(st.sampled_from((None, 3.0))), daily=daily)
    return load_document("fig3.json"), spec


class TestBlocks:
    @settings(max_examples=25, deadline=None)
    @given(sweep=long_runs(), chunk_bytes=st.sampled_from((8, 1024, 8192, radio.CHUNK_BYTES)))
    def test_long_runs_and_failing_points_give_the_rows_of_fresh_evaluations(self, sweep, chunk_bytes):
        document, spec = sweep
        with mock.patch.object(radio, "CHUNK_BYTES", chunk_bytes), recorded_blocks() as blocks:
            rows = sweep_rows(document, spec)
            rows_per_chunk = radio.chunk_rows(10)  # fig3 has 10 UEs and one station
        assert [row.values for row in rows] == [(v1, v2) for v1 in spec.values for v2 in spec.values2]
        for row in rows:
            want = fresh_outcome(document, spec, row.values)
            assert (row.error if row.error is not None else (row.report, row.report.cost_rate)) == want
        assert_blocks_within_one_chunk(blocks, rows_per_chunk, samples=24 if spec.daily else 1)

    def test_the_fig3_cache_xhaul_study_evaluates_full_blocks(self, fig3):
        # the Fig. 3 study: 21 cache sizes x 100 X-Haul capacities, daily; above the binding
        # capacity each point repeats the one before, so 402 of the 2,100 points are evaluated
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)),
                         param2_path="kinds.ap.xhaul.capacity_bps", values2=tuple(1e6 * v for v in range(1, 101)),
                         daily=True)
        sizes = []
        real = metrics.evaluate_block

        def recorded(geometry, inputs, *args):
            sizes.append(len(inputs))
            return real(geometry, inputs, *args)

        compiled = mock.patch.object(allocation, "_blocks", wraps=allocation._blocks)
        with mock.patch("e3sim.sweep.evaluate_block", recorded), compiled as sort:
            rows = sweep_rows(fig3, spec)
        per_block = radio.chunk_rows(10) // 24
        assert len(rows) == 2100 and all(row.error is None for row in rows)
        assert sum(sizes) == 402
        assert len(sizes) <= -(-402 // per_block) == 12
        assert sort.call_count == 1  # the peaks are sorted once for the geometry
        assert cache._zipf_probabilities.cache_info().misses == 1  # one Zipf table for the whole sweep

    @pytest.mark.parametrize(
        "spec, compiled, blocks",
        [
            # one geometry serves both sample counts; a block ends where the count changes
            (SweepSpec(param_path="traffic.samples_per_day", values=(5, 24), daily=True), 1, [(1, 1), (1, 1)]),
            # a catalog below the cache size fails each point's inputs: no geometry is compiled for it,
            # and before the first geometry a block holds one entry
            (SweepSpec(param_path="cache.catalog_size", values=(3, 20), param2_path="seed", values2=(1, 2),
                       time_hours=20.0), 2, [(1, 0), (1, 0), (1, 1), (1, 1)]),
        ],
        ids=["daily_sample_counts", "failing_catalog_by_seed"],
    )
    def test_a_geometry_is_compiled_once_for_the_points_that_evaluate_on_it(self, fig3, spec, compiled, blocks):
        with mock.patch("e3sim.sweep.plan_geometry", wraps=allocation.plan_geometry) as plan, \
                recorded_blocks() as recorded:
            rows = sweep_rows(fig3, spec)
        assert plan.call_count == compiled and recorded == blocks
        assert [row.values for row in rows] == list(itertools.product(spec.values, *filter(None, [spec.values2])))
        for row in rows:
            want = fresh_outcome(fig3, spec, row.values)
            assert (row.error if row.error is not None else (row.report, row.report.cost_rate)) == want
        assert sum(row.error is not None for row in rows) == (2 if spec.param2_path else 0)

    def test_a_seed_first_sweep_compiles_one_geometry_per_seed(self, fig3):
        # each seed's UEs are generated once, on its first-axis point, and its cache sizes share them
        spec = SweepSpec(param_path="seed", values=tuple(range(10)), param2_path="kinds.ap.cache_size",
                         values2=tuple(range(21)), daily=True)
        with mock.patch("e3sim.sweep.plan_geometry", wraps=allocation.plan_geometry) as plan, \
                mock.patch("e3sim.document.uniform_positions", wraps=uniform_positions) as positions:
            rows = sweep_rows(fig3, spec)
        assert plan.call_count == 10
        assert positions.call_count == 10  # the base's, and one per seed but the base's
        assert [row.values for row in rows] == list(itertools.product(spec.values, spec.values2))
        assert all(row.error is None for row in rows)
        for row in rows:
            assert (row.report, row.report.cost_rate) == fresh_outcome(fig3, spec, row.values)

    def test_points_of_one_geometry_may_place_different_kinds(self, fig3):
        # the second station's kind moves no UE, but its points place two kinds, then one
        fig3["kinds"].append({**fig3["kinds"][0], "kind_id": "b", "radio_capacity_bps": 3e7})
        fig3["base_stations"].append({"bs_id": "ap001", "kind": "ap", "position_m": [40.0, 40.0]})
        spec = SweepSpec(param_path="base_stations.ap001.kind", values=("b", "ap", "b"), daily=True)
        with mock.patch("e3sim.sweep.plan_geometry", wraps=allocation.plan_geometry) as plan, \
                recorded_blocks() as blocks:
            rows = sweep_rows(fig3, spec)
        assert plan.call_count == 1 and blocks == [(3, 3)]
        assert [len(built(fig3, spec.param_path, v).placed_kinds) for v in spec.values] == [2, 1, 2]
        for row in rows:
            assert (row.report, row.report.cost_rate) == fresh_outcome(fig3, spec, row.values)

    def test_a_top_popular_cache_size_sweep_sums_each_head_once(self, fig3):
        # the cache size is the inner axis, so each of its 21 values comes back at every X-Haul capacity
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=(1e6, 1e7, 1e8),
                         param2_path="kinds.ap.cache_size", values2=tuple(range(21)), time_hours=20.0)
        rows = sweep_rows(fig3, spec)
        assert all(row.error is None for row in rows)
        info = cache._head_sum.cache_info()
        assert (info.misses, info.hits) == (21, 42)
        assert cache._zipf_probabilities.cache_info().misses == 1

    def test_concurrent_sweeps_give_the_rows_of_serial_runs(self, fig3):
        # records are shared across concurrent evaluations; the fig3 sweep alternates Zipf
        # tables at every point, while the fig4_c3 one (random_fill) reads none
        exponents = {"fig3": (0.4, 0.8, 1.2), "c3": tuple(0.2 * i for i in range(11))}
        jobs = [
            (document, SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)),
                                 param2_path="cache.zipf_exponent", values2=exponents[name], daily=True))
            for name, document in (("fig3", fig3), ("c3", load_document("fig4_c3.json")))
        ]

        def rows(job):
            return [(row.values, row.report, row.report and row.report.cost_rate, row.error)
                    for row in sweep_rows(*job)]

        serial = [rows(job) for job in jobs]
        start = threading.Barrier(len(jobs), timeout=60)

        def together(job):
            start.wait()
            return [rows(job) for _ in range(3)]

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            concurrent = list(pool.map(together, jobs))
        assert concurrent == [[want] * 3 for want in serial]
        assert all(row[3] is None for want in serial for row in want)

    @settings(max_examples=40, deadline=None)
    @given(sweep=sweeps(), chunk_bytes=st.sampled_from((8, 1024, radio.CHUNK_BYTES)))
    @example(
        sweep=(two_station_fig3(), SweepSpec(param_path="kinds.ap.radio_capacity_bps", values=(5e7, 6e7, 1.2e8),
                                             time_hours=20.0)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    @example(
        sweep=(derived_fig3(), SweepSpec(param_path="kinds.ap.xhaul.medium", values=("wireless", "fiber", "wired"),
                                         param2_path="kinds.ap.cost_per_area", values2=(60.0, 50.0), daily=True)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    @example(
        sweep=(derived_fig3(), SweepSpec(param_path="kinds.ap.cost_breakdown.infrastructure", values=(30.0, 20.0),
                                         param2_path="kinds.ap.cost_per_area", values2=(50.0, 60.0), time_hours=3.0)),
        chunk_bytes=1024,
    )
    @example(
        sweep=(load_document("fig2.json"), SweepSpec(param_path="kinds[0].kind_id", values=("zz", "opt3", "opt1"),
                                                     param2_path="base_stations.grid.kind", values2=("zz", "opt1"),
                                                     time_hours=20.0)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    @example(
        sweep=(two_station_fig3(), SweepSpec(param_path="benchmark_cost", values=("max-kind", 100, 0, "cheap"),
                                             param2_path="kinds[0].kind_id", values2=("ap", "zz"), daily=True)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    # a first value that fails alone, repaired by the second value
    @example(
        sweep=(derived_fig3(), SweepSpec(param_path="kinds.ap.cost_per_area", values=(60.0,),
                                         param2_path="kinds.ap.cost_breakdown.infrastructure", values2=(30.0, 20.0),
                                         daily=True)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    # a first value that fails, and a second value that fails in an earlier section
    @example(
        sweep=(two_station_fig3(), SweepSpec(param_path="radio_mode", values=("foo",),
                                             param2_path="kinds.ap.cache_size", values2=(2.5, 6), time_hours=20.0)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    # a -0.0 power factor repeats the 0.0 before it
    @example(
        sweep=(derived_fig3(), SweepSpec(param_path="kinds.ap.xhaul.xhaul_power_factor", values=(0.0, -0.0, 3.0),
                                         daily=True)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    def test_every_row_equals_a_fresh_evaluation(self, sweep, chunk_bytes):
        # both fig3 and fig2 peak at hour 20, the default time of a row
        document, spec = sweep
        with mock.patch.object(radio, "CHUNK_BYTES", chunk_bytes):
            rows = sweep_rows(document, spec)
        for row in rows:
            want = fresh_outcome(document, spec, row.values)
            assert (row.error if row.error is not None else (row.report, row.report.cost_rate)) == want

    def test_the_second_path_is_resolved_on_each_first_axis_point(self, fig3):
        # renaming kind "ap" leaves no entry for the second path to name
        spec = SweepSpec(param_path="kinds[0].kind_id", values=("ap", "zz", "ap"),
                         param2_path="kinds.ap.cache_size", values2=(0, 5, 25), time_hours=20.0)
        with mock.patch("e3sim.sweep._steps", wraps=sweep._steps) as steps, \
                mock.patch("e3sim.sweep._makers", wraps=sweep._makers) as makers:
            rows = sweep_rows(fig3, spec)
        assert [row.values for row in rows] == [(v1, v2) for v1 in spec.values for v2 in spec.values2]
        for row in rows:
            want = fresh_outcome(fig3, spec, row.values)
            assert (row.error if row.error is not None else (row.report, row.report.cost_rate)) == want
        assert [row.error for row in rows[3:6]] == ["unresolvable parameter path 'kinds.ap.cache_size': no entry 'ap'"] * 3
        # two checks of the base document, the first path's steps kept for the points, then the second
        # path once per first value; the first is compiled once, on the base, and the second once per
        # first value whose second path resolves, on that value's point
        assert steps.call_count == 2 + len(spec.values)
        assert [c.args[2] for c in makers.call_args_list] == [[["kinds", 0, "kind_id"]]] + [
            [["kinds", 0, "cache_size"]]
        ] * 2

    @pytest.mark.parametrize("mode", ["abstract", "physical"])
    def test_a_sweep_that_moves_no_ue_associates_once(self, fig3, mode):
        document = set_parameter(fig3, "radio_mode", mode)
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=(1e7, 2e7, 4e7), time_hours=20.0)
        nearest = mock.patch.object(allocation, "nearest_stations", wraps=allocation.nearest_stations)
        physical = mock.patch.object(allocation, "physical_capacities", wraps=allocation.physical_capacities)
        with nearest as associate, physical as capacities:
            rows = sweep_rows(document, spec)
        assert associate.call_count == 1
        assert capacities.call_count == (mode == "physical")
        assert [row.report for row in rows] == [
            evaluate(built(document, spec.param_path, v), 20.0) for v in spec.values
        ]

    def test_a_seed_sweep_of_listed_ues_associates_once(self, fig3):
        # a listed population does not depend on the seed, so every point keeps the base's
        document = scenario_to_document(build_scenario(fig3))  # the UEs as a list
        spec = SweepSpec(param_path="seed", values=(1, 2, 3), time_hours=20.0)
        with mock.patch.object(allocation, "nearest_stations", wraps=allocation.nearest_stations) as associate:
            rows = sweep_rows(document, spec)
        assert associate.call_count == 1
        assert [row.report for row in rows] == [evaluate(built(document, "seed", v), 20.0) for v in spec.values]

    def test_a_kind_sweep_of_a_grid_makes_no_station_record_per_point(self):
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=(1e7, 2e7, 4e7), time_hours=20.0)
        assert_kind_sweep_shares_the_base_layout(grid_fig3(), spec)

    def test_a_cache_size_sweep_shares_the_base_layout(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(0, 2, 5), time_hours=20.0)
        assert_kind_sweep_shares_the_base_layout(fig3, spec)

    @pytest.mark.parametrize(
        "document, path, error",
        [
            (load_document("fig3.json"), "kinds.ap.kind_id", "base_stations[0]: unknown kind_id 'ap'"),
            (grid_fig3(), "kinds.ap.kind_id", "base_stations.grid: unknown kind_id 'ap'"),
            (grid_fig3(), "base_stations.grid.kind", "base_stations.grid: unknown kind_id 'nope'"),
        ],
    )
    def test_a_kind_rename_fails_only_the_point_whose_stations_lose_their_kind(self, document, path, error):
        value = "other" if path.startswith("kinds") else "nope"
        rows = sweep_rows(document, SweepSpec(param_path=path, values=("ap", value), time_hours=20.0))
        assert [row.error for row in rows] == [None, error]
        assert rows[0].report == evaluate(build_scenario(document), 20.0)

    def test_blocks_of_points_fit_one_chunk_of_rows(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)),
                         param2_path="kinds.ap.xhaul.capacity_bps", values2=(1e6, 1e7, 1e8), daily=True)
        sizes = []
        real = metrics.evaluate_block

        def recorded(geometry, inputs, *args):
            sizes.append(len(inputs))
            return real(geometry, inputs, *args)

        with mock.patch("e3sim.sweep.evaluate_block", recorded):
            sweep_rows(fig3, spec)
        per_block = radio.chunk_rows(10) // 24  # 10 UEs, 24 samples a day
        # a block ends after per_block of the 63 points, repeats included; the 9 points whose
        # X-Haul limit, like the point's before, exceeds the radio capacity are not evaluated
        assert sum(sizes) == 63 - 9 and max(sizes) == per_block and len(sizes) == -(-63 // per_block)

    def test_rows_stream_before_the_grid_is_built(self, fig3):
        # below 2.4e7 bit/s the X-Haul binds, so each of the 100 points is evaluated: three blocks
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=tuple(1e5 * v for v in range(1, 101)),
                         daily=True)
        with mock.patch("e3sim.sweep._build", wraps=_build) as build:
            base, _, rows = open_sweep(fig3, spec)
            assert base == build_scenario(fig3) and build.call_count == 0
            first = next(rows)
            assert build.call_count == radio.chunk_rows(10) // 24 < len(spec.values)
        assert first.report == evaluate_daily(built(fig3, spec.param_path, 1e5))

    def test_a_long_xhaul_run_evaluates_each_binding_point_once(self, fig3):
        # from 2.4e7 bit/s up the X-Haul limit exceeds the 6e7 bit/s radio capacity, so 76 of
        # the 100 points repeat the point before; they take no rows, so one block holds them all
        values = tuple(1e6 * v for v in range(1, 101))
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=values, daily=True)
        miss = 1.0 - oracles.hit_ratio(CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy="top_popular"), 6)
        evaluated = []
        real_block = metrics.evaluate_block

        def recorded_points(geometry, inputs, *args):
            evaluated.extend(inputs)
            return real_block(geometry, inputs, *args)

        with mock.patch("e3sim.sweep.evaluate_block", recorded_points), recorded_blocks() as blocks:
            rows = sweep_rows(fig3, spec)
        assert len(evaluated) == sum(v / miss < 6e7 for v in values) + 1 == 24
        assert blocks == [(100, 24)]
        assert_blocks_within_one_chunk(blocks, rows_per_chunk=radio.chunk_rows(10), samples=24)
        assert all(row.report is rows[23].report for row in rows[24:])
        for value, row in zip(values, rows):
            assert row.report == evaluate_daily(built(fig3, spec.param_path, value))

    def test_a_failing_point_ends_a_run_of_equal_points(self, fig3):
        # cache_size 25 exceeds the 20-item catalog, and kind "zz" leaves the second path no entry
        spec = SweepSpec(param_path="kinds[0].kind_id", values=("ap", "zz", "ap"),
                         param2_path="kinds.ap.cache_size", values2=(20, 20, 25, 20), time_hours=20.0)
        evaluated = []
        real = metrics.evaluate_block

        def recorded(geometry, inputs, *args):
            evaluated.extend(inputs)
            return real(geometry, inputs, *args)

        with mock.patch("e3sim.sweep.evaluate_block", recorded):
            rows = sweep_rows(fig3, spec)
        for row in rows:
            want = fresh_outcome(fig3, spec, row.values)
            assert (row.error if row.error is not None else (row.report, row.report.cost_rate)) == want
        ok = [True, True, False, True]
        assert [row.error is None for row in rows] == ok + [False] * 4 + ok
        # each first-axis "ap" evaluates (ap, 20) once for the run of two, and again after the error
        assert len(evaluated) == 4 and rows[1].report is rows[0].report
        assert rows[3].report is not rows[1].report and rows[3].report == rows[1].report

    def test_out_of_range_load_fails_only_its_point(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=(1e7, 2e7, 4e7), time_hours=20.0)
        real = allocation.fill

        def nan_middle_point(geometry, factors, capacity, radio_cap):
            rates, load = real(geometry, factors, capacity, radio_cap)
            load[capacity[:, 0] == np.median(capacity[:, 0])] = np.nan
            return rates, load

        with mock.patch.object(metrics, "fill", nan_middle_point):
            rows = sweep_rows(fig3, spec)
        assert [row.error for row in rows] == [None, "total_power_w must be finite, got nan", None]
        for value in (1e7, 4e7):
            row = rows[spec.values.index(value)]
            assert row.report == evaluate(built(fig3, spec.param_path, value), 20.0)

    def test_zero_power_fails_only_its_point(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.max_tx_dynamic_power_w", values=(1.0, 2.0, 3.0), daily=True)
        real = metrics.dynamic_parts

        def drained(max_tx, xhaul_factor, load):
            transceiver, xhaul = real(max_tx, xhaul_factor, load)
            return np.where(max_tx == 2.0, -1e9, transceiver), xhaul

        with mock.patch.object(metrics, "dynamic_parts", drained):
            rows = sweep_rows(fig3, spec)
        assert [row.error for row in rows] == [
            None, "total power is zero; refusing to report infinite efficiency", None
        ]
        assert rows[2].report == evaluate_daily(built(fig3, spec.param_path, 3.0))
