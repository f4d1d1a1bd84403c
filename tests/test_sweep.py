"""Parameter paths, grid sweeps, argmax, and Pareto extraction."""

import copy
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import load_document
from e3sim import (
    InvariantError,
    ParameterPathError,
    SchemaError,
    SweepSpec,
    allocation,
    argmax,
    build_scenario,
    cache,
    evaluate,
    evaluate_daily,
    metrics,
    pareto_front,
    radio,
    resolve_parameter,
    run_sweep,
    scenario_to_document,
    set_parameter,
    total_cost_rate,
)
from e3sim import sweep
from e3sim.document import _build
from e3sim.model import BaseStation
from e3sim.sweep import open_sweep


@pytest.fixture()
def fig3():
    return load_document("fig3.json")


def built(document, path, value):
    return build_scenario(set_parameter(document, path, value))


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
            resolve_parameter(fig3, path)

    def test_invariant_violations_surface(self, fig3):
        with pytest.raises(InvariantError):
            built(fig3, "kinds.ap.xhaul.capacity_bps", -1.0)


class TestDocumentPaths:
    def test_entries_by_id_and_generator_sections(self, fig3):
        assert resolve_parameter(fig3, "base_stations.ap000.position_m[0]") == 0.0
        assert built(fig3, "base_stations.ap000.position_m[1]", 5.0).base_stations.position_m[0].tolist() == [0.0, 5.0]
        assert resolve_parameter(fig3, "ues.uniform_random.count") == 10
        assert len(built(fig3, "ues.uniform_random.count", 4).ues) == 4
        assert built(fig3, "seed", 8).rng_seed == 8
        assert built(fig3, "radio_mode", "physical").radio_mode == "physical"
        fig2 = load_document("fig2.json")
        s = built(fig2, "base_stations.grid.kind", "opt5")
        assert set(s.base_stations.kind_ids()) == {"opt5"}
        explicit = scenario_to_document(build_scenario(fig3))
        assert built(explicit, "ues.ue003.demand_peak_bps", 1e6).ues.demand_peak_bps[3] == 1e6

    def test_defaulted_key_gets_the_schema_rules(self, fig3):
        del fig3["kinds"][0]["xhaul"]["xhaul_power_factor"]
        del fig3["kinds"][0]["tx_power_w"]
        assert resolve_parameter(fig3, "kinds.ap.xhaul.xhaul_power_factor") is None
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
        result = run_sweep(fig3, SweepSpec(param_path=path, values=values, daily=True))
        for value, row in zip(values, result.rows):
            assert row.report == evaluate_daily(built(fig3, path, value))
            assert row.report.cost_rate == total_cost_rate(built(fig3, path, value))

    def test_points_share_the_sections_they_do_not_touch(self, fig3):
        base = build_scenario(fig3)
        seeded = _build(set_parameter(fig3, "seed", 9), (fig3, base))
        assert seeded.kinds is base.kinds and seeded.base_stations is base.base_stations
        assert seeded.ues != base.ues
        resized = _build(set_parameter(fig3, "kinds.ap.cache_size", 2), (fig3, base))
        assert resized.ues is base.ues and oracles.stations(resized)[0].kind.cache_size == 2
        assert resized.base_stations.position_m is base.base_stations.position_m
        assert resized.cache is base.cache and resized.traffic is base.traffic
        skewed = _build(set_parameter(fig3, "cache.zipf_exponent", 1.2), (fig3, base))
        assert skewed.cache.zipf_exponent == 1.2 and skewed.traffic is base.traffic
        shifted = _build(set_parameter(fig3, "traffic.peak_hour", 3.0), (fig3, base))
        assert shifted.traffic.peak_hour == 3.0 and shifted.cache is base.cache

    def test_left_out_cache_and_traffic_are_shared_defaults(self, fig3):
        del fig3["cache"], fig3["traffic"]
        base = build_scenario(fig3)
        point = _build(set_parameter(fig3, "seed", 9), (fig3, base))
        assert point.cache is base.cache and point.traffic is base.traffic
        assert point == build_scenario(set_parameter(fig3, "seed", 9))

    def test_bad_value_at_a_valid_path_is_a_row_error(self, fig3):
        spec = SweepSpec(param_path="cache.strategy", values=("lru", "none"), time_hours=20.0)
        rows = run_sweep(fig3, spec).rows
        assert rows[0].error.startswith("cache.strategy: expected one of")
        assert rows[1].error is None

    def test_result_carries_the_base_scenario(self, fig3):
        spec = SweepSpec(param_path="seed", values=(1,), time_hours=20.0)
        assert run_sweep(fig3, spec).base == build_scenario(fig3)


class TestRunSweep:
    def test_single_value_axis_equals_direct_evaluate(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(6,), time_hours=20.0)
        result = run_sweep(fig3, spec)
        assert len(result.rows) == 1
        assert result.rows[0].report == evaluate(build_scenario(fig3), 20.0)

    def test_rows_match_independent_evaluations(self):
        # each sweep row equals a standalone evaluation of the modified copy
        s = load_document("fig2.json")
        values = (12e6, 24e6, 48e6, 96e6, 192e6)
        spec = SweepSpec(param_path="kinds.opt3.xhaul.capacity_bps", values=values, time_hours=20.0)
        result = run_sweep(s, spec)
        for value, row in zip(values, result.rows):
            expected = evaluate(built(s, "kinds.opt3.xhaul.capacity_bps", value), 20.0)
            assert row.report == expected
            assert row.error is None

    def test_unused_cache_leaves_throughput_flat(self, fig3):
        s = set_parameter(fig3, "cache.strategy", "none")
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(0, 21, 5)), time_hours=20.0)
        result = run_sweep(s, spec)
        throughputs = {row.report.throughput_bps for row in result.rows}
        assert len(throughputs) == 1

    def test_row_level_errors_do_not_abort(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(0, 25, 10), time_hours=20.0)
        result = run_sweep(fig3, spec)
        assert [row.error is None for row in result.rows] == [True, False, True]
        assert "cache larger than catalog" in result.rows[1].error

    def test_unresolvable_path_raises_up_front(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.bogus", values=(1,))
        with pytest.raises(ParameterPathError):
            run_sweep(fig3, spec)

    def test_base_scenario_reproduces_after_sweep(self, fig3):
        before = evaluate(build_scenario(fig3), 20.0)
        run_sweep(fig3, SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)), time_hours=20.0))
        assert evaluate(build_scenario(fig3), 20.0) == before

    def test_repeat_runs_are_identical(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(0, 21, 2)), daily=True)
        assert run_sweep(fig3, spec) == run_sweep(fig3, spec)

    def test_two_axes_row_major(self, fig3):
        spec = SweepSpec(
            param_path="kinds.ap.cache_size",
            values=(0, 5, 10),
            param2_path="cache.zipf_exponent",
            values2=(0.5, 1.0),
            time_hours=20.0,
        )
        result = run_sweep(fig3, spec)
        assert [row.values for row in result.rows] == [
            (0, 0.5), (0, 1.0), (5, 0.5), (5, 1.0), (10, 0.5), (10, 1.0)
        ]


class TestArgmax:
    def test_unknown_metric_is_a_typed_error(self, fig3):
        result = run_sweep(fig3, SweepSpec(param_path="kinds.ap.cache_size", values=(1, 2), time_hours=20.0))
        with pytest.raises(ValueError, match=r"unknown metric 'bogus', expected one of \('se', 'ee', 'ce', 'e3'\)"):
            argmax(result, "bogus")

    def test_tie_breaks_to_smallest_value(self, fig3):
        s = set_parameter(fig3, "cache.strategy", "none")
        s = set_parameter(s, "kinds.ap.cache_item_cost_per_area", 0.0)
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(1, 2, 3), time_hours=20.0)
        values, _ = argmax(run_sweep(s, spec))
        assert values == (1,)

    def test_matches_exhaustive_scan(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)), time_hours=20.0)
        result = run_sweep(fig3, spec)
        values, best = argmax(result, "e3")
        scan_best = max(row.report.e3 for row in result.rows if row.report)
        assert best == scan_best
        assert values[0] == next(
            row.values[0] for row in result.rows if row.report and row.report.e3 == scan_best
        )

    def test_value_equals_row_maximum_for_every_metric(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(0, 21, 4)), time_hours=20.0)
        result = run_sweep(fig3, spec)
        for metric in ("se", "ee", "ce", "e3"):
            _, best = argmax(result, metric)
            assert best == max(getattr(row.report, metric) for row in result.rows)

    def test_all_rows_failed(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(30, 40), time_hours=20.0)
        with pytest.raises(ValueError, match="all sweep rows failed"):
            argmax(run_sweep(fig3, spec))


class TestParetoFront:
    @pytest.fixture()
    def cache_sweep(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(0, 21, 5)), time_hours=20.0)
        return run_sweep(fig3, spec)

    def test_single_objective_keeps_only_the_maximum(self, cache_sweep):
        front = pareto_front(cache_sweep, ["throughput"])
        best = max(row.report.throughput_bps for row in cache_sweep.rows)
        assert front
        assert all(row.report.throughput_bps == best for row in front)
        assert {id(r) for r in front} == {
            id(r) for r in cache_sweep.rows if r.report.throughput_bps == best
        }

    def test_dominated_row_is_dropped(self, fig3):
        # a bigger cache with the same throughput costs strictly more
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=(10, 20), time_hours=20.0)
        result = run_sweep(fig3, spec)
        front = pareto_front(result, ["throughput", "cost_rate"])
        assert [row.values for row in front] == [(10,)]

    def test_matches_pairwise_dominance_oracle(self, cache_sweep):
        objectives = ["throughput", "total_power", "cost_rate"]
        front = pareto_front(cache_sweep, objectives)

        def key(row):
            return (row.report.throughput_bps, -row.report.total_power_w, -row.report.cost_rate)

        rows = list(cache_sweep.rows)
        expected = []
        for a in rows:
            dominated = False
            for b in rows:
                better_eq = all(x >= y for x, y in zip(key(b), key(a)))
                strictly = any(x > y for x, y in zip(key(b), key(a)))
                if better_eq and strictly:
                    dominated = True
                    break
            if not dominated:
                expected.append(a)
        assert list(front) == expected

    def test_front_contains_each_objectives_optimum(self, cache_sweep):
        front_ids = {id(row) for row in pareto_front(cache_sweep, ["throughput", "cost_rate"])}
        best_throughput = max(cache_sweep.rows, key=lambda r: (r.report.throughput_bps, -r.values[0]))
        best_cost = min(cache_sweep.rows, key=lambda r: (r.report.cost_rate, r.values[0]))
        assert id(best_throughput) in front_ids
        assert id(best_cost) in front_ids

    def test_requires_objectives(self, cache_sweep):
        with pytest.raises(ValueError):
            pareto_front(cache_sweep, [])
        with pytest.raises(ValueError, match="unknown objective"):
            pareto_front(cache_sweep, ["latency"])


def two_station_fig3():
    """fig3 with a second station of the same kind, so positions move UEs."""
    doc = load_document("fig3.json")
    doc["base_stations"].append({"bs_id": "ap001", "kind": "ap", "position_m": [40.0, 40.0]})
    return doc


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
        # above about 4e7 bit/s the X-Haul binds: equal effective capacity, but load and power differ
        "kinds.ap.radio_capacity_bps": (2e7, 5e7, 6e7, 1.2e8, 0.0),
        "cache.strategy": ("none", "random_fill", "top_popular", "lru"),
        "kinds.ap.max_tx_dynamic_power_w": (1.0, 3.2, 8.0, -1.0),
    },
    "fig2": {
        "base_stations.grid.kind": ("opt1", "opt3", "opt5", "opt9"),
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
        return report, total_cost_rate(s)
    except (ValueError, ArithmeticError) as exc:
        return str(exc)


@st.composite
def sweeps(draw):
    name = draw(st.sampled_from(sorted(AXES)))
    document = two_station_fig3() if name == "fig3" else load_document("fig2.json")
    document["radio_mode"] = draw(st.sampled_from(("abstract", "physical")))
    paths = draw(st.lists(st.sampled_from(sorted(AXES[name])), min_size=1, max_size=2, unique=True))
    axes = [tuple(draw(st.lists(st.sampled_from(AXES[name][p]), min_size=1, max_size=4, unique=True))) for p in paths]
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


class TestBlocks:
    @settings(max_examples=40, deadline=None)
    @given(sweep=sweeps(), chunk_bytes=st.sampled_from((8, 1024, radio.CHUNK_BYTES)))
    @example(
        sweep=(two_station_fig3(), SweepSpec(param_path="kinds.ap.radio_capacity_bps", values=(5e7, 6e7, 1.2e8),
                                             time_hours=20.0)),
        chunk_bytes=radio.CHUNK_BYTES,
    )
    def test_every_row_equals_a_fresh_evaluation(self, sweep, chunk_bytes):
        # both fig3 and fig2 peak at hour 20, the default time of a row
        document, spec = sweep
        with mock.patch.object(radio, "CHUNK_BYTES", chunk_bytes):
            rows = run_sweep(document, spec).rows
        for row in rows:
            want = fresh_outcome(document, spec, row.values)
            assert (row.error if row.error is not None else (row.report, row.report.cost_rate)) == want

    def test_the_second_path_is_resolved_on_each_first_axis_point(self, fig3):
        # renaming kind "ap" leaves no entry for the second path to name
        spec = SweepSpec(param_path="kinds[0].kind_id", values=("ap", "zz", "ap"),
                         param2_path="kinds.ap.cache_size", values2=(0, 5, 25), time_hours=20.0)
        with mock.patch("e3sim.sweep._steps", wraps=sweep._steps) as steps:
            rows = run_sweep(fig3, spec).rows
        assert [row.values for row in rows] == [(v1, v2) for v1 in spec.values for v2 in spec.values2]
        for row in rows:
            want = fresh_outcome(fig3, spec, row.values)
            assert (row.error if row.error is not None else (row.report, row.report.cost_rate)) == want
        assert [row.error for row in rows[3:6]] == ["unresolvable parameter path 'kinds.ap.cache_size': no entry 'ap'"] * 3
        # two checks of the base document, then the first path once and the second once per first value
        assert steps.call_count == 2 + 1 + len(spec.values)

    @pytest.mark.parametrize("mode", ["abstract", "physical"])
    def test_a_sweep_that_moves_no_ue_associates_once(self, fig3, mode):
        document = set_parameter(fig3, "radio_mode", mode)
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=(1e7, 2e7, 4e7), time_hours=20.0)
        nearest = mock.patch.object(allocation, "nearest_stations", wraps=allocation.nearest_stations)
        physical = mock.patch.object(allocation, "physical_capacities", wraps=allocation.physical_capacities)
        with nearest as associate, physical as capacities:
            rows = run_sweep(document, spec).rows
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
            rows = run_sweep(document, spec).rows
        assert associate.call_count == 1
        assert [row.report for row in rows] == [evaluate(built(document, "seed", v), 20.0) for v in spec.values]

    def test_a_kind_sweep_of_a_grid_makes_no_station_record_per_point(self):
        document = grid_fig3()
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=(1e7, 2e7, 4e7), time_hours=20.0)
        points = []

        def recorded(point, base):
            points.append(_build(point, base))
            return points[-1]

        check = mock.patch.object(BaseStation, "__init__", autospec=True, side_effect=BaseStation.__init__)
        with check as made, mock.patch("e3sim.sweep._build", recorded):
            base, rows = open_sweep(document, spec)
            rows = list(rows)
        assert made.call_count == 0 and len(points) == 3
        # each point's layout holds its own kinds over the base's columns
        for s in points:
            assert s.base_stations.kind is base.base_stations.kind
            assert s.base_stations.position_m is base.base_stations.position_m
            assert oracles.stations(s)[0].kind is s.kinds[0]
        assert [row.report for row in rows] == [
            evaluate(built(document, spec.param_path, v), 20.0) for v in spec.values
        ]

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
        rows = run_sweep(document, SweepSpec(param_path=path, values=("ap", value), time_hours=20.0)).rows
        assert [row.error for row in rows] == [None, error]
        assert rows[0].report == evaluate(build_scenario(document), 20.0)

    def test_blocks_of_points_fit_one_chunk_of_rows(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.cache_size", values=tuple(range(21)),
                         param2_path="kinds.ap.xhaul.capacity_bps", values2=(1e6, 1e7, 1e8), daily=True)
        sizes = []
        real = metrics.evaluate_block

        def recorded(points, *args):
            sizes.append(len(points))
            return real(points, *args)

        with mock.patch("e3sim.sweep.evaluate_block", recorded):
            run_sweep(fig3, spec)
        per_block = radio.chunk_rows(10) // 24  # 10 UEs, 24 samples a day
        # a block ends after per_block of the 63 points, repeats included; the 9 points whose
        # X-Haul limit, like the point's before, exceeds the radio capacity are not evaluated
        assert sum(sizes) == 63 - 9 and max(sizes) == per_block and len(sizes) == -(-63 // per_block)

    def test_rows_stream_before_the_grid_is_built(self, fig3):
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=tuple(1e6 * v for v in range(1, 101)),
                         daily=True)
        with mock.patch("e3sim.sweep._build", wraps=_build) as build:
            base, rows = open_sweep(fig3, spec)
            assert base == build_scenario(fig3) and build.call_count == 0
            first = next(rows)
            assert build.call_count < len(spec.values)
        assert first.report == evaluate_daily(built(fig3, spec.param_path, 1e6))

    def test_a_long_xhaul_run_evaluates_each_binding_point_once(self, fig3):
        # from 2.4e7 bit/s up the X-Haul limit exceeds the 6e7 bit/s radio capacity, so 76 of
        # the 100 points repeat the point before; a block still ends after per_block points
        values = tuple(1e6 * v for v in range(1, 101))
        spec = SweepSpec(param_path="kinds.ap.xhaul.capacity_bps", values=values, daily=True)
        miss = 1.0 - cache.hit_ratio("top_popular", 6, cache.zipf_popularity(20, 0.8))
        evaluated, blocks = [], []
        real_block, real_evaluated = metrics.evaluate_block, sweep._evaluated

        def recorded_points(points, *args):
            evaluated.extend(points)
            return real_block(points, *args)

        def recorded_block(block, *args):
            blocks.append(len(block))
            return real_evaluated(block, *args)

        with mock.patch("e3sim.sweep.evaluate_block", recorded_points), \
                mock.patch("e3sim.sweep._evaluated", recorded_block):
            rows = run_sweep(fig3, spec).rows
        assert len(evaluated) == sum(v / miss < 6e7 for v in values) + 1 == 24
        assert max(blocks) <= radio.chunk_rows(10) // 24
        assert all(row.report is rows[23].report for row in rows[24:])
        for value, row in zip(values, rows):
            assert row.report == evaluate_daily(built(fig3, spec.param_path, value))

    def test_a_failing_point_ends_a_run_of_equal_points(self, fig3):
        # cache_size 25 exceeds the 20-item catalog, and kind "zz" leaves the second path no entry
        spec = SweepSpec(param_path="kinds[0].kind_id", values=("ap", "zz", "ap"),
                         param2_path="kinds.ap.cache_size", values2=(20, 20, 25, 20), time_hours=20.0)
        evaluated = []
        real = metrics.evaluate_block

        def recorded(points, *args):
            evaluated.extend(points)
            return real(points, *args)

        with mock.patch("e3sim.sweep.evaluate_block", recorded):
            rows = run_sweep(fig3, spec).rows
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
            rows = run_sweep(fig3, spec).rows
        assert [row.error for row in rows] == [None, "radio_load must lie in [0, 1], got nan", None]
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
            rows = run_sweep(fig3, spec).rows
        assert [row.error for row in rows] == [
            None, "total power is zero; refusing to report infinite efficiency", None
        ]
        assert rows[2].report == evaluate_daily(built(fig3, spec.param_path, 3.0))
