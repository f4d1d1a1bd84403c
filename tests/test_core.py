"""The array evaluation core against the scalar oracles, plus metamorphic checks.

Abstract-mode reports and allocations (``plan_geometry`` + ``fill``)
must equal the scalar loops of ``oracles`` bit for bit; physical mode,
whose interference sums add in another order, within 1e-10 relative.
Association (``nearest_stations``) must match exactly, including exact
distance ties on integer lattices.
"""

import ast
import importlib
import inspect
import math
import random
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import (
    allocation_at,
    load_document,
    make_kind,
    make_scenario,
    make_stations,
    make_ues,
    make_xhaul,
    radio_capacities,
    serving_ids,
)
from e3sim import (
    CacheConfig,
    CostBreakdown,
    StationLayout,
    TrafficProfile,
    UePopulation,
    allocation,
    build_scenario,
    evaluate,
    evaluate_daily,
    radio,
    scenario_to_document,
    set_parameter,
)

NUMBERS = slice(0, 8)  # the eight numbers of a MetricReport, time_hours excluded

hours = st.floats(min_value=0.0, max_value=24.0, allow_nan=False)


def coordinate(lattice):
    if lattice:
        return st.integers(-4, 4).map(float)
    return st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


@st.composite
def scenarios(draw, radio_mode="abstract", lattice=None, unit_costs=False, extreme=False):
    """Small random deployments: 1-3 kinds, 1-6 stations, 1-14 UEs.

    With ``extreme``, power, capacity, demand and cost may also lie near the
    largest float and bandwidth near 1e-300, and a kind may cost nothing
    (capital items only, all inherited), so sums and ratios can overflow
    and the cost rate can be 0.
    """
    if lattice is None:
        lattice = draw(st.booleans())

    def wide(lo, hi):
        """Floats in [lo, hi]; with ``extreme`` up to 1e308."""
        return st.floats(lo, 1e308) if extreme else st.floats(lo, hi)

    catalog = draw(st.integers(1, 12))
    cost = draw(st.floats(1.0, 100.0))
    kinds = []
    for i in range(draw(st.integers(1, 3))):
        medium = draw(st.sampled_from(("wired", "wireless")))
        kind_cost = cost if unit_costs else draw(wide(1.0, 100.0))
        free = extreme and draw(st.booleans())
        kinds.append(
            make_kind(
                kind_id=f"k{i}",
                static_power_w=draw(wide(0.5, 50.0)),
                max_tx_dynamic_power_w=draw(wide(0.5, 50.0)),
                radio_capacity_bps=draw(wide(1e6, 1e8)),
                bandwidth_hz=draw(st.floats(1e-300 if extreme else 1e6, 2e7)),
                cost_per_area=kind_cost,
                xhaul=make_xhaul(capacity_bps=draw(wide(1e6, 1e8)), medium=medium),
                tx_power_w=draw(st.floats(0.05, 5.0)),
                cache_size=draw(st.integers(0, catalog)),
                cache_item_cost_per_area=0.0 if unit_costs or free else draw(st.floats(0.0, 5.0)),
                cost_breakdown=CostBreakdown(kind_cost, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0) if free else None,
            )
        )
    n_bs = draw(st.integers(1, 6))
    names = draw(st.permutations([f"b{i}" for i in range(n_bs)]))
    xy = st.tuples(coordinate(lattice), coordinate(lattice))
    stations = make_stations(
        draw(st.lists(xy, min_size=n_bs, max_size=n_bs)),
        draw(st.lists(st.sampled_from(kinds), min_size=n_bs, max_size=n_bs)),
        ids=names,
    )
    n_ues = draw(st.integers(1, 14))

    def column(values):
        return draw(st.lists(values, min_size=n_ues, max_size=n_ues))

    ues = make_ues(
        column(xy), column(wide(1e5, 2e7)), column(st.floats(0.5, 3.0)), ids=[f"u{i}" for i in range(n_ues)]
    )
    return make_scenario(
        kinds=tuple(kinds),
        base_stations=stations,
        ues=ues,
        cache=CacheConfig(
            catalog_size=catalog,
            zipf_exponent=draw(st.floats(0.0, 1.5)),
            strategy=draw(st.sampled_from(("none", "random_fill", "top_popular"))),
            cache_power_per_item_w=0.0 if unit_costs else draw(st.floats(0.0, 1.0)),
        ),
        traffic=TrafficProfile(
            peak_to_min_ratio=draw(st.floats(1.0, 10.0)),
            peak_hour=draw(st.floats(0.0, 23.9)),
            samples_per_day=draw(st.integers(1, 6)),
        ),
        benchmark_cost="max-kind" if unit_costs else draw(st.sampled_from(("max-kind", 100.0))),
        radio_mode=radio_mode,
    )


def outcome(fn, *args):
    """A function's result, or its error type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def core_allocation(s, t):
    return tuple(x.tolist() for x in allocation_at(s, t))


def oracle_allocation(s, assoc, t):
    """``oracles.allocate`` in the index order of ``allocation_at``."""
    alloc = oracles.allocate(s, assoc, t)
    return [alloc.rates_bps[u] for u in s.ues.ids()], [alloc.radio_load[b] for b in s.base_stations.ids()]


def assert_close(a, b, rel=1e-10):
    assert all(math.isclose(x, y, rel_tol=rel, abs_tol=0.0) for x, y in zip(a, b)), (a, b)


class TestAgainstScalarOracle:
    @settings(max_examples=20, deadline=None)
    @given(s=scenarios(), t=hours)
    def test_abstract_evaluate_is_bitwise_equal(self, s, t):
        assert outcome(evaluate, s, t) == outcome(oracles.evaluate, s, t)

    @settings(max_examples=12, deadline=None)
    @given(s=scenarios())
    def test_abstract_daily_is_bitwise_equal(self, s):
        assert outcome(evaluate_daily, s) == outcome(oracles.evaluate_daily, s)

    @settings(max_examples=10, deadline=None)
    @given(s=scenarios(), t=hours)
    def test_abstract_allocation_is_bitwise_equal(self, s, t):
        assert outcome(core_allocation, s, t) == outcome(oracle_allocation, s, oracles.associate(s), t)

    @settings(max_examples=10, deadline=None)
    @given(s=scenarios(), t=hours)
    def test_allocation_follows_a_given_association(self, s, t):
        first = s.base_stations.ids()[0]
        attached = {b: () for b in s.base_stations.ids()}
        attached[first] = s.ues.ids()
        assoc = oracles.Association(serving={u: first for u in s.ues.ids()}, attached=attached)
        all_to_first = lambda s: np.zeros(len(s.ues), dtype=np.intp)
        with mock.patch.object(allocation, "nearest_stations", all_to_first):
            got = outcome(core_allocation, s, t)
        assert got == outcome(oracle_allocation, s, assoc, t)

    @settings(max_examples=12, deadline=None)
    @given(s=scenarios(radio_mode="physical"), t=hours)
    def test_physical_evaluate_within_1e_10(self, s, t):
        got, want = outcome(evaluate, s, t), outcome(oracles.evaluate, s, t)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_close(astuple(got)[NUMBERS], astuple(want)[NUMBERS])

    @settings(max_examples=10, deadline=None)
    @given(s=scenarios(radio_mode="physical"))
    def test_physical_capacity_within_1e_10(self, s):
        assoc = oracles.associate(s)
        got = radio_capacities(s)
        want = [oracles.radio_capacity(b, assoc, s) for b in oracles.stations(s)]
        assert_close(got, want)

    @settings(max_examples=20, deadline=None)
    @given(s=scenarios(lattice=True))
    def test_association_matches_on_lattice_ties(self, s):
        serving = oracles.associate(s).serving
        assert serving_ids(s) == [serving[u] for u in s.ues.ids()]

    def test_distances_equal_after_rounding_tie_like_math_hypot(self):
        # station "a" sits at the rounded distance of "b" from the UE, so the
        # hypot distances tie although the squared distances may round apart
        rng = random.Random(1)
        kind = make_kind()
        ue = make_ues([(0.0, 0.0)], ids=("u0",))
        for _ in range(50):
            x, y = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
            stations = make_stations([(x, y), (math.hypot(x, y), 0.0)], [kind, kind], ids=("b", "a"))
            s = make_scenario(kinds=(kind,), base_stations=stations, ues=ue)
            assert serving_ids(s) == [oracles.associate(s).serving["u0"]]

    @settings(max_examples=10, deadline=None)
    @given(s=scenarios())
    def test_tiny_chunks_give_the_same_daily_report(self, s):
        # every chunk, block and sample batch holds a single row
        with mock.patch.object(radio, "CHUNK_BYTES", 8):
            got = outcome(evaluate_daily, s)
        assert got == outcome(oracles.evaluate_daily, s)


class TestReportChecks:
    """Near the limits of a float, every report has eight finite numbers, or
    the evaluation raises the ValueError the oracle raises."""

    @settings(max_examples=40, deadline=None)
    @given(s=scenarios(extreme=True), t=hours)
    def test_an_hourly_report_is_finite_or_a_value_error(self, s, t):
        got = outcome(evaluate, s, t)
        assert got == outcome(oracles.evaluate, s, t)
        assert isinstance(got, tuple) or all(map(math.isfinite, astuple(got)[NUMBERS]))

    @settings(max_examples=25, deadline=None)
    @given(s=scenarios(extreme=True))
    def test_a_daily_report_is_finite_or_a_value_error(self, s):
        got = outcome(evaluate_daily, s)
        assert got == outcome(oracles.evaluate_daily, s)
        assert isinstance(got, tuple) or all(map(math.isfinite, astuple(got)[NUMBERS]))


def layout_scenario(stations, ues):
    """One-kind scenario with stations and UEs at the given (x, y) points; the
    bs_ids run against the station order, so id order is not position order."""
    kind = make_kind()
    return make_scenario(
        kinds=(kind,),
        base_stations=make_stations(
            stations, [kind] * len(stations), ids=[f"b{len(stations) - i:03d}" for i in range(len(stations))]
        ),
        ues=make_ues(ues, ids=[f"u{i}" for i in range(len(ues))]),
    )


@st.composite
def cell_layouts(draw):
    """Station and UE points that stress the cell search of ``nearest_stations``.

    A single station; stations on one horizontal or vertical line, so the
    bounding box has no height or no width; coincident pairs with distinct
    ids; integer lattices, some far from the origin, with UEs on the
    half-integer lattice, so distances tie exactly; and stations spread
    over a square. Some UEs lie far outside the stations. Apart from the
    single station there are 30-80 stations, so the 3 x 3 cells around a
    UE mostly hold fewer candidate slots than there are stations and the
    cell search runs.
    """
    shape = draw(st.sampled_from(("single", "row", "column", "coincident", "lattice", "square")))
    count = 1 if shape == "single" else draw(st.integers(30, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = 0.0
    if shape == "row":
        stations = np.column_stack([rng.uniform(-300.0, 300.0, count), np.full(count, rng.uniform(-300.0, 300.0))])
    elif shape == "column":
        stations = np.column_stack([np.full(count, rng.uniform(-300.0, 300.0)), rng.uniform(-300.0, 300.0, count)])
    elif shape == "coincident":
        stations = np.repeat(rng.uniform(-300.0, 300.0, (count // 2, 2)), 2, axis=0)
    elif shape == "lattice":
        offset = draw(st.sampled_from((0.0, 2.0**20, 1e9 + 0.5)))
        cells = rng.choice(13 * 13, count, replace=False)
        stations = offset + np.column_stack([cells % 13, cells // 13]).astype(float)
    else:
        stations = rng.uniform(-300.0, 300.0, (1, 2) if shape == "single" else (count, 2))
    n_ues = draw(st.integers(1, 40))
    low, high = stations.min(axis=0) - 20.0, stations.max(axis=0) + 20.0
    if shape == "lattice":
        ues = offset + rng.integers(-4, 30, (n_ues, 2)) / 2.0
    else:
        ues = rng.uniform(low, high, (n_ues, 2))
    far = rng.random(n_ues) < draw(st.sampled_from((0.0, 0.3)))
    ues[far] = (ues[far] - offset) * rng.choice((1.0, 50.0, 1e3), (far.sum(), 2)) + offset
    return [tuple(xy) for xy in stations.tolist()], [tuple(xy) for xy in ues.tolist()]


class TestGeometryBlocks:
    @settings(max_examples=40, deadline=None)
    @given(s=scenarios(), chunk_bytes=st.sampled_from((8, 256, 1024, 4096)), seed=st.integers(0, 2**32 - 1))
    def test_one_grouping_serves_every_batch_of_up_to_a_chunk_of_rows(self, s, chunk_bytes, seed):
        with mock.patch.object(radio, "CHUNK_BYTES", chunk_bytes):
            geometry = allocation.plan_geometry(s)
            blocks = geometry.blocks
        n = geometry.rows_per_chunk
        for stations, sorted_peaks in blocks:
            assert len(stations) == 1 or n * len(stations) * sorted_peaks.shape[1] * 8 <= chunk_bytes
        grouped = np.concatenate([stations for stations, _ in blocks]).tolist()
        assert sorted(grouped) == np.flatnonzero(geometry.counts).tolist()
        rng = np.random.default_rng(seed)
        scale = geometry.peaks.sum()
        factors = rng.uniform(0.05, 1.0, n)
        radio_cap = rng.uniform(0.0, 2.0, (n, len(geometry.counts))) * scale
        capacity = np.minimum(radio_cap, rng.uniform(0.0, 2.0, radio_cap.shape) * scale)
        singles = [allocation.fill(geometry, factors[r : r + 1], capacity[r : r + 1], radio_cap[r : r + 1])
                   for r in range(n)]
        for rows in range(1, n + 1):
            rates, load = allocation.fill(geometry, factors[:rows], capacity[:rows], radio_cap[:rows])
            assert rates.tobytes() == np.concatenate([r for r, _ in singles[:rows]]).tobytes()
            assert load.tobytes() == np.concatenate([l for _, l in singles[:rows]]).tobytes()


class TestCellSearch:
    @settings(max_examples=60, deadline=None)
    @given(layout=cell_layouts(), chunk_bytes=st.sampled_from((8, 1024)))
    def test_association_matches_the_scalar_oracle(self, layout, chunk_bytes):
        # a small chunk sends scenarios this size through the cell search
        s = layout_scenario(*layout)
        with mock.patch.object(radio, "CHUNK_BYTES", chunk_bytes):
            got = serving_ids(s)
        serving = oracles.associate(s).serving
        assert got == [serving[u] for u in s.ues.ids()]

    def test_rounding_ties_across_the_searched_cells_follow_math_hypot(self):
        # "a" lies two cells right of the UE's, at the rounded distance of "b"
        # in the 3 x 3 cells around it: their hypot distances tie although the
        # squared distances may round apart; the ring of stations sets the cells
        rng = random.Random(1)
        ring = [(100.0 * c, 100.0 * r) for r in range(-4, 5) for c in range(-4, 5) if max(abs(c), abs(r)) >= 3]
        for _ in range(50):
            r, t = rng.uniform(130.0, 150.0), rng.uniform(0.5, 1.05)
            x, y = r * math.cos(t), r * math.sin(t)
            s = layout_scenario(ring + [(x, y), (math.hypot(x, y), 0.0)], [(0.0, 0.0)])
            with mock.patch.object(radio, "CHUNK_BYTES", 8):
                assert serving_ids(s) == [oracles.associate(s).serving["u0"]]

    def test_settled_ues_of_a_large_seeded_layout_match_the_oracle(self):
        rng = np.random.default_rng(0)
        stations = [(100.0 * c + rng.normal(0, 20), 100.0 * r + rng.normal(0, 20)) for r in range(20) for c in range(21)]
        ues = rng.uniform(-100.0, 2100.0, size=(1500, 2))
        s = layout_scenario(stations, [tuple(xy) for xy in ues.tolist()])
        _, settled = radio._cell_search(np.array(stations), ues)
        assert settled.sum() > 1000  # most UEs are decided by the cell search alone
        serving = oracles.associate(s).serving
        assert serving_ids(s) == [serving[u] for u in s.ues.ids()]


class Draws:
    """Fixed values for the ``st.data()`` draws of an explicit example, in draw order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)


#: fig3 with an 18-item catalog at Zipf exponent 1.5, whose rounded
#: probabilities sum to just over 1: a cache holding all of it hits at most 1.
FULL_CACHE = build_scenario(
    set_parameter(set_parameter(load_document("fig3.json"), "cache.catalog_size", 18), "cache.zipf_exponent", 1.5)
)


class TestMetamorphic:
    @settings(max_examples=10, deadline=None)
    @given(s=scenarios(lattice=False), seed=st.integers(0, 2**16), t=hours)
    def test_reordering_ues_and_stations_leaves_the_report(self, s, seed, t):
        rng = random.Random(seed)
        u, b = s.ues, s.base_stations
        ue_order, bs_order = list(range(len(u))), list(range(len(b)))
        rng.shuffle(ue_order)
        rng.shuffle(bs_order)
        ues = UePopulation(
            [u.ids()[i] for i in ue_order], u.position_m[ue_order], u.demand_peak_bps[ue_order], u.weight[ue_order]
        )
        stations = StationLayout([b.ids()[i] for i in bs_order], b.kind[bs_order], b.position_m[bs_order], b.kind_ids)
        shuffled = replace(s, ues=ues, base_stations=stations)
        base, other = outcome(evaluate, s, t), outcome(evaluate, shuffled, t)
        if isinstance(base, tuple):
            assert other == base
        else:
            assert_close(astuple(other)[NUMBERS], astuple(base)[NUMBERS], rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(s=scenarios(unit_costs=True), t=hours)
    def test_e3_equals_ee_under_unit_cost_coefficients(self, s, t):
        report = outcome(evaluate, s, t)
        if not isinstance(report, tuple):
            assert report.e3 == report.ee
            assert report.weighted_power_w == report.total_power_w

    @settings(max_examples=10, deadline=None)
    @given(s=scenarios())
    def test_one_daily_sample_is_the_midnight_report(self, s):
        single = replace(s, traffic=replace(s.traffic, samples_per_day=1))
        daily, instant = outcome(evaluate_daily, single), outcome(evaluate, single, 0.0)
        if isinstance(instant, tuple):
            assert daily == instant
        else:
            assert astuple(daily)[NUMBERS] == astuple(instant)[NUMBERS]
            assert daily.time_hours is None

    @settings(max_examples=15, deadline=None)
    @given(s=scenarios(), t=hours, data=st.data())
    def test_se_and_ee_are_blind_to_every_cost_input(self, s, t, data):
        document = scenario_to_document(s)
        kind = draw_kind_id(data, s)
        path, value = data.draw(
            st.one_of(
                st.tuples(st.just(f"kinds.{kind}.cost_per_area"), st.floats(1e-3, 1e4)),
                st.tuples(st.just(f"kinds.{kind}.cache_item_cost_per_area"), st.floats(0.0, 1e3)),
                st.tuples(st.just("benchmark_cost"), st.floats(1e-3, 1e4) | st.just("max-kind")),
            )
        )
        base = outcome(evaluate, build_scenario(document), t)
        other = outcome(evaluate, build_scenario(set_parameter(document, path, value)), t)
        if isinstance(base, tuple):
            assert other == base
        else:
            assert (other.se, other.ee) == (base.se, base.ee)  # bitwise

    @settings(max_examples=15, deadline=None)
    @given(s=scenarios(), t=hours, data=st.data())
    def test_se_is_non_decreasing_in_xhaul_capacity(self, s, t, data):
        path = f"kinds.{draw_kind_id(data, s)}.xhaul.capacity_bps"
        low, high = sorted(data.draw(st.lists(st.floats(1e5, 1e9), min_size=2, max_size=2)))
        assert_non_decreasing_se(scenario_to_document(s), path, low, high, t)

    @settings(max_examples=15, deadline=None)
    @given(s=scenarios(), t=hours, data=st.data())
    @example(s=FULL_CACHE, t=20.0, data=Draws("ap", [17, 18]))
    def test_se_is_non_decreasing_in_top_popular_cache_size(self, s, t, data):
        document = set_parameter(scenario_to_document(s), "cache.strategy", "top_popular")
        path = f"kinds.{draw_kind_id(data, s)}.cache_size"
        low, high = sorted(data.draw(st.lists(st.integers(0, s.cache.catalog_size), min_size=2, max_size=2)))
        assert_non_decreasing_se(document, path, low, high, t)


def draw_kind_id(data, s):
    return data.draw(st.sampled_from([k.kind_id for k in s.kinds]))


def assert_non_decreasing_se(document, path, low, high, t):
    """SE at the higher value is at least SE at the lower one, within 1e-12 relative."""
    se_low = evaluate(build_scenario(set_parameter(document, path, low)), t).se
    se_high = evaluate(build_scenario(set_parameter(document, path, high)), t).se
    assert se_high >= se_low * (1 - 1e-12), (path, low, high, se_low, se_high)


def test_the_oracles_import_no_engine_function():
    # an oracle that calls the engine checks the engine against itself
    imported = []
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "e3sim" for alias in node.names), "a module import binds functions"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "e3sim":
            module = importlib.import_module(node.module)
            imported += [(f"{node.module}.{alias.name}", getattr(module, alias.name)) for alias in node.names]
    assert imported
    for name, value in imported:
        # records, errors and MetricReport are classes; constants are neither callable nor modules
        assert inspect.isclass(value) or not (callable(value) or inspect.ismodule(value)), name
