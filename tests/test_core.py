"""The array evaluation core against the scalar oracles, plus metamorphic checks.

Abstract-mode reports and allocations (``plan_allocation`` + ``fill``)
must equal the scalar loops of ``oracles`` bit for bit; physical mode,
whose interference sums add in another order, within 1e-10 relative.
Association (``nearest_stations``) must match exactly, including exact
distance ties on integer lattices.
"""

import math
import random
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from conftest import allocation_at, make_kind, make_scenario, make_xhaul, serving_ids
from e3sim import (
    BaseStation,
    CacheConfig,
    TrafficProfile,
    UserEquipment,
    allocation,
    build_scenario,
    evaluate,
    evaluate_daily,
    radio,
    scenario_to_document,
    set_parameter,
)
from e3sim.allocation import plan_allocation

NUMBERS = slice(0, 8)  # the eight numbers of a MetricReport, time_hours excluded

hours = st.floats(min_value=0.0, max_value=24.0, allow_nan=False)


def coordinate(lattice):
    if lattice:
        return st.integers(-4, 4).map(float)
    return st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


@st.composite
def scenarios(draw, radio_mode="abstract", lattice=None, unit_costs=False):
    """Small random deployments: 1-3 kinds, 1-6 stations, 1-14 UEs."""
    if lattice is None:
        lattice = draw(st.booleans())
    catalog = draw(st.integers(1, 12))
    cost = draw(st.floats(1.0, 100.0))
    kinds = []
    for i in range(draw(st.integers(1, 3))):
        medium = draw(st.sampled_from(("wired", "wireless")))
        kinds.append(
            make_kind(
                kind_id=f"k{i}",
                static_power_w=draw(st.floats(0.5, 50.0)),
                max_tx_dynamic_power_w=draw(st.floats(0.5, 50.0)),
                radio_capacity_bps=draw(st.floats(1e6, 1e8)),
                bandwidth_hz=draw(st.floats(1e6, 2e7)),
                cost_per_area=cost if unit_costs else draw(st.floats(1.0, 100.0)),
                xhaul=make_xhaul(capacity_bps=draw(st.floats(1e6, 1e8)), medium=medium),
                tx_power_w=draw(st.floats(0.05, 5.0)),
                cache_size=draw(st.integers(0, catalog)),
                cache_item_cost_per_area=0.0 if unit_costs else draw(st.floats(0.0, 5.0)),
            )
        )
    n_bs = draw(st.integers(1, 6))
    names = draw(st.permutations([f"b{i}" for i in range(n_bs)]))
    xy = coordinate(lattice)
    stations = tuple(
        BaseStation(names[i], draw(st.sampled_from(kinds)), (draw(xy), draw(xy))) for i in range(n_bs)
    )
    ues = tuple(
        UserEquipment(
            f"u{i}", (draw(xy), draw(xy)), draw(st.floats(1e5, 2e7)), draw(st.floats(0.5, 3.0))
        )
        for i in range(draw(st.integers(1, 14)))
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
    return [alloc.rates_bps[u.ue_id] for u in s.ues], [alloc.radio_load[b.bs_id] for b in s.base_stations]


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
        first = s.base_stations[0].bs_id
        attached = {b.bs_id: () for b in s.base_stations}
        attached[first] = tuple(u.ue_id for u in s.ues)
        assoc = oracles.Association(serving={u.ue_id: first for u in s.ues}, attached=attached)
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
        got = plan_allocation(s, 1).radio_cap.tolist()
        want = [oracles.radio_capacity(b, assoc, s) for b in s.base_stations]
        assert_close(got, want)

    @settings(max_examples=20, deadline=None)
    @given(s=scenarios(lattice=True))
    def test_association_matches_on_lattice_ties(self, s):
        assert serving_ids(s) == [oracles.associate(s).serving[u.ue_id] for u in s.ues]

    def test_distances_equal_after_rounding_tie_like_math_hypot(self):
        # station "a" sits at the rounded distance of "b" from the UE, so the
        # hypot distances tie although the squared distances may round apart
        rng = random.Random(1)
        kind = make_kind()
        ue = UserEquipment("u0", (0.0, 0.0), 1e6)
        for _ in range(50):
            x, y = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
            stations = (BaseStation("b", kind, (x, y)), BaseStation("a", kind, (math.hypot(x, y), 0.0)))
            s = make_scenario(kinds=(kind,), base_stations=stations, ues=(ue,))
            assert serving_ids(s) == [oracles.associate(s).serving["u0"]]

    @settings(max_examples=10, deadline=None)
    @given(s=scenarios())
    def test_tiny_chunks_give_the_same_daily_report(self, s):
        # every chunk, block and sample batch holds a single row
        with mock.patch.object(radio, "CHUNK_BYTES", 8):
            got = outcome(evaluate_daily, s)
        assert got == outcome(oracles.evaluate_daily, s)


class TestMetamorphic:
    @settings(max_examples=10, deadline=None)
    @given(s=scenarios(lattice=False), seed=st.integers(0, 2**16), t=hours)
    def test_reordering_ues_and_stations_leaves_the_report(self, s, seed, t):
        rng = random.Random(seed)
        ues, stations = list(s.ues), list(s.base_stations)
        rng.shuffle(ues)
        rng.shuffle(stations)
        shuffled = replace(s, ues=tuple(ues), base_stations=tuple(stations))
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
