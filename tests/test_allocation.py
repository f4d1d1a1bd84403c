"""Effective capacity, max-min fair rate allocation, and its oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    allocation_at,
    make_kind,
    make_scenario,
    make_stations,
    make_ues,
    make_xhaul,
    water_rates,
    with_parameter,
)
import oracles
from oracles import allocate_bruteforce
from e3sim import CacheConfig, UePopulation, allocation, cache

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=8
)
capacities = st.floats(min_value=0.1, max_value=200.0, allow_nan=False)


def station_capacity(radio, xhaul, cache_size):
    """Radio and effective capacity of one station whose cache holds
    ``cache_size`` of 2 items filled at random: hit ratio cache_size / 2."""
    kind = make_kind(radio_capacity_bps=radio, xhaul=make_xhaul(capacity_bps=xhaul), cache_size=cache_size)
    s = make_scenario(kinds=(kind,), cache=CacheConfig(catalog_size=2, strategy="random_fill"))
    (radio_cap,), (capacity,) = allocation.station_capacities(s, allocation.plan_geometry(s))
    return radio_cap, capacity


class TestEffectiveCapacity:
    def test_no_cache_is_plain_min(self):
        assert station_capacity(20e6, 4e6, 0) == (20e6, 4e6)
        assert station_capacity(3e6, 4e6, 0) == (3e6, 3e6)

    def test_full_hit_bypasses_xhaul(self):
        assert station_capacity(20e6, 4e6, 2) == (20e6, 20e6)

    def test_half_hit_doubles_xhaul_headroom(self):
        # (1 - h) * x <= 4 with h = 0.5 allows x up to 8
        assert station_capacity(20e6, 4e6, 1) == (20e6, 8e6)

    def test_the_xhaul_limit_is_the_capacity_over_the_miss_share(self):
        kinds = (
            make_kind(kind_id="half", xhaul=make_xhaul(capacity_bps=1e6), cache_size=1),
            make_kind(kind_id="full", xhaul=make_xhaul(capacity_bps=1e6), cache_size=2),
        )
        stations = make_stations([(0.0, 0.0), (50.0, 0.0)], kinds)
        s = make_scenario(kinds=kinds, base_stations=stations, cache=CacheConfig(catalog_size=2, strategy="random_fill"))
        assert allocation.xhaul_limits(s) == [2e6, math.inf]

    def test_hit_ratios_are_kept_by_value(self):
        # a sweep frees the points it does not evaluate, and a later cache record may take a freed one's id,
        # so a head sum is kept by the numbers of its config, not by the record
        for exponent in (0.8, 0.9, 0.8):
            config = CacheConfig(catalog_size=20, zipf_exponent=exponent, strategy="top_popular")
            limits = allocation.xhaul_limits(make_scenario(kinds=(make_kind(cache_size=6),), cache=config))
            assert limits == [5e7 / (1.0 - oracles.hit_ratio(config, 6))]
        info = cache._head_sum.cache_info()
        assert (info.misses, info.hits) == (2, 1)


class TestWaterLevels:
    def test_unconstrained_grants_demands(self):
        assert water_rates([1.0, 2.0, 3.0], 10.0) == [1.0, 2.0, 3.0]

    def test_equal_demands_split_evenly(self):
        assert water_rates([5.0, 5.0], 6.0) == [3.0, 3.0]

    def test_small_demand_is_met_then_rest_split(self):
        assert water_rates([2.0, 5.0, 5.0], 9.0) == [2.0, 3.5, 3.5]

    def test_zero_capacity(self):
        assert water_rates([1.0, 2.0], 0.0) == [0.0, 0.0]

    def test_unbounded_capacity_grants_demands(self):
        assert water_rates([1.0, 2.0], math.inf) == [1.0, 2.0]

    @pytest.mark.parametrize("capacity", [0.0, 1.0])
    def test_demands_that_sum_past_the_largest_float_keep_their_level(self, capacity):
        # the remaining capacity runs to -inf after the first demand that exceeds its share;
        # that once raised an overflow warning, which this suite turns into an error
        demands = [8.618848185961624e307, 9.358083162661534e307]
        levels = allocation.water_levels(np.array([[demands + [0.0]]]), np.array([[2]]), np.array([[capacity]]))
        assert levels.tolist() == [[capacity / 2]]

    @given(rows=st.lists(st.tuples(demand_lists, capacities), min_size=1, max_size=6))
    def test_a_batch_of_padded_rows_gets_the_scalar_levels_bitwise(self, rows):
        # water_levels works in place on its steps; each row's rates must still be the scalar loop's
        width = max(len(demands) for demands, _ in rows)
        padded = np.zeros((len(rows), 1, width))
        for r, (demands, _) in enumerate(rows):
            padded[r, 0, : len(demands)] = sorted(demands)
        counts = np.array([[len(demands)] for demands, _ in rows])
        levels = allocation.water_levels(padded, counts, np.array([[capacity] for _, capacity in rows]))
        for (demands, capacity), level in zip(rows, levels[:, 0]):
            assert [min(d, level) for d in demands] == oracles.max_min_rates(demands, capacity)

    @given(demands=demand_lists, capacity=capacities)
    def test_sum_is_pareto_efficient(self, demands, capacity):
        rates = water_rates(demands, capacity)
        assert math.fsum(rates) == pytest.approx(min(math.fsum(demands), capacity), rel=1e-9, abs=1e-9)

    @given(demands=demand_lists, capacity=capacities)
    def test_rates_never_exceed_demands(self, demands, capacity):
        rates = water_rates(demands, capacity)
        assert all(r <= d + 1e-12 for r, d in zip(rates, demands))

    @given(demands=demand_lists, capacity=capacities)
    def test_max_min_property(self, demands, capacity):
        # a strictly smaller rate is only ever explained by a met demand
        rates = water_rates(demands, capacity)
        for i, ri in enumerate(rates):
            for rj in rates:
                if ri < rj - 1e-9:
                    assert ri == pytest.approx(demands[i], rel=1e-9, abs=1e-12)

    @given(demands=demand_lists, capacity=capacities, seed=st.integers(0, 2**16))
    def test_order_invariance(self, demands, capacity, seed):
        import random

        order = list(range(len(demands)))
        random.Random(seed).shuffle(order)
        base = water_rates(demands, capacity)
        shuffled = water_rates([demands[i] for i in order], capacity)
        assert all(shuffled[pos] == base[i] for pos, i in enumerate(order))

    @given(demands=demand_lists, c1=capacities, c2=capacities)
    def test_monotone_in_capacity(self, demands, c1, c2):
        low, high = sorted((c1, c2))
        r_low = water_rates(demands, low)
        r_high = water_rates(demands, high)
        assert all(a <= b + 1e-12 for a, b in zip(r_low, r_high))


#: Non-negative floats over the whole range: 0, subnormals and 1e308 included.
magnitudes = st.floats(min_value=0.0, max_value=1e308)


class TestFill:
    @settings(deadline=None)
    @given(data=st.data(), n_bs=st.integers(1, 4), n_ues=st.integers(1, 8), n_rows=st.integers(1, 3))
    def test_rates_and_loads_stay_in_range(self, data, n_bs, n_ues, n_rows):
        # dynamic power is linear in the load and is not range-checked: it rests on this invariant
        def draw_list(values, size):
            return data.draw(st.lists(values, min_size=size, max_size=size))

        xy = st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
        stations = make_stations(draw_list(xy, n_bs), [make_kind()] * n_bs)
        ues = make_ues(draw_list(xy, n_ues), draw_list(st.floats(0.0, 1e308, exclude_min=True), n_ues))
        geometry = allocation.plan_geometry(make_scenario(base_stations=stations, ues=ues))
        factors = np.array(draw_list(st.floats(0.0, 1.0, exclude_min=True), n_rows))
        radio_cap = np.array(draw_list(st.lists(magnitudes, min_size=n_bs, max_size=n_bs), n_rows))
        capacity = np.minimum(radio_cap, draw_list(st.lists(magnitudes, min_size=n_bs, max_size=n_bs), n_rows))
        rates, load = allocation.fill(geometry, factors, capacity, radio_cap)
        demands = factors[:, None] * geometry.peaks
        assert ((0.0 <= rates) & (rates <= demands)).all(), (rates, demands)
        assert ((0.0 <= load) & (load <= 1.0)).all(), load


class TestBruteforceOracle:
    def test_equal_split_on_grid(self):
        assert allocate_bruteforce([5.0, 5.0], 6.0) == pytest.approx([3.0, 3.0], abs=1e-12)

    def test_single_unconstrained(self):
        assert allocate_bruteforce([1.0], 10.0) == [1.0]

    def test_three_demands_within_grid_tolerance(self):
        rates = allocate_bruteforce([2.0, 5.0, 5.0], 9.0)
        assert rates == pytest.approx([2.0, 3.5, 3.5], abs=1e-2)

    def test_too_many_demands_rejected(self):
        with pytest.raises(ValueError, match="instance too large"):
            allocate_bruteforce([1.0] * 5, 10.0)

    @given(
        demands=st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=1, max_size=4),
        capacity=st.floats(0.5, 40.0, allow_nan=False),
    )
    def test_agrees_with_progressive_filling(self, demands, capacity):
        # the oracle quantizes the fair level; one grid step bounds the error
        exact = water_rates(demands, capacity)
        oracle = allocate_bruteforce(demands, capacity)
        assert oracle == pytest.approx(exact, abs=capacity * 1e-3 + 1e-12)


def caching_scenario(xhaul_capacity=16e6, cache_size=0, strategy="top_popular"):
    kind = make_kind(
        radio_capacity_bps=6e7,
        xhaul=make_xhaul(capacity_bps=xhaul_capacity),
        cache_size=cache_size,
    )
    stations = make_stations([(0.0, 0.0)], [kind], ids=("b0",))
    ues = make_ues([(float(i), 0.0) for i in range(10)], 4e6, ids=[f"u{i}" for i in range(10)])
    return make_scenario(
        kinds=(kind,),
        base_stations=stations,
        ues=ues,
        cache=CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy=strategy),
    )


def rates_at(s, t_hours):
    """Granted rate of each ue_id at hour ``t_hours``, and the radio load of each station."""
    rates, load = allocation_at(s, t_hours)
    return dict(zip(s.ues.ids(), rates.tolist())), load


def xhaul_traffic(s, rates):
    """Miss share (1 - h) of the traffic the single station b0 serves."""
    h = oracles.hit_ratio(s.cache, s.kinds[0].cache_size)
    return (1.0 - h) * sum(rates.values())


class TestAllocate:
    def test_unconstrained_meets_all_demands(self):
        s = caching_scenario(xhaul_capacity=1e9)
        rates, _ = rates_at(s, 0.0)
        assert all(r == 4e6 for r in rates.values())
        assert sum(rates.values()) == pytest.approx(4e7)
        assert xhaul_traffic(s, rates) <= s.kinds[0].xhaul.capacity_bps

    def test_bottleneck_splits_fairly(self):
        s = caching_scenario(xhaul_capacity=2e7)
        rates, _ = rates_at(s, 0.0)
        assert all(r == pytest.approx(2e6) for r in rates.values())

    def test_accounting_identities(self):
        s = caching_scenario(cache_size=6)
        rates, load = rates_at(s, 0.0)
        assert xhaul_traffic(s, rates) <= s.kinds[0].xhaul.capacity_bps * (1 + 1e-12)
        assert 0.0 <= load[0] <= 1.0
        assert all(
            rates[u] <= demand + 1e-9 for u, demand in zip(s.ues.ids(), s.ues.demand_peak_bps.tolist())
        )

    def test_cache_hits_raise_served_traffic_and_every_rate(self):
        allocs = [rates_at(caching_scenario(cache_size=m), 0.0)[0] for m in (0, 4, 8)]
        served = [sum(rates.values()) for rates in allocs]
        assert served[0] < served[1] < served[2]
        # the 16 Mbit/s X-Haul binds: it carries only the misses, up to the 40 Mbit/s demand
        config = CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy="top_popular")
        for m, total in zip((0, 4, 8), served):
            miss = 1.0 - oracles.hit_ratio(config, m)
            assert total == pytest.approx(min(4e7, 16e6 / miss), rel=1e-12)
        for smaller, larger in zip(allocs, allocs[1:]):
            assert all(
                larger[u] >= smaller[u] - 1e-9 for u in smaller
            )

    def test_permuting_ues_leaves_every_rate_unchanged(self):
        s = caching_scenario(xhaul_capacity=2.3e7, cache_size=3)
        from dataclasses import replace

        u = s.ues
        permuted = replace(
            s, ues=UePopulation(u.ids()[::-1], u.position_m[::-1], u.demand_peak_bps[::-1], u.weight[::-1])
        )
        rates = rates_at(s, 5.0)[0]
        rates_permuted = rates_at(permuted, 5.0)[0]
        assert rates == rates_permuted

    def test_more_xhaul_never_hurts_anyone(self):
        s = caching_scenario(xhaul_capacity=1e7)
        rates_low = rates_at(s, 0.0)[0]
        s_high = with_parameter(s, "kinds.pico.xhaul.capacity_bps", 3e7)
        rates_high = rates_at(s_high, 0.0)[0]
        assert all(rates_high[k] >= rates_low[k] - 1e-9 for k in rates_low)
