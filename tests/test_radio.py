"""Association, demand profile, and physical-mode capacity checks."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    load_document,
    make_kind,
    make_scenario,
    make_stations,
    make_ues,
    radio_capacities,
    serving_ids,
    with_parameter,
)
from e3sim import StationLayout, TrafficProfile, build_scenario, radio
from e3sim.allocation import _blocks, plan_geometry
from e3sim.model import MAX_STATIONS
from e3sim.radio import _nearest_of_all, demand_factor, nearest_stations, stable_order


def line_scenario(positions, ue_xs, kind=None, radio_mode="abstract"):
    """Stations b0, b1, ... at (x, 0) for each of ``positions``, and UEs at ``ue_xs``."""
    kind = kind or make_kind()
    ids = [f"b{i}" for i in range(len(positions))]
    stations = make_stations([(x, 0.0) for x in positions], [kind] * len(positions), ids=ids)
    return make_scenario(kinds=(kind,), base_stations=stations, ues=line_ues(*ue_xs), radio_mode=radio_mode)


def line_ues(*xs):
    """UEs u0, u1, ... of demand 1e6 at (x, 0) for each of ``xs``."""
    return make_ues([(x, 0.0) for x in xs], ids=[f"u{i}" for i in range(len(xs))])


def capacity(s, station=0):
    """Radio capacity of one station as the evaluation computes it."""
    return radio_capacities(s)[station]


class TestAssociate:
    def test_single_bs_takes_everyone(self):
        s = line_scenario([0.0], (5.0, 500.0))
        assert serving_ids(s) == ["b0", "b0"]
        assert plan_geometry(s).counts.tolist() == [2]

    def test_nearest_bs_wins(self):
        s = line_scenario([0.0, 100.0], (30.0,))
        assert serving_ids(s) == ["b0"]

    def test_tie_breaks_to_smallest_bs_id(self):
        kind = make_kind()
        stations = make_stations([(100.0, 0.0), (-100.0, 0.0)], [kind, kind], ids=("b", "a"))
        s = make_scenario(kinds=(kind,), base_stations=stations, ues=line_ues(0.0))
        assert serving_ids(s) == ["a"]

    def test_permutation_of_ues_gives_same_serving_map(self):
        ues = tuple(37.0 * i % 211 for i in range(8))
        s1 = line_scenario([0.0, 100.0, 200.0], ues)
        s2 = line_scenario([0.0, 100.0, 200.0], ues[::-1])
        assert serving_ids(s1) == serving_ids(s2)[::-1]

    # coordinates up to 1e300, where squared distances overflow, and a few
    # shared values, so that stations tie in their squares and in math.hypot
    coordinate = st.one_of(
        st.floats(-1e300, 1e300),
        st.sampled_from([0.0, 1.0, -1.0, 100.0, 1e150, 1e200, -1e200, 1e300, -1e300, 5e-324]),
    )
    points = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8)
    #: a grid of stations near the origin, as a scenario's, at a drawn scale
    grids = st.builds(
        lambda n, spacing: [(c * spacing, r * spacing) for r in range(n) for c in range(n)],
        st.integers(1, 5),
        st.sampled_from([1.0, 100.0, 1e100, 2.5e299]),
    )

    @given(bs=st.one_of(points, grids), ue=points)
    def test_scoring_every_station_is_the_full_hypot_scan(self, bs, ue):
        expected = [
            min(range(len(bs)), key=lambda j: (math.hypot(bs[j][0] - x, bs[j][1] - y), j)) for x, y in ue
        ]
        assert _nearest_of_all(np.array(bs), np.array(ue)).tolist() == expected

    def test_far_ues_call_math_hypot_once_per_distinct_distance_pair(self):
        # 20 x 20 stations 100 m apart, UEs 1e199 m and more away: every squared
        # distance overflows, and every station's |dx| rounds to the UE's own x,
        # so a UE's 400 stations make only 20 distinct (|dx|, |dy|) pairs
        kind = make_kind()
        grid = [(c * 100.0, r * 100.0) for r in range(20) for c in range(20)]
        stations = make_stations(grid, [kind] * len(grid))
        far = [(1e199 * (1 + i), 0.25 * i) for i in range(50)]
        s = make_scenario(kinds=(kind,), base_stations=stations, ues=make_ues(far))
        with mock.patch("math.hypot", wraps=math.hypot) as hypot:
            serving = nearest_stations(s)
        assert hypot.call_count <= 20 * len(far)
        assert serving.tolist() == [
            min(range(len(grid)), key=lambda j: (math.hypot(grid[j][0] - x, grid[j][1] - y), j)) for x, y in far
        ]

    def test_far_ues_reach_closest_in_parts_whose_pair_keys_fit_one_chunk(self):
        # every far UE ties on all 400 stations; a chunk of the full scan holds
        # 20 of them, whose complex (|dx|, |dy|) keys would fill two chunks
        kind = make_kind()
        grid = [(c * 100.0, r * 100.0) for r in range(20) for c in range(20)]
        stations = make_stations(grid, [kind] * len(grid))
        far = [(1e199 * (1 + i), 0.25 * i) for i in range(50)]
        s = make_scenario(kinds=(kind,), base_stations=stations, ues=make_ues(far))
        with mock.patch.object(radio, "_closest", wraps=radio._closest) as closest:
            serving = nearest_stations(s)
        parts = [call.args[0] for call in closest.call_args_list]
        assert all(len(dx) == 1 or dx.size * 16 <= radio.CHUNK_BYTES for dx in parts)
        assert sum(map(len, parts)) == len(far)
        assert serving.tolist() == [
            min(range(len(grid)), key=lambda j: (math.hypot(grid[j][0] - x, grid[j][1] - y), j)) for x, y in far
        ]

    def test_a_metro_grid_is_settled_by_the_cell_search(self):
        # fig3 on a seeded 20 x 20 grid with 10k uniform UEs: the cell search
        # takes its candidates from one table row per cell, and settles every UE
        document = load_document("fig3.json")
        document["cache"]["catalog_size"] = 200
        document["base_stations"] = {"grid": {"kind": "ap", "rows": 20, "cols": 20, "spacing_m": 100.0}}
        document["ues"]["uniform_random"].update(count=10000, area_m=[2000.0, 2000.0])
        s = build_scenario(document)
        order = s.base_stations.id_order
        bs, ue = s.base_stations.position_m[order], s.ues.position_m
        serving, settled = radio._cell_search(bs, ue)
        assert settled.all()
        assert serving.tolist() == _nearest_of_all(bs, ue).tolist()
        assert nearest_stations(s).tolist() == order[serving].tolist()

    def test_every_bs_is_listed_even_when_empty(self):
        s = line_scenario([0.0, 1000.0], (1.0,))
        assert plan_geometry(s).counts.tolist() == [1, 0]


#: ints in [0, MAX_STATIONS) that repeat, and that straddle a 16-bit digit
station_indices = st.one_of(
    st.integers(0, 3),
    st.integers(2**16 - 2, 2**16 + 1),
    st.integers(0, MAX_STATIONS - 1),
)


class TestStationOrder:
    @given(keys=st.lists(station_indices, max_size=40), data=st.data())
    def test_the_radix_order_is_numpys_stable_argsort(self, keys, data):
        n = data.draw(st.integers(max(keys, default=0) + 1, MAX_STATIONS))
        keys = np.array(keys, dtype=np.intp)
        assert stable_order(keys, n).tolist() == np.argsort(keys, kind="stable").tolist()

    @given(serving=st.lists(station_indices, min_size=1, max_size=40), data=st.data())
    def test_peaks_sorted_by_station_are_bitwise_those_of_lexsort(self, serving, data):
        serving = np.array(serving, dtype=np.intp)
        repeated = st.sampled_from([1e5, 2e6, 2e6 + 1.0, 5e-324, 1e300])
        peaks = np.array(data.draw(st.lists(
            st.one_of(repeated, st.floats(5e-324, 1e300)), min_size=len(serving), max_size=len(serving)
        )))
        counts = np.bincount(serving, minlength=int(serving.max()) + 1)
        padded, _, _ = _blocks(serving, peaks, counts)
        assert padded.tobytes() == np.append(peaks[np.lexsort((peaks, serving))], 0.0).tobytes()

    def test_station_major_is_the_stable_order_of_the_serving_stations(self):
        s = line_scenario([0.0, 100.0, 200.0], tuple(37.0 * i % 211 for i in range(40)))
        geometry = plan_geometry(s)
        assert geometry.station_major.tolist() == np.argsort(geometry.serving, kind="stable").tolist()

    # names of 3 to 6 digits: bs000 ... bs999, bs1000 ..., bs10000 ..., bs100000
    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 1024, 5000, 10_000, 10_001, 100_001])
    def test_a_grid_orders_its_stations_by_their_generated_names(self, n):
        layout = StationLayout(None, np.zeros(n, dtype=int), np.zeros((n, 2)), ("ap",))
        assert layout.id_order.tolist() == sorted(range(n), key=layout.ids().__getitem__)


class TestDemandProfile:
    def test_peak_hour_gives_peak_demand(self):
        profile = TrafficProfile(peak_to_min_ratio=4.0, peak_hour=20.0)
        assert 1e7 * demand_factor(20.0, profile) == pytest.approx(1e7, rel=1e-15)

    def test_half_day_after_peak_hits_minimum(self):
        profile = TrafficProfile(peak_to_min_ratio=2.0, peak_hour=0.0)
        assert 1e7 * demand_factor(12.0, profile) == pytest.approx(5e6, rel=1e-12)

    def test_quarter_day_offset_matches_closed_form(self):
        # direct re-evaluation of the profile formula, written out
        rho, peak, t, dp = 10.0, 8.0, 14.0, 1e7
        expected = dp * (1 / rho + (1 - 1 / rho) * (1 + math.cos(2 * math.pi * (t - peak) / 24)) / 2)
        profile = TrafficProfile(peak_to_min_ratio=rho, peak_hour=peak)
        value = dp * demand_factor(t, profile)
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(0.55 * dp, rel=1e-12)

    @pytest.mark.parametrize("t", [1e308, -1e308, 2.0**60 + 20.0])
    def test_a_huge_hour_gives_the_demand_of_its_offset_within_the_day(self, t):
        # 2 pi times 1e308 overflowed: a math domain error
        profile = TrafficProfile(peak_to_min_ratio=4.0, peak_hour=20.0)
        assert demand_factor(t, profile) == demand_factor(20.0 + math.fmod(t - 20.0, 24.0), profile)

    @given(
        t=st.floats(min_value=-48.0, max_value=72.0),
        rho=st.floats(min_value=1.0, max_value=10.0),
        peak=st.floats(min_value=0.0, max_value=23.999),
    )
    def test_bounds_and_24h_period(self, t, rho, peak):
        profile = TrafficProfile(peak_to_min_ratio=rho, peak_hour=peak)
        d = 1e7 * demand_factor(t, profile)
        assert 1e7 / rho - 1e-6 <= d <= 1e7 + 1e-6
        assert 1e7 * demand_factor(t + 24.0, profile) == pytest.approx(d, rel=1e-9, abs=1e-6)


class TestRadioCapacity:
    def test_abstract_mode_returns_configured_capacity(self):
        kind = make_kind(radio_capacity_bps=5e7)
        s = line_scenario([0.0], (10.0,), kind=kind)
        assert capacity(s) == 5e7

    def test_single_bs_known_sinr(self):
        # tx power chosen so the received-power to noise ratio is exactly 15
        # at the reference distance: rate = B * log2(16) = 4e7 bit/s
        tx = 15 * (10 ** (-20.4) * 1e7) * 1e3
        kind = make_kind(kind_id="one", tx_power_w=tx, bandwidth_hz=1e7)
        s = line_scenario([0.0], (0.0,), kind=kind, radio_mode="physical")
        assert capacity(s) == pytest.approx(4e7, rel=1e-12)

    def test_three_bs_line_matches_hand_computation(self):
        kind = make_kind(kind_id="cell", tx_power_w=1.0, bandwidth_hz=1e7)
        ues = (100.0, 150.0, 600.0)
        s = line_scenario([0.0, 500.0, 1000.0], ues, kind=kind, radio_mode="physical")
        assert nearest_stations(s).tolist() == [0, 0, 1]

        # straight-line recomputation: log-distance path loss, full-power
        # interference from the two other cells, equal bandwidth split
        def pl_lin(d):
            return 10 ** ((30.0 + 35.0 * math.log10(d)) / 10.0)

        noise_w = 10 ** (-20.4) * 1e7
        expected = 0.0
        for x in (100.0, 150.0):
            signal = 1.0 / pl_lin(x)
            interference = 1.0 / pl_lin(500.0 - x) + 1.0 / pl_lin(1000.0 - x)
            expected += (1e7 / 2) * math.log2(1.0 + signal / (interference + noise_w))

        cap = capacity(s)
        assert cap == pytest.approx(expected, rel=1e-12)
        assert cap == pytest.approx(55560914.333832785, rel=1e-9)

    def test_stronger_interferer_never_helps(self):
        kind_a = make_kind(kind_id="a", tx_power_w=1.0)
        kind_b = make_kind(kind_id="b", tx_power_w=1.0)
        stations = make_stations([(0.0, 0.0), (300.0, 0.0)], [kind_a, kind_b], ids=("b0", "b1"))
        s = make_scenario(
            kinds=(kind_a, kind_b),
            base_stations=stations,
            ues=line_ues(50.0, 280.0),
            radio_mode="physical",
        )
        caps = []
        for tx in (0.5, 1.0, 2.0, 8.0):
            s2 = with_parameter(s, "kinds.b.tx_power_w", tx)
            caps.append(capacity(s2))
        assert all(caps[i + 1] <= caps[i] for i in range(len(caps) - 1))

    def test_zero_distance_clamps_to_reference(self):
        kind = make_kind(kind_id="cell", tx_power_w=1.0)
        s_at_zero = line_scenario([0.0], (0.0,), kind=kind, radio_mode="physical")
        s_at_ref = line_scenario([0.0], (1.0,), kind=kind, radio_mode="physical")
        cap0 = capacity(s_at_zero)
        cap1 = capacity(s_at_ref)
        assert math.isfinite(cap0) and cap0 == cap1
