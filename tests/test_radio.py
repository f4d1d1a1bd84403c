"""Association, demand profile, and physical-mode capacity checks."""

import math

import pytest
from hypothesis import given, strategies as st

from conftest import make_kind, make_scenario, make_stations, make_ues, radio_capacities, serving_ids, with_parameter
from e3sim import TrafficProfile
from e3sim.allocation import plan_geometry
from e3sim.radio import demand_factor, nearest_stations


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

    def test_every_bs_is_listed_even_when_empty(self):
        s = line_scenario([0.0, 1000.0], (1.0,))
        assert plan_geometry(s).counts.tolist() == [1, 0]


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
