"""Scenario construction, schema errors, generators, and round-tripping."""

import copy
import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import load_document, make_kind, make_scenario, make_stations, make_ues, make_xhaul
from e3sim import (
    CacheConfig,
    CostBreakdown,
    InvariantError,
    NetworkScenario,
    SchemaError,
    StationLayout,
    TrafficProfile,
    UePopulation,
    UnknownKindError,
    build_scenario,
    cost_coefficient,
    effective_cost_per_area,
    evaluate,
    resolve_benchmark_cost,
    scenario_to_document,
    set_parameter,
    validate_scenario,
)
from e3sim import model, scenario
from e3sim.model import BaseStation, UserEquipment
from e3sim.document import _FIELDS, _RECORDS, _SECTIONS, _build, _record, section_keys

BREAKDOWN_COMPONENTS = (
    "infrastructure",
    "site_installation",
    "site_operation",
    "optimization_maintenance",
    "cache_placement",
    "xhaul_configuration",
    "content_delivery",
)

MINIMAL_DOC = {
    "kinds": [
        {
            "kind_id": "pico",
            "static_power_w": 6.0,
            "max_tx_dynamic_power_w": 8.0,
            "radio_capacity_bps": 2e7,
            "bandwidth_hz": 1e7,
            "coverage_area_m2": 1000.0,
            "cost_per_area": 50.0,
            "xhaul": {"solution_id": "fiber", "capacity_bps": 5e7, "medium": "wired"},
        }
    ],
    "base_stations": [{"bs_id": "bs0", "kind": "pico", "position_m": [0.0, 0.0]}],
    "ues": [{"ue_id": "ue0", "position_m": [10.0, 0.0], "demand_peak_bps": 1e7}],
    "cache": {"strategy": "none"},
}


def test_minimal_document_builds():
    s = build_scenario(MINIMAL_DOC)
    assert len(s.base_stations) == 1
    assert len(s.ues) == 1
    assert s.cache.strategy == "none"
    assert s.radio_mode == "abstract"
    # wired solutions default to no extra dynamic power
    assert s.kinds[0].xhaul.xhaul_power_factor == 0.0


def test_build_accepts_json_text():
    s = build_scenario(json.dumps(MINIMAL_DOC))
    assert s == build_scenario(MINIMAL_DOC)


def test_negative_cache_size_names_the_kind():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["kinds"][0]["cache_size"] = -1
    with pytest.raises(InvariantError, match="BsKind 'pico'.*cache_size"):
        build_scenario(doc)


def test_fig2_fixture_has_five_xhaul_options_spanning_cost_range():
    s = build_scenario(load_document("fig2.json"))
    assert len(s.kinds) == 5
    c0 = resolve_benchmark_cost(s)
    coefficients = sorted(cost_coefficient(k, c0) for k in s.kinds)
    assert coefficients[0] == pytest.approx(0.26, rel=1e-12)
    assert coefficients[-1] == pytest.approx(1.0, rel=1e-12)
    capacities = [k.xhaul.capacity_bps for k in s.kinds]
    assert capacities == sorted(capacities)
    assert len(set(capacities)) == 5


def test_build_is_deterministic():
    a = build_scenario(load_document("fig2.json"))
    b = build_scenario(load_document("fig2.json"))
    assert a == b


@pytest.mark.parametrize("name", ["fig2.json", "fig3.json", "fig4_c2.json", "fig4_c3.json"])
def test_round_trip_through_document(name):
    s = build_scenario(load_document(name))
    doc = json.loads(json.dumps(scenario_to_document(s)))
    assert build_scenario(doc) == s


def test_grid_generator_layout():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["base_stations"] = {"grid": {"kind": "pico", "rows": 2, "cols": 3, "spacing_m": 50.0}}
    s = build_scenario(doc)
    assert len(s.base_stations) == 6
    assert s.base_stations.ids() == tuple(f"bs{i:03d}" for i in range(6))
    assert s.base_stations.position_m[0].tolist() == [0.0, 0.0]
    assert s.base_stations.position_m[2].tolist() == [100.0, 0.0]
    assert s.base_stations.position_m[3].tolist() == [0.0, 50.0]


def test_uniform_random_generator_is_seeded():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["ues"] = {
        "uniform_random": {"count": 12, "area_m": [200.0, 100.0], "demand_peak_bps": 4e6}
    }
    doc["seed"] = 5
    a = build_scenario(doc)
    assert len(a.ues) == 12
    x, y = a.ues.position_m.T
    assert ((0 <= x) & (x <= 200) & (0 <= y) & (y <= 100)).all()
    assert (a.ues.demand_peak_bps == 4e6).all() and (a.ues.weight == 1.0).all()
    assert build_scenario(doc) == a
    doc["seed"] = 6
    assert build_scenario(doc) != a


def test_unknown_key_is_rejected_with_path():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["kinds"][0]["typo_field"] = 1
    with pytest.raises(SchemaError, match=r"kinds\[0\].typo_field"):
        build_scenario(doc)


def test_missing_required_key_is_reported():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    del doc["kinds"][0]["bandwidth_hz"]
    with pytest.raises(SchemaError, match="bandwidth_hz"):
        build_scenario(doc)


def test_bad_strategy_is_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["cache"]["strategy"] = "lru"
    with pytest.raises(SchemaError, match="strategy"):
        build_scenario(doc)


def test_dangling_kind_reference():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["base_stations"][0]["kind"] = "macro"
    with pytest.raises(UnknownKindError, match="macro"):
        build_scenario(doc)
    doc["base_stations"] = {"grid": {"kind": "macro", "rows": 1, "cols": 1, "spacing_m": 1.0}}
    with pytest.raises(UnknownKindError, match="macro"):
        build_scenario(doc)


def test_breakdown_must_sum_to_cost_per_area():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["kinds"][0]["cost_breakdown"] = {
        "infrastructure": 10.0,
        "site_installation": 10.0,
        "site_operation": 10.0,
        "optimization_maintenance": 5.0,
        "cache_placement": 5.0,
        "xhaul_configuration": 5.0,
        "content_delivery": 4.0,
    }
    with pytest.raises(InvariantError, match="cost_breakdown"):
        build_scenario(doc)
    doc["kinds"][0]["cost_breakdown"]["content_delivery"] = 5.0
    assert build_scenario(doc).kinds[0].cost_breakdown.total() == pytest.approx(50.0)


def test_duplicate_ids_are_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["ues"].append(dict(doc["ues"][0]))
    with pytest.raises(InvariantError, match="duplicate ue_id"):
        build_scenario(doc)


def test_validate_clean_scenario_has_no_warnings():
    assert validate_scenario(make_scenario()) == []


def test_validate_warns_when_cost_coefficient_exceeds_one():
    s = make_scenario(benchmark_cost=40.0)  # kind cost 50 > pinned benchmark
    warnings = validate_scenario(s)
    assert any("exceeds 1" in w for w in warnings)


def test_validate_warns_on_strategy_without_cache():
    from e3sim import CacheConfig

    s = make_scenario(cache=CacheConfig(catalog_size=10, strategy="top_popular"))
    warnings = validate_scenario(s)
    assert any("cache_size 0" in w for w in warnings)


def test_validate_warns_on_undersized_xhaul():
    kind = make_kind(xhaul=make_xhaul(capacity_bps=1e5))
    s = make_scenario(kinds=(kind,))
    warnings = validate_scenario(s)
    assert any("below the minimum per-UE demand" in w for w in warnings)


def test_max_kind_benchmark_keeps_coefficients_in_unit_interval():
    kinds = (
        make_kind(kind_id="a", cost_per_area=26.0),
        make_kind(kind_id="b", cost_per_area=70.0),
        make_kind(kind_id="c", cost_per_area=100.0),
    )
    stations = make_stations([(float(i), 0.0) for i in range(3)], kinds, ids=[f"bs{i}" for i in range(3)])
    s = make_scenario(kinds=kinds, base_stations=stations, benchmark_cost="max-kind")
    c0 = resolve_benchmark_cost(s)
    for kind in s.kinds:
        cn = cost_coefficient(kind, c0)
        assert 0.0 < cn <= 1.0
    assert cost_coefficient(kinds[2], c0) == 1.0


def test_effective_cost_includes_cache_items():
    kind = make_kind(cache_size=10, cache_item_cost_per_area=1.5)
    assert effective_cost_per_area(kind) == pytest.approx(50.0 + 15.0)


def test_area_m_of_wrong_type_names_the_path():
    doc = load_document("fig3.json")
    doc["ues"]["uniform_random"]["area_m"] = [None, 5]
    with pytest.raises(SchemaError, match=r"ues\.uniform_random\.area_m"):
        build_scenario(doc)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_json_number_is_rejected_with_path(value):
    text = json.dumps(load_document("fig3.json")).replace(
        '"cost_per_area": 50.0', f'"cost_per_area": {value}', 1
    )
    assert value in text
    with pytest.raises(SchemaError, match=r"kinds\[0\]\.cost_per_area: expected a finite number"):
        build_scenario(text)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_kind(cost_per_area=float("inf")),
        lambda: make_kind(coverage_area_m2=float("inf")),
        lambda: make_xhaul(capacity_bps=float("inf")),
        lambda: make_ues([(0.0, 0.0)], float("inf")),
        lambda: make_ues([(0.0, 0.0)], 1e6, weight=float("inf")),
        lambda: make_scenario(benchmark_cost=float("inf")),
        lambda: make_scenario(benchmark_cost=float("nan")),
    ],
    ids=["cost", "coverage", "xhaul", "demand", "weight", "benchmark-inf", "benchmark-nan"],
)
def test_positive_invariants_reject_non_finite_values(build):
    with pytest.raises(InvariantError, match="must be finite and > 0"):
        build()


INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_xhaul(medium="wireless", factor=INF),
        lambda: make_kind(cache_size=INF),
        lambda: make_kind(cache_item_cost_per_area=INF),
        lambda: CacheConfig(zipf_exponent=INF),
        lambda: CacheConfig(cache_power_per_item_w=INF),
    ]
    + [
        lambda name=name: CostBreakdown(**{**{c: 1.0 for c in BREAKDOWN_COMPONENTS}, name: INF})
        for name in BREAKDOWN_COMPONENTS
    ],
    ids=[
        "xhaul_power_factor",
        "cache_size",
        "cache_item_cost_per_area",
        "zipf_exponent",
        "cache_power_per_item_w",
        *BREAKDOWN_COMPONENTS,
    ],
)
def test_non_negative_invariants_reject_infinity(build):
    with pytest.raises(InvariantError, match="must be finite and >= 0"):
        build()


def test_samples_per_day_is_bounded():
    # a daily evaluation holds one row per sample
    most = model.MAX_SAMPLES_PER_DAY
    assert TrafficProfile(samples_per_day=most).samples_per_day == most == 86_400
    with pytest.raises(InvariantError, match=f"^TrafficProfile: samples_per_day must be <= {most}$"):
        TrafficProfile(samples_per_day=most + 1)
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["traffic"] = {"samples_per_day": most + 1}
    with pytest.raises(SchemaError, match=f"^traffic.samples_per_day: must be <= {most}$"):
        build_scenario(doc)


def test_catalog_size_is_bounded():
    # the popularity table holds one weight per catalog item
    assert CacheConfig(catalog_size=model.MAX_CATALOG_SIZE).catalog_size == model.MAX_CATALOG_SIZE
    with pytest.raises(InvariantError, match=f"^CacheConfig: catalog_size must be <= {model.MAX_CATALOG_SIZE}$"):
        CacheConfig(catalog_size=model.MAX_CATALOG_SIZE + 1)


@pytest.mark.parametrize("ratio", [INF, float("nan"), 0.5])
def test_peak_to_min_ratio_must_be_finite_and_at_least_one(ratio):
    with pytest.raises(InvariantError, match="peak_to_min_ratio must be finite and >= 1"):
        TrafficProfile(peak_to_min_ratio=ratio)


def test_negative_seed_names_the_path():
    # explicit UE lists never reach the generator, so only the check catches it
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["seed"] = -1
    with pytest.raises(SchemaError, match=r"document\.seed: must be >= 0, got -1"):
        build_scenario(doc)


@pytest.mark.parametrize(
    "section, position, match",
    [
        ("base_stations", ["0", True], r"base_stations\[0\]\.position_m\[0\]: expected a number, got str"),
        ("base_stations", [0.0, True], r"base_stations\[0\]\.position_m\[1\]: expected a number, got bool"),
        ("base_stations", "12", r"base_stations\[0\]\.position_m: expected \[x, y\]"),
        ("base_stations", [1.0, 2.0, 3.0], r"base_stations\[0\]\.position_m: expected \[x, y\]"),
        ("ues", [10.0, None], r"ues\[0\]\.position_m\[1\]: expected a number, got NoneType"),
        ("ues", {"x": 1.0, "y": 2.0}, r"ues\[0\]\.position_m: expected \[x, y\]"),
    ],
    ids=["bs-string", "bs-bool", "bs-text", "bs-triple", "ue-null", "ue-object"],
)
def test_position_must_be_two_numbers(section, position, match):
    doc = copy.deepcopy(MINIMAL_DOC)
    doc[section][0]["position_m"] = position
    with pytest.raises(SchemaError, match=match):
        build_scenario(doc)


@pytest.mark.parametrize(
    "edit, match",
    [
        ({"radio_mode": "foo"}, r"^document\.radio_mode: expected one of \('abstract', 'physical'\), got 'foo'$"),
        ({"benchmark_cost": "cheap"}, r"^document\.benchmark_cost: expected a number or 'max-kind', got 'cheap'$"),
    ],
    ids=["radio_mode", "benchmark_cost"],
)
def test_closed_set_values_name_their_path(edit, match):
    with pytest.raises(SchemaError, match=match):
        build_scenario({**MINIMAL_DOC, **edit})


def test_xhaul_medium_names_its_path():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["kinds"][0]["xhaul"]["medium"] = "fiber"
    with pytest.raises(SchemaError, match=r"^kinds\[0\]\.xhaul\.medium: expected one of \('wired', 'wireless'\)"):
        build_scenario(doc)


def one_station(position):
    return StationLayout(("b",), [0], [position], (make_kind(),))


def one_ue(position):
    return UePopulation(("u",), [position], [1e6], [1.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: one_station("12"), r"StationLayout: position_m must hold real numbers, got dtype <U2"),
        (lambda: one_station(("1", 2.0)), r"StationLayout: position_m must hold real numbers, got dtype <U32"),
        (lambda: one_ue((True, 0)), r"UePopulation: position_m must hold real numbers, got dtype bool"),
        (lambda: one_ue((0.0, None)), r"UePopulation: position_m must hold real numbers, got dtype object"),
        (lambda: one_ue((1j, 0.0)), r"UePopulation: position_m must hold real numbers, got dtype complex128"),
        (lambda: one_station(b"12"), r"StationLayout: position_m must hold real numbers, got dtype \|S2"),
        (lambda: one_ue({3: "a", 4: "b"}), r"UePopulation: position_m must hold real numbers, got dtype object"),
        (lambda: one_station(np.array(5.0)), r"StationLayout: position_m must have shape \(B, 2\), got \(1,\)"),
    ],
    ids=["text", "string-coordinate", "bool-coordinate", "none-coordinate", "complex-coordinate",
         "bytes", "dict", "scalar-array"],
)
def test_library_positions_must_be_two_real_numbers(build, message):
    with pytest.raises(InvariantError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("position", [(3, 4.0), [3.0, 4], np.array([3.0, 4.0]), np.array([3, 4])])
def test_library_positions_may_be_a_tuple_list_or_array(position):
    assert one_station(position).position_m.tolist() == [[3.0, 4.0]]
    assert one_ue(position).position_m.dtype == np.float64 and one_ue(position).position_m.tolist() == [[3.0, 4.0]]


def breakdown_scenario():
    """A kind with a cost breakdown and a wireless X-Haul left at its default factor."""
    breakdown = CostBreakdown(10.0, 10.0, 10.0, 5.0, 5.0, 5.0, 5.0, inherited_discount=0.5)
    return make_scenario(kinds=(make_kind(xhaul=make_xhaul(medium="wireless"), cost_breakdown=breakdown),))


#: sha256 of ``json.dumps(scenario_to_document(build_scenario(doc)))``: pins the
#: key order of every section and that no null key leaks into a document.
DOCUMENT_SHA256 = {
    "fig2.json": "fc06aab7fbf736a00c27873c7bde1c6f31ade61c0f1a8fccd98078f078c408f9",
    "fig3.json": "ded9e1588ad90bed4f9de0aa039e836a8bec2f201a722832a9c7f0c10ff5b323",
    "fig4_c2.json": "79dab0133057d093a0023a100725eaa063a6c51eb38c2169a93e7201b6995457",
    "fig4_c3.json": "25114b965b18dd79bff5bcacd874239260ea0c2787256022ed5209c638b6123c",
    "kind-with-breakdown": "9b82359c64f1c8c14fba137d833f20b2c92cc1be26e1c6df04e1bce1f88c2055",
}


@pytest.mark.parametrize("name", sorted(DOCUMENT_SHA256))
def test_serialised_document_bytes_are_pinned(name):
    if name == "kind-with-breakdown":
        doc = scenario_to_document(breakdown_scenario())
    else:
        doc = load_document(name)
    text = json.dumps(scenario_to_document(build_scenario(doc)))
    assert hashlib.sha256(text.encode()).hexdigest() == DOCUMENT_SHA256[name]


def test_schema_doc_names_every_admitted_key():
    schema = (Path(__file__).resolve().parents[1] / "docs" / "schema.md").read_text()
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", schema))
    missing = {(section, key) for section in _SECTIONS for key in section_keys(section) if key not in documented}
    assert not missing


def population(ids=("a", "b", "c"), position=((0.0, 0.0), (1.0, 2.0), (3.0, 4.0)), demand=(1e6,) * 3,
               weight=(1.0,) * 3):
    return UePopulation(ids, position, demand, weight)


class TestUePopulation:
    def test_columns_are_read_only_copies(self):
        demand = np.array([1e6, 2e6, 3e6])
        ues = population(demand=demand)
        demand[0] = -1.0
        assert ues.demand_peak_bps.tolist() == [1e6, 2e6, 3e6]
        with pytest.raises(ValueError, match="read-only"):
            ues.weight[0] = 2.0

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"demand": (1e6, 0.0, -1.0)}, "UserEquipment 'b': demand_peak_bps must be finite and > 0"),
            ({"weight": (1.0, 1.0, float("nan"))}, "UserEquipment 'c': weight must be finite and > 0"),
            ({"position": ((0.0, 0.0), (0.0, float("inf")), (0.0, 0.0)), "weight": (0.0, 1.0, 1.0)},
             "UserEquipment 'a': weight must be finite and > 0"),
            ({"position": ((0.0, 0.0), (0.0, float("inf")), (0.0, 0.0))}, "UserEquipment 'b': position_m must be finite"),
            ({"ids": ("a", "b", "a")}, "NetworkScenario: duplicate ue_id 'a'"),
            ({"ids": ("a", "b")}, "UePopulation: ue_id must hold 3 strings"),
            ({"ids": ("a", "b", 3)}, "UePopulation: ue_id must hold 3 strings"),
            ({"position": (0.0, 1.0, 2.0)}, r"UePopulation: position_m must have shape \(U, 2\)"),
            ({"demand": (1e6, 1e6)}, r"UePopulation: demand_peak_bps must have shape \(3,\)"),
            ({"weight": (True, True, True)}, "UePopulation: weight must hold real numbers"),
            ({"position": (("0", "1"), ("2", "3"), ("4", "5"))}, "UePopulation: position_m must hold real numbers"),
            ({"position": ((0.0, 0.0), (1.0,), (2.0, 3.0))}, "UePopulation: position_m must hold real numbers"),
            # a bool anywhere in a sequence, which np.asarray would take for a number
            ({"position": ((0.0, 0.0), (1.0, True), (2.0, 3.0))},
             "UePopulation: position_m must hold real numbers, got dtype bool$"),
            ({"demand": (1e6, np.True_, 2e6)}, "UePopulation: demand_peak_bps must hold real numbers, got dtype bool$"),
            ({"weight": [1.0, 1.0, False]}, "UePopulation: weight must hold real numbers, got dtype bool$"),
        ],
    )
    def test_checks_name_the_first_bad_ue(self, edit, message):
        with pytest.raises(InvariantError, match=f"^{message}"):
            population(**edit)

    def test_generated_ues_are_named_in_errors(self):
        doc = load_document("fig3.json")
        doc["ues"]["uniform_random"]["weight"] = 0.0
        with pytest.raises(InvariantError, match="^UserEquipment 'ue000': weight must be finite and > 0"):
            build_scenario(doc)

    def test_generated_names_equal_listed_ids(self):
        s = build_scenario(load_document("fig3.json"))
        u = s.ues
        assert u.ue_id is None and u.ids()[:2] == ("ue000", "ue001") and u.ids()[-1] == f"ue{len(u) - 1:03d}"
        listed = UePopulation(u.ids(), u.position_m, u.demand_peak_bps, u.weight)
        assert listed.ue_id == u.ids() and listed == u and make_scenario(ues=listed).ues == u
        assert UePopulation(u.ids()[::-1], u.position_m, u.demand_peak_bps, u.weight) != u

    def test_scenarios_take_a_population_only(self):
        for value in ((), ((0.0, 0.0),), [UserEquipment("u", (0.0, 0.0), 1e6)], {"ue_id": "u"}):
            message = f"^NetworkScenario: ues must be a UePopulation, got {type(value).__name__}$"
            with pytest.raises(InvariantError, match=message):
                make_scenario(ues=value)
        empty = UePopulation((), np.empty((0, 2)), [], [])
        with pytest.raises(InvariantError, match="^NetworkScenario: at least one UE required$"):
            make_scenario(ues=empty)


def test_a_generated_population_is_built_without_ue_records():
    doc = load_document("fig3.json")
    doc["ues"]["uniform_random"]["count"] = 10_000
    with mock.patch.object(UserEquipment, "__init__", autospec=True, side_effect=UserEquipment.__init__) as made:
        s = build_scenario(doc)
        evaluate(s, 20.0)
        assert made.call_count == 0 and len(s.ues) == 10_000
        UserEquipment("u", (0.0, 0.0), 1e6)
        assert made.call_count == 1  # the count sees a record made


def layout(ids=("a", "b", "c"), kind=(0, 1, 0), position=((0.0, 0.0), (1.0, 2.0), (3.0, 4.0)),
           kinds=(make_kind(), make_kind(kind_id="macro"))):
    return StationLayout(ids, kind, position, kinds)


class TestStationLayout:
    def test_columns_are_read_only_copies(self):
        position = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        stations = layout(position=position)
        position[0, 0] = np.nan
        assert stations.position_m[0].tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            stations.kind[0] = 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"position": ((0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0))}, "BaseStation 'b': position_m must be finite"),
            ({"ids": ("a", "b", "a")}, "NetworkScenario: duplicate bs_id 'a'"),
            ({"ids": ("a", "b")}, "StationLayout: bs_id must hold 3 strings"),
            ({"kind": (0, 2, 0)}, "StationLayout: kind must hold 3 indices into kinds"),
            ({"kind": (0.0, 1.0, 0.0)}, "StationLayout: kind must hold 3 indices into kinds"),
            ({"position": (0.0, 1.0, 2.0)}, r"StationLayout: position_m must have shape \(B, 2\)"),
            ({"position": (("0", "1"), ("2", "3"), ("4", "5"))}, "StationLayout: position_m must hold real numbers"),
            ({"kinds": (make_kind(), make_kind())}, "StationLayout: kinds must be BsKind records with distinct"),
            ({"kind": (0, True, 0)}, "StationLayout: kind must hold 3 indices into kinds"),
            # a kind of the layout that no station places
            ({"kind": (0, 0, 0)}, "StationLayout: no station is of kind 'macro'$"),
        ],
    )
    def test_checks_name_the_first_bad_station(self, edit, message):
        with pytest.raises(InvariantError, match=f"^{message}"):
            layout(**edit)

    def test_generated_names_equal_listed_ids(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["base_stations"] = {"grid": {"kind": "pico", "rows": 2, "cols": 3, "spacing_m": 50.0}}
        s = build_scenario(doc)
        b = s.base_stations
        assert b.bs_id is None and b.ids()[:2] == ("bs000", "bs001") and b.ids()[-1] == "bs005"
        assert b.position_m[-1].tolist() == [100.0, 50.0] and b.kinds[b.kind[-1]] is s.kinds[0]
        listed = StationLayout(b.ids(), b.kind, b.position_m, b.kinds)
        assert listed.bs_id == b.ids() and listed == b
        assert make_scenario(kinds=s.kinds, base_stations=listed).base_stations == b
        assert StationLayout(b.ids()[::-1], b.kind, b.position_m, b.kinds) != b

    def test_a_kind_missing_from_the_catalog_names_the_first_station(self):
        with pytest.raises(UnknownKindError, match="^BaseStation 'b': kind 'macro' is not in the scenario catalog"):
            replace(make_scenario(), base_stations=layout())

    def test_a_scenario_resolves_its_layout_against_its_own_kinds(self):
        s = make_scenario(kinds=(make_kind(), make_kind(kind_id="macro")), base_stations=layout())
        assert s.base_stations == layout() and replace(s, rng_seed=1).base_stations is s.base_stations
        pico = replace(s.kinds[0], static_power_w=9.0)
        edited = replace(s, kinds=(pico, s.kinds[1]))
        assert [station.kind for station in oracles.stations(edited)] == [pico, edited.kinds[1], pico]
        assert oracles.stations(edited)[0].kind is pico and edited.base_stations.kinds[0] is pico
        assert edited.base_stations.position_m is s.base_stations.position_m
        fresh = replace(s, kinds=edited.kinds, base_stations=layout(kinds=edited.kinds))
        assert evaluate(edited, 20.0) == evaluate(fresh, 20.0) == oracles.evaluate(edited, 20.0)

    def test_scenarios_take_a_layout_only(self):
        for value in ((), ((0.0, 0.0),), [BaseStation("b", make_kind(), (0.0, 0.0))], {"bs_id": "b"}):
            message = f"^NetworkScenario: base_stations must be a StationLayout, got {type(value).__name__}$"
            with pytest.raises(InvariantError, match=message):
                make_scenario(base_stations=value)
        empty = layout(ids=(), kind=np.empty(0, dtype=np.intp), position=np.empty((0, 2)), kinds=())
        with pytest.raises(InvariantError, match="^NetworkScenario: at least one base station required$"):
            make_scenario(base_stations=empty)


def test_a_grid_is_built_without_station_records():
    doc = load_document("fig3.json")
    doc["base_stations"] = {"grid": {"kind": "ap", "rows": 20, "cols": 30, "spacing_m": 0.1}}
    with mock.patch.object(BaseStation, "__init__", autospec=True, side_effect=BaseStation.__init__) as made:
        s = build_scenario(doc)
        evaluate(s, 20.0)
        assert made.call_count == 0 and len(s.base_stations) == 600
        BaseStation("b", s.kinds[0], (0.0, 0.0))
        assert made.call_count == 1  # the count sees a record made
    # station r * cols + c stands at (c * spacing, r * spacing), as Python multiplies
    assert s.base_stations.position_m.tolist() == [[c * 0.1, r * 0.1] for r in range(20) for c in range(30)]


def test_a_sweep_point_that_reuses_the_ues_checks_no_ue_id():
    doc = scenario_to_document(build_scenario(load_document("fig3.json")))  # the UEs as a list
    base = build_scenario(doc)
    point = set_parameter(doc, "kinds.ap.cache_size", 2)
    with mock.patch.object(scenario, "_require_unique", wraps=scenario._require_unique) as unique:
        reused = _build(point, (doc, base))
        assert reused.ues is base.ues
        assert [c.args[0] for c in unique.call_args_list].count("ue_id") == 0
        build_scenario(point)
        assert [c.args[0] for c in unique.call_args_list].count("ue_id") == 1


def reuse_documents():
    """The four paper documents, and one with listed stations and UEs whose
    first kind has a cost breakdown and whose second an explicit null one."""
    documents = {name: load_document(name) for name in ("fig2.json", "fig3.json", "fig4_c2.json", "fig4_c3.json")}
    listed = scenario_to_document(breakdown_scenario())
    listed["kinds"].append({**listed["kinds"][0], "kind_id": "k2", "cost_breakdown": None})
    listed["base_stations"].append({"bs_id": "bs001", "kind": "k2", "position_m": [30.0, 0.0]})
    documents["listed"] = listed
    return documents


REUSE_DOCUMENTS = reuse_documents()


def value_paths(document):
    """Key paths of every value of every record section of ``document``, the
    keys it leaves at their default included, and of each nested record."""
    paths = []

    def walk(node, keys, section):
        for key in section_keys(section):
            paths.append(keys + (key,))
            if section + (key,) in _RECORDS and isinstance(node.get(key), dict):
                walk(node[key], keys + (key,), section + (key,))

    for key, value in document.items():
        if isinstance(value, list):
            for i, entry in enumerate(value):
                if isinstance(entry, dict):
                    walk(entry, (key, i), (key, "*"))
        elif isinstance(value, dict) and (key,) in _RECORDS:
            walk(value, (key,), (key,))
    return paths


def lookup(document, keys):
    for key in keys:
        document = document.get(key) if isinstance(document, dict) else document[key]
    return document


def edited(document, keys, value):
    """Copy of ``document`` with ``value`` at ``keys``, copying only the containers along them."""
    copy = document.copy()
    copy[keys[0]] = value if len(keys) == 1 else edited(document[keys[0]], keys[1:], value)
    return copy


def candidates(document, keys):
    """Values to try at ``keys``: mostly valid ones (equal but not the same
    object, or changed), and others, mostly invalid."""
    old = lookup(document, keys)
    valid = []
    if isinstance(old, float):
        valid = [old + 0.0, old * 2, old * 0.5]
    elif isinstance(old, int) and not isinstance(old, bool) and old < 2**63:
        valid = [float(old), old + 1, old // 2]
    elif isinstance(old, str):
        valid = [old[:1] + old[1:], old + "x", "ap", "k2", "opt3", "wireless", "top_popular", "random_fill"]
    elif isinstance(old, list) and len(old) == 2:
        valid = [[old[0] + 1.0, old[1]], [old[0]]]
    elif isinstance(old, dict):
        valid = [dict(old), {**old, "typo": 1.0}] + [{**old, key: 5.0} for key in list(old)[:1]]
    if keys[-1] == "cost_breakdown":
        cost = lookup(document, keys[:-1] + ("cost_per_area",))
        if isinstance(cost, float) or (isinstance(cost, int) and not isinstance(cost, bool) and cost < 2**63):
            valid.append({name: cost / 7 for name in BREAKDOWN_COMPONENTS})  # else an earlier edit broke it
    others = [None, True, False, "zz", -1, 0, 2.5, 12, 3e7, 10**400, [1.0, 2.0], {}]
    return valid or others, others


@st.composite
def reuse_edits(draw):
    """A document, and a copy-on-write copy of it with one or two values set."""
    name = draw(st.sampled_from(sorted(REUSE_DOCUMENTS)))
    document = point = REUSE_DOCUMENTS[name]
    for _ in range(draw(st.integers(1, 2))):
        keys = draw(st.sampled_from(value_paths(point)))
        valid, others = candidates(point, keys)
        point = edited(point, keys, draw(st.sampled_from(valid) | st.sampled_from(others)))
    return document, point


def built_or_error(build, document):
    try:
        return build(document)
    except Exception as exc:
        return type(exc), str(exc)


def reuse_example(name, keys, value):
    document = REUSE_DOCUMENTS[name]
    return document, edited(document, keys, value)


class TestValueReuse:
    @settings(max_examples=300, deadline=None)
    @given(edit=reuse_edits())
    # a value equal to the base's but no number (False == 0.0), a rename of the
    # kind the station names, and a cost breakdown set to null
    @example(edit=reuse_example("fig3.json", ("kinds", 0, "xhaul", "xhaul_power_factor"), False))
    @example(edit=reuse_example("fig3.json", ("kinds", 0, "kind_id"), "zz"))
    @example(edit=reuse_example("listed", ("kinds", 0, "cost_breakdown"), None))
    def test_a_point_built_on_its_base_equals_a_fresh_build(self, edit):
        document, point = edit
        base = build_scenario(document)
        reused = built_or_error(lambda d: _build(d, (document, base)), point)
        assert reused == built_or_error(build_scenario, point)
        if isinstance(reused, NetworkScenario):
            by_id = {k.kind_id: k for k in reused.kinds}
            assert all(k is by_id[k.kind_id] for k in reused.base_stations.kinds)
            assert oracles.stations(reused) == oracles.stations(built_or_error(build_scenario, point))

    def test_an_xhaul_edit_parses_one_value_and_relinks_the_stations(self):
        document = REUSE_DOCUMENTS["fig3.json"]
        base = build_scenario(document)
        point = set_parameter(document, "kinds.ap.xhaul.capacity_bps", 2e7)
        parsed = []

        def recorded(parse):
            return lambda value, path: (parsed.append(path), parse(value, path))[1]

        fields = {section: tuple((k, parse and recorded(parse)) for k, parse in pairs)
                  for section, pairs in _FIELDS.items()}
        with mock.patch.dict(_FIELDS, fields), mock.patch("e3sim.document._record", wraps=_record) as record:
            s = _build(point, (document, base))
        assert parsed == ["kinds[0].xhaul.capacity_bps"]
        assert [c.args[0] for c in record.call_args_list] == [("kinds", "*"), ("kinds", "*", "xhaul")]
        assert oracles.stations(s)[0].kind is s.kinds[0] and s.kinds[0].xhaul.capacity_bps == 2e7
        # the kinds are resolved against the new catalog; the columns are the base's
        columns = ("bs_id", "kind", "position_m")
        assert all(getattr(s.base_stations, c) is getattr(base.base_stations, c) for c in columns)
        assert s == build_scenario(point)
