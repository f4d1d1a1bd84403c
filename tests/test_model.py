"""Scenario construction, schema errors, generators, and round-tripping."""

import collections
import contextlib
import copy
import hashlib
import itertools
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import load_document, make_kind, make_scenario, make_stations, make_ues, make_xhaul
from e3sim import (
    BsKind,
    CacheConfig,
    CostBreakdown,
    InvariantError,
    NetworkScenario,
    SchemaError,
    StationLayout,
    SweepSpec,
    TrafficProfile,
    UePopulation,
    UnknownKindError,
    XHaulSolution,
    build_scenario,
    cost_coefficient,
    effective_cost_per_area,
    evaluate,
    evaluate_daily,
    resolve_benchmark_cost,
    scenario_to_document,
    set_parameter,
    validate_scenario,
)
from e3sim import document as document_module, model, scenario, sweep
from e3sim.metrics import point_inputs
from e3sim.model import BaseStation, UserEquipment
from e3sim.rng import BLOCK_POINTS, uniform_positions
from e3sim.document import _FIELDS, _RECORDS, _SECTIONS, _build, _maker, _makers, section_keys

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


def test_too_deeply_nested_json_text_is_a_value_error():
    with pytest.raises(ValueError, match="not valid JSON"):
        build_scenario("[" * 100_000)


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
    assert a.ues.position_m.tobytes() == oracles.uniform_positions(5, 200.0, 100.0, 12).tobytes()
    x, y = a.ues.position_m.T
    assert ((0 <= x) & (x <= 200) & (0 <= y) & (y <= 100)).all()
    assert (a.ues.demand_peak_bps == 4e6).all() and (a.ues.weight == 1.0).all()
    assert build_scenario(doc) == a
    doc["seed"] = 6
    assert build_scenario(doc) != a


#: Points per block of ``rng.uniform_positions``.
BLOCK = BLOCK_POINTS


class TestUniformPositions:
    """The UE generator gives NumPy's stream bit for bit, without NumPy's random module."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**130 - 1),
        # 31 to 33 points take 62 to 66 draws, about the 64 states made before doubling
        count=st.sampled_from((1, 10, 31, 32, 33, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)),
        width=st.floats(0.0, 1.7e308, exclude_min=True),
        height=st.floats(0.0, 1.7e308, exclude_min=True),
    )
    @example(seed=0, count=1, width=60.0, height=60.0)
    @example(seed=7, count=10, width=60.0, height=60.0)
    @example(seed=1, count=32, width=3.0, height=1e-300)
    @example(seed=2, count=33, width=100.0, height=100.0)
    @example(seed=2**32 - 1, count=BLOCK - 1, width=1.7e308, height=5e-324)
    @example(seed=2**32, count=BLOCK, width=1.0, height=1e300)
    @example(seed=2**64, count=BLOCK + 1, width=200.0, height=100.0)
    @example(seed=2**128, count=2 * BLOCK + 1, width=2000.0, height=2000.0)
    def test_the_points_equal_numpys(self, seed, count, width, height):
        got = uniform_positions(seed, width, height, count)
        assert got.tobytes() == oracles.uniform_positions(seed, width, height, count).tobytes()

    def test_a_hundred_thousand_points_equal_numpys(self):
        got = uniform_positions(7, 2000.0, 1000.0, 10**5)
        assert got.tobytes() == oracles.uniform_positions(7, 2000.0, 1000.0, 10**5).tobytes()


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


@pytest.mark.parametrize("value", [2.5, 24.0, True])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: TrafficProfile(samples_per_day=v), "TrafficProfile: samples_per_day must be an integer"),
        (lambda v: make_kind(cache_size=v), "BsKind 'pico': cache_size must be an integer"),
        (lambda v: CacheConfig(catalog_size=v), "CacheConfig: catalog_size must be an integer"),
    ],
    ids=["samples_per_day", "cache_size", "catalog_size"],
)
def test_integer_fields_reject_bools_and_fractions(build, message, value):
    # a fractional samples_per_day or cache_size once failed later with a bare TypeError
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        build(value)


def test_integer_fields_accept_numpy_integers():
    s = make_scenario(
        kinds=(make_kind(cache_size=np.int64(4)),),
        cache=CacheConfig(catalog_size=np.int32(20), zipf_exponent=0.8, strategy="top_popular"),
        traffic=TrafficProfile(peak_to_min_ratio=4.0, samples_per_day=np.int64(6)),
    )
    plain = make_scenario(
        kinds=(make_kind(cache_size=4),),
        cache=CacheConfig(catalog_size=20, zipf_exponent=0.8, strategy="top_popular"),
        traffic=TrafficProfile(peak_to_min_ratio=4.0, samples_per_day=6),
    )
    assert evaluate_daily(s) == evaluate_daily(plain)


#: Every float field of the records, and the record that holds it: (owner in errors, record, field).
FLOAT_FIELDS = [
    *(("XHaulSolution 'xh'", make_xhaul(), name) for name in ("capacity_bps", "xhaul_power_factor")),
    *(("CostBreakdown", CostBreakdown(*[1.0] * 7), name) for name in (*BREAKDOWN_COMPONENTS, "inherited_discount")),
    *(
        ("BsKind 'pico'", make_kind(), name)
        for name in (
            "static_power_w",
            "max_tx_dynamic_power_w",
            "radio_capacity_bps",
            "bandwidth_hz",
            "coverage_area_m2",
            "cost_per_area",
            "tx_power_w",
            "cache_item_cost_per_area",
        )
    ),
    *(("TrafficProfile", TrafficProfile(), name) for name in ("peak_to_min_ratio", "peak_hour")),
    *(("CacheConfig", CacheConfig(), name) for name in ("zipf_exponent", "cache_power_per_item_w")),
    ("NetworkScenario", make_scenario(), "benchmark_cost"),
]


FLOAT_FIELD_IDS = [f"{owner.split()[0]}.{name}" for owner, _, name in FLOAT_FIELDS]


@pytest.mark.parametrize("value", [True, False, "1.0"])
@pytest.mark.parametrize("owner, record, name", FLOAT_FIELDS, ids=FLOAT_FIELD_IDS)
def test_float_fields_reject_bools_and_strings(owner, record, name, value):
    # True was read as 1.0, and "1.0" failed a comparison with a bare TypeError
    rule = "a number or 'max-kind'" if name == "benchmark_cost" else "a number"
    with pytest.raises(InvariantError, match=f"^{re.escape(f'{owner}: {name} must be {rule}')}$"):
        replace(record, **{name: value})


@pytest.mark.parametrize("owner, record, name", FLOAT_FIELDS, ids=FLOAT_FIELD_IDS)
def test_float_fields_accept_numpy_floats(owner, record, name):
    value = np.float32(getattr(record, name))
    assert getattr(replace(record, **{name: value}), name) is value


#: The float fields whose range has no finite upper end of its own: the peak hour and the discount had one.
UNBOUNDED = [(field, id_) for field, id_ in zip(FLOAT_FIELDS, FLOAT_FIELD_IDS)
             if field[2] not in ("peak_hour", "inherited_discount")]


@pytest.mark.parametrize("owner, record, name", [field for field, _ in UNBOUNDED], ids=[id_ for _, id_ in UNBOUNDED])
def test_float_fields_reject_an_int_past_any_float_as_they_reject_inf(owner, record, name):
    # 10**400 passed "0 < x < inf", and evaluating the record ended in a bare OverflowError;
    # a cost breakdown's component failed the sum check instead
    with pytest.raises(InvariantError) as inf:
        replace(record, **{name: math.inf})
    assert str(inf.value).startswith(f"{owner}: {name} must be finite and ")
    for value in (10**400, -(10**400)):
        with pytest.raises(InvariantError, match=f"^{re.escape(str(inf.value))}$"):
            replace(record, **{name: value})


def test_cache_size_rejects_an_int_past_any_float_as_it_rejects_inf():
    # 10**400 passed "0 <= x < inf"; an unplaced kind's cost then ended in a bare OverflowError
    with pytest.raises(InvariantError, match=r"^BsKind 'pico': cache_size must be finite and >= 0$"):
        make_kind(cache_size=10**400)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: replace(make_scenario(), kinds=(1,)), "NetworkScenario: kinds must hold BsKind records, got int"),
        (lambda: replace(make_scenario(), cache=None), "NetworkScenario: cache must be a CacheConfig, got NoneType"),
        (lambda: replace(make_scenario(), traffic="x"), "NetworkScenario: traffic must be a TrafficProfile, got str"),
        (lambda: replace(make_kind(), xhaul=None), "BsKind 'pico': xhaul must be an XHaulSolution, got NoneType"),
        (lambda: replace(make_kind(), xhaul={"solution_id": "xh", "capacity_bps": 5e7, "medium": "wired"}),
         "BsKind 'pico': xhaul must be an XHaulSolution, got dict"),
        (lambda: replace(make_kind(), cost_breakdown=5),
         "BsKind 'pico': cost_breakdown must be a CostBreakdown or None, got int"),
    ],
    ids=["kinds", "cache", "traffic", "xhaul-none", "xhaul-dict", "cost_breakdown"],
)
def test_record_fields_reject_other_types(build, message):
    # each once passed construction and failed later with a bare AttributeError
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        build()


def test_a_fractional_integer_field_in_a_document_keeps_its_schema_error():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["traffic"] = {"samples_per_day": 2.5}
    with pytest.raises(SchemaError, match=r"^traffic.samples_per_day: expected an integer, got 2.5$"):
        build_scenario(doc)


@pytest.mark.parametrize("ratio", [INF, float("nan"), 0.5])
def test_peak_to_min_ratio_must_be_finite_and_at_least_one(ratio):
    with pytest.raises(InvariantError, match="peak_to_min_ratio must be finite and >= 1"):
        TrafficProfile(peak_to_min_ratio=ratio)


@pytest.mark.parametrize("seed", [True, False, "3", 2.5, 3.0, None, -1])
def test_rng_seed_must_be_an_integer_at_least_zero(seed):
    # "3" was accepted, and scenario_to_document then wrote a seed that build_scenario rejects
    message = f"NetworkScenario: rng_seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        make_scenario(rng_seed=seed)


def test_rng_seed_accepts_numpy_integers():
    seed = np.int64(7)
    assert make_scenario(rng_seed=seed).rng_seed is seed


def test_numpy_integers_round_trip_through_a_json_document():
    # the document held them as numpy integers, which build_scenario and json.dumps reject
    s = make_scenario(
        kinds=(make_kind(cache_size=np.int64(2)),),
        cache=CacheConfig(catalog_size=np.int64(5)),
        traffic=TrafficProfile(samples_per_day=np.int64(6)),
        rng_seed=np.int64(3),
    )
    doc = json.loads(json.dumps(scenario_to_document(s)))
    assert build_scenario(doc) == s
    assert (doc["seed"], doc["traffic"]["samples_per_day"], doc["cache"]["catalog_size"]) == (3, 6, 5)
    assert doc["kinds"][0]["cache_size"] == 2


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
    return StationLayout(("b",), [0], [position], ("pico",))


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
           kind_ids=("pico", "macro")):
    return StationLayout(ids, kind, position, kind_ids)


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
            ({"kind_ids": ("pico", "pico")}, "StationLayout: kind_ids must be distinct strings$"),
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
        assert b.position_m[-1].tolist() == [100.0, 50.0] and s.placed_kinds[b.kind[-1]] is s.kinds[0]
        listed = StationLayout(b.ids(), b.kind, b.position_m, b.kind_ids)
        assert listed.bs_id == b.ids() and listed == b
        assert make_scenario(kinds=s.kinds, base_stations=listed).base_stations == b
        assert StationLayout(b.ids()[::-1], b.kind, b.position_m, b.kind_ids) != b

    def test_a_kind_missing_from_the_catalog_names_the_first_station(self):
        with pytest.raises(UnknownKindError, match="^BaseStation 'b': kind 'macro' is not in the scenario catalog"):
            replace(make_scenario(), base_stations=layout())

    def test_a_scenario_resolves_its_layout_against_its_own_kinds(self):
        s = make_scenario(kinds=(make_kind(), make_kind(kind_id="macro")), base_stations=layout())
        assert s.base_stations == layout() and replace(s, rng_seed=1).base_stations is s.base_stations
        pico = replace(s.kinds[0], static_power_w=9.0)
        edited = replace(s, kinds=(pico, s.kinds[1]))
        assert [station.kind for station in oracles.stations(edited)] == [pico, edited.kinds[1], pico]
        assert oracles.stations(edited)[0].kind is pico and edited.placed_kinds[0] is pico
        assert edited.base_stations is s.base_stations
        fresh = replace(s, kinds=edited.kinds, base_stations=layout())
        assert evaluate(edited, 20.0) == evaluate(fresh, 20.0) == oracles.evaluate(edited, 20.0)

    def test_scenarios_take_a_layout_only(self):
        for value in ((), ((0.0, 0.0),), [BaseStation("b", "pico", (0.0, 0.0))], {"bs_id": "b"}):
            message = f"^NetworkScenario: base_stations must be a StationLayout, got {type(value).__name__}$"
            with pytest.raises(InvariantError, match=message):
                make_scenario(base_stations=value)
        empty = layout(ids=(), kind=np.empty(0, dtype=np.intp), position=np.empty((0, 2)), kind_ids=())
        with pytest.raises(InvariantError, match="^NetworkScenario: at least one base station required$"):
            make_scenario(base_stations=empty)


def test_a_grid_is_built_without_station_records():
    doc = load_document("fig3.json")
    doc["base_stations"] = {"grid": {"kind": "ap", "rows": 20, "cols": 30, "spacing_m": 0.1}}
    with mock.patch.object(BaseStation, "__init__", autospec=True, side_effect=BaseStation.__init__) as made:
        s = build_scenario(doc)
        evaluate(s, 20.0)
        assert made.call_count == 0 and len(s.base_stations) == 600
        BaseStation("b", "ap", (0.0, 0.0))
        assert made.call_count == 1  # the count sees a record made
    # station r * cols + c stands at (c * spacing, r * spacing), as Python multiplies
    assert s.base_stations.position_m.tolist() == [[c * 0.1, r * 0.1] for r in range(20) for c in range(30)]


def test_a_sweep_point_that_reuses_the_ues_checks_no_ue_id():
    doc = scenario_to_document(build_scenario(load_document("fig3.json")))  # the UEs as a list
    base = build_scenario(doc)
    point, makers = point_of(doc, base, "kinds.ap.cache_size", 2)
    with mock.patch.object(scenario, "_require_unique", wraps=scenario._require_unique) as unique:
        reused = _build(point, base, makers)
        assert reused.ues is base.ues
        assert [c.args[0] for c in unique.call_args_list].count("ue_id") == 0
        build_scenario(point)
        assert [c.args[0] for c in unique.call_args_list].count("ue_id") == 1


def point_of(document, base, path, value):
    """The document of a sweep point with ``value`` at ``path``, and its makers on ``base``."""
    steps = sweep._steps(document, path)
    return sweep._assign(steps, value), _makers(base, document, [[key for _, key in steps]])


def reuse_documents():
    """The four paper documents, fig3 with its X-Haul's power factor and its
    traffic section left out, and one with listed stations and UEs whose
    first kind has a cost breakdown and whose second an explicit null one."""
    documents = {name: load_document(name) for name in ("fig2.json", "fig3.json", "fig4_c2.json", "fig4_c3.json")}
    documents["defaults"] = load_document("fig3.json")
    del documents["defaults"]["kinds"][0]["xhaul"]["xhaul_power_factor"], documents["defaults"]["traffic"]
    listed = scenario_to_document(breakdown_scenario())
    listed["kinds"].append({**listed["kinds"][0], "kind_id": "k2", "cost_breakdown": None})
    listed["base_stations"].append({"bs_id": "bs001", "kind": "k2", "position_m": [30.0, 0.0]})
    documents["listed"] = listed
    return documents


REUSE_DOCUMENTS = reuse_documents()


def value_paths(document):
    """Key paths of every value of every section of ``document``, the keys it
    leaves at their default included, of each nested record, and of each
    root value or record section it leaves out."""
    paths = []

    def walk(node, keys, section):
        for key in section_keys(section):
            paths.append(keys + (key,))
            if section + (key,) in _RECORDS and isinstance(node.get(key), dict):
                walk(node[key], keys + (key,), section + (key,))

    for key in section_keys(()):
        value = document.get(key)
        if isinstance(value, list):
            for i, entry in enumerate(value):
                if isinstance(entry, dict):
                    walk(entry, (key, i), (key, "*"))
        elif isinstance(value, dict) and (key,) in _RECORDS:
            walk(value, (key,), (key,))
        elif isinstance(value, dict):  # a generator: grid or uniform_random
            for form, generator in value.items():
                walk(generator, (key, form), (key, form))
        else:
            paths.append((key,))
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
    """A document, copy-on-write copies of it with one and then maybe a
    second value set, and the key paths of the values set."""
    name = draw(st.sampled_from(sorted(REUSE_DOCUMENTS)))
    documents, paths = [REUSE_DOCUMENTS[name]], []
    for _ in range(draw(st.integers(1, 2))):
        keys = draw(st.sampled_from(value_paths(documents[-1])))
        valid, others = candidates(documents[-1], keys)
        documents.append(edited(documents[-1], keys, draw(st.sampled_from(valid) | st.sampled_from(others))))
        paths.append(keys)
    return documents, paths


def built_or_error(build, document):
    try:
        return build(document)
    except Exception as exc:
        return type(exc), str(exc)


def reuse_example(name, *edits):
    """Document ``name``, and its copies with each (keys, value) pair of ``edits`` set in turn."""
    documents = [REUSE_DOCUMENTS[name]]
    for keys, value in edits:
        documents.append(edited(documents[-1], keys, value))
    return documents, [keys for keys, _ in edits]


def recorded_parsers(parsed):
    """``_FIELDS`` with each parser appending the document path it parses to ``parsed``."""
    def recorded(parse):
        return lambda value, path: (parsed.append(path), parse(value, path))[1]

    return {section: tuple((k, recorded(parse)) for k, parse in pairs) for section, pairs in _FIELDS.items()}


def makers_of(base, document, paths):
    """The makers (``_makers``) of ``document``, an edit of ``base``'s at key paths from the root."""
    return _makers(base, document, paths)


class TestValueReuse:
    @settings(max_examples=300, deadline=None)
    @given(edit=reuse_edits())
    # a value equal to the base's but no number (False == 0.0), a rename of the
    # kind the station names, and a cost breakdown set to null
    @example(edit=reuse_example("fig3.json", (("kinds", 0, "xhaul", "xhaul_power_factor"), False)))
    @example(edit=reuse_example("fig3.json", (("kinds", 0, "kind_id"), "zz")))
    @example(edit=reuse_example("listed", (("kinds", 0, "cost_breakdown"), None)))
    # both edits of one kind invalid: the X-Haul comes first in field order, so its error wins
    @example(edit=reuse_example("fig3.json", (("kinds", 0, "cache_size"), 2.5),
                                (("kinds", 0, "xhaul", "capacity_bps"), 0)))
    # the medium's default power factor, as the solution leaves the factor out
    @example(edit=reuse_example("defaults", (("kinds", 0, "xhaul", "medium"), "wireless")))
    # a section the document leaves out, set whole
    @example(edit=reuse_example("defaults", (("traffic",), {"peak_hour": 3.0})))
    @example(edit=reuse_example("defaults", (("traffic",), 5)))
    # a kind renamed, and the listed station that names it renamed with it
    @example(edit=reuse_example("listed", (("kinds", 1, "kind_id"), "k3"), (("base_stations", 1, "kind"), "k3")))
    # a new seed regenerates the uniform_random UEs
    @example(edit=reuse_example("fig3.json", (("seed",), 8)))
    # a cost breakdown set whole, then one value below it
    @example(edit=reuse_example("fig3.json",
                                (("kinds", 0, "cost_breakdown"), dict.fromkeys(BREAKDOWN_COMPONENTS, 50.0 / 7)),
                                (("kinds", 0, "cost_breakdown", "inherited_discount"), 0.5)))
    def test_a_point_built_on_its_base_equals_a_fresh_build(self, edit):
        # the makers are compiled as a sweep compiles them: on the base document
        # for one path, and for two on the document with the first value set
        documents, paths = edit
        base, point = build_scenario(documents[0]), documents[-1]
        makers = makers_of(base, documents[-2], paths)
        reused = built_or_error(lambda d: _build(d, base, makers), point)
        fresh = built_or_error(build_scenario, point)
        assert reused == fresh
        if isinstance(reused, NetworkScenario):
            by_id = {k.kind_id: k for k in reused.kinds}
            assert all(k is by_id[k.kind_id] for k in reused.placed_kinds)
            assert oracles.stations(reused) == oracles.stations(fresh)
        if len(paths) == 2:
            # a sweep's second-axis point: an edit of its first-axis point, when that builds
            try:
                on = _build(documents[1], base, makers_of(base, documents[0], paths[:1]))
            except (ValueError, ArithmeticError):
                return
            edited = built_or_error(lambda d: _build(d, on, makers_of(on, documents[1], paths[1:])), point)
            assert edited == fresh
            if isinstance(edited, NetworkScenario):
                assert oracles.stations(edited) == oracles.stations(fresh)

    def test_an_xhaul_edit_parses_one_value_and_relinks_the_stations(self):
        document = REUSE_DOCUMENTS["fig3.json"]
        base = build_scenario(document)
        parsed = []
        with mock.patch.dict(_FIELDS, recorded_parsers(parsed)), \
                mock.patch("e3sim.document._maker", wraps=_maker) as record:
            point, makers = point_of(document, base, "kinds.ap.xhaul.capacity_bps", 2e7)
            s = _build(point, base, makers)
        assert parsed == ["kinds[0].xhaul.capacity_bps"]
        assert [c.args[0] for c in record.call_args_list] == [("kinds", "*"), ("kinds", "*", "xhaul")]
        assert oracles.stations(s)[0].kind is s.kinds[0] and s.kinds[0].xhaul.capacity_bps == 2e7
        # the kinds are looked up in the new catalog; the layout is the base's
        assert s.base_stations is base.base_stations
        assert s == build_scenario(point)

    def test_a_cache_xhaul_sweep_parses_each_value_once(self):
        # the cache size is parsed, and its kind and scenario made, once, on the first-axis point;
        # each second-axis point parses its capacity and edits that point's X-Haul, kind and scenario
        document = REUSE_DOCUMENTS["fig3.json"]
        spec = SweepSpec("kinds.ap.cache_size", (2,), "kinds.ap.xhaul.capacity_bps", (2e7, 4e7), time_hours=20.0)
        base = build_scenario(document)
        point_inputs(base, 20.0)  # the points' demand factors are then the kept ones: no TrafficProfile is made
        parsed = []
        classes = (XHaulSolution, CostBreakdown, BsKind, CacheConfig, TrafficProfile, StationLayout, UePopulation,
                   NetworkScenario)
        # a record is made either through its class or as an edit of another (model.edit)
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.dict(_FIELDS, recorded_parsers(parsed)))
            made = {cls.__name__: stack.enter_context(
                mock.patch.object(cls, "__init__", autospec=True, side_effect=cls.__init__)) for cls in classes}
            edits = stack.enter_context(mock.patch("e3sim.document.edit", wraps=model.edit))
            builds = stack.enter_context(mock.patch("e3sim.sweep._build", wraps=_build))
            steps = sweep._steps(document, spec.param_path)
            points = [s for _, s, _ in sweep._points(document, steps, [key for _, key in steps], spec, base, 20.0)]
        assert parsed == ["kinds[0].cache_size"] + ["kinds[0].xhaul.capacity_bps"] * 2
        counts = collections.Counter({name: m.call_count for name, m in made.items()})
        counts.update(type(c.args[0]).__name__ for c in edits.call_args_list)
        assert {name: n for name, n in counts.items() if n} == {"XHaulSolution": 2, "BsKind": 3, "NetworkScenario": 3}
        # the first-axis point is built on the base, and both second-axis points on it
        (first, _, _), *seconds = (c.args for c in builds.call_args_list)
        on = seconds[0][1]
        assert all(args[1] is on for args in seconds) and on is not base
        assert on == build_scenario(first) == build_scenario(set_parameter(document, spec.param_path, 2))
        for s, capacity in zip(points, spec.values2):
            assert s == build_scenario(set_parameter(first, spec.param2_path, capacity))
            assert s.ues is base.ues and s.base_stations is base.base_stations
            assert s.kinds[0].cache_size == 2 and s.kinds[0].xhaul.capacity_bps == capacity


@contextlib.contextmanager
def recorded_rules(ran):
    """The rules of every checked record class, each appending (class name,
    the fields it reads) to ``ran`` as it runs; compiled makers and the
    rule lists ``model.rules_reading`` keeps are made again on each side."""
    def recorded(name, reads, check):
        def run(record):
            ran.append((name, reads))
            check(record)
        return run

    model.rules_reading.cache_clear()
    try:
        with contextlib.ExitStack() as stack:
            for cls in (XHaulSolution, CostBreakdown, BsKind, CacheConfig, TrafficProfile, NetworkScenario):
                rules = tuple((reads, recorded(cls.__name__, reads, check)) for reads, check in cls._RULES)
                stack.enter_context(mock.patch.object(cls, "_RULES", rules))
            yield
    finally:
        model.rules_reading.cache_clear()


def checked_records():
    """Valid records of every checked class: X-Haul solutions with a set and a
    derived power factor, a cost breakdown, kinds with and without one, cache
    and traffic settings, and scenarios of one and of two kinds."""
    breakdown = CostBreakdown(10.0, 10.0, 10.0, 5.0, 5.0, 5.0, 5.0, inherited_discount=0.5)
    macro = make_kind("macro", xhaul=make_xhaul(medium="wireless"), cost_breakdown=breakdown, cache_size=4)
    two = make_scenario(kinds=(make_kind(), macro), base_stations=make_stations([(0.0, 0.0), (50.0, 0.0)],
                                                                                 (make_kind(), macro)))
    return [make_xhaul(medium="wireless"), make_xhaul(factor=1.5), breakdown, make_kind(), macro,
            CacheConfig(20, 0.8, "top_popular"), TrafficProfile(4.0, 20.0, 24), make_scenario(), two]


CHECKED_RECORDS = checked_records()

#: Numbers that pass or break a number field's rules: good values, bools,
#: NaN and infinities, ints past the largest float, fractions, numpy numbers
#: and no number at all.
EDIT_NUMBERS = (0, 1, 3.0, 4, 20, 24, 50.0, 1e7, 0.5, 2.5, -1, -1.0, 0.0, 1e6, 10**400, -(10**400), True, False,
                math.nan, math.inf, -math.inf, np.float64(3.0), np.int64(4), "x", None)
EDIT_STRINGS = ("pico", "macro", "zz", "xh", "wired", "wireless", "fiber", "none", "top_popular", "abstract",
                "physical", 1, None)


def edit_values():
    """Values to set by the field they are set at (by name, else by annotation)."""
    breakdown = CHECKED_RECORDS[2]
    pico, macro = CHECKED_RECORDS[3], CHECKED_RECORDS[4]
    renamed = replace(pico, kind_id="zz")
    layouts = (make_stations([(0.0, 0.0)], (pico,)), make_stations([(0.0, 0.0), (9.0, 0.0)], (pico, macro)),
               make_stations([(0.0, 0.0)], (renamed,)), StationLayout(None, np.zeros(0, np.intp), np.zeros((0, 2)), ()))
    return {
        "float": EDIT_NUMBERS, "float | None": EDIT_NUMBERS, "int": EDIT_NUMBERS, "str": EDIT_STRINGS,
        "xhaul": (make_xhaul(), make_xhaul(medium="wireless"), "x", None),
        "cost_breakdown": (None, breakdown, replace(breakdown, infrastructure=20.0), "x"),
        "kinds": ((pico,), (renamed,), (pico, macro), (macro, pico), (pico, pico), (), [pico], (pico, "x")),
        "base_stations": (*layouts, "x"),
        "ues": (make_ues([(1.0, 2.0)]), make_ues([(1.0, 2.0), (3.0, 4.0)], ids=("a", "b")), make_ues(np.zeros((0, 2))),
                "x"),
        "cache": (CacheConfig(), CacheConfig(20, 0.8, "top_popular"), "x"),
        "traffic": (TrafficProfile(), TrafficProfile(4.0, 20.0, 24), "x"),
        "benchmark_cost": ("max-kind", "cheap", *EDIT_NUMBERS),
        "rng_seed": (0, 5, -1, 2.0, True, 10**400, np.int64(3), "x"),
    }


EDIT_VALUES = edit_values()


@st.composite
def record_edits(draw):
    """A valid record of a checked class, and a change of one to three of its fields."""
    record = draw(st.sampled_from(CHECKED_RECORDS))
    names = draw(st.lists(st.sampled_from([f.name for f in fields(record) if f.init]), min_size=1, max_size=3,
                          unique=True))
    by_name = {f.name: f.type for f in fields(record)}
    return record, {name: draw(st.sampled_from(EDIT_VALUES.get(name) or EDIT_VALUES[by_name[name]]))
                    for name in names}


class TestEdit:
    @settings(max_examples=500, deadline=None)
    @given(edit=record_edits())
    # the medium edited while the power factor was derived from the old one
    @example(edit=(CHECKED_RECORDS[0], {"medium": "wired"}))
    @example(edit=(CHECKED_RECORDS[0], {"medium": "wired", "xhaul_power_factor": None}))
    # a rule across two fields: the breakdown must sum to cost_per_area
    @example(edit=(CHECKED_RECORDS[4], {"cost_per_area": 60.0}))
    # a renamed kind that the layout names, and a layout that names a kind the catalog lacks
    @example(edit=(CHECKED_RECORDS[7], {"kinds": (replace(CHECKED_RECORDS[3], kind_id="zz"),)}))
    @example(edit=(CHECKED_RECORDS[8], {"base_stations": EDIT_VALUES["base_stations"][2], "benchmark_cost": 0}))
    # an int past the largest float, in a float and in an integer field
    @example(edit=(CHECKED_RECORDS[3], {"tx_power_w": 10**400, "cache_size": 10**400}))
    def test_an_edit_equals_the_record_its_class_makes_or_raises_its_error(self, edit):
        record, changes = edit
        values = {f.name: getattr(record, f.name) for f in fields(record) if f.init}
        made = built_or_error(lambda c: type(record)(**{**values, **c}), changes)
        edited = built_or_error(lambda c: model.edit(record, c), changes)
        assert edited == made
        if isinstance(made, NetworkScenario):
            assert edited.placed_kinds == made.placed_kinds
            assert all(k is {c.kind_id: c for c in edited.kinds}[k.kind_id] for k in edited.placed_kinds)
        assert record == checked_records()[CHECKED_RECORDS.index(record)]  # the base is left as it was

    def test_the_constructor_runs_every_rule_once_in_order(self):
        for record in CHECKED_RECORDS:
            ran = []
            values = {f.name: getattr(record, f.name) for f in fields(record) if f.init}
            with recorded_rules(ran):
                type(record)(**values)
            assert ran == [(type(record).__name__, reads) for reads, _ in type(record)._RULES]

    def test_a_cache_xhaul_point_runs_only_the_rules_that_read_what_it_edits(self):
        # each first-axis point edits the kind's cache size; each second-axis point the X-Haul's
        # capacity, made once per capacity on the first cache size and reused at the second, and the
        # kind's X-Haul. A kind edit that renames none runs no scenario rule: only the placed kinds
        # are set again, from the catalog positions the base places
        document = REUSE_DOCUMENTS["fig3.json"]
        spec = SweepSpec("kinds.ap.cache_size", (2, 4), "kinds.ap.xhaul.capacity_bps", (2e7, 4e7), time_hours=20.0)
        base = build_scenario(document)
        point_inputs(base, 20.0)  # the points' demand factors are then the kept ones: no TrafficProfile is made
        ran = []
        with recorded_rules(ran), recorded_placed(ran):
            points = sweep_points(document, spec, base)

        first = reading({BsKind: {"cache_size"}}) + [PLACED]
        second = reading({XHaulSolution: {"capacity_bps"}, BsKind: {"xhaul"}}) + [PLACED]
        reused = reading({BsKind: {"xhaul"}}) + [PLACED]
        assert ran == first + second * 2 + first + reused * 2
        assert [name for name, _ in first] == ["BsKind"] * 3 + ["placed"]
        assert [name for name, _ in second] == ["XHaulSolution"] * 2 + ["BsKind", "placed"]
        for s, (size, capacity) in zip(points, itertools.product(spec.values, spec.values2)):
            on = set_parameter(document, spec.param_path, size)
            want = build_scenario(set_parameter(on, spec.param2_path, capacity))
            assert s == want and s.placed_kinds == want.placed_kinds and s.placed_kinds[0] is s.kinds[0]

    def test_a_kind_id_on_the_second_path_runs_the_four_rules_on_kinds(self):
        # a kind_id edit may rename a kind, so every scenario rule that reads the kinds runs,
        # beside those on the stations, which a rename may send back to be read
        document = REUSE_DOCUMENTS["fig3.json"]
        spec = SweepSpec("kinds.ap.cache_size", (2,), "kinds.ap.kind_id", ("ap", "zz"), time_hours=20.0)
        base = build_scenario(document)
        point_inputs(base, 20.0)
        ran = []
        with recorded_rules(ran), recorded_placed(ran):
            points = sweep_points(document, spec, base)

        on_kinds = reading({NetworkScenario: {"kinds"}})
        renamed = reading({NetworkScenario: {"kinds", "base_stations"}})
        assert len(on_kinds) == 4 and on_kinds[-1] == ("NetworkScenario", frozenset({"kinds", "base_stations"}))
        assert ran == reading({BsKind: {"cache_size"}}) + [PLACED] + renamed and set(on_kinds) <= set(renamed)
        assert points[0] == build_scenario(set_parameter(document, spec.param_path, 2))
        assert str(points[1]) == "base_stations[0]: unknown kind_id 'ap'"


#: What ``recorded_placed`` records for the one check that sets ``placed_kinds`` after a kind edit.
PLACED = ("placed", frozenset({"kinds"}))


def reading(edited):
    """(class name, fields read) of each rule of each class in ``edited`` that reads one of its fields."""
    return [(cls.__name__, reads) for cls, names in edited.items() for reads, _ in cls._RULES if reads & names]


@contextlib.contextmanager
def recorded_placed(ran):
    """``document._placed``, appending ``PLACED`` to ``ran`` as it runs."""
    def run(index, s):
        ran.append(PLACED)
        placed(index, s)

    placed = document_module._placed
    with mock.patch.object(document_module, "_placed", run):
        yield


def sweep_points(document, spec, base):
    """The scenario, or error, of every grid point of ``spec``, as ``sweep._points`` builds it on ``base``."""
    steps = sweep._steps(document, spec.param_path)
    t = None if spec.daily else spec.time_hours
    return [s for _, s, _ in sweep._points(document, steps, [key for _, key in steps], spec, base, t)]
