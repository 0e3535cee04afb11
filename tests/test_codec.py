"""The JSON codec of config and scenario blocks: round trips, value checks, fuzzing."""

import copy
import json
import math
import re
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from scalar_reference import reads_two_codes

from swsense.cli import _Config
from swsense.codec import from_json, to_json
from swsense.controller import ControllerConfig
from swsense.core import Tone
from swsense.coupling import DirectionalCouplerParams, ResistiveTapParams
from swsense.engine import Metrics, Scenario, StageSpec, load_scenario, save_scenario, scenario_from_dict
from swsense.filters import NotchModel
from swsense.readout import (
    AdcParams,
    AmplifierParams,
    AttenuatorParams,
    ChainConfig,
    DetectorParams,
    chain_config_from_dict,
    chain_config_hash,
    load_chain_config,
    save_chain_config,
)
from swsense.stub import StubParams, TapSpec

SCENARIOS = ("cascade_6_12", "limit_cycle_coupler", "limit_cycle_tap", "pulse_response")
# A JSON path: a key or indexed key, then .key or [i] steps, then ": ".
JSON_PATH = re.compile(r"^[a-z_]+(\[\d+\])*(\.[a-z_0-9]+(\[\d+\])*)*: ")


def bundled(name):
    return json.loads(resources.files("swsense").joinpath(f"data/{name}.json").read_text())


def through_json(obj):
    return json.loads(json.dumps(to_json(obj)))


# ---------------- valid values ----------------

pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
real = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
freq = st.floats(min_value=1e8, max_value=2e10, allow_nan=False)
table_points = st.lists(st.tuples(freq, real), min_size=1, max_size=4).map(tuple)
table = st.one_of(real, table_points)


@st.composite
def couplers(draw, f_top=2e10):
    """A coupler whose band starts at or below f_top."""
    f_min = draw(st.floats(min_value=1e8, max_value=f_top))
    f_max = draw(st.floats(min_value=f_min * 1.01, max_value=f_min * 20.0))
    return DirectionalCouplerParams(draw(table), draw(table), draw(table), f_min, f_max)


@st.composite
def stubs(draw):
    f2 = draw(freq)
    f1 = draw(st.floats(min_value=f2, max_value=f2 * 10.0))
    return StubParams(draw(pos), (TapSpec(draw(st.text(max_size=4)), f1), TapSpec("l2", f2)), draw(pos))


@st.composite
def attenuators(draw):
    step = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    return AttenuatorParams(step, step * draw(st.integers(1, 127)))


@st.composite
def detectors(draw):
    v_min = draw(st.floats(min_value=1e-4, max_value=1.0))
    return DetectorParams(draw(pos), draw(real), v_min, v_min * draw(st.floats(min_value=1.5, max_value=1e3)))


@st.composite
def chains(draw):
    kind = draw(st.sampled_from(["tap", "coupler"]))
    stub = draw(stubs())
    detector, adc = draw(detectors()), draw(st.builds(AdcParams, st.integers(6, 16), pos, pos))
    assume(reads_two_codes(detector, adc))  # about half the pairs read as one code, which a chain refuses
    # A coupler block only on a coupler chain, which without one takes the
    # default coupler. The coupler's band starts inside the stub band, or the
    # chain's band is empty.
    f_top = stub.taps[0].f_max_hz
    default = st.none() if DirectionalCouplerParams().f_min_hz <= f_top else st.nothing()
    return ChainConfig(
        coupling_kind=kind,
        tap=draw(st.builds(ResistiveTapParams, pos, pos)),
        coupler=draw(default | couplers(f_top)) if kind == "coupler" else None,
        stub=stub,
        attenuator=draw(attenuators()),
        amplifier=draw(st.builds(AmplifierParams, real, real)),
        detector=detector,
        adc=adc,
        gain_ripple=draw(st.none() | table_points),
    )


@st.composite
def controllers(draw, floor=-1, ceiling=4096):
    """A controller whose window lies above floor and below ceiling, a chain's floor_code and ceiling_code."""
    low = draw(st.integers(floor + 1, ceiling - 1))
    return ControllerConfig(
        threshold_dbm=draw(real),
        agc_high_code=draw(st.integers(low, ceiling - 1)),
        agc_low_code=low,
        clock_period=draw(pos),
        retune_deadband_hz=draw(pos),
        switch_freq_hz=draw(st.none() | freq),
    )


@st.composite
def tones(draw):
    f = draw(freq)
    t_on = draw(st.floats(min_value=0.0, max_value=1e-5))
    t_off = draw(st.just(math.inf) | st.floats(min_value=t_on + 1e-9, max_value=1e-4))
    if draw(st.booleans()):  # a modulated carrier
        bw = draw(st.floats(min_value=1e3, max_value=f))
        n = draw(st.sampled_from([0, 3, 31]))
    else:
        bw, n = 0.0, draw(st.sampled_from([0, 1]))
    return Tone(f, draw(real), t_on, t_off, bw, n)


@st.composite
def notches(draw):
    lo = draw(freq)
    return NotchModel(
        kind=draw(st.sampled_from(["evanescent_pin", "yig", "ideal"])),
        depth_db=draw(pos),
        bw_3db_hz=draw(pos),
        f_tune_range_hz=(lo, lo * draw(st.floats(min_value=1.01, max_value=20.0))),
        tuning_time_s=draw(pos),
        reflective=draw(st.booleans()),
        power_knee_dbm=draw(real),
        depth_slope_db_per_db=draw(real),
    )


@st.composite
def stages(draw):
    # A chain whose floor and ceiling codes leave room for a window between them.
    chain = draw(chains().filter(lambda c: c.ceiling_code - c.floor_code > 1))
    delay = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)  # a stage's delay is >= 0
    return StageSpec(chain, draw(controllers(chain.floor_code, chain.ceiling_code)), draw(notches()), draw(delay))


scenarios = st.builds(
    Scenario,
    duration_s=pos,
    sources=st.lists(tones(), max_size=3).map(tuple),
    stages=st.lists(stages(), max_size=2).map(tuple),
    dt_s=pos,
    seed=st.integers(0, 2**32),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(chains())
    def test_chain_config(self, cfg):
        assert chain_config_from_dict(through_json(cfg)) == cfg

    @settings(max_examples=60, deadline=None)
    @given(controllers())
    def test_controller_config(self, ctrl):
        assert from_json(ControllerConfig, through_json(ctrl), "controller") == ctrl

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios)
    def test_scenario(self, sc):
        assert scenario_from_dict(through_json(sc)) == sc

    def test_open_ended_tone_is_null(self):
        d = to_json(Tone(6e9, 0.0))
        assert d["t_off_s"] is None
        assert from_json(Tone, d, "sources[0]").t_off_s == math.inf

    def test_tap_keeps_its_f_max_key(self):
        assert to_json(ChainConfig())["stub"]["taps"][0] == {"name": "l1", "f_max": 16e9}


class TestFileRoundTrip:
    """A value saved to a file loads back equal, with the same chain_config_hash."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chains(), st.none() | st.integers(1, 10**4))
    def test_chain_config(self, tmp_path, cfg, r_c):
        if r_c is not None:  # an int resistance, as a Python caller may give it, reads back as a float
            cfg = replace(cfg, tap=ResistiveTapParams(r_c, cfg.tap.z0))
        path = str(tmp_path / "chain.json")
        save_chain_config(cfg, path)
        back = load_chain_config(path)
        assert back == cfg and chain_config_hash(back) == chain_config_hash(cfg)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(scenarios)
    def test_scenario(self, tmp_path, sc):
        path = str(tmp_path / "scenario.json")
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back == sc
        assert [chain_config_hash(s.chain) for s in back.stages] == [chain_config_hash(s.chain) for s in sc.stages]


int_points = st.lists(st.tuples(st.integers(10**8, 2 * 10**10), st.integers(-100, 100)), min_size=1, max_size=4).map(
    tuple
)


class TestFloatForm:
    """A number in a float field is written as a float, so equal values write equal bytes."""

    def test_int_resistance_saves_the_default_chains_bytes(self, tmp_path):
        a, b = tmp_path / "int.json", tmp_path / "float.json"
        save_chain_config(ChainConfig(tap=ResistiveTapParams(r_c=220, z0=50)), str(a))
        save_chain_config(ChainConfig(), str(b))
        assert a.read_bytes() == b.read_bytes()
        assert '"r_c": 220.0' in a.read_text()

    def test_int_table_items_are_written_as_floats(self):
        cfg = ChainConfig(
            coupling_kind="coupler",
            coupler=DirectionalCouplerParams(coupling_db=-15, insertion_db=((10**9, 1), (14 * 10**9, 2))),
            gain_ripple=((10**9, 0),),
        )
        d = to_json(cfg)
        assert json.dumps(d["coupler"]["coupling_db"]) == "-15.0"
        assert json.dumps(d["coupler"]["insertion_db"]) == "[[1000000000.0, 1.0], [14000000000.0, 2.0]]"
        assert json.dumps(d["gain_ripple"]) == "[[1000000000.0, 0.0]]"
        assert json.dumps(d["adc"]["bits"]) == "12"  # an int field stays an int

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_list_items_are_written_as_floats_at_any_length(self, n):
        d = to_json(Metrics(final_output_dbm=list(range(n)), suppression_db=[*range(n - 1), None]))
        assert json.dumps(d["final_output_dbm"]) == json.dumps([float(i) for i in range(n)])
        assert json.dumps(d["suppression_db"]) == json.dumps([*map(float, range(n - 1)), None])

    @settings(max_examples=60, deadline=None)
    @given(chains(), st.none() | st.integers(1, 10**4), st.none() | int_points, st.none() | int_points)
    def test_json_form_is_its_own_round_trip(self, cfg, r_c, ripple, coupling):
        # chain_config_hash hashes to_json(cfg) directly, so this must hold with ints anywhere a float goes.
        if r_c is not None:
            cfg = replace(cfg, tap=ResistiveTapParams(r_c, cfg.tap.z0))
        if ripple is not None:
            cfg = replace(cfg, gain_ripple=ripple)
        if coupling is not None and cfg.coupling_kind == "coupler":
            cfg = replace(cfg, coupler=replace(cfg.coupler, coupling_db=coupling))
        text = json.dumps(to_json(cfg), sort_keys=True)
        back = chain_config_from_dict(json.loads(text))
        assert back == cfg
        assert json.dumps(to_json(back), sort_keys=True) == text


class TestValues:
    @pytest.mark.parametrize(
        "d, message",
        [
            ({"adc": {"bits": 12.0}}, "chain.adc.bits: expected int, got float"),
            ({"adc": {"v_fs": True}}, "chain.adc.v_fs: expected float, got bool"),
            ({"adc": {"bits": True}}, "chain.adc.bits: expected int, got bool"),
            ({"coupling_kind": 1}, "chain.coupling_kind: expected str, got int"),
            ({"gain_ripple": 0.5}, "chain.gain_ripple: expected a list, got float"),
            ({"gain_ripple": [[1e9, 0.5, 2.0]]}, "chain.gain_ripple[0]: expected 2 items, got 3"),
            ({"coupler": {"insertion_db": [[1e9, "x"]]}}, "chain.coupler.insertion_db[0][1]: expected float, got str"),
            ({"coupler": {"directivity_db": "6"}}, "chain.coupler.directivity_db: expected float or a list, got str"),
            ({"stub": {"taps": [None, None]}}, "chain.stub.taps[0]: expected an object, got null"),
            ({"stub": {"taps": [{"name": None, "f_max": 1e9}]}}, "chain.stub.taps[0]: missing key 'name'"),
            ({"amplifier": {"gain_db": 10**400}}, "chain.amplifier.gain_db: expected a finite float"),
            ({"amplifier": {"gain_db": math.nan}}, "chain.amplifier.gain_db: expected a finite float"),
            ({"stub": {"eps_eff": -math.inf}}, "chain.stub.eps_eff: expected a finite float"),
            ({"attenuator": {"step_db": 0.3}}, "chain.attenuator: max_db must be a whole number of step_db"),
            ({"attenuator": {"step_db": 1e-320, "max_db": 1e10}},
             "chain.attenuator: need 0 < step_db <= max_db, max_db / step_db < inf, got 1e-320, 10000000000.0"),
        ],
    )
    def test_bad_value_names_its_path(self, d, message):
        with pytest.raises(ValueError) as exc:
            chain_config_from_dict(d)
        assert str(exc.value) == message

    def test_null_and_int_values(self):
        cfg = chain_config_from_dict({"tap": None, "amplifier": {"gain_db": 20, "p_out_sat_dbm": None}})
        assert cfg == ChainConfig()
        assert type(cfg.amplifier.gain_db) is float

    def test_only_duration_is_required(self):
        assert scenario_from_dict({"duration_s": 1e-6}) == Scenario(1e-6)
        with pytest.raises(ValueError, match=r"^scenario: missing key 'duration_s'$"):
            scenario_from_dict({"duration_s": None})


# ---------------- fuzzing the bundled documents ----------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def entries(node):
    return list(node) if isinstance(node, dict) else list(range(len(node)))


@st.composite
def mutated(draw, doc):
    """doc with one to three random edits: a value replaced, an entry dropped or a key added."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        # Walk down a random number of levels, then edit the object or list reached.
        while node and draw(st.booleans()):
            child = node[draw(st.sampled_from(entries(node)))]
            if not isinstance(child, (dict, list)):
                break
            node = child
        keys = entries(node)
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "replace" and keys:
            node[draw(st.sampled_from(keys))] = draw(json_values)
        elif edit == "drop" and keys:
            del node[draw(st.sampled_from(keys))]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=6))] = draw(json_values)
        else:
            node.append(draw(json_values))
    return doc


def typed_error_or_round_trip(read, d):
    try:
        obj = read(d)
    except ValueError as exc:
        assert JSON_PATH.match(str(exc)), str(exc)
    else:
        assert read(through_json(obj)) == obj


@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenario_is_refused_by_path_or_round_trips(name, data):
    d = data.draw(mutated(bundled(f"scenarios/{name}")))
    typed_error_or_round_trip(scenario_from_dict, d)


@settings(max_examples=200, deadline=None)
@given(mutated(bundled("default_config")))
def test_mutated_config_is_refused_by_path_or_round_trips(d):
    typed_error_or_round_trip(lambda x: from_json(_Config, x, "config", root=True), d)
