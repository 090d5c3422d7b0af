import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sfrkit import (
    FrequencyTrace,
    InvalidInputError,
    LagBand,
    RampBand,
    Scenario,
    SystemConditions,
    delta_f,
    derive_params,
    load_scenario,
    total_pfr_value,
)
from sfrkit.model import _as_times, apply_overrides, scenario_from_dict


class TestDeriveParams:
    def test_canonical_conditions(self, base_system):
        dp = derive_params(base_system)
        assert dp.dprime == 80.0
        assert dp.h == 180.0

    def test_security_conditions(self):
        sc = SystemConditions(f_n=50, ke=7000, p_load=2500, d=0.04, p_cont=300)
        dp = derive_params(sc)
        assert dp.dprime == 100.0
        assert dp.h == 140.0

    def test_exact_arithmetic(self):
        sc = SystemConditions(f_n=50, ke=9000, p_load=2000, d=0.04, p_cont=300)
        assert sc.dprime == sc.d * sc.p_load
        assert sc.h * sc.f_n == sc.ke

    def test_zero_damping_derives_but_downstream_raises(self):
        sc = SystemConditions(f_n=50, ke=50, p_load=1, d=0.0, p_cont=10)
        dp = derive_params(sc)
        assert dp.dprime == 0.0
        with pytest.raises(InvalidInputError):
            delta_f(sc, [LagBand(pfr=5, tau=1.0)], 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f_n=0, ke=9000, p_load=2000, d=0.04, p_cont=300),
            dict(f_n=50, ke=0, p_load=2000, d=0.04, p_cont=300),
            dict(f_n=50, ke=9000, p_load=0, d=0.04, p_cont=300),
            dict(f_n=50, ke=9000, p_load=2000, d=-0.01, p_cont=300),
        ],
    )
    def test_invalid_conditions(self, kwargs):
        with pytest.raises(InvalidInputError):
            SystemConditions(**kwargs)


class TestPfrValues:
    def test_lag_zero_at_onset(self):
        assert total_pfr_value([LagBand(pfr=100, tau=0.4)], 0.0) == 0.0

    def test_lag_fast_band_after_one_second(self):
        # 100 * (1 - exp(-1/0.4)) by direct evaluation
        assert total_pfr_value([LagBand(pfr=100, tau=0.4)], 1.0) == pytest.approx(
            91.79150013761012, rel=1e-12
        )

    def test_lag_same_exponent_by_symmetry(self):
        # t/tau = 2.5 in both cases
        assert total_pfr_value([LagBand(pfr=100, tau=2.0)], 5.0) == pytest.approx(
            total_pfr_value([LagBand(pfr=100, tau=0.4)], 1.0), rel=1e-15
        )

    def test_lag_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            band = LagBand(pfr=rng.uniform(10, 500), tau=rng.uniform(0.05, 10))
            t = np.sort(rng.uniform(0, 50, size=40))
            v = total_pfr_value([band], t)
            assert np.all(np.diff(v) >= 0)
            assert np.all(v <= band.pfr)

    def test_ramp_midway(self):
        assert total_pfr_value([RampBand(pfr=270, t_r=6)], 3.0) == 135.0

    def test_ramp_zero_and_saturated(self):
        band = RampBand(pfr=270, t_r=6)
        assert total_pfr_value([band], 0.0) == 0.0
        assert total_pfr_value([band], 10.0) == 270.0

    def test_ramp_monotone_and_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            band = RampBand(pfr=rng.uniform(10, 500), t_r=rng.uniform(0.1, 10))
            t = np.sort(rng.uniform(0, 30, size=40))
            v = total_pfr_value([band], t)
            assert np.all(np.diff(v) >= 0)
            assert np.all(v <= band.pfr)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            total_pfr_value([LagBand(pfr=100, tau=0.4)], -0.1)
        with pytest.raises(InvalidInputError):
            total_pfr_value([RampBand(pfr=100, t_r=2)], np.array([0.0, -1.0]))

    @settings(max_examples=300, deadline=None)
    @given(t=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                        elements=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, -1e-320]))))
    @example(t=np.array([math.nan, -1.0]))
    @example(t=np.array([-1.0, math.nan]))
    @example(t=np.array([-0.0, math.nan]))
    @example(t=np.empty((0, 3)))
    @example(t=np.array(-0.0))
    @example(t=np.array(math.nan))
    @example(t=np.array(-5e-324))
    def test_time_check_rejects_exactly_negative_elements(self, t):
        negative = any(float(v) < 0 for v in t.ravel())
        if negative:
            with pytest.raises(InvalidInputError, match="^time must be >= 0$"):
                _as_times(t)
        else:
            arr, scalar = _as_times(t)
            assert arr.shape == t.shape and scalar == (t.ndim == 0)
            np.testing.assert_array_equal(arr, t)

    @pytest.mark.parametrize("t, scalar", [(0.5, True), (-0.0, True), ([], False),
                                           ([0.0, 1.0], False), (math.nan, True)])
    def test_time_check_accepts_python_values(self, t, scalar):
        assert _as_times(t)[1] is scalar

    def test_two_band_values(self):
        fast, std = LagBand(130, 0.4), LagBand(80, 2.0)
        assert total_pfr_value([fast, std], 0.0) == 0.0
        # 130*(1-e^-2.5) + 80*(1-e^-0.5) by direct evaluation
        assert total_pfr_value([fast, std], 1.0) == pytest.approx(150.80649740188247, rel=1e-12)
        assert total_pfr_value([fast, std], 1e6) == pytest.approx(210.0, rel=1e-12)

    def test_two_band_commutes(self):
        fast, std = LagBand(130, 0.4), LagBand(80, 2.0)
        t = np.linspace(0, 20, 50)
        assert np.array_equal(total_pfr_value([fast, std], t), total_pfr_value([std, fast], t))

    def test_total_pfr_mixed(self):
        bands = [LagBand(100, 0.4), RampBand(60, 3.0)]
        t = np.array([0.0, 1.0, 10.0])
        expected = total_pfr_value(bands[:1], t) + total_pfr_value(bands[1:], t)
        assert np.allclose(total_pfr_value(bands, t), expected, rtol=1e-15)

    def test_band_validation(self):
        with pytest.raises(InvalidInputError):
            LagBand(pfr=100, tau=0.0)
        with pytest.raises(InvalidInputError):
            RampBand(pfr=100, t_r=-1.0)
        assert RampBand(pfr=270, t_r=6).rate == 45.0


class TestFrequencyTrace:
    def test_times_grid(self):
        tr = FrequencyTrace(dt=0.5, samples=np.array([0.0, -0.1, -0.2]))
        assert np.array_equal(tr.times, [0.0, 0.5, 1.0])
        assert len(tr) == 3

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            FrequencyTrace(dt=0.0, samples=np.array([0.0]))
        with pytest.raises(InvalidInputError):
            FrequencyTrace(dt=0.1, samples=np.array([]))


SCENARIO = {
    "system": {"f_n_hz": 50, "ke_mws": 9000, "p_load_mw": 2000, "d_relief": 0.04,
               "p_cont_mw": 300},
    "bands": [{"kind": "lag", "pfr_mw": 270, "tau_s": 2.0},
              {"kind": "ramp", "pfr_mw": 30, "t_r_s": 6.0}],
    "sim": {"t_end_s": 30.0, "dt_s": 0.001},
}


class TestScenario:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(SCENARIO))
        sce = load_scenario(path)
        assert sce.system.dprime == 80.0
        assert isinstance(sce.bands[0], LagBand)
        assert isinstance(sce.bands[1], RampBand)
        assert (sce.t_end, sce.dt) == (30.0, 0.001)

    def test_missing_field_names_the_field(self):
        doc = json.loads(json.dumps(SCENARIO))
        del doc["system"]["ke_mws"]
        with pytest.raises(InvalidInputError, match="ke_mws"):
            scenario_from_dict(doc)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": }')
        with pytest.raises(InvalidInputError, match="line 1"):
            load_scenario(path)

    @pytest.mark.parametrize("value", ["5", '"ab"', "{}"])
    def test_bands_must_be_a_list(self, value):
        doc = apply_overrides(json.loads(json.dumps(SCENARIO)), [f"bands={value}"])
        with pytest.raises(InvalidInputError, match="^bands: expected a list"):
            scenario_from_dict(doc)

    def test_band_sign_must_match_contingency(self):
        doc = json.loads(json.dumps(SCENARIO))
        doc["bands"][0]["pfr_mw"] = -270
        with pytest.raises(InvalidInputError, match="sign"):
            scenario_from_dict(doc)

    def test_over_frequency_scenario_valid(self):
        doc = json.loads(json.dumps(SCENARIO))
        doc["system"]["p_cont_mw"] = -300
        doc["bands"] = [{"kind": "lag", "pfr_mw": -270, "tau_s": 2.0}]
        sce = scenario_from_dict(doc)
        assert sce.bands[0].pfr == -270

    def test_unknown_band_kind(self):
        doc = json.loads(json.dumps(SCENARIO))
        doc["bands"][0]["kind"] = "step"
        with pytest.raises(InvalidInputError, match="kind"):
            scenario_from_dict(doc)

    def test_overrides(self):
        doc = json.loads(json.dumps(SCENARIO))
        apply_overrides(doc, ["system.ke_mws=7000", "bands.0.tau_s=1.5"])
        sce = scenario_from_dict(doc)
        assert sce.system.ke == 7000
        assert sce.bands[0].tau == 1.5

    def test_override_errors(self):
        doc = json.loads(json.dumps(SCENARIO))
        with pytest.raises(InvalidInputError):
            apply_overrides(doc, ["no_equals_sign"])
        with pytest.raises(InvalidInputError):
            apply_overrides(doc, ["bands.9.tau_s=1.0"])

    @pytest.mark.parametrize("assignment", [
        "system.p_cont_mw=NaN", "bands.1.t_r_s=Infinity", "system.ke_mws=-Infinity",
    ])
    def test_non_finite_override_names_the_field(self, assignment):
        doc = json.loads(json.dumps(SCENARIO))
        with pytest.raises(InvalidInputError, match=assignment.split("=")[0]):
            apply_overrides(doc, [assignment])

    def test_non_finite_file_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(SCENARIO).replace("300", "NaN"))
        with pytest.raises(InvalidInputError, match="NaN"):
            load_scenario(path)

    def test_integer_too_long_to_convert_names_the_override(self):
        # int() converts at most 4300 digits by default, and its error names no input
        doc = json.loads(json.dumps(SCENARIO))
        with pytest.raises(InvalidInputError, match="override 'system.ke_mws': an integer literal "
                                                    "of 5001 characters is too long to convert"):
            apply_overrides(doc, ["system.ke_mws=1" + "0" * 5000])

    def test_integer_too_long_to_convert_names_the_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(SCENARIO).replace("300", "1" + "0" * 5000))
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}: an integer literal")):
            load_scenario(path)

    @pytest.mark.parametrize("assignment", [
        "system.p_cont_mw=1e999", "bands.0.pfr_mw=-1e999", "sim.dt_s=1e999",
        pytest.param("system.ke_mws=1" + "0" * 400, id="system.ke_mws=1e400-as-an-integer"),
    ])
    def test_overflowing_literal_names_the_field(self, assignment):
        # finite JSON literals that parse to infinity pass the token hook
        doc = apply_overrides(json.loads(json.dumps(SCENARIO)), [assignment])
        with pytest.raises(InvalidInputError, match=assignment.split("=")[0]):
            scenario_from_dict(doc)


def _field_as_it_was(doc, where, key):
    """model._field, with model._number inline, as it was."""
    if key not in doc:
        raise InvalidInputError(f"{where}: missing required field '{key}'")
    value = doc[key]
    if type(value) is float and -math.inf < value < math.inf:
        return value
    name = f"{where}.{key}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise InvalidInputError(
            f"{name}: expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise InvalidInputError(f"{name}: expected a finite number, got {value!r}")
    return value


def scenario_from_dict_as_it_was(doc):
    """scenario_from_dict as it was: every field through one checked call, in check order."""
    if not isinstance(doc, dict):
        raise InvalidInputError("scenario: top level must be an object")
    if "system" not in doc or not isinstance(doc["system"], dict):
        raise InvalidInputError("scenario: missing 'system' object")
    s = doc["system"]
    system = SystemConditions(
        _field_as_it_was(s, "system", "f_n_hz"),
        _field_as_it_was(s, "system", "ke_mws"),
        _field_as_it_was(s, "system", "p_load_mw"),
        _field_as_it_was(s, "system", "d_relief"),
        _field_as_it_was(s, "system", "p_cont_mw"),
    )
    band_docs = doc.get("bands", [])
    if not isinstance(band_docs, list):
        raise InvalidInputError("bands: expected a list")
    bands = []
    for i, b in enumerate(band_docs):
        where = f"bands.{i}"
        if not isinstance(b, dict):
            raise InvalidInputError(f"{where}: expected an object")
        kind = b.get("kind")
        pfr = _field_as_it_was(b, where, "pfr_mw")
        if pfr * system.p_cont < 0:
            raise InvalidInputError(
                f"{where}.pfr_mw: sign must match p_cont_mw ({system.p_cont})"
            )
        if kind == "lag":
            bands.append(LagBand(pfr, _field_as_it_was(b, where, "tau_s")))
        elif kind == "ramp":
            bands.append(RampBand(pfr, _field_as_it_was(b, where, "t_r_s")))
        else:
            raise InvalidInputError(f"{where}.kind: expected 'lag' or 'ramp', got {kind!r}")
    t_end = dt = None
    if "sim" in doc:
        if not isinstance(doc["sim"], dict):
            raise InvalidInputError("sim: expected an object")
        t_end = _field_as_it_was(doc["sim"], "sim", "t_end_s")
        dt = _field_as_it_was(doc["sim"], "sim", "dt_s")
        if not t_end > 0 or not dt > 0:
            raise InvalidInputError("sim: t_end_s and dt_s must be > 0")
    return Scenario(system, tuple(bands), t_end, dt)


@st.composite
def scenario_documents(draw):
    """Valid scenario documents: under- or over-frequency, 0-3 bands, sim optional.

    Half of them hold only floats, as the single pass takes them; in the other
    half any number may be an int, as a file written without decimals gives.
    """
    ints = draw(st.booleans())

    def number_in(lo, hi):
        floats = st.floats(lo, hi)
        return floats | st.integers(math.ceil(lo), math.floor(hi)) if ints else floats

    sign = draw(st.sampled_from([1, -1]))
    doc = {"system": {"f_n_hz": draw(number_in(1, 100)), "ke_mws": draw(number_in(1, 1e5)),
                      "p_load_mw": draw(number_in(1, 1e4)), "d_relief": draw(number_in(0, 0.1)),
                      "p_cont_mw": sign * draw(number_in(0, 1000))}}
    bands = []
    for kind in draw(st.lists(st.sampled_from(["lag", "ramp"]), max_size=3)):
        bands.append({"kind": kind, "pfr_mw": sign * draw(number_in(0, 500)),
                      "tau_s" if kind == "lag" else "t_r_s": draw(number_in(0.01, 100))})
    if bands or draw(st.booleans()):
        doc["bands"] = bands
    if draw(st.booleans()):
        doc["sim"] = {"t_end_s": draw(number_in(0.01, 100)), "dt_s": draw(st.floats(1e-4, 0.01))}
    return doc


_MISSING, _NEGATED = object(), object()
# what one field of a document can be mutated to
_BAD_NUMBERS = [_MISSING, True, "7000", 10**400, math.inf, -math.inf, math.nan, _NEGATED,
                0.0, -1.0, None]
_BAD_KINDS = [_MISSING, "step", None, [], 5]
_NOT_OBJECTS = [5, "x", [], None]


@st.composite
def mutated_documents(draw):
    """A valid document with one field, band, bands list or sim block made bad."""
    doc = draw(scenario_documents())
    fields = [(doc["system"], key) for key in doc["system"]]
    fields += [(band, key) for band in doc.get("bands", []) for key in band]
    fields += [(doc["sim"], key) for key in doc.get("sim", {})]
    fields += [(doc.get("bands", []), i) for i in range(len(doc.get("bands", [])))]
    fields += [(doc, "bands"), (doc, "sim")]
    node, key = draw(st.sampled_from(fields))
    if key in ("bands", "sim") or isinstance(node, list):
        node[key] = draw(st.sampled_from(_NOT_OBJECTS))
        return doc
    value = draw(st.sampled_from(_BAD_KINDS if key == "kind" else _BAD_NUMBERS))
    if value is _MISSING:
        del node[key]
    else:
        # a sign mismatch for a band, a negative value for the other fields
        node[key] = (-node[key] or -1.0) if value is _NEGATED else value
    return doc


def _outcome(parse, doc):
    """The record's repr, or the type and the message of what the parser raised."""
    try:
        return repr(parse(doc))
    except Exception as exc:
        return type(exc), str(exc)


class TestParserAsItWas:
    """The single-pass parser gives the records and the errors of the field-by-field one."""

    @settings(max_examples=300, deadline=None)
    @given(doc=scenario_documents())
    @example(doc=SCENARIO)
    def test_valid_documents_give_equal_records(self, doc):
        got = scenario_from_dict(doc)
        want = scenario_from_dict_as_it_was(doc)
        assert got == want and repr(got) == repr(want)

    @settings(max_examples=600, deadline=None)
    @given(doc=mutated_documents())
    def test_one_bad_field_gives_the_same_error(self, doc):
        # a few mutations leave the document valid, as a missing bands list or a negated 0
        assert _outcome(scenario_from_dict, doc) == _outcome(scenario_from_dict_as_it_was, doc)

    @pytest.mark.parametrize("doc", [
        5, [], {}, {"system": 5}, {"system": None},
        # two faults in one band: the first check that fails names it
        {**SCENARIO, "bands": [{"kind": "step", "pfr_mw": -270.0, "tau_s": 2.0}]},
        {**SCENARIO, "bands": [{"kind": "step", "pfr_mw": math.nan}]},
        {**SCENARIO, "bands": [{"kind": "lag", "pfr_mw": -270.0, "tau_s": -1.0}]},
        {**SCENARIO, "bands": [{"kind": "ramp", "pfr_mw": "30", "t_r_s": math.inf}]},
        {**SCENARIO, "bands": [{"kind": "lag", "pfr_mw": 270.0, "tau_s": -1.0}, 5]},
    ])
    def test_bad_top_level_or_two_faults_give_the_same_error(self, doc):
        assert _outcome(scenario_from_dict, doc) == _outcome(scenario_from_dict_as_it_was, doc)
