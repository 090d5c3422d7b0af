"""Every record type keeps the contract of a plain frozen dataclass.

The records are declared with `model._record`: frozen, slotted dataclasses
whose generated `__init__` writes the slots directly. Each one is compared
with a plain frozen dataclass of the same fields (its "twin") for equality,
hashing, repr and signature, and checked for frozen assignment, slots,
defaults, keyword construction and validation under `dataclasses.replace`.
The field checks are compared with the `__post_init__` bodies the records
had before they declared field rules, kept below as the reference.
"""
import copy
import dataclasses
import inspect
import math
import pickle
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrkit import applications, bandfit, closedform, model, oracle
from sfrkit.errors import InvalidInputError

_LAG = model.LagBand(pfr=100.0, tau=2.0)
_SYSTEM = model.SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)
_CELL = bandfit.MapeCell(pfr1=10.0, pfr2=20.0, mape_pct=1.5)
_SWEEP_CELL = bandfit.TauSweepCell(tau1=0.4, tau2=2.0, mean_mape_pct=0.8, max_mape_pct=1.9,
                                   pfr_plane_dev=0.003)

# record type -> (keyword arguments of a valid instance, one invalid field value or None)
RECORDS = {
    model.SystemConditions: (dict(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0),
                             ("f_n", 0.0)),
    model.DerivedParams: (dict(dprime=80.0, h=180.0), ("h", 0.0)),
    model.LagBand: (dict(pfr=100.0, tau=2.0), ("tau", -1.0)),
    model.RampBand: (dict(pfr=100.0, t_r=5.0), ("t_r", 0.0)),
    model.FrequencyTrace: (dict(dt=0.01, samples=np.array([0.0, -0.1, -0.2])),
                           ("dt", 0.0)),
    model.Scenario: (dict(system=_SYSTEM, bands=(_LAG,)), None),
    closedform.NadirResult: (dict(kind=closedform.INTERIOR_MINIMUM, t_nadir=4.0,
                                  delta_f_nadir=-0.6, max_rocof=-0.8), None),
    applications.SecurityPolicy: (dict(k_policy=1.0 / 0.7, delta_f_max=-0.5),
                                  ("delta_f_max", 0.0)),
    applications.SensitivityReport: (dict(dp_dtau=-295.0, dp_dh=1.3, dtau_dpfr1=-0.0027,
                                          dtau_dpfr2=0.0043, dp_dpfr1=0.79, dp_dpfr2=-1.28), None),
    bandfit.TwoBandPfr: (dict(band1=model.LagBand(120.0, 0.4), band2=model.LagBand(80.0, 2.0)),
                         ("band1", model.LagBand(120.0, 3.0))),
    bandfit.EquivalentBand: (dict(pfr_eq=200.0, tau_eq=1.1), ("tau_eq", 0.0)),
    bandfit.TauSurfaceModel: (dict(a=1.3, b=0.63, tau1=0.4, tau2=2.0), ("b", 0.0)),
    bandfit.MapeCell: (dict(pfr1=10.0, pfr2=20.0, mape_pct=1.5), None),
    bandfit.MapeReport: (dict(cells=(_CELL,), mean_pct=1.5, max_pct=1.5), None),
    bandfit.TauSweepCell: (dict(tau1=0.4, tau2=2.0, mean_mape_pct=0.8, max_mape_pct=1.9,
                                pfr_plane_dev=0.003), None),
    bandfit.TauSweepReport: (dict(cells=(_SWEEP_CELL,), mean_pct=0.8, max_pct=1.9), None),
    oracle.IntegrationSpec: (dict(t_end=30.0), ("dt", 0.5)),
}

# fields left to their defaults above, with the default each must take
DEFAULTS = {
    model.Scenario: {"t_end": None, "dt": None},
    bandfit.EquivalentBand: {"fit_residual": None},
    bandfit.TauSurfaceModel: {"rms_residual": None, "pfr_plane_dev": None},
    oracle.IntegrationSpec: {"dt": 0.001, "method": oracle.RK4},
}

records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _instance(cls):
    return cls(**RECORDS[cls][0])


def _twin(cls):
    """A plain frozen dataclass with cls's name, fields and defaults."""
    spec = [(f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
            for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def test_every_record_of_the_package_is_listed():
    found = {obj for mod in (model, closedform, applications, bandfit, oracle)
             for obj in vars(mod).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)
             and obj.__module__ == mod.__name__}
    assert found == set(RECORDS)
    assert len(found) == 17


@records
def test_assignment_raises_frozen_instance_error(cls):
    rec = _instance(cls)
    name = _names(cls)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rec, name)


@records
def test_slots_are_the_fields_and_there_is_no_dict(cls):
    rec = _instance(cls)
    assert cls.__slots__ == _names(cls)
    assert not hasattr(rec, "__dict__")
    with pytest.raises(TypeError):
        vars(rec)
    with pytest.raises(TypeError):
        weakref.ref(rec)


@records
def test_eq_hash_and_repr_match_a_plain_frozen_dataclass(cls):
    kwargs = RECORDS[cls][0]
    twin = _twin(cls)
    rec, plain = cls(**kwargs), twin(**kwargs)
    assert repr(rec) == repr(plain)
    assert rec == cls(**kwargs)
    assert rec != plain  # like any dataclass, a record equals only its own type
    if cls is model.FrequencyTrace:  # an ndarray field: unhashable, like the twin
        for obj in (rec, plain):
            with pytest.raises(TypeError):
                hash(obj)
        return
    assert hash(rec) == hash(plain) == hash(cls(**kwargs))


@records
def test_signature_matches_a_plain_frozen_dataclass(cls):
    params = list(inspect.signature(cls).parameters.values())
    plain = list(inspect.signature(_twin(cls)).parameters.values())
    assert tuple(p.name for p in params) == _names(cls)
    assert [(p.name, p.kind, p.default) for p in params] == \
        [(p.name, p.kind, p.default) for p in plain]
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@records
def test_keyword_construction_and_missing_arguments(cls):
    kwargs = RECORDS[cls][0]
    rec = cls(**kwargs)
    for name, value in kwargs.items():
        if name != "samples":  # FrequencyTrace keeps its samples as a float array
            assert getattr(rec, name) is value
    assert repr(cls(*kwargs.values())) == repr(rec)
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    short = {k: v for k, v in kwargs.items() if k != required[-1]}
    with pytest.raises(TypeError, match=required[-1]):
        cls(**short)
    with pytest.raises(TypeError):
        cls(**kwargs, not_a_field=1.0)


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_defaults(cls):
    rec = _instance(cls)
    for name, default in DEFAULTS[cls].items():
        assert getattr(rec, name) == default


@records
def test_replace_reruns_validation(cls):
    rec = _instance(cls)
    bad = RECORDS[cls][1]
    name = _names(cls)[-1]
    if bad is None:  # no __post_init__: replace gives a new record with the new value
        assert not hasattr(cls, "__post_init__")
        other = dataclasses.replace(rec, **{name: "replaced"})
        assert getattr(other, name) == "replaced"
        assert dataclasses.astuple(other)[:-1] == dataclasses.astuple(rec)[:-1]
        return
    field, value = bad
    with pytest.raises(InvalidInputError) as direct:
        cls(**{**RECORDS[cls][0], field: value})
    with pytest.raises(InvalidInputError) as replaced:
        dataclasses.replace(rec, **{field: value})
    assert str(replaced.value) == str(direct.value)


def test_post_init_normalises_through_the_slot():
    trace = model.FrequencyTrace(dt=0.5, samples=[0, -1, -2])
    assert trace.samples.dtype == float
    assert np.array_equal(trace.times, [0.0, 0.5, 1.0])


@records
def test_copy_and_pickle_round_trip(cls):
    rec = _instance(cls)
    for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(other) is cls
        if cls is model.FrequencyTrace:
            assert np.array_equal(other.samples, rec.samples)
        else:
            assert other == rec


def test_record_refuses_a_default_factory():
    class Listed:
        values: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="default_factory"):
        model._record(Listed)


# --- field checks as they were ----------------------------------------------
#
# Each record's field checks as its __post_init__ stated them before the
# records declared field rules, copied verbatim; self holds the arguments.

def _system_as_it_was(self):
    if not 0 < self.f_n < math.inf:
        raise InvalidInputError(f"f_n must be finite and > 0, got {self.f_n}")
    # ke = +inf is kept as the infinite-inertia limit, where no deviation develops
    if not self.ke > 0:
        raise InvalidInputError(f"ke must be > 0, got {self.ke}")
    if not 0 < self.p_load < math.inf:
        raise InvalidInputError(f"p_load must be finite and > 0, got {self.p_load}")
    if not 0 <= self.d < math.inf:
        raise InvalidInputError(f"d must be finite and >= 0, got {self.d}")
    if not -math.inf < self.p_cont < math.inf:
        raise InvalidInputError(f"p_cont must be finite, got {self.p_cont}")


def _derived_as_it_was(self):
    if not 0 <= self.dprime < math.inf:
        raise InvalidInputError(f"dprime must be finite and >= 0, got {self.dprime}")
    if not 0 < self.h < math.inf:
        raise InvalidInputError(f"h must be finite and > 0, got {self.h}")


def _lag_as_it_was(self):
    if not 0 < self.tau < math.inf:
        raise InvalidInputError(f"tau must be finite and > 0, got {self.tau}")
    if not -math.inf < self.pfr < math.inf:
        raise InvalidInputError(f"pfr must be finite, got {self.pfr}")


def _ramp_as_it_was(self):
    if not 0 < self.t_r < math.inf:
        raise InvalidInputError(f"t_r must be finite and > 0, got {self.t_r}")
    if not -math.inf < self.pfr < math.inf:
        raise InvalidInputError(f"pfr must be finite, got {self.pfr}")


def _trace_as_it_was(self):
    if not self.dt > 0:
        raise InvalidInputError(f"dt must be > 0, got {self.dt}")
    arr = np.asarray(self.samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("samples must be a non-empty 1-D sequence")
    object.__setattr__(self, "samples", arr)


def _policy_as_it_was(self):
    if not (self.k_policy > 0 and math.isfinite(self.k_policy)):
        raise InvalidInputError(f"k_policy must be finite and > 0, got {self.k_policy}")
    if not (math.isfinite(self.delta_f_max) and self.delta_f_max != 0):
        raise InvalidInputError(
            f"delta_f_max must be finite and nonzero, got {self.delta_f_max}"
        )


def _equivalent_as_it_was(self):
    if not 0 <= self.pfr_eq < math.inf:
        raise InvalidInputError(f"pfr_eq must be finite and >= 0, got {self.pfr_eq}")
    if not 0 < self.tau_eq < math.inf:
        raise InvalidInputError(f"tau_eq must be finite and > 0, got {self.tau_eq}")
    if self.fit_residual is not None and not math.isfinite(self.fit_residual):
        raise InvalidInputError(f"fit_residual must be finite, got {self.fit_residual}")


def _check_tau_pair_as_it_was(tau1: float, tau2: float) -> None:
    if not 0 < tau1 <= tau2 < math.inf:
        raise InvalidInputError(f"need finite 0 < tau1 <= tau2, got tau1={tau1}, tau2={tau2}")


def _surface_as_it_was(self):
    if not 0 <= self.a < math.inf:
        raise InvalidInputError(f"a must be finite and >= 0, got {self.a}")
    if not 0 < self.b < math.inf:
        raise InvalidInputError(f"b must be finite and > 0, got {self.b}")
    _check_tau_pair_as_it_was(self.tau1, self.tau2)
    for name in ("rms_residual", "pfr_plane_dev"):
        value = getattr(self, name)
        if value is not None and not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")


# record type -> (its checks as they were, the fields they check, fields that may be None,
# fields they leave unchecked with a valid value)
AS_IT_WAS = {
    model.SystemConditions: (_system_as_it_was, ("f_n", "ke", "p_load", "d", "p_cont"), (), {}),
    model.DerivedParams: (_derived_as_it_was, ("dprime", "h"), (), {}),
    model.LagBand: (_lag_as_it_was, ("pfr", "tau"), (), {}),
    model.RampBand: (_ramp_as_it_was, ("pfr", "t_r"), (), {}),
    model.FrequencyTrace: (_trace_as_it_was, ("dt",), (), {"samples": [0.0, -1.0]}),
    applications.SecurityPolicy: (_policy_as_it_was, ("k_policy", "delta_f_max"), (), {}),
    bandfit.EquivalentBand: (_equivalent_as_it_was, ("pfr_eq", "tau_eq", "fit_residual"),
                             ("fit_residual",), {}),
    bandfit.TauSurfaceModel: (_surface_as_it_was,
                              ("a", "b", "tau1", "tau2", "rms_residual", "pfr_plane_dev"),
                              ("rms_residual", "pfr_plane_dev"), {}),
}

CHECKED = pytest.mark.parametrize(
    "cls,name", [(cls, name) for cls, (_, names, _, _) in AS_IT_WAS.items() for name in names],
    ids=lambda x: getattr(x, "__name__", x))
_BIG = sys.float_info.max
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, 1.0, -1.0,
            _BIG, -_BIG, math.inf, -math.inf, math.nan)
_NUMBERS = st.one_of(st.sampled_from(_SPECIAL), st.floats(), st.integers(-3, 3), st.booleans())


def _outcome(build):
    try:
        build()
    except (InvalidInputError, TypeError) as exc:
        return type(exc), str(exc)
    return "ok"


class TestFieldChecksAsTheyWere:
    """Each record fails on the field, with the exception and message, that it did."""

    @pytest.mark.parametrize("cls", list(AS_IT_WAS), ids=lambda c: c.__name__)
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_first_bad_field_and_message(self, cls, data):
        check, names, optional, fixed = AS_IT_WAS[cls]
        args = {name: data.draw(st.none() | _NUMBERS if name in optional else _NUMBERS,
                                label=name) for name in names}
        want = _outcome(lambda: check(SimpleNamespace(**args, **fixed)))
        if cls is model.FrequencyTrace and want != "ok":
            # dt's rule now says finite; an infinite dt is rejected, see below
            want = (want[0], want[1].replace("dt must be > 0", "dt must be finite and > 0"))
        if args.get("dt") == math.inf:
            want = (InvalidInputError, "dt must be finite and > 0, got inf")
        assert _outcome(lambda: cls(**args, **fixed)) == want

    def test_an_infinite_time_step_is_rejected(self):
        # it was accepted: its times read [nan, inf], with a numpy warning
        with pytest.raises(InvalidInputError, match=r"^dt must be finite and > 0, got inf$"):
            model.FrequencyTrace(math.inf, [0.0, -1.0])

    @CHECKED
    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_an_int_beyond_the_float_range_is_rejected_by_name(self, cls, name, value):
        # LagBand took pfr = 10**400; SecurityPolicy and EquivalentBand raised OverflowError
        with pytest.raises(InvalidInputError) as err:
            cls(**{**RECORDS[cls][0], name: value})
        message = str(err.value)
        if name in ("tau1", "tau2"):  # the pair check names both
            assert message.startswith("need finite 0 < tau1 <= tau2")
        else:
            assert message.startswith(f"{name} must be ")
            assert message.endswith(", got an integer too large for a float")

    @CHECKED
    @pytest.mark.parametrize("value", ["1.0", 1j, [1.0]])
    def test_a_non_numeric_field_is_a_type_error(self, cls, name, value):
        with pytest.raises(TypeError):
            cls(**{**RECORDS[cls][0], name: value})
