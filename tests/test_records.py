"""Every record type keeps the contract of a plain frozen dataclass.

The records are declared with `model._record`: frozen, slotted dataclasses
whose generated `__init__` writes the slots directly. Each one is compared
with a plain frozen dataclass of the same fields (its "twin") for equality,
hashing, repr and signature, and checked for frozen assignment, slots,
defaults, keyword construction and validation under `dataclasses.replace`.
"""
import copy
import dataclasses
import inspect
import pickle
import weakref

import numpy as np
import pytest

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
    applications.NadirConstants: (dict(k=1.5, a=0.8, b=0.7, c=-4.0, asymptotic=False), None),
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
    assert len(found) == 18


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
