"""Domain types for the single-machine-equivalent frequency response model.

Sign convention: an under-frequency event has a positive contingency size
(generation loss, MW) and positive response-band magnitudes. Over-frequency
events are represented by flipping the sign of both; there is no separate
code path.

`_grid_steps` is the one sampling-grid rule: closed-form traces, oracle runs
and the band fits all turn (t_end, dt) into a step count through it, and it
rejects a grid over 10 million steps before any array is built.

Every record type of the package is declared with `_record`: a frozen,
slotted dataclass whose own generated `__init__` checks the fields the record
declares, in the declared order, stores each through its slot descriptor and
then runs `__post_init__`. The five field rules, each optionally "or None",
are finite and > 0; > 0 (ke = +inf is the infinite-inertia limit); finite
and >= 0; finite; finite and nonzero. A field that breaks its rule raises
InvalidInputError("{field} must be {text}, got {value}"), so a NaN, an
infinity or an int beyond the float range is rejected, naming the field.
Equality, hashing, repr and `dataclasses.replace` are those of a plain
frozen dataclass; construction skips the name lookup of `object.__setattr__`,
which matters where records are built per operating point. Instances have no
`__dict__` and take no weak references.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import math
import sys

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SystemConditions",
    "DerivedParams",
    "LagBand",
    "RampBand",
    "FrequencyTrace",
    "Scenario",
    "derive_params",
    "total_pfr_value",
    "load_scenario",
    "scenario_from_dict",
    "apply_overrides",
]


# The field rules of _record: a condition on the argument {0} and its message
# text. Every bound but ke's +inf is _MAX, the largest finite double, so one
# comparison chain rejects NaN, +-inf and an int beyond the float range.
_MAX = sys.float_info.max
_FINITE_POSITIVE = ("0 < {0} <= _MAX", "finite and > 0")
_POSITIVE = ("0 < {0} <= _MAX or {0} == _INF", "> 0")  # ke = +inf: no deviation develops
_FINITE_NONNEGATIVE = ("0 <= {0} <= _MAX", "finite and >= 0")
_FINITE = ("-_MAX <= {0} <= _MAX", "finite")
_FINITE_NONZERO = ("-_MAX <= {0} <= _MAX and {0} != 0", "finite and nonzero")


def _or_none(rule):
    """rule, also met by None."""
    return "{0} is None or " + rule[0], rule[1]


def _shown(value):
    """value as a message shows it: an int beyond the float range is described, not printed."""
    if isinstance(value, int) and not -_MAX <= value <= _MAX:
        return "an integer too large for a float"
    return value


def _require_float_range(**values):
    """Reject, naming it, the first of the named values that is an int beyond the float range."""
    for name, value in values.items():
        if _shown(value) is not value:
            raise InvalidInputError(f"{name} must be within the float range, got {_shown(value)}")


_CHECK_SCOPE = {"_MAX": _MAX, "_INF": math.inf, "_Invalid": InvalidInputError, "_shown": _shown}


def _check_source(rules) -> str:
    """Function-body lines that test each named argument against its rule, in order."""
    return "".join(f"    if not ({condition.format(name)}): "
                   f"raise _Invalid(f'{name} must be {text}, got {{_shown({name})}}')\n"
                   for name, (condition, text) in rules.items())


def _field_check(**rules):
    """A function of the named values that checks them as a record's __init__ would."""
    scope = dict(_CHECK_SCOPE)
    exec(f"def check({', '.join(rules)}):\n" + _check_source(rules), scope)
    return scope["check"]


def _record(cls=None, /, **rules):
    """A frozen, slotted dataclass whose __init__ checks its arguments and writes the slots.

    @_record(field=rule, ...) tests each named argument inline against one of
    the five rules above, in the order given. The __init__ then stores each
    argument with its slot descriptor's __set__ (what a frozen dataclass's
    object.__setattr__ reaches after a name lookup) and calls __post_init__,
    if the class defines one. dataclass itself writes no __init__ (init=False).
    """
    if cls is None:
        return lambda cls: _record(cls, **rules)
    # without a docstring, dataclass would parse object.__init__'s text signature for one
    doc, cls.__doc__ = cls.__doc__, cls.__doc__ or "-"
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    fields = dataclasses.fields(cls)
    scope, params = dict(_CHECK_SCOPE), []
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: _record takes no default_factory")
        scope[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    body = _check_source(rules) + "".join(f"    _set_{f.name}(self, {f.name})\n" for f in fields)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self, {', '.join(params)}):\n" + body, scope)
    init = scope["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    cls.__init__ = init
    if doc is None:  # "Name(signature)", as dataclass writes it from its own __init__
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls


@_record(f_n=_FINITE_POSITIVE, ke=_POSITIVE, p_load=_FINITE_POSITIVE, d=_FINITE_NONNEGATIVE,
         p_cont=_FINITE)
class SystemConditions:
    """Grid state at the instant of the contingency."""

    f_n: float     # nominal frequency, Hz
    ke: float      # post-contingency kinetic energy, MW.s
    p_load: float  # system load at contingency onset, MW
    d: float       # load relief factor, fraction of load MW per Hz
    p_cont: float  # contingency size, MW (positive = generation loss)

    @property
    def dprime(self) -> float:
        """Load damping D' = D * P_load, MW/Hz."""
        return self.d * self.p_load

    @property
    def h(self) -> float:
        """System inertia H = KE / f_n, MW.s/Hz."""
        return self.ke / self.f_n


@_record(dprime=_FINITE_NONNEGATIVE, h=_FINITE_POSITIVE)
class DerivedParams:
    """Damping and inertia in working units.

    dprime may legitimately be zero (no load relief); every operation that
    divides by it raises InvalidInputError instead of returning infinity.
    """

    dprime: float  # MW/Hz
    h: float       # MW.s/Hz


def derive_params(sc: SystemConditions) -> DerivedParams:
    """Compute D' = D * P_load and H = KE / f_n, the properties' products, from the fields."""
    return DerivedParams(sc.d * sc.p_load, sc.ke / sc.f_n)


@_record(tau=_FINITE_POSITIVE, pfr=_FINITE)
class LagBand:
    """One PFR provider band delivering pfr * (1 - exp(-t/tau))."""

    pfr: float  # maximum delivered response, MW
    tau: float  # response time constant, s

    def _delivered(self, arr, out):
        """pfr * (1 - exp(-arr/tau)), written into out; arr/-tau has -arr/tau's bits."""
        np.divide(arr, -self.tau, out=out)
        np.exp(out, out=out)
        np.subtract(1.0, out, out=out)
        out *= self.pfr
        return out


@_record(t_r=_FINITE_POSITIVE, pfr=_FINITE)
class RampBand:
    """One PFR provider band ramping at rate pfr / t_r up to pfr."""

    pfr: float  # maximum delivered response, MW
    t_r: float  # ramp time, s

    @property
    def rate(self) -> float:
        """Ramp rate R = pfr / t_r, MW/s."""
        return self.pfr / self.t_r

    def _delivered(self, arr, out):
        """min(rate * arr, pfr), written into out."""
        np.multiply(arr, self.rate, out=out)
        return np.minimum(out, self.pfr, out=out)


# The band kinds of scenario files and of the closed forms: name -> (band type, time key)
_BAND_KINDS = {"lag": (LagBand, "tau_s"), "ramp": (RampBand, "t_r_s")}
_KIND_NAMES = " or ".join(map(repr, _BAND_KINDS))  # 'lag' or 'ramp'


def _band_kind(kind):
    """The (band type, time key) of a kind name; (None, None) for any other value."""
    return _BAND_KINDS.get(kind, (None, None)) if isinstance(kind, str) else (None, None)


def _as_times(t):
    """Validate t >= 0 in one pass (fmin skips NaN; -0.0 passes); return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    if arr.size and np.fmin.reduce(arr, axis=None) < 0:
        raise InvalidInputError("time must be >= 0")
    return arr, arr.ndim == 0


def _ret(values, scalar):
    return float(values) if scalar else values


def total_pfr_value(bands, t):
    """Combined response of a mixed list of lag/ramp bands at time t, MW."""
    arr, scalar = _as_times(t)
    bands = tuple(bands)
    for band in bands:
        if not isinstance(band, (LagBand, RampBand)):
            raise InvalidInputError(f"unknown band type {type(band).__name__}")
    if not bands:
        return _ret(np.zeros_like(arr), scalar)
    total = bands[0]._delivered(arr, np.empty_like(arr))
    total += 0.0  # a sum from 0.0: 0.0 + x, like x + 0.0, turns -0.0 into 0.0
    if len(bands) > 1:
        work = np.empty_like(arr)
        for band in bands[1:]:
            total += band._delivered(arr, work)
    return _ret(total, scalar)


@_record(dt=_FINITE_POSITIVE)
class FrequencyTrace:
    """Frequency-deviation samples, Hz, at t = 0, dt, 2*dt, ..."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("samples must be a non-empty 1-D sequence")
        object.__setattr__(self, "samples", arr)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.samples), dtype=float)

    def __len__(self) -> int:
        return len(self.samples)


# RK4 evaluates the forcing at 2 * steps + 1 points: 10 million steps take 160 MB
_MAX_STEPS = 10_000_000


def _grid_steps(t_end: float, dt: float, where: str = "t_end") -> int:
    """Steps n = round(t_end/dt) of the grid 0, dt, ..., n*dt; allocates nothing.

    The one sampling-grid rule: 0 < dt <= t_end <= _MAX, ints beyond it included,
    and n <= _MAX_STEPS (round halves to even and _MAX_STEPS is even, hence the + 0.5).
    """
    if not (0 < dt <= _MAX and dt <= t_end <= _MAX):
        raise InvalidInputError(f"need finite {where} >= dt > 0, "
                                f"got {where}={_shown(t_end)}, dt={_shown(dt)}")
    if not t_end / dt <= _MAX_STEPS + 0.5:
        raise InvalidInputError(f"{where}={float(t_end)} s at dt={float(dt)} s is "
                                f"{t_end / dt:.9g} steps, more than {_MAX_STEPS}")
    return round(t_end / dt)


# --- scenario files -------------------------------------------------------
#
# {"system": {"f_n_hz", "ke_mws", "p_load_mw", "d_relief", "p_cont_mw"},
#  "bands":  [{"kind": "lag"|"ramp", "pfr_mw", "tau_s"|"t_r_s"}, ...],
#  "sim":    {"t_end_s", "dt_s"}}            # sim is optional
_SYSTEM_KEYS = ("f_n_hz", "ke_mws", "p_load_mw", "d_relief", "p_cont_mw")


@_record
class Scenario:
    system: SystemConditions
    bands: tuple
    t_end: float | None = None
    dt: float | None = None


def _field(doc: dict, where: str, key: str) -> float:
    """The finite number doc[key] as a float; the message names where.key."""
    if key not in doc:
        raise InvalidInputError(f"{where}: missing required field '{key}'")
    value = _number(doc[key], f"{where}.{key}")
    # literals such as 1e999 parse to infinity without a NaN/Infinity token
    if not math.isfinite(value):
        raise InvalidInputError(f"{where}.{key}: expected a finite number, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number as a float, finite or not; a bool or any other value is bad input."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name}: expected a number, got {value!r}")
    if _shown(value) is not value:  # described: an int beyond the largest float
        raise InvalidInputError(f"{name}: expected a finite number, got {_shown(value)}")
    return float(value)


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document; error messages name the offending field.

    A group of plain floats whose sum times 0.0 is 0.0, so each is finite, is
    taken as read; any other goes through _field and the checks in order.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError("scenario: top level must be an object")
    s = doc.get("system")
    if not isinstance(s, dict):
        raise InvalidInputError("scenario: missing 'system' object")
    f_n, ke, p_load, d, p_cont = fields = (s.get("f_n_hz"), s.get("ke_mws"), s.get("p_load_mw"),
                                           s.get("d_relief"), s.get("p_cont_mw"))
    if not (type(f_n) is type(ke) is type(p_load) is type(d) is type(p_cont) is float
            and (f_n + ke + p_load + d + p_cont) * 0.0 == 0.0):
        fields = [_field(s, "system", key) for key in _SYSTEM_KEYS]
    system = SystemConditions(*fields)
    p_cont = system.p_cont

    band_docs = doc.get("bands", [])
    if not isinstance(band_docs, list):
        raise InvalidInputError("bands: expected a list")
    bands = []
    for i, b in enumerate(band_docs):
        kind = pfr = time = band_type = None
        if isinstance(b, dict):
            kind = b.get("kind")
            band_type, time_key = _band_kind(kind)
            pfr, time = b.get("pfr_mw"), b.get(time_key)
        # nonzero bands must push in the same direction as the contingency
        if not (band_type and type(pfr) is type(time) is float
                and (pfr + time) * 0.0 == 0.0 and pfr * p_cont >= 0):
            where = f"bands.{i}"
            if not isinstance(b, dict):
                raise InvalidInputError(f"{where}: expected an object")
            pfr = _field(b, where, "pfr_mw")
            if pfr * p_cont < 0:
                raise InvalidInputError(f"{where}.pfr_mw: sign must match p_cont_mw ({p_cont})")
            if band_type is None:
                raise InvalidInputError(f"{where}.kind: expected {_KIND_NAMES}, got {kind!r}")
            time = _field(b, where, time_key)
        bands.append(band_type(pfr, time))

    t_end = dt = None
    if "sim" in doc:
        if not isinstance(doc["sim"], dict):
            raise InvalidInputError("sim: expected an object")
        t_end, dt = _field(doc["sim"], "sim", "t_end_s"), _field(doc["sim"], "sim", "dt_s")
        if not t_end > 0 or not dt > 0:
            raise InvalidInputError("sim: t_end_s and dt_s must be > 0")

    return Scenario(system, tuple(bands), t_end, dt)


def _json_hooks(where):
    """json's parse_constant and parse_int hooks, as keywords; bad input names where.

    NaN, Infinity and -Infinity are rejected, and so is an integer literal
    longer than int() converts (4300 digits by default), whose ValueError
    would name neither the file nor the override.
    """
    def reject(token):
        raise InvalidInputError(f"{where}: non-finite value {token}")

    def integer(literal):
        try:
            return int(literal)
        except ValueError:
            raise InvalidInputError(f"{where}: an integer literal of {len(literal)} characters "
                                    "is too long to convert") from None
    return {"parse_constant": reject, "parse_int": integer}


def load_scenario(path, overrides=()) -> Scenario:
    """Load and validate a scenario JSON file.

    overrides are dotted assignments like 'system.ke_mws=7000' applied to the
    raw document before validation. A NaN or Infinity token, or an integer
    literal too long to convert, is bad input that names the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, **_json_hooks(path))
    except OSError as exc:
        raise InvalidInputError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    doc = apply_overrides(doc, overrides)
    return scenario_from_dict(doc)


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply 'dotted.path=value' assignments to a scenario document.

    Values are parsed as JSON literals, falling back to plain strings; the
    non-finite tokens NaN, Infinity and -Infinity and integer literals too
    long to convert are rejected, naming the path. List elements are
    addressed by integer index (e.g. bands.0.tau_s=1.5).
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise InvalidInputError(f"override '{assignment}': expected path=value")
        path, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw, **_json_hooks(f"override '{path}'"))
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        node = doc
        for key in keys[:-1]:
            node = _descend(node, key, path)
        leaf = keys[-1]
        if isinstance(node, list):
            node[_index(leaf, path, len(node))] = value
        elif isinstance(node, dict):
            node[leaf] = value
        else:
            raise InvalidInputError(f"override '{path}': cannot assign into {type(node).__name__}")
    return doc


def _descend(node, key, path):
    if isinstance(node, list):
        return node[_index(key, path, len(node))]
    if isinstance(node, dict):
        if key not in node:
            node[key] = {}
        return node[key]
    raise InvalidInputError(f"override '{path}': cannot descend into {type(node).__name__}")


def _index(key, path, n):
    try:
        i = int(key)
    except ValueError:
        raise InvalidInputError(f"override '{path}': '{key}' is not a list index") from None
    if not 0 <= i < n:
        raise InvalidInputError(f"override '{path}': index {i} out of range")
    return i
