"""Domain types for the single-machine-equivalent frequency response model.

Sign convention: an under-frequency event has a positive contingency size
(generation loss, MW) and positive response-band magnitudes. Over-frequency
events are represented by flipping the sign of both; there is no separate
code path.

The records reject NaN and infinite fields, naming the field; ke = +inf,
infinite inertia, is the one exception. `_grid_steps` is the one
sampling-grid rule: closed-form traces, oracle runs and the band fits all
turn (t_end, dt) into a step count through it, and it rejects a grid over
10 million steps before any array is built.

Every record type of the package is declared with `_record`: a frozen,
slotted dataclass whose generated `__init__` stores each field through its
slot descriptor and then runs `__post_init__`. Equality, hashing, repr,
`dataclasses.replace` and the validation messages are those of a plain frozen
dataclass; construction skips the per-field name lookup of
`object.__setattr__`, which matters where records are built per operating
point. Instances have no `__dict__` and take no weak references.
"""
from __future__ import annotations

import dataclasses
import json
import math

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


def _record(cls):
    """A frozen, slotted dataclass whose __init__ writes the slots directly.

    The generated __init__ has the dataclass's parameters and defaults, stores
    each argument with its slot descriptor's __set__ (what a frozen
    dataclass's object.__setattr__ reaches after a name lookup) and then calls
    __post_init__, if the class defines one.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    scope, params = {}, []
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: _record takes no default_factory")
        scope[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    body = [f"    _set_{f.name}(self, {f.name})\n" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "".join(body), scope)
    init = scope["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


@_record
class SystemConditions:
    """Grid state at the instant of the contingency."""

    f_n: float     # nominal frequency, Hz
    ke: float      # post-contingency kinetic energy, MW.s
    p_load: float  # system load at contingency onset, MW
    d: float       # load relief factor, fraction of load MW per Hz
    p_cont: float  # contingency size, MW (positive = generation loss)

    def __post_init__(self):
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

    @property
    def dprime(self) -> float:
        """Load damping D' = D * P_load, MW/Hz."""
        return self.d * self.p_load

    @property
    def h(self) -> float:
        """System inertia H = KE / f_n, MW.s/Hz."""
        return self.ke / self.f_n


@_record
class DerivedParams:
    """Damping and inertia in working units.

    dprime may legitimately be zero (no load relief); every operation that
    divides by it raises InvalidInputError instead of returning infinity.
    """

    dprime: float  # MW/Hz
    h: float       # MW.s/Hz

    def __post_init__(self):
        if not 0 <= self.dprime < math.inf:
            raise InvalidInputError(f"dprime must be finite and >= 0, got {self.dprime}")
        if not 0 < self.h < math.inf:
            raise InvalidInputError(f"h must be finite and > 0, got {self.h}")


def derive_params(sc: SystemConditions) -> DerivedParams:
    """Compute D' = D * P_load and H = KE / f_n, the properties' products, from the fields."""
    return DerivedParams(sc.d * sc.p_load, sc.ke / sc.f_n)


@_record
class LagBand:
    """One PFR provider band delivering pfr * (1 - exp(-t/tau))."""

    pfr: float  # maximum delivered response, MW
    tau: float  # response time constant, s

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise InvalidInputError(f"tau must be finite and > 0, got {self.tau}")
        if not -math.inf < self.pfr < math.inf:
            raise InvalidInputError(f"pfr must be finite, got {self.pfr}")

    def _delivered(self, arr, out):
        """pfr * (1 - exp(-arr/tau)), written into out; arr/-tau has -arr/tau's bits."""
        np.divide(arr, -self.tau, out=out)
        np.exp(out, out=out)
        np.subtract(1.0, out, out=out)
        out *= self.pfr
        return out


@_record
class RampBand:
    """One PFR provider band ramping at rate pfr / t_r up to pfr."""

    pfr: float  # maximum delivered response, MW
    t_r: float  # ramp time, s

    def __post_init__(self):
        if not 0 < self.t_r < math.inf:
            raise InvalidInputError(f"t_r must be finite and > 0, got {self.t_r}")
        if not -math.inf < self.pfr < math.inf:
            raise InvalidInputError(f"pfr must be finite, got {self.pfr}")

    @property
    def rate(self) -> float:
        """Ramp rate R = pfr / t_r, MW/s."""
        return self.pfr / self.t_r

    def _delivered(self, arr, out):
        """min(rate * arr, pfr), written into out."""
        np.multiply(arr, self.rate, out=out)
        return np.minimum(out, self.pfr, out=out)


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


@_record
class FrequencyTrace:
    """Frequency-deviation samples, Hz, at t = 0, dt, 2*dt, ..."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidInputError(f"dt must be > 0, got {self.dt}")
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

    The one sampling-grid rule: finite t_end >= dt > 0 and n <= _MAX_STEPS
    (round halves to even and _MAX_STEPS is even, hence the + 0.5).
    """
    if not (0 < dt < math.inf and dt <= t_end < math.inf):
        raise InvalidInputError(f"need finite {where} >= dt > 0, got {where}={t_end}, dt={dt}")
    if not t_end / dt <= _MAX_STEPS + 0.5:
        raise InvalidInputError(f"{where}={t_end} s at dt={dt} s is {t_end / dt:.9g} steps, "
                                f"more than {_MAX_STEPS}")
    return round(t_end / dt)


# --- scenario files -------------------------------------------------------
#
# {"system": {"f_n_hz", "ke_mws", "p_load_mw", "d_relief", "p_cont_mw"},
#  "bands":  [{"kind": "lag"|"ramp", "pfr_mw", "tau_s"|"t_r_s"}, ...],
#  "sim":    {"t_end_s", "dt_s"}}            # sim is optional


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
    value = doc[key]
    # a finite float, what JSON gives for most fields, is returned as it is
    if type(value) is float and -math.inf < value < math.inf:
        return value
    value = _number(value, f"{where}.{key}")
    # literals such as 1e999 parse to infinity without a NaN/Infinity token
    if not math.isfinite(value):
        raise InvalidInputError(f"{where}.{key}: expected a finite number, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number as a float, finite or not; a bool or any other value is bad input."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the largest float
        raise InvalidInputError(
            f"{name}: expected a finite number, got an integer too large for a float") from None


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document; error messages name the offending field."""
    if not isinstance(doc, dict):
        raise InvalidInputError("scenario: top level must be an object")
    if "system" not in doc or not isinstance(doc["system"], dict):
        raise InvalidInputError("scenario: missing 'system' object")
    s = doc["system"]
    # records are built positionally here: a keyword costs about 0.1 us a field
    system = SystemConditions(
        _field(s, "system", "f_n_hz"),
        _field(s, "system", "ke_mws"),
        _field(s, "system", "p_load_mw"),
        _field(s, "system", "d_relief"),
        _field(s, "system", "p_cont_mw"),
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
        pfr = _field(b, where, "pfr_mw")
        # nonzero bands must push in the same direction as the contingency
        if pfr * system.p_cont < 0:
            raise InvalidInputError(
                f"{where}.pfr_mw: sign must match p_cont_mw ({system.p_cont})"
            )
        if kind == "lag":
            bands.append(LagBand(pfr, _field(b, where, "tau_s")))
        elif kind == "ramp":
            bands.append(RampBand(pfr, _field(b, where, "t_r_s")))
        else:
            raise InvalidInputError(f"{where}.kind: expected 'lag' or 'ramp', got {kind!r}")

    t_end = dt = None
    if "sim" in doc:
        if not isinstance(doc["sim"], dict):
            raise InvalidInputError("sim: expected an object")
        t_end = _field(doc["sim"], "sim", "t_end_s")
        dt = _field(doc["sim"], "sim", "dt_s")
        if not t_end > 0 or not dt > 0:
            raise InvalidInputError("sim: t_end_s and dt_s must be > 0")

    return Scenario(system, tuple(bands), t_end, dt)


def _reject_non_finite(where):
    """A json parse_constant hook: NaN, Infinity and -Infinity are bad input."""
    def reject(token):
        raise InvalidInputError(f"{where}: non-finite value {token}")
    return reject


def load_scenario(path, overrides=()) -> Scenario:
    """Load and validate a scenario JSON file.

    overrides are dotted assignments like 'system.ke_mws=7000' applied to the
    raw document before validation.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_non_finite(path))
    except OSError as exc:
        raise InvalidInputError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    doc = apply_overrides(doc, overrides)
    return scenario_from_dict(doc)


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply 'dotted.path=value' assignments to a scenario document.

    Values are parsed as JSON literals, falling back to plain strings; the
    non-finite tokens NaN, Infinity and -Infinity are rejected. List elements
    are addressed by integer index (e.g. bands.0.tau_s=1.5).
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise InvalidInputError(f"override '{assignment}': expected path=value")
        path, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw, parse_constant=_reject_non_finite(f"override '{path}'"))
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
