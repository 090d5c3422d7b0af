"""Exact solutions of the frequency-response ODE for ramp and lag PFR.

The model d(df)/dt + D'/(2H) * df = (p(t) - P_cont) / (2H), df(0) = 0, is
linear, so its solution is the contingency step plus one term per band. One
kernel, `_delta_f`, sums them for any mix of bands, with E(t) = exp(-D't/(2H)):

    df = [(sum PFR - P_cont)/D' - 2H sum R/D'^2] (1 - E) + sum R t/D'
         - sum_lag PFR tau/(D'tau - 2H) (exp(-t/tau) - E)

It is exact for all time for lag bands p(t) = PFR*(1 - exp(-t/tau)), but for
ramp bands p(t) = R*t only while the ramp runs (t <= t_r): it never saturates
the ramp, on purpose, so the divergence from the saturating oracle shows. The
one deviation entry point, `delta_f`, and its grid form `trace` take bands of
one kind, the first band's in model._BAND_KINDS, and call the kernel.

The nadir algebra uses K = P_cont/PFR, A = D'*tau/(2H), B = 1 + K*(A - 1) and
C = A/(A - 1). One frame, `_nadir_terms`, forms B and decides the branch for
every caller (`lag_nadir`, `nadir_shape_factor` and the calculators in
`applications`): an interior nadir iff B > B_EPS, where it also gives the
nadir time in units of tau and the shape factor; else the deviation decays
monotonically to its settling value ("asymptotic"). Only the contingency cap
tells the boundary |B| <= B_EPS, where the caps of both branches meet, from
the rest of the asymptotic regime. The D' > 0 guard and the K and A checks
live here too (a LagBand's tau needs none); `_delta_f` takes checked times,
and `trace` builds its grid from model._grid_steps.

A = 1 is a removable singularity of the lag term and the nadir. Their expm1
and log1p forms keep every digit through it, and only A - 1 == 0 exactly takes
the limit; the lag term factors out the larger exponential, so it never overflows.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BranchError, InvalidInputError
from .model import (_BAND_KINDS, _FINITE_POSITIVE, _KIND_NAMES, _MAX, FrequencyTrace, LagBand,
                    RampBand, SystemConditions, _as_times, _band_kind, _field_check, _grid_steps,
                    _record, _ret, _shown)

__all__ = [
    "INTERIOR_MINIMUM",
    "ASYMPTOTIC",
    "NadirResult",
    "delta_f",
    "nadir_shape_factor",
    "max_rocof",
    "lag_nadir",
    "trace",
]

# interior nadirs require B strictly positive; at B = 0 the nadir time is infinite
B_EPS = 1e-9

INTERIOR_MINIMUM = "interior_minimum"
ASYMPTOTIC = "asymptotic"

_NO_DAMPING = "D' = d * p_load must be > 0 for this expression"
_A_RANGE = "A = D'*tau/(2H) must be finite and > 0, got {} at tau = {} s"


@_record
class NadirResult:
    """Nadir classification plus the one quantity that never depends on it."""

    kind: str                  # INTERIOR_MINIMUM or ASYMPTOTIC
    t_nadir: float | None      # s; None in the asymptotic regime
    delta_f_nadir: float       # Hz
    max_rocof: float           # Hz/s, always -P_cont/(2H) at t = 0


def _require_damping(params) -> float:
    """D' of a SystemConditions or DerivedParams, which must be > 0."""
    dprime = params.dprime
    if not dprime > 0:
        raise InvalidInputError(_NO_DAMPING)
    return dprime


def _a_ratio(dprime: float, h: float, tau: float) -> float:
    """A = D'*tau / (2H); tau, then A, must be finite and > 0."""
    if not 0 < tau <= _MAX:
        raise InvalidInputError(f"tau must be {'finite' if tau > 0 else '> 0'}, got {_shown(tau)}")
    a = dprime * tau / (2.0 * h)
    if not 0 < a <= _MAX:  # a finite tau whose A overflows or underflows
        raise InvalidInputError(_A_RANGE.format(a, float(tau)))
    return a


# A, then K, must be finite and > 0, as they are when D', tau and PFR are valid
_require_ratios = _field_check(A=_FINITE_POSITIVE, K=_FINITE_POSITIVE)


def _nadir_terms(k: float, a: float):
    """(B, L, shape factor) for scalar K and A; L and the factor are None unless B > B_EPS.

    L = ln(B)/(A - 1), K where K(A - 1) == 0, puts the nadir at tau L. With
    z = -(A - 1)L, B^(-C/A) = e^-L and B^-C = e^-AL, so the factor is
    -(1 - K) expm1(-AL) - A L e^-L exprel(z): two terms of order K that keep
    their digits as K -> 0, where the factor is of order K^2.
    """
    em1 = a - 1.0
    kam1 = k * em1
    b = 1.0 + kam1
    if not b > B_EPS:
        return b, None, None
    l = math.log1p(kam1) / em1 if kam1 else k
    z = -em1 * l
    rel = math.expm1(z) / z if z else 1.0
    return b, l, -(1.0 - k) * math.expm1(-a * l) - a * l * math.exp(-l) * rel


def _delta_f(sc: SystemConditions, bands, dprime: float, arr):
    """Deviation under any mix of lag and (unsaturated) ramp bands at checked times, Hz."""
    h = sc.h
    # a fixed accumulation order keeps the output identical under permutation;
    # ordering by |pfr| keeps it an exact mirror under a sign flip
    lags = sorted((b for b in bands if isinstance(b, LagBand)),
                  key=lambda b: (b.tau, abs(b.pfr)))
    ramps = sorted((b for b in bands if isinstance(b, RampBand)),
                   key=lambda b: (b.t_r, abs(b.pfr)))
    rate_sum = sum(b.rate for b in ramps)
    # every term is built in place, in the order of the formula's one-expression
    # form, in buffers shaped like arr (empty_like keeps a 0-d time an array)
    decay_exp = np.multiply(-dprime, arr, out=np.empty_like(arr))
    decay_exp /= 2.0 * h
    np.exp(decay_exp, out=decay_exp)
    step = (sum(b.pfr for b in lags) - sc.p_cont) / dprime
    # the two ramp terms cancel as H -> inf, where the step's one would be -inf * 0;
    # without ramps, adding a +0.0 term would turn -0.0 samples into 0.0
    ramped = bool(ramps) and h != math.inf
    if ramped:
        step = step - 2.0 * rate_sum * h / dprime**2
    out = np.subtract(1.0, decay_exp, out=np.empty_like(arr))
    out *= step
    work = np.empty_like(arr)
    if ramped:
        np.multiply(rate_sum, arr, out=work)
        work /= dprime
        out += work
    for band in lags:
        tau = band.tau
        em1 = dprime * tau / (2.0 * h) - 1.0  # A - 1
        if em1 == 0.0:  # D'*tau = 2H: the limit pfr t E / 2H
            np.multiply(band.pfr, arr, out=work)
            work *= decay_exp
            work /= 2.0 * h
        else:  # exp(-t/tau) - E = -sign(A - 1) E_big expm1(-|A - 1| t/tau), E_big the larger one
            np.multiply(arr, -abs(em1) / tau, out=work)
            if em1 < 0.0:
                work += 0.0  # -0.0 at t = 0 becomes 0.0, the sign exp(-t/tau) - E has there
            np.expm1(work, out=work)
            work *= decay_exp if em1 < 0.0 else np.exp(arr / -tau)
            work *= -band.pfr * tau / (2.0 * h * abs(em1))
        out -= work
    return out


def _of_kind(bands, kind=None):
    """bands, checked to be non-empty and all of one kind: kind if given, else the first band's."""
    if kind is not None and _band_kind(kind)[0] is None:
        raise InvalidInputError(f"kind must be {_KIND_NAMES}, got {kind!r}")
    if not bands:
        raise InvalidInputError(f"at least one {kind + ' ' if kind else ''}band is required")
    # the kind whose type the first band has; a first band of no kind fails the lag form's check
    kind = kind or next((k for k, (t, _) in _BAND_KINDS.items() if type(bands[0]) is t), "lag")
    wrong = [type(b).__name__ for b in bands if not isinstance(b, _BAND_KINDS[kind][0])]
    if wrong:
        raise InvalidInputError(f"the {kind} closed form needs {kind} bands only, got {wrong[0]}")
    return bands


def delta_f(sc: SystemConditions, bands, t):
    """Deviation at times t under bands of one kind, the first band's, Hz; a scalar t gives a float.

    Exact for all time for lag bands; ramp bands are not saturated, so only up
    to the shortest ramp time among them.
    """
    bands = _of_kind(bands)
    dprime = _require_damping(sc)
    arr, scalar = _as_times(t)
    return _ret(_delta_f(sc, bands, dprime, arr), scalar)


def _k_ratio(p_cont: float, pfr: float) -> float:
    """K = P_cont/PFR; the band must be nonzero and share the sign of P_cont."""
    if pfr == 0:
        raise InvalidInputError("nadir ratios are undefined for a zero-magnitude band")
    k = p_cont / pfr
    if k < 0:
        raise InvalidInputError("band magnitude must share the sign of p_cont")
    return k


def nadir_shape_factor(k: float, a: float) -> float:
    """(C + K - 1) B^-C - C B^(-C/A) - K + 1 for B > B_EPS, in _nadir_terms' form.

    1 - K - e^-K at A = 1. Multiplying by PFR/D' gives the nadir deviation; it
    is negative whenever K > 0 (under- and over-frequency alike, by the sign
    convention). K and A must be finite and > 0.
    """
    _require_ratios(a, k)
    shape = _nadir_terms(k, a)[2]
    if shape is None:
        raise BranchError("shape factor undefined: inputs are in the asymptotic regime")
    return shape


def max_rocof(sc: SystemConditions) -> float:
    """Largest instantaneous rate of change of frequency, at t = 0, Hz/s."""
    return -sc.p_cont / (2.0 * sc.h)


def lag_nadir(sc: SystemConditions, band: LagBand) -> NadirResult:
    """Classify and evaluate the nadir for a single lag band.

    The one entry point for the nadir's time, depth and regime. An interior
    nadir lies at tau L, L = ln[1 + (P_cont/PFR)(D'tau/2H - 1)] / (D'tau/2H - 1),
    which is K*tau at A = 1; its depth is PFR/D' times the shape factor. Both
    come from _nadir_terms, which also decides the branch. Otherwise the kind
    is ASYMPTOTIC, t_nadir is None and the depth is the settling value
    (PFR - P_cont)/D'. RoCoF is max_rocof's expression. Each field is read
    once; the checks are _require_damping's, _k_ratio's and an A that
    overflows, in that order (A = 0, at ke = inf, is valid).
    """
    dprime = sc.d * sc.p_load
    if not dprime > 0:
        raise InvalidInputError(_NO_DAMPING)
    h2 = 2.0 * (sc.ke / sc.f_n)
    p_cont, pfr, tau = sc.p_cont, band.pfr, band.tau
    k = _k_ratio(p_cont, pfr)
    rocof = -p_cont / h2
    a = dprime * tau / h2
    if not a <= _MAX:  # A = 0, at ke = inf, is valid
        raise InvalidInputError(_A_RANGE.format(a, float(tau)))
    _, l, shape = _nadir_terms(k, a)
    if l is None:
        return NadirResult(ASYMPTOTIC, None, (pfr - p_cont) / dprime, rocof)
    return NadirResult(INTERIOR_MINIMUM, tau * l, pfr / dprime * shape, rocof)


def trace(sc: SystemConditions, bands, t_end: float, dt: float, kind=None) -> FrequencyTrace:
    """delta_f on t = 0, dt, ..., round(t_end/dt)*dt; a kind given must be the bands' kind."""
    n = _grid_steps(t_end, dt)
    bands = _of_kind(bands, kind)
    times = np.arange(n + 1, dtype=float)
    times *= dt  # a grid built here needs no time check
    samples = _delta_f(sc, bands, _require_damping(sc), times)
    return FrequencyTrace(dt=dt, samples=samples)
