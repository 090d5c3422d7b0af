"""Exact solutions of the frequency-response ODE for ramp and lag PFR.

The model d(df)/dt + D'/(2H) * df = (p(t) - P_cont) / (2H), df(0) = 0, is
linear, so its solution is the contingency step plus one term per band. One
kernel, `_delta_f`, sums them for any mix of bands, with E(t) = exp(-D't/(2H)):

    df = [(sum PFR - P_cont)/D' - 2H sum R/D'^2] (1 - E) + sum R t/D'
         - sum_lag PFR tau/(D'tau - 2H) (exp(-t/tau) - E)

It is exact for all time for lag bands p(t) = PFR*(1 - exp(-t/tau)), but for
ramp bands p(t) = R*t only while the ramp runs (t <= t_r): it never saturates
the ramp, on purpose, so the divergence from the saturating oracle shows. The
public deviation functions check their bands' kind and call the kernel.

The nadir algebra uses K = P_cont/PFR, A = D'*tau/(2H), B = 1 + K*(A - 1) and
C = A/(A - 1). `_branch` is the one place B and its branch are decided: an
interior nadir iff B > B_EPS, else the deviation decays monotonically to its
settling value ("asymptotic"); |B| <= B_EPS is the boundary, where the caps of
both branches meet. The D' > 0 guard and the tau check in A live here too;
`trace` takes its step count from model._grid_steps.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BranchError, InvalidInputError
from .model import (FrequencyTrace, LagBand, RampBand, SystemConditions, _as_times, _grid_steps,
                    _record, _ret)

__all__ = [
    "INTERIOR_MINIMUM",
    "ASYMPTOTIC",
    "NadirResult",
    "multi_ramp_delta_f",
    "multi_lag_delta_f",
    "lag_nadir_time_from_ratios",
    "nadir_shape_factor",
    "asymptotic_nadir",
    "max_rocof",
    "lag_nadir",
    "trace",
]

# relative guard for the removable singularities D'*tau = 2H (i.e. A = 1)
REL_EPS = 1e-9
# interior nadirs require B strictly positive; at B = 0 the nadir time is infinite
B_EPS = 1e-9

INTERIOR_MINIMUM = "interior_minimum"
ASYMPTOTIC = "asymptotic"
_BOUNDARY = "boundary"  # |B| <= B_EPS: asymptotic, but the caps of both branches meet

_BAND_TYPES = {"lag": LagBand, "ramp": RampBand}


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
        raise InvalidInputError("D' = d * p_load must be > 0 for this expression")
    return dprime


def _a_ratio(dprime: float, h: float, tau: float) -> float:
    """A = D'*tau / (2H); tau must be > 0."""
    if not tau > 0:
        raise InvalidInputError(f"tau must be > 0, got {tau}")
    return dprime * tau / (2.0 * h)


def _branch(k: float, a: float):
    """(A - 1, K(A - 1), branch, singular) for scalar K and A.

    branch is INTERIOR_MINIMUM, _BOUNDARY or ASYMPTOTIC; singular marks the
    A = 1 guard band, where the limit expressions replace the general ones.
    """
    em1 = a - 1.0
    kam1 = k * em1
    b = 1.0 + kam1
    branch = INTERIOR_MINIMUM if b > B_EPS else _BOUNDARY if abs(b) <= B_EPS else ASYMPTOTIC
    return em1, kam1, branch, abs(em1) <= REL_EPS


def _delta_f(sc: SystemConditions, bands, t):
    """Deviation under any mix of lag and (unsaturated) ramp bands, Hz."""
    dprime = _require_damping(sc)
    h = sc.h
    arr, scalar = _as_times(t)
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
        denom = dprime * band.tau - 2.0 * h
        if abs(denom) <= REL_EPS * 2.0 * h:  # removable singularity at D'*tau = 2H
            np.multiply(band.pfr, arr, out=work)
            work *= decay_exp
            work /= 2.0 * h
        else:
            np.negative(arr, out=work)
            work /= band.tau
            np.exp(work, out=work)
            work -= decay_exp
            work *= band.pfr * band.tau / denom
        out -= work
    return _ret(out, scalar)


def _of_kind(bands, kind: str):
    """bands, checked to be non-empty and all of the named kind."""
    if not bands:
        raise InvalidInputError(f"at least one {kind} band is required")
    wrong = [type(b).__name__ for b in bands if not isinstance(b, _BAND_TYPES[kind])]
    if wrong:
        raise InvalidInputError(f"the {kind} closed form needs {kind} bands only, got {wrong[0]}")
    return bands


def multi_ramp_delta_f(sc: SystemConditions, bands, t):
    """Deviation under any number of ramp bands (no saturation), Hz.

    Valid only up to the shortest ramp time among the bands.
    """
    return _delta_f(sc, _of_kind(bands, "ramp"), t)


def multi_lag_delta_f(sc: SystemConditions, bands, t):
    """Deviation under any number of lag bands, Hz (exact for all time)."""
    return _delta_f(sc, _of_kind(bands, "lag"), t)


def _k_ratio(p_cont: float, pfr: float) -> float:
    """K = P_cont/PFR; the band must be nonzero and share the sign of P_cont."""
    if pfr == 0:
        raise InvalidInputError("nadir ratios are undefined for a zero-magnitude band")
    k = p_cont / pfr
    if k < 0:
        raise InvalidInputError("band magnitude must share the sign of p_cont")
    return k


def _ratios(sc: SystemConditions, band: LagBand):
    """K, A, D' and H for a single lag band; validates signs and damping."""
    dprime = _require_damping(sc)
    h = sc.h
    return _k_ratio(sc.p_cont, band.pfr), _a_ratio(dprime, h, band.tau), dprime, h


def _shape(k, a, em1, kam1, singular) -> float:
    """nadir_shape_factor from the _branch values of an interior point."""
    if singular:
        return 1.0 - k - math.exp(-k)
    ln_b = math.log1p(kam1)
    c = a / em1
    return (c + k - 1.0) * math.exp(-c * ln_b) - c * math.exp(-ln_b / em1) - k + 1.0


def lag_nadir_time_from_ratios(sc: SystemConditions, band: LagBand) -> float:
    """Algebraically equivalent nadir time tau * ln(B) / (A - 1), s."""
    k, a = _ratios(sc, band)[:2]
    em1, kam1, branch, singular = _branch(k, a)
    if branch != INTERIOR_MINIMUM:
        raise BranchError("no interior nadir: inputs are in the asymptotic regime")
    return k * band.tau if singular else band.tau * math.log1p(kam1) / em1


def nadir_shape_factor(k: float, a: float) -> float:
    """(C + K - 1) B^-C - C B^(-C/A) - K + 1 for B > 0; limit 1 - K - e^-K at A = 1.

    Multiplying by PFR/D' gives the nadir deviation; it is negative whenever
    K > 0 (under- and over-frequency alike, by the sign convention).
    """
    em1, kam1, branch, singular = _branch(k, a)
    if branch != INTERIOR_MINIMUM:
        raise BranchError("shape factor undefined: inputs are in the asymptotic regime")
    return _shape(k, a, em1, kam1, singular)


def asymptotic_nadir(sc: SystemConditions, total_pfr: float) -> float:
    """Settling deviation (PFR - P_cont) / D', Hz."""
    return (total_pfr - sc.p_cont) / _require_damping(sc)


def max_rocof(sc: SystemConditions) -> float:
    """Largest instantaneous rate of change of frequency, at t = 0, Hz/s."""
    return -sc.p_cont / (2.0 * sc.h)


def lag_nadir(sc: SystemConditions, band: LagBand) -> NadirResult:
    """Classify and evaluate the nadir for a single lag band.

    The one entry point for the nadir's time, depth and regime. An interior
    nadir lies at ln[1 + (P_cont/PFR)(D'tau/2H - 1)] / (D'/2H - 1/tau), with
    the limit K*tau at A = 1; otherwise the kind is ASYMPTOTIC, t_nadir is
    None and the depth is the settling value. The settling value and RoCoF
    use asymptotic_nadir's and max_rocof's expressions, with D', H and the
    band's fields read once.
    """
    k, a, dprime, h = _ratios(sc, band)
    pfr, p_cont = band.pfr, sc.p_cont
    rocof = -p_cont / (2.0 * h)
    em1, kam1, branch, singular = _branch(k, a)
    if branch != INTERIOR_MINIMUM:
        return NadirResult(ASYMPTOTIC, None, (pfr - p_cont) / dprime, rocof)
    tau = band.tau
    t_nadir = k * tau if singular else math.log1p(kam1) / (dprime / (2.0 * h) - 1.0 / tau)
    depth = pfr / dprime * _shape(k, a, em1, kam1, singular)
    return NadirResult(INTERIOR_MINIMUM, t_nadir, depth, rocof)


def trace(sc: SystemConditions, bands, t_end: float, dt: float, kind: str) -> FrequencyTrace:
    """Sample the deviation of bands of one kind on t = 0, dt, ..., round(t_end/dt)*dt."""
    n = _grid_steps(t_end, dt)
    if kind not in ("lag", "ramp"):
        raise InvalidInputError(f"kind must be 'lag' or 'ramp', got {kind!r}")
    times = np.arange(n + 1, dtype=float)
    times *= dt
    return FrequencyTrace(t0=0.0, dt=dt, samples=_delta_f(sc, _of_kind(bands, kind), times))
