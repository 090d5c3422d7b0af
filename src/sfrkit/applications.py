"""Security calculators built on the closed-form nadir expressions.

Everything here works in the ratio space

    K = P_cont / PFR   (or a policy constant: minimum PFR as a share of the
                        largest contingency, e.g. 1/0.7)
    A = D' * tau / (2H)

so the results transfer between systems: the maximum allowable contingency is
f(A, K) * D' for a universal factor f. None of these expressions iterate --
A and K are independent of the contingency size under a fixed-K policy.
"""
from __future__ import annotations

import math

import numpy as np

from .bandfit import TauSurfaceModel, _tau_at, equivalent_tau
from .closedform import (_NO_DAMPING, ASYMPTOTIC, INTERIOR_MINIMUM, _a_ratio, _branch, _k_ratio,
                         _require_damping, _shape)
from .errors import BranchError, InvalidInputError
from .model import DerivedParams, LagBand, SystemConditions, _record

__all__ = [
    "NadirConstants",
    "SecurityPolicy",
    "SensitivityReport",
    "WEM_K_POLICY",
    "nadir_constants",
    "max_contingency",
    "universal_max_contingency_factor",
    "asymptotic_max_contingency",
    "min_effective_tau",
    "special_case_max_contingency",
    "sensitivity_pcont",
    "sensitivity_tau_bands",
    "sensitivity_report",
    "sensitivity_report_fd",
    "max_contingency_k_sensitivity",
    "required_ffr_share",
]

# minimum PFR share of the largest contingency mandated in the WEM: 70%
WEM_K_POLICY = 1.0 / 0.7
# relative step of the central differences
_FD_REL_STEP = 1e-5
# |A - 1| within which the K = 1 bracket (A - 1 - A ln A)/(A - 1)^2 is its
# series sum_{k>=2} (-1)^(k+1) (A - 1)^(k-2) / (k(k-1)). Against 60-digit
# references the closed form is off by up to 3e-15 relative just outside the
# band and by 3e-13 at |A - 1| = 1e-3; the terms k = 2..16, highest power
# first, leave under 1e-17 of the bracket at the band's edge
_K1_BRACKET_BAND = 0.1
_K1_BRACKET_SERIES = tuple((-1.0) ** (k + 1) / (k * (k - 1)) for k in range(16, 1, -1))


@_record
class NadirConstants:
    """Dimensionless constants of the nadir algebra for one operating point."""

    k: float
    a: float
    b: float          # 1 + K(A-1); non-positive marks the asymptotic regime
    c: float           # A/(A-1); NaN on the A = 1 singular set
    asymptotic: bool   # B <= 0 (boundary included: the nadir time is infinite)
    singular: bool     # |A - 1| within the guard band


@_record
class SecurityPolicy:
    """PFR adequacy ratio and the deviation the system must never exceed."""

    k_policy: float       # PFR >= P_cont / k_policy
    delta_f_max: float    # Hz; negative for under-frequency limits

    def __post_init__(self):
        if not (self.k_policy > 0 and math.isfinite(self.k_policy)):
            raise InvalidInputError(f"k_policy must be finite and > 0, got {self.k_policy}")
        if not (math.isfinite(self.delta_f_max) and self.delta_f_max != 0):
            raise InvalidInputError(
                f"delta_f_max must be finite and nonzero, got {self.delta_f_max}"
            )


def nadir_constants(sc: SystemConditions, pfr: float, tau: float) -> NadirConstants:
    """K, A, B, C for a contingency met by a single lag response.

    K follows lag_nadir's rule: pfr is finite, nonzero and shares the sign
    of p_cont, so an over-frequency point gives its mirror's constants.
    """
    k = _k_ratio(sc.p_cont, LagBand(pfr, tau).pfr)
    a = _a_ratio(sc.dprime, sc.h, tau)
    em1, kam1, branch, singular = _branch(k, a)
    c = float("nan") if singular else a / em1
    return NadirConstants(k, a, 1.0 + kam1, c, branch != INTERIOR_MINIMUM, singular)


def _cap(k: float, a: float, delta_f_max: float, scale: float) -> float:
    """f(A, K) * scale, with scale D' for the cap in MW and 1.0 for the factor.

    The one place that tells the interior cap from the boundary, where the
    branches meet in the asymptotic cap, and from the asymptotic regime.
    """
    em1, kam1, branch, singular = _branch(k, a)
    if branch == ASYMPTOTIC:
        raise BranchError("asymptotic regime (A < 1 - 1/K): use asymptotic_max_contingency")
    if branch == INTERIOR_MINIMUM:
        return k * scale * delta_f_max / _shape(k, a, em1, kam1, singular)
    return _asymptotic_cap(k, delta_f_max, scale)


def _asymptotic_cap(k: float, delta_f_max: float, scale: float) -> float:
    """The settling-value cap delta_f_max / (1/K - 1) * scale; unbounded when K <= 1."""
    if k <= 1.0:
        raise BranchError("unbounded: with K <= 1 the settling deviation never crosses the limit")
    return delta_f_max / (1.0 / k - 1.0) * scale


def max_contingency(dp: DerivedParams, policy: SecurityPolicy, tau: float) -> float:
    """Largest contingency containable at deviation delta_f_max, MW.

    Requires A >= 1 - 1/K (interior-nadir branch); at the boundary the value
    equals the asymptotic cap, and below it BranchError points the caller to
    asymptotic_max_contingency. D' and A are formed here, D' checked first.
    """
    dprime = dp.dprime
    if not dprime > 0:
        raise InvalidInputError(_NO_DAMPING)
    if not tau > 0:
        raise InvalidInputError(f"tau must be > 0, got {tau}")
    return _cap(policy.k_policy, dprime * tau / (2.0 * dp.h), policy.delta_f_max, dprime)


def universal_max_contingency_factor(a: float, k: float, delta_f_max: float) -> float:
    """System-independent factor f(A, K): the cap equals f * D'.

    A and K must be finite and > 0, as max_contingency's are when D' > 0.
    """
    for name, value in (("A", a), ("K", k)):
        if not 0 < value < math.inf:
            raise InvalidInputError(f"{name} must be finite and > 0, got {value}")
    return _cap(k, a, delta_f_max, 1.0)


def asymptotic_max_contingency(dp: DerivedParams, k_policy: float, delta_f_max: float) -> float:
    """Cap in the asymptotic regime: delta_f_max / (1/K - 1) * D', MW."""
    return _asymptotic_cap(k_policy, delta_f_max, _require_damping(dp))


def min_effective_tau(dp: DerivedParams, k: float) -> float:
    """Slowest tau below which the nadir stops improving, s: (1 - 1/K) 2H/D'.

    For K < 1 every tau already yields an interior nadir; the bound is
    clamped to zero.
    """
    _require_damping(dp)
    if not k > 0:
        raise InvalidInputError(f"K must be > 0, got {k}")
    return max((1.0 - 1.0 / k) * 2.0 * dp.h / dp.dprime, 0.0)


def _k1_factors(a: float):
    """A^(1/(A-1)) and (A - 1 - A ln A) / (A - 1)^2, from one ln A.

    Both removable singularities at A = 1 (-> e and -1/2) are bridged by
    series: the power's within 1e-8 of A = 1, and the bracket's within
    _K1_BRACKET_BAND, since its difference loses about eps/|A - 1| of itself.
    """
    em1 = a - 1.0
    if abs(em1) > _K1_BRACKET_BAND:
        ln_a = math.log(a)
        return math.exp(ln_a / em1), (em1 - a * ln_a) / (em1 * em1)
    bracket = 0.0  # the series, by Horner
    for c in _K1_BRACKET_SERIES:
        bracket = bracket * em1 + c
    if abs(em1) <= 1e-8:
        return math.exp(1.0 - em1 / 2.0 + em1 * em1 / 3.0), bracket
    return math.exp(math.log(a) / em1), bracket


def special_case_max_contingency(dp: DerivedParams, delta_f_max: float, tau: float) -> float:
    """Cap when the response exactly matches the contingency (K = 1), MW.

    -D' * delta_f_max * A^(1/(A-1)); the A -> 1 limit is -D' * delta_f_max * e.
    """
    dprime = _require_damping(dp)
    return -dprime * delta_f_max * _k1_factors(_a_ratio(dprime, dp.h, tau))[0]


def sensitivity_pcont(dp: DerivedParams, delta_f_max: float, tau: float):
    """(dP/dtau, dP/dH) of the K = 1 cap.

    dP/dtau = -(D' df_max / tau) * [(A-1-A lnA)/(A-1)^2] * A^(1/(A-1))
    dP/dH   = +(D' df_max / H)   * [(A-1-A lnA)/(A-1)^2] * A^(1/(A-1))
    """
    dprime = _require_damping(dp)
    h = dp.h
    power, bracket = _k1_factors(_a_ratio(dprime, h, tau))
    common = bracket * power * dprime * delta_f_max
    return -common / tau, common / h


def sensitivity_tau_bands(model: TauSurfaceModel, pfr1: float, pfr2: float):
    """(dtau/dPFR1, dtau/dPFR2) of the fitted tau model, s/MW; NaN pfr2 is rejected."""
    if not pfr1 > 0:
        raise InvalidInputError("pfr1 must be > 0: the magnitude ratio is singular at 0")
    if not pfr2 >= 0:
        raise InvalidInputError(f"pfr2 must be >= 0, got {pfr2}")
    return _band_slopes(model.a * model.b, pfr1, pfr2, math.exp(-model.b * pfr2 / pfr1))


def _band_slopes(ab: float, pfr1: float, pfr2: float, decay: float):
    """The pair from a*b and exp(-b*PFR2/PFR1); rejected, naming pfr1, if not finite.

    A PFR1^2 that overflows is inf, so dtau/dPFR1 reads -0.0 where dtau/dPFR2 is finite.
    """
    try:
        sq = pfr1**2
    except OverflowError:  # Python's float power raises instead of returning inf
        sq = math.inf
    if sq > 0:
        d1 = -ab * pfr2 / sq * decay
        d2 = ab / pfr1 * decay
        if -math.inf < d1 < math.inf and -math.inf < d2 < math.inf:
            return d1, d2
    raise InvalidInputError(f"pfr1={pfr1}, pfr2={pfr2}: the tau model's derivatives are not finite")


@_record
class SensitivityReport:
    """All trade-off derivatives of the K = 1 cap at one operating point."""

    dp_dtau: float    # MW per s
    dp_dh: float      # MW per MW.s/Hz
    dtau_dpfr1: float  # s per MW
    dtau_dpfr2: float  # s per MW
    dp_dpfr1: float    # MW per MW
    dp_dpfr2: float    # MW per MW


def sensitivity_report(dp: DerivedParams, delta_f_max: float, model: TauSurfaceModel,
                       pfr1: float, pfr2: float) -> SensitivityReport:
    """sensitivity_pcont at equivalent_tau's tau, and sensitivity_tau_bands.

    x = -b*PFR2/PFR1 is formed once: tau takes numpy's exp of it and the decay
    math.exp, which can differ in the last bit.
    """
    if not (pfr1 > 0 and pfr2 >= 0):  # each such input fails a check here, in the usual order
        sensitivity_pcont(dp, delta_f_max, equivalent_tau(model, pfr1, pfr2))
        sensitivity_tau_bands(model, pfr1, pfr2)
    x = -model.b * pfr2 / pfr1
    dp_dtau, dp_dh = sensitivity_pcont(dp, delta_f_max, _tau_at(model, float(np.exp(x))))
    dtau_d1, dtau_d2 = _band_slopes(model.a * model.b, pfr1, pfr2, math.exp(x))
    return SensitivityReport(dp_dtau, dp_dh, dtau_d1, dtau_d2, dp_dtau * dtau_d1,
                             dp_dtau * dtau_d2)


def _central(f, x: float) -> float:
    h = _FD_REL_STEP * abs(x)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sensitivity_report_fd(dp: DerivedParams, delta_f_max: float, model: TauSurfaceModel,
                          pfr1: float, pfr2: float) -> SensitivityReport:
    """Central-difference counterpart of sensitivity_report."""
    tau = equivalent_tau(model, pfr1, pfr2)
    step = _FD_REL_STEP * pfr1  # forward step in PFR2 when PFR2 = 0

    def p_of_tau(t):
        return special_case_max_contingency(dp, delta_f_max, t)

    def p_of_h(h):
        return special_case_max_contingency(DerivedParams(dp.dprime, h), delta_f_max, tau)

    def tau_of(p1, p2):
        return equivalent_tau(model, p1, p2)

    def p_of_pfr1(p1):
        return p_of_tau(tau_of(p1, pfr2))

    def p_of_pfr2(p2):
        return p_of_tau(tau_of(pfr1, p2))

    return SensitivityReport(
        dp_dtau=_central(p_of_tau, tau),
        dp_dh=_central(p_of_h, dp.h),
        dtau_dpfr1=_central(lambda p: tau_of(p, pfr2), pfr1),
        dtau_dpfr2=_central(lambda p: tau_of(pfr1, p), pfr2) if pfr2 != 0
        else (tau_of(pfr1, step) - tau_of(pfr1, 0.0)) / step,
        dp_dpfr1=_central(p_of_pfr1, pfr1),
        dp_dpfr2=_central(p_of_pfr2, pfr2) if pfr2 != 0
        else (p_of_pfr2(step) - p_of_pfr2(0.0)) / step,
    )


def max_contingency_k_sensitivity(dp: DerivedParams, policy: SecurityPolicy, tau: float) -> float:
    """dP/dK of the general cap by central differences (no closed form), MW."""

    def p_of_k(k):
        return max_contingency(dp, SecurityPolicy(k, policy.delta_f_max), tau)

    return _central(p_of_k, policy.k_policy)


def required_ffr_share(model: TauSurfaceModel, tau_target: float) -> float:
    """Share of the fast band needed to hit an aggregate tau target.

    Inverts the tau model for the magnitude ratio r = PFR2/PFR1 and returns
    1/(1+r). Targets at or below tau1 mean all-fast (share 1); targets at or
    beyond the tau1 + a asymptote are unreachable.
    """
    if tau_target == model.tau1:
        return 1.0
    if not model.tau1 < tau_target < model.tau1 + model.a:
        raise BranchError(
            f"tau target {tau_target} outside the attainable range "
            f"({model.tau1}, {model.tau1 + model.a})"
        )
    ratio = -math.log(1.0 - (tau_target - model.tau1) / model.a) / model.b
    return 1.0 / (1.0 + ratio)
