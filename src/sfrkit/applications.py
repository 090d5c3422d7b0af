"""Security calculators built on the closed-form nadir expressions.

Everything here works in the ratio space

    K = P_cont / PFR   (or a policy constant: minimum PFR as a share of the
                        largest contingency, e.g. 1/0.7)
    A = D' * tau / (2H)

so the results transfer between systems: the maximum allowable contingency is
f(A, K) * D' for a universal factor f. None of these expressions iterate --
A and K are independent of the contingency size under a fixed-K policy. B and
the branch come from closedform's one frame, `_nadir_terms`, and the tau model
from bandfit's one checked path, `equivalent_tau`. A calculator given a
DerivedParams checks D' > 0 before its other inputs, except the sensitivity
reports, which check the band magnitudes first, as equivalent_tau does. A
bare K and delta_f_max meet SecurityPolicy's rules next, K first (A and K
first in universal_max_contingency_factor); then tau, and then A, must be
finite and > 0, and the branch comes last.
"""
from __future__ import annotations

import math

from .bandfit import TauSurfaceModel, _tau_and_decay, equivalent_tau
from .closedform import B_EPS, _a_ratio, _nadir_terms, _require_damping
from .errors import BranchError, InvalidInputError
from .model import (_FINITE_NONZERO, _FINITE_POSITIVE, DerivedParams, _field_check, _record,
                    _require_float_range, _shown)

__all__ = [
    "SecurityPolicy",
    "SensitivityReport",
    "WEM_K_POLICY",
    "max_contingency",
    "universal_max_contingency_factor",
    "asymptotic_max_contingency",
    "min_effective_tau",
    "sensitivity_report",
    "sensitivity_report_fd",
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
# SecurityPolicy's field rules, also met by the calculators that take K or delta_f_max bare
_POLICY_RULES = dict(k_policy=_FINITE_POSITIVE, delta_f_max=_FINITE_NONZERO)
_UNBOUNDED = "unbounded: with K <= 1 the settling deviation never crosses the limit"


@_record(**_POLICY_RULES)
class SecurityPolicy:
    """PFR adequacy ratio and the deviation the system must never exceed."""

    k_policy: float       # PFR >= P_cont / k_policy
    delta_f_max: float    # Hz; negative for under-frequency limits


_check_policy = _field_check(**_POLICY_RULES)
_check_delta_f_max = _field_check(delta_f_max=_FINITE_NONZERO)
# A, then K, must be finite and > 0, as they are when D', tau and PFR are valid
_require_ratios = _field_check(A=_FINITE_POSITIVE, K=_FINITE_POSITIVE)


def _cap(k: float, a: float, delta_f_max: float, scale: float) -> float:
    """f(A, K) * scale, with scale D' for the cap in MW and 1.0 for the factor.

    _nadir_terms gives the interior cap's shape factor; where it gives none,
    this is the one place that tells the boundary |B| <= B_EPS, where the
    branches meet in the asymptotic cap, from the asymptotic regime (a NaN B
    included). A cap that is not finite (the factor may underflow to 0) fails
    as _cap_overflow says.
    """
    b, _, shape = _nadir_terms(k, a)
    if shape is not None:
        cap = k * scale * delta_f_max / shape if shape else math.inf
        if -math.inf < cap < math.inf:
            return cap
        raise _cap_overflow(k, delta_f_max)
    if abs(b) <= B_EPS:
        return _asymptotic_cap(k, delta_f_max, scale)
    raise BranchError("asymptotic regime (A < 1 - 1/K): use asymptotic_max_contingency")


def _asymptotic_cap(k: float, delta_f_max: float, scale: float) -> float:
    """The settling-value cap delta_f_max / (1/K - 1) * scale; unbounded when K <= 1."""
    if k <= 1.0:
        raise BranchError(_UNBOUNDED)
    cap = delta_f_max / (1.0 / k - 1.0) * scale
    if -math.inf < cap < math.inf:
        return cap
    raise _cap_overflow(k, delta_f_max)


def _cap_overflow(k: float, delta_f_max: float) -> Exception:
    """The error for a cap beyond every double: unbounded at K < 1, bad input at K >= 1.

    At K < 1 the interior cap grows without bound as A -> 0; at K >= 1 only
    inputs near the ends of the float range overflow it.
    """
    if k < 1.0:
        return BranchError(_UNBOUNDED)
    return InvalidInputError(f"the contingency cap overflows the float range at K = {k}, "
                             f"delta_f_max = {delta_f_max}")


def max_contingency(dp: DerivedParams, policy: SecurityPolicy, tau: float) -> float:
    """Largest contingency containable at deviation delta_f_max, MW.

    Requires A >= 1 - 1/K (interior-nadir branch); at the boundary the value
    equals the asymptotic cap, and below it BranchError points the caller to
    asymptotic_max_contingency. D' is checked before tau.
    """
    dprime = _require_damping(dp)
    return _cap(policy.k_policy, _a_ratio(dprime, dp.h, tau), policy.delta_f_max, dprime)


def universal_max_contingency_factor(a: float, k: float, delta_f_max: float) -> float:
    """System-independent factor f(A, K): the cap equals f * D'.

    A and K must be finite and > 0, as max_contingency's are when D' > 0, and
    delta_f_max finite and nonzero, as a SecurityPolicy's is.
    """
    _require_ratios(a, k)
    _check_delta_f_max(delta_f_max)
    return _cap(k, a, delta_f_max, 1.0)


def asymptotic_max_contingency(dp: DerivedParams, k_policy: float, delta_f_max: float) -> float:
    """Cap in the asymptotic regime: delta_f_max / (1/K - 1) * D', MW."""
    dprime = _require_damping(dp)
    _check_policy(k_policy, delta_f_max)
    return _asymptotic_cap(k_policy, delta_f_max, dprime)


def min_effective_tau(dp: DerivedParams, k: float) -> float:
    """Slowest tau below which the nadir stops improving, s: (1 - 1/K) 2H/D'.

    For K < 1 every tau already yields an interior nadir; the bound is
    clamped to zero.
    """
    _require_damping(dp)
    if not k > 0:
        raise InvalidInputError(f"K must be > 0, got {_shown(k)}")
    _require_float_range(K=k)
    return max((1.0 - 1.0 / k) * 2.0 * dp.h / dp.dprime, 0.0)


def _k1_bracket(a: float) -> float:
    """(A - 1 - A ln A) / (A - 1)^2, d ln P / d ln A of the K = 1 cap P; -1/2 at A = 1.

    The difference loses about eps/|A - 1| of itself, so within
    _K1_BRACKET_BAND it is its series.
    """
    em1 = a - 1.0
    if abs(em1) > _K1_BRACKET_BAND:
        return (em1 - a * math.log(a)) / (em1 * em1)
    bracket = 0.0  # the series, by Horner
    for c in _K1_BRACKET_SERIES:
        bracket = bracket * em1 + c
    return bracket


def _tau_slopes(model: TauSurfaceModel, pfr1: float, pfr2: float, decay: float):
    """(dtau/dPFR1, dtau/dPFR2) of the tau model at decay = math.exp(-b*PFR2/PFR1), s/MW.

    PFR1 = 0, or slopes that are not finite, are rejected naming pfr1. A PFR1^2
    that overflows is inf, so dtau/dPFR1 reads -0.0 where dtau/dPFR2 is finite.
    """
    if not pfr1 > 0:
        raise InvalidInputError("pfr1 must be > 0: the magnitude ratio is singular at 0")
    ab = model.a * model.b
    try:
        sq = float(pfr1)**2  # an int's square would be exact, and too large for the division
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
    """The K = 1 cap's slopes at equivalent_tau's tau, the tau model's, and their products.

    With P the K = 1 cap and beta = (A-1-A lnA)/(A-1)^2, dP/dtau = P beta/tau
    and dP/dH = -P beta/H. The checks are equivalent_tau's, D' > 0, delta_f_max,
    tau and A, the cap's branch and _tau_slopes', in that order; one math.exp
    serves tau and its slopes.
    """
    tau, decay = _tau_and_decay(model, pfr1, pfr2)
    dprime = _require_damping(dp)
    _check_delta_f_max(delta_f_max)
    a = _a_ratio(dprime, dp.h, tau)
    common = _cap(1.0, a, delta_f_max, dprime) * _k1_bracket(a)
    dp_dtau, dp_dh = common / tau, -common / dp.h
    dtau_d1, dtau_d2 = _tau_slopes(model, pfr1, pfr2, decay)
    return SensitivityReport(dp_dtau, dp_dh, dtau_d1, dtau_d2, dp_dtau * dtau_d1,
                             dp_dtau * dtau_d2)


def _central(f, x: float) -> float:
    h = _FD_REL_STEP * abs(x)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sensitivity_report_fd(dp: DerivedParams, delta_f_max: float, model: TauSurfaceModel,
                          pfr1: float, pfr2: float) -> SensitivityReport:
    """Central differences of sensitivity_report's slopes; forward ones in PFR2 at PFR2 = 0."""
    tau = equivalent_tau(model, pfr1, pfr2)
    matched = SecurityPolicy(1.0, delta_f_max)

    def p_of_tau(t):
        return max_contingency(dp, matched, t)

    def tau_of_pfr1(p1):
        return equivalent_tau(model, p1, pfr2)

    def tau_of_pfr2(p2):
        return equivalent_tau(model, pfr1, p2)

    def d_pfr2(f):
        step = _FD_REL_STEP * pfr1
        return _central(f, pfr2) if pfr2 != 0 else (f(step) - f(0.0)) / step

    return SensitivityReport(
        dp_dtau=_central(p_of_tau, tau),
        dp_dh=_central(lambda h: max_contingency(DerivedParams(dp.dprime, h), matched, tau), dp.h),
        dtau_dpfr1=_central(tau_of_pfr1, pfr1),
        dtau_dpfr2=d_pfr2(tau_of_pfr2),
        dp_dpfr1=_central(lambda p: p_of_tau(tau_of_pfr1(p)), pfr1),
        dp_dpfr2=d_pfr2(lambda p: p_of_tau(tau_of_pfr2(p))),
    )


def required_ffr_share(model: TauSurfaceModel, tau_target: float) -> float:
    """Share of the fast band needed to hit an aggregate tau target.

    Inverts the tau model for the magnitude ratio r = PFR2/PFR1 and returns
    1/(1+r). Targets at or below tau1 mean all-fast (share 1); targets at or
    beyond the tau1 + a asymptote are unreachable.
    """
    if tau_target == model.tau1:
        return 1.0
    if not model.tau1 < tau_target < model.tau1 + model.a:
        if tau_target != tau_target:
            raise InvalidInputError(f"tau_target must be a number, got {tau_target}")
        raise BranchError(
            f"tau target {_shown(tau_target)} outside the attainable range "
            f"({model.tau1}, {model.tau1 + model.a})"
        )
    ratio = -math.log(1.0 - (tau_target - model.tau1) / model.a) / model.b
    return 1.0 / (1.0 + ratio)
