"""The scalar screening path gives the same doubles as its one-expression forms.

Each public call of the screening path takes its ratio algebra from one place:
`lag_nadir` reads every field of the system and the band once, and it and
`max_contingency` decide the branch in closedform's one frame; `derive_params`
reads the fields instead of the properties; `canonical_equivalent` and
`sensitivity_report` take tau from `equivalent_tau`'s one checked path, whose
`math.exp` is the tau model's only exponential, and `sensitivity_report` takes
the K = 1 cap from `max_contingency`'s arithmetic. `scenario_from_dict` takes
plain finite floats as read. Each reference below writes the earlier
one-expression form of the same arithmetic, through the properties and in the
same order, so every rounding step is the same and the results must agree bit
for bit (signed zeros included) across the (K, A) plane: A = 1 and its
neighbourhood, the B = 0 guard band and over-frequency mirrors included. The
precedence tests pin which message wins when an input breaks two rules at
once.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    ASYMPTOTIC,
    CANONICAL_SURFACE,
    INTERIOR_MINIMUM,
    BranchError,
    DerivedParams,
    InvalidInputError,
    LagBand,
    SecurityPolicy,
    SystemConditions,
    TauSurfaceModel,
    asymptotic_max_contingency,
    canonical_equivalent,
    derive_params,
    equivalent_tau,
    lag_nadir,
    max_contingency,
    required_ffr_share,
    sensitivity_report,
)
from sfrkit.closedform import _a_ratio, _k_ratio, _nadir_terms
from sfrkit.model import scenario_from_dict

B_EPS = 1e-9    # closedform's guard band around B = 0


def _bits(*values):
    """float.hex of each value (None kept), so -0.0 and 0.0 differ."""
    return tuple(None if v is None else float(v).hex() for v in values)


def ref_shape(k, a):
    """(L, shape factor): L = ln(B)/(A - 1), K where K(A - 1) == 0, and the factor's two terms.

    The first is -(1 - K) expm1(-A L), the second A L e^-L exprel(z) with z = -(A - 1)L.
    """
    em1 = a - 1.0
    kam1 = k * em1
    l = math.log1p(kam1) / em1 if kam1 != 0.0 else k
    z = -em1 * l
    exprel = math.expm1(z) / z if z != 0.0 else 1.0
    first = -(1.0 - k) * math.expm1(-a * l)
    second = a * l * math.exp(-l) * exprel
    return l, first - second


def ref_lag_nadir(sc, band):
    """(kind, t_nadir, depth, rocof) with every quantity read through its property."""
    k = sc.p_cont / band.pfr
    a = sc.dprime * band.tau / (2.0 * sc.h)
    rocof = -sc.p_cont / (2.0 * sc.h)
    em1 = a - 1.0
    if not 1.0 + k * em1 > B_EPS:
        return ASYMPTOTIC, None, (band.pfr - sc.p_cont) / sc.dprime, rocof
    l, shape = ref_shape(k, a)
    return INTERIOR_MINIMUM, band.tau * l, band.pfr / sc.dprime * shape, rocof


def ref_cap(dp, k, delta_f_max, tau):
    """The screening cap: interior, else the asymptotic cap; None when unbounded."""
    a = dp.dprime * tau / (2.0 * dp.h)
    if 1.0 + k * (a - 1.0) > B_EPS:
        return k * dp.dprime * delta_f_max / ref_shape(k, a)[1]
    if k <= 1.0:
        return None
    return delta_f_max / (1.0 / k - 1.0) * dp.dprime


def ref_tau(model, pfr1, pfr2):
    if pfr1 == 0:
        return model.tau2
    return float(model.a * (1.0 - math.exp(-model.b * pfr2 / pfr1)) + model.tau1)


def ref_share(model, tau_target):
    if tau_target == model.tau1:
        return 1.0
    return 1.0 / (1.0 + -math.log(1.0 - (tau_target - model.tau1) / model.a) / model.b)


def ref_sensitivity(dp, delta_f_max, model, pfr1, pfr2):
    """The K = 1 cap P times the bracket beta, over tau and -H, then the tau model's slopes."""
    tau = ref_tau(model, pfr1, pfr2)
    a = dp.dprime * tau / (2.0 * dp.h)
    em1 = a - 1.0
    if abs(em1) <= 0.1:
        # the series of the bracket in A - 1, terms k = 16 down to 2 by Horner
        bracket = 0.0
        for k in range(16, 1, -1):
            bracket = bracket * em1 + (-1.0) ** (k + 1) / (k * (k - 1))
    else:
        bracket = (em1 - a * math.log(a)) / (em1 * em1)
    common = ref_cap(dp, 1.0, delta_f_max, tau) * bracket
    dp_dtau, dp_dh = common / tau, -common / dp.h
    decay = math.exp(-model.b * pfr2 / pfr1)
    dtau_d1 = -(model.a * model.b) * pfr2 / pfr1**2 * decay
    dtau_d2 = (model.a * model.b) / pfr1 * decay
    return dp_dtau, dp_dh, dtau_d1, dtau_d2, dp_dtau * dtau_d1, dp_dtau * dtau_d2


def screen_cap(dp, policy, tau):
    """max_contingency with the asymptotic fallback; None when unbounded."""
    try:
        return max_contingency(dp, policy, tau)
    except BranchError:
        try:
            return asymptotic_max_contingency(dp, policy.k_policy, policy.delta_f_max)
        except BranchError:
            return None


systems = st.tuples(st.floats(1000.0, 4000.0), st.floats(0.01, 0.08), st.floats(2000.0, 20000.0))
# A over the plane, within 2e-9 of A = 1, or B = 1 + K(A - 1) inside the B = 0 guard
a_values = st.one_of(
    st.tuples(st.just("plane"), st.floats(0.02, 6.0)),
    st.tuples(st.just("a1"), st.floats(-2e-9, 2e-9)),
    st.tuples(st.just("b0"), st.floats(-2e-9, 2e-9)),
)


def _a(k, where):
    """A for a point of a_values; B = 0 needs K > 1 for A = 1 - 1/K to be positive."""
    kind, x = where
    a = x if kind == "plane" else 1.0 + x if kind == "a1" else 1.0 + (x - 1.0) / k
    assume(a > 0)
    return a


def _system(sys_params, p_cont):
    p_load, d, ke = sys_params
    return SystemConditions(f_n=50.0, ke=ke, p_load=p_load, d=d, p_cont=p_cont)


class TestLagNadir:
    @settings(max_examples=300, deadline=None)
    @given(sys_params=systems, k=st.floats(0.1, 6.0), where=a_values,
           p_cont=st.floats(50.0, 500.0), over=st.booleans())
    @example(sys_params=(2000.0, 0.04, 9000.0), k=300.0 / 270.0, where=("plane", 2.0 / 4.5),
             p_cont=300.0, over=False)
    @example(sys_params=(2000.0, 0.04, 9000.0), k=1.5, where=("a1", 0.0), p_cont=300.0, over=True)
    @example(sys_params=(2000.0, 0.04, 9000.0), k=0.5, where=("a1", 0.0), p_cont=300.0, over=False)
    @example(sys_params=(2000.0, 0.04, 9000.0), k=0.5, where=("a1", 1e-8), p_cont=300.0,
             over=False)
    @example(sys_params=(2000.0, 0.04, 9000.0), k=2.0, where=("b0", 0.0), p_cont=300.0, over=False)
    def test_matches_the_one_expression_form(self, sys_params, k, where, p_cont, over):
        sign = -1.0 if over else 1.0
        sc = _system(sys_params, sign * p_cont)
        band = LagBand(pfr=sign * p_cont / k, tau=_a(k, where) * 2.0 * sc.h / sc.dprime)
        got = lag_nadir(sc, band)
        want = ref_lag_nadir(sc, band)
        assert got.kind == want[0]
        assert _bits(got.t_nadir, got.delta_f_nadir, got.max_rocof) == _bits(*want[1:])

    @settings(max_examples=300, deadline=None)
    @given(sys_params=systems, k=st.floats(0.1, 6.0), where=a_values,
           p_cont=st.floats(50.0, 500.0), over=st.booleans())
    @example(sys_params=(2000.0, 0.04, 9000.0), k=2.0, where=("b0", 0.0), p_cont=300.0, over=True)
    @example(sys_params=(2000.0, 0.04, 9000.0), k=1.5, where=("a1", 0.0), p_cont=300.0, over=True)
    def test_one_branch_rule(self, sys_params, k, where, p_cont, over):
        """closedform's frame and lag_nadir decide the branch alike; the frame gives the shape."""
        sign = -1.0 if over else 1.0
        sc = _system(sys_params, sign * p_cont)
        band = LagBand(pfr=sign * p_cont / k, tau=_a(k, where) * 2.0 * sc.h / sc.dprime)
        frame_k, frame_a = _k_ratio(sc.p_cont, band.pfr), _a_ratio(sc.dprime, sc.h, band.tau)
        b, l, shape = _nadir_terms(frame_k, frame_a)
        ratio_k = sc.p_cont / band.pfr
        ratio_a = sc.dprime * band.tau / (2.0 * sc.h)
        assert _bits(b) == _bits(1.0 + ratio_k * (ratio_a - 1.0))
        asymptotic = l is None
        assert asymptotic == (lag_nadir(sc, band).kind == ASYMPTOTIC)
        if asymptotic:
            assert shape is None
        else:
            assert _bits(shape) == _bits(ref_shape(ratio_k, ratio_a)[1])

    def test_validation_order_is_unchanged(self, base_system):
        flat = SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.0, p_cont=300.0)
        with pytest.raises(InvalidInputError, match="D' = d"):
            lag_nadir(flat, LagBand(pfr=0.0, tau=2.0))
        with pytest.raises(InvalidInputError, match="zero-magnitude"):
            lag_nadir(base_system, LagBand(pfr=0.0, tau=2.0))
        with pytest.raises(InvalidInputError, match="share the sign"):
            lag_nadir(base_system, LagBand(pfr=-10.0, tau=2.0))


class TestContingencyCap:
    @settings(max_examples=300, deadline=None)
    @given(sys_params=systems, k=st.floats(0.3, 6.0), where=a_values,
           delta_f_max=st.floats(0.2, 2.0), over=st.booleans())
    @example(sys_params=(2500.0, 0.04, 7000.0), k=1.0 / 0.7, where=("b0", 0.0), delta_f_max=0.5,
             over=False)
    @example(sys_params=(2500.0, 0.04, 7000.0), k=0.8, where=("b0", 0.0), delta_f_max=0.5,
             over=False)
    @example(sys_params=(2500.0, 0.04, 7000.0), k=1.0 / 0.7, where=("a1", 0.0), delta_f_max=0.5,
             over=True)
    @example(sys_params=(2000.0, 0.04, 9000.0), k=0.5, where=("a1", 0.0), delta_f_max=0.5,
             over=False)
    def test_matches_the_one_expression_form(self, sys_params, k, where, delta_f_max, over):
        sc = _system(sys_params, 300.0)
        dp = DerivedParams(dprime=sc.dprime, h=sc.h)
        tau = _a(k, where) * 2.0 * dp.h / dp.dprime
        limit = delta_f_max if over else -delta_f_max
        got = screen_cap(dp, SecurityPolicy(k, limit), tau)
        want = ref_cap(dp, k, limit, tau)
        assert (got is None) == (want is None)
        assert _bits(got) == _bits(want)


class TestDeriveParams:
    @settings(max_examples=300, deadline=None)
    @given(f_n=st.floats(1e-3, 1e3), ke=st.floats(1e-3, 1e12), p_load=st.floats(1e-3, 1e9),
           d=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)), p_cont=st.floats(-1e4, 1e4))
    @example(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)
    @example(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.0, p_cont=-0.0)
    def test_matches_the_properties(self, f_n, ke, p_load, d, p_cont):
        sc = SystemConditions(f_n=f_n, ke=ke, p_load=p_load, d=d, p_cont=p_cont)
        dp = derive_params(sc)
        assert type(dp) is DerivedParams
        assert _bits(dp.dprime, dp.h) == _bits(sc.dprime, sc.h)

    def test_overflowing_inertia_is_rejected_as_before(self):
        sc = SystemConditions(f_n=1e-10, ke=1e308, p_load=2000.0, d=0.04, p_cont=300.0)
        with pytest.raises(InvalidInputError, match="^h must be finite and > 0, got inf$"):
            derive_params(sc)


class TestCapFallback:
    """max_contingency -> asymptotic_max_contingency, as the screen and fig9 call them."""

    @settings(max_examples=300, deadline=None)
    @given(sys_params=systems, k=st.floats(0.3, 6.0),
           b=st.one_of(st.floats(-0.95, -1e-6), st.floats(-2e-9, 2e-9)),
           delta_f_max=st.floats(0.2, 2.0), over=st.booleans())
    @example(sys_params=(2500.0, 0.04, 7000.0), k=1.0 / 0.7, b=0.0, delta_f_max=1.25, over=False)
    @example(sys_params=(2500.0, 0.04, 7000.0), k=1.0 / 0.7, b=-0.5, delta_f_max=1.25, over=True)
    @example(sys_params=(2500.0, 0.04, 7000.0), k=0.8, b=-0.1, delta_f_max=1.25, over=False)
    def test_matches_the_one_expression_form(self, sys_params, k, b, delta_f_max, over):
        dp = derive_params(_system(sys_params, 300.0))
        a = 1.0 + (b - 1.0) / k  # B = 1 + K(A - 1) = b, up to rounding
        assume(a > 0)
        tau = a * 2.0 * dp.h / dp.dprime
        limit = delta_f_max if over else -delta_f_max
        b_exact = 1.0 + k * (dp.dprime * tau / (2.0 * dp.h) - 1.0)
        assume(b_exact <= B_EPS)
        policy = SecurityPolicy(k, limit)
        want = None if k <= 1.0 else limit / (1.0 / k - 1.0) * dp.dprime
        if b_exact < -B_EPS:  # asymptotic: max_contingency points to the fallback
            with pytest.raises(BranchError, match="use asymptotic_max_contingency"):
                max_contingency(dp, policy, tau)
            if want is None:
                with pytest.raises(BranchError, match="^unbounded"):
                    asymptotic_max_contingency(dp, k, limit)
                return
            got = asymptotic_max_contingency(dp, k, limit)
        else:  # the boundary: both branches meet in the asymptotic cap
            if want is None:
                with pytest.raises(BranchError, match="^unbounded"):
                    max_contingency(dp, policy, tau)
                return
            got = max_contingency(dp, policy, tau)
        assert _bits(got) == _bits(want)
        assert _bits(screen_cap(dp, policy, tau)) == _bits(ref_cap(dp, k, limit, tau))

    def test_validation_order_is_unchanged(self):
        flat = DerivedParams(dprime=0.0, h=140.0)
        dp = DerivedParams(dprime=100.0, h=140.0)
        policy = SecurityPolicy(1.0 / 0.7, -1.25)
        # D' before tau, tau before the branch
        with pytest.raises(InvalidInputError, match="^D' = d"):
            max_contingency(flat, policy, 0.0)
        with pytest.raises(InvalidInputError, match="^D' = d"):
            max_contingency(flat, policy, math.nan)
        with pytest.raises(InvalidInputError, match="^tau must be > 0, got nan$"):
            max_contingency(dp, policy, math.nan)
        with pytest.raises(InvalidInputError, match="^tau must be > 0, got -0.3$"):
            max_contingency(dp, policy, -0.3)
        with pytest.raises(InvalidInputError, match="^D' = d"):
            asymptotic_max_contingency(flat, 0.5, -1.25)


class TestEquivalentBand:
    @settings(max_examples=300, deadline=None)
    @given(pfr1=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), pfr2=st.floats(0.0, 1e3))
    @example(pfr1=130.0, pfr2=80.0)
    @example(pfr1=0.0, pfr2=210.0)
    @example(pfr1=120.0, pfr2=0.0)
    def test_canonical_equivalent_and_share(self, pfr1, pfr2):
        if pfr1 == 0 and pfr2 == 0:
            return
        eq = canonical_equivalent(pfr1, pfr2)
        assert _bits(eq.pfr_eq, eq.tau_eq) == _bits(pfr1 + pfr2, ref_tau(CANONICAL_SURFACE,
                                                                            pfr1, pfr2))
        assert type(eq.tau_eq) is float
        model = CANONICAL_SURFACE
        if model.tau1 <= eq.tau_eq < model.tau1 + model.a:
            assert _bits(required_ffr_share(model, eq.tau_eq)) == \
                _bits(ref_share(model, eq.tau_eq))

    @pytest.mark.parametrize("model", [
        CANONICAL_SURFACE,
        TauSurfaceModel(a=1, b=2, tau1=1, tau2=3),  # integer coefficients
    ])
    def test_equivalent_tau_is_a_float_on_every_branch(self, model):
        for args in ((130.0, 80.0), (0.0, 210.0)):
            assert type(equivalent_tau(model, *args)) is float
        assert equivalent_tau(model, 0.0, 210.0) == model.tau2

    @pytest.mark.parametrize("pfr1, pfr2, message", [
        (-1.0, -1.0, "band magnitudes must be >= 0"),
        (-1.0, math.inf, "band magnitudes must be >= 0"),
        (math.nan, -1.0, "band magnitudes must be >= 0"),
        (0.0, 0.0, "at least one band magnitude must be > 0"),
        (-0.0, 0.0, "at least one band magnitude must be > 0"),
        # the record's magnitude check comes before its tau check
        (math.inf, math.inf, "pfr_eq must be finite and >= 0, got inf"),
        (math.nan, 80.0, "pfr_eq must be finite and >= 0, got nan"),
        (130.0, math.nan, "pfr_eq must be finite and >= 0, got nan"),
        (0.0, math.inf, "pfr_eq must be finite and >= 0, got inf"),
        (1e308, 1e308, "pfr_eq must be finite and >= 0, got inf"),
    ])
    def test_validation_order_is_unchanged(self, pfr1, pfr2, message):
        with pytest.raises(InvalidInputError) as err:
            canonical_equivalent(pfr1, pfr2)
        assert str(err.value) == message

    def test_passthrough_branches_are_unchanged(self):
        assert canonical_equivalent(0.0, 210.0) == canonical_equivalent(-0.0, 210.0)
        assert canonical_equivalent(0.0, 210.0).tau_eq == CANONICAL_SURFACE.tau2
        assert _bits(canonical_equivalent(130.0, -0.0).tau_eq) == _bits(CANONICAL_SURFACE.tau1)


class TestSensitivityReport:
    @settings(max_examples=300, deadline=None)
    @given(pfr1=st.floats(1.0, 500.0), pfr2=st.floats(0.0, 500.0), dprime=st.floats(20.0, 300.0),
           where=st.one_of(st.floats(0.05, 6.0), st.floats(1.0 - 2e-8, 1.0 + 2e-8)),
           delta_f_max=st.floats(-2.0, -0.1))
    @example(pfr1=130.0, pfr2=80.0, dprime=80.0, where=1.0, delta_f_max=-0.5)
    def test_matches_the_one_expression_form(self, pfr1, pfr2, dprime, where, delta_f_max):
        tau = ref_tau(CANONICAL_SURFACE, pfr1, pfr2)
        dp = DerivedParams(dprime=dprime, h=dprime * tau / (2.0 * where))
        got = sensitivity_report(dp, delta_f_max, CANONICAL_SURFACE, pfr1, pfr2)
        want = ref_sensitivity(dp, delta_f_max, CANONICAL_SURFACE, pfr1, pfr2)
        assert _bits(got.dp_dtau, got.dp_dh, got.dtau_dpfr1, got.dtau_dpfr2,
                     got.dp_dpfr1, got.dp_dpfr2) == _bits(*want)

    @pytest.mark.parametrize("dprime, pfr1, pfr2, message", [
        # the magnitudes come first, then D', tau, PFR1 > 0 and finite derivatives
        (0.0, -1.0, 80.0, "^band magnitudes must be >= 0$"),
        (0.0, 0.0, 0.0, "^at least one band magnitude must be > 0$"),
        (0.0, 0.0, 80.0, "^D' = d"),
        (0.0, 1e-200, 100.0, "^D' = d"),
        (0.0, math.nan, 80.0, "^D' = d"),
        (80.0, math.nan, 80.0, "^tau must be > 0, got nan$"),
        (80.0, 130.0, math.nan, "^tau must be > 0, got nan$"),
        (80.0, math.inf, math.inf, "^tau must be > 0, got nan$"),
        (80.0, 0.0, 80.0, "^pfr1 must be > 0: the magnitude ratio is singular at 0$"),
        (80.0, 1e-200, 100.0, "^pfr1=1e-200, pfr2=100.0: the tau model's derivatives are not "),
    ])
    def test_validation_order_is_unchanged(self, dprime, pfr1, pfr2, message):
        dp = DerivedParams(dprime=dprime, h=180.0)
        with pytest.raises(InvalidInputError, match=message):
            sensitivity_report(dp, -1.0, CANONICAL_SURFACE, pfr1, pfr2)


surfaces = st.one_of(
    st.just(CANONICAL_SURFACE),
    st.builds(TauSurfaceModel, a=st.floats(0.0, 5.0), b=st.floats(1e-3, 10.0),
              tau1=st.just(0.4), tau2=st.just(2.0)),
)


class TestOneDecay:
    """math.exp of -b*PFR2/PFR1 is the tau model's one exponential, on every path."""

    @settings(max_examples=400, deadline=None)
    @given(model=surfaces, pfr1=st.just(0.0) | st.floats(1e-3, 1e4),
           # PFR2/PFR1 from 0 to past the underflow of exp(-b*ratio) at b*ratio ~ 745
           ratio=st.just(0.0) | st.floats(-12.0, 4.0).map(lambda e: 10.0 ** e),
           dprime=st.floats(20.0, 300.0), h=st.floats(20.0, 2000.0),
           delta_f_max=st.floats(-2.0, -0.1))
    # numpy's exp of -b*PFR2/PFR1 is one ulp off math.exp's here, and so is the tau it gives
    @example(model=CANONICAL_SURFACE, pfr1=100.0, ratio=0.32, dprime=80.0, h=180.0,
             delta_f_max=-1.0)
    @example(model=CANONICAL_SURFACE, pfr1=1.0, ratio=2000.0, dprime=80.0, h=180.0,
             delta_f_max=-1.0)
    @example(model=CANONICAL_SURFACE, pfr1=0.0, ratio=80.0, dprime=80.0, h=180.0,
             delta_f_max=-1.0)
    def test_every_path_shares_its_bits(self, model, pfr1, ratio, dprime, h, delta_f_max):
        pfr2 = pfr1 * ratio if pfr1 else ratio + 1.0
        tau = equivalent_tau(model, pfr1, pfr2)
        if pfr1 == 0:
            assert tau == model.tau2
        else:
            assert _bits(tau) == _bits(model.a * (1.0 - math.exp(-model.b * pfr2 / pfr1))
                                       + model.tau1)
        assert _bits(canonical_equivalent(pfr1, pfr2, model).tau_eq) == _bits(tau)
        if pfr1 == 0:
            return
        dp = DerivedParams(dprime=dprime, h=h)
        report = sensitivity_report(dp, delta_f_max, model, pfr1, pfr2)
        decay, ab = math.exp(-model.b * pfr2 / pfr1), model.a * model.b
        assert _bits(report.dtau_dpfr1, report.dtau_dpfr2) == \
            _bits(-ab * pfr2 / pfr1**2 * decay, ab / pfr1 * decay)
        # at PFR2 = 0 a tau model gives tau1 exactly: the K = 1 cap's slopes at tau itself
        at_tau = sensitivity_report(dp, delta_f_max, TauSurfaceModel(model.a, model.b, tau, tau),
                                    1.0, 0.0)
        assert _bits(report.dp_dtau, report.dp_dh) == _bits(at_tau.dp_dtau, at_tau.dp_dh)


def _doc(**system):
    fields = {"f_n_hz": 50.0, "ke_mws": 9000.0, "p_load_mw": 2000.0, "d_relief": 0.04,
              "p_cont_mw": 300.0}
    fields.update(system)
    return {"system": {k: v for k, v in fields.items() if v is not None},
            "bands": [{"kind": "lag", "pfr_mw": 270.0, "tau_s": 2.0}]}


class TestScenarioFields:
    @pytest.mark.parametrize("doc, message", [
        (_doc(ke_mws=None), "system: missing required field 'ke_mws'"),
        (_doc(ke_mws=True), "system.ke_mws: expected a number, got True"),
        (_doc(ke_mws="7000"), "system.ke_mws: expected a number, got '7000'"),
        (_doc(ke_mws=float("1e999")), "system.ke_mws: expected a finite number, got inf"),
        (_doc(ke_mws=float("nan")), "system.ke_mws: expected a finite number, got nan"),
        ([_doc()], "scenario: top level must be an object"),
    ])
    def test_messages_are_unchanged(self, doc, message):
        with pytest.raises(InvalidInputError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == message

    def test_band_field_message_is_unchanged(self):
        doc = _doc()
        doc["bands"][0]["tau_s"] = float("-1e999")
        with pytest.raises(InvalidInputError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == "bands.0.tau_s: expected a finite number, got -inf"

    @pytest.mark.parametrize("value", [7000, np.float64(7000.0), 7000.0, -0.0])
    def test_numbers_become_plain_floats(self, value):
        doc = _doc(p_cont_mw=value)
        doc["bands"][0]["pfr_mw"] = 0.0
        system = scenario_from_dict(doc).system
        assert type(system.p_cont) is float
        assert _bits(system.p_cont) == _bits(float(value))
