import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    BranchError,
    CANONICAL_SURFACE,
    DerivedParams,
    InvalidInputError,
    LagBand,
    ASYMPTOTIC,
    SecurityPolicy,
    equivalent_tau,
    SystemConditions,
    TauSurfaceModel,
    WEM_K_POLICY,
    asymptotic_max_contingency,
    lag_nadir,
    max_contingency,
    min_effective_tau,
    required_ffr_share,
    sensitivity_report,
    sensitivity_report_fd,
    universal_max_contingency_factor,
)
from sfrkit.applications import _FD_REL_STEP, _K1_BRACKET_BAND, _k1_bracket
from sfrkit.closedform import B_EPS, _nadir_terms

POLICY = SecurityPolicy(k_policy=WEM_K_POLICY, delta_f_max=-1.25)
# the matched response, K = P_cont/PFR = 1
MATCHED = SecurityPolicy(k_policy=1.0, delta_f_max=-1.25)


def pcont_slopes(dp, delta_f_max, tau):
    """(dP/dtau, dP/dH) of the K = 1 cap at tau: at PFR2 = 0 the tau model gives tau1 exactly."""
    model = TauSurfaceModel(CANONICAL_SURFACE.a, CANONICAL_SURFACE.b, tau1=tau, tau2=tau)
    report = sensitivity_report(dp, delta_f_max, model, 1.0, 0.0)
    return report.dp_dtau, report.dp_dh


def tau_slopes(pfr1, pfr2):
    """(dtau/dPFR1, dtau/dPFR2) of the canonical tau model."""
    report = sensitivity_report(DerivedParams(dprime=100.0, h=140.0), -1.25, CANONICAL_SURFACE,
                                pfr1, pfr2)
    return report.dtau_dpfr1, report.dtau_dpfr2


class TestNadirConstants:
    """The paper's nadir constants K = P_cont/PFR, A = D'tau/2H and B = 1 + K(A - 1)."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.floats(0.05, 6.0),
           a=st.one_of(st.floats(0.02, 6.0), st.floats(1.0 - 2e-9, 1.0 + 2e-9)),
           over=st.booleans())
    @example(k=300.0 / 270.0, a=2.0 / 4.5, over=True)
    @example(k=1.0 / 0.7, a=0.3, over=True)  # B = 0
    def test_k_rule_is_lag_nadirs(self, k, a, over):
        # under- and over-frequency points of the base system (2H/D' = 4.5 s)
        sign = -1.0 if over else 1.0
        sc, mirror = (SystemConditions(f_n=50, ke=9000, p_load=2000, d=0.04, p_cont=300.0 * s)
                      for s in (sign, -sign))
        pfr, tau = sc.p_cont / k, a * 4.5
        res = lag_nadir(sc, LagBand(pfr, tau))
        # the regime is the sign of B, read at the (K, A) lag_nadir itself sees
        dprime, h2 = sc.d * sc.p_load, 2.0 * (sc.ke / sc.f_n)
        b = 1.0 + (sc.p_cont / pfr) * (dprime * tau / h2 - 1.0)
        assert (res.kind == ASYMPTOTIC) == (not b > B_EPS)
        # the over-frequency point mirrors the under-frequency one exactly
        flipped = lag_nadir(mirror, LagBand(-pfr, tau))
        assert (flipped.kind, flipped.t_nadir) == (res.kind, res.t_nadir)
        assert flipped.delta_f_nadir == -res.delta_f_nadir
        assert flipped.max_rocof == -res.max_rocof
        with pytest.raises(InvalidInputError, match="share the sign"):
            lag_nadir(sc, LagBand(-pfr, tau))


class TestMaxContingency:
    def test_anchor_point(self, security_dp):
        cap = max_contingency(security_dp, POLICY, tau=1.0)
        assert cap == pytest.approx(397.82941506384293, rel=1e-12)

    def test_monotone_in_tau(self, security_dp):
        taus = np.arange(0.4, 1.75, 0.05)
        caps = []
        for tau in taus:
            try:
                caps.append(max_contingency(security_dp, POLICY, tau))
            except BranchError:
                caps.append(asymptotic_max_contingency(security_dp, POLICY.k_policy,
                                                       POLICY.delta_f_max))
        assert all(a >= b - 1e-9 for a, b in zip(caps, caps[1:]))

    def test_k_one_matches_special_case(self, security_dp):
        # the paper's K = 1 special case: -D' * df_max * A^(1/(A-1))
        a = security_dp.dprime * 1.0 / (2.0 * security_dp.h)
        assert max_contingency(security_dp, MATCHED, 1.0) == pytest.approx(
            -security_dp.dprime * -1.25 * a ** (1.0 / (a - 1.0)), rel=1e-12
        )

    def test_asymptotic_region_raises(self, security_dp):
        # A = 100*0.5/280 = 0.179 < 0.3
        with pytest.raises(BranchError):
            max_contingency(security_dp, POLICY, tau=0.5)

    def test_boundary_equals_asymptotic_cap(self, security_dp):
        # tau = 0.84 puts A on the branch boundary
        cap = max_contingency(security_dp, POLICY, tau=0.84)
        assert cap == pytest.approx(416.6666666666666, rel=1e-9)

    def test_branch_continuity(self, security_dp):
        boundary_tau = 0.84
        cap_near = max_contingency(security_dp, POLICY, boundary_tau * (1 + 1e-4))
        cap_asym = asymptotic_max_contingency(security_dp, POLICY.k_policy, POLICY.delta_f_max)
        assert abs(cap_near - cap_asym) / abs(cap_asym) <= 0.005


class TestUniversalFactor:
    def test_anchor_point(self):
        f = universal_max_contingency_factor(1.0 / 2.8, WEM_K_POLICY, -1.25)
        assert f == pytest.approx(3.9782941506384294, rel=1e-12)

    def test_decreasing_in_a_and_k(self):
        f = universal_max_contingency_factor
        assert f(0.5, 1.5, -1.25) > f(0.8, 1.5, -1.25) > f(1.2, 1.5, -1.25)
        assert f(0.8, 1.2, -1.25) > f(0.8, 1.6, -1.25) > f(0.8, 2.4, -1.25)

    def test_surface_monotone_on_grid(self):
        a_grid = np.arange(0.05, 2.01, 0.05)
        k_grid = np.arange(1.0, 3.01, 0.1)
        for k in k_grid:
            values = []
            for a in a_grid:
                if 1.0 + k * (a - 1.0) <= 0:
                    continue
                values.append(universal_max_contingency_factor(a, k, -1.25))
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
        for a in a_grid:
            values = []
            for k in k_grid:
                if 1.0 + k * (a - 1.0) <= 0:
                    continue
                values.append(universal_max_contingency_factor(a, k, -1.25))
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_outside_branch_raises(self):
        with pytest.raises(BranchError):
            universal_max_contingency_factor(0.1, 2.0, -1.25)

    @pytest.mark.parametrize("a, k, name", [
        (0.0, 0.5, "A"), (-0.0, 1.5, "A"), (-0.5, 1.5, "A"), (math.inf, 1.5, "A"),
        (math.nan, 1.5, "A"), (0.5, 0.0, "K"), (0.5, -1.0, "K"), (0.5, math.inf, "K"),
        (0.5, math.nan, "K"),
        # A is checked before K
        (math.nan, math.nan, "A"),
    ])
    def test_invalid_ratios_rejected(self, a, k, name):
        got = a if name == "A" else k
        with pytest.raises(InvalidInputError,
                           match="^" + re.escape(f"{name} must be finite and > 0, got {got}") + "$"):
            universal_max_contingency_factor(a, k, -1.25)


class TestAsymptoticCap:
    def test_wem_policy(self, security_dp):
        cap = asymptotic_max_contingency(security_dp, WEM_K_POLICY, -1.25)
        assert cap == pytest.approx(416.6666666666666, rel=1e-12)

    def test_load_relief_only_limit(self, security_dp):
        cap = asymptotic_max_contingency(security_dp, 1e9, -1.25)
        assert cap == pytest.approx(125.0, rel=1e-6)

    def test_unbounded_below_unity(self, security_dp):
        for k in (1.0, 0.9):
            with pytest.raises(BranchError):
                asymptotic_max_contingency(security_dp, k, -1.25)


class TestMinEffectiveTau:
    def test_footnote_case(self):
        dp = DerivedParams(dprime=80.0, h=180.0)
        assert min_effective_tau(dp, 300.0 / 210.0) == pytest.approx(1.35, rel=1e-12)

    def test_matched_response_needs_no_bound(self, security_dp):
        assert min_effective_tau(security_dp, 1.0) == 0.0
        assert min_effective_tau(security_dp, 0.5) == 0.0

    def test_validation(self, security_dp):
        with pytest.raises(InvalidInputError):
            min_effective_tau(security_dp, 0.0)


class TestSpecialCase:
    def test_anchor_point(self, security_dp):
        assert max_contingency(security_dp, MATCHED, 1.0) == pytest.approx(
            620.13918315586, rel=1e-11
        )

    def test_unity_ratio_limit(self, security_dp):
        # A = 1 at tau = 2H/D' = 2.8: cap = -D' * df_max * e
        cap = max_contingency(security_dp, MATCHED, 2.8)
        assert cap == pytest.approx(100 * 1.25 * math.e, rel=1e-12)

    def test_continuity_at_unity_ratio(self, security_dp):
        exact = max_contingency(security_dp, MATCHED, 2.8)
        for pert in (1 + 1e-6, 1 - 1e-6):
            near = max_contingency(security_dp, MATCHED, 2.8 * pert)
            assert near == pytest.approx(exact, rel=1e-5)


def decimal_k1_factors(a):
    """A^(1/(A-1)) and (A - 1 - A ln A)/(A - 1)^2 at the double a, as 60-digit Decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        big_a = Decimal(a)
        u, ln_a = big_a - 1, big_a.ln()
        return (ln_a / u).exp(), (u - big_a * ln_a) / (u * u)


class TestK1Factors:
    # |A - 1| log-spaced up to 3 above A = 1 and up to 0.999 below it, the
    # offsets where the closed-form bracket cancelled, and both band edges
    EDGES = [1e-8, 1.01e-8, 1e-7, 1e-5, 1e-3, _K1_BRACKET_BAND,
             math.nextafter(_K1_BRACKET_BAND, 1.0)]
    OFFSETS = sorted({*np.geomspace(1e-12, 3.0, 400).tolist(),
                      *(-u for u in np.geomspace(1e-12, 0.999, 400).tolist()),
                      *EDGES, *(-u for u in EDGES)})

    def test_against_decimal_references(self):
        worst_power = worst_bracket = 0.0
        for u in self.OFFSETS:
            a = 1.0 + u
            if a == 1.0:
                continue
            # the K = 1 cap factor f(A, 1) at delta_f_max = -1 is A^(1/(A-1))
            power = universal_max_contingency_factor(a, 1.0, -1.0)
            bracket = _k1_bracket(a)
            want_power, want_bracket = map(float, decimal_k1_factors(a))
            worst_power = max(worst_power, abs(power - want_power) / want_power)
            worst_bracket = max(worst_bracket, abs(bracket - want_bracket) / -want_bracket)
        assert worst_bracket <= 1e-14
        assert worst_power <= 1e-15

    def test_limits_at_unity(self):
        assert _k1_bracket(1.0) == -0.5
        assert -1.0 / _nadir_terms(1.0, 1.0)[2] == math.e

    def test_closed_form_kept_outside_the_band(self):
        # about the A of sensitivities on lag_270mw.json, whose bytes stay
        for a in (0.168, 0.5, 1.1000001, 4.0):
            em1 = a - 1.0
            assert _k1_bracket(a) == (em1 - a * math.log(a)) / (em1 * em1)

    def test_sensitivity_against_decimal_references(self, security_dp):
        # dP/dtau = -D' df_max A^(1/(A-1)) bracket / tau and dP/dH = -dP/dtau tau/H
        dprime, h = security_dp.dprime, security_dp.h
        worst = 0.0
        for u in self.OFFSETS:
            tau = (1.0 + u) * 2.0 * h / dprime
            a = dprime * tau / (2.0 * h)  # the A that sensitivity_report forms
            if a == 1.0:
                continue
            power, bracket = decimal_k1_factors(a)
            with localcontext() as ctx:
                ctx.prec = 60
                common = -Decimal(dprime) * Decimal(-1.25) * power * bracket
                want_tau, want_h = float(common / Decimal(tau)), float(-common / Decimal(h))
            dp_dtau, dp_dh = pcont_slopes(security_dp, -1.25, tau)
            worst = max(worst, abs(dp_dtau / want_tau - 1.0), abs(dp_dh / want_h - 1.0))
        assert worst <= 5e-15


class TestSensitivities:
    def test_anchor_derivatives(self, security_dp):
        dp_dtau, dp_dh = pcont_slopes(security_dp, -1.25, 1.0)
        # frozen against central finite differences of the matched-response cap
        assert dp_dtau == pytest.approx(-412.86448116529414, rel=1e-12)
        assert dp_dh == pytest.approx(2.9490320083235297, rel=1e-12)

    def test_signs(self, security_dp):
        dp_dtau, dp_dh = pcont_slopes(security_dp, -1.25, 1.0)
        assert dp_dtau < 0 < dp_dh

    def test_opposite_elasticities(self, security_dp):
        # A depends on tau/H only, so tau- and H-elasticities cancel
        dp_dtau, dp_dh = pcont_slopes(security_dp, -1.25, 1.3)
        assert dp_dtau * 1.3 == pytest.approx(-dp_dh * security_dp.h, rel=1e-12)

    def test_finite_difference_agreement(self, security_dp):
        rng = np.random.default_rng(3)
        for _ in range(5):
            tau = rng.uniform(0.3, 3.0)
            h = rng.uniform(60.0, 400.0)
            dp = DerivedParams(dprime=security_dp.dprime, h=h)
            dp_dtau, dp_dh = pcont_slopes(dp, -1.25, tau)
            step = 1e-5 * tau
            fd_tau = (
                max_contingency(dp, MATCHED, tau + step)
                - max_contingency(dp, MATCHED, tau - step)
            ) / (2 * step)
            step_h = 1e-5 * h
            fd_h = (
                max_contingency(DerivedParams(dp.dprime, h + step_h), MATCHED, tau)
                - max_contingency(DerivedParams(dp.dprime, h - step_h), MATCHED, tau)
            ) / (2 * step_h)
            assert dp_dtau == pytest.approx(fd_tau, rel=1e-4)
            assert dp_dh == pytest.approx(fd_h, rel=1e-4)

    def test_across_unity_ratio(self, security_dp):
        # derivatives stay finite and FD-consistent straddling A = 1
        tau = 2.8
        dp_dtau, _ = pcont_slopes(security_dp, -1.25, tau)
        step = 1e-4
        fd = (
            max_contingency(security_dp, MATCHED, tau + step)
            - max_contingency(security_dp, MATCHED, tau - step)
        ) / (2 * step)
        assert dp_dtau == pytest.approx(fd, rel=1e-4)

    def test_unbounded_within_the_guard_band(self, security_dp):
        # A <= B_EPS is B <= B_EPS at K = 1, where the matched cap is unbounded
        with pytest.raises(BranchError, match="^unbounded"):
            pcont_slopes(security_dp, -1.25, 1e-12)


class TestTauBandSensitivities:
    def test_anchor_values(self):
        d1, d2 = tau_slopes(130.0, 80.0)
        # hand evaluation of the model derivatives with the canonical coefficients;
        # d1 = -(80/130) * d2 exactly
        assert d1 == pytest.approx(-0.0026615762709064805, rel=1e-12)
        assert d2 == pytest.approx(+0.0043250614402230315, rel=1e-12)
        assert d1 == pytest.approx(-(80.0 / 130.0) * d2, rel=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p1 = rng.uniform(20.0, 250.0)
            p2 = rng.uniform(1.0, 250.0)
            d1, d2 = tau_slopes(p1, p2)
            s1, s2 = 1e-6 * p1, 1e-6 * p2
            fd1 = (
                equivalent_tau(CANONICAL_SURFACE, p1 + s1, p2)
                - equivalent_tau(CANONICAL_SURFACE, p1 - s1, p2)
            ) / (2 * s1)
            fd2 = (
                equivalent_tau(CANONICAL_SURFACE, p1, p2 + s2)
                - equivalent_tau(CANONICAL_SURFACE, p1, p2 - s2)
            ) / (2 * s2)
            assert d1 == pytest.approx(fd1, rel=1e-6)
            assert d2 == pytest.approx(fd2, rel=1e-6)

    def test_standard_band_at_zero(self):
        d1, d2 = tau_slopes(140.0, 0.0)
        assert d1 == 0.0
        assert d2 == pytest.approx(CANONICAL_SURFACE.a * CANONICAL_SURFACE.b / 140.0, rel=1e-15)

    def test_zero_fast_band_rejected(self):
        with pytest.raises(InvalidInputError):
            tau_slopes(0.0, 80.0)


class TestChainRule:
    def test_signs(self, security_dp):
        report = sensitivity_report(security_dp, -1.25, CANONICAL_SURFACE, 130.0, 80.0)
        assert report.dp_dpfr1 > 0 > report.dp_dpfr2

    def test_report_matches_fd_report(self, security_dp):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p1 = rng.uniform(30.0, 250.0)
            p2 = rng.uniform(5.0, 250.0)
            analytic = sensitivity_report(security_dp, -1.25, CANONICAL_SURFACE, p1, p2)
            fd = sensitivity_report_fd(security_dp, -1.25, CANONICAL_SURFACE, p1, p2)
            for name in ("dp_dtau", "dp_dh", "dtau_dpfr1", "dtau_dpfr2",
                         "dp_dpfr1", "dp_dpfr2"):
                assert getattr(analytic, name) == pytest.approx(
                    getattr(fd, name), rel=1e-4
                ), name

    def test_k_sensitivity_is_negative(self, security_dp):
        # more required headroom (higher K) always lowers the cap: a central difference in K
        k, step = POLICY.k_policy, _FD_REL_STEP * POLICY.k_policy
        caps = [max_contingency(security_dp, SecurityPolicy(kk, POLICY.delta_f_max), 1.0)
                for kk in (k + step, k - step)]
        assert (caps[0] - caps[1]) / (2.0 * step) < 0


class TestRequiredFfrShare:
    def test_anchor_share(self):
        assert required_ffr_share(CANONICAL_SURFACE, 1.0) == pytest.approx(
            0.5084278831291483, rel=1e-12
        )

    def test_all_fast_at_tau1(self):
        assert required_ffr_share(CANONICAL_SURFACE, 0.4) == 1.0

    def test_unreachable_targets(self):
        with pytest.raises(BranchError):
            required_ffr_share(CANONICAL_SURFACE, CANONICAL_SURFACE.a + 0.4)
        with pytest.raises(BranchError):
            required_ffr_share(CANONICAL_SURFACE, 0.2)

    def test_nan_target_is_bad_input_not_a_branch_failure(self):
        with pytest.raises(InvalidInputError, match="^tau_target must be a number, got nan$"):
            required_ffr_share(CANONICAL_SURFACE, math.nan)

    def test_share_decreases_with_slower_targets(self):
        shares = [required_ffr_share(CANONICAL_SURFACE, t) for t in (0.5, 0.8, 1.1, 1.5)]
        assert all(a > b for a, b in zip(shares, shares[1:]))


class TestRoundTrip:
    def test_cap_reproduces_the_deviation_limit(self):
        # feed the cap back in as the contingency: the nadir must hit delta_f_max
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 25:
            dprime = rng.uniform(40.0, 250.0)
            h = rng.uniform(60.0, 400.0)
            k = rng.uniform(1.02, 2.5)
            tau = rng.uniform(0.2, 4.0)
            dp = DerivedParams(dprime=dprime, h=h)
            a = dprime * tau / (2 * h)
            if 1.0 + k * (a - 1.0) <= 1e-6:
                continue
            checked += 1
            policy = SecurityPolicy(k_policy=k, delta_f_max=-1.25)
            cap = max_contingency(dp, policy, tau)
            sc = SystemConditions(f_n=50.0, ke=h * 50.0, p_load=dprime / 0.04, d=0.04,
                                  p_cont=cap)
            dev = lag_nadir(sc, LagBand(pfr=cap / k, tau=tau)).delta_f_nadir
            assert abs(dev - (-1.25)) <= 1e-6


class TestPolicyValidation:
    def test_invalid_policies(self):
        with pytest.raises(InvalidInputError):
            SecurityPolicy(k_policy=0.0, delta_f_max=-1.25)
        with pytest.raises(InvalidInputError):
            SecurityPolicy(k_policy=1.4, delta_f_max=0.0)

    @pytest.mark.parametrize("delta_f_max", [math.nan, -math.inf])
    def test_non_finite_deviation_limit(self, delta_f_max):
        with pytest.raises(InvalidInputError, match="delta_f_max"):
            SecurityPolicy(k_policy=1.4, delta_f_max=delta_f_max)

    def test_infinite_policy_ratio(self):
        with pytest.raises(InvalidInputError, match="k_policy"):
            SecurityPolicy(k_policy=math.inf, delta_f_max=-1.25)
