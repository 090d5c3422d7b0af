import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    ASYMPTOTIC,
    BranchError,
    CANONICAL_SURFACE,
    DerivedParams,
    InvalidInputError,
    LagBand,
    SecurityPolicy,
    equivalent_tau,
    SystemConditions,
    WEM_K_POLICY,
    asymptotic_max_contingency,
    lag_nadir,
    max_contingency,
    max_contingency_k_sensitivity,
    min_effective_tau,
    nadir_constants,
    required_ffr_share,
    sensitivity_pcont,
    sensitivity_report,
    sensitivity_report_fd,
    sensitivity_tau_bands,
    special_case_max_contingency,
    universal_max_contingency_factor,
)
from sfrkit.applications import _K1_BRACKET_BAND, _k1_factors

POLICY = SecurityPolicy(k_policy=WEM_K_POLICY, delta_f_max=-1.25)


class TestNadirConstants:
    def test_canonical_point(self, base_system):
        nc = nadir_constants(base_system, pfr=270.0, tau=2.0)
        assert nc.k == pytest.approx(300.0 / 270.0, rel=1e-15)
        assert nc.a == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert nc.b == pytest.approx(0.3827160493827160, rel=1e-12)
        assert nc.c == pytest.approx(-0.8, rel=1e-12)
        assert not nc.asymptotic and not nc.singular

    def test_matched_response_b_equals_a(self, base_system):
        sc = SystemConditions(f_n=50, ke=9000, p_load=2000, d=0.04, p_cont=250.0)
        nc = nadir_constants(sc, pfr=250.0, tau=1.3)
        assert nc.b == pytest.approx(nc.a, rel=1e-15)

    def test_boundary_flagged_asymptotic(self, security_dp):
        # A = 1 - 1/K exactly: K = 1/0.7, A = 0.3 -> B = 0
        sc = SystemConditions(f_n=50, ke=7000, p_load=2500, d=0.04, p_cont=100 * WEM_K_POLICY)
        nc = nadir_constants(sc, pfr=100.0, tau=0.84)
        assert abs(nc.b) < 1e-12
        assert nc.asymptotic

    def test_validation(self, base_system):
        with pytest.raises(InvalidInputError):
            nadir_constants(base_system, pfr=0.0, tau=1.0)
        with pytest.raises(InvalidInputError):
            nadir_constants(base_system, pfr=100.0, tau=0.0)

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
        nc = nadir_constants(sc, pfr, tau)
        assert nc.asymptotic == (lag_nadir(sc, LagBand(pfr, tau)).kind == ASYMPTOTIC)
        # NaN-aware: C is NaN on the A = 1 guard band
        np.testing.assert_equal(dataclasses.astuple(nadir_constants(mirror, -pfr, tau)),
                                dataclasses.astuple(nc))
        with pytest.raises(InvalidInputError, match="share the sign"):
            nadir_constants(sc, -pfr, tau)
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
        policy = SecurityPolicy(k_policy=1.0, delta_f_max=-1.25)
        assert max_contingency(security_dp, policy, 1.0) == pytest.approx(
            special_case_max_contingency(security_dp, -1.25, 1.0), rel=1e-12
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
        (0.0, 0.5, "A"), (-0.5, 1.5, "A"), (math.inf, 1.5, "A"), (math.nan, 1.5, "A"),
        (0.5, 0.0, "K"), (0.5, -1.0, "K"), (0.5, math.inf, "K"), (0.5, math.nan, "K"),
    ])
    def test_invalid_ratios_rejected(self, a, k, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite and > 0"):
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
        assert special_case_max_contingency(security_dp, -1.25, 1.0) == pytest.approx(
            620.13918315586, rel=1e-11
        )

    def test_unity_ratio_limit(self, security_dp):
        # A = 1 at tau = 2H/D' = 2.8: cap = -D' * df_max * e
        cap = special_case_max_contingency(security_dp, -1.25, 2.8)
        assert cap == pytest.approx(100 * 1.25 * math.e, rel=1e-12)

    def test_continuity_at_unity_ratio(self, security_dp):
        exact = special_case_max_contingency(security_dp, -1.25, 2.8)
        for pert in (1 + 1e-6, 1 - 1e-6):
            near = special_case_max_contingency(security_dp, -1.25, 2.8 * pert)
            assert near == pytest.approx(exact, rel=1e-5)


def decimal_k1_factors(a):
    """A^(1/(A-1)) and (A - 1 - A ln A)/(A - 1)^2 at the double a, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        big_a = Decimal(a)
        u, ln_a = big_a - 1, big_a.ln()
        return float((ln_a / u).exp()), float((u - big_a * ln_a) / (u * u))


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
            power, bracket = _k1_factors(a)
            want_power, want_bracket = decimal_k1_factors(a)
            worst_power = max(worst_power, abs(power - want_power) / want_power)
            worst_bracket = max(worst_bracket, abs(bracket - want_bracket) / -want_bracket)
        assert worst_bracket <= 1e-14
        assert worst_power <= 1e-15

    def test_limits_at_unity(self):
        assert _k1_factors(1.0) == (math.e, -0.5)

    def test_closed_form_kept_outside_the_band(self):
        # about the A of sensitivities on lag_270mw.json, whose bytes stay
        for a in (0.168, 0.5, 1.1000001, 4.0):
            em1 = a - 1.0
            assert _k1_factors(a)[1] == (em1 - a * math.log(a)) / (em1 * em1)


class TestSensitivities:
    def test_anchor_derivatives(self, security_dp):
        dp_dtau, dp_dh = sensitivity_pcont(security_dp, -1.25, 1.0)
        # frozen against central finite differences of the matched-response cap
        assert dp_dtau == pytest.approx(-412.86448116529414, rel=1e-12)
        assert dp_dh == pytest.approx(2.9490320083235297, rel=1e-12)

    def test_signs(self, security_dp):
        dp_dtau, dp_dh = sensitivity_pcont(security_dp, -1.25, 1.0)
        assert dp_dtau < 0 < dp_dh

    def test_opposite_elasticities(self, security_dp):
        # A depends on tau/H only, so tau- and H-elasticities cancel
        dp_dtau, dp_dh = sensitivity_pcont(security_dp, -1.25, 1.3)
        assert dp_dtau * 1.3 == pytest.approx(-dp_dh * security_dp.h, rel=1e-12)

    def test_finite_difference_agreement(self, security_dp):
        rng = np.random.default_rng(3)
        for _ in range(5):
            tau = rng.uniform(0.3, 3.0)
            h = rng.uniform(60.0, 400.0)
            dp = DerivedParams(dprime=security_dp.dprime, h=h)
            dp_dtau, dp_dh = sensitivity_pcont(dp, -1.25, tau)
            step = 1e-5 * tau
            fd_tau = (
                special_case_max_contingency(dp, -1.25, tau + step)
                - special_case_max_contingency(dp, -1.25, tau - step)
            ) / (2 * step)
            step_h = 1e-5 * h
            fd_h = (
                special_case_max_contingency(DerivedParams(dp.dprime, h + step_h), -1.25, tau)
                - special_case_max_contingency(DerivedParams(dp.dprime, h - step_h), -1.25, tau)
            ) / (2 * step_h)
            assert dp_dtau == pytest.approx(fd_tau, rel=1e-4)
            assert dp_dh == pytest.approx(fd_h, rel=1e-4)

    def test_across_unity_ratio(self, security_dp):
        # derivatives stay finite and FD-consistent straddling A = 1
        tau = 2.8
        dp_dtau, _ = sensitivity_pcont(security_dp, -1.25, tau)
        step = 1e-4
        fd = (
            special_case_max_contingency(security_dp, -1.25, tau + step)
            - special_case_max_contingency(security_dp, -1.25, tau - step)
        ) / (2 * step)
        assert dp_dtau == pytest.approx(fd, rel=1e-4)


class TestTauBandSensitivities:
    def test_anchor_values(self):
        d1, d2 = sensitivity_tau_bands(CANONICAL_SURFACE, 130.0, 80.0)
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
            d1, d2 = sensitivity_tau_bands(CANONICAL_SURFACE, p1, p2)
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
        d1, d2 = sensitivity_tau_bands(CANONICAL_SURFACE, 140.0, 0.0)
        assert d1 == 0.0
        assert d2 == pytest.approx(CANONICAL_SURFACE.a * CANONICAL_SURFACE.b / 140.0, rel=1e-15)

    def test_zero_fast_band_rejected(self):
        with pytest.raises(InvalidInputError):
            sensitivity_tau_bands(CANONICAL_SURFACE, 0.0, 80.0)


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
        # more required headroom (higher K) always lowers the cap
        assert max_contingency_k_sensitivity(security_dp, POLICY, 1.0) < 0


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
