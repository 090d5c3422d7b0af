import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    ASYMPTOTIC,
    BranchError,
    INTERIOR_MINIMUM,
    IntegrationSpec,
    InvalidInputError,
    LagBand,
    RampBand,
    SystemConditions,
    delta_f,
    integrate,
    lag_nadir,
    max_rocof,
    total_pfr_value,
    trace,
)
from sfrkit.closedform import nadir_shape_factor

LAG_BAND = LagBand(pfr=270.0, tau=2.0)
# frozen from independent evaluation of the analytic solution at the canonical
# conditions (D'=80, H=180, P_cont=300, PFR=270, tau=2)
T_NADIR = 3.4576630206742536
DF_NADIR = -0.9740344404076423

# A across the plane, within 5e-10 of A = 1, or just inside the interior side of
# B = 1 + K(A - 1) = 0
NADIR_PLANE = st.one_of(
    st.tuples(st.just("plane"), st.floats(0.02, 6.0)),
    st.tuples(st.just("a1"), st.floats(-5e-10, 5e-10)),
    st.tuples(st.just("b0"), st.floats(1e-9, 1e-6)),
)


def _plane_point(k, where, over):
    """The base system (2H/D' = 4.5 s) and a lag band at ratios (K, A); over flips all signs."""
    kind, x = where
    a = x if kind == "plane" else 1.0 + x if kind == "a1" else 1.0 + (x - 1.0) / k
    assume(a > 0)
    p_cont = -300.0 if over else 300.0
    sc = SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=p_cont)
    return sc, LagBand(pfr=p_cont / k, tau=a * 4.5)


class TestRamp:
    def test_one_second_into_six_second_ramp(self, base_system):
        # R=45: 45/80 - (2*45*180/80^2 + 300/80)(1 - e^(-80/(2*180))), hand arithmetic
        value = delta_f(base_system, [RampBand(pfr=270, t_r=6)], 1.0)
        assert value == pytest.approx(-0.6891181879287993, rel=1e-12)

    def test_zero_at_onset(self, base_system):
        assert delta_f(base_system, [RampBand(pfr=270, t_r=6)], 0.0) == 0.0

    def test_linear_in_rate(self, base_system):
        half = RampBand(pfr=135, t_r=6)
        full = RampBand(pfr=270, t_r=6)
        t = np.linspace(0, 8, 17)
        assert np.allclose(
            delta_f(base_system, [half, half], t),
            delta_f(base_system, [full], t),
            rtol=1e-14,
        )

    def test_two_bands_match_combined_rate(self, base_system):
        # rates 200/4 + 70/1 = 120 MW/s; same coefficient sum as one 120 MW/s band
        bands = [RampBand(pfr=200, t_r=4), RampBand(pfr=70, t_r=1)]
        combined = RampBand(pfr=120, t_r=1)
        assert delta_f(base_system, bands, 0.5) == pytest.approx(
            delta_f(base_system, [combined], 0.5), rel=1e-14
        )

    def test_no_saturation_in_closed_form(self, base_system):
        # past t_r the expression keeps ramping and eventually goes positive
        band = RampBand(pfr=270, t_r=1)
        assert delta_f(base_system, [band], 30.0) > 1.0

    def test_empty_bands_rejected(self, base_system):
        with pytest.raises(InvalidInputError):
            delta_f(base_system, [], 1.0)

    def test_matches_oracle_during_ramp(self, base_system):
        band = RampBand(pfr=270, t_r=6)
        closed = trace(base_system, [band], 6.0, 0.001, "ramp")
        numeric = integrate(
            base_system,
            lambda t: np.minimum(band.rate * np.asarray(t), band.pfr),
            IntegrationSpec(t_end=6.0, dt=0.001),
        )
        assert np.abs(closed.samples - numeric.samples).max() <= 1e-3


class TestLag:
    def test_value_near_nadir(self, base_system):
        assert delta_f(base_system, [LAG_BAND], 3.4576) == pytest.approx(
            -0.9740344402754666, rel=1e-12
        )

    def test_zero_at_onset(self, base_system):
        assert delta_f(base_system, [LAG_BAND], 0.0) == 0.0

    def test_settling_limit(self, base_system):
        assert delta_f(base_system, [LAG_BAND], 200.0) == pytest.approx(
            -0.375, abs=1e-12
        )
        # the settling value of the asymptotic regime: the same magnitude at tau = 0.4 s
        settle = lag_nadir(base_system, LagBand(pfr=270.0, tau=0.4))
        assert settle.kind == ASYMPTOTIC
        assert settle.delta_f_nadir == pytest.approx(-0.375, rel=1e-15)

    def test_full_coverage_settles_at_zero(self, base_system):
        # K = 1 is asymptotic only where A <= B_EPS, for a band of (nearly) no delay
        settle = lag_nadir(base_system, LagBand(pfr=300.0, tau=1e-9))
        assert settle.kind == ASYMPTOTIC
        assert settle.delta_f_nadir == 0.0

    def test_band_order_irrelevant(self, base_system):
        bands = [LagBand(130, 0.4), LagBand(80, 2.0)]
        t = np.linspace(0, 20, 41)
        assert np.array_equal(
            delta_f(base_system, bands, t),
            delta_f(base_system, bands[::-1], t),
        )

    def test_two_band_trace_matches_oracle(self, base_system):
        bands = [LagBand(130, 0.4), LagBand(80, 2.0)]
        closed = trace(base_system, bands, 30.0, 0.001, "lag")
        numeric = integrate(
            base_system,
            lambda t: total_pfr_value(bands, t),
            IntegrationSpec(t_end=30.0, dt=0.001),
        )
        assert np.abs(closed.samples - numeric.samples).max() <= 1e-3

    def test_empty_bands_rejected(self, base_system):
        with pytest.raises(InvalidInputError):
            delta_f(base_system, [], 1.0)


class TestSolvability:
    def test_canonical_band_solvable(self, base_system):
        assert lag_nadir(base_system, LAG_BAND).kind == INTERIOR_MINIMUM

    def test_fast_underdelivering_band_asymptotic(self, base_system):
        assert lag_nadir(base_system, LagBand(pfr=210, tau=0.4)).kind == ASYMPTOTIC

    def test_asymptotic_trace_settles_monotonically(self, base_system):
        # unsolvable inputs decay monotonically to the settling deviation
        band = LagBand(pfr=210, tau=0.4)
        numeric = integrate(base_system, lambda t: total_pfr_value([band], t),
                            IntegrationSpec(t_end=60.0, dt=0.001))
        assert np.all(np.diff(numeric.samples) <= 1e-12)
        settle = lag_nadir(base_system, band).delta_f_nadir
        assert abs(numeric.samples[-1] - settle) <= 1e-3

    def test_full_coverage_always_solvable(self, base_system):
        for tau in (0.05, 0.5, 5.0, 50.0):
            assert lag_nadir(base_system, LagBand(pfr=300.0, tau=tau)).kind == INTERIOR_MINIMUM

    def test_exact_boundary_classified_asymptotic(self, base_system):
        # tau = 1.35 puts this band exactly on the regime boundary
        assert lag_nadir(base_system, LagBand(pfr=210.0, tau=1.35)).kind == ASYMPTOTIC

    def test_zero_band_rejected(self, base_system):
        with pytest.raises(InvalidInputError):
            lag_nadir(base_system, LagBand(pfr=0.0, tau=1.0))


class TestNadir:
    def test_nadir_time(self, base_system):
        assert lag_nadir(base_system, LAG_BAND).t_nadir == pytest.approx(T_NADIR, rel=1e-12)

    def test_both_algebraic_forms_agree(self, base_system):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            sc = SystemConditions(
                f_n=50.0,
                ke=rng.uniform(2000, 20000),
                p_load=rng.uniform(500, 5000),
                d=rng.uniform(0.01, 0.1),
                p_cont=rng.uniform(50, 800),
            )
            band = LagBand(pfr=sc.p_cont * rng.uniform(0.3, 1.5), tau=rng.uniform(0.1, 10))
            result = lag_nadir(sc, band)
            if result.kind != INTERIOR_MINIMUM:
                continue
            checked += 1
            # the paper's direct form ln(B) / (D'/2H - 1/tau)
            k, a = sc.p_cont / band.pfr, sc.dprime * band.tau / (2.0 * sc.h)
            t_direct = math.log1p(k * (a - 1.0)) / (sc.dprime / (2.0 * sc.h) - 1.0 / band.tau)
            assert result.t_nadir == pytest.approx(t_direct, rel=1e-12)

    def test_limit_branch_at_unity_ratio(self, base_system):
        # D'*tau = 2H exactly at tau = 4.5 -> t_nadir = K*tau
        band = LagBand(pfr=270.0, tau=4.5)
        assert lag_nadir(base_system, band).t_nadir == pytest.approx(5.0, rel=1e-12)

    def test_continuity_across_unity_ratio(self, base_system):
        for sign in (+1.0, -1.0):
            band = LagBand(pfr=270.0, tau=4.5 * (1.0 + sign * 1e-6))
            t = lag_nadir(base_system, band).t_nadir
            assert abs(t - (300.0 / 270.0) * band.tau) <= 1e-5

    def test_asymptotic_branch_raises(self, base_system):
        # lag_nadir reports the regime as data; the shape factor has no value there
        with pytest.raises(BranchError):
            nadir_shape_factor(300.0 / 210.0, 80.0 * 0.4 / 360.0)

    @pytest.mark.parametrize("k, a, message", [
        (math.nan, 0.5, "K must be finite and > 0, got nan"),
        (0.5, math.inf, "A must be finite and > 0, got inf"),
        (-0.5, 0.5, "K must be finite and > 0, got -0.5"),
        (0.0, 1.0, "K must be finite and > 0, got 0.0"),
        (math.inf, 2.0, "K must be finite and > 0, got inf"),
        (0.5, -0.0, "A must be finite and > 0, got -0.0"),
        # A is checked before K, as universal_max_contingency_factor does
        (math.nan, math.nan, "A must be finite and > 0, got nan"),
    ], ids=["nan-K", "inf-A", "negative-K", "zero-K", "inf-K", "zero-A", "A-before-K"])
    def test_invalid_ratios_rejected(self, k, a, message):
        with pytest.raises(InvalidInputError) as err:
            nadir_shape_factor(k, a)
        assert str(err.value) == message

    def test_nadir_deviation(self, base_system):
        assert lag_nadir(base_system, LAG_BAND).delta_f_nadir == pytest.approx(DF_NADIR, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(0.1, 6.0), where=NADIR_PLANE, over=st.booleans())
    @example(k=300.0 / 270.0, where=("plane", 2.0 / 4.5), over=False)  # LAG_BAND
    @example(k=300.0 / 270.0, where=("a1", 0.0), over=True)
    @example(k=0.5, where=("a1", 0.0), over=False)  # A = 1 exactly
    @example(k=2.0, where=("b0", 1e-9), over=False)
    def test_deviation_equals_curve_at_nadir_time(self, k, where, over):
        sc, band = _plane_point(k, where, over)
        result = lag_nadir(sc, band)
        assume(result.kind == INTERIOR_MINIMUM)
        curve = delta_f(sc, [band], result.t_nadir)
        assert math.isclose(result.delta_f_nadir, curve, rel_tol=1e-9, abs_tol=0.0)

    def test_deviation_equals_curve_just_outside_unity_guard(self, base_system):
        band = LagBand(pfr=600.0, tau=4.5 * (1.0 + 1e-8))  # K = 0.5, A - 1 = 1e-8
        result = lag_nadir(base_system, band)
        curve = delta_f(base_system, [band], result.t_nadir)
        assert math.isclose(result.delta_f_nadir, curve, rel_tol=1e-9, abs_tol=0.0)

    def test_stationary_at_nadir_time(self, base_system):
        t_n = lag_nadir(base_system, LAG_BAND).t_nadir
        h = 1e-4
        slope = (
            delta_f(base_system, [LAG_BAND], t_n + h)
            - delta_f(base_system, [LAG_BAND], t_n - h)
        ) / (2 * h)
        assert abs(slope) <= 1e-6

    def test_matched_response_special_case(self):
        # PFR equal to the contingency sized so the nadir hits -1.25 Hz exactly
        pfr = 620.13918315586  # -D' df_max A^(1/(A-1)) at D'=100, H=140, tau=1
        sc = SystemConditions(f_n=50, ke=7000, p_load=2500, d=0.04, p_cont=pfr)
        assert lag_nadir(sc, LagBand(pfr=pfr, tau=1.0)).delta_f_nadir == pytest.approx(
            -1.25, abs=1e-9
        )

    def test_nadir_result_interior(self, base_system):
        result = lag_nadir(base_system, LAG_BAND)
        assert result.kind == INTERIOR_MINIMUM
        assert result.t_nadir == pytest.approx(T_NADIR, rel=1e-12)
        assert result.delta_f_nadir == pytest.approx(DF_NADIR, rel=1e-12)
        assert result.max_rocof == pytest.approx(-300.0 / 360.0, rel=1e-15)

    def test_nadir_result_asymptotic(self, base_system):
        result = lag_nadir(base_system, LagBand(pfr=210, tau=0.4))
        assert result.kind == ASYMPTOTIC
        assert result.t_nadir is None
        assert result.delta_f_nadir == pytest.approx(-1.125, rel=1e-15)
        assert result.max_rocof == pytest.approx(-300.0 / 360.0, rel=1e-15)


class TestRocofAndSigns:
    def test_max_rocof(self, base_system):
        assert max_rocof(base_system) == pytest.approx(-0.8333333333333334, rel=1e-15)

    def test_no_contingency_no_rocof(self):
        sc = SystemConditions(f_n=50, ke=9000, p_load=2000, d=0.04, p_cont=0.0)
        assert max_rocof(sc) == 0.0

    def test_over_frequency_mirror(self):
        sc = SystemConditions(f_n=50, ke=9000, p_load=2000, d=0.04, p_cont=-300.0)
        band = LagBand(pfr=-270.0, tau=2.0)
        assert max_rocof(sc) == pytest.approx(0.8333333333333334, rel=1e-15)
        result = lag_nadir(sc, band)
        assert result.kind == INTERIOR_MINIMUM
        assert result.t_nadir == pytest.approx(T_NADIR, rel=1e-12)
        assert result.delta_f_nadir == pytest.approx(-DF_NADIR, rel=1e-12)

    def test_sign_mismatch_rejected(self, base_system):
        over = SystemConditions(f_n=50, ke=9000, p_load=2000, d=0.04, p_cont=-300.0)
        for sc, pfr in ((base_system, -100.0), (over, 100.0)):
            with pytest.raises(InvalidInputError, match="share the sign"):
                lag_nadir(sc, LagBand(pfr=pfr, tau=1.0))


class TestSingularityGuard:
    def test_continuous_across_singular_tau(self, base_system):
        # the D'*tau = 2H singularity is removable: tiny tau perturbations stay close
        t = np.arange(0, 3001) * 0.01
        limit = delta_f(base_system, [LagBand(pfr=270, tau=4.5)], t)
        for pert in (1 + 1e-7, 1 - 1e-7):
            near = delta_f(base_system, [LagBand(pfr=270, tau=4.5 * pert)], t)
            assert np.abs(near - limit).max() <= 1e-6


class TestTrace:
    def test_two_sample_trace(self, base_system):
        tr = trace(base_system, [LAG_BAND], 0.5, 0.5, "lag")
        assert len(tr) == 2
        assert tr.samples[0] == 0.0

    def test_invalid_grid(self, base_system):
        with pytest.raises(InvalidInputError):
            trace(base_system, [LAG_BAND], 0.0, 0.1, "lag")
        with pytest.raises(InvalidInputError):
            trace(base_system, [LAG_BAND], 1.0, -0.1, "lag")
        with pytest.raises(InvalidInputError):
            trace(base_system, [LAG_BAND], 1.0, 0.1, "step")

    def test_deterministic(self, base_system):
        a = trace(base_system, [LAG_BAND], 10.0, 0.01, "lag")
        b = trace(base_system, [LAG_BAND], 10.0, 0.01, "lag")
        assert np.array_equal(a.samples, b.samples)
