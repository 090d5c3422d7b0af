import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    FORWARD_EULER,
    RK4,
    FrequencyTrace,
    IntegrationSpec,
    InvalidInputError,
    LagBand,
    RampBand,
    SystemConditions,
    integrate,
    lag_pfr_value,
    total_pfr_value,
    trace,
    trace_nadir,
)

FIG_BAND = LagBand(pfr=270.0, tau=2.0)
# largest stable h*lam of each method: |R(-h*lam)| <= 1
STABLE_H_LAM = {RK4: 2.785293563405282, FORWARD_EULER: 2.0}


def stepped_reference(sc, bands, spec):
    """The scheme stepped one sample at a time, as a plain Python loop."""
    n = int(round(spec.t_end / spec.dt))
    dt, half = spec.dt, spec.dt / 2.0
    lam = sc.dprime / (2.0 * sc.h)
    scale = 1.0 / (2.0 * sc.h)
    out = np.zeros(n + 1)
    y = 0.0
    if spec.method == RK4:
        a = scale * (total_pfr_value(bands, np.arange(2 * n + 1) * half) - sc.p_cont)
        for i in range(n):
            a0, ah, a1 = a[2 * i], a[2 * i + 1], a[2 * i + 2]
            k1 = a0 - lam * y
            k2 = ah - lam * (y + half * k1)
            k3 = ah - lam * (y + half * k2)
            k4 = a1 - lam * (y + dt * k3)
            y += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i + 1] = y
    else:
        a = scale * (total_pfr_value(bands, np.arange(n) * dt) - sc.p_cont)
        for i in range(n):
            y += dt * (a[i] - lam * y)
            out[i + 1] = y
    return out


def system_with_h_lam(h_lam, dt, p_cont):
    """Conditions whose damping rate D'/(2H) is h_lam / dt (no damping at 0)."""
    if h_lam == 0.0:
        return SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.0, p_cont=p_cont)
    d, p_load, f_n = 0.04, 2000.0, 50.0
    return SystemConditions(f_n=f_n, ke=d * p_load * f_n * dt / (2.0 * h_lam),
                            p_load=p_load, d=d, p_cont=p_cont)


BANDS = st.lists(
    st.one_of(
        st.builds(LagBand, pfr=st.floats(0.0, 500.0), tau=st.floats(0.01, 20.0)),
        st.builds(RampBand, pfr=st.floats(0.0, 500.0), t_r=st.floats(0.01, 20.0)),
    ),
    min_size=1, max_size=3,
)


def fig_p(t):
    return lag_pfr_value(FIG_BAND, t)


class TestIntegrationSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(t_end=10, dt=0.0),
        dict(t_end=10, dt=0.02),
        dict(t_end=0.0005, dt=0.001),
        dict(t_end=10, dt=0.001, method="rk5"),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidInputError):
            IntegrationSpec(**kwargs)

    def test_sample_ceiling(self):
        # validated on construction; nothing is integrated or allocated
        with pytest.raises(InvalidInputError, match="t_end"):
            IntegrationSpec(t_end=1e9, dt=0.001)
        with pytest.raises(InvalidInputError, match="t_end"):
            IntegrationSpec(t_end=float("inf"), dt=0.001)
        assert IntegrationSpec(t_end=9e3, dt=0.001).t_end == 9e3

    def test_defaults(self):
        spec = IntegrationSpec(t_end=30)
        assert spec.dt == 0.001
        assert spec.method == "rk4"


class TestIntegrate:
    def test_equilibrium_is_exactly_zero(self, base_system):
        for method in ("rk4", FORWARD_EULER):
            tr = integrate(
                base_system,
                lambda t: base_system.p_cont,
                IntegrationSpec(t_end=2.0, dt=0.005, method=method),
            )
            assert np.all(tr.samples == 0.0)

    def test_inertia_only_linear_decline(self):
        # no response and no damping: df = -P_cont * t / (2H)
        sc = SystemConditions(f_n=50, ke=9000, p_load=2000, d=0.0, p_cont=300)
        tr = integrate(sc, lambda t: 0.0, IntegrationSpec(t_end=5.0, dt=0.001))
        expected = -sc.p_cont * tr.times / (2 * sc.h)
        assert np.allclose(tr.samples, expected, atol=1e-12)

    def test_initial_slope_matches_rocof(self, base_system):
        tr = integrate(base_system, fig_p, IntegrationSpec(t_end=1.0, dt=0.001))
        slope = (tr.samples[1] - tr.samples[0]) / tr.dt
        assert slope == pytest.approx(-base_system.p_cont / (2 * base_system.h), rel=0.01)

    def test_nadir_location_and_depth(self, base_system):
        tr = integrate(base_system, fig_p, IntegrationSpec(t_end=30.0, dt=0.001))
        t_n, depth = trace_nadir(tr)
        assert t_n == pytest.approx(3.4576630206742536, abs=tr.dt)
        assert depth == pytest.approx(-0.9740344404076423, abs=1e-6)

    def test_step_halving_converged(self, base_system):
        nadirs = []
        for dt in (0.001, 0.0005):
            tr = integrate(base_system, fig_p, IntegrationSpec(t_end=10.0, dt=dt))
            nadirs.append(trace_nadir(tr)[1])
        assert abs(nadirs[0] - nadirs[1]) <= 1e-8

    def test_euler_is_usable_but_coarser(self, base_system):
        closed = trace(base_system, [FIG_BAND], 10.0, 0.001, "lag")
        rk4 = integrate(base_system, fig_p, IntegrationSpec(t_end=10.0, dt=0.001))
        euler = integrate(base_system, fig_p,
                          IntegrationSpec(t_end=10.0, dt=0.001, method=FORWARD_EULER))
        gap_rk4 = np.abs(rk4.samples - closed.samples).max()
        gap_euler = np.abs(euler.samples - closed.samples).max()
        assert gap_rk4 <= 1e-9
        assert gap_rk4 < gap_euler <= 1e-3

    def test_scalar_only_callable(self, base_system):
        def p(t):
            return 270.0 * (1.0 - math.exp(-t / 2.0))

        tr = integrate(base_system, p, IntegrationSpec(t_end=1.0, dt=0.01))
        vec = integrate(base_system, fig_p, IntegrationSpec(t_end=1.0, dt=0.01))
        assert np.allclose(tr.samples, vec.samples, rtol=1e-15)

    def test_rk4_matches_closed_form_to_rounding(self, base_system):
        # 30 000 steps: powers of the step gain formed by squaring g itself
        # would compound its rounding and miss this by about 1e-13 Hz
        closed = trace(base_system, [FIG_BAND], 30.0, 0.001, "lag")
        rk4 = integrate(base_system, fig_p, IntegrationSpec(t_end=30.0, dt=0.001))
        assert np.abs(rk4.samples - closed.samples).max() <= 2e-14

    @settings(max_examples=150, deadline=None)
    @given(
        method=st.sampled_from([RK4, FORWARD_EULER]),
        frac=st.floats(0.0, 1.0 - 1e-6),
        dt=st.floats(1e-4, 0.01),
        n=st.integers(1, 1500),
        p_cont=st.floats(1.0, 1000.0),
        bands=BANDS,
    )
    @example(method=RK4, frac=0.0, dt=0.001, n=1, p_cont=300.0, bands=[FIG_BAND])
    @example(method=FORWARD_EULER, frac=1.0 - 1e-6, dt=0.01, n=1024, p_cont=300.0,
             bands=[RampBand(pfr=270.0, t_r=6.0)])
    @example(method=RK4, frac=1.0 - 1e-6, dt=0.01, n=1025, p_cont=300.0,
             bands=[FIG_BAND, RampBand(pfr=20.0, t_r=0.5)])
    def test_matches_stepped_reference(self, method, frac, dt, n, p_cont, bands):
        # h*lam from 0 up to just inside the method's stability limit
        sc = system_with_h_lam(frac * STABLE_H_LAM[method], dt, p_cont)
        spec = IntegrationSpec(t_end=n * dt, dt=dt, method=method)
        got = integrate(sc, lambda t: total_pfr_value(bands, t), spec).samples
        want = stepped_reference(sc, bands, spec)
        assert got.shape == want.shape == (n + 1,)
        assert got[0] == 0.0
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("method", [RK4, FORWARD_EULER])
    def test_unstable_step_rejected(self, method):
        dt = 0.001
        sc = system_with_h_lam(STABLE_H_LAM[method] * (1.0 + 1e-6), dt, 300.0)
        spec = IntegrationSpec(t_end=1.0, dt=dt, method=method)
        largest = STABLE_H_LAM[method] / (sc.dprime / (2.0 * sc.h))
        with pytest.raises(InvalidInputError, match=r"dt=0\.001 .*largest stable step") as info:
            integrate(sc, fig_p, spec)
        assert f"{largest:.6g} s" in str(info.value)

    def test_constant_returning_callable(self, base_system):
        tr = integrate(base_system, lambda t: 300.0, IntegrationSpec(t_end=0.5, dt=0.01))
        assert np.all(tr.samples == 0.0)


class TestTraceNadir:
    def test_monotone_trace_ends_at_last_sample(self):
        tr = FrequencyTrace(t0=0.0, dt=1.0, samples=np.array([0.0, -0.5, -0.9, -1.1]))
        assert trace_nadir(tr) == (3.0, -1.1)

    def test_all_zero_trace(self):
        tr = FrequencyTrace(t0=0.0, dt=1.0, samples=np.zeros(5))
        assert trace_nadir(tr) == (0.0, 0.0)

    def test_over_frequency_picks_maximum(self):
        tr = FrequencyTrace(t0=0.0, dt=1.0, samples=np.array([0.0, 0.8, 1.2, 0.4]))
        assert trace_nadir(tr) == (2.0, 1.2)

    def test_tie_breaks_earliest(self):
        tr = FrequencyTrace(t0=0.0, dt=1.0, samples=np.array([0.0, -1.0, -1.0, -0.5]))
        assert trace_nadir(tr) == (1.0, -1.0)
