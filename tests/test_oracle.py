import math

import numpy as np
import pytest

from sfrkit import (
    FORWARD_EULER,
    FrequencyTrace,
    IntegrationSpec,
    InvalidInputError,
    LagBand,
    SystemConditions,
    integrate,
    lag_pfr_value,
    trace,
    trace_nadir,
)

FIG_BAND = LagBand(pfr=270.0, tau=2.0)


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
