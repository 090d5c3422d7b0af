"""The in-place sampled-trace paths give the same doubles as their one-expression forms.

`closedform.trace`, `model.total_pfr_value` and `oracle.integrate` fill a few
per-call buffers in place. Each reference below writes the same arithmetic as
one vector expression per term, in the same order, so every rounding step is
the same and the results must agree bit for bit (signed zeros included).
"""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    FORWARD_EULER,
    RK4,
    IntegrationSpec,
    InvalidInputError,
    LagBand,
    RampBand,
    SystemConditions,
    delta_f,
    integrate,
    total_pfr_value,
)
from sfrkit import closedform


def ref_delta_f(sc, bands, t):
    """The closed-form deviation, one vector expression per term."""
    arr = np.asarray(t, dtype=float)
    dprime, h = sc.dprime, sc.h
    lags = sorted((b for b in bands if isinstance(b, LagBand)), key=lambda b: (b.tau, abs(b.pfr)))
    ramps = sorted((b for b in bands if isinstance(b, RampBand)),
                   key=lambda b: (b.t_r, abs(b.pfr)))
    rate_sum = sum(b.rate for b in ramps)
    decay_exp = np.exp(-dprime * arr / (2.0 * h))
    step = (sum(b.pfr for b in lags) - sc.p_cont) / dprime
    if ramps:
        step = step - 2.0 * rate_sum * h / dprime**2
    out = step * (1.0 - decay_exp)
    if ramps:
        out = out + rate_sum * arr / dprime
    for band in lags:
        em1 = dprime * band.tau / (2.0 * h) - 1.0
        if em1 == 0.0:
            out = out - band.pfr * arr * decay_exp / (2.0 * h)
            continue
        x = arr * (-abs(em1) / band.tau)
        if em1 < 0.0:
            diff = np.expm1(x + 0.0) * decay_exp
        else:
            diff = np.expm1(x) * np.exp(arr / -band.tau)
        out = out - diff * (-band.pfr * band.tau / (2.0 * h * abs(em1)))
    return out


def ref_total_pfr(bands, t):
    arr = np.asarray(t, dtype=float)
    total = np.zeros_like(arr)
    for b in bands:
        if isinstance(b, LagBand):
            total = total + b.pfr * (1.0 - np.exp(-arr / b.tau))
        else:
            total = total + np.minimum(b.rate * arr, b.pfr)
    return total


def ref_rk4_increment(y, a0, ah, a1, lam, dt):
    half = dt / 2.0
    k1 = a0 - lam * y
    k2 = ah - lam * (y + half * k1)
    k3 = ah - lam * (y + half * k2)
    k4 = a1 - lam * (y + dt * k3)
    return dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_integrate(sc, bands, t_end, dt, method):
    """The oracle with the forcing on one 2n + 1 grid read at stride 2."""
    n = round(t_end / dt)
    lam = sc.dprime / (2.0 * sc.h)
    scale = 1.0 / (2.0 * sc.h)
    if method == RK4:
        a = scale * (ref_total_pfr(bands, np.arange(2 * n + 1) * (dt / 2.0)) - sc.p_cont)
        d = ref_rk4_increment(1.0, 0.0, 0.0, 0.0, lam, dt)
        w0 = ref_rk4_increment(0.0, 1.0, 0.0, 0.0, lam, dt)
        wh = ref_rk4_increment(0.0, 0.0, 1.0, 0.0, lam, dt)
        w1 = ref_rk4_increment(0.0, 0.0, 0.0, 1.0, lam, dt)
        c = w0 * a[0:-1:2] + wh * a[1::2] + w1 * a[2::2]
    else:
        d = -dt * lam
        c = dt * (scale * (ref_total_pfr(bands, np.arange(n) * dt) - sc.p_cont))
    y = np.empty(len(c) + 1)
    y[0] = 0.0
    y[1:] = c
    s = 1
    while s < len(c):
        y[s + 1:] += (1.0 + d) * y[1:-s]
        d *= 2.0 + d
        s *= 2
    return y


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def systems():
    return st.builds(
        lambda ke, p_load, d, p_cont, over: SystemConditions(
            f_n=50.0, ke=ke, p_load=p_load, d=d, p_cont=-p_cont if over else p_cont),
        ke=st.floats(1000.0, 20000.0), p_load=st.floats(500.0, 5000.0),
        d=st.floats(0.01, 0.1), p_cont=st.floats(50.0, 500.0), over=st.booleans())


@st.composite
def cases(draw, kinds=("lag", "ramp", "singular")):
    """(system, bands) with bands drawn from kinds, signed like the contingency."""
    sc = draw(systems())
    sign = 1.0 if sc.p_cont > 0 else -1.0
    bands = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        pfr = sign * draw(st.floats(0.0, 500.0))
        if kind == "lag":
            bands.append(LagBand(pfr, draw(st.floats(0.05, 10.0))))
        elif kind == "singular":  # within 5e-10 of A = 1
            a = 1.0 + draw(st.floats(-5e-10, 5e-10))
            bands.append(LagBand(pfr, a * 2.0 * sc.h / sc.dprime))
        else:
            bands.append(RampBand(pfr, draw(st.floats(0.1, 10.0))))
    return sc, bands


grids = st.tuples(st.floats(1e-3, 1e-2), st.integers(1, 3000)).map(
    lambda g: (g[0] * g[1], g[0]))  # (t_end, dt)

BASE = SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)
MIRROR = SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=-300.0)


class TestClosedFormTrace:
    @settings(max_examples=150, deadline=None)
    @given(case=cases(("lag", "singular")), grid=grids)
    @example(case=(BASE, [LagBand(270.0, 2.0)]), grid=(30.0, 0.001))
    @example(case=(MIRROR, [LagBand(-270.0, 2.0)]), grid=(30.0, 0.001))
    @example(case=(BASE, [LagBand(270.0, 4.5)]), grid=(5.0, 0.001))  # A = 1 exactly
    @example(case=(MIRROR, [LagBand(-270.0, 4.5), LagBand(-20.0, 6.0)]), grid=(30.0, 0.001))
    def test_lag_trace(self, case, grid):
        sc, bands = case
        tr = closedform.trace(sc, bands, *grid, "lag")
        assert_same_bits(tr.samples, ref_delta_f(sc, bands, np.arange(len(tr)) * grid[1]))

    @settings(max_examples=100, deadline=None)
    @given(case=cases(("ramp",)), grid=grids)
    @example(case=(MIRROR, [RampBand(-200.0, 1.5)]), grid=(1.5, 0.001))
    def test_ramp_trace(self, case, grid):
        sc, bands = case
        tr = closedform.trace(sc, bands, *grid, "ramp")
        assert_same_bits(tr.samples, ref_delta_f(sc, bands, np.arange(len(tr)) * grid[1]))

    @settings(max_examples=100, deadline=None)
    @given(case=cases(("lag", "singular")), t=st.floats(0.0, 60.0))
    @example(case=(BASE, [LagBand(270.0, 4.5)]), t=0.0)
    @example(case=(MIRROR, [LagBand(-270.0, 2.0)]), t=0.0)
    def test_scalar_time(self, case, t):
        sc, bands = case
        got = delta_f(sc, bands[:1], t)
        assert type(got) is float
        assert_same_bits(got, ref_delta_f(sc, bands[:1], t))
        total = total_pfr_value(bands, t)
        assert type(total) is float
        assert_same_bits(total, ref_total_pfr(bands, t))


ONE_KIND = [("lag", ("lag", "singular")), ("ramp", ("ramp",))]


class TestOneEntryPoint:
    """delta_f and trace read the kind from the first band; a kind passed to trace changes no bit."""

    @pytest.mark.parametrize("kind, kinds", ONE_KIND)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), grid=grids)
    def test_delta_f_of_one_kind(self, kind, kinds, data, grid):
        sc, bands = data.draw(cases(kinds))
        t = np.arange(round(grid[0] / grid[1]) + 1) * grid[1]
        assert_same_bits(delta_f(sc, bands, t), ref_delta_f(sc, bands, t))

    @pytest.mark.parametrize("kind, kinds", ONE_KIND)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), grid=grids)
    def test_trace_without_kind(self, kind, kinds, data, grid):
        sc, bands = data.draw(cases(kinds))
        assert_same_bits(closedform.trace(sc, bands, *grid).samples,
                         closedform.trace(sc, bands, *grid, kind).samples)

    @settings(max_examples=100, deadline=None)
    @given(case=cases(("lag", "ramp")))
    def test_mixed_list_names_its_first_band_of_another_kind(self, case):
        sc, bands = case
        first = type(bands[0])
        other = [type(b).__name__ for b in bands if type(b) is not first]
        assume(other)
        kind = "lag" if first is LagBand else "ramp"
        message = f"the {kind} closed form needs {kind} bands only, got {other[0]}$"
        with pytest.raises(InvalidInputError, match=message):
            delta_f(sc, bands, 1.0)
        with pytest.raises(InvalidInputError, match=message):
            closedform.trace(sc, bands, 1.0, 0.01)

    def test_empty_list(self):
        for call in (lambda: delta_f(BASE, [], 1.0), lambda: closedform.trace(BASE, [], 1.0, 0.01)):
            with pytest.raises(InvalidInputError, match="^at least one band is required$"):
                call()
        with pytest.raises(InvalidInputError, match="^at least one ramp band is required$"):
            closedform.trace(BASE, [], 1.0, 0.01, "ramp")


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=cases(), grid=grids, method=st.sampled_from([RK4, FORWARD_EULER]))
    @example(case=(BASE, [LagBand(270.0, 2.0)]), grid=(30.0, 0.001), method=RK4)
    @example(case=(MIRROR, [RampBand(-200.0, 1.5)]), grid=(10.0, 0.001), method=RK4)
    @example(case=(MIRROR, [LagBand(-100.0, 0.5), RampBand(-200.0, 1.5)]), grid=(10.0, 0.01),
             method=FORWARD_EULER)
    def test_integrate(self, case, grid, method):
        sc, bands = case
        tr = integrate(sc, lambda t: total_pfr_value(bands, t), IntegrationSpec(*grid, method))
        assert_same_bits(tr.samples, ref_integrate(sc, bands, *grid, method))

    @pytest.mark.parametrize("method", [RK4, FORWARD_EULER])
    def test_callable_arrays_are_left_alone(self, method):
        kept = []

        def p(t):
            kept.append(np.full_like(t, 150.0))
            return kept[-1]

        integrate(BASE, p, IntegrationSpec(1.0, 0.01, method))
        assert kept and all((k == 150.0).all() for k in kept)


def test_trace_csv_matches_the_generic_writer(tmp_path):
    from sfrkit import FrequencyTrace, reports

    # a NaN sample is refused before the file is opened (test_reports), so none is written here
    tr = FrequencyTrace(dt=0.1, samples=[-0.0, 0.0, 1.0 / 3.0, -2.5e-300, 1e21])
    reports.write_trace_csv(tmp_path / "fast.csv", tr)
    reports.write_csv(tmp_path / "rows.csv", ("t_s", "delta_f_hz"), zip(tr.times, tr.samples))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
