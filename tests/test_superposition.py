"""The superposition kernel behind every closed-form deviation.

The per-kind functions it replaced are kept below as references: on
under-frequency inputs the kernel must reproduce them bit for bit, and an
over-frequency event must be their exact sign mirror.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    InvalidInputError,
    LagBand,
    RampBand,
    SystemConditions,
    delta_f,
    total_pfr_value,
    trace,
)


def reference_multi_ramp_delta_f(sc, bands, t):
    """Deviation under unsaturated ramp bands, as computed before the kernel."""
    dprime, h = sc.dprime, sc.h
    bands = sorted(bands, key=lambda b: (b.t_r, b.pfr))
    rate_sum = sum(b.rate for b in bands)
    decay = 1.0 - np.exp(-dprime * t / (2.0 * h))
    return rate_sum * t / dprime - (2.0 * rate_sum * h / dprime**2 + sc.p_cont / dprime) * decay


def reference_multi_lag_delta_f(sc, bands, t):
    """Deviation under lag bands, one expression per band, the lag term in its expm1 form."""
    dprime, h = sc.dprime, sc.h
    decay_exp = np.exp(-dprime * t / (2.0 * h))
    bands = sorted(bands, key=lambda b: (b.tau, b.pfr))
    pfr_sum = sum(b.pfr for b in bands)
    out = (pfr_sum - sc.p_cont) / dprime * (1.0 - decay_exp)
    for band in bands:
        em1 = dprime * band.tau / (2.0 * h) - 1.0  # A - 1
        if em1 == 0.0:
            term = band.pfr * t * decay_exp / (2.0 * h)
        elif em1 < 0.0:  # exp(-t/tau) - E = E expm1(-|A - 1| t/tau)
            term = (np.expm1(t * (-abs(em1) / band.tau) + 0.0) * decay_exp
                    * (-band.pfr * band.tau / (2.0 * h * abs(em1))))
        else:  # exp(-t/tau) - E = -exp(-t/tau) expm1(-|A - 1| t/tau)
            term = (np.expm1(t * (-abs(em1) / band.tau)) * np.exp(t / -band.tau)
                    * (-band.pfr * band.tau / (2.0 * h * abs(em1))))
        out = out - term
    return out


def reference_total_pfr_value(bands, t):
    """Delivered response of mixed bands, as computed before one rule per band type."""
    total = np.zeros_like(t)
    for band in bands:
        if isinstance(band, LagBand):
            total = total + band.pfr * (1.0 - np.exp(-t / band.tau))
        else:
            total = total + np.minimum(band.rate * t, band.pfr)
    return total


SYSTEMS = st.builds(
    SystemConditions,
    f_n=st.sampled_from([50.0, 60.0]),
    ke=st.floats(500.0, 30000.0),
    p_load=st.floats(200.0, 5000.0),
    d=st.floats(0.005, 0.1),
    p_cont=st.floats(1.0, 1000.0),
)
PFR = st.floats(0.0, 500.0)
# offsets from D'*tau = 2H within 2e-9 of A = 1
GUARD = st.floats(-2e-9, 2e-9)


@st.composite
def lag_bands(draw, sc):
    bands = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            tau = 2.0 * sc.h / sc.dprime * (1.0 + draw(GUARD))
        else:
            tau = draw(st.floats(0.01, 30.0))
        bands.append(LagBand(pfr=draw(PFR), tau=tau))
    return bands


RAMP_BANDS = st.lists(st.builds(RampBand, pfr=PFR, t_r=st.floats(0.01, 30.0)),
                      min_size=1, max_size=3)


@st.composite
def cases(draw):
    """(system, lag bands, ramp bands, sample times) for one under-frequency event."""
    sc = draw(SYSTEMS)
    dt = draw(st.floats(1e-3, 0.5))
    times = np.arange(draw(st.integers(1, 400))) * dt
    return sc, draw(lag_bands(sc)), draw(RAMP_BANDS), times


def mirrored(sc, bands):
    return (SystemConditions(sc.f_n, sc.ke, sc.p_load, sc.d, -sc.p_cont),
            [LagBand(-b.pfr, b.tau) if isinstance(b, LagBand) else RampBand(-b.pfr, b.t_r)
             for b in bands])


def identical(a, b):
    """Equal sample for sample, down to the sign of zeros, which CSV output prints."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


BASE = SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)
FIG_TIMES = np.arange(3001) * 0.01


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(case=cases())
    @example(case=(BASE, [LagBand(270.0, 2.0)], [RampBand(270.0, 6.0)], FIG_TIMES))
    @example(case=(BASE, [LagBand(270.0, 6.0)], [RampBand(270.0, 6.0)], FIG_TIMES))  # -0.0 at t = 0
    @example(case=(BASE, [LagBand(130.0, 0.4), LagBand(80.0, 2.0), LagBand(50.0, 4.5)],
                   [RampBand(270.0, 1.0), RampBand(20.0, 1.0)], FIG_TIMES))
    @example(case=(BASE, [LagBand(270.0, 4.5)], [RampBand(270.0, 1.0)], FIG_TIMES))  # A = 1
    def test_bit_identical(self, case):
        sc, lags, ramps, t = case
        assert identical(delta_f(sc, lags, t), reference_multi_lag_delta_f(sc, lags, t))
        assert identical(delta_f(sc, ramps, t), reference_multi_ramp_delta_f(sc, ramps, t))
        mixed = lags + ramps
        assert identical(total_pfr_value(mixed, t), reference_total_pfr_value(mixed, t))
        neg = mirrored(sc, mixed)[1]
        assert identical(total_pfr_value(neg, t), reference_total_pfr_value(neg, t))

    @settings(max_examples=300, deadline=None)
    @given(case=cases())
    @example(case=(BASE, [LagBand(10.0, 1.0), LagBand(20.0, 1.0), LagBand(30.0, 1.0)],
                   [RampBand(10.0, 2.0), RampBand(20.0, 2.0), RampBand(30.0, 2.0)],
                   FIG_TIMES))
    def test_over_frequency_is_an_exact_mirror(self, case):
        sc, lags, ramps, t = case
        for bands in (lags, ramps):
            neg_sc, neg_bands = mirrored(sc, bands)
            assert np.array_equal(delta_f(neg_sc, neg_bands, t), -delta_f(sc, bands, t))

    def test_figure_traces_unchanged(self):
        for bands, kind, reference in (
            ([LagBand(270.0, 2.0)], "lag", reference_multi_lag_delta_f),
            ([LagBand(130.0, 0.4), LagBand(80.0, 2.0)], "lag", reference_multi_lag_delta_f),
            ([LagBand(270.0, 4.5), LagBand(30.0, 6.0)], "lag", reference_multi_lag_delta_f),
            ([RampBand(270.0, 1.0)], "ramp", reference_multi_ramp_delta_f),
        ):
            got = trace(BASE, bands, 30.0, 0.001, kind).samples
            assert identical(got, reference(BASE, bands, np.arange(30001) * 0.001))


class TestKindIsChecked:
    def test_trace_rejects_the_other_kind(self):
        with pytest.raises(InvalidInputError, match="RampBand"):
            trace(BASE, [RampBand(100.0, 2.0)], 1.0, 0.01, "lag")
        with pytest.raises(InvalidInputError, match="LagBand"):
            trace(BASE, [RampBand(100.0, 2.0), LagBand(100.0, 2.0)], 1.0, 0.01, "ramp")

    def test_multi_functions_reject_the_other_kind(self):
        with pytest.raises(InvalidInputError, match="RampBand"):
            delta_f(BASE, [LagBand(100.0, 2.0), RampBand(100.0, 2.0)], 1.0)
