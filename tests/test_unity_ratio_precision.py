"""The closed forms against 60-digit references across A = D'tau/2H = 1.

A = 1 is a removable singularity of the lag term, the nadir time and the
nadir depth. The references evaluate the paper's direct forms in stdlib
`decimal` at 60 digits, exact for the double inputs the closed forms see,
so the cancellation of terms of size 1/(A - 1) costs them nothing: at
|A - 1| = 1e-12 they keep about 45 digits. The points run over
K = P_cont/PFR in {0.14, 0.5, 1, 1/0.7, 3} and A - 1 in {0, +-1e-12, ...,
+-1}, under- and over-frequency alike. Two small K, 0.0012 and 0.01, run
over the same offsets: there the shape factor is of order K^2 while the
paper's terms are of order 1.

Bounds:
- the shape factor of closedform._nadir_terms and lag_nadir's depth: 1e-13
  relative, 1e-12 at the small K;
- lag_nadir's time: 1e-13 relative;
- delta_f on a 0.5 s grid over 30 s and at the nadir time: 1e-15 of
  the largest |deviation| on the grid.
"""
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sfrkit import INTERIOR_MINIMUM, LagBand, SystemConditions, delta_f, lag_nadir
from sfrkit.closedform import B_EPS, _nadir_terms

DIGITS = 60
SHAPE_REL = 1e-13
SMALL_K_SHAPE_REL = 1e-12
TIME_REL = 1e-13
CURVE_OF_PEAK = 1e-15

KS = (0.14, 0.5, 1.0, 1.0 / 0.7, 3.0)
SMALL_KS = (0.0012, 0.01)
OFFSETS = (0.0,) + tuple(s * 10.0**-j for j in range(12, -1, -1) for s in (1.0, -1.0))
TIMES = np.arange(61) * 0.5
# the base system, 2H/D' = 4.5 s; D' and H are exact doubles
BASE = dict(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04)


def _d(x):
    return Decimal(float(x))


def ref_shape(k, a):
    """(C + K - 1) B^-C - C B^(-C/A) - K + 1, or 1 - K - e^-K at A = 1, in Decimal."""
    one = Decimal(1)
    if a == one:
        return one - k - (-k).exp()
    c = a / (a - one)
    ln_b = (one + k * (a - one)).ln()
    return (c + k - one) * (-c * ln_b).exp() - c * (-ln_b / (a - one)).exp() - k + one


def ref_time(k, a, tau):
    """tau ln(B) / (A - 1), or K tau at A = 1, in Decimal."""
    one = Decimal(1)
    if a == one:
        return k * tau
    return tau * (one + k * (a - one)).ln() / (a - one)


def ref_curve(dprime, h, p_cont, pfr, tau, t):
    """The single-band lag deviation at time t, in Decimal."""
    two_h = 2 * h
    decay = (-dprime * t / two_h).exp()
    step = (pfr - p_cont) / dprime * (1 - decay)
    denom = dprime * tau - two_h
    if denom == 0:
        return step - pfr * t * decay / two_h
    return step - pfr * tau / denom * ((-t / tau).exp() - decay)


def _points():
    """(K, A) for every interior point of the plane above, as doubles."""
    for k in KS + SMALL_KS:
        for off in OFFSETS:
            a = 1.0 + off
            if a > 0.0 and 1.0 + k * off > B_EPS:
                yield k, a


def _rel(got, want):
    return abs((Decimal(got) - want) / want)


def _shape_rel(k):
    return SMALL_K_SHAPE_REL if k in SMALL_KS else SHAPE_REL


@pytest.mark.parametrize("k", KS + SMALL_KS)
def test_shape_factor(k):
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for kk, a in _points():
            if kk == k:
                worst = max(worst, _rel(_nadir_terms(k, a)[2], ref_shape(_d(k), _d(a))))
    assert worst <= _shape_rel(k)


def _case(k, a, over):
    sign = -1.0 if over else 1.0
    sc = SystemConditions(p_cont=sign * 300.0, **BASE)
    return sc, LagBand(pfr=sign * 300.0 / k, tau=a * 2.0 * sc.h / sc.dprime)


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("k", KS + SMALL_KS)
def test_lag_nadir_and_curve(k, over):
    worst_depth = worst_time = worst_curve = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for kk, a in _points():
            if kk != k:
                continue
            sc, band = _case(k, a, over)
            dprime, h, p_cont = _d(sc.dprime), _d(sc.h), _d(sc.p_cont)
            pfr, tau = _d(band.pfr), _d(band.tau)
            kd, ad = p_cont / pfr, dprime * tau / (2 * h)
            result = lag_nadir(sc, band)
            assert result.kind == INTERIOR_MINIMUM
            worst_depth = max(worst_depth, _rel(result.delta_f_nadir,
                                                pfr / dprime * ref_shape(kd, ad)))
            worst_time = max(worst_time, _rel(result.t_nadir, ref_time(kd, ad, tau)))

            times = np.append(TIMES, result.t_nadir)
            got = delta_f(sc, [band], times)
            want = [ref_curve(dprime, h, p_cont, pfr, tau, _d(t)) for t in times]
            peak = max(abs(w) for w in want)
            worst_curve = max(worst_curve, max(abs(Decimal(g) - w) for g, w in zip(got, want))
                              / peak)
    assert worst_depth <= _shape_rel(k)
    assert worst_time <= TIME_REL
    assert worst_curve <= CURVE_OF_PEAK

