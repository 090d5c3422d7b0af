"""Fixed-step numerical integration of the frequency-response ODE.

This is the ground truth the closed forms are validated against. RK4 with a
1 ms step makes the integration error negligible next to the 1e-3 Hz
comparison tolerances used elsewhere; forward Euler is kept for step-size
studies.

The ODE y' = a(t) - lam*y is linear and first order, so one step of either
scheme is an affine map of the state: y[n+1] = g*y[n] + c[n]. The gain g and
the weights on the forcing are read off the RK4 step by evaluating it on unit
inputs (for Euler, g = 1 - h*lam and c = h*a), and the recurrence is solved
by a log-step doubling scan of about log2(n) array passes instead of n
interpreted steps. This is the same scheme; only the rounding differs. The
scan carries the powers of g as g^s - 1, which keeps them exact to a few ulps
where g is within h*lam of 1; on the bundled lag scenarios the trace then
matches the exact closed form to about 1e-15 Hz.

The forcing is sampled on two contiguous grids, whole steps (2k)*(dt/2) and
half steps (2k + 1)*(dt/2). a(t), c and the scan are computed in place, c
term by term as (w0*a[k] + wh*a[k + 1/2]) + w1*a[k + 1], with one work buffer
reused by every pass of the scan. Each value is the double that the
one-expression form w0*a0 + wh*ah + w1*a1 over one stride-2 grid gives.

A step with |g| > 1 makes the recurrence grow without bound, so integrate
rejects it with InvalidInputError naming dt and the largest stable step
(h*lam <= 2 for Euler, about 2.785 for RK4). lam = 0 gives g = 1 and is kept.
The grid itself follows model._grid_steps; IntegrationSpec adds dt <= 10 ms.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .model import FrequencyTrace, SystemConditions, _grid_steps, _record, _shown

__all__ = ["RK4", "FORWARD_EULER", "IntegrationSpec", "integrate", "trace_nadir"]

RK4 = "rk4"
FORWARD_EULER = "euler"
# largest stable h*lam: the real root of R(-x) = 1 for each stability polynomial
# (RK4: x^3 - 4x^2 + 12x - 24 = 0; Euler: |1 - x| = 1)
_STABLE_H_LAM = {RK4: 2.785293563405282, FORWARD_EULER: 2.0}


@_record
class IntegrationSpec:
    t_end: float
    dt: float = 0.001
    method: str = RK4

    def __post_init__(self):
        if not 0 < self.dt <= 0.01:
            raise InvalidInputError(f"dt must be in (0, 0.01], got {_shown(self.dt)}")
        _grid_steps(self.t_end, self.dt)
        if self.method not in (RK4, FORWARD_EULER):
            raise InvalidInputError(f"method must be '{RK4}' or '{FORWARD_EULER}'")


def _forcing(p_of_t, steps: np.ndarray, unit: float, p_cont: float, scale: float) -> np.ndarray:
    """a(t) = (p(t) - P_cont)/(2H) at t = steps*unit, computed in place over steps.

    p_of_t is called once, on the array of times; its result is only read, never written.
    """
    steps *= unit
    values = np.asarray(p_of_t(steps), dtype=float)
    if values.shape not in (steps.shape, ()):
        raise InvalidInputError(f"p(t) returned shape {values.shape} for times of shape "
                                f"{steps.shape}: it must return one value per time, or a constant")
    np.subtract(values, p_cont, out=steps)
    steps *= scale
    return steps


def _rk4_increment(y, a0, ah, a1, lam, dt):
    """y[n+1] - y[n] for one classical RK4 step of y' = a(t) - lam*y."""
    half = dt / 2.0
    k1 = a0 - lam * y
    k2 = ah - lam * (y + half * k1)
    k3 = ah - lam * (y + half * k2)
    k4 = a1 - lam * (y + dt * k3)
    return dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _linear_scan(d: float, y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Solve y[0] = 0, y[n+1] = (1 + d)*y[n] + c[n] in place, given y = [0, c].

    The solve is a log-step doubling scan. After the pass with stride s, y[k]
    sums the last 2s terms of sum_j g^(k-1-j) * c[j] with g = 1 + d. Each pass
    forms its product in work, which holds at least len(y) - 2 floats, before
    the in-place add, so it reads the previous pass's values.
    The power g^s is carried as g^s - 1, squared by g^2s - 1 = d*(2 + d): for
    g near 1 this keeps full relative precision, where squaring g itself would
    compound its rounding s-fold.
    """
    n = len(y) - 1
    s = 1
    while s < n:
        prod = np.multiply(y[1:-s], 1.0 + d, out=work[:n - s])
        y[s + 1:] += prod
        d *= 2.0 + d
        s *= 2
    return y


def integrate(sc: SystemConditions, p_of_t, spec: IntegrationSpec) -> FrequencyTrace:
    """Integrate d(df)/dt = [p(t) - P_cont - D'*df] / (2H) from df(0) = 0.

    p_of_t takes the array of sample times and returns an array of the same
    shape, or a constant; wrap a function of one float in np.vectorize. Raises
    InvalidInputError for any other result, and when dt is beyond the method's
    stability limit.
    """
    dt = spec.dt
    n = _grid_steps(spec.t_end, dt)
    lam = sc.dprime / (2.0 * sc.h)
    scale = 1.0 / (2.0 * sc.h)

    # one step is y -> (1 + d)*y + c: d is the step's response to y = 1 alone;
    # y = [0, c] is filled in place and scanned
    if spec.method == RK4:
        whole = _forcing(p_of_t, np.arange(0.0, 2 * n + 1, 2.0), dt / 2.0, sc.p_cont, scale)
        half = _forcing(p_of_t, np.arange(1.0, 2 * n, 2.0), dt / 2.0, sc.p_cont, scale)
        d = _rk4_increment(1.0, 0.0, 0.0, 0.0, lam, dt)
        w0 = _rk4_increment(0.0, 1.0, 0.0, 0.0, lam, dt)
        wh = _rk4_increment(0.0, 0.0, 1.0, 0.0, lam, dt)
        w1 = _rk4_increment(0.0, 0.0, 0.0, 1.0, lam, dt)
        # c = (w0*a[k] + wh*a[k + 1/2]) + w1*a[k + 1]
        y = np.empty(n + 1)
        c = y[1:]
        np.multiply(whole[:-1], w0, out=c)
        half *= wh
        c += half
        c += np.multiply(whole[1:], w1, out=half)
        work = half
    else:
        d = -dt * lam
        work = _forcing(p_of_t, np.arange(n, dtype=float), dt, sc.p_cont, scale)
        y = np.empty(n + 1)
        np.multiply(work, dt, out=y[1:])
    y[0] = 0.0
    if not abs(1.0 + d) <= 1.0:
        raise InvalidInputError(
            f"dt={dt} s is unstable for {spec.method} with D'/(2H)={lam:.6g} 1/s "
            f"(step gain {1.0 + d:.6g}); the largest stable step is "
            f"{_STABLE_H_LAM[spec.method] / lam:.6g} s")
    return FrequencyTrace(dt=dt, samples=_linear_scan(d, y, work))


def trace_nadir(trace: FrequencyTrace):
    """Grid extremum of a trace: (time, deviation).

    The first nonzero sample, which moves with the contingency because every
    band starts at 0 MW, selects the direction: most negative for under-,
    most positive for over-frequency, even if the response overshoots later.
    Ties break earliest.
    """
    samples = trace.samples
    moved = np.flatnonzero(samples)
    under = moved.size == 0 or samples[moved[0]] < 0
    idx = int(np.argmin(samples)) if under else int(np.argmax(samples))
    return trace.dt * idx, float(samples[idx])
