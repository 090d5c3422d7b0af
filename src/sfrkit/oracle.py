"""Fixed-step numerical integration of the frequency-response ODE.

This is the ground truth the closed forms are validated against. RK4 with a
1 ms step makes the integration error negligible next to the 1e-3 Hz
comparison tolerances used elsewhere; forward Euler is kept for step-size
studies.

The ODE y' = a(t) - lam*y is linear and first order, so one step of either
scheme is an affine map of the state: y[n+1] = g*y[n] + c[n]. The gain g and
the weights on the forcing are read off the RK4 step by evaluating it on unit
inputs (for Euler, g = 1 - h*lam and c = h*a), c is one vector expression
over the sampled forcing, and the recurrence is solved by a log-step doubling
scan of about log2(n) array passes instead of n interpreted steps. This is the
same scheme; only the rounding differs. The scan carries the powers of g as
g^s - 1, which keeps them exact to a few ulps where g is within h*lam of 1;
on the bundled lag scenarios the trace then matches the exact closed form to
about 1e-15 Hz.

A step with |g| > 1 makes the recurrence grow without bound, so integrate
rejects it with InvalidInputError naming dt and the largest stable step
(h*lam <= 2 for Euler, about 2.785 for RK4). lam = 0 gives g = 1 and is kept.
The grid itself follows model._grid_steps; IntegrationSpec adds dt <= 10 ms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import FrequencyTrace, SystemConditions, _grid_steps

__all__ = ["RK4", "FORWARD_EULER", "IntegrationSpec", "integrate", "trace_nadir"]

RK4 = "rk4"
FORWARD_EULER = "euler"
# largest stable h*lam: the real root of R(-x) = 1 for each stability polynomial
# (RK4: x^3 - 4x^2 + 12x - 24 = 0; Euler: |1 - x| = 1)
_STABLE_H_LAM = {RK4: 2.785293563405282, FORWARD_EULER: 2.0}


@dataclass(frozen=True)
class IntegrationSpec:
    t_end: float
    dt: float = 0.001
    method: str = RK4

    def __post_init__(self):
        if not 0 < self.dt <= 0.01:
            raise InvalidInputError(f"dt must be in (0, 0.01], got {self.dt}")
        _grid_steps(self.t_end, self.dt)
        if self.method not in (RK4, FORWARD_EULER):
            raise InvalidInputError(f"method must be '{RK4}' or '{FORWARD_EULER}'")


def _eval_p(p_of_t, times: np.ndarray) -> np.ndarray:
    """Evaluate a PFR callable on a grid, tolerating scalar-only callables."""
    try:
        values = np.asarray(p_of_t(times), dtype=float)
        if values.shape == times.shape:
            return values
    except (TypeError, ValueError):
        pass
    return np.array([float(p_of_t(float(t))) for t in times])


def _rk4_increment(y, a0, ah, a1, lam, dt):
    """y[n+1] - y[n] for one classical RK4 step of y' = a(t) - lam*y."""
    half = dt / 2.0
    k1 = a0 - lam * y
    k2 = ah - lam * (y + half * k1)
    k3 = ah - lam * (y + half * k2)
    k4 = a1 - lam * (y + dt * k3)
    return dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _linear_scan(d: float, c: np.ndarray) -> np.ndarray:
    """Solve y[0] = 0, y[n+1] = (1 + d)*y[n] + c[n] by log-step doubling.

    After the pass with stride s, y[k] sums the last 2s terms of
    sum_j g^(k-1-j) * c[j] with g = 1 + d; the product on the right is formed
    before the in-place add, so each pass reads the previous pass's values.
    The power g^s is carried as g^s - 1, squared by g^2s - 1 = d*(2 + d): for
    g near 1 this keeps full relative precision, where squaring g itself would
    compound its rounding s-fold.
    """
    y = np.empty(len(c) + 1)
    y[0] = 0.0
    y[1:] = c
    s = 1
    while s < len(c):
        y[s + 1:] += (1.0 + d) * y[1:-s]
        d *= 2.0 + d
        s *= 2
    return y


def integrate(sc: SystemConditions, p_of_t, spec: IntegrationSpec) -> FrequencyTrace:
    """Integrate d(df)/dt = [p(t) - P_cont - D'*df] / (2H) from df(0) = 0.

    Raises InvalidInputError when dt is beyond the method's stability limit.
    """
    dt = spec.dt
    n = _grid_steps(spec.t_end, dt)
    lam = sc.dprime / (2.0 * sc.h)
    scale = 1.0 / (2.0 * sc.h)

    # one step is y -> (1 + d)*y + c: d is the step's response to y = 1 alone
    if spec.method == RK4:
        # forcing term at whole and half steps: a(t) = (p(t) - P_cont)/(2H)
        a = scale * (_eval_p(p_of_t, np.arange(2 * n + 1) * (dt / 2.0)) - sc.p_cont)
        d = _rk4_increment(1.0, 0.0, 0.0, 0.0, lam, dt)
        w0 = _rk4_increment(0.0, 1.0, 0.0, 0.0, lam, dt)
        wh = _rk4_increment(0.0, 0.0, 1.0, 0.0, lam, dt)
        w1 = _rk4_increment(0.0, 0.0, 0.0, 1.0, lam, dt)
        c = w0 * a[0:-1:2] + wh * a[1::2] + w1 * a[2::2]
    else:
        d = -dt * lam
        c = dt * (scale * (_eval_p(p_of_t, np.arange(n) * dt) - sc.p_cont))
    if not abs(1.0 + d) <= 1.0:
        raise InvalidInputError(
            f"dt={dt} s is unstable for {spec.method} with D'/(2H)={lam:.6g} 1/s "
            f"(step gain {1.0 + d:.6g}); the largest stable step is "
            f"{_STABLE_H_LAM[spec.method] / lam:.6g} s")
    return FrequencyTrace(t0=0.0, dt=dt, samples=_linear_scan(d, c))


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
    return trace.t0 + trace.dt * idx, float(samples[idx])
