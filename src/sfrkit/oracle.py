"""Fixed-step numerical integration of the frequency-response ODE.

This is the ground truth the closed forms are validated against. RK4 with a
1 ms step makes the integration error negligible next to the 1e-3 Hz
comparison tolerances used elsewhere; forward Euler is kept for step-size
studies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import FrequencyTrace, SystemConditions

__all__ = ["RK4", "FORWARD_EULER", "IntegrationSpec", "integrate", "trace_nadir"]

RK4 = "rk4"
FORWARD_EULER = "euler"
# RK4 evaluates the forcing at 2 * steps + 1 points: 10 million steps take 160 MB
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class IntegrationSpec:
    t_end: float
    dt: float = 0.001
    method: str = RK4

    def __post_init__(self):
        if not 0 < self.dt <= 0.01:
            raise InvalidInputError(f"dt must be in (0, 0.01], got {self.dt}")
        if self.t_end < self.dt:
            raise InvalidInputError(f"t_end must be >= dt, got {self.t_end}")
        if not self.t_end / self.dt <= _MAX_STEPS:
            raise InvalidInputError(f"t_end/dt must be <= {_MAX_STEPS} steps, "
                                    f"got t_end={self.t_end}, dt={self.dt}")
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


def integrate(sc: SystemConditions, p_of_t, spec: IntegrationSpec) -> FrequencyTrace:
    """Integrate d(df)/dt = [p(t) - P_cont - D'*df] / (2H) from df(0) = 0."""
    n = int(round(spec.t_end / spec.dt))
    dt = spec.dt
    half = dt / 2.0
    lam = sc.dprime / (2.0 * sc.h)
    scale = 1.0 / (2.0 * sc.h)

    if spec.method == RK4:
        # forcing term at whole and half steps: a(t) = (p(t) - P_cont)/(2H)
        a = scale * (_eval_p(p_of_t, np.arange(2 * n + 1) * half) - sc.p_cont)
    else:
        a = scale * (_eval_p(p_of_t, np.arange(n) * dt) - sc.p_cont)

    out = np.empty(n + 1)
    out[0] = 0.0
    y = 0.0
    if spec.method == RK4:
        for i in range(n):
            a0 = a[2 * i]
            ah = a[2 * i + 1]
            a1 = a[2 * i + 2]
            k1 = a0 - lam * y
            k2 = ah - lam * (y + half * k1)
            k3 = ah - lam * (y + half * k2)
            k4 = a1 - lam * (y + dt * k3)
            y += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i + 1] = y
    else:
        for i in range(n):
            y += dt * (a[i] - lam * y)
            out[i + 1] = y
    return FrequencyTrace(t0=0.0, dt=dt, samples=out)


def trace_nadir(trace: FrequencyTrace):
    """Grid extremum of a trace: (time, deviation).

    The sign of the final deviation selects the direction (most negative for
    under-frequency, most positive for over-frequency); ties break earliest.
    """
    samples = trace.samples
    idx = int(np.argmin(samples)) if samples[-1] <= 0 else int(np.argmax(samples))
    return trace.t0 + trace.dt * idx, float(samples[idx])
