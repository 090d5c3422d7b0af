"""Fixed calibration tasks that track the host's speed during a run.

On a shared host the same operation can run at very different speeds from
one second to the next: on the 2-vCPU machine this benchmark was written on,
a `screen` batch took 1.6-1.8 ms in some stretches and 2.9-3.4 ms in others,
with no steal time and the second vCPU idle, so the slowdown comes from
outside the machine. Median times of whole runs then moved by up to 44%
between runs of identical code.

After every in-process operation the benchmark runs the calibration task of
its workload, outside the timed region. Each task is the benchmark's own
code, never sfrkit's, and resembles its workload's hot path, so both slow
down together. An operation's time is divided by the host factor, the
sample after it over the task's nominal time.
The nominal times were measured on that machine in its slower, more common
state, so adjusted figures read as milliseconds on it.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def objects():
    """Small objects, dicts, scalar math and exceptions, like `screen`."""
    arr = np.arange(50.0)
    out = []
    for i in range(300):
        d = {"x": float(i), "y": i * 0.5}
        p = _Point(d["x"], d["y"])
        try:
            v = math.exp(-p.x / 300.0) + math.log1p(p.y)
            if i % 7 == 0:
                raise ValueError(i)
        except ValueError:
            v = 0.0
        out.append(v + float(arr[i % 50]))
    return out


_FORCING = np.linspace(0.0, 1.0, 6001)


def recurrence():
    """A scalar RK4 loop over array elements, like `validate`."""
    a, lam, dt = _FORCING, 0.2, 0.01
    half = dt / 2.0
    out = np.empty(3001)
    y = 0.0
    for i in range(3000):
        a0, ah, a1 = a[2 * i], a[2 * i + 1], a[2 * i + 2]
        k1 = a0 - lam * y
        k2 = ah - lam * (y + half * k1)
        k3 = ah - lam * (y + half * k2)
        k4 = a1 - lam * (y + dt * k3)
        y += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


_TIMES = np.arange(3001) * 0.01


def vectors():
    """Vector exponentials, Jacobians and 2 x 2 solves, like `reduce`."""
    total = 0.0
    for tau in np.linspace(0.5, 2.0, 40):
        e = np.exp(-_TIMES / tau)
        shape = 1.0 - e
        jac = np.stack([shape, _TIMES * e], axis=1)
        total += float(np.linalg.solve(jac.T @ jac + np.eye(2), jac.T @ shape)[0])
    return total


# task -> nominal time, ns
NOMINAL_NS = {objects: 870_000, recurrence: 7_500_000, vectors: 3_700_000}


def sample(task):
    """Time one run of a calibration task, ns.

    The task runs once untimed first. Timed straight after an operation, it
    ran up to 16% slower when the operation ended in other work than its own
    (`check_calibration.py`), and so hid part of a slowdown; warmed by its own
    first run, it does not depend on what the operation left behind.
    """
    task()
    t0 = time.perf_counter_ns()
    task()
    return time.perf_counter_ns() - t0


def adjust(op_ns, cal_ns, task):
    """Operation times, each divided by the host factor of its own sample.

    The host's speed changes within a second, so the sample taken right
    after an operation tracks it best: over six 25 s `validate` runs the
    spread of the p90 was 0.03 this way, against 0.08 and 0.13 with the
    median of the nearest 9 and 17 samples.
    """
    return np.asarray(op_ns, dtype=float) * NOMINAL_NS[task] / np.asarray(cal_ns, dtype=float)
