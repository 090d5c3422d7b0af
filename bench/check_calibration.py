"""Does the host-speed adjustment pass a slowdown of the program through?

    python3 bench/check_calibration.py [--workload screen|validate|reduce] [--seconds 30]

Each input of a workload runs in three variants, one right after another so
that all three see the same host: the plain operation, the operation followed
by a fixed busy loop, and the operation followed by allocating and freeing as
many small objects. Both extras cost about a quarter of the plain operation
and run inside the timed region, as a slower program would. Each operation is
followed by the workload's calibration sample, and each variant's times are
host-adjusted over its own samples, as a benchmark run adjusts them. The
adjusted times must grow by the same share as the raw ones: the calibration
sample after an operation must not absorb the operation's extra work (for
example, garbage-collection passes that its allocations set off). Exits 1 if
an adjusted growth falls outside 0.8 to 1.25 times the raw growth.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import workloads  # noqa: E402
from run import OUT, ROOT  # noqa: E402
from tracing import layers  # noqa: E402

EXTRA_SHARE = 0.25
# allowed adjusted growth, as a share of the raw growth
AGREEMENT = (0.8, 1.25)


def busy(n):
    x = 0.0
    for i in range(n):
        x += i * 0.5
    return x


def allocate(n):
    objs = [{"i": i, "v": float(i)} for i in range(n)]
    return len(objs)


def _size(extra, target_ns):
    """Iterations of extra(n) that take about target_ns."""
    n = 1000
    while True:
        t0 = time.perf_counter_ns()
        extra(n)
        took = time.perf_counter_ns() - t0
        if took > target_ns / 4:
            return max(int(n * target_ns / took), 1)
        n *= 4


def _timed(wl, L, item, extra, n):
    t0 = time.perf_counter_ns()
    wl.run(L, item)
    if extra is not None:
        extra(n)
    took = time.perf_counter_ns() - t0
    return took, calibration.sample(wl.calibration)


def check(name, seconds, seed=1):
    sk = workloads.load_sfrkit(ROOT)
    L = layers(sk.modules)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[name](sk, seed, workdir)
        task = wl.calibration
        plain = [_timed(wl, L, item, None, 0)[0] for item in wl.round]
        target = EXTRA_SHARE * float(np.median(plain))
        variants = {"plain": (None, 0), "busy": (busy, _size(busy, target)),
                    "allocate": (allocate, _size(allocate, target))}
        times = {v: ([], []) for v in variants}  # variant -> (op ns, calibration ns)
        start, rounds = time.perf_counter(), 0
        while time.perf_counter() - start < seconds or rounds == 0:
            for k, item in enumerate(wl.round):
                order = list(variants)[k % 3:] + list(variants)[:k % 3]
                for v in order:
                    op, cal = _timed(wl, L, item, *variants[v])
                    times[v][0].append(op)
                    times[v][1].append(cal)
            rounds += 1
    raw = {v: np.array(op, dtype=float) for v, (op, _) in times.items()}
    adj = {v: calibration.adjust(op, cal, task) for v, (op, cal) in times.items()}
    ok = True
    for v in ("busy", "allocate"):
        # each input against its own plain run, made moments apart
        g_raw = float(np.median(raw[v] / raw["plain"])) - 1.0
        g_adj = float(np.median(adj[v] / adj["plain"])) - 1.0
        agree = AGREEMENT[0] * g_raw <= g_adj <= AGREEMENT[1] * g_raw
        ok &= agree
        print(f"{name} +{v}: raw {g_raw:+.1%}, adjusted {g_adj:+.1%} over {len(raw[v])} "
              f"operations{'' if agree else '  DISAGREE'}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["all", "screen", "validate", "reduce"], default="all")
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    names = ["screen", "validate", "reduce"] if args.workload == "all" else [args.workload]
    ok = [check(n, args.seconds) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
