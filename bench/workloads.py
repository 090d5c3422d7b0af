"""The four benchmark workloads: inputs, the timed operation and its checks.

Every workload is a closed loop with one client and one operation in flight.
Inputs come from a seeded generator; an operation never sees the seed. A
run repeats whole rounds of the same operations, so each run does the same
mix whatever its length. `run` is the timed operation; `check` runs after it,
outside the timed region, and `final_checks` runs once after the timed loop.
Heavier checks are made on the first occurrence of each distinct input;
repeats must reproduce that output exactly, since the program documents
identical inputs giving identical results.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import calibration as cal
import reference as ref
from tracing import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
F_N = 50.0
T_END = 30.0
DT = 0.001
N_STEPS = int(round(T_END / DT))
# magnitude grid of the time-constant sweep, MW
SWEEP_GRID = tuple(20.0 * i for i in range(1, 11))
# interior nadirs require B above this documented guard
B_GUARD = 1e-9
GAP_LIMIT_HZ = 1e-3
# RK4 at 1 ms is far more accurate than this; a one-step shift is not
ORACLE_TOL_HZ = 1e-6


def _close(x, y, rel, abs_=0.0):
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


def _system_doc(ke, p_load, d, p_cont):
    return {"f_n_hz": F_N, "ke_mws": ke, "p_load_mw": p_load, "d_relief": d, "p_cont_mw": p_cont}


def _lag_doc(pfr, tau):
    return {"kind": "lag", "pfr_mw": pfr, "tau_s": tau}


def _derived(sysdoc):
    """D' and 2H from a scenario's system block."""
    return sysdoc["d_relief"] * sysdoc["p_load_mw"], 2.0 * sysdoc["ke_mws"] / sysdoc["f_n_hz"]


def _scenario_doc(rng, n_bands):
    """One system with one or two lag bands, as validate and cli use."""
    ke, p_load = rng.uniform(6000.0, 12000.0), rng.uniform(1500.0, 3000.0)
    d, p_cont = rng.uniform(0.02, 0.06), rng.uniform(200.0, 400.0)
    total = p_cont * rng.uniform(0.5, 1.3)
    if n_bands == 1:
        bands = [_lag_doc(total, rng.uniform(0.3, 3.0))]
    else:
        share = rng.uniform(0.2, 0.8)
        bands = [_lag_doc(total * share, rng.uniform(0.2, 1.0)),
                 _lag_doc(total * (1.0 - share), rng.uniform(1.0, 3.0))]
    return {"system": _system_doc(ke, p_load, d, p_cont), "bands": bands,
            "sim": {"t_end_s": T_END, "dt_s": DT}}


def _curve_of(doc, t):
    """Reference deviation for a scenario document on times t."""
    dprime, two_h = _derived(doc["system"])
    bands = doc["bands"]
    return ref.lag_curve(t, dprime, two_h, doc["system"]["p_cont_mw"],
                         [b["pfr_mw"] for b in bands], [b["tau_s"] for b in bands])


def _check_traces(doc, closed, numeric, where, closed_rel=1e-9):
    """Closed-form and oracle traces against the reference curve.

    closed_rel allows for the 9 significant digits of a CSV artifact.
    """
    errors = []
    if len(closed) != N_STEPS + 1 or len(numeric) != N_STEPS + 1:
        return [f"{where}: traces have {len(closed)} and {len(numeric)} samples, "
                f"expected {N_STEPS + 1}"]
    want = _curve_of(doc, np.arange(N_STEPS + 1) * DT)
    bad = np.abs(closed - want) > closed_rel * np.abs(want) + 1e-12
    if bad.any():
        i = int(np.argmax(bad))
        errors.append(f"{where}: closed form {closed[i]!r} != reference {want[i]!r} at sample {i}")
    gap = float(np.abs(numeric - want).max())
    if not gap <= ORACLE_TOL_HZ:
        errors.append(f"{where}: oracle departs from the reference by {gap:.3g} Hz")
    return errors


class _Workload:
    """Defaults: every operation is timed, adds no counts and has no late checks."""

    calibration = None  # task that tracks host speed for this workload, if any

    def timed(self, idx):
        return True

    def counts(self, idx, out):
        return {}

    def final_checks(self):
        return []


class _Repeats:
    """First output per distinct input; repeats must reproduce it exactly."""

    def __init__(self):
        self.first = {}

    def seen(self, idx, out, same):
        if idx not in self.first:
            self.first[idx] = out
            return []
        if same(self.first[idx], out):
            return []
        return [f"input {idx}: repeat gave a different output"]


# --- screen -----------------------------------------------------------------

# kinds of operating point in every batch, in batch order
SCREEN_BATCH = (["interior"] * 32 + ["asymptotic"] * 12 + ["a1_guard"] * 4 + ["b0_guard"] * 4
                + ["b0_interior"] * 4 + ["over"] * 8)
SCREEN_BATCHES = 32


class Screen(_Workload):
    """SCUC-style security screening of batches of operating points."""

    name = "screen"
    calibration = staticmethod(cal.objects)

    def __init__(self, sk, seed, workdir):
        self.sk = sk
        self.canon = sk.bandfit.CANONICAL_SURFACE
        self.k_policy = sk.applications.WEM_K_POLICY
        rng = random.Random(seed)
        self.round = [[self._point(rng, kind, i) for i, kind in enumerate(SCREEN_BATCH)]
                      for _ in range(SCREEN_BATCHES)]
        self.repeats = _Repeats()

    def _point(self, rng, kind, i):
        over = kind == "over"
        if over:
            kind = "interior" if (i // 2) % 2 else "asymptotic"
        p_load, d = rng.uniform(1500.0, 3500.0), rng.uniform(0.02, 0.06)
        dprime = d * p_load
        pfr1, pfr2 = rng.uniform(20.0, 200.0), rng.uniform(20.0, 200.0)
        tau_eq = float(ref.tau_model(self.canon.a, self.canon.b, self.canon.tau1, pfr1, pfr2))
        # alternate the contingency cap's regime: A >= 1 - 1/K is interior
        a_pol = rng.uniform(0.4, 1.8) if i % 2 == 0 else rng.uniform(0.05, 0.25)
        two_h = dprime * tau_eq / a_pol
        p_cont = rng.uniform(200.0, 400.0)
        if kind == "interior":
            k = rng.uniform(0.6, 3.0)
            b = rng.uniform(max(0.05, 1.0 - k) + 0.05, 3.0)
            a = 1.0 + (b - 1.0) / k
        elif kind == "asymptotic":
            k = rng.uniform(1.2, 4.0)
            a = 1.0 + (rng.uniform(max(-0.8, 1.0 - k + 0.02), -0.02) - 1.0) / k
        elif kind == "a1_guard":
            k = rng.uniform(0.6, 3.0)
            a = 1.0 + rng.uniform(-5e-10, 5e-10)
        elif kind == "b0_guard":
            k = rng.uniform(1.2, 4.0)
            a = 1.0 + (rng.uniform(-5e-10, 5e-10) - 1.0) / k
        else:  # b0_interior
            k = rng.uniform(1.2, 4.0)
            a = 1.0 + (10.0 ** rng.uniform(-8.0, -6.0) - 1.0) / k
        sign = -1.0 if over else 1.0
        tau = a * two_h / dprime
        doc = {"system": _system_doc(two_h * F_N / 2.0, p_load, d, sign * p_cont),
               "bands": [_lag_doc(sign * p_cont / k, tau)]}
        return SimpleNamespace(doc=doc, pfr1=pfr1, pfr2=pfr2, sign=sign,
                               df_max=-sign * rng.uniform(0.8, 1.5))

    def run(self, L, batch):
        lag_band = self.sk.model.LagBand
        policy_of = self.sk.applications.SecurityPolicy
        branch_error = self.sk.errors.BranchError
        canon, k_policy = self.canon, self.k_policy
        out = []
        for p in batch:
            sc = L.scenario_from_dict(p.doc)
            system = sc.system
            nadir = L.lag_nadir(system, sc.bands[0])
            eq = L.canonical_equivalent(p.pfr1, p.pfr2)
            eq_nadir = L.lag_nadir(system, lag_band(p.sign * eq.pfr_eq, eq.tau_eq))
            dp = L.derive_params(system)
            policy = policy_of(k_policy, p.df_max)
            try:
                cap, fallback = L.max_contingency(dp, policy, eq.tau_eq), False
            except branch_error:
                cap = L.asymptotic_max_contingency(dp, k_policy, p.df_max)
                fallback = True
            share = L.required_ffr_share(canon, eq.tau_eq)
            sens = L.sensitivity_report(dp, p.df_max, canon, p.pfr1, p.pfr2)
            out.append((nadir, eq, eq_nadir, cap, fallback, share, sens))
        return out

    def check(self, idx, out):
        return False, self.repeats.seen(idx, out, lambda a, b: a == b)

    def final_checks(self):
        points, outs = [], []
        for idx, out in sorted(self.repeats.first.items()):
            points.extend(self.round[idx])
            outs.extend(out)
        return self.check_points(points, outs)

    def check_points(self, points, outs):
        """Check every output against the reference math; returns error strings."""
        errors = []
        nadir_cases = []  # (point index, system doc, pfr, tau, NadirResult)
        cap_cases = []    # (point index, dprime, two_h, tau, cap, df_max, sign)
        canon = self.canon
        for j, (p, o) in enumerate(zip(points, outs)):
            nadir, eq, eq_nadir, cap, fallback, share, sens = o
            sysdoc, band = p.doc["system"], p.doc["bands"][0]
            dprime, two_h = _derived(sysdoc)
            nadir_cases.append((j, sysdoc, band["pfr_mw"], band["tau_s"], nadir))
            tau_eq = float(ref.tau_model(canon.a, canon.b, canon.tau1, p.pfr1, p.pfr2))
            if not (_close(eq.pfr_eq, p.pfr1 + p.pfr2, 1e-15) and _close(eq.tau_eq, tau_eq, 1e-12)):
                errors.append(f"point {j}: equivalent band {eq} != ({p.pfr1 + p.pfr2}, {tau_eq})")
            nadir_cases.append((j, sysdoc, p.sign * (p.pfr1 + p.pfr2), tau_eq, eq_nadir))

            # the cap: fallback exactly when the policy point is asymptotic
            k = self.k_policy
            b_pol = 1.0 + k * (dprime * tau_eq / two_h - 1.0)
            if fallback:
                settle = (cap / k - cap) / dprime
                if not (b_pol < B_GUARD and _close(settle, p.df_max, 1e-12)):
                    errors.append(f"point {j}: asymptotic cap {cap} settles at {settle}, "
                                  f"limit {p.df_max}, B={b_pol}")
            elif b_pol < -B_GUARD:
                errors.append(f"point {j}: interior cap returned with B={b_pol}")
            else:
                cap_cases.append((j, dprime, two_h, tau_eq, cap, p.df_max, p.sign))

            ratio = 1.0 / share - 1.0
            back = float(ref.tau_model(canon.a, canon.b, canon.tau1, 1.0, ratio))
            if not abs(back - tau_eq) <= 1e-9:
                errors.append(f"point {j}: share {share} maps to tau {back}, target {tau_eq}")

            fd = ref.k1_sensitivities(dprime, two_h / 2.0, p.df_max, canon.a, canon.b,
                                      canon.tau1, p.pfr1, p.pfr2)
            got = (sens.dp_dtau, sens.dp_dh, sens.dtau_dpfr1, sens.dtau_dpfr2,
                   sens.dp_dpfr1, sens.dp_dpfr2)
            for name, g, w in zip(("dp_dtau", "dp_dh", "dtau_dpfr1", "dtau_dpfr2",
                                   "dp_dpfr1", "dp_dpfr2"), got, fd):
                if not _close(g, w, 1e-6):
                    errors.append(f"point {j}: {name} {g} vs central difference {w}")

            if p.sign < 0:
                errors.extend(self._check_mirror(j, p, o))
        errors.extend(self._check_nadirs(nadir_cases))
        errors.extend(self._check_caps(cap_cases))
        return errors

    def _check_mirror(self, j, p, o):
        """Over-frequency outputs must be the exact negation of the mirrored case."""
        doc = copy.deepcopy(p.doc)
        doc["system"]["p_cont_mw"] *= -1.0
        doc["bands"][0]["pfr_mw"] *= -1.0
        mirror = SimpleNamespace(doc=doc, pfr1=p.pfr1, pfr2=p.pfr2, sign=1.0, df_max=-p.df_max)
        m = self.run(layers(self.sk.modules), [mirror])[0]
        (n, eq, en, cap, fb, share, sens), (mn, meq, men, mcap, mfb, mshare, msens) = o, m

        def neg(r, mr):
            return (r.kind == mr.kind and r.t_nadir == mr.t_nadir
                    and r.delta_f_nadir == -mr.delta_f_nadir and r.max_rocof == -mr.max_rocof)

        same = (neg(n, mn) and neg(en, men) and eq == meq and cap == -mcap and fb == mfb
                and share == mshare
                and (sens.dp_dtau, sens.dp_dh, sens.dp_dpfr1, sens.dp_dpfr2)
                == (-msens.dp_dtau, -msens.dp_dh, -msens.dp_dpfr1, -msens.dp_dpfr2)
                and (sens.dtau_dpfr1, sens.dtau_dpfr2) == (msens.dtau_dpfr1, msens.dtau_dpfr2))
        return [] if same else [f"point {j}: over-frequency result is not the exact mirror"]

    def _check_nadirs(self, cases):
        errors = []
        interior = []
        for j, sysdoc, pfr, tau, r in cases:
            dprime, two_h = _derived(sysdoc)
            p_cont = sysdoc["p_cont_mw"]
            k, a = p_cont / pfr, dprime * tau / two_h
            b = 1.0 + k * (a - 1.0)
            if not _close(r.max_rocof, -p_cont / two_h, 1e-12):
                errors.append(f"point {j}: max RoCoF {r.max_rocof} != {-p_cont / two_h}")
            if r.kind == "asymptotic":
                settle = (pfr - p_cont) / dprime
                if not (b <= 2.0 * B_GUARD and r.t_nadir is None
                        and _close(r.delta_f_nadir, settle, 1e-12)):
                    errors.append(f"point {j}: asymptotic nadir {r.delta_f_nadir} "
                                  f"(B={b}), settling value {settle}")
            elif r.kind == "interior_minimum" and b > 0 and r.t_nadir is not None and r.t_nadir > 0:
                interior.append((j, dprime, two_h, p_cont, pfr, tau, r.t_nadir, r.delta_f_nadir))
            else:
                errors.append(f"point {j}: nadir {r} inconsistent with B={b}")
        if interior:
            j, dprime, two_h, p_cont, pfr, tau, t, depth = (np.array(c) for c in zip(*interior))
            sign = np.sign(p_cont)

            def curve(tt):
                return ref.lag_curve(tt, dprime, two_h, p_cont, [pfr], [tau])

            at = curve(t)
            tol = 1e-7 + 1e-9 * np.abs(at)
            for i in np.flatnonzero(np.abs(depth - at) > tol):
                errors.append(f"point {j[i]}: nadir depth {depth[i]!r}, "
                              f"reference curve {at[i]!r} at t_nadir={t[i]!r}")
            # the nadir is the curve's extremum: no lower (under-frequency) point nearby
            floor = sign * at - 1e-12 * np.abs(at)
            for side in (1.0 - 1e-3, 1.0 + 1e-3):
                for i in np.flatnonzero(sign * curve(t * side) < floor):
                    errors.append(f"point {j[i]}: t_nadir={t[i]!r} is not a minimum of the curve")
        return errors

    def _check_caps(self, cases):
        """A contingency of the cap size, met by PFR = cap/K, just reaches df_max."""
        if not cases:
            return []
        j, dprime, two_h, tau, cap, df_max, sign = (np.array(c) for c in zip(*cases))
        k = self.k_policy

        def f(t):
            return sign * ref.lag_curve(t, dprime, two_h, cap, [cap / k], [tau])

        hi = 20.0 * np.maximum(tau, two_h / dprime)
        _, depth = ref.golden_min(f, np.zeros_like(hi), hi)
        depth = sign * depth
        return [f"point {j[i]}: the cap {cap[i]!r} reaches {depth[i]!r}, limit {df_max[i]!r}"
                for i in np.flatnonzero(np.abs(depth - df_max) > 1e-9 * np.abs(df_max))]


# --- validate ---------------------------------------------------------------

VALIDATE_ROUND = 8
# first occurrences checked against scipy's integrator as well
IVP_SUBSET = 2


class Validate(_Workload):
    """Closed form against the RK4 oracle on seeded scenario files."""

    name = "validate"
    calibration = staticmethod(cal.recurrence)

    def __init__(self, sk, seed, workdir):
        self.sk, self.workdir = sk, workdir
        rng = random.Random(seed)
        self.docs, self.round = [], []
        for i in range(VALIDATE_ROUND):
            doc = _scenario_doc(rng, 1 + i % 2)
            path = os.path.join(workdir, f"validate_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.docs.append(doc)
            self.round.append(path)
        self.repeats = _Repeats()

    def run(self, L, path):
        total_pfr = self.sk.model.total_pfr_value
        sc = L.load_scenario(path)
        closed = L.trace(sc.system, sc.bands, sc.t_end, sc.dt, "lag")
        spec = self.sk.oracle.IntegrationSpec(t_end=sc.t_end, dt=sc.dt)
        bands = sc.bands
        numeric = L.integrate(sc.system, lambda t: total_pfr(bands, t), spec)
        gap = float(np.abs(closed.samples - numeric.samples).max())
        return closed.samples, numeric.samples, gap

    def counts(self, idx, out):
        return {"oracle.steps": len(out[1]) - 1}

    def decompose(self, L, tracer, idx, op_ns):
        """Traced run only: `compare` on the operation's file, in process and by layer."""
        return decompose_compare(self.sk, L, tracer, self.workdir, self.round[idx], [],
                                 child_env(ROOT))

    def check(self, idx, out):
        errors = [] if out[2] <= GAP_LIMIT_HZ else [f"input {idx}: gap {out[2]!r} Hz"]
        same = lambda a, b: (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                             and a[2] == b[2])
        return False, errors + self.repeats.seen(idx, out, same)

    def final_checks(self):
        errors = []
        for idx, (closed, numeric, _) in sorted(self.repeats.first.items()):
            doc = self.docs[idx]
            errors += _check_traces(doc, closed, numeric, f"input {idx}")
            if idx < IVP_SUBSET:
                t = np.arange(0, N_STEPS + 1, 100) * DT
                dprime, two_h = _derived(doc["system"])
                ivp = ref.solve_ivp_curve(dprime, two_h, doc["system"]["p_cont_mw"],
                                          [b["pfr_mw"] for b in doc["bands"]],
                                          [b["tau_s"] for b in doc["bands"]], t)
                gap = float(np.abs(closed[::100] - ivp).max())
                if not gap <= 1e-9:
                    errors.append(f"input {idx}: closed form departs from solve_ivp "
                                  f"by {gap:.3g} Hz")
        return errors


# --- reduce -----------------------------------------------------------------

# (tau1 range, tau2 range) of each pair in a round: two nearly equal pairs,
# then one pair per cell of a 4 x 2 split of the paper's ranges
REDUCE_STRATA = (
    ((0.91, 1.0), None),
    ((0.2, 0.4), (1.1, 2.0)), ((0.4, 0.6), (2.0, 3.0)), ((0.6, 0.8), (1.1, 2.0)),
    ((0.8, 1.0), (2.0, 3.0)),
    ((0.91, 1.0), None),
    ((0.2, 0.4), (2.0, 3.0)), ((0.4, 0.6), (1.1, 2.0)), ((0.6, 0.8), (2.0, 3.0)),
    ((0.8, 1.0), (1.1, 2.0)),
)
REDUCE_SAMPLED_CELLS = 3
# the surface's residual over the benchmark's own cell fits may exceed the
# benchmark's least-squares optimum by this share (up to 3.2e-11 seen over
# seeds 101-110 and 401-410)
SURFACE_SSR_REL = 1e-6
# the program's and the benchmark's cell fits agree on tau_eq to about 1e-6
# relative; the recomputed rms_residual moved by up to 1.4e-7 s on those seeds
RMS_ABS_S = 1e-5
# the reduction must be near-exact when the two time constants nearly agree
NEAR_EQUAL_RATIO = 1.1
NEAR_EQUAL_MAX_MAPE = 0.5


class Reduce(_Workload):
    """One (tau1, tau2) cell of the time-constant sweep per operation."""

    name = "reduce"
    calibration = staticmethod(cal.vectors)

    def __init__(self, sk, seed, workdir):
        self.sk = sk
        rng = random.Random(seed)
        self.round, self.samples = [], []
        for r1, r2 in REDUCE_STRATA:
            tau1 = rng.uniform(*r1)
            tau2 = rng.uniform(max(1.0, tau1), NEAR_EQUAL_RATIO * tau1) if r2 is None \
                else rng.uniform(*r2)
            self.round.append((tau1, tau2))
            self.samples.append([(rng.choice(SWEEP_GRID), rng.choice(SWEEP_GRID))
                                 for _ in range(REDUCE_SAMPLED_CELLS)])
        self.distinct = len({p2 / p1 for p1 in SWEEP_GRID for p2 in SWEEP_GRID})
        self.repeats = _Repeats()

    def run(self, L, pair):
        tau1, tau2 = pair
        model = L.build_tau_surface(tau1, tau2, pfr_grid=SWEEP_GRID)
        report = L.mape_map(tau1, tau2, pfr_grid=SWEEP_GRID, model=model)
        return model, report

    def counts(self, idx, out):
        return {"bandfit.cells_fitted": len(SWEEP_GRID) ** 2,
                "bandfit.distinct_ratios": self.distinct}

    def check(self, idx, out):
        return False, self.repeats.seen(idx, out, lambda a, b: a == b)

    def final_checks(self):
        errors = []
        for idx, out in sorted(self.repeats.first.items()):
            errors += self.check_pair(self.round[idx], self.samples[idx], out, f"pair {idx}")
        return errors

    def check_pair(self, pair, sampled, out, where):
        bf, LagBand = self.sk.bandfit, self.sk.model.LagBand
        tau1, tau2 = pair
        model, report = out
        errors = []
        t = ref.fit_times(tau2)
        # the per-cell fits behind the surface: none worse than a dense tau scan
        for p1, p2 in sampled:
            y = ref.two_band(t, p1, tau1, p2, tau2)
            eq = bf.fit_equivalent_band(bf.TwoBandPfr(LagBand(p1, tau1), LagBand(p2, tau2)))
            ssr = ref.band_ssr(t, y, eq.pfr_eq, eq.tau_eq)
            scan = ref.dense_tau_scan(t, y, tau1 / 2.0, 2.0 * tau2)
            floor = 1e-14 * float(y @ y)
            if not ssr <= scan * (1.0 + 1e-9) + floor:
                errors.append(f"{where} cell ({p1}, {p2}): fit residual {ssr!r} "
                              f"above the dense scan's {scan!r}")
            if not _close(eq.fit_residual, ssr, 1e-6, floor):
                errors.append(f"{where} cell ({p1}, {p2}): reported residual "
                              f"{eq.fit_residual!r}, recomputed {ssr!r}")
        errors += self.check_surface(pair, model, where)
        # the map: recomputed from the surface coefficients alone
        want = ref.mape_cells(model.a, model.b, tau1, tau2, SWEEP_GRID)
        got = [c.mape_pct for c in report.cells]
        if len(got) != len(want) or not all(_close(g, w, 1e-9, 1e-12) for g, w in zip(got, want)):
            errors.append(f"{where}: MAPE cells differ from the recomputed map")
        elif not (_close(report.mean_pct, float(np.mean(want)), 1e-9)
                  and report.max_pct == max(got)):
            errors.append(f"{where}: MAPE summary {report.mean_pct}, {report.max_pct} "
                          f"does not match its cells")
        if tau2 / tau1 <= NEAR_EQUAL_RATIO and not report.max_pct <= NEAR_EQUAL_MAX_MAPE:
            errors.append(f"{where}: tau2/tau1={tau2 / tau1:.4f} but max MAPE {report.max_pct}%")
        return errors

    def check_surface(self, pair, model, where):
        """The surface against the benchmark's own fits of all 100 cells.

        Each cell's equivalent band is fitted apart from the program; (a, b)
        must then be a least-squares optimum over those (ratio, tau_eq) pairs,
        and rms_residual and pfr_plane_dev must match their recomputed values.
        """
        tau1, tau2 = pair
        p1 = np.repeat(SWEEP_GRID, len(SWEEP_GRID))
        p2 = np.tile(SWEEP_GRID, len(SWEEP_GRID))
        t = ref.fit_times(tau2)
        pfr, tau_eq = ref.band_fits(t, ref.two_band(t, p1[:, None], tau1, p2[:, None], tau2),
                                    tau1 / 2.0, 2.0 * tau2)
        ratios = p2 / p1
        _, _, best = ref.surface_fit(tau1, ratios, tau_eq)
        ssr = ref.surface_ssr(model.a, model.b, tau1, ratios, tau_eq)
        plane_dev = float(np.max(np.abs(pfr - (p1 + p2)) / (p1 + p2)))
        errors = []
        if (model.tau1, model.tau2) != (tau1, tau2):
            errors.append(f"{where}: surface built for ({model.tau1}, {model.tau2})")
        if not ssr <= best * (1.0 + SURFACE_SSR_REL):
            errors.append(f"{where}: surface (a={model.a!r}, b={model.b!r}) leaves residual "
                          f"{ssr!r}, the least-squares optimum is {best!r}")
        if not _close(model.rms_residual, (ssr / len(ratios)) ** 0.5, 0.0, RMS_ABS_S):
            errors.append(f"{where}: rms_residual {model.rms_residual!r}, "
                          f"recomputed {(ssr / len(ratios)) ** 0.5!r}")
        if not _close(model.pfr_plane_dev, plane_dev, 1e-4, 1e-9):
            errors.append(f"{where}: pfr_plane_dev {model.pfr_plane_dev!r}, "
                          f"recomputed {plane_dev!r}")
        return errors


# --- cli --------------------------------------------------------------------

CLI_VALID = 15
CLI_VALID_PER_NON_FINITE = 5
# non-finite overrides, applied to a fixed scenario; each must exit 1 and write nothing
NON_FINITE = ("system.p_cont_mw=NaN", "bands.1.tau_s=Infinity", "system.ke_mws=Infinity")
FIXED_DOC = {"system": _system_doc(9000.0, 2000.0, 0.04, 300.0),
             "bands": [_lag_doc(130.0, 0.4), _lag_doc(80.0, 2.0)],
             "sim": {"t_end_s": T_END, "dt_s": DT}}
TRACE_HEADER = "t_s,delta_f_hz"


def run_child(argv, env, cwd):
    """Run one child to completion; returns (exit code, output, peak RSS kB).

    The child is reaped with wait4 to read its own peak RSS; stderr is merged
    into the one pipe read to its end, so neither pipe can fill and block.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=cwd)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss


class Cli(_Workload):
    """`python -m sfrkit compare` as a subprocess, one child at a time."""

    name = "cli"

    def __init__(self, sk, seed, workdir):
        self.sk, self.workdir = sk, workdir
        self.env = child_env(ROOT)
        rng = random.Random(seed)
        fixed = os.path.join(workdir, "cli_fixed.json")
        with open(fixed, "w", encoding="utf-8") as fh:
            json.dump(FIXED_DOC, fh)
        self.round, self.docs = [], []
        for i in range(CLI_VALID):
            doc = _scenario_doc(rng, 1 + i % 2)
            path = os.path.join(workdir, f"cli_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            # the file's values are replaced on the command line, as a user would
            ke, tau0 = rng.uniform(6000.0, 12000.0), rng.uniform(0.3, 1.0)
            doc["system"]["ke_mws"], doc["bands"][0]["tau_s"] = ke, tau0
            overrides = [f"system.ke_mws={ke!r}", f"bands.0.tau_s={tau0!r}"]
            self.round.append(SimpleNamespace(path=path, overrides=overrides, valid=True))
            self.docs.append(doc)
            if i % CLI_VALID_PER_NON_FINITE == CLI_VALID_PER_NON_FINITE - 1:
                kind = NON_FINITE[i // CLI_VALID_PER_NON_FINITE]
                self.round.append(SimpleNamespace(path=fixed, overrides=[kind], valid=False))
                self.docs.append(None)
        self.repeats = _Repeats()
        self.peak_rss_kb = 0

    def _argv(self, item, prefix):
        argv = [sys.executable, "-m", "sfrkit", "compare", "--scenario", item.path]
        for o in item.overrides:
            argv += ["--set", o]
        return argv + ["--out", prefix]

    def _outputs(self, prefix):
        return [f"{prefix}_closed.csv", f"{prefix}_oracle.csv"]

    def run(self, L, item):
        prefix = os.path.join(self.workdir, "cmp")
        result = run_child(self._argv(item, prefix), self.env, ROOT)
        self.peak_rss_kb = max(self.peak_rss_kb, result[2])
        return result

    def timed(self, idx):
        return self.round[idx].valid

    def check(self, idx, out):
        """Returns (failed, errors); files written by the operation are removed."""
        code, output, _ = out
        files = [p for p in self._outputs(os.path.join(self.workdir, "cmp")) if os.path.exists(p)]
        try:
            if not self.round[idx].valid:
                # non-finite input must be refused: exit 1, nothing written
                return code != 1 or bool(files), []
            if code != 0 or len(files) != 2:
                return True, [f"input {idx}: exit {code}, {len(files)} files: {output.strip()}"]
            return False, self._check_valid(idx, output, files)
        finally:
            for p in files:
                os.remove(p)

    def _check_valid(self, idx, output, files):
        errors = []
        printed = [line for line in output.splitlines() if line.startswith("max_abs_gap_hz=")]
        gap = float(printed[-1].partition("=")[2]) if printed else float("nan")
        if not gap <= GAP_LIMIT_HZ:
            errors.append(f"input {idx}: printed gap {output.strip()!r}")
        digests = []
        for p in files:
            with open(p, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        if idx not in self.repeats.first:
            errors += self.check_csvs(self.docs[idx], files[0], files[1], f"input {idx}")
        return errors + self.repeats.seen(idx, digests, lambda a, b: a == b)

    def check_csvs(self, doc, closed_path, oracle_path, where):
        traces = []
        for p in (closed_path, oracle_path):
            header, t, df = ref.read_trace_csv(p)
            if header != TRACE_HEADER or len(df) != N_STEPS + 1:
                return [f"{where}: {os.path.basename(p)} has header {header!r} "
                        f"and {len(df)} rows, expected {N_STEPS + 1}"]
            if not np.allclose(t, np.arange(N_STEPS + 1) * DT, rtol=1e-8, atol=1e-12):
                return [f"{where}: {os.path.basename(p)} has a wrong time column"]
            traces.append(df)
        return _check_traces(doc, traces[0], traces[1], where, closed_rel=1e-8)

    def decompose(self, L, tracer, idx, op_ns):
        """Traced run only: the same command in process, and its layer calls apart.

        op_ns is the child's traced time for this input; op.other is what it
        spent outside a fresh `import sfrkit` process and `main`.
        """
        item = self.round[idx]
        counts = decompose_compare(self.sk, L, tracer, self.workdir, item.path, item.overrides,
                                   self.env)
        tracer.record("op.other", int(op_ns) - tracer.last("startup.import")
                      - tracer.last("cli.main"))
        return counts


def child_env(root):
    """The environment with root/src first on PYTHONPATH, for children importing sfrkit."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def startup_probes(tracer, env, root):
    """Spans of a fresh `python -c pass` and a fresh `python -c "import sfrkit"`."""
    for name, code in (("startup.interpreter", "pass"), ("startup.import", "import sfrkit")):
        tracer.begin(name)
        rc = run_child([sys.executable, "-c", code], env, root)[0]
        tracer.end()
        if rc != 0:
            raise RuntimeError(f"{name} probe exited {rc}")


def decompose_compare(sk, L, tracer, workdir, path, overrides, env):
    """`sfrkit compare` on one scenario, by layer: the two fresh-interpreter
    probes, then load, closed trace, RK4 and both CSV writes, then
    `cli.main(["compare", ...])` in process on the same inputs.

    Records cli.self: main's time minus those layer calls, made on the same
    inputs just before it, so a change of host speed cancels. Returns the
    RK4 steps and the bytes the writes produced.
    """
    startup_probes(tracer, env, ROOT)
    sc = L.load_scenario(path, overrides)
    closed = L.trace(sc.system, sc.bands, sc.t_end, sc.dt, "lag")
    bands = sc.bands
    numeric = L.integrate(sc.system, lambda t: sk.model.total_pfr_value(bands, t),
                          sk.oracle.IntegrationSpec(t_end=sc.t_end, dt=sc.dt))
    paths = [os.path.join(workdir, f"layers_{k}.csv") for k in ("closed", "oracle")]
    L.write_trace_csv(paths[0], closed)
    L.write_trace_csv(paths[1], numeric)
    written = sum(os.path.getsize(p) for p in paths)
    prefix = os.path.join(workdir, "main")
    argv = ["compare", "--scenario", path] + [a for o in overrides for a in ("--set", o)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = L.main(argv + ["--out", prefix])
    for p in paths + [f"{prefix}_closed.csv", f"{prefix}_oracle.csv"]:
        if os.path.exists(p):
            os.remove(p)
    if rc != 0:
        raise RuntimeError(f"in-process cli.main exited {rc}")
    tracer.record("cli.self", tracer.last("cli.main") - tracer.last("model.load_scenario")
                  - tracer.last("closedform.trace") - tracer.last("oracle.integrate")
                  - tracer.last("reports.write_trace_csv", 2))
    return {"oracle.steps": len(numeric) - 1, "reports.bytes": written}


WORKLOADS = {w.name: w for w in (Screen, Validate, Reduce, Cli)}

MODULES = ("model", "closedform", "bandfit", "applications", "oracle", "reports", "cli", "errors")


def load_sfrkit(root):
    """Import sfrkit from root/src, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sfrkit", "__init__.py")):
        raise ImportError(f"no sfrkit package under {src}")
    sys.path.insert(0, src)
    import importlib
    import sfrkit
    if os.path.dirname(os.path.dirname(os.path.abspath(sfrkit.__file__))) != os.path.abspath(src):
        raise ImportError(f"imported sfrkit from {sfrkit.__file__}, not from {src}")
    modules = {m: importlib.import_module(f"sfrkit.{m}") for m in MODULES}
    return SimpleNamespace(modules=modules, version=sfrkit.__version__, **modules)
