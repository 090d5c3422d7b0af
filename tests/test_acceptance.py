"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with -s to see the per-criterion PASS lines.
"""
import math
import time

import numpy as np
import pytest

from sfrkit import (
    BranchError,
    CANONICAL_SURFACE,
    DerivedParams,
    INTERIOR_MINIMUM,
    IntegrationSpec,
    LagBand,
    RampBand,
    SecurityPolicy,
    SystemConditions,
    WEM_K_POLICY,
    asymptotic_max_contingency,
    build_tau_surface,
    delta_f,
    integrate,
    lag_nadir,
    mape_map,
    mape_tau_sweep,
    max_contingency,
    min_effective_tau,
    required_ffr_share,
    total_pfr_value,
    sensitivity_report,
    sensitivity_report_fd,
    trace,
    trace_nadir,
)

BASE = SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)
SECURITY_DP = DerivedParams(dprime=100.0, h=140.0)
POLICY = SecurityPolicy(k_policy=WEM_K_POLICY, delta_f_max=-1.25)


def _ok(num, message):
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def test_01_lag_closed_form_matches_oracle():
    band = LagBand(pfr=270.0, tau=2.0)
    start = time.perf_counter()
    closed = trace(BASE, [band], 30.0, 0.001, "lag")
    numeric = integrate(BASE, lambda t: total_pfr_value([band], t),
                        IntegrationSpec(t_end=30.0, dt=0.001))
    gap = float(np.abs(closed.samples - numeric.samples).max())
    elapsed = time.perf_counter() - start
    assert gap <= 1e-3
    assert elapsed < 1.0
    _ok(1, f"lag closed form vs 1 ms RK4 oracle: max gap {gap:.2e} Hz <= 1e-3, "
           f"{elapsed:.2f}s < 1s")


def test_02_ramp_deficiency_reproduced():
    nadir_gaps = {}
    for t_r in (6.0, 3.0):
        band = RampBand(pfr=270.0, t_r=t_r)
        closed = trace(BASE, [band], 30.0, 0.001, "ramp")
        numeric = integrate(BASE, lambda t: total_pfr_value([band], t),
                            IntegrationSpec(t_end=30.0, dt=0.001))
        gap = abs(float(closed.samples.min()) - trace_nadir(numeric)[1])
        nadir_gaps[t_r] = gap
        assert gap <= 2e-3, f"t_r={t_r}"

    band = RampBand(pfr=270.0, t_r=1.0)
    closed = trace(BASE, [band], 30.0, 0.001, "ramp")
    numeric = integrate(BASE, lambda t: total_pfr_value([band], t),
                        IntegrationSpec(t_end=30.0, dt=0.001))
    after = closed.times > 1.0
    divergence = float(np.abs(closed.samples[after] - numeric.samples[after]).max())
    assert divergence > 0.05
    _ok(2, f"ramp nadir gaps {nadir_gaps[6.0]:.1e}/{nadir_gaps[3.0]:.1e} Hz <= 2e-3 "
           f"(t_r=6/3 s); t_r=1 s trace diverges by {divergence:.2f} Hz > 0.05")


def test_03_nadir_identity_on_random_inputs():
    rng = np.random.default_rng(2024)
    worst_dev, worst_time = 0.0, 0.0
    checked = 0
    while checked < 1000:
        sc = SystemConditions(
            f_n=50.0,
            ke=rng.uniform(2000.0, 20000.0),
            p_load=rng.uniform(500.0, 5000.0),
            d=rng.uniform(0.01, 0.1),
            p_cont=rng.uniform(50.0, 800.0),
        )
        band = LagBand(pfr=sc.p_cont * rng.uniform(0.3, 1.5), tau=rng.uniform(0.1, 10.0))
        result = lag_nadir(sc, band)
        if result.kind != INTERIOR_MINIMUM:
            continue
        checked += 1
        # the paper's direct form ln(B) / (D'/2H - 1/tau) against lag_nadir's tau ln(B)/(A - 1)
        k, a = sc.p_cont / band.pfr, sc.dprime * band.tau / (2.0 * sc.h)
        t_direct = math.log1p(k * (a - 1.0)) / (sc.dprime / (2.0 * sc.h) - 1.0 / band.tau)
        worst_time = max(worst_time, abs(result.t_nadir - t_direct) / abs(t_direct))
        curve = delta_f(sc, [band], result.t_nadir)
        worst_dev = max(worst_dev, abs(result.delta_f_nadir - curve))
    assert worst_dev <= 1e-9
    assert worst_time <= 1e-12
    _ok(3, f"1000 random solvable inputs: |nadir formula - curve| <= {worst_dev:.1e} Hz "
           f"(tol 1e-9), time forms agree to {worst_time:.1e} rel (tol 1e-12)")


def test_04_refit_canonical_surface_coefficients():
    start = time.perf_counter()
    model = build_tau_surface(0.4, 2.0)
    elapsed = time.perf_counter() - start
    assert 1.25 <= model.a <= 1.40
    assert 0.58 <= model.b <= 0.68
    assert elapsed < 30.0
    _ok(4, f"refit on default grid: a={model.a:.4f} in [1.25, 1.40], "
           f"b={model.b:.4f} in [0.58, 0.68], {elapsed:.1f}s < 30s")


def test_05_canonical_mape_map():
    report = mape_map(0.4, 2.0)
    assert 1.1 <= report.mean_pct <= 2.5    # 1.8 +/- 0.7
    assert 1.4 <= report.max_pct <= 3.4     # 2.4 +/- 1.0
    _ok(5, f"canonical map: mean {report.mean_pct:.2f}% in [1.1, 2.5], "
           f"max {report.max_pct:.2f}% in [1.4, 3.4]")


def test_06_tau_range_validity_sweep():
    sweep = mape_tau_sweep()
    # the widest-ratio cells legitimately drift >1% off the magnitude plane
    worst_drift = max(c.pfr_plane_dev for c in sweep.cells)
    assert worst_drift > 0.01
    assert sweep.mean_pct <= 3.0
    assert sweep.max_pct <= 8.0
    near_unity = [c for c in sweep.cells if c.tau2 / c.tau1 <= 1.1 + 1e-12]
    assert near_unity, "sweep must include near-unity ratio cells"
    worst_near = max(c.max_mape_pct for c in near_unity)
    assert worst_near <= 0.5
    _ok(6, f"tau sweep: overall mean {sweep.mean_pct:.2f}% <= 3%, "
           f"max {sweep.max_pct:.2f}% <= 8%, ratio<=1.1 cells <= {worst_near:.3f}% (tol 0.5%), "
           f"magnitude drift up to {worst_drift:.2%}")


def test_07_max_contingency_anchor():
    cap = max_contingency(SECURITY_DP, POLICY, tau=1.0)
    share = required_ffr_share(CANONICAL_SURFACE, 1.0)
    assert 390.0 <= cap <= 406.0
    assert 0.49 <= share <= 0.53
    _ok(7, f"cap at tau=1.0 s: {cap:.1f} MW in [390, 406]; fast share {share:.4f} in [0.49, 0.53]")


def test_08_derivative_suite():
    rng = np.random.default_rng(77)
    fields = ("dp_dtau", "dp_dh", "dtau_dpfr1", "dtau_dpfr2", "dp_dpfr1", "dp_dpfr2")
    worst = 0.0
    low_a_points = 0
    for _ in range(100):
        dp = DerivedParams(dprime=rng.uniform(30.0, 300.0), h=rng.uniform(60.0, 400.0))
        p1 = rng.uniform(20.0, 300.0)
        p2 = rng.uniform(1.0, 300.0)
        delta_f = -rng.uniform(0.3, 2.0)
        analytic = sensitivity_report(dp, delta_f, CANONICAL_SURFACE, p1, p2)
        fd = sensitivity_report_fd(dp, delta_f, CANONICAL_SURFACE, p1, p2)
        for name in fields:
            a_val, f_val = getattr(analytic, name), getattr(fd, name)
            worst = max(worst, abs(a_val - f_val) / abs(f_val))
        tau = CANONICAL_SURFACE.a * (1 - np.exp(-CANONICAL_SURFACE.b * p2 / p1)) + 0.4
        if dp.dprime * tau / (2 * dp.h) < 1.0:
            low_a_points += 1
            assert analytic.dp_dtau < 0
            assert analytic.dp_dh > 0
            assert analytic.dtau_dpfr1 < 0
            assert analytic.dtau_dpfr2 > 0
    assert worst <= 1e-4
    assert low_a_points > 10
    _ok(8, f"100 random points: analytic vs central FD <= {worst:.1e} rel (tol 1e-4); "
           f"sign properties hold on all {low_a_points} points with A < 1")


def test_09_tau_lower_bound_property():
    dp = DerivedParams(dprime=80.0, h=180.0)
    bound = min_effective_tau(dp, 300.0 / 210.0)
    assert bound == pytest.approx(1.35, rel=1e-12)
    depths = []
    for mult in (0.1, 0.5, 1.0):
        band = LagBand(pfr=210.0, tau=mult * bound)
        numeric = integrate(BASE, lambda t: total_pfr_value([band], t),
                            IntegrationSpec(t_end=60.0, dt=0.001))
        assert np.all(np.diff(numeric.samples) <= 1e-12)
        depth = trace_nadir(numeric)[1]
        depths.append(depth)
        assert abs(depth - (-1.125)) <= 2e-3
    # speeding up below the bound buys nothing
    assert abs(depths[0] - depths[1]) <= 1e-3
    _ok(9, "below the tau bound the oracle nadir is pinned at the settling value: "
           + ", ".join(f"{d:.6f}" for d in depths) + " Hz vs -1.125 (tol 2e-3)")


def test_10_limit_branch_continuity():
    # removable singularity of the lag solution at D'*tau = 2H
    t = np.arange(0, 3001) * 0.01
    limit = delta_f(BASE, [LagBand(pfr=270.0, tau=4.5)], t)
    worst_curve = max(
        float(np.abs(delta_f(BASE, [LagBand(pfr=270.0, tau=4.5 * p)], t) - limit).max())
        for p in (1 + 1e-7, 1 - 1e-7)
    )
    assert worst_curve <= 1e-6

    # nadir-time limit at the same singular set
    worst_time = max(
        abs(lag_nadir(BASE, LagBand(pfr=270.0, tau=4.5 * p)).t_nadir
            - (300.0 / 270.0) * 4.5 * p)
        for p in (1 + 1e-6, 1 - 1e-6)
    )
    assert worst_time <= 1e-5

    # cap branches meet at A = 1 - 1/K
    boundary_tau = 0.84
    near = max_contingency(SECURITY_DP, POLICY, boundary_tau * (1 + 1e-4))
    asym = asymptotic_max_contingency(SECURITY_DP, POLICY.k_policy, POLICY.delta_f_max)
    rel = abs(near - asym) / abs(asym)
    assert rel <= 0.005
    with pytest.raises(BranchError):
        max_contingency(SECURITY_DP, POLICY, boundary_tau * (1 - 1e-4))
    _ok(10, f"limit branches continuous: curve {worst_curve:.1e} Hz (tol 1e-6), "
            f"nadir time {worst_time:.1e} s (tol 1e-5), cap branches {rel:.1e} rel (tol 0.5%)")
