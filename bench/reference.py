"""Reference computations the benchmark checks the program against.

Nothing here imports sfrkit. Each function recomputes a quantity from the
model equations with different code from the program's, so a check that
compares the two can catch a wrong result instead of repeating it.

The model: 2H d(df)/dt + D' df = sum_i PFR_i (1 - exp(-t/tau_i)) - P_cont,
df(0) = 0, with D' = d * P_load and H = KE / f_n.
"""
from __future__ import annotations

import math

import numpy as np

# |x| below this uses the series of expm1(x)/x
_PHI_SERIES = 1e-8


def lag_curve(t, dprime, two_h, p_cont, pfrs, taus):
    """Exact deviation df(t), Hz, for lag bands (pfrs[i], taus[i]).

    Uses the convolution form of the solution,

        df = (sum PFR - P)/D' (1 - e^{-lam t}) - sum PFR/(2H) t e^{-lam t} phi(mu t),

    with lam = D'/2H, mu = lam - 1/tau and phi(x) = expm1(x)/x. It has no
    branch at D' tau = 2H, unlike the program's two-term form. Every argument
    broadcasts; pfrs and taus are sequences with one entry per band.
    """
    t = np.asarray(t, dtype=float)
    lam = np.asarray(dprime, dtype=float) / two_h
    decay = np.exp(-lam * t)
    out = (sum(pfrs) - p_cont) / dprime * -np.expm1(-lam * t)
    for pfr, tau in zip(pfrs, taus):
        mu = lam - 1.0 / np.asarray(tau, dtype=float)
        x = mu * t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # e^{-lam t} expm1(x)/mu, rewritten where it would lose digits or overflow
            moderate = decay * np.expm1(x) / mu
            large = (np.exp(-t / tau) - decay) / mu
        small = t * decay * (1.0 + 0.5 * x)
        kernel = np.where(np.abs(x) < _PHI_SERIES, small, np.where(x > 1.0, large, moderate))
        out = out - pfr / two_h * kernel
    return out


def golden_min(f, lo, hi, iters=100):
    """Minimise a unimodal f on [lo, hi] by golden-section search (vectorised)."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - g * (hi - lo)
    d = lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        # keep [lo, d] or [c, hi]; the kept inner point is reused, one new point is evaluated
        left = fc < fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fx = f(x)
        c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                        np.where(left, c, x), np.where(left, fc, fx))
    t = 0.5 * (lo + hi)
    return t, f(t)


def tau_model(a, b, tau1, pfr1, pfr2):
    """tau_eq = a (1 - e^{-b PFR2/PFR1}) + tau1."""
    return a * -np.expm1(-b * np.asarray(pfr2, dtype=float) / pfr1) + tau1


def k1_cap(dprime, h, delta_f_max, tau):
    """Contingency cap when PFR equals the contingency (K = 1), MW.

    -D' df_max A^{1/(A-1)} with A = D' tau / 2H; A^{1/(A-1)} is written as
    exp(log1p(e)/e), e = A - 1, whose limit at e = 0 is e^1.
    """
    e = np.asarray(dprime * tau / (2.0 * h), dtype=float) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = np.where(e == 0.0, 1.0, np.log1p(e) / e)
    return -dprime * delta_f_max * np.exp(expo)


def central(f, x, rel_step=1e-5):
    """Central difference of f at x with a step relative to |x|."""
    h = rel_step * abs(x)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def k1_sensitivities(dprime, h, delta_f_max, a, b, tau1, pfr1, pfr2):
    """The six trade-off derivatives of the K = 1 cap, by central differences.

    Order: dP/dtau, dP/dH, dtau/dPFR1, dtau/dPFR2, dP/dPFR1, dP/dPFR2.
    """
    def tau_of(p1, p2):
        return float(tau_model(a, b, tau1, p1, p2))

    def cap(tau, hh=h):
        return float(k1_cap(dprime, hh, delta_f_max, tau))

    tau = tau_of(pfr1, pfr2)
    return (
        central(cap, tau),
        central(lambda hh: cap(tau, hh), h),
        central(lambda p: tau_of(p, pfr2), pfr1),
        central(lambda p: tau_of(pfr1, p), pfr2),
        central(lambda p: cap(tau_of(p, pfr2)), pfr1),
        central(lambda p: cap(tau_of(pfr1, p)), pfr2),
    )


def fit_times(tau2, dt=0.01):
    """The fitting grid the program documents: [0, max(30, 5 tau2)] s at 10 ms."""
    n = int(round(max(30.0, 5.0 * tau2) / dt))
    return np.arange(n + 1) * dt


def two_band(t, pfr1, tau1, pfr2, tau2):
    return pfr1 * -np.expm1(-t / tau1) + pfr2 * -np.expm1(-t / tau2)


def band_ssr(t, y, pfr, tau):
    r = pfr * -np.expm1(-t / tau) - y
    return float(r @ r)


def dense_tau_scan(t, y, tau_lo, tau_hi, n=1000, chunk=100):
    """Smallest residual over n time constants, magnitude projected at each."""
    best = math.inf
    for taus in np.array_split(np.geomspace(tau_lo, tau_hi, n), max(n // chunk, 1)):
        shape = -np.expm1(-t[None, :] / taus[:, None])
        pfr = np.maximum(shape @ y / np.einsum("ij,ij->i", shape, shape), 0.0)
        res = pfr[:, None] * shape - y[None, :]
        best = min(best, float(np.einsum("ij,ij->i", res, res).min()))
    return best


def _scan_then_golden(ssr_of, lo, hi, n_scan, iters):
    """Minimise ssr_of(x) for each row: a geometric scan of n_scan points on
    [lo, hi], then golden-section search between the best point's neighbours.

    ssr_of maps an array of x, one per row, to one residual per row.
    """
    grid = np.geomspace(lo, hi, n_scan)  # (n_scan, rows)
    k = np.argmin(np.stack([ssr_of(x) for x in grid]), axis=0)
    rows = np.arange(grid.shape[1])
    return golden_min(ssr_of, grid[np.maximum(k - 1, 0), rows],
                      grid[np.minimum(k + 1, n_scan - 1), rows], iters)[0]


def band_fits(t, ys, tau_lo, tau_hi, n_scan=32, iters=40):
    """Best single lag band for each row of ys, by variable projection.

    At each tau the magnitude is the least-squares projection (clipped at 0);
    the residual is then minimised over tau in [tau_lo, tau_hi]. Returns the
    (pfr, tau) arrays, one entry per row.
    """
    ys = np.atleast_2d(ys)

    def project(tau):
        shape = -np.expm1(-t[None, :] / tau[:, None])
        pfr = np.maximum(np.einsum("ij,ij->i", shape, ys)
                         / np.einsum("ij,ij->i", shape, shape), 0.0)
        return pfr, shape

    def ssr_of(tau):
        pfr, shape = project(tau)
        res = pfr[:, None] * shape - ys
        return np.einsum("ij,ij->i", res, res)

    lo = np.full(len(ys), float(tau_lo))
    tau = _scan_then_golden(ssr_of, lo, np.full(len(ys), float(tau_hi)), n_scan, iters)
    return project(tau)[0], tau


def surface_ssr(a, b, tau1, ratios, tau_eqs):
    r = np.asarray(tau_model(a, b, tau1, 1.0, ratios)) - tau_eqs
    return float(r @ r)


def surface_fit(tau1, ratios, tau_eqs, b_lo=1e-6, b_hi=1e3, n_scan=400, iters=100):
    """Least-squares (a, b) of tau_eq = a (1 - e^{-b r}) + tau1, by variable projection.

    For a fixed b, a is linear (clipped at 0); the residual is minimised over b
    in the program's documented box [b_lo, b_hi]. Returns (a, b, ssr).
    """
    ratios = np.asarray(ratios, dtype=float)
    target = np.asarray(tau_eqs, dtype=float) - tau1

    def a_of(b):
        s = -np.expm1(-b[:, None] * ratios[None, :])
        return np.maximum(s @ target / np.einsum("ij,ij->i", s, s), 0.0), s

    def ssr_of(b):
        a, s = a_of(b)
        res = a[:, None] * s - target[None, :]
        return np.einsum("ij,ij->i", res, res)

    b = _scan_then_golden(ssr_of, np.array([b_lo]), np.array([b_hi]), n_scan, iters)
    a = a_of(b)[0]
    return float(a[0]), float(b[0]), float(ssr_of(b)[0])


def mape_cells(a, b, tau1, tau2, grid, exclusion_rel=1e-6):
    """Per-cell MAPE (%) of the surface model against the exact two-band curve.

    Samples below exclusion_rel of a cell's peak are left out, as documented
    for the program's accuracy maps.
    """
    t = fit_times(tau2)
    out = []
    for p1 in grid:
        for p2 in grid:
            if p1 == 0 and p2 == 0:
                continue
            exact = two_band(t, p1, tau1, p2, tau2)
            tau_eq = tau2 if p1 == 0 else float(tau_model(a, b, tau1, p1, p2))
            approx = (p1 + p2) * -np.expm1(-t / tau_eq)
            keep = np.abs(exact) >= exclusion_rel * np.abs(exact).max()
            out.append(float(np.mean(np.abs((exact[keep] - approx[keep]) / exact[keep])) * 100.0))
    return out


def solve_ivp_curve(dprime, two_h, p_cont, pfrs, taus, t_eval):
    """The same ODE integrated by scipy's DOP853 at tight tolerance."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        p = sum(pf * -math.expm1(-t / ta) for pf, ta in zip(pfrs, taus))
        return [(p - p_cont - dprime * y[0]) / two_h]

    sol = solve_ivp(rhs, (0.0, float(t_eval[-1])), [0.0], method="DOP853",
                    t_eval=t_eval, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed: {sol.message}")
    return sol.y[0]


def read_trace_csv(path):
    """Parse a t_s,delta_f_hz trace artifact; returns (header, t, df)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError(f"{path}: missing final newline")
    lines = text[:-1].split("\n")
    cols = [line.split(",") for line in lines[1:]]
    if any(len(c) != 2 for c in cols):
        raise ValueError(f"{path}: every row must have two fields")
    values = np.array(cols, dtype=float).reshape(-1, 2)
    return lines[0], values[:, 0], values[:, 1]
