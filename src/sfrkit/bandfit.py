"""Two-band lag PFR reduced to a single equivalent band, plus accuracy maps.

A response p(t) = PFR1*(1 - exp(-t/tau1)) + PFR2*(1 - exp(-t/tau2)) has no
closed-form nadir, so it is approximated by the least-squares single lag band.
Over a grid of magnitudes the fitted magnitude stays close to PFR1 + PFR2
while the fitted time constant follows

    tau_eq = a * (1 - exp(-b * PFR2/PFR1)) + tau1

whose coefficients (a, b) are themselves fitted. Both fits are separable: the
magnitude is linear given tau and `a` is linear given `b`, so each is solved by
variable projection as a 1-D root of its stationarity condition. Both roots
are found by one bracketed superlinear search (Chandrupatla's method), which
evaluates its knots in one call, interpolates from its first step on through
the knots on either side of the root and the knot past them, and stops at
the first point where the condition reads exactly zero; tau is searched over
[tau1/2, 2*tau2] from log-spaced inner knots that run from tau1 to tau2, both
exact, and b in log space from log-spaced knots; either set brackets its root
closely at once.
The canonical fast/standard pair tau1 = 0.4 s, tau2 = 2.0 s ships with
pre-fitted coefficients. Every fit and map samples one grid, [0, max(30,
5*tau2)] s at 10 ms, bounded by the step ceiling of model._grid_steps, so
tau2 <= 20 000 s.

Approximation quality is reported as the mean absolute percentage error
between the exact and equivalent response curves, per grid cell. It depends
on a cell only through PFR2/PFR1, so cells that are power-of-two multiples of
one another share one computation. The classes, their first cells as
representatives and each cell's class are found in whole arrays over the
flattened grid, and every class's tau comes from equivalent_tau, the tau
model's one checked path, as canonical_equivalent's does. The classes'
curves are built a few rows at a time in reused buffers and reduced along
each row, which gives every value the same bits as mape() on that cell
alone. On the sampling grid every curve rises monotonically from 0, so its
peak is its last sample and the samples it keeps are a suffix, found by
binary search.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FitError, InvalidInputError
from .model import (_FINITE, _FINITE_NONNEGATIVE, _FINITE_POSITIVE, _MAX, FrequencyTrace,
                    LagBand, _field_check, _grid_steps, _or_none, _record, _require_float_range,
                    _shown)

__all__ = [
    "TwoBandPfr",
    "EquivalentBand",
    "TauSurfaceModel",
    "MapeCell",
    "MapeReport",
    "TauSweepCell",
    "TauSweepReport",
    "CANONICAL_SURFACE",
    "DEFAULT_PFR_GRID",
    "DEFAULT_SWEEP_PFR_GRID",
    "DEFAULT_TAU1_RANGE",
    "DEFAULT_TAU2_RANGE",
    "fit_equivalent_band",
    "build_tau_surface",
    "equivalent_tau",
    "canonical_equivalent",
    "mape",
    "mape_map",
    "mape_tau_sweep",
]

# near-zero samples are excluded from MAPE: the exact curve starts at 0
MAPE_EXCLUSION_REL = 1e-6
# the exclusion threshold never falls below the smallest normal double, so a
# curve whose peak is subnormal is excluded whole instead of divided by 0
_MAPE_FLOOR = float(np.finfo(float).tiny)

DEFAULT_PFR_GRID = tuple(float(v) for v in range(10, 201, 10))        # MW
DEFAULT_SWEEP_PFR_GRID = tuple(float(v) for v in range(20, 201, 20))  # MW
DEFAULT_TAU1_RANGE = (0.2, 0.4, 0.6, 0.8, 1.0)                        # s
DEFAULT_TAU2_RANGE = (1.0, 1.1, 1.5, 2.0, 2.5, 3.0)                   # s
_FIT_DT = 0.01  # s
# the root search stops at the first exact zero of the stationarity gap; a
# bracket this narrow relative to the root is the backstop when none is met
_XTOL_REL = 1e-13
# a stationarity condition within this share of its terms' size counts as zero
_FLAT_REL = 1e-12
# a fit needs at most 15 evaluations on the sweep grids, and bisection
# alone would need about 50; more steps than this means a stalled search
_MAX_STEPS = 100
# every check of a boolean array is one reduction, without ndarray.all's Python-level wrapper
_all = np.logical_and.reduce
_B_BOX = (1e-6, 1e3)  # bounds on the surface coefficient b
# log-spaced knots of the b search, evaluated in one call: they bracket the
# root at once, where the box's ends alone left 4-5 bisection steps
_B_KNOTS = 64
# the knots in log b, shared by every surface fit
_LOG_B_KNOTS = np.linspace(math.log(_B_BOX[0]), math.log(_B_BOX[1]), _B_KNOTS)
# log-spaced knots of the band fit from tau1 to tau2, evaluated in one call
# with tau1/2 and 2*tau2 as one column that every element shares, so a knot
# costs one exp-sum column: on the sweep pairs a fit then takes at most 5
# evaluations, the knot call counted as one, where 10 knots took up to 6
# and tau1 and tau2 alone up to 13
_TAU_KNOTS = 32
_TAU_KNOT_EXPONENTS = np.linspace(0.0, 1.0, _TAU_KNOTS)
# rows per block of the MAPE map, built in two (8, n) buffers. On the sweep
# grid (75 classes x 3001 samples, 2-vCPU x86-64 host) a map took about
# 2.3-2.7 ms in blocks of 8 rows, 2.4-2.7 ms in blocks of 16, 4-4.3 ms as one
# block of 75 rows, whose buffers fall out of cache, and 4.1-4.6 ms one row
# at a time
_MAP_BLOCK = 8


@_record
class TwoBandPfr:
    """A fast band and a standard band; band1 is the faster by convention."""

    band1: LagBand
    band2: LagBand

    def __post_init__(self):
        if self.band1.tau > self.band2.tau:
            raise InvalidInputError(
                f"band1 must be the faster band: tau1={self.band1.tau} > tau2={self.band2.tau}"
            )
        if self.band1.pfr < 0 or self.band2.pfr < 0:
            raise InvalidInputError("band magnitudes must be >= 0 for fitting")


@_record(pfr_eq=_FINITE_NONNEGATIVE, tau_eq=_FINITE_POSITIVE, fit_residual=_or_none(_FINITE))
class EquivalentBand:
    pfr_eq: float                     # MW
    tau_eq: float                     # s
    fit_residual: float | None = None  # sum of squared residuals, MW^2

    def band(self) -> LagBand:
        return LagBand(pfr=self.pfr_eq, tau=self.tau_eq)


# the fit statistics are checked after the tau pair, as they always were
_check_fit_stats = _field_check(rms_residual=_or_none(_FINITE), pfr_plane_dev=_or_none(_FINITE))


@_record(a=_FINITE_NONNEGATIVE, b=_FINITE_POSITIVE)
class TauSurfaceModel:
    """Coefficients of tau_eq = a*(1 - exp(-b*PFR2/PFR1)) + tau1."""

    a: float                            # s
    b: float                            # dimensionless
    tau1: float                         # s
    tau2: float                         # s, kept for the PFR1 = 0 passthrough
    rms_residual: float | None = None   # s
    pfr_plane_dev: float | None = None  # max relative drift of pfr_eq from PFR1+PFR2

    def __post_init__(self):
        _check_tau_pair(self.tau1, self.tau2)
        _check_fit_stats(self.rms_residual, self.pfr_plane_dev)


def _check_tau_pair(tau1: float, tau2: float) -> None:
    if not 0 < tau1 <= tau2 <= _MAX:
        raise InvalidInputError(f"need finite 0 < tau1 <= tau2, "
                                f"got tau1={_shown(tau1)}, tau2={_shown(tau2)}")


def _magnitude_grid(pfr_grid) -> np.ndarray:
    """The magnitude grid of a surface fit or a MAPE map, DEFAULT_PFR_GRID by default."""
    grid = np.asarray(DEFAULT_PFR_GRID if pfr_grid is None else pfr_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or not np.all((grid >= 0) & (grid < math.inf)):
        raise InvalidInputError("pfr grid must be a non-empty sequence of finite magnitudes >= 0")
    return grid


# coefficients fitted once for the canonical fast/standard bands (0.4 s, 2.0 s)
CANONICAL_SURFACE = TauSurfaceModel(a=1.3141629, b=0.63075533, tau1=0.4, tau2=2.0)


def _fit_grid(tau2: float):
    """The sampling grid as (n, dt): t_k = k*dt for k < n, [0, max(30, 5*tau2)] s every _FIT_DT."""
    return _grid_steps(max(5.0 * tau2, 30.0), _FIT_DT, "fit window 5*tau2") + 1, _FIT_DT


def _exp_sums(alpha, grid):
    """E(alpha) = sum_k exp(-alpha t_k) and F(alpha) = sum_k t_k exp(-alpha t_k).

    The only code that looks at the grid (n, dt): both are geometric series
    in q = exp(-alpha dt), summed in closed form.
    """
    n, dt = grid
    x = np.asarray(alpha, dtype=float) * dt
    neg_x, neg_nx = -x, -n * x
    one_q = -np.expm1(neg_x)
    q_n = np.exp(neg_nx)
    e = -np.expm1(neg_nx) / one_q
    f = dt * (np.exp(neg_x) - q_n * (1.0 + (n - 1) * one_q)) / one_q**2
    return e, f


def _zeroed(p, q):
    """The stationarity gap p - q, read as exactly 0 within _FLAT_REL of |p| + |q|.

    A projected fit's stationarity condition is a pair (p, q) with p > q where
    the fit improves as its parameter grows, so the gap is positive below the
    root and negative above it. Zeroing differences at rounding level lets a
    flat direction settle instead of following rounding.
    """
    d = p - q
    return _where(abs(d) <= _FLAT_REL * (abs(p) + abs(q)), 0.0, d)


def _where(cond, a, b):
    """np.where(cond, a, b), or a plain choice that keeps a scalar search on numpy scalars."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _find_root(stationarity, knots, xtol, what):
    """Root of a projected fit's stationarity condition on [knots[0], knots[-1]], elementwise.

    knots ascend along the first axis and are evaluated in one call; they may
    broadcast against the gap, as a column of knots shared by every element.
    The first knot where the zeroed gap is <= 0 and the knot before it bracket
    the root, and the knot after it, or the last knot, is the third point.
    Chandrupatla's method then narrows each bracket by inverse quadratic
    interpolation through its last three points, from the first step on, or
    by bisection where that interpolant is not monotone. An element is done
    at the first point where the gap is exactly 0, so a direction that is
    flat at knots[0] settles there, or when its bracket is narrower than
    xtol. Done elements are evaluated again at their newest point, which
    moves nothing, and each root is picked once, at exit; 0-d elements stay
    numpy scalars. A non-finite point also ends its element's search, so
    each step makes one check. Raises FitError unless the box brackets a
    sign change, the condition is finite wherever it is evaluated and every
    element is done within _MAX_STEPS evaluations after the knots.
    """
    def gap(x):
        return _zeroed(*stationarity(x))

    knots = np.asarray(knots, dtype=float)
    g = gap(knots)
    knots = np.broadcast_to(knots, g.shape)
    if not _all((g[0] >= 0.0) & (g[-1] <= 0.0), axis=None):
        raise FitError(f"{what}: no sign change of the stationarity condition in the box")
    if not _all(np.isfinite(g), axis=None):
        raise FitError(f"{what}: non-finite stationarity condition")
    k = np.argmax(g <= 0.0, axis=0)
    j, i = np.maximum(k - 1, 0), np.minimum(k + 1, len(g) - 1)
    # each element's knots k, j and i, by plain indexing; 0-d elements index with k alone
    at = np.indices(k.shape, sparse=True)
    x1, f1 = knots[(k, *at)], g[(k, *at)]
    x2, f2 = knots[(j, *at)], g[(j, *at)]
    x3, f3 = knots[(i, *at)], g[(i, *at)]
    done = (f1 == 0.0) | (abs(x2 - x1) <= xtol)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while steps < _MAX_STEPS and not _all(done):
            steps += 1
            # x1 is the newest point, [x1, x2] the bracket, x3 the point x1
            # replaced, or at first the knot past x1
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = _where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                       + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
            tl = 0.5 * xtol / abs(x2 - x1)
            t = np.minimum(np.maximum(t, tl), 1.0 - tl)
            x = _where(done, x1, x1 + t * (x2 - x1))
            f = gap(x)
            same = (f > 0.0) == (f1 > 0.0)
            x3, f3 = _where(same, x1, x2), _where(same, f1, f2)
            x2, f2 = _where(same, x2, x1), _where(same, f2, f1)
            x1, f1 = x, f
            done = done | (f1 == 0.0) | (abs(x2 - x1) <= xtol) | ~np.isfinite(f1)
    if not _all(np.isfinite(f1)):
        raise FitError(f"{what}: non-finite stationarity condition")
    if not _all(done):
        raise FitError(f"{what}: no convergence in {_MAX_STEPS} steps")
    return _where(abs(f1) <= abs(f2), x1, x2)


def _fit_lag_bands(p1, tau1: float, p2, tau2: float):
    """Least-squares single lag band for the targets y = p1*s(tau1) + p2*s(tau2).

    With s(tau) = 1 - exp(-t/tau), the best magnitude for a given tau is
    <s,y>/<s,s>, clipped at 0, which leaves a 1-D search over the box
    [tau1/2, 2*tau2], started from tau1/2, _TAU_KNOTS log-spaced knots from
    tau1 to tau2 inclusive and 2*tau2. Every inner product <s_lam, s_mu> of
    rates lam = 1/tau over tau2's sampling grid is n - E(lam) - E(mu) +
    E(lam + mu), so no sample array is built. p1 >= 0 and p2 >= 0 broadcast;
    returns arrays (pfr, tau, ssr). Sums reach (p1 + p2)^2 * n: one that
    overflows for the largest p1 and p2 is bad input, named before any sum.
    """
    grid = _fit_grid(tau2)
    n = grid[0]
    m1, m2 = float(np.max(p1)), float(np.max(p2))  # Python floats overflow to inf, silently
    if not (m1 + m2) * (m1 + m2) * n < math.inf:
        raise InvalidInputError(f"equivalent-band fit: magnitudes PFR1 = {m1!r} and PFR2 = "
                                f"{m2!r} overflow its sums of squares over {n} samples")
    l1, l2 = 1.0 / tau1, 1.0 / tau2
    (e1, e2, e11, e12, e22), _ = _exp_sums([l1, l2, 2 * l1, l1 + l2, 2 * l2], grid)
    yy = p1**2 * (n - 2 * e1 + e11) + 2 * p1 * p2 * (n - e1 - e2 + e12) + p2**2 * (n - 2 * e2 + e22)
    # rates lam, 2*lam, lam + l1 and lam + l2 are scale*lam + shift
    scale, shift = np.array([1.0, 2.0, 1.0, 1.0]), np.array([0.0, 0.0, l1, l2])

    def products(tau):
        lam = 1.0 / tau
        alpha = np.multiply.outer(scale, lam) + shift.reshape((4,) + (1,) * lam.ndim)
        (el, ell, el1, el2), (fl, fll, fl1, fl2) = _exp_sums(alpha, grid)
        ss, sy = n - 2 * el + ell, p1 * (n - el - e1 + el1) + p2 * (n - el - e2 + el2)
        # derivatives in lam, which falls as tau grows
        d_ss, d_sy = 2 * (fl - fll), p1 * (fl - fl1) + p2 * (fl - fl2)
        return ss, sy, d_ss, d_sy

    def stationarity(tau):
        # the projected fit gains <s,y>^2/<s,s>; its lam-derivative has the sign of
        # 2<s,y>'<s,s> - <s,y><s,s>', and tau runs against lam
        ss, sy, d_ss, d_sy = products(tau)
        return sy * d_ss, 2 * d_sy * ss

    # tau1 and tau2 are exact knots inside the box: the root sits between them,
    # and exactly on one when PFR2 = 0, PFR1 = 0 or tau1 = tau2
    inner = tau1 * (tau2 / tau1) ** _TAU_KNOT_EXPONENTS
    inner[-1] = tau2
    knots = np.concatenate(([tau1 / 2.0], inner, [2.0 * tau2]))
    # one column of knots shared by every element: the exp sums are taken per knot
    knots = knots.reshape(knots.shape + (1,) * np.ndim(np.broadcast(p1, p2)))
    tau = _find_root(stationarity, knots, _XTOL_REL * tau1 / 2.0, "equivalent-band fit")
    ss, sy, _, _ = products(tau)
    pfr = np.maximum(sy / ss, 0.0)
    return pfr, tau, np.maximum(yy - pfr * (2 * sy - pfr * ss), 0.0)


def _fit_tau_model(tau1: float, ratios, weights, tau_eqs):
    """Weighted least-squares (a, b) of tau_eq = a*(1 - exp(-b*ratio)) + tau1.

    a = <phi,y>/<phi,phi>, clipped at 0, for phi = 1 - exp(-b*ratio) and
    y = tau_eq - tau1, leaves a 1-D search in log b over [1e-6, 1e3], started
    from the _B_KNOTS log-spaced knots built once at import; a fit that is
    flat at the lower end, as when every tau_eq is tau1, returns b = 1e-6
    exactly. Returns (a, b, ssr).
    """
    y = tau_eqs - tau1
    # weighted vectors of the projections <phi,y>, <phi',phi> and <phi',y>
    wy, wr = weights * y, weights * ratios
    wry = wr * y

    def stationarity(log_b):
        # (<phi,y>+)^2/<phi,phi> is the gain; zero, and flat, where a is clipped.
        # log_b is one point or a vector of knots, one row of e per point
        e = np.exp(np.multiply.outer(-np.exp(log_b), ratios))
        phi = 1.0 - e
        pp, py = (phi * phi) @ weights, phi @ wy
        py_pos = np.maximum(py, 0.0)
        return py_pos * (e @ wry) * pp, py_pos * py * ((e * phi) @ wr)

    log_b = _find_root(stationarity, _LOG_B_KNOTS, _XTOL_REL, "tau-surface fit")
    b = _B_BOX[0] if log_b == _LOG_B_KNOTS[0] else math.exp(log_b)
    phi = 1.0 - np.exp(-b * ratios)
    a = max(float((phi @ wy) / ((phi * phi) @ weights)), 0.0)
    res = y - a * phi
    return a, b, float(weights @ (res * res))


def fit_equivalent_band(tb: TwoBandPfr) -> EquivalentBand:
    """Fit one lag band to the sum of two by least squares.

    The magnitude is projected out, and the time constant is the root of the
    fit's stationarity condition within [tau1/2, 2*tau2]; FitError reports a
    box that brackets no root. fit_residual is the sum of squared residuals
    over the sampling grid.
    """
    p_total = tb.band1.pfr + tb.band2.pfr
    if not p_total > 0:
        raise InvalidInputError("total PFR must be > 0 to fit an equivalent band")
    pfr, tau, ssr = _fit_lag_bands(tb.band1.pfr, tb.band1.tau, tb.band2.pfr, tb.band2.tau)
    return EquivalentBand(pfr_eq=float(pfr), tau_eq=float(tau), fit_residual=float(ssr))


def build_tau_surface(tau1: float, tau2: float, pfr_grid=None) -> TauSurfaceModel:
    """Fit the tau model to equivalent bands over a magnitude grid.

    Grid cells with PFR1 = 0 have an undefined magnitude ratio and are
    skipped. The equivalent band depends on the cell only through PFR2/PFR1,
    so each distinct ratio is fitted once, as PFR1 = 1 and PFR2 = ratio, and
    weighted by its number of cells.
    The largest relative drift of the fitted magnitudes from the PFR1 + PFR2
    plane is recorded on the model as pfr_plane_dev.
    """
    _check_tau_pair(tau1, tau2)
    grid = _magnitude_grid(pfr_grid)

    p1 = grid[grid != 0.0]
    if len(p1) == 0:
        raise InvalidInputError("pfr grid left no usable cells")
    with np.errstate(over="ignore"):
        ratios, counts = np.unique(np.divide.outer(grid, p1), return_counts=True)
    if ratios[-1] == math.inf:
        raise InvalidInputError(f"pfr grid: the ratio {float(grid.max())!r}/{float(p1.min())!r} "
                                "of two magnitudes overflows")
    pfr, tau_eqs, _ = _fit_lag_bands(1.0, tau1, ratios, tau2)
    plane_dev = float(np.max(np.abs(pfr - (1.0 + ratios)) / (1.0 + ratios)))
    a, b, ssr = _fit_tau_model(tau1, ratios, counts.astype(float), tau_eqs)
    return TauSurfaceModel(
        a=a,
        b=b,
        tau1=tau1,
        tau2=tau2,
        rms_residual=float(np.sqrt(ssr / counts.sum())),
        pfr_plane_dev=plane_dev,
    )


def equivalent_tau(model: TauSurfaceModel, pfr1: float, pfr2: float) -> float:
    """Evaluate the tau model, s: the one checked path for every caller.

    PFR1 = 0 falls outside the model's ratio domain: the standard band is
    passed through exactly (tau2). The result is a Python float on every
    branch.
    """
    return _tau_and_decay(model, pfr1, pfr2)[0]


def _tau_and_decay(model: TauSurfaceModel, pfr1: float, pfr2: float):
    """equivalent_tau's checks and (tau, decay), decay = math.exp(-b*PFR2/PFR1); None for tau2."""
    if pfr1 < 0 or pfr2 < 0:
        raise InvalidInputError("band magnitudes must be >= 0")
    if pfr1 == 0:
        if pfr2 == 0:
            raise InvalidInputError("at least one band magnitude must be > 0")
        _require_float_range(pfr2=pfr2)
        return float(model.tau2), None
    try:
        decay = math.exp(-model.b * pfr2 / pfr1)
    except OverflowError:  # an int beyond the float range met a float
        _require_float_range(pfr1=pfr1, pfr2=pfr2)
        raise
    return model.a * (1.0 - decay) + model.tau1, decay


def canonical_equivalent(pfr1: float, pfr2: float,
                         model: TauSurfaceModel = CANONICAL_SURFACE) -> EquivalentBand:
    """Equivalent band of magnitude PFR1 + PFR2 and equivalent_tau's tau.

    equivalent_tau checks the magnitudes first, then the record checks PFR1 +
    PFR2 before the tau.
    """
    tau = equivalent_tau(model, pfr1, pfr2)  # before the sum, which a huge int would overflow
    return EquivalentBand(pfr1 + pfr2, tau)


def _mape_arrays(exact: np.ndarray, approx: np.ndarray) -> float:
    peak = float(np.abs(exact).max())
    mask = np.abs(exact) >= max(MAPE_EXCLUSION_REL * peak, _MAPE_FLOOR)
    if not mask.any():
        raise InvalidInputError("MAPE undefined: every sample was excluded as near-zero")
    kept = exact[mask]
    rel = np.abs((kept - approx[mask]) / kept)
    # np.mean's own sum and division, without its per-call overhead
    return float(np.add.reduce(rel) / rel.size * 100.0)


def mape(exact: FrequencyTrace, approx: FrequencyTrace) -> float:
    """Mean absolute percentage error between two traces on the same grid.

    Samples where the exact value is below 1e-6 of its peak magnitude are
    excluded; the exact curve passes through zero at t = 0 by construction.
    """
    if (exact.dt, len(exact)) != (approx.dt, len(approx)):
        raise InvalidInputError("traces must share dt and length")
    return _mape_arrays(exact.samples, approx.samples)


@_record
class MapeCell:
    pfr1: float
    pfr2: float
    mape_pct: float


@_record
class MapeReport:
    cells: tuple
    mean_pct: float
    max_pct: float


def mape_map(tau1: float, tau2: float, pfr_grid=None,
             model: TauSurfaceModel | None = None) -> MapeReport:
    """Per-cell MAPE between exact two-band and equivalent response curves.

    The model, CANONICAL_SURFACE by default, must be fitted for (tau1, tau2).
    Cells are grouped into classes of power-of-two multiples, whose curves are
    mapped a block of classes at a time; each value is the one a cell-by-cell
    computation through mape() gives, bit for bit.
    """
    grid = _magnitude_grid(pfr_grid)
    model = CANONICAL_SURFACE if model is None else model
    if (model.tau1, model.tau2) != (tau1, tau2):
        raise InvalidInputError(f"surface model is for tau1={model.tau1}, tau2={model.tau2}, not "
                                f"the requested tau1={tau1}, tau2={tau2}; build one for them")
    n, dt = _fit_grid(tau2)
    t = np.arange(n) * dt

    # A cell's MAPE and exclusion mask depend on its magnitudes only through
    # PFR2/PFR1, and a power-of-two rescaling of both magnitudes leaves every
    # rounding step unchanged. So each class of cells that are exact
    # power-of-two multiples of one another is computed once, bit for bit. Its
    # key is each magnitude's frexp mantissa and the difference of their
    # exponents (0 where a magnitude is 0), which nothing can underflow; a
    # stable sort of the keys puts each class's first cell, its
    # representative, first in its run.
    n = len(grid)
    cells = np.empty((n, n, 2))
    cells[..., 0], cells[..., 1] = grid[:, None], grid
    cells = cells.reshape(-1, 2)
    with np.errstate(over="ignore"):  # an infinite PFR1 + PFR2 fails in _class_mapes
        total = cells[:, 0] + cells[:, 1]
    if not total.all():  # magnitudes are >= 0, so this leaves out PFR1 = PFR2 = 0
        keep = total != 0.0
        cells, total = cells[keep], total[keep]
    if len(cells) == 0:
        raise InvalidInputError("pfr grid left no usable cells")
    mantissas, exponents = np.frexp(cells)
    shift = exponents[:, 0] - exponents[:, 1]
    shift[(mantissas == 0.0).any(axis=1)] = 0  # a zero magnitude has no exponent to compare
    keys = np.column_stack((mantissas, shift))
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    # each cell's representative, then the representatives in cell order
    rep = np.empty_like(order)
    rep[order] = order[starts][starts.cumsum() - 1]
    is_rep = rep == np.arange(len(rep))
    mapes = _class_mapes(cells[is_rep], model, t)[is_rep.cumsum()[rep] - 1]
    p1, p2 = cells.T.tolist()
    return MapeReport(cells=tuple(map(MapeCell, p1, p2, mapes.tolist())),
                      mean_pct=float(mapes.mean()), max_pct=float(mapes.max()))


def _class_mapes(reps: np.ndarray, model: TauSurfaceModel, t: np.ndarray) -> np.ndarray:
    """MAPE of each representative row (p1, p2) of reps, as _mape_arrays gives it for its row.

    Every class's equivalent band is set up at once: tau_eq from
    equivalent_tau, as canonical_equivalent takes it, and
    pfr_eq = p1 + p2; (p1, p2, tau_eq, pfr_eq) are the columns of one
    (classes, 4) array that each block slices. A band that is not finite
    fails as canonical_equivalent fails it. Rows are built _MAP_BLOCK at a
    time into two buffers reused across blocks: p2*e2 goes into the approx
    buffer and is added to p1*e1 in the exact buffer, the sum's bits in either
    order, before the approx buffer takes the equivalent curve. Where e1 and
    e2 are nondecreasing on the sampling grid t, as checked, every row
    p1*e1 + p2*e2 (magnitudes >= 0) is nondecreasing from 0: its peak is its
    last sample and it keeps a suffix of samples, located by searchsorted.
    Where every row of a block keeps the same suffix [m:], the relative error
    is taken in place on the slice [:, m:] and summed along each row with the
    same pairwise sum as a 1-D array; any other block, as one of tiny
    magnitudes whose thresholds sit at _MAPE_FLOOR, goes row by row.
    """
    e1 = 1.0 - np.exp(-t / model.tau1)
    e2 = 1.0 - np.exp(-t / model.tau2)
    monotone = bool(_all((e1[1:] >= e1[:-1]) & (e2[1:] >= e2[:-1])))
    neg_t = -t
    columns = np.empty((len(reps), 4))
    columns[:, :2] = reps
    p1, p2 = reps.T
    columns[:, 2] = [equivalent_tau(model, p1, p2) for p1, p2 in reps.tolist()]
    with np.errstate(over="ignore"):
        columns[:, 3] = p1 + p2
    finite = np.isfinite(columns[:, 2:]).all(axis=1)
    if not finite.all():  # raises for the first such class, naming its field
        canonical_equivalent(*reps[finite.argmin()].tolist(), model)
    shape = (min(_MAP_BLOCK, len(reps)), len(t))
    exact_buf, approx_buf = np.empty(shape), np.empty(shape)
    values = np.empty(len(reps))
    for start in range(0, len(reps), _MAP_BLOCK):
        block = columns[start:start + _MAP_BLOCK]
        exact, approx = exact_buf[:len(block)], approx_buf[:len(block)]
        np.multiply(block[:, 1:2], e2, out=approx)
        np.multiply(block[:, 0:1], e1, out=exact)
        exact += approx
        np.divide(neg_t, block[:, 2:3], out=approx)
        np.exp(approx, out=approx)
        np.subtract(1.0, approx, out=approx)
        approx *= block[:, 3:4]

        m = _kept_suffix(exact) if monotone else None
        if m is not None:
            kept, rel = exact[:, m:], approx[:, m:]
            np.subtract(kept, rel, out=rel)
            np.divide(rel, kept, out=rel)
            np.abs(rel, out=rel)
            values[start:start + len(block)] = np.add.reduce(rel, axis=1) / rel.shape[1] * 100.0
        else:
            values[start:start + len(block)] = [_mape_arrays(x, y) for x, y in zip(exact, approx)]
    return values


def _kept_suffix(rows: np.ndarray):
    """Start m of the samples [m:] that every row keeps, or None if the rows keep different ones.

    Each row must be nondecreasing from a first sample of 0, so its peak is
    its last sample and its kept samples are a suffix. Every row keeps the
    first row's suffix when its samples m - 1 and m straddle its threshold;
    m = 0 cannot occur, and would read the kept last sample and give None.
    """
    low = np.maximum(MAPE_EXCLUSION_REL * rows[:, -1], _MAPE_FLOOR)
    m = int(np.searchsorted(rows[0], low[0]))
    if m < rows.shape[1] and _all((rows[:, m] >= low) & (rows[:, m - 1] < low)):
        return m
    return None


@_record
class TauSweepCell:
    tau1: float
    tau2: float
    mean_mape_pct: float
    max_mape_pct: float
    pfr_plane_dev: float  # the cell's TauSurfaceModel.pfr_plane_dev


@_record
class TauSweepReport:
    cells: tuple
    mean_pct: float  # mean of the per-cell means
    max_pct: float   # max of the per-cell maxima


def _sweep_pairs(tau1_range=None, tau2_range=None) -> list:
    """The (tau1, tau2) pairs a sweep evaluates: tau2 >= tau1, in the order of the ranges."""
    tau1s = DEFAULT_TAU1_RANGE if tau1_range is None else tuple(tau1_range)
    tau2s = DEFAULT_TAU2_RANGE if tau2_range is None else tuple(tau2_range)
    return [(t1, t2) for t1 in tau1s for t2 in tau2s if t2 >= t1]


def mape_tau_sweep(tau1_range=None, tau2_range=None, pfr_grid=None) -> TauSweepReport:
    """Rebuild the surface and map its accuracy for each (tau1, tau2) pair.

    Only pairs with tau2 >= tau1 are evaluated, in the order of the ranges.
    """
    grid = DEFAULT_SWEEP_PFR_GRID if pfr_grid is None else pfr_grid
    pairs = _sweep_pairs(tau1_range, tau2_range)
    if not pairs:
        raise InvalidInputError("tau ranges produced no cells with tau2 >= tau1")

    cells = []
    for tau1, tau2 in pairs:
        model = build_tau_surface(tau1, tau2, pfr_grid=grid)
        report = mape_map(tau1, tau2, pfr_grid=grid, model=model)
        cells.append(TauSweepCell(tau1=tau1, tau2=tau2, mean_mape_pct=report.mean_pct,
                                  max_mape_pct=report.max_pct,
                                  pfr_plane_dev=model.pfr_plane_dev))
    return TauSweepReport(
        cells=tuple(cells),
        mean_pct=float(np.mean([c.mean_mape_pct for c in cells])),
        max_pct=float(np.max([c.max_mape_pct for c in cells])),
    )
