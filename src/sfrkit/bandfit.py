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
evaluates its knots in one call and stops at the first point where the
condition reads exactly zero; tau is searched over [tau1/2, 2*tau2] with tau1
and tau2 as inner knots, and b in log space from log-spaced knots that bracket
it at once. The canonical fast/standard pair tau1 = 0.4 s, tau2 = 2.0 s ships
with pre-fitted coefficients. The default sampling grid, [0, max(30, 5*tau2)]
s at 10 ms, is bounded by the step ceiling of model._grid_steps, so
tau2 <= 20 000 s.

Approximation quality is reported as the mean absolute percentage error
between the exact and equivalent response curves, per grid cell. It depends
on a cell only through PFR2/PFR1, so cells that are power-of-two multiples of
one another share one computation. The classes' curves are built a few rows at
a time in reused buffers and reduced along each row, which gives every value
the same bits as mape() on that cell alone.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FitError, InvalidInputError
from .model import FrequencyTrace, LagBand, _grid_steps, _record

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
    "default_fit_times",
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
_B_BOX = (1e-6, 1e3)  # bounds on the surface coefficient b
# log-spaced knots of the b search, evaluated in one call: they bracket the
# root at once, where the box's ends alone left 4-5 bisection steps
_B_KNOTS = 64
# rows per block of the MAPE map. On the sweep grid (75 classes x 3001
# samples, 2-vCPU x86-64 host) a map took about 3.5 ms in blocks of 8 rows,
# 6 ms as one block of 75 rows, whose buffers fall out of cache, and 7 ms one
# row at a time
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


@_record
class EquivalentBand:
    pfr_eq: float                     # MW
    tau_eq: float                     # s
    fit_residual: float | None = None  # sum of squared residuals, MW^2

    def __post_init__(self):
        if not 0 <= self.pfr_eq < math.inf:
            raise InvalidInputError(f"pfr_eq must be finite and >= 0, got {self.pfr_eq}")
        if not 0 < self.tau_eq < math.inf:
            raise InvalidInputError(f"tau_eq must be finite and > 0, got {self.tau_eq}")
        if self.fit_residual is not None and not math.isfinite(self.fit_residual):
            raise InvalidInputError(f"fit_residual must be finite, got {self.fit_residual}")

    def band(self) -> LagBand:
        return LagBand(pfr=self.pfr_eq, tau=self.tau_eq)


@_record
class TauSurfaceModel:
    """Coefficients of tau_eq = a*(1 - exp(-b*PFR2/PFR1)) + tau1."""

    a: float                            # s
    b: float                            # dimensionless
    tau1: float                         # s
    tau2: float                         # s, kept for the PFR1 = 0 passthrough
    rms_residual: float | None = None   # s
    pfr_plane_dev: float | None = None  # max relative drift of pfr_eq from PFR1+PFR2

    def __post_init__(self):
        if not 0 <= self.a < math.inf:
            raise InvalidInputError(f"a must be finite and >= 0, got {self.a}")
        if not 0 < self.b < math.inf:
            raise InvalidInputError(f"b must be finite and > 0, got {self.b}")
        if not 0 < self.tau1 <= self.tau2 < math.inf:
            raise InvalidInputError(
                f"need finite 0 < tau1 <= tau2, got tau1={self.tau1}, tau2={self.tau2}"
            )
        for name in ("rms_residual", "pfr_plane_dev"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")


# coefficients fitted once for the canonical fast/standard bands (0.4 s, 2.0 s)
CANONICAL_SURFACE = TauSurfaceModel(a=1.3141629, b=0.63075533, tau1=0.4, tau2=2.0)


def default_fit_times(tau2: float) -> np.ndarray:
    """Sampling grid for curve fits and accuracy maps: [0, max(30, 5*tau2)] s."""
    n, dt = _fit_grid(None, tau2)
    return np.arange(n) * dt


def _check_times(times: np.ndarray, tau2: float) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise InvalidInputError("time grid must contain at least two samples")
    if times[0] != 0.0 or times[-1] < 5.0 * tau2:
        raise InvalidInputError(f"time grid must span [0, {5.0 * tau2}] for tau2={tau2}")
    return times


def _fit_grid(times, tau2: float):
    """Grid of a fit: (n, dt) when it is t_k = k*dt for k < n, else the times.

    The default grid samples [0, max(30, 5*tau2)] s every _FIT_DT.
    """
    if times is None:
        return _grid_steps(max(5.0 * tau2, 30.0), _FIT_DT, "fit window 5*tau2") + 1, _FIT_DT
    t = _check_times(times, tau2)
    n, dt = len(t), float(t[1])
    return (n, dt) if np.array_equal(t, np.arange(n) * dt) else t


def _exp_sums(alpha, grid):
    """E(alpha) = sum_k exp(-alpha t_k) and F(alpha) = sum_k t_k exp(-alpha t_k).

    The only code that looks at the grid. On a uniform grid (n, dt) both are
    geometric series in q = exp(-alpha dt), summed in closed form; on an array
    of times they are summed sample by sample.
    """
    alpha = np.asarray(alpha, dtype=float)
    if isinstance(grid, tuple):
        n, dt = grid
        x = alpha * dt
        one_q = -np.expm1(-x)
        q_n = np.exp(-n * x)
        e = -np.expm1(-n * x) / one_q
        f = dt * (np.exp(-x) - q_n * (1.0 + (n - 1) * one_q)) / one_q**2
        return e, f
    w = np.exp(-alpha[..., None] * grid)
    return w.sum(axis=-1), w @ grid


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

    knots ascend along the first axis and are evaluated in one call; the first
    knot where the zeroed gap is <= 0 and the knot before it bracket the root.
    Chandrupatla's method then narrows each bracket by inverse quadratic
    interpolation through its last three points, or by bisection where that
    interpolant is not monotone. An element is done at the first point where
    the gap is exactly 0, so a direction that is flat at knots[0] settles
    there, or when its bracket is narrower than xtol. Done elements are
    evaluated again at their newest point, which moves nothing, and each root
    is picked once, at exit; 0-d elements stay numpy scalars. Raises FitError
    unless the box brackets a sign change, the condition is finite wherever it
    is evaluated and every element is done within _MAX_STEPS evaluations after
    the knots.
    """
    def gap(x):
        return _zeroed(*stationarity(x))

    knots = np.asarray(knots, dtype=float)
    g = gap(knots)
    if not (np.all(g[0] >= 0.0) and np.all(g[-1] <= 0.0)):
        raise FitError(f"{what}: no sign change of the stationarity condition in the box")
    if not np.isfinite(g).all():
        raise FitError(f"{what}: non-finite stationarity condition")
    k = np.argmax(g <= 0.0, axis=0)[None]
    j = np.maximum(k - 1, 0)
    x1, f1 = np.take_along_axis(knots, k, 0)[0], np.take_along_axis(g, k, 0)[0]
    x2, f2 = np.take_along_axis(knots, j, 0)[0], np.take_along_axis(g, j, 0)[0]
    x3, f3, t = x2, f2, 0.5
    done = (f1 == 0.0) | (abs(x2 - x1) <= xtol)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while not done.all():
            if steps == _MAX_STEPS:
                raise FitError(f"{what}: no convergence in {_MAX_STEPS} steps")
            steps += 1
            # x1 is the newest point, [x1, x2] the bracket, x3 the point x1 replaced
            x = _where(done, x1, x1 + t * (x2 - x1))
            f = gap(x)
            if not np.isfinite(f).all():
                raise FitError(f"{what}: non-finite stationarity condition")
            same = (f > 0.0) == (f1 > 0.0)
            x3, f3 = _where(same, x1, x2), _where(same, f1, f2)
            x2, f2 = _where(same, x2, x1), _where(same, f2, f1)
            x1, f1 = x, f
            width = abs(x2 - x1)
            done = done | (f1 == 0.0) | (width <= xtol)
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = _where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                       + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
            tl = 0.5 * xtol / width
            t = np.minimum(np.maximum(t, tl), 1.0 - tl)
    return _where(abs(f1) <= abs(f2), x1, x2)


def _fit_lag_bands(p1, tau1: float, p2, tau2: float, grid):
    """Least-squares single lag band for the targets y = p1*s(tau1) + p2*s(tau2).

    With s(tau) = 1 - exp(-t/tau), the best magnitude for a given tau is
    <s,y>/<s,s>, clipped at 0, which leaves a 1-D search over the box
    [tau1/2, 2*tau2]. Every inner product <s_lam, s_mu> of rates lam = 1/tau
    is n - E(lam) - E(mu) + E(lam + mu), so no sample array is built on a
    uniform grid. p1 and p2 broadcast; returns arrays (pfr, tau, ssr).
    """
    n = grid[0] if isinstance(grid, tuple) else len(grid)
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

    # tau1 and tau2 are knots inside the box: the root sits between them, and
    # exactly on one when PFR2 = 0, PFR1 = 0 or tau1 = tau2
    shape = np.broadcast(p1, p2).shape
    knots = [np.full(shape, x) for x in (tau1 / 2.0, tau1, tau2, 2.0 * tau2)]
    tau = _find_root(stationarity, knots, _XTOL_REL * tau1 / 2.0, "equivalent-band fit")
    ss, sy, _, _ = products(tau)
    pfr = np.maximum(sy / ss, 0.0)
    return pfr, tau, np.maximum(yy - pfr * (2 * sy - pfr * ss), 0.0)


def _fit_tau_model(tau1: float, ratios, weights, tau_eqs):
    """Weighted least-squares (a, b) of tau_eq = a*(1 - exp(-b*ratio)) + tau1.

    a = <phi,y>/<phi,phi>, clipped at 0, for phi = 1 - exp(-b*ratio) and
    y = tau_eq - tau1, leaves a 1-D search in log b over [1e-6, 1e3], started
    from _B_KNOTS log-spaced knots; a fit that is flat at the lower end, as
    when every tau_eq is tau1, returns b = 1e-6 exactly. Returns (a, b, ssr).
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

    lo, hi = _B_BOX
    knots = np.linspace(math.log(lo), math.log(hi), _B_KNOTS)
    log_b = _find_root(stationarity, knots, _XTOL_REL, "tau-surface fit")
    b = lo if log_b == knots[0] else math.exp(log_b)
    phi = 1.0 - np.exp(-b * ratios)
    a = max(float((phi @ wy) / ((phi * phi) @ weights)), 0.0)
    res = y - a * phi
    return a, b, float(weights @ (res * res))


def fit_equivalent_band(tb: TwoBandPfr, times=None) -> EquivalentBand:
    """Fit one lag band to the sum of two by least squares.

    The magnitude is projected out, and the time constant is the root of the
    fit's stationarity condition within [tau1/2, 2*tau2]; FitError reports a
    box that brackets no root. fit_residual is the sum of squared residuals
    over the sampling grid.
    """
    p_total = tb.band1.pfr + tb.band2.pfr
    if not p_total > 0:
        raise InvalidInputError("total PFR must be > 0 to fit an equivalent band")
    pfr, tau, ssr = _fit_lag_bands(tb.band1.pfr, tb.band1.tau, tb.band2.pfr, tb.band2.tau,
                                   _fit_grid(times, tb.band2.tau))
    return EquivalentBand(pfr_eq=float(pfr), tau_eq=float(tau), fit_residual=float(ssr))


def build_tau_surface(tau1: float, tau2: float, pfr_grid=None, times=None) -> TauSurfaceModel:
    """Fit the tau model to equivalent bands over a magnitude grid.

    Grid cells with PFR1 = 0 have an undefined magnitude ratio and are
    skipped. The equivalent band depends on the cell only through PFR2/PFR1,
    so each distinct ratio is fitted once and weighted by its number of cells.
    The largest relative drift of the fitted magnitudes from the PFR1 + PFR2
    plane is recorded on the model as pfr_plane_dev.
    """
    grid = np.asarray(DEFAULT_PFR_GRID if pfr_grid is None else pfr_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or np.any(grid < 0):
        raise InvalidInputError("pfr grid must be a non-empty sequence of magnitudes >= 0")
    fit_grid = _fit_grid(times, tau2)

    p1 = grid[grid != 0.0]
    if len(p1) == 0:
        raise InvalidInputError("pfr grid left no usable cells")
    ratios, counts = np.unique(np.divide.outer(grid, p1), return_counts=True)
    pfr, tau_eqs, _ = _fit_lag_bands(1.0, tau1, ratios, tau2, fit_grid)
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


def equivalent_tau(model: TauSurfaceModel, pfr1: float, pfr2: float,
                   single_band_passthrough: bool = True) -> float:
    """Evaluate the tau model, s.

    PFR1 = 0 falls outside the model's ratio domain: by default the standard
    band is passed through exactly (tau2); disabling the passthrough returns
    the model's large-ratio asymptote a + tau1 instead. The result is a
    Python float on every branch.
    """
    if pfr1 < 0 or pfr2 < 0:
        raise InvalidInputError("band magnitudes must be >= 0")
    if pfr1 == 0:
        if pfr2 == 0:
            raise InvalidInputError("at least one band magnitude must be > 0")
        return float(model.tau2 if single_band_passthrough else model.a + model.tau1)
    # numpy's exp, whose last bit can differ from math.exp's; the rest is float arithmetic
    return model.a * (1.0 - float(np.exp(-model.b * pfr2 / pfr1))) + model.tau1


def canonical_equivalent(pfr1: float, pfr2: float, model: TauSurfaceModel = CANONICAL_SURFACE,
                         single_band_passthrough: bool = True) -> EquivalentBand:
    """Equivalent band with magnitude PFR1 + PFR2 and the model's tau."""
    tau = equivalent_tau(model, pfr1, pfr2, single_band_passthrough)
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
    if (exact.t0, exact.dt, len(exact)) != (approx.t0, approx.dt, len(approx)):
        raise InvalidInputError("traces must share t0, dt and length")
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


def mape_map(tau1: float, tau2: float, pfr_grid=None, model: TauSurfaceModel | None = None,
             times=None) -> MapeReport:
    """Per-cell MAPE between exact two-band and equivalent response curves.

    The model, CANONICAL_SURFACE by default, must be fitted for (tau1, tau2).
    Cells are grouped into classes of power-of-two multiples, whose curves are
    mapped a block of classes at a time; each value is the one a cell-by-cell
    computation through mape() gives, bit for bit.
    """
    grid = np.asarray(DEFAULT_PFR_GRID if pfr_grid is None else pfr_grid, dtype=float)
    model = CANONICAL_SURFACE if model is None else model
    if (model.tau1, model.tau2) != (tau1, tau2):
        raise InvalidInputError(f"surface model is for tau1={model.tau1}, tau2={model.tau2}, not "
                                f"the requested tau1={tau1}, tau2={tau2}; build one for them")
    t = default_fit_times(tau2) if times is None else _check_times(times, tau2)

    # A cell's MAPE and exclusion mask depend on its magnitudes only through
    # PFR2/PFR1, and a power-of-two rescaling of both magnitudes leaves every
    # rounding step unchanged. So each class of cells that are exact
    # power-of-two multiples of one another is computed once, bit for bit.
    classes = {}
    cells = []
    magnitudes = grid.tolist()
    for p1 in magnitudes:
        for p2 in magnitudes:
            if p1 == 0 and p2 == 0:
                continue
            e = math.frexp(p1 + p2)[1]
            key = (math.ldexp(p1, -e), math.ldexp(p2, -e))
            cells.append((p1, p2, classes.setdefault(key, (p1, p2))))
    if not cells:
        raise InvalidInputError("pfr grid left no usable cells")
    reps = list(classes.values())
    values = dict(zip(reps, _class_mapes(reps, model, t)))
    report = tuple(MapeCell(pfr1=p1, pfr2=p2, mape_pct=values[rep]) for p1, p2, rep in cells)
    mapes = [c.mape_pct for c in report]
    return MapeReport(cells=report, mean_pct=float(np.mean(mapes)), max_pct=float(np.max(mapes)))


def _class_mapes(reps, model: TauSurfaceModel, t: np.ndarray) -> list:
    """MAPE of each representative (p1, p2), as _mape_arrays gives it for its row.

    Rows are built _MAP_BLOCK at a time into three buffers reused across
    blocks. Where every row of a block excludes the same leading samples [:m],
    as on any grid where the curves rise from t = 0, the relative error is
    taken in place on the slice [:, m:] and summed along each row with the
    same pairwise sum as a 1-D array; any other block goes row by row through
    _mape_arrays.
    """
    e1 = 1.0 - np.exp(-t / model.tau1)
    e2 = 1.0 - np.exp(-t / model.tau2)
    neg_t = -t
    shape = (min(_MAP_BLOCK, len(reps)), len(t))
    exact_buf, approx_buf, work_buf = np.empty(shape), np.empty(shape), np.empty(shape)
    values = []
    for start in range(0, len(reps), _MAP_BLOCK):
        block = reps[start:start + _MAP_BLOCK]
        rows = len(block)
        exact, approx, work = exact_buf[:rows], approx_buf[:rows], work_buf[:rows]
        eqs = [canonical_equivalent(p1, p2, model) for p1, p2 in block]
        np.multiply(np.array([[p1] for p1, _ in block]), e1, out=exact)
        np.multiply(np.array([[p2] for _, p2 in block]), e2, out=work)
        exact += work
        np.divide(neg_t, np.array([[eq.tau_eq] for eq in eqs]), out=approx)
        np.exp(approx, out=approx)
        np.subtract(1.0, approx, out=approx)
        approx *= np.array([[eq.pfr_eq] for eq in eqs])

        np.abs(exact, out=work)
        peak = work.max(axis=1)
        low = np.maximum(MAPE_EXCLUSION_REL * peak, _MAPE_FLOOR)
        # m leading samples of the first row are excluded; a block whose rows
        # all exclude exactly those samples (and so keep some) is a slice
        m = int(np.argmax(work[0] >= low[0]))
        if (np.all(work[:, m:].min(axis=1) >= low)
                and not np.any(work[:, :m] >= low[:, None])):
            kept, rel = exact[:, m:], approx[:, m:]
            np.subtract(kept, rel, out=rel)
            np.divide(rel, kept, out=rel)
            np.abs(rel, out=rel)
            values += (np.add.reduce(rel, axis=1) / rel.shape[1] * 100.0).tolist()
        else:
            values += [_mape_arrays(x, y) for x, y in zip(exact, approx)]
    return values


@_record
class TauSweepCell:
    tau1: float
    tau2: float
    mean_mape_pct: float
    max_mape_pct: float
    pfr_plane_dev: float | None = None  # the cell's TauSurfaceModel.pfr_plane_dev


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
