import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sfrkit import (
    CANONICAL_SURFACE,
    FitError,
    FrequencyTrace,
    InvalidInputError,
    LagBand,
    TauSurfaceModel,
    TwoBandPfr,
    build_tau_surface,
    canonical_equivalent,
    equivalent_tau,
    fit_equivalent_band,
    mape,
    mape_map,
    mape_tau_sweep,
    total_pfr_value,
)
from sfrkit import bandfit, cli

CANONICAL_PAIR = TwoBandPfr(LagBand(130.0, 0.4), LagBand(80.0, 2.0))
SMALL_GRID = (50.0, 100.0, 150.0, 200.0)


def fit_times(tau2):
    """The times of every fit's and map's sampling grid, [0, max(30, 5*tau2)] s at 10 ms."""
    n, dt = bandfit._fit_grid(tau2)
    return np.arange(n) * dt


class TestEquivalentBandFit:
    def test_fast_only_recovers_exactly(self):
        eq = fit_equivalent_band(TwoBandPfr(LagBand(210.0, 0.4), LagBand(0.0, 2.0)))
        assert eq.pfr_eq == pytest.approx(210.0, rel=1e-9)
        assert eq.tau_eq == pytest.approx(0.4, rel=1e-9)

    def test_standard_only_recovers_exactly(self):
        eq = fit_equivalent_band(TwoBandPfr(LagBand(0.0, 0.4), LagBand(210.0, 2.0)))
        assert eq.pfr_eq == pytest.approx(210.0, rel=1e-9)
        assert eq.tau_eq == pytest.approx(2.0, rel=1e-9)

    def test_canonical_mix(self):
        eq = fit_equivalent_band(CANONICAL_PAIR)
        assert eq.pfr_eq == pytest.approx(210.0, rel=0.02)
        assert 0.75 <= eq.tau_eq <= 0.90
        assert eq.fit_residual >= 0.0

    def test_matches_scipy_reference(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        tb = CANONICAL_PAIR
        t = np.arange(0, 3001) * 0.01
        popt, _ = scipy_opt.curve_fit(
            lambda tt, pfr, tau: pfr * (1 - np.exp(-tt / tau)),
            t, total_pfr_value((tb.band1, tb.band2), t), p0=[210.0, 1.0],
            bounds=([0.0, 0.2], [np.inf, 4.0]),
        )
        eq = fit_equivalent_band(tb)
        # curve_fit stops on its own cost tolerance, about 6e-6 from the exact optimum
        assert eq.pfr_eq == pytest.approx(popt[0], rel=1e-4)
        assert eq.tau_eq == pytest.approx(popt[1], rel=1e-4)

    def test_deterministic(self):
        a = fit_equivalent_band(CANONICAL_PAIR)
        b = fit_equivalent_band(CANONICAL_PAIR)
        assert (a.pfr_eq, a.tau_eq, a.fit_residual) == (b.pfr_eq, b.tau_eq, b.fit_residual)

    def test_zero_total_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_equivalent_band(TwoBandPfr(LagBand(0.0, 0.4), LagBand(0.0, 2.0)))

    def test_band_ordering_enforced(self):
        with pytest.raises(InvalidInputError):
            TwoBandPfr(LagBand(100.0, 2.0), LagBand(100.0, 0.4))
        with pytest.raises(InvalidInputError):
            TwoBandPfr(LagBand(-1.0, 0.4), LagBand(100.0, 2.0))


class TestTauSurface:
    def test_coarse_grid_coefficients(self):
        model = build_tau_surface(0.4, 2.0, pfr_grid=np.arange(20.0, 201.0, 20.0))
        assert 1.25 <= model.a <= 1.40
        assert 0.58 <= model.b <= 0.68
        assert model.pfr_plane_dev <= 0.01
        assert model.rms_residual < 0.05

    def test_identical_bands_degenerate(self):
        model = build_tau_surface(1.0, 1.0, pfr_grid=(50.0, 100.0))
        assert model.a == pytest.approx(0.0, abs=1e-9)

    def test_standard_only_column_is_tau1(self):
        # with PFR2 = 0 the fit returns the fast band itself; the model agrees at ratio 0
        eq = fit_equivalent_band(TwoBandPfr(LagBand(120.0, 0.4), LagBand(0.0, 2.0)))
        assert eq.tau_eq == pytest.approx(0.4, rel=1e-9)
        assert equivalent_tau(CANONICAL_SURFACE, 120.0, 0.0) == 0.4

    @pytest.mark.filterwarnings("error")
    def test_zero_pfr1_cells_skipped(self):
        grid = (0.0, 100.0, 200.0)
        model = build_tau_surface(0.4, 2.0, pfr_grid=grid)
        assert model.a > 0
        # the residual is the model's rms over the six PFR1 > 0 cells alone
        cells = [(p1, p2) for p1 in grid[1:] for p2 in grid]
        res = [fit_equivalent_band(TwoBandPfr(LagBand(p1, 0.4), LagBand(p2, 2.0))).tau_eq
               - equivalent_tau(model, p1, p2) for p1, p2 in cells]
        assert model.rms_residual == pytest.approx(
            math.sqrt(sum(r * r for r in res) / len(cells)), rel=1e-9
        )

    @pytest.mark.filterwarnings("error")
    def test_magnitude_drift_is_data_not_a_warning(self):
        # the widest pair of the fig10 sweep drifts about 1.9% off the PFR1 + PFR2 plane
        model = build_tau_surface(0.2, 3.0, pfr_grid=bandfit.DEFAULT_SWEEP_PFR_GRID)
        assert model.pfr_plane_dev > 0.01

    def test_deterministic(self):
        a = build_tau_surface(0.4, 2.0, pfr_grid=SMALL_GRID)
        b = build_tau_surface(0.4, 2.0, pfr_grid=SMALL_GRID)
        assert (a.a, a.b, a.rms_residual) == (b.a, b.b, b.rms_residual)

    def test_model_validation(self):
        with pytest.raises(InvalidInputError):
            TauSurfaceModel(a=-0.1, b=0.6, tau1=0.4, tau2=2.0)
        with pytest.raises(InvalidInputError):
            TauSurfaceModel(a=1.3, b=0.0, tau1=0.4, tau2=2.0)
        with pytest.raises(InvalidInputError):
            TauSurfaceModel(a=1.3, b=0.6, tau1=2.0, tau2=0.4)


class TestEquivalentTauModel:
    def test_canonical_evaluation(self):
        # a(1 - e^(-b*80/130)) + 0.4 with the canonical coefficients
        assert equivalent_tau(CANONICAL_SURFACE, 130.0, 80.0) == pytest.approx(
            0.8227586415072591, rel=1e-12
        )

    def test_ratio_zero_gives_fast_tau(self):
        assert equivalent_tau(CANONICAL_SURFACE, 55.0, 0.0) == 0.4

    def test_passthrough_branch(self):
        assert equivalent_tau(CANONICAL_SURFACE, 0.0, 210.0) == 2.0

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            equivalent_tau(CANONICAL_SURFACE, 0.0, 0.0)

    def test_monotone_and_bounded(self):
        ratios = np.linspace(0.0, 50.0, 200)
        taus = np.array([equivalent_tau(CANONICAL_SURFACE, 1.0, r) for r in ratios])
        assert np.all(np.diff(taus) > 0)
        assert np.all(taus < CANONICAL_SURFACE.a + CANONICAL_SURFACE.tau1)

    def test_canonical_equivalent_band(self):
        eq = canonical_equivalent(130.0, 80.0)
        assert eq.pfr_eq == 210.0
        assert eq.tau_eq == pytest.approx(0.8227586415072591, rel=1e-12)

    def test_canonical_equivalent_passthrough(self):
        eq = canonical_equivalent(0.0, 210.0)
        assert (eq.pfr_eq, eq.tau_eq) == (210.0, 2.0)


class TestMape:
    def test_identical_traces(self):
        tr = FrequencyTrace(0.1, np.array([-0.5, -1.0, -1.5]))
        assert mape(tr, tr) == 0.0

    def test_hand_example(self):
        exact = FrequencyTrace(1.0, np.array([-1.0, -2.0]))
        approx = FrequencyTrace(1.0, np.array([-1.1, -2.2]))
        assert mape(exact, approx) == pytest.approx(10.0, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = FrequencyTrace(0.1, np.array([-1.0, -2.0]))
        b = FrequencyTrace(0.2, np.array([-1.0, -2.0]))
        with pytest.raises(InvalidInputError):
            mape(a, b)

    def test_all_zero_exact_undefined(self):
        zero = FrequencyTrace(0.1, np.zeros(4))
        other = FrequencyTrace(0.1, np.ones(4))
        with pytest.raises(InvalidInputError):
            mape(zero, other)

    def test_near_zero_samples_excluded(self):
        # first sample sits below 1e-6 of the peak and must not blow up the mean
        exact = FrequencyTrace(1.0, np.array([1e-9, -1.0, -2.0]))
        approx = FrequencyTrace(1.0, np.array([0.5, -1.1, -2.2]))
        assert mape(exact, approx) == pytest.approx(10.0, rel=1e-9)


class TestMapeMap:
    def test_small_canonical_map(self):
        report = mape_map(0.4, 2.0, pfr_grid=SMALL_GRID)
        assert 0.0 < report.mean_pct < 3.0
        assert report.max_pct < 4.0
        assert len(report.cells) == len(SMALL_GRID) ** 2

    def test_fast_only_cells_are_exact(self):
        report = mape_map(0.4, 2.0, pfr_grid=(0.0, 100.0))
        by_pair = {(c.pfr1, c.pfr2): c.mape_pct for c in report.cells}
        assert by_pair[(100.0, 0.0)] == pytest.approx(0.0, abs=1e-9)

    def test_single_cell_matches_direct_mape(self):
        report = mape_map(0.4, 2.0, pfr_grid=(130.0,))
        t = np.arange(0, 3001) * 0.01
        tb = TwoBandPfr(LagBand(130.0, 0.4), LagBand(130.0, 2.0))
        eq = canonical_equivalent(130.0, 130.0)
        exact = FrequencyTrace(0.01, total_pfr_value((tb.band1, tb.band2), t))
        approx = FrequencyTrace(0.01, eq.pfr_eq * (1 - np.exp(-t / eq.tau_eq)))
        assert report.cells[0].mape_pct == pytest.approx(mape(exact, approx), rel=1e-12)

    def test_noncanonical_taus_need_a_model(self):
        with pytest.raises(InvalidInputError):
            mape_map(0.3, 1.7, pfr_grid=SMALL_GRID)

    def test_supplied_model_used(self):
        model = build_tau_surface(0.3, 1.7, pfr_grid=SMALL_GRID)
        report = mape_map(0.3, 1.7, pfr_grid=SMALL_GRID, model=model)
        assert report.max_pct < 5.0


class TestTauSweep:
    def test_single_cell_consistent_with_map(self):
        sweep = mape_tau_sweep((0.4,), (2.0,), pfr_grid=SMALL_GRID)
        model = build_tau_surface(0.4, 2.0, pfr_grid=SMALL_GRID)
        report = mape_map(0.4, 2.0, pfr_grid=SMALL_GRID, model=model)
        cell = sweep.cells[0]
        assert (cell.tau1, cell.tau2) == (0.4, 2.0)
        assert cell.mean_mape_pct == report.mean_pct
        assert cell.max_mape_pct == report.max_pct
        assert cell.pfr_plane_dev == model.pfr_plane_dev

    def test_equal_taus_give_zero_error(self):
        sweep = mape_tau_sweep((0.8,), (0.8,), pfr_grid=(50.0, 100.0))
        assert sweep.max_pct == pytest.approx(0.0, abs=1e-9)

    def test_tau2_below_tau1_cells_skipped(self):
        sweep = mape_tau_sweep((0.5, 1.0), (1.0,), pfr_grid=(100.0,))
        assert [(c.tau1, c.tau2) for c in sweep.cells] == [(0.5, 1.0), (1.0, 1.0)]
        with pytest.raises(InvalidInputError):
            mape_tau_sweep((2.0,), (1.0,), pfr_grid=(100.0,))

    def test_thread_env_var_does_not_change_results(self, monkeypatch):
        serial = mape_tau_sweep((0.4, 0.8), (1.0, 2.0), pfr_grid=(60.0, 120.0))
        monkeypatch.setenv("SFRKIT_THREADS", "2")
        threaded = mape_tau_sweep((0.4, 0.8), (1.0, 2.0), pfr_grid=(60.0, 120.0))
        assert serial == threaded


def sampled_ssr(t, y, pfr, tau):
    res = pfr * (1.0 - np.exp(-t / tau)) - y
    return float(res @ res)


def dense_scan_ssr(t, y, tau_lo, tau_hi, n=1200):
    """Least sum of squares over a dense tau scan, the magnitude projected at each."""
    best = np.inf
    for taus in np.array_split(np.geomspace(tau_lo, tau_hi, n), 12):
        s = 1.0 - np.exp(-t[None, :] / taus[:, None])
        pfr = np.maximum(s @ y / np.einsum("ij,ij->i", s, s), 0.0)
        res = pfr[:, None] * s - y
        best = min(best, float(np.min(np.einsum("ij,ij->i", res, res))))
    return best


class TestVariableProjection:
    def test_closed_form_sums_match_sampled(self):
        t = fit_times(2.0)
        n, dt = bandfit._fit_grid(2.0)
        assert (n, dt) == (len(t), 0.01)
        alpha = np.geomspace(0.05, 50.0, 200)
        e_closed, f_closed = bandfit._exp_sums(alpha, (n, dt))
        # the reference: both sums taken sample by sample
        w = np.exp(-alpha[:, None] * t)
        e_sampled, f_sampled = w.sum(axis=-1), w @ t
        np.testing.assert_allclose(e_closed, e_sampled, rtol=1e-12, atol=0)
        np.testing.assert_allclose(f_closed, f_sampled, rtol=1e-12, atol=0)

    def test_surface_ratios_match_cell_fits(self):
        grid = (40.0, 80.0, 120.0, 160.0)
        tau1, tau2 = 0.3, 1.7
        model = build_tau_surface(tau1, tau2, pfr_grid=grid)
        ratios, taus, devs = [], [], []
        for p1 in grid:
            for p2 in grid:
                eq = fit_equivalent_band(TwoBandPfr(LagBand(p1, tau1), LagBand(p2, tau2)))
                ratios.append(p2 / p1)
                taus.append(eq.tau_eq)
                devs.append(abs(eq.pfr_eq - (p1 + p2)) / (p1 + p2))
        # the per-ratio fits behind the surface are the cell fits up to rounding
        _, tau_r, _ = bandfit._fit_lag_bands(1.0, tau1, np.array(ratios), tau2)
        np.testing.assert_allclose(tau_r, taus, rtol=1e-10, atol=0)
        assert model.pfr_plane_dev == pytest.approx(max(devs), rel=1e-9)

        # (a, b) is the least-squares optimum over every cell, not over the ratios
        def ssr(a, b):
            fitted = a * (1.0 - np.exp(-b * np.array(ratios))) + tau1
            return float(np.sum((fitted - taus) ** 2))

        best = ssr(model.a, model.b)
        assert model.rms_residual == pytest.approx(np.sqrt(best / len(taus)), rel=1e-9)
        for step in (1 - 1e-4, 1 + 1e-4):
            assert best < ssr(model.a * step, model.b)
            assert best < ssr(model.a, model.b * step)

    @settings(max_examples=40, deadline=None)
    @given(
        tau1=st.floats(0.1, 2.0),
        tau_ratio=st.sampled_from([1.0, 1.0001]) | st.floats(1.0, 8.0),
        pfr1=st.sampled_from([0.0]) | st.floats(0.0, 500.0),
        pfr2=st.sampled_from([0.0]) | st.floats(0.0, 500.0),
    )
    @example(tau1=0.4, tau_ratio=5.0, pfr1=0.0, pfr2=80.0)
    @example(tau1=0.4, tau_ratio=5.0, pfr1=130.0, pfr2=0.0)
    @example(tau1=0.8, tau_ratio=1.0, pfr1=50.0, pfr2=100.0)
    def test_fit_no_worse_than_dense_scan(self, tau1, tau_ratio, pfr1, pfr2):
        assume(pfr1 + pfr2 > 1e-3)
        tau2 = tau1 * tau_ratio
        tb = TwoBandPfr(LagBand(pfr1, tau1), LagBand(pfr2, tau2))
        eq = fit_equivalent_band(tb)
        t = fit_times(tau2)
        y = total_pfr_value((tb.band1, tb.band2), t)
        ssr = sampled_ssr(t, y, eq.pfr_eq, eq.tau_eq)
        floor = 1e-14 * float(y @ y)
        assert tau1 / 2.0 <= eq.tau_eq <= 2.0 * tau2
        assert ssr <= dense_scan_ssr(t, y, tau1 / 2.0, 2.0 * tau2) * (1.0 + 1e-9) + floor
        assert eq.fit_residual == pytest.approx(ssr, rel=1e-6, abs=floor)


class TestFitErrors:
    def test_no_sign_change_in_the_box(self):
        # tau_eq convex in the ratio: the best b lies below the box
        ratios = np.linspace(0.1, 10.0, 25)
        with pytest.raises(FitError, match="no sign change"):
            bandfit._fit_tau_model(0.4, ratios, np.ones(25), 0.4 + 0.01 * ratios**2)

    def test_non_finite_input(self):
        ratios = np.array([0.5, 1.0, 2.0])
        with pytest.raises(FitError):
            bandfit._fit_tau_model(0.4, ratios, np.ones(3), np.array([0.6, np.nan, 0.9]))

    def test_non_finite_sums(self, monkeypatch):
        def nan_sums(alpha, grid):
            nan = np.full(np.shape(alpha), np.nan)
            return nan, nan

        monkeypatch.setattr(bandfit, "_exp_sums", nan_sums)
        with pytest.raises(FitError):
            fit_equivalent_band(CANONICAL_PAIR)
        with pytest.raises(FitError):
            build_tau_surface(0.4, 2.0, pfr_grid=SMALL_GRID)


def reference_find_root(stationarity, knots, xtol, what):
    """The bisection that the bracketed search replaced, kept as a reference.

    It halves [knots[0], knots[-1]] on the sign of the same zeroed gap until
    the bracket is 1e-13 of its upper end's magnitude wide, and returns the
    midpoint. The magnitude lets it bisect the surface's log b, which is
    negative below b = 1.
    """
    def gap(x):
        p, q = stationarity(x)
        d = p - q
        return np.where(np.abs(d) <= 1e-12 * (np.abs(p) + np.abs(q)), 0.0, d)

    lo, hi = np.asarray(knots[0], dtype=float), np.asarray(knots[-1], dtype=float)
    if not (np.all(gap(lo) >= 0.0) and np.all(gap(hi) <= 0.0)):
        raise FitError(f"{what}: no sign change of the stationarity condition in the box")
    while np.any(hi - lo > 1e-13 * np.abs(hi)):
        mid = 0.5 * (lo + hi)
        up = gap(mid) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def stepwise_find_root(stationarity, knots, xtol, what):
    """_find_root as it was before it picked each root once, at exit.

    Every step rebuilt the stop and root masks and recorded an element's
    root at the step where it stopped. It starts, as _find_root does, from
    the knots on either side of the root and the knot past them. It is the
    reference that the single exit must match bit for bit.
    """
    def gap(x):
        return bandfit._zeroed(*stationarity(x))

    knots = np.asarray(knots, dtype=float)
    g = gap(knots)
    if not (np.all(g[0] >= 0.0) and np.all(g[-1] <= 0.0)):
        raise FitError(f"{what}: no sign change of the stationarity condition in the box")
    if not np.all(np.isfinite(g)):
        raise FitError(f"{what}: non-finite stationarity condition")
    k = np.argmax(g <= 0.0, axis=0)[None]
    j, i = np.maximum(k - 1, 0), np.minimum(k + 1, len(g) - 1)
    x1, f1 = np.take_along_axis(knots, k, 0)[0], np.take_along_axis(g, k, 0)[0]
    x2, f2 = np.take_along_axis(knots, j, 0)[0], np.take_along_axis(g, j, 0)[0]
    x3, f3 = np.take_along_axis(knots, i, 0)[0], np.take_along_axis(g, i, 0)[0]
    done = (f1 == 0.0) | (np.abs(x2 - x1) <= xtol)
    root = np.where(np.abs(f1) <= np.abs(f2), x1, x2)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while not done.all():
            if steps == bandfit._MAX_STEPS:
                raise FitError(f"{what}: no convergence in {bandfit._MAX_STEPS} steps")
            steps += 1
            # the first step interpolates through the knots around the root and
            # the one past it, as every later step does through its last three points
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
            tl = 0.5 * xtol / np.abs(x2 - x1)
            t = np.clip(t, tl, 1.0 - tl)
            x = np.where(done, x1, x1 + t * (x2 - x1))
            f = gap(x)
            if not np.all(np.isfinite(f)):
                raise FitError(f"{what}: non-finite stationarity condition")
            same = (f > 0.0) == (f1 > 0.0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, f
            width = np.abs(x2 - x1)
            stop = ~done & ((f1 == 0.0) | (width <= xtol))
            root = np.where(stop, np.where(np.abs(f1) <= np.abs(f2), x1, x2), root)
            done = done | stop
    return root


def counting(search, counts):
    """Wrap a root search so that each stationarity evaluation it makes is counted by fit."""
    def wrapped(stationarity, knots, xtol, what):
        def counted(x):
            counts[what] += 1
            return stationarity(x)
        return search(counted, knots, xtol, what)
    return wrapped


def search(stationarity, *knots):
    """_find_root on knots given one per position, each a scalar or a list."""
    return bandfit._find_root(stationarity, [np.array(k) for k in knots], 1e-13, "test")


@st.composite
def root_problems(draw):
    """Elementwise gaps exp(-c x) + s (r - x)^3 - exp(-c r), falling through their roots r.

    c = 0 and s = 0 give a gap that is flat, and so zero, everywhere. The
    knots are a box around r and an inner knot, each of which may sit on r.
    """
    n = draw(st.integers(1, 6))
    unit = st.sampled_from([0.0]) | st.floats(0.05, 3.0)
    r = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    c, s, below, above, inner = (np.array(draw(st.lists(unit, min_size=n, max_size=n)))
                                 for _ in range(5))
    lo, hi = r - below, r + above
    # clipped, since lo + 1.0 * (hi - lo) can round above hi
    knots = [lo, np.minimum(lo + inner * (hi - lo), hi), hi]
    return r, c, s, knots


class TestBracketedSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        tau1=st.floats(0.1, 2.0),
        tau_ratio=st.sampled_from([1.0]) | st.floats(1.0, 8.0),
        pfr1=st.sampled_from([0.0]) | st.floats(0.0, 500.0),
        pfr2=st.sampled_from([0.0]) | st.floats(0.0, 500.0),
    )
    @example(tau1=0.4, tau_ratio=5.0, pfr1=130.0, pfr2=80.0)
    @example(tau1=0.4, tau_ratio=5.0, pfr1=130.0, pfr2=0.0)
    @example(tau1=0.4, tau_ratio=5.0, pfr1=0.0, pfr2=80.0)
    @example(tau1=1.0, tau_ratio=1.0, pfr1=50.0, pfr2=100.0)
    def test_fit_no_worse_than_reference_bisection(self, tau1, tau_ratio, pfr1, pfr2):
        assume(pfr1 + pfr2 > 1e-3)
        tau2 = tau1 * tau_ratio
        tb = TwoBandPfr(LagBand(pfr1, tau1), LagBand(pfr2, tau2))
        eq = fit_equivalent_band(tb)
        original = bandfit._find_root
        try:
            bandfit._find_root = reference_find_root
            ref = fit_equivalent_band(tb)
        finally:
            bandfit._find_root = original
        t = fit_times(tau2)
        y = total_pfr_value((tb.band1, tb.band2), t)
        ssr = sampled_ssr(t, y, eq.pfr_eq, eq.tau_eq)
        ref_ssr = sampled_ssr(t, y, ref.pfr_eq, ref.tau_eq)
        assert tau1 / 2.0 <= eq.tau_eq <= 2.0 * tau2
        # the floor is rounding in the sampled sums of an exact or near-exact fit
        assert ssr <= ref_ssr * (1.0 + 1e-12) + 1e-20 * float(y @ y)
        assert eq.tau_eq == pytest.approx(ref.tau_eq, rel=1e-9)

    def test_exact_cases_land_on_the_knots(self):
        # PFR2 = 0, PFR1 = 0 and tau1 = tau2 fit one band exactly; the root is a knot
        def tau_eq(p1, tau1, p2, tau2):
            return fit_equivalent_band(TwoBandPfr(LagBand(p1, tau1), LagBand(p2, tau2))).tau_eq

        assert tau_eq(120.0, 0.4, 0.0, 2.0) == 0.4
        assert tau_eq(0.0, 0.4, 120.0, 2.0) == 2.0
        assert tau_eq(50.0, 0.8, 70.0, 0.8) == 0.8

    def test_flat_surface_settles_at_the_lower_end(self):
        model = build_tau_surface(1.0, 1.0, pfr_grid=(50.0, 100.0))
        assert model.b == 1e-6
        assert model.a == 0.0

    def test_surface_matches_reference_bisection(self, monkeypatch):
        grid = bandfit.DEFAULT_SWEEP_PFR_GRID
        model = build_tau_surface(0.3, 1.7, pfr_grid=grid)
        monkeypatch.setattr(bandfit, "_find_root", reference_find_root)
        ref = build_tau_surface(0.3, 1.7, pfr_grid=grid)
        assert model.rms_residual <= ref.rms_residual * (1.0 + 1e-9)
        assert model.a == pytest.approx(ref.a, rel=1e-8)
        assert model.b == pytest.approx(ref.b, rel=1e-8)

    def test_evaluation_counts(self, monkeypatch):
        # the knots around each root and the knot past them seed the first step,
        # so it can interpolate, where a first bisection took one evaluation
        # more; the counts repeat exactly from run to run
        counts = collections.Counter()
        monkeypatch.setattr(bandfit, "_find_root", counting(bandfit._find_root, counts))
        for pair in (CANONICAL_PAIR, TwoBandPfr(LagBand(120.0, 0.4), LagBand(80.0, 2.0))):
            counts.clear()
            fit_equivalent_band(pair)
            assert 0 < counts["equivalent-band fit"] <= 4, pair
        # the fig10 sweep: the knot call counts as one evaluation of either search
        for tau1, tau2 in bandfit._sweep_pairs():
            counts.clear()
            build_tau_surface(tau1, tau2, pfr_grid=bandfit.DEFAULT_SWEEP_PFR_GRID)
            assert 0 < counts["tau-surface fit"] <= 5, (tau1, tau2)
            assert 0 < counts["equivalent-band fit"] <= 5, (tau1, tau2)

    def test_fig4_element_steps(self, monkeypatch):
        # elements evaluated after the knots by the one vector fit of fig4's 400 cells
        steps = []

        def counting_steps(stationarity, knots, xtol, what):
            def counted(x):
                steps.append(np.size(x))
                return stationarity(x)
            return find_root(counted, knots, xtol, what)

        find_root = bandfit._find_root
        monkeypatch.setattr(bandfit, "_find_root", counting_steps)
        list(cli._fig4()[1])
        assert 0 < sum(steps[1:]) <= 2200

    def test_stalled_search_raises(self, monkeypatch):
        monkeypatch.setattr(bandfit, "_MAX_STEPS", 2)
        with pytest.raises(FitError, match="no convergence"):
            fit_equivalent_band(CANONICAL_PAIR)
        ratios = np.array([0.5, 1.0, 2.0, 4.0])
        tau_eqs = 0.4 + 1.3 * (1.0 - np.exp(-0.6 * ratios))
        with pytest.raises(FitError, match="no convergence"):
            bandfit._fit_tau_model(0.4, ratios, np.ones(4), tau_eqs)
        # a non-finite point fails the search as such, though another element is still open
        with pytest.raises(FitError, match="non-finite"):
            search(lambda x: (np.where((np.abs(x) < 0.3) & [True, False], np.nan, -x), 0.0 * x),
                   [-1.0, -1.0], [1.0, 1.0 + 1e-3])

    def test_vector_search_contract(self):
        with pytest.raises(FitError, match="no sign change"):
            search(lambda x: (x, 0.0 * x), [-1.0, 0.5], [1.0, 2.0])
        with pytest.raises(FitError, match="non-finite"):
            search(lambda x: (np.where(np.abs(x) < 0.3, np.nan, -x), 0.0 * x), [-1.0], [1.0])
        # exp(-x) = 1/2 at ln 2: on the lower end, on a middle knot, and inside
        ln2 = math.log(2.0)
        root = search(lambda x: (np.exp(-x), np.full_like(x, 0.5)),
                      [ln2, 0.0, 0.0], [2.5, ln2, 1.0], [4.0, 4.0, 4.0])
        assert root[0] == ln2
        assert root[1] == ln2
        assert root[2] == pytest.approx(ln2, rel=1e-12)

    def test_scalar_search_contract(self):
        # 0-d knots give one root, kept as a numpy scalar
        with pytest.raises(FitError, match="no sign change"):
            search(lambda x: (x, 0.0 * x), -1.0, 1.0)
        with pytest.raises(FitError, match="non-finite"):
            search(lambda x: (np.where(x == 0.0, np.nan, -x), 0.0 * x), -1.0, 1.0)
        # a gap that is exactly zero at the lower end returns that end
        assert search(lambda x: (np.ones_like(x), np.ones_like(x)), 2.0, 3.0) == 2.0
        root = search(lambda x: (np.exp(-x), np.full_like(x, 0.5)), 0.0, 4.0)
        assert isinstance(root, np.float64)
        assert root == pytest.approx(math.log(2.0), rel=1e-13)
        # a bracket narrowed to xtol gives the end with the smaller gap: its first
        # step lands on x = 1.5, whose gap is far larger than that of x = 0
        def steep_above(x):
            return np.where(x < 1.0, 1e-9 * (1.0 - x), 1.0 - x), 0.0 * x

        assert bandfit._find_root(steep_above, np.array([0.0, 3.0]), 2.0, "test") == 0.0

    @settings(max_examples=60, deadline=None)
    @given(root_problems())
    def test_vector_search_is_its_elements_searches(self, problem):
        r, c, s, knots = problem

        def stationarity_of(c, s, r):
            return lambda x: (np.exp(-c * x) + s * (r - x) ** 3, np.exp(-c * r) + 0.0 * x)

        roots = search(stationarity_of(c, s, r), *knots)
        for i in range(len(r)):
            one = search(stationarity_of(c[i], s[i], r[i]), *(k[i] for k in knots))
            assert one == roots[i], i
            assert knots[0][i] <= one <= knots[-1][i]

    def test_single_exit_matches_the_stepwise_search(self, monkeypatch):
        # the fig4 grid at once and a few of its cells alone, and the sweep's ratios
        grid = np.array(bandfit.DEFAULT_PFR_GRID)
        p1, p2 = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
        sweep = np.array(bandfit.DEFAULT_SWEEP_PFR_GRID)
        cases = [(p1, p2), (1.0, np.unique(np.divide.outer(sweep, sweep)))]
        cases += list(zip(p1[::37], p2[::37]))
        fits = [bandfit._fit_lag_bands(a, 0.4, b, 2.0) for a, b in cases]
        monkeypatch.setattr(bandfit, "_find_root", stepwise_find_root)
        for (a, b), fit in zip(cases, fits):
            for got, want in zip(fit, bandfit._fit_lag_bands(a, 0.4, b, 2.0)):
                assert np.array_equal(got, want)


def per_cell_mape_map(tau1, tau2, grid, model, t):
    """mape_map as it was: one MAPE per cell, through the public mape()."""
    dt = float(t[1])
    e1, e2 = 1.0 - np.exp(-t / tau1), 1.0 - np.exp(-t / tau2)
    out = []
    for p1 in grid:
        for p2 in grid:
            if p1 == 0 and p2 == 0:
                continue
            eq = canonical_equivalent(p1, p2, model)
            exact = FrequencyTrace(dt, p1 * e1 + p2 * e2)
            approx = FrequencyTrace(dt, eq.pfr_eq * (1.0 - np.exp(-t / eq.tau_eq)))
            out.append(((p1, p2), mape(exact, approx)))
    return out


class TestMapeMapSharedRows:
    def test_matches_per_cell_recomputation(self):
        # 0 gives the PFR1 = 0 passthrough column and the PFR2 = 0 column; 30/90
        # and 40/120 share a ratio without being power-of-two multiples
        grid = (0.0, 30.0, 40.0, 60.0, 90.0, 120.0)
        report = mape_map(0.4, 2.0, pfr_grid=grid)
        want = per_cell_mape_map(0.4, 2.0, grid, CANONICAL_SURFACE,
                                 fit_times(2.0))
        assert [(c.pfr1, c.pfr2) for c in report.cells] == [cell for cell, _ in want]
        # cells share a row only with power-of-two multiples, so every value is
        # the cell's own, bit for bit; cells that merely share a ratio agree to rounding
        assert [c.mape_pct for c in report.cells] == [value for _, value in want]
        by_cell = {(c.pfr1, c.pfr2): c.mape_pct for c in report.cells}
        assert by_cell[(30.0, 90.0)] == pytest.approx(by_cell[(40.0, 120.0)], rel=1e-12)
        values = [value for _, value in want]
        assert report.mean_pct == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert report.max_pct == max(c.mape_pct for c in report.cells)

    def test_class_keys_do_not_underflow(self):
        # 1e-300 is about 2^-1993 of 1e300: a key scaled by the exponent of the
        # sum read it as 0 and put (1e-300, 1e300) in the class of (0, 1e300)
        grid = (0.0, 1e-300, 1e300)
        report = mape_map(0.4, 2.0, pfr_grid=grid)
        want = per_cell_mape_map(0.4, 2.0, grid, CANONICAL_SURFACE,
                                 fit_times(2.0))
        assert [((c.pfr1, c.pfr2), c.mape_pct) for c in report.cells] == want
        by_cell = {(c.pfr1, c.pfr2): c.mape_pct for c in report.cells}
        assert by_cell[(1e-300, 1e300)] == 1.6318760604533769
        assert by_cell[(0.0, 1e300)] == 0.0


@st.composite
def map_cases(draw):
    """(tau1, tau2, model, grid) for a MAPE map on the sampling grid.

    Grids hold 0 and ratios that are not powers of two, and may hold
    magnitudes so small that _MAPE_FLOOR sets their rows' thresholds.
    """
    tau1 = draw(st.floats(0.1, 2.0))
    tau2 = tau1 * draw(st.sampled_from([1.0]) | st.floats(1.0, 4.0))
    model = TauSurfaceModel(a=draw(st.floats(0.0, 3.0)), b=draw(st.floats(0.05, 3.0)),
                            tau1=tau1, tau2=tau2)
    magnitude = (st.sampled_from([10.0, 30.0, 40.0, 90.0, 120.0, 1e-306, 3e-307])
                 | st.floats(0.5, 300.0))
    return tau1, tau2, model, (0.0, *draw(st.lists(magnitude, min_size=1, max_size=6)))


class TestMapeMapBlocks:
    @settings(max_examples=60, deadline=None)
    @given(case=map_cases(), row_by_row=st.none())
    # the tiny rows' thresholds sit at _MAPE_FLOOR, so the rows keep different
    # suffixes of samples and the block goes row by row
    @example(case=(0.4, 2.0, CANONICAL_SURFACE, (0.0, 1e-306, 100.0)), row_by_row=8)
    # an unsorted grid with a duplicate and a 0
    @example(case=(0.4, 2.0, CANONICAL_SURFACE, (60.0, 0.0, 30.0, 30.0, 120.0)), row_by_row=0)
    def test_matches_per_cell_recomputation(self, case, row_by_row):
        tau1, tau2, model, grid = case
        with mock.patch.object(bandfit, "_mape_arrays", wraps=bandfit._mape_arrays) as rows:
            report = mape_map(tau1, tau2, pfr_grid=grid, model=model)
        if row_by_row is not None:
            assert rows.call_count == row_by_row
        want = per_cell_mape_map(tau1, tau2, grid, model, fit_times(tau2))
        assert [((c.pfr1, c.pfr2), c.mape_pct) for c in report.cells] == want

    @pytest.mark.parametrize("tau1, tau2", [(0.95, 1.0), (0.3, 2.5)])
    def test_sweep_cell_matches_per_cell_recomputation(self, tau1, tau2, monkeypatch):
        # one benchmark reduce operation: the sweep grid, default times and a
        # fresh surface give 75 classes, nine full blocks and a 3-row last one
        grid = bandfit.DEFAULT_SWEEP_PFR_GRID
        model = build_tau_surface(tau1, tau2, pfr_grid=grid)
        classes = []
        class_mapes = bandfit._class_mapes

        def counting(reps, *args):
            classes.append(len(reps))
            return class_mapes(reps, *args)

        monkeypatch.setattr(bandfit, "_class_mapes", counting)
        report = mape_map(tau1, tau2, pfr_grid=grid, model=model)
        assert classes == [75] and divmod(75, bandfit._MAP_BLOCK) == (9, 3)
        want = per_cell_mape_map(tau1, tau2, grid, model, fit_times(tau2))
        assert [((c.pfr1, c.pfr2), c.mape_pct) for c in report.cells] == want


def map_classes(grid, model, monkeypatch):
    """The (classes, 2) representatives that mape_map hands to _class_mapes, and its report."""
    seen = []
    class_mapes = bandfit._class_mapes

    def recording(reps, *args):
        seen.append(reps.copy())
        return class_mapes(reps, *args)

    monkeypatch.setattr(bandfit, "_class_mapes", recording)
    report = mape_map(model.tau1, model.tau2, pfr_grid=grid, model=model)
    return seen[0], report


def assert_map_is_per_cell(report, grid, model):
    want = per_cell_mape_map(model.tau1, model.tau2, grid, model, fit_times(model.tau2))
    assert [((c.pfr1, c.pfr2), c.mape_pct) for c in report.cells] == want


class TestClassTaus:
    """Every class takes its tau from equivalent_tau, so every cell gets mape()'s bits."""

    @pytest.mark.parametrize("grid", [bandfit.DEFAULT_PFR_GRID, bandfit.DEFAULT_SWEEP_PFR_GRID])
    @pytest.mark.parametrize("surface", ["canonical", "fitted"])
    def test_every_class_of_the_default_grids(self, grid, surface, monkeypatch):
        model = (CANONICAL_SURFACE if surface == "canonical"
                 else build_tau_surface(0.3, 2.5, pfr_grid=bandfit.DEFAULT_SWEEP_PFR_GRID))
        reps, report = map_classes(grid, model, monkeypatch)
        assert len(reps) == {20: 300, 10: 75}[len(grid)]
        assert_map_is_per_cell(report, grid, model)

    # magnitudes of 1e-300 to 1e300: every cell's peak is a normal double and
    # PFR1 + PFR2 is finite, so every cell's MAPE is defined
    @settings(max_examples=200, deadline=None)
    @given(magnitudes=st.lists(st.just(0.0) | st.floats(1e-3, 1e4) | st.floats(1e-300, 1e300),
                               min_size=1, max_size=12).filter(any),
           a=st.floats(0.0, 5.0), b=st.floats(1e-6, 1e3))
    def test_any_magnitudes_and_coefficients(self, magnitudes, a, b):
        model = TauSurfaceModel(a=a, b=b, tau1=0.4, tau2=2.0)
        assert_map_is_per_cell(mape_map(0.4, 2.0, pfr_grid=magnitudes, model=model),
                               magnitudes, model)


class TestMapeMapSetUp:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_runs_clean(self):
        # -b*1e300/1e-300 overflows to -inf, whose exp is 0, as in the scalar path
        report = mape_map(0.4, 2.0, pfr_grid=(1e-300, 1e300, 3.0))
        assert len(report.cells) == 9
        assert all(math.isfinite(c.mape_pct) for c in report.cells)

    @pytest.mark.filterwarnings("error")
    def test_band_that_is_not_finite_fails_as_canonical_equivalent(self):
        with pytest.raises(InvalidInputError, match="^pfr_eq must be finite and >= 0, got inf$"):
            mape_map(0.4, 2.0, pfr_grid=(1e308, 1.7e308))
        # a*(1 - exp(-1000)) + tau1 would overflow, but the sampling grid
        # caps tau2 at 20 000 s first
        model = TauSurfaceModel(a=1.7e308, b=1e3, tau1=3e307, tau2=3e307)
        with pytest.raises(InvalidInputError, match="^fit window 5\\*tau2="):
            mape_map(3e307, 3e307, pfr_grid=(10.0, 20.0), model=model)


SURFACE_FIELDS = dict(a=1.3, b=0.6, tau1=0.4, tau2=2.0, rms_residual=0.01, pfr_plane_dev=0.005)
BAND_FIELDS = dict(pfr_eq=210.0, tau_eq=0.8, fit_residual=1.0)


class TestFiniteFields:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", list(SURFACE_FIELDS))
    def test_surface_model(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            TauSurfaceModel(**{**SURFACE_FIELDS, name: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", list(BAND_FIELDS))
    def test_equivalent_band(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            bandfit.EquivalentBand(**{**BAND_FIELDS, name: value})

    def test_unset_optional_fields_allowed(self):
        TauSurfaceModel(a=1.3, b=0.6, tau1=0.4, tau2=2.0)
        bandfit.EquivalentBand(pfr_eq=210.0, tau_eq=0.8)
