"""Input boundaries: finite record fields, the surface pair rule, stray errors in main,
arguments beyond the float range and the package's public names."""
import argparse
import functools
import inspect
import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sfrkit
from sfrkit import (
    BranchError,
    DerivedParams,
    IntegrationSpec,
    InvalidInputError,
    LagBand,
    RampBand,
    SystemConditions,
    applications,
    bandfit,
    cli,
    closedform,
    model,
    oracle,
    reports,
)
from sfrkit.bandfit import CANONICAL_SURFACE, build_tau_surface, mape_map
from sfrkit.cli import main

SCENARIO = str(Path(__file__).resolve().parent.parent / "demos/scenarios/lag_270mw.json")
RAMP_SCENARIO = str(Path(SCENARIO).with_name("ramp_fast.json"))
SMALL_GRID = (40.0, 80.0, 120.0, 160.0)

RECORDS = {
    SystemConditions: dict(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0),
    DerivedParams: dict(dprime=80.0, h=180.0),
    LagBand: dict(pfr=270.0, tau=2.0),
    RampBand: dict(pfr=270.0, t_r=6.0),
}
CASES = [(cls, name, value) for cls, fields in RECORDS.items() for name in fields
         for value in (math.inf, -math.inf, math.nan)
         if (cls, name, value) != (SystemConditions, "ke", math.inf)]


class TestRecordFiniteFields:
    @pytest.mark.parametrize("cls, name, value", CASES,
                             ids=[f"{c.__name__}.{n}={v}" for c, n, v in CASES])
    def test_non_finite_rejected(self, cls, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} must be "):
            cls(**{**RECORDS[cls], name: value})

    def test_infinite_inertia_is_the_one_exception(self):
        sc = SystemConditions(**{**RECORDS[SystemConditions], "ke": math.inf})
        assert sc.h == math.inf
        with pytest.raises(InvalidInputError, match="^h must be finite"):
            DerivedParams(dprime=sc.dprime, h=sc.h)

    @pytest.mark.parametrize("cls, fields", [
        (SystemConditions, dict(d=0.0, p_cont=-300.0)),  # no load relief; over-frequency
        (DerivedParams, dict(dprime=0.0)),
        (LagBand, dict(pfr=-270.0)),
        (RampBand, dict(pfr=0.0)),
    ])
    def test_finite_edge_values_accepted(self, cls, fields):
        cls(**{**RECORDS[cls], **fields})


class TestSurfacePairRule:
    def test_library_rejects_a_mismatched_model(self):
        model = build_tau_surface(0.3, 1.7, pfr_grid=SMALL_GRID)
        with pytest.raises(InvalidInputError, match="tau1=0.3, tau2=1.7"):
            mape_map(0.4, 2.0, pfr_grid=SMALL_GRID, model=model)
        with pytest.raises(InvalidInputError, match="tau1=0.4, tau2=2.0"):
            mape_map(0.4, 1.7, pfr_grid=SMALL_GRID, model=CANONICAL_SURFACE)

    def test_cli_rejects_a_mismatched_surface(self, tmp_path, capsys):
        surface, out = tmp_path / "s.json", tmp_path / "m.csv"
        assert main(["fit-surface", "--tau1", "0.3", "--tau2", "1.7", "--out", str(surface)]) == 0
        assert main(["mape-map", "--surface", str(surface), "--out", str(out)]) == 1
        assert "tau1=0.3" in capsys.readouterr().err
        assert not out.exists()
        assert main(["mape-map", "--tau1", "0.3", "--tau2", "1.7", "--surface", str(surface),
                     "--out", str(out)]) == 0
        assert out.exists()


# a finite K = 1 cap whose slope dP/dH = -P beta/H overflows at a tiny H
SLOPE_OVERFLOW = ["--set", "system.p_load_mw=1e-300", "--set", "system.d_relief=1",
                  "--set", "system.ke_mws=1e-298", "--delta-f-max=-1e308"]


class TestStrayErrors:
    def test_non_finite_json_result_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["sensitivities", "--scenario", SCENARIO, *SLOPE_OVERFLOW,
                     "--pfr1", "130", "--pfr2", "80", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not JSON compliant" in err
        assert not out.exists()

    def test_a_underflow_exits_1(self, tmp_path, capsys):
        # A = D'*tau/(2H) = 0 gave a shape factor of 0 and a ZeroDivisionError
        out = tmp_path / "cap.json"
        assert main(["max-contingency", "--scenario", SCENARIO, "--delta-f-max", "-1",
                     "--tau", "5e-324", "--k-policy", "0.5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: A = D'*tau/(2H) must be finite and > 0, got 0.0 at tau = 5e-324 s\n")
        assert not out.exists()

    def test_overflow_exits_1(self, monkeypatch, tmp_path, capsys):
        def overflow(args):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "_cmd_min_tau", overflow)
        assert main(["min-tau", "--scenario", SCENARIO, "--k", "1.4",
                     "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == "error: math range error\n"


class TestFig4OneFit:
    def test_rows_equal_cell_fits(self):
        header, rows = cli._fig4()
        assert header == ("pfr1_mw", "pfr2_mw", "pfr_eq_mw", "tau_eq_s")
        rows = list(rows)
        grid = bandfit.DEFAULT_PFR_GRID
        assert len(rows) == len(grid) ** 2
        cells = iter(rows)
        for p1 in grid:
            for p2 in grid:
                eq = bandfit.fit_equivalent_band(
                    bandfit.TwoBandPfr(LagBand(p1, 0.4), LagBand(p2, 2.0)))
                assert next(cells) == (p1, p2, eq.pfr_eq, eq.tau_eq)


class TestFiniteDifferenceStep:
    def test_no_step_knob(self):
        assert "rel_step" not in inspect.signature(applications.sensitivity_report_fd).parameters


class TestGridCellCap:
    @pytest.mark.parametrize("command", ["mape-map", "fit-surface", "tau-sweep"])
    def test_large_grid_exits_1_before_any_work(self, command, monkeypatch, tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected grid must not be fitted or mapped")

        for name in ("mape_map", "build_tau_surface", "mape_tau_sweep"):
            monkeypatch.setattr(bandfit, name, no_work)
        out = tmp_path / "out.csv"
        taus = ["--tau1", "0.4", "--tau2", "2.0"] if command == "fit-surface" else []
        start = time.perf_counter()
        assert main([command, *taus, "--pfr-min", "1", "--pfr-max", "1000", "--pfr-step", "1",
                     "--out", str(out)]) == 1
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        err = capsys.readouterr().err
        assert "1000 x 1000 cells" in err and "--pfr-step" in err

    @pytest.mark.parametrize("pfr_max, cells", [(200.0, 200), (201.0, None)])
    def test_cap_is_200_by_200(self, pfr_max, cells):
        args = argparse.Namespace(pfr_min=1.0, pfr_max=pfr_max, pfr_step=1.0)
        if cells is None:
            with pytest.raises(InvalidInputError, match="201 x 201 cells, at most 40000"):
                cli._pfr_grid(args)
        else:
            assert len(cli._pfr_grid(args)) == cells


class TestInfiniteInertia:
    def test_lag_deviation_is_zero(self):
        sc = SystemConditions(**{**RECORDS[SystemConditions], "ke": math.inf})
        t = np.linspace(0.0, 30.0, 7)
        bands = [LagBand(130.0, 0.4), LagBand(80.0, 2.0)]
        assert np.all(closedform.delta_f(sc, bands[1:], t) == 0.0)
        assert np.all(closedform.delta_f(sc, bands, t) == 0.0)
        assert np.all(closedform.trace(sc, bands, 30.0, 0.01, "lag").samples == 0.0)

    def test_compare_of_lag_bands(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["compare", "--scenario", SCENARIO, "--set", "system.ke_mws=1e308",
                     "--set", "system.f_n_hz=1e-10", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "max_abs_gap_hz=0\n"
        for side in ("closed", "oracle"):
            values = np.loadtxt(tmp_path / f"c_{side}.csv", delimiter=",", skiprows=1)
            assert np.all(values[:, 1] == 0.0)

    def test_ramp_deviation_is_zero(self):
        # the ramp's step and slope terms cancel as H -> inf
        sc = SystemConditions(**{**RECORDS[SystemConditions], "ke": math.inf})
        t = np.linspace(0.0, 6.0, 7)
        bands = [RampBand(130.0, 2.0), RampBand(80.0, 6.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(closedform.delta_f(sc, bands[1:], t) == 0.0)
            assert np.all(closedform.delta_f(sc, bands, t) == 0.0)
            assert np.all(closedform.trace(sc, bands, 6.0, 0.01, "ramp").samples == 0.0)

    def test_compare_of_ramp_bands(self, tmp_path, capsys):
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["compare", "--scenario", RAMP_SCENARIO, "--set", "system.ke_mws=1e308",
                         "--set", "system.f_n_hz=1e-10", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "max_abs_gap_hz=0\n"
        for side in ("closed", "oracle"):
            values = np.loadtxt(tmp_path / f"c_{side}.csv", delimiter=",", skiprows=1)
            assert np.all(values[:, 1] == 0.0)

    def test_non_finite_gap_exits_1(self, tmp_path, capsys, monkeypatch):
        # a closed-form trace with a NaN sample, as a non-finite input could give
        trace = closedform.trace

        def nan_trace(*args):
            result = trace(*args)
            result.samples[3] = math.nan
            return result

        monkeypatch.setattr(closedform, "trace", nan_trace)
        out = tmp_path / "c"
        assert main(["compare", "--scenario", RAMP_SCENARIO, "--out", str(out)]) == 1
        assert "differ by nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestNonFiniteJsonKey:
    def test_names_the_first_key_path(self, tmp_path):
        path = tmp_path / "o.json"
        doc = {"z": math.nan, "a": {"ok": 1.0, "rows": [0.0, 2.0, -math.inf]}}
        with pytest.raises(InvalidInputError, match=r"^a\.rows\[2\] = -inf: "):
            reports.write_json(path, doc)
        assert not path.exists()

    def test_cli_names_the_field(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["sensitivities", "--scenario", SCENARIO, *SLOPE_OVERFLOW,
                     "--pfr1", "130", "--pfr2", "80", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: analytic.dp_dh_mw_per_mws_hz = inf: ")
        assert not out.exists()


def _no_warnings(fn):
    """fn() with every warning recorded; asserts that none was raised, whether or not fn raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fn()
        finally:
            assert [str(w.message) for w in caught] == []


class TestSurfaceTimeConstants:
    @pytest.mark.parametrize("tau1, tau2", [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                                            (0.4, math.inf), (2.0, 1.0)])
    def test_library_rejects_before_any_work(self, tau1, tau2, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected pair must not be fitted")

        monkeypatch.setattr(bandfit, "_fit_lag_bands", no_work)
        with pytest.raises(InvalidInputError, match=r"^need finite 0 < tau1 <= tau2, got tau1="):
            _no_warnings(lambda: build_tau_surface(tau1, tau2))

    @pytest.mark.parametrize("tau1, tau2, shown", [
        (0.4, 10**400, "tau1=0.4, tau2=an integer too large for a float"),
        (0.4, 10**5000, "tau1=0.4, tau2=an integer too large for a float"),
        (10**5000, 10**5000, "tau1=an integer too large for a float, "
                             "tau2=an integer too large for a float"),
    ], ids=["1e400", "1e5000", "both"])
    def test_an_int_beyond_the_float_range_is_described(self, tau1, tau2, shown):
        # 10**400 was printed with its 401 digits; 10**5000 raised ValueError while printed
        message = f"^need finite 0 < tau1 <= tau2, got {re.escape(shown)}$"
        with pytest.raises(InvalidInputError, match=message):
            bandfit.TauSurfaceModel(1.0, 1.0, tau1, tau2)
        with pytest.raises(InvalidInputError, match=message):
            build_tau_surface(tau1, tau2)

    @pytest.mark.parametrize("args", [
        ["fit-surface", "--tau1", "0", "--tau2", "1"],
        ["tau-sweep", "--tau1-values", "-1", "--tau2-values", "1"],
    ])
    def test_cli_exits_1(self, args, tmp_path, capsys):
        out = tmp_path / "out"
        assert _no_warnings(lambda: main([*args, "--out", str(out)])) == 1
        assert "tau1=" in capsys.readouterr().err
        assert not out.exists()


class TestMagnitudeGridCheck:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("fit", [build_tau_surface, mape_map])
    def test_library_names_the_grid(self, fit, value):
        with pytest.raises(InvalidInputError, match="^pfr grid must be"):
            _no_warnings(lambda: fit(0.4, 2.0, pfr_grid=[10.0, value]))

    def test_overflowing_ratio(self):
        with pytest.raises(InvalidInputError, match=r"^pfr grid: the ratio 1e\+200/1e-200 "):
            _no_warnings(lambda: build_tau_surface(0.4, 2.0, pfr_grid=[1e-200, 1e200]))

    def test_cli_overflowing_grid_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert _no_warnings(lambda: main([
            "fit-surface", "--tau1", "0.4", "--tau2", "2.0", "--pfr-min", "1e-200",
            "--pfr-max", "1e200", "--pfr-step", "5e199", "--out", str(out)])) == 1
        assert capsys.readouterr().err.startswith("error: pfr grid: the ratio ")
        assert not out.exists()


TWO_BAND_SCENARIO = str(Path(SCENARIO).with_name("two_band_mix.json"))


class TestBandFitSquares:
    """The band fit's sums reach (PFR1 + PFR2)^2 * n, with n = 3001 samples at tau2 = 2 s.

    Below the bound a fit runs clean; above it, the magnitudes are bad input.
    A surface fits each ratio as PFR1 = 1, PFR2 = ratio, so its bound is a
    ratio of about 2.4475e152; two equal bands' is about 1.2238e152 each.
    """

    @pytest.mark.filterwarnings("error")
    def test_below_the_bound_fits_clean(self):
        surface = build_tau_surface(0.4, 2.0, pfr_grid=(100.0 / 2.4e152, 50.0, 100.0))
        assert math.isfinite(surface.a) and math.isfinite(surface.b)
        eq = bandfit.fit_equivalent_band(
            bandfit.TwoBandPfr(LagBand(1.2e152, 0.4), LagBand(1.2e152, 2.0)))
        assert eq.pfr_eq == pytest.approx(2.4e152, rel=0.05)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ratio", [2.5e152, 1e308])
    def test_surface_ratio_above_the_bound(self, ratio):
        with pytest.raises(InvalidInputError, match=r"^equivalent-band fit: magnitudes PFR1 = "
                                                    r"1\.0 and PFR2 = .* over 3001 samples"):
            build_tau_surface(0.4, 2.0, pfr_grid=(100.0 / ratio, 50.0, 100.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pfr", [1.3e152, 1e160, 1.7e308])
    def test_band_magnitudes_above_the_bound(self, pfr):
        pair = bandfit.TwoBandPfr(LagBand(pfr, 0.4), LagBand(pfr, 2.0))
        message = f"equivalent-band fit: magnitudes PFR1 = {pfr!r} and PFR2 = {pfr!r} overflow"
        with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
            bandfit.fit_equivalent_band(pair)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, named", [
        (["fit-surface", "--tau1", "0.4", "--tau2", "2", "--pfr-min", "1e-306", "--pfr-max",
          "100", "--pfr-step", "50"], "PFR2 = 1e+308"),
        (["fit-band", "--scenario", TWO_BAND_SCENARIO, "--set", "system.p_cont_mw=1e160",
          "--set", "bands.0.pfr_mw=1e160", "--set", "bands.1.pfr_mw=1e160"],
         "PFR1 = 1e+160 and PFR2 = 1e+160"),
    ], ids=["fit-surface", "fit-band"])
    def test_cli_exits_1(self, args, named, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: equivalent-band fit: magnitudes ") and named in err
        assert err.count("\n") == 1
        assert not out.exists()


TINY_PFR1 = [(1e-200, 100.0), (1e-300, 1e300), (1e-160, 1.0)]


class TestTinyPfr1Sensitivities:
    """PFR1^2 underflows, or PFR2/PFR1^2 * exp(-b PFR2/PFR1) is inf * 0."""

    @pytest.mark.parametrize("pfr1, pfr2", [*TINY_PFR1, (1e-200, 0.0), (5e-324, 0.0)])
    def test_library_names_pfr1(self, pfr1, pfr2):
        dp = DerivedParams(dprime=80.0, h=180.0)
        surface = CANONICAL_SURFACE
        with pytest.raises(InvalidInputError, match=r"^pfr1=.*: the tau model's derivatives"):
            _no_warnings(lambda: applications.sensitivity_report(dp, -1.0, surface, pfr1, pfr2))

    def test_library_keeps_finite_neighbours(self):
        dp = DerivedParams(dprime=80.0, h=180.0)
        report = applications.sensitivity_report(dp, -1.0, CANONICAL_SURFACE, 1e-150, 1.0)
        assert report.dtau_dpfr1 == 0.0 and report.dtau_dpfr2 == 0.0
        assert all(math.isfinite(v) for v in (report.dp_dtau, report.dp_dh, report.dp_dpfr1))

    @pytest.mark.parametrize("pfr1, pfr2", TINY_PFR1)
    def test_cli_exits_1(self, pfr1, pfr2, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["sensitivities", "--scenario", SCENARIO, "--delta-f-max", "-1",
                     "--pfr1", repr(pfr1), "--pfr2", repr(pfr2), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: pfr1={pfr1!r}, pfr2={pfr2!r}: the tau model's derivatives")
        assert "Traceback" not in err
        assert not out.exists()


class TestHugePfr1Sensitivities:
    """PFR1^2 overflows, yet both tau-model derivatives are finite."""

    def test_library_gives_finite_slopes(self):
        dp = DerivedParams(dprime=80.0, h=180.0)
        surface = CANONICAL_SURFACE
        decay = math.exp(-surface.b * 100.0 / 1e200)
        want = surface.a * surface.b / 1e200 * decay
        report = _no_warnings(lambda: applications.sensitivity_report(dp, -1.0, surface,
                                                                      1e200, 100.0))
        slope1, slope2 = report.dtau_dpfr1, report.dtau_dpfr2
        assert slope1 == 0.0 and math.copysign(1.0, slope1) == -1.0
        assert slope2 == want and slope2 > 0.0

    def test_finite_square_keeps_its_bits(self):
        surface = CANONICAL_SURFACE
        pfr1, pfr2 = 1e150, 3e150  # PFR1^2 = 1e300 is finite
        decay = math.exp(-surface.b * pfr2 / pfr1)
        ab = surface.a * surface.b
        report = applications.sensitivity_report(DerivedParams(dprime=80.0, h=180.0), -1.0,
                                                  surface, pfr1, pfr2)
        assert (report.dtau_dpfr1, report.dtau_dpfr2) == (
            -ab * pfr2 / pfr1**2 * decay, ab / pfr1 * decay)

    @pytest.mark.filterwarnings("error")
    def test_int_pfr1_gives_its_floats_report(self):
        # an int PFR1's square is an exact int, too large to divide by
        def report(pfr1):
            return applications.sensitivity_report(CAP_DP, -1.0, CANONICAL_SURFACE, pfr1, 1.0)
        assert report(10**200) == report(1e200)

    def test_cli_exits_0(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["sensitivities", "--scenario", SCENARIO, "--delta-f-max", "-1",
                     "--pfr1", "1e200", "--pfr2", "100", "--out", str(out)]) == 0
        analytic = json.loads(out.read_text())["analytic"]
        assert math.copysign(1.0, analytic["dtau_dpfr1_s_per_mw"]) == -1.0
        assert analytic["dtau_dpfr1_s_per_mw"] == 0.0
        assert 0.0 < analytic["dtau_dpfr2_s_per_mw"] < 1e-199

    def test_cli_tiny_pfr1_still_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["sensitivities", "--scenario", SCENARIO, "--delta-f-max", "-1",
                     "--pfr1", "1e-200", "--pfr2", "100", "--out", str(out)]) == 1
        assert "the tau model's derivatives are not finite" in capsys.readouterr().err
        assert not out.exists()


HUGE = 10**400  # an int beyond the float range
BIG = "an integer too large for a float"
CAP_DP = DerivedParams(dprime=100.0, h=140.0)
CAP_POLICY = applications.SecurityPolicy(k_policy=applications.WEM_K_POLICY, delta_f_max=-1.25)
FLAT_DP = DerivedParams(dprime=0.0, h=140.0)
SLOW = bandfit.TauSurfaceModel(a=0.0, b=1.0, tau1=1e308, tau2=1e308)  # tau = 1e308: A overflows
LAG_270MW = model.load_scenario(SCENARIO).system
LIMIT = "delta_f_max must be finite and nonzero, got {}"
A_RANGE = "A = D'*tau/(2H) must be finite and > 0, got {} at tau = {} s"
UNBOUNDED = "unbounded: with K <= 1 the settling deviation never crosses the limit"
RATE = "|A - 1|/tau must be finite, got inf at tau = {} s"
CAP_OVERFLOW = "the contingency cap overflows the float range at K = {}, delta_f_max = {}"
HUGE_DP = DerivedParams(dprime=1e300, h=1e300)
# a cap's bare delta_f_max meets SecurityPolicy's rule
LIMIT_CALLS = {
    "asymptotic": lambda limit: applications.asymptotic_max_contingency(CAP_DP, 2.0, limit),
    "universal": lambda limit: applications.universal_max_contingency_factor(0.5, 1.5, limit),
    "sensitivity_report": lambda limit: applications.sensitivity_report(
        CAP_DP, limit, CANONICAL_SURFACE, 1.0, 1.0),
}
# (call, error, message); each but the check-order cases raised a bare OverflowError,
# ZeroDivisionError or BranchError, returned NaN, -0.0 or zero slopes, or printed every digit
OUT_OF_RANGE = {
    "max_contingency-tau": (lambda: applications.max_contingency(CAP_DP, CAP_POLICY, HUGE),
                            InvalidInputError, f"tau must be finite, got {BIG}"),
    "max_contingency-inf-tau": (lambda: applications.max_contingency(CAP_DP, CAP_POLICY, math.inf),
                                InvalidInputError, "tau must be finite, got inf"),
    "min_effective_tau-K": (lambda: applications.min_effective_tau(CAP_DP, HUGE),
                            InvalidInputError, f"K must be within the float range, got {BIG}"),
    "equivalent_tau-pfr1": (lambda: bandfit.equivalent_tau(CANONICAL_SURFACE, HUGE, 1.0),
                            InvalidInputError, f"pfr1 must be within the float range, got {BIG}"),
    "equivalent_tau-pfr2": (lambda: bandfit.equivalent_tau(CANONICAL_SURFACE, 1.0, HUGE),
                            InvalidInputError, f"pfr2 must be within the float range, got {BIG}"),
    "canonical_equivalent-pfr1": (lambda: bandfit.canonical_equivalent(HUGE, 1.0),
                                  InvalidInputError,
                                  f"pfr1 must be within the float range, got {BIG}"),
    "canonical_equivalent-pfr2-alone": (lambda: bandfit.canonical_equivalent(0.0, HUGE),
                                        InvalidInputError,
                                        f"pfr2 must be within the float range, got {BIG}"),
    "sensitivity_report-pfr1": (
        lambda: applications.sensitivity_report(CAP_DP, -1.25, CANONICAL_SURFACE, HUGE, 1.0),
        InvalidInputError, f"pfr1 must be within the float range, got {BIG}"),
    "sensitivity_report-pfr2": (
        lambda: applications.sensitivity_report(CAP_DP, -1.25, CANONICAL_SURFACE, 1.0, HUGE),
        InvalidInputError, f"pfr2 must be within the float range, got {BIG}"),
    "universal_factor-A": (
        lambda: applications.universal_max_contingency_factor(HUGE, 1.5, -1.25),
        InvalidInputError, f"A must be finite and > 0, got {BIG}"),
    "required_ffr_share-message": (
        lambda: applications.required_ffr_share(CANONICAL_SURFACE, HUGE), BranchError,
        f"tau target {BIG} outside the attainable range (0.4, 1.7141628999999998)"),
    "grid_steps-int-t_end": (
        lambda: IntegrationSpec(t_end=10**300, dt=0.001), InvalidInputError,
        "t_end=1e+300 s at dt=0.001 s is 1e+303 steps, more than 10000000"),
    **{f"{name}-delta_f_max-{label}": (functools.partial(call, limit), InvalidInputError,
                                       LIMIT.format(model._shown(limit)))
       for name, call in LIMIT_CALLS.items()
       for label, limit in {"huge": HUGE, "nan": math.nan, "zero": 0.0}.items()},
    **{f"asymptotic-K-{label}": (
        functools.partial(applications.asymptotic_max_contingency, CAP_DP, k, -1.0),
        InvalidInputError, f"k_policy must be finite and > 0, got {model._shown(k)}")
       for label, k in {"huge": HUGE, "nan": math.nan, "negative": -2.0}.items()},
    # a finite tau whose A = D'*tau/(2H) overflows or underflows
    "max_contingency-A-overflow": (
        lambda: applications.max_contingency(CAP_DP, CAP_POLICY, 1e308), InvalidInputError,
        A_RANGE.format("inf", "1e+308")),
    "max_contingency-A-underflow": (
        lambda: applications.max_contingency(CAP_DP, applications.SecurityPolicy(0.5, -1.25),
                                             5e-324),
        InvalidInputError, A_RANGE.format("0.0", "5e-324")),
    "lag_nadir-A-overflow": (
        lambda: closedform.lag_nadir(LAG_270MW, LagBand(270.0, 1e308)), InvalidInputError,
        A_RANGE.format("inf", "1e+308")),
    # two bad arguments: the check order of the applications docstring
    "asymptotic-damping-before-K": (
        lambda: applications.asymptotic_max_contingency(FLAT_DP, math.nan, 0.0),
        InvalidInputError, "D' = d * p_load must be > 0 for this expression"),
    "asymptotic-K-before-delta_f_max": (
        lambda: applications.asymptotic_max_contingency(CAP_DP, -2.0, 0.0), InvalidInputError,
        "k_policy must be finite and > 0, got -2.0"),
    "universal-K-before-delta_f_max": (
        lambda: applications.universal_max_contingency_factor(0.5, math.nan, 0.0),
        InvalidInputError, "K must be finite and > 0, got nan"),
    "sensitivity_report-damping-before-delta_f_max": (
        lambda: applications.sensitivity_report(FLAT_DP, 0.0, CANONICAL_SURFACE, 1.0, 1.0),
        InvalidInputError, "D' = d * p_load must be > 0 for this expression"),
    "sensitivity_report-delta_f_max-before-A": (
        lambda: applications.sensitivity_report(CAP_DP, 0.0, SLOW, 1.0, 1.0),
        InvalidInputError, LIMIT.format(0.0)),
    "sensitivity_report-A-overflow": (
        lambda: applications.sensitivity_report(CAP_DP, -1.0, SLOW, 1.0, 1.0),
        InvalidInputError, A_RANGE.format("inf", "1e+308")),
    # at K < 1 a subnormal A gives a cap beyond every double, or a factor that underflows to 0
    "max_contingency-cap-overflow": (
        lambda: applications.max_contingency(CAP_DP, applications.SecurityPolicy(0.5, -1.25),
                                             1e-320),
        BranchError, UNBOUNDED),
    "max_contingency-shape-underflow": (
        lambda: applications.max_contingency(CAP_DP, applications.SecurityPolicy(0.5, -1.25),
                                             3e-323),
        BranchError, UNBOUNDED),
    "universal_factor-cap-overflow": (
        lambda: applications.universal_max_contingency_factor(3.6e-319, 0.5, -1.25),
        BranchError, UNBOUNDED),
    # at K >= 1 only inputs near the ends of the float range give a cap beyond every double
    "max_contingency-K>=1-cap-overflow": (
        lambda: applications.max_contingency(HUGE_DP, applications.SecurityPolicy(2.0, -1e10),
                                             3.0),
        InvalidInputError, CAP_OVERFLOW.format(2.0, -1e10)),
    "asymptotic-cap-overflow": (
        lambda: applications.asymptotic_max_contingency(HUGE_DP, 2.0, -1e10), InvalidInputError,
        CAP_OVERFLOW.format(2.0, -1e10)),
    "universal_factor-K>=1-cap-overflow": (
        lambda: applications.universal_max_contingency_factor(3.0, 2.0, -1.7e308),
        InvalidInputError, CAP_OVERFLOW.format(2.0, -1.7e308)),
    "sensitivity_report-cap-overflow": (
        lambda: applications.sensitivity_report(HUGE_DP, -1e10, CANONICAL_SURFACE, 100.0, 50.0),
        InvalidInputError, CAP_OVERFLOW.format(1.0, -1e10)),
    # a lag decay rate |A - 1|/tau that overflows: through 1/tau, or through A itself
    **{f"delta_f-rate-tau={tau}": (
        functools.partial(closedform.delta_f, LAG_270MW, [LagBand(270.0, tau)], [0.0, 1.0, 10.0]),
        InvalidInputError, RATE.format(tau)) for tau in (5e-324, 1e-310, 1e308)},
    "trace-rate": (lambda: closedform.trace(LAG_270MW, [LagBand(270.0, 5e-324)], 1.0, 0.5),
                   InvalidInputError, RATE.format(5e-324)),
}


# at K >= 1 the cap was inf, and only the JSON writer refused it (or the NaN slope it gave)
HUGE_SYSTEM = ["--set", "system.p_load_mw=1e300", "--set", "system.d_relief=1",
               "--delta-f-max=-1e10"]


class TestExtremeTauCli:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, code, message", [
        (["max-contingency", "--delta-f-max", "-1", "--tau", "1e-320", "--k-policy", "0.5"], 2,
         "error: " + UNBOUNDED + "\n"),
        (["compare", "--set", "bands.0.tau_s=5e-324"], 1, "error: " + RATE.format(5e-324) + "\n"),
        (["max-contingency", *HUGE_SYSTEM, "--tau", "1"], 1,
         "error: " + CAP_OVERFLOW.format(applications.WEM_K_POLICY, -1e10) + "\n"),
        (["sensitivities", *HUGE_SYSTEM, "--pfr1", "100", "--pfr2", "50"], 1,
         "error: " + CAP_OVERFLOW.format(1.0, -1e10) + "\n"),
    ], ids=["max-contingency", "compare", "max-contingency-cap-overflow",
            "sensitivities-cap-overflow"])
    def test_exit_code_and_message(self, argv, code, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--scenario", SCENARIO, "--out", str(out)]) == code
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []


class TestOutOfRangeArguments:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(OUT_OF_RANGE))
    def test_bad_input_names_the_field(self, case):
        call, error, message = OUT_OF_RANGE[case]
        with pytest.raises(error) as raised:
            call()
        assert type(raised.value) is error and str(raised.value) == message


REMOVED = {closedform: ["asymptotic_nadir"],
           applications: ["sensitivity_pcont", "sensitivity_tau_bands",
                          "max_contingency_k_sensitivity"]}
MODULES = [applications, bandfit, cli, closedform, model, oracle, reports]


class TestPublicNames:
    @pytest.mark.parametrize("module, name",
                             [(m, n) for m, names in REMOVED.items() for n in names],
                             ids=lambda v: getattr(v, "__name__", v))
    def test_removed_name_is_gone(self, module, name):
        assert not hasattr(sfrkit, name)
        assert not hasattr(module, name) and name not in module.__all__

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_every_listed_name_resolves(self, module):
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
