"""Input boundaries: finite record fields, the surface pair rule, stray errors in main."""
import argparse
import inspect
import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sfrkit import (
    DerivedParams,
    InvalidInputError,
    LagBand,
    RampBand,
    SystemConditions,
    applications,
    bandfit,
    cli,
    closedform,
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


class TestStrayErrors:
    def test_non_finite_json_result_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["sensitivities", "--scenario", SCENARIO, "--delta-f-max=-1e308",
                     "--pfr1", "130", "--pfr2", "80", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not JSON compliant" in err
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
    @pytest.mark.parametrize("fn", [applications.sensitivity_report_fd,
                                    applications.max_contingency_k_sensitivity])
    def test_no_step_knob(self, fn):
        assert "rel_step" not in inspect.signature(fn).parameters

    def test_module_step_is_used(self, security_dp):
        policy = applications.SecurityPolicy(k_policy=applications.WEM_K_POLICY,
                                             delta_f_max=-1.25)
        k, h = policy.k_policy, applications._FD_REL_STEP * policy.k_policy

        def cap(kk):
            return applications.max_contingency(
                security_dp, applications.SecurityPolicy(kk, -1.25), 1.0)

        want = (cap(k + h) - cap(k - h)) / (2.0 * h)
        assert applications.max_contingency_k_sensitivity(security_dp, policy, 1.0) == want


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
        assert np.all(closedform.multi_lag_delta_f(sc, bands[1:], t) == 0.0)
        assert np.all(closedform.multi_lag_delta_f(sc, bands, t) == 0.0)
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
            assert np.all(closedform.multi_ramp_delta_f(sc, bands[1:], t) == 0.0)
            assert np.all(closedform.multi_ramp_delta_f(sc, bands, t) == 0.0)
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
        assert main(["sensitivities", "--scenario", SCENARIO, "--delta-f-max=-1e308",
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
        for call in (lambda: applications.sensitivity_report(dp, -1.0, surface, pfr1, pfr2),
                     lambda: applications.sensitivity_tau_bands(surface, pfr1, pfr2)):
            with pytest.raises(InvalidInputError, match=r"^pfr1=.*: the tau model's derivatives"):
                _no_warnings(call)

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

    def test_nan_pfr2_is_rejected_by_name(self):
        with pytest.raises(InvalidInputError, match=r"^pfr2 must be >= 0, got nan$"):
            applications.sensitivity_tau_bands(CANONICAL_SURFACE, 130.0, math.nan)


class TestHugePfr1Sensitivities:
    """PFR1^2 overflows, yet both tau-model derivatives are finite."""

    def test_library_gives_finite_slopes(self):
        dp = DerivedParams(dprime=80.0, h=180.0)
        surface = CANONICAL_SURFACE
        decay = math.exp(-surface.b * 100.0 / 1e200)
        want = surface.a * surface.b / 1e200 * decay
        report = _no_warnings(lambda: applications.sensitivity_report(dp, -1.0, surface,
                                                                      1e200, 100.0))
        d1, d2 = _no_warnings(lambda: applications.sensitivity_tau_bands(surface, 1e200, 100.0))
        for slope1, slope2 in ((report.dtau_dpfr1, report.dtau_dpfr2), (d1, d2)):
            assert slope1 == 0.0 and math.copysign(1.0, slope1) == -1.0
            assert slope2 == want and slope2 > 0.0

    def test_finite_square_keeps_its_bits(self):
        surface = CANONICAL_SURFACE
        pfr1, pfr2 = 1e150, 3e150  # PFR1^2 = 1e300 is finite
        decay = math.exp(-surface.b * pfr2 / pfr1)
        ab = surface.a * surface.b
        assert applications.sensitivity_tau_bands(surface, pfr1, pfr2) == (
            -ab * pfr2 / pfr1**2 * decay, ab / pfr1 * decay)

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
