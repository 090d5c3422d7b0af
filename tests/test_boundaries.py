"""Input boundaries: finite record fields, the surface pair rule, stray errors in main."""
import argparse
import inspect
import math
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
