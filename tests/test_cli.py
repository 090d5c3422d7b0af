import json
from pathlib import Path

import numpy as np
import pytest

from sfrkit import applications as apps
from sfrkit import bandfit, reports
from sfrkit.cli import _FIGURES, main

BASE = {
    "system": {"f_n_hz": 50, "ke_mws": 9000, "p_load_mw": 2000, "d_relief": 0.04,
               "p_cont_mw": 300},
    "bands": [{"kind": "lag", "pfr_mw": 270, "tau_s": 2.0}],
    "sim": {"t_end_s": 10.0, "dt_s": 0.001},
}

TWO_BAND = {
    "system": BASE["system"],
    "bands": [{"kind": "lag", "pfr_mw": 130, "tau_s": 0.4},
              {"kind": "lag", "pfr_mw": 80, "tau_s": 2.0}],
}

RAMP = {
    "system": BASE["system"],
    "bands": [{"kind": "ramp", "pfr_mw": 270, "t_r_s": 6.0}],
    "sim": {"t_end_s": 10.0, "dt_s": 0.001},
}


@pytest.fixture
def scenario(tmp_path):
    def write(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_writes_trace(self, scenario, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--scenario", scenario(BASE), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t_s", "delta_f_hz"]
        assert len(rows) == 10001
        assert rows[0] == [0.0, 0.0]

    def test_byte_identical_reruns(self, scenario, tmp_path):
        path = scenario(BASE)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--scenario", path, "--out", str(out1)])
        main(["simulate", "--scenario", path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_euler_method(self, scenario, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--scenario", scenario(BASE), "--out", str(out),
                     "--method", "euler"])
        assert code == 0 and out.exists()


class TestCompare:
    def test_lag_alignment(self, scenario, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", scenario(BASE), "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("max_abs_gap_hz=")
        assert float(line.split("=")[1]) <= 1e-3
        assert (tmp_path / "cmp_closed.csv").exists()
        assert (tmp_path / "cmp_oracle.csv").exists()

    def test_ramp_divergence_visible(self, scenario, tmp_path, capsys):
        doc = json.loads(json.dumps(RAMP))
        doc["bands"][0]["t_r_s"] = 1.0
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", scenario(doc), "--out", str(out)]) == 0
        gap = float(capsys.readouterr().out.strip().split("=")[1])
        assert gap > 0.05

    def test_mixed_bands_rejected(self, scenario, tmp_path):
        doc = {"system": BASE["system"],
               "bands": BASE["bands"] + RAMP["bands"],
               "sim": BASE["sim"]}
        assert main(["compare", "--scenario", scenario(doc),
                     "--out", str(tmp_path / "x")]) == 1


class TestNadir:
    def test_closed_form(self, scenario, tmp_path):
        out = tmp_path / "nadir.json"
        assert main(["nadir", "--scenario", scenario(BASE), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "interior_minimum"
        assert doc["t_nadir_s"] == pytest.approx(3.4576630206742536, rel=1e-12)
        assert doc["delta_f_nadir_hz"] == pytest.approx(-0.9740344404076423, rel=1e-12)
        assert doc["max_rocof_hz_per_s"] == pytest.approx(-300 / 360, rel=1e-12)

    def test_oracle_method_on_ramp(self, scenario, tmp_path):
        out = tmp_path / "nadir.json"
        assert main(["nadir", "--scenario", scenario(RAMP), "--out", str(out),
                     "--method", "oracle"]) == 0
        doc = json.loads(out.read_text())
        assert doc["max_rocof_hz_per_s"] == pytest.approx(-300 / 360, rel=1e-12)
        assert doc["delta_f_nadir_hz"] < -1.0

    def test_empty_scenario_exits_1_without_output(self, scenario, tmp_path, capsys):
        out = tmp_path / "nadir.json"
        assert main(["nadir", "--scenario", scenario({}, "empty.json"),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "system" in capsys.readouterr().err

    def test_two_bands_need_oracle_or_fit(self, scenario, tmp_path):
        assert main(["nadir", "--scenario", scenario(TWO_BAND),
                     "--out", str(tmp_path / "n.json")]) == 1

    def test_asymptotic_case(self, scenario, tmp_path):
        doc = json.loads(json.dumps(BASE))
        doc["bands"] = [{"kind": "lag", "pfr_mw": 210, "tau_s": 0.4}]
        out = tmp_path / "nadir.json"
        assert main(["nadir", "--scenario", scenario(doc), "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["kind"] == "asymptotic"
        assert parsed["t_nadir_s"] is None
        assert parsed["delta_f_nadir_hz"] == pytest.approx(-1.125, rel=1e-12)


class TestFits:
    def test_fit_band(self, scenario, tmp_path):
        out = tmp_path / "eq.json"
        assert main(["fit-band", "--scenario", scenario(TWO_BAND), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pfr_eq_mw"] == pytest.approx(210.0, rel=0.02)
        assert 0.75 <= doc["tau_eq_s"] <= 0.90

    def test_fit_band_needs_two_lag_bands(self, scenario, tmp_path):
        assert main(["fit-band", "--scenario", scenario(BASE),
                     "--out", str(tmp_path / "eq.json")]) == 1

    def test_fit_surface_and_reuse(self, scenario, tmp_path, capsys):
        surface = tmp_path / "surface.json"
        assert main(["fit-surface", "--tau1", "0.4", "--tau2", "2.0",
                     "--pfr-min", "50", "--pfr-max", "200", "--pfr-step", "50",
                     "--out", str(surface)]) == 0
        doc = json.loads(surface.read_text())
        assert set(doc) >= {"a", "b", "tau1_s", "tau2_s", "rms_residual"}

        out = tmp_path / "map.csv"
        assert main(["mape-map", "--tau1", "0.4", "--tau2", "2.0",
                     "--surface", str(surface),
                     "--pfr-min", "50", "--pfr-max", "200", "--pfr-step", "50",
                     "--out", str(out)]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert "mean_mape_pct=" in summary

    @pytest.mark.parametrize("command", ["fit-band", "fit-surface"])
    def test_fit_error_exits_2(self, command, scenario, tmp_path, monkeypatch, capsys):
        def nan_sums(alpha, grid):
            nan = np.full(np.shape(alpha), np.nan)
            return nan, nan

        monkeypatch.setattr(bandfit, "_exp_sums", nan_sums)
        out = tmp_path / "fit.json"
        args = ["--scenario", scenario(TWO_BAND)] if command == "fit-band" else \
            ["--tau1", "0.4", "--tau2", "2.0"]
        assert main([command, *args, "--out", str(out)]) == 2
        assert not out.exists()
        assert "fit" in capsys.readouterr().err


class TestMapeMapCli:
    def test_canonical_default_surface(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        assert main(["mape-map", "--pfr-min", "50", "--pfr-max", "200",
                     "--pfr-step", "50", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["pfr1_mw", "pfr2_mw", "mape_pct"]
        assert len(rows) == 16

    @pytest.mark.parametrize("value, message", [
        ("1e999", "a must be finite"),
        ("Infinity", "non-finite value Infinity"),
        ("NaN", "non-finite value NaN"),
    ])
    def test_non_finite_surface_exits_1(self, value, message, tmp_path, capsys):
        surface = tmp_path / "surface.json"
        surface.write_text('{"a": %s, "b": 0.5, "tau1_s": 0.4, "tau2_s": 2.0}' % value)
        out = tmp_path / "map.csv"
        assert main(["mape-map", "--tau1", "0.4", "--tau2", "2.0", "--surface", str(surface),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["mape-map", "--pfr-min", "50", "--pfr-max", "150", "--pfr-step", "50"]
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestTauSweepCli:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["tau-sweep", "--tau1-values", "0.4,0.8",
                     "--tau2-values", "0.8,1.6",
                     "--pfr-min", "60", "--pfr-max", "180", "--pfr-step", "60",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["tau1_s", "tau2_s", "mean_mape_pct", "max_mape_pct"]
        assert [(r[0], r[1]) for r in rows] == [(0.4, 0.8), (0.4, 1.6), (0.8, 0.8), (0.8, 1.6)]

    def test_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        args = ["tau-sweep", "--tau1-values", "0.4", "--tau2-values", "1.2",
                "--pfr-min", "80", "--pfr-max", "160", "--pfr-step", "80"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(args + ["--out", str(out1)])
        monkeypatch.setenv("SFRKIT_THREADS", "3")
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSecurityCommands:
    def test_max_contingency(self, scenario, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE))
        doc["system"]["ke_mws"] = 7000
        doc["system"]["p_load_mw"] = 2500
        out = tmp_path / "cap.json"
        assert main(["max-contingency", "--scenario", scenario(doc),
                     "--delta-f-max", "-1.25", "--tau", "1.0", "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["max_contingency_mw"] == pytest.approx(397.82941506384293, rel=1e-9)
        assert parsed["ffr_share"] == pytest.approx(0.5084278831291483, rel=1e-9)

    def test_max_contingency_asymptotic_exit_2(self, scenario, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE))
        doc["system"]["ke_mws"] = 7000
        doc["system"]["p_load_mw"] = 2500
        out = tmp_path / "cap.json"
        code = main(["max-contingency", "--scenario", scenario(doc),
                     "--delta-f-max", "-1.25", "--tau", "0.5", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "asymptotic" in capsys.readouterr().err

    @pytest.mark.parametrize("k_flags, k_shown", [([], "1.42857143"), (["--k-policy", "2"], "2")])
    def test_max_contingency_asymptotic_names_the_min_tau_bound(self, tmp_path, capsys, k_flags,
                                                                k_shown):
        scenario = str(Path(__file__).resolve().parent.parent / "demos/scenarios/lag_270mw.json")
        k = k_flags[1] if k_flags else repr(apps.WEM_K_POLICY)
        assert main(["min-tau", "--scenario", scenario, "--k", k,
                     "--out", str(tmp_path / "mt.json")]) == 0
        bound = json.loads((tmp_path / "mt.json").read_text())["min_effective_tau_s"]
        out = tmp_path / "cap.json"
        assert main(["max-contingency", "--scenario", scenario, "--delta-f-max", "-1",
                     "--tau", "0.1", *k_flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # D' = 80 MW/Hz and H = 180 MW.s/Hz: (1 - 1/K)*2H/D' is 1.35 s at K = 1/0.7, 2.25 s at 2
        assert err == (f"error: asymptotic regime: tau = 0.1 s is below min-tau's (1 - 1/K)*2H/D' "
                       f"= {reports.fmt(bound)} s at K = {k_shown}\n")
        assert reports.fmt(bound) == ("2.25" if k_flags else "1.35")
        assert not out.exists()

    def test_max_contingency_unbounded_keeps_its_message(self, tmp_path, capsys):
        # K = 1 and A <= B_EPS: the cap is unbounded, which no tau bound explains
        scenario = str(Path(__file__).resolve().parent.parent / "demos/scenarios/lag_270mw.json")
        assert main(["max-contingency", "--scenario", scenario, "--delta-f-max", "-1",
                     "--tau", "1e-12", "--k-policy", "1", "--out", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err.startswith("error: unbounded: with K <= 1")

    def test_min_tau(self, scenario, tmp_path):
        out = tmp_path / "mt.json"
        assert main(["min-tau", "--scenario", scenario(BASE),
                     "--k", str(300 / 210), "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["min_effective_tau_s"] == pytest.approx(1.35, rel=1e-12)

    def test_sensitivities(self, scenario, tmp_path):
        doc = json.loads(json.dumps(BASE))
        doc["system"]["ke_mws"] = 7000
        doc["system"]["p_load_mw"] = 2500
        out = tmp_path / "sens.json"
        assert main(["sensitivities", "--scenario", scenario(doc),
                     "--delta-f-max", "-1.25", "--pfr1", "130", "--pfr2", "80",
                     "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        for key, value in parsed["analytic"].items():
            assert value == pytest.approx(parsed["finite_difference"][key], rel=1e-4), key
        assert parsed["analytic"]["dtau_dpfr1_s_per_mw"] == pytest.approx(
            -0.0026615762709064805, rel=1e-9
        )

    def test_sensitivities_zero_limit_exits_1(self, scenario, tmp_path, capsys):
        # sensitivity_report rejects a zero limit by SecurityPolicy's rule
        out = tmp_path / "sens.json"
        assert main(["sensitivities", "--scenario", scenario(BASE), "--delta-f-max", "0",
                     "--pfr1", "130", "--pfr2", "80", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: delta_f_max must be finite and nonzero, got 0.0\n"
        assert not out.exists()


class TestOverridesAndErrors:
    def test_set_override(self, scenario, tmp_path):
        out = tmp_path / "mt.json"
        assert main(["min-tau", "--scenario", scenario(BASE),
                     "--set", "system.ke_mws=7000", "--set", "system.p_load_mw=2500",
                     "--k", "1.4", "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        # (1 - 1/1.4) * 2 * 140 / 100
        assert parsed["min_effective_tau_s"] == pytest.approx(0.8, rel=1e-9)

    def test_bad_override_exits_1(self, scenario, tmp_path):
        assert main(["min-tau", "--scenario", scenario(BASE),
                     "--set", "bands.7.tau_s=1", "--k", "1.4",
                     "--out", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("doc, assignment", [
        (BASE, "system.p_cont_mw=NaN"),
        (TWO_BAND, "bands.1.tau_s=Infinity"),
        (BASE, "system.p_cont_mw=1e999"),
    ])
    def test_non_finite_override_exits_1(self, doc, assignment, scenario, tmp_path, capsys):
        out = tmp_path / "nadir.json"
        assert main(["nadir", "--scenario", scenario(doc), "--set", assignment,
                     "--method", "oracle", "--out", str(out)]) == 1
        assert not out.exists()
        assert assignment.split("=")[0] in capsys.readouterr().err

    def test_non_finite_deviation_limit_exits_1(self, scenario, tmp_path, capsys):
        out = tmp_path / "cap.json"
        assert main(["max-contingency", "--scenario", scenario(BASE),
                     "--set", "system.ke_mws=7000", "--set", "system.p_load_mw=2500",
                     "--set", "system.d_relief=0.05", "--delta-f-max", "nan",
                     "--tau", "1.0", "--out", str(out)]) == 1
        assert not out.exists()
        assert "delta_f_max" in capsys.readouterr().err

    @pytest.mark.parametrize("method, largest", [("rk4", "0.000696323"), ("euler", "0.0005")])
    def test_unstable_step_exits_1(self, method, largest, scenario, tmp_path, capsys):
        # H = 0.01 MW.s/Hz and D' = 80 MW/Hz: h * D'/(2H) = 4 at the 1 ms step
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--scenario", scenario(BASE), "--set", "system.ke_mws=0.5",
                     "--method", method, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "dt=0.001" in err and f"largest stable step is {largest} s" in err

    def test_overflowing_trace_exits_1(self, scenario, tmp_path, capsys):
        # the oracle's trace overflows to NaN at the first step: no CSV of NaN rows
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--scenario", scenario(BASE),
                     "--set", "system.p_cont_mw=1.7e308", "--set", "bands.0.pfr_mw=1.7e308",
                     "--set", "system.ke_mws=1", "--out", str(out)]) == 1
        assert not out.exists()
        assert "delta_f_hz at t_s = 0.001 is nan" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, message", [
        ("simulate", "error: delta_f_hz at t_s = 0.001 is nan"),
        ("compare", "error: closed form and oracle differ by nan"),
    ], ids=["simulate", "compare"])
    def test_overflowing_scenario_prints_one_error_line(self, command, message, scenario,
                                                        tmp_path, capsys):
        # the overflow is reported once, by the writer's check, with no numpy warning before it
        path = scenario(BASE)
        assert main([command, "--scenario", path,
                     "--set", "system.p_cont_mw=1.7e308", "--set", "bands.0.pfr_mw=1.7e308",
                     "--set", "system.ke_mws=1", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [Path(path).name]  # no artifact

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["nadir", "--scenario", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["nadir", "--scenario"], ["mape-map", "--surface"]])
    def test_non_utf8_file_names_its_path(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"a": "\xff"}')
        out = tmp_path / "out"
        assert main(argv + [str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "can't decode byte 0xff" in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1


class TestReproduceFigures:
    def test_all_required_targets_registered(self):
        assert {"fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11"} <= set(_FIGURES)

    @pytest.mark.parametrize("target,header", [
        ("fig1", ["t_r_s", "t_s", "delta_f_closed_hz", "delta_f_oracle_hz"]),
        ("fig3", ["tau_s", "t_s", "pfr_mw"]),
        ("fig5", ["t_s", "delta_f_closed_hz", "delta_f_oracle_hz"]),
        ("fig6", ["pfr1_mw", "pfr2_mw", "t_s", "delta_f_exact_hz", "delta_f_approx_hz"]),
        ("fig7", ["pfr1_mw", "pfr2_mw", "t_s", "delta_f_exact_hz", "delta_f_approx_hz"]),
        ("fig9", ["tau_s", "max_contingency_mw", "ffr_share"]),
        ("fig11", ["A", "K", "f_AK"]),
    ])
    def test_cheap_targets_emit_tables(self, tmp_path, target, header):
        out = tmp_path / f"{target}.csv"
        assert main(["reproduce-figure", target, "--out", str(out)]) == 0
        got_header, rows = read_csv(out)
        assert got_header == header
        assert rows

    def test_fig9_contains_the_anchor_row(self, tmp_path):
        out = tmp_path / "fig9.csv"
        main(["reproduce-figure", "fig9", "--out", str(out)])
        _, rows = read_csv(out)
        anchor = [r for r in rows if r[0] == 1.0]
        assert anchor
        assert anchor[0][1] == pytest.approx(397.829, abs=0.01)
        assert anchor[0][2] == pytest.approx(0.5084, abs=0.0005)

    def test_fig9_caps_non_increasing(self, tmp_path):
        out = tmp_path / "fig9.csv"
        main(["reproduce-figure", "fig9", "--out", str(out)])
        _, rows = read_csv(out)
        caps = [r[1] for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(caps, caps[1:]))

    def test_fig5_alignment(self, tmp_path):
        out = tmp_path / "fig5.csv"
        main(["reproduce-figure", "fig5", "--out", str(out)])
        _, rows = read_csv(out)
        assert max(abs(r[1] - r[2]) for r in rows) <= 1e-3

    def test_fig1_shows_the_ramp_failure(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(["reproduce-figure", "fig1", "--out", str(out)])
        _, rows = read_csv(out)
        fast = [r for r in rows if r[0] == 1.0 and r[1] > 1.0]
        assert max(abs(r[2] - r[3]) for r in fast) > 0.05

    def test_unknown_target_exits_1(self, tmp_path):
        assert main(["reproduce-figure", "fig99", "--out", str(tmp_path / "x.csv")]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["reproduce-figure", "fig9", "--out", str(out1)])
        main(["reproduce-figure", "fig9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestFiniteFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["max-contingency", "--delta-f-max", "-1.25", "--tau", "inf"], "--tau"),
        (["max-contingency", "--delta-f-max", "-1.25", "--tau", "1e999"], "--tau"),
        (["sensitivities", "--delta-f-max", "nan", "--pfr1", "130", "--pfr2", "80"],
         "--delta-f-max"),
        (["fit-surface", "--tau1", "0.4", "--tau2", "inf"], "--tau2"),
        (["fit-surface", "--tau1", "nan", "--tau2", "2.0"], "--tau1"),
        (["mape-map", "--pfr-max", "inf"], "--pfr-max"),
        (["min-tau", "--k", "nan"], "--k"),
    ])
    def test_non_finite_flag_exits_1(self, argv, flag, scenario, tmp_path, capsys):
        out = tmp_path / "out.json"
        if argv[0] in ("max-contingency", "sensitivities", "min-tau"):
            argv = argv + ["--scenario", scenario(BASE)]
        assert main(argv + ["--out", str(out)]) == 1
        assert not out.exists()
        assert flag in capsys.readouterr().err

    def test_non_finite_sweep_list_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["tau-sweep", "--tau1-values", "0.4,inf", "--out", str(out)]) == 1
        assert not out.exists()
        assert "0.4,inf" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tau1-values", "--tau2-values"])
    def test_empty_sweep_list_exits_1(self, flag, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["tau-sweep", flag, "", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: expected comma-separated numbers, got ''\n"

    @pytest.mark.parametrize("argv", [
        ["--pfr-min", "0", "--pfr-max", "1000", "--pfr-step", "1"],  # one magnitude over
        ["--pfr-min", "10", "--pfr-max", "1e4", "--pfr-step", "1e-3"],
        ["--pfr-min=-1e308", "--pfr-max", "1e308", "--pfr-step", "1"],  # span overflows
    ])
    @pytest.mark.parametrize("command", ["mape-map", "fit-surface", "tau-sweep"])
    def test_grid_size_is_capped(self, command, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        taus = ["--tau1", "0.4", "--tau2", "2.0"] if command == "fit-surface" else []
        assert main([command] + taus + argv + ["--out", str(out)]) == 1
        assert not out.exists()
        assert "at most 1000" in capsys.readouterr().err


class TestSurfaceErrors:
    def test_rejected_token_names_the_path_once(self, tmp_path, capsys):
        surface = tmp_path / "s_nan.json"
        surface.write_text('{"a": NaN, "b": 0.5, "tau1_s": 0.4, "tau2_s": 2.0}')
        out = tmp_path / "map.csv"
        assert main(["mape-map", "--surface", str(surface), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(str(surface)) == 1


    @pytest.mark.parametrize("doc, message", [
        ('{"a": "1.3141629", "b": 0.6, "tau1_s": 0.4, "tau2_s": 2.0}',
         "a: expected a number, got '1.3141629'"),
        ('{"a": 1.3, "b": true, "tau1_s": 0.4, "tau2_s": 2.0}', "b: expected a number, got True"),
        ('{"a": 1.3, "b": 0.6, "tau1_s": 0.4, "tau2_s": "2"}',
         "tau2_s: expected a number, got '2'"),
        ('{"a": 1.3, "b": 0.6, "tau1_s": 0.4, "tau2_s": 2.0, "rms_residual": "0"}',
         "rms_residual: expected a number, got '0'"),
        ('{"a": 1.3, "b": 0.6, "tau1_s": 0.4}', "missing field 'tau2_s'"),
        ("[1.3, 0.6, 0.4, 2.0]", "top level must be an object"),
        ('{"a": 1' + "0" * 400 + ', "b": 0.6, "tau1_s": 0.4, "tau2_s": 2.0}',
         "a: expected a finite number, got an integer too large for a float"),
        # more digits than int() converts: json's own error names no file
        ('{"a": 1' + "0" * 5000 + ', "b": 0.6, "tau1_s": 0.4, "tau2_s": 2.0}',
         "s.json: an integer literal of 5001 characters is too long to convert"),
    ], ids=["string", "bool", "string-tau2", "string-rms", "missing", "list", "huge-int",
            "long-int"])
    def test_surface_numbers_follow_the_scenario_rule(self, doc, message, tmp_path, capsys):
        surface = tmp_path / "s.json"
        surface.write_text(doc)
        out = tmp_path / "map.csv"
        assert main(["mape-map", "--surface", str(surface), "--out", str(out)]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err


class TestOracleNadirOvershoot:
    def test_dip_before_overshoot_is_the_nadir(self, tmp_path):
        # 400 MW of response against a 300 MW loss: the deviation dips, turns
        # and settles above zero; the dip is the nadir
        scenario = str(Path(__file__).resolve().parent.parent / "demos/scenarios/lag_270mw.json")
        results = {}
        for method in ("closed", "oracle"):
            out = tmp_path / f"{method}.json"
            assert main(["nadir", "--scenario", scenario, "--set", "bands.0.pfr_mw=400",
                         "--method", method, "--out", str(out)]) == 0
            results[method] = json.loads(out.read_text())
        closed, numeric = results["closed"], results["oracle"]
        assert closed["kind"] == numeric["kind"] == "interior_minimum"
        assert numeric["delta_f_nadir_hz"] == pytest.approx(-0.645048, abs=1e-6)
        assert numeric["delta_f_nadir_hz"] == pytest.approx(closed["delta_f_nadir_hz"], abs=1e-6)
        assert numeric["t_nadir_s"] == pytest.approx(closed["t_nadir_s"], abs=1e-3)
