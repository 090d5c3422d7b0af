"""Grids that cannot give a finite map, and sweeps too large to run, exit 1 and write nothing."""
import time

import pytest

from sfrkit import FrequencyTrace, InvalidInputError, TauSweepReport, bandfit
from sfrkit.cli import main


def test_subnormal_map_exits_1(tmp_path, capsys):
    # 1e-6 of a subnormal peak rounds to 0, which would keep and divide by the zero samples
    out = tmp_path / "m.csv"
    assert main(["mape-map", "--pfr-min", "0", "--pfr-max", "1e-320", "--pfr-step", "1e-320",
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert "every sample was excluded" in capsys.readouterr().err


def test_subnormal_curve_has_no_mape():
    exact = FrequencyTrace(t0=0.0, dt=1.0, samples=[0.0, 5e-324, 1e-320])
    with pytest.raises(InvalidInputError, match="every sample was excluded"):
        bandfit.mape(exact, exact)


class TestSweepCellCap:
    def test_sweep_of_full_grids_exits_1_before_any_work(self, monkeypatch, tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected sweep must not be fitted or mapped")

        for name in ("mape_map", "build_tau_surface", "mape_tau_sweep"):
            monkeypatch.setattr(bandfit, name, no_work)
        out = tmp_path / "ts.csv"
        start = time.perf_counter()
        # 30 default pairs, each 200 x 200 cells
        assert main(["tau-sweep", "--pfr-min", "1", "--pfr-max", "200", "--pfr-step", "1",
                     "--out", str(out)]) == 1
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        err = capsys.readouterr().err
        assert "30 tau pairs" in err and "1200000 cells" in err
        for flag in ("--pfr-min", "--pfr-max", "--pfr-step", "--tau1-values", "--tau2-values"):
            assert flag in err

    @pytest.mark.parametrize("tau2_values, n, accepted", [
        ("2.0", 200, True),      # 1 x 200 x 200 = 40000 cells, the cap
        ("2.0,3.0", 142, False),  # 2 x 142 x 142 = 40328 cells
        ("2.0,3.0", 141, True),  # 2 x 141 x 141 = 39762 cells
    ])
    def test_cap_counts_pairs_times_cells(self, tau2_values, n, accepted, monkeypatch, tmp_path):
        calls = []

        def fake_sweep(tau1s, tau2s, pfr_grid):
            calls.append(len(pfr_grid))
            return TauSweepReport(cells=(), mean_pct=0.0, max_pct=0.0)

        monkeypatch.setattr(bandfit, "mape_tau_sweep", fake_sweep)
        code = main(["tau-sweep", "--tau1-values", "0.4", "--tau2-values", tau2_values,
                     "--pfr-min", "1", "--pfr-max", str(n), "--pfr-step", "1",
                     "--out", str(tmp_path / "ts.csv")])
        assert (code == 0) == accepted and calls == ([n] if accepted else [])
