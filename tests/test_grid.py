"""The one sampling-grid rule shared by closed-form traces, the oracle and the fits.

Every test that feeds an oversized grid runs with numpy.arange guarded, so a
missing check fails the test instead of attempting the allocation.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from sfrkit import InvalidInputError, LagBand, bandfit, closedform, model, oracle
from sfrkit.bandfit import TauSurfaceModel, build_tau_surface, mape_map
from sfrkit.cli import main
from sfrkit.closedform import trace
from sfrkit.model import _MAX_STEPS, _grid_steps
from sfrkit.oracle import IntegrationSpec, integrate

SCENARIO = str(Path(__file__).resolve().parent.parent / "demos/scenarios/lag_270mw.json")
# far below the ceiling's RK4 forcing grid, far above any grid these tests build
ARANGE_LIMIT = 1_000_000


@pytest.fixture
def guarded_arange(monkeypatch):
    real = np.arange

    def arange(*args, **kwargs):
        start, stop, step = (0, args[0], 1) if len(args) == 1 else (tuple(args) + (1,))[:3]
        if (stop - start) / step > ARANGE_LIMIT:
            raise AssertionError(f"numpy.arange{args} would allocate a huge grid")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)


class TestGridSteps:
    @pytest.mark.parametrize("t_end, dt, n", [
        (30.0, 0.001, 30_000),
        (30.0, 0.01, 3_000),
        (0.001, 0.001, 1),
        (0.0015, 0.001, 2),
        (_MAX_STEPS + 0.5, 1.0, _MAX_STEPS),  # rounds half to even, onto the ceiling
    ])
    def test_step_count(self, t_end, dt, n):
        assert _grid_steps(t_end, dt) == n

    @pytest.mark.parametrize("t_end, dt", [
        (math.inf, 0.001), (math.nan, 0.001), (-math.inf, 0.001),
        (10.0, math.nan), (10.0, math.inf), (10.0, 0.0), (10.0, -0.001),
        (0.0005, 0.001), (0.0, 0.001),
    ])
    def test_rejects_bad_grids(self, t_end, dt):
        with pytest.raises(InvalidInputError, match="t_end"):
            _grid_steps(t_end, dt)

    @pytest.mark.parametrize("t_end, dt", [
        (_MAX_STEPS + 1.0, 1.0),
        (1e6, 0.001),
        (1e308, 1e-300),  # the ratio overflows to infinity
    ])
    def test_ceiling(self, t_end, dt):
        with pytest.raises(InvalidInputError, match=f"t_end=.*more than {_MAX_STEPS}"):
            _grid_steps(t_end, dt)

    @pytest.mark.parametrize("huge", [10**400, 10**5000], ids=["1e400", "1e5000"])
    def test_an_int_beyond_the_float_range_is_bad_input(self, base_system, huge):
        # t_end / dt raised a bare OverflowError; 10**5000 has too many digits to print
        big = "an integer too large for a float"
        t_end_message = f"^need finite t_end >= dt > 0, got t_end={big}, dt=0.001$"
        with pytest.raises(InvalidInputError, match=t_end_message):
            IntegrationSpec(t_end=huge)
        with pytest.raises(InvalidInputError, match=t_end_message):
            trace(base_system, [LagBand(270.0, 2.0)], huge, 0.001, "lag")
        with pytest.raises(InvalidInputError, match=f"^need finite t_end >= dt > 0, "
                                                    f"got t_end=1.0, dt={big}$"):
            trace(base_system, [LagBand(270.0, 2.0)], 1.0, huge)
        with pytest.raises(InvalidInputError, match=f"^dt must be in \\(0, 0.01\\], got {big}$"):
            IntegrationSpec(t_end=1.0, dt=huge)

    def test_where_names_the_field(self):
        with pytest.raises(InvalidInputError, match="window=1e\\+300"):
            _grid_steps(1e300, 0.01, "window")

    def test_one_rule_for_every_module(self):
        assert closedform._grid_steps is oracle._grid_steps is bandfit._grid_steps \
            is model._grid_steps
        assert not hasattr(oracle, "_MAX_STEPS")


class TestClosedFormTrace:
    @pytest.mark.parametrize("t_end", [math.inf, math.nan, 1e6])
    def test_rejects_before_allocating(self, base_system, guarded_arange, t_end):
        with pytest.raises(InvalidInputError, match="t_end"):
            trace(base_system, [LagBand(270.0, 2.0)], t_end, 0.001, "lag")

    def test_grid_matches_oracle(self, base_system):
        band = LagBand(270.0, 2.0)
        closed = trace(base_system, [band], 2.0004, 0.001, "lag")
        numeric = integrate(base_system, lambda t: 270.0 * (1 - np.exp(-t / 2.0)),
                            IntegrationSpec(t_end=2.0004, dt=0.001))
        assert len(closed) == len(numeric) == 2001  # round(2000.4) steps, plus t = 0


class TestFitGrid:
    def test_largest_default_grid_is_virtual(self):
        # tau2 = 20 000 s at 10 ms is the ceiling exactly; nothing is allocated
        assert bandfit._fit_grid(20_000.0) == (_MAX_STEPS + 1, 0.01)

    @pytest.mark.parametrize("tau2", [20_000.01, 1e9, 1e300, math.inf, math.nan])
    def test_oversized_window_names_tau2(self, guarded_arange, tau2):
        with pytest.raises(InvalidInputError, match="tau2"):
            bandfit._fit_grid(tau2)

    def test_surface_and_map_reject(self, guarded_arange, recwarn):
        with pytest.raises(InvalidInputError, match="tau2"):
            build_tau_surface(0.4, 1e9, pfr_grid=(50.0, 100.0))
        huge = TauSurfaceModel(a=1.0, b=1.0, tau1=0.4, tau2=1e9)
        with pytest.raises(InvalidInputError, match="tau2"):
            mape_map(0.4, 1e9, pfr_grid=(50.0, 100.0), model=huge)
        assert not recwarn.list


class TestCli:
    def test_compare_oversized_sim(self, guarded_arange, tmp_path, capsys):
        prefix = tmp_path / "c"
        assert main(["compare", "--scenario", SCENARIO, "--set", "sim.t_end_s=1e6",
                     "--out", str(prefix)]) == 1
        assert "t_end" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["tau-sweep", "--tau1-values", "0.4", "--tau2-values", "1e9"],
        ["fit-surface", "--tau1", "0.4", "--tau2", "1e9"],
        ["fit-surface", "--tau1", "0.4", "--tau2", "1e300"],
    ])
    def test_oversized_fit_window(self, guarded_arange, argv, tmp_path, capsys, recwarn):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert "tau2" in capsys.readouterr().err
        assert not out.exists()
        assert not recwarn.list

    def test_simulate_tiny_step(self, guarded_arange, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", SCENARIO, "--set", "sim.dt_s=1e-300",
                     "--out", str(out)]) == 1
        assert "more than" in capsys.readouterr().err
        assert not out.exists()
