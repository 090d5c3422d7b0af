"""Self-tests of the benchmark's output checks.

Each check must accept the program's correct output and reject a
deliberately wrong one. Run with: python3 -m pytest bench/test_checks.py
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import layers  # noqa: E402

SK = wl.load_sfrkit(os.path.dirname(HERE))
L = layers(SK.modules)
SEED = 5


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    w = wl.Screen(SK, SEED, str(tmp_path_factory.mktemp("screen")))
    batch = w.round[0]
    return w, batch, w.run(L, batch)


def _first(batch, kind_test):
    return next(i for i, p in enumerate(batch) if kind_test(p))


def test_screen_accepts_program_output(screen):
    w, batch, outs = screen
    assert w.check_points(batch, outs) == []


def _replace(outs, i, slot, value):
    outs = list(outs)
    row = list(outs[i])
    row[slot] = value
    outs[i] = tuple(row)
    return outs


@pytest.mark.parametrize("kind", ["interior_minimum", "asymptotic"])
def test_screen_rejects_nadir_off_by_1e4_hz(screen, kind):
    w, batch, outs = screen
    i = next(i for i, o in enumerate(outs) if o[0].kind == kind)
    wrong = dataclasses.replace(outs[i][0], delta_f_nadir=outs[i][0].delta_f_nadir + 1e-4)
    errors = w.check_points(batch, _replace(outs, i, 0, wrong))
    assert errors and all(f"point {i}:" in e for e in errors)


def test_screen_rejects_a_nadir_time_that_is_not_the_minimum(screen):
    w, batch, outs = screen
    i = next(i for i, o in enumerate(outs) if o[0].kind == "interior_minimum")
    r = outs[i][0]
    wrong = dataclasses.replace(r, t_nadir=r.t_nadir * 1.01)
    assert w.check_points(batch, _replace(outs, i, 0, wrong))


def test_screen_covers_both_regimes_guard_bands_and_fallbacks(screen):
    _, batch, outs = screen
    kinds = [o[0].kind for o in outs]
    assert kinds.count("interior_minimum") >= 30 and kinds.count("asymptotic") >= 12
    assert any(o[4] for o in outs) and not all(o[4] for o in outs)
    assert any(p.sign < 0 for p in batch)


@pytest.mark.parametrize("slot,scale", [(3, 1.0 + 1e-6), (5, 1.0 + 1e-6)])
def test_screen_rejects_wrong_cap_or_share(screen, slot, scale):
    w, batch, outs = screen
    i = _first(batch, lambda p: p.sign > 0)
    assert w.check_points(batch, _replace(outs, i, slot, outs[i][slot] * scale))


def test_screen_rejects_wrong_sensitivity(screen):
    w, batch, outs = screen
    sens = outs[0][6]
    wrong = dataclasses.replace(sens, dp_dh=sens.dp_dh * (1.0 + 1e-4))
    assert w.check_points(batch, _replace(outs, 0, 6, wrong))


def test_screen_rejects_a_broken_mirror(screen):
    w, batch, outs = screen
    i = _first(batch, lambda p: p.sign < 0)
    r = outs[i][0]
    wrong = dataclasses.replace(r, max_rocof=np.nextafter(r.max_rocof, 0.0))
    assert any("mirror" in e for e in w.check_points(batch, _replace(outs, i, 0, wrong)))


@pytest.fixture(scope="module")
def validate(tmp_path_factory):
    w = wl.Validate(SK, SEED, str(tmp_path_factory.mktemp("validate")))
    return w, w.run(L, w.round[1])


def test_validate_accepts_program_output(validate):
    w, (closed, numeric, gap) = validate
    assert gap <= wl.GAP_LIMIT_HZ
    assert wl._check_traces(w.docs[1], closed, numeric, "two-band") == []


def test_validate_rejects_oracle_shifted_by_one_step(validate):
    w, (closed, numeric, _) = validate
    shifted = np.concatenate([[0.0], numeric[:-1]])
    assert wl._check_traces(w.docs[1], closed, shifted, "shifted")


def test_validate_final_checks_include_solve_ivp(tmp_path):
    w = wl.Validate(SK, SEED, str(tmp_path))
    for idx, path in enumerate(w.round[:wl.IVP_SUBSET]):
        w.check(idx, w.run(L, path))
    assert w.final_checks() == []


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    w = wl.Cli(SK, SEED, str(d))
    item = w.round[0]
    prefix = str(d / "inproc")
    argv = w._argv(item, prefix)[3:]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert SK.cli.main(argv) == 0
    return w, out.getvalue(), w._outputs(prefix)


def test_cli_accepts_program_csvs(cli_run):
    w, stdout, (closed, oracle) = cli_run
    assert w.check_csvs(w.docs[0], closed, oracle, "cli") == []
    assert float(stdout.strip().partition("=")[2]) <= wl.GAP_LIMIT_HZ


def test_cli_rejects_csv_with_a_row_missing(cli_run, tmp_path):
    w, _, (closed, oracle) = cli_run
    with open(closed, encoding="utf-8") as fh:
        lines = fh.readlines()
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:500] + lines[501:]), encoding="utf-8")
    assert w.check_csvs(w.docs[0], str(short), oracle, "cli")


def test_cli_rejects_non_finite_run_that_exits_0(tmp_path):
    w = wl.Cli(SK, SEED, str(tmp_path))
    idx = next(i for i, item in enumerate(w.round) if not item.valid)
    assert w.check(idx, (1, "error: bad input", 0)) == (False, [])
    for p in w._outputs(str(tmp_path / "cmp")):
        open(p, "w").close()
    assert w.check(idx, (0, "max_abs_gap_hz=nan\n", 0))[0] is True
    assert w.check(idx, (1, "", 0))[0] is False  # the files were removed by the check


def test_cli_valid_round_trip_through_a_child(tmp_path):
    w = wl.Cli(SK, SEED, str(tmp_path))
    assert w.check(0, w.run(L, w.round[0])) == (False, [])


@pytest.fixture(scope="module")
def reduce_run(tmp_path_factory):
    w = wl.Reduce(SK, SEED, str(tmp_path_factory.mktemp("reduce")))
    return w, w.round[1], w.run(L, w.round[1])  # a pair with tau2/tau1 near 6.8


def test_reduce_accepts_program_output(reduce_run):
    w, pair, out = reduce_run
    assert w.check_pair(pair, w.samples[1], out, "pair") == []
    near = w.round[0]  # tau2/tau1 <= 1.1
    assert w.check_pair(near, w.samples[0], w.run(L, near), "pair") == []


def test_reduce_rejects_a_wrong_map_cell(reduce_run):
    w, pair, (model, report) = reduce_run
    cells = list(report.cells)
    cells[7] = dataclasses.replace(cells[7], mape_pct=cells[7].mape_pct * (1.0 + 1e-6))
    wrong = dataclasses.replace(report, cells=tuple(cells))
    assert w.check_pair(pair, w.samples[1], (model, wrong), "pair")


def _surface_with_its_map(w, pair, model):
    return model, SK.bandfit.mape_map(*pair, pfr_grid=wl.SWEEP_GRID, model=model)


def test_reduce_rejects_a_skewed_surface_whose_map_agrees(reduce_run):
    w, pair, (model, _) = reduce_run
    skewed = dataclasses.replace(model, a=model.a * 1.01)
    errors = w.check_pair(pair, w.samples[1], _surface_with_its_map(w, pair, skewed), "pair")
    assert any("least-squares optimum" in e for e in errors)
    assert not any("MAPE" in e for e in errors)


def test_reduce_rejects_a_surface_fitted_to_distinct_ratios_unweighted(reduce_run):
    # a deduplication of repeated PFR2/PFR1 ratios that forgets their multiplicity
    w, pair, (model, _) = reduce_run
    tau1, tau2 = pair
    band, bf = SK.model.LagBand, SK.bandfit
    grid = np.array(wl.SWEEP_GRID)
    p1, p2 = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    tau_eq = np.array([bf.fit_equivalent_band(bf.TwoBandPfr(band(x, tau1), band(y, tau2))).tau_eq
                       for x, y in zip(p1, p2)])
    ratios, first = np.unique(p2 / p1, return_index=True)
    assert len(ratios) == 63
    a, b, _ = ref.surface_fit(tau1, ratios, tau_eq[first])
    rms = (ref.surface_ssr(a, b, tau1, p2 / p1, tau_eq) / len(p1)) ** 0.5
    dedup = dataclasses.replace(model, a=a, b=b, rms_residual=rms)
    errors = w.check_pair(pair, w.samples[1], _surface_with_its_map(w, pair, dedup), "pair")
    assert any("least-squares optimum" in e for e in errors)


@pytest.mark.parametrize("field,scale", [("rms_residual", 1.01), ("pfr_plane_dev", 1.01)])
def test_reduce_rejects_a_wrong_surface_diagnostic(reduce_run, field, scale):
    w, pair, (model, report) = reduce_run
    wrong = dataclasses.replace(model, **{field: getattr(model, field) * scale})
    assert any(field in e for e in w.check_pair(pair, w.samples[1], (wrong, report), "pair"))


def test_reference_band_fits_beat_a_dense_scan():
    t = ref.fit_times(2.5)
    ys = np.stack([ref.two_band(t, p1, 0.3, p2, 2.5) for p1, p2 in ((20.0, 200.0), (180.0, 40.0))])
    pfr, tau = ref.band_fits(t, ys, 0.15, 5.0)
    for y, p, ta in zip(ys, pfr, tau):
        assert ref.band_ssr(t, y, p, ta) <= ref.dense_tau_scan(t, y, 0.15, 5.0)


def test_reference_surface_fit_recovers_exact_coefficients():
    ratios = np.geomspace(0.1, 10.0, 40)
    a, b, ssr = ref.surface_fit(0.4, ratios, ref.tau_model(1.3, 0.6, 0.4, 1.0, ratios))
    assert abs(a - 1.3) < 1e-6 and abs(b - 0.6) < 1e-6 and ssr < 1e-20


@pytest.mark.parametrize("dprime,two_h,p_cont,pfrs,taus", [
    (80.0, 360.0, 300.0, [270.0], [2.0]),            # interior nadir
    (80.0, 360.0, 300.0, [270.0], [4.5]),            # D' tau = 2H exactly
    (80.0, 360.0, 300.0, [270.0], [4.5 * (1 + 3e-10)]),  # inside the A = 1 guard
    (40.0, 400.0, 300.0, [150.0], [0.8]),            # asymptotic regime
    (100.0, 280.0, -250.0, [-130.0, -80.0], [0.4, 2.0]),  # over-frequency, two bands
])
def test_reference_curve_matches_solve_ivp(dprime, two_h, p_cont, pfrs, taus):
    t = np.linspace(0.0, 30.0, 61)
    want = ref.solve_ivp_curve(dprime, two_h, p_cont, pfrs, taus, t)
    got = ref.lag_curve(t, dprime, two_h, p_cont, pfrs, taus)
    assert np.abs(got - want).max() <= 1e-10


def test_golden_min_finds_the_nadir():
    t, depth = ref.golden_min(lambda x: (x - 1.5) ** 2 - 2.0, np.array([0.0]), np.array([10.0]))
    assert abs(t[0] - 1.5) < 1e-7 and abs(depth[0] + 2.0) < 1e-12


def test_k1_sensitivities_match_the_closed_form():
    # d/dtau of -D' df A^(1/(A-1)) at A = 2: analytic value from the paper's bracket
    dprime, h, df = 100.0, 140.0, -1.25
    tau = 2.0 * h * 2.0 / dprime
    bracket = (1.0 - 2.0 * np.log(2.0)) / 1.0
    want = -(dprime * df / tau) * bracket * 2.0
    got = ref.central(lambda x: float(ref.k1_cap(dprime, h, df, x)), tau)
    assert abs(got - want) <= 1e-7 * abs(want)


def test_benchmark_json_lists_the_reported_metrics():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in doc["workloads"]} <= set(wl.WORKLOADS)


def test_adjust_divides_by_the_host_factor():
    import calibration as cal
    nominal = cal.NOMINAL_NS[cal.objects]
    op = [1000.0, 2000.0, 3000.0]
    assert list(cal.adjust(op, [nominal] * 3, cal.objects)) == op
    assert list(cal.adjust(op, [2 * nominal] * 3, cal.objects)) == [500.0, 1000.0, 1500.0]
