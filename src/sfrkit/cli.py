"""Batch front-end: scenario runs, fits, sweeps and figure-data regeneration.

Every subcommand writes plot-ready CSV or machine-readable JSON and is
deterministic: identical inputs produce byte-identical artifacts. Exit codes:
0 success, 1 validation problem, 2 infeasible analytic branch or fit failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import applications as apps
from . import bandfit, closedform, oracle, reports
from .errors import BranchError, FitError, InvalidInputError
from .model import (
    LagBand,
    RampBand,
    SystemConditions,
    _json_hooks,
    _number,
    derive_params,
    load_scenario,
    total_pfr_value,
)

__all__ = ["main"]

_DEF_T_END = 30.0
_DEF_DT = 0.001

# conditions used by the bundled figure targets
_BASE_SYSTEM = SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)
_SECURITY_SYSTEM = SystemConditions(f_n=50.0, ke=7000.0, p_load=2500.0, d=0.04, p_cont=300.0)
_SECURITY_DF_MAX = -1.25  # Hz
# magnitudes per axis of a --pfr-* grid; the bundled grids use at most 20
_MAX_GRID = 1000
# cells of a --pfr-* grid: 200 x 200 cells take about 2 s to map or fit on one
# core, and the time grows with the cells; a tau sweep counts every pair's cells
_MAX_CELLS = 40_000


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 1 (validation)."""

    def error(self, message):
        raise InvalidInputError(message)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _require_finite_flags(args)
        # no numpy warnings: every artifact writer refuses a value that is not finite
        with np.errstate(all="ignore"):
            return args.handler(args)
    except (ValueError, OverflowError) as exc:
        # InvalidInputError, and non-finite results that write_json refuses
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BranchError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _require_finite_flags(args):
    """argparse's float accepts nan, inf and overflowing literals such as 1e999."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise InvalidInputError(f"{flag} ({name}) must be a finite number, got {value}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sfrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, scenario=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
            p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="PATH=VALUE", help="override a scenario field")
        return p

    p = add("simulate", _cmd_simulate, "integrate the scenario numerically")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=[oracle.RK4, oracle.FORWARD_EULER], default=oracle.RK4)

    p = add("compare", _cmd_compare, "closed form vs numerical integration")
    p.add_argument("--out", required=True, help="prefix: writes <out>_closed.csv, <out>_oracle.csv")

    p = add("nadir", _cmd_nadir, "nadir classification, depth and RoCoF")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["closed", "oracle"], default="closed")

    p = add("fit-band", _cmd_fit_band, "fit one equivalent band to two lag bands")
    p.add_argument("--out", required=True)

    p = add("fit-surface", _cmd_fit_surface, "fit the equivalent-tau coefficients", scenario=False)
    p.add_argument("--tau1", type=float, required=True)
    p.add_argument("--tau2", type=float, required=True)
    _grid_flags(p)
    p.add_argument("--out", required=True)

    p = add("mape-map", _cmd_mape_map, "approximation error per magnitude cell", scenario=False)
    p.add_argument("--tau1", type=float, default=0.4)
    p.add_argument("--tau2", type=float, default=2.0)
    p.add_argument("--surface", help="surface model JSON (default: canonical coefficients)")
    _grid_flags(p)
    p.add_argument("--out", required=True)

    p = add("tau-sweep", _cmd_tau_sweep, "approximation validity across time constants",
            scenario=False)
    p.add_argument("--tau1-values", help="comma-separated tau1 list, s")
    p.add_argument("--tau2-values", help="comma-separated tau2 list, s")
    _grid_flags(p, default_min=20.0, default_step=20.0)
    p.add_argument("--out", required=True)

    p = add("max-contingency", _cmd_max_contingency, "largest containable contingency")
    p.add_argument("--delta-f-max", type=float, required=True, help="Hz, negative for under-frequency")
    p.add_argument("--k-policy", type=float, default=apps.WEM_K_POLICY)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--surface", help="surface model JSON for the FFR share")
    p.add_argument("--out", required=True)

    p = add("min-tau", _cmd_min_tau, "slowest tau that still shapes the nadir")
    p.add_argument("--k", type=float, required=True, help="P_cont / PFR ratio")
    p.add_argument("--out", required=True)

    p = add("sensitivities", _cmd_sensitivities, "trade-off derivatives with FD checks")
    p.add_argument("--delta-f-max", type=float, required=True)
    p.add_argument("--pfr1", type=float, required=True)
    p.add_argument("--pfr2", type=float, required=True)
    p.add_argument("--surface")
    p.add_argument("--out", required=True)

    p = add("reproduce-figure", _cmd_reproduce, "emit the data table behind a figure",
            scenario=False)
    p.add_argument("target", choices=sorted(_FIGURES))
    p.add_argument("--out", required=True)

    return parser


def _grid_flags(p, default_min=10.0, default_step=10.0):
    p.add_argument("--pfr-min", type=float, default=default_min)
    p.add_argument("--pfr-max", type=float, default=200.0)
    p.add_argument("--pfr-step", type=float, default=default_step)


def _pfr_grid(args):
    if not args.pfr_step > 0 or args.pfr_max < args.pfr_min:
        raise InvalidInputError("pfr grid flags must satisfy step > 0 and max >= min")
    steps = (args.pfr_max - args.pfr_min) / args.pfr_step
    if not steps < _MAX_GRID - 0.5:
        raise InvalidInputError(f"pfr grid: {steps + 1:.6g} magnitudes per axis, at most {_MAX_GRID}")
    n = int(round(steps)) + 1
    if n * n > _MAX_CELLS:
        raise InvalidInputError(f"pfr grid: --pfr-min, --pfr-max and --pfr-step give {n} x {n} "
                                f"cells, at most {_MAX_CELLS}")
    return tuple(args.pfr_min + args.pfr_step * i for i in range(n))


def _scenario(args):
    return load_scenario(args.scenario, args.overrides)


def _sim_grid(scenario, t_end=_DEF_T_END):
    """The scenario's (t_end, dt); t_end and the 1 ms step are the defaults."""
    return (t_end if scenario.t_end is None else scenario.t_end,
            _DEF_DT if scenario.dt is None else scenario.dt)


def _closed_and_oracle(system, bands, t_end, dt):
    """Closed-form and RK4 traces of bands of one kind on one sampling grid."""
    closed = closedform.trace(system, bands, t_end, dt)
    spec = oracle.IntegrationSpec(t_end=t_end, dt=dt)
    return closed, oracle.integrate(system, lambda t: total_pfr_value(bands, t), spec)


def _load_surface(path) -> bandfit.TauSurfaceModel:
    try:
        with open(path, encoding="utf-8") as fh:
            # the hooks' InvalidInputError names the path already
            doc = json.load(fh, **_json_hooks(path))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot load surface model {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"cannot load surface model {path}: top level must be an object")

    def number(key):
        # the scenario files' number rule; the record names a value that is not finite
        if key not in doc:
            raise InvalidInputError(f"cannot load surface model {path}: missing field '{key}'")
        return _number(doc[key], f"{path}.{key}")

    return bandfit.TauSurfaceModel(
        a=number("a"), b=number("b"), tau1=number("tau1_s"), tau2=number("tau2_s"),
        rms_residual=number("rms_residual") if "rms_residual" in doc else None,
    )


def _surface_or_canonical(args) -> bandfit.TauSurfaceModel:
    return _load_surface(args.surface) if args.surface else bandfit.CANONICAL_SURFACE


# --- subcommands -----------------------------------------------------------


def _cmd_simulate(args) -> int:
    scenario = _scenario(args)
    spec = oracle.IntegrationSpec(*_sim_grid(scenario), method=args.method)
    trace = oracle.integrate(scenario.system, lambda t: total_pfr_value(scenario.bands, t), spec)
    reports.write_trace_csv(args.out, trace)
    return 0


def _cmd_compare(args) -> int:
    scenario = _scenario(args)
    closed, numeric = _closed_and_oracle(scenario.system, scenario.bands, *_sim_grid(scenario))
    gap = float(np.abs(closed.samples - numeric.samples).max())
    if not math.isfinite(gap):
        raise InvalidInputError(f"closed form and oracle differ by {gap}: a trace is not finite "
                                f"for these scenario values")
    reports.write_trace_csv(f"{args.out}_closed.csv", closed)
    reports.write_trace_csv(f"{args.out}_oracle.csv", numeric)
    print(f"max_abs_gap_hz={reports.fmt(gap)}")
    return 0


def _cmd_nadir(args) -> int:
    scenario = _scenario(args)
    if args.method == "closed":
        if len(scenario.bands) != 1 or not isinstance(scenario.bands[0], LagBand):
            raise InvalidInputError(
                "closed-form nadir needs exactly one lag band; fit an equivalent band "
                "first or rerun with --method oracle"
            )
        result = closedform.lag_nadir(scenario.system, scenario.bands[0])
    else:
        spec = oracle.IntegrationSpec(*_sim_grid(scenario, 60.0))
        trace = oracle.integrate(scenario.system,
                                 lambda t: total_pfr_value(scenario.bands, t), spec)
        t_nadir, depth = oracle.trace_nadir(trace)
        interior = t_nadir < trace.times[-1]
        result = closedform.NadirResult(
            kind=closedform.INTERIOR_MINIMUM if interior else closedform.ASYMPTOTIC,
            t_nadir=t_nadir if interior else None,
            delta_f_nadir=depth,
            max_rocof=closedform.max_rocof(scenario.system),
        )
    reports.write_json(args.out, {
        "kind": result.kind,
        "t_nadir_s": result.t_nadir,
        "delta_f_nadir_hz": result.delta_f_nadir,
        "max_rocof_hz_per_s": result.max_rocof,
    })
    return 0


def _cmd_fit_band(args) -> int:
    scenario = _scenario(args)
    if len(scenario.bands) != 2 or not all(isinstance(b, LagBand) for b in scenario.bands):
        raise InvalidInputError("fit-band needs a scenario with exactly two lag bands")
    b1, b2 = sorted(scenario.bands, key=lambda b: b.tau)
    eq = bandfit.fit_equivalent_band(bandfit.TwoBandPfr(b1, b2))
    reports.write_json(args.out, {
        "pfr_eq_mw": eq.pfr_eq,
        "tau_eq_s": eq.tau_eq,
        "fit_residual_mw2": eq.fit_residual,
    })
    return 0


def _cmd_fit_surface(args) -> int:
    model = bandfit.build_tau_surface(args.tau1, args.tau2, pfr_grid=_pfr_grid(args))
    reports.write_json(args.out, {
        "a": model.a,
        "b": model.b,
        "tau1_s": model.tau1,
        "tau2_s": model.tau2,
        "rms_residual": model.rms_residual,
        "pfr_plane_dev": model.pfr_plane_dev,
    })
    return 0


def _cmd_mape_map(args) -> int:
    model = None if args.surface is None else _load_surface(args.surface)
    report = bandfit.mape_map(args.tau1, args.tau2, pfr_grid=_pfr_grid(args), model=model)
    reports.write_csv(args.out, ("pfr1_mw", "pfr2_mw", "mape_pct"),
                      ((c.pfr1, c.pfr2, c.mape_pct) for c in report.cells))
    print(f"mean_mape_pct={reports.fmt(report.mean_pct)} "
          f"max_mape_pct={reports.fmt(report.max_pct)}")
    return 0


def _parse_floats(raw):
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"expected comma-separated numbers, got {raw!r}") from exc
    if not all(map(math.isfinite, values)):
        raise InvalidInputError(f"expected comma-separated finite numbers, got {raw!r}")
    return values


def _cmd_tau_sweep(args) -> int:
    tau1s = None if args.tau1_values is None else _parse_floats(args.tau1_values)
    tau2s = None if args.tau2_values is None else _parse_floats(args.tau2_values)
    grid = _pfr_grid(args)
    pairs = len(bandfit._sweep_pairs(tau1s, tau2s))
    if pairs * len(grid) ** 2 > _MAX_CELLS:
        raise InvalidInputError(
            f"tau-sweep: {pairs} tau pairs from --tau1-values and --tau2-values, each with the "
            f"{len(grid)} x {len(grid)} cells of --pfr-min, --pfr-max and --pfr-step, are "
            f"{pairs * len(grid) ** 2} cells, at most {_MAX_CELLS}")
    report = bandfit.mape_tau_sweep(tau1s, tau2s, pfr_grid=grid)
    reports.write_csv(args.out, ("tau1_s", "tau2_s", "mean_mape_pct", "max_mape_pct"),
                      ((c.tau1, c.tau2, c.mean_mape_pct, c.max_mape_pct) for c in report.cells))
    print(f"mean_mape_pct={reports.fmt(report.mean_pct)} "
          f"max_mape_pct={reports.fmt(report.max_pct)}")
    return 0


def _cmd_max_contingency(args) -> int:
    scenario = _scenario(args)
    dp = derive_params(scenario.system)
    policy = apps.SecurityPolicy(k_policy=args.k_policy, delta_f_max=args.delta_f_max)
    try:
        cap = apps.max_contingency(dp, policy, args.tau)
    except BranchError:
        bound = apps.min_effective_tau(dp, args.k_policy)
        if not bound > 0:  # K <= 1: the cap is unbounded
            raise
        raise BranchError(f"asymptotic regime: tau = {args.tau} s is below min-tau's "
                          f"(1 - 1/K)*2H/D' = {reports.fmt(bound)} s "
                          f"at K = {reports.fmt(args.k_policy)}") from None
    surface = _surface_or_canonical(args)
    try:
        share = apps.required_ffr_share(surface, args.tau)
    except BranchError:
        share = None
    reports.write_json(args.out, {
        "tau_s": args.tau,
        "k_policy": args.k_policy,
        "delta_f_max_hz": args.delta_f_max,
        "max_contingency_mw": cap,
        "ffr_share": share,
    })
    print(f"max_contingency_mw={reports.fmt(cap)}")
    return 0


def _cmd_min_tau(args) -> int:
    scenario = _scenario(args)
    value = apps.min_effective_tau(derive_params(scenario.system), args.k)
    reports.write_json(args.out, {"k": args.k, "min_effective_tau_s": value})
    return 0


def _cmd_sensitivities(args) -> int:
    scenario = _scenario(args)
    dp = derive_params(scenario.system)
    surface = _surface_or_canonical(args)
    analytic = apps.sensitivity_report(dp, args.delta_f_max, surface, args.pfr1, args.pfr2)
    fd = apps.sensitivity_report_fd(dp, args.delta_f_max, surface, args.pfr1, args.pfr2)

    def block(rep):
        return {
            "dp_dtau_mw_per_s": rep.dp_dtau,
            "dp_dh_mw_per_mws_hz": rep.dp_dh,
            "dtau_dpfr1_s_per_mw": rep.dtau_dpfr1,
            "dtau_dpfr2_s_per_mw": rep.dtau_dpfr2,
            "dp_dpfr1_mw_per_mw": rep.dp_dpfr1,
            "dp_dpfr2_mw_per_mw": rep.dp_dpfr2,
        }

    reports.write_json(args.out, {
        "inputs": {
            "dprime_mw_per_hz": dp.dprime,
            "h_mws_per_hz": dp.h,
            "delta_f_max_hz": args.delta_f_max,
            "pfr1_mw": args.pfr1,
            "pfr2_mw": args.pfr2,
        },
        "analytic": block(analytic),
        "finite_difference": block(fd),
    })
    return 0


# --- figure targets --------------------------------------------------------


def _fig1():
    rows = []
    for t_r in (6.0, 3.0, 1.0):
        closed, numeric = _closed_and_oracle(_BASE_SYSTEM, [RampBand(270.0, t_r)], 30.0, 0.01)
        for t, c, n in zip(closed.times, closed.samples, numeric.samples):
            rows.append((t_r, t, c, n))
    return ("t_r_s", "t_s", "delta_f_closed_hz", "delta_f_oracle_hz"), rows


def _fig3():
    times = np.arange(0, 1001) * 0.01
    rows = []
    for tau in (0.4, 1.0, 2.0, 4.0):
        band = LagBand(pfr=100.0, tau=tau)
        for t, v in zip(times, total_pfr_value([band], times)):
            rows.append((tau, t, v))
    return ("tau_s", "t_s", "pfr_mw"), rows


def _fig4():
    # one vectorised fit; each cell equals its fit_equivalent_band result bit for bit
    grid = np.array(bandfit.DEFAULT_PFR_GRID)
    p1, p2 = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    pfr, tau, _ = bandfit._fit_lag_bands(p1, 0.4, p2, 2.0)
    return ("pfr1_mw", "pfr2_mw", "pfr_eq_mw", "tau_eq_s"), zip(p1, p2, pfr, tau)


def _fig5():
    # reproduction note: the standard-band time constant is fixed at 2.0 s here
    closed, numeric = _closed_and_oracle(_BASE_SYSTEM, [LagBand(pfr=270.0, tau=2.0)], 30.0, 0.01)
    rows = list(zip(closed.times, closed.samples, numeric.samples))
    return ("t_s", "delta_f_closed_hz", "delta_f_oracle_hz"), rows


def _two_band_vs_equivalent(cases):
    rows = []
    for p1, p2 in cases:
        bands = [LagBand(p, tau) for p, tau in ((p1, 0.4), (p2, 2.0)) if p != 0]
        exact = closedform.trace(_BASE_SYSTEM, bands, 30.0, 0.01)
        eq = bandfit.canonical_equivalent(p1, p2)
        approx = closedform.trace(_BASE_SYSTEM, [eq.band()], 30.0, 0.01)
        for t, e, ap in zip(exact.times, exact.samples, approx.samples):
            rows.append((p1, p2, t, e, ap))
    return ("pfr1_mw", "pfr2_mw", "t_s", "delta_f_exact_hz", "delta_f_approx_hz"), rows


def _fig6():
    return _two_band_vs_equivalent([(210.0, 0.0), (130.0, 80.0)])


def _fig7():
    return _two_band_vs_equivalent([(50.0, 160.0), (0.0, 210.0)])


def _fig8():
    report = bandfit.mape_map(0.4, 2.0)
    return ("pfr1_mw", "pfr2_mw", "mape_pct"), [
        (c.pfr1, c.pfr2, c.mape_pct) for c in report.cells
    ]


def _fig9():
    dp = derive_params(_SECURITY_SYSTEM)
    rows = []
    for i in range(27):  # tau = 0.40 .. 1.70 s
        tau = 0.40 + 0.05 * i
        policy = apps.SecurityPolicy(k_policy=apps.WEM_K_POLICY, delta_f_max=_SECURITY_DF_MAX)
        try:
            cap = apps.max_contingency(dp, policy, tau)
        except BranchError:
            cap = apps.asymptotic_max_contingency(dp, policy.k_policy, policy.delta_f_max)
        share = apps.required_ffr_share(bandfit.CANONICAL_SURFACE, tau)
        rows.append((tau, cap, share))
    return ("tau_s", "max_contingency_mw", "ffr_share"), rows


def _fig10():
    report = bandfit.mape_tau_sweep()
    return ("tau1_s", "tau2_s", "mean_mape_pct", "max_mape_pct"), [
        (c.tau1, c.tau2, c.mean_mape_pct, c.max_mape_pct) for c in report.cells
    ]


def _fig11():
    rows = []
    for j in range(21):  # K = 1.0 .. 3.0
        k = 1.0 + 0.1 * j
        for i in range(1, 41):  # A = 0.05 .. 2.00
            a = 0.05 * i
            try:
                f = apps.universal_max_contingency_factor(a, k, _SECURITY_DF_MAX)
            except BranchError:
                continue
            rows.append((a, k, f))
    return ("A", "K", "f_AK"), rows


_FIGURES = {"fig1": _fig1, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "fig6": _fig6,
            "fig7": _fig7, "fig8": _fig8, "fig9": _fig9, "fig10": _fig10, "fig11": _fig11}


def _cmd_reproduce(args) -> int:
    header, rows = _FIGURES[args.target]()
    reports.write_csv(args.out, header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
