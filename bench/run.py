"""sfrkit benchmark: four closed-loop workloads with end-to-end and per-layer metrics.

    python3 bench/run.py                          # every workload, each in a fresh process
    python3 bench/run.py --workload screen --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload cli --trace 1  # per-layer metrics and spans

sfrkit is imported from src/ next to this directory, and the CLI workload runs
`python -m sfrkit` on the same path, so a checkout measures its own code. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics. Results and spans are written under bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layers  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
# fresh processes timed from spawn to the first timed operation, half of them
# before the timed loop and half after, so they see more of the host's states
SETUP_SAMPLES = 10
# calibration samples a set-up probe takes after its warm-up operation
PROBE_CAL_SAMPLES = 5

END_TO_END = (("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("startup.interpreter_ms", "ms"), ("startup.import_ms", "ms"),
    ("cli.main_ms", "ms"), ("cli.self_ms", "ms"),
    ("model.scenario_from_dict_us", "us"), ("model.load_scenario_ms", "ms"),
    ("model.calls", "count"),
    ("closedform.lag_nadir_us", "us"), ("closedform.trace_ms", "ms"), ("closedform.calls", "count"),
    ("applications.max_contingency_us", "us"), ("applications.required_ffr_share_us", "us"),
    ("applications.sensitivity_report_us", "us"), ("applications.branch_fallbacks", "count"),
    ("bandfit.canonical_equivalent_us", "us"), ("bandfit.build_tau_surface_ms", "ms"),
    ("bandfit.mape_map_ms", "ms"), ("bandfit.cells_fitted", "count"),
    ("bandfit.distinct_ratios", "count"), ("bandfit.fit_cells_per_s", "1/s"),
    ("oracle.integrate_ms", "ms"), ("oracle.steps", "count"), ("oracle.steps_per_s", "1/s"),
    ("reports.write_ms", "ms"), ("reports.bytes", "count"), ("reports.mb_per_s", "MB/s"),
    ("op.other_ms", "ms"), ("trace.overhead_pct", "%"),
)


class Run:
    """Outcome of a timed loop over whole rounds."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.op_ns = []   # every operation
        self.timed = []   # per operation: counts towards latency (valid input, no exception)
        self.traced = []  # per operation: run under the tracer (traced runs only)
        self.cal_ns = []  # per operation: the calibration task run right after it
        self.traced_ns = {}  # input index -> times of its traced operations
        self.errors = []
        self.counts = {}

    def latency_ms(self, task=None):
        """(timed operations' latencies in ms, every operation's time in ns).

        Both are divided by the host factor when a calibration task is given.
        """
        op = np.array(self.op_ns, dtype=float) if task is None \
            else calibration.adjust(self.op_ns, self.cal_ns, task)
        return op[np.array(self.timed, dtype=bool)] / 1e6, op

    def overhead_pct(self):
        """100 x (1 - traced / untraced ops_per_s) over the same operations."""
        op, traced = np.array(self.op_ns, dtype=float), np.array(self.traced, dtype=bool)
        return (1.0 - op[~traced].sum() / op[traced].sum()) * 100.0


def measure(wl, L, seconds, calibrate=False, tracer=None, traced_L=None):
    """Whole rounds of the workload's operations until `seconds` have passed.

    With a tracer, every input runs twice in a row, once untraced through L and
    once traced through traced_L, the order alternating from round to round,
    so both halves see the same inputs and the same host.
    """
    run = Run()
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or run.attempted == 0:
        for idx, item in enumerate(wl.round):
            modes = (False,) if tracer is None else ((False, True) if rounds % 2 else (True, False))
            for traced in modes:
                _one(run, wl, traced_L if traced else L, idx, item, tracer if traced else None,
                     calibrate)
        rounds += 1
    return run


def _one(run, wl, L, idx, item, tracer, calibrate):
    if tracer is not None:
        tracer.op_id = len(tracer.durations.get("op", ()))
        tracer.begin("op")
    t0 = time.perf_counter_ns()
    try:
        out, exc = wl.run(L, item), None
    except Exception as e:  # a failed operation is counted, not fatal
        out, exc = None, e
    elapsed = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.end()
        tracer.op_id = None
        run.traced_ns.setdefault(idx, []).append(elapsed)
    if calibrate:
        run.cal_ns.append(calibration.sample(wl.calibration))
    run.attempted += 1
    run.op_ns.append(elapsed)
    run.traced.append(tracer is not None)
    if exc is not None:
        run.failed += 1
        run.timed.append(False)
        run.errors.append(f"input {idx}: {type(exc).__name__}: {exc}")
        return
    failed, errors = wl.check(idx, out)
    run.failed += failed
    run.errors += errors
    run.timed.append(wl.timed(idx) and not failed)
    for k, v in wl.counts(idx, out).items():
        run.counts[k] = run.counts.get(k, 0) + v


def decompose(wl, L, tracer, run, seconds):
    """Traced runs only: whole passes of the workload's layer decomposition.

    Runs after the timed loop, so its work never precedes a measured
    operation. Returns the decomposition's counts per call, and the calls.
    """
    idxs = [i for i in range(len(wl.round)) if wl.timed(i) and i in run.traced_ns]
    counts, calls = {}, 0
    start = time.perf_counter()
    while calls == 0 or time.perf_counter() - start < seconds:
        for idx in idxs:
            for k, v in wl.decompose(L, tracer, idx, float(np.median(run.traced_ns[idx]))).items():
                counts[k] = counts.get(k, 0) + v
            calls += 1
    return {k: v / calls for k, v in counts.items()}, calls


def end_to_end(run, task, setup, peak_rss_kb):
    lat_ms, op_ns = run.latency_ms(task)
    p50, p90 = np.percentile(lat_ms, [50, 90])
    return {
        "ops_per_s": run.attempted / (op_ns.sum() / 1e9),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(run, tracer, decomposed, n_decomposed):
    """Layer metrics: medians per call, counts per operation.

    Where the operation itself makes no layer call (`cli`, whose operation is
    a child process), counts are per decomposition instead.
    """
    d = {name: np.array(v, dtype=float) for name, v in tracer.durations.items()}
    n_traced = len(d["op"])
    # counts of the timed operations take precedence over the decomposition's
    counts = dict(decomposed, **{k: v / run.attempted for k, v in run.counts.items()})
    if tracer.calls_in_op:
        layer_calls, per = tracer.calls_in_op, n_traced
    else:
        layer_calls, per = {k: len(v) for k, v in d.items()}, max(n_decomposed, 1)

    def med(name, scale):
        return float(np.median(d[name])) / scale if name in d else 0.0

    def calls(layer):
        return sum(n for k, n in layer_calls.items() if k.startswith(layer + ".")) / per

    def per_s(count, name):
        return counts.get(count, 0) / med(name, 1e9) if name in d else 0.0

    m = {
        "startup.interpreter_ms": med("startup.interpreter", 1e6),
        "startup.import_ms": max(med("startup.import", 1e6) - med("startup.interpreter", 1e6), 0.0)
        if "startup.import" in d else 0.0,
        "cli.main_ms": med("cli.main", 1e6),
        "cli.self_ms": med("cli.self", 1e6),
        "model.scenario_from_dict_us": med("model.scenario_from_dict", 1e3),
        "model.load_scenario_ms": med("model.load_scenario", 1e6),
        "model.calls": calls("model"),
        "closedform.lag_nadir_us": med("closedform.lag_nadir", 1e3),
        "closedform.trace_ms": med("closedform.trace", 1e6),
        "closedform.calls": calls("closedform"),
        "applications.max_contingency_us": med("applications.max_contingency", 1e3),
        "applications.required_ffr_share_us": med("applications.required_ffr_share", 1e3),
        "applications.sensitivity_report_us": med("applications.sensitivity_report", 1e3),
        "applications.branch_fallbacks":
            layer_calls.get("applications.asymptotic_max_contingency", 0) / per,
        "bandfit.canonical_equivalent_us": med("bandfit.canonical_equivalent", 1e3),
        "bandfit.build_tau_surface_ms": med("bandfit.build_tau_surface", 1e6),
        "bandfit.mape_map_ms": med("bandfit.mape_map", 1e6),
        "bandfit.cells_fitted": counts.get("bandfit.cells_fitted", 0),
        "bandfit.distinct_ratios": counts.get("bandfit.distinct_ratios", 0),
        "bandfit.fit_cells_per_s": per_s("bandfit.cells_fitted", "bandfit.build_tau_surface"),
        "oracle.integrate_ms": med("oracle.integrate", 1e6),
        "oracle.steps": counts.get("oracle.steps", 0),
        "oracle.steps_per_s": per_s("oracle.steps", "oracle.integrate"),
        "reports.write_ms": med("reports.write_trace_csv", 1e6),
        "reports.bytes": counts.get("reports.bytes", 0),
        # both traces of a decomposition, over both writes' median time
        "reports.mb_per_s": per_s("reports.bytes", "reports.write_trace_csv") / 2e6,
    }
    if "op.other" in d:
        # cli: the child's time outside interpreter start, import and main
        m["op.other_ms"] = med("op.other", 1e6)
    else:
        covered = np.array([tracer.children.get(i, 0) for i in range(n_traced)], dtype=float)
        m["op.other_ms"] = float(np.median(d["op"] - covered)) / 1e6
    m["trace.overhead_pct"] = run.overhead_pct()
    return m


def setup_probe(workload, seed):
    """Time from spawning a fresh process to its first timed operation, s.

    Returns (set-up time, unadjusted set-up time). The first counts the
    warm-up operation host-adjusted, as timed operations are.
    """
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return child["ready"] - t0 + child["warm_up_s"], child["end"] - t0


def probe_child(wl, L):
    """The child's side of a set-up probe: one warm-up operation, timed.

    Prints when set-up before the warm-up ended and when the warm-up ended
    (monotonic clock, shared with the parent) and the warm-up's time divided
    by the host factor of calibration samples taken after it.
    """
    ready = time.monotonic()
    t0 = time.perf_counter_ns()
    wl.run(L, wl.round[0])
    warm_ns = time.perf_counter_ns() - t0
    end = time.monotonic()
    task = wl.calibration
    if task is not None:
        cal = [calibration.sample(task) for _ in range(PROBE_CAL_SAMPLES)]
        warm_ns = float(calibration.adjust([warm_ns], [statistics.median(cal)], task)[0])
    print(json.dumps({"ready": ready, "end": end, "warm_up_s": warm_ns / 1e9}), flush=True)


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "sfrkit_threads": os.environ.get("SFRKIT_THREADS")}


def run_workload(args):
    try:
        sk = workloads.load_sfrkit(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](sk, args.seed, workdir)
        L = layers(sk.modules)
        if args.setup_probe:
            probe_child(wl, L)
            return 0
        probes = [] if args.trace else [setup_probe(args.workload, args.seed)
                                        for _ in range(SETUP_SAMPLES // 2)]
        warm_errors = wl.check(0, wl.run(L, wl.round[0]))[1]  # warm-up
        if args.trace:
            tracer = Tracer()
            traced_L = layers(sk.modules, tracer)
            split = hasattr(wl, "decompose")  # half the time for the decomposition
            run = measure(wl, L, args.seconds / 2.0 if split else args.seconds,
                          tracer=tracer, traced_L=traced_L)
            decomposed, n_decomposed = decompose(wl, traced_L, tracer, run, args.seconds / 2.0) \
                if split else ({}, 0)
            run.errors += wl.final_checks() + warm_errors
            metrics = per_layer(run, tracer, decomposed, n_decomposed)
            attempted, failed = run.attempted, run.failed
            names = PER_LAYER
            spans = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
            tracer.write(spans)
        else:
            task = wl.calibration
            run = measure(wl, L, args.seconds, calibrate=task is not None)
            probes += [setup_probe(args.workload, args.seed)
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
            setup = [p[0] for p in probes]
            peak = getattr(wl, "peak_rss_kb", None) or resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(run, task, setup, peak)
            raw = end_to_end(run, None, [p[1] for p in probes], peak)
            run.errors += wl.final_checks() + warm_errors
            attempted, failed = run.attempted, run.failed
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not run.errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in names}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sfrkit=sk.version, samples=sum(run.timed),
                  errors=run.errors[:50], environment=environment())
    if not args.trace:
        lat_ms = run.latency_ms(wl.calibration)[0]
        record["latency_quartiles_ms"] = statistics.quantiles(lat_ms, n=4) \
            if len(lat_ms) > 1 else None
        record["unadjusted_metrics"] = raw
        record["setup_samples_s"] = setup
        record["unadjusted_setup_samples_s"] = [p[1] for p in probes]
    else:
        record["spans"] = os.path.relpath(spans, ROOT)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for err in run.errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    for k, v in result["metrics"].items():
        print(f"{args.workload}/{k} = {v['value']:.6g} {v['unit']}")
    print(f"{args.workload}: attempted {attempted}, failed {failed}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
