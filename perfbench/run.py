"""peqfdn benchmark: drive the CLI in-process and report end-to-end metrics.

    python3 perfbench/run.py --workload design --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload

Run from the repository root; the package is imported from ./src.  Each run
sets up several times (setup_s is the median), then repeats the workload's
timed pass a fixed number of times, --seconds over the pass's nominal length
(see Workload.passes), and reports medians.  The pass count never depends on
measured time, so the same seed and --seconds always attempt the same
operations and fail the same ones.  With
--trace 1 every other pass is traced and the per-layer metrics come from the
traced passes only; the untraced ones give the tracing overhead.  The last
line of stdout is the JSON result.
"""

import os

# Pin BLAS threads before numpy is imported anywhere.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name -> (unit, better).  BENCHMARK.json lists the same; selfcheck.py
# asserts that they agree.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_OPTIMIZE = "fit_cmd_s and wall_s on design, campaign_fits_per_s on campaign; only setup_s on network"
_EVALUATE = "campaign_fits_per_s and wall_s on campaign only"
_DIGITIZE = (
    "export_cmd_s, render_cmd_s and wall_s on network, a little on design, none on campaign; guard digit_dev_max_db")
_FDN = (
    "render_cmd_s, render_rt_x and wall_s on network, a little on design, none on campaign; guard decay_t60_err_max_pct")
_TARGETS = "setup_s, and the small per-curve cost in campaign_fits_per_s on campaign"

# name -> (unit, better, the end-to-end metric and workload it should move).
PER_LAYER = {
    "optimize.loss_and_gradient.calls": ("count", "lower", _OPTIMIZE),
    "optimize.loss_and_gradient.s": ("s", "lower", _OPTIMIZE),
    "optimize.loss_and_gradient.p50_us": ("us", "lower", _OPTIMIZE),
    "optimize.loss_and_gradient.p90_us": ("us", "lower", _OPTIMIZE),
    "optimize.adam_step.s": ("s", "lower", _OPTIMIZE),
    "optimize.fit.calls": ("count", "lower", _OPTIMIZE),
    "optimize.fit.s": ("s", "lower", _OPTIMIZE),
    "optimize.fit.self_s": ("s", "lower", _OPTIMIZE),
    "optimize.band_point_evals": ("count", "lower", _OPTIMIZE),
    "optimize.best_iter_frac": ("ratio", "higher", "fit_cmd_s and campaign_fits_per_s; guards fit_mse_db2 and t60_err_p95_pct"),
    "evaluate.run_campaign.s": ("s", "lower", _EVALUATE),
    "evaluate.fit_share": ("ratio", "higher", _EVALUATE),
    "evaluate.achieved_t60.s": ("s", "lower", _EVALUATE),
    "evaluate.failed_fits": ("count", "lower", _EVALUATE),
    "digitize.band_to_biquad.calls": ("count", "lower", _DIGITIZE),
    "digitize.band_to_biquad.s": ("s", "lower", _DIGITIZE),
    "digitize.band_to_biquad.p50_us": ("us", "lower", _DIGITIZE),
    "digitize.band_to_biquad.p90_us": ("us", "lower", _DIGITIZE),
    "digitize.digitization_report.s": ("s", "lower", _DIGITIZE),
    "digitize.designs_per_section": ("ratio", "lower", _DIGITIZE),
    "fdn.render_ir.s": ("s", "lower", _FDN),
    "fdn.render_ir.line_samples_per_s": ("1/s", "higher", _FDN),
    "fdn.render_ir.blocks": ("count", "lower", _FDN),
    "fdn.schroeder_t60.calls": ("count", "lower", _FDN),
    "fdn.schroeder_t60.s": ("s", "lower", _FDN),
    "fdn.write_wav.s": ("s", "lower", _FDN),
    "cli.fit.s": ("s", "lower", "fit_cmd_s and wall_s on design"),
    "cli.export.s": ("s", "lower", "export_cmd_s and wall_s on design and network"),
    "cli.render.s": ("s", "lower", "render_cmd_s and wall_s on design and network"),
    "cli.campaign.s": ("s", "lower", "campaign_fits_per_s and wall_s on campaign"),
    "cli.bytes_out": ("bytes", "lower", "the matching *_cmd_s, most on network (128 line files per export)"),
    "targets.load_t60_table.s": ("s", "lower", _TARGETS),
    "targets.interpolate_to_grid.calls": ("count", "lower", _TARGETS),
    "peq.scale_to_delay.calls": ("count", "lower", _TARGETS),
    "peq.peq_log_magnitude.s": ("s", "lower", _TARGETS),
}

# Printed by name and unit with every untraced run, where the workload has
# them; the ones that every workload can report are gated in BENCHMARK.json.
REPORTED = {
    "fit_cmd_s": "s/command",
    "export_cmd_s": "s",
    "render_cmd_s": "s",
    "render_rt_x": "s/s",
    "campaign_fits_per_s": "fits/s",
    "failed_frac": "ratio",
    "fit_mse_db2": "dB^2",
    "t60_err_p95_pct": "%",
    "decay_t60_err_max_pct": "%",
    "digit_dev_max_db": "dB",
}


def import_package():
    """Import peqfdn from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "peqfdn", "__init__.py")):
        raise SystemExit(f"error: no peqfdn package under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("peqfdn")
    importlib.import_module("peqfdn.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise SystemExit(f"error: peqfdn was imported from {package.__file__}, not {SRC}")
    return package


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def median_or_nan(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def reported_metrics(name: str, passes: list) -> dict:
    """End-to-end figures of the untraced passes, by the REPORTED names too."""
    ops = [op for ops, _ in passes for op in ops]
    ok = [op for op in ops if not op.failed]

    def times(command):
        return [op.seconds for op in ok if op.command == command]

    def values(key):
        return [op.values[key] for op in ok if key in op.values]

    out = {"wall_s": statistics.median(wall for _, wall in passes)}
    attempted = sum(op.attempted for op in ops)
    out["failed_frac"] = sum(op.failed for op in ops) / attempted
    if name == "campaign":
        out["campaign_fits_per_s"] = statistics.median(op.attempted / op.seconds for op in ops)
        out["fit_mse_db2"] = median_or_nan(values("fit_mse_db2"))
        out["t60_err_p95_pct"] = median_or_nan(values("t60_err_p95_pct"))
        return out
    if name == "design":
        out["fit_cmd_s"] = median_or_nan(times("fit"))
        out["fit_mse_db2"] = median_or_nan(values("final_mse"))
    out["export_cmd_s"] = median_or_nan(times("export"))
    out["render_cmd_s"] = median_or_nan(times("render"))
    renders = [op for op in ok if op.command == "render"]
    out["render_rt_x"] = median_or_nan(op.values["ir_s"] / op.seconds for op in renders)
    out["decay_t60_err_max_pct"] = max(values("decay_t60_err_max_pct"), default=math.nan)
    out["digit_dev_max_db"] = max(values("digit_dev_max_db"), default=math.nan)
    return out


def layer_metrics(tracer, n_traced: int, bytes_out: int, fit_bands: int, grid: int) -> dict:
    """Per-layer figures per traced pass, from the spans and observed calls."""
    stats = tracer.stats()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "p50_us": 0.0, "p90_us": 0.0}

    def get(span, key):
        return stats.get(span, zero)[key]

    out = {}
    for metric in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if key in zero:
            value = get(span, key)
            out[metric] = value if key in ("p50_us", "p90_us") else value / n_traced
    out["optimize.band_point_evals"] = get("optimize.loss_and_gradient", "calls") * fit_bands * grid / n_traced

    fits = [result[1] for _, result in tracer.observed.get("optimize.fit", [])]
    out["optimize.best_iter_frac"] = median_or_nan(r.best_iteration / r.iterations for r in fits) if fits else 0.0

    campaign_s = get("evaluate.run_campaign", "s")
    fit_in_campaign = tracer.child_seconds("evaluate.run_campaign", "optimize.fit")
    out["evaluate.fit_share"] = fit_in_campaign / campaign_s if campaign_s else 0.0
    campaigns = tracer.observed.get("evaluate.run_campaign", [])
    out["evaluate.failed_fits"] = sum(len(result.failures) for _, result in campaigns) / n_traced

    # Every traced pass designs the same sections (the outputs are checked
    # to be identical across passes), so the distinct ones are one pass's.
    designs = tracer.observed.get("digitize.band_to_biquad", [])
    distinct = {args for args, _ in designs}
    out["digitize.designs_per_section"] = len(designs) / n_traced / len(distinct) if distinct else 0.0

    blocks = line_samples = 0
    for args, _ in tracer.observed.get("fdn.render_ir", []):
        cfg = args[0]
        samples = int(round(cfg.duration_s * cfg.fs))
        blocks += cfg.n_lines * math.ceil(samples / min(cfg.delays))
        line_samples += cfg.n_lines * samples
    render_s = get("fdn.render_ir", "s")
    out["fdn.render_ir.blocks"] = blocks / n_traced
    out["fdn.render_ir.line_samples_per_s"] = line_samples / render_s if render_s else 0.0
    out["cli.bytes_out"] = bytes_out / n_traced
    return out


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, run timed passes, check outputs; returns the result record."""
    package = import_package()
    sizes = sizes or workloads.FULL
    tracer = Tracer()
    workload = workloads.WORKLOADS[name](seed, sizes, package, tracer)
    workdir = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    problems: list[str] = []
    try:
        setup_s, fingerprints = [], set()
        for i in range(workload.setup_repeats):
            path = os.path.join(workdir, f"setup{i}")
            os.makedirs(path)
            workload.begin(i)
            start = time.perf_counter()
            fingerprints.add(workload.setup(path))
            setup_s.append(time.perf_counter() - start)
        if len(fingerprints) != 1:
            problems.append("set-up repeats produced different inputs")

        untraced, traced, digests, bytes_out, missing, op_log = [], [], {}, 0, [], []
        for index in range(workload.passes(seconds, trace)):
            pass_dir = os.path.join(workdir, f"pass{index}")
            os.makedirs(pass_dir)
            is_traced = trace and index % 2 == 1
            if is_traced:
                missing = tracer.install("peqfdn", observe={
                    "optimize.fit", "evaluate.run_campaign", "digitize.band_to_biquad", "fdn.render_ir"})
            workload.begin(index)
            try:
                with tracer.span("pass"):
                    ops = workload.run_pass(pass_dir)
            finally:
                tracer.uninstall()
            # A pass is its CLI calls; output checks run after timing.
            wall = sum(op.seconds for op in ops)
            for op in ops:
                workloads.verify(op)
                key = (op.command, op.label)
                if op.digest and digests.setdefault(key, op.digest) != op.digest:
                    problems.append(f"{op.command} {op.label}: pass {index} output differs from pass 0")
                if op.exit_code is None:
                    problems.append(f"{op.command} {op.label}: crashed: {op.error}")
            op_log += [{"pass": index, "traced": is_traced, "command": op.command, "label": op.label,
                        "seconds": op.seconds, "failed": op.failed} for op in ops]
            if is_traced:
                bytes_out += dir_bytes(pass_dir)
            (traced if is_traced else untraced).append((ops, wall))
            shutil.rmtree(pass_dir)
        if trace:
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"))
    finally:
        os.sched_setaffinity(0, workload.cpus)
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = [op for ops, _ in untraced + traced for op in ops]
    reported = reported_metrics(name, untraced)
    reported["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reported["setup_s"] = statistics.median(setup_s)
    record = {
        "workload": name,
        "env": environment(seed),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_repeats_s": setup_s,
        "reported": reported,
        "failures": [
            {"command": op.command, "label": op.label, "exit_code": op.exit_code, "error": op.error}
            for op in all_ops if op.failed
        ],
        "problems": problems,
        "ops": op_log,
        "correct": not problems and not any(op.error.startswith("check:") for op in all_ops),
        "attempted": sum(op.attempted for op in all_ops),
        "failed": sum(op.failed for op in all_ops),
    }
    if trace:
        record["untraced_functions"] = missing
        record["trace_overhead_s"] = (statistics.median(w for _, w in traced)
                                      - statistics.median(w for _, w in untraced))
        bands = sizes.campaign_bands if name == "campaign" else workloads.BANDS
        record["layers"] = layer_metrics(tracer, len(traced), bytes_out, bands, 512)
        record["metrics"] = {m: {"value": record["layers"][m], "unit": PER_LAYER[m][0]} for m in PER_LAYER}
    else:
        record["metrics"] = {m: {"value": record["reported"][m], "unit": END_TO_END[m][0]} for m in END_TO_END}
    return record


def print_record(record: dict, trace: bool) -> None:
    name = record["workload"]
    print(f"# workload {name}: {record['passes']['untraced']} untraced and "
          f"{record['passes']['traced']} traced passes"
          + ("; end-to-end figures come from the untraced passes" if trace else ""))
    print("env " + json.dumps(record["env"], sort_keys=True))
    units = {**{m: u for m, (u, _) in END_TO_END.items()}, **REPORTED}
    for metric, value in record["reported"].items():
        if not (isinstance(value, float) and math.isnan(value)):
            print(f"{'end-to-end':>15}  {metric:<24} {value:>14.6g} {units[metric]}")
    if trace:
        print(f"{'tracing':>15}  {'overhead_s':<24} {record['trace_overhead_s']:>14.6g} s "
              "(median traced pass - median untraced pass)")
        for func in record["untraced_functions"]:
            print(f"{'warning':>15}  {func} no longer exists; its layer metrics read 0")
        for metric, (unit, better, moves) in PER_LAYER.items():
            print(f"{'layer':>15}  {metric:<36} {record['layers'][metric]:>14.6g} {unit:<6} "
                  f"{better} is better; moves {moves}")
    seen = {}
    for failure in record["failures"]:
        key = json.dumps(failure, sort_keys=True)
        seen[key] = seen.get(key, 0) + 1
    for key, count in seen.items():
        f = json.loads(key)
        print(f"{'failed':>15}  {f['command']} {f['label']} x{count}: exit {f['exit_code']}: {f['error']}")
    for problem in record["problems"]:
        print(f"{'INCORRECT':>15}  {problem}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["design", "network", "campaign", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed-phase length per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = ["design", "network", "campaign"] if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True, default=str)
        print_record(record, bool(args.trace))
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
