"""The benchmark workloads, each driven through ``peqfdn.cli.main`` in-process.

Every CLI call is one operation.  A call that exits non-zero, or whose
outputs fail a check, counts as failed instead of stopping the run; the
exit code and the last stderr line are kept with it.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy.io import wavfile

FS = 48000.0
OCTAVES_HZ = (250.0, 500.0, 1000.0, 2000.0, 4000.0)
# 31 third-octave-style points from 20 Hz to 20 kHz for generated T60 tables.
TABLE_FREQS_HZ = np.geomspace(20.0, 20000.0, 31)
T60_FLOOR_S, T60_PEAK_S = 0.3, 2.5
BANDS = 12  # the CLI default band count of fit, export and render


@dataclass(frozen=True)
class Sizes:
    """Work sizes; FULL is the benchmark, TINY only exercises the harness."""

    fit_iterations: int | None  # None keeps the CLI default (10k)
    design_lines: int
    network_lines: int
    network_duration_s: float
    campaign_curves: int
    campaign_iterations: int
    campaign_bands: int


FULL = Sizes(None, 8, 64, 8.0, 16, 2000, 8)
TINY = Sizes(60, 2, 4, 2.0, 2, 60, 4)


@dataclass
class Op:
    """One CLI call and what its outputs showed."""

    command: str
    label: str
    exit_code: int | None  # None: main raised instead of returning a code
    seconds: float
    error: str = ""  # last stderr line of a failed call, or the failed check
    digest: str = ""
    values: dict = field(default_factory=dict)
    attempted: int = 1  # a campaign counts each of its curves
    failed: int = 0
    check: tuple = ()  # (function, *args) run on the outputs after timing


class CheckFailed(Exception):
    """An output of a call that exited 0 is missing or wrong."""


def run_cli(cli, tracer, command: str, label: str, argv: list[str]) -> Op:
    """Call cli.main in-process, capturing stderr; never raises."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        with tracer.span("cli." + command):
            try:
                code = cli.main([command] + argv)
            except Exception:  # a crash is a failed operation, not a dead benchmark
                code = None
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    op = Op(command, label, code, seconds)
    if code != 0:
        lines = [line for line in err.getvalue().splitlines() if line.strip()]
        errors = [line for line in lines if line.startswith("error:")]
        op.error = (errors or lines or ["(no stderr)"])[-1]
        op.failed = 1
    return op


def verify(op: Op) -> Op:
    """Run an op's output check if it succeeded; a failed check fails the op."""
    if op.exit_code != 0 or not op.check:
        return op
    check, *args = op.check
    try:
        check(op, *args)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        op.error = f"check: {exc}"
        op.failed = op.attempted
    return op


def digest_files(paths) -> str:
    sha = hashlib.sha256()
    for path in sorted(paths):
        sha.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def write_table(path: str, freqs, t60s) -> None:
    # load_t60_table requires exactly this header.
    lines = ["freq_hz,t60_s"] + [f"{f:.6g},{t:.6g}" for f, t in zip(freqs, t60s)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def synthetic_t60(rng: np.random.Generator) -> np.ndarray:
    """A smooth room-like T60 curve: low-order cosine series in log T60.

    The render's default length, and with it render time and memory, follows
    the longest T60, so every curve peaks at T60_PEAK_S and the seed varies
    only the shape.
    """
    u = np.linspace(0.0, 1.0, TABLE_FREQS_HZ.size)
    shape = np.zeros_like(u)
    for k in (1, 2, 3, 4):
        shape += rng.normal(0.0, 0.8 / k**1.2) * np.cos(k * math.pi * u + rng.uniform(0, 2 * math.pi))
    allowed = 0.96 * math.log(T60_PEAK_S / T60_FLOOR_S)
    span = shape.max() - shape.min()
    if span > allowed:
        shape *= allowed / span
    return T60_PEAK_S * np.exp(shape - shape.max())


def network_delays(rng: np.random.Generator, n_lines: int) -> list[int]:
    """n distinct delays in 15-120 ms, one per log-spaced slot.

    One draw per slot keeps the shortest delay, which sets the render's
    block size, within about 3 % of 15 ms whatever the seed.
    """
    edges = np.geomspace(0.015 * FS, 0.120 * FS, n_lines + 1)
    return [int(rng.integers(math.ceil(a), math.floor(b))) for a, b in zip(edges[:-1], edges[1:])]


# -- output checks ---------------------------------------------------------

def check_fit(op: Op, fit_path: str, fitted_cls, n_bands: int) -> None:
    with open(fit_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    fitted = fitted_cls.from_dict(doc)
    if fitted.params.n_bands != n_bands:
        raise CheckFailed(f"{fitted.params.n_bands} bands, expected {n_bands}")
    report_path = os.path.splitext(fit_path)[0] + ".report.json"
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if not math.isfinite(report["final_mse"]):
        raise CheckFailed("final MSE is not finite")
    op.digest = digest_files([fit_path])
    op.values = {
        "final_mse": report["final_mse"],
        "best_iter_frac": report["best_iteration"] / report["iterations"],
    }


def check_export(op: Op, out_dir: str, n_bands: int, n_lines: int) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    lines = manifest["lines"]
    if len(lines) != n_lines:
        raise CheckFailed(f"manifest lists {len(lines)} lines, expected {n_lines}")
    worst = 0.0
    files = [os.path.join(out_dir, "manifest.json")]
    for entry in lines:
        csv_path = os.path.join(out_dir, entry["csv"])
        json_path = os.path.join(out_dir, entry["json"])
        files += [csv_path, json_path]
        with open(csv_path, "r", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["b0", "b1", "b2", "a0", "a1", "a2"] or len(rows) - 1 != n_bands:
            raise CheckFailed(f"{entry['csv']}: {len(rows) - 1} sections, expected {n_bands}")
        with open(json_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        from_json = [[s[k] for k in ("b0", "b1", "b2", "a0", "a1", "a2")] for s in doc["sections"]]
        if [[float(v) for v in row] for row in rows[1:]] != from_json:
            raise CheckFailed(f"{entry['csv']} does not match the sections in {entry['json']}")
        dev = doc["digitization"]["max_abs_dev_below_db"]
        if not math.isfinite(dev):
            raise CheckFailed(f"{entry['json']}: deviation is not finite")
        worst = max(worst, dev)
    op.digest = digest_files(files)
    op.values = {"digit_dev_max_db": worst}


def check_render(op: Op, wav_path: str, table_path: str) -> None:
    rate, ir = wavfile.read(wav_path)
    ir = np.asarray(ir, dtype=np.float64)
    if rate != int(FS) or ir.ndim != 1 or ir.size == 0:
        raise CheckFailed(f"WAV is {rate} Hz with shape {ir.shape}")
    if not np.all(np.isfinite(ir)):
        raise CheckFailed("WAV holds non-finite samples")
    tenth = max(1, ir.size // 10)
    head, tail = float(np.sum(ir[:tenth] ** 2)), float(np.sum(ir[-tenth:] ** 2))
    if not (head > 0 and tail < 1e-3 * head):
        raise CheckFailed(f"WAV does not decay: last tenth holds {tail:.3g} of {head:.3g}")
    decay_path = os.path.splitext(wav_path)[0] + ".decay.csv"
    with open(decay_path, "r", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["band_hz", "t60_s", "residual"]:
        raise CheckFailed(f"decay CSV header is {rows[0]}")
    measured = {float(r[0]): float(r[1]) for r in rows[1:]}
    missing = [b for b in (0.0,) + OCTAVES_HZ if b not in measured]
    if missing:
        raise CheckFailed(f"decay CSV lacks rows for {missing} Hz")
    if not all(math.isfinite(t) and t > 0 for t in measured.values()):
        raise CheckFailed("decay CSV holds a non-positive T60")
    freqs, t60s = read_table(table_path)
    target = np.interp(np.log10(OCTAVES_HZ), np.log10(freqs), t60s)
    err = max(abs(measured[fc] - t) / t for fc, t in zip(OCTAVES_HZ, target))
    op.digest = digest_files([wav_path, decay_path])
    op.values = {"decay_t60_err_max_pct": 100.0 * err, "ir_s": ir.size / FS}


def check_campaign(op: Op, out_dir: str, n_curves: int) -> None:
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    n_failed = summary["n_failed"]
    if not isinstance(n_failed, int) or summary["n_curves"] != n_curves:
        raise CheckFailed(f"summary reports n_failed={n_failed!r} of {summary['n_curves']} curves")
    if len(summary["curves"]) != n_curves - n_failed:
        raise CheckFailed("summary curve list does not match n_failed")
    if not math.isfinite(summary["p95_abs_pct"]):
        raise CheckFailed("p95 error is not finite")
    op.failed = n_failed
    op.digest = digest_files([summary_path, os.path.join(out_dir, "histogram.csv")])
    op.values = {
        "fit_mse_db2": statistics.median(c["final_mse"] for c in summary["curves"]),
        "t60_err_p95_pct": summary["p95_abs_pct"],
        "failed_fits": n_failed,
    }


# -- workloads ---------------------------------------------------------------

class Workload:
    """setup() prepares inputs once per repeat; run_pass() is the timed work.

    CLI calls rotate over the CPUs the process may use: call k of set-up
    repeat or pass i runs on CPU (i + k) mod n.  On a shared host each
    core's speed drifts on its own for tens of seconds at a time; spreading
    every kind of call over all cores averages that drift instead of
    reporting the luck of one core.
    """

    name = ""
    setup_repeats = 5  # setup_s is the median over the repeats
    # Typical length of one timed pass at FULL size on a 2-vCPU x86-64 host;
    # each workload sets it.
    nominal_pass_s: float
    max_passes = 40

    def __init__(self, seed: int, sizes: Sizes, package, tracer):
        self.seed = seed
        self.sizes = sizes
        self.cli = package.cli
        self.fitted_cls = package.FittedPeq
        self.median_csv = resources.files(package).joinpath("data/median_t60.csv").read_text()
        self.tracer = tracer
        self.cpus = sorted(os.sched_getaffinity(0))
        self._next_cpu = 0

    def passes(self, seconds: float, trace: bool) -> int:
        """How many timed passes fill about `seconds`; fixed, never measured."""
        least = 2 if trace else 1  # a traced run needs an untraced and a traced pass
        return min(self.max_passes, max(least, round(seconds / self.nominal_pass_s)))

    def begin(self, index: int) -> None:
        """Start set-up repeat or pass number index (see the class notes)."""
        self._next_cpu = index

    def call(self, command: str, label: str, argv: list[str], *check) -> Op:
        os.sched_setaffinity(0, {self.cpus[self._next_cpu % len(self.cpus)]})
        self._next_cpu += 1
        op = run_cli(self.cli, self.tracer, command, label, argv)
        op.check = check
        return op

    def require(self, op: Op) -> None:
        if op.exit_code != 0:
            raise RuntimeError(f"set-up {op.command} failed: {op.error}")

    def warm_up(self, workdir: str, table: str) -> None:
        """A tiny fit/export/render so lazy set-up happens before timing."""
        fit_path = os.path.join(workdir, "warm.fit.json")
        self.require(self.call("fit", "warm-up", ["--t60", table, "--out", fit_path, "--iterations", "50"]))
        self.require(self.call("export", "warm-up", ["--fit", fit_path, "--out-dir",
                                                     os.path.join(workdir, "warm"), "--lines", "2"]))
        self.require(self.call("render", "warm-up", ["--fit", fit_path, "--out",
                                                     os.path.join(workdir, "warm.wav"),
                                                     "--lines", "2", "--duration", "0.2"]))

    def fit_args(self) -> list[str]:
        if self.sizes.fit_iterations is None:
            return []
        return ["--iterations", str(self.sizes.fit_iterations)]

    def setup(self, workdir: str) -> str:
        """Prepare inputs in workdir; returns a fingerprint of them."""
        raise NotImplementedError

    def run_pass(self, workdir: str) -> list[Op]:
        raise NotImplementedError


class Design(Workload):
    """One sound designer's session: fit, export and render for each curve.

    Curves: the packaged median table and two seeded synthetic ones.  The
    fit (about 90 % of the time) dominates; digitize and fdn do a little.
    Fits that end with a corner at or above Nyquist make export and render
    fail; those failures are counted, never skipped.
    """

    name = "design"
    nominal_pass_s = 12.5

    def setup(self, workdir):
        rng = np.random.default_rng([self.seed, 1])
        self.tables = {}
        median = os.path.join(workdir, "median.csv")
        with open(median, "w", encoding="utf-8") as handle:
            handle.write(self.median_csv)
        self.tables["median"] = median
        for i in range(2):
            path = os.path.join(workdir, f"synth{i}.csv")
            write_table(path, TABLE_FREQS_HZ, synthetic_t60(rng))
            self.tables[f"synth{i}"] = path
        self.warm_up(workdir, median)
        return digest_files(self.tables.values())

    def run_pass(self, workdir):
        ops = []
        lines = str(self.sizes.design_lines)
        for label, table in self.tables.items():
            fit_path = os.path.join(workdir, f"{label}.fit.json")
            out_dir = os.path.join(workdir, f"{label}-coeffs")
            wav_path = os.path.join(workdir, f"{label}.wav")
            ops.append(self.call("fit", label, ["--t60", table, "--out", fit_path] + self.fit_args(),
                                 check_fit, fit_path, self.fitted_cls, BANDS))
            ops.append(self.call("export", label, ["--fit", fit_path, "--out-dir", out_dir, "--lines", lines],
                                 check_export, out_dir, BANDS, self.sizes.design_lines))
            ops.append(self.call("render", label, ["--fit", fit_path, "--out", wav_path, "--lines", lines],
                                 check_render, wav_path, table))
        return ops


class Network(Workload):
    """A 64-line network: export and an 8 s render of a fit made in set-up.

    Digitize and fdn do nearly all the timed work and optimize none; the
    delays are explicit (--delay-samples), where design generates them.
    """

    name = "network"
    nominal_pass_s = 4.5
    setup_repeats = 3  # each repeat runs a full 10k-step fit

    def setup(self, workdir):
        self.table = os.path.join(workdir, "median.csv")
        with open(self.table, "w", encoding="utf-8") as handle:
            handle.write(self.median_csv)
        self.warm_up(workdir, self.table)
        self.fit_path = os.path.join(workdir, "median.fit.json")
        op = self.call("fit", "median", ["--t60", self.table, "--out", self.fit_path] + self.fit_args(),
                       check_fit, self.fit_path, self.fitted_cls, BANDS)
        self.require(verify(op))
        rng = np.random.default_rng([self.seed, 2])
        self.delays = ",".join(str(m) for m in network_delays(rng, self.sizes.network_lines))
        return op.digest + self.delays

    def run_pass(self, workdir):
        out_dir = os.path.join(workdir, "coeffs")
        wav_path = os.path.join(workdir, "network.wav")
        export = self.call("export", "network", ["--fit", self.fit_path, "--out-dir", out_dir,
                                                 "--delay-samples", self.delays],
                           check_export, out_dir, BANDS, self.sizes.network_lines)
        render = self.call("render", "network", ["--fit", self.fit_path, "--out", wav_path,
                                                 "--delay-samples", self.delays,
                                                 "--duration", str(self.sizes.network_duration_s)],
                           check_render, wav_path, self.table)
        return [export, render]


class Campaign(Workload):
    """Many short fits over different curves through evaluate.run_campaign.

    Digitize and fdn get no work; one worker keeps the load on one core.
    """

    name = "campaign"
    nominal_pass_s = 10.5

    def setup(self, workdir):
        self.require(self.call("campaign", "warm-up", [
            "--synthetic", "2", "--bands", "4", "--iterations", "50", "--workers", "1",
            "--seed", str(self.seed), "--out-dir", os.path.join(workdir, "warm")]))
        return ""

    def run_pass(self, workdir):
        s = self.sizes
        op = self.call("campaign", f"synthetic-{s.campaign_curves}", [
            "--synthetic", str(s.campaign_curves), "--bands", str(s.campaign_bands),
            "--iterations", str(s.campaign_iterations), "--workers", "1",
            "--seed", str(self.seed), "--out-dir", workdir], check_campaign, workdir, s.campaign_curves)
        op.attempted = s.campaign_curves
        if op.exit_code != 0:
            op.failed = op.attempted
        return [op]


WORKLOADS = {cls.name: cls for cls in (Design, Network, Campaign)}
