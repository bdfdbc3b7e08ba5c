"""Command-line front end: fit, export, render, and campaign subcommands.

It parses arguments and sequences library calls.  The library (or the
OS) refuses out-of-domain values before any numerical work: a delay below
one sample, a range outside 0 < lo <= hi, a count below one, a path that
is not a directory, and a fit file that breaks the rules fit keeps.  This
module refuses only what they cannot see in time: a malformed delay list
or LO:HI range, a directory without CSV tables, and a render in which no
band's decay can be measured.  It prefixes the fit file to a refusal;
the library names the delay line, and refuses a line whose digital
cascade would not decay (digitize.network_to_sos).  A refused run writes
no file.

Exit codes: 0 on success, 1 for bad arguments or unreadable/malformed
inputs, 2 when the numerics give up (diverging fit, a fit or cascade that
would not decay, unstable render, campaign with too many failed curves).
All output files are written to a temporary name in the destination
directory and renamed into place, so a crash never leaves a half-written
artifact behind.
"""

import argparse
import errno
import json
import math
import os
import sys
import tempfile
from typing import BinaryIO, Callable

import numpy as np

from .digitize import digitization_report, network_to_sos, sos_to_csv, sos_to_dict
from .errors import InsufficientDecayError, InvalidParameterError, ParseError, PeqFdnError
from .evaluate import achieved_t60, op_count, run_campaign, synthetic_smooth_curves
from .fdn import (
    DEFAULT_DELAY_RANGE_S,
    FdnConfig,
    decay_measurements_to_csv,
    default_delays,
    default_gains,
    default_render_duration,
    householder_matrix,
    network_delays,
    octave_fits,
    render_ir,
    render_length,
    schroeder_t60,
    wav_rate,
    write_wav,
)
from .optimize import FitConfig, fit
from .peq import FittedPeq, scale_to_delay
from .targets import FrequencyGrid, load_t60_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# Octave centers measured by the render subcommand's decay report.
RENDER_OCTAVES_HZ = (250.0, 500.0, 1000.0, 2000.0, 4000.0)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for numerics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write_atomic(*outputs: tuple[str, str | Callable[[BinaryIO], object]]) -> None:
    """Atomically write each (path, data) pair: text as UTF-8, or what
    data(handle) writes.

    Every output goes to a same-directory temp file first; only once all of
    them are written are they renamed into place.  A path that is a
    directory is refused before any temp file is written, so the files a
    previous run left there survive.  If a write or a rename fails, the
    temp files and the outputs already renamed are removed, so a failed
    call leaves none of its paths written.
    """
    paths = [os.path.abspath(path) for path, _ in outputs]
    for path in paths:
        if os.path.isdir(path) and not os.path.islink(path):  # os.replace replaces a link
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps = []
    try:
        for path, (_, data) in zip(paths, outputs):
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.")
            temps.append((tmp, path))
            with os.fdopen(fd, "wb") as handle:
                if callable(data):
                    data(handle)
                else:
                    handle.write(data.encode("utf-8"))
            os.chmod(tmp, 0o644)  # mkstemp creates 0600
        for done, (tmp, path) in enumerate(temps):
            try:
                os.replace(tmp, path)
            except BaseException:
                for _, renamed in temps[:done]:
                    os.unlink(renamed)
                raise
    except BaseException:
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _sidecar_path(out: str, suffix: str) -> str:
    """out with its extension replaced by suffix."""
    return os.path.splitext(out)[0] + suffix


def _json_dumps(obj) -> str:
    # sort_keys plus a trailing newline keeps serialized output byte-stable
    # across runs for identical inputs.
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_text(path: str) -> str:
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports start with.
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def _load_curve(path: str):
    name = os.path.splitext(os.path.basename(path))[0]
    return load_t60_table(_read_text(path), name=name)


def _load_fitted(path: str) -> FittedPeq:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return FittedPeq.from_dict(data)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None


def _resolve_m_ref(args) -> int | float:
    """Reference delay in samples from --delay-ms / --delay-samples.

    A non-finite delay passes through unrounded, for the fit to refuse.
    """
    if args.delay_samples is not None:
        samples = args.delay_samples
    elif args.delay_ms is not None:
        samples = args.delay_ms * 1e-3 * args.fs
    else:
        samples = 0.1 * args.fs  # 100 ms reference
    return int(round(samples)) if math.isfinite(samples) else samples


def _parse_delay_list(text: str) -> list[int]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise InvalidParameterError("delay list is empty")
    try:
        return [int(part) for part in items]
    except ValueError:
        raise InvalidParameterError(
            f"delay list must be comma-separated integers, got {text!r}"
        ) from None


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidParameterError(f"range must look like LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidParameterError(f"range must be numeric, got {text!r}") from None


def _fit_and_delays(args):
    """The fit, and its delays in samples.

    Delays come from --delay-samples, else --lines over --delay-range.
    """
    fitted = _load_fitted(args.fit)
    if args.delay_samples is not None:
        return fitted, _parse_delay_list(args.delay_samples)
    lo, hi = _parse_range(args.delay_range)
    return fitted, default_delays(args.lines, lo, hi, fitted.fs)


def _cost_fields(n_bands: int) -> dict:
    cost = op_count(n_bands)
    return {"ops_per_sample": cost.ops_per_sample, "parameters": cost.parameters}


def _band_label(band_hz: float | None) -> str:
    return "broadband" if band_hz is None else f"{band_hz:.0f} Hz"


def _add_delay_args(parser) -> None:
    parser.add_argument("--lines", type=int, default=8, help="delay line count")
    parser.add_argument(
        "--delay-samples", default=None, help="comma-separated delays in samples"
    )
    parser.add_argument(
        "--delay-range",
        default=f"{DEFAULT_DELAY_RANGE_S[0]}:{DEFAULT_DELAY_RANGE_S[1]}",
        help="LO:HI delay range in seconds for generated delays",
    )


def _add_common_fit_args(parser) -> None:
    parser.add_argument("--fs", type=float, default=48000.0, help="sample rate in Hz")
    parser.add_argument("--bands", type=int, default=FitConfig.n_bands, help="PEQ bands (>= 3)")
    parser.add_argument(
        "--iterations",
        type=int,
        default=FitConfig.iterations,
        help="fit budget in Adam steps: Adam takes the first fifth (at most 2000), "
        "then every 26 left buy one Levenberg-Marquardt polish evaluation",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")


def cmd_fit(args) -> int:
    curve = _load_curve(args.t60)
    m_ref = _resolve_m_ref(args)
    cfg = FitConfig(n_bands=args.bands, iterations=args.iterations, learning_rate=args.lr)

    progress = None
    if not args.quiet:
        def progress(iteration, loss):
            sys.stderr.write(f"iter {iteration:6d}  mse {loss:.6e} dB^2\n")

    fitted, report = fit(curve, m_ref, args.fs, cfg, progress=progress)

    report_doc = report.to_dict()
    report_doc["curve"] = curve.name
    report_doc["m_ref"] = m_ref
    report_doc.update(_cost_fields(args.bands))
    _write_atomic(
        (args.out, _json_dumps(fitted.to_dict())),
        (_sidecar_path(args.out, ".report.json"), _json_dumps(report_doc)),
    )
    if not args.quiet:
        sys.stderr.write(
            f"fit {curve.name or args.t60}: mse {report.final_mse:.6e} dB^2 "
            f"-> {args.out}\n"
        )
    return EXIT_OK


def cmd_export(args) -> int:
    fitted, delays = _fit_and_delays(args)
    cascades = network_to_sos(fitted, delays)

    report_grid = FrequencyGrid.log_spaced(fitted.fs)
    manifest = {"fs": fitted.fs, "m_ref": fitted.m_ref, "lines": []}
    outputs = []
    for k, (m_k, cascade) in enumerate(zip(delays, cascades)):
        stem = f"line{k:02d}_m{m_k}"
        csv_path = os.path.join(args.out_dir, stem + ".csv")
        json_path = os.path.join(args.out_dir, stem + ".json")
        doc = sos_to_dict(cascade)
        doc["delay_samples"] = m_k
        params = scale_to_delay(fitted, m_k)
        doc["digitization"] = digitization_report(params, cascade, report_grid.freqs)
        outputs += [(csv_path, sos_to_csv(cascade)), (json_path, _json_dumps(doc))]
        manifest["lines"].append(
            {
                "delay_samples": m_k,
                "sections": len(cascade.sections),
                "csv": os.path.basename(csv_path),
                "json": os.path.basename(json_path),
            }
        )
    _write_atomic(*outputs, (os.path.join(args.out_dir, "manifest.json"), _json_dumps(manifest)))
    if not args.quiet:
        total = sum(entry["sections"] for entry in manifest["lines"])
        sys.stderr.write(
            f"exported {len(delays)} lines, {total} biquads -> {args.out_dir}\n"
        )
    return EXIT_OK


def cmd_render(args) -> int:
    fitted, delays = _fit_and_delays(args)
    delays = network_delays(delays)  # refused before the length and any digitizing
    fs = fitted.fs
    duration = args.duration
    if duration is None:
        # The default length needs the longest T60 the fit achieves at its
        # reference delay, so a fit at or above 0 dB from 20 Hz up has none.
        t60_profile = achieved_t60(fitted, FrequencyGrid.log_spaced(fs).freqs)
        duration = default_render_duration(float(np.max(t60_profile)))
    # The length and the WAV header's rate are refused before any digitizing.
    render_length(duration, fs, delays)
    wav_rate(fs)
    cascades = network_to_sos(fitted, delays)

    n_lines = len(delays)
    input_gains, output_gains = default_gains(n_lines)
    cfg = FdnConfig(
        delays=delays,
        fs=fs,
        feedback=householder_matrix(n_lines),
        cascades=tuple(cascades),
        input_gains=input_gains,
        output_gains=output_gains,
        duration_s=duration,
    )
    ir = render_ir(cfg)

    # Measure before writing, so a refused measurement leaves no WAV behind.
    measurements = []
    for band_hz in (None,) + RENDER_OCTAVES_HZ:
        if band_hz is not None and not octave_fits(band_hz, fs):
            continue
        try:
            measurements.append(schroeder_t60(ir, fs, band_hz=band_hz))
        except InsufficientDecayError as exc:
            sys.stderr.write(f"warning: {_band_label(band_hz)} decay unmeasurable: {exc}\n")
    if not measurements:
        raise InvalidParameterError(
            f"no band of the {duration:g} s impulse response has a measurable decay"
        )
    decay_csv = decay_measurements_to_csv(measurements)

    _write_atomic(
        (args.out, lambda handle: write_wav(handle, ir, fs)),
        (_sidecar_path(args.out, ".decay.csv"), decay_csv),
    )
    if not args.quiet:
        for meas in measurements:
            sys.stderr.write(f"T60 {_band_label(meas.band_hz)}: {meas.t60_s:.3f} s\n")
    return EXIT_OK


def cmd_campaign(args) -> int:
    # Built first, so it refuses a negative seed before the curves draw from it.
    cfg = FitConfig(n_bands=args.bands, iterations=args.iterations, seed=args.seed)
    if args.t60_dir is not None:
        paths = sorted(
            os.path.join(args.t60_dir, name)
            for name in os.listdir(args.t60_dir)
            if name.lower().endswith(".csv")
        )
        if not paths:
            raise InvalidParameterError(f"no .csv T60 tables in {args.t60_dir}")
        curves = [_load_curve(path) for path in paths]
    else:
        curves = synthetic_smooth_curves(args.synthetic, seed=args.seed)
    result = run_campaign(curves, cfg, fs=args.fs, workers=args.workers)

    summary = result.to_summary_dict()
    summary["bands"] = args.bands
    summary.update(_cost_fields(args.bands))
    _write_atomic(
        (os.path.join(args.out_dir, "summary.json"), _json_dumps(summary)),
        (os.path.join(args.out_dir, "histogram.csv"), result.distribution.to_csv()),
    )
    if not args.quiet:
        dist = result.distribution
        sys.stderr.write(
            f"campaign: {len(curves)} curves, median {dist.median_pct:+.2f}%, "
            f"p95 |err| {dist.p95_abs_pct:.2f}%, max |err| {dist.max_abs_pct:.2f}%\n"
        )
        for curve in result.flagged:
            sys.stderr.write(
                f"warning: {curve.name} exceeds the 25% envelope "
                f"(max |err| {curve.max_abs_error_pct:.1f}%)\n"
            )
        for _, name, reason in result.failures:
            sys.stderr.write(f"warning: {name} failed to fit: {reason}\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="peqfdn",
        description="Fit, digitize, and verify FDN attenuation filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a PEQ to a T60 table")
    p_fit.add_argument("--t60", required=True, help="CSV of freq_hz,t60_s rows")
    p_fit.add_argument("--out", required=True, help="fit result JSON path")
    delay = p_fit.add_mutually_exclusive_group()
    delay.add_argument("--delay-ms", type=float, default=None)
    delay.add_argument("--delay-samples", type=float, default=None)
    _add_common_fit_args(p_fit)
    p_fit.add_argument(
        "--lr", type=float, default=FitConfig.learning_rate, help="Adam learning rate"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_export = sub.add_parser("export", help="emit per-line biquad coefficients")
    p_export.add_argument("--fit", required=True, help="fit result JSON")
    p_export.add_argument("--out-dir", required=True)
    _add_delay_args(p_export)
    p_export.add_argument("--quiet", action="store_true")
    p_export.set_defaults(func=cmd_export)

    p_render = sub.add_parser("render", help="render an FDN impulse response")
    p_render.add_argument("--fit", required=True, help="fit result JSON")
    p_render.add_argument("--out", required=True, help="output WAV path")
    _add_delay_args(p_render)
    p_render.add_argument(
        "--duration", type=float, default=None, help="seconds of output"
    )
    p_render.add_argument("--quiet", action="store_true")
    p_render.set_defaults(func=cmd_render)

    p_camp = sub.add_parser("campaign", help="fit a batch of T60 tables")
    source = p_camp.add_mutually_exclusive_group(required=True)
    source.add_argument("--t60-dir", default=None, help="directory of T60 CSVs")
    source.add_argument(
        "--synthetic", type=int, default=None, help="generate N random smooth curves"
    )
    p_camp.add_argument("--out-dir", required=True)
    p_camp.add_argument("--workers", type=int, default=1)
    p_camp.add_argument(
        "--seed", type=int, default=0, help="seed of the synthetic curves and the delays"
    )
    _add_common_fit_args(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # _Parser.error raises SystemExit; fold into the return code so
        # in-process callers see an int rather than an exception.
        return 0 if exc.code is None else int(exc.code)
    except (ParseError, InvalidParameterError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PeqFdnError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
