"""Campaign evaluation: T60 error distributions and filter costs.

Measures how well fitted attenuation responses reproduce target decay
curves, filter-versus-target (no FDN render involved): each curve gets one
randomly drawn delay length, a fresh fit, and its relative T60 errors over
the evaluation grid; errors from all curves pool into one histogram
distribution.  Also provides the arithmetic cost model for a biquad
cascade and synthetic smooth target curves for self-contained campaigns.
"""

import math
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .errors import CampaignError, InvalidParameterError, PeqFdnError
from .fdn import MAX_RENDER_SAMPLES
from .optimize import FitConfig, fit_batch
from .peq import FittedPeq, check_band_count, peq_log_magnitude
from .targets import T60Curve, check_decays, check_finite, check_fs
from .targets import check_integer, check_positive, interpolate_to_grid

__all__ = [
    "ErrorDistribution",
    "CostReport",
    "CurveReport",
    "CampaignResult",
    "t60_relative_error",
    "achieved_t60",
    "op_count",
    "synthetic_smooth_curves",
    "run_campaign",
]

BIN_WIDTH_PCT = 1.0
DEFAULT_DELAY_DRAW_S = (0.01, 0.3)
MAX_FAILURE_FRACTION = 0.1
ENVELOPE_PCT = 25.0

# Cost of one transposed direct-form-II biquad per sample: 5 multiplies
# and 4 additions; each band carries 3 trainable values (fc, gain, Q).
OPS_PER_SECTION = 9
PARAMS_PER_BAND = 3

# Synthetic curves: third-octave-style points across the audio band, with
# T60 values kept inside a range typical of rooms.
SYNTH_POINTS = 31
SYNTH_FREQ_RANGE_HZ = (20.0, 20000.0)
SYNTH_T60_RANGE_S = (0.3, 5.0)


@dataclass(frozen=True)
class ErrorDistribution:
    """Relative T60 errors in percent, with their histogram and summary statistics.

    errors_pct is a read-only, non-empty, finite 1-D array; every other
    figure is computed from it.
    """

    errors_pct: np.ndarray

    def __post_init__(self):
        errors = np.array(self.errors_pct, dtype=np.float64)
        if errors.ndim != 1 or errors.size == 0:
            raise InvalidParameterError(f"need a non-empty 1-D array of errors, got {errors.shape}")
        check_finite(errors, "errors_pct")
        errors.setflags(write=False)
        object.__setattr__(self, "errors_pct", errors)

    @property
    def n_points(self) -> int:
        return self.errors_pct.size

    @property
    def bin_edges_pct(self) -> np.ndarray:
        """Edges of 1 % wide, integer-aligned bins covering the errors' range."""
        lo = math.floor(self.errors_pct.min() / BIN_WIDTH_PCT) * BIN_WIDTH_PCT
        hi = math.ceil(self.errors_pct.max() / BIN_WIDTH_PCT) * BIN_WIDTH_PCT
        if hi <= lo:
            hi = lo + BIN_WIDTH_PCT
        n_bins = int(round((hi - lo) / BIN_WIDTH_PCT))
        return lo + BIN_WIDTH_PCT * np.arange(n_bins + 1)

    @property
    def counts(self) -> np.ndarray:
        return np.histogram(self.errors_pct, bins=self.bin_edges_pct)[0]

    @property
    def median_pct(self) -> float:
        return float(np.percentile(self.errors_pct, 50.0))

    @property
    def p5_pct(self) -> float:
        return float(np.percentile(self.errors_pct, 5.0))

    @property
    def p95_pct(self) -> float:
        return float(np.percentile(self.errors_pct, 95.0))

    @property
    def p95_abs_pct(self) -> float:
        return float(np.percentile(np.abs(self.errors_pct), 95.0))

    @property
    def max_abs_pct(self) -> float:
        return float(np.abs(self.errors_pct).max())

    def to_csv(self) -> str:
        edges, counts = self.bin_edges_pct, self.counts
        lines = ["bin_lo_pct,bin_hi_pct,count"]
        for i, count in enumerate(counts):
            lines.append(f"{edges[i]:.17g},{edges[i + 1]:.17g},{int(count)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CostReport:
    """Per-sample arithmetic cost and trainable parameter count of an n_bands cascade."""

    n_bands: int

    @property
    def ops_per_sample(self) -> int:
        return OPS_PER_SECTION * self.n_bands

    @property
    def parameters(self) -> int:
        return PARAMS_PER_BAND * self.n_bands


@dataclass(frozen=True)
class CurveReport:
    """Outcome of one campaign curve: fit quality and error envelope."""

    index: int
    name: str
    delay_samples: int
    final_mse: float
    max_abs_error_pct: float

    @property
    def within_envelope(self) -> bool:
        return self.max_abs_error_pct <= ENVELOPE_PCT


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated campaign outcome; reports keep per-curve detail."""

    distribution: ErrorDistribution
    curve_reports: tuple[CurveReport, ...]
    failures: tuple[tuple[int, str, str], ...]

    @property
    def grid_size(self) -> int:
        """Grid points per fitted curve: each adds one grid of errors."""
        return self.distribution.n_points // len(self.curve_reports)

    @property
    def flagged(self) -> tuple[CurveReport, ...]:
        return tuple(r for r in self.curve_reports if not r.within_envelope)

    def to_summary_dict(self) -> dict:
        d = self.distribution
        return {
            "n_curves": len(self.curve_reports) + len(self.failures),
            "n_failed": len(self.failures),
            "n_points": d.n_points,
            "grid_size": self.grid_size,
            "median_pct": d.median_pct,
            "p5_pct": d.p5_pct,
            "p95_pct": d.p95_pct,
            "p95_abs_pct": d.p95_abs_pct,
            "max_abs_pct": d.max_abs_pct,
            "flagged_curves": [r.name for r in self.flagged],
            "failures": [{"index": i, "name": n, "reason": r} for i, n, r in self.failures],
            "curves": [
                {
                    "index": r.index,
                    "name": r.name,
                    "delay_samples": r.delay_samples,
                    "final_mse": r.final_mse,
                    "max_abs_error_pct": r.max_abs_error_pct,
                    "within_envelope": r.within_envelope,
                }
                for r in self.curve_reports
            ],
        }


def t60_relative_error(target_s, achieved_s) -> np.ndarray:
    """Relative decay-time error in percent: (target - achieved) / target * 100."""
    target = np.asarray(target_s, dtype=np.float64)
    achieved = np.asarray(achieved_s, dtype=np.float64)
    if target.shape != achieved.shape:
        raise InvalidParameterError(
            f"length mismatch: target {target.shape} vs achieved {achieved.shape}"
        )
    check_positive(target, "target_s")
    return (target - achieved) / target * 100.0


def achieved_t60(fitted: FittedPeq, freqs) -> np.ndarray:
    """T60 the fit's reference delay line achieves with its PEQ, on freqs.

    Inverts the gain law: T60 = -60 m_ref / (response dB * fs).  Raises
    NonDecayingResponseError where the response is not attenuating, since
    a frequency at or above 0 dB never decays.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    response_db = peq_log_magnitude(fitted.params, freqs)
    check_decays(response_db, freqs)
    return -60.0 * fitted.m_ref / (response_db * fitted.fs)


def op_count(n_bands: int) -> CostReport:
    """Arithmetic operations per sample per line and trainable parameters."""
    check_band_count(n_bands)
    return CostReport(int(n_bands))


def synthetic_smooth_curves(n_curves: int, seed: int = 0) -> list[T60Curve]:
    """Smooth random T60 curves on a third-octave-style log frequency grid.

    Shapes are low-order cosine series in log T60 over log frequency, so
    they undulate as gently as measured room curves do; amplitudes rescale
    when needed to keep every value inside SYNTH_T60_RANGE_S.  A draw may
    hold at most MAX_RENDER_SAMPLES values, the bound a render has; a larger
    count is refused before any curve is drawn, and so is a seed that is
    not an integer >= 0.
    """
    check_integer(n_curves, "n_curves")
    if n_curves < 1:
        raise InvalidParameterError(f"need at least one curve, got {n_curves}")
    if n_curves * SYNTH_POINTS > MAX_RENDER_SAMPLES:
        raise InvalidParameterError(
            f"{n_curves} synthetic curves of {SYNTH_POINTS} points hold more than "
            f"the {MAX_RENDER_SAMPLES} (2**26) values a draw may hold"
        )
    check_integer(seed, "seed")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    freqs = np.geomspace(SYNTH_FREQ_RANGE_HZ[0], SYNTH_FREQ_RANGE_HZ[1], SYNTH_POINTS)
    u = np.linspace(0.0, 1.0, SYNTH_POINTS)
    log_lo, log_hi = math.log(SYNTH_T60_RANGE_S[0]), math.log(SYNTH_T60_RANGE_S[1])
    margin = 0.04 * (log_hi - log_lo)
    curves = []
    for i in range(n_curves):
        center = rng.uniform(log_lo + 0.3 * (log_hi - log_lo), log_hi - 0.3 * (log_hi - log_lo))
        shape = np.zeros(SYNTH_POINTS)
        for k in (1, 2, 3, 4):
            amp = rng.normal(0.0, 0.8 / k**1.2)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            shape += amp * np.cos(k * math.pi * u + phase)
        allowed = min(center - (log_lo + margin), (log_hi - margin) - center)
        peak = np.abs(shape).max()
        if peak > allowed:
            shape *= allowed / peak
        curves.append(T60Curve(freq_hz=freqs, t60_s=np.exp(center + shape), name=f"synthetic-{i:04d}"))
    return curves


def _fit_share(share) -> list:
    """Fit a worker's share of campaign curves on cfg.grid, in fit_batch's
    batches: per curve, its report and errors, or its failure and None."""
    jobs, cfg, fs = share
    fits = fit_batch([(curve, m_samples) for _, curve, m_samples in jobs], fs, cfg)
    return [_score(job, outcome, cfg) for job, outcome in zip(jobs, fits)]


def _score(job, outcome, cfg: FitConfig):
    """One campaign curve's report and errors from its fit outcome, or its
    failure and None."""
    index, curve, m_samples = job
    try:
        if isinstance(outcome, PeqFdnError):
            raise outcome
        fitted, report = outcome
        achieved = achieved_t60(fitted, cfg.grid.freqs)
        errors = t60_relative_error(interpolate_to_grid(curve, cfg.grid), achieved)
    except PeqFdnError as exc:
        return (index, curve.name, f"{type(exc).__name__}: {exc}"), None
    max_abs_error = float(np.abs(errors).max())
    return CurveReport(index, curve.name, m_samples, report.final_mse, max_abs_error), errors


def run_campaign(
    curves: list[T60Curve],
    cfg: FitConfig,
    fs: float = 48000.0,
    workers: int = 1,
) -> CampaignResult:
    """Fit every curve at one random delay each and pool the T60 errors.

    Delays draw upfront from cfg.seed, uniformly over DEFAULT_DELAY_DRAW_S
    seconds, so results are deterministic and independent of worker
    scheduling.  Each worker, at most one per curve, fits a contiguous
    share of the curves through fit_batch, which gives every curve the bits
    of its lone fit, so the results are the same for any worker count and
    batch size.  Individual fit failures are recorded and skipped; more than
    10% of them aborts the campaign.
    """
    if not curves:
        raise InvalidParameterError("campaign needs at least one curve")
    check_fs(fs)
    check_integer(workers, "workers")
    if workers < 1:
        raise InvalidParameterError(f"need at least one worker, got {workers}")
    cfg = cfg.with_default_grid(fs)
    rng = np.random.default_rng(cfg.seed)
    delays_s = rng.uniform(*DEFAULT_DELAY_DRAW_S, len(curves))
    jobs = [(i, curve, max(1, int(round(delays_s[i] * fs)))) for i, curve in enumerate(curves)]
    # A worker beyond one per curve would only start and idle.  Each fits a
    # contiguous share of the curves.
    processes = min(workers, len(jobs))
    shares = [
        (jobs[len(jobs) * k // processes : len(jobs) * (k + 1) // processes], cfg, fs)
        for k in range(processes)
    ]
    if processes == 1:
        done = [_fit_share(share) for share in shares]
    else:
        with Pool(processes) as pool:
            done = pool.map(_fit_share, shares)
    reports: list[CurveReport] = []
    failures: list[tuple[int, str, str]] = []
    error_blocks: list[np.ndarray] = []
    for outcome, errors in (scored for share in done for scored in share):
        if errors is None:
            failures.append(outcome)
        else:
            reports.append(outcome)
            error_blocks.append(errors)
    if len(failures) > MAX_FAILURE_FRACTION * len(curves):
        detail = "; ".join(f"{name}: {reason}" for _, name, reason in failures[:5])
        raise CampaignError(
            f"{len(failures)} of {len(curves)} fits failed, campaign not meaningful ({detail})"
        )
    return CampaignResult(
        distribution=ErrorDistribution(np.concatenate(error_blocks)),
        curve_reports=tuple(reports),
        failures=tuple(failures),
    )
