"""Campaign evaluation: T60 error distributions and filter costs.

Measures how well fitted attenuation responses reproduce target decay
curves, filter-versus-target (no FDN render involved): each curve gets one
randomly drawn delay length, a fresh fit, and its relative T60 errors over
the evaluation grid; errors from all curves pool into one histogram
distribution.  Also provides the arithmetic cost model for a biquad
cascade and synthetic smooth target curves for self-contained campaigns.
"""

import math
from dataclasses import dataclass, replace
from multiprocessing import Pool

import numpy as np

from .errors import CampaignError, InvalidParameterError, NonDecayingResponseError, PeqFdnError
from .optimize import FitConfig, fit
from .peq import PeqParams, peq_log_magnitude
from .targets import FrequencyGrid, T60Curve, interpolate_to_grid

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
    """Histogram of relative T60 errors in percent, with summary statistics."""

    bin_edges_pct: np.ndarray
    counts: np.ndarray
    median_pct: float
    p5_pct: float
    p95_pct: float
    p95_abs_pct: float
    max_abs_pct: float

    def __post_init__(self):
        edges = np.asarray(self.bin_edges_pct, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise InvalidParameterError("need n+1 bin edges for n counts")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges_pct", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def n_points(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_errors(cls, errors_pct):
        """Bin error points into 1 % wide, integer-aligned bins covering their range."""
        errors = np.asarray(errors_pct, dtype=np.float64).ravel()
        if errors.size == 0:
            raise InvalidParameterError("cannot build a distribution from zero points")
        if np.any(~np.isfinite(errors)):
            raise InvalidParameterError("error points must be finite")
        lo = math.floor(errors.min() / BIN_WIDTH_PCT) * BIN_WIDTH_PCT
        hi = math.ceil(errors.max() / BIN_WIDTH_PCT) * BIN_WIDTH_PCT
        if hi <= lo:
            hi = lo + BIN_WIDTH_PCT
        n_bins = int(round((hi - lo) / BIN_WIDTH_PCT))
        edges = lo + BIN_WIDTH_PCT * np.arange(n_bins + 1)
        counts, _ = np.histogram(errors, bins=edges)
        p5, median, p95 = np.percentile(errors, (5.0, 50.0, 95.0))
        return cls(
            bin_edges_pct=edges,
            counts=counts,
            median_pct=float(median),
            p5_pct=float(p5),
            p95_pct=float(p95),
            p95_abs_pct=float(np.percentile(np.abs(errors), 95.0)),
            max_abs_pct=float(np.abs(errors).max()),
        )

    def to_csv(self) -> str:
        lines = ["bin_lo_pct,bin_hi_pct,count"]
        for i, count in enumerate(self.counts):
            lines.append(
                f"{self.bin_edges_pct[i]:.17g},{self.bin_edges_pct[i + 1]:.17g},{int(count)}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CostReport:
    """Per-sample arithmetic cost and trainable parameter count of a cascade."""

    ops_per_sample: int
    parameters: int


@dataclass(frozen=True)
class CurveReport:
    """Outcome of one campaign curve: fit quality and error envelope."""

    index: int
    name: str
    delay_samples: int
    final_mse: float
    max_abs_error_pct: float
    within_envelope: bool


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated campaign outcome; reports keep per-curve detail."""

    distribution: ErrorDistribution
    curve_reports: tuple[CurveReport, ...]
    failures: tuple[tuple[int, str, str], ...]
    grid_size: int

    @property
    def n_points(self) -> int:
        return self.distribution.n_points

    @property
    def flagged(self) -> tuple[CurveReport, ...]:
        return tuple(r for r in self.curve_reports if not r.within_envelope)

    def to_summary_dict(self) -> dict:
        d = self.distribution
        return {
            "n_curves": len(self.curve_reports) + len(self.failures),
            "n_failed": len(self.failures),
            "n_points": self.n_points,
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
    if np.any(~np.isfinite(target)) or np.any(target <= 0):
        raise InvalidParameterError("target T60 values must be finite and > 0")
    return (target - achieved) / target * 100.0


def achieved_t60(params: PeqParams, m_k: float, fs: float, freqs) -> np.ndarray:
    """T60 a delay line of m_k samples achieves with this PEQ, on freqs.

    Inverts the gain law: T60 = -60 m_k / (response dB * fs).  Raises when
    the response is not attenuating everywhere, since a non-negative dB
    value means that frequency never decays.
    """
    if not (math.isfinite(m_k) and m_k >= 1):
        raise InvalidParameterError(f"m_k must be >= 1 sample, got {m_k}")
    if not (math.isfinite(fs) and fs > 0):
        raise InvalidParameterError(f"fs must be > 0, got {fs}")
    freqs = np.asarray(freqs, dtype=np.float64)
    response_db = peq_log_magnitude(params, freqs)
    if np.any(response_db >= 0):
        worst = int(np.argmax(response_db))
        raise NonDecayingResponseError(
            f"response must be < 0 dB everywhere; it is {response_db[worst]:+.6g} dB "
            f"at {freqs[worst]:.6g} Hz"
        )
    return -60.0 * m_k / (response_db * fs)


def op_count(n_bands: int) -> CostReport:
    """Arithmetic operations per sample per line and trainable parameters."""
    if not isinstance(n_bands, (int, np.integer)) or n_bands < 1:
        raise InvalidParameterError(f"need at least one band, got {n_bands}")
    return CostReport(
        ops_per_sample=OPS_PER_SECTION * int(n_bands),
        parameters=PARAMS_PER_BAND * int(n_bands),
    )


def synthetic_smooth_curves(n_curves: int, seed: int = 0) -> list[T60Curve]:
    """Smooth random T60 curves on a third-octave-style log frequency grid.

    Shapes are low-order cosine series in log T60 over log frequency, so
    they undulate as gently as measured room curves do; amplitudes rescale
    when needed to keep every value inside SYNTH_T60_RANGE_S.
    """
    if n_curves < 1:
        raise InvalidParameterError(f"need at least one curve, got {n_curves}")
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


def _fit_one_curve(job) -> tuple[int, str, int, float, np.ndarray | None, str | None]:
    """Fit one campaign curve on cfg.grid; returns errors or the failure reason."""
    index, curve, m_samples, cfg, fs = job
    try:
        fitted, report = fit(curve, m_ref=m_samples, fs=fs, cfg=cfg)
        achieved = achieved_t60(fitted.params, m_samples, fs, cfg.grid.freqs)
        target = interpolate_to_grid(curve, cfg.grid)
        errors = t60_relative_error(target, achieved)
        return index, curve.name, m_samples, report.final_mse, errors, None
    except PeqFdnError as exc:
        return index, curve.name, m_samples, math.nan, None, f"{type(exc).__name__}: {exc}"


def run_campaign(
    curves: list[T60Curve],
    cfg: FitConfig,
    delay_range_s: tuple[float, float] = DEFAULT_DELAY_DRAW_S,
    fs: float = 48000.0,
    workers: int = 1,
) -> CampaignResult:
    """Fit every curve at one random delay each and pool the T60 errors.

    Delays draw upfront from cfg.seed, so results are deterministic and
    independent of worker scheduling.  Individual fit failures are recorded
    and skipped; more than 10% of them aborts the campaign.
    """
    if not curves:
        raise InvalidParameterError("campaign needs at least one curve")
    lo, hi = delay_range_s
    if not (0 < lo <= hi):
        raise InvalidParameterError(f"need 0 < lo <= hi for delays, got {delay_range_s}")
    if workers < 1:
        raise InvalidParameterError(f"need at least one worker, got {workers}")
    if cfg.grid is None:
        cfg = replace(cfg, grid=FrequencyGrid.log_spaced(fs))
    rng = np.random.default_rng(cfg.seed)
    delays_s = rng.uniform(lo, hi, len(curves))
    jobs = []
    for i, curve in enumerate(curves):
        m_samples = max(1, int(round(delays_s[i] * fs)))
        jobs.append((i, curve, m_samples, cfg, fs))
    if workers == 1:
        outcomes = [_fit_one_curve(job) for job in jobs]
    else:
        with Pool(workers) as pool:
            outcomes = pool.map(_fit_one_curve, jobs)
    outcomes.sort(key=lambda o: o[0])
    reports: list[CurveReport] = []
    failures: list[tuple[int, str, str]] = []
    error_blocks: list[np.ndarray] = []
    for index, name, m_samples, mse, errors, reason in outcomes:
        if errors is None:
            failures.append((index, name, reason))
            continue
        max_abs = float(np.abs(errors).max())
        reports.append(
            CurveReport(
                index=index,
                name=name,
                delay_samples=m_samples,
                final_mse=mse,
                max_abs_error_pct=max_abs,
                within_envelope=max_abs <= ENVELOPE_PCT,
            )
        )
        error_blocks.append(errors)
    if len(failures) > MAX_FAILURE_FRACTION * len(curves):
        detail = "; ".join(f"{name}: {reason}" for _, name, reason in failures[:5])
        raise CampaignError(
            f"{len(failures)} of {len(curves)} fits failed, campaign not meaningful ({detail})"
        )
    distribution = ErrorDistribution.from_errors(np.concatenate(error_blocks))
    return CampaignResult(
        distribution=distribution,
        curve_reports=tuple(reports),
        failures=tuple(failures),
        grid_size=cfg.grid.size,
    )
