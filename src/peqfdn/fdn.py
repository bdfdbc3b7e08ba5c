"""FDN rendering and decay measurement, closing the loop on fitted filters.

Renders the impulse response of a feedback delay network whose delay lines
feed per-line biquad cascades and then an orthogonal feedback matrix, and
measures the achieved frequency-dependent T60 from the rendered audio by
Schroeder backward integration.  The render is exact: blocks never exceed
the shortest delay line, so within a block every delay output depends only
on previously written samples.  Each block, every line's delayed samples are
filtered in place by scipy's compiled SOS kernel, the loop that
``scipy.signal.sosfilt`` wraps, so the result is identical to ``sosfilt``
carrying each line's state from block to block.  A render that blows up
raises ``InstabilityError`` naming the earliest non-finite sample.
"""

import io
import math
from dataclasses import dataclass
from math import gcd

import numpy as np
from scipy.io import wavfile
from scipy.signal import butter, sosfilt
# The compiled loop behind sosfilt: filters x (n_signals, n) in place and
# updates zi (n_signals, n_sections, 2), all C-contiguous float64.
from scipy.signal._sosfilt import _sosfilt

from .digitize import SosCascade
from .errors import InstabilityError, InsufficientDecayError, InvalidParameterError

__all__ = [
    "FdnConfig",
    "DecayMeasurement",
    "householder_matrix",
    "default_delays",
    "default_gains",
    "default_render_duration",
    "render_ir",
    "schroeder_t60",
    "write_wav",
    "decay_measurements_to_csv",
]

ORTHOGONALITY_TOL = 1e-9
FIT_RANGE_DB = (-5.0, -25.0)
MAX_RENDER_S = 10.0
DEFAULT_DELAY_RANGE_S = (0.015, 0.12)


def householder_matrix(n_lines: int) -> np.ndarray:
    """Householder reflection I - (2/L) * ones: orthogonal, uniform coupling."""
    if n_lines < 1:
        raise InvalidParameterError(f"need at least one delay line, got {n_lines}")
    return np.eye(n_lines) - (2.0 / n_lines) * np.ones((n_lines, n_lines))


def default_delays(n_lines: int, lo_s: float, hi_s: float, fs: float) -> list[int]:
    """Log-spaced delay lengths in samples, nudged to mutually coprime integers.

    Coprime lengths keep the modal pattern of the network dense instead of
    letting delay-line periods coincide.
    """
    if n_lines < 1:
        raise InvalidParameterError(f"need at least one delay line, got {n_lines}")
    if not (0 < lo_s <= hi_s):
        raise InvalidParameterError(f"need 0 < lo <= hi, got ({lo_s}, {hi_s})")
    if n_lines > 1 and lo_s == hi_s:
        raise InvalidParameterError("a degenerate range cannot yield distinct delays")
    raw = np.geomspace(lo_s * fs, hi_s * fs, n_lines)
    delays: list[int] = []
    for value in raw:
        base = max(1, round(float(value)))
        for step in range(0, 1000):
            for candidate in ({base} if step == 0 else {base + step, base - step}):
                if candidate >= 1 and all(gcd(candidate, other) == 1 for other in delays):
                    break
            else:
                continue
            break
        else:
            raise InvalidParameterError("could not find coprime delay lengths")
        delays.append(candidate)
    return delays


def default_gains(n_lines: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-magnitude input/output gain vectors with mixed signs.

    An all-ones input vector is an eigenvector of the Householder feedback,
    so the early recirculations stay coherent and the measured decay starts
    with a shallow, lumpy energy curve.  Alternating the input signs and
    flipping the output signs in pairs breaks that symmetry without touching
    the energy balance.
    """
    if n_lines < 1:
        raise InvalidParameterError(f"need at least one delay line, got {n_lines}")
    lines = np.arange(n_lines)
    input_gains = np.where(lines % 2 == 0, 1.0, -1.0)
    output_gains = np.where((lines // 2) % 2 == 0, 1.0, -1.0)
    return input_gains, output_gains


def default_render_duration(max_t60_s: float) -> float:
    """Render long enough to regress the decay: 2x the longest T60, <= 10 s."""
    return min(2.0 * max_t60_s, MAX_RENDER_S)


@dataclass(frozen=True)
class FdnConfig:
    """Everything needed to render one FDN impulse response."""

    delays: tuple[int, ...]
    fs: float
    feedback: np.ndarray
    cascades: tuple[SosCascade, ...]
    input_gains: np.ndarray
    output_gains: np.ndarray
    duration_s: float

    def __post_init__(self):
        delays = tuple(int(m) for m in self.delays)
        object.__setattr__(self, "delays", delays)
        n = len(delays)
        if n < 1:
            raise InvalidParameterError("need at least one delay line")
        if any(m < 1 for m in delays):
            raise InvalidParameterError(f"delay lengths must be >= 1 sample, got {delays}")
        if len(set(delays)) != n:
            raise InvalidParameterError(f"delay lengths must be distinct, got {delays}")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise InvalidParameterError(f"fs must be > 0, got {self.fs}")
        feedback = np.asarray(self.feedback, dtype=np.float64)
        if feedback.shape != (n, n):
            raise InvalidParameterError(f"feedback matrix must be {n}x{n}, got {feedback.shape}")
        gram_err = np.abs(feedback @ feedback.T - np.eye(n)).max()
        if gram_err >= ORTHOGONALITY_TOL:
            raise InvalidParameterError(
                f"feedback matrix is not orthogonal: max |A A^T - I| = {gram_err:.3e}"
            )
        object.__setattr__(self, "feedback", feedback)
        if len(self.cascades) != n:
            raise InvalidParameterError("need one filter cascade per delay line")
        if any(c.fs != self.fs for c in self.cascades):
            raise InvalidParameterError("cascade sample rates must match the FDN sample rate")
        for name in ("input_gains", "output_gains"):
            gains = np.asarray(getattr(self, name), dtype=np.float64)
            if gains.shape != (n,):
                raise InvalidParameterError(f"{name} must have length {n}, got {gains.shape}")
            object.__setattr__(self, name, gains)
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise InvalidParameterError(f"duration_s must be > 0, got {self.duration_s}")

    @property
    def n_lines(self) -> int:
        return len(self.delays)


def _ring_read(ring: np.ndarray, start: int, dest: np.ndarray) -> None:
    end = start + dest.size
    if end <= ring.size:
        dest[:] = ring[start:end]
    else:
        split = ring.size - start
        dest[:split] = ring[start:]
        dest[split:] = ring[: end - ring.size]


def _ring_write(ring: np.ndarray, start: int, values: np.ndarray) -> None:
    end = start + values.size
    if end <= ring.size:
        ring[start:end] = values
    else:
        split = ring.size - start
        ring[start:] = values[:split]
        ring[: end - ring.size] = values[split:]


def render_ir(cfg: FdnConfig) -> np.ndarray:
    """Impulse response of the FDN: delays -> filters -> feedback matrix.

    A unit impulse enters through the input gains; the output taps the
    filtered delay outputs through the output gains.  Each block, every
    line's delayed samples are filtered in place by scipy's compiled SOS
    kernel with the line's state carried over, which gives exactly what
    ``sosfilt`` with ``zi`` gives.  Raises InstabilityError naming the
    earliest sample at which any line or the output is non-finite, so a
    render cut just before that sample is all finite.
    """
    n_total = int(round(cfg.duration_s * cfg.fs))
    if n_total < 1:
        raise InvalidParameterError("duration is shorter than one sample")
    n_lines = cfg.n_lines
    rings = [np.zeros(m) for m in cfg.delays]
    # to_array is C-contiguous float64 with a0 = 1, and SosCascade has
    # already checked finite, stable sections: all that sosfilt would check
    # on every call before running the same kernel.
    sos_arrays = [c.to_array() for c in cfg.cascades]
    states = [np.zeros((1, arr.shape[0], 2)) for arr in sos_arrays]
    block = min(cfg.delays)
    out = np.zeros(n_total)
    filtered = rows = None

    pos = 0
    # Overflow shows up as non-finite samples, which raise below.
    with np.errstate(over="ignore", invalid="ignore"):
        while pos < n_total:
            count = min(block, n_total - pos)
            if filtered is None or filtered.shape[1] != count:
                filtered = np.empty((n_lines, count))
                rows = [filtered[k : k + 1] for k in range(n_lines)]
            for k in range(n_lines):
                _ring_read(rings[k], pos % cfg.delays[k], filtered[k])
                _sosfilt(sos_arrays[k], rows[k], states[k])
            tap = cfg.output_gains @ filtered
            bad = ~(np.isfinite(filtered).all(axis=0) & np.isfinite(tap))
            if bad.any():
                index = pos + int(np.argmax(bad))
                raise InstabilityError(f"non-finite sample at index {index}", sample_index=index)
            out[pos : pos + count] = tap
            recirculated = cfg.feedback @ filtered
            if pos == 0:
                recirculated[:, 0] += cfg.input_gains
            for k in range(n_lines):
                _ring_write(rings[k], pos % cfg.delays[k], recirculated[k])
            pos += count
    return out


@dataclass(frozen=True)
class DecayMeasurement:
    """Measured decay of one band: T60 from the -5..-25 dB EDC segment."""

    band_hz: float | None
    t60_s: float
    residual_db: float


def _octave_band_sos(center_hz: float, fs: float) -> np.ndarray:
    lo = center_hz / math.sqrt(2.0)
    hi = center_hz * math.sqrt(2.0)
    if not (0 < lo and hi < 0.5 * fs):
        raise InvalidParameterError(
            f"octave band at {center_hz} Hz does not fit below Nyquist at fs={fs}"
        )
    return butter(2, [lo, hi], btype="bandpass", fs=fs, output="sos")


def schroeder_t60(ir, fs: float, band_hz: float | None = None) -> DecayMeasurement:
    """T60 of an impulse response via backward-integrated energy decay.

    With band_hz set, the response is first passed through a 4th-order
    octave bandpass.  The decay rate is a least-squares line on the
    -5..-25 dB portion of the energy decay curve extrapolated to -60 dB.
    """
    ir = np.asarray(ir, dtype=np.float64)
    if ir.size < 2:
        raise InvalidParameterError("impulse response is too short to analyze")
    if band_hz is not None:
        ir = sosfilt(_octave_band_sos(band_hz, fs), ir)
    energy = np.cumsum((ir * ir)[::-1])[::-1]
    if energy[0] <= 0.0:
        raise InsufficientDecayError("signal is silent in the requested band")
    positive = np.flatnonzero(energy > 0.0)
    energy = energy[: positive[-1] + 1]
    edc_db = 10.0 * np.log10(energy / energy[0])

    lo_db, hi_db = FIT_RANGE_DB
    below_lo = np.flatnonzero(edc_db <= lo_db)
    below_hi = np.flatnonzero(edc_db <= hi_db)
    if below_hi.size == 0:
        raise InsufficientDecayError(
            f"energy decay spans only {edc_db[-1]:.1f} dB, need {hi_db} dB to regress"
        )
    start = int(below_lo[0])
    stop = int(below_hi[0])
    if stop - start < 2:
        raise InsufficientDecayError("too few samples between -5 and -25 dB to regress")
    t = np.arange(start, stop + 1) / fs
    segment = edc_db[start : stop + 1]
    slope, intercept = np.polyfit(t, segment, 1)
    if slope >= 0:
        raise InsufficientDecayError("energy decay curve is not decreasing over the fit range")
    residual = float(np.sqrt(np.mean((segment - (slope * t + intercept)) ** 2)))
    return DecayMeasurement(band_hz=band_hz, t60_s=-60.0 / slope, residual_db=residual)


def write_wav(path, ir: np.ndarray, fs: float) -> None:
    """Write a mono 32-bit float WAV."""
    wavfile.write(path, int(round(fs)), np.asarray(ir, dtype=np.float32))


def decay_measurements_to_csv(measurements) -> str:
    """CSV export "band_hz,t60_s,residual"; broadband rows use band 0."""
    out = io.StringIO()
    out.write("band_hz,t60_s,residual\n")
    for m in measurements:
        band = 0.0 if m.band_hz is None else m.band_hz
        out.write(f"{band:g},{m.t60_s:.6g},{m.residual_db:.6g}\n")
    return out.getvalue()
