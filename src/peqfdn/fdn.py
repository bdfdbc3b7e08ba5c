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
SciPy is imported inside the functions that call it, so a process that
only generates delays or exports coefficients never loads it.
"""

import io
import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .digitize import SosCascade
from .errors import InstabilityError, InsufficientDecayError, InvalidParameterError
from .targets import check_delay, check_finite, check_fs

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
# The most samples one render holds, its output and every delay line
# together: 2**26 float64 values are 512 MiB, 23 minutes of output at 48 kHz.
MAX_RENDER_SAMPLES = 2**26
# Integers default_delays sieves for primes at a time.
PRIME_BLOCK = 2**16


def _check_lines(n_lines: int) -> None:
    """Refuse a network of no delay line."""
    if n_lines < 1:
        raise InvalidParameterError(f"need at least one delay line, got {n_lines}")


def householder_matrix(n_lines: int) -> np.ndarray:
    """Householder reflection I - (2/L) * ones: orthogonal, uniform coupling."""
    _check_lines(n_lines)
    return np.eye(n_lines) - (2.0 / n_lines) * np.ones((n_lines, n_lines))


def _count_primes(lo: int, hi: int, enough: float) -> int:
    """Primes in [lo, hi], sieved a block at a time until there are enough."""
    count = 0
    start = max(lo, 2)
    while count < enough and start <= hi:
        stop = min(hi, start + PRIME_BLOCK - 1)
        root = math.isqrt(stop)
        small = np.ones(root + 1, dtype=bool)
        small[:2] = False
        for p in range(2, math.isqrt(root) + 1):
            if small[p]:
                small[p * p :: p] = False
        is_prime = np.ones(stop - start + 1, dtype=bool)
        for p in np.flatnonzero(small).tolist():
            is_prime[max(p * p, -(-start // p) * p) - start :: p] = False
        count += int(np.count_nonzero(is_prime))
        start = stop + 1
    return count


def _coprime_capacity(first: int, last: int, enough: float) -> int:
    """An upper bound on how many pairwise coprime integers [first, last] holds.

    Members of a pairwise coprime set share no prime factor, so each member
    above 1 has its own least prime factor: a prime <= sqrt(last), or the
    member itself when it is a prime in [first, last].  Counting stops once
    the bound reaches enough, so a count that fits costs little.
    """
    capacity = int(first == 1) + _count_primes(2, min(first - 1, math.isqrt(last)), enough)
    return capacity + _count_primes(first, last, enough - capacity)


def default_delays(n_lines: int, lo_s: float, hi_s: float, fs: float) -> list[int]:
    """Log-spaced delay lengths in samples, nudged to mutually coprime integers.

    Coprime lengths keep the modal pattern of the network dense instead of
    letting delay-line periods coincide.  Every delay lies inside the range;
    a range that does not hold n_lines distinct coprime integers is refused.
    """
    _check_lines(n_lines)
    if not (0 < lo_s <= hi_s):
        raise InvalidParameterError(f"need 0 < lo <= hi, got ({lo_s}, {hi_s})")
    if not (math.isfinite(lo_s * fs) and math.isfinite(hi_s * fs)):
        raise InvalidParameterError(
            f"delay range ({lo_s}, {hi_s}) s is not finite in samples at fs={fs}"
        )
    first, last = max(1, math.ceil(lo_s * fs)), math.floor(hi_s * fs)
    refusal = (
        f"delay range ({lo_s}, {hi_s}) s does not hold {n_lines} distinct "
        f"coprime delays at fs={fs}"
    )
    # Refused before anything is sized by n_lines.
    if n_lines > last - first + 1:
        raise InvalidParameterError(f"{refusal}: it spans {max(0, last - first + 1)} integers")
    capacity = _coprime_capacity(first, last, n_lines)
    if n_lines > capacity:
        raise InvalidParameterError(f"{refusal}: it holds at most {capacity}")
    raw = np.geomspace(lo_s * fs, hi_s * fs, n_lines)
    delays: list[int] = []
    # A candidate is coprime to every chosen delay when it is coprime to
    # their product; only a repeated delay of 1 would pass that test too.
    product = 1
    for value in raw:
        base = max(1, round(float(value)))
        for step in range(last - first + 2):
            for candidate in ({base} if step == 0 else {base + step, base - step}):
                if (
                    first <= candidate <= last
                    and gcd(candidate, product) == 1
                    and candidate not in delays
                ):
                    break
            else:
                continue
            break
        else:
            raise InvalidParameterError(refusal)
        product *= candidate
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
    _check_lines(n_lines)
    lines = np.arange(n_lines)
    input_gains = np.where(lines % 2 == 0, 1.0, -1.0)
    output_gains = np.where((lines // 2) % 2 == 0, 1.0, -1.0)
    return input_gains, output_gains


def default_render_duration(max_t60_s: float) -> float:
    """Render long enough to regress the decay: 2x the longest T60, <= 10 s."""
    return min(2.0 * max_t60_s, MAX_RENDER_S)


def render_length(duration_s: float, fs: float, delays) -> int:
    """Output samples of a duration_s render at fs through lines of these delays.

    Refuses, before anything is allocated, a render whose output and delay
    lines together would hold more than MAX_RENDER_SAMPLES samples, and a
    duration that is not finite or rounds to no sample.
    """
    samples = duration_s * fs
    held = samples + sum(delays)
    if held > MAX_RENDER_SAMPLES:
        raise InvalidParameterError(
            f"a {duration_s:g} s render at fs={fs:g} through delay lines of "
            f"{sum(delays)} samples in all holds {held:.4g} samples, more than "
            f"the {MAX_RENDER_SAMPLES} (2**26) a render may hold"
        )
    if not samples > 0.5:  # round() takes 0.5 to 0
        raise InvalidParameterError(f"a {duration_s:g} s render at fs={fs:g} holds no sample")
    return int(round(samples))


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
        for m in self.delays:
            check_delay(m, "delay length")
        delays = tuple(int(m) for m in self.delays)
        object.__setattr__(self, "delays", delays)
        n = len(delays)
        _check_lines(n)
        if len(set(delays)) != n:
            raise InvalidParameterError(f"delay lengths must be distinct, got {delays}")
        check_fs(self.fs)
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
        render_length(self.duration_s, self.fs, delays)

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
    # The compiled loop behind sosfilt: filters x (n_signals, n) in place and
    # updates zi (n_signals, n_sections, 2), all C-contiguous float64.
    from scipy.signal._sosfilt import _sosfilt

    n_total = render_length(cfg.duration_s, cfg.fs, cfg.delays)
    n_lines = cfg.n_lines
    rings = [np.zeros(m) for m in cfg.delays]
    # SosCascade has already checked C-contiguous float64, a0 = 1, finite,
    # stable sections: all that sosfilt would check on every call before
    # running the same kernel.  The kernel refuses a read-only buffer, so
    # each line filters with a copy.
    sos_arrays = [np.array(c.sections) for c in cfg.cascades]
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
    from scipy.signal import butter

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
    check_finite(ir, "ir")
    if band_hz is not None:
        from scipy.signal import sosfilt

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
    from scipy.io import wavfile

    wavfile.write(path, int(round(fs)), np.asarray(ir, dtype=np.float32))


def decay_measurements_to_csv(measurements) -> str:
    """CSV export "band_hz,t60_s,residual"; broadband rows use band 0."""
    out = io.StringIO()
    out.write("band_hz,t60_s,residual\n")
    for m in measurements:
        band = 0.0 if m.band_hz is None else m.band_hz
        out.write(f"{band:g},{m.t60_s:.6g},{m.residual_db:.6g}\n")
    return out.getvalue()
