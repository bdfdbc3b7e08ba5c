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
Only that kernel is loaded, on first use, not the ``scipy.signal``
package around it: the octave bandpass and the WAV writer are done here
in the same arithmetic and bytes as ``butter`` and ``wavfile.write``.
"""

import importlib.machinery
import importlib.util
import io
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .digitize import SosCascade
from .errors import (
    InstabilityError,
    InsufficientDecayError,
    InvalidParameterError,
    SampleRangeError,
)
from .targets import check_delay, check_finite, check_fs, check_integer

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
# The fmt chunk's format tag for 32-bit float samples.
WAVE_FORMAT_IEEE_FLOAT = 3


def _check_lines(n_lines: int) -> None:
    """Refuse a line count that is not an integer, or a network of no line."""
    check_integer(n_lines, "n_lines")
    if n_lines < 1:
        raise InvalidParameterError(f"need at least one delay line, got {n_lines}")


def householder_matrix(n_lines: int) -> np.ndarray:
    """Householder reflection I - (2/L) * ones: orthogonal, uniform coupling."""
    _check_lines(n_lines)
    return np.eye(n_lines) - (2.0 / n_lines) * np.ones((n_lines, n_lines))


def default_delays(n_lines: int, lo_s: float, hi_s: float, fs: float) -> list[int]:
    """Log-spaced delay lengths in samples, nudged to mutually coprime integers.

    Coprime lengths keep the modal pattern of the network dense instead of
    letting delay-line periods coincide.  Each line takes the free integer
    nearest its log-spaced target rounded to a whole sample, free meaning
    that no chosen delay uses it or shares a prime factor with it; a tie
    goes to the shorter delay.  A refusal means this search cannot place
    every line; a range ending past MAX_RENDER_SAMPLES is refused too.
    """
    _check_lines(n_lines)
    if not (0 < lo_s <= hi_s):
        raise InvalidParameterError(f"need 0 < lo <= hi, got ({lo_s}, {hi_s})")
    if not (math.isfinite(lo_s * fs) and math.isfinite(hi_s * fs)):
        raise InvalidParameterError(
            f"delay range ({lo_s}, {hi_s}) s is not finite in samples at fs={fs}"
        )
    first, last = max(1, math.ceil(lo_s * fs)), math.floor(hi_s * fs)
    if last > MAX_RENDER_SAMPLES:
        raise InvalidParameterError(
            f"delay range ({lo_s}, {hi_s}) s ends at {hi_s * fs:.10g} samples at fs={fs}, "
            f"past the {MAX_RENDER_SAMPLES} (2**26) samples a render may hold"
        )
    refusal = (
        f"delay range ({lo_s}, {hi_s}) s does not hold {n_lines} distinct "
        f"coprime delays at fs={fs}"
    )
    # Refused before anything is sized by n_lines.
    if n_lines > last - first + 1:
        raise InvalidParameterError(f"{refusal}: it spans {max(0, last - first + 1)} integers")
    # The integers in range that are unused and coprime to every chosen delay.
    free = np.ones(last - first + 1, dtype=bool)
    delays: list[int] = []
    for value in np.geomspace(lo_s * fs, hi_s * fs, n_lines):
        base = max(1, round(float(value)))
        at, reach = base - first, 1
        while not free[max(0, at - reach) : at + reach + 1].any():
            if reach > last - first:
                raise InvalidParameterError(refusal)
            reach *= 4
        lo = max(0, at - reach)
        # Offsets of the free integers in the window, in ascending order, so
        # argmin takes the shorter of two at the same distance.
        offsets = np.flatnonzero(free[lo : at + reach + 1]) + lo
        chosen = first + int(offsets[np.argmin(np.abs(offsets - at))])
        delays.append(chosen)
        free[chosen - first] = False
        rest = chosen
        while rest > 1:
            # The least prime factor of what is left, by trial division.
            p = next((q for q in range(2, math.isqrt(rest) + 1) if rest % q == 0), rest)
            free[-first % p :: p] = False
            while rest % p == 0:
                rest //= p
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


def network_delays(delays) -> tuple[int, ...]:
    """The delays of one network as ints, refusing a list no network renders.

    Each must be a whole number of samples, at least one; there must be at
    least one line, and no two may be equal.
    """
    for k, m in enumerate(delays):
        check_delay(m, "delay length")
        if m != int(m):
            raise InvalidParameterError(f"delay {k} must be a whole number of samples, got {m}")
    delays = tuple(int(m) for m in delays)
    _check_lines(len(delays))
    if len(set(delays)) != len(delays):
        raise InvalidParameterError(f"delay lengths must be distinct, got {delays}")
    return delays


@dataclass(frozen=True)
class FdnConfig:
    """Everything needed to render one FDN impulse response.

    Its delays follow network_delays: whole, distinct numbers of samples.
    """

    delays: tuple[int, ...]
    fs: float
    feedback: np.ndarray
    cascades: tuple[SosCascade, ...]
    input_gains: np.ndarray
    output_gains: np.ndarray
    duration_s: float

    def __post_init__(self):
        delays = network_delays(self.delays)
        object.__setattr__(self, "delays", delays)
        n = len(delays)
        check_fs(self.fs)
        feedback = np.asarray(self.feedback, dtype=np.float64)
        if feedback.shape != (n, n):
            raise InvalidParameterError(f"feedback matrix must be {n}x{n}, got {feedback.shape}")
        # A NaN would pass the tolerance test below, which it fails to compare.
        check_finite(feedback, "feedback")
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
            check_finite(gains, name)
            object.__setattr__(self, name, gains)
        render_length(self.duration_s, self.fs, delays)

    @property
    def n_lines(self) -> int:
        return len(self.delays)


def _sos_kernel():
    """The compiled loop behind ``sosfilt``, without the scipy.signal package.

    ``_sosfilt(sos, x, zi)`` filters x (n_signals, n) in place and updates
    zi (n_signals, n_sections, 2), all C-contiguous float64.

    The extension is found in SciPy's directory and registered under its
    own name, as an import would, but without running the package around
    it.  A later import of scipy.signal then reuses the module instead of
    initialising it a second time, which a Cython module may refuse.
    """
    module_name = "scipy.signal._sosfilt"
    module = sys.modules.get(module_name)
    if module is None:
        import scipy

        dirs = [os.path.join(d, "signal") for d in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(module_name, dirs)
        if spec is None:
            raise ModuleNotFoundError(f"no {module_name} in {dirs}", name=module_name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[module_name]
            raise
    return module._sosfilt


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
    _sosfilt = _sos_kernel()
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


def octave_fits(center_hz: float, fs: float) -> bool:
    """Whether the octave band around center_hz lies above 0 Hz and below Nyquist."""
    return 0 < center_hz / math.sqrt(2.0) and center_hz * math.sqrt(2.0) < 0.5 * fs


def _octave_band_sos(center_hz: float, fs: float) -> np.ndarray:
    """4th-order Butterworth octave bandpass around center_hz, as two sections.

    These are the steps of ``scipy.signal.butter(2, [lo, hi], "bandpass",
    fs=fs, output="sos")`` for this one case, each in the same
    floating-point operations, so the sections equal SciPy's to the bit:
    the analog prototype (``buttap``), the bandpass transform
    (``lp2bp_zpk``), the bilinear transform at fs = 2 (``bilinear_zpk``)
    and the pairing of poles and zeros into sections (``zpk2sos``), here
    one fixed pairing.
    """
    if not octave_fits(center_hz, fs):
        raise InvalidParameterError(
            f"octave band at {center_hz} Hz does not fit below Nyquist at fs={fs}"
        )
    lo = center_hz / math.sqrt(2.0)
    hi = center_hz * math.sqrt(2.0)
    # Band edges pre-warped for the bilinear transform at fs = 2.
    warped = 4.0 * np.tan(np.pi * (np.array([lo, hi]) / (fs / 2)) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # Second-order analog lowpass prototype: two poles, no zeros, gain 1.
    poles = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    # Lowpass to bandpass: each pole splits in two; two zeros land at the
    # origin and two stay at infinity.
    p_lp = poles * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p_bp = np.concatenate((p_lp + root, p_lp - root))
    # Bilinear transform: the origin maps to z = 1, infinity to z = -1, and
    # the two zeros at the origin put 4 * 4 in the gain.
    p_z = (4.0 + p_bp) / (4.0 - p_bp)
    gain = bw**2 * np.real(16.0 / np.prod(4.0 - p_bp))
    # Pairing, as zpk2sos does it: one pole per conjugate pair, averaged
    # with its mirror.  The pole nearest the unit circle goes in section 1
    # with the double zero on the side of its real part, z = 1 if it is
    # positive, else z = -1; section 0 takes the other pole and zero pair.
    upper = np.sort_complex(p_z[p_z.imag > 0])
    lower = np.sort_complex(p_z[p_z.imag < 0].conj())
    poles = (upper + lower) / 2
    near = np.argmin(np.abs(1 - np.abs(poles)))
    side = 1.0 if poles[near].real > 0 else -1.0
    pairs = ((poles[1 - near], -side), (poles[near], side))
    sos = np.array([np.concatenate((np.poly([z, z]), np.poly([p, p.conj()]))) for p, z in pairs])
    sos[0, :3] *= gain
    return sos


def schroeder_t60(ir, fs: float, band_hz: float | None = None) -> DecayMeasurement:
    """T60 of an impulse response via backward-integrated energy decay.

    With band_hz set, the response is first passed through a 4th-order
    octave bandpass.  The decay rate is a least-squares line on the
    -5..-25 dB portion of the energy decay curve extrapolated to -60 dB.
    A response that is not 1-D is refused before any filtering.  The
    curve is built in one buffer of the response's length; the
    caller's ir is never written.
    """
    check_fs(fs)
    ir = np.asarray(ir, dtype=np.float64)
    if ir.ndim != 1:
        raise InvalidParameterError(f"a decay is measured on a 1-D signal, got shape {ir.shape}")
    if ir.size < 2:
        raise InvalidParameterError("impulse response is too short to analyze")
    check_finite(ir, "ir")
    if band_hz is not None:
        sos = _octave_band_sos(band_hz, fs)
        # What sosfilt(sos, ir) does: filter a copy from zero state.
        filtered = np.array(ir)[np.newaxis]
        _sos_kernel()(sos, filtered, np.zeros((1, sos.shape[0], 2)))
        energy = np.square(filtered[0], out=filtered[0])
    else:
        energy = np.square(ir)
    reversed_view = energy[::-1]
    np.cumsum(reversed_view, out=reversed_view)
    if energy[0] <= 0.0:
        raise InsufficientDecayError("signal is silent in the requested band")
    # Up to its last positive sample; then in dB relative to the total.  A
    # ratio that underflows to 0 is -inf dB, far past the fit range.
    energy = energy[: energy.size - int(np.argmax(reversed_view > 0.0))]
    edc_db = np.divide(energy, energy[0], out=energy)
    with np.errstate(divide="ignore"):
        np.log10(edc_db, out=edc_db)
    edc_db *= 10.0

    lo_db, hi_db = FIT_RANGE_DB
    stop = int(np.argmax(edc_db <= hi_db))
    if not edc_db[stop] <= hi_db:
        raise InsufficientDecayError(
            f"energy decay spans only {edc_db[-1]:.1f} dB, need {hi_db} dB to regress"
        )
    start = int(np.argmax(edc_db <= lo_db))
    if stop - start < 2:
        raise InsufficientDecayError("too few samples between -5 and -25 dB to regress")
    t = np.arange(start, stop + 1) / fs
    segment = edc_db[start : stop + 1]
    slope, intercept = np.polyfit(t, segment, 1)
    if slope >= 0:
        raise InsufficientDecayError("energy decay curve is not decreasing over the fit range")
    residual = float(np.sqrt(np.mean((segment - (slope * t + intercept)) ** 2)))
    return DecayMeasurement(band_hz=band_hz, t60_s=-60.0 / slope, residual_db=residual)


def wav_rate(fs: float) -> int:
    """fs as the whole number of Hz a WAV header holds, refusing any other rate."""
    check_fs(fs)
    if fs != int(fs):
        raise InvalidParameterError(f"a WAV holds a whole number of Hz, got fs {fs}")
    return int(fs)


def write_wav(handle, ir: np.ndarray, fs: float) -> None:
    """Write a mono 32-bit float WAV to a binary handle.

    The bytes are those ``scipy.io.wavfile.write`` writes: a 58-byte header
    (RIFF, a ``fmt `` chunk for IEEE float with cbSize, a ``fact`` chunk
    holding the sample count, ``data``), then the little-endian samples.  A
    render holds at most MAX_RENDER_SAMPLES samples, so no size field
    needs RF64.  The header holds the rate as a whole number of Hz, so
    any other rate is refused (see wav_rate), and a sample that is not
    finite as a 32-bit float (past +-3.4e38, or NaN or inf already) is
    refused by index with SampleRangeError.
    """
    rate = wav_rate(fs)
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.ascontiguousarray(ir, dtype="<f4")
    if data.ndim != 1:
        raise InvalidParameterError(f"a mono WAV needs a 1-D signal, got shape {data.shape}")
    lost = ~np.isfinite(data)
    if lost.any():
        index = int(np.argmax(lost))
        raise SampleRangeError(
            f"sample {index} is {np.asarray(ir, dtype=np.float64)[index]:g}, which a WAV of "
            f"32-bit floats cannot hold (finite and within +-{np.finfo(np.float32).max:g})",
            sample_index=index,
        )
    header = struct.pack(
        "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
        b"RIFF", 50 + data.nbytes, b"WAVE",
        b"fmt ", 18, WAVE_FORMAT_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, data.size,
        b"data", data.nbytes,
    )
    handle.write(header)
    handle.write(data.data)


def decay_measurements_to_csv(measurements) -> str:
    """CSV export "band_hz,t60_s,residual"; broadband rows use band 0."""
    out = io.StringIO()
    out.write("band_hz,t60_s,residual\n")
    for m in measurements:
        band = 0.0 if m.band_hz is None else m.band_hz
        out.write(f"{band:g},{m.t60_s:.6g},{m.residual_db:.6g}\n")
    return out.getvalue()
