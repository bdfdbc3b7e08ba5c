"""Target decay curves: T60 tables, the log frequency grid, and gain targets.

Measured reverberation times arrive as third-octave band tables; they are
interpolated linearly against log10(frequency) onto the optimization grid
and converted to the per-delay-line attenuation each filter must realize.
The rules every later stage applies to its inputs live here too, once
each: check_finite, check_positive (finite and > 0), check_fs (the sample
rate), check_delay (a delay length) and check_decays (a loop response
below 0 dB).
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NonDecayingResponseError, ParseError

__all__ = [
    "T60Curve",
    "FrequencyGrid",
    "load_t60_table",
    "interpolate_to_grid",
    "target_magnitude",
]

# Nyquist backoff keeps the grid's top point strictly below fs/2 so digital
# responses are never evaluated exactly at the bilinear singularity.
NYQUIST_BACKOFF = 1.0 - 2.0**-20
DEFAULT_F_LO = 20.0
DEFAULT_GRID_SIZE = 512
# The deepest target a fit can follow, in dB per pass of the delay line.
# The fit starts each band at the target gain G, and past about -6470 dB a
# shelf's coefficient A^2 = 10^(G/20) underflows to zero, so the response
# and its squared error cannot stay finite.  In T60 terms the bound asks
# for T60 >= m_k / (100 fs), one hundredth of the delay.
MIN_TARGET_DB = -6000.0
# The highest sample rate a fit accepts, 10 MHz, fifty times the highest
# audio rate.  Far past it the fit kernel's (f/fc)^4 terms overflow: a fit
# at fs = 1e50 Hz converges and one at 1e100 Hz diverges at its first step.
MAX_FS_HZ = 1e7


@dataclass(frozen=True)
class T60Curve:
    """Frequency-dependent decay target as (frequency Hz, T60 s) pairs.

    Points are canonicalized to ascending frequency; duplicates are rejected.
    """

    freq_hz: np.ndarray
    t60_s: np.ndarray
    name: str = ""

    def __post_init__(self):
        freq = np.asarray(self.freq_hz, dtype=np.float64)
        t60 = np.asarray(self.t60_s, dtype=np.float64)
        if freq.ndim != 1 or freq.shape != t60.shape:
            raise InvalidParameterError("freq_hz and t60_s must be 1-D arrays of equal length")
        if freq.size < 2:
            raise InvalidParameterError(f"a T60 curve needs at least 2 points, got {freq.size}")
        check_positive(freq, "freq_hz")
        check_positive(t60, "t60_s")
        order = np.argsort(freq, kind="stable")
        freq = freq[order]
        t60 = t60[order]
        if np.any(np.diff(freq) <= 0):
            raise InvalidParameterError("band frequencies must be distinct")
        freq.setflags(write=False)
        t60.setflags(write=False)
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "t60_s", t60)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing frequency vector the fit and metrics evaluate on."""

    freqs: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64)
        if freqs.ndim != 1 or freqs.size < 2:
            raise InvalidParameterError("grid needs a 1-D vector of at least 2 frequencies")
        check_positive(freqs, "freqs")
        if np.any(np.diff(freqs) <= 0):
            raise InvalidParameterError("grid frequencies must strictly increase")
        freqs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)

    @property
    def size(self) -> int:
        return int(self.freqs.size)

    @classmethod
    def log_spaced(cls, fs: float, size: int = DEFAULT_GRID_SIZE) -> "FrequencyGrid":
        """Logarithmically spaced grid from 20 Hz up to just below Nyquist."""
        f_hi = 0.5 * fs * NYQUIST_BACKOFF
        if not (math.isfinite(fs) and f_hi > DEFAULT_F_LO):
            raise InvalidParameterError(f"fs={fs} leaves no room above {DEFAULT_F_LO} Hz")
        if size < 2:
            raise InvalidParameterError(f"grid size must be >= 2, got {size}")
        return cls(np.geomspace(DEFAULT_F_LO, f_hi, size))


def load_t60_table(text: str, name: str = "") -> T60Curve:
    """Parse a "freq_hz,t60_s" CSV into a validated, sorted T60 curve.

    Raises ParseError naming the offending line on any malformed content.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise ParseError("line 1: empty T60 table")
    header_no, header = rows[0]
    if [cell.strip().lower() for cell in header] != ["freq_hz", "t60_s"]:
        raise ParseError(f"line {header_no}: expected header 'freq_hz,t60_s', got {','.join(header)!r}")
    first_line: dict[float, int] = {}  # each frequency -> the line it is on
    t60s: list[float] = []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected 2 columns, got {len(row)}")
        try:
            freq = float(row[0])
            t60 = float(row[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric row {','.join(row)!r}") from None
        if not (math.isfinite(freq) and freq > 0):
            raise ParseError(f"line {lineno}: frequency must be finite and > 0, got {row[0]}")
        if not (math.isfinite(t60) and t60 > 0):
            raise ParseError(f"line {lineno}: T60 must be finite and > 0, got {row[1]}")
        if freq in first_line:
            raise ParseError(
                f"line {lineno}: duplicate frequency {freq:g} Hz (first on line {first_line[freq]})"
            )
        first_line[freq] = lineno
        t60s.append(t60)
    if len(t60s) < 2:
        raise ParseError(f"line {rows[-1][0]}: need at least 2 data rows, got {len(t60s)}")
    return T60Curve(np.array(list(first_line)), np.array(t60s), name=name)


def interpolate_to_grid(curve: T60Curve, grid: FrequencyGrid) -> np.ndarray:
    """Resample the band table onto the grid, linear in (log10 f, T60).

    Grid points outside the measured range take the nearest edge band's
    value (flat extrapolation).
    """
    return np.interp(np.log10(grid.freqs), np.log10(curve.freq_hz), curve.t60_s)


def _refuse_unless(ok: np.ndarray, values: np.ndarray, name: str, rule: str) -> None:
    """Refuse values unless ok holds everywhere, naming the first entry where it does not."""
    if ok.ndim == 0 and not ok:
        raise InvalidParameterError(f"{name} must be {rule}, got {float(values)}")
    if not ok.all():
        index = np.unravel_index(int(np.argmin(ok)), ok.shape)
        at = ", ".join(str(i) for i in index)
        raise InvalidParameterError(f"{name}[{at}] is {float(values[index])}, must be {rule}")


def check_finite(values, name: str) -> None:
    """Refuse a scalar or array, called name, unless every entry is finite."""
    values = np.asarray(values)
    _refuse_unless(np.isfinite(values), values, name, "finite")


def check_positive(values, name: str) -> None:
    """Refuse a scalar or array, called name, unless every entry is finite and > 0."""
    values = np.asarray(values)
    _refuse_unless((values > 0) & (values < math.inf), values, name, "finite and > 0")


def check_integer(value, name: str) -> None:
    """Refuse a count or seed, called name in the message, that is not an integer."""
    if not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def check_fs(fs: float) -> None:
    """Refuse a sample rate that is not in (0, MAX_FS_HZ]: the rule of every stage."""
    if not (0 < fs <= MAX_FS_HZ):
        raise InvalidParameterError(f"fs must be > 0 and <= {MAX_FS_HZ:g} Hz, got {fs}")


def check_delay(samples: float, name: str) -> None:
    """Refuse a delay length, called name in the message, that is not finite and >= 1 sample."""
    if not (1 <= samples < math.inf):
        raise InvalidParameterError(f"{name} must be finite and >= 1 sample, got {samples}")


def check_decays(response_db, freqs) -> None:
    """Refuse a loop response in dB on freqs that reaches 0 dB: that frequency never decays."""
    worst = int(np.argmax(response_db))  # the first NaN, if there is one
    if not response_db[worst] < 0.0:
        raise NonDecayingResponseError(
            f"response must stay below 0 dB; it is {response_db[worst]:+.6g} dB "
            f"at {freqs[worst]:.6g} Hz, so it would not decay"
        )


def target_magnitude(t60_s, m_k: float, fs: float) -> np.ndarray:
    """Per-delay-line attenuation target in dB: -60 * m_k / (T60 * fs).

    A T60 whose target lies below MIN_TARGET_DB (-6000 dB, a T60 under
    m_k / (100 fs)) is refused, as is an fs above MAX_FS_HZ.
    """
    t60_s = np.asarray(t60_s, dtype=np.float64)
    check_delay(m_k, "m_k")
    check_fs(fs)
    check_positive(t60_s, "t60_s")
    target = -60.0 * m_k / (t60_s * fs)
    if np.min(target) < MIN_TARGET_DB:
        raise InvalidParameterError(
            f"T60 {np.min(t60_s):g} s asks for {np.min(target):.4g} dB per pass of a "
            f"{m_k:g}-sample delay at fs={fs:g}; a fit follows targets down to "
            f"{MIN_TARGET_DB:g} dB, so T60 must be >= {m_k / (100.0 * fs):g} s"
        )
    return target
