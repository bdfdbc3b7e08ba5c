"""Target decay curves: T60 tables, the log frequency grid, and gain targets.

Measured reverberation times arrive as third-octave band tables; they are
interpolated linearly against log10(frequency) onto the optimization grid
and converted to the per-delay-line attenuation each filter must realize.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ParseError

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
        order = np.argsort(freq, kind="stable")
        freq = freq[order]
        t60 = t60[order]
        if np.any(~np.isfinite(freq)) or np.any(freq <= 0):
            raise InvalidParameterError("band frequencies must be finite and > 0")
        if np.any(np.diff(freq) <= 0):
            raise InvalidParameterError("band frequencies must be distinct")
        if np.any(~np.isfinite(t60)) or np.any(t60 <= 0):
            raise InvalidParameterError("T60 values must be finite and > 0")
        freq.setflags(write=False)
        t60.setflags(write=False)
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "t60_s", t60)

    @property
    def n_points(self) -> int:
        return int(self.freq_hz.size)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing frequency vector the fit and metrics evaluate on."""

    freqs: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64)
        if freqs.ndim != 1 or freqs.size < 2:
            raise InvalidParameterError("grid needs a 1-D vector of at least 2 frequencies")
        if np.any(~np.isfinite(freqs)) or freqs[0] <= 0:
            raise InvalidParameterError("grid frequencies must be finite and > 0")
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
    freqs: list[float] = []
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
        if freq in freqs:
            raise ParseError(f"line {lineno}: duplicate frequency {freq:g} Hz")
        freqs.append(freq)
        t60s.append(t60)
    if len(freqs) < 2:
        raise ParseError(f"line {rows[-1][0]}: need at least 2 data rows, got {len(freqs)}")
    return T60Curve(np.array(freqs), np.array(t60s), name=name)


def interpolate_to_grid(curve: T60Curve, grid: FrequencyGrid) -> np.ndarray:
    """Resample the band table onto the grid, linear in (log10 f, T60).

    Grid points outside the measured range take the nearest edge band's
    value (flat extrapolation).
    """
    return np.interp(np.log10(grid.freqs), np.log10(curve.freq_hz), curve.t60_s)


def target_magnitude(t60_s, m_k: float, fs: float) -> np.ndarray:
    """Per-delay-line attenuation target in dB: -60 * m_k / (T60 * fs)."""
    t60_s = np.asarray(t60_s, dtype=np.float64)
    if not (math.isfinite(m_k) and m_k >= 1):
        raise InvalidParameterError(f"m_k must be >= 1 sample, got {m_k}")
    if not (math.isfinite(fs) and fs > 0):
        raise InvalidParameterError(f"fs must be > 0, got {fs}")
    if np.any(~np.isfinite(t60_s)) or np.any(t60_s <= 0):
        raise InvalidParameterError("T60 values must be finite and > 0")
    return -60.0 * m_k / (t60_s * fs)
