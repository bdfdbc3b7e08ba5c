"""Analog prototype bands to digital biquads, and digital response checks.

A plain prewarped bilinear transform pins the response at fc but compresses
the skirts toward Nyquist: bells lose their upper tails, shelf transitions
squeeze into the last kHz, and a cascade built that way decays noticeably
slower at high frequencies than its analog reference.  band_to_biquad
instead fits one family of sections, prewarped bilinear images of a
squared magnitude pinned to the analog band at DC, Nyquist and fc (0.7
Nyquist for a corner at or above Nyquist, which is digitized too), and
keeps the member that tracks the analog curve best (after Orfanidis,
"Digital parametric equalizer design with prescribed Nyquist-frequency
gain", JAES 1997).  Residual deviation is measured and reported rather
than hidden (see digitization_report).
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .peq import PeqParams, peq_log_magnitude
from .prototypes import BandParams, analog_coeffs, band_magnitude
from .targets import check_finite, check_fs

__all__ = [
    "SosCascade",
    "band_to_biquad",
    "digital_magnitude",
    "peq_to_sos",
    "sos_to_csv",
    "sos_to_dict",
    "digitization_report",
]

_SOS_COLUMNS = ("b0", "b1", "b2", "a0", "a1", "a2")


@dataclass(frozen=True)
class SosCascade:
    """Second-order sections in order, at one sample rate.

    sections is a read-only, C-contiguous float64 (n, 6) array with one row
    [b0 b1 b2 a0 a1 a2] per section, the layout scipy's sosfilt takes.
    Every row has a0 = 1 and its poles inside |z| = 1.
    """

    sections: np.ndarray
    fs: float

    def __post_init__(self):
        sections = np.array(self.sections, dtype=np.float64, order="C")
        if sections.ndim != 2 or sections.shape[0] < 1 or sections.shape[1] != 6:
            raise InvalidParameterError(
                f"a cascade needs an (n >= 1, 6) array of sections, got shape {sections.shape}"
            )
        check_finite(sections, "sections")
        check_fs(self.fs)
        if np.any(sections[:, 3] != 1.0):
            raise InvalidParameterError(
                f"every section needs a0 = 1, got {sections[:, 3].tolist()}"
            )
        # Triangle stability conditions for z^2 + a1 z + a2.
        a1, a2 = sections[:, 4], sections[:, 5]
        unstable = ~((np.abs(a2) < 1.0) & (np.abs(a1) < 1.0 + a2))
        if unstable.any():
            k = int(np.argmax(unstable))
            raise InvalidParameterError(
                f"unstable biquad: section {k} (a1={a1[k]}, a2={a2[k]}) has poles on or "
                f"outside the unit circle"
            )
        sections.setflags(write=False)
        object.__setattr__(self, "sections", sections)


def _biquad_mag_db(cascade: SosCascade, freqs: np.ndarray) -> np.ndarray:
    """Cascade magnitude in dB, the sum of its sections' in order; no range check."""
    zinv = np.exp(-2j * np.pi * freqs / cascade.fs)

    def section_db(b0, b1, b2, a0, a1, a2):
        h = (b0 + b1 * zinv + b2 * zinv * zinv) / (a0 + a1 * zinv + a2 * zinv * zinv)
        return 20.0 * np.log10(np.abs(h))

    return sum(section_db(*row) for row in cascade.sections.tolist())


# Design grid: points per band, log spaced from min(10 Hz, fc / 8) up to
# 0.995 Nyquist.  Every trial is scored on all of them: a coarser screen
# misses near-cancelling pole-zero pairs between its points.
_GRID_POINTS = 128
_GRID_UNIT = np.linspace(0.0, 1.0, _GRID_POINTS)
# Trial values of p, as factors of the search centre: the first stage
# spans 100x either side of the analog value, the second one first-stage
# step either side of the best first-stage trial.  An odd count makes the
# centre itself a trial.
_TRIALS = 49
_STAGE_FACTORS = tuple(
    100.0 ** np.linspace(-reach, reach, _TRIALS) for reach in (1.0, 2.0 / (_TRIALS - 1))
)
# Least c, keeping the poles off the unit circle.
_C_FLOOR = 1e-9
# The section of a flat band: b0 = a0 = 1.
_IDENTITY = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])


def _score_trials(p, w, m2, g0, gp, g1, c_start):
    """Fit c to each trial p and score it: (c, e, worst error).

    For a fixed p the pin at f_pin (W = 1) makes e = e0 + gp^2 c, so the
    equation error N - m^2 D on the grid is linear in c.  Two passes of
    closed-form least squares, each weighted by 1 / (m^2 D)^2 with the D of
    the pass before, make it a relative error.  The worst error is
    max(|H|^2 / m^2, m^2 / |H|^2) over the grid, the worst |dB error| before
    the log.
    """
    pw = p[:, None] * w
    e0 = gp * gp * (1.0 - p) ** 2 - (g0 - g1 * p) ** 2
    c_min = np.maximum(-e0 / (gp * gp), _C_FLOOR)
    num0 = (g0 - g1 * pw) ** 2 + e0[:, None] * w
    den0 = (1.0 - pw) ** 2
    a = num0 - m2 * den0
    b = (gp * gp - m2) * w
    inv_m4 = 1.0 / (m2 * m2)
    c = np.full(p.size, c_start)
    for _ in range(2):
        den = den0 + c[:, None] * w
        v = inv_m4 / (den * den)
        c = np.maximum(-((v * a) @ b) / (v @ (b * b)), c_min)
    cw = c[:, None] * w
    ratio = (num0 + gp * gp * cw) / ((den0 + cw) * m2)
    # A trial whose magnitude reaches 0 on the grid is infinitely off.
    low = ratio.min(axis=1)
    inverse = np.divide(1.0, low, out=np.full_like(low, np.inf), where=low != 0.0)
    worst = np.maximum(ratio.max(axis=1), inverse)
    return c, np.maximum(e0 + gp * gp * c, 0.0), worst


def band_to_biquad(band: BandParams, fs: float) -> SosCascade:
    """Digitize one prototype band to a one-section cascade tracking the analog magnitude.

    The section is the bilinear image, with f_pin prewarped, of
    |H|^2 = ((g0 - g1 p W)^2 + e W) / ((1 - p W)^2 + c W),
    W = tan^2(pi f / fs) / tan^2(pi f_pin / fs), where g0 and g1 are the
    analog magnitudes at DC and Nyquist and f_pin is fc, or 0.7 Nyquist
    for a corner at or above Nyquist.  DC, f_pin and Nyquist match the
    analog band exactly; c > 0 and e >= 0 make the section stable and
    minimum phase.  p is searched on a log grid around the analog value,
    keeping the trial with the smallest worst dB error on the design grid.
    A band whose A = 10^(G/40) is 1.0 (0 dB, or |G| below about 2e-15 dB),
    or whose analog magnitude is exactly 1.0 at every design point (a bell
    one ulp of A below 1, down to about -2.8e-15 dB), collapses to the
    literal identity filter.
    """
    check_fs(fs)
    _, (d2, d1, d0) = analog_coeffs(band)
    if band.amplitude == 1.0:
        return SosCascade(_IDENTITY, fs)
    # Measured at fs = 48 kHz on 50 x 25 log-spaced corners from 1 Hz to
    # 48 kHz and Q from 0.02 to 50: every bell down to -236 dB and every
    # shelf within +-306 dB gives a finite, stable section.  The first
    # failures are bells of -238 dB and shelves of +-308 dB with a 1 Hz
    # corner; at a 1 kHz corner and Q 0.7 they lie past 300 dB.  Extreme
    # corners fail too, and a Q below about 1e-154 overflows c_start.
    try:
        nyquist = 0.5 * fs
        fc = band.fc_hz
        f_pin = fc if fc < nyquist else 0.7 * nyquist
        t_pin = math.tan(math.pi * f_pin / fs)
        hi = 0.995 * nyquist
        lo = min(10.0, fc / 8.0, hi / 4.0)
        grid = lo * (hi / lo) ** _GRID_UNIT
        mags = band_magnitude(np.concatenate(([0.0, f_pin, nyquist], grid)), band)
        if (mags == 1.0).all():  # nothing to fit: every trial would score 0 / 0
            return SosCascade(_IDENTITY, fs)
        g0, gp, g1 = mags[:3]
        m2 = mags[3:] ** 2
        w = (np.tan(np.pi * grid / fs) / t_pin) ** 2
        # The analog denominator (1 - (d2/d0) X)^2 + (d1/d0)^2 X, X = (f/fc)^2,
        # read with X ~ W (f_pin/fc)^2, gives the search centre and the start c.
        scale = (f_pin / fc) ** 2
        c_start = (d1 / d0) ** 2 * scale
        p_best = d2 / d0 * scale
        for factors in _STAGE_FACTORS:
            p = p_best * factors
            c, e, worst = _score_trials(p, w, m2, g0, gp, g1, c_start)
            best = int(np.argmin(worst))
            p_best, c_best, e_best = p[best], c[best], e[best]
        k = 1.0 / t_pin
        kk = k * k

        def warp(c2, c1, c0):
            return (c2 * kk + c1 * k + c0, 2.0 * (c0 - c2 * kk), c2 * kk - c1 * k + c0)

        bz = warp(g1 * p_best, math.sqrt(e_best), g0)
        az = warp(p_best, math.sqrt(c_best), 1.0)
        return SosCascade(np.array([bz + az]) / az[0], fs)
    except (InvalidParameterError, OverflowError):
        raise InvalidParameterError(
            f"the digitizer finds no finite, stable section for the {band}; at 48 kHz "
            f"it designs bells down to about -230 dB and shelves within about +-300 dB"
        ) from None


def digital_magnitude(sos: SosCascade, freqs) -> np.ndarray:
    """Cascade magnitude in dB at frequencies from DC to Nyquist, both included."""
    freqs = np.asarray(freqs, dtype=np.float64)
    check_finite(freqs, "freqs")
    if np.any(freqs < 0) or np.any(freqs > 0.5 * sos.fs):
        raise InvalidParameterError(
            f"frequencies must lie inside [0, {0.5 * sos.fs}] Hz"
        )
    return _biquad_mag_db(sos, freqs)


def peq_to_sos(params: PeqParams, fs: float) -> SosCascade:
    """Digitize every band in order; one biquad per band."""
    rows = [band_to_biquad(band, fs).sections for band in params.bands]
    return SosCascade(np.concatenate(rows), fs)


def sos_to_csv(sos: SosCascade) -> str:
    """CSV export, one row per section, 17 significant digits."""
    out = io.StringIO()
    out.write(",".join(_SOS_COLUMNS) + "\n")
    for row in sos.sections.tolist():
        out.write(",".join(f"{value:.17g}" for value in row) + "\n")
    return out.getvalue()


def sos_to_dict(sos: SosCascade) -> dict:
    """JSON-ready export embedding fs."""
    return {
        "fs": sos.fs,
        "sections": [dict(zip(_SOS_COLUMNS, row)) for row in sos.sections.tolist()],
    }


def digitization_report(params: PeqParams, sos: SosCascade, freqs) -> dict:
    """Quantify analog-vs-digital deviation of a cascade digitized from params.

    Splits the maximum absolute dB deviation at 0.7x Nyquist: below it the
    sections track the analog bands to a fraction of a dB, above it the
    loss near Nyquist is reported rather than hidden.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    deviation = np.abs(digital_magnitude(sos, freqs) - peq_log_magnitude(params, freqs))
    split = 0.7 * 0.5 * sos.fs
    below = deviation[freqs <= split]
    above = deviation[freqs > split]
    return {
        "split_hz": split,
        "max_abs_dev_below_db": float(below.max()) if below.size else 0.0,
        "max_abs_dev_above_db": float(above.max()) if above.size else 0.0,
    }
