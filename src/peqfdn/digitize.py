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

network_to_sos digitizes every delay line of a network in one pass, from
the shortest delay up: each line is scaled, designed and checked before
the next, and the first line that fails is refused.  Each line comes back
as a NetworkLine of its delay, the bands it was designed from and its
cascade, so no caller scales a line again.  The lines share each
band's fc and Q and differ only in gain, so each longer line runs only
the second stage of the search, around the first-stage trial nearest the
same band's best p on the line before (see _design).  The check keeps
each line's cascade below 0 dB from DC to Nyquist: with orthogonal
feedback the loop then decays (Jot and Chaigne, AES 1991).  The digitizer
silences its own numpy warnings: a band past its reach overflows on the
way to its refusal.
"""

import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NonDecayingResponseError
from .peq import FittedPeq, PeqParams, peq_log_magnitude, scale_to_delay
from .prototypes import BandParams, analog_coeffs, band_magnitude, squared_magnitude
from .targets import check_decays, check_finite, check_fs

__all__ = [
    "SosCascade",
    "NetworkLine",
    "band_to_biquad",
    "digital_magnitude",
    "peq_to_sos",
    "network_to_sos",
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
        unstable = _unstable(sections)
        if unstable.any():
            a1, a2 = sections[:, 4], sections[:, 5]
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
# A warm start (see _design) whose worst error in dB is more than this
# factor times the same band's on the line before falls back to the full
# search, and a line more than this factor longer than the line before
# gets none.  A band's error grows about as the delay, so by at most
# 1.35x a step across the 8 default delays.
_WARM_SCORE_FACTOR = 2.0
# Least c, keeping the poles off the unit circle.
_C_FLOOR = 1e-9
# The section of a flat band: b0 = a0 = 1.
_IDENTITY = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
# Where network_to_sos checks each line's decay, as fractions of fs: DC,
# then log spaced from 1e-6 up to Nyquist.
_ATTENUATION_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 0.5, 1024)))


def _unstable(sections: np.ndarray) -> np.ndarray:
    """Rows with a pole on or outside |z| = 1, or a NaN pole coefficient.

    The triangle stability conditions for z^2 + a1 z + a2.
    """
    a1, a2 = sections[:, 4], sections[:, 5]
    return ~((np.abs(a2) < 1.0) & (np.abs(a1) < 1.0 + a2))


class _Pins(NamedTuple):
    """What a band's design needs that depends only on its corner and the rate.

    f_pin is fc, or 0.7 Nyquist for a corner at or above Nyquist, and t_pin
    = tan(pi f_pin / fs).  freqs is [0, f_pin, Nyquist] then the design
    grid, where the analog magnitude is read, and w the grid's W.  Every
    line of a network shares each band's fc, so network_to_sos sets this up
    once per band.
    """

    fs: float
    fc: float
    f_pin: float
    t_pin: float
    freqs: np.ndarray
    w: np.ndarray


@np.errstate(all="ignore")
def _pins(fc: float, fs: float) -> _Pins:
    nyquist = 0.5 * fs
    f_pin = fc if fc < nyquist else 0.7 * nyquist
    t_pin = math.tan(math.pi * f_pin / fs)
    hi = 0.995 * nyquist
    lo = min(10.0, fc / 8.0, hi / 4.0)
    grid = lo * (hi / lo) ** _GRID_UNIT
    w = (np.tan(np.pi * grid / fs) / t_pin) ** 2
    return _Pins(fs, fc, f_pin, t_pin, np.concatenate(([0.0, f_pin, nyquist], grid)), w)


def _score_trials(p, w, m2, g0, gp, g1, c_start, resonance_m2):
    """Fit c to each trial p and score it: (c, e, worst error).

    For a fixed p the pin at f_pin (W = 1) makes e = e0 + gp^2 c, so the
    equation error N - m^2 D on the grid is linear in c.  Two passes of
    closed-form least squares, each weighted by 1 / (m^2 D)^2 with the D of
    the pass before, make it a relative error.  The worst error is
    max(|H|^2 / m^2, m^2 / |H|^2) over the grid, the worst |dB error|
    before the log, or |H|^2 / m^2 at the trial's own resonance W = 1/p
    if that is larger; resonance_m2(p) is the analog m^2 there.
    """
    # Every (trials, grid) array is worked in place: the arithmetic, and so
    # every bit of the result, is that of the plain expressions in the
    # comments, with fewer passes over memory.
    pw = np.multiply.outer(p, w)
    e0 = gp * gp * (1.0 - p) ** 2 - (g0 - g1 * p) ** 2
    c_min = np.maximum(-e0 / (gp * gp), _C_FLOOR)
    num0 = g1 * pw  # (g0 - g1 pw)^2 + e0 w
    np.subtract(g0, num0, out=num0)
    np.square(num0, out=num0)
    num0 += e0[:, None] * w
    den0 = np.subtract(1.0, pw, out=pw)  # (1 - pw)^2
    np.square(den0, out=den0)
    a = m2 * den0  # num0 - m2 den0
    np.subtract(num0, a, out=a)
    b = (gp * gp - m2) * w
    bb = b * b
    inv_m4 = 1.0 / (m2 * m2)
    c = np.full(p.size, c_start)
    for _ in range(2):
        v = np.multiply.outer(c, w)  # inv_m4 / (den0 + c w)^2
        v += den0
        np.multiply(v, v, out=v)
        np.divide(inv_m4, v, out=v)
        vbb = v @ bb
        np.multiply(v, a, out=v)
        c = np.maximum(-(v @ b) / vbb, c_min)
    e = np.maximum(e0 + gp * gp * c, 0.0)
    cw = np.multiply.outer(c, w)  # (num0 + gp^2 c w) / ((den0 + c w) m2)
    ratio = gp * gp * cw
    ratio += num0
    cw += den0
    cw *= m2
    ratio /= cw
    # At W = 1/p the denominator is c W, its least: a trial whose pole sits
    # near the unit circle peaks there, often between grid points.  |H|^2
    # there is ((g0 - g1)^2 + e W) / (c W).  It is scored as an overshoot
    # only: scoring it as a dip too picks sharp peak-and-notch pairs at
    # f_pin for corners just below Nyquist.
    resonance = ((g0 - g1) ** 2 * p + e) / (c * resonance_m2(p))
    high = np.maximum(ratio.max(axis=1), resonance)
    # A trial whose magnitude reaches 0 on the grid is infinitely off.
    low = ratio.min(axis=1)
    inverse = np.divide(1.0, low, out=np.full_like(low, np.inf), where=low != 0.0)
    return c, e, np.maximum(high, inverse)


def _first_stage_trial(p: float, p_analog: float) -> int | None:
    """The index of the first-stage trial nearest p, or None if p lies outside that stage."""
    index = (np.log(np.float64(p) / p_analog) / np.log(100.0) + 1.0) * (_TRIALS - 1) / 2
    return int(np.rint(index)) if -0.5 < index < _TRIALS - 0.5 else None


@np.errstate(all="ignore")
def _design(band: BandParams, pins: _Pins, prev: tuple | None = None):
    """One band's section, a (1, 6) row, and its (p, worst score), None for the identity.

    The search that band_to_biquad describes, shared by both entries.
    Without prev it is the full search: the first stage around the analog
    value of p, then the second around the first's best trial.  prev, what
    the same band returned on the line of the next shorter delay, stands in
    for the first stage: the second stage runs around the first-stage
    trial nearest its p, on the same lattice of p as the full search, so
    it gives the full search's section whenever that stage would pick the
    same trial.  The full search runs instead for a corner at or above
    Nyquist, when that p lies outside the first stage, when the best trial
    lies at either edge of the second (the best p may lie past it), or when
    its worst error in dB is more than _WARM_SCORE_FACTOR times prev's (the
    best p may have moved to another basin of the score).
    """
    coeffs = analog_coeffs(band)
    if band.amplitude == 1.0:
        return _IDENTITY, None
    row = None
    # Measured at fs = 48 kHz on 50 x 25 log-spaced corners from 1 Hz to
    # 48 kHz and Q from 0.02 to 50: every bell down to -236 dB and every
    # shelf within +-306 dB gives a finite, stable section.  The first
    # failures are bells of -238 dB and shelves of +-308 dB with a 1 Hz
    # corner; at a 1 kHz corner and Q 0.7 they lie past 300 dB.  Extreme
    # corners fail too, and a Q below about 1e-154 overflows c_start.
    try:
        fs, fc, f_pin, t_pin = pins.fs, pins.fc, pins.f_pin, pins.t_pin
        mags = band_magnitude(pins.freqs, band)
        if (mags == 1.0).all():  # nothing to fit: every trial would score 0 / 0
            return _IDENTITY, None
        g0, gp, g1 = mags[:3]
        m2 = mags[3:] ** 2
        # The analog denominator (1 - (d2/d0) X)^2 + (d1/d0)^2 X, X = (f/fc)^2,
        # read with X ~ W (f_pin/fc)^2, gives the search centre and the start c.
        _, (d2, d1, d0) = coeffs
        scale = (f_pin / fc) ** 2
        c_start = (d1 / d0) ** 2 * scale

        def resonance_m2(p):  # the analog m^2 where W = 1/p
            f = fs / math.pi * np.arctan(t_pin / np.sqrt(p))
            return squared_magnitude((f / fc) ** 2, coeffs)

        def stage(centre, factors):
            p = centre * factors
            c, e, worst = _score_trials(p, pins.w, m2, g0, gp, g1, c_start, resonance_m2)
            best = int(np.argmin(worst))
            return best, p[best], c[best], e[best], worst[best]

        p_analog = d2 / d0 * scale
        # A corner at or above Nyquist is pinned at 0.7 Nyquist instead, and
        # its best p jumps from one basin of the score to another as the
        # gain grows, so it gets no warm start.
        warm = prev is not None and f_pin == fc
        trial = _first_stage_trial(prev[0], p_analog) if warm else None
        found = None
        if trial is not None:
            best, *found = stage(p_analog * _STAGE_FACTORS[0][trial], _STAGE_FACTORS[1])
            if best in (0, _TRIALS - 1) or found[3] > prev[1] ** _WARM_SCORE_FACTOR:
                found = None
        if found is None:
            _, *found = stage(p_analog, _STAGE_FACTORS[0])
            _, *found = stage(found[0], _STAGE_FACTORS[1])
        p_best, c_best, e_best, worst = found
        k = 1.0 / t_pin
        kk = k * k

        def warp(c2, c1, c0):
            return (c2 * kk + c1 * k + c0, 2.0 * (c0 - c2 * kk), c2 * kk - c1 * k + c0)

        bz = warp(g1 * p_best, math.sqrt(e_best), g0)
        az = warp(p_best, math.sqrt(c_best), 1.0)
        row = np.array([bz + az]) / az[0]
    except (InvalidParameterError, OverflowError):
        pass
    if row is None or not np.isfinite(row).all() or _unstable(row)[0]:
        raise InvalidParameterError(
            f"the digitizer finds no finite, stable section for the {band}; at 48 kHz "
            f"it designs bells down to about -230 dB and shelves within about +-300 dB"
        )
    return row, (p_best, worst)


def band_to_biquad(band: BandParams, fs: float) -> SosCascade:
    """Digitize one prototype band to a one-section cascade tracking the analog magnitude.

    The section is the bilinear image, with f_pin prewarped, of
    |H|^2 = ((g0 - g1 p W)^2 + e W) / ((1 - p W)^2 + c W),
    W = tan^2(pi f / fs) / tan^2(pi f_pin / fs), where g0 and g1 are the
    analog magnitudes at DC and Nyquist and f_pin is fc, or 0.7 Nyquist
    for a corner at or above Nyquist.  DC, f_pin and Nyquist match the
    analog band exactly; c > 0 and e >= 0 make the section stable and
    minimum phase.  p is searched on a log grid around the analog value,
    in two stages, keeping the trial with the smallest worst dB error on
    the design grid and at the trial's own resonance W = 1/p.
    A band whose A = 10^(G/40) is 1.0 (0 dB, or |G| below about 2e-15 dB),
    or whose analog magnitude is exactly 1.0 at every design point (a bell
    one ulp of A below 1, down to about -2.8e-15 dB), collapses to the
    literal identity filter.
    """
    check_fs(fs)
    return SosCascade(_design(band, _pins(band.fc_hz, fs))[0], fs)


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
    """Digitize every band in order, each by band_to_biquad's search; one biquad per band."""
    check_fs(fs)
    rows = [_design(band, _pins(band.fc_hz, fs))[0] for band in params.bands]
    return SosCascade(np.concatenate(rows), fs)


class NetworkLine(NamedTuple):
    """One digitized delay line: its delay in samples, the bands its
    cascade was designed from, and the cascade."""

    delay: int
    params: PeqParams
    cascade: SosCascade


def network_to_sos(fitted: FittedPeq, delays) -> list[NetworkLine]:
    """Digitize every delay line of a network: one NetworkLine per delay, in
    the order given.

    The lines share each band's fc and Q; only the gain scales with the
    delay (scale_to_delay), and each line's record holds the bands it was
    designed from.  So each band's design set-up is done once, and the
    lines are visited from the shortest delay up: the shortest gets
    band_to_biquad's full search, as peq_to_sos gives it, and each longer
    one searches only around the same band's p on the line before (see
    _design), unless it is more than _WARM_SCORE_FACTOR times as long.
    Equal delays share one record.  Each line's cascade must stay below
    0 dB from DC to Nyquist (check_decays on _ATTENUATION_GRID): the fit
    constrains the response only from 20 Hz up, so a fitted band can still
    reach 0 dB below that.  The shortest line that fails, for whatever
    reason, is refused, "delay line of N samples: ...", and no longer line
    is digitized.
    """
    pins = [_pins(band.fc_hz, fitted.fs) for band in fitted.params.bands]
    found = [None] * len(pins)  # each band's (p, worst score) on the line before
    lines = {}
    m_prev = math.inf
    for m_k in sorted(set(delays)):
        if m_k > _WARM_SCORE_FACTOR * m_prev:
            # A band's error in dB grows about as its gain, with the delay,
            # so after a longer step the score test would refuse the start.
            found = [None] * len(pins)
        try:
            params = scale_to_delay(fitted, m_k)
            rows = []
            for i, band in enumerate(params.bands):
                row, found[i] = _design(band, pins[i], found[i])
                rows.append(row)
            lines[m_k] = NetworkLine(m_k, params, SosCascade(np.concatenate(rows), fitted.fs))
            _check_line_decays(lines[m_k].cascade)
        except (InvalidParameterError, NonDecayingResponseError) as exc:
            raise type(exc)(f"delay line of {m_k} samples: {exc}") from None
        m_prev = m_k
    return [lines[m_k] for m_k in delays]


def _check_line_decays(cascade: SosCascade) -> None:
    """Refuse a cascade that reaches 0 dB anywhere on _ATTENUATION_GRID."""
    freqs = cascade.fs * _ATTENUATION_GRID
    check_decays(_biquad_mag_db(cascade, freqs), freqs)


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
