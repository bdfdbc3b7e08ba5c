"""Analog prototype bands to digital biquads, and digital response checks.

A plain prewarped bilinear transform pins the response at fc but compresses
the skirts toward Nyquist: bells lose their upper tails, shelf transitions
squeeze into the last kHz, and a cascade built that way decays noticeably
slower at high frequencies than its analog reference.  band_to_biquad
therefore designs each section by constrained least squares on the
squared-magnitude rational form, matching the analog band exactly at DC,
fc and Nyquist and tracking it in between.  The bilinear section is kept
as a fallback for parameter corners where the least-squares design is not
realizable, and whichever of the two stays closer to the analog curve is
returned.  Residual deviation is measured and reported rather than hidden
(see digitization_report).
"""

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import InvalidParameterError
from .peq import PeqParams, peq_log_magnitude
from .prototypes import BandParams, analog_coeffs, band_magnitude

__all__ = [
    "BiquadCoeffs",
    "SosCascade",
    "band_to_biquad",
    "digital_magnitude",
    "peq_to_sos",
    "sos_to_csv",
    "sos_to_dict",
    "digitization_report",
]


@dataclass(frozen=True)
class BiquadCoeffs:
    """Digital second-order section, a0 normalized to 1, poles inside |z| = 1."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float
    fs: float

    def __post_init__(self):
        coeffs = (self.b0, self.b1, self.b2, self.a1, self.a2)
        if not all(math.isfinite(c) for c in coeffs):
            raise InvalidParameterError(f"biquad coefficients must be finite, got {coeffs}")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise InvalidParameterError(f"fs must be > 0, got {self.fs}")
        # Triangle stability conditions for z^2 + a1 z + a2.
        if not (abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2):
            raise InvalidParameterError(
                f"unstable biquad: a1={self.a1}, a2={self.a2} has poles on or outside the unit circle"
            )


@dataclass(frozen=True)
class SosCascade:
    """Ordered second-order sections sharing one sample rate."""

    sections: tuple[BiquadCoeffs, ...]

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))
        if not self.sections:
            raise InvalidParameterError("a cascade needs at least one section")
        fs = self.sections[0].fs
        if any(sec.fs != fs for sec in self.sections):
            raise InvalidParameterError("all sections must share one sample rate")

    @property
    def fs(self) -> float:
        return self.sections[0].fs

    def to_array(self) -> np.ndarray:
        """(n_sections, 6) array [b0 b1 b2 a0 a1 a2] for scipy-style filtering."""
        return np.array(
            [[s.b0, s.b1, s.b2, 1.0, s.a1, s.a2] for s in self.sections], dtype=np.float64
        )


def _bilinear_biquad(band: BandParams, fs: float) -> BiquadCoeffs:
    """Prewarped bilinear transform of one prototype band (fallback design)."""
    num, den = analog_coeffs(band)
    # s_norm = k * (1 - z^-1) / (1 + z^-1) with k pinning fc on both axes.
    k = 1.0 / math.tan(math.pi * band.fc_hz / fs)
    kk = k * k

    def warp(c):
        c2, c1, c0 = c
        return np.array(
            [
                c2 * kk + c1 * k + c0,
                2.0 * (c0 - c2 * kk),
                c2 * kk - c1 * k + c0,
            ]
        )

    b = warp(num)
    a = warp(den)
    b /= a[0]
    return BiquadCoeffs(b[0], b[1], b[2], a[1] / a[0], a[2] / a[0], fs)


def _biquad_mag_db(coeffs: BiquadCoeffs, freqs: np.ndarray) -> np.ndarray:
    zinv = np.exp(-2j * np.pi * freqs / coeffs.fs)
    h = (coeffs.b0 + coeffs.b1 * zinv + coeffs.b2 * zinv * zinv) / (
        1.0 + coeffs.a1 * zinv + coeffs.a2 * zinv * zinv
    )
    return 20.0 * np.log10(np.abs(h))


# Least-squares design grid: points per band and the span relative to fc
# used when checking squared-magnitude positivity.
_LS_GRID_POINTS = 160
_LS_CHECK_DECADES = 8


def _lstsq_biquad(band: BandParams, fs: float) -> BiquadCoeffs | None:
    """Constrained least-squares magnitude design of one band.

    Writes the squared magnitude as a ratio of quadratics in tan(pi f / fs)^2
    and solves the linear equation-error problem over a log grid, with the
    values at DC, fc and Nyquist imposed exactly.  Returns None when the
    solution is not a realizable stable biquad, which the caller treats as
    "use the bilinear design".
    """
    fc = band.fc_hz
    u0 = math.tan(math.pi * fc / fs) ** 2
    g0 = band_magnitude(0.0, band)
    gc = band_magnitude(fc, band)
    g1 = band_magnitude(0.5 * fs, band)
    hi = 0.995 * 0.5 * fs
    lo = min(10.0, fc / 8.0, hi / 4.0)
    grid = np.geomspace(lo, hi, _LS_GRID_POINTS)
    ug = np.tan(np.pi * grid / fs) ** 2 / u0
    m2 = band_magnitude(grid, band) ** 2
    # Unknowns x = (A0, A1, A2, B0, B1, B2) with u scaled by u0, so that
    # |H|^2 = (B0 + B1 u + B2 u^2) / (A0 + A1 u + A2 u^2).  Each grid row is
    # the equation error (N - m^2 D)(u); the 1/(1+u^2) weight stops the u^2
    # columns from dominating at the top of the band.
    w = 1.0 / (1.0 + ug * ug)
    rows = np.column_stack(
        [-m2, -m2 * ug, -m2 * ug * ug, np.ones_like(ug), ug, ug * ug]
    )
    rows *= w[:, None]
    constraints = np.array(
        [
            [-g0 * g0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [-gc * gc, -gc * gc, -gc * gc, 1.0, 1.0, 1.0],
            [0.0, 0.0, -g1 * g1, 0.0, 0.0, 1.0],
        ]
    )
    _, _, vt = np.linalg.svd(constraints)
    basis = vt[3:].T
    reduced = rows @ basis
    _, _, vt = np.linalg.svd(reduced)
    coeffs = _realize_rational(basis @ vt[-1], u0, fs)
    if coeffs is not None:
        return coeffs
    x = _positive_solution(reduced, basis, vt[-1])
    if x is None:
        return None
    return _realize_rational(x, u0, fs)


def _check_grid() -> np.ndarray:
    """Scaled-u samples where both quadratics must stay nonnegative."""
    span = 10.0**_LS_CHECK_DECADES
    return np.concatenate([[0.0], np.geomspace(1.0 / span, span, 300)])


def _positive_solution(
    reduced: np.ndarray, basis: np.ndarray, start: np.ndarray
) -> np.ndarray | None:
    """Equation-error minimizer constrained to nonnegative quadratics.

    Runs only when the unconstrained minimizer is not a valid squared
    magnitude (shelves parked against Nyquist mostly).  Fixing the
    denominator value at fc to one removes the scale freedom and leaves a
    convex QP in the three free coordinates.
    """
    ucheck = _check_grid()
    zeros = np.zeros((ucheck.size, 3))
    ones = np.ones_like(ucheck)
    n_rows = np.column_stack([zeros, ones, ucheck, ucheck * ucheck])
    d_rows = np.column_stack([ones, ucheck, ucheck * ucheck, zeros])
    gmat = np.vstack([n_rows, d_rows]) @ basis
    scale = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) @ basis
    quad = reduced.T @ reduced
    pivot = float(scale @ start)
    if abs(pivot) > 1e-12:
        c0 = start / pivot
    else:
        c0 = scale / float(scale @ scale)
    margin = 1e-10
    res = optimize.minimize(
        lambda c: float(c @ quad @ c),
        x0=c0,
        jac=lambda c: 2.0 * (quad @ c),
        constraints=[
            {"type": "ineq", "fun": lambda c: gmat @ c - margin, "jac": lambda c: gmat},
            {"type": "eq", "fun": lambda c: scale @ c - 1.0, "jac": lambda c: scale},
        ],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    if not res.success:
        return None
    return basis @ res.x


def _realize_rational(x: np.ndarray, u0: float, fs: float) -> BiquadCoeffs | None:
    """Spectral factorization of a squared-magnitude rational to a biquad.

    x holds (A0, A1, A2, B0, B1, B2) in the scaled-u form; returns None
    when the pair is not a nonnegative rational or the factored section
    is not stable.
    """
    a0, a1u, a2u, b0, b1u, b2u = x
    if a2u < 0.0 or (a2u == 0.0 and a0 < 0.0):
        a0, a1u, a2u, b0, b1u, b2u = -a0, -a1u, -a2u, -b0, -b1u, -b2u
    if a0 <= 0.0 or a2u <= 0.0 or b0 < 0.0 or b2u < 0.0:
        return None
    ucheck = _check_grid()
    n_val = b0 + b1u * ucheck + b2u * ucheck * ucheck
    d_val = a0 + a1u * ucheck + a2u * ucheck * ucheck
    if n_val.min() < 0.0 or d_val.min() < 0.0:
        return None
    # Spectral factorization back to s-domain sections, minimum phase.
    a1, a2 = a1u / u0, a2u / (u0 * u0)
    b1, b2 = b1u / u0, b2u / (u0 * u0)
    d0, d2 = math.sqrt(a0), math.sqrt(a2)
    n0, n2 = math.sqrt(b0), math.sqrt(b2)
    arg_d = a1 + 2.0 * d0 * d2
    arg_n = b1 + 2.0 * n0 * n2
    if arg_d < 0.0 or arg_n < 0.0:
        return None
    d1 = math.sqrt(arg_d)
    n1 = math.sqrt(arg_n)

    def warp(c2, c1, c0):
        return (c2 + c1 + c0, 2.0 * (c0 - c2), c2 - c1 + c0)

    bz = warp(n2, n1, n0)
    az = warp(d2, d1, d0)
    try:
        return BiquadCoeffs(
            bz[0] / az[0], bz[1] / az[0], bz[2] / az[0], az[1] / az[0], az[2] / az[0], fs
        )
    except InvalidParameterError:
        return None


def band_to_biquad(band: BandParams, fs: float) -> BiquadCoeffs:
    """Digitize one prototype band to a biquad tracking the analog magnitude.

    The least-squares design is preferred; the prewarped bilinear section
    covers parameter corners where it is not realizable, and whichever of
    the two deviates less from the analog curve wins.  Either way the
    digital magnitude at fc matches the analog prototype, and a 0 dB band
    collapses to the literal identity filter.
    """
    if not (math.isfinite(fs) and fs > 0):
        raise InvalidParameterError(f"fs must be > 0, got {fs}")
    if band.fc_hz >= 0.5 * fs:
        raise InvalidParameterError(
            f"fc={band.fc_hz} Hz must be below Nyquist ({0.5 * fs} Hz) to digitize"
        )
    if band.gain_db == 0.0:
        return BiquadCoeffs(1.0, 0.0, 0.0, 0.0, 0.0, fs)
    bilinear = _bilinear_biquad(band, fs)
    lstsq = _lstsq_biquad(band, fs)
    if lstsq is None:
        return bilinear
    hi = 0.995 * 0.5 * fs
    lo = min(10.0, band.fc_hz / 8.0, hi / 4.0)
    freqs = np.geomspace(lo, hi, 400)
    analog_db = 20.0 * np.log10(band_magnitude(freqs, band))
    dev_ls = np.abs(_biquad_mag_db(lstsq, freqs) - analog_db).max()
    dev_bl = np.abs(_biquad_mag_db(bilinear, freqs) - analog_db).max()
    return lstsq if dev_ls <= dev_bl else bilinear


def digital_magnitude(sos: SosCascade, freqs) -> np.ndarray:
    """Cascade magnitude in dB at frequencies in (0, fs/2)."""
    freqs = np.asarray(freqs, dtype=np.float64)
    if np.any(freqs <= 0) or np.any(freqs >= 0.5 * sos.fs):
        raise InvalidParameterError(
            f"frequencies must lie strictly inside (0, {0.5 * sos.fs}) Hz"
        )
    return sum(_biquad_mag_db(sec, freqs) for sec in sos.sections)


def peq_to_sos(params: PeqParams, fs: float) -> SosCascade:
    """Digitize every band in order; one biquad per band."""
    return SosCascade(tuple(band_to_biquad(band, fs) for band in params.bands))


def sos_to_csv(sos: SosCascade) -> str:
    """CSV export, one row per section, 17 significant digits."""
    out = io.StringIO()
    out.write("b0,b1,b2,a0,a1,a2\n")
    for sec in sos.sections:
        row = (sec.b0, sec.b1, sec.b2, 1.0, sec.a1, sec.a2)
        out.write(",".join(f"{value:.17g}" for value in row) + "\n")
    return out.getvalue()


def sos_to_dict(sos: SosCascade, bands: PeqParams | None = None) -> dict:
    """JSON-ready export embedding fs and, when given, the source bands."""
    doc: dict = {
        "fs": sos.fs,
        "sections": [
            {"b0": s.b0, "b1": s.b1, "b2": s.b2, "a0": 1.0, "a1": s.a1, "a2": s.a2}
            for s in sos.sections
        ],
    }
    if bands is not None:
        doc["bands"] = [
            {"kind": b.kind.value, "fc_hz": b.fc_hz, "gain_db": b.gain_db, "q": b.q}
            for b in bands.bands
        ]
    return doc


def digitization_report(params: PeqParams, sos: SosCascade, freqs) -> dict:
    """Quantify analog-vs-digital deviation of a cascade digitized from params.

    Splits the maximum absolute dB deviation at 0.7x Nyquist: below it the
    bilinear design should be tight, above it the warping loss is reported
    rather than hidden.
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
