"""Analog prototypes for the three second-order PEQ band types.

One table (COEFF_EXPONENTS) defines every band kind: each s-domain
coefficient is a power of A = 10^(G/40), the s^1 ones also divided by Q.
analog_coeffs builds a band's polynomials from it; the band magnitude
(squared_magnitude, band_magnitude), the fit's response and partials
(optimize) and the digitizer's start and scores (digitize) all read it.
All math is float64.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .targets import check_finite, check_positive

__all__ = ["BandKind", "BandParams", "band_magnitude"]


class BandKind(str, Enum):
    """The three supported second-order band types."""

    LOW_SHELF = "low_shelf"
    BELL = "bell"
    HIGH_SHELF = "high_shelf"


@dataclass(frozen=True)
class BandParams:
    """One band of the parametric EQ in analog-prototype form.

    Attributes
    ----------
    kind : BandKind
        Bell or shelf variant.
    fc_hz : float
        Center (bell) or transition (shelf) frequency in Hz, > 0.
    gain_db : float
        Band gain in dB; 0 dB is a transparent band.
    q : float
        Quality factor, > 0.
    """

    kind: BandKind
    fc_hz: float
    gain_db: float
    q: float

    def __post_init__(self):
        if not isinstance(self.kind, BandKind):
            raise InvalidParameterError(f"kind must be a BandKind, got {self.kind!r}")
        check_positive(self.fc_hz, "fc_hz")
        check_finite(self.gain_db, "gain_db")
        check_positive(self.q, "q")

    def __str__(self) -> str:
        kind, gain, fc, q = self.kind.value, self.gain_db, self.fc_hz, self.q
        return f"{kind} band of {gain:.6g} dB at {fc:.6g} Hz (Q {q:.6g})"

    @property
    def amplitude(self) -> float:
        """A = 10^(G/40), whose powers are the prototype's coefficients."""
        return 10.0 ** (self.gain_db / 40.0)


# Exponent of A in each coefficient, ((n2, n1, n0), (d2, d1, d0)) for
# H(s) = (n2 s^2 + n1 s + n0) / (d2 s^2 + d1 s + d0); n1 and d1 are also
# divided by Q.
COEFF_EXPONENTS = {
    BandKind.LOW_SHELF: ((1.0, 1.5, 2.0), (1.0, 0.5, 0.0)),
    BandKind.BELL: ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0)),
    BandKind.HIGH_SHELF: ((2.0, 1.5, 1.0), (0.0, 0.5, 1.0)),
}


def analog_coeffs(
    band: BandParams,
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Normalized-s prototype polynomials (num, den), highest power first.

    H(s) = (n2 s^2 + n1 s + n0) / (d2 s^2 + d1 s + d0) with s = j f / fc.
    The bell peaks (or dips) to 10^(G/20) at fc and returns to unity at both
    spectrum edges; the low shelf is 10^(G/20) at DC and unity far above fc,
    the high shelf the mirror image.  Both shelves pass through half the dB
    gain at fc for any Q.  A band whose coefficients pass float64's range
    (a shelf above about +6165 dB, a bell beyond about +-12330 dB) is refused.
    """
    try:
        a = band.amplitude
        num, den = (
            (a**e2, a**e1 / band.q, a**e0) for e2, e1, e0 in COEFF_EXPONENTS[band.kind]
        )
    except (OverflowError, ZeroDivisionError):
        raise InvalidParameterError(
            f"the {band} has prototype coefficients, powers of 10^(G/40), past float64's range"
        ) from None
    return num, den


def squared_magnitude(xx, coeffs):
    """|H|^2 at X = (f/fc)^2, scalar or array, of the polynomials analog_coeffs gives.

    ((n0 - n2 X)^2 + n1^2 X) / ((d0 - d2 X)^2 + d1^2 X), with no check.
    """
    (n2, n1, n0), (d2, d1, d0) = coeffs
    return ((n0 - n2 * xx) ** 2 + n1 * n1 * xx) / ((d0 - d2 * xx) ** 2 + d1 * d1 * xx)


def band_magnitude(f, band: BandParams):
    """Linear magnitude of any band kind at frequency f (Hz, scalar or array).

    |H|^2 is squared_magnitude at X = (f/fc)^2.
    A band whose squared terms pass float64's range (a Q below about
    1e-154, say) has no finite magnitude and is refused.
    """
    freqs = np.asarray(f, dtype=np.float64)
    check_finite(freqs, "freqs")
    if np.any(freqs < 0):
        raise InvalidParameterError("frequencies must be >= 0")
    x = freqs / band.fc_hz
    with np.errstate(all="ignore"):
        mag = np.sqrt(squared_magnitude(x * x, analog_coeffs(band)))
    if not np.isfinite(mag).all():
        raise InvalidParameterError(f"the {band} has a magnitude past float64's range")
    return float(mag) if mag.ndim == 0 else mag
