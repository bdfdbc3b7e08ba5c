"""N-band PEQ composition and the delay-length gain-scaling law.

A PEQ is a low shelf, N-2 bells, and a high shelf whose dB magnitudes add.
One PEQ is fitted at a reference delay length; every other delay line of the
FDN reuses the same frequencies and Q values with all dB gains multiplied by
m_k / m_ref, so a single fit serves the whole network.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .prototypes import BandKind, BandParams, band_magnitude
from .targets import check_delay, check_fs, check_integer, check_positive

__all__ = [
    "PeqParams",
    "FittedPeq",
    "peq_log_magnitude",
    "scale_to_delay",
]


def check_band_count(n_bands: int) -> None:
    """Refuse a band count that is not an integer >= 3: a PEQ is two shelves and a bell or more."""
    check_integer(n_bands, "n_bands")
    if n_bands < 3:
        raise InvalidParameterError(f"a PEQ needs at least 3 bands, got {n_bands}")


@dataclass(frozen=True)
class PeqParams:
    """Ordered band list: low shelf, bells by ascending fc, high shelf.

    A fitted shelf corner may land inside the bell frequency range (the
    optimizer moves frequencies freely), so only the interior bells are
    held to strictly increasing fc; the cascade response is order
    independent either way.
    """

    bands: tuple[BandParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        check_band_count(len(self.bands))
        if self.bands[0].kind is not BandKind.LOW_SHELF:
            raise InvalidParameterError("first band must be a low shelf")
        if self.bands[-1].kind is not BandKind.HIGH_SHELF:
            raise InvalidParameterError("last band must be a high shelf")
        for band in self.bands[1:-1]:
            if band.kind is not BandKind.BELL:
                raise InvalidParameterError("interior bands must be bells")
        fcs = [band.fc_hz for band in self.bands[1:-1]]
        if any(lo >= hi for lo, hi in zip(fcs, fcs[1:])):
            raise InvalidParameterError(f"bell frequencies must strictly increase, got {fcs}")

    @property
    def n_bands(self) -> int:
        return len(self.bands)


@dataclass(frozen=True)
class FittedPeq:
    """A PEQ fitted at reference delay length m_ref samples for sample rate fs."""

    params: PeqParams
    m_ref: float
    fs: float

    def __post_init__(self):
        check_delay(self.m_ref, "m_ref")
        check_fs(self.fs)

    def to_dict(self) -> dict:
        return {
            "fs": self.fs,
            "m_ref": self.m_ref,
            "bands": [
                {
                    "kind": band.kind.value,
                    "fc_hz": band.fc_hz,
                    "gain_db": band.gain_db,
                    "q": band.q,
                }
                for band in self.params.bands
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FittedPeq":
        """The fit to_dict wrote; a missing or unconvertible field is an InvalidParameterError."""
        try:
            bands = [
                (BandKind(row["kind"]), float(row["fc_hz"]), float(row["gain_db"]), float(row["q"]))
                for row in data["bands"]
            ]
            m_ref, fs = float(data["m_ref"]), float(data["fs"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"malformed fitted-PEQ document: {exc!r}") from exc
        return cls(PeqParams(tuple(BandParams(*band) for band in bands)), m_ref=m_ref, fs=fs)


def peq_log_magnitude(params: PeqParams, freqs) -> np.ndarray:
    """Composite PEQ response in dB: the sum of per-band dB magnitudes.

    ``freqs`` must be finite, > 0 and sorted ascending.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.size == 0:
        raise InvalidParameterError("frequency vector must not be empty")
    check_positive(freqs, "freqs")
    if np.any(np.diff(freqs) < 0):
        raise InvalidParameterError("frequencies must be sorted ascending")
    total = np.zeros_like(freqs)
    for band in params.bands:
        total += 20.0 * np.log10(band_magnitude(freqs, band))
    return total


def scale_to_delay(fitted: FittedPeq, m_k: float) -> PeqParams:
    """Rescale the fitted PEQ's dB gains to delay length m_k samples.

    Frequencies and Q are untouched; every gain is multiplied by
    m_k / m_ref so the per-sample attenuation matches the longer or
    shorter recirculation path.
    """
    check_delay(m_k, "m_k")
    factor = m_k / fitted.m_ref
    bands = tuple(replace(band, gain_db=band.gain_db * factor) for band in fitted.params.bands)
    return PeqParams(bands)
