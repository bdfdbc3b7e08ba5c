"""Analog prototype magnitudes: anchor values, symmetries, validation."""

import math

import numpy as np
import pytest

from peqfdn import BandKind, BandParams, InvalidParameterError, band_magnitude
from peqfdn.prototypes import analog_coeffs

# Far enough from fc that the asymptotic value holds to well under 1e-6.
FAR_FACTOR = 1e6


def random_band(rng, kind):
    return BandParams(
        kind=kind,
        fc_hz=float(rng.uniform(30.0, 18000.0)),
        gain_db=float(rng.uniform(-30.0, 6.0)),
        q=float(rng.uniform(0.3, 10.0)),
    )


def test_bell_peak_equals_full_gain(rng):
    for _ in range(300):
        band = random_band(rng, BandKind.BELL)
        peak = band_magnitude(band.fc_hz, band)
        assert peak == pytest.approx(10.0 ** (band.gain_db / 20.0), rel=1e-9)


def test_bell_edges_are_unity(rng):
    for _ in range(100):
        band = random_band(rng, BandKind.BELL)
        assert band_magnitude(0.0, band) == pytest.approx(1.0, rel=1e-12)
        far = band_magnitude(band.fc_hz * FAR_FACTOR, band)
        assert far == pytest.approx(1.0, rel=1e-6)


def test_low_shelf_anchors(rng):
    for _ in range(100):
        band = random_band(rng, BandKind.LOW_SHELF)
        full = 10.0 ** (band.gain_db / 20.0)
        half = 10.0 ** (band.gain_db / 40.0)
        assert band_magnitude(0.0, band) == pytest.approx(full, rel=1e-9)
        assert band_magnitude(band.fc_hz * FAR_FACTOR, band) == pytest.approx(1.0, rel=1e-6)
        # The squared-term shelf passes exactly through half gain at fc for any Q.
        assert band_magnitude(band.fc_hz, band) == pytest.approx(half, rel=1e-9)


def test_high_shelf_anchors(rng):
    for _ in range(100):
        band = random_band(rng, BandKind.HIGH_SHELF)
        full = 10.0 ** (band.gain_db / 20.0)
        half = 10.0 ** (band.gain_db / 40.0)
        assert band_magnitude(0.0, band) == pytest.approx(1.0, rel=1e-9)
        assert band_magnitude(band.fc_hz * FAR_FACTOR, band) == pytest.approx(full, rel=1e-6)
        assert band_magnitude(band.fc_hz, band) == pytest.approx(half, rel=1e-9)


def test_opposite_gains_invert_the_response(rng):
    freqs = np.geomspace(10.0, 24000.0, 64)
    for _ in range(50):
        band = random_band(rng, BandKind.BELL)
        flipped = BandParams(band.kind, band.fc_hz, -band.gain_db, band.q)
        product = band_magnitude(freqs, band) * band_magnitude(freqs, flipped)
        assert np.allclose(product, 1.0, rtol=1e-10)


def test_bell_is_geometrically_symmetric_about_fc(rng):
    for _ in range(50):
        band = random_band(rng, BandKind.BELL)
        ratios = np.geomspace(1.01, 50.0, 16)
        above = band_magnitude(band.fc_hz * ratios, band)
        below = band_magnitude(band.fc_hz / ratios, band)
        assert np.allclose(above, below, rtol=1e-10)


def test_shelves_mirror_each_other(rng):
    # HS(f) equals LS(fc^2 / f) with the same gain and Q.
    for _ in range(50):
        fc = float(rng.uniform(100.0, 10000.0))
        g = float(rng.uniform(-20.0, 6.0))
        q = float(rng.uniform(0.4, 4.0))
        hs = BandParams(BandKind.HIGH_SHELF, fc, g, q)
        ls = BandParams(BandKind.LOW_SHELF, fc, g, q)
        freqs = np.geomspace(fc / 100.0, fc * 100.0, 41)
        assert np.allclose(
            band_magnitude(freqs, hs),
            band_magnitude(fc * fc / freqs, ls),
            rtol=1e-10,
        )


def test_zero_gain_band_is_transparent():
    freqs = np.geomspace(10.0, 20000.0, 32)
    for kind in BandKind:
        band = BandParams(kind, 1000.0, 0.0, 0.7)
        assert np.allclose(band_magnitude(freqs, band), 1.0, rtol=1e-12)


def test_band_magnitude_dispatches_and_preserves_shape():
    band = BandParams(BandKind.BELL, 500.0, -6.0, 2.0)
    scalar = band_magnitude(500.0, band)
    assert isinstance(scalar, float)
    arr = band_magnitude(np.array([250.0, 500.0, 1000.0]), band)
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(scalar)


def test_negative_frequency_rejected():
    band = BandParams(BandKind.BELL, 1000.0, -3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        band_magnitude(-1.0, band)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fc_hz": 0.0},
        {"fc_hz": -100.0},
        {"fc_hz": float("inf")},
        {"gain_db": float("nan")},
        {"q": 0.0},
        {"q": -1.0},
    ],
)
def test_band_params_validation(kwargs):
    base = {"kind": BandKind.BELL, "fc_hz": 1000.0, "gain_db": -3.0, "q": 1.0}
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        BandParams(**base)


@pytest.mark.parametrize(
    "kind, gain_db",
    [(BandKind.LOW_SHELF, 6200.0), (BandKind.HIGH_SHELF, 1e300), (BandKind.BELL, 12400.0),
     (BandKind.BELL, -12400.0), (BandKind.BELL, -1e300)],
)
def test_coefficients_past_float64_are_refused_by_name(kind, gain_db):
    # A^2 of a shelf, A of a bell or 1/A of a bell leaves float64's range;
    # a bell of -1e300 dB used to divide by zero in 0.0 ** -1.0.
    band = BandParams(kind, 1000.0, gain_db, 0.7)
    with pytest.raises(InvalidParameterError) as err:
        band_magnitude(1000.0, band)
    assert f"{kind.value} band of {gain_db:g} dB at 1000 Hz (Q 0.7)" in str(err.value)
    # Gains just inside the bounds still give finite coefficients.
    edge = 6100.0 if kind is not BandKind.BELL else math.copysign(12300.0, gain_db)
    assert np.isfinite(analog_coeffs(BandParams(kind, 1000.0, edge, 0.7))).all()


@pytest.mark.parametrize("kind", list(BandKind))
def test_magnitude_past_float64_is_refused_by_name(kind):
    # At Q 1e-300 the squared s^1 terms overflow in numerator and
    # denominator alike: the magnitude used to come back as inf / inf = NaN.
    band = BandParams(kind, 1000.0, -6.0, 1e-300)
    with pytest.raises(InvalidParameterError) as err:
        band_magnitude(np.geomspace(20.0, 20000.0, 8), band)
    assert f"{kind.value} band of -6 dB at 1000 Hz (Q 1e-300)" in str(err.value)
