"""PEQ composition, band-layout validation, gain scaling."""

import numpy as np
import pytest

from peqfdn import (
    BandKind,
    BandParams,
    FittedPeq,
    InvalidParameterError,
    PeqParams,
    achieved_t60,
    band_magnitude,
    peq_log_magnitude,
    scale_to_delay,
)


def make_params(gains=(-4.0, -2.0, -1.0, -3.0)):
    g = list(gains)
    return PeqParams(
        (
            BandParams(BandKind.LOW_SHELF, 80.0, g[0], 0.7),
            BandParams(BandKind.BELL, 400.0, g[1], 1.5),
            BandParams(BandKind.BELL, 2000.0, g[2], 1.5),
            BandParams(BandKind.HIGH_SHELF, 8000.0, g[3], 0.7),
        )
    )


def test_layout_validation():
    bell = BandParams(BandKind.BELL, 1000.0, -3.0, 1.0)
    ls = BandParams(BandKind.LOW_SHELF, 80.0, -3.0, 0.7)
    hs = BandParams(BandKind.HIGH_SHELF, 8000.0, -3.0, 0.7)
    with pytest.raises(InvalidParameterError, match="at least 3"):
        PeqParams((ls, hs))
    with pytest.raises(InvalidParameterError, match="low shelf"):
        PeqParams((bell, bell, hs))
    with pytest.raises(InvalidParameterError, match="high shelf"):
        PeqParams((ls, bell, bell))
    with pytest.raises(InvalidParameterError, match="interior"):
        PeqParams((ls, ls, hs))


def test_bell_frequencies_must_increase():
    ls = BandParams(BandKind.LOW_SHELF, 80.0, -3.0, 0.7)
    hs = BandParams(BandKind.HIGH_SHELF, 8000.0, -3.0, 0.7)
    b1 = BandParams(BandKind.BELL, 2000.0, -3.0, 1.0)
    b2 = BandParams(BandKind.BELL, 400.0, -3.0, 1.0)
    with pytest.raises(InvalidParameterError, match="strictly increase"):
        PeqParams((ls, b1, b2, hs))
    # Shelf corners may land anywhere; only the bells are ordered.
    wide_ls = BandParams(BandKind.LOW_SHELF, 5000.0, -3.0, 0.7)
    PeqParams((wide_ls, b2, b1, hs))


def test_composite_is_sum_of_band_decibels():
    params = make_params()
    freqs = np.geomspace(20.0, 20000.0, 64)
    total = np.zeros_like(freqs)
    for band in params.bands:
        total += 20.0 * np.log10(band_magnitude(freqs, band))
    assert np.allclose(peq_log_magnitude(params, freqs), total, atol=1e-12)


def test_peq_log_magnitude_input_validation():
    params = make_params()
    with pytest.raises(InvalidParameterError):
        peq_log_magnitude(params, np.array([]))
    with pytest.raises(InvalidParameterError):
        peq_log_magnitude(params, np.array([100.0, 50.0]))
    with pytest.raises(InvalidParameterError):
        peq_log_magnitude(params, np.array([0.0, 100.0]))


def test_scale_to_delay_scales_only_gains():
    fitted = FittedPeq(make_params(), m_ref=4800.0, fs=48000.0)
    scaled = scale_to_delay(fitted, 1200.0)
    for before, after in zip(fitted.params.bands, scaled.bands):
        assert after.gain_db == pytest.approx(before.gain_db * 0.25)
        assert after.fc_hz == before.fc_hz
        assert after.q == before.q
        assert after.kind == before.kind


def test_scale_to_delay_approximately_preserves_t60():
    # Proportional dB-gain scaling keeps each line's T60 close to the
    # reference; band shapes are not linear in gain off-center, so the drift
    # is nonzero and grows with the scale factor (worst between centers).
    fitted = FittedPeq(make_params(), m_ref=4800.0, fs=48000.0)
    freqs = np.geomspace(20.0, 20000.0, 128)
    t60_ref = achieved_t60(fitted.params, 4800.0, 48000.0, freqs)
    for m_k, tol in ((480.0, 0.03), (2400.0, 0.03), (9600.0, 0.08), (14400.0, 0.2)):
        scaled = scale_to_delay(fitted, m_k)
        t60_k = achieved_t60(scaled, m_k, 48000.0, freqs)
        assert np.allclose(t60_k, t60_ref, rtol=tol)


def test_scale_to_delay_validation():
    fitted = FittedPeq(make_params(), m_ref=4800.0, fs=48000.0)
    with pytest.raises(InvalidParameterError):
        scale_to_delay(fitted, 0.0)


def test_fitted_peq_roundtrips_through_dict():
    fitted = FittedPeq(make_params(), m_ref=4800.0, fs=48000.0)
    doc = fitted.to_dict()
    back = FittedPeq.from_dict(doc)
    assert back.m_ref == fitted.m_ref
    assert back.fs == fitted.fs
    assert back.params.bands == fitted.params.bands


def test_fitted_peq_from_dict_rejects_malformed():
    with pytest.raises(InvalidParameterError, match="malformed"):
        FittedPeq.from_dict({"fs": 48000.0})
    with pytest.raises(InvalidParameterError, match="malformed"):
        FittedPeq.from_dict({"fs": 48000.0, "m_ref": 4800.0, "bands": [{"kind": "notch"}]})


def test_fitted_peq_validation():
    with pytest.raises(InvalidParameterError):
        FittedPeq(make_params(), m_ref=0.0, fs=48000.0)
    with pytest.raises(InvalidParameterError):
        FittedPeq(make_params(), m_ref=4800.0, fs=-1.0)
