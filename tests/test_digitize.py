"""Biquad conversion: anchor matching, stability, cascade response, export."""

import math
import warnings

import numpy as np
import pytest

from peqfdn import (
    BandKind,
    BandParams,
    FitConfig,
    InvalidParameterError,
    PeqParams,
    SosCascade,
    band_magnitude,
    band_to_biquad,
    default_delays,
    digital_magnitude,
    digitization_report,
    fit,
    peq_to_sos,
    scale_to_delay,
    sos_to_csv,
    sos_to_dict,
)
from peqfdn.digitize import _biquad_mag_db
from peqfdn.fdn import DEFAULT_DELAY_RANGE_S
from peqfdn.targets import FrequencyGrid

FS = 48000.0


def gentle_params():
    return PeqParams(
        (
            BandParams(BandKind.LOW_SHELF, 100.0, -5.0, 0.8),
            BandParams(BandKind.BELL, 500.0, -2.5, 1.2),
            BandParams(BandKind.BELL, 2500.0, -1.5, 1.2),
            BandParams(BandKind.HIGH_SHELF, 9000.0, -4.0, 0.8),
        )
    )


KINDS = (BandKind.BELL, BandKind.LOW_SHELF, BandKind.HIGH_SHELF)


def random_band(rng, fc_hi=0.45 * FS):
    return BandParams(
        kind=KINDS[int(rng.integers(0, 3))],
        fc_hz=float(rng.uniform(30.0, fc_hi)),
        gain_db=float(rng.uniform(-24.0, 6.0)),
        q=float(rng.uniform(0.4, 6.0)),
    )


def analog_db(band, f):
    return 20.0 * np.log10(band_magnitude(f, band))


def section(b0=1.0, b1=0.0, b2=0.0, a0=1.0, a1=0.0, a2=0.0):
    return [b0, b1, b2, a0, a1, a2]


def test_biquad_stability_validation():
    with pytest.raises(InvalidParameterError, match="unstable"):
        SosCascade([section(a2=1.0)], FS)
    with pytest.raises(InvalidParameterError, match="unstable"):
        SosCascade([section(a1=-2.0, a2=0.9)], FS)
    # Every row is checked, not only the first.
    with pytest.raises(InvalidParameterError, match="section 1"):
        SosCascade([section(), section(a1=-2.0, a2=0.9)], FS)
    with pytest.raises(InvalidParameterError):
        SosCascade([section(b0=float("nan"))], FS)
    with pytest.raises(InvalidParameterError, match="a0 = 1"):
        SosCascade([section(a0=2.0)], FS)


def test_cascade_validation():
    for shape in ((0, 6), (6,), (2, 5)):
        with pytest.raises(InvalidParameterError, match="6\\) array"):
            SosCascade(np.zeros(shape), FS)
    for fs in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="fs"):
            SosCascade([section()], fs)
    rows = [section(), section(b0=0.5)]
    cascade = SosCascade(rows, FS)
    assert cascade.sections.shape == (2, 6)
    assert cascade.sections.dtype == np.float64
    assert cascade.sections.flags.c_contiguous
    assert cascade.sections.tolist() == rows
    with pytest.raises(ValueError):
        cascade.sections[0, 0] = 2.0


def test_zero_gain_band_becomes_identity():
    # A gain too small to move A = 10^(G/40) off 1.0 is a 0 dB band too.
    for kind in BandKind:
        for gain_db in (0.0, -1e-16, 1e-16, -1e-300, 1e-300):
            band = BandParams(kind, 1000.0, gain_db, 0.7)
            assert band.amplitude == 1.0
            assert band_to_biquad(band, FS).sections.tolist() == [section()]
        # The smallest gains that do move A are designed, not made flat.
        for gain_db in (-3e-15, 3e-15):
            band = BandParams(kind, 1000.0, gain_db, 0.7)
            assert band.amplitude != 1.0
            assert band_to_biquad(band, FS).sections.tolist() != [section()]
    # Bells whose A is one ulp below 1.0 are exactly 1.0 at every design
    # point, so there is nothing to fit: they used to be refused.
    for gain_db in (-9.659672580093841e-16, -1.822433244262665e-15, -2.842065516274511e-15):
        band = BandParams(BandKind.BELL, 1000.0, gain_db, 0.7)
        assert band.amplitude != 1.0
        assert band_to_biquad(band, FS).sections.tolist() == [section()]


def test_band_to_biquad_rejects_bad_rates():
    band = BandParams(BandKind.BELL, 1000.0, -3.0, 1.0)
    for fs in (0.0, -1.0, math.nan, math.inf, 1e300):
        with pytest.raises(InvalidParameterError, match="fs must be"):
            band_to_biquad(band, fs)


@pytest.mark.parametrize("fc_hz, q", [(1e-6, 0.7), (1000.0, 1e-100), (1000.0, 1e-300)])
def test_band_to_biquad_refusal_names_the_band_without_blaming_the_gain(fc_hz, q):
    # A shallow bell is refused for its corner or its Q; a Q of 1e-300 used
    # to overflow (d1/d0)**2 with a bare OverflowError.
    band = BandParams(BandKind.BELL, fc_hz, -0.3, q)
    with np.errstate(all="ignore"), pytest.raises(InvalidParameterError) as err:
        band_to_biquad(band, FS)
    assert f"bell band of -0.3 dB at {fc_hz:.6g} Hz (Q {q:.6g})" in str(err.value)
    assert "past the gains" not in str(err.value)


@pytest.mark.parametrize(
    "kind, gain_db",
    [(BandKind.BELL, -600.0), (BandKind.HIGH_SHELF, -600.0), (BandKind.LOW_SHELF, -1000.0)],
)
def test_band_to_biquad_refuses_a_gain_it_cannot_design(kind, gain_db):
    # These designs come out non-finite; the refusal names the band, not NaNs.
    band = BandParams(kind, 1000.0, gain_db, 0.7)
    with np.errstate(all="ignore"), pytest.raises(InvalidParameterError) as err:
        band_to_biquad(band, FS)
    assert f"{kind.value} band of {gain_db:g} dB at 1000 Hz" in str(err.value)
    assert "nan" not in str(err.value)


def test_trial_that_reaches_zero_scores_without_a_warning():
    # A -0.77 dB bell from a 971-sample line of a fitted design: one of its
    # trial sections reaches 0 on the design grid, which used to divide by 0.
    band = BandParams(
        BandKind.BELL,
        float.fromhex("0x1.d0c0c2892ce3cp+7"),
        float.fromhex("-0x1.8a6136784135ep-1"),
        float.fromhex("0x1.79708f53a73d7p-1"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = band_to_biquad(band, 48000.0)
    assert [value.hex() for value in coeffs.sections[0].tolist()] == [
        "0x1.ff1334cfb86e2p-1",
        "-0x1.f4f383bcbd946p+0",
        "0x1.eb4a874acb92dp-1",
        "0x1.0000000000000p+0",
        "-0x1.f4f57ac3b506dp+0",
        "0x1.ea61aa2872e5cp-1",
    ]


def test_band_to_biquad_matches_analog_at_anchors(rng):
    for _ in range(200):
        band = random_band(rng)
        coeffs = band_to_biquad(band, FS)
        # Center frequency, exact to small multiples of rounding.
        got = _biquad_mag_db(coeffs, np.array([band.fc_hz]))[0]
        want = analog_db(band, band.fc_hz)
        assert 10.0 ** (got / 20.0) == pytest.approx(10.0 ** (want / 20.0), rel=1e-6)
        # DC and Nyquist pin to the analog response at 0 Hz and fs/2.
        dc = _biquad_mag_db(coeffs, np.array([0.0]))[0]
        ny = _biquad_mag_db(coeffs, np.array([FS / 2]))[0]
        assert dc == pytest.approx(analog_db(band, 0.0), abs=1e-6)
        assert ny == pytest.approx(analog_db(band, FS / 2), abs=1e-6)


def test_corners_above_nyquist_pin_at_seven_tenths_nyquist(rng):
    # A corner at or above Nyquist has no fc to pin on the unit circle; the
    # section matches the analog band at DC, 0.7 Nyquist and Nyquist instead.
    anchors = np.array([0.0, 0.35 * FS, 0.5 * FS])
    for _ in range(100):
        band = BandParams(
            kind=KINDS[int(rng.integers(0, 3))],
            fc_hz=float(rng.uniform(0.5 * FS, 2.0 * FS)),
            gain_db=float(rng.uniform(-24.0, 6.0)),
            q=float(rng.uniform(0.4, 6.0)),
        )
        got = _biquad_mag_db(band_to_biquad(band, FS), anchors)
        assert np.allclose(got, analog_db(band, anchors), atol=1e-6)


def test_band_to_biquad_is_always_stable(rng):
    # The SosCascade constructor enforces the stability triangle, so
    # surviving construction for a wide random population is the check.
    for fs in (44100.0, 48000.0, 96000.0):
        for _ in range(100):
            band = random_band(rng, fc_hi=0.45 * fs)
            band_to_biquad(band, fs)


@pytest.mark.parametrize("seed", range(40))
def test_band_to_biquad_tracks_analog_below_cramping_region(seed):
    # Bands whose response settles below 0.7 Nyquist digitize to a fraction
    # of a dB there.  Shelves are drawn low enough that their transition,
    # which spans about a decade above fc, completes inside the window;
    # shelves parked against Nyquist are covered by the anchor test above.
    rng = np.random.default_rng(seed)
    freqs = np.geomspace(20.0, 0.7 * FS / 2, 300)
    for _ in range(100):
        kind = KINDS[int(rng.integers(0, 3))]
        if kind is BandKind.BELL:
            fc = float(rng.uniform(40.0, 10000.0))
            q = float(rng.uniform(0.5, 4.0))
        else:
            fc = float(rng.uniform(40.0, 2000.0))
            q = float(rng.uniform(0.5, 1.0))
        band = BandParams(
            kind=kind, fc_hz=fc, gain_db=float(rng.uniform(-12.0, 6.0)), q=q
        )
        coeffs = band_to_biquad(band, FS)
        dev = np.abs(_biquad_mag_db(coeffs, freqs) - analog_db(band, freqs))
        assert dev.max() <= 0.6


def test_median_fit_sections_track_analog_on_a_dense_grid(median_curve):
    # The packaged median curve fitted as the CLI does by default, exported
    # to 64 lines.  The 3000-point check grid, far denser than the design
    # grid, shows a narrow pole-zero pair that falls between design points.
    cfg = FitConfig(
        n_bands=12, iterations=10000, learning_rate=0.1, seed=0,
        grid=FrequencyGrid.log_spaced(FS, size=512),
    )
    fitted, _ = fit(median_curve, 4800.0, FS, cfg)
    freqs = np.geomspace(20.0, 0.995 * FS / 2, 3000)
    below = freqs <= 0.7 * FS / 2
    for m in default_delays(64, *DEFAULT_DELAY_RANGE_S, FS):
        for band in scale_to_delay(fitted, m).bands:
            coeffs = band_to_biquad(band, FS)
            dev = np.abs(_biquad_mag_db(coeffs, freqs) - analog_db(band, freqs))
            assert dev[below].max() <= 0.5
            assert dev.max() <= 0.6


def test_digital_magnitude_includes_dc_and_nyquist():
    params = gentle_params()
    edges = np.array([0.0, FS / 2])
    want = sum(analog_db(band, edges) for band in params.bands)
    sos = peq_to_sos(params, FS)
    assert np.allclose(digital_magnitude(sos, edges), want, atol=1e-6)
    for outside in (-1.0, FS / 2 + 1.0):
        with pytest.raises(InvalidParameterError):
            digital_magnitude(sos, [outside])


def test_peq_to_sos_section_per_band():
    params = gentle_params()
    sos = peq_to_sos(params, FS)
    assert len(sos.sections) == params.n_bands
    assert sos.fs == FS


def test_cascade_magnitude_is_sum_of_sections():
    params = gentle_params()
    sos = peq_to_sos(params, FS)
    freqs = np.geomspace(20.0, 23000.0, 100)
    total = np.zeros_like(freqs)
    for row in sos.sections:
        total += _biquad_mag_db(SosCascade(row[None], FS), freqs)
    # Same section arithmetic, summed in the same order: equal to the bit.
    assert np.array_equal(digital_magnitude(sos, freqs), total)


def test_identity_cascade_is_flat():
    sos = SosCascade([section()], FS)
    freqs = np.geomspace(20.0, 23000.0, 50)
    assert np.allclose(digital_magnitude(sos, freqs), 0.0, atol=1e-12)


def test_sos_csv_roundtrip_is_exact():
    sos = peq_to_sos(gentle_params(), FS)
    text = sos_to_csv(sos)
    lines = text.strip().splitlines()
    assert lines[0] == "b0,b1,b2,a0,a1,a2"
    assert len(lines) == 1 + len(sos.sections)
    for line, row in zip(lines[1:], sos.sections.tolist()):
        assert [float(cell) for cell in line.split(",")] == row


def test_sos_to_dict_shape():
    sos = peq_to_sos(gentle_params(), FS)
    doc = sos_to_dict(sos)
    assert doc["fs"] == FS
    assert len(doc["sections"]) == len(sos.sections)
    first = doc["sections"][0]
    assert set(first) == {"b0", "b1", "b2", "a0", "a1", "a2"}
    assert first["a0"] == 1.0


def test_digitization_report_sections_and_bound():
    freqs = np.geomspace(20.0, 0.999 * FS / 2, 400)
    params = gentle_params()
    report = digitization_report(params, peq_to_sos(params, FS), freqs)
    assert report["split_hz"] == pytest.approx(0.7 * FS / 2)
    assert report["max_abs_dev_below_db"] <= 0.5
    assert report["max_abs_dev_above_db"] >= 0.0
