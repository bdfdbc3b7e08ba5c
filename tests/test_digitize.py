"""Biquad conversion: anchor matching, stability, cascade response, export."""

import math
import warnings

import numpy as np
import pytest

from peqfdn import (
    BandKind,
    BandParams,
    FitConfig,
    FittedPeq,
    InvalidParameterError,
    PeqParams,
    SosCascade,
    band_magnitude,
    band_to_biquad,
    default_delays,
    digital_magnitude,
    digitization_report,
    fit,
    network_to_sos,
    peq_to_sos,
    scale_to_delay,
    sos_to_csv,
    sos_to_dict,
)
from peqfdn import digitize
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


# The packaged median table fitted at CLI defaults (12 bands, m_ref 4800 at
# 48 kHz), as (kind, fc_hz, gain_db, q).
MEDIAN_FIT_BANDS = (
    ("low_shelf", 23.82860518085461, -9.094247702307474, 0.4570861604024574),
    ("bell", 35.39685571209067, -0.6951252195236289, 0.5239204719921449),
    ("bell", 66.52801329851752, -1.7597813132821023, 0.5401904522869923),
    ("bell", 114.9547793868099, -1.02827075824779, 0.6074086054856713),
    ("bell", 257.1000747182248, -1.9689929461138194, 0.6304374376222894),
    ("bell", 724.8551014909881, -4.8996110040442336, 0.42544990918570313),
    ("bell", 1548.5255371618912, -0.5647762014988491, 0.7830232445709765),
    ("bell", 5518.628742968542, -5.792602393259142, 0.3887277005053702),
    ("bell", 10376.971973328687, -5.115339546767654, 0.8869871007236819),
    ("bell", 12428.374426632974, -1.755882781230235, 1.6624503358249574),
    ("bell", 14643.31439428658, -0.28730008035296906, 3.311121966239952),
    ("high_shelf", 15751.260858799173, -8.865600679194243, 1.2057724654191107),
)


# Two synthetic tables' fits at CLI defaults whose high shelf sits above
# Nyquist, pinned at 0.7 Nyquist.  On some lines its best p jumps to
# another basin of the score, and a warm start from the line before stays
# in the old one.  The first shelf (31.5 kHz, Q 3.9) does so between the
# 4279- and 5759-sample lines, where that lands 2.2 dB worse below 0.7
# Nyquist but fails the score test.  The second (34.8 kHz, Q 4.7) does so
# on the 3711-sample line of SHELF_BASIN_DELAYS and lands 0.03 dB worse,
# with a score that passes: such corners get no warm start.
SHELF_ABOVE_NYQUIST_BANDS = (
    ("low_shelf", 48.02172855760348, -2.0702594831852017, 0.5359987170863993),
    ("bell", 78.98408100698555, -1.7522073788900778, 0.4506969689862667),
    ("bell", 187.80898077474546, -1.551919121932992, 0.47628217113297566),
    ("bell", 420.1573770111355, -2.7170667921203284, 0.4446686953056785),
    ("bell", 948.5300121631273, -3.805269906872316, 0.43373220200016965),
    ("bell", 1926.3402616812398, -5.6754777557945415, 0.40586089032328815),
    ("bell", 3745.854240488757, -7.036037218211026, 0.37828995120170783),
    ("bell", 7975.024179464396, -6.453661420586412, 0.4220462697760883),
    ("bell", 14285.178157230619, -6.285638535797456, 0.5802121429211419),
    ("bell", 19827.916958360183, -5.093722213055883, 0.9714160376236208),
    ("bell", 21407.397641493957, -11.876716687645803, 1.9749036568423417),
    ("high_shelf", 31548.519686459058, -13.620628410278796, 3.8728531117890475),
)
SHELF_BASIN_BANDS = (
    ("low_shelf", 34.837330655138416, -1.4813904744739679, 0.6241321183231554),
    ("bell", 47.94891965510167, -1.9534151630785923, 0.4798571135414424),
    ("bell", 123.24453488352623, -0.9092427672881572, 0.49920134917414716),
    ("bell", 280.66288489925705, -0.9252125395899178, 0.495583324416801),
    ("bell", 664.6186931765687, -1.5119803104819476, 0.4870827993727134),
    ("bell", 1353.819931459471, -2.473652708602571, 0.5134556508642386),
    ("bell", 2450.373832293787, -4.638221377000955, 0.48976932794946243),
    ("bell", 4435.487772491883, -6.785788721379569, 0.42750571299820417),
    ("bell", 10489.339106253114, -7.088450057795314, 0.3840687783430556),
    ("bell", 21408.079435177617, -6.099531682163937, 1.0496367657274916),
    ("bell", 22505.854833294383, -8.021189370742787, 3.2135944983999476),
    ("high_shelf", 34827.28414660025, -15.044429719789418, 4.677569862044572),
)
SHELF_BASIN_DELAYS = [
    732, 767, 782, 796, 845, 853, 884, 927, 942, 969, 1014, 1033, 1096, 1108, 1138, 1193,
    1243, 1268, 1313, 1339, 1387, 1433, 1494, 1537, 1602, 1624, 1692, 1787, 1819, 1848, 1938,
    2016, 2076, 2162, 2186, 2285, 2334, 2458, 2483, 2605, 2697, 2767, 2885, 2935, 3097, 3156,
    3311, 3376, 3523, 3581, 3711, 3863, 3980, 4051, 4192, 4431, 4489, 4715, 4760, 5008, 5134,
    5345, 5436, 5697,
]


def fitted_from(bands):
    rows = [dict(zip(("kind", "fc_hz", "gain_db", "q"), band)) for band in bands]
    return FittedPeq.from_dict({"fs": FS, "m_ref": 4800, "bands": rows})


def median_fit():
    return fitted_from(MEDIAN_FIT_BANDS)


def shuffled(delays, seed=3):
    delays = list(delays)
    np.random.default_rng(seed).shuffle(delays)
    return delays


def shuffled_delays(n_lines):
    return shuffled(default_delays(n_lines, *DEFAULT_DELAY_RANGE_S, FS))


def full_search(fitted, delays):
    return [peq_to_sos(scale_to_delay(fitted, m), FS) for m in delays]


def test_network_shortest_line_is_the_full_search():
    fitted = median_fit()
    delays = shuffled_delays(64)
    shortest = int(np.argmin(delays))
    assert shortest != 0
    cascades = network_to_sos(fitted, delays)
    want = peq_to_sos(scale_to_delay(fitted, delays[shortest]), FS)
    assert cascades[shortest].sections.tobytes() == want.sections.tobytes()


@pytest.mark.parametrize(
    "bands, delays",
    [
        (MEDIAN_FIT_BANDS, shuffled_delays(8)),
        (MEDIAN_FIT_BANDS, shuffled_delays(64)),
        (SHELF_ABOVE_NYQUIST_BANDS, shuffled_delays(8)),
        (SHELF_BASIN_BANDS, shuffled(SHELF_BASIN_DELAYS)),
    ],
    ids=["median-8", "median-64", "shelf_above_nyquist-8", "shelf_basin-64"],
)
def test_network_lines_track_the_full_search(bands, delays):
    # Each line comes back in the caller's order, and its worst deviation
    # below 0.7 Nyquist is within 0.01 dB of what the full search gives it.
    # The warm stage runs on the full search's own lattice of p, so its
    # sections differ from the full search's at most by rounding; centred
    # on the line before's p instead, they differ by up to 4e-3 here.
    fitted = fitted_from(bands)
    freqs = np.geomspace(20.0, 0.7 * FS / 2, 400)
    warm = network_to_sos(fitted, delays)
    full = full_search(fitted, delays)
    assert [c.fs for c in warm] == [FS] * len(delays)
    for m, got, want in zip(delays, warm, full):
        assert np.abs(got.sections - want.sections).max() <= 1e-14
        params = scale_to_delay(fitted, m)
        dev_warm = digitization_report(params, got, freqs)["max_abs_dev_below_db"]
        dev_full = digitization_report(params, want, freqs)["max_abs_dev_below_db"]
        assert dev_warm <= dev_full + 0.01


def test_network_equal_delays_share_one_cascade():
    fitted = median_fit()
    first, again, other = network_to_sos(fitted, [971, 971, 720])
    assert first is again
    assert other.sections.tobytes() == full_search(fitted, [720])[0].sections.tobytes()


def test_network_refusals_name_the_line():
    fitted = median_fit()
    with pytest.raises(InvalidParameterError, match="delay line of 0 samples: m_k"):
        network_to_sos(fitted, [720, 0, -5])
    # The 4799999-sample line scales the bands past what the digitizer designs.
    with np.errstate(all="ignore"), pytest.raises(
        InvalidParameterError, match="delay line of 4799999 samples: .*no finite, stable section"
    ):
        network_to_sos(fitted, [4799999, 720])


def count_scores(monkeypatch):
    calls = []
    score = digitize._score_trials

    def counting_score(*args):
        calls.append(args[0].size)
        return score(*args)

    monkeypatch.setattr(digitize, "_score_trials", counting_score)
    return calls


def test_warm_start_runs_one_stage_and_falls_back_to_the_full_search(monkeypatch):
    band = scale_to_delay(median_fit(), 1753).bands[-1]
    pins = digitize._pins(band.fc_hz, FS)
    calls = count_scores(monkeypatch)
    full_row, (p_full, worst_full) = digitize._design(band, pins)
    assert len(calls) == 2
    _, (d2, _, d0) = digitize.analog_coeffs(band)
    p_analog = d2 / d0 * (pins.f_pin / band.fc_hz) ** 2
    lowest = p_analog * digitize._STAGE_FACTORS[0][0]
    # Started from its own result, the second stage alone finds as good a
    # section (the same one up to the rounding of its centre).
    calls.clear()
    _, (p_warm, worst_warm) = digitize._design(band, pins, (p_full, worst_full))
    assert len(calls) == 1
    assert worst_warm <= worst_full * (1.0 + 1e-12)
    assert p_warm == pytest.approx(p_full, rel=1e-12)
    cases = [
        # (the band's p and worst score on the line before, score calls)
        ((lowest, np.inf), 3),  # the best trial lies at the stage's upper edge
        ((p_full, 1.0 + 1e-12), 3),  # the score is far worse than the line before's
        ((1e6 * p_analog, np.inf), 2),  # outside the first stage: no second stage first
    ]
    for prev, n_calls in cases:
        calls.clear()
        row, found = digitize._design(band, pins, prev)
        assert len(calls) == n_calls
        assert row.tobytes() == full_row.tobytes()
        assert found == (p_full, worst_full)


def test_a_line_over_twice_as_long_gets_no_warm_start(monkeypatch):
    # From 720 to 5759 samples every band's error grows about 8x, past the
    # score test, so the second stage alone would only add a third.
    calls = count_scores(monkeypatch)
    network_to_sos(median_fit(), [5759, 720])
    assert len(calls) == 2 * 2 * len(MEDIAN_FIT_BANDS)
    calls.clear()
    network_to_sos(median_fit(), [1303, 720])
    assert len(calls) < 2 * 2 * len(MEDIAN_FIT_BANDS)


def test_network_fallbacks_give_the_full_search(monkeypatch):
    # At the 8 default delays the gain steps by up to 1.35x a line, and
    # some bands' best trial leaves the second stage: those fall back.
    fitted = median_fit()
    delays = default_delays(8, *DEFAULT_DELAY_RANGE_S, FS)
    calls = count_scores(monkeypatch)
    fallbacks = []
    design = digitize._design

    def recording_design(band, pins, prev=None):
        before = len(calls)
        out = design(band, pins, prev)
        if prev is not None and len(calls) - before > 1:
            fallbacks.append((band, out[0]))
        return out

    monkeypatch.setattr(digitize, "_design", recording_design)
    network_to_sos(fitted, delays)
    assert fallbacks
    monkeypatch.setattr(digitize, "_design", design)
    for band, row in fallbacks:
        assert row.tobytes() == band_to_biquad(band, FS).sections.tobytes()
