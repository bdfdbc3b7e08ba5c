"""T60 table parsing, grid construction, gain-target conversion, and the shared rules."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peqfdn import (
    BandKind,
    BandParams,
    FittedPeq,
    InvalidParameterError,
    NonDecayingResponseError,
    ParseError,
    PeqParams,
    T60Curve,
    achieved_t60,
    band_magnitude,
    digital_magnitude,
    digitization_report,
    interpolate_to_grid,
    load_t60_table,
    peq_log_magnitude,
    peq_to_sos,
    target_magnitude,
)
from peqfdn.targets import FrequencyGrid, check_decays, check_finite, check_positive

GOOD_TABLE = "freq_hz,t60_s\n125,1.2\n1000,0.9\n8000,0.5\n"


def test_load_t60_table_parses_and_names():
    curve = load_t60_table(GOOD_TABLE, name="room")
    assert curve.name == "room"
    assert curve.freq_hz.tolist() == [125.0, 1000.0, 8000.0]
    assert curve.t60_s.tolist() == [1.2, 0.9, 0.5]


def test_load_t60_table_sorts_rows():
    curve = load_t60_table("freq_hz,t60_s\n8000,0.5\n125,1.2\n1000,0.9\n")
    assert np.all(np.diff(curve.freq_hz) > 0)
    assert curve.t60_s.tolist() == [1.2, 0.9, 0.5]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("hz,seconds\n125,1.2\n1000,0.9\n", "header"),
        ("freq_hz,t60_s\n125,1.2,extra\n1000,0.9\n", "2 columns"),
        ("freq_hz,t60_s\n125,abc\n1000,0.9\n", "non-numeric"),
        ("freq_hz,t60_s\n-125,1.2\n1000,0.9\n", "frequency"),
        ("freq_hz,t60_s\n125,0\n1000,0.9\n", "T60"),
        ("freq_hz,t60_s\n125,1.2\n125,0.9\n", "duplicate"),
        # The blank line still counts, so both line numbers are the file's.
        ("freq_hz,t60_s\n125,1.2\n\n125,0.9\n", r"line 4: duplicate .* 125 Hz \(first on line 2\)"),
        ("freq_hz,t60_s\n125,1.2\n", "at least 2"),
    ],
)
def test_load_t60_table_rejects_malformed(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_t60_table(text)


def test_load_t60_table_time_grows_linearly_with_rows():
    # The duplicate check is a dict lookup per row; a list scan took 15 s for
    # 40 000 rows, and would take minutes for these.
    freqs = np.geomspace(1.0, 1e6, 100_000).tolist()
    text = "freq_hz,t60_s\n" + "".join(f"{f!r},1.0\n" for f in freqs)
    started = time.perf_counter()
    curve = load_t60_table(text)
    assert time.perf_counter() - started < 5.0
    assert curve.freq_hz.tolist() == freqs
    with pytest.raises(ParseError, match=r"line 100002: duplicate .* \(first on line 2\)"):
        load_t60_table(text + f"{freqs[0]!r},2.0\n")


def test_t60_curve_validation():
    with pytest.raises(InvalidParameterError):
        T60Curve(np.array([100.0]), np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        T60Curve(np.array([100.0, 100.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        T60Curve(np.array([100.0, 200.0]), np.array([1.0, -1.0]))


def test_log_spaced_grid_shape_and_bounds():
    grid = FrequencyGrid.log_spaced(48000.0, size=512)
    assert grid.size == 512
    assert grid.freqs[0] == pytest.approx(20.0)
    assert grid.freqs[-1] < 24000.0
    assert np.all(np.diff(grid.freqs) > 0)
    # Uniform in log f.
    steps = np.diff(np.log(grid.freqs))
    assert np.allclose(steps, steps[0], rtol=1e-9)


def test_log_spaced_grid_validation():
    with pytest.raises(InvalidParameterError):
        FrequencyGrid.log_spaced(48000.0, size=1)
    with pytest.raises(InvalidParameterError, match="grid size must be an integer, got 2.5"):
        FrequencyGrid.log_spaced(48000.0, size=2.5)
    with pytest.raises(InvalidParameterError):
        FrequencyGrid.log_spaced(-48000.0)
    with pytest.raises(InvalidParameterError):
        FrequencyGrid.log_spaced(40.0)  # Nyquist at the 20 Hz floor
    with pytest.raises(InvalidParameterError):
        FrequencyGrid(np.array([100.0, 100.0, 200.0]))


def test_interpolation_is_linear_in_log_frequency():
    curve = load_t60_table("freq_hz,t60_s\n100,1.0\n10000,3.0\n")
    grid = FrequencyGrid(np.array([100.0, 1000.0, 10000.0]))
    t60 = interpolate_to_grid(curve, grid)
    # 1000 Hz is the log midpoint of 100 and 10000.
    assert t60.tolist() == pytest.approx([1.0, 2.0, 3.0])


def test_interpolation_extrapolates_flat():
    curve = load_t60_table(GOOD_TABLE)
    grid = FrequencyGrid(np.array([20.0, 125.0, 8000.0, 20000.0]))
    t60 = interpolate_to_grid(curve, grid)
    assert t60[0] == pytest.approx(1.2)
    assert t60[-1] == pytest.approx(0.5)


def test_target_magnitude_gain_law():
    # T60 = 1 s at m = 4800, fs = 48 kHz is a tenth of the decay: -6 dB.
    assert target_magnitude(1.0, 4800.0, 48000.0) == pytest.approx(-6.0)
    t60 = np.array([0.5, 1.0, 2.0])
    db = target_magnitude(t60, 4800.0, 48000.0)
    assert db == pytest.approx([-12.0, -6.0, -3.0])
    assert np.all(db < 0)


def test_target_magnitude_scales_linearly_with_delay():
    t60 = np.array([0.7, 1.3])
    one = target_magnitude(t60, 1000.0, 48000.0)
    three = target_magnitude(t60, 3000.0, 48000.0)
    assert three == pytest.approx(3.0 * one)


def test_target_magnitude_validation():
    with pytest.raises(InvalidParameterError):
        target_magnitude(1.0, 0.5, 48000.0)
    with pytest.raises(InvalidParameterError):
        target_magnitude(-1.0, 4800.0, 48000.0)
    with pytest.raises(InvalidParameterError):
        target_magnitude(1.0, 4800.0, 0.0)
    # A fit at 1e300 Hz overflows its kernel; the rate is refused as input.
    assert target_magnitude(1.0, 1e6, 1e7) == pytest.approx(-6.0)
    for fs in (1.0000001e7, 1e300, float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError, match="fs must be"):
            target_magnitude(1.0, 4800.0, fs)


def test_target_magnitude_refuses_a_target_below_minus_6000_db():
    # T60 = m_k / (100 fs) asks for exactly -6000 dB per pass.
    assert target_magnitude(np.array([1.0, 0.001]), 4800.0, 48000.0)[1] == pytest.approx(-6000.0)
    for t60 in (0.0009, 1e-300):
        with pytest.raises(InvalidParameterError, match=f"T60 {t60:g} s"):
            target_magnitude(np.array([1.0, t60]), 4800.0, 48000.0)


def test_check_finite_and_check_positive_name_the_first_offending_entry():
    check_finite(0.0, "x")
    check_finite(np.array([-1.0, 0.0, 2.0]), "x")
    check_positive(np.array([1e-300, 2.0]), "x")
    with pytest.raises(InvalidParameterError, match=r"^x must be finite, got nan$"):
        check_finite(math.nan, "x")
    with pytest.raises(InvalidParameterError, match=r"^x must be finite and > 0, got 0.0$"):
        check_positive(0.0, "x")
    with pytest.raises(InvalidParameterError, match=r"^x must be finite and > 0, got inf$"):
        check_positive(math.inf, "x")
    with pytest.raises(InvalidParameterError, match=r"^x\[2\] is -inf, must be finite$"):
        check_finite([1.0, 2.0, -math.inf, math.nan], "x")
    with pytest.raises(InvalidParameterError, match=r"^x\[1\] is -1.0, must be finite and > 0$"):
        check_positive([1.0, -1.0, 0.0], "x")
    with pytest.raises(InvalidParameterError, match=r"^x\[1, 0\] is nan, must be finite and > 0$"):
        check_positive([[1.0, 2.0], [math.nan, 1.0]], "x")


def test_check_decays_refuses_nan_and_inf():
    freqs = np.array([100.0, 1000.0])
    # np.argmax stops at the first NaN, and NaN >= 0 is False: a NaN used to
    # hide the +5 dB behind it.
    for response in ([math.nan, 5.0], [-1.0, math.nan], [-1.0, math.inf]):
        with pytest.raises(NonDecayingResponseError, match="must stay below 0 dB"):
            check_decays(np.array(response), freqs)
    # A transmission zero, -inf dB, decays.
    check_decays(np.array([-math.inf, -3.0]), freqs)


# One valid input of each frequency and value evaluator: a bell of -6 dB at
# 1 kHz between flat shelves, its cascade at 48 kHz, and a fit of it.
_PARAMS = PeqParams(
    (
        BandParams(BandKind.LOW_SHELF, 80.0, 0.0, 0.7),
        BandParams(BandKind.BELL, 1000.0, -6.0, 1.0),
        BandParams(BandKind.HIGH_SHELF, 8000.0, 0.0, 0.7),
    )
)
_FITTED = FittedPeq(_PARAMS, m_ref=4800.0, fs=48000.0)
_SOS = peq_to_sos(_PARAMS, 48000.0)
FREQUENCY_EVALUATORS = {
    "band_magnitude": lambda f: band_magnitude(f, _PARAMS.bands[1]),
    "peq_log_magnitude": lambda f: peq_log_magnitude(_PARAMS, f),
    "digital_magnitude": lambda f: digital_magnitude(_SOS, f),
    "achieved_t60": lambda f: achieved_t60(_FITTED, f),
    "digitization_report": lambda f: digitization_report(_PARAMS, _SOS, f),
    "T60Curve freq_hz": lambda f: T60Curve(f, np.ones_like(f)),
    "FrequencyGrid": FrequencyGrid,
}
VALUE_EVALUATORS = {
    "T60Curve t60_s": lambda v: T60Curve(np.geomspace(20.0, 20000.0, v.size), v),
    "target_magnitude": lambda v: target_magnitude(v, 4800.0, 48000.0),
}


@st.composite
def non_finite_entry(draw):
    """An evaluator, a valid input for it with one entry replaced, and that entry."""
    name = draw(st.sampled_from(sorted(FREQUENCY_EVALUATORS) + sorted(VALUE_EVALUATORS)))
    size = draw(st.integers(2, 64))
    if name in FREQUENCY_EVALUATORS:
        values = np.geomspace(20.0, 20000.0, size)
    else:  # T60s in seconds
        values = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=size, max_size=size)))
    index = draw(st.integers(0, size - 1))
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    values[index] = bad
    return name, values, index, bad


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=non_finite_entry())
def test_non_finite_entries_are_refused_by_index_and_value(case):
    name, values, index, bad = case
    evaluate = {**FREQUENCY_EVALUATORS, **VALUE_EVALUATORS}[name]
    with np.errstate(all="ignore"), pytest.raises(InvalidParameterError) as err:
        evaluate(values)
    assert f"[{index}] is {bad}, must be finite" in str(err.value), (name, str(err.value))
