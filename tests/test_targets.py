"""T60 table parsing, grid construction, and gain-target conversion."""

import time

import numpy as np
import pytest

from peqfdn import (
    InvalidParameterError,
    ParseError,
    T60Curve,
    interpolate_to_grid,
    load_t60_table,
    target_magnitude,
)
from peqfdn.targets import FrequencyGrid

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
