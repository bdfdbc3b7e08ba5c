"""T60 table parsing, grid construction, and gain-target conversion."""

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
        ("freq_hz,t60_s\n125,1.2\n", "at least 2"),
    ],
)
def test_load_t60_table_rejects_malformed(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_t60_table(text)


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
