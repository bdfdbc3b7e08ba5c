"""Campaign plumbing: error pooling, cost model, synthetic curves."""

import dataclasses
import math

import numpy as np
import pytest

from peqfdn import (
    BandKind,
    BandParams,
    CampaignError,
    CampaignResult,
    CurveReport,
    ErrorDistribution,
    FitConfig,
    FittedPeq,
    InvalidParameterError,
    NonDecayingResponseError,
    PeqParams,
    T60Curve,
    achieved_t60,
    evaluate,
    fit,
    op_count,
    run_campaign,
    synthetic_smooth_curves,
    t60_relative_error,
)
from peqfdn.evaluate import DEFAULT_DELAY_DRAW_S
from peqfdn.targets import FrequencyGrid, interpolate_to_grid

# Small grid and iteration counts keep campaign tests quick; quality
# thresholds here are loose because convergence is covered elsewhere.
QUICK_GRID = FrequencyGrid.log_spaced(48000.0, size=96)


def quick_cfg(n_bands=4, iterations=400, seed=0):
    return FitConfig(
        n_bands=n_bands,
        iterations=iterations,
        learning_rate=0.1,
        seed=seed,
        grid=QUICK_GRID,
    )


def test_op_count_values():
    assert op_count(4) == op_count(4)
    report = op_count(12)
    assert (report.ops_per_sample, report.parameters) == (108, 36)
    with pytest.raises(InvalidParameterError):
        op_count(0)
    with pytest.raises(InvalidParameterError):
        op_count(2.5)


def test_op_count_needs_at_least_3_bands():
    # A PEQ is two shelves and at least one bell.
    assert op_count(3).parameters == 9
    for n_bands in (1, 2):
        with pytest.raises(InvalidParameterError, match=f"at least 3 bands, got {n_bands}"):
            op_count(n_bands)
    with pytest.raises(InvalidParameterError, match="integer"):
        op_count(3.0)


def test_t60_relative_error_sign_and_value():
    # Achieving 1.9 s against a 2.0 s target is a +5% error.
    err = t60_relative_error(np.array([2.0]), np.array([1.9]))
    assert err[0] == pytest.approx(5.0)
    err = t60_relative_error(np.array([1.0]), np.array([1.25]))
    assert err[0] == pytest.approx(-25.0)
    with pytest.raises(InvalidParameterError):
        t60_relative_error(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        t60_relative_error(np.array([0.0]), np.array([1.0]))


def bell_peq(gain_db, m_ref=4800.0):
    # Flat shelves around one bell: the response at the bell's 1 kHz
    # center is exactly its gain.
    params = PeqParams(
        (
            BandParams(BandKind.LOW_SHELF, 80.0, 0.0, 0.7),
            BandParams(BandKind.BELL, 1000.0, gain_db, 1.0),
            BandParams(BandKind.HIGH_SHELF, 8000.0, 0.0, 0.7),
        )
    )
    return FittedPeq(params, m_ref=m_ref, fs=48000.0)


def test_achieved_t60_inverts_gain_law():
    # -6 dB per 4800 samples at 48 kHz decays 60 dB in one second.
    t60 = [achieved_t60(bell_peq(g), [1000.0])[0] for g in (-6.0, -12.0, -3.0)]
    assert t60 == pytest.approx([1.0, 0.5, 2.0])
    # The line's length scales the T60 it achieves with the same gain.
    assert achieved_t60(bell_peq(-6.0, m_ref=2400.0), [1000.0])[0] == pytest.approx(0.5)


def test_achieved_t60_rejects_non_decaying():
    with pytest.raises(NonDecayingResponseError):
        achieved_t60(bell_peq(0.0), [100.0, 1000.0])
    with pytest.raises(NonDecayingResponseError, match=r"\+1 dB at 1000 Hz"):
        achieved_t60(bell_peq(1.0), [100.0, 1000.0, 5000.0])


def test_achieved_t60_refuses_non_finite_frequencies():
    # +3 dB at 1 kHz does not decay; a NaN beside it used to give -2 s there.
    with pytest.raises(InvalidParameterError, match=r"freqs\[0\] is nan"):
        achieved_t60(bell_peq(3.0), [math.nan, 1000.0])


def test_error_distribution_binning():
    errors = np.array([-2.4, -0.3, 0.2, 0.9, 3.1])
    dist = ErrorDistribution(errors)
    assert dist.bin_edges_pct[0] == -3.0
    assert dist.bin_edges_pct[-1] == 4.0
    assert dist.n_points == errors.size
    assert dist.counts.sum() == errors.size
    assert dist.max_abs_pct == pytest.approx(3.1)
    assert dist.median_pct == pytest.approx(0.2)
    csv = dist.to_csv()
    assert csv.splitlines()[0] == "bin_lo_pct,bin_hi_pct,count"
    assert len(csv.strip().splitlines()) == 1 + dist.counts.size


def test_error_distribution_validation():
    with pytest.raises(InvalidParameterError):
        ErrorDistribution(np.array([]))
    with pytest.raises(InvalidParameterError):
        ErrorDistribution(np.array([np.nan]))
    with pytest.raises(InvalidParameterError, match="1-D"):
        ErrorDistribution(np.zeros((2, 3)))
    errors = np.array([1.0, 2.0])
    dist = ErrorDistribution(errors)
    errors[0] = 5.0  # the distribution keeps its own copy
    assert dist.errors_pct.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        dist.errors_pct[0] = 5.0


def test_synthetic_curves_are_deterministic_and_bounded():
    a = synthetic_smooth_curves(5, seed=42)
    b = synthetic_smooth_curves(5, seed=42)
    assert len(a) == 5
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.t60_s, cb.t60_s)
        assert np.array_equal(ca.freq_hz, cb.freq_hz)
    for curve in a:
        assert curve.freq_hz.size == 31
        assert np.all((curve.t60_s >= 0.3) & (curve.t60_s <= 5.0))
    assert a[0].name == "synthetic-0000"
    different = synthetic_smooth_curves(5, seed=43)
    assert not np.array_equal(a[0].t60_s, different[0].t60_s)
    # The seed is a non-negative integer, refused by name before any draw.
    for seed, message in ((-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer")):
        with pytest.raises(InvalidParameterError, match=message):
            synthetic_smooth_curves(2, seed=seed)
    with pytest.raises(InvalidParameterError, match="n_curves must be an integer"):
        synthetic_smooth_curves(2.0)


def test_achieved_t60_follows_flat_fit(flat_curve):
    from peqfdn import fit

    cfg = quick_cfg(iterations=800)
    fitted, _ = fit(flat_curve, 4800.0, 48000.0, cfg)
    t60 = achieved_t60(fitted, QUICK_GRID.freqs)
    assert np.all(np.abs(t60 - 1.0) < 0.05)


def test_run_campaign_pools_all_grid_points():
    curves = synthetic_smooth_curves(3, seed=7)
    result = run_campaign(curves, quick_cfg(), fs=48000.0)
    assert result.distribution.n_points == 3 * QUICK_GRID.size
    assert len(result.curve_reports) == 3
    assert not result.failures
    names = [r.name for r in result.curve_reports]
    assert names == sorted(names)


def test_campaign_grid_size_is_derived_from_the_errors():
    # Each fitted curve adds one grid of errors, so the grid size is not stored.
    reports = tuple(CurveReport(i, f"c{i}", 480, 0.0, 1.0) for i in range(3))
    result = CampaignResult(ErrorDistribution(np.zeros(3 * 16)), reports, ((3, "c3", "x"),))
    assert "grid_size" not in {field.name for field in dataclasses.fields(CampaignResult)}
    assert result.grid_size == 16
    assert result.to_summary_dict()["grid_size"] == 16


def test_run_campaign_is_deterministic():
    curves = synthetic_smooth_curves(3, seed=7)
    a = run_campaign(curves, quick_cfg(), fs=48000.0)
    b = run_campaign(curves, quick_cfg(), fs=48000.0)
    assert np.array_equal(a.distribution.counts, b.distribution.counts)
    assert np.array_equal(a.distribution.bin_edges_pct, b.distribution.bin_edges_pct)
    assert a.to_summary_dict() == b.to_summary_dict()


def test_run_campaign_workers_do_not_change_results():
    # Each worker fits a contiguous share in batches: 7 curves go 3 + 4 and
    # 2 + 2 + 3, and the 96-point grid puts up to 42 N = 4 curves in a batch.
    curves = synthetic_smooth_curves(7, seed=11)
    serial = run_campaign(curves, quick_cfg(), fs=48000.0, workers=1)
    for workers in (2, 3):
        parallel = run_campaign(curves, quick_cfg(), fs=48000.0, workers=workers)
        assert serial.to_summary_dict() == parallel.to_summary_dict()
        errors = (result.distribution.errors_pct.tobytes() for result in (serial, parallel))
        assert len(set(errors)) == 1


@pytest.mark.parametrize("n_bands", [4, 8, 12])
def test_run_campaign_is_one_fit_per_curve(n_bands):
    # On the 512-point grid 7 curves fit in batches of 7 at N = 4, 4 + 3 at
    # N = 8 and 2 + 2 + 2 + 1 at N = 12; each is scored as its lone fit.
    curves = synthetic_smooth_curves(7, seed=13)
    cfg = FitConfig(n_bands=n_bands, iterations=400, seed=2).with_default_grid(48000.0)
    result = run_campaign(curves, cfg, fs=48000.0)
    delays_s = np.random.default_rng(cfg.seed).uniform(*DEFAULT_DELAY_DRAW_S, len(curves))
    errors = []
    for i, (curve, report) in enumerate(zip(curves, result.curve_reports)):
        m_samples = max(1, int(round(delays_s[i] * 48000.0)))
        fitted, fit_report = fit(curve, m_samples, 48000.0, cfg)
        achieved = achieved_t60(fitted, cfg.grid.freqs)
        errors.append(t60_relative_error(interpolate_to_grid(curve, cfg.grid), achieved))
        max_abs = float(np.abs(errors[-1]).max())
        assert report == CurveReport(i, curve.name, m_samples, fit_report.final_mse, max_abs)
    assert result.distribution.errors_pct.tobytes() == np.concatenate(errors).tobytes()


def test_run_campaign_starts_no_more_workers_than_curves(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(job) for job in jobs]

    monkeypatch.setattr(evaluate, "Pool", SerialPool)
    curves = synthetic_smooth_curves(2, seed=11)
    serial = run_campaign(curves, quick_cfg(iterations=50), fs=48000.0, workers=1)
    pooled = run_campaign(curves, quick_cfg(iterations=50), fs=48000.0, workers=64)
    assert started == [2]
    assert pooled.to_summary_dict() == serial.to_summary_dict()
    # One curve runs in this process, whatever the worker count.
    run_campaign(curves[:1], quick_cfg(iterations=50), fs=48000.0, workers=64)
    assert started == [2]


def test_run_campaign_flags_poorly_tracked_curves():
    # One iteration cannot follow a strongly varying curve, so envelope
    # violations must surface as flagged reports, not silent passes.
    curves = synthetic_smooth_curves(3, seed=3)
    result = run_campaign(curves, quick_cfg(iterations=1), fs=48000.0)
    assert result.flagged
    for report in result.flagged:
        assert not report.within_envelope
        assert report.max_abs_error_pct > 25.0
    assert set(result.to_summary_dict()["flagged_curves"]) == {
        r.name for r in result.flagged
    }


def test_run_campaign_aborts_when_fits_diverge():
    curves = synthetic_smooth_curves(3, seed=5)
    bad_cfg = FitConfig(
        n_bands=4, iterations=30, learning_rate=1e8, seed=0, grid=QUICK_GRID
    )
    with pytest.raises(CampaignError):
        run_campaign(curves, bad_cfg, fs=48000.0)


def test_run_campaign_validation():
    with pytest.raises(InvalidParameterError):
        run_campaign([], quick_cfg())
    curves = synthetic_smooth_curves(1, seed=0)
    with pytest.raises(InvalidParameterError, match="inf"):
        run_campaign(curves, quick_cfg(), fs=math.inf)
    with pytest.raises(InvalidParameterError, match="1e\\+300"):
        run_campaign(curves, quick_cfg(), fs=1e300)
    with pytest.raises(InvalidParameterError):
        run_campaign(curves, quick_cfg(), workers=0)
    with pytest.raises(InvalidParameterError, match="workers must be an integer, got 2.0"):
        run_campaign(curves, quick_cfg(), workers=2.0)
    with pytest.raises(InvalidParameterError, match="workers must be an integer, got True"):
        run_campaign(curves, quick_cfg(), workers=True)
    # 3N parameters need at least 3N grid points; refused before any fit.
    with pytest.raises(InvalidParameterError, match="grid points"):
        run_campaign(curves, FitConfig(n_bands=171))


def test_campaign_delay_draw_respects_range():
    curves = synthetic_smooth_curves(6, seed=9)
    result = run_campaign(curves, quick_cfg(iterations=50), fs=48000.0)
    lo, hi = DEFAULT_DELAY_DRAW_S
    for report in result.curve_reports:
        assert round(lo * 48000.0) <= report.delay_samples <= round(hi * 48000.0)
