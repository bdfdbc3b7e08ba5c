"""Gradient correctness, Adam behavior, and the end-to-end fit loop."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peqfdn import (
    BandKind,
    BandParams,
    FitConfig,
    FitDivergenceError,
    InvalidParameterError,
    NumericalFailureError,
    PeqParams,
    T60Curve,
    fit,
    loss_and_gradient,
    peq_log_magnitude,
)
from peqfdn.evaluate import synthetic_smooth_curves
from peqfdn import optimize
from peqfdn.optimize import (
    BATCH_FLOATS,
    HINGE_LOW_HZ,
    LM_DAMPING,
    STEPS_PER_EVALUATION,
    WARM_START_STEPS,
    _adam_update,
    _budget,
    _damped_step,
    fit_batch,
    _initial_vector,
    _Polish,
    _vector_to_params,
    _Workspace,
)
from peqfdn.prototypes import COEFF_EXPONENTS, band_magnitude
from peqfdn.targets import FrequencyGrid, interpolate_to_grid, target_magnitude


def random_vector(rng, n_bands):
    fc = rng.uniform(30.0, 18000.0, n_bands)
    gain = rng.uniform(-30.0, 6.0, n_bands)
    q = rng.uniform(0.3, 10.0, n_bands)
    return np.concatenate([np.log(fc), gain, np.log(q)])


def fd_gradient(vec, target_db, grid, h=1e-6):
    grad = np.empty_like(vec)
    for i in range(vec.size):
        hi = vec.copy()
        lo = vec.copy()
        hi[i] += h
        lo[i] -= h
        f_hi, _ = loss_and_gradient(hi, target_db, grid)
        f_lo, _ = loss_and_gradient(lo, target_db, grid)
        grad[i] = (f_hi - f_lo) / (2.0 * h)
    return grad


def test_gradient_matches_finite_differences(rng):
    # N = 3 is one bell between the shelves, so every exponent row counts.
    grid = FrequencyGrid.log_spaced(48000.0, size=128)
    target_db = -6.0 * np.ones(grid.size)
    worst = 0.0
    for n_bands in [5] * 20 + [3] * 20:
        vec = random_vector(rng, n_bands)
        _, analytic = loss_and_gradient(vec, target_db, grid)
        numeric = fd_gradient(vec, target_db, grid)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst <= 1e-4


def reference_loss_and_gradient(vec, target_db, freqs):
    """The loss and gradient with every per-parameter partial built in full.

    Band i adds k ln(U/V), k = 10/ln 10, with U = (c0 - c2 X)^2 + c1^2 X,
    X = (f/fc)^2, c = A^alpha (c1 also over Q) and V alike; ln A = G ln10/40.
    """
    n = vec.size // 3
    kinds = [BandKind.LOW_SHELF] + [BandKind.BELL] * (n - 2) + [BandKind.HIGH_SHELF]
    alpha2, alpha1, alpha0 = np.array([COEFF_EXPONENTS[kind] for kind in kinds]).T[..., None]
    fc = np.exp(vec[:n])[:, None]
    a = 10.0 ** (vec[n : 2 * n, None] / 40.0)
    q = np.exp(vec[2 * n :])[:, None]
    c2, c1, c0 = a**alpha2, a**alpha1 / q, a**alpha0
    x = (freqs / fc) ** 2
    p = c0 - c2 * x
    s = c1 * c1 * x
    u = p * p + s
    d_ln_a = (2.0 * p * (alpha0 * c0 - alpha2 * c2 * x) + 2.0 * alpha1 * s) / u
    d_ln_x = (s - 2.0 * p * c2 * x) / u
    d_ln_q = -2.0 * s / u
    k = 10.0 / np.log(10.0)
    residual = k * np.log(u[0] / u[1]).sum(axis=0) - target_db
    weight = 2.0 * residual / residual.size
    d_lfc = -2.0 * k * (d_ln_x[0] - d_ln_x[1])
    d_gain = k * np.log(10.0) / 40.0 * (d_ln_a[0] - d_ln_a[1])
    d_lq = k * (d_ln_q[0] - d_ln_q[1])
    grad = np.concatenate([d_lfc @ weight, d_gain @ weight, d_lq @ weight])
    return np.mean(residual**2), grad


def test_gradient_matches_full_partials(rng):
    # The kernel contracts the gradient without building the partials; both
    # orders of arithmetic agree to rounding.
    grid = FrequencyGrid.log_spaced(48000.0)
    for n_bands in list(range(3, 14)) * 5:
        vec = np.concatenate([
            rng.uniform(np.log(20.0), np.log(20000.0), n_bands),
            rng.uniform(-40.0, 12.0, n_bands),
            rng.uniform(np.log(0.2), np.log(12.0), n_bands),
        ])
        target_db = rng.uniform(-30.0, -0.5, grid.size)
        loss, grad = loss_and_gradient(vec, target_db, grid)
        ref_loss, ref_grad = reference_loss_and_gradient(vec, target_db, grid.freqs)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("n_bands", [3, 4, 12])
def test_loss_matches_direct_response(rng, n_bands):
    grid = FrequencyGrid.log_spaced(48000.0, size=64)
    target_db = rng.uniform(-12.0, -1.0, grid.size)
    vec = random_vector(rng, n_bands)
    vec[1 : n_bands - 1] = np.sort(vec[1 : n_bands - 1])
    loss, _ = loss_and_gradient(vec, target_db, grid)
    kinds = [BandKind.LOW_SHELF] + [BandKind.BELL] * (n_bands - 2) + [BandKind.HIGH_SHELF]
    lfc, gain, lq = vec.reshape(3, n_bands)
    params = PeqParams(
        tuple(
            BandParams(kind, float(np.exp(f)), float(g), float(np.exp(r)))
            for kind, f, g, r in zip(kinds, lfc, gain, lq)
        )
    )
    response = peq_log_magnitude(params, grid.freqs)
    assert loss == pytest.approx(np.mean((response - target_db) ** 2), rel=1e-12)


# Bounds of the kernel property tests below, set from the kernel's worst
# conditioning before they were first run.  U = a0 + a1 f^2 + a2 f^4 cancels
# most at a bell's centre, where its terms add to about 4 and U is c1^2 =
# (A/Q)^2; at Q = 100 and a gain of -60 dB times the largest hinge scale
# (1.2), c1^2 = 2.5e-8, so a band's dB response is off by at most about
# 4.34 x 4 eps x 1.6e8 = 6e-7 dB.  Derivatives are held relative to their
# largest entry, far above the central differences' truncation (about
# 1e-8 of it at Q = 100) and the reference's rounding.
KERNEL_DB = 1e-5
KERNEL_DERIVATIVE = 1e-5
# Batched gain scales and single-scale workspaces differ only in BLAS
# blocking.
KERNEL_BATCH = 1e-12


@st.composite
def kernel_vectors(draw):
    """(log fc, gain dB, log Q) of N = 3, 8 or 12 bands: fc 20 Hz-20 kHz,
    gains within +-60 dB, Q from 0.1 to 100."""
    n = draw(st.sampled_from([3, 8, 12]))

    def entries(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    vec = np.array(
        entries(np.log(20.0), np.log(20000.0))
        + entries(-60.0, 60.0)
        + entries(np.log(0.1), np.log(100.0))
    )
    # PeqParams orders the bells by fc and refuses a tie.
    bells = np.sort(vec[1 : n - 1])
    assume(bells.size < 2 or np.diff(bells).min() > 1e-3)
    return vec


def reference_db(vec, freqs, scale=1.0):
    """Each band's dB from band_magnitude, gains times scale, summed: what
    peq_log_magnitude adds up, here also at the hinge's f = 0."""
    return sum(
        20.0 * np.log10(band_magnitude(freqs, replace(band, gain_db=scale * band.gain_db)))
        for band in _vector_to_params(vec).bands
    )


def central_differences(f, vec, h=1e-6):
    """d f / d vec, one column per parameter, by central differences."""
    columns = []
    for i in range(vec.size):
        step = np.zeros(vec.size)
        step[i] = h
        columns.append((f(vec + step) - f(vec - step)) / (2.0 * h))
    return np.stack(columns, axis=-1)


@settings(max_examples=60, deadline=None)
@given(vec=kernel_vectors())
def test_kernel_residual_and_gradient_match_the_band_responses(vec):
    grid = FrequencyGrid.log_spaced(48000.0, size=64)
    target_db = np.linspace(-20.0, -2.0, grid.size)
    work = _Workspace(vec.size // 3, grid.freqs, target_db)
    with np.errstate(all="ignore"):
        work.evaluate(vec)
    params = _vector_to_params(vec)
    reference = peq_log_magnitude(params, grid.freqs) - target_db
    assert np.abs(work.residual - reference).max() <= KERNEL_DB

    def reference_loss(v):
        return np.mean((reference_db(v, grid.freqs) - target_db) ** 2)

    numeric = central_differences(reference_loss, vec)
    assert np.abs(work.grad - numeric).max() <= KERNEL_DERIVATIVE * (np.abs(numeric).max() + 1.0)


def hinge_scales_and_freqs():
    """_Polish's gain scales and check frequencies at m_ref = 4800, 48 kHz."""
    probe = _Polish(_Workspace(3, np.ones(3), np.zeros(3)), np.zeros(9), 4800.0, 48000.0)
    freqs = np.concatenate((HINGE_LOW_HZ, np.geomspace(12000.0, 24000.0, 6)))
    return probe.scales, freqs


@settings(max_examples=40, deadline=None)
@given(vec=kernel_vectors())
def test_kernel_jacobian_matches_central_differences(vec):
    # The grid's rows at scale 1, and the hinge's rows at each of its gain
    # scales, whose Jacobian is over the unscaled gains.
    n = vec.size // 3
    scales, hinge_freqs = hinge_scales_and_freqs()
    for freqs, gain_scales in ((FrequencyGrid.log_spaced(48000.0, size=64).freqs, (1.0,)),
                               (hinge_freqs, scales)):
        target_db = np.full((len(gain_scales), freqs.size), -3.0)
        work = _Workspace(n, freqs, target_db, gain_scales)
        with np.errstate(all="ignore"):
            rows = work.respond(vec).copy()
            analytic = work.jacobian(np.empty((rows.size, vec.size)))

        def reference_rows(v):
            response = np.concatenate([reference_db(v, freqs, s) for s in gain_scales])
            return response - target_db.ravel()

        assert np.abs(rows - reference_rows(vec)).max() <= KERNEL_DB
        numeric = central_differences(reference_rows, vec)
        assert np.abs(analytic - numeric).max() <= KERNEL_DERIVATIVE * (np.abs(numeric).max() + 1.0)


@settings(max_examples=40, deadline=None)
@given(vec=kernel_vectors())
def test_batched_gain_scales_match_single_scale_workspaces(vec):
    n = vec.size // 3
    scales, freqs = hinge_scales_and_freqs()
    target_db = -np.outer(scales, np.linspace(1.0, 10.0, freqs.size))
    batched = _Workspace(n, freqs, target_db, scales)
    with np.errstate(all="ignore"):
        rows = batched.respond(vec).reshape(scales.size, freqs.size).copy()
        jac = batched.jacobian(np.empty((rows.size, vec.size))).reshape(scales.size, freqs.size, -1)
        for k, scale in enumerate(scales):
            single = _Workspace(n, freqs, target_db[k], (scale,))
            single_rows = single.respond(vec)
            single_jac = single.jacobian(np.empty((freqs.size, vec.size)))
            assert np.abs(rows[k] - single_rows).max() <= KERNEL_BATCH * np.abs(single_rows).max()
            assert np.abs(jac[k] - single_jac).max() <= KERNEL_BATCH * np.abs(single_jac).max()


def test_loss_and_gradient_rejects_non_finite_params():
    grid = FrequencyGrid.log_spaced(48000.0, size=16)
    vec = np.zeros(9)
    vec[4] = np.inf
    with pytest.raises(NumericalFailureError) as err:
        loss_and_gradient(vec, np.zeros(16), grid)
    assert err.value.param_index == 4


def test_loss_and_gradient_refuses_non_finite_target():
    grid = FrequencyGrid.log_spaced(48000.0, size=16)
    target_db = np.full(16, -3.0)
    target_db[5] = np.nan
    with pytest.raises(InvalidParameterError, match=r"target_db\[5\] is nan"):
        loss_and_gradient(np.zeros(9), target_db, grid)


def adam_steps(vec, grad_of, learning_rate, steps):
    """Run the private Adam update from zero moments; returns the parameters."""
    vec = np.array(vec, dtype=np.float64)
    m, v, scratch = np.zeros(vec.size), np.zeros(vec.size), np.empty((2, vec.size))
    for t in range(1, steps + 1):
        _adam_update(m, v, t, learning_rate, vec, grad_of(vec), scratch)
    return vec


def test_adam_first_step_size_is_learning_rate():
    # With zero history the bias-corrected update is lr * sign(grad).
    grad = np.array([1.0, -2.0, 0.5])
    new_vec = adam_steps(np.zeros(3), lambda vec: grad, 0.05, 1)
    assert np.allclose(new_vec, -0.05 * np.sign(grad), rtol=1e-6)


def test_adam_converges_on_quadratic():
    vec = adam_steps([3.0, -2.0], lambda vec: 2.0 * vec, 0.1, 2000)
    assert np.abs(vec).max() < 1e-3


def warm_start_steps(budget):
    """Adam's share of a fit budget: a fifth, rounded up, at most 2000 steps."""
    return min(math.ceil(budget / 5), WARM_START_STEPS)


def test_fit_flat_target_converges_fast(flat_curve):
    cfg = FitConfig(n_bands=4, iterations=800, learning_rate=0.1, seed=0)
    fitted, report = fit(flat_curve, 4800.0, 48000.0, cfg)
    assert report.final_mse < 1e-2
    assert fitted.params.n_bands == 4
    # 160 Adam steps, then the polish evaluations it took, at most 24.
    steps = warm_start_steps(cfg.iterations)
    evaluations = (cfg.iterations - steps) // STEPS_PER_EVALUATION
    assert steps < report.loss_trace.size <= steps + evaluations
    assert report.iterations == report.loss_trace.size
    # Best-seen loss is what's reported, and it bounds the trace tail.
    assert report.final_mse == pytest.approx(np.min(report.loss_trace))
    assert 0 <= report.best_iteration < report.loss_trace.size


def test_fit_polishes_from_a_budget_of_65(flat_curve):
    # 64 would leave the polish one evaluation, so Adam takes all of it; 65
    # leaves two after 13 Adam steps.
    _, report = fit(flat_curve, 4800.0, 48000.0, FitConfig(n_bands=4, iterations=64))
    assert report.loss_trace.size == 64
    _, report = fit(flat_curve, 4800.0, 48000.0, FitConfig(n_bands=4, iterations=65))
    assert warm_start_steps(65) == 13
    assert 13 < report.loss_trace.size <= 15


def test_fit_output_layout_is_valid(median_curve):
    cfg = FitConfig(n_bands=6, iterations=500, learning_rate=0.1, seed=3)
    fitted, _ = fit(median_curve, 4800.0, 48000.0, cfg)
    kinds = [band.kind for band in fitted.params.bands]
    assert kinds[0] is BandKind.LOW_SHELF
    assert kinds[-1] is BandKind.HIGH_SHELF
    assert all(k is BandKind.BELL for k in kinds[1:-1])
    fcs = [band.fc_hz for band in fitted.params.bands[1:-1]]
    assert fcs == sorted(fcs)


def test_fit_is_deterministic(median_curve):
    cfg = FitConfig(n_bands=4, iterations=400, learning_rate=0.1, seed=11)
    fitted_a, report_a = fit(median_curve, 4800.0, 48000.0, cfg)
    fitted_b, report_b = fit(median_curve, 4800.0, 48000.0, cfg)
    assert report_a.loss_trace.tobytes() == report_b.loss_trace.tobytes()
    assert fitted_a.to_dict() == fitted_b.to_dict()


def test_fit_reduces_initial_loss(median_curve):
    cfg = FitConfig(n_bands=12, iterations=600, learning_rate=0.1, seed=0)
    _, report = fit(median_curve, 4800.0, 48000.0, cfg)
    assert report.final_mse < report.loss_trace[0] * 0.1


def public_steps(curve, cfg, m_ref=4800.0, fs=48000.0):
    """Yield (loss, parameters) per step of loss_and_gradient and the Adam
    update from fit's starting vector."""
    grid = FrequencyGrid.log_spaced(fs)
    target_db = target_magnitude(interpolate_to_grid(curve, grid), m_ref, fs)
    vec = _initial_vector(cfg.n_bands, grid, target_db)
    m, v, scratch = np.zeros(vec.size), np.zeros(vec.size), np.empty((2, vec.size))
    for t in range(1, cfg.iterations + 1):
        loss, grad = loss_and_gradient(vec, target_db, grid)
        yield loss, vec
        vec = vec.copy()  # the update is in place; keep the yielded vector
        _adam_update(m, v, t, cfg.learning_rate, vec, grad, scratch)


@pytest.mark.parametrize("n_bands", [3, 8, 12])
def test_fit_shares_the_public_arithmetic(median_curve, n_bands):
    # A budget of 64 leaves the polish one evaluation, so Adam takes all of it.
    cfg = FitConfig(n_bands=n_bands, iterations=64)
    losses, vecs = zip(*public_steps(median_curve, cfg))
    fitted, report = fit(median_curve, 4800.0, 48000.0, cfg)
    assert report.loss_trace.tobytes() == np.array(losses).tobytes()
    best = int(np.argmin(losses))
    assert report.best_iteration == best
    # fit updates its parameters in place, so an aliased best vector would
    # return the last iterate's bands instead.
    assert fitted.params == _vector_to_params(vecs[best])
    # A budget of 300 warm-starts the polish with the same 60 Adam steps.
    warm_cfg = FitConfig(n_bands=n_bands, iterations=60)
    losses = [loss for loss, _ in public_steps(median_curve, warm_cfg)]
    _, report = fit(median_curve, 4800.0, 48000.0, FitConfig(n_bands=n_bands, iterations=300))
    assert report.loss_trace[:60].tobytes() == np.array(losses).tobytes()
    assert report.loss_trace.size > 60


@pytest.mark.parametrize("n_bands", [3, 8, 12])
def test_polish_jacobian_matches_central_differences(rng, median_curve, n_bands):
    grid = FrequencyGrid.log_spaced(48000.0)
    target_db = target_magnitude(interpolate_to_grid(median_curve, grid), 4800.0, 48000.0)
    vec = random_vector(rng, n_bands)
    polish = _Polish(_Workspace(n_bands, grid.freqs, target_db), vec + 0.1, 4800.0, 48000.0)
    polish.respond(vec)
    analytic = polish.jacobian()
    h = 1e-6
    numeric = np.empty_like(analytic)
    for i in range(vec.size):
        step = np.zeros(vec.size)
        step[i] = h
        numeric[:, i] = (polish.respond(vec + step) - polish.respond(vec - step)) / (2.0 * h)
    polish.respond(vec)
    # Every hinge row is checked at a gain scale s != 1; rows within 1e-3 dB
    # of the hinge's kink are left out, where a difference straddles it.
    excess = polish.hinge.residual
    assert not np.any(polish.scales == 1.0)
    assert 0 < np.count_nonzero(excess > 0) < excess.size
    keep = np.ones(polish.n_rows, dtype=bool)
    keep[polish.prior_end :] = np.abs(excess) > 1e-3
    err = np.abs(analytic - numeric)[keep]
    assert err.max() <= 1e-6 * np.abs(analytic).max()


def test_polish_leaves_a_non_finite_trial_out(median_curve):
    # A trial step that overflows the kernel returns its non-finite rows,
    # not an error, for run to reject (as
    # test_polish_rejects_a_trial_whose_rows_are_not_finite checks).
    grid = FrequencyGrid.log_spaced(48000.0)
    target_db = target_magnitude(interpolate_to_grid(median_curve, grid), 4800.0, 48000.0)
    warm = _initial_vector(8, grid, target_db)
    polish = _Polish(_Workspace(8, grid.freqs, target_db), warm, 4800.0, 48000.0)
    assert np.isfinite(polish.respond(warm)).all()
    bad = warm.copy()
    bad[3] = np.inf
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(polish.respond(bad)).all()


def test_fit_returns_a_warm_start_the_polish_cannot_start_from(median_curve, monkeypatch):
    # The polish does not start from non-finite rows; the fit then returns
    # its Adam steps' best, as a budget too small to polish does.
    adam = list(public_steps(median_curve, FitConfig(n_bands=4, iterations=60)))
    monkeypatch.setattr(_Polish, "respond", lambda self, vec: np.full(self.n_rows, np.nan))
    fitted, report = fit(median_curve, 4800.0, 48000.0, FitConfig(n_bands=4, iterations=300))
    assert report.loss_trace.tobytes() == np.array([loss for loss, _ in adam]).tobytes()
    assert report.final_mse == min(loss for loss, _ in adam)


@pytest.mark.parametrize("t60_s", [0.15, 0.05])
def test_short_t60_polish_ends_at_or_below_its_warm_start(t60_s):
    # Short T60s give large residuals; a trial step whose rows overflow the
    # kernel is a rejected step, not a diverged fit.
    curve = T60Curve(np.array([100.0, 10000.0]), np.array([t60_s, t60_s]))
    _, report = fit(curve, 4800.0, 48000.0, FitConfig())
    assert report.iterations > WARM_START_STEPS
    assert np.isfinite(report.loss_trace).all()
    assert report.final_mse <= report.loss_trace[:WARM_START_STEPS].min()


def fit_warm_start(curve, n_bands, iterations, m_ref=4800.0, fs=48000.0):
    """The grid target, Adam steps, best Adam parameters and polish
    evaluations of fit's warm start for a budget."""
    steps, evaluations = _budget(iterations)
    grid = FrequencyGrid.log_spaced(fs)
    target_db = target_magnitude(interpolate_to_grid(curve, grid), m_ref, fs)
    work = _Workspace(n_bands, grid.freqs, target_db)
    vec = _initial_vector(n_bands, grid, target_db)
    m, v, scratch = np.zeros(vec.size), np.zeros(vec.size), np.empty((2, vec.size))
    best_loss, best = math.inf, vec.copy()
    with np.errstate(all="ignore"):
        for t in range(1, steps + 1):
            loss = float(work.evaluate(vec)[0]) / grid.size
            if loss < best_loss:
                best_loss, best[:] = loss, vec
            _adam_update(m, v, t, FitConfig.learning_rate, vec, work.grad[0], scratch)
    return target_db, steps, best, evaluations


@pytest.mark.parametrize("n_bands, mu", [(4, 1e-3), (12, 1e-3), (12, 1.0)])
def test_polish_step_is_the_damped_least_squares_step(median_curve, n_bands, mu):
    # The normal equations give the least-squares step of the rows stacked
    # on the damping, D the Jacobian's column norms.  They square the
    # condition number: scaled by D, the damped matrix's is at most
    # (3N + mu) / mu, so a fixed mu of 1e-3 or more keeps 1e-10.
    target_db, _, warm, _ = fit_warm_start(median_curve, n_bands, FitConfig.iterations)
    freqs = FrequencyGrid.log_spaced(48000.0).freqs
    polish = _Polish(_Workspace(n_bands, freqs, target_db), warm, 4800.0, 48000.0)
    with np.errstate(all="ignore"):
        rows, jac = polish.respond(warm), polish.jacobian()
    d = np.linalg.norm(jac, axis=0)
    step = _damped_step(jac.T @ jac, jac.T @ rows, mu, d * d)
    stacked = np.vstack((jac, math.sqrt(mu) * np.diag(d)))
    expected = np.linalg.lstsq(stacked, np.concatenate((-rows, np.zeros(d.size))), rcond=None)[0]
    assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)


def test_polish_rejects_a_trial_whose_rows_are_not_finite(median_curve):
    # The first trial's rows are spoiled: it is not recorded, the best stays
    # the warm start, and the next trial steps from the warm start again,
    # with the damping doubled.
    target_db, _, warm, _ = fit_warm_start(median_curve, 8, 2000)
    freqs = FrequencyGrid.log_spaced(48000.0).freqs

    def spoiled_polish():
        polish = _Polish(_Workspace(8, freqs, target_db), warm, 4800.0, 48000.0)
        visited = []
        respond = polish.respond

        def spoiled(vec):
            visited.append(vec.copy())
            rows = respond(vec)
            if len(visited) == 2:
                rows[0] = np.nan
            return rows

        polish.respond = spoiled
        return polish, visited

    polish, visited = spoiled_polish()
    with np.errstate(all="ignore"):
        losses, vec, best_index = polish.run(2)
    assert len(visited) == 2 and not np.array_equal(visited[1], warm)
    assert len(losses) == 1
    assert (best_index, vec.tobytes()) == (0, warm.tobytes())

    polish, visited = spoiled_polish()
    fresh = _Polish(_Workspace(8, freqs, target_db), warm, 4800.0, 48000.0)
    with np.errstate(all="ignore"):
        losses, _, _ = polish.run(3)
        rows, jac = fresh.respond(warm), fresh.jacobian()
    normal = jac.T @ jac
    retried = warm + _damped_step(normal, jac.T @ rows, 2.0 * LM_DAMPING, normal.diagonal())
    assert len(visited) == 3 and len(losses) == 2
    np.testing.assert_allclose(visited[2], retried, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "table, n_bands, iterations, evaluations",
    [("median", 12, FitConfig.iterations, 307), ("flat", 4, 65, 2), ("flat_0.05", 12, 10000, 307)],
)
def test_fit_ends_its_trace_with_the_polish_from_its_warm_start(
    median_curve, flat_curve, table, n_bands, iterations, evaluations
):
    curve = {
        "median": median_curve,
        "flat": flat_curve,
        "flat_0.05": T60Curve(np.array([100.0, 10000.0]), np.array([0.05, 0.05])),
    }[table]
    target_db, steps, warm, budgeted = fit_warm_start(curve, n_bands, iterations)
    assert budgeted == evaluations
    freqs = FrequencyGrid.log_spaced(48000.0).freqs
    polish = _Polish(_Workspace(n_bands, freqs, target_db), warm, 4800.0, 48000.0)
    asked = []
    respond = polish.respond

    def recorded(vec):
        rows = respond(vec)
        asked.append((vec.tobytes(), rows.copy()))
        return rows

    polish.respond = recorded
    with np.errstate(all="ignore"):
        losses, vec, best_index = polish.run(evaluations)
    assert 2 <= len(asked) <= evaluations
    # Each point is evaluated once, and each one whose rows are finite gets
    # one loss, its grid MSE, in order.
    points = [point for point, _ in asked]
    assert len(set(points)) == len(points)
    finite = [(point, rows) for point, rows in asked if np.isfinite(rows).all()]
    grid_end = polish.grid_end
    assert losses == [float(rows[:grid_end] @ rows[:grid_end]) / grid_end for _, rows in finite]
    # The returned vector is the point of lowest total cost, at best_index.
    costs = [float(rows @ rows) for _, rows in finite]
    assert finite[best_index][0] == vec.tobytes()
    assert costs[best_index] == min(costs)
    _, report = fit(curve, 4800.0, 48000.0, FitConfig(n_bands=n_bands, iterations=iterations))
    assert report.loss_trace[steps:].tobytes() == np.array(losses).tobytes()
    assert report.best_iteration == steps + best_index


def test_a_huge_budget_ends_on_the_polish_stopping_tests(median_curve):
    # 10**20 steps buy about 3.8e18 evaluations; the polish stops long
    # before, where a budget of 1000 evaluations stops it too.
    _, report = fit(median_curve, 4800.0, 48000.0, FitConfig(n_bands=4, iterations=10**20))
    cfg = FitConfig(n_bands=4, iterations=WARM_START_STEPS + STEPS_PER_EVALUATION * 1000)
    _, bounded = fit(median_curve, 4800.0, 48000.0, cfg)
    assert report.loss_trace.tobytes() == bounded.loss_trace.tobytes()
    assert WARM_START_STEPS < report.iterations < WARM_START_STEPS + 1000


@pytest.mark.parametrize(
    "table, n_bands, iterations",
    [("median", 12, FitConfig.iterations), ("flat_0.05", 12, FitConfig.iterations),
     ("flat_0.15", 12, FitConfig.iterations), ("synthetic", 8, 2000)],
)
def test_polish_never_returns_a_higher_cost_than_its_warm_start(
    median_curve, table, n_bands, iterations
):
    # The polish keeps the lowest total cost it evaluated, not the lowest
    # grid MSE, so its guarantee is on the cost: every row at the returned
    # vector against every row at the warm start.  The synthetic curve runs
    # at the campaign's budget.
    curve = {
        "median": median_curve,
        "flat_0.05": T60Curve(np.array([100.0, 10000.0]), np.array([0.05, 0.05])),
        "flat_0.15": T60Curve(np.array([100.0, 10000.0]), np.array([0.15, 0.15])),
        "synthetic": synthetic_smooth_curves(1, seed=5)[0],
    }[table]
    target_db, _, warm, evaluations = fit_warm_start(curve, n_bands, iterations)
    freqs = FrequencyGrid.log_spaced(48000.0).freqs
    polish = _Polish(_Workspace(n_bands, freqs, target_db), warm, 4800.0, 48000.0)
    with np.errstate(all="ignore"):
        _, best, _ = polish.run(evaluations)
    fitted, _ = fit(curve, 4800.0, 48000.0, FitConfig(n_bands=n_bands, iterations=iterations))
    assert fitted.params == _vector_to_params(best)
    fresh = _Polish(_Workspace(n_bands, freqs, target_db), warm, 4800.0, 48000.0)
    returned, start = (fresh.respond(vec) for vec in (best, warm))
    assert np.isfinite(returned).all()
    assert returned @ returned <= start @ start


def test_fit_past_the_warm_start_polishes(median_curve):
    polished_cfg = FitConfig(n_bands=8, iterations=WARM_START_STEPS + 26 * 40)
    fitted, report = fit(median_curve, 4800.0, 48000.0, polished_cfg)
    steps = warm_start_steps(polished_cfg.iterations)
    evaluations = (polished_cfg.iterations - steps) // STEPS_PER_EVALUATION
    adam = [loss for loss, _ in public_steps(median_curve, FitConfig(n_bands=8, iterations=steps))]
    # Adam's steps are the public ones; then each polish evaluation adds one loss.
    assert report.loss_trace[:steps].tobytes() == np.array(adam).tobytes()
    assert steps < report.loss_trace.size <= steps + evaluations
    assert report.iterations == report.loss_trace.size
    assert report.final_mse == report.loss_trace[report.best_iteration]
    assert report.final_mse < 0.8 * min(adam)
    vec = np.concatenate([
        np.log([band.fc_hz for band in fitted.params.bands]),
        [band.gain_db for band in fitted.params.bands],
        np.log([band.q for band in fitted.params.bands]),
    ])
    grid = FrequencyGrid.log_spaced(48000.0)
    target_db = target_magnitude(interpolate_to_grid(median_curve, grid), 4800.0, 48000.0)
    loss, _ = loss_and_gradient(vec, target_db, grid)
    assert loss == pytest.approx(report.final_mse, rel=1e-12)


def fit_alone(curve, m_ref, cfg):
    """fit's (fitted, report) for one curve, or the error it raises."""
    try:
        return fit(curve, m_ref, 48000.0, cfg)
    except (FitDivergenceError, InvalidParameterError) as exc:
        return exc


def assert_same_fit(batched, alone):
    """A curve's outcome in a batch is its lone fit's, bit for bit."""
    if isinstance(alone, Exception):
        assert type(batched) is type(alone)
        assert str(batched) == str(alone)
        assert getattr(batched, "iteration", None) == getattr(alone, "iteration", None)
        return
    (fitted, report), (fitted_alone, report_alone) = batched, alone
    assert report.loss_trace.tobytes() == report_alone.loss_trace.tobytes()
    assert report.best_iteration == report_alone.best_iteration
    assert fitted.to_dict() == fitted_alone.to_dict()


@pytest.mark.parametrize("per_batch", [None, 3])
@pytest.mark.parametrize("n_bands", [4, 8, 12])
def test_fit_batch_gives_each_curve_its_lone_fit(monkeypatch, n_bands, per_batch):
    # 7 curves split unevenly: on the 512-point grid, 7 in one batch at
    # N = 4, 4 + 3 at N = 8 and 2 + 2 + 2 + 1 at N = 12; 3 + 3 + 1 with a
    # bound of 3 curves.  The budget runs Adam and then the polish.  An
    # eighth curve, between two of them, asks for a target no fit follows
    # and gets its lone fit's refusal.
    assert [BATCH_FLOATS // (2 * n * 512) for n in (4, 8, 12)] == [8, 4, 2]
    if per_batch is not None:
        monkeypatch.setattr(optimize, "BATCH_FLOATS", per_batch * 2 * n_bands * 512)
    curves = synthetic_smooth_curves(7, seed=13)
    curves.insert(3, T60Curve(np.array([100.0, 1000.0]), np.array([1e-300, 1.0])))
    cfg = FitConfig(n_bands=n_bands, iterations=400)
    delays = [480.0 + 700.0 * i for i in range(len(curves))]
    batched = fit_batch(list(zip(curves, delays)), 48000.0, cfg)
    assert len(batched) == len(curves)
    for index, (outcome, curve, m_ref) in enumerate(zip(batched, curves, delays)):
        assert_same_fit(outcome, fit_alone(curve, m_ref, cfg))
        if index == 3:
            assert "T60 1e-300 s asks for" in str(outcome)
        else:
            assert outcome[1].iterations > warm_start_steps(cfg.iterations)
    assert fit_batch([], 48000.0, cfg) == []


def test_a_curve_that_diverges_leaves_the_rest_of_its_batch_as_it_was(monkeypatch):
    # At a learning rate of 25, one of these N = 4 curves diverges at step
    # 17 and the others converge.  The batch also holds a curve whose start
    # is not finite, which diverges at step 0.  Each failing curve gets its
    # lone fit's error, and every other curve its lone fit.
    curves = synthetic_smooth_curves(10, seed=3)
    cfg = FitConfig(n_bands=4, iterations=300, learning_rate=25.0)
    grid = FrequencyGrid.log_spaced(48000.0)
    spoiled_target = target_magnitude(interpolate_to_grid(curves[2], grid), 4800.0, 48000.0)
    initial_vector = optimize._initial_vector

    def spoiled(n_bands, grid, target_db):
        vec = initial_vector(n_bands, grid, target_db)
        if np.array_equal(target_db, spoiled_target):
            vec[n_bands + 1] = np.nan
        return vec

    monkeypatch.setattr(optimize, "_initial_vector", spoiled)
    alone = [fit_alone(curve, 4800.0, cfg) for curve in curves]
    failed = [i for i, outcome in enumerate(alone) if isinstance(outcome, FitDivergenceError)]
    assert [alone[i].iteration for i in failed] == [0, 17]
    assert str(alone[2]) == "fit diverged at iteration 0: non-finite parameter at index 5"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = fit_batch([(curve, 4800.0) for curve in curves], 48000.0, cfg)
    for outcome, outcome_alone in zip(batched, alone):
        assert_same_fit(outcome, outcome_alone)


def test_fit_diverges_with_absurd_learning_rate(flat_curve):
    cfg = FitConfig(n_bands=4, iterations=50, learning_rate=1e8, seed=0)
    with pytest.raises(FitDivergenceError) as err:
        fit(flat_curve, 4800.0, 48000.0, cfg)
    taken = 0
    with pytest.raises(NumericalFailureError):
        for _ in public_steps(flat_curve, cfg):
            taken += 1
    assert err.value.iteration == taken
    # A batch whose curves all diverge gives each its lone fit's error.
    curves = [flat_curve, *synthetic_smooth_curves(2, seed=0)]
    batched = fit_batch([(curve, 4800.0) for curve in curves], 48000.0, cfg)
    for outcome, curve in zip(batched, curves):
        assert type(outcome) is FitDivergenceError
        assert_same_fit(outcome, fit_alone(curve, 4800.0, cfg))


def test_fit_progress_callback_cadence(flat_curve):
    calls = []
    # 1200 Adam steps call at 0, 500 and 1000; the end call gets the trace length.
    cfg = FitConfig(n_bands=4, iterations=6000, learning_rate=0.1, seed=0)
    _, report = fit(flat_curve, 4800.0, 48000.0, cfg, progress=lambda i, loss: calls.append(i))
    assert calls == [0, 500, 1000, report.iterations]
    assert report.iterations > 1200


def test_campaign_budget_fit_beats_its_adam_steps():
    # A 2000-step budget spends four fifths on the polish, and ends no worse
    # than the best of 2000 Adam steps.
    cfg = FitConfig(n_bands=8, iterations=2000)
    for curve in synthetic_smooth_curves(3, seed=0):
        _, report = fit(curve, 4800.0, 48000.0, cfg)
        adam_best = min(loss for loss, _ in public_steps(curve, cfg))
        assert report.iterations > 400
        assert report.final_mse <= adam_best


def test_fit_config_validation():
    with pytest.raises(InvalidParameterError):
        FitConfig(n_bands=2)
    with pytest.raises(InvalidParameterError):
        FitConfig(n_bands=4, iterations=0)
    with pytest.raises(InvalidParameterError):
        FitConfig(n_bands=4, learning_rate=0.0)
    with pytest.raises(InvalidParameterError, match="seed"):
        FitConfig(seed=-1)
    # Counts and seeds are integers: a float used to pass here and fail in
    # fit or run_campaign with an untyped TypeError, and a bool, an int to
    # Python, passed as 1 or 0.
    for field, value in (("n_bands", 4.0), ("iterations", 100.5), ("seed", 1.5),
                         ("iterations", True), ("seed", True)):
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            FitConfig(**{field: value})
    # 171 bands have 513 parameters, one more than the default grid's points.
    FitConfig(n_bands=170, grid=FrequencyGrid.log_spaced(48000.0))
    with pytest.raises(InvalidParameterError, match="171 bands"):
        FitConfig(n_bands=171, grid=FrequencyGrid.log_spaced(48000.0))


def test_fit_matches_target_in_t60_terms(median_curve):
    # A converged 12-band fit tracks the interpolated target closely.
    grid = FrequencyGrid.log_spaced(48000.0, size=256)
    cfg = FitConfig(n_bands=12, iterations=3000, learning_rate=0.1, seed=0, grid=grid)
    fitted, _ = fit(median_curve, 4800.0, 48000.0, cfg)
    target_db = target_magnitude(interpolate_to_grid(median_curve, grid), 4800.0, 48000.0)
    response = peq_log_magnitude(fitted.params, grid.freqs)
    assert np.max(np.abs(response - target_db)) < 0.5
