"""Gradient-descent fitting of the PEQ to a target attenuation curve.

The composite dB response and the exact loss gradient with respect to every
band parameter are one closed-form expression over bands x grid, whatever
the band kind: each band's coefficients are powers of A read from
prototypes.COEFF_EXPONENTS.  Each band's |H|^2 numerator and denominator is
a quadratic in f^2 whose terms are exponentials of linear maps of the
parameters, so one matrix product gives every numerator and denominator
over the grid, and the gradient needs only three moments of the loss
weight over each of them (see _Workspace).  The parameters live in log
domain for fc and Q so they stay positive, and a self-contained Adam loop
drives the mean-squared-error loss.  fit_batch steps the Adam warm starts
of several curves in one workspace, one set of numpy calls a step, and
updates their moments and parameters in place; fit is its batch of one,
and each curve gets the same bits in any batch.  loss_and_gradient runs
the same kernel on a fresh workspace, so stepping it with the same update
reproduces a fit bit for bit.  A fit with budget left after its Adam warm
start (a fifth of the budget, at most 2000 steps) polishes that result by
damped Levenberg-Marquardt on the same kernel's residuals and Jacobian, its
gain-scaled hinge rows batched in one more workspace.  The polish solves the
normal equations of its 3N columns with numpy, so a fit loads no SciPy.
A central-finite-difference oracle in the test suite is the arbiter of
gradient correctness.
"""

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    FitDivergenceError,
    InvalidParameterError,
    NumericalFailureError,
    PeqFdnError,
)
from .fdn import DEFAULT_DELAY_RANGE_S
from .peq import FittedPeq, PeqParams, check_band_count
from .prototypes import COEFF_EXPONENTS, BandKind, BandParams
from .targets import FrequencyGrid, T60Curve, check_finite, check_integer, check_positive
from .targets import interpolate_to_grid, target_magnitude

__all__ = [
    "FitConfig",
    "FitReport",
    "loss_and_gradient",
    "fit",
]

# 20*log10|H| = _DB_PER_LN * ln(|H|^2)
_DB_PER_LN = 10.0 / math.log(10.0)

# Initialization constants: shelf corner placement and the shared starting Q.
INIT_SHELF_LO_HZ = 80.0
INIT_SHELF_HI_HZ = 8000.0
INIT_Q = 0.7071

# Adam moment decay rates and denominator guard, as recommended by
# Kingma & Ba (ICLR 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PROGRESS_EVERY = 500

# A fit's budget is cfg.iterations Adam steps.  Adam takes a fifth of them,
# rounded up, and at most WARM_START_STEPS; every STEPS_PER_EVALUATION steps
# left buy one evaluation of the Levenberg-Marquardt polish.  An evaluation,
# with its share of Jacobians and solves, costs about 6 Adam steps at N = 12
# and 3.4 at N = 4 (default fits, one core); the charge stays at 26 because
# any other value would change every default (10k-step) fit.
WARM_START_STEPS = 2000
STEPS_PER_EVALUATION = 26
# The polish's stopping tolerance on relative cost reduction and step size.
LM_TOLERANCE = 1e-8
# The polish's starting damping, relative to the Jacobian's squared column
# norms: Madsen, Nielsen & Tingleff's tau for a start believed close to the
# minimum, as Adam's warm start is.
LM_DAMPING = 1e-6
_EPS = float(np.finfo(np.float64).eps)

# The polish's extra rows (see _Polish).  The prior weighs log fc, gain dB
# and log Q: it holds the corners and Q, which can run off (to fc = inf),
# and barely the gains, whose dB response is nearly linear.  The hinge is
# checked at DC and below the grid's 20 Hz floor, and over the top octave,
# at HINGE_SCALES gain scales.
PRIOR_WEIGHTS = (0.01, 0.001, 0.01)
HINGE_WEIGHT = 10.0
HINGE_SCALES = 5
HINGE_LOW_HZ = np.concatenate(([0.0], np.geomspace(0.5, 19.0, 24)))
HINGE_TOP_OCTAVE_POINTS = 6

# fit_batch's curves share one workspace while each takes its Adam steps, as
# many as keep its (curves, 2N, P) arrays within this many float64 values:
# 4 curves at N = 8 on the 512-point grid, 2 at N = 12, 8 at N = 4.
BATCH_FLOATS = 2**15


def _budget(iterations: int) -> tuple[int, int]:
    """(Adam steps, polish evaluations) that a budget of iterations buys; see fit."""
    steps = min(-(-iterations // 5), WARM_START_STEPS)
    evaluations = (iterations - steps) // STEPS_PER_EVALUATION
    if evaluations < 2:
        return iterations, 0
    return steps, evaluations


@dataclass(frozen=True)
class FitConfig:
    """Knobs of one fitting run."""

    n_bands: int = 12
    # A budget in Adam steps: Adam warm-starts on a fifth of it (at most
    # 2000 steps) and the polish spends the rest; see fit.
    iterations: int = 10000
    learning_rate: float = 0.1
    # A fit has a fixed start and ignores the seed; run_campaign draws its
    # delays from it.
    seed: int = 0
    grid: FrequencyGrid | None = None

    def __post_init__(self):
        check_band_count(self.n_bands)
        check_integer(self.iterations, "iterations")
        if self.iterations < 1:
            raise InvalidParameterError(f"iterations must be >= 1, got {self.iterations}")
        check_positive(self.learning_rate, "learning_rate")
        check_integer(self.seed, "seed")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        # The grid's residuals cannot determine more parameters than it has
        # points; refusing here also refuses before any workspace is sized.
        if self.grid is not None and 3 * self.n_bands > self.grid.size:
            raise InvalidParameterError(
                f"{self.n_bands} bands have {3 * self.n_bands} parameters, more than "
                f"the {self.grid.size} grid points can determine"
            )

    def with_default_grid(self, fs: float) -> "FitConfig":
        """This config, its unset grid replaced by the default log-spaced grid at fs."""
        if self.grid is not None:
            return self
        return replace(self, grid=FrequencyGrid.log_spaced(fs))


@dataclass
class FitReport:
    """Outcome of one fit: loss trajectory and bookkeeping."""

    best_iteration: int
    loss_trace: np.ndarray
    wall_time_s: float

    @property
    def final_mse(self) -> float:
        """Grid MSE of the returned parameters."""
        return float(self.loss_trace[self.best_iteration])

    @property
    def iterations(self) -> int:
        """Adam steps plus polish evaluations: the trace's length."""
        return self.loss_trace.size

    def to_dict(self) -> dict:
        return {
            "final_mse": self.final_mse,
            "best_iteration": self.best_iteration,
            "iterations": self.iterations,
            "loss_trace_downsampled": [float(x) for x in self.loss_trace[::100]],
            "wall_time_s": self.wall_time_s,
        }


def _band_kinds(n_bands: int) -> list[BandKind]:
    return [BandKind.LOW_SHELF] + [BandKind.BELL] * (n_bands - 2) + [BandKind.HIGH_SHELF]


def _vector_to_bands(vec: np.ndarray) -> list[BandParams]:
    n = vec.size // 3
    kinds = _band_kinds(n)
    fc = np.exp(vec[:n])
    gain = vec[n : 2 * n]
    q = np.exp(vec[2 * n :])
    return [
        BandParams(kind=kinds[i], fc_hz=float(fc[i]), gain_db=float(gain[i]), q=float(q[i]))
        for i in range(n)
    ]


class _Workspace:
    """Every array one kernel evaluation writes, allocated once per (N, grid,
    gain scales, curves).

    Each band contributes k ln(U/V), k = 10/ln 10, where U = (c0 - c2 X)^2 +
    c1^2 X in X = (f/fc)^2 and V is the same in the denominator
    coefficients.  Expanded in f^2, U = a0 + a1 f^2 + a2 f^4 with a0 = c0^2,
    a1 = c1^2/fc^2 - 2 c0 c2/fc^2 and a2 = (c2/fc^2)^2.  With c = A^alpha
    (c1 also over Q) and ln A = G ln10/40, the logs of the four terms a0,
    a2, c1^2/fc^2 and c0 c2/fc^2 are linear in the parameter vector: one
    product with log_map and one exp give them all, and one (rows, 4) @
    (4, P) product with the powers [1, f^4, f^2, -2 f^2] gives every U and V.

    A term's partial over vec is the term times its row of log_map, so U's
    partials are sums of term x f^(2j) x log_map entries.  The loss gradient
    needs only each term's moment sum_f w f^(2j)/U of the loss weight w: one
    reciprocal, one (rows, P) @ (P, 4) product, and a map back through
    log_map's entries.  The Jacobian's columns of band i are its own
    (side, term) x (log fc, gain, log Q) coefficients, one product with the
    powers, times 1/U.  No per-parameter partial over the grid is built.

    scales holds gain scales: each gets its own copy of log_map with the
    gain columns times the scale, and so its own response rows, the response
    with every gain times the scale, against its own row of target_db.  The
    Jacobian of those rows is with respect to the unscaled vector.

    target_db holds each curve's targets, scale by scale, and respond and
    evaluate take one parameter vector per curve, as the rows of vecs.  A
    batch of curves gives every array a leading curve axis, and each of its
    products is a stack of one-curve products (log_map @ vecs[:, :, None],
    not vecs @ log_map.T, whose blocking would differ), so a curve's numbers
    are the same bits in a batch of any size, at any place in it.  A
    one-curve workspace's arrays have no curve axis, so its products are the
    plain calls a stack makes for each curve, without the stacking's cost.
    jacobian is a one-curve workspace's, as the polish's workspaces are.
    """

    def __init__(self, n_bands: int, freqs: np.ndarray, target_db: np.ndarray, scales=(1.0,)):
        n = n_bands
        scales = np.asarray(scales, dtype=np.float64)
        size = scales.size * freqs.size
        target_db = np.asarray(target_db, dtype=np.float64).reshape(-1, size)
        curves = target_db.shape[0]
        table = np.array([COEFF_EXPONENTS[kind] for kind in _band_kinds(n)])
        alpha2, alpha1, alpha0 = table.T[..., None]  # each (num, den) x N x 1
        ln_a = math.log(10.0) / 40.0 * scales  # d ln A / d gain at each scale
        # d ln c2/fc^2, d ln c1^2/fc^2 and d ln c0 over band i's (log fc,
        # gain, log Q), by (side, band i, scale).
        d_c2, d_c1, d_c0 = np.zeros((3, 3, 2, n, scales.size))
        d_c2[0], d_c2[1] = -2.0, ln_a * alpha2
        d_c1[0], d_c1[1], d_c1[2] = -2.0, 2.0 * ln_a * alpha1, -2.0
        d_c0[1] = ln_a * alpha0
        # d ln of the terms a0, a2, c1^2/fc^2 and c0 c2/fc^2.
        d_log = np.stack((2.0 * d_c0, 2.0 * d_c2, d_c1, d_c0 + d_c2), axis=-1)
        f_sq = freqs * freqs
        self.powers = np.stack((np.ones_like(freqs), f_sq * f_sq, f_sq, f_sq))
        in_u = np.array([1.0, 1.0, 1.0, -2.0])  # each term's factor in U
        self.u_powers = self.powers * in_u[:, None]
        eye = np.eye(n)
        # Rows (side, band, scale, term) by columns (parameter, band).
        self.log_map = np.moveaxis(d_log[..., None] * eye[:, None, None, :], 0, -2).reshape(
            -1, 3 * n
        )
        rows = 2 * n * scales.size
        lead = (curves,) if curves > 1 else ()
        self.vec_columns = lead + (3 * n, 1)
        self.terms = np.empty(lead + (rows, 4))
        self.terms_column = self.terms.reshape(lead + (-1, 1))
        self.u = np.empty(lead + (rows, freqs.size))
        self.recip = np.empty_like(self.u)
        # The numerators' U and the denominators' 1/U by (curve, band,
        # scale x frequency).
        self.numerators = self.u.reshape(curves, 2, n, size)[:, 0]
        self.inverse_denominators = self.recip.reshape(curves, 2, n, size)[:, 1]
        # The band sum's last row subtracts the target.
        log_ratio = np.empty((curves, n + 1, size))
        log_ratio[:, n] = target_db
        self.band_log_ratio = log_ratio[:, :n]
        self.log_ratio = log_ratio.reshape(lead + (n + 1, size))
        self.sum_db = np.append(np.full(n, _DB_PER_LN), -1.0)
        self.residual = np.empty(lead + (size,))
        self.target_db = target_db.reshape(lead + (size,))

        # weigh: d term / d vec over the term, times its factor in U and +-k
        # (numerator or denominator), by (side, parameter, band, scale, term).
        side = np.array([_DB_PER_LN, -_DB_PER_LN])[:, None, None, None, None]
        self.weigh = np.moveaxis(d_log * in_u, 0, 1) * side
        # Gradient = to_grad @ (terms * moments): weigh over (parameter,
        # band), times the loss weight's 2/size.
        to_grad = self.weigh[..., None] * (2.0 / size) * eye[:, None, None, :]
        self.to_grad = np.ascontiguousarray(np.moveaxis(to_grad, 1, -2).reshape(-1, 3 * n).T)
        # Each curve's residual as a row and as a column, for its sum of squares.
        self.residual_row = self.residual[..., None, :]
        self.residual_column = self.residual[..., None]
        self.squares = np.empty(lead + (1, 1))
        self.square_sums = self.squares.reshape(curves)
        self.weighted_powers = np.empty(lead + (4, size))
        self.weighted_powers_t = np.swapaxes(self.weighted_powers, -1, -2)
        self.moments = np.empty(lead + (rows, 4))
        self.moments_column = self.moments.reshape(lead + (-1, 1))
        self.grad = np.empty(lead + (3 * n,))
        self.grad_column = self.grad[..., None]
        # Jacobian columns by (side, parameter, band, scale, frequency).
        self.terms_by_param = self.terms.reshape(curves, 2, 1, n, scales.size, 4)[0]
        self.column_coefs = np.empty(self.weigh.shape)
        self.columns = np.empty((2, 3, n, scales.size, freqs.size))
        self.recip_by_param = self.recip.reshape(curves, 2, 1, n, scales.size, freqs.size)[0]

    def respond(self, vecs: np.ndarray) -> np.ndarray:
        """Response minus target at each curve's vector, scale by scale, in
        self.residual.

        Also leaves the terms and 1/U there, for evaluate's gradient and for
        jacobian.
        """
        np.matmul(self.log_map, vecs.reshape(self.vec_columns), out=self.terms_column)
        np.exp(self.terms, out=self.terms)
        np.matmul(self.terms, self.u_powers, out=self.u)
        np.reciprocal(self.u, out=self.recip)
        log_ratio = self.band_log_ratio
        np.multiply(self.numerators, self.inverse_denominators, out=log_ratio)
        np.log(log_ratio, out=log_ratio)
        return np.matmul(self.sum_db, self.log_ratio, out=self.residual)

    def evaluate(self, vecs: np.ndarray) -> np.ndarray:
        """Each curve's sum of squared residuals at its vector, in a
        single-scale workspace: its MSE loss times P, as a (curves,) array.
        The gradients of the losses are left in self.grad."""
        self.respond(vecs)
        np.matmul(self.residual_row, self.residual_column, out=self.squares)
        np.multiply(self.powers, self.residual_row, out=self.weighted_powers)
        np.matmul(self.recip, self.weighted_powers_t, out=self.moments)
        self.moments *= self.terms
        np.matmul(self.to_grad, self.moments_column, out=self.grad_column)
        return self.square_sums

    def jacobian(self, out: np.ndarray) -> np.ndarray:
        """d response / d vec at the last respond, as a (scales x P, 3N)
        array in out."""
        np.multiply(self.terms_by_param, self.weigh, out=self.column_coefs)
        columns = self.columns
        _, n_params, n, scales, size = columns.shape
        np.matmul(self.column_coefs.reshape(-1, 4), self.powers, out=columns.reshape(-1, size))
        columns *= self.recip_by_param
        by_column = out.reshape(scales, size, n_params, n).transpose(2, 3, 0, 1)
        np.add(columns[0], columns[1], out=by_column)
        return out


def _check_finite(vec: np.ndarray, loss: float, grad: np.ndarray) -> None:
    """Raise NumericalFailureError if a parameter, gradient entry or the loss
    is not finite, naming the first such parameter or gradient index."""
    for what, values in (("parameter", vec), ("gradient entry", grad)):
        if not np.isfinite(values).all():
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NumericalFailureError(f"non-finite {what} at index {idx}", param_index=idx)
    if not math.isfinite(loss):
        raise NumericalFailureError(f"non-finite loss {loss}")


def loss_and_gradient(vec, target_db, grid: FrequencyGrid) -> tuple[float, np.ndarray]:
    """MSE loss of the PEQ response against target_db, and its exact gradient.

    The gradient is with respect to the log-domain parameter vector
    (log fc, gain dB, log Q per band).
    """
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or vec.size % 3 != 0:
        raise InvalidParameterError(f"parameter vector must have length 3N, got {vec.size}")
    check_band_count(vec.size // 3)
    target_db = np.asarray(target_db, dtype=np.float64)
    if target_db.shape != grid.freqs.shape:
        raise InvalidParameterError(
            f"target length {target_db.size} does not match grid size {grid.size}"
        )
    check_finite(target_db, "target_db")
    work = _Workspace(vec.size // 3, grid.freqs, target_db)
    # Overflow in exp/divide, and a non-finite parameter, show up as
    # non-finite values that are detected and raised as typed errors below,
    # so the transient warnings are noise.
    with np.errstate(all="ignore"):
        loss = float(work.evaluate(vec)[0]) / grid.size
    _check_finite(vec, loss, work.grad)
    return loss, work.grad


def _adam_update(m, v, t: int, learning_rate: float, vec, grad, scratch) -> None:
    """Advance the moments m, v and the parameters vec in place by Adam step t.

    t counts from 1; scratch is a (2, n) work array.  The arithmetic is the
    textbook bias-corrected update, vec -= lr * m_hat / (sqrt(v_hat) + eps),
    one operation at a time.
    """
    step, denom = scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    step *= grad
    v += step
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= learning_rate
    np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    vec -= step


def _initial_vector(n_bands: int, grid: FrequencyGrid, target_db: np.ndarray) -> np.ndarray:
    """Log-spaced corners with shelves at the preset edges, target-aware gains."""
    fc = np.geomspace(INIT_SHELF_LO_HZ, INIT_SHELF_HI_HZ, n_bands)
    gain = np.interp(np.log10(fc), np.log10(grid.freqs), target_db)
    q = np.full(n_bands, INIT_Q)
    return np.concatenate([np.log(fc), gain, np.log(q)])


def _sorted_bands(bands: list[BandParams]) -> tuple[BandParams, ...]:
    # Shelves anchor the ends whatever their corner frequencies ended up as;
    # only the bells sort by fc (frequencies cross freely while optimizing).
    low = [b for b in bands if b.kind is BandKind.LOW_SHELF]
    high = [b for b in bands if b.kind is BandKind.HIGH_SHELF]
    bells = sorted(
        (b for b in bands if b.kind is BandKind.BELL), key=lambda band: band.fc_hz
    )
    return tuple(low + bells + high)


class _Polish:
    """Residual rows and Jacobian of the damped least-squares polish.

    The rows, in order:
    - the grid's P residuals, response minus target;
    - PRIOR_WEIGHTS (vec - warm), which damps the polish toward the Adam
      warm start and keeps the Jacobian's columns independent;
    - HINGE_WEIGHT max(0, H_s(f) - s cap) at each check frequency f and gain
      scale s, by scale.  H_s is the response with every gain times s, as
      scale_to_delay gives a line s m_ref samples long; the scales span the
      default delay range.  cap is half the target at the grid edge nearest
      f, so every default line keeps a margin below 0 dB where the grid does
      not look.  One workspace holds every scale, the caps as its targets.

    respond evaluates every row afresh and jacobian differentiates them at
    the last respond; run drives both.
    """

    def __init__(self, work: _Workspace, warm: np.ndarray, m_ref: float, fs: float):
        top = np.geomspace(fs / 4.0, fs / 2.0, HINGE_TOP_OCTAVE_POINTS)
        check_freqs = np.concatenate((HINGE_LOW_HZ, top))
        cap = 0.5 * np.repeat(work.target_db[[0, -1]], (HINGE_LOW_HZ.size, top.size))
        lo_s, hi_s = DEFAULT_DELAY_RANGE_S
        self.scales = np.geomspace(lo_s * fs / m_ref, hi_s * fs / m_ref, HINGE_SCALES)
        self.caps = self.scales[:, None] * cap  # (scale, check frequency)
        self.active = np.empty(self.caps.size, dtype=bool)
        n = warm.size // 3
        # The hinge rows' target is the cap, so their residual is the excess.
        self.hinge = _Workspace(n, check_freqs, self.caps, self.scales)
        self.work = work
        self.warm = warm.copy()
        self.prior = np.repeat(PRIOR_WEIGHTS, n)
        self.grid_end = work.residual.size
        self.prior_end = self.grid_end + warm.size
        self.n_rows = self.prior_end + self.caps.size

    def respond(self, vec: np.ndarray) -> np.ndarray:
        """Every row at vec, evaluated afresh."""
        rows = np.empty(self.n_rows)
        rows[: self.grid_end] = self.work.respond(vec)
        rows[self.grid_end : self.prior_end] = self.prior * (vec - self.warm)
        excess = self.hinge.respond(vec)
        np.greater(excess, 0.0, out=self.active)
        hinge = rows[self.prior_end :]
        np.multiply(excess, HINGE_WEIGHT, out=hinge)
        hinge[~self.active] = 0.0
        return rows

    def jacobian(self) -> np.ndarray:
        """d rows / d vec at the last respond, an (n_rows, 3N) array."""
        jac = np.empty((self.n_rows, self.warm.size))
        self.work.jacobian(jac[: self.grid_end])
        prior_jac = jac[self.grid_end : self.prior_end]
        prior_jac.fill(0.0)
        np.fill_diagonal(prior_jac, self.prior)
        hinge_jac = jac[self.prior_end :]
        # Most points have no active hinge row, and then no hinge Jacobian.
        if self.active.any():
            self.hinge.jacobian(hinge_jac)
            hinge_jac[~self.active] = 0.0
            hinge_jac *= HINGE_WEIGHT
        else:
            hinge_jac.fill(0.0)
        return jac

    def run(self, evaluations: int) -> tuple[list[float], np.ndarray, int] | None:
        """Polish from the warm start by Levenberg-Marquardt, spending at
        most the given number of evaluations.

        Returns (losses, vec, best_index): the grid MSE of each evaluated
        point whose rows are all finite, in order, the warm start first; the
        last accepted point; and its index in losses.  Only a trial that
        lowers the cost is accepted, so that point has the lowest total cost
        of all the polish evaluated, and never more than the warm start's.
        None, having run nothing, if the start's rows are not finite.

        At each accepted point one Jacobian J gives the normal equations
        A = J^T J and g = J^T r, and each trial solves (A + mu D^2) s = -g
        (see _damped_step), D^2 the running maximum of A's diagonal, so the
        damping scales with the columns (More, LNM 630, 1978).  A trial that
        lowers the total cost is accepted and mu follows Nielsen's update
        (Madsen, Nielsen & Tingleff, 2004); any other trial, one whose rows
        are not finite included, is rejected, and mu grows by a factor that
        doubles with each rejection in a row.  The polish stops when an
        accepted step lowers the cost by at most LM_TOLERANCE of it, when a
        step is at most LM_TOLERANCE of the point in the D norm, or when the
        evaluations are spent.  Jacobians are not counted as evaluations.
        """
        vec = self.warm.copy()
        rows = self.respond(vec)
        if not np.isfinite(rows).all():
            return None
        grid_end = self.grid_end
        losses = [float(rows[:grid_end] @ rows[:grid_end]) / grid_end]
        best_index = 0
        cost = float(rows @ rows)
        mu, grow = LM_DAMPING, 2.0
        d_sq = np.zeros(vec.size)
        accepted = True
        for _ in range(evaluations - 1):
            if accepted:
                jac = self.jacobian()
                normal = jac.T @ jac
                grad = jac.T @ rows
                np.maximum(d_sq, normal.diagonal(), out=d_sq)
            step = _damped_step(normal, grad, mu, d_sq)
            # A step that is not finite fails this test too.
            if not math.sqrt(d_sq @ step**2) > LM_TOLERANCE * math.sqrt(d_sq @ vec**2):
                break
            trial = vec + step
            rows_at_trial = self.respond(trial)
            if np.isfinite(rows_at_trial).all():
                grid = rows_at_trial[:grid_end]
                losses.append(float(grid @ grid) / grid_end)
            # Not finite rows give a cost that is not finite, so not lower.
            trial_cost = float(rows_at_trial @ rows_at_trial)
            accepted = trial_cost < cost
            if not accepted:
                mu *= grow
                grow *= 2.0
                continue
            predicted = mu * (d_sq @ step**2) - grad @ step
            ratio = (cost - trial_cost) / predicted
            # Nielsen's update, with a floor that a rejection can grow from.
            mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), _EPS)
            grow = 2.0
            converged = cost - trial_cost <= LM_TOLERANCE * cost
            vec, rows, cost = trial, rows_at_trial, trial_cost
            best_index = len(losses) - 1
            if converged:
                break
        return losses, vec, best_index


def _damped_step(normal: np.ndarray, grad: np.ndarray, mu: float, d_sq: np.ndarray):
    """The step s solving (normal + mu diag(d_sq)) s = -grad: with normal =
    J^T J and grad = J^T r, the least-squares step of [J; sqrt(mu) D] s =
    [-r; 0], D = diag(sqrt(d_sq))."""
    damped = normal.copy()
    damped.flat[:: normal.shape[0] + 1] += mu * d_sq
    return np.linalg.solve(damped, -grad)


def fit(
    target: T60Curve,
    m_ref: float,
    fs: float,
    cfg: FitConfig,
    progress: Callable[[int, float], None] | None = None,
) -> tuple[FittedPeq, FitReport]:
    """Fit one PEQ to a T60 curve at reference delay m_ref samples.

    cfg.iterations is a budget counted in Adam steps on the MSE between the
    composite analog response and the target attenuation on the grid.
    Adam takes the first fifth of it, rounded up and at most 2000 steps,
    and keeps the best-loss parameters seen (the lr-0.1 endgame oscillates,
    so the last iterate is not necessarily the best).  Each 26 steps left
    buy one evaluation of a damped Levenberg-Marquardt polish from those
    parameters, which may stop earlier on its own convergence tests; see
    _Polish for its rows, and _Polish.run for the solver and what it records.
    The fit then returns the lowest-cost parameters the polish evaluated.
    A budget that leaves fewer than two evaluations (below 65 steps) runs
    Adam alone for all of it.

    The report's loss trace holds each Adam step's grid MSE, then each
    polish evaluation's; final_mse is the grid MSE of the returned
    parameters, and best_iteration their index in the trace.  ``progress``,
    if given, is called every 500 Adam steps with (step, current loss), and
    once at the end with (trace length, final MSE).

    A fit is fit_batch's batch of one curve: the same kernel and Adam loop,
    so a curve fitted in any batch gets these same bits.
    """
    relay = None if progress is None else lambda step, losses: progress(step, losses[0])
    (outcome,) = _fit_together([(target, m_ref)], fs, cfg, relay)
    if isinstance(outcome, PeqFdnError):
        raise outcome
    if progress is not None:
        report = outcome[1]
        progress(report.iterations, report.final_mse)
    return outcome


def fit_batch(
    curves: list[tuple[T60Curve, float]], fs: float, cfg: FitConfig
) -> list[tuple[FittedPeq, FitReport] | PeqFdnError]:
    """Fit each (T60 curve, m_ref) pair as fit does, several at a time.

    Returns, in order, each curve's (fitted, report), or the PeqFdnError
    that fit raises for it alone; a curve that fails leaves the others as
    they are.  Curves run in batches of as many as keep the kernel's
    (curves, 2N, P) arrays within BATCH_FLOATS values, and at least one;
    the curves of a batch take their Adam steps together, one set of numpy
    calls a step, and each is then polished on its own.  Every curve's
    trace, best iteration, parameters and error are bit for bit what fit
    gives it alone, whatever the batch size or its place in the batch.  A
    report's wall time is its own polish plus an even share of its batch's
    set-up and Adam steps.
    """
    cfg = cfg.with_default_grid(fs)
    per_batch = max(1, BATCH_FLOATS // (2 * cfg.n_bands * cfg.grid.size))
    outcomes = []
    for first in range(0, len(curves), per_batch):
        outcomes += _fit_together(curves[first : first + per_batch], fs, cfg)
    return outcomes


def _fit_together(curves, fs: float, cfg: FitConfig, progress=None) -> list:
    """fit_batch for one batch; progress, if given, gets (step, losses) of
    the Adam steps that fit reports."""
    started = time.perf_counter()
    grid = cfg.with_default_grid(fs).grid
    outcomes: list = [None] * len(curves)
    targets = {}
    for index, (target, m_ref) in enumerate(curves):
        try:
            targets[index] = target_magnitude(interpolate_to_grid(target, grid), m_ref, fs)
        except PeqFdnError as exc:
            outcomes[index] = exc
    steps, evaluations = _budget(cfg.iterations)
    starts = []
    if targets:
        # The same warnings-as-noise rule as loss_and_gradient.
        with np.errstate(all="ignore"):
            starts = _warm_start(
                np.array(list(targets.values())), grid, cfg.n_bands, steps, cfg.learning_rate,
                progress,
            )
    shared_s = (time.perf_counter() - started) / len(curves)
    for (index, target_db), start in zip(targets.items(), starts):
        if isinstance(start, FitDivergenceError):
            outcomes[index] = start
            continue
        began = time.perf_counter()
        trace, best_vec, best_iteration = start
        m_ref = curves[index][1]
        if evaluations:
            # A start whose rows are not finite is not polished; the fit
            # then returns its warm start.
            work = _Workspace(cfg.n_bands, grid.freqs, target_db)
            with np.errstate(all="ignore"):
                polished = _Polish(work, best_vec, m_ref, fs).run(evaluations)
            if polished is not None:
                losses, best_vec, best_index = polished
                trace = np.concatenate((trace, losses))
                best_iteration = steps + best_index
        try:
            bands = _sorted_bands(_vector_to_bands(best_vec))
            fitted = FittedPeq(params=PeqParams(bands), m_ref=m_ref, fs=fs)
        except PeqFdnError as exc:
            outcomes[index] = exc
            continue
        report = FitReport(
            best_iteration=best_iteration,
            loss_trace=trace,
            wall_time_s=shared_s + time.perf_counter() - began,
        )
        outcomes[index] = (fitted, report)
    return outcomes


def _warm_start(
    targets, grid: FrequencyGrid, n_bands: int, steps: int, learning_rate: float, progress=None
) -> list:
    """Adam's warm start for each row of targets, all in one workspace.

    Returns, per target, (trace, best parameters, best iteration), or the
    FitDivergenceError of the first step at which its loss, a parameter or
    a gradient entry is not finite.  A diverged curve leaves the batch, and
    the others take that step again without it, to the same bits.
    """
    rows = list(range(len(targets)))  # the target of each batch row
    results: list = [None] * len(targets)
    vecs = np.array([_initial_vector(n_bands, grid, target_db) for target_db in targets])
    adam_m, adam_v, best = np.zeros_like(vecs), np.zeros_like(vecs), vecs.copy()
    scratch = np.empty((2,) + vecs.shape)
    # Each step's sums of squared residuals, divided into losses at the end.
    trace = np.empty((steps, len(rows)))
    best_losses = [math.inf] * len(rows)
    best_iterations = [0] * len(rows)
    work = _Workspace(n_bands, grid.freqs, targets)
    grads = work.grad.reshape(vecs.shape)
    size = grid.size
    for iteration in range(steps):
        squares = work.evaluate(vecs).tolist()
        # One sum is non-finite whenever a loss, a parameter or a gradient
        # entry is; only then is the culprit looked for (the products of
        # finite values can also overflow).
        if not math.isfinite(sum(squares) + np.vdot(vecs, grads)):
            failed = _diverged(iteration, vecs, [square / size for square in squares], grads)
            if failed:
                for row, error in failed.items():
                    results[rows[row]] = error
                keep = [row for row in range(len(rows)) if row not in failed]
                if not keep:
                    return results
                rows = [rows[row] for row in keep]
                vecs, adam_m, adam_v, best = (a[keep] for a in (vecs, adam_m, adam_v, best))
                scratch = np.empty((2,) + vecs.shape)
                trace = trace[:, keep]
                best_losses = [best_losses[row] for row in keep]
                best_iterations = [best_iterations[row] for row in keep]
                work = _Workspace(n_bands, grid.freqs, targets[rows])
                grads = work.grad.reshape(vecs.shape)
                # The rows left take this step again, to the same bits.
                squares = work.evaluate(vecs).tolist()
        trace[iteration] = squares
        for row, square in enumerate(squares):
            loss = square / size
            if loss < best_losses[row]:
                best_losses[row] = loss
                best[row] = vecs[row]
                best_iterations[row] = iteration
        if progress is not None and iteration % PROGRESS_EVERY == 0:
            progress(iteration, [square / size for square in squares])
        _adam_update(adam_m, adam_v, iteration + 1, learning_rate, vecs, grads, scratch)
    trace /= size
    for row, target in enumerate(rows):
        results[target] = (trace[:, row].copy(), best[row], best_iterations[row])
    return results


def _diverged(iteration: int, vecs, losses: list[float], grads) -> dict:
    """The FitDivergenceError, by row, of each row of vecs whose loss, a
    parameter or a gradient entry is not finite."""
    failed = {}
    for row, loss in enumerate(losses):
        try:
            _check_finite(vecs[row], loss, grads[row])
        except NumericalFailureError as exc:
            error = FitDivergenceError(
                f"fit diverged at iteration {iteration}: {exc}", iteration=iteration
            )
            error.__cause__ = exc
            failed[row] = error
    return failed
