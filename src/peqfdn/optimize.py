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
drives the mean-squared-error loss.  fit evaluates the kernel in one
workspace allocated per fit and updates the Adam moments and parameters in
place; loss_and_gradient runs the same kernel on a fresh workspace, so
stepping it with the same update reproduces a fit bit for bit.  A fit with
budget left after its Adam warm start (a fifth of the budget, at most 2000
steps) polishes that result by damped Levenberg-Marquardt on the same
kernel's residuals and Jacobian, its gain-scaled hinge rows batched in one
more workspace: MINPACK's compiled lmder, given the arguments
scipy.optimize.least_squares gives it for method="lm" and loaded alone, as
fdn loads its SOS kernel, without the scipy.optimize package.
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
)
from .fdn import DEFAULT_DELAY_RANGE_S, scipy_kernel
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
# left buy one evaluation of the Levenberg-Marquardt polish.  An evaluation
# costs about 15 Adam steps at N = 12, most of it MINPACK's own work; the
# charge stays at 26 because any other value would change every default
# (10k-step) fit.
WARM_START_STEPS = 2000
STEPS_PER_EVALUATION = 26
# MINPACK counts evaluations in a C int.
MAX_EVALUATIONS = 2**31 - 1
# MINPACK's ftol, xtol and gtol, and the factor of its initial step bound:
# scipy.optimize.least_squares' defaults for method="lm".
LM_TOLERANCE = 1e-8
LM_STEP_FACTOR = 100.0

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
        _, evaluations = _budget(self.iterations)
        if evaluations > MAX_EVALUATIONS:
            raise InvalidParameterError(
                f"iterations {self.iterations} buy {evaluations} polish evaluations, more "
                f"than the {MAX_EVALUATIONS} (2**31 - 1) the polish can count"
            )
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
    gain scales).

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
    """

    def __init__(self, n_bands: int, freqs: np.ndarray, target_db: np.ndarray, scales=(1.0,)):
        n = n_bands
        scales = np.asarray(scales, dtype=np.float64)
        size = scales.size * freqs.size
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
        self.terms = np.empty((rows, 4))
        self.terms_flat = self.terms.reshape(-1)
        self.u = np.empty((rows, freqs.size))
        self.recip = np.empty_like(self.u)
        # U and 1/U by (side, band, scale x frequency).
        self.u_by_side = self.u.reshape(2, n, size)
        self.recip_by_side = self.recip.reshape(2, n, size)
        # The band sum's last row subtracts the target.
        self.log_ratio = np.empty((n + 1, size))
        self.log_ratio[n] = target_db.ravel()
        self.band_log_ratio = self.log_ratio[:n]
        self.sum_db = np.append(np.full(n, _DB_PER_LN), -1.0)
        self.residual = np.empty(size)
        self.target_db = target_db

        # weigh: d term / d vec over the term, times its factor in U and +-k
        # (numerator or denominator), by (side, parameter, band, scale, term).
        side = np.array([_DB_PER_LN, -_DB_PER_LN])[:, None, None, None, None]
        self.weigh = np.moveaxis(d_log * in_u, 0, 1) * side
        # Gradient = to_grad @ (terms * moments): weigh over (parameter,
        # band), times the loss weight's 2/size.
        to_grad = self.weigh[..., None] * (2.0 / size) * eye[:, None, None, :]
        self.to_grad = np.ascontiguousarray(np.moveaxis(to_grad, 1, -2).reshape(-1, 3 * n).T)
        self.weighted_powers = np.empty((4, size))
        self.moments = np.empty((rows, 4))
        self.moments_flat = self.moments.reshape(-1)
        self.grad = np.empty(3 * n)
        # Jacobian columns by (side, parameter, band, scale, frequency).
        self.terms_by_param = self.terms.reshape(2, 1, n, scales.size, 4)
        self.column_coefs = np.empty(self.weigh.shape)
        self.columns = np.empty((2, 3, n, scales.size, freqs.size))
        self.recip_by_param = self.recip.reshape(2, 1, n, scales.size, freqs.size)

    def respond(self, vec: np.ndarray) -> np.ndarray:
        """Response minus target at vec, scale by scale, in self.residual.

        Also leaves the terms and 1/U at vec, for evaluate's gradient and
        for jacobian.
        """
        np.matmul(self.log_map, vec, out=self.terms_flat)
        np.exp(self.terms_flat, out=self.terms_flat)
        np.matmul(self.terms, self.u_powers, out=self.u)
        np.reciprocal(self.u, out=self.recip)
        log_ratio = self.band_log_ratio
        np.multiply(self.u_by_side[0], self.recip_by_side[1], out=log_ratio)
        np.log(log_ratio, out=log_ratio)
        return np.matmul(self.sum_db, self.log_ratio, out=self.residual)

    def evaluate(self, vec: np.ndarray) -> float:
        """MSE loss at vec of a single-scale workspace; its gradient is left
        in self.grad."""
        residual = self.respond(vec)
        loss = float(residual @ residual) / residual.size
        np.multiply(self.powers, residual, out=self.weighted_powers)
        np.matmul(self.recip, self.weighted_powers.T, out=self.moments)
        self.moments *= self.terms
        np.matmul(self.to_grad, self.moments_flat, out=self.grad)
        return loss

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
        loss = work.evaluate(vec)
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

    residuals and jacobian share one cache of the point last evaluated: its
    rows, its Jacobian once asked for, and whether its rows were recorded.
    So each point is evaluated once, however often it is asked about, and
    any driver can call residuals and jacobian directly.  residuals records
    each point's grid MSE once, if all its rows are finite, and keeps the
    parameters of the lowest total cost seen; jacobian at a new point
    evaluates its rows without recording them.  A point with a non-finite
    row, say a trial step that overflows the kernel, is left out of that
    record; MINPACK rejects it as a step that does not lower the cost, so
    the polish never returns a higher cost than its warm start's.
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
        self.at = self.rows = self.jac = None
        self.recorded = False
        self.losses: list[float] = []
        self.best_cost = math.inf
        self.best_vec = self.warm.copy()
        self.best_index = 0

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

    def _visit(self, vec: np.ndarray) -> None:
        """Make vec the point last evaluated, evaluating it if it is new."""
        if not np.array_equal(vec, self.at):
            self.at, self.rows = vec.copy(), self.respond(vec)
            self.jac, self.recorded = None, False

    def residuals(self, vec: np.ndarray) -> np.ndarray:
        """Every row at vec; each point's rows are recorded once, if all of
        them are finite."""
        self._visit(vec)
        rows = self.rows
        if self.recorded or not np.isfinite(rows).all():
            return rows
        self.recorded = True
        grid = rows[: self.grid_end]
        self.losses.append(float(grid @ grid) / grid.size)
        cost = float(rows @ rows)
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_vec[:] = vec
            self.best_index = len(self.losses) - 1
        return rows

    def jacobian(self, vec: np.ndarray) -> np.ndarray:
        """d rows / d vec, an (n_rows, 3N) array."""
        self._visit(vec)
        if self.jac is not None:
            return self.jac
        jac = self.jac = np.empty((self.n_rows, vec.size))
        self.work.jacobian(jac[: self.grid_end])
        prior_jac = jac[self.grid_end : self.prior_end]
        prior_jac.fill(0.0)
        np.fill_diagonal(prior_jac, self.prior)
        hinge_jac = self.hinge.jacobian(jac[self.prior_end :])
        hinge_jac[~self.active] = 0.0
        hinge_jac *= HINGE_WEIGHT
        return jac

    def run(self, lmder, evaluations: int) -> bool:
        """Polish from the warm start by MINPACK's lmder, spending at most
        the given number of evaluations; False, having run nothing, if the
        start's rows are not finite.

        lmder is called with the arguments scipy.optimize.least_squares(
        method="lm", x_scale="jac", max_nfev=evaluations) gives it.  Its
        requests at the start, and every Jacobian request, are at the point
        last evaluated, so they are answered from this polish's cache.
        """
        if not np.isfinite(self.residuals(self.warm)).all():
            return False
        lmder(
            self.residuals,
            self.jacobian,
            self.warm.copy(),  # lmder leaves its result in x0
            (),  # no extra arguments
            True,  # full output
            False,  # the Jacobian's rows are residuals
            LM_TOLERANCE,
            LM_TOLERANCE,
            LM_TOLERANCE,
            evaluations,
            LM_STEP_FACTOR,
            None,  # scale each parameter by its Jacobian column's norm
        )
        return True


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
    parameters (MINPACK's lmder, given the arguments least_squares' method="lm"
    gives it, so the same bits), which may stop earlier on MINPACK's
    convergence tests; see _Polish for its rows and its cache.
    The fit then returns the lowest-cost parameters the polish evaluated.
    A budget that leaves fewer than two evaluations (below 65 steps) runs
    Adam alone for all of it.

    The report's loss trace holds each Adam step's grid MSE, then each
    polish evaluation's; final_mse is the grid MSE of the returned
    parameters, and best_iteration their index in the trace.  ``progress``,
    if given, is called every 500 Adam steps with (step, current loss), and
    once at the end with (trace length, final MSE).
    """
    # Loaded before the clock starts, and by every fit, so wall_time_s never
    # holds the load.
    lmder = scipy_kernel("scipy.optimize._minpack", "_lmder")

    started = time.perf_counter()
    grid = cfg.with_default_grid(fs).grid
    t60_on_grid = interpolate_to_grid(target, grid)
    target_db = target_magnitude(t60_on_grid, m_ref, fs)

    vec = _initial_vector(cfg.n_bands, grid, target_db)
    work = _Workspace(cfg.n_bands, grid.freqs, target_db)
    adam_m = np.zeros(vec.size)
    adam_v = np.zeros(vec.size)
    adam_scratch = np.empty((2, vec.size))
    steps, evaluations = _budget(cfg.iterations)
    trace = np.empty(steps)
    best_loss = math.inf
    best_vec = vec.copy()
    best_iteration = 0

    # The same warnings-as-noise rule as loss_and_gradient, entered once.
    with np.errstate(all="ignore"):
        for iteration in range(steps):
            loss = work.evaluate(vec)
            # One reduction is non-finite whenever the loss, a parameter or
            # a gradient entry is; only then is the culprit looked for (the
            # product of finite values can also overflow).
            if not math.isfinite(loss + vec @ work.grad):
                try:
                    _check_finite(vec, loss, work.grad)
                except NumericalFailureError as exc:
                    raise FitDivergenceError(
                        f"fit diverged at iteration {iteration}: {exc}", iteration=iteration
                    ) from exc
            trace[iteration] = loss
            if loss < best_loss:
                best_loss = loss
                best_vec[:] = vec
                best_iteration = iteration
            if progress is not None and iteration % PROGRESS_EVERY == 0:
                progress(iteration, loss)
            _adam_update(
                adam_m, adam_v, iteration + 1, cfg.learning_rate, vec, work.grad, adam_scratch
            )

        if evaluations:
            polish = _Polish(work, best_vec, m_ref, fs)
            # A start whose rows are not finite is not polished; the fit then
            # returns its warm start.
            if polish.run(lmder, evaluations):
                trace = np.concatenate((trace, polish.losses))
                best_vec = polish.best_vec
                best_iteration = steps + polish.best_index

    bands = _sorted_bands(_vector_to_bands(best_vec))
    fitted = FittedPeq(params=PeqParams(bands), m_ref=m_ref, fs=fs)
    report = FitReport(
        best_iteration=best_iteration,
        loss_trace=trace,
        wall_time_s=time.perf_counter() - started,
    )
    if progress is not None:
        progress(trace.size, report.final_mse)
    return fitted, report
