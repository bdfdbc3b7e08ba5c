"""Gradient-descent fitting of the PEQ to a target attenuation curve.

The composite dB response and its exact partial derivatives with respect to
every band parameter are one closed-form expression over bands x grid,
whatever the band kind: each band's coefficients are powers of A read from
prototypes.COEFF_EXPONENTS.  The parameters live in log domain for fc and Q
so they stay positive, and a self-contained Adam loop drives the
mean-squared-error loss.  A central-finite-difference oracle in the test
suite is the arbiter of gradient correctness.
"""

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    FitDivergenceError,
    InvalidParameterError,
    NumericalFailureError,
)
from .peq import FittedPeq, PeqParams
from .prototypes import COEFF_EXPONENTS, BandKind, BandParams
from .targets import FrequencyGrid, T60Curve, interpolate_to_grid, target_magnitude

__all__ = [
    "AdamState",
    "FitConfig",
    "FitReport",
    "loss_and_gradient",
    "adam_step",
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


@dataclass(frozen=True)
class FitConfig:
    """Knobs of one fitting run."""

    n_bands: int = 12
    iterations: int = 10000
    learning_rate: float = 0.1
    # A fit has a fixed start and ignores the seed; run_campaign draws its
    # delays from it.
    seed: int = 0
    grid: FrequencyGrid | None = None

    def __post_init__(self):
        if self.n_bands < 3:
            raise InvalidParameterError(f"n_bands must be >= 3, got {self.n_bands}")
        if self.iterations < 1:
            raise InvalidParameterError(f"iterations must be >= 1, got {self.iterations}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidParameterError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class AdamState:
    """Adam moment accumulators; advance with adam_step."""

    m: np.ndarray
    v: np.ndarray
    t: int
    learning_rate: float

    @classmethod
    def initial(cls, n_params: int, learning_rate: float) -> "AdamState":
        return cls(
            m=np.zeros(n_params),
            v=np.zeros(n_params),
            t=0,
            learning_rate=learning_rate,
        )


@dataclass
class FitReport:
    """Outcome of one fit: loss trajectory and bookkeeping."""

    final_mse: float
    best_iteration: int
    iterations: int
    loss_trace: np.ndarray
    wall_time_s: float

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


@lru_cache(maxsize=16)
def _layout_exponents(n_bands: int) -> np.ndarray:
    """COEFF_EXPONENTS of the band layout, (c2, c1, c0) x (num, den) x N x 1."""
    table = np.array([COEFF_EXPONENTS[kind] for kind in _band_kinds(n_bands)])
    # C order keeps every (2, N, P) array of the kernel C-contiguous.
    alpha = np.ascontiguousarray(table.T[..., None])
    alpha.setflags(write=False)
    return alpha


def _response_and_partials(vec: np.ndarray, freqs: np.ndarray):
    """Composite dB response and its partials for every band parameter.

    Returns (response (P,), d_lfc (N,P), d_gain (N,P), d_lq (N,P)) where the
    partial rows are derivatives of the composite response with respect to
    band i's log fc, dB gain, and log Q.  Each band contributes
    k ln(U/V), k = 10/ln 10, where U = (c0 - c2 X)^2 + c1^2 X in X = (f/fc)^2
    and V is the same in the denominator coefficients.  With c = A^alpha
    (c1 also over Q) and P = c0 - c2 X, U's partials are
    2P(alpha0 c0 - alpha2 c2 X) + 2 alpha1 c1^2 X in ln A, c1^2 X - 2P c2 X
    in ln X, and -2 c1^2 X in ln Q; ln A = G ln10/40 and ln X = 2 ln f - 2 ln fc.
    """
    n = vec.size // 3
    alpha2, alpha1, alpha0 = _layout_exponents(n)
    fc = np.exp(vec[:n])[:, None]
    a = 10.0 ** (vec[n : 2 * n, None] / 40.0)
    q = np.exp(vec[2 * n :])[:, None]
    c2 = a**alpha2
    c1 = a**alpha1 / q
    c0 = a**alpha0

    # X is (N, P); the arrays after it are (2, N, P): numerator, denominator.
    x = (freqs[None, :] / fc) ** 2
    c2x = c2 * x
    p = c0 - c2x
    s = (c1 * c1) * x
    u = p * p + s
    inv_u = 1.0 / u
    pc2x = p * c2x
    # Half the ln A partial, the ln X partial and minus half the ln Q
    # partial, each over U.
    dla = ((alpha0 * c0) * p - alpha2 * pc2x + alpha1 * s) * inv_u
    dlx = (s - 2.0 * pc2x) * inv_u
    s_u = s * inv_u

    # k ln10/40 = 1/4, and the 2 of the ln A partial makes it 1/2.
    d_gain = 0.5 * (dla[0] - dla[1])
    d_lfc = -2.0 * _DB_PER_LN * (dlx[0] - dlx[1])
    d_lq = -2.0 * _DB_PER_LN * (s_u[0] - s_u[1])
    response = _DB_PER_LN * np.log(u[0] / u[1]).sum(axis=0)
    return response, d_lfc, d_gain, d_lq


def _first_bad_index(*stacks: np.ndarray) -> int:
    for offset, stack in enumerate(stacks):
        bad = ~np.isfinite(stack)
        if bad.any():
            row = int(np.argwhere(bad)[0][0])
            return offset * stacks[0].shape[0] + row
    return 0


def loss_and_gradient(vec, target_db, grid: FrequencyGrid) -> tuple[float, np.ndarray]:
    """MSE loss of the PEQ response against target_db, and its exact gradient.

    The gradient is with respect to the log-domain parameter vector
    (log fc, gain dB, log Q per band).
    """
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or vec.size % 3 != 0 or vec.size < 9:
        raise InvalidParameterError(f"parameter vector must have length 3N with N >= 3, got {vec.size}")
    target_db = np.asarray(target_db, dtype=np.float64)
    if target_db.shape != grid.freqs.shape:
        raise InvalidParameterError(
            f"target length {target_db.size} does not match grid size {grid.size}"
        )
    if np.any(~np.isfinite(vec)):
        idx = int(np.argwhere(~np.isfinite(vec))[0][0])
        raise NumericalFailureError(f"non-finite parameter at index {idx}", param_index=idx)

    # Overflow in exp/divide shows up as non-finite values that are detected
    # and raised as typed errors below, so the transient warnings are noise.
    with np.errstate(all="ignore"):
        response, d_lfc, d_gain, d_lq = _response_and_partials(vec, grid.freqs)
        residual = response - target_db
        loss = float(np.mean(residual * residual))
        weight = (2.0 / residual.size) * residual
        grad = np.concatenate([d_lfc @ weight, d_gain @ weight, d_lq @ weight])

    if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
        idx = _first_bad_index(d_lfc, d_gain, d_lq)
        raise NumericalFailureError(
            f"non-finite loss or gradient (parameter index {idx})", param_index=idx
        )
    return loss, grad


def adam_step(state: AdamState, vec: np.ndarray, grad: np.ndarray) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns the new state and parameters."""
    if vec.shape != grad.shape or vec.shape != state.m.shape:
        raise InvalidParameterError("state, parameters, and gradient sizes must agree")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_vec = vec - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m=m, v=v, t=t, learning_rate=state.learning_rate), new_vec


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


def fit(
    target: T60Curve,
    m_ref: float,
    fs: float,
    cfg: FitConfig,
    progress: Callable[[int, float], None] | None = None,
) -> tuple[FittedPeq, FitReport]:
    """Fit one PEQ to a T60 curve at reference delay m_ref samples.

    Runs cfg.iterations Adam steps on the MSE between the composite analog
    response and the target attenuation on the grid, and returns the
    best-loss parameters seen (the lr-0.1 endgame oscillates, so the last
    iterate is not necessarily the best).  ``progress``, if given, is called
    every 500 iterations with (iteration, current loss).
    """
    started = time.perf_counter()
    grid = cfg.grid if cfg.grid is not None else FrequencyGrid.log_spaced(fs)
    t60_on_grid = interpolate_to_grid(target, grid)
    target_db = target_magnitude(t60_on_grid, m_ref, fs)

    vec = _initial_vector(cfg.n_bands, grid, target_db)
    state = AdamState.initial(vec.size, cfg.learning_rate)
    trace = np.empty(cfg.iterations)
    best_loss = math.inf
    best_vec = vec
    best_iteration = 0

    for iteration in range(cfg.iterations):
        try:
            loss, grad = loss_and_gradient(vec, target_db, grid)
        except NumericalFailureError as exc:
            raise FitDivergenceError(
                f"fit diverged at iteration {iteration}: {exc}", iteration=iteration
            ) from exc
        trace[iteration] = loss
        if loss < best_loss:
            best_loss = loss
            best_vec = vec
            best_iteration = iteration
        if progress is not None and iteration % PROGRESS_EVERY == 0:
            progress(iteration, loss)
        state, vec = adam_step(state, vec, grad)

    bands = _sorted_bands(_vector_to_bands(best_vec))
    fitted = FittedPeq(params=PeqParams(bands), m_ref=m_ref, fs=fs)
    report = FitReport(
        final_mse=best_loss,
        best_iteration=best_iteration,
        iterations=cfg.iterations,
        loss_trace=trace,
        wall_time_s=time.perf_counter() - started,
    )
    if progress is not None:
        progress(cfg.iterations, best_loss)
    return fitted, report
