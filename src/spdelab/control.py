"""Controlled and skeleton dynamics, the quadratic rate functional, and the
log Radon-Nikodym weight of the Cameron-Martin tilt.

A control is a deterministic field psi(s, y) on the time-space cells, built
as Control(values, grid) or sampled by control_from_function. Every function
here that takes a control takes a Control or an array of its values, and
Control.on checks either against the grid: shape, finite entries. Its rate
functional I(psi) = (1/2) iint psi^2 is taken over all controls; the bounded
sets {iint psi^2 <= N} of the weak-convergence proof carry no option here. It
enters the dynamics as the extra mild-form term built from sigma(s,y,v) psi,
the term that the Cameron-Martin shift of the driving noise produces, so the
Girsanov weight below is the Radon-Nikodym derivative of a controlled run
against a plain one. Both flows run the one scheme step of mild_solver,
whose control contribution is integrated exactly in time per mode, so in the
linear-additive case the Duhamel integral of a mode-control is reproduced
without time-stepping bias.

The tilt weight for one driving realization is

    log w = -(1/sqrt(eps)) sum_mj psi_mj dW_mj - (1/(2 eps)) dt dx sum psi^2,

whose exponential has unit mean: the pairing uses the same cells as the
white increments, so the discrete identity is exact in distribution. The
pairing is taken in sine modes (Parseval): each step's dot
sum_i psi_hat_mi dw_mi, then the sum of those dots over the steps. A dot
reads one step of one row, so a row's weight has the same bits whatever
batch or window its steps are paired in. _log_weight is the only
implementation of this formula. girsanov_log_weight weighs a realization or
a batch of driving blocks through it; the replica sampler of mild_solver
takes the dots with _step_pairings, of each group of whole blocks that its
linear additive contraction draws and of each window of a stepping run as
it is drawn, and weighs them through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet
from .lattice import Field, GridSpec, to_modes
from .mild_solver import PathSolution, SolverConfig, _solve_path
from .noise import NoiseRealization, sample_sheet_expansion

__all__ = [
    "Control",
    "control_from_function",
    "rate_functional",
    "solve_skeleton",
    "solve_controlled",
    "girsanov_log_weight",
]


@dataclass
class Control:
    """Deterministic control field psi on the (nt, nx-1) time-space cells."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        shape = (self.grid.nt, self.grid.n_interior)
        if self.values.shape != shape:
            raise ValueError(f"control shape {self.values.shape} does not match {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("control contains non-finite entries")
        self._norm_sq = float(
            self.grid.dt * self.grid.dx * np.sum(self.values**2)
        )

    @property
    def norm_sq(self) -> float:
        """Cached squared L^2([0,T]x[0,1]) norm by cell quadrature."""
        return self._norm_sq

    @classmethod
    def on(cls, psi: "Control | np.ndarray", grid: GridSpec) -> "Control":
        """psi, a Control or an array of values, as a Control on grid's cells:
        a ValueError names a wrong shape or non-finite entries."""
        return cls(psi.values if isinstance(psi, Control) else psi, grid)


def control_from_function(grid: GridSpec, fn) -> Control:
    """Sample a callable (t, x) -> value on the step times and interior nodes."""
    tt = grid.t[:-1][:, None]
    xx = grid.x[None, :]
    return Control(np.broadcast_to(fn(tt, xx), (grid.nt, grid.n_interior)).copy(), grid)


def rate_functional(psi: Control) -> float:
    """I(psi) = (1/2) iint psi^2 dy ds."""
    return 0.5 * psi.norm_sq


def _psi_array(psi: Control | np.ndarray | None, grid: GridSpec) -> np.ndarray | None:
    """The values of psi, checked by Control.on; None for no or a zero control."""
    if psi is None:
        return None
    values = Control.on(psi, grid).values
    return values if np.any(values) else None


def solve_skeleton(
    eta: Field,
    cf: CoefficientSet,
    psi: Control | np.ndarray | None,
    grid: GridSpec,
    config: SolverConfig | None = None,
) -> PathSolution:
    """Deterministic controlled flow (the eps = 0 limiting dynamics)."""
    return _solve_path(eta, cf, 0.0, grid, config, psi=_psi_array(psi, grid))


def solve_controlled(
    eta: Field,
    cf: CoefficientSet,
    psi: Control | np.ndarray | None,
    eps: float,
    seed: int,
    grid: GridSpec,
    config: SolverConfig | None = None,
    replica: int = 0,
    stream: int = 0,
) -> PathSolution:
    """Skeleton dynamics plus the sqrt(eps) stochastic convolution.

    eps = 0 reduces to solve_skeleton and psi = 0 to solve_spde, both exactly
    (shared integrator, identical arithmetic).
    """
    config = config or SolverConfig()
    noise = None
    if eps > 0:
        noise = sample_sheet_expansion(
            grid, config.noise_modes(grid), seed, replica, stream
        )
    return _solve_path(eta, cf, eps, grid, config, noise=noise, psi=_psi_array(psi, grid))


def girsanov_log_weight(
    psi: Control | np.ndarray,
    noise: NoiseRealization | np.ndarray,
    eps: float,
):
    """log dP/dP-hat: the reweighting factor that makes controlled-equation
    sampling an unbiased estimator under the base measure.

    noise is one realization, or a batch of driving blocks dw of shape
    (..., nt, nx-1) on psi's grid, inactive modes zeroed (psi must then be a
    Control); the weight is a float, or an array over the batch axes. psi is
    checked by Control.on against the realization's grid. The cell pairing
    dx sum psi xi is taken in sine modes as sum psi_hat dw (Parseval), step
    by step, so a batch costs no block-sized temporary.
    """
    if isinstance(noise, NoiseRealization):
        psi, dw = Control.on(psi, noise.grid), noise.mode_increments
    elif isinstance(psi, Control):
        dw = noise
        if dw.shape[-2:] != psi.values.shape:
            raise ValueError("control and noise realization live on different grids")
    else:
        raise TypeError("a batch of mode increments needs psi as a Control")
    logw = _log_weight(_step_pairings(dw, to_modes(psi.values, psi.grid)), psi, eps)
    return float(logw) if logw.ndim == 0 else logw


def _step_pairings(dw: np.ndarray, psi_hat: np.ndarray) -> np.ndarray:
    """Each step's dot sum_i psi_hat_mi dw_mi of mode increments dw
    (..., steps, nx-1) with the control's modes psi_hat (steps, nx-1)."""
    return np.einsum("...mk,mk->...m", dw, psi_hat)


def _log_weight(pairings: np.ndarray, psi: Control, eps: float) -> np.ndarray:
    """log w of psi from the (..., nt) step pairings of each realization."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return -np.sum(pairings, axis=-1) / np.sqrt(eps) - psi.norm_sq / (2.0 * eps)
