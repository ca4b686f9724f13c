"""Controlled and skeleton dynamics, the quadratic rate functional, and the
log Radon-Nikodym weight of the Cameron-Martin tilt.

A control is a deterministic field psi(s, y) on the time-space cells. It
enters the dynamics as the extra mild-form term built from sigma(s,y,v) psi
(the "direct" coupling); the literal alternative where sigma multiplies the
cumulative integral int_0^y psi(s,y') dy' is available behind the
control_coupling switch for comparison. Both flows run the one scheme step of
mild_solver, whose control contribution is integrated exactly in time per
mode, so in the linear-additive case the Duhamel integral of a mode-control
is reproduced without time-stepping bias.

The tilt weight for one driving realization is

    log w = -(1/sqrt(eps)) sum_mj psi_mj dW_mj - (1/(2 eps)) dt dx sum psi^2,

whose exponential has unit mean: the pairing uses the same cells as the
white increments, so the discrete identity is exact in distribution.
girsanov_log_weight is the only implementation of this formula; the replica
sampler of mild_solver calls it on whole replica batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet
from .lattice import Field, GridSpec
from .mild_solver import PathSolution, SolverConfig, _solve_path
from .noise import NoiseRealization, sample_sheet_expansion

__all__ = [
    "Control",
    "make_control",
    "control_from_function",
    "zero_control",
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
    radius: float | None = None

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

    @property
    def admissible(self) -> bool | None:
        if self.radius is None:
            return None
        return self.norm_sq <= self.radius

    def scaled(self, a: float) -> "Control":
        return Control(a * self.values, self.grid, self.radius)


def make_control(grid: GridSpec, values, radius: float | None = None) -> Control:
    return Control(np.asarray(values, dtype=float), grid, radius)


def zero_control(grid: GridSpec) -> Control:
    return Control(np.zeros((grid.nt, grid.n_interior)), grid)


def control_from_function(grid: GridSpec, fn, radius: float | None = None) -> Control:
    """Sample a callable (t, x) -> value on the step times and interior nodes."""
    tt = grid.t[:-1][:, None]
    xx = grid.x[None, :]
    return Control(np.broadcast_to(fn(tt, xx), (grid.nt, grid.n_interior)).copy(), grid, radius)


def rate_functional(psi: Control, radius: float | None = None):
    """I(psi) = (1/2) iint psi^2 dy ds, plus the admissibility flag when a
    radius is supplied (iint psi^2 <= N)."""
    half = 0.5 * psi.norm_sq
    bound = radius if radius is not None else psi.radius
    if bound is None:
        return half, None
    return half, bool(psi.norm_sq <= bound)


def _psi_array(psi: Control | np.ndarray | None, grid: GridSpec) -> np.ndarray | None:
    if psi is None:
        return None
    values = psi.values if isinstance(psi, Control) else np.asarray(psi, dtype=float)
    if values.shape != (grid.nt, grid.n_interior):
        raise ValueError(
            f"control shape {values.shape} does not match grid "
            f"({grid.nt}, {grid.n_interior})"
        )
    if not np.any(values):
        return None
    return values


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
    psi: Control | np.ndarray, noise: NoiseRealization | np.ndarray, eps: float
):
    """log dP/dP-hat: the reweighting factor that makes controlled-equation
    sampling an unbiased estimator under the base measure.

    noise is one realization, or a batch of spatial noise densities
    xi = dW/dx of shape (..., nt, nx-1) on psi's grid (psi must then be a
    Control); the weight is a float, or an array over the batch axes. The
    pairing is a contraction over the (nt, nx-1) cells, so a batch costs no
    block-sized temporary.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(noise, NoiseRealization):
        grid, xi = noise.grid, noise.spatial_density
    elif isinstance(psi, Control):
        grid, xi = psi.grid, noise
    else:
        raise TypeError("a batch of noise densities needs psi as a Control")
    values = psi.values if isinstance(psi, Control) else np.asarray(psi, dtype=float)
    if values.shape != (grid.nt, grid.n_interior) or xi.shape[-2:] != values.shape:
        raise ValueError("control and noise realization live on different grids")
    pairing = np.einsum("...ms,ms->...", xi, values) * grid.dx
    norm_sq = grid.dt * grid.dx * float(np.sum(values**2))
    logw = -pairing / np.sqrt(eps) - norm_sq / (2.0 * eps)
    return float(logw) if logw.ndim == 0 else logw
