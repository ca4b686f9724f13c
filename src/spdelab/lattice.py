"""Uniform time-space grid on [0,T]x[0,1] with Dirichlet sine spectral machinery.

Interior nodes are x_j = j/nx, j = 1..nx-1; boundary values are implicitly zero.
The eigensystem of the second-derivative operator with Dirichlet conditions is

    phi_k(x) = sqrt(2) sin(k pi x),   lambda_k = k^2 pi^2,   k = 1..nx-1,

and the discrete sine transform on the interior nodes is exactly orthonormal
with respect to the trapezoid quadrature weight dx, so Parseval holds to
machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

# The pocketfft kernel that scipy.fft and scipy.fftpack wrap, called directly:
# same kernel, same arguments, same bits, without the public wrapper's
# per-call dtype, copy, worker and norm handling, which costs more than a
# short transform. The module is private, so the bit pins in
# tests/test_lattice.py are the guard. Calls pass only the six positional
# arguments (a, type, axes, inorm, out, nthreads) that scipy 1.10 already
# takes: type 1, the last axis, no normalisation, one thread.
from scipy.fft._pocketfft.pypocketfft import dct as _dct, dst as _dst

__all__ = [
    "GridSpec",
    "Field",
    "make_grid",
    "make_field",
    "eigenfunction",
    "lp_norm",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: nx spatial intervals, nt time steps, horizon T."""

    nx: int
    nt: int
    T: float

    def __post_init__(self):
        if self.nx < 2:
            raise ValueError(f"dimension too small: nx={self.nx} must be >= 2")
        if self.nt < 1:
            raise ValueError(f"dimension too small: nt={self.nt} must be >= 1")
        if not self.T > 0:
            raise ValueError(f"non-positive horizon: T={self.T}")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def n_interior(self) -> int:
        return self.nx - 1

    @property
    def x(self) -> np.ndarray:
        """Interior nodes x_j = j/nx, j = 1..nx-1."""
        return np.arange(1, self.nx) / self.nx

    @property
    def t(self) -> np.ndarray:
        """Time levels t_m = m*dt, m = 0..nt."""
        return np.arange(self.nt + 1) * self.dt


def make_grid(nx: int, nt: int, T: float) -> GridSpec:
    return GridSpec(int(nx), int(nt), float(T))


@dataclass
class Field:
    """Spatial profile on the interior nodes of a grid (zero at the boundary)."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_interior,):
            raise ValueError(
                f"field length {self.values.shape} does not match grid "
                f"interior size {self.grid.n_interior}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.grid)


def make_field(grid: GridSpec, values) -> Field:
    return Field(np.asarray(values, dtype=float), grid)


def eigen_values(k: np.ndarray | int) -> np.ndarray | float:
    """lambda_k = (k pi)^2."""
    return (np.asarray(k) * np.pi) ** 2


def eigenfunction(grid: GridSpec, k: int, amplitude: float = 1.0) -> Field:
    """phi_k sampled on the interior nodes, optionally scaled."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError(f"mode {k} outside 1..{grid.n_interior}")
    return Field(amplitude * np.sqrt(2.0) * np.sin(k * np.pi * grid.x), grid)


# ---------------------------------------------------------------------------
# Transforms. The forward transform is trapezoid quadrature against phi_k,
# u_hat_k = dx * sum_j phi_k(x_j) u_j, which is exactly orthonormal on the
# uniform grid; DST-I supplies the fast path.
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


@cache
def _cos_weights(nx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only per-grid constants of k = 1..nx-1 for the cosine pair: the
    analysis weights k pi dx / sqrt(2), the synthesis weights sqrt(2) k pi and
    the parity (-1)^k."""
    k = np.arange(1, nx)
    weights = (
        k * np.pi * (1.0 / nx) / _SQRT2,
        _SQRT2 * k * np.pi,
        np.where(k % 2 == 0, 1.0, -1.0),
    )
    for w in weights:
        w.flags.writeable = False
    return weights


_LAST = (-1,)


def _check_length(arr: np.ndarray, grid: GridSpec) -> None:
    if arr.shape[-1] != grid.n_interior:
        raise ValueError(
            f"length mismatch: got {arr.shape[-1]}, grid has {grid.n_interior}"
        )


def to_modes(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Forward sine coefficients of values along the last axis."""
    _check_length(values, grid)
    out = _dst(np.asarray(values, dtype=np.float64), 1, _LAST, 0, None, 1)
    out *= grid.dx / _SQRT2
    return out


def from_modes(coeffs: np.ndarray, grid: GridSpec, overwrite: bool = False) -> np.ndarray:
    """Synthesis u_j = sum_k u_hat_k phi_k(x_j) along the last axis.

    overwrite=True may reuse the memory of coeffs for the result.
    """
    _check_length(coeffs, grid)
    a = np.asarray(coeffs, dtype=np.float64)
    out = _dst(a, 1, _LAST, 0, a if overwrite and a.flags.writeable else None, 1)
    out /= _SQRT2
    return out


def cos_analysis(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Pairings <phi_k', w> by cosine-weighted trapezoid quadrature, k = 1..nx-1.

    The endpoint values of w are taken by constant extension of the nearest
    interior node, which makes the quadrature annihilate constants exactly
    for every mode (the continuous integral of phi_k' over [0,1] vanishes)
    without changing the convergence order.
    """
    _check_length(values, grid)
    padded = np.empty(values.shape[:-1] + (grid.nx + 1,), dtype=float)
    padded[..., 1:-1] = values
    padded[..., 0] = values[..., 0]
    padded[..., -1] = values[..., -1]
    d = _dct(padded, 1, _LAST, 0, padded, 1)
    return d[..., 1 : grid.nx] * _cos_weights(grid.nx)[0]


def cos_synthesis(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact transpose (up to the dx weight) of cos_analysis, for adjoint sweeps."""
    _check_length(coeffs, grid)
    _, weight, parity = _cos_weights(grid.nx)
    padded = np.empty(coeffs.shape[:-1] + (grid.nx + 1,), dtype=float)
    padded[..., 0] = padded[..., -1] = 0.0
    r = np.multiply(coeffs, weight, out=padded[..., 1:-1])
    # Endpoint-extension weights of the analysis map land on the first and
    # last interior nodes in the transpose. np.add.reduce is np.sum's
    # summation without its dispatch.
    first = np.add.reduce(r, axis=-1)
    last = np.add.reduce(r * parity, axis=-1)
    d = _dct(padded, 1, _LAST, 0, padded, 1)
    out = d[..., 1 : grid.nx] / 2.0
    out[..., 0] += 0.5 * first
    out[..., -1] += 0.5 * last
    return out


# ---------------------------------------------------------------------------
# Norms: composite trapezoid with zero boundary values, so the quadrature is
# dx * sum over interior nodes.
# ---------------------------------------------------------------------------


def lp_norm_values(values: np.ndarray, dx: float, p: float) -> np.ndarray:
    """L^p quadrature norm along the last axis; p = inf gives max |value|."""
    if p < 1:
        raise ValueError(f"p={p} must be >= 1")
    if np.isinf(p):
        return np.max(np.abs(values), axis=-1)
    return (dx * np.sum(np.abs(values) ** p, axis=-1)) ** (1.0 / p)


def lp_norm(field: Field, p: float) -> float:
    return float(lp_norm_values(field.values, field.grid.dx, p))
