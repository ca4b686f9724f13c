"""Uniform time-space grid on [0,T]x[0,1] with Dirichlet sine spectral machinery.

Interior nodes are x_j = j/nx, j = 1..nx-1; boundary values are implicitly zero.
The eigensystem of the second-derivative operator with Dirichlet conditions is

    phi_k(x) = sqrt(2) sin(k pi x),   lambda_k = k^2 pi^2,   k = 1..nx-1,

and the discrete sine transform on the interior nodes is exactly orthonormal
with respect to the trapezoid quadrature weight dx, so Parseval holds to
machine precision.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

# The pocketfft kernel that scipy.fft and scipy.fftpack wrap, called directly:
# same kernel, same arguments, same bits, without the public wrapper's
# per-call dtype, copy, worker and norm handling, which costs more than a
# short transform. The module is private, so the bit pins in
# tests/test_lattice.py are the guard. Calls pass only the six positional
# arguments (a, type, axes, inorm, out, nthreads) that scipy 1.10 already
# takes: type 1, the last axis, no normalisation, one thread.
#
# The extension is loaded from its file rather than imported, because
# importing it runs scipy.fft's package init (scipy.special, the array-API
# shim, numpy.testing), which costs more than the whole rest of
# `import spdelab`. It is registered under its own dotted name, so a later
# `import scipy.fft` reuses this module object instead of loading it again.
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    if _POCKETFFT in sys.modules:
        return sys.modules[_POCKETFFT]
    scipy_spec = importlib.util.find_spec("scipy")  # locates, does not import
    if scipy_spec is None:
        raise ImportError("spdelab needs scipy, which is not installed")
    stem = os.path.join(
        scipy_spec.submodule_search_locations[0], "fft", "_pocketfft", "pypocketfft"
    )
    for suffix in EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(_POCKETFFT, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_POCKETFFT] = module
            return module
    raise ImportError(
        f"scipy's pocketfft extension not found: searched {stem} with suffixes "
        f"{', '.join(EXTENSION_SUFFIXES)}"
    )


_pocketfft = _load_pocketfft()
_dct, _dst = _pocketfft.dct, _pocketfft.dst

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
def _cos_weights(nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-grid constants of k = 1..nx-1 for the cosine pair: the
    analysis weights k pi dx / sqrt(2), and the synthesis weights sqrt(2) k pi
    stacked over the same weights times the parity (-1)^k."""
    k = np.arange(1, nx)
    synthesis = _SQRT2 * k * np.pi
    weights = (
        k * np.pi * (1.0 / nx) / _SQRT2,
        np.stack([synthesis, np.where(k % 2 == 0, synthesis, -synthesis)]),
    )
    for w in weights:
        w.flags.writeable = False
    return weights


_LAST = (-1,)


def _check_length(arr: np.ndarray, grid: GridSpec) -> None:
    if arr.shape[-1] != grid.nx - 1:
        raise ValueError(
            f"length mismatch: got {arr.shape[-1]}, grid has {grid.n_interior}"
        )


def to_modes(values: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Forward sine coefficients of values along the last axis, written into
    out (a float array of values' shape, values itself allowed) when given."""
    _check_length(values, grid)
    out = _dst(np.asarray(values, dtype=np.float64), 1, _LAST, 0, out, 1)
    out *= grid.dx / _SQRT2
    return out


def from_modes(
    coeffs: np.ndarray, grid: GridSpec, overwrite: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """Synthesis u_j = sum_k u_hat_k phi_k(x_j) along the last axis.

    overwrite=True may reuse the memory of coeffs for the result; out, when
    given, is a float array of coeffs' shape, strided or not, that receives it.
    """
    _check_length(coeffs, grid)
    a = np.asarray(coeffs, dtype=np.float64)
    if overwrite and a.flags.writeable:
        out = a
    out = _dst(a, 1, _LAST, 0, out, 1)
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
    nx = grid.nx
    padded = np.empty(values.shape[:-1] + (nx + 1,))
    padded[..., 1:-1] = values
    # Both end nodes at once: the first and last interior values (nx = 2 has one).
    padded[..., ::nx] = values[..., :: nx - 2 or 1]
    d = _dct(padded, 1, _LAST, 0, padded, 1)
    return d[..., 1:nx] * _cos_weights(nx)[0]


def cos_synthesis(
    coeffs: np.ndarray, grid: GridSpec, work: np.ndarray | None = None
) -> np.ndarray:
    """Exact transpose (up to the dx weight) of cos_analysis, for adjoint sweeps.

    work: a zeroed (..., 2, nx + 1) float array that calls may share; a call
    writes only its interior columns (the DCT's output is a new array)."""
    _check_length(coeffs, grid)
    nx = grid.nx
    # Row 0 is the padded DCT input r = coeffs * weight, row 1 is r times the
    # parity (a sign flip, so exact), filled by one multiply and summed by one
    # reduce. The endpoint-extension weights of the analysis map land those
    # sums on the first and last interior nodes in the transpose.
    # np.add.reduce is np.sum's summation without its dispatch.
    padded = np.zeros(coeffs.shape[:-1] + (2, nx + 1)) if work is None else work
    rows = np.multiply(coeffs[..., None, :], _cos_weights(nx)[1], out=padded[..., 1:-1])
    ends = np.add.reduce(rows, axis=-1)
    ends *= 0.5
    d = _dct(padded[..., 0, :], 1, _LAST, 0, None, 1)
    out = d[..., 1:nx] / 2.0
    if nx > 2:
        out[..., :: nx - 2] += ends
    else:  # nx = 2: both sums land on the one interior node, first then last
        out[..., 0] += ends[..., 0]
        out[..., 0] += ends[..., 1]
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
