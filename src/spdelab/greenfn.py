"""Dirichlet heat kernel on [0,1] in both explicit forms, and its semigroup.

Method-of-images form (partial sum over |n| <= n_images):

    G_t(x,y) = (4 pi t)^(-1/2) sum_n [ exp(-(y-x-2n)^2/4t) - exp(-(y+x-2n)^2/4t) ]

Eigenfunction series (decaying semigroup exponents):

    G_t(x,y) = sum_k exp(-lambda_k t) phi_k(x) phi_k(y),  lambda_k = k^2 pi^2.

The two forms are interchangeable (images converge fast for small t, the
spectral series for large t), and the overlap is cross-checked in the test
suite.
"""

from __future__ import annotations

import numpy as np

from .lattice import (
    Field,
    eigen_values,
    from_modes,
    to_modes,
)

__all__ = [
    "green_image",
    "green_spectral",
    "apply_semigroup",
]

DEFAULT_N_IMAGES = 5
DEFAULT_K_MODES = 128


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("kernel time must be positive")
    return t


def green_image(t, x, y, n_images: int = DEFAULT_N_IMAGES):
    """Image-sum partial evaluation of the Dirichlet heat kernel,
    (4 pi t)^(-1/2) sum_{|n| <= n_images} [g(y-x-2n) - g(y+x-2n)], g(u) = exp(-u^2/4t)."""
    t = _check_time(t)
    if n_images < 0:
        raise ValueError("n_images must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for n in range(-n_images, n_images + 1):
        a, b = y - x - 2.0 * n, y + x - 2.0 * n
        total = total + np.exp(-a * a / (4.0 * t)) - np.exp(-b * b / (4.0 * t))
    return total / np.sqrt(4.0 * np.pi * t)


def green_spectral(t, x, y, k_modes: int = DEFAULT_K_MODES):
    """Eigenfunction series sum_{k<=K} exp(-k^2 pi^2 t) phi_k(x) phi_k(y)."""
    t = _check_time(t)
    if k_modes < 1:
        raise ValueError("k_modes must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = np.arange(1, k_modes + 1)
    shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
    decay = np.exp(-np.multiply.outer(t, (k * np.pi) ** 2))
    sx = np.sin(np.multiply.outer(x, k * np.pi))
    sy = np.sin(np.multiply.outer(y, k * np.pi))
    decay = np.broadcast_to(decay, shape + (k_modes,))
    sx = np.broadcast_to(sx, shape + (k_modes,))
    sy = np.broadcast_to(sy, shape + (k_modes,))
    out = 2.0 * np.sum(decay * sx * sy, axis=-1)
    return out if out.shape else float(out)


def apply_semigroup(field: Field, tau: float) -> Field:
    """Heat semigroup S_tau: per-mode decay exp(-lambda_k tau); tau = 0 is identity."""
    if tau < 0:
        raise ValueError(f"semigroup time must be >= 0, got {tau}")
    if tau == 0.0:
        return field.copy()
    grid = field.grid
    decay = np.exp(-eigen_values(np.arange(1, grid.nx)) * tau)
    return Field(from_modes(to_modes(field.values, grid) * decay, grid), grid)

