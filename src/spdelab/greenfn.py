"""Dirichlet heat kernel on [0,1] in both explicit forms, and its smoothing operators.

Method-of-images form (partial sum over |n| <= n_images):

    G_t(x,y) = (4 pi t)^(-1/2) sum_n [ exp(-(y-x-2n)^2/4t) - exp(-(y+x-2n)^2/4t) ]

Eigenfunction series (decaying semigroup exponents):

    G_t(x,y) = sum_k exp(-lambda_k t) phi_k(x) phi_k(y),  lambda_k = k^2 pi^2.

The two forms are interchangeable; evaluation dispatches on t (images decay
fast for small t, the spectral series for large t) and the overlap is
cross-checked in the test suite. Kernel bound verification fits the unnamed
constants of the Gaussian-envelope estimates empirically, since only their
existence is asserted analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    Field,
    GridSpec,
    cos_analysis,
    eigen_values,
    from_modes,
    to_modes,
)

__all__ = [
    "green_image",
    "green_image_dy",
    "green_image_dxdy",
    "green_spectral",
    "green_value",
    "apply_semigroup",
    "apply_divergence_smoothing",
    "verify_kernel_bounds",
    "KernelBoundReport",
]

# Regime switch for green_value: Gaussian images below, eigen series above.
REGIME_SPLIT_TIME = 0.1
DEFAULT_N_IMAGES = 5
DEFAULT_K_MODES = 128


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("kernel time must be positive")
    return t


def _image_sum(t, x, y, n_images: int, kernel):
    """(4 pi t)^(-1/2) sum_{|n| <= n_images} [kernel(y-x-2n) - kernel(y+x-2n)]."""
    t = _check_time(t)
    if n_images < 0:
        raise ValueError("n_images must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for n in range(-n_images, n_images + 1):
        total = total + kernel(y - x - 2.0 * n, t) - kernel(y + x - 2.0 * n, t)
    return total / np.sqrt(4.0 * np.pi * t)


def green_image(t, x, y, n_images: int = DEFAULT_N_IMAGES):
    """Image-sum partial evaluation of the Dirichlet heat kernel."""
    return _image_sum(t, x, y, n_images, lambda u, t: np.exp(-u * u / (4.0 * t)))


def green_image_dy(t, x, y, n_images: int = DEFAULT_N_IMAGES):
    """d/dy of the image-sum kernel."""
    return _image_sum(
        t, x, y, n_images, lambda u, t: (-u / (2.0 * t)) * np.exp(-u * u / (4.0 * t))
    )


def green_image_dxdy(t, x, y, n_images: int = DEFAULT_N_IMAGES):
    """Mixed second derivative d^2/dx dy of the image-sum kernel."""
    return _image_sum(
        t,
        x,
        y,
        n_images,
        lambda u, t: (u * u / (4.0 * t * t) - 1.0 / (2.0 * t)) * np.exp(-u * u / (4.0 * t)),
    )


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


def green_value(t, x, y):
    """Kernel value with regime dispatch: images for small t, series for large t."""
    t_arr = np.asarray(t, dtype=float)
    if np.all(t_arr < REGIME_SPLIT_TIME):
        return green_image(t, x, y, DEFAULT_N_IMAGES)
    if np.all(t_arr >= REGIME_SPLIT_TIME):
        return green_spectral(t, x, y, DEFAULT_K_MODES)
    small = green_image(np.where(t_arr < REGIME_SPLIT_TIME, t_arr, 1.0), x, y)
    large = green_spectral(np.where(t_arr < REGIME_SPLIT_TIME, 1.0, t_arr), x, y)
    return np.where(t_arr < REGIME_SPLIT_TIME, small, large)


# ---------------------------------------------------------------------------
# Smoothing operators acting on fields (per-mode multiplication on the grid).
# ---------------------------------------------------------------------------


def semigroup_factors(grid: GridSpec, tau: float) -> np.ndarray:
    """exp(-lambda_k tau) for k = 1..nx-1."""
    lam = eigen_values(np.arange(1, grid.nx))
    return np.exp(-lam * tau)


def apply_semigroup(field: Field, tau: float) -> Field:
    """Heat semigroup S_tau: per-mode decay exp(-lambda_k tau); tau = 0 is identity."""
    if tau < 0:
        raise ValueError(f"semigroup time must be >= 0, got {tau}")
    if tau == 0.0:
        return field.copy()
    grid = field.grid
    coeffs = to_modes(field.values, grid) * semigroup_factors(grid, tau)
    return Field(from_modes(coeffs, grid), grid)


def apply_divergence_smoothing(field: Field, tau: float) -> Field:
    """x -> int_0^1 d_y G_tau(x,y) w(y) dy in spectral form.

    Mode k of the result is exp(-lambda_k tau) <phi_k', w> with the pairing
    computed by cosine-weighted quadrature; the spectral route avoids the
    1/tau singularity of the kernel derivative in direct quadrature.
    """
    if tau <= 0:
        raise ValueError(f"divergence smoothing requires tau > 0, got {tau}")
    grid = field.grid
    q = cos_analysis(field.values, grid) * semigroup_factors(grid, tau)
    return Field(from_modes(q, grid), grid)


# ---------------------------------------------------------------------------
# Empirical verification of the Gaussian-envelope kernel estimates
#   |G_t|        <= K1 t^(-1/2) exp(-a (x-y)^2 / t)
#   |d_y G_t|    <= K1 t^(-1)   exp(-b (x-y)^2 / t)
#   |d2_xy G_t|  <= K1 t^(-3/2) exp(-c (x-y)^2 / t)
# ---------------------------------------------------------------------------

_ESTIMATES = (
    ("kernel", green_image, -0.5),
    ("dy", green_image_dy, -1.0),
    ("dxdy", green_image_dxdy, -1.5),
)


@dataclass
class BoundCheck:
    name: str
    k1: float
    decay: float
    holds: bool
    worst_ratio: float
    worst_point: tuple
    fitted_k1: float


@dataclass
class KernelBoundReport:
    checks: list = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def verify_kernel_bounds(
    t_samples,
    x_samples,
    y_samples,
    k1: float | None = None,
    decay: tuple[float, float, float] = (0.125, 0.125, 0.125),
    n_images: int = DEFAULT_N_IMAGES,
) -> KernelBoundReport:
    """Check or fit the Gaussian-envelope constants on a sample set.

    When k1 is supplied, each estimate reports whether (k1, decay) dominates
    the kernel over all samples, with the worst ratio and its location.
    Always reports the fitted minimal K1 at the given decay exponents.
    """
    t = np.asarray(t_samples, dtype=float).ravel()
    x = np.asarray(x_samples, dtype=float).ravel()
    y = np.asarray(y_samples, dtype=float).ravel()
    if t.size == 0 or x.size == 0 or y.size == 0:
        raise ValueError("empty sample set")
    if np.any(t <= 0):
        raise ValueError("sample set contains t <= 0")
    tt, xx, yy = np.meshgrid(t, x, y, indexing="ij")
    report = KernelBoundReport()
    for (name, kernel_fn, power), a in zip(_ESTIMATES, decay):
        if a <= 0:
            raise ValueError(f"decay constant for {name} must be positive")
        vals = np.abs(kernel_fn(tt, xx, yy, n_images))
        envelope = tt**power * np.exp(-a * (xx - yy) ** 2 / tt)
        ratio = vals / envelope
        fitted = float(np.max(ratio))
        idx = np.unravel_index(np.argmax(ratio), ratio.shape)
        point = (float(tt[idx]), float(xx[idx]), float(yy[idx]))
        supplied = fitted if k1 is None else float(k1)
        worst = fitted / supplied
        report.checks.append(
            BoundCheck(
                name=name,
                k1=supplied,
                decay=a,
                holds=bool(worst <= 1.0 + 1e-12),
                worst_ratio=float(worst),
                worst_point=point,
                fitted_k1=fitted,
            )
        )
    return report
