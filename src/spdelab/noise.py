"""Space-time white noise increments and the truncated Brownian-sheet expansion.

One realization carries both representations of the same noise. The mode
Brownian increments dw_i(m) ~ N(0, dt) against the orthonormal basis
hh_i(x) = sqrt(2) sin(i pi x) are the source of truth; cell white increments
are derived from them,

    dW[m, j] = dx * sum_{i <= k} hh_i(x_j) dw_i(m),

which for the full mode count k = nx-1 is an exact orthogonal change of
variables: the derived dW are i.i.d. N(0, dt*dx) and a realization truncated
to k modes shares its first k mode increments with the full one bit for bit.
That nesting makes degenerate-noise (spectral Galerkin) convergence studies
pathwise rather than in-distribution.

Seed derivation is a pure function of (master, replica, stream): the triple
feeds numpy's SeedSequence hash mix as entropy plus spawn key, keyed into a
counter-based Philox generator. Distinct triples give independent streams
regardless of scheduling; test vectors are frozen in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import GridSpec, from_modes

__all__ = [
    "SeedDerivation",
    "NoiseRealization",
    "derive_generator",
    "draw_mode_increments",
    "sample_white_increments",
    "sample_sheet_expansion",
    "partial_sum_identity",
]


@dataclass(frozen=True)
class SeedDerivation:
    """Stream key (master, replica, stream) for reproducible parallel sampling."""

    master: int
    replica: int = 0
    stream: int = 0

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=int(self.master) & 0xFFFFFFFFFFFFFFFF,
            spawn_key=(int(self.replica), int(self.stream)),
        )

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed_sequence()))


def derive_generator(master: int, replica: int = 0, stream: int = 0) -> np.random.Generator:
    return SeedDerivation(master, replica, stream).generator()


def draw_mode_increments(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """One (nt, nx-1) block of mode increments, variance dt per entry.

    The full block is always drawn in one call so that realizations with
    different active mode counts stay nested on a shared stream.
    """
    block = rng.standard_normal((grid.nt, grid.n_interior)) * np.sqrt(grid.dt)
    block.flags.writeable = False
    return block


@dataclass
class NoiseRealization:
    """Coupled mode/white representation of one driving noise realization."""

    grid: GridSpec
    seed_info: SeedDerivation
    mode_increments: np.ndarray  # (nt, nx-1), Var = dt, modes are columns
    k_active: int

    def __post_init__(self):
        nt, nxm = self.grid.nt, self.grid.n_interior
        if self.mode_increments.shape != (nt, nxm):
            raise ValueError(
                f"mode increment block {self.mode_increments.shape} does not "
                f"match grid ({nt}, {nxm})"
            )
        if not 0 <= self.k_active <= nxm:
            raise ValueError(f"k_active={self.k_active} outside 0..{nxm}")

    @property
    def active_modes(self) -> np.ndarray:
        return self.mode_increments[:, : self.k_active]

    @cached_property
    def spatial_density(self) -> np.ndarray:
        """(nt, nx-1) noise density xi[m, j] = sum_{i<=k} hh_i(x_j) dw_i(m)."""
        padded = np.zeros_like(self.mode_increments)
        padded[:, : self.k_active] = self.active_modes
        xi = from_modes(padded, self.grid)
        xi.flags.writeable = False
        return xi

    @cached_property
    def white_increments(self) -> np.ndarray:
        """Cell increments dW[m, j] = dx * xi[m, j]; Var = dt*dx at full mode count."""
        dw = self.grid.dx * self.spatial_density
        dw.flags.writeable = False
        return dw

    def sheet_value(self, m: int, x: float) -> float:
        """Reconstructed Brownian sheet W(t_m, x) from the white increments.

        Cells to the left of x contribute fully; x is snapped onto the cell
        partition {[x_j - dx, x_j)} so node arguments are exact.
        """
        if not 0 <= m <= self.grid.nt:
            raise ValueError(f"time index {m} outside 0..{self.grid.nt}")
        if m == 0 or x <= 0:
            return 0.0
        j_full = min(int(np.floor(x * self.grid.nx + 1e-12)), self.grid.n_interior)
        return float(np.sum(self.white_increments[:m, :j_full]))


def sample_white_increments(
    grid: GridSpec, seed: int, replica: int = 0, stream: int = 0
) -> NoiseRealization:
    """White-noise realization: all nx-1 modes active."""
    info = SeedDerivation(seed, replica, stream)
    block = draw_mode_increments(grid, info.generator())
    return NoiseRealization(grid, info, block, grid.n_interior)


def sample_sheet_expansion(
    grid: GridSpec, k_noise: int, seed: int, replica: int = 0, stream: int = 0
) -> NoiseRealization:
    """Truncated sheet expansion: first k_noise modes active, stream-nested.

    k_noise = 0 yields the zero realization; k_noise = nx-1 coincides with
    sample_white_increments for the same stream key.
    """
    k_noise = int(k_noise)
    if not 0 <= k_noise <= grid.n_interior:
        raise ValueError(f"k_noise={k_noise} outside 0..{grid.n_interior}")
    info = SeedDerivation(seed, replica, stream)
    block = draw_mode_increments(grid, info.generator())
    return NoiseRealization(grid, info, block, k_noise)


def partial_sum_identity(k: int, x) -> np.ndarray | float:
    """Partial sum sum_{i<=k} h_i(x)^2 with h_i(x) = sqrt(2)(1 - cos(i pi x))/(i pi).

    Completeness of the sine basis gives sum_i h_i(x)^2 = x, so the partial
    sums increase to x from below.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0) or np.any(x_arr > 1):
        raise ValueError("x must lie in [0, 1]")
    if k == 0:
        out = np.zeros_like(x_arr)
        return out if out.shape else 0.0
    i = np.arange(1, k + 1)
    terms = 2.0 * (1.0 - np.cos(np.multiply.outer(x_arr, i * np.pi))) ** 2 / (i * np.pi) ** 2
    out = np.sum(terms, axis=-1)
    return out if out.shape else float(out)
