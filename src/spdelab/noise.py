"""Space-time white noise increments and the truncated Brownian-sheet expansion.

One realization carries both representations of the same noise. Its
driving block of mode Brownian increments dw_i(m) ~ N(0, dt) against the
orthonormal basis hh_i(x) = sqrt(2) sin(i pi x) is the source of truth; cell
white increments are derived from it,

    dW[m, j] = dx * sum_{i <= k} hh_i(x_j) dw_i(m),

which for the full mode count k = nx-1 is an exact orthogonal change of
variables: the derived dW are i.i.d. N(0, dt*dx). A realization truncated to
k modes shares its first k increments with the full one bit for bit and is
zero beyond them, so its block is the noise that drives it. That nesting
makes degenerate-noise (spectral Galerkin) convergence studies pathwise
rather than in-distribution.

Seed derivation is a pure function of (master, replica, stream), and
philox_keys is its one implementation: the triple is hashed as numpy's
SeedSequence would hash entropy master plus spawn key (replica, stream)
(hash the master's words into a 4-word pool, mix the pool, mix in the
spawn-key words, then generate_state(2, uint64)) into the key of a
counter-based Philox generator at counter zero. A counter-based stream needs
only its key, so philox_keys runs vectorized over a range of replicas.
_NoiseDrawer is the one Philox fill: it re-keys one Philox per replica,
fills that replica's row of a caller's buffer in place and zeroes the
inactive mode columns. It draws window after window, saving each row's
generator state between windows, so the windows join to the rows' whole
blocks bit for bit and a whole block is one window of nt steps; or it draws
the whole blocks of a group of rows at a time, saving no state. The replica
engine draws every chunk with one drawer, and sample_sheet_expansion fills
a single path's block with a one-row drawer. Distinct triples give
independent streams regardless of scheduling; tests/test_noise.py pins the
keys to numpy's own SeedSequence(...).generate_state(2, np.uint64) and the
draws to frozen vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import GridSpec, from_modes

__all__ = [
    "SeedDerivation",
    "philox_keys",
    "NoiseRealization",
    "sample_sheet_expansion",
]


@dataclass(frozen=True)
class SeedDerivation:
    """The seed triple (master, replica, stream) of one realization's stream,
    as philox_keys derives it."""

    master: int
    replica: int = 0
    stream: int = 0


# numpy SeedSequence constants (bit_generator.pyx): pool size, hash and mix
# multipliers, all on 32-bit words.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of an int n >= 0
    ([0] for 0)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_keys(entropy: list) -> np.ndarray:
    """(n, 2) uint64 SeedSequence(entropy).generate_state(2, uint64) for
    at least _POOL entropy words, each an int or a uint64 array of n words.

    Every product is of two 32-bit words, so uint64 arithmetic masked to 32
    bits is exact; a difference may wrap, which the mask also undoes.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for value in pool:  # two uint64 words are the pool's four uint32 words
        value = value ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def philox_keys(master: int, replicas: range, stream: int) -> np.ndarray:
    """(len(replicas), 2) uint64 Philox keys of the streams (master, r,
    stream) for r in replicas, in one vectorized pass.

    Key i is SeedSequence(entropy=master mod 2**64, spawn_key=(replicas[i],
    stream)).generate_state(2, uint64), so a Philox at counter zero under it
    draws what Philox(that SeedSequence) draws. Replicas below 2**32 are one
    spawn-key word, the rest two; the two groups are hashed apart. Like a
    spawn key, replicas and stream must be >= 0.
    """
    if stream < 0:
        # _words would alias it to a large stream.
        raise ValueError(f"stream={stream} must be >= 0")
    entropy = _words(int(master) & 0xFFFFFFFFFFFFFFFF)
    entropy += [0] * (_POOL - len(entropy))
    tail = _words(int(stream))
    r = np.array(replicas, dtype=np.uint64)
    keys = np.empty((len(r), 2), dtype=np.uint64)
    short = r <= _MASK32
    if short.any():
        keys[short] = _seed_keys(entropy + [r[short]] + tail)
    if not short.all():
        wide = r[~short]
        keys[~short] = _seed_keys(entropy + [wide & _MASK32, wide >> 32] + tail)
    return keys


class _NoiseDrawer:
    """Draws the mode increments of the streams (master, r, stream), r in
    replicas, window after window: each fill draws the next steps of every
    row, so consecutive windows concatenate to the rows' (nt, nx-1) blocks
    bit for bit: row i is what Philox(SeedSequence(master, spawn_key=
    (replicas[i], stream))) draws, times sqrt(dt). Mode columns k_noise: are
    zeroed after each fill.

    One Philox draws every row. A row's first window re-keys it to the row's
    key at counter zero; a later window restores the state saved when the
    row's previous window ended. No state is saved after a row's last window,
    so a single window of nt steps costs what a plain fill costs. Instead of
    windows, fill_blocks draws the whole blocks of a range of rows, a group
    at a time.
    """

    def __init__(self, grid: GridSpec, master: int, replicas: range, stream: int, k_noise: int):
        self.nt = grid.nt
        self.k_noise = k_noise
        self.scale = np.sqrt(grid.dt)
        self.keys = philox_keys(master, replicas, stream)
        self.row_shape = (len(replicas), grid.n_interior)
        self.bits = np.random.Philox(key=0)
        self.rng = np.random.Generator(self.bits)
        # A fresh Philox's state: counter zero, empty buffer (buffer_pos 4), no
        # cached 32-bit half (has_uint32 0); only the key changes per replica.
        self.fresh = self.bits.state
        self.states = [None] * len(replicas)
        self.drawn = 0

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Draw the next out.shape[1] steps of every row into out, shaped
        (len(replicas), steps, nx-1) with C-contiguous rows, and return it."""
        if out.ndim != 3 or out.shape[::2] != self.row_shape:
            n, nxm = self.row_shape
            raise ValueError(f"noise window {out.shape} is not shaped ({n}, steps, {nxm})")
        end = self.drawn + out.shape[1]
        if end > self.nt:
            raise ValueError(f"a window ending at step {end} overruns nt={self.nt}")
        first, keep = self.drawn == 0, end < self.nt
        for i, row in enumerate(out):
            if first:
                self.fresh["state"]["key"] = self.keys[i]
            self.bits.state = self.fresh if first else self.states[i]
            self.rng.standard_normal(out=row)
            if keep:
                self.states[i] = self.bits.state
        self.drawn = end
        return self._finish(out)

    def fill_blocks(self, out: np.ndarray, start: int) -> np.ndarray:
        """Draw the whole (nt, nx-1) blocks of rows start..start+len(out) into
        out, shaped (rows, nt, nx-1) with C-contiguous rows, and return it.

        Saves no state, so groups of rows may be drawn in any order, but only
        by a drawer that has drawn no window."""
        n, nxm = self.row_shape
        if out.ndim != 3 or out.shape[1:] != (self.nt, nxm):
            raise ValueError(f"noise blocks {out.shape} are not shaped (rows, {self.nt}, {nxm})")
        if not 0 <= start <= start + len(out) <= n:
            raise ValueError(f"rows {start}..{start + len(out)} outside the drawer's 0..{n}")
        if self.drawn:
            raise ValueError(f"whole blocks asked for after a window of {self.drawn} steps")
        for key, row in zip(self.keys[start:], out):
            self.fresh["state"]["key"] = key
            self.bits.state = self.fresh
            self.rng.standard_normal(out=row)
        return self._finish(out)

    def _finish(self, out: np.ndarray) -> np.ndarray:
        """Scale the standard normals drawn into out to Var dt and zero the
        inactive mode columns."""
        out *= self.scale
        out[..., self.k_noise :] = 0.0
        return out


@dataclass
class NoiseRealization:
    """Coupled mode/white representation of one driving noise realization.

    mode_increments is the driving block: the first k_active mode columns of
    the seed's stream, zero beyond them.
    """

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

    @cached_property
    def spatial_density(self) -> np.ndarray:
        """(nt, nx-1) noise density xi[m, j] = sum_{i<=k} hh_i(x_j) dw_i(m)."""
        xi = from_modes(self.mode_increments, self.grid)
        xi.flags.writeable = False
        return xi

    @cached_property
    def white_increments(self) -> np.ndarray:
        """Cell increments dW[m, j] = dx * xi[m, j]; Var = dt*dx at full mode count."""
        dw = self.grid.dx * self.spatial_density
        dw.flags.writeable = False
        return dw


def sample_sheet_expansion(
    grid: GridSpec, k_noise: int, seed: int, replica: int = 0, stream: int = 0
) -> NoiseRealization:
    """Truncated sheet expansion: first k_noise modes active, stream-nested.

    k_noise = 0 yields the zero realization; k_noise = nx-1 (grid.n_interior)
    is the white-noise realization of the stream key. The read-only
    (nt, nx-1) driving block is a fresh array that owns its memory, filled by
    a one-row _NoiseDrawer, the fill the replica engine draws with, so that
    realizations with different active mode counts stay nested on a shared
    stream.
    """
    k_noise = int(k_noise)
    if not 0 <= k_noise <= grid.n_interior:
        raise ValueError(f"k_noise={k_noise} outside 0..{grid.n_interior}")
    block = np.empty((grid.nt, grid.n_interior))
    _NoiseDrawer(grid, seed, range(replica, replica + 1), stream, k_noise).fill(block[None])
    block.flags.writeable = False
    return NoiseRealization(grid, SeedDerivation(seed, replica, stream), block, k_noise)
