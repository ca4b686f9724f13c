"""Exponential time integrator for the mild formulation of the semilinear SPDE

    du = u_xx dt + d_x g(t,x,u) dt + f(t,x,u) dt + sqrt(eps) sigma(t,x,u) dW/dxdt

on [0,T]x[0,1] with Dirichlet boundary. One step of the first-order scheme is

    u_{m+1} = S_dt[ u_m + dt f(t_m,u_m) + sqrt(eps) w_m ] + D_dt[ g(t_m,u_m) ],

where S_dt is the heat semigroup, w_m(x_j) = sigma(t_m,x_j,u_m(x_j)) dW_mj/dx,
and D_dt integrates the divergence term exactly in time per mode: mode k picks
up -(1 - exp(-lambda_k dt))/lambda_k <phi_k', g(u_m)>. Exact per-mode time
integration tames the 1/t kernel-derivative singularity that defeats naive
quadrature. The noise rides inside S_dt so high modes stay damped, matching
the G_{t-s} factor of the mild form. A control psi enters as sigma psi, the
term a Cameron-Martin shift of the noise produces, and adds
(1 - exp(-lambda_k dt))/lambda_k <phi_k, sigma psi_m> per mode.

The step is written once, as _Ops.step, which every solver calls (paths,
Picard sweeps, skeleton and controlled flows, the adjoint forward sweep and
the path-rate prediction); _Ops also holds what is fixed for a whole solve.
The noise reaches the whole-path integrator _integrate only as sine-mode
increments dw_hat (the drawn Brownian increments, plus a tilt's
Cameron-Martin shift); it synthesizes each step's noise density and steps
_Ops.step. It returns the terminal state and each row's first blow-up step;
a caller builds the path or a running functional with an observer that sees
the nodal state before the first step and after every step (a frozen row
shows its last finite state). In the linear additive case (f = 0, g = 0,
constant sigma, no cutoff; _Ops.diagonal, derived from the coefficients
alone) the step is diagonal in the sine modes, so the terminal state is a
fixed linear map of the noise,

    u_hat(T) = decay^nt u_hat(0) + sqrt(eps) sigma sum_m decay^(nt-m) (dw_m + shift_m),

and _sample_replicas draws terminal samples of that case as contractions of
whole noise blocks, a group of rows at a time, against the table of
_Ops.decay_powers; action's closed-form minimum of that case reads the same
table.

Cutoff runs multiply the drift, noise and divergence terms by
chi_R(|u(t_m)|_rho) evaluated explicitly at the current step (an O(dt) lag
against the simultaneous cutoff). Galerkin-noise runs (SolverConfig.k_noise)
keep the first k noise modes of the same seed's white realization, so
convergence is measurable pathwise.

All stepping broadcasts over leading axes, so replica batches integrate in
lockstep; a single path is the batch of one. Replica Monte Carlo runs through
one engine, _replica_engine, which runs chunks of replicas in order or on
worker threads and hands each chunk one noise._NoiseDrawer, the one Philox
fill (a single path's noise.sample_sheet_expansion is a one-row drawer), and
the worker's buffer. A chunk holds at most _CHUNK_DOUBLES doubles of
whole-horizon noise (16 MiB; a single replica larger than that still gets a
chunk of its own) and, with threads > 1, at most ceil(replicas / threads)
rows, so every worker has a chunk even when all replicas fit in memory at
once; min(threads, chunk count) workers run, at most _MAX_THREADS. Each
worker draws its chunks into one buffer, allocated before the first chunk
runs, with room for _WINDOW steps of each of a chunk's rows and for at least
one row's whole block; a chunk's work must not keep its noise after it
returns. The stepping legs (Galerkin coupled errors and every uncontracted
replica run, tilted or not) read one step at a time through _windows, which
draws a window of steps at a time; a tilted run pairs each window with its
tilt as it is drawn. The linear additive contraction
sums over the whole horizon, so it draws the whole blocks of as many rows
as the buffer holds, and contracts and weighs each such group apart. The
Girsanov weight is paired step by step, so a row's terminal and weight have
the same bits in any group, window or chunk. The noise held at once is
bounded by workers x buffer whatever the replica count.
Its consumers are _sample_replicas (plain or Girsanov-tilted terminal and
sup-norm samples, behind run_replicas and the experiment studies) and
galerkin_coupled_errors. Both take several runs of a replica as one stacked
batch on its one noise draw: galerkin_coupled_errors the white run and
its truncations, _sample_replicas one run per entry of its list of initial
fields (and tilts), every result leading with an axis over the runs.
_moment_estimates stacks its eta scales, so the convergence study's moment
leg draws its noise once for all of them, and importance sampling stacks
its plain and tilted runs; each replica-step's noise density is synthesized
once for all runs. Blow-ups are masked per replica: a row that turns
non-finite is frozen, its first bad step recorded, and the other rows step
on unchanged, with no floating-point warning; the result does not depend on
chunk size, thread count or stacking.
"""

from __future__ import annotations

import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import CoefficientSet, chi_R
from .lattice import (
    Field,
    GridSpec,
    cos_analysis,
    eigen_values,
    from_modes,
    lp_norm_values,
    to_modes,
)
from .noise import NoiseRealization, SeedDerivation, _NoiseDrawer, sample_sheet_expansion

__all__ = [
    "SolverConfig",
    "PathSolution",
    "MomentEstimate",
    "BlowUpError",
    "PicardError",
    "solve_spde",
    "picard_solve",
    "estimate_moments",
    "galerkin_coupled_errors",
]


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite values."""

    def __init__(self, step: int, replica: int | None = None, seed=None):
        self.step = step
        self.replica = replica
        self.seed = seed
        where = f"step {step}"
        if replica is not None:
            where += f", replica {replica}"
        if seed is not None:
            where += f", seed {seed}"
        super().__init__(f"solution blew up at {where}")


class PicardError(RuntimeError):
    """Raised when the fixed-point iteration exhausts its budget."""

    def __init__(self, message: str, trace: list):
        self.trace = trace
        super().__init__(message)


@dataclass(frozen=True)
class SolverConfig:
    """Resolution, noise and cutoff knobs shared by all solvers.

    k_modes / k_noise default to the full interior count nx-1 ("white");
    k_noise < nx-1 drives the Galerkin-noise equation, cutoff_radius the
    cutoff dynamics.
    """

    k_modes: int | None = None
    k_noise: int | None = None
    cutoff_radius: float | None = None

    def __post_init__(self):
        if self.cutoff_radius is not None and self.cutoff_radius <= 0:
            raise ValueError("cutoff radius must be positive")

    def noise_modes(self, grid: GridSpec) -> int:
        """Active noise mode count on grid, checked against 0..nx-1."""
        nxm = grid.n_interior
        k = nxm if self.k_noise is None else int(self.k_noise)
        if not 0 <= k <= nxm:
            raise ValueError(f"k_noise={k} outside 0..{nxm}")
        return k


@dataclass
class PathSolution:
    """Time-indexed solution profiles with per-step diagnostics."""

    fields: np.ndarray  # (nt+1, nx-1)
    grid: GridSpec
    rho: float
    rho_norms: np.ndarray  # |u(t_m)|_rho
    linf_norms: np.ndarray
    seed_info: SeedDerivation | None = None

    @property
    def terminal(self) -> Field:
        return Field(self.fields[-1].copy(), self.grid)

    @property
    def sup_rho_norm(self) -> float:
        return float(np.max(self.rho_norms))

    def distance_to(self, other: "PathSolution", p: float | None = None) -> float:
        """C([0,T]; L^p) distance max_m |u(t_m) - v(t_m)|_p (default p = rho)."""
        p = self.rho if p is None else p
        diff = lp_norm_values(self.fields - other.fields, self.grid.dx, p)
        return float(np.max(diff))


@dataclass
class MomentEstimate:
    estimate: float
    stderr: float
    ratio: float
    replicas: int


def _stderr(samples: np.ndarray):
    """Standard error of the mean over the leading axis, std(ddof=1)/sqrt(n);
    0 for a single sample."""
    n = len(samples)
    if n > 1:
        return np.std(samples, axis=0, ddof=1) / np.sqrt(n)
    return np.zeros(np.shape(samples)[1:])


# ---------------------------------------------------------------------------
# The step
# ---------------------------------------------------------------------------


def _require_dealiasing(cf: CoefficientSet, grid: GridSpec, k_modes: int) -> None:
    # Quadratic transport needs the 4x margin between grid and retained modes.
    probe = np.array([-2.0, 0.7, 3.0])
    quadratic = bool(np.any(np.abs(np.asarray(cf.g2(0.0, probe))) > 0))
    if quadratic and grid.nx < 4 * k_modes:
        raise ValueError(
            f"quadratic transport requires nx >= 4*k_modes "
            f"(nx={grid.nx}, k_modes={k_modes}); lower k_modes in the config"
        )


def _apply_chi(values: np.ndarray, chi: np.ndarray | None) -> np.ndarray:
    return values if chi is None else chi * values


class _Ops:
    """One solve's fixed data and the scheme's step.

    Holds the coefficients, the nodes, the mode factors at (grid, k_modes)
    (checked for dealiasing once), sqrt(eps) and the cutoff radius.
    """

    def __init__(
        self,
        cf: CoefficientSet,
        grid: GridSpec,
        k_modes: int | None = None,
        eps: float = 0.0,
        cutoff_radius: float | None = None,
    ):
        if eps < 0:
            raise ValueError("noise intensity must be >= 0")
        nxm = grid.n_interior
        self.k_modes = nxm if k_modes is None else int(k_modes)
        if not 1 <= self.k_modes <= nxm:
            raise ValueError(f"k_modes={self.k_modes} outside 1..{nxm}")
        _require_dealiasing(cf, grid, self.k_modes)
        self.cf = cf
        self.grid = grid
        self.x = grid.x
        self.dt = grid.dt
        self.sqrt_eps = float(np.sqrt(eps))
        self.cutoff_radius = cutoff_radius
        lam = eigen_values(np.arange(1, nxm + 1))
        self.decay = np.exp(-lam * self.dt)
        self.ed = (1.0 - self.decay) / lam
        self.decay[self.k_modes :] = 0.0
        self.ed[self.k_modes :] = 0.0

    @property
    def diagonal(self) -> bool:
        """Whether a step is diagonal in the sine modes: no drift, no
        divergence term, constant sigma and no cutoff (the linear additive
        case). Such a step maps u_hat to decay * u_hat plus its forcing."""
        cf = self.cf
        return (
            cf.f_is_zero
            and cf.g_is_zero
            and cf.sigma_const is not None
            and self.cutoff_radius is None
        )

    def decay_powers(self) -> np.ndarray:
        """(nt, nx-1) table whose row m is decay^(nt-1-m): the diagonal steps'
        propagator of the sine modes from t_{m+1} to T."""
        powers = np.arange(self.grid.nt - 1, -1, -1)[:, None]
        return self.decay**powers

    def project(self, values: np.ndarray) -> np.ndarray:
        """Galerkin projection onto the active modes."""
        if self.k_modes == self.grid.n_interior:
            return values
        m = to_modes(values, self.grid)
        m[..., self.k_modes :] = 0.0
        return from_modes(m, self.grid)

    def cutoff(self, u: np.ndarray) -> np.ndarray | None:
        """chi_R(|u|_rho) per row, shaped to broadcast over nodes; None without a cutoff."""
        if self.cutoff_radius is None:
            return None
        norms = lp_norm_values(u, self.grid.dx, self.cf.rho)
        return np.asarray(chi_R(norms, self.cutoff_radius))[..., None]

    def sigma(self, t: float, u: np.ndarray):
        cf = self.cf
        return cf.sigma_const if cf.sigma_const is not None else cf.sigma(t, self.x, u)

    def step(
        self,
        u: np.ndarray,
        t: float,
        xi: np.ndarray | None = None,
        psi: np.ndarray | None = None,
        chi: np.ndarray | None = None,
        at: np.ndarray | None = None,
    ) -> np.ndarray:
        """One step from the state u at time t, returned as sine modes.

        xi is the step's spatial noise density, psi the control slice
        psi(t, .), chi the cutoff weight of the drift, noise and divergence
        terms; each broadcasts against u. The coefficients are evaluated at
        u, or at `at` when given (picard_solve passes its frozen iterate).

        Sums and products run in their formula's order, in place on the
        arrays the step allocates: the state, stacked over the control field
        sigma(w) psi for one transform call, and cos_analysis's result.
        _Ops keeps no scratch, so threads can share one.
        """
        cf, grid, x = self.cf, self.grid, self.x
        w = u if at is None else at
        noisy = xi is not None and self.sqrt_eps != 0.0
        sig = self.sigma(t, w) if noisy or psi is not None else None
        both = np.empty(u.shape if psi is None else (2,) + u.shape)
        v = both if psi is None else both[0]
        acc = u
        if not cf.f_is_zero:  # + dt chi f
            acc = np.add(acc, self.dt * _apply_chi(cf.f(t, x, w), chi), out=v)
        if noisy:  # + sqrt(eps) chi sigma xi
            acc = np.add(acc, self.sqrt_eps * _apply_chi(sig * xi, chi), out=v)
        if acc is u:
            v[...] = u
        if psi is not None:
            c_hat = np.multiply(sig, psi, out=both[1])
        to_modes(both, grid, out=both)
        modes = v  # the state's row, now its sine modes
        modes *= self.decay
        if not cf.g_is_zero:
            c = cos_analysis(_apply_chi(cf.g1(t, x, w) + cf.g2(t, w), chi), grid)
            c *= self.ed
            modes -= c
        if psi is not None:
            c_hat *= self.ed
            modes += c_hat
        return modes


def _integrate(u0: np.ndarray, ops: _Ops, dw=None, shift=None, psi=None, observe=None):
    """Step u0 (..., nx-1) nt times through _Ops.step, masking blow-ups per row.

    dw: a callable m -> the sine-mode increments of step m (the drawn
    increments, inactive noise modes zeroed), broadcasting against the state;
    shift: (..., nt, nx-1) mode-space tilt added to every step's increments;
    psi: (nt, nx-1) control. Each step's noise density is synthesized from
    dw(m) and its slice of the shift, one step at a time, so no nodal copy
    of the whole shift is held. observe, when given, is called with the
    nodal state before the first step and after every step; a frozen row
    keeps showing its last finite state.

    Returns (terminal, blown): terminal is the final nodal state, NaN in the
    rows that blew up; blown, shaped u0.shape[:-1], holds each row's first
    non-finite step (0 if the row stayed finite). A blown row is frozen at its
    last finite state and steps on with the others, so dw is read for all nt
    steps even when every row has blown.
    """
    grid = ops.grid

    def noise(m):
        """Step m's noise density, shifted."""
        w = from_modes(dw(m), grid)
        return w if shift is None else w + from_modes(shift[..., m, :], grid)

    state = ops.project(np.asarray(u0, dtype=float))
    blown = np.zeros(state.shape[:-1], dtype=int)
    alive = np.ones(state.shape[:-1], dtype=bool)
    if observe is not None:
        observe(state)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(grid.nt):
            modes = ops.step(
                state,
                m * grid.dt,
                xi=None if dw is None else noise(m),
                psi=None if psi is None else psi[..., m, :],
                chi=ops.cutoff(state),
            )
            new = from_modes(modes, grid)
            bad = alive & ~np.isfinite(new).all(axis=-1)
            if bad.any():
                blown[bad] = m + 1
                alive &= ~bad
            if not alive.all():
                new = np.where(alive[..., None], new, state)
            state = new
            if observe is not None:
                observe(state)

    return (state if alive.all() else np.where(alive[..., None], state, np.nan)), blown


def _path_solution(path, grid, cf, seed_info) -> PathSolution:
    rho_norms = lp_norm_values(path, grid.dx, cf.rho)
    linf = np.max(np.abs(path), axis=-1)
    return PathSolution(
        fields=path,
        grid=grid,
        rho=cf.rho,
        rho_norms=rho_norms,
        linf_norms=linf,
        seed_info=seed_info,
    )


def _solve_path(
    eta: Field,
    cf: CoefficientSet,
    eps: float,
    grid: GridSpec,
    config: SolverConfig | None,
    noise: NoiseRealization | None = None,
    psi: np.ndarray | None = None,
) -> PathSolution:
    """One whole path of the (controlled) scheme; raises BlowUpError on blow-up."""
    config = config or SolverConfig()
    ops = _Ops(cf, grid, config.k_modes, eps, config.cutoff_radius)
    dw = None
    if noise is not None and eps > 0 and noise.k_active > 0:
        dw = lambda m: noise.mode_increments[m]
    # The observer copies each state into its row of the preallocated path.
    path = np.empty((grid.nt + 1, grid.n_interior))
    rows = iter(path)
    _, blown = _integrate(eta.values, ops, dw, psi=psi, observe=lambda u: np.copyto(next(rows), u))
    if blown and dw is None:
        raise BlowUpError(step=int(blown))
    if blown:  # a noise-driven path names its seed triple, as a blown replica does
        raise BlowUpError(int(blown), replica=noise.seed_info.replica, seed=noise.seed_info)
    seed_info = noise.seed_info if noise is not None else None
    return _path_solution(path, grid, cf, seed_info)


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def solve_spde(
    eta: Field,
    cf: CoefficientSet,
    eps: float,
    seed: int,
    grid: GridSpec,
    config: SolverConfig | None = None,
    replica: int = 0,
    stream: int = 0,
) -> PathSolution:
    """Full SPDE path driven by noise; deterministic given (seed, config).

    config.k_noise < nx-1 keeps the first k noise modes of the seed's stream
    (the Galerkin-noise equation); config.cutoff_radius runs the cutoff
    dynamics.
    """
    config = config or SolverConfig()
    noise = sample_sheet_expansion(
        grid, config.noise_modes(grid), seed, replica, stream
    )
    return _solve_path(eta, cf, eps, grid, config, noise=noise)


def picard_solve(
    eta: Field,
    cf: CoefficientSet,
    eps: float,
    noise: NoiseRealization | None,
    grid: GridSpec,
    tol: float = 1e-10,
    max_iter: int = 60,
    delta: float = 50.0,
    cutoff_radius: float | None = None,
    k_modes: int | None = None,
):
    """Fixed-point iteration of the discrete mild map over whole paths.

    Each sweep rebuilds the path with every integral term evaluated against
    the frozen previous iterate; the fixed point coincides with the one-step
    scheme's path. Successive distances are measured in the exponentially
    weighted norm max_m e^{-delta t_m} |.|_rho and returned as the trace.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    ops = _Ops(cf, grid, k_modes, eps, cutoff_radius)
    xi = None
    if noise is not None and eps > 0:
        xi = noise.spatial_density
    weights = np.exp(-delta * grid.t)

    eta_v = ops.project(eta.values)
    # Zeroth iterate: pure heat flow of the initial field.
    lam = eigen_values(np.arange(1, grid.n_interior + 1))
    U = from_modes(np.exp(-np.outer(grid.t, lam)) * to_modes(eta_v, grid), grid)

    trace = []
    for _ in range(max_iter):
        V = np.empty_like(U)
        V[0] = eta_v
        chis = ops.cutoff(U)
        for m in range(grid.nt):
            modes = ops.step(
                V[m],
                m * grid.dt,
                xi=None if xi is None else xi[m],
                chi=None if chis is None else chis[m],
                at=U[m],
            )
            V[m + 1] = from_modes(modes, grid)
        if not np.all(np.isfinite(V)):
            raise BlowUpError(step=int(np.argwhere(~np.isfinite(V).all(axis=-1))[0][0]))
        dist = float(np.max(weights * lp_norm_values(V - U, grid.dx, cf.rho)))
        trace.append(dist)
        U = V
        if dist <= tol:
            seed_info = noise.seed_info if noise is not None else None
            return _path_solution(U, grid, cf, seed_info), trace
    raise PicardError(
        f"no contraction below tol={tol} within {max_iter} iterations "
        f"(last distance {trace[-1]:.3e})",
        trace,
    )


# ---------------------------------------------------------------------------
# The replica engine
# ---------------------------------------------------------------------------


# A chunk's noise block holds at most this many doubles (16 MiB), unless a
# single replica's noise is larger.
_CHUNK_DOUBLES = 2**21
# Steps of noise a stepping consumer draws at a time.
_WINDOW = 32
# Worker threads of one engine call. Each worker's buffer is allocated before
# any chunk runs and holds a _WINDOW-step window of a chunk, up to 16 MiB of
# noise when nt <= _WINDOW, so 64 workers may take 1 GiB up front; a larger
# count buys nothing on a few cores and risks the memory.
_MAX_THREADS = 64


def _rows_view(buf: np.ndarray, rows: int, steps: int) -> np.ndarray:
    """The first rows * steps slots of a worker's buffer as (rows, steps, nx-1)."""
    return buf[: rows * steps].reshape(rows, steps, buf.shape[1])


def _windows(drawer: _NoiseDrawer, buf: np.ndarray, on_draw=None):
    """dw(m) for m = 0, 1, ..., nt-1, called in that order: step m's mode
    increments of the drawer's rows, drawn into buf as many steps at a time
    as it holds for those rows (at most nt). on_draw, when given, is called
    as on_draw(m, window) with each window (rows, steps, nx-1) of steps from
    m on as soon as it is drawn."""
    rows = drawer.row_shape[0]
    width = min(len(buf) // rows, drawer.nt)
    window = _rows_view(buf, rows, width)

    def dw(m):
        if m == drawer.drawn:
            drawn = drawer.fill(window[:, : min(width, drawer.nt - m)])
            if on_draw is not None:
                on_draw(m, drawn)
        return window[:, m % width]

    return dw


def _replica_engine(
    grid: GridSpec,
    master: int,
    replicas: int,
    stream: int,
    work,
    threads: int = 1,
    k_noise: int | None = None,
) -> np.ndarray:
    """Run work(rows, drawer, buf) over consecutive chunks of replicas
    0..replicas-1.

    drawer is the chunk's _NoiseDrawer on the streams (master, r, stream),
    zeroing mode columns k_noise: (none when k_noise is None), and buf the
    worker's buffer: max(chunk * min(_WINDOW, nt), nt) slots of nx-1
    doubles, room for min(_WINDOW, nt) steps of every row of a chunk and for
    at least one row's whole block. work draws its noise into buf (through
    _windows, or as whole blocks of a group of rows at a time), integrates
    and reduces it, writes only its own rows of its outputs, and returns the
    first non-finite step of each of its runs, shaped (..., len(rows)) (0
    where a run stayed finite). The next chunk
    overwrites buf, so work may change the noise but must not keep it (or a
    view of it) after it returns.

    A chunk holds at most _CHUNK_DOUBLES of whole-block noise (a replica
    larger than that still gets a chunk of its own) and, with threads > 1,
    at most ceil(replicas / threads) rows, so every worker gets a chunk; the
    window does not change the chunks. Chunks run in order, or on
    min(threads, chunk count) worker threads, threads <= _MAX_THREADS. Each
    worker's buffer is allocated before any chunk runs and freed before the
    results are joined, so the engine's noise memory is workers x buffer,
    whatever the replica count. Returns the blow-up steps of all runs,
    shaped (..., replicas).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if not 1 <= threads <= _MAX_THREADS:
        raise ValueError(f"threads={threads} outside 1..{_MAX_THREADS}")
    nt, nxm = grid.nt, grid.n_interior
    k_noise = nxm if k_noise is None else k_noise
    chunk = min(max(1, int(_CHUNK_DOUBLES // max(nt * nxm, 1))), -(-replicas // threads))
    starts = range(0, replicas, chunk)
    workers = min(threads, len(starts))
    # One buffer per worker, allocated up front: buffers allocated as each
    # thread first needs one interleave with the results work allocates and
    # leave the heap's peak depending on the order they happen to run in.
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty((max(chunk * min(_WINDOW, nt), nt), nxm)))

    def run_chunk(start: int) -> np.ndarray:
        rows = range(start, min(start + chunk, replicas))
        buf = buffers.get()
        try:
            drawer = _NoiseDrawer(grid, master, rows, stream, k_noise)
            return work(rows, drawer, buf)
        finally:
            buffers.put(buf)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, starts))
    else:
        parts = [run_chunk(s) for s in starts]
    del buffers
    return np.concatenate(parts, axis=-1)


def _raise_first_blowup(blown: np.ndarray, master: int, stream: int) -> None:
    """Raise BlowUpError for the lowest-index blown replica, if any.

    The error carries that replica's own first non-finite step and its seed
    triple (master, replica, stream).
    """
    hit = np.flatnonzero(blown)
    if hit.size:
        r = int(hit[0])
        raise BlowUpError(int(blown[r]), replica=r, seed=SeedDerivation(master, r, stream))


def _sample_replicas(
    etas: list[Field],
    cf: CoefficientSet,
    eps: float,
    grid: GridSpec,
    master: int,
    replicas: int,
    stream: int = 0,
    config: SolverConfig | None = None,
    psis: list | None = None,
    record: str = "terminal",
    threads: int = 1,
):
    """(values, log_weights, blown) of replicas 0..replicas-1, one run per
    initial Field of etas, plain or tilted.

    Each replica runs once per entry of etas on its one noise draw, the runs
    taken as one stacked batch; every result leads with an axis over the
    runs. values holds each replica's terminal field (record="terminal") or
    its sup-in-time |u|_rho^rho (record="sup_rho"); blown holds each
    replica's first non-finite step (0 if it stayed finite), and a blown
    replica's values are NaN. The caller decides whether partial loss is
    acceptable. Linear additive terminals (_Ops.diagonal) are contracted from
    the noise, drawn as the whole blocks of as many replicas at a time as the
    engine's buffer holds (about _WINDOW / nt of a chunk); only a (run,
    replica) whose terminal is not finite is stepped. Every other run steps
    through windows of _WINDOW steps.

    psis, when given, holds each run's tilt (nt, nx-1), or None for an
    untilted run. A tilt psi shifts the white increments themselves,
    dW -> dW + dt dx psi / sqrt(eps), before the plain dynamics are
    integrated; paired with the Girsanov log weight of the unshifted
    increments (log_weights, 0 without a tilt) this is the exact discrete
    change of measure, so the reweighted estimator is unbiased for any sigma
    (psi = 0 reproduces plain sampling bit for bit). The weight pairs each
    step's increments with the tilt as they are drawn, a group of whole
    blocks or a window at a time, so it has the same bits in any group,
    window or chunk.
    """
    # control imports this module, so its names are looked up at call time.
    from .control import Control, _log_weight, _step_pairings

    config = config or SolverConfig()
    if record not in ("terminal", "sup_rho"):
        raise ValueError(f"record mode '{record}' not supported for replicas")
    runs = len(etas)
    psis = [None] * runs if psis is None else psis
    if len(psis) != runs:
        raise ValueError(f"{runs} initial fields for {len(psis)} tilts")
    nxm = grid.n_interior
    k_noise = config.noise_modes(grid)
    ops = _Ops(cf, grid, config.k_modes, eps, config.cutoff_radius)
    u_init = np.stack([e.values for e in etas])

    # tilted: (run, tilt as a Control, its sine modes) of each tilted run;
    # shifts: the tilts' shifts of the driving mode increments per step.
    tilted = []
    shifts = None
    for i, p in enumerate(psis):
        if p is None:
            continue
        pm = to_modes(p, grid)
        if k_noise < nxm:
            # The tilt must live in the span of the driving noise modes for the
            # change of measure to be exact.
            pm[:, k_noise:] = 0.0
            p = from_modes(pm, grid)
        tilt = Control(p, grid)
        tilted.append((i, tilt, to_modes(tilt.values, grid)))
        if shifts is None:
            # Each run's shift broadcasts over the chunk's replica rows.
            shifts = np.zeros((runs, 1, grid.nt, nxm))
        shifts[i, 0] = (grid.dt / np.sqrt(eps)) * pm
    values = np.empty((runs, replicas) + ((nxm,) if record == "terminal" else ()))
    log_weights = np.zeros((runs, replicas))
    dx, rho = grid.dx, cf.rho
    contract = ops.diagonal and record == "terminal"
    if contract:
        # The terms of u0 and of each run's shift are fixed for the call.
        weights = ops.decay * ops.decay_powers()
        scale = ops.sqrt_eps * cf.sigma_const
        fixed = (ops.decay**grid.nt * to_modes(u_init, grid))[:, None, :]
        if shifts is not None:
            fixed += scale * np.einsum("rimk,mk->rik", shifts, weights)

    def weigh(pairings, mine: slice) -> None:
        """Write the log weights of rows mine from each tilt's (rows, nt)
        step pairings."""
        for (i, tilt, _), pairing in zip(tilted, pairings):
            log_weights[i, mine] = _log_weight(pairing, tilt, eps)

    def contracted(noise: np.ndarray, start: int) -> np.ndarray:
        """Terminals of the replicas from start whose whole blocks are noise."""
        mine = slice(start, start + len(noise))
        weigh([_step_pairings(noise, psi_hat) for *_, psi_hat in tilted], mine)
        with np.errstate(over="ignore", invalid="ignore"):
            hat = fixed + scale * np.einsum("rmk,mk->rk", noise, weights)
            terminal = from_modes(hat, grid)
        blown = np.zeros((runs, len(noise)), dtype=int)
        run, row = np.nonzero(~np.isfinite(terminal).all(axis=-1))
        if run.size:  # stepped alone, each names its first non-finite step
            shift = None if shifts is None else shifts[run, 0]
            terminal[run, row], blown[run, row] = _integrate(
                u_init[run], ops, lambda m: noise[row, m, :], shift
            )
        values[:, mine] = terminal
        return blown

    def work(rows: range, drawer: _NoiseDrawer, buf: np.ndarray) -> np.ndarray:
        if contract:
            group = len(buf) // grid.nt
            blown = []
            for lo in range(0, len(rows), group):
                noise = _rows_view(buf, min(group, len(rows) - lo), grid.nt)
                blown.append(contracted(drawer.fill_blocks(noise, lo), rows.start + lo))
            return np.concatenate(blown, axis=-1)
        mine = slice(rows.start, rows.stop)
        pairings = np.empty((len(tilted), len(rows), grid.nt))

        def pair(m: int, window: np.ndarray) -> None:
            """Pair each tilt with a window of steps from m on as it is drawn."""
            steps = slice(m, m + window.shape[1])
            for j, (*_, psi_hat) in enumerate(tilted):
                pairings[j, :, steps] = _step_pairings(window, psi_hat[steps])

        u0 = np.broadcast_to(u_init[:, None, :], (runs, len(rows), nxm))
        sup = observe = None
        if record == "sup_rho":
            sup = np.zeros((runs, len(rows)))
            observe = lambda u: np.maximum(sup, lp_norm_values(u, dx, rho) ** rho, out=sup)
        dw = _windows(drawer, buf, pair if tilted else None)
        terminal, blown = _integrate(u0, ops, dw, shifts, observe=observe)
        weigh(pairings, mine)
        values[:, mine] = terminal if sup is None else np.where(blown > 0, np.nan, sup)
        return blown

    blown = _replica_engine(grid, master, replicas, stream, work, threads, k_noise)
    return values, log_weights, blown


def run_replicas(
    eta: Field,
    cf: CoefficientSet,
    eps: float,
    grid: GridSpec,
    master_seed: int,
    replicas: int,
    stream: int = 0,
    config: SolverConfig | None = None,
    record: str = "terminal",
    threads: int = 1,
):
    """Integrate independent replicas on derived streams; order-stable output.

    Returns an array whose leading axis is the replica index: terminal fields
    for record="terminal", sup-in-time |u|_rho^rho for record="sup_rho".
    Raises BlowUpError for the lowest-index replica that blew up.
    """
    values, _, blown = _sample_replicas(
        [eta], cf, eps, grid, master_seed, replicas, stream, config,
        record=record, threads=threads,
    )
    _raise_first_blowup(blown[0], master_seed, stream)
    return values[0]


def galerkin_coupled_errors(
    eta: Field,
    cf: CoefficientSet,
    eps: float,
    grid: GridSpec,
    master: int,
    replicas: int,
    k_list,
    stream: int = 0,
    k_modes: int | None = None,
    threads: int = 1,
) -> np.ndarray:
    """(replicas, len(k_list)) pathwise sup-in-time L^rho coupled errors.

    Each replica couples the white-noise path against its k-mode truncations
    on the shared stream. The white run and the truncations of a chunk step
    in lockstep as one stacked batch, and the sup-in-time error accumulates
    step by step, so no path is stored.
    """
    nxm = grid.n_interior
    ops = _Ops(cf, grid, k_modes, eps)
    # Stack row 0 keeps every noise mode, row j+1 the first k_list[j].
    keep = np.array([nxm] + [int(k) for k in k_list])
    for k in keep[1:]:
        if not 0 <= k <= nxm:
            raise ValueError(f"k_list entry {k} outside 0..{nxm}")
    masks = (np.arange(nxm) < keep[:, None]).astype(float)[:, None, :]
    errors = np.empty((replicas, len(k_list)))

    def work(rows: range, drawer: _NoiseDrawer, buf: np.ndarray) -> np.ndarray:
        sup = np.zeros((len(k_list), len(rows)))
        dw = _windows(drawer, buf)

        def observe(u):
            np.maximum(sup, lp_norm_values(u[0] - u[1:], grid.dx, cf.rho), out=sup)

        u0 = np.broadcast_to(eta.values, (len(keep), len(rows), nxm))
        _, blown = _integrate(u0, ops, lambda m: masks * dw(m), observe=observe)
        errors[rows.start : rows.stop] = sup.T
        return blown

    blown = _replica_engine(grid, master, replicas, stream, work, threads)
    # A replica blew up at the first step any of its stacked runs did.
    first = np.where(blown > 0, blown, grid.nt + 1).min(axis=0)
    _raise_first_blowup(np.where(first > grid.nt, 0, first), master, stream)
    return errors


def _moment_estimates(
    etas: list[Field],
    cf: CoefficientSet,
    eps: float,
    rho: float,
    replicas: int,
    grid: GridSpec,
    config: SolverConfig | None = None,
    master_seed: int = 0,
    stream: int = 0,
    threads: int = 1,
) -> list[MomentEstimate]:
    """estimate_moments for each initial Field of etas, in order, all runs of
    a replica stepping as one stacked batch on its one noise draw.

    Raises BlowUpError for the first eta, in order, with a blown replica: its
    lowest-index blown replica, that replica's own step and seed triple.
    """
    cf = cf if cf.rho == rho else replace(cf, rho=float(rho))
    sups, _, blowns = _sample_replicas(
        etas, cf, eps, grid, master_seed, replicas, stream, config,
        record="sup_rho", threads=threads,
    )
    out = []
    for eta, sup, blown in zip(etas, sups, blowns):
        _raise_first_blowup(blown, master_seed, stream)
        estimate = float(np.mean(sup))
        norm_eta = lp_norm_values(eta.values, grid.dx, rho) ** rho
        out.append(
            MomentEstimate(
                estimate=estimate,
                stderr=float(_stderr(sup)),
                ratio=estimate / (1.0 + float(norm_eta)),
                replicas=replicas,
            )
        )
    return out


def estimate_moments(
    eta: Field,
    cf: CoefficientSet,
    eps: float,
    rho: float,
    replicas: int,
    grid: GridSpec,
    config: SolverConfig | None = None,
    master_seed: int = 0,
    stream: int = 0,
    threads: int = 1,
) -> MomentEstimate:
    """Monte Carlo estimate of E sup_t |u(t)|_rho^rho over derived seed streams."""
    return _moment_estimates(
        [eta], cf, eps, rho, replicas, grid, config, master_seed, stream, threads
    )[0]
