"""Exponential time integrator for the mild formulation of the semilinear SPDE

    du = u_xx dt + d_x g(t,x,u) dt + f(t,x,u) dt + sqrt(eps) sigma(t,x,u) dW/dxdt

on [0,T]x[0,1] with Dirichlet boundary. One step of the first-order scheme is

    u_{m+1} = S_dt[ u_m + dt f(t_m,u_m) + sqrt(eps) w_m ] + D_dt[ g(t_m,u_m) ],

where S_dt is the heat semigroup, w_m(x_j) = sigma(t_m,x_j,u_m(x_j)) dW_mj/dx,
and D_dt integrates the divergence term exactly in time per mode: mode k picks
up -(1 - exp(-lambda_k dt))/lambda_k <phi_k', g(u_m)>. Exact per-mode time
integration tames the 1/t kernel-derivative singularity that defeats naive
quadrature. The noise rides inside S_dt so high modes stay damped, matching
the G_{t-s} factor of the mild form. A control psi adds
(1 - exp(-lambda_k dt))/lambda_k <phi_k, sigma psi_m> per mode.

The step is written once, as _Ops.step, which every solver calls (paths,
Picard sweeps, skeleton and controlled flows, the adjoint forward sweep and
the path-rate prediction); _Ops also holds what is fixed for a whole solve.
The noise reaches the whole-path integrator _integrate only as sine-mode
increments dw_hat (the drawn Brownian increments, plus a tilt's
Cameron-Martin shift), and _integrate alone decides how to step them. In the
linear additive case (f = 0, g = 0, constant sigma, no cutoff;
_Ops.diagonal, derived from the coefficients alone) without a control the
step is diagonal in the sine modes, u_hat <- decay * (u_hat + sqrt(eps)
sigma dw_hat), and the state is carried in modes; otherwise each step's
noise density is synthesized and _Ops.step runs. action's adjoint sweeps
sum the decay powers of the diagonal step in one batched transform.

Cutoff runs multiply the drift, noise and divergence terms by
chi_R(|u(t_m)|_rho) evaluated explicitly at the current step (an O(dt) lag
against the simultaneous cutoff). Galerkin-noise runs (SolverConfig.k_noise)
keep the first k noise modes of the same seed's white realization, so
convergence is measurable pathwise.

All stepping broadcasts over leading axes, so replica batches integrate in
lockstep; a single path is the batch of one. Replica Monte Carlo runs through
one engine, _replica_engine, which draws each chunk's mode increments once
and runs the chunks in order or on worker threads. _noise_block, the one
place Monte Carlo noise is drawn, derives the chunk's Philox keys in one
pass (noise.philox_keys, the one seed derivation, which also keys a single
path's noise.sample_sheet_expansion) and re-keys the chunk's own generator
for each replica, filling that replica's row in place. A chunk's noise
block holds at most _CHUNK_DOUBLES doubles and, with threads > 1, at most
ceil(replicas / threads) rows, so every worker has a chunk even when all
replicas fit in memory at once; min(threads, chunk count) workers run.
Its consumers are _sample_replicas (plain or Girsanov-tilted terminal and
sup-norm samples, behind run_replicas and the experiment studies) and
galerkin_coupled_errors. Both step several runs of a replica as one stacked
batch on its one noise block: galerkin_coupled_errors the white run and
its truncations, _sample_replicas one run per entry of its list of initial
fields (and tilts), every result leading with an axis over the runs.
_moment_estimates stacks its eta scales, so the convergence study's moment
leg draws its noise once for all of them, and importance sampling stacks
its plain and tilted runs; off the diagonal path each replica-step's noise
density is synthesized once for all runs. Blow-ups are masked per replica:
a row that turns non-finite is frozen, its first bad step recorded, and the
other rows step on unchanged, with no floating-point warning; the result
does not depend on chunk size, thread count or stacking.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
from .noise import (
    NoiseRealization,
    SeedDerivation,
    philox_keys,
    sample_sheet_expansion,
)

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


# Control couplings: sigma(u) psi ("direct") or sigma(u) int_0^y psi dy'
# ("integrated"); every solve that takes a coupling checks it against these.
_COUPLINGS = ("direct", "integrated")


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
    control_coupling: str = "direct"

    def __post_init__(self):
        _check_coupling(self.control_coupling)
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
    eps: float
    rho: float
    rho_norms: np.ndarray  # |u(t_m)|_rho
    linf_norms: np.ndarray
    seed_info: SeedDerivation | None = None
    config: SolverConfig = field(default_factory=SolverConfig)

    def field_at(self, m: int) -> Field:
        return Field(self.fields[m].copy(), self.grid)

    @property
    def terminal(self) -> Field:
        return self.field_at(self.grid.nt)

    @property
    def sup_rho_norm(self) -> float:
        return float(np.max(self.rho_norms))

    @property
    def stability_indicator(self) -> float:
        """Largest one-step amplification of the sup norm."""
        prev = np.maximum(self.linf_norms[:-1], 1e-300)
        return float(np.max(self.linf_norms[1:] / prev))

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


def _check_coupling(coupling: str) -> None:
    if coupling not in _COUPLINGS:
        raise ValueError(f"unknown control coupling '{coupling}'")


def _apply_chi(values: np.ndarray, chi: np.ndarray | None) -> np.ndarray:
    return values if chi is None else chi * values


class _Ops:
    """One solve's fixed data and the scheme's step.

    Holds the coefficients, the nodes, the mode factors at (grid, k_modes)
    (checked for dealiasing once), sqrt(eps), the cutoff radius and the
    control coupling.
    """

    def __init__(
        self,
        cf: CoefficientSet,
        grid: GridSpec,
        k_modes: int | None = None,
        eps: float = 0.0,
        cutoff_radius: float | None = None,
        coupling: str = "direct",
    ):
        if eps < 0:
            raise ValueError("noise intensity must be >= 0")
        _check_coupling(coupling)
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
        self.coupling = coupling
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

    def control_field(self, t: float, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """sigma(u) psi (direct), or sigma(u) int_0^y psi dy' (integrated)."""
        if self.coupling == "direct":
            return self.sigma(t, u) * psi
        return self.sigma(t, u) * (self.grid.dx * np.cumsum(psi, axis=-1))

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
        terms. The coefficients are evaluated at u, or at `at` when given
        (picard_solve passes its frozen iterate).
        """
        cf, grid, x = self.cf, self.grid, self.x
        w = u if at is None else at
        v = u
        if not cf.f_is_zero:
            v = v + self.dt * _apply_chi(cf.f(t, x, w), chi)
        if xi is not None and self.sqrt_eps != 0.0:
            v = v + self.sqrt_eps * _apply_chi(self.sigma(t, w) * xi, chi)
        if psi is None:
            v_hat = to_modes(v, grid)
        else:
            # One transform call for the state and the control field.
            both = np.empty((2,) + v.shape)
            both[0], both[1] = v, self.control_field(t, w, psi)
            v_hat, c_hat = to_modes(both, grid)
        modes = v_hat * self.decay
        if not cf.g_is_zero:
            gv = _apply_chi(cf.g1(t, x, w) + cf.g2(t, w), chi)
            modes -= cos_analysis(gv, grid) * self.ed
        if psi is not None:
            modes += c_hat * self.ed
        return modes


# No synthesis of modes whose magnitudes sum to at most this can overflow.
_SAFE_MODE_SUM = 1e300


def _synthesizes_finite(modes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Per row, whether from_modes(modes) is finite. Only the rows whose mode
    magnitudes sum past _SAFE_MODE_SUM (or are not finite) are synthesized."""
    ok = np.asarray(np.abs(modes).sum(axis=-1) <= _SAFE_MODE_SUM)
    if not ok.all():
        check = ~ok
        ok[check] = np.isfinite(from_modes(modes[check], grid)).all(axis=-1)
    return ok


def _integrate(u0: np.ndarray, ops: _Ops, dw=None, shift=None, psi=None, record="path"):
    """Advance u0 (..., nx-1) over all nt steps, masking blow-ups per row.

    dw: a callable m -> the sine-mode increments of step m (the drawn
    increments, inactive noise modes zeroed), broadcasting against the state;
    shift: (..., nt, nx-1) mode-space tilt added to every step's increments;
    psi: (nt, nx-1) control. record = "path" returns the (nt+1, ...)
    time-major history, "terminal" the final state, "sup_rho" the running max
    of |u|_rho^rho; a callable record is called with the state before the
    first step and after every step, and None is returned for it.

    When ops.diagonal holds and there is no control, the state is carried in
    sine modes, u_hat <- decay * (u_hat + sqrt(eps) sigma (dw(m) + shift)),
    and synthesized only where the record needs nodal values or where the
    mode magnitudes leave open whether the nodal values are finite.
    Otherwise each step's noise density is synthesized from dw(m), the shift
    once per call, and the step is _Ops.step.

    Returns (out, blown): blown, shaped u0.shape[:-1], holds each row's first
    non-finite step (0 if the row stayed finite). A blown row is frozen at its
    last finite state and reads NaN in a terminal or sup_rho record; stepping
    stops once every row has blown, so a blown path is incomplete.
    """
    grid = ops.grid
    dx, rho = grid.dx, ops.cf.rho
    modal = ops.diagonal and psi is None
    if shift is not None and not modal:
        shift = from_modes(shift, grid)

    def noise(m):
        """Step m's shifted increments (modal path) or noise density."""
        w = dw(m) if modal else from_modes(dw(m), grid)
        return w if shift is None else w + shift[..., m, :]

    u = ops.project(np.asarray(u0, dtype=float))
    blown = np.zeros(u.shape[:-1], dtype=int)
    alive = np.ones(u.shape[:-1], dtype=bool)

    out = None
    if record == "path":
        out = np.empty((grid.nt + 1,) + u.shape)
        out[0] = u
    elif record == "sup_rho":
        out = lp_norm_values(u, dx, rho) ** rho
    elif callable(record):
        record(u)
    elif record != "terminal":
        raise ValueError(f"unknown record mode '{record}'")

    # The carried state: sine modes on the modal path, else nodal values.
    state = to_modes(u, grid) if modal else u
    scale = ops.sqrt_eps * ops.cf.sigma_const if modal else None
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(grid.nt):
            if modal:
                new = ops.decay * (state if dw is None else state + scale * noise(m))
                finite = _synthesizes_finite(new, grid)
            else:
                modes = ops.step(
                    state,
                    m * grid.dt,
                    xi=None if dw is None else noise(m),
                    psi=None if psi is None else psi[..., m, :],
                    chi=ops.cutoff(state),
                )
                new = from_modes(modes, grid)
                finite = np.isfinite(new).all(axis=-1)
            bad = alive & ~finite
            if bad.any():
                blown[bad] = m + 1
                alive &= ~bad
                if not alive.any():
                    break
            if not alive.all():
                new = np.where(alive[..., None], new, state)
            state = new
            if record == "terminal":
                continue
            u = from_modes(state, grid) if modal else state
            if record == "path":
                out[m + 1] = u
            elif record == "sup_rho":
                out = np.maximum(out, lp_norm_values(u, dx, rho) ** rho)
            else:
                record(u)

    if record == "terminal":
        u = from_modes(state, grid) if modal else state
        out = u if alive.all() else np.where(alive[..., None], u, np.nan)
    elif record == "sup_rho" and not alive.all():
        out = np.where(alive, out, np.nan)
    return out, blown


def _path_solution(path, grid, eps, cf, seed_info, config) -> PathSolution:
    rho_norms = lp_norm_values(path, grid.dx, cf.rho)
    linf = np.max(np.abs(path), axis=-1)
    return PathSolution(
        fields=path,
        grid=grid,
        eps=eps,
        rho=cf.rho,
        rho_norms=rho_norms,
        linf_norms=linf,
        seed_info=seed_info,
        config=config,
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
    ops = _Ops(
        cf, grid, config.k_modes, eps, config.cutoff_radius, config.control_coupling
    )
    dw = None
    if noise is not None and eps > 0 and noise.k_active > 0:
        modes = noise.driving_modes
        dw = lambda m: modes[m]
    path, blown = _integrate(eta.values, ops, dw, psi=psi)
    if blown and dw is None:
        raise BlowUpError(step=int(blown))
    if blown:  # a noise-driven path names its seed triple, as a blown replica does
        raise BlowUpError(int(blown), replica=noise.seed_info.replica, seed=noise.seed_info)
    seed_info = noise.seed_info if noise is not None else None
    return _path_solution(path, grid, eps, cf, seed_info, config)


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
    config = SolverConfig(k_modes=k_modes, cutoff_radius=cutoff_radius)
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
            return _path_solution(U, grid, eps, cf, seed_info, config), trace
    raise PicardError(
        f"no contraction below tol={tol} within {max_iter} iterations "
        f"(last distance {trace[-1]:.3e})",
        trace,
    )


# ---------------------------------------------------------------------------
# The replica engine
# ---------------------------------------------------------------------------


def _noise_block(grid: GridSpec, master: int, replicas: range, stream: int) -> np.ndarray:
    """(len(replicas), nt, nx-1) mode increments of the derived streams.

    Row i is the mode_increments of sample_sheet_expansion(grid, k, master,
    replicas[i], stream), for any k, bit for bit: the chunk's one Philox is
    re-keyed to each replica's key at counter zero and fills that row in
    place, and the block is scaled by sqrt(dt) once.
    """
    block = np.empty((len(replicas), grid.nt, grid.n_interior))
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    # A fresh Philox's state: counter zero, empty buffer (buffer_pos 4), no
    # cached 32-bit half (has_uint32 0); only the key changes per replica.
    state = bits.state
    for row, key in zip(block, philox_keys(master, replicas, stream)):
        state["state"]["key"] = key
        bits.state = state
        rng.standard_normal(out=row)
    block *= np.sqrt(grid.dt)
    return block


# A chunk's noise block holds at most this many doubles.
_CHUNK_DOUBLES = 1.2e7


def _replica_engine(
    grid: GridSpec,
    master: int,
    replicas: int,
    stream: int,
    work,
    threads: int = 1,
) -> np.ndarray:
    """Run work(rows, modes) over consecutive chunks of replicas 0..replicas-1.

    modes is the chunk's (len(rows), nt, nx-1) block of mode increments on
    the streams (master, r, stream), drawn once; work integrates and reduces
    it, writes only its own rows of its outputs, and returns the first
    non-finite step of each of its runs, shaped (..., len(rows)) (0 where a
    run stayed finite). A chunk holds at most _CHUNK_DOUBLES of noise and,
    with threads > 1, at most ceil(replicas / threads) rows, so every worker
    gets a chunk. Chunks run in order, or on min(threads, chunk count)
    worker threads. Returns the blow-up steps of all runs, shaped
    (..., replicas).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if threads < 1:
        raise ValueError(f"threads={threads} must be >= 1")
    chunk = min(
        max(1, int(_CHUNK_DOUBLES / max(grid.nt * grid.n_interior, 1))),
        -(-replicas // threads),
    )

    def run_chunk(start: int) -> np.ndarray:
        rows = range(start, min(start + chunk, replicas))
        return work(rows, _noise_block(grid, master, rows, stream))

    starts = range(0, replicas, chunk)
    workers = min(threads, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, starts))
    else:
        parts = [run_chunk(s) for s in starts]
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
    stepping as one stacked batch; every result leads with an axis over the
    runs. values holds each replica's terminal field (record="terminal") or
    its sup-in-time |u|_rho^rho (record="sup_rho"); blown holds each
    replica's first non-finite step (0 if it stayed finite), and a blown
    replica's values are NaN. The caller decides whether partial loss is
    acceptable.

    psis, when given, holds each run's tilt (nt, nx-1), or None for an
    untilted run. A tilt psi shifts the white increments themselves,
    dW -> dW + dt dx psi / sqrt(eps), before the plain dynamics are
    integrated; paired with the Girsanov log weight of the unshifted
    increments (log_weights, 0 without a tilt) this is the exact discrete
    change of measure, so the reweighted estimator is unbiased for any sigma
    (psi = 0 reproduces plain sampling bit for bit).
    """
    # control imports this module, so its names are looked up at call time.
    from .control import Control, girsanov_log_weight

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

    # tilts[i]: run i's tilt as a Control, or None; shifts: the tilts' shifts
    # of the driving mode increments per step.
    tilts = [None] * runs
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
        tilts[i] = Control(p, grid)
        if shifts is None:
            # Each run's shift broadcasts over the chunk's replica rows.
            shifts = np.zeros((runs, 1, grid.nt, nxm))
        shifts[i, 0] = (grid.dt / np.sqrt(eps)) * pm
    values = np.empty((runs, replicas) + ((nxm,) if record == "terminal" else ()))
    log_weights = np.zeros((runs, replicas))

    def work(rows: range, modes: np.ndarray) -> np.ndarray:
        if k_noise < nxm:
            modes[..., k_noise:] = 0.0
        mine = slice(rows.start, rows.stop)
        for i, tilt in enumerate(tilts):
            if tilt is not None:
                log_weights[i, mine] = girsanov_log_weight(tilt, modes, eps)
        u0 = np.broadcast_to(u_init[:, None, :], (runs, len(rows), nxm))
        values[:, mine], blown = _integrate(
            u0, ops, lambda m: modes[:, m, :], shifts, record=record
        )
        return blown

    blown = _replica_engine(grid, master, replicas, stream, work, threads)
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

    def work(rows: range, modes: np.ndarray) -> np.ndarray:
        sup = np.zeros((len(k_list), len(rows)))

        def observe(u):
            np.maximum(sup, lp_norm_values(u[0] - u[1:], grid.dx, cf.rho), out=sup)

        u0 = np.broadcast_to(eta.values, (len(keep), len(rows), nxm))
        _, blown = _integrate(u0, ops, lambda m: masks * modes[:, m, :], record=observe)
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
