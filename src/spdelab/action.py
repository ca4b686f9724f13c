"""Minimum action method and path-space rate evaluation.

minimize_action finds the cheapest control steering the deterministic
controlled flow (skeleton dynamics) from eta to a terminal target. In the
linear additive case (_Ops.diagonal) v_hat(T) = decay^nt eta_hat + sigma
sum_m reach_m psi_hat_m per sine mode, with reach_m = decay^(nt-1-m) ed, and
the action is (1/2) dt sum psi_hat^2. There it returns Kalman's
minimum-energy control, psi_hat_m = reach_m gap / G with the mode's gap
phi_hat - decay^nt eta_hat and Gramian G = sigma sum_m reach_m^2, without
iterating; a mode with G = 0 (above k_modes, or sigma = 0) gets no control
and keeps its gap in the residual. Every other problem minimizes

    F_mu(psi) = (1/2) iint psi^2 + (mu/2) |v(T;psi) - phi_target|_2^2

by gradient descent with Barzilai-Borwein steps, Armijo backtracking (so the
accepted objective is monotone), and penalty continuation that doubles mu
whenever the terminal residual stalls above tolerance. The gradient comes
from the exact transpose of the linearized one-step scheme
(discretize-then-optimize), so it matches central finite differences of the
discrete objective to near machine precision.

The forward sweep and the objective take a stack of controls and step its
rows in lockstep, each row with the bits of its own sweep. The line search
uses this: its first trial is one row, and after a rejection the next
LADDER halvings of the step run as one stacked sweep, of which the first
row to pass Armijo is taken, as the one-trial-at-a-time search would take
it. A sweep's time goes mostly into per-step calls: on the benchmark's
burgers_action solve an objective of six rows takes 1.7 to 1.8 times as
long as one of one row (940 against 533 us, and 971 against 580 us, in two
measurements on a shared 2-vCPU x86_64 host, each the minimum of 20 x 100
calls), far below six.

path_rate_function inverts the discrete dynamics along a given path: the
one-step residual left over after the heat update, drift, and divergence
contributions is attributed to the control term and divided by sigma
pointwise, recovering psi and its action, all steps in one _Ops.step call.
On a grid-matched path with full mode resolution the inversion is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet
from .control import Control, rate_functional
from .lattice import Field, GridSpec, cos_synthesis, from_modes, to_modes
from .mild_solver import _Ops

__all__ = [
    "ActionOptions",
    "RateResult",
    "minimize_action",
    "path_rate_function",
    "gradient_check",
]

GRADIENT_FLOOR = 1e-12
MU0 = 10.0  # initial penalty weight
STALL_WINDOW = 25  # iterations above tolerance before mu doubles
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
LADDER = 6  # backtracking halvings evaluated together as one stacked sweep


@dataclass(frozen=True)
class ActionOptions:
    residual_tol: float = 1e-3
    max_iters: int = 3000
    k_modes: int | None = None


@dataclass
class RateResult:
    psi_star: Control
    action: float
    residual: float
    converged: bool
    iterations: int
    mu_final: float
    trace: list = field(default_factory=list)  # (iter, objective, action, residual, mu)


class _AdjointProblem:
    """Forward/adjoint passes for the penalized terminal-target objective."""

    def __init__(self, phi_target, eta, cf, grid, opts: ActionOptions):
        self.grid = grid
        self.cf = cf
        self.ops = _Ops(cf, grid, opts.k_modes)
        self.eta = self.ops.project(np.asarray(eta.values, dtype=float))
        self.target = np.asarray(phi_target.values, dtype=float)
        self.x = grid.x
        self.dx = grid.dx
        self.dt = grid.dt
        self.dtdx = grid.dt * grid.dx
        # Rows decay and ed: one synthesis of adjoint_factors * p_hat gives a
        # stepping adjoint sweep's S p and C p together.
        self.adjoint_factors = np.stack((self.ops.decay, self.ops.ed))

    def forward(self, psi: np.ndarray):
        """Paths of the controlled deterministic flow under the controls psi
        (..., nt, nx-1), shaped (..., nt+1, nx-1).

        Every row steps through the same _Ops.step calls, so a stack of L
        controls costs nt calls of each transform, as one control does, and
        each row's path has the bits of its own single sweep. Non-finite
        states are returned as they are; objective flags them.
        """
        grid, ops = self.grid, self.ops
        v = np.empty(psi.shape[:-2] + (grid.nt + 1, grid.n_interior))
        v[..., 0, :] = self.eta
        for m in range(grid.nt):
            modes = ops.step(v[..., m, :], m * self.dt, psi=psi[..., m, :])
            from_modes(modes, grid, out=v[..., m + 1, :])
        return v

    def objective(self, psi: np.ndarray, mu: float):
        """(F_mu, path, squared terminal residual, action term (1/2) iint psi^2)
        for each control of psi (..., nt, nx-1), as arrays over its leading
        axes. Each row's sums are reduced as for that row alone. F_mu is inf
        on a row whose path is not finite, so a line search rejects it."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.forward(psi)
            res_sq = self.dx * np.sum((v[..., -1, :] - self.target) ** 2, axis=-1)
            sq = psi**2
            action = 0.5 * self.dtdx * np.sum(sq.reshape(sq.shape[:-2] + (-1,)), axis=-1)
            J = action + 0.5 * mu * res_sq
        return np.where(np.isfinite(v).all(axis=(-2, -1)), J, np.inf), v, res_sq, action

    def gradient(self, psi: np.ndarray, v: np.ndarray, mu: float):
        """Exact transpose of the linearized scheme, marched backwards."""
        grid, cf, ops = self.grid, self.cf, self.ops
        p = mu * self.dx * (v[-1] - self.target)
        # The coefficient factors of every step at once: row m is at (t_m, v[m]).
        t, u = grid.t[:-1, None], v[:-1]

        def steps(values):
            return np.broadcast_to(np.asarray(values, dtype=float), u.shape)

        # Loop invariants, each product in the order of the per-step formula;
        # -g_r times a synthesis equals g_r times its negation bit for bit.
        sig = steps(ops.sigma(t, u))
        sig_r_psi = None if cf.sigma_const is not None else steps(cf.sigma_r(t, self.x, u)) * psi
        f_r = None if cf.f_is_zero else 1.0 + self.dt * steps(cf.f_r(t, self.x, u))
        neg_g_r = None if cf.g_is_zero else -steps(cf.g_r(t, self.x, u))
        # Row m is step m's [S p, C p]; sigma C p is paired after the loop.
        factors = np.empty((grid.nt, 2, grid.n_interior))
        work = None if neg_g_r is None else np.zeros((2, grid.nx + 1))
        for m in range(grid.nt - 1, -1, -1):
            both = np.multiply(self.adjoint_factors, to_modes(p, grid), out=factors[m])
            if neg_g_r is not None:  # row 1 is ed p_hat
                g_term = neg_g_r[m] * cos_synthesis(both[1], grid, work)
            from_modes(both, grid, overwrite=True)
            p, Cp = both[0], both[1]
            if f_r is not None:
                p *= f_r[m]
            if neg_g_r is not None:
                p += g_term
            if sig_r_psi is not None:
                p += sig_r_psi[m] * Cp
        return self.dtdx * psi + sig * factors[:, 1]


def minimize_action(
    phi_target: Field,
    eta: Field,
    cf: CoefficientSet,
    grid: GridSpec,
    opts: ActionOptions | None = None,
) -> RateResult:
    """Cheapest control steering the skeleton flow to phi_target at time T.

    A linear additive problem is solved in closed form (module docstring),
    with a one-row trace and 0 iterations. Any other problem runs penalty
    continuation to a terminal residual below opts.residual_tol and returns
    its best (lowest residual, then lowest objective) iterate and trace.
    """
    opts = opts or ActionOptions()
    prob = _AdjointProblem(phi_target, eta, cf, grid, opts)
    if prob.ops.diagonal:
        return _diagonal_minimum(prob, opts)
    psi = np.zeros((grid.nt, grid.n_interior))
    mu = MU0

    J, v, res_sq, action = prob.objective(psi, mu)
    if not np.isfinite(J):
        raise FloatingPointError("controlled flow blew up during optimization")
    J, res_sq, action = float(J), float(res_sq), float(action)
    residual = float(np.sqrt(res_sq))
    grad = prob.gradient(psi, v, mu)
    trace = [(0, J, action, residual, mu)]
    if residual <= opts.residual_tol:
        return _result(psi, grid, residual, True, 0, mu, trace)

    step = 1.0 / (prob.dtdx * (1.0 + mu))
    prev_psi = prev_grad = None
    stall = 0
    best = (residual, J, psi.copy())

    for it in range(1, opts.max_iters + 1):
        if prev_grad is not None:
            dpsi = psi - prev_psi
            dg = grad - prev_grad
            num = float(np.sum(dpsi * dg))
            den = float(np.sum(dg * dg))
            if num > 0 and den > 0:
                step = num / den
        step, trial = _backtrack(prob, psi, grad, J, step, mu)
        accepted = trial is not None
        if accepted:
            prev_psi, prev_grad = psi, grad
            psi, J, v, res_sq, action = trial
            residual = float(np.sqrt(res_sq))
            grad = prob.gradient(psi, v, mu)
        rel_drop = abs(trace[-1][1] - J) / max(J, 1e-300)
        trace.append((it, J, action, residual, mu))
        if residual < best[0] or (residual == best[0] and J < best[1]):
            best = (residual, J, psi.copy())
        if residual <= opts.residual_tol and (not accepted or rel_drop < 1e-10):
            return _result(psi, grid, residual, True, it, mu, trace)
        if residual > opts.residual_tol:
            stall += 1
            if stall >= STALL_WINDOW or not accepted:
                mu *= 2.0
                # Same psi, so the same path: only the penalty weight changes.
                J = action + 0.5 * mu * res_sq
                grad = prob.gradient(psi, v, mu)
                prev_psi = prev_grad = None
                step = 1.0 / (prob.dtdx * (1.0 + mu))
                stall = 0
        else:
            stall = 0

    res_b, _, psi_b = best
    return _result(psi_b, grid, res_b, False, opts.max_iters, mu, trace)


def _diagonal_minimum(prob: _AdjointProblem, opts: ActionOptions) -> RateResult:
    """Minimum-energy control of a linear additive problem (module docstring)."""
    grid, ops, sigma = prob.grid, prob.ops, prob.cf.sigma_const
    reach = ops.decay_powers() * ops.ed
    free = ops.decay**grid.nt * to_modes(prob.eta, grid)
    gap = to_modes(prob.target, grid) - free
    gram = sigma * np.sum(reach**2, axis=0)
    psi = from_modes(reach * np.divide(gap, gram, out=np.zeros_like(gap), where=gram != 0), grid)
    v_T = from_modes(free + sigma * np.sum(reach * to_modes(psi, grid), axis=0), grid)
    res_sq = prob.dx * float(np.sum((v_T - prob.target) ** 2))
    residual = float(np.sqrt(res_sq))
    action = 0.5 * prob.dtdx * float(np.sum(psi**2))
    trace = [(0, action + 0.5 * MU0 * res_sq, action, residual, MU0)]
    return _result(psi, grid, residual, residual <= opts.residual_tol, 0, MU0, trace)


def _backtrack(prob: _AdjointProblem, psi, grad, J: float, step: float, mu: float):
    """Armijo backtracking from step over at most 50 halvings, laddered as
    the module docstring says. Halving is exact, so each trial step is the
    float of the one-trial-at-a-time search. Returns (step, (psi, J, path,
    squared residual, action)) of the accepted trial, or (step halved past
    the last trial, None)."""
    g_sq = float(np.sum(grad * grad))
    tried = 0
    while tried < 50:
        steps = step * 0.5 ** np.arange(min(LADDER, 50 - tried) if tried else 1)
        cands = psi - steps[:, None, None] * grad
        J_c, v_c, res_sq, action = prob.objective(cands, mu)
        passed = J_c <= J - ARMIJO * steps * g_sq
        if passed.any():
            i = int(np.argmax(passed))
            return float(steps[i]), (
                cands[i], float(J_c[i]), v_c[i], float(res_sq[i]), float(action[i])
            )
        step = float(steps[-1]) * 0.5
        tried += len(steps)
    return step, None


def _result(psi, grid, residual, converged, iterations, mu, trace) -> RateResult:
    control = Control(psi, grid)
    return RateResult(
        psi_star=control,
        action=rate_functional(control),
        residual=float(residual),
        converged=converged,
        iterations=iterations,
        mu_final=mu,
        trace=trace,
    )


def path_rate_function(
    path,
    cf: CoefficientSet,
    grid: GridSpec,
    sigma_min: float = 1e-8,
    k_modes: int | None = None,
):
    """Action of a given path by residual inversion of the discrete dynamics.

    Returns (I, psi). The control is recovered per step from the mode
    residual divided by the exact time-integration weight, then by sigma
    pointwise; sigma must stay above sigma_min along the path.
    """
    values = path.fields if hasattr(path, "fields") else np.asarray(path, dtype=float)
    nxm = grid.n_interior
    if values.shape != (grid.nt + 1, nxm):
        raise ValueError(
            f"path shape {values.shape} does not match grid ({grid.nt + 1}, {nxm})"
        )
    ops = _Ops(cf, grid, k_modes)
    # Every step at once: row m holds step m, at time t_m.
    t, u = grid.t[:-1, None], values[:-1]
    sig = np.broadcast_to(np.asarray(cf.sigma(t, grid.x, u), dtype=float), u.shape)
    degenerate = (np.abs(sig) < sigma_min).any(axis=-1)
    if degenerate.any():
        m = int(np.argmax(degenerate))
        raise ValueError(f"sigma degenerate at step {m}: |sigma| < {sigma_min} on the path")
    # The scheme's step without noise or control predicts u(t_{m+1}).
    resid = to_modes(values[1:], grid) - ops.step(u, t)
    w_modes = np.zeros_like(resid)
    w_modes[:, : ops.k_modes] = resid[:, : ops.k_modes] / ops.ed[: ops.k_modes]
    control = Control(from_modes(w_modes, grid) / sig, grid)
    return rate_functional(control), control


def gradient_check(
    phi_target: Field,
    eta: Field,
    cf: CoefficientSet,
    psi: Control | np.ndarray,
    direction: Control | np.ndarray,
    h: float,
    mu: float = 10.0,
    opts: ActionOptions | None = None,
) -> float:
    """Relative error between the adjoint gradient pairing <grad J, d> and the
    central finite difference (J(psi+hd) - J(psi-hd)) / (2h).

    psi and the direction d are each a Control or an array, checked by
    Control.on against phi_target's grid."""
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    grid = phi_target.grid
    psi_v = Control.on(psi, grid).values
    d = Control.on(direction, grid).values
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    opts = opts or ActionOptions()
    prob = _AdjointProblem(phi_target, eta, cf, grid, opts)
    J, v = prob.objective(np.stack((psi_v, psi_v + h * d, psi_v - h * d)), mu)[:2]
    if not np.all(np.isfinite(J)):
        raise FloatingPointError("controlled flow blew up during the gradient check")
    grad = prob.gradient(psi_v, v[0], mu)
    pairing = float(np.sum(grad * d))
    fd = (float(J[1]) - float(J[2])) / (2.0 * h)
    return abs(pairing - fd) / max(abs(pairing), GRADIENT_FLOOR)
