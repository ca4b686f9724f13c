"""Minimum action method and path-space rate evaluation.

minimize_action finds the cheapest control steering the deterministic
controlled flow (skeleton dynamics) from eta to a terminal target: it
minimizes the penalized objective

    F_mu(psi) = (1/2) iint psi^2 + (mu/2) |v(T;psi) - phi_target|_2^2

by gradient descent with Barzilai-Borwein steps, Armijo backtracking (so the
accepted objective is monotone), and penalty continuation that doubles mu
whenever the terminal residual stalls above tolerance. The gradient comes
from the exact transpose of the linearized one-step scheme
(discretize-then-optimize), so it matches central finite differences of the
discrete objective to near machine precision. In the linear additive case
(_Ops.diagonal) the step is diagonal in the sine modes: the forward sweep
builds only v(T), as decay^nt eta_hat plus the control modes of every step
weighted by decay^(nt-1-m) ed, and the adjoint sweep gets every step's
C p from the same weights, one batched transform each way.

path_rate_function inverts the discrete dynamics along a given path: the
one-step residual left over after the heat update, drift, and divergence
contributions is attributed to the control term and divided by sigma
pointwise, recovering psi and its action. On a grid-matched path with full
mode resolution the inversion is exact.
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


@dataclass(frozen=True)
class ActionOptions:
    residual_tol: float = 1e-3
    max_iters: int = 3000
    k_modes: int | None = None
    coupling: str = "direct"


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
        self.ops = _Ops(cf, grid, opts.k_modes, coupling=opts.coupling)
        self.eta = self.ops.project(np.asarray(eta.values, dtype=float))
        self.target = np.asarray(phi_target.values, dtype=float)
        self.x = grid.x
        self.dx = grid.dx
        self.dt = grid.dt
        self.dtdx = grid.dt * grid.dx
        # Rows decay and ed: one synthesis of adjoint_factors * p_hat gives a
        # stepping adjoint sweep's S p and C p together.
        self.adjoint_factors = np.stack((self.ops.decay, self.ops.ed))
        if self.ops.diagonal:
            # Row m is decay^(nt-1-m) * ed: the weight with which the control
            # modes of step m reach v(T), and the adjoint of v(T) reaches C p
            # at step m. free is the heat flow of eta to T.
            powers = np.arange(grid.nt - 1, -1, -1)[:, None]
            self.reach = self.ops.decay**powers * self.ops.ed
            self.free = self.ops.decay**grid.nt * to_modes(self.eta, grid)

    def forward(self, psi: np.ndarray):
        """Path of the controlled deterministic flow under psi.

        When the step is diagonal only v(T) is built, from one batched
        transform of the control fields, and the returned array holds just
        that row: the adjoint of a diagonal step never reads the states.
        Non-finite states raise FloatingPointError so the optimizer's line
        search can reject an overlong step instead of propagating NaNs.
        """
        grid, ops = self.grid, self.ops
        if ops.diagonal:
            c_hat = to_modes(ops.control_field(0.0, self.eta, psi), grid)
            v = from_modes(self.free + np.sum(self.reach * c_hat, axis=0), grid)[None]
        else:
            v = np.empty((grid.nt + 1, grid.n_interior))
            v[0] = self.eta
            for m in range(grid.nt):
                v[m + 1] = from_modes(ops.step(v[m], m * self.dt, psi=psi[m]), grid)
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("controlled flow blew up during optimization")
        return v

    def objective(self, psi: np.ndarray, mu: float):
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.forward(psi)
        misfit = v[-1] - self.target
        res_sq = self.dx * float(np.sum(misfit**2))
        action = 0.5 * self.dtdx * float(np.sum(psi**2))
        return action + 0.5 * mu * res_sq, v, float(np.sqrt(res_sq))

    def gradient(self, psi: np.ndarray, v: np.ndarray, mu: float):
        """Exact transpose of the linearized scheme, marched backwards."""
        grid, cf, ops = self.grid, self.cf, self.ops
        p = mu * self.dx * (v[-1] - self.target)
        direct = ops.coupling == "direct"
        if ops.diagonal:
            # The adjoint modes at step m are decay^(nt-1-m) p_hat(T), so every
            # step's C p comes from one batched synthesis.
            sCp = cf.sigma_const * from_modes(self.reach * to_modes(p, grid), grid)
            return self.dtdx * psi + (sCp if direct else self.dx * _rev_cumsum(sCp))
        grad = np.empty_like(psi)
        for m in range(grid.nt - 1, -1, -1):
            t = m * self.dt
            u = v[m]
            pm = to_modes(p, grid)
            Sp, Cp = from_modes(self.adjoint_factors * pm, grid, overwrite=True)
            if cf.sigma_const is not None:
                sig, sig_r = cf.sigma_const, None
            else:
                sig = cf.sigma(t, self.x, u)
                sig_r = cf.sigma_r(t, self.x, u)
            if direct:
                grad[m] = self.dtdx * psi[m] + sig * Cp
            else:
                # B psi = C[sigma * dx * cumsum(psi)], so B^T p reverses the sum.
                grad[m] = self.dtdx * psi[m] + self.dx * _rev_cumsum(sig * Cp)
            p = Sp if cf.f_is_zero else (1.0 + self.dt * cf.f_r(t, self.x, u)) * Sp
            if not cf.g_is_zero:
                p = p + cf.g_r(t, self.x, u) * (-cos_synthesis(ops.ed * pm, grid))
            if sig_r is not None:
                factor = psi[m] if direct else self.dx * np.cumsum(psi[m])
                p = p + sig_r * factor * Cp
        return grad


def _rev_cumsum(z: np.ndarray) -> np.ndarray:
    return np.cumsum(z[..., ::-1], axis=-1)[..., ::-1]


def minimize_action(
    phi_target: Field,
    eta: Field,
    cf: CoefficientSet,
    grid: GridSpec,
    opts: ActionOptions | None = None,
) -> RateResult:
    """Cheapest control steering the skeleton flow to phi_target at time T.

    Penalty continuation drives the terminal residual below
    opts.residual_tol; the best (lowest residual, then lowest objective)
    iterate is returned with the optimizer trace either way.
    """
    opts = opts or ActionOptions()
    prob = _AdjointProblem(phi_target, eta, cf, grid, opts)
    psi = np.zeros((grid.nt, grid.n_interior))
    mu = MU0

    J, v, residual = prob.objective(psi, mu)
    grad = prob.gradient(psi, v, mu)
    trace = [(0, J, _action_of(psi, grid), residual, mu)]
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
        accepted = False
        g_sq = float(np.sum(grad * grad))
        for _ in range(50):
            cand = psi - step * grad
            try:
                J_c, v_c, res_c = prob.objective(cand, mu)
            except FloatingPointError:
                step *= 0.5
                continue
            if J_c <= J - ARMIJO * step * g_sq:
                accepted = True
                break
            step *= 0.5
        if accepted:
            prev_psi, prev_grad = psi, grad
            psi, J, v, residual = cand, J_c, v_c, res_c
            grad = prob.gradient(psi, v, mu)
        rel_drop = abs(trace[-1][1] - J) / max(J, 1e-300)
        trace.append((it, J, _action_of(psi, grid), residual, mu))
        if residual < best[0] or (residual == best[0] and J < best[1]):
            best = (residual, J, psi.copy())
        if residual <= opts.residual_tol and (not accepted or rel_drop < 1e-10):
            return _result(psi, grid, residual, True, it, mu, trace)
        if residual > opts.residual_tol:
            stall += 1
            if stall >= STALL_WINDOW or not accepted:
                mu *= 2.0
                J, v, residual = prob.objective(psi, mu)
                grad = prob.gradient(psi, v, mu)
                prev_psi = prev_grad = None
                step = 1.0 / (prob.dtdx * (1.0 + mu))
                stall = 0
        else:
            stall = 0

    res_b, _, psi_b = best
    return _result(psi_b, grid, res_b, False, opts.max_iters, mu, trace)


def _action_of(psi: np.ndarray, grid: GridSpec) -> float:
    return 0.5 * grid.dt * grid.dx * float(np.sum(psi**2))


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
    coupling: str = "direct",
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
    ops = _Ops(cf, grid, k_modes, coupling=coupling)
    x = grid.x
    psi = np.empty((grid.nt, nxm))
    k_act = ops.k_modes
    ed_act = ops.ed[:k_act]
    for m in range(grid.nt):
        t = m * grid.dt
        u = values[m]
        sig = np.broadcast_to(np.asarray(cf.sigma(t, x, u), dtype=float), (nxm,))
        if np.any(np.abs(sig) < sigma_min):
            raise ValueError(
                f"sigma degenerate at step {m}: |sigma| < {sigma_min} on the path"
            )
        # The scheme's step without noise or control predicts u(t_{m+1}).
        resid = to_modes(values[m + 1], grid) - ops.step(u, t)
        w_modes = np.zeros(nxm)
        w_modes[:k_act] = resid[:k_act] / ed_act
        w = from_modes(w_modes, grid)
        if ops.coupling == "direct":
            psi[m] = w / sig
        else:
            z = w / (sig * grid.dx)
            psi[m] = np.diff(z, prepend=0.0)
    control = Control(psi, grid)
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
    central finite difference (J(psi+hd) - J(psi-hd)) / (2h)."""
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    grid = phi_target.grid
    psi_v = psi.values if isinstance(psi, Control) else np.asarray(psi, dtype=float)
    d = (
        direction.values
        if isinstance(direction, Control)
        else np.asarray(direction, dtype=float)
    )
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    opts = opts or ActionOptions()
    prob = _AdjointProblem(phi_target, eta, cf, grid, opts)
    J0, v, _ = prob.objective(psi_v, mu)
    grad = prob.gradient(psi_v, v, mu)
    pairing = float(np.sum(grad * d))
    J_plus, _, _ = prob.objective(psi_v + h * d, mu)
    J_minus, _, _ = prob.objective(psi_v - h * d, mu)
    fd = (J_plus - J_minus) / (2.0 * h)
    return abs(pairing - fd) / max(abs(pairing), GRADIENT_FLOOR)
