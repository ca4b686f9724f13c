from collections import Counter

import numpy as np
import pytest

from spdelab import action, lattice, mild_solver
from spdelab.action import (
    ActionOptions,
    _AdjointProblem,
    gradient_check,
    minimize_action,
    path_rate_function,
)
from spdelab.coeffs import CoefficientSet, make_coefficients
from spdelab.control import Control, rate_functional, solve_skeleton
from spdelab.lattice import eigen_values, eigenfunction, make_field, make_grid
from spdelab.mild_solver import SolverConfig

ADDITIVE = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
# Linear but not additive-diagonal: its minimum runs the penalty iteration.
SLOPED = make_coefficients("linear", f_slope=0.4, sigma0=1.0)
BURGERS = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)


def burgers_problem():
    """A nodal (stepping) Burgers problem with 8 active modes."""
    g = make_grid(32, 6, 0.25)
    return _AdjointProblem(eigenfunction(g, 1, amplitude=0.5),
                           eigenfunction(g, 1, amplitude=0.3), BURGERS, g,
                           ActionOptions(k_modes=8))


def assert_rows_are_single_sweeps(prob, psi, mu=10.0):
    """Each row of the stacked forward and objective over psi (L, nt, nx-1)
    has the bytes of that row's own single sweep."""
    with np.errstate(over="ignore", invalid="ignore"):  # a row may blow up
        v = prob.forward(psi)
        singles = [prob.forward(row.copy()) for row in psi]
    stacked = prob.objective(psi, mu)
    for row, one in enumerate(psi):
        assert v[row].tobytes() == singles[row].tobytes()
        for got, want in zip(stacked, prob.objective(one.copy(), mu)):
            assert np.asarray(got[row]).tobytes() == np.asarray(want).tobytes()
    return stacked


def count_forward_calls(monkeypatch) -> list:
    """Patch _AdjointProblem.forward to record the rows of each call."""
    rows = []
    forward = _AdjointProblem.forward

    def counted(self, psi):
        rows.append(int(np.prod(psi.shape[:-2])))
        return forward(self, psi)

    monkeypatch.setattr(_AdjointProblem, "forward", counted)
    return rows


def rate_result_bytes(res):
    return (np.array(res.trace).tobytes(), res.psi_star.values.tobytes(), res.action,
            res.residual, res.converged, res.iterations, res.mu_final)


def lq_oracle_action(grid, modes_amps, T):
    """Dense time-discretized quadratic program for the additive case.

    Per target mode k with amplitude a: minimize (1/2) dt sum_m q_m^2 subject
    to sum_m w_m q_m = a, where w_m is the discrete propagator weight of the
    exactly-time-integrated control term. Solved through the KKT system.
    """
    total = 0.0
    for k, a in modes_amps:
        lam = float(eigen_values(k))
        dt = grid.dt
        decay = np.exp(-lam * dt)
        ed = (1.0 - decay) / lam
        m = np.arange(grid.nt)
        w = decay ** (grid.nt - 1 - m) * ed
        # KKT: [dt I, -w; w^T, 0] [q; mu] = [0; a]
        kkt = np.zeros((grid.nt + 1, grid.nt + 1))
        kkt[: grid.nt, : grid.nt] = dt * np.eye(grid.nt)
        kkt[: grid.nt, -1] = -w
        kkt[-1, : grid.nt] = w
        rhs = np.zeros(grid.nt + 1)
        rhs[-1] = a
        sol = np.linalg.solve(kkt, rhs)
        q = sol[: grid.nt]
        total += 0.5 * dt * float(q @ q)
    return total


def test_zero_control_is_optimal_for_free_endpoint():
    g = make_grid(32, 64, 0.25)
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.1, g2_quad=0.05,
                           sigma0=1.0, sigma1=0.1)
    scfg_modes = 8
    eta = eigenfunction(g, 1)
    free = solve_skeleton(eta, cf, None, g, SolverConfig(k_modes=scfg_modes))
    res = minimize_action(free.terminal, eta, cf, g,
                          ActionOptions(k_modes=scfg_modes))
    assert res.converged
    assert res.action <= 1e-6
    assert np.sqrt(res.psi_star.norm_sq) <= 1e-3


def test_lq_single_mode_matches_oracle_and_closed_form():
    g = make_grid(32, 128, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    res = minimize_action(eigenfunction(g, 1), eta, ADDITIVE, g)
    assert res.converged
    lam1 = np.pi**2
    closed = lam1 / (1.0 - np.exp(-2 * lam1 * 0.5))
    oracle = lq_oracle_action(g, [(1, 1.0)], 0.5)
    assert abs(oracle - closed) / closed <= 0.03  # discretization gap only
    assert abs(res.action - closed) / oracle <= 0.02
    assert abs(res.action - oracle) / oracle <= 1e-9


def test_lq_multimode_additivity():
    g = make_grid(32, 128, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    amps = [(1, 0.8), (2, 0.5), (3, 0.3)]
    target = np.zeros(g.n_interior)
    for k, a in amps:
        target += eigenfunction(g, k, amplitude=a).values
    res = minimize_action(make_field(g, target), eta, ADDITIVE, g)
    assert res.converged
    lam = eigen_values(np.array([1.0, 2.0, 3.0]))
    closed = float(np.sum([a**2 * l / (1 - np.exp(-2 * l * 0.5))
                           for (k, a), l in zip(amps, lam)]))
    oracle = lq_oracle_action(g, amps, 0.5)
    assert abs(res.action - closed) / oracle <= 0.02
    assert abs(res.action - oracle) / oracle <= 1e-9


def test_quadratic_scaling_law():
    g = make_grid(32, 128, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    r1 = minimize_action(eigenfunction(g, 1, amplitude=0.5), eta, ADDITIVE, g)
    r2 = minimize_action(eigenfunction(g, 1, amplitude=1.0), eta, ADDITIVE, g)
    assert abs(r2.action - 4.0 * r1.action) / (4.0 * r1.action) <= 0.02


def test_objective_monotone_within_penalty_leg():
    g = make_grid(32, 64, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    res = minimize_action(eigenfunction(g, 1), eta, SLOPED, g)
    by_mu = {}
    for it, obj, action, residual, mu in res.trace:
        by_mu.setdefault(mu, []).append(obj)
    for mu, objs in by_mu.items():
        assert np.all(np.diff(objs) <= 1e-12 * max(objs))


def test_action_equals_rate_functional_of_psi_star():
    g = make_grid(32, 64, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    res = minimize_action(eigenfunction(g, 1, amplitude=0.7), eta, ADDITIVE, g)
    I = rate_functional(res.psi_star)
    assert abs(res.action - I) <= 1e-10


def test_nonconvergence_returns_flagged_trace():
    g = make_grid(32, 32, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    res = minimize_action(
        eigenfunction(g, 1), eta, SLOPED, g,
        ActionOptions(residual_tol=1e-14, max_iters=5),
    )
    assert not res.converged
    assert len(res.trace) >= 2


def test_gradient_check_linear():
    g = make_grid(64, 128, 0.5)
    cf = make_coefficients("linear", f_slope=0.4, sigma0=1.0)
    rng = np.random.default_rng(5)
    psi = Control(0.3 * rng.standard_normal((g.nt, g.n_interior)), g)
    d = Control(rng.standard_normal((g.nt, g.n_interior)), g)
    err = gradient_check(eigenfunction(g, 1), make_field(g, np.zeros(g.n_interior)),
                         cf, psi, d, h=1e-5)
    assert err <= 1e-6


def test_gradient_check_burgers():
    g = make_grid(64, 128, 0.5)
    cf = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)
    rng = np.random.default_rng(6)
    psi = Control(0.3 * rng.standard_normal((g.nt, g.n_interior)), g)
    d = Control(rng.standard_normal((g.nt, g.n_interior)), g)
    err = gradient_check(eigenfunction(g, 1), eigenfunction(g, 1, amplitude=0.3),
                         cf, psi, d, h=1e-4, opts=ActionOptions(k_modes=16))
    assert err <= 1e-4


def test_burgers_sweeps_make_three_transform_calls_per_step(monkeypatch):
    # Forward step: one to_modes of the stacked state and control field, one
    # cos_analysis, one from_modes. Adjoint step: one to_modes, one from_modes
    # of the stacked S p and C p factors, one cos_synthesis.
    calls = Counter()
    for module in (action, mild_solver):
        for name in ("to_modes", "from_modes", "cos_analysis", "cos_synthesis"):
            fn = getattr(module, name, None)
            if fn is getattr(lattice, name):

                def counted(*args, _fn=fn, **kwargs):
                    calls[_fn.__name__] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    prob = burgers_problem()
    g = prob.grid
    assert not prob.ops.diagonal
    psi = 0.3 * np.random.default_rng(8).standard_normal((g.nt, g.n_interior))
    calls.clear()
    v = prob.forward(psi)
    assert calls == {"to_modes": g.nt, "cos_analysis": g.nt, "from_modes": g.nt}
    calls.clear()
    prob.gradient(psi, v, 10.0)
    assert calls == {"to_modes": g.nt, "from_modes": g.nt, "cos_synthesis": g.nt}
    # A stacked sweep steps all its rows through the same calls.
    calls.clear()
    prob.forward(psi * np.arange(1.0, 6.0)[:, None, None])
    assert calls == {"to_modes": g.nt, "cos_analysis": g.nt, "from_modes": g.nt}


def stepwise_gradient(prob, psi, v, mu):
    """The adjoint sweep with each step's coefficient factors evaluated
    inside the backward loop, at (t_m, v[m])."""
    grid, cf, ops = prob.grid, prob.cf, prob.ops
    p = mu * prob.dx * (v[-1] - prob.target)
    grad = np.empty_like(psi)
    for m in range(grid.nt - 1, -1, -1):
        t, u = m * prob.dt, v[m]
        pm = lattice.to_modes(p, grid)
        Sp, Cp = lattice.from_modes(prob.adjoint_factors * pm, grid, overwrite=True)
        grad[m] = prob.dtdx * psi[m] + ops.sigma(t, u) * Cp
        p = Sp if cf.f_is_zero else (1.0 + prob.dt * cf.f_r(t, prob.x, u)) * Sp
        if not cf.g_is_zero:
            p = p + cf.g_r(t, prob.x, u) * (-lattice.cos_synthesis(ops.ed * pm, grid))
        if cf.sigma_const is None:
            p = p + cf.sigma_r(t, prob.x, u) * psi[m] * Cp
    return grad


@pytest.mark.parametrize("cf", [
    BURGERS,
    make_coefficients("reaction", f_slope=0.2, g1_slope=0.1, g2_quad=0.05, sigma0=1.0,
                      sigma1=0.3),
    make_coefficients("reaction", f_slope=0.2, g1_slope=0.1, g2_quad=0.05, sigma0=1.0,
                      sigma1=0.0),
], ids=["burgers", "reaction", "reaction_additive"])
def test_gradient_equals_the_stepwise_sweep(cf):
    g = make_grid(32, 12, 0.25)
    prob = _AdjointProblem(eigenfunction(g, 1, amplitude=0.5),
                           eigenfunction(g, 1, amplitude=0.3), cf, g, ActionOptions(k_modes=8))
    assert not prob.ops.diagonal
    psi = 0.3 * np.random.default_rng(11).standard_normal((g.nt, g.n_interior))
    v = prob.forward(psi)
    got = prob.gradient(psi, v, 10.0)
    assert got.tobytes() == stepwise_gradient(prob, psi, v, 10.0).tobytes()


def test_stacked_sweep_rows_equal_single_sweeps():
    prob = burgers_problem()
    g = prob.grid
    psi = 0.3 * np.random.default_rng(9).standard_normal((5, g.nt, g.n_interior))
    J, v, res_sq, act = assert_rows_are_single_sweeps(prob, psi)
    assert v.shape == (5, g.nt + 1, g.n_interior)
    assert J.shape == res_sq.shape == act.shape == (5,)
    assert np.all(np.isfinite(J))
    # Any leading shape: a (2, 2) stack gives the same rows.
    square = prob.objective(psi[:4].reshape(2, 2, g.nt, g.n_interior), 10.0)
    for got, want in zip(square, prob.objective(psi[:4], 10.0)):
        assert got.tobytes() == want.tobytes()


def test_non_finite_row_is_rejected_and_leaves_the_others():
    prob = burgers_problem()
    g = prob.grid
    psi = 0.3 * np.random.default_rng(10).standard_normal((3, g.nt, g.n_interior))
    psi[1, 2] = 1e200
    J = assert_rows_are_single_sweeps(prob, psi)[0]
    assert J[1] == np.inf
    assert np.all(np.isfinite(J[[0, 2]]))


def test_gradient_check_is_one_stacked_sweep(monkeypatch):
    g = make_grid(32, 64, 0.25)
    cf = make_coefficients("reaction", f_slope=0.2, g1_slope=0.1, g2_quad=0.05,
                           sigma0=1.0, sigma1=0.3)
    rng = np.random.default_rng(7)
    psi = 0.2 * rng.standard_normal((g.nt, g.n_interior))
    d = rng.standard_normal((g.nt, g.n_interior))
    target, eta = eigenfunction(g, 1), make_field(g, np.zeros(g.n_interior))
    opts, h, mu = ActionOptions(k_modes=8), 1e-5, 10.0
    # The same check computed from three single sweeps.
    prob = _AdjointProblem(target, eta, cf, g, opts)
    pairing = float(np.sum(prob.gradient(psi, prob.forward(psi), mu) * d))
    J_plus = float(prob.objective(psi + h * d, mu)[0])
    J_minus = float(prob.objective(psi - h * d, mu)[0])
    fd = (J_plus - J_minus) / (2.0 * h)
    expected = abs(pairing - fd) / max(abs(pairing), action.GRADIENT_FLOOR)
    sweeps = count_forward_calls(monkeypatch)
    assert gradient_check(target, eta, cf, psi, d, h=h, mu=mu, opts=opts) == expected
    assert sweeps == [3]
    with pytest.raises(FloatingPointError, match="blew up"):
        gradient_check(target, eta, cf, psi, d, h=1e200, mu=mu, opts=opts)


# nt = 16 is the frozen small Burgers case of test_frozen.py; nt = 8 is the
# perfbench burgers_action study at its smoke-test size. The sweep counts are
# exact: (stacked ladder, one trial per sweep).
@pytest.mark.parametrize("nt, sweeps", [(16, (357, 578)), (8, (380, 612))],
                         ids=["frozen_small", "burgers_action_nt8"])
def test_ladder_reproduces_the_sequential_search(monkeypatch, nt, sweeps):
    g = make_grid(32, nt, 0.5)
    rows = count_forward_calls(monkeypatch)

    def solve():
        rows.clear()
        res = minimize_action(eigenfunction(g, 1, amplitude=0.5),
                              make_field(g, np.zeros(g.n_interior)), BURGERS, g,
                              ActionOptions(k_modes=8))
        return rate_result_bytes(res), len(rows), max(rows)

    ladder = action.LADDER
    laddered, n_ladder, widest = solve()
    monkeypatch.setattr(action, "LADDER", 1)
    sequential, n_sequential, single = solve()
    assert laddered == sequential
    assert (n_ladder, n_sequential) == sweeps
    assert (widest, single) == (ladder, 1)


def test_gradient_check_rejects_zero_direction():
    g = make_grid(16, 8, 0.25)
    psi = Control(np.zeros((8, 15)), g)
    with pytest.raises(ValueError, match="nonzero"):
        gradient_check(eigenfunction(g, 1), make_field(g, np.zeros(15)), ADDITIVE,
                       psi, np.zeros((8, 15)), h=1e-5)
    with pytest.raises(ValueError, match="positive"):
        gradient_check(eigenfunction(g, 1), make_field(g, np.zeros(15)), ADDITIVE,
                       psi, np.ones((8, 15)), h=0.0)


def test_path_rate_round_trip():
    g = make_grid(64, 512, 0.5)
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.2, g2_quad=0.1,
                           sigma0=1.0, sigma1=0.1)
    profile = eigenfunction(g, 1, amplitude=0.5).values
    ramp = (1.0 + np.linspace(0, 1, g.nt))[:, None]
    psi = Control(ramp * profile, g)
    sk = solve_skeleton(make_field(g, np.zeros(g.n_interior)), cf, psi, g,
                        SolverConfig(k_modes=16))
    I_rec, rec = path_rate_function(sk, cf, g, k_modes=16)
    I_true = rate_functional(psi)
    assert abs(I_rec - I_true) / I_true <= 0.05


def test_path_rate_round_trip_every_mode_kept():
    # With every mode kept the residual inversion is exact, up to rounding.
    g = make_grid(32, 64, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    ramp = (g.t[1:] / g.T)[:, None]
    psi = Control(ramp * eigenfunction(g, 1).values, g)
    sk = solve_skeleton(make_field(g, np.zeros(g.n_interior)), cf, psi, g)
    I_rec, rec = path_rate_function(sk, cf, g)
    assert np.max(np.abs(rec.values - psi.values)) <= 1e-10
    np.testing.assert_allclose(I_rec, rate_functional(psi), rtol=1e-12, atol=0.0)


def test_path_rate_uncontrolled_flow_is_free():
    g = make_grid(32, 128, 0.25)
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.1, g2_quad=0.05,
                           sigma0=1.0, sigma1=0.1)
    free = solve_skeleton(eigenfunction(g, 1), cf, None, g, SolverConfig(k_modes=8))
    I, _ = path_rate_function(free, cf, g, k_modes=8)
    assert I <= 1e-6


def test_path_rate_sigma_degenerate():
    g = make_grid(16, 8, 0.25)
    cf_vanishing = CoefficientSet(
        f=lambda t, x, r: np.zeros_like(np.asarray(r, dtype=float)),
        g1=lambda t, x, r: np.zeros_like(np.asarray(r, dtype=float)),
        g2=lambda t, r: np.zeros_like(np.asarray(r, dtype=float)),
        sigma=lambda t, x, r: np.asarray(r, dtype=float),
        K=1.0, L=1.0, L_sigma=1.0, rho=8.0,
    )
    zero_path = np.zeros((g.nt + 1, g.n_interior))
    with pytest.raises(ValueError, match="degenerate"):
        path_rate_function(zero_path, cf_vanishing, g)
    # The error names the first step at which sigma vanishes: 3, not 6.
    path = np.ones_like(zero_path)
    path[3, 5] = path[6, 0] = 0.0
    with pytest.raises(ValueError, match="degenerate at step 3:"):
        path_rate_function(path, cf_vanishing, g)


def test_path_rate_shape_mismatch():
    g = make_grid(16, 8, 0.25)
    with pytest.raises(ValueError, match="does not match"):
        path_rate_function(np.zeros((5, 15)), ADDITIVE, g)


def test_minimum_never_exceeds_feasible_comparison():
    # Build a feasible control reaching the same target with extra mode-2
    # content that cancels at time T; its action must dominate the optimum.
    g = make_grid(32, 128, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    target = eigenfunction(g, 1)
    res = minimize_action(target, eta, ADDITIVE, g)

    lam2 = float(eigen_values(2))
    decay = np.exp(-lam2 * g.dt)
    w = decay ** (g.nt - 1 - np.arange(g.nt)) * (1.0 - decay) / lam2
    q = np.zeros(g.nt)
    q[10] = 1.0
    q[100] = -w[10] / w[100]  # net mode-2 terminal contribution is zero
    extra = np.outer(q, eigenfunction(g, 2).values)
    psi_feasible = Control(res.psi_star.values + extra, g)
    v = solve_skeleton(eta, ADDITIVE, psi_feasible, g)
    v_star = solve_skeleton(eta, ADDITIVE, res.psi_star, g)
    assert np.max(np.abs(v.fields[-1] - v_star.fields[-1])) <= 1e-10
    I_comp, _ = path_rate_function(v, ADDITIVE, g)
    assert res.action <= I_comp + 1e-12
