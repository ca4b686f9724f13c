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


def test_quadratic_scaling_law():
    g = make_grid(32, 128, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    r1 = minimize_action(eigenfunction(g, 1, amplitude=0.5), eta, ADDITIVE, g)
    r2 = minimize_action(eigenfunction(g, 1, amplitude=1.0), eta, ADDITIVE, g)
    assert abs(r2.action - 4.0 * r1.action) / (4.0 * r1.action) <= 0.02


def test_objective_monotone_within_penalty_leg():
    g = make_grid(32, 64, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    res = minimize_action(eigenfunction(g, 1), eta, ADDITIVE, g)
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
        eigenfunction(g, 1), eta, ADDITIVE, g,
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


def test_gradient_check_integrated_coupling():
    g = make_grid(32, 64, 0.25)
    cf = make_coefficients("reaction", f_slope=0.2, g1_slope=0.1, g2_quad=0.05,
                           sigma0=1.0, sigma1=0.3)
    rng = np.random.default_rng(7)
    psi = Control(0.2 * rng.standard_normal((g.nt, g.n_interior)), g)
    d = Control(rng.standard_normal((g.nt, g.n_interior)), g)
    err = gradient_check(
        eigenfunction(g, 1), make_field(g, np.zeros(g.n_interior)), cf, psi, d,
        h=1e-5, opts=ActionOptions(k_modes=8, coupling="integrated"),
    )
    assert err <= 1e-5


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
    g = make_grid(32, 6, 0.25)
    cf = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)
    prob = _AdjointProblem(eigenfunction(g, 1, amplitude=0.5),
                           eigenfunction(g, 1, amplitude=0.3), cf, g,
                           ActionOptions(k_modes=8))
    assert not prob.ops.diagonal
    psi = 0.3 * np.random.default_rng(8).standard_normal((g.nt, g.n_interior))
    calls.clear()
    v = prob.forward(psi)
    assert calls == {"to_modes": g.nt, "cos_analysis": g.nt, "from_modes": g.nt}
    calls.clear()
    prob.gradient(psi, v, 10.0)
    assert calls == {"to_modes": g.nt, "from_modes": g.nt, "cos_synthesis": g.nt}


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


def test_path_rate_shape_mismatch():
    g = make_grid(16, 8, 0.25)
    with pytest.raises(ValueError, match="does not match"):
        path_rate_function(np.zeros((5, 15)), ADDITIVE, g)


def test_unknown_coupling_is_rejected_by_every_solve():
    g = make_grid(16, 8, 0.25)
    target, eta = eigenfunction(g, 1, 0.3), make_field(g, np.zeros(15))
    bogus = ActionOptions(coupling="bogus")
    with pytest.raises(ValueError, match="coupling 'bogus'"):
        minimize_action(target, eta, ADDITIVE, g, bogus)
    with pytest.raises(ValueError, match="coupling 'bogus'"):
        gradient_check(target, eta, ADDITIVE, np.zeros((8, 15)), np.ones((8, 15)),
                       h=1e-5, opts=bogus)
    with pytest.raises(ValueError, match="coupling 'bogus'"):
        path_rate_function(np.zeros((g.nt + 1, 15)), ADDITIVE, g, coupling="bogus")


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
