import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spdelab import lattice
from spdelab.coeffs import make_coefficients, truncate_coefficients
from spdelab.greenfn import apply_semigroup
from spdelab.lattice import (
    eigenfunction,
    from_modes,
    lp_norm,
    lp_norm_values,
    make_field,
    make_grid,
    to_modes,
)
from spdelab.mild_solver import (
    BlowUpError,
    PicardError,
    SolverConfig,
    _Ops,
    _solve_path,
    estimate_moments,
    galerkin_coupled_errors,
    picard_solve,
    run_replicas,
    solve_spde,
)
from spdelab.noise import sample_sheet_expansion

LINEAR = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
BURGERS = make_coefficients("burgers", sigma0=1.0)


def step_mild(state, cf, white, eps, dt):
    """One scheme step from a Field at t = 0, given the white increments dW of the step."""
    g = state.grid
    xi = None if white is None else white / g.dx
    modes = _Ops(cf, make_grid(g.nx, 1, dt), eps=eps).step(state.values, 0.0, xi)
    return make_field(g, from_modes(modes, g))


def test_step_reduces_to_semigroup():
    g = make_grid(32, 8, 0.5)
    f = eigenfunction(g, 2, amplitude=0.7)
    out = step_mild(f, LINEAR, np.zeros(g.n_interior), 0.0, 0.01)
    ref = apply_semigroup(f, 0.01)
    assert np.max(np.abs(out.values - ref.values)) <= 1e-14


def test_step_linear_drift_mode_rule():
    # One step on phi_1 with f = c u: mode 1 becomes e^{-pi^2 dt}(1 + c dt).
    g = make_grid(64, 8, 0.5)
    c, dt = 0.7, 0.01
    cf = make_coefficients("linear", f_slope=c)
    out = step_mild(eigenfunction(g, 1), cf, None, 0.0, dt)
    m1 = to_modes(out.values, g)
    assert abs(m1[0] - np.exp(-np.pi**2 * dt) * (1 + c * dt)) <= 1e-14
    assert np.max(np.abs(m1[1:])) <= 1e-14


def test_step_noise_linearity():
    g = make_grid(32, 8, 0.5)
    rng = np.random.default_rng(0)
    dW = rng.standard_normal(g.n_interior) * 1e-3
    zero = make_field(g, np.zeros(g.n_interior))
    base = step_mild(zero, LINEAR, np.zeros_like(dW), 1.0, 0.01).values
    one = step_mild(zero, LINEAR, dW, 1.0, 0.01).values
    two = step_mild(zero, LINEAR, 2.0 * dW, 1.0, 0.01).values
    assert np.array_equal(two - base, 2.0 * (one - base))


def lattice_step(ops, u, t, xi=None, psi=None, chi=None, at=None):
    """The scheme's step as the plain composition of lattice's transforms:
    each term allocated afresh, as the kernel was first written."""
    cf, grid, x = ops.cf, ops.grid, ops.x

    def weigh(values):
        return values if chi is None else chi * values

    w = u if at is None else at
    v = u
    if not cf.f_is_zero:
        v = v + ops.dt * weigh(cf.f(t, x, w))
    if xi is not None and ops.sqrt_eps != 0.0:
        v = v + ops.sqrt_eps * weigh(ops.sigma(t, w) * xi)
    if psi is None:
        v_hat = lattice.to_modes(v, grid)
    else:
        both = np.empty((2,) + v.shape)
        both[0], both[1] = v, ops.sigma(t, w) * psi
        v_hat, c_hat = lattice.to_modes(both, grid)
    modes = v_hat * ops.decay
    if not cf.g_is_zero:
        gv = weigh(cf.g1(t, x, w) + cf.g2(t, w))
        modes -= lattice.cos_analysis(gv, grid) * ops.ed
    if psi is not None:
        modes += c_hat * ops.ed
    return modes


STEP_FAMILIES = {
    "additive": make_coefficients("linear", f_slope=0.0, sigma0=0.7),
    "linear drift": make_coefficients("linear", f_slope=0.4, sigma0=1.0),
    "burgers": make_coefficients("burgers", sigma0=1.0, sigma1=0.2),
    "burgers constant sigma": make_coefficients("burgers", sigma0=0.8),
    "reaction": make_coefficients("reaction", f_slope=0.3, g1_slope=0.2, g2_quad=0.1,
                                  sigma0=1.0, sigma1=0.1),
}


def test_step_bits_match_the_lattice_composition():
    # Every branch of the step (drift, noise at eps 0 and > 0, control,
    # cutoff, Picard's frozen iterate, divergence term, constant and
    # multiplicative sigma) on one row and on stacks, at grids small enough
    # that the cosine padding's end nodes are next to each other.
    rng = np.random.default_rng(5)
    for nx in (4, 5, 32):
        g = make_grid(nx, 16, 0.5)
        for name, cf in STEP_FAMILIES.items():
            for eps in (0.0, 0.3):
                ops = _Ops(cf, g, max(1, nx // 4), eps, cutoff_radius=0.5)
                for shape in ((nx - 1,), (6, nx - 1), (2, 3, nx - 1)):
                    u, xi, psi, at = 0.5 * rng.standard_normal((4,) + shape)
                    chi = ops.cutoff(u)
                    for kw in ({}, {"xi": xi}, {"psi": psi}, {"chi": chi}, {"at": at},
                               {"xi": xi, "psi": psi, "chi": chi, "at": at}):
                        got = ops.step(u, 0.25, **kw)
                        want = lattice_step(ops, u, 0.25, **kw)
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes(), (nx, name, eps, shape, sorted(kw))


def test_zero_initial_zero_forcing_fixed_point():
    g = make_grid(32, 16, 0.25)
    eta = make_field(g, np.zeros(g.n_interior))
    sol = solve_spde(eta, BURGERS, 0.0, seed=1, grid=g, config=SolverConfig(k_modes=8))
    assert np.array_equal(sol.fields, np.zeros_like(sol.fields))


def test_heat_flow_accuracy():
    g = make_grid(64, 256, 0.5)
    sol = solve_spde(eigenfunction(g, 1), LINEAR, 0.0, seed=0, grid=g)
    exact = np.exp(-np.pi**2 * g.t)[:, None] * eigenfunction(g, 1).values
    assert np.max(lp_norm_values(sol.fields - exact, g.dx, 2)) <= 1e-3


def test_determinism_bitwise():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.2, g2_quad=0.1,
                           sigma0=0.5, sigma1=0.1)
    a = solve_spde(eigenfunction(g, 1), cf, 0.2, seed=9, grid=g, config=SolverConfig(k_modes=8))
    b = solve_spde(eigenfunction(g, 1), cf, 0.2, seed=9, grid=g, config=SolverConfig(k_modes=8))
    assert np.array_equal(a.fields, b.fields)


def test_burgers_self_convergence():
    errs = []
    prev = None
    for nt in (64, 128, 256):
        g = make_grid(64, nt, 0.1)
        sol = solve_spde(eigenfunction(g, 1, amplitude=0.5), BURGERS, 0.0, seed=0,
                         grid=g, config=SolverConfig(k_modes=16))
        if prev is not None:
            errs.append(np.max(np.abs(prev - sol.fields[-1])))
        prev = sol.fields[-1]
    assert errs[0] / errs[1] >= 1.5


def test_dealiasing_guard():
    g = make_grid(32, 16, 0.1)
    with pytest.raises(ValueError, match="nx >= 4"):
        solve_spde(eigenfunction(g, 1), BURGERS, 0.0, seed=0, grid=g)
    with pytest.raises(ValueError, match="nx >= 4"):
        solve_spde(eigenfunction(g, 1), BURGERS, 0.0, seed=0, grid=g,
                   config=SolverConfig(k_modes=16))


def test_truncated_far_radius_identical():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.1, g2_quad=0.05,
                           sigma0=0.5, sigma1=0.1)
    scfg = SolverConfig(k_modes=8)
    plain = solve_spde(eigenfunction(g, 1), cf, 0.1, seed=4, grid=g, config=scfg)
    cut = solve_spde(eigenfunction(g, 1), cf, 0.1, seed=4, grid=g,
                     config=replace(scfg, cutoff_radius=1e6))
    assert np.array_equal(plain.fields, cut.fields)


def test_truncated_initial_above_radius_pure_heat():
    g = make_grid(32, 16, 0.25)
    cf = make_coefficients("reaction", f_slope=2.0, g1_slope=0.5, g2_quad=0.2,
                           sigma0=1.0, sigma1=0.0)
    eta = eigenfunction(g, 1, amplitude=10.0)
    R = 0.5  # |eta|_rho ~ 10 >= R + 1
    sol = solve_spde(eta, cf, 0.4, seed=2, grid=g,
                     config=SolverConfig(k_modes=8, cutoff_radius=R))
    heat = apply_semigroup(eta, g.dt)
    assert np.max(np.abs(sol.fields[1] - heat.values)) <= 1e-12


def test_truncated_crossing_freezes_dynamics():
    # A strong drift with a coarse step overshoots the bridge (the cutoff is
    # evaluated explicitly, one step behind), pushing |u|_rho past R+1;
    # afterwards, while the norm stays above R+1, steps are pure heat flow.
    g = make_grid(32, 64, 1.0)
    cf = make_coefficients("reaction", f_slope=400.0, g1_slope=0.0, g2_quad=0.0,
                           sigma0=1.0, sigma1=0.0)
    eta = eigenfunction(g, 1, amplitude=1.0)
    R = 2.0
    sol = solve_spde(eta, cf, 0.0, seed=0, grid=g,
                     config=SolverConfig(k_modes=8, cutoff_radius=R))
    norms = sol.rho_norms
    above = np.nonzero(norms >= R + 1.0)[0]
    assert above.size > 0, "fixture never crossed the cutoff"
    m = int(above[0])
    assert m < g.nt
    heat = apply_semigroup(make_field(g, sol.fields[m]), g.dt)
    assert np.max(np.abs(sol.fields[m + 1] - heat.values)) <= 1e-12


def test_galerkin_zero_modes_is_deterministic_flow():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    eta = eigenfunction(g, 1)
    k0 = solve_spde(eta, cf, 0.3, seed=5, grid=g, config=SolverConfig(k_noise=0))
    det = solve_spde(eta, cf, 0.0, seed=5, grid=g)
    assert np.array_equal(k0.fields, det.fields)


def test_galerkin_full_modes_matches_white():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    eta = eigenfunction(g, 1)
    full = solve_spde(eta, cf, 0.3, seed=5, grid=g,
                      config=SolverConfig(k_noise=g.n_interior))
    white = solve_spde(eta, cf, 0.3, seed=5, grid=g)
    assert np.array_equal(full.fields, white.fields)


def test_galerkin_single_mode_structure():
    # k = 1, sigma = 1, eta = 0: after one step u = sqrt(eps) e^{-pi^2 dt} hh_1 dw_1.
    g = make_grid(32, 8, 0.25)
    eta = make_field(g, np.zeros(g.n_interior))
    eps = 0.3
    sol = solve_spde(eta, LINEAR, eps, seed=7, grid=g, config=SolverConfig(k_noise=1))
    nz = sample_sheet_expansion(g, 1, 7)
    dw1 = nz.mode_increments[0, 0]
    expected = np.sqrt(eps) * np.exp(-np.pi**2 * g.dt) * np.sqrt(2) * np.sin(np.pi * g.x) * dw1
    assert np.max(np.abs(sol.fields[1] - expected)) <= 1e-14


def test_k_noise_out_of_range_rejected():
    g = make_grid(16, 8, 0.25)
    eta = make_field(g, np.zeros(g.n_interior))
    for k in (-1, g.n_interior + 1):
        with pytest.raises(ValueError, match="k_noise"):
            solve_spde(eta, LINEAR, 0.1, seed=0, grid=g, config=SolverConfig(k_noise=k))
        with pytest.raises(ValueError, match="k_noise"):
            sample_sheet_expansion(g, k, 0)
        with pytest.raises(ValueError, match="k_list"):
            galerkin_coupled_errors(eta, LINEAR, 0.1, g, 0, 2, (4, k))


def test_galerkin_coupled_error_decreases():
    g = make_grid(128, 64, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    eta = make_field(g, np.zeros(g.n_interior))
    white = solve_spde(eta, cf, 0.1, seed=11, grid=g)
    errs = []
    for k in (4, 16, 64):
        deg = solve_spde(eta, cf, 0.1, seed=11, grid=g, config=SolverConfig(k_noise=k))
        errs.append(white.distance_to(deg))
    assert errs[0] > errs[1] > errs[2]


def test_galerkin_monotone_battery():
    # Nested mode sets {4} < {16} < {64}: coupled error nonincreasing for at
    # least 90% of a 100-seed battery.
    from spdelab.experiments import galerkin_coupled_errors

    g = make_grid(128, 64, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    eta = make_field(g, np.zeros(g.n_interior))
    errors = galerkin_coupled_errors(eta, cf, 0.1, g, master=321, replicas=100,
                                     k_list=(4, 16, 64))
    monotone = np.all(np.diff(errors, axis=1) <= 0, axis=1)
    assert np.mean(monotone) >= 0.90


def test_picard_affine_converges_immediately():
    g = make_grid(32, 16, 0.25)
    sol, trace = picard_solve(eigenfunction(g, 1), LINEAR, 0.0, None, g,
                              tol=1e-12, max_iter=5)
    assert len(trace) == 1 and trace[0] <= 1e-12


def test_picard_burgers_contraction():
    g = make_grid(64, 128, 0.1)
    eta = eigenfunction(g, 1, amplitude=0.5)
    sol, trace = picard_solve(eta, BURGERS, 0.0, None, g, tol=1e-10,
                              max_iter=40, delta=50.0, k_modes=16)
    ratios = [trace[i + 1] / trace[i] for i in range(len(trace) - 1) if trace[i] > 0]
    assert all(r < 1.0 for r in ratios)
    assert trace[-1] <= 1e-10


def test_picard_matches_stepper():
    g = make_grid(64, 128, 0.1)
    eta = eigenfunction(g, 1, amplitude=0.5)
    noise = sample_sheet_expansion(g, g.n_interior, 3)
    pic, _ = picard_solve(eta, BURGERS, 0.05, noise, g, tol=1e-12, max_iter=60,
                          k_modes=16)
    etd = solve_spde(eta, BURGERS, 0.05, seed=3, grid=g, config=SolverConfig(k_modes=16))
    dist = np.max(lp_norm_values(pic.fields - etd.fields, g.dx, 2))
    assert dist <= 10 * g.dt


def test_picard_budget_error():
    g = make_grid(64, 64, 0.1)
    eta = eigenfunction(g, 1, amplitude=0.5)
    with pytest.raises(PicardError) as err:
        picard_solve(eta, BURGERS, 0.0, None, g, tol=1e-30, max_iter=2, k_modes=16)
    assert len(err.value.trace) == 2


def test_blowup_reports_step():
    g = make_grid(16, 8, 1.0)
    cf = make_coefficients("linear", f_slope=1e80, sigma0=1.0)
    with np.errstate(over="ignore"), pytest.raises(BlowUpError) as err:
        solve_spde(eigenfunction(g, 1), cf, 0.0, seed=0, grid=g)
    assert 1 <= err.value.step <= g.nt


def test_estimate_moments_deterministic():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("linear", f_slope=0.3, sigma0=1.0)
    eta = eigenfunction(g, 1)
    est = estimate_moments(eta, cf, 0.0, 8.0, replicas=4, grid=g, master_seed=0)
    det = solve_spde(eta, cf, 0.0, seed=0, grid=g)
    assert est.stderr == 0.0
    assert abs(est.estimate - np.max(det.rho_norms**8)) <= 1e-12
    assert abs(est.ratio - est.estimate / (1.0 + lp_norm(eta, 8.0) ** 8)) <= 1e-15


def test_moment_ratio_stable_under_scaling():
    g = make_grid(32, 64, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    ratios = []
    for s in (1.0, 2.0, 4.0):
        est = estimate_moments(eigenfunction(g, 1, amplitude=s), cf, 0.05, 8.0,
                               replicas=200, grid=g, master_seed=99)
        ratios.append(est.ratio)
    assert max(ratios) < 2.0 * min(ratios)


def test_moment_estimate_stable_under_truncation_level():
    # Paths never reach the truncation zone, so levels 10 and 100 agree.
    g = make_grid(32, 64, 0.25)
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.1, g2_quad=0.05,
                           sigma0=0.5, sigma1=0.1)
    ests = []
    for n in (10, 100):
        est = estimate_moments(eigenfunction(g, 1), truncate_coefficients(cf, n), 0.05, 8.0,
                               replicas=100, grid=g, config=SolverConfig(k_modes=8),
                               master_seed=5)
        ests.append(est)
    diff = abs(ests[0].estimate - ests[1].estimate)
    assert diff <= 3 * (ests[0].stderr + ests[1].stderr) + 1e-12


def test_mode_variances_additive_case():
    # Gaussian per-mode variance eps (1 - e^{-2 lam T}) / (2 lam), 3 SE battery.
    g = make_grid(16, 1024, 0.03125)
    eta = make_field(g, np.zeros(g.n_interior))
    eps = 0.1
    reps = 3000
    term = run_replicas(eta, LINEAR, eps, g, master_seed=11, replicas=reps,
                        record="terminal")
    lam = (np.arange(1, g.nx) * np.pi) ** 2
    target = eps * (1 - np.exp(-2 * lam * g.T)) / (2 * lam)
    emp = np.var(to_modes(term, g), axis=0, ddof=1)
    se = target * np.sqrt(2.0 / (reps - 1))
    assert np.all(np.abs(emp - target)[:4] <= 3 * se[:4])


def test_path_solution_diagnostics():
    g = make_grid(32, 16, 0.25)
    sol = solve_spde(eigenfunction(g, 1), LINEAR, 0.0, seed=0, grid=g)
    assert sol.rho_norms.shape == (g.nt + 1,)
    assert sol.terminal.values.shape == (g.n_interior,)


def test_single_path_holds_one_path():
    # solve_spde's path from its drawn noise: the observer writes each state
    # into one preallocated (nt+1, nx-1) path, so beyond the path the solve
    # holds only step temporaries and the two norm passes of the diagnostics.
    g = make_grid(64, 256, 0.25)
    cf = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)
    eta = eigenfunction(g, 1)
    config = SolverConfig(k_modes=16)
    noise = sample_sheet_expansion(g, g.n_interior, 3)
    _solve_path(eta, cf, 0.1, g, config, noise)  # fills the transform caches
    tracemalloc.start()
    try:
        sol = _solve_path(eta, cf, 0.1, g, config, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.fields.shape == (g.nt + 1, g.n_interior)
    assert peak <= 3.5 * sol.fields.nbytes


def test_solve_spde_holds_its_noise_once():
    # solve_spde draws its noise inside the call: the driving block is the
    # realization's one (nt, nx-1) array, so the solve holds one noise-sized
    # block beside the path, not a padded copy of it as well.
    g = make_grid(64, 256, 0.25)
    cf = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)
    eta = eigenfunction(g, 1)
    config = SolverConfig(k_modes=16)
    solve_spde(eta, cf, 0.1, 3, g, config)  # fills the transform caches
    tracemalloc.start()
    try:
        sol = solve_spde(eta, cf, 0.1, 3, g, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * sol.fields.nbytes
