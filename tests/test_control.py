import numpy as np
import pytest

from spdelab.coeffs import make_coefficients
from spdelab.control import (
    control_from_function,
    girsanov_log_weight,
    make_control,
    rate_functional,
    solve_controlled,
    solve_skeleton,
    zero_control,
)
from spdelab.lattice import eigenfunction, make_field, make_grid, to_modes
from spdelab.mild_solver import SolverConfig, solve_spde
from spdelab.noise import sample_white_increments

ADDITIVE = make_coefficients("linear", f_slope=0.0, sigma0=1.0)


def phi1_control(grid, amp=1.0):
    return control_from_function(grid, lambda t, x: amp * np.sqrt(2) * np.sin(np.pi * x))


def test_control_validation():
    g = make_grid(16, 8, 0.5)
    with pytest.raises(ValueError, match="shape"):
        make_control(g, np.zeros((7, 15)))
    with pytest.raises(ValueError, match="non-finite"):
        make_control(g, np.full((8, 15), np.inf))


def test_control_norm_cache_matches_quadrature():
    g = make_grid(16, 8, 0.5)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((8, 15))
    psi = make_control(g, vals)
    assert abs(psi.norm_sq - g.dt * g.dx * np.sum(vals**2)) <= 1e-12


def test_rate_functional_values():
    g = make_grid(64, 64, 1.0)
    zero, _ = rate_functional(zero_control(g))
    assert zero == 0.0
    # Constant control on the unit square: cell quadrature mass is 1 - dx.
    ones = make_control(g, np.ones((g.nt, g.n_interior)))
    I, _ = rate_functional(ones)
    assert abs(I - 0.5) <= 0.5 * g.dx
    # phi_1 profile integrates exactly: I = T/2.
    for T in (0.5, 1.0):
        gT = make_grid(64, 64, T)
        I, _ = rate_functional(phi1_control(gT))
        assert abs(I - T / 2.0) <= 1e-8


def test_rate_functional_quadratic():
    g = make_grid(32, 16, 0.5)
    rng = np.random.default_rng(1)
    psi = make_control(g, rng.standard_normal((16, 31)))
    I1, _ = rate_functional(psi)
    I3, _ = rate_functional(psi.scaled(3.0))
    assert abs(I3 - 9.0 * I1) <= 1e-12 * max(I3, 1.0)


def test_admissibility_scale_consistency():
    g = make_grid(32, 16, 0.5)
    rng = np.random.default_rng(2)
    psi = make_control(g, rng.standard_normal((16, 31)))
    N = psi.norm_sq
    _, ok = rate_functional(psi, radius=N)
    _, not_ok = rate_functional(psi, radius=N * (1.0 - 1e-6))
    assert ok is True and not_ok is False


def test_skeleton_zero_control_equals_deterministic_flow():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("reaction", f_slope=0.4, g1_slope=0.2, g2_quad=0.1,
                           sigma0=1.0, sigma1=0.1)
    scfg = SolverConfig(k_modes=8)
    eta = eigenfunction(g, 1)
    sk = solve_skeleton(eta, cf, None, g, scfg)
    det = solve_spde(eta, cf, 0.0, seed=0, grid=g, config=scfg)
    assert np.array_equal(sk.fields, det.fields)
    sk0 = solve_skeleton(eta, cf, zero_control(g), g, scfg)
    assert np.array_equal(sk0.fields, det.fields)


def test_skeleton_duhamel_mode():
    # psi = c phi_1 constant in time, additive case: mode 1 of v(T) equals
    # c (1 - e^{-pi^2 T}) / pi^2.
    g = make_grid(64, 1024, 0.5)
    c = 1.3
    eta = make_field(g, np.zeros(g.n_interior))
    sk = solve_skeleton(eta, ADDITIVE, phi1_control(g, c), g)
    m1 = to_modes(sk.fields[-1], g)[0]
    assert abs(m1 - c * (1 - np.exp(-np.pi**2 * 0.5)) / np.pi**2) <= 1e-4


def test_skeleton_superposition_additive():
    g = make_grid(32, 64, 0.25)
    eta = make_field(g, np.zeros(g.n_interior))
    rng = np.random.default_rng(3)
    a = make_control(g, rng.standard_normal((64, 31)))
    b = make_control(g, rng.standard_normal((64, 31)))
    ab = make_control(g, a.values + b.values)
    va = solve_skeleton(eta, ADDITIVE, a, g).fields
    vb = solve_skeleton(eta, ADDITIVE, b, g).fields
    vab = solve_skeleton(eta, ADDITIVE, ab, g).fields
    assert np.max(np.abs(vab - va - vb)) <= 1e-12


def test_controlled_limits_are_exact():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.1, g2_quad=0.05,
                           sigma0=1.0, sigma1=0.1)
    scfg = SolverConfig(k_modes=8)
    eta = eigenfunction(g, 1)
    psi = phi1_control(g, 0.5)
    sk = solve_skeleton(eta, cf, psi, g, scfg)
    v0 = solve_controlled(eta, cf, psi, 0.0, seed=7, grid=g, config=scfg)
    assert np.array_equal(v0.fields, sk.fields)
    sp = solve_spde(eta, cf, 0.1, seed=7, grid=g, config=scfg)
    vz = solve_controlled(eta, cf, zero_control(g), 0.1, seed=7, grid=g, config=scfg)
    assert np.array_equal(vz.fields, sp.fields)


def test_controlled_to_skeleton_distance_decreases():
    g = make_grid(32, 64, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    eta = eigenfunction(g, 1)
    psi = phi1_control(g, 0.5)
    sk = solve_skeleton(eta, cf, psi, g)
    dists = [
        solve_controlled(eta, cf, psi, eps, seed=5, grid=g).distance_to(sk)
        for eps in (0.1, 0.05, 0.025, 0.0125)
    ]
    assert all(dists[i + 1] < dists[i] for i in range(3))


def test_coupling_switch():
    g = make_grid(32, 32, 0.25)
    eta = make_field(g, np.zeros(g.n_interior))
    psi = phi1_control(g, 1.0)
    direct = solve_skeleton(eta, ADDITIVE, psi, g, SolverConfig(control_coupling="direct"))
    integrated = solve_skeleton(
        eta, ADDITIVE, psi, g, SolverConfig(control_coupling="integrated")
    )
    assert not np.allclose(direct.fields[-1], integrated.fields[-1])
    with pytest.raises(ValueError, match="coupling"):
        SolverConfig(control_coupling="sideways")


def test_girsanov_zero_control():
    g = make_grid(16, 16, 0.25)
    nz = sample_white_increments(g, 0)
    assert girsanov_log_weight(zero_control(g), nz, 0.5) == 0.0


def test_girsanov_decomposition():
    # log w = -P/sqrt(eps) - Q/(2 eps) with P the cell pairing, Q the squared
    # L^2 norm; linear in the pairing term, quadratic in the norm term.
    g = make_grid(16, 16, 0.25)
    nz = sample_white_increments(g, 3)
    rng = np.random.default_rng(4)
    psi = make_control(g, rng.standard_normal((16, 15)))
    eps = 0.3
    P = float(np.sum(psi.values * nz.white_increments))
    Q = psi.norm_sq
    lw = girsanov_log_weight(psi, nz, eps)
    assert abs(lw - (-P / np.sqrt(eps) - Q / (2 * eps))) <= 1e-12
    lw2 = girsanov_log_weight(psi.scaled(2.0), nz, eps)
    assert abs(lw2 - (-2 * P / np.sqrt(eps) - 4 * Q / (2 * eps))) <= 1e-12


def test_girsanov_requires_positive_eps():
    g = make_grid(16, 16, 0.25)
    nz = sample_white_increments(g, 0)
    with pytest.raises(ValueError, match="positive"):
        girsanov_log_weight(zero_control(g), nz, 0.0)


def test_girsanov_batch_matches_single_realizations():
    g = make_grid(16, 16, 0.25)
    psi = make_control(g, np.random.default_rng(6).standard_normal((16, 15)))
    noises = [sample_white_increments(g, 8, replica=r) for r in range(5)]
    batch = girsanov_log_weight(psi, np.stack([nz.spatial_density for nz in noises]), 0.3)
    single = [girsanov_log_weight(psi, nz, 0.3) for nz in noises]
    assert batch.shape == (5,)
    np.testing.assert_allclose(batch, single, rtol=1e-13, atol=0.0)
    with pytest.raises(TypeError, match="Control"):
        girsanov_log_weight(psi.values, noises[0].spatial_density, 0.3)


def test_girsanov_martingale_mean():
    g = make_grid(16, 32, 0.25)
    psi = phi1_control(g, 0.3)
    eps = 0.05
    reps = 3000
    w = np.empty(reps)
    for r in range(reps):
        w[r] = np.exp(girsanov_log_weight(psi, sample_white_increments(g, 123, replica=r), eps))
    se = np.std(w, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(w) - 1.0) <= 3 * se


def test_girsanov_cameron_martin_shift():
    # E[w * pairing] = -Q / sqrt(eps): the reweighted pairing mean matches the
    # shifted-measure prediction.
    g = make_grid(16, 32, 0.25)
    psi = phi1_control(g, 0.3)
    eps = 0.05
    reps = 4000
    w = np.empty(reps)
    pair = np.empty(reps)
    for r in range(reps):
        nz = sample_white_increments(g, 321, replica=r)
        pair[r] = np.sum(psi.values * nz.white_increments)
        w[r] = np.exp(girsanov_log_weight(psi, nz, eps))
    target = -psi.norm_sq / np.sqrt(eps)
    se = np.std(w * pair, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(w * pair) - target) <= 3 * se
