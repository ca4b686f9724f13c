import numpy as np
import pytest

from spdelab.action import gradient_check
from spdelab.coeffs import make_coefficients
from spdelab.control import (
    Control,
    control_from_function,
    girsanov_log_weight,
    rate_functional,
    solve_controlled,
    solve_skeleton,
)
from spdelab.lattice import eigenfunction, make_field, make_grid, to_modes
from spdelab.mild_solver import SolverConfig, solve_spde
from spdelab.noise import sample_sheet_expansion

ADDITIVE = make_coefficients("linear", f_slope=0.0, sigma0=1.0)


def phi1_control(grid, amp=1.0):
    return control_from_function(grid, lambda t, x: amp * np.sqrt(2) * np.sin(np.pi * x))


def test_control_validation():
    g = make_grid(16, 8, 0.5)
    with pytest.raises(ValueError, match="shape"):
        Control(np.zeros((7, 15)), g)
    with pytest.raises(ValueError, match="non-finite"):
        Control(np.full((8, 15), np.inf), g)


@pytest.mark.parametrize(
    "call",
    [
        "solve_skeleton",
        "solve_controlled",
        "girsanov_log_weight",
        "gradient_check_psi",
        "gradient_check_direction",
    ],
)
def test_non_finite_control_array_fails_by_name(call):
    # Every array control goes through Control, which names the cause before
    # any step runs.
    g = make_grid(16, 8, 0.5)
    eta = eigenfunction(g, 1)
    ok = np.ones((g.nt, g.n_interior))
    bad = ok.copy()
    bad[3, 4] = np.nan
    calls = {
        "solve_skeleton": lambda: solve_skeleton(eta, ADDITIVE, bad, g),
        "solve_controlled": lambda: solve_controlled(eta, ADDITIVE, bad, 0.1, seed=1, grid=g),
        "girsanov_log_weight": lambda: girsanov_log_weight(
            bad, sample_sheet_expansion(g, g.n_interior, 1), 0.1
        ),
        "gradient_check_psi": lambda: gradient_check(eta, eta, ADDITIVE, bad, ok, h=1e-5),
        "gradient_check_direction": lambda: gradient_check(eta, eta, ADDITIVE, ok, bad, h=1e-5),
    }
    with pytest.raises(ValueError, match="non-finite"):
        calls[call]()


def test_control_norm_cache_matches_quadrature():
    g = make_grid(16, 8, 0.5)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((8, 15))
    psi = Control(vals, g)
    assert abs(psi.norm_sq - g.dt * g.dx * np.sum(vals**2)) <= 1e-12


def test_rate_functional_values():
    g = make_grid(64, 64, 1.0)
    zero = rate_functional(Control(np.zeros((g.nt, g.n_interior)), g))
    assert zero == 0.0
    # Constant control on the unit square: cell quadrature mass is 1 - dx.
    ones = Control(np.ones((g.nt, g.n_interior)), g)
    I = rate_functional(ones)
    assert abs(I - 0.5) <= 0.5 * g.dx
    # phi_1 profile integrates exactly: I = T/2.
    for T in (0.5, 1.0):
        gT = make_grid(64, 64, T)
        I = rate_functional(phi1_control(gT))
        assert abs(I - T / 2.0) <= 1e-8


def test_rate_functional_quadratic():
    g = make_grid(32, 16, 0.5)
    rng = np.random.default_rng(1)
    psi = Control(rng.standard_normal((16, 31)), g)
    I1 = rate_functional(psi)
    I3 = rate_functional(Control(3.0 * psi.values, g))
    assert abs(I3 - 9.0 * I1) <= 1e-12 * max(I3, 1.0)


def test_skeleton_zero_control_equals_deterministic_flow():
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("reaction", f_slope=0.4, g1_slope=0.2, g2_quad=0.1,
                           sigma0=1.0, sigma1=0.1)
    scfg = SolverConfig(k_modes=8)
    eta = eigenfunction(g, 1)
    sk = solve_skeleton(eta, cf, None, g, scfg)
    det = solve_spde(eta, cf, 0.0, seed=0, grid=g, config=scfg)
    assert np.array_equal(sk.fields, det.fields)
    sk0 = solve_skeleton(eta, cf, Control(np.zeros((g.nt, g.n_interior)), g), g, scfg)
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
    a = Control(rng.standard_normal((64, 31)), g)
    b = Control(rng.standard_normal((64, 31)), g)
    ab = Control(a.values + b.values, g)
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
    zero = Control(np.zeros((g.nt, g.n_interior)), g)
    vz = solve_controlled(eta, cf, zero, 0.1, seed=7, grid=g, config=scfg)
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


def test_girsanov_zero_control():
    g = make_grid(16, 16, 0.25)
    nz = sample_sheet_expansion(g, g.n_interior, 0)
    assert girsanov_log_weight(Control(np.zeros((g.nt, g.n_interior)), g), nz, 0.5) == 0.0


def test_girsanov_decomposition():
    # log w = -P/sqrt(eps) - Q/(2 eps) with P the cell pairing, Q the squared
    # L^2 norm; linear in the pairing term, quadratic in the norm term.
    g = make_grid(16, 16, 0.25)
    nz = sample_sheet_expansion(g, g.n_interior, 3)
    rng = np.random.default_rng(4)
    psi = Control(rng.standard_normal((16, 15)), g)
    eps = 0.3
    P = float(np.sum(psi.values * nz.white_increments))
    Q = psi.norm_sq
    lw = girsanov_log_weight(psi, nz, eps)
    assert abs(lw - (-P / np.sqrt(eps) - Q / (2 * eps))) <= 1e-12
    lw2 = girsanov_log_weight(Control(2.0 * psi.values, g), nz, eps)
    assert abs(lw2 - (-2 * P / np.sqrt(eps) - 4 * Q / (2 * eps))) <= 1e-12


@pytest.mark.parametrize("k_noise", [1, 6])
def test_girsanov_truncated_realization_matches_the_cell_pairing(k_noise):
    # The weight pairs psi with the driving modes (Parseval); on a truncated
    # realization that is the cell pairing dx sum psi xi with the truncated
    # density xi.
    g = make_grid(16, 16, 0.25)
    nz = sample_sheet_expansion(g, k_noise, 3)
    assert nz.k_active < g.n_interior
    psi = Control(np.random.default_rng(4).standard_normal((16, 15)), g)
    eps = 0.3
    P = g.dx * float(np.sum(psi.values * nz.spatial_density))
    expected = -P / np.sqrt(eps) - psi.norm_sq / (2 * eps)
    assert abs(girsanov_log_weight(psi, nz, eps) - expected) <= 1e-13


def test_girsanov_requires_positive_eps():
    g = make_grid(16, 16, 0.25)
    nz = sample_sheet_expansion(g, g.n_interior, 0)
    with pytest.raises(ValueError, match="positive"):
        girsanov_log_weight(Control(np.zeros((g.nt, g.n_interior)), g), nz, 0.0)


def test_girsanov_batch_matches_single_realizations():
    # The weight is paired step by step, so a row's weight has the same bits
    # alone, in a batch or under a stacking axis; nt 256 / nx 64 is a size at
    # which a whole-block einsum sums a lone block along another path than a
    # row of a batch.
    g = make_grid(64, 256, 0.25)
    psi = Control(np.random.default_rng(6).standard_normal((g.nt, g.n_interior)), g)
    noises = [sample_sheet_expansion(g, g.n_interior, 8, replica=r) for r in range(5)]
    blocks = np.stack([nz.mode_increments for nz in noises])
    batch = girsanov_log_weight(psi, blocks, 0.3)
    single = [girsanov_log_weight(psi, nz, 0.3) for nz in noises]
    assert batch.shape == (5,)
    assert batch.tobytes() == np.array(single).tobytes()
    for r in range(5):  # a one-row batch, alone or under a stacking axis
        assert girsanov_log_weight(psi, blocks[r : r + 1], 0.3).tobytes() == batch[r : r + 1].tobytes()
        assert girsanov_log_weight(psi, blocks[None, r : r + 1], 0.3).shape == (1, 1)
    assert girsanov_log_weight(psi, blocks.reshape(5, 1, g.nt, -1), 0.3).tobytes() == batch.tobytes()
    with pytest.raises(TypeError, match="Control"):
        girsanov_log_weight(psi.values, noises[0].mode_increments, 0.3)


def test_girsanov_martingale_mean():
    g = make_grid(16, 32, 0.25)
    psi = phi1_control(g, 0.3)
    eps = 0.05
    reps = 3000
    w = np.empty(reps)
    for r in range(reps):
        nz = sample_sheet_expansion(g, g.n_interior, 123, replica=r)
        w[r] = np.exp(girsanov_log_weight(psi, nz, eps))
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
        nz = sample_sheet_expansion(g, g.n_interior, 321, replica=r)
        pair[r] = np.sum(psi.values * nz.white_increments)
        w[r] = np.exp(girsanov_log_weight(psi, nz, eps))
    target = -psi.norm_sq / np.sqrt(eps)
    se = np.std(w * pair, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(w * pair) - target) <= 3 * se
