import math
from dataclasses import replace

import numpy as np
import pytest

from spdelab.action import ActionOptions, gradient_check
from spdelab.coeffs import (
    CHI_MAX_SLOPE,
    CoefficientSet,
    chi_R,
    chi_R_prime,
    make_coefficients,
    truncate_coefficients,
    validate_assumptions,
)
from spdelab.control import Control
from spdelab.lattice import eigenfunction, make_field, make_grid


def test_chi_plateau_and_support():
    for R in (0.0, 1.0, 7.5):
        assert chi_R(R, R) == 1.0
        assert chi_R(-R, R) == 1.0
        assert chi_R(R + 1.0, R) == 0.0
        assert chi_R(R + 5.0, R) == 0.0
        assert abs(chi_R(R + 0.5, R) - 0.5) <= 1e-15


def test_chi_derivative_bound():
    r = np.linspace(-5, 5, 20001)
    assert np.max(np.abs(chi_R_prime(r, 2.0))) <= CHI_MAX_SLOPE + 1e-9
    # Finite-difference agreement on the bridge.
    h = 1e-7
    mid = 2.5
    fd = (chi_R(mid + h, 2.0) - chi_R(mid - h, 2.0)) / (2 * h)
    assert abs(fd - chi_R_prime(mid, 2.0)) <= 1e-6


def test_chi_negative_radius():
    with pytest.raises(ValueError):
        chi_R(0.5, -1.0)
    with pytest.raises(ValueError):
        chi_R_prime(0.5, -2.0)


def test_cutoff_object():
    assert chi_R(2.9, 3.0) == 1.0 and chi_R(4.1, 3.0) == 0.0
    assert chi_R_prime(2.9, 3.0) == 0.0 and chi_R_prime(4.1, 3.0) == 0.0
    assert abs(chi_R_prime(3.5, 3.0)) == CHI_MAX_SLOPE


def test_burgers_family():
    cf = make_coefficients("burgers", sigma0=1.0)
    r = np.array([0.5])
    assert cf.g1(0.0, 0.3, r)[0] == 0.0
    assert cf.g2(0.0, r)[0] == 0.25
    assert cf.f(0.0, 0.3, r)[0] == 0.0
    assert cf.sigma(0.0, 0.3, r)[0] == 1.0
    assert cf.K == 1.0


def test_linear_family_additive_heat():
    cf = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
    r = np.linspace(-3, 3, 7)
    assert np.all(cf.f(0.0, 0.5, r) == 0.0)
    assert np.all(cf.g(0.0, 0.5, r) == 0.0)
    assert np.all(cf.sigma(0.0, 0.5, r) == 1.0)
    assert cf.sigma_const == 1.0 and cf.f_is_zero and cf.g_is_zero


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        make_coefficients("cubic-f")


def test_bad_parameters():
    with pytest.raises(ValueError, match="finite"):
        make_coefficients("burgers", sigma1=np.inf)
    with pytest.raises(ValueError, match="does not take"):
        make_coefficients("linear", g2_quad=1.0)


def test_truncation_matches_inside_and_vanishes_outside():
    cf = make_coefficients("reaction", f_slope=0.7, g1_slope=0.3, g2_quad=0.5,
                           sigma0=1.0, sigma1=0.4)
    for n in (1, 5, 20):
        tn = truncate_coefficients(cf, n)
        r_in = np.array([n / 2.0, -n / 2.0])
        assert np.array_equal(tn.f(0.1, 0.5, r_in), cf.f(0.1, 0.5, r_in))
        assert np.array_equal(tn.g2(0.1, r_in), cf.g2(0.1, r_in))
        assert np.array_equal(tn.sigma(0.1, 0.5, r_in), cf.sigma(0.1, 0.5, r_in))
        r_out = np.array([n + 2.0, -(n + 2.0)])
        assert np.all(tn.f(0.1, 0.5, r_out) == 0.0)
        assert np.all(tn.g1(0.1, 0.5, r_out) == 0.0)
        assert np.all(tn.g2(0.1, r_out) == 0.0)
        assert np.all(tn.sigma(0.1, 0.5, r_out) == 0.0)


def test_truncation_idempotent_on_plateaus():
    cf = make_coefficients("burgers", sigma0=1.0, sigma1=0.5)
    n = 3
    t1 = truncate_coefficients(cf, n)
    t2 = truncate_coefficients(t1, n)
    r = np.concatenate([np.linspace(-n, n, 9), [n + 1.5, -(n + 2.0), n + 4.0]])
    assert np.array_equal(t1.g2(0.0, r), t2.g2(0.0, r))
    assert np.array_equal(t1.sigma(0.0, 0.5, r), t2.sigma(0.0, 0.5, r))


@pytest.mark.parametrize("n", [1, 5, 20])
def test_truncated_sigma_lipschitz_ratio(n):
    # Dense difference-quotient sampling over [-n-2, n+2].
    cf = make_coefficients("burgers", sigma0=1.0, sigma1=0.5)
    tn = truncate_coefficients(cf, n)
    r = np.linspace(-(n + 2.0), n + 2.0, 4001)
    vals = tn.sigma(0.0, 0.5, r)
    ratios = np.abs(np.diff(vals)) / np.diff(r)
    assert np.max(ratios) <= tn.L_sigma + 1e-9


def test_truncated_derivative_consistency():
    cf = make_coefficients("reaction", f_slope=0.7, g1_slope=0.3, g2_quad=0.5,
                           sigma0=1.0, sigma1=0.4)
    tn = truncate_coefficients(cf, 2)
    r = np.linspace(-4.5, 4.5, 101)
    h = 1e-7
    fd = (tn.f(0.0, 0.5, r + h) - tn.f(0.0, 0.5, r - h)) / (2 * h)
    assert np.max(np.abs(fd - tn.f_r(0.0, 0.5, r))) <= 1e-5


def test_central_difference_fallback_matches_analytic_derivatives():
    cf = make_coefficients("reaction", f_slope=0.2, g1_slope=0.1, g2_quad=0.05,
                           sigma0=1.0, sigma1=0.3)
    fd = replace(cf, df_dr=None, dg1_dr=None, dg2_dr=None, dsigma_dr=None)
    x = np.linspace(0.05, 0.95, 201)
    r = np.linspace(-5.0, 5.0, 201)
    for name in ("f_r", "g_r", "sigma_r"):
        assert np.max(np.abs(getattr(fd, name)(0.1, x, r) - getattr(cf, name)(0.1, x, r))) <= 1e-8
    g = make_grid(32, 64, 0.25)
    rng = np.random.default_rng(7)
    psi = Control(0.2 * rng.standard_normal((g.nt, g.n_interior)), g)
    d = Control(rng.standard_normal((g.nt, g.n_interior)), g)
    err = gradient_check(eigenfunction(g, 1), make_field(g, np.zeros(g.n_interior)), fd, psi, d,
                         h=1e-5, opts=ActionOptions(k_modes=8))
    assert err <= 1e-6


def test_truncation_level_validation():
    cf = make_coefficients("linear")
    with pytest.raises(ValueError, match=">= 1"):
        truncate_coefficients(cf, 0)


def test_validate_burgers_passes_small_box():
    cf = make_coefficients("burgers", sigma0=1.0)
    report = validate_assumptions(cf, r_range=(-10.0, 10.0), n_samples=5000, seed=1)
    assert report.all_ok
    assert cf.K == 1.0
    assert report.warnings == []


@pytest.mark.parametrize("family,params", [
    ("burgers", dict(sigma0=1.0, sigma1=0.5)),
    ("linear", dict(f_slope=0.5, sigma0=2.0)),
    ("reaction", dict(f_slope=0.5, g1_slope=0.3, g2_quad=0.7, sigma0=1.0, sigma1=0.2)),
])
def test_validate_families_box_100(family, params):
    cf = make_coefficients(family, **params)
    report = validate_assumptions(cf, r_range=(-100.0, 100.0), n_samples=8000, seed=3)
    assert report.all_ok, [c.name for c in report.failed()]


def test_validate_flags_superlinear_f():
    cf = make_coefficients("linear", f_slope=1.0)
    bad = CoefficientSet(
        f=lambda t, x, r: np.asarray(r) ** 2,
        g1=cf.g1,
        g2=cf.g2,
        sigma=cf.sigma,
        K=cf.K,
        L=10.0,
        L_sigma=cf.L_sigma,
        rho=8.0,
    )
    report = validate_assumptions(bad, r_range=(-50.0, 50.0), n_samples=5000, seed=2)
    failed = {c.name for c in report.failed()}
    assert "f growth (H5)" in failed
    check = next(c for c in report.checks if c.name == "f growth (H5)")
    t, x, r = check.witness
    assert abs(r) > 1.0 and check.worst_ratio > 1.0


def test_validate_rho_warning():
    cf = make_coefficients("linear", rho=4.0)
    report = validate_assumptions(cf, n_samples=100, seed=0)
    assert any("rho > 6" in w for w in report.warnings)


def test_validate_empty_box():
    cf = make_coefficients("linear")
    with pytest.raises(ValueError, match="empty box"):
        validate_assumptions(cf, r_range=(1.0, 1.0), n_samples=10)
    with pytest.raises(ValueError, match="n_samples"):
        validate_assumptions(cf, n_samples=0)


def test_validate_broadcasts_scalar_result():
    cf = make_coefficients("linear", sigma0=1.0)
    constant = CoefficientSet(f=cf.f, g1=cf.g1, g2=cf.g2, sigma=lambda t, x, r: 1.0,
                              K=cf.K, L=cf.L, L_sigma=cf.L_sigma)
    expected = validate_assumptions(cf, n_samples=500, seed=4)
    assert validate_assumptions(constant, n_samples=500, seed=4) == expected


def test_validate_runs_evaluators_on_arrays_only():
    # The solvers call sigma on whole arrays, so the checks do too: a
    # scalar-only evaluator raises instead of being looped per sample.
    cf = make_coefficients("linear", sigma0=1.0)
    scalar_only = replace(cf, sigma=lambda t, x, r: 1.0 + 0.1 * math.sin(r))
    with pytest.raises(TypeError):
        validate_assumptions(scalar_only, n_samples=100, seed=0)
