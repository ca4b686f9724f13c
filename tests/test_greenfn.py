import numpy as np
import pytest

from spdelab.greenfn import (
    apply_semigroup,
    green_image,
    green_spectral,
)
from spdelab.lattice import (
    cos_analysis,
    eigen_values,
    eigenfunction,
    from_modes,
    lp_norm_values,
    make_field,
    make_grid,
    to_modes,
)

TS = np.geomspace(0.01, 1.0, 12)
XS = np.linspace(0.05, 0.95, 13)


def test_image_dirichlet_boundary():
    # The unpaired far image leaves a residual ~ exp(-(2n)^2/4t) at y = 1,
    # so t up to 1 needs n_images = 6 to sit below 1e-12.
    for t in TS:
        assert np.max(np.abs(green_image(t, XS, 0.0, 6))) <= 1e-12
        assert np.max(np.abs(green_image(t, XS, 1.0, 6))) <= 1e-12


def test_image_symmetry():
    X, Y = np.meshgrid(XS, XS, indexing="ij")
    for t in TS:
        g = green_image(t, X, Y, 5)
        assert np.max(np.abs(g - g.T)) <= 1e-12


def test_image_requires_positive_time():
    with pytest.raises(ValueError, match="positive"):
        green_image(0.0, 0.3, 0.7)
    with pytest.raises(ValueError, match="positive"):
        green_spectral(-1.0, 0.3, 0.7)


def test_dual_form_agreement_point():
    a = green_image(0.05, 0.3, 0.7, 5)
    b = green_spectral(0.05, 0.3, 0.7, 128)
    assert abs(a - b) <= 1e-10


def test_spectral_single_term():
    assert abs(green_spectral(1.0, 0.5, 0.5, 1) - 2.0 * np.exp(-np.pi**2)) <= 1e-14


def test_kernel_mass_small_time():
    # Heat-kernel mass oracle: trapezoid of the image form at t -> 0+.
    g = make_grid(1024, 1, 1.0)
    vals = green_image(1e-4, 0.5, g.x, 5)
    assert g.dx * np.sum(vals) >= 0.999


def test_kernel_positivity_sampled():
    X, Y = np.meshgrid(XS, XS, indexing="ij")
    # Each form where it converges fast: images below t = 0.1, eigen series above.
    for t in TS:
        kernel = green_image(t, X, Y) if t < 0.1 else green_spectral(t, X, Y)
        assert np.min(kernel) >= -1e-12


def test_semigroup_identity_at_zero():
    g = make_grid(64, 1, 1.0)
    f = eigenfunction(g, 3)
    out = apply_semigroup(f, 0.0)
    assert np.array_equal(out.values, f.values)


def test_semigroup_eigenrelation():
    g = make_grid(64, 1, 1.0)
    f = eigenfunction(g, 1)
    out = apply_semigroup(f, 0.1)
    assert np.max(np.abs(out.values - np.exp(-np.pi**2 * 0.1) * f.values)) <= 1e-10


def test_semigroup_quadrature_cross_check():
    # Direct trapezoid of the image kernel against the per-mode product.
    g = make_grid(256, 1, 1.0)
    f = eigenfunction(g, 1)
    out = apply_semigroup(f, 0.1)
    kernel = green_image(0.1, g.x[:, None], g.x[None, :], 5)
    direct = g.dx * kernel @ f.values
    assert np.max(np.abs(out.values - direct)) <= 1e-6


def test_semigroup_law():
    g = make_grid(64, 1, 1.0)
    rng = np.random.default_rng(3)
    f = make_field(g, rng.standard_normal(g.n_interior))
    once = apply_semigroup(f, 0.17)
    split = apply_semigroup(apply_semigroup(f, 0.05), 0.12)
    assert np.max(np.abs(once.values - split.values)) <= 1e-10


def test_semigroup_rejects_negative_time():
    g = make_grid(16, 1, 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        apply_semigroup(make_field(g, np.zeros(15)), -0.1)


def test_semigroup_l2_contraction():
    g = make_grid(64, 1, 1.0)
    rng = np.random.default_rng(4)
    for tau in (0.01, 0.1, 1.0):
        u = rng.standard_normal(g.n_interior)
        out = apply_semigroup(make_field(g, u), tau)
        lhs = lp_norm_values(out.values, g.dx, 2)
        rhs = np.exp(-np.pi**2 * tau) * lp_norm_values(u, g.dx, 2)
        assert lhs <= rhs + 1e-12


# Exponents of the divergence-form smoothing inequality, with
# kappa = 1 + 1/rho - 1/q, 1 <= q < rho and gamma > 2/kappa.
RHO, Q, GAMMA = 4.0, 2.0, 4.0
KAPPA = 0.75


def _fitted_smoothing_constant(nx: int) -> float:
    """Largest ratio |J(v)(t)|_rho / (t^(kappa/2 - 1/gamma) (int |v|_q^gamma)^(1/gamma))
    over a battery of smooth space-time fields, with J the divergence-kernel
    convolution accumulated by exact per-mode time integration."""
    nt, T = 128, 0.5
    g = make_grid(nx, nt, T)
    lam = eigen_values(np.arange(1, g.nx))
    decay = np.exp(-lam * g.dt)
    ed = (1.0 - decay) / lam
    expo = KAPPA / 2.0 - 1.0 / GAMMA
    battery = (
        lambda s, y: np.sin(np.pi * y) * (1.0 + s),
        lambda s, y: y * (1.0 - y) * np.exp(-s),
        lambda s, y: np.sin(3 * np.pi * y) * np.cos(2 * np.pi * s) + 0.5 * np.sin(np.pi * y),
    )
    worst = 0.0
    for v_fn in battery:
        J = np.zeros(g.n_interior)
        qint = 0.0
        for m in range(nt):
            v = v_fn(m * g.dt, g.x)
            qint += g.dt * lp_norm_values(v, g.dx, Q) ** GAMMA
            J = from_modes(decay * to_modes(J, g) - ed * cos_analysis(v, g), g)
            t = (m + 1) * g.dt
            denom = t**expo * qint ** (1.0 / GAMMA)
            worst = max(worst, float(lp_norm_values(J, g.dx, RHO)) / denom)
    return worst


def test_smoothing_inequality_fitted_constant_stable():
    c64 = _fitted_smoothing_constant(64)
    c128 = _fitted_smoothing_constant(128)
    assert np.isfinite(c64) and c64 > 0
    assert max(c64, c128) / min(c64, c128) <= 2.0
