import importlib.util
import re
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft as sfft

from spdelab import lattice
from spdelab.lattice import (
    cos_analysis,
    cos_synthesis,
    eigen_values,
    eigenfunction,
    from_modes,
    lp_norm,
    lp_norm_values,
    make_field,
    make_grid,
    to_modes,
)


def test_make_grid_basic():
    g = make_grid(8, 4, 1.0)
    assert g.dx == 0.125
    assert g.dt == 0.25
    assert np.allclose(g.x, np.arange(1, 8) / 8)


def test_make_grid_fine_dt():
    g = make_grid(256, 4096, 0.5)
    assert g.dt == 0.5 / 4096
    assert g.dx * g.nx == 1.0


def test_make_grid_errors():
    with pytest.raises(ValueError, match="dimension too small"):
        make_grid(1, 4, 1.0)
    with pytest.raises(ValueError, match="dimension too small"):
        make_grid(8, 0, 1.0)
    with pytest.raises(ValueError, match="non-positive horizon"):
        make_grid(8, 4, 0.0)


def test_field_validation():
    g = make_grid(8, 4, 1.0)
    with pytest.raises(ValueError, match="length"):
        make_field(g, np.zeros(9))
    with pytest.raises(ValueError, match="non-finite"):
        make_field(g, np.full(7, np.nan))


def test_sine_transform_basis_element():
    g = make_grid(64, 1, 1.0)
    coeffs = to_modes(eigenfunction(g, 1).values, g)
    assert abs(coeffs[0] - 1.0) <= 1e-12
    assert np.max(np.abs(coeffs[1:])) <= 1e-12


def test_sine_transform_roundtrip():
    g = make_grid(64, 1, 1.0)
    rng = np.random.default_rng(0)
    f = make_field(g, rng.standard_normal(g.n_interior))
    back = from_modes(to_modes(f.values, g), g)
    assert np.max(np.abs(back - f.values)) <= 1e-12


def test_parseval_against_quadrature_oracle():
    # Oracle: direct trapezoid quadrature of |u|^2 with zero boundary values.
    g = make_grid(64, 1, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.standard_normal(g.n_interior)
        oracle = g.dx * np.sum(u**2)
        assert abs(oracle - np.sum(to_modes(u, g) ** 2)) <= 1e-10 * oracle


def test_transform_length_mismatch():
    g = make_grid(16, 1, 1.0)
    with pytest.raises(ValueError, match="length mismatch"):
        to_modes(np.zeros(16), g)
    with pytest.raises(ValueError, match="length mismatch"):
        from_modes(np.zeros(14), g)


@pytest.mark.parametrize("nx", [64, 128])
def test_orthogonality(nx):
    g = make_grid(nx, 1, 1.0)
    phi = np.array([eigenfunction(g, k).values for k in range(1, nx // 4 + 1)])
    gram = g.dx * phi @ phi.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-10
    assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-10


def test_basis_invariants():
    g = make_grid(32, 1, 1.0)
    lam = eigen_values(np.arange(1, g.n_interior + 1))
    assert np.all(np.diff(lam) > 0)
    assert abs(lam[0] - np.pi**2) <= 1e-12


def test_lp_norm_constant_has_unit_mass_up_to_quadrature():
    # Trapezoid with zero boundary carries mass 1 - dx, so the constant field
    # evaluates to (1 - dx)^(1/p); exact unit mass is not representable
    # without breaking the exact Parseval identity.
    g = make_grid(256, 1, 1.0)
    ones = make_field(g, np.ones(g.n_interior))
    for p in (1.0, 2.0, 8.0):
        assert abs(lp_norm(ones, p) - 1.0) <= g.dx


def test_lp_norm_zero():
    g = make_grid(32, 1, 1.0)
    assert lp_norm(make_field(g, np.zeros(g.n_interior)), 3.0) == 0.0


def test_lp_norm_phi1_p2():
    g = make_grid(256, 1, 1.0)
    assert abs(lp_norm(eigenfunction(g, 1), 2.0) - 1.0) <= 1e-6


def test_lp_norm_infinity():
    g = make_grid(32, 1, 1.0)
    f = make_field(g, np.linspace(-0.5, 0.9, g.n_interior))
    assert lp_norm(f, np.inf) == 0.9


def test_lp_norm_p_below_one():
    g = make_grid(32, 1, 1.0)
    with pytest.raises(ValueError, match="p="):
        lp_norm(make_field(g, np.zeros(31)), 0.5)


def test_lp_norm_monotone_in_p():
    # |u|_p <= |u|_q for p <= q when |u| <= 1 (quadrature mass <= 1).
    g = make_grid(64, 1, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, g.n_interior)
        norms = [lp_norm_values(u, g.dx, p) for p in (1, 1.5, 2, 4, 8, np.inf)]
        assert np.all(np.diff(norms) >= -1e-12)


# ---------------------------------------------------------------------------
# Transform pin: each transform equals, bit for bit, its scipy.fft formula.
# ---------------------------------------------------------------------------

_PIN_NX = [2, 3, 16, 32, 64, 257]


def _ref_to_modes(v, g):
    return sfft.dst(v, type=1, axis=-1) * (g.dx / np.sqrt(2.0))


def _ref_from_modes(c, g):
    out = sfft.dst(c, type=1, axis=-1)
    out /= np.sqrt(2.0)
    return out


def _ref_cos_analysis(v, g):
    padded = np.empty(v.shape[:-1] + (g.nx + 1,))
    padded[..., 1:-1] = v
    padded[..., 0] = v[..., 0]
    padded[..., -1] = v[..., -1]
    d = sfft.dct(padded, type=1, axis=-1)
    k = np.arange(1, g.n_interior + 1)
    return d[..., 1 : g.nx] * (k * np.pi * g.dx / np.sqrt(2.0))


def _ref_cos_synthesis(c, g):
    k = np.arange(1, g.n_interior + 1)
    r = c * (np.sqrt(2.0) * k * np.pi)
    padded = np.zeros(c.shape[:-1] + (g.nx + 1,))
    padded[..., 1:-1] = r
    out = sfft.dct(padded, type=1, axis=-1)[..., 1 : g.nx] / 2.0
    out[..., 0] += 0.5 * np.sum(r, axis=-1)
    out[..., -1] += 0.5 * np.sum(r * np.where(k % 2 == 0, 1.0, -1.0), axis=-1)
    return out


_PINNED = (
    (to_modes, _ref_to_modes),
    (from_modes, _ref_from_modes),
    (cos_analysis, _ref_cos_analysis),
    (cos_synthesis, _ref_cos_synthesis),
)


def _pin_input(kind, g):
    rng = np.random.default_rng(g.nx)
    if kind == "single":
        return rng.standard_normal(g.n_interior)
    if kind == "batch3":
        return rng.standard_normal((3, g.n_interior))
    if kind == "strided":
        # One time level of an (r, nt, nx-1) block: rows nt*(nx-1) apart.
        return rng.standard_normal((3, 4, g.n_interior))[..., 2, :]
    block = rng.standard_normal((g.nt, g.n_interior)) * np.sqrt(g.dt)
    block.flags.writeable = False  # read-only (nt, nx-1), like a noise block
    return block


@pytest.mark.parametrize("nx", _PIN_NX)
@pytest.mark.parametrize("kind", ["single", "batch3", "strided", "readonly"])
def test_transforms_match_scipy_fft_formulas_bit_for_bit(nx, kind):
    g = make_grid(nx, 3, 1.0)
    x = _pin_input(kind, g)
    dense = x.copy()  # contiguous and writeable
    for fn, ref in _PINNED:
        assert np.array_equal(fn(x, g), ref(dense, g)), fn.__name__
    # A transform leaves its input alone unless asked to overwrite it.
    assert np.array_equal(x, dense)
    # overwrite=True writes the result into the input's memory, strided or
    # not; a read-only input is left alone and the result is a new array.
    out = from_modes(x, g, overwrite=True)
    assert np.array_equal(out, _ref_from_modes(dense, g))
    assert np.shares_memory(out, x) == x.flags.writeable
    if not x.flags.writeable:
        assert np.array_equal(x, dense)
    # out= receives the result, strided or not; cos_synthesis calls sharing
    # one work buffer each give the bits of a call with its own.
    for fn, ref in _PINNED[:2]:
        target = np.empty(x.shape[:-1] + (2, g.n_interior))[..., 1, :]
        assert fn(dense, g, out=target) is target
        assert np.array_equal(target, ref(dense, g))
    work = np.zeros(x.shape[:-1] + (2, nx + 1))
    for _ in range(2):
        assert np.array_equal(cos_synthesis(dense, g, work), _ref_cos_synthesis(dense, g))


@pytest.mark.parametrize("nx", _PIN_NX)
def test_batched_rows_match_single_calls_bit_for_bit(nx):
    # The adjoint sweep synthesizes S p and C p as two rows of one call, so a
    # row of a batched transform must equal the one-vector transform of that
    # row. Nine rows cover the kernel's multi-row (SIMD) path and its rest.
    g = make_grid(nx, 1, 1.0)
    rng = np.random.default_rng(nx + 2)
    for rows in (2, 9):
        x = rng.standard_normal((rows, g.n_interior))
        for fn, _ in _PINNED:
            batch = fn(x, g)
            for row, got in zip(x, batch):
                assert np.array_equal(fn(row, g), got), (fn.__name__, rows)


@pytest.mark.parametrize("nx", _PIN_NX)
def test_cos_synthesis_is_the_scaled_transpose_of_cos_analysis(nx):
    # cos_synthesis(c) = A^T c / dx, where A is cos_analysis as a matrix.
    g = make_grid(nx, 1, 1.0)
    A = cos_analysis(np.eye(g.n_interior), g).T
    c = np.random.default_rng(nx + 1).standard_normal((3, g.n_interior))
    want = c @ A / g.dx
    got = cos_synthesis(c, g)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


_COLD_IMPORT = textwrap.dedent(
    """
    import sys
    import numpy as np
    import spdelab, spdelab.cli, spdelab.experiments
    from spdelab import lattice

    print(sorted(k for k in sys.modules if k.startswith("scipy")))
    import scipy.fft
    from scipy.fft._pocketfft import pypocketfft
    print(pypocketfft is lattice._pocketfft is sys.modules[pypocketfft.__name__])
    g = lattice.make_grid(32, 1, 1.0)
    v = np.random.default_rng(5).standard_normal(g.n_interior)
    want = scipy.fft.dst(v, type=1, axis=-1) * (g.dx / np.sqrt(2.0))
    print(np.array_equal(lattice.to_modes(v, g), want))
    """
)


def test_import_loads_no_scipy_package():
    """`import spdelab` loads scipy's pocketfft extension and no scipy package.

    scipy.fft's package init costs more than the whole rest of the import,
    and every run pays the import before any work. A later heavy scipy import
    goes inside the function that needs it: scipy.optimize, for an L-BFGS-B
    minimum-action solver, costs ~0.65 s to import. A scipy.fft imported
    afterwards reuses the extension module lattice loaded, not a second copy.
    """
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _COLD_IMPORT], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['scipy.fft._pocketfft.pypocketfft']",
        "True",
        "True",
    ]


def test_missing_pocketfft_extension_names_the_path(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, lattice._POCKETFFT)
    fake_scipy = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake_scipy)
    searched = str(tmp_path / "fft" / "_pocketfft" / "pypocketfft")
    with pytest.raises(ImportError, match=re.escape(searched)):
        lattice._load_pocketfft()
