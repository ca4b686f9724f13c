"""The diagonal (linear additive) case: terminal samples contracted from the
noise and adjoint sweeps built from decay-power tables must match the nodal
stepping path, and a finite terminal sample must not step at all.

The oracle is the same solve with cutoff_radius = 1e300: chi_R of any finite
norm is then exactly 1.0, so the oracle steps every replica and adjoint step
through _Ops.step, transforms and all, with the same dynamics.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spdelab import mild_solver
from spdelab.action import ActionOptions, _AdjointProblem, gradient_check
from spdelab.coeffs import make_coefficients
from spdelab.control import Control, solve_skeleton
from spdelab.experiments import (
    ExperimentConfig,
    _importance_result,
    run_experiment,
    run_importance_sampling,
)
from spdelab.lattice import eigenfunction, from_modes, make_grid
from spdelab.mild_solver import (
    SolverConfig,
    _integrate,
    _Ops,
    _sample_replicas,
)

RTOL = 1e-12
DATA = Path(__file__).parent / "data"
ADDITIVE = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
ORACLE_RADIUS = 1e300
CONFIGS = {
    "white": SolverConfig(),
    "k_noise6": SolverConfig(k_noise=6),
    "k_modes5": SolverConfig(k_modes=5),
    "k_modes9_k_noise4": SolverConfig(k_modes=9, k_noise=4),
}


def close(actual, expected):
    """Relative to the largest entry: a nodal value near a zero crossing
    carries the absolute rounding of the whole field."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=0.0,
                               atol=RTOL * np.max(np.abs(expected)))


def tilt(grid, amp=1.5):
    """A smooth tilt with every mode and a time profile."""
    t = grid.t[:-1, None]
    x = grid.x[None, :]
    return amp * (1.0 + t) * (np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x) + 0.1 * x)


def test_diagonal_holds_only_for_the_linear_additive_case():
    g = make_grid(16, 8, 0.25)
    assert _Ops(ADDITIVE, g).diagonal
    assert _Ops(ADDITIVE, g, k_modes=5, eps=0.3).diagonal
    assert not _Ops(make_coefficients("burgers", sigma0=1.0, sigma1=0.0), g, k_modes=4).diagonal
    assert not _Ops(make_coefficients("linear", f_slope=0.5, sigma0=1.0), g).diagonal
    reaction = make_coefficients("reaction", f_slope=0.0, g1_slope=0.0, g2_quad=0.0,
                                 sigma0=1.0, sigma1=0.3)
    assert not _Ops(reaction, g).diagonal
    assert not _Ops(ADDITIVE, g, cutoff_radius=ORACLE_RADIUS).diagonal


def sample_both(monkeypatch, config, psi, threads=1, chunk=None, record="terminal",
                cf=ADDITIVE, eps=0.3, replicas=40):
    g = make_grid(16, 32, 0.25)
    eta = eigenfunction(g, 1, amplitude=0.5)
    psi = None if psi is None else psi(g)
    if chunk is not None:
        monkeypatch.setattr(mild_solver, "_CHUNK_DOUBLES", chunk * g.nt * g.n_interior)
    runs = []
    for cfg in (config, replace(config, cutoff_radius=ORACLE_RADIUS)):
        (v,), (w,), (b,) = _sample_replicas([eta], cf, eps, g, 5, replicas, 1, cfg, [psi],
                                            record=record, threads=threads)
        runs.append((v, w, b))
    return runs


@pytest.mark.parametrize("record", ["terminal", "sup_rho"])
@pytest.mark.parametrize("psi", [None, tilt], ids=["plain", "tilted"])
@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("threads,chunk", [(1, None), (1, 7), (2, None), (2, 13)])
def test_replicas_match_the_stepping_oracle(monkeypatch, config, psi, record, threads, chunk):
    (v, w, b), (v_o, w_o, b_o) = sample_both(monkeypatch, config, psi, threads, chunk, record)
    assert not np.any(b) and not np.any(b_o)
    close(v, v_o)
    if psi is None:
        assert not np.any(w) and not np.any(w_o)
    else:
        close(w, w_o)


def test_diagonal_result_does_not_depend_on_chunks_or_threads(monkeypatch):
    ref, _ = sample_both(monkeypatch, SolverConfig(k_noise=6), tilt)
    for threads, chunk in ((1, 7), (2, None), (2, 13)):
        monkeypatch.undo()
        (v, w, b), _ = sample_both(monkeypatch, SolverConfig(k_noise=6), tilt, threads, chunk)
        assert v.tobytes() == ref[0].tobytes() and w.tobytes() == ref[1].tobytes()
        assert b.tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("psi", [None, tilt], ids=["plain", "tilted"])
def test_overflow_blows_the_same_steps(monkeypatch, psi):
    # sqrt(eps) * sigma0 overflows, so every replica blows up at step 1 on
    # both paths and reads NaN.
    cf = make_coefficients("linear", f_slope=0.0, sigma0=1e308)
    (v, _, b), (v_o, _, b_o) = sample_both(monkeypatch, SolverConfig(), psi, cf=cf, eps=4.0)
    assert np.all(b == 1) and np.array_equal(b, b_o)
    assert np.all(np.isnan(v)) and np.all(np.isnan(v_o))


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("threads", [1, 2])
def test_an_overflowing_replica_is_stepped_alone(monkeypatch, threads, chunk):
    # A plain and a tilted run stacked on each replica's draw, as in importance.
    g = make_grid(16, 32, 0.25)
    eta = eigenfunction(g, 1, amplitude=0.5)
    args = ([eta, eta], ADDITIVE, 0.3, g, 5, 40, 1, SolverConfig(), [None, tilt(g)])
    ref = _sample_replicas(*args)
    blown_row, step = 9, 4

    class Scaled(mild_solver._NoiseDrawer):
        def __init__(self, grid, master, rows, stream, k_noise):
            super().__init__(grid, master, rows, stream, k_noise)
            self.rows = rows

        def fill_blocks(self, out, start):
            super().fill_blocks(out, start)
            group = self.rows[start : start + len(out)]
            if blown_row in group:  # scaled past the float range
                out[group.index(blown_row), step:] *= np.inf
            return out

    monkeypatch.setattr(mild_solver, "_NoiseDrawer", Scaled)
    if chunk is not None:
        monkeypatch.setattr(mild_solver, "_CHUNK_DOUBLES", chunk * g.nt * g.n_interior)
    # A 32-step buffer holds a chunk's whole blocks; an 8-step one holds a
    # quarter of its rows, so the blown row's group is one of several.
    for window in (32, 8):
        monkeypatch.setattr(mild_solver, "_WINDOW", window)
        v, w, b = _sample_replicas(*args, threads=threads)
        assert b[:, blown_row].tolist() == [step + 1] * 2
        assert np.all(np.isnan(v[:, blown_row]))
        others = np.arange(40) != blown_row
        for got, want in zip((v, w, b), ref):
            assert got[:, others].tobytes() == want[:, others].tobytes()


def test_mode_increments_record_each_rows_first_non_finite_step():
    # Row 0 gets finite modes whose synthesis overflows at step 3, row 1 an
    # infinite mode at step 5, row 2 an ordinary increment; row 3 a large but
    # synthesizable one. sqrt(eps) * sigma0 = 1 keeps the increments exact.
    g = make_grid(16, 8, 0.001)
    ops = _Ops(ADDITIVE, g, eps=1.0)
    dw = np.full((g.nt, 4, g.n_interior), 1e-3)
    dw[2, 0, :] = 1e308
    dw[4, 1, 3] = np.inf
    dw[1, 3, :] = 1e290
    expected = []
    for row in range(4):
        state, step = np.zeros(g.n_interior), 0
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(g.nt):
                state = ops.decay * (state + dw[m, row])
                if not np.all(np.isfinite(from_modes(state, g))):
                    step = m + 1
                    break
        expected.append(step)
    assert expected == [3, 5, 0, 0]
    out, blown = _integrate(np.zeros((4, g.n_interior)), ops, lambda m: dw[m])
    assert blown.tolist() == expected
    assert np.all(np.isnan(out[:2])) and np.all(np.isfinite(out[2:]))


def test_diagonal_gradient_check():
    g = make_grid(32, 64, 0.5)
    rng = np.random.default_rng(7)
    psi = Control(0.3 * rng.standard_normal((g.nt, g.n_interior)), g)
    d = Control(rng.standard_normal((g.nt, g.n_interior)), g)
    opts = ActionOptions()
    assert _AdjointProblem(eigenfunction(g, 1), eigenfunction(g, 2), ADDITIVE, g, opts).ops.diagonal
    # The objective is quadratic in psi, so the central difference is exact
    # but for rounding, which a larger step keeps small.
    err = gradient_check(eigenfunction(g, 1), eigenfunction(g, 2, amplitude=0.2), ADDITIVE,
                         psi, d, h=1e-3, opts=opts)
    assert err <= 1e-8


@pytest.mark.parametrize("k_modes", [None, 6])
def test_diagonal_forward_and_gradient_match_the_stepping_sweeps(k_modes):
    g = make_grid(32, 48, 0.3)
    eta = eigenfunction(g, 1, amplitude=0.4)
    target = eigenfunction(g, 1, amplitude=1.2)
    psi = tilt(g, amp=0.8)
    opts = ActionOptions(k_modes=k_modes)
    prob = _AdjointProblem(target, eta, ADDITIVE, g, opts)
    v = prob.forward(psi)
    assert v.shape == (1, g.n_interior)
    skeleton = solve_skeleton(eta, ADDITIVE, psi, g, SolverConfig(k_modes))
    close(v[-1], skeleton.terminal.values)
    # The oracle problem steps the same flow through _Ops.step.
    oracle = _AdjointProblem(target, eta, ADDITIVE, g, opts)
    oracle.ops = _Ops(ADDITIVE, g, k_modes, cutoff_radius=ORACLE_RADIUS)
    v_o = oracle.forward(psi)
    close(v[-1], v_o[-1])
    close(prob.gradient(psi, v, 10.0), oracle.gradient(psi, v_o, 10.0))


def test_diagonal_stacked_sweep_rows_equal_single_sweeps():
    g = make_grid(32, 48, 0.3)
    prob = _AdjointProblem(eigenfunction(g, 1, amplitude=1.2), eigenfunction(g, 1, amplitude=0.4),
                           ADDITIVE, g, ActionOptions(k_modes=6))
    assert prob.ops.diagonal
    rng = np.random.default_rng(11)
    psi = tilt(g) + 0.3 * rng.standard_normal((4, g.nt, g.n_interior))
    v = prob.forward(psi)
    assert v.shape == (4, 1, g.n_interior)
    stacked = prob.objective(psi, 10.0)
    for row, one in enumerate(psi):
        assert v[row].tobytes() == prob.forward(one.copy()).tobytes()
        for got, want in zip(stacked, prob.objective(one.copy(), 10.0)):
            assert got[row].tobytes() == want.tobytes()


IMPORTANCE = {
    "kind": "importance", "master_seed": "11", "nx": "16", "nt": "16", "T": "0.25",
    "family": "linear", "sigma0": "1.0", "eps": "0.2", "replicas": "300",
    "eta_amp": "0.4", "psi_mode": "1", "psi_amp": "1.5", "event_kind": "mode_coeff",
    "event_param": "1", "event_threshold": "0.3",
}


@pytest.mark.parametrize("raw", [
    IMPORTANCE,
    dict(IMPORTANCE, k_noise="5", k_modes="9"),
    dict(IMPORTANCE, family="burgers", sigma1="0.2", k_modes="4"),
], ids=["linear", "linear_galerkin", "burgers"])
def test_importance_one_draw_equals_two_draws(raw):
    cfg = ExperimentConfig.from_raw(raw)
    grid = cfg.grid()
    args = ([cfg.eta_field(grid)], cfg.coefficients(), cfg.eps, grid, cfg.master_seed,
            cfg.replicas, 0, cfg.solver_config())
    draws = [_sample_replicas(*args), _sample_replicas(*args, [cfg.psi_control(grid).values])]
    two_draws = _importance_result(cfg, grid, *map(np.concatenate, zip(*draws)))
    stacked = run_importance_sampling(cfg)
    assert stacked.replicas == two_draws.replicas == 300
    for name, value in vars(two_draws).items():
        np.testing.assert_allclose(getattr(stacked, name), value, rtol=RTOL, atol=0.0,
                                   err_msg=name)


def forbid_stepping(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a finite linear additive terminal was stepped")

    monkeypatch.setattr(mild_solver._Ops, "step", fail)
    monkeypatch.setattr(mild_solver, "_integrate", fail)


def test_golden_config_stays_on_the_diagonal_path(monkeypatch, tmp_path):
    forbid_stepping(monkeypatch)
    out = run_experiment(DATA / "golden_mc_scaling.cfg", out_dir=tmp_path / "g")
    assert (out / "scaling.csv").exists()


def test_tilted_scaling_stays_on_the_diagonal_path(monkeypatch, tmp_path):
    # A small copy of the criterion-11 study: optimal tilt, three eps passes.
    r = float(np.sqrt(2.0 * (1 - np.exp(-2 * np.pi**2 * 0.3)) / np.pi**2))
    config = tmp_path / "t.cfg"
    config.write_text(
        "kind = mc-scaling\nmaster_seed = 90125\nnx = 16\nnt = 32\nT = 0.3\n"
        "family = linear\nf_slope = 0.0\nsigma0 = 1.0\neps_list = 0.1, 0.05, 0.025\n"
        f"replicas = 400\nevent_kind = l2_norm\nevent_threshold = {r:.17g}\n"
        "tilt = optimal\nreference_action = 2.0\n"
    )
    forbid_stepping(monkeypatch)
    out = run_experiment(config, out_dir=tmp_path / "t")
    assert len((out / "scaling.csv").read_text().splitlines()) == 4
