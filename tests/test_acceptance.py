"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are fixed here, not calibrated elsewhere.
"""

import time
from pathlib import Path

import numpy as np

from spdelab.action import ActionOptions, gradient_check, minimize_action, path_rate_function
from spdelab.coeffs import make_coefficients
from spdelab.control import (
    Control,
    control_from_function,
    girsanov_log_weight,
    rate_functional,
    solve_controlled,
    solve_skeleton,
)
from spdelab.experiments import ExperimentConfig, galerkin_coupled_errors, run_eps_scaling, run_experiment
from spdelab.greenfn import green_image, green_spectral
from spdelab.lattice import (
    eigen_values,
    eigenfunction,
    lp_norm_values,
    make_field,
    make_grid,
    to_modes,
)
from spdelab.mild_solver import SolverConfig, estimate_moments, picard_solve, run_replicas, solve_spde
from spdelab.noise import sample_sheet_expansion

DATA = Path(__file__).parent / "data"
ADDITIVE = make_coefficients("linear", f_slope=0.0, sigma0=1.0)


def report(num, name, passed, detail):
    print(f"[acceptance] {num:>2}. {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_kernel_dual_form():
    t0 = time.time()
    ts = np.geomspace(0.01, 1.0, 24)
    xs = np.linspace(0.0, 1.0, 66)[1:-1]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    worst = 0.0
    for t in ts:
        diff = np.abs(green_image(t, X, Y, 5) - green_spectral(t, X, Y, 128))
        worst = max(worst, float(diff.max()))
    elapsed = time.time() - t0
    report(1, "kernel dual-form agreement", worst <= 1e-10 and elapsed < 5.0,
           f"sup diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_deterministic_heat():
    t0 = time.time()
    g = make_grid(128, 1024, 0.5)
    sol = solve_spde(eigenfunction(g, 1), ADDITIVE, 0.0, seed=0, grid=g)
    exact = np.exp(-np.pi**2 * g.t)[:, None] * eigenfunction(g, 1).values
    err = float(np.max(lp_norm_values(sol.fields - exact, g.dx, 2)))
    elapsed = time.time() - t0
    report(2, "deterministic heat accuracy", err <= 1e-3 and elapsed < 5.0,
           f"max L2 err {err:.2e}, {elapsed:.1f}s")


def test_criterion_03_stochastic_convolution_law():
    t0 = time.time()
    g = make_grid(16, 2048, 0.015625)
    eta = make_field(g, np.zeros(g.n_interior))
    eps, reps = 0.1, 10000
    term = run_replicas(eta, ADDITIVE, eps, g, master_seed=11, replicas=reps,
                        record="terminal")
    lam = eigen_values(np.arange(1, g.nx))
    target = eps * (1 - np.exp(-2 * lam * g.T)) / (2 * lam)
    emp = np.var(to_modes(term, g), axis=0, ddof=1)
    z = np.abs(emp - target) / (target * np.sqrt(2.0 / (reps - 1)))
    elapsed = time.time() - t0
    report(3, "stochastic convolution mode variances",
           bool(np.all(z[:8] <= 3.0)) and elapsed < 120.0,
           f"max |z| over k<=8 is {np.max(z[:8]):.2f}, {elapsed:.0f}s")


def test_criterion_04_galerkin_noise_convergence():
    t0 = time.time()
    g = make_grid(128, 256, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    eta = make_field(g, np.zeros(g.n_interior))
    errors = galerkin_coupled_errors(eta, cf, 0.1, g, master=321, replicas=100,
                                     k_list=(4, 64))
    halved = float(np.mean(errors[:, 1] <= 0.5 * errors[:, 0]))
    elapsed = time.time() - t0
    report(4, "Galerkin-noise coupled convergence",
           halved >= 0.90 and elapsed < 300.0,
           f"error halved for {100 * halved:.0f}% of 100 seeds, {elapsed:.0f}s")


def test_criterion_05_moment_bound_shape():
    t0 = time.time()
    g = make_grid(32, 256, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    ratios = []
    for scale in (1.0, 2.0, 4.0):
        est = estimate_moments(eigenfunction(g, 1, amplitude=scale), cf, 0.05,
                               rho=8.0, replicas=1000, grid=g, master_seed=99,
                               stream=2)
        ratios.append(est.ratio)
    factor = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    report(5, "moment-bound ratio stability", factor < 2.0 and elapsed < 300.0,
           f"ratio spread factor {factor:.2f} over scalings 1,2,4, {elapsed:.0f}s")


def test_criterion_06_picard_contraction():
    t0 = time.time()
    g = make_grid(64, 128, 0.1)
    cf = make_coefficients("burgers", sigma0=1.0)
    eta = eigenfunction(g, 1, amplitude=0.5)
    sol, trace = picard_solve(eta, cf, 0.0, None, g, tol=1e-10, max_iter=30,
                              delta=50.0, k_modes=16)
    ratios = [trace[i + 1] / trace[i] for i in range(len(trace) - 1) if trace[i] > 0]
    ok = all(r < 1.0 for r in ratios) and trace[-1] <= 1e-8 and len(trace) <= 30
    elapsed = time.time() - t0
    report(6, "Picard contraction",
           ok and elapsed < 60.0,
           f"{len(trace)} iterations, final distance {trace[-1]:.1e}, "
           f"max ratio {max(ratios):.3f}, {elapsed:.1f}s")


def test_criterion_07_minimum_action_vs_lq_oracle():
    t0 = time.time()
    g = make_grid(64, 512, 0.5)
    eta = make_field(g, np.zeros(g.n_interior))
    res = minimize_action(eigenfunction(g, 1), eta, ADDITIVE, g,
                          ActionOptions(residual_tol=1e-3))
    lam1 = np.pi**2
    closed = lam1 / (1.0 - np.exp(-2 * lam1 * 0.5))
    # Independent dense QP oracle for the discrete dynamics (KKT solve).
    dt = g.dt
    decay = np.exp(-lam1 * dt)
    w = decay ** (g.nt - 1 - np.arange(g.nt)) * (1.0 - decay) / lam1
    kkt = np.zeros((g.nt + 1, g.nt + 1))
    kkt[: g.nt, : g.nt] = dt * np.eye(g.nt)
    kkt[: g.nt, -1] = -w
    kkt[-1, : g.nt] = w
    rhs = np.zeros(g.nt + 1)
    rhs[-1] = 1.0
    q = np.linalg.solve(kkt, rhs)[: g.nt]
    oracle = 0.5 * dt * float(q @ q)
    rel = abs(res.action - closed) / oracle
    rel_qp = abs(res.action - oracle) / oracle
    elapsed = time.time() - t0
    report(7, "minimum action vs LQ oracle",
           res.converged and rel <= 0.02 and rel_qp <= 1e-9 and elapsed < 60.0,
           f"I {res.action:.7f}, closed form {closed:.5f}, QP oracle {oracle:.7f}, "
           f"rel {rel:.4f}, rel to QP {rel_qp:.1e} (tol 1e-9), {elapsed:.0f}s")


def test_criterion_08_adjoint_gradient_check():
    t0 = time.time()
    g = make_grid(64, 128, 0.5)
    rng = np.random.default_rng(5)
    psi = Control(0.3 * rng.standard_normal((g.nt, g.n_interior)), g)
    d = Control(rng.standard_normal((g.nt, g.n_interior)), g)
    cf_lin = make_coefficients("linear", f_slope=0.4, sigma0=1.0)
    err_lin = gradient_check(eigenfunction(g, 1), make_field(g, np.zeros(g.n_interior)),
                             cf_lin, psi, d, h=1e-5)
    cf_b = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)
    err_b = gradient_check(eigenfunction(g, 1), eigenfunction(g, 1, amplitude=0.3),
                           cf_b, psi, d, h=1e-4, opts=ActionOptions(k_modes=16))
    elapsed = time.time() - t0
    report(8, "adjoint gradient check",
           err_lin <= 1e-6 and err_b <= 1e-4 and elapsed < 30.0,
           f"linear {err_lin:.1e} (tol 1e-6), Burgers {err_b:.1e} (tol 1e-4), "
           f"{elapsed:.1f}s")


def test_criterion_09_rate_round_trip():
    t0 = time.time()
    cf = make_coefficients("reaction", f_slope=0.3, g1_slope=0.2, g2_quad=0.1,
                           sigma0=1.0, sigma1=0.1)

    def round_trip_error(nx, nt, k_modes):
        g = make_grid(nx, nt, 0.5)
        profile = eigenfunction(g, 1, amplitude=0.5).values
        ramp = (1.0 + np.linspace(0, 1, g.nt))[:, None]
        psi = Control(ramp * profile, g)
        sk = solve_skeleton(make_field(g, np.zeros(g.n_interior)), cf, psi, g,
                            SolverConfig(k_modes=k_modes))
        I_rec, _ = path_rate_function(sk, cf, g, k_modes=k_modes)
        I_true = rate_functional(psi)
        return abs(I_rec - I_true) / I_true

    coarse = round_trip_error(64, 512, 16)
    fine = round_trip_error(128, 1024, 32)
    elapsed = time.time() - t0
    report(9, "rate-functional round trip",
           coarse <= 0.05 and fine <= 0.025 and elapsed < 60.0,
           f"rel err {coarse:.2e} at nx=64, {fine:.2e} after refinement, {elapsed:.0f}s")


def test_criterion_10_girsanov_normalization():
    t0 = time.time()
    g = make_grid(16, 64, 0.25)
    psi = control_from_function(g, lambda t, x: 0.3 * np.sqrt(2) * np.sin(np.pi * x))
    eps, reps = 0.05, 10000
    w = np.empty(reps)
    for r in range(reps):
        nz = sample_sheet_expansion(g, g.n_interior, 777, replica=r)
        w[r] = np.exp(girsanov_log_weight(psi, nz, eps))
    se = float(np.std(w, ddof=1) / np.sqrt(reps))
    dev = abs(float(np.mean(w)) - 1.0)
    elapsed = time.time() - t0
    report(10, "Girsanov normalization", dev <= 3 * se and elapsed < 120.0,
           f"mean weight {np.mean(w):.4f} (3 SE = {3 * se:.4f}), {elapsed:.0f}s")


def test_criterion_11_ldp_scaling_trend():
    t0 = time.time()
    lam1 = np.pi**2
    T = 0.3
    I_star = 2.0
    r = float(np.sqrt(I_star * (1 - np.exp(-2 * lam1 * T)) / lam1))
    raw = {
        "kind": "mc-scaling", "master_seed": "90125",
        "nx": "32", "nt": "256", "T": str(T),
        "family": "linear", "f_slope": "0.0", "sigma0": "1.0",
        "eps_list": "0.1, 0.05, 0.025", "replicas": "4000",
        "event_kind": "l2_norm", "event_threshold": f"{r:.17g}",
        "tilt": "optimal", "reference_action": f"{I_star:.17g}",
    }
    devs = [row.deviation for row in run_eps_scaling(ExperimentConfig.from_raw(raw))]
    monotone = all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    rel = devs[-1] / I_star
    elapsed = time.time() - t0
    report(11, "LDP scaling trend (importance-sampled)",
           monotone and rel <= 0.25 and elapsed < 600.0,
           f"eps log p deviations {[f'{d:.3f}' for d in devs]}, "
           f"rel at eps=0.025 is {rel:.3f}, {elapsed:.0f}s")


def test_criterion_12_controlled_to_skeleton():
    t0 = time.time()
    g = make_grid(32, 256, 0.25)
    cf = make_coefficients("linear", f_slope=0.5, sigma0=1.0)
    eta = eigenfunction(g, 1)
    psi = control_from_function(g, lambda t, x: 0.5 * np.sqrt(2) * np.sin(np.pi * x))
    sk = solve_skeleton(eta, cf, psi, g)
    dists = [
        solve_controlled(eta, cf, psi, eps, seed=8, grid=g).distance_to(sk)
        for eps in (0.1, 0.05, 0.025, 0.0125)
    ]
    strict = all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
    elapsed = time.time() - t0
    report(12, "controlled-to-skeleton convergence", strict and elapsed < 120.0,
           f"distances {[f'{d:.4f}' for d in dists]}, {elapsed:.0f}s")


def test_criterion_13_determinism(tmp_path):
    t0 = time.time()
    out1 = run_experiment(DATA / "golden_mc_scaling.cfg", out_dir=tmp_path / "a")
    out2 = run_experiment(DATA / "golden_mc_scaling.cfg", out_dir=tmp_path / "b")
    same = (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()
    same &= (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()
    elapsed = time.time() - t0
    report(13, "byte-identical golden re-run", bool(same) and elapsed < 120.0,
           f"scaling.csv and manifest.txt identical, {elapsed:.0f}s")
