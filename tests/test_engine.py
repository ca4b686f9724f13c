"""Replica engine: per-replica blow-up masking, chunk and thread independence,
the stacked moment leg, and the errors that name a blown replica."""

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdelab import mild_solver
from spdelab.cli import main as cli_main
from spdelab.experiments import (
    ExperimentConfig,
    run_convergence_studies,
    run_eps_scaling,
    run_importance_sampling,
)
from spdelab.coeffs import make_coefficients
from spdelab.control import solve_controlled
from spdelab.lattice import eigenfunction, make_field, make_grid
from spdelab.mild_solver import (
    BlowUpError,
    _moment_estimates,
    _sample_replicas,
    estimate_moments,
    run_replicas,
    solve_spde,
)
from spdelab.noise import SeedDerivation, sample_sheet_expansion

DATA = Path(__file__).parent / "data"

BLOWUP = {
    "kind": "mc-scaling", "master_seed": "7", "family": "burgers", "sigma0": "1.0",
    "sigma1": "6.0", "k_modes": "8", "nx": "32", "nt": "64", "T": "0.25",
    "eta_amp": "1.0", "eps_list": "1.2, 1.0, 0.1", "replicas": "60",
    "tilt": "none", "event_threshold": "1.0",
}

# Per eps stream: blown replicas and the SHA-256 of the surviving terminal
# rows, recorded from the serial one-row retry that masking replaced.
RETRY = {
    0: ([0, 3, 10, 14, 25, 32, 33, 34, 35, 38, 39, 43, 51],
        "8ab59f5bf6abaae99a2635079cdc9d15daeacdf6649f6cf255eaa1fc2d8fb5f7"),
    1: ([1, 9, 10, 11, 20, 22, 49, 58],
        "b24b916dce78c4f8d454466d5f17e430b49504740ebc23c0beed6d702b74ad37"),
    2: ([], "8ae6dd6e710c3f8663ac285c9645b32f0c540a539c4440c065b99179edf722a0"),
}


def blowup_setup():
    cfg = ExperimentConfig.from_raw(BLOWUP)
    grid = cfg.grid()
    return cfg, grid, cfg.coefficients(), cfg.eta_field(grid), cfg.solver_config()


def force_chunk(monkeypatch, grid, rows):
    """Make the engine's memory bound hold exactly `rows` replicas of noise."""
    if rows is not None:
        monkeypatch.setattr(mild_solver, "_CHUNK_DOUBLES", rows * grid.nt * grid.n_interior)


def single_path_step(cfg, grid, cf, eta, scfg, eps, replica, stream):
    with pytest.raises(BlowUpError) as err:
        solve_spde(eta, cf, eps, cfg.master_seed, grid, scfg, replica=replica, stream=stream)
    return err.value.step


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk", [7, 60])
def test_masking_reproduces_retry(monkeypatch, threads, chunk):
    cfg, grid, cf, eta, scfg = blowup_setup()
    force_chunk(monkeypatch, grid, chunk)
    for stream, eps in enumerate(cfg.eps_list):
        (term,), (logw,), (blown,) = _sample_replicas(
            [eta], cf, eps, grid, cfg.master_seed, cfg.replicas, stream, scfg,
            threads=threads,
        )
        indices, digest = RETRY[stream]
        assert not np.any(logw)
        assert list(np.flatnonzero(blown)) == indices
        assert np.all(np.isnan(term[blown > 0]))
        survivors = np.ascontiguousarray(term[blown == 0])
        assert hashlib.sha256(survivors.tobytes()).hexdigest() == digest
        if indices:
            # The recorded step is the replica's own single-path blow-up step.
            r = indices[0]
            assert blown[r] == single_path_step(cfg, grid, cf, eta, scfg, eps, r, stream)


def test_engine_threads_stress(monkeypatch):
    # More workers than cores and a short switch interval: chunks writing
    # their own rows of shared arrays must still give the serial result.
    cfg, grid, cf, eta, scfg = blowup_setup()
    force_chunk(monkeypatch, grid, 3)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (term,), _, (blown,) = _sample_replicas([eta], cf, 1.2, grid, cfg.master_seed,
                                                cfg.replicas, 0, scfg, threads=4)
    finally:
        sys.setswitchinterval(old)
    indices, digest = RETRY[0]
    assert list(np.flatnonzero(blown)) == indices
    assert hashlib.sha256(np.ascontiguousarray(term[blown == 0]).tobytes()).hexdigest() == digest


def test_no_runtime_warning_escapes_blown_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_eps_scaling(ExperimentConfig.from_raw(BLOWUP))
    assert [r.blown for r in rows] == [13, 8, 0]


@pytest.mark.parametrize("threads,chunk", [(1, 7), (2, 7), (1, 60), (2, 13)])
def test_run_replicas_names_lowest_blown_replica(monkeypatch, threads, chunk):
    cfg, grid, cf, eta, scfg = blowup_setup()
    step = single_path_step(cfg, grid, cf, eta, scfg, 1.0, 1, 1)
    force_chunk(monkeypatch, grid, chunk)
    with pytest.raises(BlowUpError) as err:
        run_replicas(eta, cf, 1.0, grid, cfg.master_seed, cfg.replicas, stream=1,
                     config=scfg, threads=threads)
    assert err.value.replica == 1
    assert err.value.step == step
    assert err.value.seed == SeedDerivation(cfg.master_seed, 1, 1)


@pytest.mark.parametrize("threads", [1, 2])
def test_estimate_moments_names_lowest_blown_replica(threads):
    cfg, grid, cf, eta, scfg = blowup_setup()
    step = single_path_step(cfg, grid, cf, eta, scfg, 1.2, 0, 0)
    with pytest.raises(BlowUpError) as err:
        estimate_moments(eta, cf, 1.2, cfg.rho, cfg.replicas, grid, config=scfg,
                         master_seed=cfg.master_seed, stream=0, threads=threads)
    assert (err.value.replica, err.value.step) == (0, step)
    assert err.value.seed == SeedDerivation(cfg.master_seed, 0, 0)


def test_unparsable_family_parameter_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kind = simulate\nmaster_seed = 1\nnx = 16\nnt = 8\n"
                   "family = linear\nsigma0 = abc\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "sigma0" in err


def test_mode_count_out_of_range_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kind = simulate\nmaster_seed = 1\nnx = 16\nnt = 8\nk_noise = 16\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "k_noise" in capsys.readouterr().err


def test_eps_scaling_all_blown_names_first_blown_replica():
    raw = dict(BLOWUP, sigma1="50.0", eps_list="1.0", replicas="4")
    cfg = ExperimentConfig.from_raw(raw)
    grid = cfg.grid()
    _, _, (blown,) = _sample_replicas([cfg.eta_field(grid)], cfg.coefficients(), 1.0, grid,
                                      cfg.master_seed, 4, 0, cfg.solver_config())
    assert np.all(blown > 0)
    with pytest.raises(BlowUpError) as err:
        run_eps_scaling(cfg)
    assert (err.value.replica, err.value.step) == (0, blown[0])
    assert err.value.seed == SeedDerivation(cfg.master_seed, 0, 0)


def test_cli_blowup_exits_1_naming_step_replica_and_seed(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    raw = dict(BLOWUP, sigma1="50.0", eps_list="1.0", replicas="4")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    out = tmp_path / "o"
    assert cli_main(["mc-scaling", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: solution blew up at step 12, replica 0, "
                   "seed SeedDerivation(master=7, replica=0, stream=0)\n")
    # The manifest is written before the work, results only on success.
    assert (out / "manifest.txt").exists() and not (out / "scaling.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_simulate_blowup_leaves_only_the_manifest(tmp_path, capsys):
    raw = {
        "kind": "simulate", "master_seed": "7", "family": "burgers", "sigma0": "1",
        "sigma1": "6", "k_modes": "4", "nx": "16", "nt": "16", "T": "0.25",
        "eta_amp": "1", "eps": "50",
    }
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: solution blew up at step 12, replica 0, "
                                       "seed SeedDerivation(master=7, replica=0, stream=0)\n")
    assert [p.name for p in out.iterdir()] == ["manifest.txt"]
    assert "eps = 50\n" in (out / "manifest.txt").read_text()


def test_importance_all_blown_names_replica_of_blown_set():
    # The plain pass survives; the strong tilt blows up every replica, each at
    # its own step (not at the final one).
    raw = {
        "kind": "importance", "master_seed": "7", "family": "burgers", "sigma0": "1.0",
        "sigma1": "6.0", "k_modes": "8", "nx": "32", "nt": "32", "T": "0.25",
        "eta_amp": "1.0", "eps": "0.5", "replicas": "6", "psi_amp": "10.0",
        "event_threshold": "1.0",
    }
    cfg = ExperimentConfig.from_raw(raw)
    grid = cfg.grid()
    args = ([cfg.eta_field(grid)], cfg.coefficients(), cfg.eps, grid, cfg.master_seed,
            cfg.replicas, 0, cfg.solver_config())
    _, _, (blown_plain,) = _sample_replicas(*args, [None])
    _, _, (blown_tilt,) = _sample_replicas(*args, [cfg.psi_control(grid).values])
    assert not np.any(blown_plain) and np.all(blown_tilt > 0)
    with pytest.raises(BlowUpError) as err:
        run_importance_sampling(cfg)
    r = err.value.replica
    assert blown_tilt[r] > 0 and r == 0
    assert err.value.step == blown_tilt[r] < grid.nt
    assert err.value.seed == SeedDerivation(cfg.master_seed, r, 0)


@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
def test_threads_split_a_single_memory_chunk(monkeypatch, tilted):
    cfg, grid, cf, eta, scfg = blowup_setup()
    assert cfg.replicas * grid.nt * grid.n_interior < mild_solver._CHUNK_DOUBLES
    psi = None
    if tilted:
        psi = np.tile(eigenfunction(grid, 1, amplitude=2.0).values, (grid.nt, 1))
    # The engine draws one noise block per chunk, right before its work call.
    seen = []
    draw = mild_solver._noise_block

    def recording(grid, master, rows, stream):
        seen.append(rows)
        return draw(grid, master, rows, stream)

    monkeypatch.setattr(mild_solver, "_noise_block", recording)
    results, chunks = {}, {}
    for threads in (1, 2):
        seen.clear()
        results[threads] = _sample_replicas(
            [eta], cf, 1.2, grid, cfg.master_seed, cfg.replicas, 0, scfg, [psi], threads=threads
        )
        chunks[threads] = list(seen)
    assert chunks[1] == [range(cfg.replicas)]
    assert len(chunks[2]) >= 2
    assert sorted(r for rows in chunks[2] for r in rows) == list(range(cfg.replicas))
    (v1, w1, b1), (v2, w2, b2) = results[1], results[2]
    assert np.any(b1)  # the masked rows are compared too
    assert v1.tobytes() == v2.tobytes() and b1.tobytes() == b2.tobytes()
    if tilted:
        assert w1.tobytes() == w2.tobytes()
    else:
        assert not np.any(w1) and not np.any(w2)


@pytest.mark.parametrize("rows", [range(0, 9), range(5, 14)], ids=["from_zero", "offset"])
def test_noise_block_is_the_per_replica_stack(rows):
    grid = make_grid(16, 12, 0.25)
    block = mild_solver._noise_block(grid, 90125, rows, 2)
    shape = (grid.nt, grid.n_interior)
    expected = np.stack([
        np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=90125, spawn_key=(r, 2))
        )).standard_normal(shape) * np.sqrt(grid.dt)
        for r in rows
    ])
    assert block.tobytes() == expected.tobytes()
    singles = [sample_sheet_expansion(grid, 5, 90125, r, 2).mode_increments for r in rows]
    assert block.tobytes() == np.stack(singles).tobytes()


def test_noise_block_builds_no_seed_sequence(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    grid = make_grid(16, 12, 0.25)
    cf = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
    eta = eigenfunction(grid, 1, amplitude=0.5)
    psi = np.ones((grid.nt, grid.n_interior))
    mild_solver._noise_block(grid, 7, range(50), 0)
    sample_sheet_expansion(grid, grid.n_interior, 7, 3, 1)
    solve_spde(eta, cf, 0.5, 7, grid, replica=2)
    solve_controlled(eta, cf, psi, 0.5, 7, grid, stream=1)
    assert built == []
    # The per-path recipe this replaced would be counted.
    np.random.Philox(np.random.SeedSequence(entropy=7, spawn_key=(0, 0)))
    assert len(built) == 1


@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
def test_threaded_chunks_equal_the_serial_draw(monkeypatch, tilted):
    # Linear additive case, one serial chunk against 6 chunks on two workers,
    # each chunk drawing with its own generator.
    grid = make_grid(16, 16, 0.25)
    cf = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
    eta = eigenfunction(grid, 1, amplitude=0.5)
    psi = np.tile(eigenfunction(grid, 1, amplitude=2.0).values, (grid.nt, 1)) if tilted else None
    args = ([eta], cf, 0.5, grid, 11, 23, 1, None, [psi])
    serial = _sample_replicas(*args)
    force_chunk(monkeypatch, grid, 4)
    threaded = _sample_replicas(*args, threads=2)
    for a, b in zip(serial, threaded):
        assert a.tobytes() == b.tobytes()


CONVERGENCE = {
    "kind": "convergence", "master_seed": "321", "family": "burgers", "sigma0": "1.0",
    "sigma1": "0.2", "k_modes": "8", "nx": "32", "nt": "32", "T": "0.25",
    "eta_amp": "0.3", "eps": "1.0", "rho": "4", "psi_amp": "0.5", "k_list": "2, 4, 8",
    "eps_list": "0.1, 0.05", "replicas": "40",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_stacked_moment_leg_matches_each_scale_alone(threads):
    cfg = ExperimentConfig.from_raw(dict(CONVERGENCE, threads=str(threads)))
    grid, cf, scfg = cfg.grid(), cfg.coefficients(), cfg.solver_config()
    etas = [make_field(grid, s * cfg.eta_field(grid).values) for s in cfg.eta_scales]
    args = (cf, cfg.eps, grid, cfg.master_seed, cfg.replicas, 2, scfg)
    sups, _, blown = _sample_replicas(etas, *args, record="sup_rho", threads=threads)
    assert sups.shape == blown.shape == (len(etas), cfg.replicas) and not np.any(blown)
    stacked = _moment_estimates(etas, cf, cfg.eps, cfg.rho, cfg.replicas, grid, scfg,
                                cfg.master_seed, 2, threads)
    report = run_convergence_studies(cfg)
    for i, eta in enumerate(etas):
        alone = run_replicas(eta, cf, cfg.eps, grid, cfg.master_seed, cfg.replicas, 2, scfg,
                             record="sup_rho", threads=threads)
        assert sups[i].tobytes() == alone.tobytes()
        est = estimate_moments(eta, cf, cfg.eps, cfg.rho, cfg.replicas, grid, config=scfg,
                               master_seed=cfg.master_seed, stream=2, threads=threads)
        assert stacked[i] == est
        assert report.moment_rows[i] == (cfg.eta_scales[i], est.estimate, est.stderr, est.ratio)


@pytest.mark.parametrize("threads", [1, 2])
def test_moment_leg_names_first_blown_scale(threads):
    # Scale 2 blows up only replica 26; scale 4 also blows up replica 20. The
    # error, recorded when each scale ran alone in order, names scale 2's.
    raw = dict(BLOWUP, kind="convergence", eps="0.35", eps_list="0.1, 0.05", replicas="30",
               k_list="2, 4, 8", eta_scales="1, 2, 4", threads=str(threads))
    del raw["event_threshold"], raw["tilt"]
    cfg = ExperimentConfig.from_raw(raw)
    with pytest.raises(BlowUpError) as err:
        run_convergence_studies(cfg)
    assert (err.value.replica, err.value.step) == (26, 34)
    assert err.value.seed == SeedDerivation(cfg.master_seed, 26, 2)
    grid = cfg.grid()
    eta2 = make_field(grid, 2.0 * cfg.eta_field(grid).values)
    assert single_path_step(cfg, grid, cfg.coefficients(), eta2, cfg.solver_config(),
                            0.35, 26, 2) == 34


def run_outputs(tmp_path, command, config, threads):
    out = tmp_path / f"{command}-{threads}"
    assert cli_main([command, "--config", str(config), "--out", str(out),
                     "--threads", str(threads)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["convergence", "mc-scaling"])
def test_cli_outputs_do_not_depend_on_threads(tmp_path, command):
    if command == "convergence":
        config = tmp_path / "c.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in CONVERGENCE.items()))
    else:
        config = DATA / "golden_mc_scaling.cfg"
    one, two = (run_outputs(tmp_path, command, config, t) for t in (1, 2))
    assert sorted(one) == sorted(two) and "manifest.txt" in one
    for name in one:
        a, b = one[name].splitlines(), two[name].splitlines()
        if name == "manifest.txt":
            assert b"threads = 1" in a and b"threads = 2" in b
            a.remove(b"threads = 1")
            b.remove(b"threads = 2")
        assert a == b, name
