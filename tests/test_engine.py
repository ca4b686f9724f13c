"""Replica engine: per-replica blow-up masking, chunk and thread independence,
and the errors that name a blown replica."""

import hashlib
import sys
import warnings

import numpy as np
import pytest

from spdelab.cli import main as cli_main
from spdelab.experiments import (
    ExperimentConfig,
    run_eps_scaling,
    run_importance_sampling,
)
from spdelab.mild_solver import (
    BlowUpError,
    _sample_replicas,
    estimate_moments,
    run_replicas,
    solve_spde,
)
from spdelab.noise import SeedDerivation

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


def single_path_step(cfg, grid, cf, eta, scfg, eps, replica, stream):
    with pytest.raises(BlowUpError) as err:
        solve_spde(eta, cf, eps, cfg.master_seed, grid, scfg, replica=replica, stream=stream)
    return err.value.step


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk", [7, 60])
def test_masking_reproduces_retry(threads, chunk):
    cfg, grid, cf, eta, scfg = blowup_setup()
    for stream, eps in enumerate(cfg.eps_list):
        term, logw, blown = _sample_replicas(
            eta, cf, eps, grid, cfg.master_seed, cfg.replicas, stream, scfg, None,
            threads=threads, chunk_size=chunk,
        )
        indices, digest = RETRY[stream]
        assert logw is None
        assert list(np.flatnonzero(blown)) == indices
        assert np.all(np.isnan(term[blown > 0]))
        survivors = np.ascontiguousarray(term[blown == 0])
        assert hashlib.sha256(survivors.tobytes()).hexdigest() == digest
        if indices:
            # The recorded step is the replica's own single-path blow-up step.
            r = indices[0]
            assert blown[r] == single_path_step(cfg, grid, cf, eta, scfg, eps, r, stream)


def test_engine_threads_stress():
    # More workers than cores and a short switch interval: chunks writing
    # their own rows of shared arrays must still give the serial result.
    cfg, grid, cf, eta, scfg = blowup_setup()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        term, _, blown = _sample_replicas(eta, cf, 1.2, grid, cfg.master_seed, cfg.replicas,
                                          0, scfg, None, threads=4, chunk_size=3)
    finally:
        sys.setswitchinterval(old)
    indices, digest = RETRY[0]
    assert list(np.flatnonzero(blown)) == indices
    assert hashlib.sha256(np.ascontiguousarray(term[blown == 0]).tobytes()).hexdigest() == digest


def test_no_runtime_warning_escapes_blown_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_eps_scaling(ExperimentConfig.from_raw(BLOWUP))
    assert [r.blown for r in table.rows] == [13, 8, 0]


@pytest.mark.parametrize("threads,chunk", [(1, 7), (2, 7), (1, 60), (2, 13)])
def test_run_replicas_names_lowest_blown_replica(threads, chunk):
    cfg, grid, cf, eta, scfg = blowup_setup()
    step = single_path_step(cfg, grid, cf, eta, scfg, 1.0, 1, 1)
    with pytest.raises(BlowUpError) as err:
        run_replicas(eta, cf, 1.0, grid, cfg.master_seed, cfg.replicas, stream=1,
                     config=scfg, threads=threads, chunk_size=chunk)
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
    _, _, blown = _sample_replicas(cfg.eta_field(grid), cfg.coefficients(), 1.0, grid,
                                   cfg.master_seed, 4, 0, cfg.solver_config(), None)
    assert np.all(blown > 0)
    with pytest.raises(BlowUpError) as err:
        run_eps_scaling(cfg)
    assert (err.value.replica, err.value.step) == (0, blown[0])
    assert err.value.seed == SeedDerivation(cfg.master_seed, 0, 0)


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
    args = (cfg.eta_field(grid), cfg.coefficients(), cfg.eps, grid, cfg.master_seed,
            cfg.replicas, 0, cfg.solver_config())
    _, _, blown_plain = _sample_replicas(*args, None)
    _, _, blown_tilt = _sample_replicas(*args, cfg.psi_control(grid).values)
    assert not np.any(blown_plain) and np.all(blown_tilt > 0)
    with pytest.raises(BlowUpError) as err:
        run_importance_sampling(cfg)
    r = err.value.replica
    assert blown_tilt[r] > 0 and r == 0
    assert err.value.step == blown_tilt[r] < grid.nt
    assert err.value.seed == SeedDerivation(cfg.master_seed, r, 0)
