"""Replica engine: per-replica blow-up masking, chunk and thread independence,
the stacked moment leg, and the errors that name a blown replica."""

import hashlib
import re
import sys
import tracemalloc
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
from spdelab.control import girsanov_log_weight, solve_controlled
from spdelab.lattice import eigenfunction, make_field, make_grid
from spdelab.mild_solver import (
    BlowUpError,
    SolverConfig,
    _moment_estimates,
    _sample_replicas,
    estimate_moments,
    galerkin_coupled_errors,
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


def draw_block(grid, master, rows, stream):
    """The rows' whole (len(rows), nt, nx-1) blocks, drawn as one window."""
    drawer = mild_solver._NoiseDrawer(grid, master, rows, stream, grid.n_interior)
    return drawer.fill(np.empty((len(rows), grid.nt, grid.n_interior)))


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


def test_blown_replicas_that_could_move_an_estimate_warn(tmp_path, capsys):
    # Over all 60 replicas the estimate lies between the blown ones counted as
    # misses and as hits; at eps 1.2 and 1.0 that bracket is far wider than
    # 2 stderr of the survivors' mean, at eps 0.1 nothing blew up.
    rows = run_eps_scaling(ExperimentConfig.from_raw(BLOWUP))
    out, err = capsys.readouterr()
    assert [r.blown for r in rows] == [13, 8, 0] and out == ""
    assert err.splitlines() == [
        f"warning: eps {eps}: {blown} of 60 replicas blew up; as misses or as hits they put "
        f"the estimate over all replicas in [{low}, {high}], wider than 2 stderr ({stderr})"
        for eps, blown, low, high, stderr in ((1.2, 13, 0.0333, 0.25, 0.0298),
                                              (1.0, 8, 0.05, 0.183, 0.0326))
    ]
    raw = dict(BLOWUP, kind="importance", eps="1.2", psi_amp="0.5")
    del raw["eps_list"]
    run_importance_sampling(ExperimentConfig.from_raw(raw))  # tilted: exp(log w) per hit
    assert capsys.readouterr().err == (
        "warning: importance at eps 1.2: 15 of 60 replicas blew up; as misses or as hits "
        "they put the estimate over all replicas in [0.0423, 0.256], wider than 2 stderr "
        "(0.0319)\n"
    )
    # A run with no blow-ups warns about nothing.
    assert cli_main(["mc-scaling", "--config", str(DATA / "golden_mc_scaling.cfg"),
                     "--out", str(tmp_path / "g")]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("threads", [1, 2])
def test_all_blown_tilted_weights_pair_every_step(threads):
    # The strong tilt blows up every replica within its first window of 32
    # steps; each log weight still pairs all 96 steps of the replica's noise.
    raw = dict(BLOWUP, kind="importance", nt="96", eps="0.5", replicas="6", psi_amp="20.0")
    del raw["eps_list"], raw["tilt"]
    cfg = ExperimentConfig.from_raw(raw)
    grid = cfg.grid()
    psi = cfg.psi_control(grid)
    _, (logw,), (blown,) = _sample_replicas(
        [cfg.eta_field(grid)], cfg.coefficients(), cfg.eps, grid, cfg.master_seed,
        cfg.replicas, 0, cfg.solver_config(), [psi.values], threads=threads,
    )
    assert np.all((blown > 0) & (blown <= mild_solver._WINDOW))
    expected = [
        girsanov_log_weight(psi, sample_sheet_expansion(grid, grid.n_interior, cfg.master_seed, r),
                            cfg.eps)
        for r in range(cfg.replicas)
    ]
    assert logw.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
def test_threads_split_a_single_memory_chunk(monkeypatch, tilted):
    cfg, grid, cf, eta, scfg = blowup_setup()
    assert cfg.replicas * grid.nt * grid.n_interior < mild_solver._CHUNK_DOUBLES
    psi = None
    if tilted:
        psi = np.tile(eigenfunction(grid, 1, amplitude=2.0).values, (grid.nt, 1))
    # The engine builds each chunk's drawer right before its work call, which
    # draws a whole block (tilted) or window by window (plain).
    seen = []
    drawer = mild_solver._NoiseDrawer

    def recording_drawer(grid, master, rows, stream, k_noise):
        seen.append(rows)
        return drawer(grid, master, rows, stream, k_noise)

    monkeypatch.setattr(mild_solver, "_NoiseDrawer", recording_drawer)
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
    block = draw_block(grid, 90125, rows, 2)
    shape = (grid.nt, grid.n_interior)
    expected = np.stack([
        np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=90125, spawn_key=(r, 2))
        )).standard_normal(shape) * np.sqrt(grid.dt)
        for r in rows
    ])
    assert block.tobytes() == expected.tobytes()
    singles = np.stack(
        [sample_sheet_expansion(grid, 5, 90125, r, 2).mode_increments for r in rows]
    )
    assert block[..., :5].tobytes() == singles[..., :5].tobytes()
    assert not np.any(singles[..., 5:])


def test_noise_block_fills_a_reused_buffer():
    grid = make_grid(16, 12, 0.25)
    rows = range(5, 14)
    fresh = draw_block(grid, 90125, rows, 2)
    buf = np.full((len(rows) + 3, grid.nt, grid.n_interior), np.nan)
    drawer = mild_solver._NoiseDrawer(grid, 90125, rows, 2, grid.n_interior)
    # A buffer of too few or too many rows, of other modes (once a different
    # stream), or of no step axis is refused before anything is drawn.
    for bad in (buf[:4], buf, buf[: len(rows), :, :9], buf[: len(rows), 0]):
        shape = re.escape(f"{bad.shape} is not shaped ({len(rows)}, steps, {grid.n_interior})")
        with pytest.raises(ValueError, match=shape):
            drawer.fill(bad)
    assert drawer.drawn == 0 and np.all(np.isnan(buf))
    view = drawer.fill(buf[: len(rows)])
    assert view.shape == fresh.shape and np.shares_memory(view, buf)
    assert view.tobytes() == fresh.tobytes()
    assert np.all(np.isnan(buf[len(rows):]))  # rows past the block are left alone
    single = sample_sheet_expansion(grid, 5, 90125, 7, 2).mode_increments
    assert single.flags.owndata and not single.flags.writeable
    assert single[:, :5].tobytes() == fresh[2, :, :5].tobytes()
    assert not np.any(single[:, 5:])


def test_engine_noise_memory_is_bounded():
    # 46 MB of noise in all, more than the bound: the engine draws it chunk by
    # chunk into one buffer, so its traced peak is about one chunk.
    grid = make_grid(16, 64, 0.25)
    cf = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
    eta = eigenfunction(grid, 1, amplitude=0.5)
    replicas = 6000
    result_bytes = replicas * grid.n_interior * 8
    bound = mild_solver._CHUNK_DOUBLES * 8 + result_bytes + 4e6
    assert replicas * grid.nt * grid.n_interior * 8 > bound
    run_replicas(eta, cf, 0.5, grid, 1, 10)  # fills the transform caches
    tracemalloc.start()
    try:
        term = run_replicas(eta, cf, 0.5, grid, 1, replicas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert term.nbytes == result_bytes
    assert peak < bound


@pytest.mark.parametrize("width", [1, 5, 12, 20])
@pytest.mark.parametrize("rows", [range(0, 9), range(5, 14)], ids=["from_zero", "offset"])
def test_windowed_draws_keep_the_bits(rows, width):
    grid = make_grid(16, 12, 0.25)
    block = draw_block(grid, 90125, rows, 2)
    for k in (grid.n_interior, 5, 0):
        # A worker's buffer with room for width steps of every row.
        buf = np.full((len(rows) * width, grid.n_interior), np.nan)
        drawer = mild_solver._NoiseDrawer(grid, 90125, rows, 2, k)
        dw = mild_solver._windows(drawer, buf)
        steps = np.stack([dw(m).copy() for m in range(grid.nt)], axis=1)
        expected = block.copy()
        expected[..., k:] = 0.0
        assert steps.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="overruns"):
            drawer.fill(mild_solver._rows_view(buf, len(rows), 1))


@pytest.mark.parametrize("threads,chunk", [(1, 4), (2, 4), (2, None)])
def test_engine_windows_are_the_block(monkeypatch, threads, chunk):
    # Chunks of 4 rows start at offset replicas; nt = 12 is no multiple of 5.
    grid = make_grid(16, 12, 0.25)
    force_chunk(monkeypatch, grid, chunk)
    expected = draw_block(grid, 90125, range(11), 2)
    expected[..., 6:] = 0.0
    got = np.full_like(expected, np.nan)

    def work(rows, drawer, buf):
        dw = mild_solver._windows(drawer, buf)
        steps = [dw(0).copy()]
        if mild_solver._WINDOW == grid.nt:  # the chunk's whole block in one fill
            assert drawer.drawn == grid.nt
        steps += [dw(m).copy() for m in range(1, grid.nt)]
        got[rows.start : rows.stop] = np.stack(steps, axis=1)
        return np.zeros(len(rows), dtype=int)

    for window in (5, grid.nt):
        monkeypatch.setattr(mild_solver, "_WINDOW", window)
        got[:] = np.nan
        mild_solver._replica_engine(grid, 90125, 11, 2, work, threads, k_noise=6)
        assert got.tobytes() == expected.tobytes(), window


def test_stepping_legs_hold_a_window_not_the_horizon(monkeypatch):
    # 40 replicas x 512 steps x 31 modes is 5.08 MB of noise in one chunk; the
    # Galerkin, moment and plain+tilted legs step through it holding one
    # 32-step window (0.32 MB). The tilted leg also holds its tilt's shift,
    # modes and step pairings, 0.8 MB of (nt, nx-1) and (replicas, nt) arrays.
    grid = make_grid(32, 512, 0.25)
    cf = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)
    eta = eigenfunction(grid, 1, amplitude=0.5)
    etas = [eta, eigenfunction(grid, 1, amplitude=1.0)]
    psi = np.tile(eigenfunction(grid, 1, amplitude=2.0).values, (grid.nt, 1))
    scfg = SolverConfig(k_modes=8)
    legs = {
        "galerkin": (1.5e6, lambda n: galerkin_coupled_errors(eta, cf, 0.1, grid, 3, n, [2, 4],
                                                              k_modes=8)),
        "moments": (1.5e6, lambda n: np.array([
            (m.estimate, m.stderr, m.ratio)
            for m in _moment_estimates(etas, cf, 0.1, 2.0, n, grid, scfg, 3)
        ])),
        "tilted": (2e6, lambda n: np.concatenate([
            a.ravel() for a in _sample_replicas([eta, eta], cf, 0.1, grid, 3, n, 0, scfg,
                                                [None, psi])
        ])),
    }
    assert 40 * grid.nt * grid.n_interior * 8 > 5e6
    for name, (bound, leg) in legs.items():
        leg(2)  # fills the transform caches
        tracemalloc.start()
        try:
            result = leg(40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, name
        with monkeypatch.context() as m:
            m.setattr(mild_solver, "_WINDOW", grid.nt)  # the whole block at once
            assert leg(40).tobytes() == result.tobytes(), name


@pytest.mark.parametrize("rows", [range(0, 9), range(5, 14)], ids=["from_zero", "offset"])
def test_row_groups_draw_whole_blocks(rows):
    grid = make_grid(16, 12, 0.25)
    block = draw_block(grid, 90125, rows, 2)
    nxm = grid.n_interior
    for k in (nxm, 5, 0):
        expected = block.copy()
        expected[..., k:] = 0.0
        drawer = mild_solver._NoiseDrawer(grid, 90125, rows, 2, k)
        # Groups of 4, 4 and 1 rows, drawn out of order through one buffer.
        buf = np.empty((4, grid.nt, nxm))
        got = np.full_like(block, np.nan)
        for start in (4, 0, 8):
            group = drawer.fill_blocks(buf[: min(4, len(rows) - start)], start)
            assert np.shares_memory(group, buf)
            got[start : start + len(group)] = group
        assert got.tobytes() == expected.tobytes()
        assert drawer.drawn == 0
    # A range outside the drawer's rows, blocks of other steps or modes, and
    # whole blocks after a window are refused before anything is drawn.
    drawer = mild_solver._NoiseDrawer(grid, 90125, rows, 2, nxm)
    buf = np.full((len(rows) + 1, grid.nt, nxm), np.nan)
    bad = [
        (buf[:2], -1, "rows -1..1 outside the drawer's 0..9"),
        (buf[:2], len(rows) - 1, "rows 8..10 outside"),
        (buf, 0, "rows 0..10 outside"),
        (buf[:2, :5], 0, re.escape(f"(2, 5, {nxm}) are not shaped (rows, {grid.nt}, {nxm})")),
        (buf[:2, :, :9], 0, "not shaped"),
        (buf[0], 0, "not shaped"),
    ]
    for out, start, match in bad:
        with pytest.raises(ValueError, match=match):
            drawer.fill_blocks(out, start)
    assert np.all(np.isnan(buf))
    drawer.fill(np.empty((len(rows), 5, nxm)))
    with pytest.raises(ValueError, match="after a window of 5 steps"):
        drawer.fill_blocks(buf[:2], 0)
    assert np.all(np.isnan(buf))


def test_the_contraction_holds_a_window_not_the_horizon(monkeypatch):
    # One chunk of 264 replicas x 256 steps x 31 modes is 16.8 MB of noise; the
    # tilted linear contraction draws it 33 rows' whole blocks at a time into
    # a buffer of 32 steps of each row.
    grid = make_grid(32, 256, 0.25)
    cf = make_coefficients("linear", f_slope=0.0, sigma0=1.0)
    eta = eigenfunction(grid, 1, amplitude=0.5)
    psi = np.tile(eigenfunction(grid, 1, amplitude=2.0).values, (grid.nt, 1))
    replicas = mild_solver._CHUNK_DOUBLES // (grid.nt * grid.n_interior)
    result_bytes = replicas * (grid.n_interior + 2) * 8  # terminals, log weights, blown
    bound = mild_solver._CHUNK_DOUBLES * 8 * 32 / grid.nt + result_bytes + 1e6
    assert replicas * grid.nt * grid.n_interior * 8 > 5 * bound

    def sample(n):
        return _sample_replicas([eta], cf, 0.1, grid, 3, n, 0, None, [psi])

    sample(2)  # fills the transform caches
    tracemalloc.start()
    try:
        result = sample(replicas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    with monkeypatch.context() as m:
        m.setattr(mild_solver, "_WINDOW", grid.nt)  # the chunk's whole block at once
        for got, want in zip(sample(replicas), result):
            assert got.tobytes() == want.tobytes()


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
    draw_block(grid, 7, range(50), 0)
    drawer = mild_solver._NoiseDrawer(grid, 7, range(5), 0, grid.n_interior)
    for width in (5, 7):  # two windows make up the horizon
        drawer.fill(np.empty((5, width, grid.n_interior)))
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


# The golden (tilted) study at nt 256 on 3 replicas: 2 threads split it into
# chunks of 2 rows and 1, so the lone row's contraction and Girsanov weight
# must have the bits they have in a group of rows.
LONE_ROW = {
    "kind": "mc-scaling", "master_seed": "424242", "family": "linear", "f_slope": "0.0",
    "sigma0": "1.0", "nx": "64", "nt": "256", "T": "0.25", "eps_list": "0.4, 0.2, 0.1",
    "replicas": "3", "event_kind": "l2_norm", "event_threshold": "0.15", "tilt": "optimal",
    "reference_action": "0.2224",
}
# A tilted Burgers importance study at nt 256 on 3 replicas: 2 threads split
# its stepping runs into chunks of 2 rows and 1, each paired window by window.
IMPORTANCE = {
    "kind": "importance", "master_seed": "321", "family": "burgers", "sigma0": "1.0",
    "sigma1": "0.2", "k_modes": "8", "nx": "32", "nt": "256", "T": "0.25",
    "eta_amp": "0.3", "eps": "0.1", "replicas": "3", "psi_amp": "0.5",
    "event_threshold": "0.05",
}


@pytest.mark.parametrize(
    "command", ["convergence", "mc-scaling", "mc-scaling-lone-row", "importance"]
)
def test_cli_outputs_do_not_depend_on_threads(tmp_path, command):
    if command == "mc-scaling":
        config = DATA / "golden_mc_scaling.cfg"
    else:
        config = tmp_path / "c.cfg"
        raw = {"convergence": CONVERGENCE, "importance": IMPORTANCE}.get(command, LONE_ROW)
        config.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        command = raw["kind"]
    one, two = (run_outputs(tmp_path, command, config, t) for t in (1, 2))
    assert sorted(one) == sorted(two) and "manifest.txt" in one
    for name in one:
        a, b = one[name].splitlines(), two[name].splitlines()
        if name == "manifest.txt":
            assert b"threads = 1" in a and b"threads = 2" in b
            a.remove(b"threads = 1")
            b.remove(b"threads = 2")
        assert a == b, name
