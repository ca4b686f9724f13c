import importlib.util
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spdelab import mild_solver
from spdelab.cli import main as cli_main
from spdelab.experiments import (
    _COMMON,
    _EVENT_KEYS,
    _FAMILY_KEYS,
    _READS,
    VALID_KINDS,
    EventSpec,
    ExperimentConfig,
    run_convergence_studies,
    run_eps_scaling,
    run_experiment,
    run_importance_sampling,
)
from spdelab.lattice import eigenfunction, lp_norm, make_grid
from spdelab.storage import (
    ConfigError,
    parse_config_text,
    read_snapshot,
    write_csv,
    write_snapshot,
)

DATA = Path(__file__).parent / "data"


def base_raw(**extra):
    """A small simulate config; extra keys override it, and a key set to None is left out."""
    raw = {
        "kind": "simulate",
        "master_seed": "7",
        "nx": "16",
        "nt": "32",
        "T": "0.25",
        "family": "linear",
        "f_slope": "0.0",
        "sigma0": "1.0",
    }
    raw.update(extra)
    return {k: str(v) for k, v in raw.items() if v is not None}


# A small mc-scaling config, for the keys that only the Monte Carlo kinds read.
MC_RAW = {"kind": "mc-scaling", "eps_list": "0.2", "event_threshold": "0.1"}
# validate builds no grid, so its configs leave out the grid keys.
VALIDATE_RAW = {"kind": "validate", "nx": None, "nt": None, "T": None}


def write_cfg(path, raw):
    path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    return str(path)


# -- storage -----------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    data = np.arange(30, dtype=float).reshape(2, 15)
    path = tmp_path / "f.spdefld"
    write_snapshot(path, data, nx=16, T=0.5)
    raw = path.read_bytes()
    assert raw[:8] == b"SPDEFLD1"
    assert len(raw) == 32 + 8 * 30
    back, nx, T = read_snapshot(path)
    assert nx == 16 and T == 0.5
    assert np.array_equal(back, data)


def test_snapshot_rejects_corruption(tmp_path):
    path = tmp_path / "f.spdefld"
    write_snapshot(path, np.zeros((1, 15)), nx=16, T=0.5)
    body = bytearray(path.read_bytes())
    body[0] = 0
    bad = tmp_path / "bad.spdefld"
    bad.write_bytes(bytes(body))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad)


def test_csv_uses_17_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1.0 / 3.0, 2)])
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "0.33333333333333331" in text


def test_config_parser():
    raw = parse_config_text("a = 1  # trailing\n# full comment\n\nb=x y\n")
    assert raw == {"a": "1", "b": "x y"}
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("not a pair\n")
    with pytest.raises(ConfigError, match="'replicas' is set twice, on lines 1 and 3"):
        parse_config_text("replicas = 100\n# comment\nreplicas=5\n")


# -- configuration validation --------------------------------------------------


def test_missing_master_seed_names_key():
    raw = base_raw()
    del raw["master_seed"]
    with pytest.raises(ConfigError, match="master_seed"):
        ExperimentConfig.from_raw(raw)


def test_unknown_kind_lists_valid_kinds():
    with pytest.raises(ConfigError, match="valid kinds"):
        ExperimentConfig.from_raw(base_raw(kind="unknown"))


def test_missing_eps_list_named():
    raw = base_raw(kind="convergence")
    with pytest.raises(ConfigError, match="eps_list"):
        ExperimentConfig.from_raw(raw)


def test_eps_list_must_decrease():
    raw = base_raw(kind="mc-scaling", eps_list="0.1, 0.2",
                   event_kind="l2_norm", event_threshold="0.1")
    with pytest.raises(ConfigError, match="decreasing"):
        ExperimentConfig.from_raw(raw)


def test_event_threshold_required():
    raw = base_raw(kind="importance")
    with pytest.raises(ConfigError, match="event_threshold"):
        ExperimentConfig.from_raw(raw)


def test_bool_keys_accept_both_spellings_in_any_case():
    for text, value in (("1", True), ("On", True), ("YES", True), ("true", True),
                        ("0", False), ("off", False), ("No", False), ("FALSE", False)):
        assert ExperimentConfig.from_raw(base_raw(dump_noise=text)).dump_noise is value


def test_event_threshold_finite():
    raw = base_raw(kind="importance", event_kind="l2_norm", event_threshold="inf")
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig.from_raw(raw)


# -- events --------------------------------------------------------------------


def test_event_functionals():
    g = make_grid(16, 4, 0.5)
    f = eigenfunction(g, 2, amplitude=0.7)
    vals = f.values
    assert abs(EventSpec("l2_norm", 0, 0).values(vals, g, 8.0) - lp_norm(f, 2)) <= 1e-14
    assert abs(EventSpec("lp_norm", 0, 0).values(vals, g, 8.0) - lp_norm(f, 8)) <= 1e-14
    assert abs(EventSpec("mode_coeff", 2, 0).values(vals, g, 8.0) - 0.7) <= 1e-12
    j = 4
    assert EventSpec("point_value", (j + 1) / 16, 0).values(vals, g, 8.0) == vals[j]
    # A finite terminal whose norm is past the float range: inf, with no warning.
    huge = np.zeros(g.n_interior)
    huge[3] = 1e200
    assert EventSpec("l2_norm", 0, 0).values(huge, g, 8.0) == np.inf
    assert EventSpec("lp_norm", 0, 0).values(huge, g, 8.0) == np.inf
    with pytest.raises(ConfigError, match="event_kind"):
        EventSpec("volume", 0, 0)


# -- eps scaling -----------------------------------------------------------------


def test_scaling_always_true_event():
    raw = base_raw(kind="mc-scaling", eps_list="0.2, 0.1", replicas="50",
                   event_kind="l2_norm", event_threshold="-1e300")
    rows = run_eps_scaling(ExperimentConfig.from_raw(raw))
    for row in rows:
        assert row.p_hat == 1.0
        assert row.eps_log_p == 0.0
        assert not row.censored


def test_scaling_zero_hits_censored_not_fatal():
    raw = base_raw(kind="mc-scaling", eps_list="0.2, 0.1", replicas="50",
                   event_kind="l2_norm", event_threshold="1e6")
    rows = run_eps_scaling(ExperimentConfig.from_raw(raw))
    for row in rows:
        assert row.censored
        assert np.isnan(row.eps_log_p)


def test_scaling_monotone_in_eps():
    raw = base_raw(kind="mc-scaling", eps_list="0.4, 0.2, 0.1", replicas="600",
                   event_kind="l2_norm", event_threshold="0.2")
    rows = run_eps_scaling(ExperimentConfig.from_raw(raw))
    for a, b in zip(rows, rows[1:]):
        assert b.p_hat <= a.p_hat + 2 * np.hypot(a.stderr, b.stderr)


def test_scaling_tilts_by_psi_amp_as_by_psi_file(tmp_path):
    raw = base_raw(kind="mc-scaling", eps_list="0.2, 0.1", replicas="200",
                   event_kind="l2_norm", event_threshold="0.2")
    by_amp = ExperimentConfig.from_raw(dict(raw, psi_amp="0.5"))
    g = by_amp.grid()
    write_snapshot(tmp_path / "psi.spdefld", by_amp.psi_control(g).values, nx=16, T=0.25)
    by_file = ExperimentConfig.from_raw(dict(raw, psi_file=str(tmp_path / "psi.spdefld")))
    amp, file, plain = (run_eps_scaling(c) for c in (by_amp, by_file, ExperimentConfig.from_raw(raw)))
    assert [(r.p_hat, r.stderr) for r in amp] == [(r.p_hat, r.stderr) for r in file]
    assert [r.p_hat for r in amp] != [r.p_hat for r in plain]


def test_point_event_scaling_tilts_by_psi_file_as_importance(tmp_path):
    # One eps on stream 0: the scaling row is the importance study's tilted
    # estimate, not its plain one.
    g = make_grid(16, 32, 0.25)
    psi = np.tile(eigenfunction(g, 1, amplitude=1.0).values, (g.nt, 1))
    write_snapshot(tmp_path / "psi.spdefld", psi, nx=16, T=0.25)
    common = dict(replicas="300", psi_file=tmp_path / "psi.spdefld",
                  event_kind="point_value", event_param="0.5", event_threshold="0.3")
    (row,) = run_eps_scaling(
        ExperimentConfig.from_raw(base_raw(kind="mc-scaling", eps_list="0.1", **common))
    )
    res = run_importance_sampling(
        ExperimentConfig.from_raw(base_raw(kind="importance", eps="0.1", **common))
    )
    assert (row.p_hat, row.stderr) == (res.estimate, res.stderr)
    assert res.estimate != res.plain_estimate


# -- importance sampling ----------------------------------------------------------


def test_zero_tilt_reproduces_plain_sampling(tmp_path):
    g = make_grid(16, 32, 0.25)
    write_snapshot(tmp_path / "psi.spdefld", np.zeros((g.nt, g.n_interior)), nx=16, T=0.25)
    raw = base_raw(kind="importance", replicas="200", eps="0.2", psi_file=tmp_path / "psi.spdefld",
                   event_kind="l2_norm", event_threshold="0.2")
    res = run_importance_sampling(ExperimentConfig.from_raw(raw))
    assert res.estimate == res.plain_estimate
    assert res.mean_weight == 1.0


def test_importance_mean_weight_and_agreement():
    # Non-rare event: tilted and plain estimates agree within 3 combined SE.
    raw = base_raw(kind="importance", replicas="2000", eps="0.1",
                   event_kind="l2_norm", event_threshold="0.12", tilt="optimal")
    res = run_importance_sampling(ExperimentConfig.from_raw(raw))
    assert abs(res.mean_weight - 1.0) <= 3 * res.mean_weight_stderr
    comb = np.hypot(res.stderr, res.plain_stderr)
    assert abs(res.estimate - res.plain_estimate) <= 3 * comb


def test_importance_warns_when_tilted_and_plain_disagree(capsys):
    # Burgers at eps 1 with the criterion-11 threshold: the optimal tilt's
    # estimate lies 4.0 combined stderr below the plain one at 4000 replicas,
    # while a fixed mode-1 tilt of amplitude 0.5 agrees with it at 400.
    threshold = np.sqrt(2.0 * (1.0 - np.exp(-2.0 * np.pi**2 * 0.3)) / np.pi**2)
    raw = {"kind": "importance", "master_seed": "90125", "family": "burgers",
           "sigma0": "1.0", "sigma1": "0.2", "k_modes": "8", "nx": "32", "nt": "64",
           "T": "0.3", "eps": "1.0", "event_kind": "l2_norm",
           "event_threshold": f"{threshold:.17g}"}
    res = run_importance_sampling(
        ExperimentConfig.from_raw(dict(raw, replicas="4000", tilt="optimal")))
    out, err = capsys.readouterr()
    assert (res.estimate - res.plain_estimate) / np.hypot(res.stderr, res.plain_stderr) < -3
    assert out == "" and err == (
        "warning: importance at eps 1.0: the tilted estimate 0.0328 and the plain estimate "
        "0.0465 differ by z = -4.01 combined stderr (0.00342), more than 3\n"
    )
    res = run_importance_sampling(ExperimentConfig.from_raw(dict(raw, replicas="400",
                                                                 psi_amp="0.5")))
    assert abs(res.estimate - res.plain_estimate) < np.hypot(res.stderr, res.plain_stderr)
    assert capsys.readouterr() == ("", "")


def test_importance_variance_reduction_on_rare_event():
    raw = base_raw(kind="importance", nt="64", replicas="3000", eps="0.025",
                   event_kind="l2_norm", event_threshold="0.11", tilt="optimal")
    res = run_importance_sampling(ExperimentConfig.from_raw(raw))
    assert res.variance_reduction > 1.0


# -- convergence studies -----------------------------------------------------------


def test_convergence_studies_pass_flags():
    raw = base_raw(
        kind="convergence", nx="32", nt="64", family="linear", f_slope="0.5",
        eps="0.05", eps_list="0.1, 0.05, 0.025", replicas="30",
        k_list="2, 8, 24", eta_amp="1.0", psi_amp="0.0",
    )
    report = run_convergence_studies(ExperimentConfig.from_raw(raw))
    means = [m for _, m, _ in report.galerkin_rows]
    assert means[0] > means[1] > means[2]
    assert report.galerkin_pass
    # psi = 0: distances are exactly |u^eps - u^0|, decreasing in eps.
    dists = [d for _, d in report.controlled_rows]
    assert all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
    assert report.controlled_pass
    assert report.moment_pass


# -- driver and CLI ------------------------------------------------------------------


def test_golden_config_byte_identical_reruns(tmp_path):
    out1 = run_experiment(DATA / "golden_mc_scaling.cfg", out_dir=tmp_path / "a")
    out2 = run_experiment(DATA / "golden_mc_scaling.cfg", out_dir=tmp_path / "b")
    for name in ("scaling.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# One small config per kind, setting most keys the kind reads.
KIND_CONFIGS = {
    "simulate": dict(eps="0.1", k_noise="6", eta_amp="0.5", dump_noise="1"),
    "skeleton": dict(kind="skeleton", psi_mode="2", psi_amp="0.5"),
    "minimize-action": dict(kind="minimize-action", nt="16", k_modes="8", eta_amp="0.2",
                            target_mode="1", target_amp="0.5", max_iters="30",
                            residual_tol="0.01"),
    "mc-scaling": dict(kind="mc-scaling", eps_list="0.2, 0.1", replicas="20", threads="2",
                       tilt="optimal", max_iters="30", event_threshold="0.2",
                       reference_action="0.5"),
    "importance": dict(kind="importance", eps="0.2", replicas="20", k_noise="8",
                       psi_amp="0.5", event_kind="point_value", event_param="0.5",
                       event_threshold="0.2"),
    "convergence": dict(kind="convergence", eps="0.1", eps_list="0.1, 0.05", replicas="10",
                        k_list="2, 8", eta_scales="1, 2", eta_amp="1", psi_amp="0.3"),
    "validate": dict(VALIDATE_RAW, f_slope=None, family="burgers", box_r="10",
                     n_samples="200"),
}


@pytest.mark.parametrize("kind", [*VALID_KINDS, "golden"])
def test_manifest_is_re_runnable(tmp_path, kind):
    cfg = DATA / "golden_mc_scaling.cfg"
    if kind != "golden":
        cfg = write_cfg(tmp_path / "c.cfg", base_raw(**KIND_CONFIGS[kind]))
    out1 = run_experiment(cfg, out_dir=tmp_path / "a")
    out2 = run_experiment(out1 / "manifest.txt", out_dir=tmp_path / "b")
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir()) and len(files) > 1
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_every_config_key_is_read_by_some_kind():
    # from_raw parses the keys that are fields by their annotation, so a
    # table entry that is no field, family key or event key would be
    # accepted and ignored.
    read = set(_COMMON).union(*_READS.values())
    keys = {f.name for f in fields(ExperimentConfig)} - {"family_params", "event"}
    assert read == keys | set(_FAMILY_KEYS) | set(_EVENT_KEYS)


def _load_workloads():
    """perfbench/workloads.py's WORKLOADS; the module imports only the stdlib."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCH_WORKLOADS = _load_workloads()


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_benchmark_workloads_parse(tmp_path, name, tiny):
    # The benchmark runs each workload through the CLI with --seed and --out,
    # so a key table that rejects one of its configs fails here first.
    w = BENCH_WORKLOADS[name]
    raw = {k: str(v) for k, v in w.settings(tiny).items()}
    raw.update(kind=w.command, master_seed="5", out_dir=str(tmp_path / "o"))
    assert ExperimentConfig.from_raw(raw).kind == w.command


# The benchmark's chunk partitions (rows per noise block) under the engine's
# memory bound and thread split, and the doubles of each worker's buffer that
# the workload's own study asks the engine for, so a budget change that moves
# the benchmark fails here first. burgers_action runs no replicas.
BENCH_PARTITIONS = {
    "tilted_scaling": ([1057, 1057, 1057, 829], 1057 * 32 * 31),
    "burgers_convergence": ([125, 125], 125 * 32 * 63),
    "burgers_blowup": ([200], 200 * 32 * 31),
}
STUDIES = {"mc-scaling": run_eps_scaling, "convergence": run_convergence_studies}


class FirstEngineCall(Exception):
    """Stops a study once its sampler has asked the engine for buffers."""


@pytest.mark.parametrize("name", sorted(BENCH_PARTITIONS))
def test_benchmark_workload_partitions(monkeypatch, name):
    cfg = ExperimentConfig.from_raw({k: str(v) for k, v in BENCH_WORKLOADS[name].config.items()})
    grid = cfg.grid()
    partition, doubles = BENCH_PARTITIONS[name]
    seen, buffers, sizes = [], set(), set()

    def work(rows, drawer, buf):  # draws nothing
        assert drawer.row_shape == (len(rows), grid.n_interior) and buf.shape[1:] == (grid.n_interior,)
        seen.append(rows)
        buffers.add(buf.ctypes.data)
        sizes.add(buf.size)
        return np.zeros(len(rows), dtype=int)

    engine = mild_solver._replica_engine
    blown = engine(grid, cfg.master_seed, cfg.replicas, 0, work, cfg.threads)
    assert blown.shape == (cfg.replicas,)
    seen.sort(key=lambda rows: rows.start)
    assert [len(rows) for rows in seen] == partition
    assert [r for rows in seen for r in rows] == list(range(cfg.replicas))
    assert len(buffers) <= min(cfg.threads, len(seen))  # one buffer per worker

    def first_call(grid, master, replicas, stream, _work, *args):  # draws nothing
        sizes.clear()
        engine(grid, master, replicas, stream, work, *args)
        raise FirstEngineCall

    monkeypatch.setattr(mild_solver, "_replica_engine", first_call)
    with pytest.raises(FirstEngineCall):
        STUDIES[cfg.kind](cfg)
    assert sizes == {doubles}


def test_run_experiment_requires_out_dir(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in base_raw().items()) + "\n")
    with pytest.raises(ConfigError, match="out_dir"):
        run_experiment(cfg)


def test_simulate_and_skeleton_outputs(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in base_raw(eta_amp=1.0).items()) + "\n")
    out = run_experiment(cfg, out_dir=tmp_path / "sim")
    data, nx, T = read_snapshot(out / "path.spdefld")
    assert nx == 16 and T == 0.25 and data.shape == (33, 15)
    assert (out / "diagnostics.csv").exists() and (out / "manifest.txt").exists()
    out2 = run_experiment(cfg, out_dir=tmp_path / "sk", kind="skeleton")
    data2, _, _ = read_snapshot(out2 / "path.spdefld")
    assert data2.shape == (33, 15)


def test_simulate_noise_dump(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "\n".join(f"{k} = {v}" for k, v in base_raw(eps=0.1, dump_noise=1).items()) + "\n"
    )
    out = run_experiment(cfg, out_dir=tmp_path / "sim")
    noise, nx, _ = read_snapshot(out / "noise.spdefld")
    assert noise.shape == (32, 15) and nx == 16
    # Same derived stream as the solver: variance at the cell scale.
    assert abs(np.var(noise) / (0.25 / 32 / 16) - 1.0) < 0.5


def test_minimize_action_outputs(tmp_path):
    cfg = tmp_path / "c.cfg"
    raw = base_raw(kind="minimize-action", nx="32", nt="64", T="0.5",
                   target_mode=1, target_amp=0.5)
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in raw.items()) + "\n")
    out = run_experiment(cfg, out_dir=tmp_path / "ma")
    psi, nx, _ = read_snapshot(out / "psi_star.spdefld")
    assert psi.shape == (64, 31) and nx == 32
    text = (out / "summary.csv").read_text().splitlines()
    assert text[0] == "action,residual,iterations,converged"


def test_validate_outputs(tmp_path):
    cfg = tmp_path / "c.cfg"
    raw = base_raw(**VALIDATE_RAW, family="burgers", n_samples=2000)
    del raw["f_slope"]
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in raw.items()) + "\n")
    out = run_experiment(cfg, out_dir=tmp_path / "v")
    lines = (out / "assumptions.csv").read_text().splitlines()
    assert lines[0].startswith("check,ok,")
    assert all(",1," in line for line in lines[1:])


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in base_raw().items()) + "\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = simulate\n")  # master_seed missing
    assert cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o2")]) == 2


def test_cli_rejects_unknown_key(tmp_path, capsys):
    raw = base_raw(kind="mc-scaling", eps_list="0.2, 0.1", event_threshold="0.1", replica="5")
    cfg = write_cfg(tmp_path / "c.cfg", raw)
    assert cli_main(["mc-scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown config key 'replica'" in err


def test_cli_names_the_kind_that_does_not_read_a_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", base_raw(**MC_RAW, eps="3"))
    assert cli_main(["mc-scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: config key 'eps': mc-scaling does not read it\n"


@pytest.mark.parametrize(
    "extra,flags,key",
    [
        ({"family": "heat"}, [], "family"),
        ({"family": "burgers", "f_slope": "1"}, [], "f_slope"),
        ({"T": "-1"}, [], "T="),
        ({"kind": "importance", "eps": "0", "psi_amp": "0.5", "event_threshold": "0.1"}, [],
         "eps"),
        # Quadratic transport on nx = 16 with all 15 modes breaks nx >= 4*k_modes.
        ({"family": "burgers", "f_slope": None}, [], "k_modes"),
        ({**MC_RAW, "threads": "0"}, [], "threads"),
        ({**MC_RAW, "threads": "-3"}, [], "threads"),
        (MC_RAW, ["--threads", "-3"], "threads"),
        (MC_RAW, ["--threads", "0"], "threads"),
        # Each worker allocates its noise buffer up front, so the count is capped.
        (MC_RAW, ["--threads", "1000"], "'threads': 1000 outside 1..64"),
        ({"dump_noise": "ture"}, [], "dump_noise"),
        ({"eta_mode": "99", "eta_amp": "1.0"}, [], "'eta_mode'"),
        ({"eta_mode": "0"}, [], "'eta_mode'"),
        ({"kind": "skeleton", "psi_mode": "16", "psi_amp": "0.5"}, [], "'psi_mode'"),
        ({"kind": "minimize-action", "target_mode": "99"}, [], "'target_mode'"),
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": "4, 15, 99"}, [],
         "'k_list'"),
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": "-1, 4"}, [], "'k_list'"),
        # The default k_list, 4, 16, 64, reaches past nx - 1 = 15.
        ({"kind": "convergence", "eps_list": "0.2, 0.1"}, [], "'k_list'"),
        # An empty list would check nothing, and the manifest would drop it.
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": ""}, [], "'k_list'"),
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": "4", "eta_scales": ""}, [],
         "'eta_scales'"),
        # A removed key fails by name; an old manifest that sets it does not run.
        ({"kind": "skeleton", "control_coupling": "direct"}, [],
         "unknown config key 'control_coupling'"),
        ({"kind": "mc-scaling", "eps_list": "0.2, 0", "event_threshold": "0.1"}, [],
         "eps_list"),
        ({**MC_RAW, "replicas": "0"}, [], "'replicas'"),
        ({**MC_RAW, "tilt": "sideways"}, [], "tilt"),
        ({"kind": "skeleton", "psi_file": "missing.spdefld"}, [], "'psi_file'"),
        # psi_16x8.spdefld has nt = 8, the config nt = 32.
        ({"kind": "skeleton", "psi_file": "psi_16x8.spdefld"}, [], "'psi_file'"),
        # The right grid, but one entry is NaN.
        ({"kind": "skeleton", "psi_file": "psi_16x32_nan.spdefld"}, [], "'psi_file'"),
        ({"kind": "importance", "psi_amp": "0.5", "tilt": "optimal", "event_threshold": "0.1"},
         [], "['psi_amp', 'tilt']"),
        # Every kind that reads a control takes one source.
        ({"kind": "skeleton", "psi_file": "psi_16x32.spdefld", "psi_amp": "3"}, [],
         "['psi_file', 'psi_amp']"),
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": "4",
          "psi_file": "psi_16x32.spdefld", "psi_amp": "3"}, [], "['psi_file', 'psi_amp']"),
        ({"kind": "mc-scaling", "eps_list": "0.2", "tilt": "optimal",
          "event_kind": "point_value", "event_param": "0.5", "event_threshold": "0.1"}, [],
         "'tilt'"),
        # Each kind rejects a key it does not read, from the file or a flag.
        ({"psi_amp": "3"}, [], "'psi_amp'"),
        ({"tilt": "optimal"}, [], "'tilt'"),
        ({"psi_file": "psi_16x32.spdefld"}, [], "'psi_file'"),
        ({"kind": "minimize-action", "psi_amp": "0.5"}, [], "'psi_amp'"),
        ({"kind": "skeleton", "psi_amp": "0.5", "tilt": "optimal"}, [], "'tilt'"),
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": "4", "tilt": "optimal"}, [],
         "'tilt'"),
        ({**VALIDATE_RAW, "psi_amp": "0.5"}, [], "'psi_amp'"),
        ({**VALIDATE_RAW, "nx": "16"}, [], "'nx': validate does not read it"),
        ({**MC_RAW, "event_kind": "l2_norm", "event_param": "5"}, [], "'event_param'"),
        ({"kind": "minimize-action"}, ["--threads", "2"], "'threads'"),
        ({"kind": "importance", "eps": "0.1", "event_threshold": "0.1",
          "reference_action": "0.5"}, [], "'reference_action'"),
        # Without tilt = optimal there is no tilt solve to read max_iters.
        ({"kind": "importance", "eps": "0.1", "event_threshold": "0.1", "tilt": "none",
          "max_iters": "5"}, [], "'max_iters': importance does not read it"),
        ({}, ["--threads", "2"], "'threads'"),
        # Out-of-range values; box_r on simulate fails as unread.
        ({"eps": "-0.1"}, [], "'eps'"),
        ({**VALIDATE_RAW, "n_samples": "0"}, [], "'n_samples'"),
        ({**VALIDATE_RAW, "box_r": "0"}, [], "'box_r'"),
        ({"box_r": "-1"}, [], "'box_r'"),
        # Every float key but rho must be finite; each of these ran into the
        # solver, or ran to the end, before.
        ({"eta_amp": "nan"}, [], "'eta_amp'"),
        ({"kind": "skeleton", "psi_amp": "nan"}, [], "'psi_amp'"),
        ({"kind": "minimize-action", "target_amp": "nan"}, [], "'target_amp'"),
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": "4", "eta_scales": "1, nan"},
         [], "'eta_scales'"),
        ({"T": "inf"}, [], "'T'"),
        ({"eps": "inf"}, [], "'eps'"),
        ({"kind": "mc-scaling", "eps_list": "inf, 0.1", "event_threshold": "0.1"}, [],
         "'eps_list'"),
        ({"kind": "minimize-action", "residual_tol": "nan", "max_iters": "2"}, [],
         "'residual_tol'"),
        ({"kind": "mc-scaling", "eps_list": "0.2", "replicas": "2", "event_threshold": "0.1",
          "reference_action": "nan"}, [], "'reference_action'"),
    ],
    ids=["family", "family_parameter", "horizon", "importance_eps", "dealiasing",
         "threads_zero", "threads_negative", "threads_flag_negative", "threads_flag_zero",
         "threads_flag_too_many", "bool", "eta_mode", "eta_mode_zero", "psi_mode",
         "target_mode", "k_list",
         "k_list_negative", "k_list_default", "k_list_empty", "eta_scales_empty",
         "control_coupling", "eps_list_zero", "replicas_zero", "tilt",
         "psi_file_missing", "psi_file_grid", "psi_file_non_finite",
         "two_tilt_sources", "skeleton_two_controls",
         "convergence_two_controls", "optimal_point_tilt",
         "simulate_psi_amp", "simulate_tilt", "simulate_psi_file", "minimize_action_psi_amp",
         "skeleton_tilt", "convergence_tilt", "validate_psi_amp", "validate_nx",
         "norm_event_param", "minimize_action_threads_flag", "importance_reference_action",
         "importance_untilted_max_iters", "simulate_threads_flag", "eps_negative",
         "n_samples_zero", "box_r_zero", "simulate_box_r_negative", "eta_amp_nan",
         "psi_amp_nan", "target_amp_nan", "eta_scales_nan", "T_inf", "eps_inf",
         "eps_list_inf", "residual_tol_nan", "reference_action_nan"],
)
def test_cli_bad_values_are_config_errors(tmp_path, capsys, monkeypatch, extra, flags, key):
    monkeypatch.chdir(tmp_path)
    write_snapshot(tmp_path / "psi_16x8.spdefld", np.zeros((8, 15)), nx=16, T=0.25)
    write_snapshot(tmp_path / "psi_16x32.spdefld", np.zeros((32, 15)), nx=16, T=0.25)
    nan = np.zeros((32, 15))
    nan[3, 4] = np.nan
    write_snapshot(tmp_path / "psi_16x32_nan.spdefld", nan, nx=16, T=0.25)
    raw = base_raw(**extra)
    cfg = write_cfg(tmp_path / "c.cfg", raw)
    out = tmp_path / "o"
    assert cli_main([raw["kind"], "--config", cfg, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_cli_rho_inf_runs(tmp_path):
    # rho = inf is the sup norm, the one float key that may be infinite.
    cfg = write_cfg(tmp_path / "c.cfg", base_raw(rho="inf", eps="0.1"))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "rho = inf" in (tmp_path / "o" / "manifest.txt").read_text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind,extra", [("simulate", {"eps": "50"}),
                                        ("mc-scaling", {"eps_list": "50", "replicas": "3",
                                                        "event_threshold": "1.0"})],
                         ids=["simulate", "mc_scaling"])
def test_cli_blowup_names_seed_triple(tmp_path, capsys, kind, extra):
    # A single path and replica 0 of the same draw blow up alike.
    raw = base_raw(kind=kind, family="burgers", f_slope=None, sigma0="1", sigma1="6",
                   k_modes="8", nx="32", nt="128", eta_amp="1", **extra)
    cfg = write_cfg(tmp_path / "c.cfg", raw)
    assert cli_main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: solution blew up at step 14, replica 0, "
        "seed SeedDerivation(master=7, replica=0, stream=0)\n"
    )


@pytest.mark.parametrize(
    "kind,param", [("mode_coeff", "40"), ("point_value", "1.5")], ids=["mode", "point"]
)
def test_cli_bad_event_param_exits_before_any_replica(
    tmp_path, capsys, monkeypatch, kind, param
):
    engine_calls = []
    engine = mild_solver._replica_engine

    def counting_engine(*args, **kwargs):
        engine_calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(mild_solver, "_replica_engine", counting_engine)
    raw = base_raw(
        kind="mc-scaling", eps_list="0.2, 0.1", replicas=5,
        event_kind=kind, event_param=param, event_threshold="0.1",
    )
    cfg = write_cfg(tmp_path / "c.cfg", raw)
    assert cli_main(["mc-scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "event_param" in err
    assert engine_calls == []


def test_cli_seed_and_threads_override(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", base_raw(**MC_RAW, replicas="10"))
    assert cli_main([
        "mc-scaling", "--config", cfg, "--out", str(tmp_path / "a"),
        "--seed", "99", "--threads", "2",
    ]) == 0
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    assert "master_seed = 99" in manifest
    assert "threads = 2" in manifest


def test_cli_key_set_twice_is_a_config_error(tmp_path, capsys):
    # A later line does not silently win: both settings are named, and the
    # run stops before it makes its output directory. A flag still replaces
    # the file's key.
    cfg = write_cfg(tmp_path / "c.cfg", base_raw(**MC_RAW, replicas="100"))
    with open(cfg, "a") as fh:
        fh.write("replicas = 5\n")
    out = tmp_path / "o"
    assert cli_main(["mc-scaling", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'replicas' is set twice" in err
    assert not out.exists()
    ok = write_cfg(tmp_path / "ok.cfg", base_raw(**MC_RAW, replicas="5"))
    assert cli_main(["mc-scaling", "--config", ok, "--out", str(out), "--seed", "99"]) == 0
    assert "master_seed = 99" in (out / "manifest.txt").read_text()


def test_cli_coupling_flag(tmp_path):
    # There is one control coupling, so no flag selects it.
    cfg = write_cfg(tmp_path / "c.cfg", base_raw(kind="skeleton", psi_amp="0.5"))
    with pytest.raises(SystemExit) as exc:
        cli_main(["skeleton", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--coupling", "direct"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_cli_subprocess_entry(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in base_raw().items()) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "spdelab", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout


@pytest.mark.parametrize("extra", [
    {"kind": "minimize-action"},
    {"kind": "importance", "eps": "0.1", "replicas": "4", "tilt": "optimal",
     "event_threshold": "0.5"},
], ids=["minimize_action", "optimal_tilt"])
def test_cli_optimizer_blowup_exits_1_without_traceback(tmp_path, extra):
    # The uncontrolled start of the optimization already blows up.
    raw = base_raw(family="burgers", f_slope=None, nx=32, nt=8, k_modes=8, eta_amp=400,
                   **extra)
    cfg = write_cfg(tmp_path / "c.cfg", raw)
    proc = subprocess.run(
        [sys.executable, "-m", "spdelab", raw["kind"], "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: controlled flow blew up during optimization\n"
    assert "Traceback" not in proc.stderr


def test_psi_file_loading(tmp_path):
    g = make_grid(16, 32, 0.25)
    psi = 0.25 * np.ones((32, 15))
    write_snapshot(tmp_path / "psi.spdefld", psi, nx=16, T=0.25)
    raw = base_raw(kind="skeleton", psi_file=str(tmp_path / "psi.spdefld"))
    out = run_experiment_with_raw(raw, tmp_path / "out", tmp_path)
    data, _, _ = read_snapshot(out / "path.spdefld")
    assert np.any(data[-1] != 0.0)


def run_experiment_with_raw(raw, out_dir, tmp_path):
    cfg = tmp_path / "raw.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in raw.items()) + "\n")
    return run_experiment(cfg, out_dir=out_dir)
