import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdelab import mild_solver
from spdelab.cli import main as cli_main
from spdelab.experiments import (
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


def test_manifest_is_re_runnable(tmp_path):
    out1 = run_experiment(DATA / "golden_mc_scaling.cfg", out_dir=tmp_path / "a")
    out2 = run_experiment(out1 / "manifest.txt", out_dir=tmp_path / "b")
    assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()


def test_run_experiment_requires_out_dir(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in base_raw().items()) + "\n")
    with pytest.raises(ConfigError, match="out_dir"):
        run_experiment(cfg)


def test_simulate_and_skeleton_outputs(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "\n".join(f"{k} = {v}" for k, v in base_raw(eta_amp=1.0, eps=0.1).items()) + "\n"
    )
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
    raw = base_raw(kind="validate", family="burgers", n_samples=2000)
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


def write_cfg(path, raw):
    path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    return str(path)


def test_cli_rejects_unknown_key(tmp_path, capsys):
    raw = base_raw(kind="mc-scaling", eps_list="0.2, 0.1", event_threshold="0.1", replica="5")
    cfg = write_cfg(tmp_path / "c.cfg", raw)
    assert cli_main(["mc-scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'replica'" in err


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
        ({"threads": "0"}, [], "threads"),
        ({"threads": "-3"}, [], "threads"),
        ({}, ["--threads", "-3"], "threads"),
        ({}, ["--threads", "0"], "threads"),
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
        ({"control_coupling": "sideways"}, [], "control_coupling"),
        ({"kind": "mc-scaling", "eps_list": "0.2, 0", "event_threshold": "0.1"}, [],
         "eps_list"),
        ({"replicas": "0"}, [], "'replicas'"),
        ({"tilt": "sideways"}, [], "tilt"),
        ({"kind": "skeleton", "psi_file": "missing.spdefld"}, [], "'psi_file'"),
        # psi_16x8.spdefld has nt = 8, the config nt = 32.
        ({"kind": "skeleton", "psi_file": "psi_16x8.spdefld"}, [], "'psi_file'"),
        ({"kind": "importance", "psi_amp": "0.5", "tilt": "optimal", "event_threshold": "0.1"},
         [], "['psi_amp', 'tilt']"),
        ({"kind": "mc-scaling", "eps_list": "0.2", "tilt": "optimal",
          "event_kind": "point_value", "event_param": "0.5", "event_threshold": "0.1"}, [],
         "'tilt'"),
        # Each kind rejects a tilt key it does not read.
        ({"psi_amp": "3"}, [], "'psi_amp'"),
        ({"tilt": "optimal"}, [], "'tilt'"),
        ({"psi_file": "psi_16x32.spdefld"}, [], "'psi_file'"),
        ({"kind": "minimize-action", "psi_amp": "0.5"}, [], "'psi_amp'"),
        ({"kind": "skeleton", "psi_amp": "0.5", "tilt": "optimal"}, [], "'tilt'"),
        ({"kind": "convergence", "eps_list": "0.2, 0.1", "k_list": "4", "tilt": "optimal"}, [],
         "'tilt'"),
        ({"kind": "validate", "psi_amp": "0.5"}, [], "'psi_amp'"),
        # Each kind rejects these, whether or not it reads the key.
        ({"eps": "-0.1"}, [], "'eps'"),
        ({"kind": "validate", "n_samples": "0"}, [], "'n_samples'"),
        ({"kind": "validate", "box_r": "0"}, [], "'box_r'"),
        ({"box_r": "-1"}, [], "'box_r'"),
    ],
    ids=["family", "family_parameter", "horizon", "importance_eps", "dealiasing",
         "threads_zero", "threads_negative", "threads_flag_negative", "threads_flag_zero",
         "bool", "eta_mode", "eta_mode_zero", "psi_mode", "target_mode", "k_list",
         "k_list_negative", "k_list_default", "k_list_empty", "eta_scales_empty",
         "control_coupling", "eps_list_zero", "replicas_zero", "tilt",
         "psi_file_missing", "psi_file_grid", "two_tilt_sources", "optimal_point_tilt",
         "simulate_psi_amp", "simulate_tilt", "simulate_psi_file", "minimize_action_psi_amp",
         "skeleton_tilt", "convergence_tilt", "validate_psi_amp", "eps_negative",
         "n_samples_zero", "box_r_zero", "simulate_box_r_negative"],
)
def test_cli_bad_values_are_config_errors(tmp_path, capsys, monkeypatch, extra, flags, key):
    monkeypatch.chdir(tmp_path)
    write_snapshot(tmp_path / "psi_16x8.spdefld", np.zeros((8, 15)), nx=16, T=0.25)
    write_snapshot(tmp_path / "psi_16x32.spdefld", np.zeros((32, 15)), nx=16, T=0.25)
    raw = base_raw(**extra)
    cfg = write_cfg(tmp_path / "c.cfg", raw)
    out = tmp_path / "o"
    assert cli_main([raw["kind"], "--config", cfg, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


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
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "\n".join(f"{k} = {v}" for k, v in base_raw(eps=0.1).items()) + "\n"
    )
    assert cli_main([
        "simulate", "--config", str(cfg), "--out", str(tmp_path / "a"),
        "--seed", "99", "--threads", "2",
    ]) == 0
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    assert "master_seed = 99" in manifest
    assert "threads = 2" in manifest


def test_cli_coupling_flag(tmp_path):
    cfg = tmp_path / "c.cfg"
    raw = base_raw(kind="skeleton", psi_mode=1, psi_amp=0.5)
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in raw.items()) + "\n")
    assert cli_main([
        "skeleton", "--config", str(cfg), "--out", str(tmp_path / "a"),
        "--coupling", "integrated",
    ]) == 0
    assert cli_main([
        "skeleton", "--config", str(cfg), "--out", str(tmp_path / "b"),
        "--coupling", "direct",
    ]) == 0
    a, _, _ = read_snapshot(tmp_path / "a" / "path.spdefld")
    b, _, _ = read_snapshot(tmp_path / "b" / "path.spdefld")
    assert not np.allclose(a[-1], b[-1])
    assert "control_coupling = integrated" in (tmp_path / "a" / "manifest.txt").read_text()


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
