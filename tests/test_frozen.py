"""Frozen reference values.

Each number below was recorded from the code before the step kernel, the
replica engine and the Girsanov weight were consolidated, and the tests pin
them, so a refactor of the scheme or of the Monte Carlo plumbing that moves
any result shows up here. Tolerances are relative 1e-12 for floats (room
for a reordered floating-point sum, nothing more) and exact for counts.
"""

from pathlib import Path

import numpy as np
import pytest

from spdelab.action import ActionOptions, minimize_action
from spdelab.coeffs import make_coefficients, truncate_coefficients, validate_assumptions
from spdelab.experiments import (
    ExperimentConfig,
    galerkin_coupled_errors,
    run_convergence_studies,
    run_eps_scaling,
    run_experiment,
)
from spdelab.lattice import eigenfunction, make_field, make_grid
from spdelab.mild_solver import SolverConfig, solve_spde

RTOL = 1e-12
DATA = Path(__file__).parent / "data"
BURGERS = make_coefficients("burgers", sigma0=1.0, sigma1=0.2)


def close(actual, expected, rtol=RTOL):
    np.testing.assert_allclose(np.asarray(actual, dtype=float), expected, rtol=rtol, atol=0.0)


def test_golden_scaling_rows(tmp_path):
    out = run_experiment(DATA / "golden_mc_scaling.cfg", out_dir=tmp_path / "g")
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "eps,p_hat,stderr,eps_log_p,censored,deviation,blown"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0.4, 0.2, 0.1]
    close([r[1] for r in rows],
          [0.46808487509377761, 0.080482987912420881, 0.021751609527914627])
    close([r[2] for r in rows],
          [0.069499813546836958, 0.005392655606008441, 0.0016200098831023028])
    close([r[3] for r in rows],
          [-0.30364225698788144, -0.50394188943429918, -0.38280675229019728])
    assert [r[4] for r in rows] == [0, 0, 0] and [r[6] for r in rows] == [0, 0, 0]


def test_burgers_galerkin_path_terminal():
    g = make_grid(32, 32, 0.25)
    sol = solve_spde(eigenfunction(g, 1, amplitude=1.0), BURGERS, 0.1, seed=17, grid=g,
                     config=SolverConfig(k_modes=8))
    close(sol.terminal.values, [
        -0.0015764673046582591, -0.0033244422204510796, -0.005091672570815622,
        -0.006244343509651628, -0.005766306261067493, -0.0025907177577280216,
        0.003965006305658744, 0.0138375625770223, 0.026077924526487762,
        0.03899333292434467, 0.05052313950026522, 0.05871890689120677,
        0.06217428434802714, 0.060285039775496894, 0.05329190143289866,
        0.042134239521209975, 0.02819180207529983, 0.013002419493512695,
        -0.0019775226049244406, -0.015537744623373956, -0.02680170091709566,
        -0.03525053704274123, -0.040699133011471565, -0.04323706873732791,
        -0.043146473657221185, -0.04081181871383389, -0.03664006846169818,
        -0.031007843402454136, -0.024243138174820007, -0.016635945245308602,
        -0.008461725954960682,
    ])


def test_cutoff_path_terminal():
    # |u|_rho peaks at 1.2, inside the bridge (R, R+1) of the cutoff.
    g = make_grid(32, 32, 0.25)
    cf = make_coefficients("reaction", f_slope=2.0, g1_slope=0.5, g2_quad=0.2,
                           sigma0=1.0, sigma1=0.3)
    sol = solve_spde(eigenfunction(g, 1, amplitude=1.0), cf, 0.2, seed=5, grid=g,
                     config=SolverConfig(k_modes=8, cutoff_radius=0.8))
    close(sol.sup_rho_norm, 1.2026029287589226)
    close(sol.terminal.values, [
        0.03594322060281224, 0.07206295041755303, 0.10843083802570232,
        0.14496091977157266, 0.18142735938112112, 0.21752410569235353,
        0.2529070447197926, 0.28716571512529593, 0.3197157854832394,
        0.3496630688029387, 0.375731182261202, 0.3963407881601777,
        0.40987332317737024, 0.4150674743175962, 0.4114212598815606,
        0.39944448289950896, 0.3806439455722914, 0.3572159967024634,
        0.33153105427102925, 0.30557660173902146, 0.280543824449065,
        0.2566901090183026, 0.23350660381912886, 0.21010866789678015,
        0.18569121974939465, 0.1598787008677668, 0.13285212927838497,
        0.10522956785943711, 0.07777282398780029, 0.051055244531369656,
        0.025231390146293803,
    ])


def test_galerkin_coupled_error_means():
    g = make_grid(32, 32, 0.25)
    errors = galerkin_coupled_errors(eigenfunction(g, 1, amplitude=1.0), BURGERS, 0.1, g,
                                     master=321, replicas=24, k_list=(2, 4, 8), k_modes=8)
    assert errors.shape == (24, 3)
    close(errors.mean(axis=0),
          [0.0560744957101011, 0.013059282105038053, 0.0003270742991920244])


def test_minimize_action_small_burgers():
    g = make_grid(32, 16, 0.5)
    res = minimize_action(eigenfunction(g, 1, amplitude=0.5), make_field(g, np.zeros(31)),
                          BURGERS, g, ActionOptions(k_modes=8))
    close(res.action, 2.1865171554000122)
    close(res.residual, 0.0008140788245196012)
    assert res.iterations == 279 and res.converged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_scaling_with_blowups():
    raw = {
        "kind": "mc-scaling", "master_seed": "7", "family": "burgers", "sigma0": "1.0",
        "sigma1": "6.0", "k_modes": "8", "nx": "32", "nt": "64", "T": "0.25",
        "eta_amp": "1.0", "eps_list": "1.2, 1.0, 0.1", "replicas": "60",
        "tilt": "none", "event_threshold": "1.0",
    }
    rows = run_eps_scaling(ExperimentConfig.from_raw(raw))
    assert [r.blown for r in rows] == [13, 8, 0]
    close([r.p_hat for r in rows], [0.0425531914893617, 0.057692307692307696, 0.0])
    close([r.stderr for r in rows], [0.029760791752350448, 0.03264902644719867, 0.0])



def test_threaded_convergence_study():
    # threads = 2 with 40 replicas: the moment and Galerkin legs recorded while
    # every replica still ran in one chunk on one thread.
    raw = {
        "kind": "convergence", "master_seed": "321", "family": "burgers", "sigma0": "1.0",
        "sigma1": "0.2", "k_modes": "8", "nx": "32", "nt": "32", "T": "0.25",
        "eta_amp": "0.3", "eps": "1.0", "rho": "4", "psi_amp": "0.5", "k_list": "2, 4, 8",
        "eps_list": "0.1, 0.05", "replicas": "40", "threads": "2",
    }
    report = run_convergence_studies(ExperimentConfig.from_raw(raw))
    assert [r[0] for r in report.moment_rows] == [1.0, 2.0, 4.0]
    close([r[1] for r in report.moment_rows],
          [0.1296253584930936, 0.3935028754778272, 3.546398296192841])
    close([r[2] for r in report.moment_rows],
          [0.03569960250152054, 0.0761455043886966, 0.18715310874446872])
    close([r[3] for r in report.moment_rows],
          [0.128069316300048, 0.32945652668940656, 0.8627866621722561])
    assert [r[0] for r in report.galerkin_rows] == [2, 4, 8]
    close([r[1] for r in report.galerkin_rows],
          [0.14905170410197588, 0.03453699759801747, 0.0006355258103491146])


REACTION = make_coefficients("reaction", f_slope=0.5, g1_slope=0.3, g2_quad=0.7,
                             sigma0=1.0, sigma1=0.2)
CHECKS = ("sigma growth (H2)", "f growth (H5)", "g1 growth (H4)", "g2 growth (H4)",
          "f,g local Lipschitz (H3)", "sigma global Lipschitz (H2)")
# Every check passes in these five sets; each row is one check's worst ratio
# and its witness (t, x, r), in CHECKS order.
ASSUMPTION_REPORTS = {
    "linear": (
        make_coefficients("linear", f_slope=0.5, sigma0=2.0), (-100.0, 100.0), 1000, 3, [
            (0.8455156555120412, 0.7534544462569464, 0.5003828149958125, -0.1827102117871533),
            (0.24752389730460617, 0.6973859535679194, 0.023981263213644244, -99.96511766860957),
            (0.0, 0.08564916714362436, 0.1821719505148166, -7.305220222335478),
            (0.0, 0.08564916714362436, 0.1821719505148166, -7.305220222335478),
            (0.05598036673537729, 0.6437725172509348, 0.0014110312058930319,
             -5.735301810823728),
            (0.0, 0.08564916714362436, 0.1821719505148166, -7.305220222335478),
        ]),
    "burgers": (
        make_coefficients("burgers", sigma0=1.0, sigma1=0.3), (-3.0, 3.0), 500, 1, [
            (0.9986813405866769, 0.5134678232710247, 0.13013957679285992,
             0.0018873545588262708),
            (0.0, 0.5118216247002567, 0.4216035573870036, 0.25395900890488443),
            (0.0, 0.5118216247002567, 0.4216035573870036, 0.25395900890488443),
            (0.8999654167630976, 0.07994250560811889, 0.5115154737487803, -2.999423756640026),
            (0.42513689559291773, 0.8559122943833432, 0.36493916872495114, -2.9269393392358976),
            (1.0000000000000202, 0.28546522878557845, 0.8869324087540136, -0.9981823110982879),
        ]),
    "reaction": (
        REACTION, (-100.0, 100.0), 1000, 5, [
            (0.9767681822255183, 0.4883478310464564, 0.4622142314914617, 0.029908302510435192),
            (0.49504924901776076, 0.45757426202007856, 0.5964133644334717, 99.99477873028698),
            (0.29702954941065646, 0.45757426202007856, 0.5964133644334717, 99.99477873028698),
            (0.6999299996904118, 0.45757426202007856, 0.5964133644334717, 99.99477873028698),
            (0.5156534021789527, 0.5705249400713531, 0.12776496668648585, 2.23198965523099),
            (1.000000000000006, 0.041209850179512286, 0.95198273748848, 86.94358077685428),
        ]),
    "rho4": (
        make_coefficients("linear", rho=4.0), (-100.0, 100.0), 200, 0, [
            (0.8420404542664484, 0.8413172796123832, 0.19061756040401823, 0.18759139769734645),
        ] + [(0.0, 0.6369616873214543, 0.319681636282665, -59.566381204903074)] * 5),
    "trunc2": (
        truncate_coefficients(REACTION, 2), (-5.0, 5.0), 500, 2, [
            (0.9979648678720352, 0.9647618088753547, 0.8637831309072677, 0.0025504031692422657),
            (0.3361225978595833, 0.8935666217992796, 0.13230635595108264, 2.073437224453799),
            (0.20167355871575, 0.8935666217992796, 0.13230635595108264, 2.073437224453799),
            (0.5659398687129304, 0.9068400198646038, 0.619349028346813, -2.09280501032588),
            (0.41988344492554225, 0.39162483308002616, 0.418304650020899, 2.617861378209194),
            (0.2608052643920218, 0.39162483308002616, 0.418304650020899, 2.617861378209194),
        ]),
}


@pytest.mark.parametrize("case", list(ASSUMPTION_REPORTS))
def test_assumption_report(case):
    cf, r_range, n_samples, seed, rows = ASSUMPTION_REPORTS[case]
    report = validate_assumptions(cf, r_range=r_range, n_samples=n_samples, seed=seed)
    assert [c.name for c in report.checks] == list(CHECKS)
    assert [c.ok for c in report.checks] == [True] * len(CHECKS)
    close([(c.worst_ratio,) + c.witness for c in report.checks], rows)
    rho_warning = ["(H1) requires rho > 6; set has rho = 4.0"]
    assert report.warnings == (rho_warning if case == "rho4" else [])


# The manifest echo and CSV header of three configs. A manifest records only
# the keys its kind reads, defaults included. Between them the configs set
# family parameters, k_noise, k_modes = 0 (all modes), eta_amp = 0,
# dump_noise, reference_action and a mode_coeff event.
SIMULATE_CFG = """\
kind = simulate
master_seed = 3
nx = 16
nt = 8
T = 0.25
family = reaction
f_slope = 0.5
g1_slope = 0.1
g2_quad = 0.0
sigma0 = 1.0
sigma1 = 0.1
eps = 0.1
k_modes = 0
k_noise = 6
eta_amp = 0
dump_noise = 1
"""

IMPORTANCE_CFG = """\
kind = importance
master_seed = 11
nx = 16
nt = 16
T = 0.25
family = linear
sigma0 = 1.0
eps = 0.2
replicas = 40
k_modes = 4
eta_amp = 0.4
psi_mode = 1
psi_amp = 0.5
event_kind = mode_coeff
event_param = 1
event_threshold = 0.3
"""

MANIFEST_HEAD = "# spdelab experiment manifest (re-runnable as a config file)\nversion = 0.1.0\n"

SIMULATE_MANIFEST = MANIFEST_HEAD + """\
T = 0.25
dump_noise = 1
eps = 0.10000000000000001
eta_amp = 0
eta_mode = 1
f_slope = 0.5
family = reaction
g1_slope = 0.10000000000000001
g2_quad = 0
k_noise = 6
kind = simulate
master_seed = 3
nt = 8
nx = 16
rho = 8
sigma0 = 1
sigma1 = 0.10000000000000001
"""

IMPORTANCE_MANIFEST = MANIFEST_HEAD + """\
T = 0.25
eps = 0.20000000000000001
eta_amp = 0.40000000000000002
eta_mode = 1
event_kind = mode_coeff
event_param = 1
event_threshold = 0.29999999999999999
family = linear
k_modes = 4
kind = importance
master_seed = 11
nt = 16
nx = 16
psi_amp = 0.5
psi_mode = 1
replicas = 40
rho = 8
sigma0 = 1
threads = 1
tilt = none
"""

GOLDEN_MANIFEST = MANIFEST_HEAD + """\
T = 0.25
eps_list = 0.40000000000000002, 0.20000000000000001, 0.10000000000000001
eta_amp = 0
eta_mode = 1
event_kind = l2_norm
event_threshold = 0.14999999999999999
f_slope = 0
family = linear
kind = mc-scaling
master_seed = 424242
max_iters = 3000
nt = 64
nx = 16
psi_amp = 0
psi_mode = 1
reference_action = 0.22239999999999999
replicas = 400
residual_tol = 0.001
rho = 8
sigma0 = 1
threads = 1
tilt = optimal
"""


@pytest.mark.parametrize(
    "config,csv_name,header,manifest",
    [
        (None, "scaling.csv", "eps,p_hat,stderr,eps_log_p,censored,deviation,blown",
         GOLDEN_MANIFEST),
        (SIMULATE_CFG, "diagnostics.csv", "step,t,rho_norm,linf_norm", SIMULATE_MANIFEST),
        (IMPORTANCE_CFG, "importance.csv",
         "estimate,stderr,mean_weight,mean_weight_stderr,plain_estimate,plain_stderr,"
         "variance_reduction,replicas",
         IMPORTANCE_MANIFEST),
    ],
    ids=["golden", "simulate", "importance"],
)
def test_manifest_and_csv_header(tmp_path, config, csv_name, header, manifest):
    path = DATA / "golden_mc_scaling.cfg"
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
    out = run_experiment(path, out_dir=tmp_path / "out")
    assert (out / "manifest.txt").read_text() == manifest
    assert (out / csv_name).read_text().splitlines()[0] == header
