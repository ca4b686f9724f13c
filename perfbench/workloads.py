"""The benchmark's four study workloads, their output checks and reference values.

Each workload is one spdelab config run through the CLI. The config keeps its
own ``master_seed`` (the default seed); the benchmark passes the seed it is
given only as ``--seed``. Checks that hold for any seed always run; the
comparison with reference values recorded at the benchmark's first commit
runs only when the seed is the workload's default seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

# Criterion 11: the L^2 threshold whose cheapest crossing costs I* = 2 when
# the linear additive flow is steered along mode 1 over [0, T].
_I_STAR = 2.0
_T_TILT = 0.3
_TILT_THRESHOLD = math.sqrt(
    _I_STAR * (1.0 - math.exp(-2.0 * math.pi**2 * _T_TILT)) / math.pi**2
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # spdelab subcommand
    config: dict
    tiny: dict = field(default_factory=dict)  # overrides for the smoke test

    @property
    def default_seed(self) -> int:
        return int(self.config["master_seed"])

    def settings(self, tiny: bool = False) -> dict:
        return dict(self.config, **self.tiny) if tiny else self.config

    def config_text(self, tiny: bool = False) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.settings(tiny).items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tilted_scaling",
            "mc-scaling",
            {
                "kind": "mc-scaling",
                "master_seed": 90125,
                "nx": 32,
                "nt": 64,
                "T": _T_TILT,
                "family": "linear",
                "f_slope": 0.0,
                "sigma0": 1.0,
                "eps_list": "0.1, 0.05, 0.025",
                "replicas": 4000,
                "event_kind": "l2_norm",
                "event_threshold": f"{_TILT_THRESHOLD:.17g}",
                "tilt": "optimal",
                "reference_action": _I_STAR,
                "threads": 1,
            },
            {"nx": 16, "nt": 32, "replicas": 400},
        ),
        Workload(
            "burgers_convergence",
            "convergence",
            {
                "kind": "convergence",
                "master_seed": 321,
                "family": "burgers",
                "sigma0": 1.0,
                "sigma1": 0.2,
                "k_modes": 16,
                "nx": 64,
                "nt": 256,
                "T": 0.25,
                "eta_amp": 1.0,
                "psi_amp": 0.5,
                "k_list": "4, 8, 16, 32",
                "eps_list": "0.1, 0.05, 0.025",
                "replicas": 250,
                "threads": 2,
            },
            {"nx": 32, "nt": 32, "k_modes": 8, "k_list": "2, 4, 8", "replicas": 50},
        ),
        Workload(
            "burgers_action",
            "minimize-action",
            {
                "kind": "minimize-action",
                "master_seed": 1,
                "family": "burgers",
                "sigma0": 1.0,
                "sigma1": 0.2,
                "k_modes": 8,
                "nx": 32,
                "nt": 32,
                "T": 0.5,
                "target_mode": 1,
                "target_amp": 0.5,
            },
            {"nt": 8},
        ),
        Workload(
            "burgers_blowup",
            "mc-scaling",
            {
                "kind": "mc-scaling",
                "master_seed": 7,
                "family": "burgers",
                "sigma0": 1.0,
                "sigma1": 6.0,
                "k_modes": 8,
                "nx": 32,
                "nt": 128,
                "T": 0.25,
                "eta_amp": 1.0,
                "eps_list": "1.2, 1.0, 0.1",
                "replicas": 200,
                "tilt": "none",
                "event_threshold": 1.0,
            },
            {"nt": 32, "replicas": 100},
        ),
    )
}

# Key outputs at the default seeds, recorded at the benchmark's first commit.
REFERENCE = {
    "tilted_scaling": {
        "p_hat": [5.9473106850633986e-11, 3.4156631700543482e-20, 1.4794775616500525e-38],
        "stderr": [2.5887557648842624e-12, 1.8155423780114313e-21, 9.5886902746837423e-40],
    },
    "burgers_convergence": {
        "galerkin_mean": [
            0.065416285104931998,
            0.02701549242521472,
            0.00039575432425855822,
            2.9531107528225096e-05,
        ],
    },
    "burgers_action": {"action": 2.1521957986583207},
    "burgers_blowup": {"blown": [19, 12, 0]},
}
# Relative tolerance on the Galerkin means: room for a reordered floating-point
# sum or another transform, far below any change of the scheme.
GALERKIN_RTOL = 1e-6
# p_hat may move by a few standard errors when the tilt changes (any tilt keeps
# the estimator unbiased); 3 recorded standard errors is the bound.
P_HAT_STDERRS = 3.0
# stderr/p_hat at the smallest eps, relative to the recorded value. time_to_1pct_s
# grows with its square, so at the default seed it may grow by at most the 0.25
# bound of wall_s; at any other seed, by 25 % (seeds tried gave 0.96-1.08).
REL_STDERR_FACTOR_DEFAULT_SEED = math.sqrt(1.25)
REL_STDERR_FACTOR_ANY_SEED = 1.25
# The penalty solution undershoots the exact-constraint action by about
# 2 x residual (relative); 3 x residual_tol admits an exact-constraint solver.
ACTION_RTOL_PER_TOL = 3.0


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, key):
    return [float(r[key]) for r in rows]


def study_summary(w: Workload, out: Path, solve: dict | None, tiny: bool) -> dict:
    """Counts and headline values of one study's outputs.

    An op is one replica path or one optimizer solve; ``ops_failed`` counts
    blown replicas and unconverged solves. Output checks are added by
    ``check``.
    """
    cfg = w.settings(tiny)
    s = {"ops": 0, "ops_failed": 0, "rel_stderr": None, "residual": None}
    if solve is not None:
        s["ops"] += 1
        s["ops_failed"] += int(not solve["converged"])
        s["residual"] = solve["residual"]
    if w.command == "mc-scaling":
        rows = read_csv(out / "scaling.csv")
        s["rows"] = rows
        s["blown"] = [int(r["blown"]) for r in rows]
        s["ops"] += int(cfg["replicas"]) * len(rows)
        s["ops_failed"] += sum(s["blown"])
        p, se = float(rows[-1]["p_hat"]), float(rows[-1]["stderr"])
        s["rel_stderr"] = se / p if p > 0 else None
    elif w.command == "convergence":
        reps = int(cfg["replicas"])
        n_k = len(str(cfg["k_list"]).split(","))
        n_eps = len(str(cfg["eps_list"]).split(","))
        n_scales = len(str(cfg.get("eta_scales", "1, 2, 4")).split(","))
        s["ops"] += reps * (1 + n_k) + n_eps + 1 + reps * n_scales
        s["passfail"] = read_csv(out / "passfail.csv")
        s["galerkin"] = read_csv(out / "galerkin.csv")
    elif w.command == "minimize-action":
        row = read_csv(out / "summary.csv")[0]
        s["ops"] += 1
        s["ops_failed"] += int(row["converged"] != "1")
        s["action"] = float(row["action"])
        s["residual"] = float(row["residual"])
        s["converged"] = row["converged"] == "1"
    return s


def check(w: Workload, s: dict, seed: int, tiny: bool) -> list[tuple[str, bool, str]]:
    """Output checks of one study: (name, passed, detail)."""
    cfg = w.settings(tiny)
    out = []
    if w.name == "tilted_scaling":
        devs = _floats(s["rows"], "deviation")
        rel = devs[-1] / _I_STAR
        mono = all(b < a for a, b in zip(devs, devs[1:]))
        out.append(("deviations_monotone", mono, f"deviations {devs}"))
        out.append(("rel_deviation_le_0.25", rel <= 0.25, f"rel {rel:.4f}"))
        if not tiny:
            ref = REFERENCE[w.name]
            factor = (
                REL_STDERR_FACTOR_DEFAULT_SEED if seed == w.default_seed
                else REL_STDERR_FACTOR_ANY_SEED
            )
            limit = factor * ref["stderr"][-1] / ref["p_hat"][-1]
            rel_se = s["rel_stderr"]
            ok = rel_se is not None and rel_se <= limit
            out.append(("rel_stderr_within_reference", ok, f"rel stderr {rel_se} <= {limit:.4f}"))
    elif w.name == "burgers_convergence":
        bad = [r["study"] for r in s["passfail"] if r["passed"] != "1"]
        out.append(("passfail_all_true", not bad, f"failed rows {bad}"))
    elif w.name == "burgers_action":
        tol = float(cfg.get("residual_tol", 1e-3))
        ok = s["converged"] and s["residual"] <= tol
        out.append(("converged_residual_le_tol", ok, f"residual {s['residual']:.3e}"))
    elif w.name == "burgers_blowup":
        b = s["blown"]
        ok = b[0] > 0 and all(x < int(cfg["replicas"]) for x in b)
        out.append(("blowups_partial", ok, f"blown {b}"))

    if tiny or seed != w.default_seed:
        return out
    ref = REFERENCE[w.name]
    if w.name == "tilted_scaling":
        p = _floats(s["rows"], "p_hat")
        ok = all(
            abs(a - r) <= P_HAT_STDERRS * e
            for a, r, e in zip(p, ref["p_hat"], ref["stderr"])
        ) and len(p) == len(ref["p_hat"])
        out.append(("reference_p_hat", ok, f"p_hat {p}"))
    elif w.name == "burgers_convergence":
        m = _floats(s["galerkin"], "mean_error")
        ok = len(m) == len(ref["galerkin_mean"]) and all(
            math.isclose(a, r, rel_tol=GALERKIN_RTOL) for a, r in zip(m, ref["galerkin_mean"])
        )
        out.append(("reference_galerkin_means", ok, f"means {m}"))
    elif w.name == "burgers_action":
        rtol = ACTION_RTOL_PER_TOL * float(cfg.get("residual_tol", 1e-3))
        ok = math.isclose(s["action"], ref["action"], rel_tol=rtol)
        out.append(("reference_action", ok, f"action {s['action']:.6g}"))
    elif w.name == "burgers_blowup":
        out.append(("reference_blown", s["blown"] == ref["blown"], f"blown {s['blown']}"))
    return out
