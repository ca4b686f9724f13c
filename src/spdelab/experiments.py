"""Experiment drivers: noise-intensity scaling, importance sampling, convergence
studies, assumption validation, and the configuration/persistence glue.

Every experiment is reproducible from its config plus the master seed: replica
r of the study using stream s draws its noise from the derived stream
(master_seed, r, s), chunk results land in replica-indexed arrays, and
reductions run in fixed index order, so outputs are byte-identical across
re-runs regardless of threading. All replica Monte Carlo (the tilted and
plain event studies, the Galerkin coupled errors, the moment estimates) runs
through mild_solver's replica sampler and its one chunked engine, which
draws each chunk's noise once and masks blow-ups per replica: a replica
whose state turns non-finite is frozen and reported with its first bad
step, and the studies count it as blown.

Stream allocation: eps-scaling assigns stream i to the i-th entry of the eps
list; importance sampling draws stream 0 once and steps its plain and tilted
runs on it (paired seeds); the convergence studies use streams 0, 1, 2 for the
Galerkin-noise, controlled-vs-skeleton, and moment-scaling legs.

Rare-event events are threshold functionals of the terminal field: its L^2 or
L^rho norm, a single sine-mode coefficient, or a point value. Both rare-event
studies take their tilt from _tilt (psi_file, psi_amp or tilt = optimal, at
most one), keep the _survivors of every run and reduce each run through
EventSpec.weighted_hits, exp(log w) 1{hit}, where an untilted run has log w = 0.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .action import ActionOptions, minimize_action
from .coeffs import CoefficientSet, make_coefficients, validate_assumptions
from .control import Control, solve_controlled, solve_skeleton
from .lattice import (
    Field,
    GridSpec,
    eigenfunction,
    lp_norm_values,
    make_field,
    make_grid,
    to_modes,
)
from .mild_solver import (
    _COUPLINGS,
    SolverConfig,
    _moment_estimates,
    _raise_first_blowup,
    _require_dealiasing,
    _sample_replicas,
    _stderr,
    galerkin_coupled_errors,
    solve_spde,
)
from .noise import sample_sheet_expansion
from .storage import (
    ConfigError,
    parse_config_file,
    read_snapshot,
    write_csv,
    write_snapshot,
    format_value,
)

__all__ = [
    "EventSpec",
    "ExperimentConfig",
    "ScalingRow",
    "ISResult",
    "ConvergenceReport",
    "run_eps_scaling",
    "run_importance_sampling",
    "run_convergence_studies",
    "run_experiment",
    "VALID_KINDS",
]

EVENT_KINDS = ("l2_norm", "lp_norm", "mode_coeff", "point_value")


@dataclass(frozen=True)
class EventSpec:
    """Threshold event {F(u(T)) >= threshold} on the terminal field."""

    kind: str
    param: float
    threshold: float

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ConfigError(
                f"unknown event_kind '{self.kind}'; valid kinds: {EVENT_KINDS}"
            )
        if not np.isfinite(self.threshold):
            raise ConfigError("event_threshold must be finite")

    def index(self, grid: GridSpec) -> int | None:
        """The 0-based mode (mode_coeff) or interior node (point_value) that
        event_param names on grid, None for the norms; a ConfigError when the
        grid has no such mode or node."""
        if self.kind == "mode_coeff":
            k = int(self.param)
            if not 1 <= k <= grid.n_interior:
                raise ConfigError(
                    f"config key 'event_param': mode {k} outside 1..{grid.n_interior}"
                )
            return k - 1
        if self.kind == "point_value":
            j = int(round(self.param * grid.nx)) - 1
            if not 0 <= j < grid.n_interior:
                raise ConfigError(
                    f"config key 'event_param': point {self.param} has no interior node"
                )
            return j
        return None

    def values(self, terminal: np.ndarray, grid: GridSpec, rho: float) -> np.ndarray:
        i = self.index(grid)
        if self.kind == "l2_norm":
            return lp_norm_values(terminal, grid.dx, 2.0)
        if self.kind == "lp_norm":
            return lp_norm_values(terminal, grid.dx, rho)
        if self.kind == "mode_coeff":
            return to_modes(terminal, grid)[..., i]
        return terminal[..., i]

    def weighted_hits(self, terminal, log_weights, grid: GridSpec, rho: float) -> np.ndarray:
        """exp(log w) 1{F(u(T)) >= threshold}: the estimator's term per replica."""
        return np.exp(log_weights) * (self.values(terminal, grid, rho) >= self.threshold)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_FAMILY_KEYS = ("f_slope", "g1_slope", "g2_quad", "sigma0", "sigma1")
_EVENT_KEYS = ("event_kind", "event_param", "event_threshold")
# The config keys each kind reads: the _COMMON ones and its _READS entry. Any
# other key set in a config is an error, and manifest.txt records only these.
_COMMON = ("kind", "master_seed", "nx", "nt", "T", "family", *_FAMILY_KEYS, "rho", "out_dir")
_ETA = ("k_modes", "eta_mode", "eta_amp")
_PSI = ("psi_mode", "psi_amp", "psi_file")
_EVENT_STUDY = (*_ETA, "replicas", "k_noise", "threads", "tilt", *_EVENT_KEYS, *_PSI,
                "control_coupling", "residual_tol", "max_iters")
_READS = {
    "simulate": (*_ETA, "eps", "k_noise", "dump_noise"),
    "skeleton": (*_ETA, *_PSI, "control_coupling"),
    "minimize-action": (*_ETA, "control_coupling", "residual_tol", "max_iters",
                        "target_mode", "target_amp"),
    "mc-scaling": (*_EVENT_STUDY, "eps_list", "reference_action"),
    "importance": (*_EVENT_STUDY, "eps"),
    "convergence": (*_ETA, *_PSI, "eps", "eps_list", "replicas", "k_noise", "threads",
                    "control_coupling", "k_list", "eta_scales"),
    "validate": ("box_r", "n_samples"),
}
VALID_KINDS = tuple(_READS)


def _reads(kind: str, event_kind: str | None) -> set[str]:
    """The keys kind reads; a norm event (l2_norm, lp_norm) takes no event_param."""
    keys = {*_COMMON, *_READS[kind]}
    if event_kind in ("l2_norm", "lp_norm"):
        keys.discard("event_param")
    return keys


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse(hint, text: str):
    """text as the annotated type: int/float/bool/str, X | None, tuple[X, ...]."""
    if get_origin(hint) is tuple:
        return tuple(_parse(get_args(hint)[0], s.strip()) for s in text.split(",") if s.strip())
    hint = next((a for a in get_args(hint) if a is not type(None)), hint)
    if hint is bool:
        return _BOOLS[text.lower()]
    return hint(text)


def _conv(raw: dict, key: str, hint, default=None, required: bool = False):
    if key not in raw:
        if required:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        value = _parse(hint, raw[key])
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"config key '{key}': cannot parse {raw[key]!r}") from exc
    # Every float must be finite, except rho: rho = inf is the sup norm.
    floats = [v for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, float)]
    if key != "rho" and not np.all(np.isfinite(floats)):
        raise ConfigError(f"config key '{key}': {raw[key]!r} is not finite")
    return value


@dataclass
class ExperimentConfig:
    """One experiment. Each field is the config key of the same name, parsed
    by its annotation; family_params holds the family parameter keys, event
    the event_* keys, and k_modes = 0 means all modes."""

    kind: str
    master_seed: int
    nx: int = 64
    nt: int = 256
    T: float = 0.5
    family: str = "linear"
    family_params: dict = field(default_factory=dict)
    rho: float = 8.0
    eps: float = 0.1
    eps_list: tuple[float, ...] = ()
    replicas: int = 1000
    k_modes: int | None = None
    k_noise: int | None = None
    eta_mode: int = 1
    eta_amp: float = 0.0
    event: EventSpec | None = None
    tilt: str = "none"
    psi_mode: int = 1
    psi_amp: float = 0.0
    psi_file: str | None = None
    control_coupling: str = "direct"
    reference_action: float | None = None
    k_list: tuple[int, ...] = (4, 16, 64)
    eta_scales: tuple[float, ...] = (1.0, 2.0, 4.0)
    target_mode: int = 1
    target_amp: float = 1.0
    residual_tol: float = 1e-3
    max_iters: int = 3000
    box_r: float = 100.0
    n_samples: int = 20000
    dump_noise: bool = False
    out_dir: str | None = None
    threads: int = 1

    @classmethod
    def from_raw(cls, raw: dict[str, str]) -> "ExperimentConfig":
        for key in ("kind", "master_seed"):
            if key not in raw:
                raise ConfigError(f"missing required config key '{key}'")
        kind, event_kind = raw["kind"], raw.get("event_kind", "l2_norm")
        if kind not in VALID_KINDS:
            raise ConfigError(f"unknown kind '{kind}'; valid kinds: {VALID_KINDS}")
        # manifest.txt writes the version line; it is not a setting.
        unread = sorted(set(raw) - _reads(kind, event_kind) - {"version"})
        if unread and unread[0] not in set(_COMMON).union(*_READS.values()):
            raise ConfigError(f"unknown config key '{unread[0]}'")
        if unread:
            raise ConfigError(f"config key '{unread[0]}': {kind} does not read it")
        # Every key left is read; a field's key is parsed by its annotation.
        hints = get_type_hints(cls)
        values = {key: _conv(raw, key, hints[key]) for key in raw if key in hints}
        if values.get("k_modes") == 0:
            values["k_modes"] = None
        values["family_params"] = {k: _conv(raw, k, float) for k in _FAMILY_KEYS if k in raw}
        if "event_kind" in raw or "event_threshold" in raw:
            values["event"] = EventSpec(
                kind=event_kind,
                param=_conv(raw, "event_param", float, 1.0),
                threshold=_conv(raw, "event_threshold", float, required=True),
            )
        cfg = cls(**values)
        cfg._validate()
        return cfg

    def _validate(self):
        try:
            grid = self.grid()
            cf = self.coefficients()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.kind == "importance" and not self.eps > 0:
            raise ConfigError("config key 'eps' must be positive for importance sampling")
        if not self.eps >= 0:
            raise ConfigError(f"config key 'eps': {self.eps} must be >= 0")
        if self.n_samples < 1:
            raise ConfigError(f"config key 'n_samples': {self.n_samples} must be >= 1")
        if not self.box_r > 0:
            raise ConfigError(f"config key 'box_r': {self.box_r} must be positive")
        if self.replicas < 1:
            raise ConfigError(f"config key 'replicas': {self.replicas} must be >= 1")
        if self.threads < 1:
            raise ConfigError(f"config key 'threads': {self.threads} must be >= 1")
        if self.tilt not in ("none", "optimal"):
            raise ConfigError(f"unknown tilt '{self.tilt}' (none | optimal)")
        for key in ("k_modes", "k_noise"):
            k = getattr(self, key)
            if k is not None and not 0 <= k <= self.nx - 1:
                raise ConfigError(f"config key '{key}': {k} outside 0..{self.nx - 1}")
        for key in ("eta_mode", "psi_mode", "target_mode"):
            k = getattr(self, key)
            if not 1 <= k <= self.nx - 1:
                raise ConfigError(f"config key '{key}': mode {k} outside 1..{self.nx - 1}")
        if self.kind != "validate":  # every other kind steps the scheme
            try:
                _require_dealiasing(cf, grid, self.k_modes or self.nx - 1)
            except ValueError as exc:
                raise ConfigError(f"config key 'k_modes': {exc}") from exc
        if self.event is not None:
            self.event.index(grid)
        if self.control_coupling not in _COUPLINGS:
            raise ConfigError(
                f"unknown control_coupling '{self.control_coupling}' ({' | '.join(_COUPLINGS)})"
            )
        if self.eps_list:
            el = np.asarray(self.eps_list)
            if np.any(el <= 0):
                raise ConfigError("eps_list values must be positive")
            if np.any(np.diff(el) >= 0):
                raise ConfigError("eps_list must be strictly decreasing")
        if self.kind in ("mc-scaling", "convergence") and not self.eps_list:
            raise ConfigError("missing required config key 'eps_list'")
        if self.kind == "convergence":
            for key in ("k_list", "eta_scales"):
                if not getattr(self, key):
                    raise ConfigError(f"config key '{key}' must list at least one value")
            for k in self.k_list:
                if not 0 <= k <= self.nx - 1:
                    raise ConfigError(f"config key 'k_list': {k} outside 0..{self.nx - 1}")
        if self.psi_file:
            self.psi_control(grid)
        if self.kind in ("mc-scaling", "importance"):
            if self.event is None:
                raise ConfigError("missing required config key 'event_threshold'")
            tilts = [key for key, on in (("psi_file", self.psi_file), ("psi_amp", self.psi_amp),
                                         ("tilt", self.tilt == "optimal")) if on]
            if len(tilts) > 1:
                raise ConfigError(f"config keys {tilts} each set a tilt; {self.kind} takes one")
            if self.tilt == "optimal" and self.event.kind == "point_value":
                raise ConfigError("config key 'tilt': optimal has no point_value target")

    # -- derived objects ---------------------------------------------------

    def grid(self) -> GridSpec:
        return make_grid(self.nx, self.nt, self.T)

    def coefficients(self) -> CoefficientSet:
        return make_coefficients(self.family, rho=self.rho, **self.family_params)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            k_modes=self.k_modes,
            k_noise=self.k_noise,
            control_coupling=self.control_coupling,
        )

    def action_options(self) -> ActionOptions:
        return ActionOptions(
            residual_tol=self.residual_tol,
            max_iters=self.max_iters,
            k_modes=self.k_modes,
            coupling=self.control_coupling,
        )

    def eta_field(self, grid: GridSpec) -> Field:
        if self.eta_amp == 0.0:
            return make_field(grid, np.zeros(grid.n_interior))
        return eigenfunction(grid, self.eta_mode, amplitude=self.eta_amp)

    def psi_control(self, grid: GridSpec) -> Control | None:
        if self.psi_file:
            try:
                data, nx, _ = read_snapshot(self.psi_file)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"config key 'psi_file': {exc}") from exc
            if nx != grid.nx or data.shape[0] != grid.nt:
                raise ConfigError(
                    f"config key 'psi_file': grid ({nx}, {data.shape[0]}) does not match "
                    f"config ({grid.nx}, {grid.nt})"
                )
            return Control(data, grid)
        if self.psi_amp == 0.0:
            return None
        profile = eigenfunction(grid, self.psi_mode, amplitude=self.psi_amp).values
        return Control(np.tile(profile, (grid.nt, 1)), grid)

    def echo(self) -> dict:
        """Effective configuration of the keys the kind reads, as re-runnable
        key = value pairs.

        Unset (None), off (False) and empty keys are left out, and so is
        out_dir, so a manifest re-runs wherever it is pointed. Off is tested
        by identity: a zero such as eta_amp = 0 equals False and is kept.
        """
        values = {**vars(self), **self.family_params}
        if self.event is not None:
            values.update(event_kind=self.event.kind, event_param=self.event.param,
                          event_threshold=self.event.threshold)
        out = {}
        for key in _reads(self.kind, self.event and self.event.kind) - {"out_dir"}:
            value = values.get(key)
            if value is None or value is False or value in ((), ""):
                continue
            out[key] = ", ".join(map(format_value, value)) if isinstance(value, tuple) else value
        return out


# ---------------------------------------------------------------------------
# eps-scaling study
# ---------------------------------------------------------------------------


@dataclass
class ScalingRow:
    eps: float
    p_hat: float
    stderr: float
    eps_log_p: float  # nan when censored
    censored: bool
    deviation: float  # |eps log p + I*|, nan without a reference
    blown: int = 0


def _tilt(cfg: ExperimentConfig, grid: GridSpec, cf: CoefficientSet) -> np.ndarray | None:
    """The study's tilt (nt, nx-1): psi_file, else psi_amp != 0, else the
    tilt = optimal solve, else None. _validate admits at most one of them."""
    psi = cfg.psi_control(grid)
    if psi is None and cfg.tilt == "optimal":
        psi = _tilt_control(cfg, grid, cf)
    return None if psi is None else psi.values


def _tilt_control(cfg: ExperimentConfig, grid: GridSpec, cf: CoefficientSet) -> Control:
    """Optimal tilt: steer the skeleton flow to the cheapest event boundary point."""
    event = cfg.event
    if event.kind == "mode_coeff":
        mode, amp = int(event.param), event.threshold
    else:  # l2_norm or lp_norm; _validate rejects point_value
        rho = cfg.rho if event.kind == "lp_norm" else 2.0
        mode, amp = 1, event.threshold / lp_norm_values(eigenfunction(grid, 1).values, grid.dx, rho)
    target = eigenfunction(grid, mode, amplitude=float(amp))
    return minimize_action(target, cfg.eta_field(grid), cf, grid, cfg.action_options()).psi_star


def _survivors(blown: np.ndarray, master: int, stream: int) -> np.ndarray:
    """Mask of the replicas that blew up in no run; blown is (runs, replicas).
    When none survived, raise BlowUpError for replica 0 at the step of its
    first blown run, runs in order (the plain one first)."""
    valid = ~blown.any(axis=0)
    if not valid.any():
        steps = blown[:, 0]
        _raise_first_blowup(steps[steps > 0][:1], master, stream)
    return valid


def run_eps_scaling(cfg: ExperimentConfig) -> list[ScalingRow]:
    """Monte Carlo P(event) for each eps, plain or Girsanov-tilted.

    Emits (eps, p_hat, stderr, eps log p_hat); zero-hit cells are censored
    rather than -inf. With a reference action I*, the deviation column is
    |eps log p_hat + I*|.
    """
    grid = cfg.grid()
    cf = cfg.coefficients()
    scfg = cfg.solver_config()
    eta = cfg.eta_field(grid)
    psi = _tilt(cfg, grid, cf)

    rows = []
    for i, eps in enumerate(cfg.eps_list):
        terminals, logw, blown = _sample_replicas(
            [eta], cf, eps, grid, cfg.master_seed, cfg.replicas, i, scfg, [psi],
            threads=cfg.threads,
        )
        valid = _survivors(blown, cfg.master_seed, i)
        terms = cfg.event.weighted_hits(terminals[0][valid], logw[0][valid], grid, cfg.rho)
        p_hat = float(np.mean(terms))
        stderr = float(_stderr(terms))
        censored = not p_hat > 0.0
        eps_log_p = float(eps * np.log(p_hat)) if not censored else float("nan")
        deviation = float("nan")
        if cfg.reference_action is not None and not censored:
            deviation = abs(eps_log_p + cfg.reference_action)
        blown_n = cfg.replicas - terms.size
        rows.append(ScalingRow(eps, p_hat, stderr, eps_log_p, censored, deviation, blown_n))
    return rows


# ---------------------------------------------------------------------------
# Importance sampling with paired-seed baseline
# ---------------------------------------------------------------------------


@dataclass
class ISResult:
    estimate: float
    stderr: float
    mean_weight: float
    mean_weight_stderr: float
    plain_estimate: float
    plain_stderr: float
    variance_reduction: float  # nan when the plain baseline has zero variance
    replicas: int


def run_importance_sampling(cfg: ExperimentConfig) -> ISResult:
    """Tilted estimate of P(event) at cfg.eps, with a paired-seed plain baseline.

    Each replica's controlled path is reweighted by exp(girsanov log weight);
    the plain baseline runs on the same derived noise streams so the
    variance-reduction factor is a like-for-like comparison. Both runs of a
    replica step as one stacked batch on its one draw of stream 0; without a
    tilt the plain run is the only one and serves as both.
    """
    grid = cfg.grid()
    cf = cfg.coefficients()
    psi = _tilt(cfg, grid, cf)
    psis = [None] if psi is None else [None, psi]
    terminals, logw, blown = _sample_replicas(
        [cfg.eta_field(grid)] * len(psis), cf, cfg.eps, grid, cfg.master_seed,
        cfg.replicas, 0, cfg.solver_config(), psis, threads=cfg.threads,
    )
    return _importance_result(cfg, grid, terminals, logw, blown)


def _importance_result(cfg, grid, terminals, log_weights, blown) -> ISResult:
    """Reduce a study's stacked runs to its ISResult: run 0 is the plain
    baseline and the last run the tilted one."""
    valid = _survivors(blown, cfg.master_seed, 0)
    n = int(np.sum(valid))
    plain_terms, terms = (
        cfg.event.weighted_hits(terminals[i][valid], log_weights[i][valid], grid, cfg.rho)
        for i in (0, -1)
    )
    weights = np.exp(log_weights[-1][valid])

    var_tilt = float(np.var(terms, ddof=1)) if n > 1 else 0.0
    var_plain = float(np.var(plain_terms, ddof=1)) if n > 1 else 0.0
    vrf = var_plain / var_tilt if var_tilt > 0 and var_plain > 0 else float("nan")
    return ISResult(
        estimate=float(np.mean(terms)),
        stderr=float(_stderr(terms)),
        mean_weight=float(np.mean(weights)),
        mean_weight_stderr=float(_stderr(weights)),
        plain_estimate=float(np.mean(plain_terms)),
        plain_stderr=float(_stderr(plain_terms)),
        variance_reduction=vrf,
        replicas=n,
    )


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    galerkin_rows: list  # (k, mean_error, stderr)
    galerkin_pass: bool
    controlled_rows: list  # (eps, distance)
    controlled_pass: bool
    moment_rows: list  # (scale, estimate, stderr, ratio)
    moment_pass: bool

    GALERKIN_HEADER = ("k", "mean_error", "stderr")
    CONTROLLED_HEADER = ("eps", "distance")
    MOMENT_HEADER = ("scale", "estimate", "stderr", "ratio")


def run_convergence_studies(cfg: ExperimentConfig) -> ConvergenceReport:
    """Three CSV-ready studies: Galerkin-noise error vs k, controlled-to-skeleton
    distance vs eps, and the moment-bound ratio vs initial-datum scaling."""
    grid = cfg.grid()
    cf = cfg.coefficients()
    scfg = cfg.solver_config()
    eta = cfg.eta_field(grid)

    # (i) Galerkin-noise coupled error vs k.
    errors = galerkin_coupled_errors(
        eta, cf, cfg.eps, grid, cfg.master_seed, cfg.replicas, cfg.k_list,
        stream=0, k_modes=cfg.k_modes, threads=cfg.threads,
    )
    means = errors.mean(axis=0)
    galerkin_rows = [
        (int(k), float(m), float(s)) for k, m, s in zip(cfg.k_list, means, _stderr(errors))
    ]
    galerkin_pass = bool(np.all(np.diff(means) < 0))

    # (ii) controlled-to-skeleton distance vs eps at fixed seed and control.
    psi = cfg.psi_control(grid)
    skeleton = solve_skeleton(eta, cf, psi, grid, scfg)
    controlled_rows = []
    for eps in cfg.eps_list:
        v = solve_controlled(
            eta, cf, psi, eps, cfg.master_seed, grid, scfg, replica=0, stream=1
        )
        controlled_rows.append((float(eps), v.distance_to(skeleton)))
    dists = [d for _, d in controlled_rows]
    controlled_pass = bool(np.all(np.diff(dists) < 0))

    # (iii) moment-bound ratio vs eta scaling, every scale on each replica's
    # one noise draw.
    estimates = _moment_estimates(
        [make_field(grid, scale * eta.values) for scale in cfg.eta_scales],
        cf, cfg.eps, cfg.rho, cfg.replicas, grid,
        config=scfg, master_seed=cfg.master_seed, stream=2, threads=cfg.threads,
    )
    moment_rows = [
        (float(scale), est.estimate, est.stderr, est.ratio)
        for scale, est in zip(cfg.eta_scales, estimates)
    ]
    ratios = [est.ratio for est in estimates]
    moment_pass = bool(max(ratios) < 2.0 * min(ratios))

    return ConvergenceReport(
        galerkin_rows=galerkin_rows,
        galerkin_pass=galerkin_pass,
        controlled_rows=controlled_rows,
        controlled_pass=controlled_pass,
        moment_rows=moment_rows,
        moment_pass=moment_pass,
    )


# ---------------------------------------------------------------------------
# Top-level driver with on-disk artifacts
# ---------------------------------------------------------------------------


def _write_manifest(out: Path, cfg: ExperimentConfig) -> None:
    lines = ["# spdelab experiment manifest (re-runnable as a config file)"]
    lines.append(f"version = {__version__}")
    for key, value in sorted(cfg.echo().items()):
        lines.append(f"{key} = {format_value(value)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_rows(path: Path, rows: list) -> None:
    """A CSV whose columns are the fields of the dataclass rows."""
    header = [f.name for f in fields(rows[0])]
    write_csv(path, header, [astuple(r) for r in rows])


def _write_path_outputs(out: Path, sol, grid: GridSpec) -> None:
    write_snapshot(out / "path.spdefld", sol.fields, grid.nx, grid.T)
    rows = [
        (m, grid.t[m], sol.rho_norms[m], sol.linf_norms[m])
        for m in range(grid.nt + 1)
    ]
    write_csv(out / "diagnostics.csv", ("step", "t", "rho_norm", "linf_norm"), rows)


def run_experiment(
    config_path,
    out_dir=None,
    seed: int | None = None,
    threads: int | None = None,
    kind: str | None = None,
    coupling: str | None = None,
) -> Path:
    """Dispatch a config file to its driver and persist artifacts plus manifest.

    Outputs are byte-deterministic given (config, master seed). Returns the
    output directory.
    """
    raw = parse_config_file(config_path)
    # Overrides replace config keys before parsing, so they are checked alike.
    overrides = {
        "kind": kind,
        "control_coupling": coupling,
        "master_seed": seed,
        "threads": threads,
        "out_dir": out_dir,
    }
    raw.update((k, str(v)) for k, v in overrides.items() if v is not None)
    cfg = ExperimentConfig.from_raw(raw)
    if cfg.out_dir is None:
        raise ConfigError("missing required config key 'out_dir' (or pass --out)")
    out = Path(cfg.out_dir)
    # The manifest goes first, so a run that fails still says what it ran.
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out, cfg)
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc

    grid = cfg.grid()
    cf = cfg.coefficients()
    scfg = cfg.solver_config()

    if cfg.kind == "simulate":
        sol = solve_spde(cfg.eta_field(grid), cf, cfg.eps, cfg.master_seed, grid, scfg)
        _write_path_outputs(out, sol, grid)
        if cfg.dump_noise:
            nz = sample_sheet_expansion(grid, scfg.noise_modes(grid), cfg.master_seed)
            write_snapshot(out / "noise.spdefld", nz.white_increments, grid.nx, grid.T)
    elif cfg.kind == "skeleton":
        sol = solve_skeleton(cfg.eta_field(grid), cf, cfg.psi_control(grid), grid, scfg)
        _write_path_outputs(out, sol, grid)
    elif cfg.kind == "minimize-action":
        target = eigenfunction(grid, cfg.target_mode, amplitude=cfg.target_amp)
        res = minimize_action(target, cfg.eta_field(grid), cf, grid, cfg.action_options())
        write_snapshot(out / "psi_star.spdefld", res.psi_star.values, grid.nx, grid.T)
        write_csv(
            out / "trace.csv",
            ("iter", "objective", "action", "residual", "mu"),
            res.trace,
        )
        write_csv(
            out / "summary.csv",
            ("action", "residual", "iterations", "converged"),
            [(res.action, res.residual, res.iterations, res.converged)],
        )
        print(
            f"minimize-action: I = {res.action:.6g}, residual = {res.residual:.3g}, "
            f"iterations = {res.iterations}, converged = {res.converged}"
        )
    elif cfg.kind == "mc-scaling":
        _write_rows(out / "scaling.csv", run_eps_scaling(cfg))
    elif cfg.kind == "importance":
        _write_rows(out / "importance.csv", [run_importance_sampling(cfg)])
    elif cfg.kind == "convergence":
        report = run_convergence_studies(cfg)
        write_csv(out / "galerkin.csv", ConvergenceReport.GALERKIN_HEADER, report.galerkin_rows)
        write_csv(out / "controlled.csv", ConvergenceReport.CONTROLLED_HEADER, report.controlled_rows)
        write_csv(out / "moments.csv", ConvergenceReport.MOMENT_HEADER, report.moment_rows)
        write_csv(
            out / "passfail.csv",
            ("study", "passed"),
            [
                ("galerkin_monotone", report.galerkin_pass),
                ("controlled_monotone", report.controlled_pass),
                ("moment_ratio_factor2", report.moment_pass),
            ],
        )
    elif cfg.kind == "validate":
        report = validate_assumptions(
            cf, r_range=(-cfg.box_r, cfg.box_r), n_samples=cfg.n_samples,
            seed=cfg.master_seed,
        )
        rows = [
            (c.name, c.ok, c.worst_ratio, c.witness[0], c.witness[1], c.witness[2])
            for c in report.checks
        ]
        write_csv(
            out / "assumptions.csv",
            ("check", "ok", "worst_ratio", "witness_t", "witness_x", "witness_r"),
            rows,
        )
        for w in report.warnings:
            print(f"warning: {w}")
    return out
