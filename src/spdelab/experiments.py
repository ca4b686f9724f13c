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
list; importance sampling uses stream 0 for both the plain and tilted passes
(paired seeds); the convergence studies use streams 0, 1, 2 for the
Galerkin-noise, controlled-vs-skeleton, and moment-scaling legs.

Rare-event events are threshold functionals of the terminal field: its L^2 or
L^rho norm, a single sine-mode coefficient, or a point value.
"""

from __future__ import annotations

from dataclasses import MISSING, astuple, dataclass, field, fields
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
    SolverConfig,
    _raise_first_blowup,
    _require_dealiasing,
    _sample_replicas,
    estimate_moments,
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
    "ScalingTable",
    "ScalingRow",
    "ISResult",
    "ConvergenceReport",
    "run_eps_scaling",
    "run_importance_sampling",
    "run_convergence_studies",
    "run_experiment",
    "VALID_KINDS",
]

VALID_KINDS = (
    "simulate",
    "skeleton",
    "minimize-action",
    "mc-scaling",
    "importance",
    "convergence",
    "validate",
)

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

    def hits(self, terminal: np.ndarray, grid: GridSpec, rho: float) -> np.ndarray:
        return self.values(terminal, grid, rho) >= self.threshold


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_FAMILY_KEYS = ("f_slope", "g1_slope", "g2_quad", "sigma0", "sigma1")
_EVENT_KEYS = ("event_kind", "event_param", "event_threshold")
# Fields without a key of their own: family_params holds the _FAMILY_KEYS,
# event the _EVENT_KEYS.
_COMPOSITE = ("family_params", "event")


def _parse(hint, text: str):
    """text as the annotated type: int/float/bool/str, X | None, tuple[X, ...]."""
    if get_origin(hint) is tuple:
        return tuple(_parse(get_args(hint)[0], s.strip()) for s in text.split(",") if s.strip())
    hint = next((a for a in get_args(hint) if a is not type(None)), hint)
    if hint is bool:
        return text.lower() in ("1", "true", "yes", "on")
    return hint(text)


def _conv(raw: dict, key: str, hint, default=None, required: bool = False):
    if key not in raw:
        if required:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        return _parse(hint, raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key '{key}': cannot parse {raw[key]!r}") from exc


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
        kind = raw.get("kind")
        if kind is None:
            raise ConfigError("missing required config key 'kind'")
        if kind not in VALID_KINDS:
            raise ConfigError(f"unknown kind '{kind}'; valid kinds: {VALID_KINDS}")
        keyed = [f for f in fields(cls) if f.name not in _COMPOSITE]
        known = {f.name for f in keyed}.union(_FAMILY_KEYS, _EVENT_KEYS)
        # manifest.txt writes the version line; it is not a setting.
        unknown = sorted(set(raw) - known - {"version"})
        if unknown:
            raise ConfigError(f"unknown config key '{unknown[0]}'")
        hints = get_type_hints(cls)
        values = {
            f.name: _conv(raw, f.name, hints[f.name], required=True)
            for f in keyed
            if f.name in raw or f.default is MISSING
        }
        if values.get("k_modes") == 0:
            values["k_modes"] = None
        values["family_params"] = {k: _conv(raw, k, float) for k in _FAMILY_KEYS if k in raw}
        if "event_kind" in raw or "event_threshold" in raw:
            values["event"] = EventSpec(
                kind=raw.get("event_kind", "l2_norm"),
                param=_conv(raw, "event_param", float, 1.0),
                threshold=_conv(raw, "event_threshold", float, required=True),
            )
        cfg = cls(**values)
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_raw(parse_config_file(path))

    def _validate(self):
        try:
            grid = self.grid()
            cf = self.coefficients()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.kind == "importance" and not self.eps > 0:
            raise ConfigError("config key 'eps' must be positive for importance sampling")
        if self.replicas < 1:
            raise ConfigError("replica count must be >= 1")
        if self.tilt not in ("none", "optimal"):
            raise ConfigError(f"unknown tilt '{self.tilt}' (none | optimal)")
        for key in ("k_modes", "k_noise"):
            k = getattr(self, key)
            if k is not None and not 0 <= k <= self.nx - 1:
                raise ConfigError(f"config key '{key}': {k} outside 0..{self.nx - 1}")
        if self.kind != "validate":  # every other kind steps the scheme
            try:
                _require_dealiasing(cf, grid, self.k_modes or self.nx - 1)
            except ValueError as exc:
                raise ConfigError(f"config key 'k_modes': {exc}") from exc
        if self.event is not None:
            self.event.index(grid)
        if self.control_coupling not in ("direct", "integrated"):
            raise ConfigError(
                f"unknown control_coupling '{self.control_coupling}' (direct | integrated)"
            )
        if self.eps_list:
            el = np.asarray(self.eps_list)
            if np.any(el <= 0):
                raise ConfigError("eps_list values must be positive")
            if np.any(np.diff(el) >= 0):
                raise ConfigError("eps_list must be strictly decreasing")
        if self.kind in ("mc-scaling", "convergence") and not self.eps_list:
            raise ConfigError("missing required config key 'eps_list'")
        if self.kind in ("mc-scaling", "importance") and self.event is None:
            raise ConfigError("missing required config key 'event_threshold'")

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
            data, nx, _ = read_snapshot(self.psi_file)
            if nx != grid.nx or data.shape[0] != grid.nt:
                raise ConfigError(
                    f"psi_file grid ({nx}, {data.shape[0]}) does not match "
                    f"config ({grid.nx}, {grid.nt})"
                )
            return Control(data, grid)
        if self.psi_amp == 0.0:
            return None
        profile = eigenfunction(grid, self.psi_mode, amplitude=self.psi_amp).values
        return Control(np.tile(profile, (grid.nt, 1)), grid)

    def echo(self) -> dict:
        """Effective configuration as re-runnable key = value pairs.

        Unset (None), off (False) and empty keys are left out, and so is
        out_dir, so a manifest re-runs wherever it is pointed. Off is tested
        by identity: a zero such as eta_amp = 0 equals False and is kept.
        """
        out = dict(self.family_params)
        for f in fields(self):
            value = getattr(self, f.name)
            unset = value is None or value is False or value in ((), "")
            if unset or f.name in _COMPOSITE + ("out_dir",):
                continue
            out[f.name] = ", ".join(map(format_value, value)) if isinstance(value, tuple) else value
        if self.event is not None:
            out["event_kind"] = self.event.kind
            out["event_param"] = self.event.param
            out["event_threshold"] = self.event.threshold
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


@dataclass
class ScalingTable:
    rows: list
    reference_action: float | None = None


def _tilt_control(cfg: ExperimentConfig, grid: GridSpec, cf: CoefficientSet) -> Control:
    """Optimal tilt: steer the skeleton flow to the cheapest event boundary point."""
    event = cfg.event
    if event.kind in ("l2_norm", "lp_norm"):
        mode = 1
        amp = event.threshold / lp_norm_values(
            eigenfunction(grid, 1).values, grid.dx, cfg.rho if event.kind == "lp_norm" else 2.0
        )
    elif event.kind == "mode_coeff":
        mode = int(event.param)
        amp = event.threshold
    else:
        raise ConfigError(
            "tilt = optimal supports l2_norm, lp_norm and mode_coeff events; "
            "supply psi_file for point events"
        )
    target = eigenfunction(grid, mode, amplitude=float(amp))
    return minimize_action(target, cfg.eta_field(grid), cf, grid, cfg.action_options()).psi_star


def run_eps_scaling(cfg: ExperimentConfig, psi_star: Control | None = None) -> ScalingTable:
    """Monte Carlo P(event) for each eps, plain or Girsanov-tilted.

    Emits (eps, p_hat, stderr, eps log p_hat); zero-hit cells are censored
    rather than -inf. With a reference action I*, the deviation column is
    |eps log p_hat + I*|.
    """
    grid = cfg.grid()
    cf = cfg.coefficients()
    scfg = cfg.solver_config()
    eta = cfg.eta_field(grid)
    if cfg.tilt == "optimal" and psi_star is None:
        psi_star = _tilt_control(cfg, grid, cf)
    psi = psi_star.values if psi_star is not None else None

    rows = []
    for i, eps in enumerate(cfg.eps_list):
        terminals, logw, blown = _sample_replicas(
            eta, cf, eps, grid, cfg.master_seed, cfg.replicas, i, scfg, psi,
            threads=cfg.threads,
        )
        valid = blown == 0
        if not np.any(valid):
            _raise_first_blowup(blown, cfg.master_seed, i)
        hits = cfg.event.hits(terminals[valid], grid, cfg.rho)
        if logw is not None:
            terms = np.exp(logw[valid]) * hits
        else:
            terms = hits.astype(float)
        n = int(np.sum(valid))
        p_hat = float(np.mean(terms))
        stderr = float(np.std(terms, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        censored = not p_hat > 0.0
        eps_log_p = float(eps * np.log(p_hat)) if not censored else float("nan")
        deviation = float("nan")
        if cfg.reference_action is not None and not censored:
            deviation = abs(eps_log_p + cfg.reference_action)
        rows.append(
            ScalingRow(eps, p_hat, stderr, eps_log_p, censored, deviation, cfg.replicas - n)
        )
    return ScalingTable(rows, cfg.reference_action)


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


def run_importance_sampling(cfg: ExperimentConfig, psi_star: Control | None = None) -> ISResult:
    """Tilted estimate of P(event) at cfg.eps, with a paired-seed plain baseline.

    Each replica's controlled path is reweighted by exp(girsanov log weight);
    the plain baseline reuses the same derived noise streams so the
    variance-reduction factor is a like-for-like comparison.
    """
    grid = cfg.grid()
    cf = cfg.coefficients()
    scfg = cfg.solver_config()
    eta = cfg.eta_field(grid)
    if psi_star is None:
        psi_star = cfg.psi_control(grid)
    if psi_star is None and cfg.tilt == "optimal":
        psi_star = _tilt_control(cfg, grid, cf)
    psi = psi_star.values if psi_star is not None else None

    term_plain, _, blown_p = _sample_replicas(
        eta, cf, cfg.eps, grid, cfg.master_seed, cfg.replicas, 0, scfg, None,
        threads=cfg.threads,
    )
    if psi is not None:
        term_tilt, logw, blown_t = _sample_replicas(
            eta, cf, cfg.eps, grid, cfg.master_seed, cfg.replicas, 0, scfg, psi,
            threads=cfg.threads,
        )
    else:
        term_tilt, logw, blown_t = term_plain, np.zeros(cfg.replicas), blown_p

    valid = (blown_p == 0) & (blown_t == 0)
    if not np.any(valid):
        # Both passes use stream 0; name the first blown replica with the
        # step of the pass it blew up in (the plain one if both did).
        _raise_first_blowup(np.where(blown_p > 0, blown_p, blown_t), cfg.master_seed, 0)
    n = int(np.sum(valid))
    weights = np.exp(logw[valid])
    terms = weights * cfg.event.hits(term_tilt[valid], grid, cfg.rho)
    plain_terms = cfg.event.hits(term_plain[valid], grid, cfg.rho).astype(float)

    var_tilt = float(np.var(terms, ddof=1)) if n > 1 else 0.0
    var_plain = float(np.var(plain_terms, ddof=1)) if n > 1 else 0.0
    vrf = var_plain / var_tilt if var_tilt > 0 else float("nan")
    if var_plain == 0.0:
        vrf = float("nan")
    return ISResult(
        estimate=float(np.mean(terms)),
        stderr=float(np.std(terms, ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        mean_weight=float(np.mean(weights)),
        mean_weight_stderr=float(np.std(weights, ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        plain_estimate=float(np.mean(plain_terms)),
        plain_stderr=float(np.std(plain_terms, ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        variance_reduction=vrf,
        replicas=n,
    )


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    galerkin_rows: list  # (k, mean_error, stderr)
    galerkin_errors: np.ndarray  # (replicas, len(k_list)) per-seed coupled errors
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
    stderrs = errors.std(axis=0, ddof=1) / np.sqrt(cfg.replicas) if cfg.replicas > 1 else 0 * means
    galerkin_rows = [(int(k), float(m), float(s)) for k, m, s in zip(cfg.k_list, means, stderrs)]
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

    # (iii) moment-bound ratio vs eta scaling.
    moment_rows = []
    ratios = []
    for scale in cfg.eta_scales:
        eta_s = make_field(grid, scale * eta.values)
        est = estimate_moments(
            eta_s, cf, cfg.eps, cfg.rho, cfg.replicas, grid,
            config=scfg, master_seed=cfg.master_seed, stream=2, threads=cfg.threads,
        )
        moment_rows.append((float(scale), est.estimate, est.stderr, est.ratio))
        ratios.append(est.ratio)
    moment_pass = bool(max(ratios) < 2.0 * min(ratios))

    return ConvergenceReport(
        galerkin_rows=galerkin_rows,
        galerkin_errors=errors,
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
    if kind is not None:
        raw["kind"] = kind
    if coupling is not None:
        raw["control_coupling"] = coupling
    cfg = ExperimentConfig.from_raw(raw)
    if seed is not None:
        cfg.master_seed = int(seed)
    if threads is not None:
        cfg.threads = int(threads)
    if out_dir is not None:
        cfg.out_dir = str(out_dir)
    if cfg.out_dir is None:
        raise ConfigError("missing required config key 'out_dir' (or pass --out)")
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
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
        _write_rows(out / "scaling.csv", run_eps_scaling(cfg).rows)
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
    _write_manifest(out, cfg)
    return out
