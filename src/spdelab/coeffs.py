"""Coefficient triples (f, g = g1 + g2, sigma), truncations, and the cutoff weight.

Evaluators are vectorized callables f(t, x, r), g1(t, x, r), g2(t, r),
sigma(t, x, r) with r an array (x broadcasts against r). Growth and Lipschitz
constants travel with the set so that the sampled assumption checks have
declared bounds to verify:

    |sigma| <= K(1+|r|)   globally Lipschitz with constant L_sigma
    |f|     <= K(1+|r|)   |g1| <= K(1+|r|)   |g2| <= K(1+|r|^2)
    |f(p)-f(q)| + |g(p)-g(q)| <= L (1+|p|+|q|) |p-q|

The exponent rho must exceed 6 for the solution theory; smaller values set an
out-of-theory flag rather than refusing to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "CoefficientSet",
    "AssumptionReport",
    "chi_R",
    "chi_R_prime",
    "CHI_MAX_SLOPE",
    "make_coefficients",
    "truncate_coefficients",
    "validate_assumptions",
]

RHO_DEFAULT = 8.0
FAMILIES = ("burgers", "linear", "reaction")

# Peak slope of the quintic smoothstep bridge, attained mid-bridge.
CHI_MAX_SLOPE = 15.0 / 8.0


def chi_R(r, R: float):
    """Cutoff weight: 1 on |r| <= R, 0 on |r| >= R+1, quintic smoothstep between."""
    if R < 0:
        raise ValueError("cutoff radius must be >= 0")
    s = np.clip(np.abs(np.asarray(r, dtype=float)) - R, 0.0, 1.0)
    out = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
    return out if out.shape else float(out)


def chi_R_prime(r, R: float):
    """d/dr of chi_R (odd in r, bounded by 15/8 in magnitude)."""
    if R < 0:
        raise ValueError("cutoff radius must be >= 0")
    r = np.asarray(r, dtype=float)
    a = np.abs(r)
    s = np.clip(a - R, 0.0, 1.0)
    mag = -30.0 * s * s * (1.0 - s) ** 2
    out = np.where((a > R) & (a < R + 1.0), mag * np.sign(r), 0.0)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluators plus declared constants for one coefficient triple."""

    f: Callable
    g1: Callable
    g2: Callable
    sigma: Callable
    K: float
    L: float
    L_sigma: float
    rho: float = RHO_DEFAULT
    family: str = "custom"
    df_dr: Callable | None = None
    dg1_dr: Callable | None = None
    dg2_dr: Callable | None = None
    dsigma_dr: Callable | None = None
    # Structural shortcuts the solvers may exploit; families set them from
    # their parameters, custom sets leave them conservative.
    f_is_zero: bool = False
    g_is_zero: bool = False
    sigma_const: float | None = None

    def __post_init__(self):
        for name in ("K", "L", "L_sigma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"declared constant {name} must be positive")
        if not self.rho >= 1:
            raise ValueError("rho must be >= 1")

    @property
    def out_of_theory(self) -> bool:
        return self.rho <= 6.0

    def g(self, t, x, r):
        return self.g1(t, x, r) + self.g2(t, r)

    def f_r(self, t, x, r):
        return _derivative(self.df_dr, self.f, t, x, r)

    def g_r(self, t, x, r):
        return _derivative(self.dg1_dr, self.g1, t, x, r) + _derivative(
            self.dg2_dr, self.g2, t, r
        )

    def sigma_r(self, t, x, r):
        return _derivative(self.dsigma_dr, self.sigma, t, x, r)


def _derivative(dfn, fn, *args):
    """d/dr of fn at args = (..., r): the analytic dfn when given, else a
    central difference whose step scales with |r| to keep the quotient well
    conditioned."""
    if dfn is not None:
        return dfn(*args)
    *head, r = args
    h = 1e-6 * (1.0 + np.abs(r))
    return (fn(*head, r + h) - fn(*head, r - h)) / (2.0 * h)


def make_coefficients(family: str, rho: float = RHO_DEFAULT, **params) -> CoefficientSet:
    """Builtin families with analytically known constants.

    burgers:  f = 0, g1 = 0, g2 = r^2,        sigma = sigma0 + sigma1 * r
    linear:   f = f_slope * r, g = 0,          sigma = sigma0 (constant)
    reaction: f = f_slope * r, g1 = g1_slope * r, g2 = g2_quad * r^2,
              sigma = sigma0 + sigma1 * r
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family '{family}'; choose one of {FAMILIES}")
    allowed = {
        "burgers": {"sigma0", "sigma1"},
        "linear": {"f_slope", "sigma0"},
        "reaction": {"f_slope", "g1_slope", "g2_quad", "sigma0", "sigma1"},
    }[family]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"family '{family}' does not take parameters {sorted(unknown)}")
    vals = {k: float(v) for k, v in params.items()}
    if not all(np.isfinite(v) for v in vals.values()):
        raise ValueError("coefficient parameters must be finite")
    sigma0 = vals.get("sigma0", 1.0)
    sigma1 = vals.get("sigma1", 0.0)
    f_slope = vals.get("f_slope", 0.0)
    g1_slope = vals.get("g1_slope", 0.0)
    g2_quad = vals.get("g2_quad", 1.0 if family == "burgers" else 0.0)
    if family == "burgers":
        f_slope = 0.0
        g1_slope = 0.0
        g2_quad = 1.0
    if family == "linear":
        sigma1 = 0.0
        g1_slope = 0.0
        g2_quad = 0.0

    def f(t, x, r, c=f_slope):
        return c * np.asarray(r, dtype=float)

    def g1(t, x, r, c=g1_slope):
        return c * np.asarray(r, dtype=float)

    def g2(t, r, c=g2_quad):
        r = np.asarray(r, dtype=float)
        return c * r * r

    def sigma(t, x, r, s0=sigma0, s1=sigma1):
        return s0 + s1 * np.asarray(r, dtype=float)

    def df(t, x, r, c=f_slope):
        return np.full_like(np.asarray(r, dtype=float), c)

    def dg1(t, x, r, c=g1_slope):
        return np.full_like(np.asarray(r, dtype=float), c)

    def dg2(t, r, c=g2_quad):
        return 2.0 * c * np.asarray(r, dtype=float)

    def dsigma(t, x, r, s1=sigma1):
        return np.full_like(np.asarray(r, dtype=float), s1)

    # Declared constants are valid upper bounds; floor at 1 keeps them positive
    # even for degenerate parameter choices (zero slopes, constant sigma).
    K = max(1.0, abs(sigma0), abs(sigma1), abs(f_slope), abs(g1_slope), abs(g2_quad))
    L = max(1.0, abs(f_slope), abs(g1_slope), 2.0 * abs(g2_quad))
    L_sigma = max(abs(sigma1), 1e-12) if sigma1 != 0.0 else 1.0
    return CoefficientSet(
        f=f,
        g1=g1,
        g2=g2,
        sigma=sigma,
        K=K,
        L=L,
        L_sigma=L_sigma,
        rho=float(rho),
        family=family,
        df_dr=df,
        dg1_dr=dg1,
        dg2_dr=dg2,
        dsigma_dr=dsigma,
        f_is_zero=(f_slope == 0.0),
        g_is_zero=(g1_slope == 0.0 and g2_quad == 0.0),
        sigma_const=sigma0 if sigma1 == 0.0 else None,
    )


def truncate_coefficients(cset: CoefficientSet, n: int) -> CoefficientSet:
    """Level-n truncation: original on |r| <= n, zero on |r| >= n+1.

    The bridge multiplies each evaluator by the quintic cutoff chi_n(|r|),
    which keeps the truncated triple globally Lipschitz. The growth constant
    K is unchanged (chi <= 1); the generalized Lipschitz constant gains at
    most K * 15/8 uniformly in n, while the plain Lipschitz constant of
    sigma_n picks up the bridge slope against sigma's linear growth, which
    scales with n and is reported accordingly.
    """
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    n = int(n)

    def cut(fn, dfn):
        # fn * chi_n(r) and its r-derivative, for evaluators taking (..., r).
        def fn_n(*args):
            return fn(*args) * chi_R(args[-1], n)

        def dfn_n(*args):
            r = args[-1]
            return _derivative(dfn, fn, *args) * chi_R(r, n) + fn(*args) * chi_R_prime(r, n)

        return fn_n, dfn_n

    f, df = cut(cset.f, cset.df_dr)
    g1, dg1 = cut(cset.g1, cset.dg1_dr)
    g2, dg2 = cut(cset.g2, cset.dg2_dr)
    sigma, dsig = cut(cset.sigma, cset.dsigma_dr)
    return replace(
        cset,
        f=f,
        g1=g1,
        g2=g2,
        sigma=sigma,
        L=cset.L + CHI_MAX_SLOPE * cset.K,
        L_sigma=cset.L_sigma + CHI_MAX_SLOPE * cset.K * (n + 2.0),
        family=f"{cset.family}|trunc{n}",
        df_dr=df,
        dg1_dr=dg1,
        dg2_dr=dg2,
        dsigma_dr=dsig,
        sigma_const=None,
    )


# ---------------------------------------------------------------------------
# Sampled assumption checks. Coefficients are black boxes, so the growth and
# Lipschitz conditions are verified on random points of a bounded
# (t, x, r)-box rather than symbolically.
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    worst_ratio: float
    witness: tuple


@dataclass
class AssumptionReport:
    checks: list
    warnings: list

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.ok]


def validate_assumptions(
    cset: CoefficientSet,
    t_range=(0.0, 1.0),
    r_range=(-100.0, 100.0),
    n_samples: int = 10000,
    seed: int = 0,
    tol: float = 1e-9,
) -> AssumptionReport:
    """Sample the (t, x, r)-box and check the declared growth/Lipschitz bounds."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (t_range[1] >= t_range[0] and r_range[1] > r_range[0]):
        raise ValueError("empty box")
    rng = np.random.default_rng(seed)
    t = rng.uniform(t_range[0], t_range[1], n_samples)
    x = rng.uniform(0.0, 1.0, n_samples)
    r = rng.uniform(r_range[0], r_range[1], n_samples)
    p = rng.uniform(r_range[0], r_range[1], n_samples)

    checks = []

    def growth_check(name, values, bound):
        ratio = np.abs(values) / bound
        i = int(np.argmax(ratio))
        checks.append(
            CheckResult(
                name=name,
                ok=bool(ratio[i] <= 1.0 + tol),
                worst_ratio=float(ratio[i]),
                witness=(float(t[i]), float(x[i]), float(r[i])),
            )
        )

    lin = cset.K * (1.0 + np.abs(r))
    growth_check("sigma growth (H2)", _eval_pointwise(cset.sigma, t, x, r), lin)
    growth_check("f growth (H5)", _eval_pointwise(cset.f, t, x, r), lin)
    growth_check("g1 growth (H4)", _eval_pointwise(cset.g1, t, x, r), lin)
    growth_check(
        "g2 growth (H4)",
        _eval_pointwise(cset.g2, t, r),
        cset.K * (1.0 + r * r),
    )

    # Local Lipschitz (H3) on the pair set {(r_i, p_i)}.
    df = np.abs(_eval_pointwise(cset.f, t, x, r) - _eval_pointwise(cset.f, t, x, p))
    dg = np.abs(
        _eval_pointwise(cset.g1, t, x, r)
        + _eval_pointwise(cset.g2, t, r)
        - _eval_pointwise(cset.g1, t, x, p)
        - _eval_pointwise(cset.g2, t, p)
    )
    denom = cset.L * (1.0 + np.abs(r) + np.abs(p)) * np.maximum(np.abs(r - p), 1e-300)
    ratio = (df + dg) / denom
    i = int(np.argmax(ratio))
    checks.append(
        CheckResult(
            "f,g local Lipschitz (H3)",
            bool(ratio[i] <= 1.0 + 1e-6),
            float(ratio[i]),
            (float(t[i]), float(x[i]), float(r[i])),
        )
    )

    dsig = np.abs(
        _eval_pointwise(cset.sigma, t, x, r) - _eval_pointwise(cset.sigma, t, x, p)
    )
    ratio = dsig / (cset.L_sigma * np.maximum(np.abs(r - p), 1e-300))
    i = int(np.argmax(ratio))
    checks.append(
        CheckResult(
            "sigma global Lipschitz (H2)",
            bool(ratio[i] <= 1.0 + 1e-6),
            float(ratio[i]),
            (float(t[i]), float(x[i]), float(r[i])),
        )
    )

    warnings = []
    if cset.rho <= 6.0:
        warnings.append(f"(H1) requires rho > 6; set has rho = {cset.rho}")
    return AssumptionReport(checks=checks, warnings=warnings)


def _eval_pointwise(fn, *args):
    # fn(*args) with args = (..., r) sample arrays. Vectorized call first;
    # scalar loop fallback for evaluators that assume scalar arguments.
    r = args[-1]
    try:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape == r.shape:
            return out
    except Exception:
        pass
    out = np.empty_like(r)
    for i in range(r.size):
        out[i] = fn(*(a[i] for a in args))
    return out
