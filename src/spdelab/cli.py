"""Command-line interface.

    spdelab <command> --config FILE [--seed N] [--out DIR] [--threads N]

Commands: simulate, skeleton, minimize-action, mc-scaling, importance,
convergence, validate. The config file is line-oriented "key = value" with
'#' comments; the subcommand overrides the config's kind, and --seed / --out
/ --threads override the corresponding config keys.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import VALID_KINDS, run_experiment
from .mild_solver import BlowUpError
from .storage import ConfigError

_HELP = {
    "simulate": "integrate one SPDE path and dump snapshots + diagnostics",
    "skeleton": "integrate the deterministic controlled flow",
    "minimize-action": "optimal control to a terminal target (minimum action)",
    "mc-scaling": "Monte Carlo event probabilities over a decreasing eps list",
    "importance": "Girsanov-tilted estimate with paired plain baseline",
    "convergence": "Galerkin-noise, controlled-limit and moment-bound studies",
    "validate": "sampled growth/Lipschitz checks of the coefficient family",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="numerical laboratory for a 1-D semilinear SPDE",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in VALID_KINDS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = run_experiment(
            args.config,
            out_dir=args.out,
            seed=args.seed,
            threads=args.threads,
            kind=args.command,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
