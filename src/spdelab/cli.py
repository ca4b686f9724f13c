"""Command-line interface.

    spdelab <command> --config FILE [--seed N] [--out DIR] [--threads N]

Commands: simulate, skeleton, minimize-action, mc-scaling, importance,
convergence, validate. The config file is line-oriented "key = value" with
'#' comments; the subcommand overrides the config's kind, and --seed / --out
/ --threads override the corresponding config keys.

On glibc, ``main`` first pins malloc's mmap threshold at 32 MiB and its trim
threshold at 64 MiB (mallopt(3)). glibc starts both at 128 KiB and raises them
only when an mmapped chunk is freed, so in a fresh process the first threaded
Galerkin leg frees a dozen 300 KiB temporaries a step, each worker arena
trims its top chunk back to the kernel, and the next step faults the pages in
again (132k minor faults for the benchmark's convergence study, 8k pinned).
The pin changes no arithmetic, so every output file keeps its bytes. A library
caller of ``run_experiment`` is unpinned: it reaches the same warm behaviour
only after its first threaded leg frees the engine's buffers, which raises
both thresholds.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from .experiments import VALID_KINDS, run_experiment
from .mild_solver import BlowUpError
from .storage import ConfigError

# mallopt(3) parameters, and the ceiling of glibc's dynamic mmap threshold
# on 64-bit hosts; glibc's dynamic rule sets the trim threshold to twice it.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20

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


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at the ceilings of its dynamic rule."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):  # not a name this C library knows
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def main(argv=None) -> int:
    _pin_malloc_thresholds()
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
