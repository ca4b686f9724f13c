"""One fresh interpreter of the benchmark: set up, run one study, report.

    python3 perfbench/child.py RESULT_JSON SPAWN_TIME MODE [ARGS...]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` covers interpreter
start, ``import spdelab`` and the config parse. MODE is

- ``setup``: set up and stop (ARGS: the spdelab command line);
- ``study``: run the spdelab command line in ARGS through ``spdelab.cli.main``;
- ``trace``: the same, with the layer tracer installed first (ARGS start with
  the span file and the run id);
- ``sweep``: time the transforms over a range of grid sizes (ARGS: seed).

The result is written as JSON to RESULT_JSON. Except in ``sweep`` mode it
holds ``calib_s``: the time of ``calibrate`` right after set-up, and again
after the study.
"""

from __future__ import annotations

import json
import resource
import sys
import time

SWEEP_NX = (16, 32, 64, 128, 256)
SWEEP_FUNCS = ("to_modes", "from_modes", "cos_analysis")
SWEEP_BATCH = 1000
CALIB_ITERS = 20000


def calibrate() -> float:
    """Seconds taken by a fixed piece of reference work.

    The work is a loop of small scipy.fft transforms and numpy array
    operations driven from the interpreter, the kind of work that dominates a
    study, but with nothing of spdelab in it, so it stays the same when
    spdelab changes. Its transform size is one no study uses, so it warms no
    plan a study needs. A process times it right after set-up and again after
    its study; the parent scales the process's times by it (see ``run.py``).
    """
    import numpy as np
    from scipy import fft

    x = np.random.default_rng(12345).standard_normal(47)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_ITERS):
        y = fft.dst(x, type=1)
        acc += float(y[i % 47]) * 1e-9 + float((np.exp(-0.5 * x) * y).sum()) * 1e-12
    dt = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration work gave an unexpected result")
    return dt


def solve_summary(result) -> dict:
    """What a study needs to know of a minimize_action result."""
    mus = [row[4] for row in result.trace]
    return {
        "iterations": result.iterations,
        "mu_final": result.mu_final,
        "residual": result.residual,
        "converged": bool(result.converged),
        "mu_changes": sum(b != a for a, b in zip(mus, mus[1:])),
    }


def _capture_solve(experiments, sink: dict) -> None:
    """Keep the summary of the tilt or action solve, which mc-scaling does not write."""
    solve = experiments.minimize_action

    def capture(*args, **kwargs):
        result = solve(*args, **kwargs)
        sink["minimize_action"] = solve_summary(result)
        return result

    experiments.minimize_action = capture


def _per_call_us(fn, x, grid, samples: int = 5, target_s: float = 0.01) -> float:
    fn(x, grid)
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(x, grid)
        dt = time.perf_counter() - t0
        if dt >= target_s or n >= 1 << 16:
            break
        n *= 2
    times = [dt / n]
    for _ in range(samples - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(x, grid)
        times.append((time.perf_counter() - t0) / n)
    times.sort()
    return times[len(times) // 2] * 1e6


def sweep(seed: int) -> dict:
    import numpy as np
    from spdelab import lattice

    rng = np.random.default_rng(seed)
    metrics, missing = {}, []
    for name in SWEEP_FUNCS:
        fn = getattr(lattice, name, None)
        if fn is None:
            missing.append(f"lattice.{name}")
            continue
        for nx in SWEEP_NX:
            grid = lattice.make_grid(nx, 1, 1.0)
            for label, shape in (("single", (nx - 1,)), ("batch", (SWEEP_BATCH, nx - 1))):
                x = rng.standard_normal(shape)
                metrics[f"lattice.sweep.{name}.nx{nx}.{label}_us"] = _per_call_us(fn, x, grid)
    return {"sweep": metrics, "missing": missing}


def main(argv) -> int:
    spawned = float(argv[1])
    result_path, mode, args = argv[0], argv[2], argv[3:]
    import spdelab.cli
    from spdelab import experiments
    from spdelab.storage import parse_config_file

    if mode == "sweep":
        out = sweep(int(args[0]))
    else:
        if mode == "trace":
            span_path, run_id, args = args[0], args[1], args[2:]
        experiments.ExperimentConfig.from_raw(
            parse_config_file(args[args.index("--config") + 1])
        )
        out = {"setup_s": time.monotonic() - spawned, "calib_s": [calibrate()]}
        if mode == "setup":
            import platform

            import numpy
            import scipy

            out["versions"] = {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "spdelab": spdelab.__version__,
            }
        else:
            solves = {}
            tracer = None
            if mode == "trace":
                from tracer import Tracer

                tracer = Tracer(run_id)
                tracer.install()
            # Installed after the tracer, so it wraps the traced solve.
            _capture_solve(experiments, solves)
            t0 = time.perf_counter()
            code = spdelab.cli.main(args)
            out["wall_s"] = time.perf_counter() - t0
            out["exit_code"] = code
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["calib_s"].append(calibrate())
            if tracer is not None:
                stats, counts = tracer.merged()
                out["trace"] = {
                    "stats": stats,
                    "counts": counts,
                    "missing": tracer.missing,
                    "spans": tracer.write_spans(span_path),
                }
            out["solve"] = solves.get("minimize_action")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
