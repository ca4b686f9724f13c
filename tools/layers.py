"""Per-layer timings of the stepping kernel, the adjoint sweeps and the transforms.

    PYTHONPATH=src python tools/layers.py --out BENCH_<n>.json [--repeats K]

Run from the root of a checkout. Each layer is timed by direct calls on fixed
inputs, with nothing wrapped:

- one ``_Ops.step`` of the ``burgers_action`` coefficients with a control,
  at 1, 6 and 250 rows (nx 32);
- one adjoint ``forward`` sweep of the ``burgers_action`` problem at 1 and 6
  rows, and one ``gradient`` sweep (a gradient sweep takes one control);
- ``to_modes``, ``from_modes``, ``cos_analysis`` and ``cos_synthesis`` at
  nx 32 and 64, one row and 250 rows.

A repeat is the mean over enough calls to take about 10 ms; a layer's time is
the median of K repeats, with its quartiles. Times are scaled to the
benchmark's reference machine by ``perfbench/child.calibrate``, as
``perfbench/run.py`` scales a study: the calibration is timed before and after
the layers, and both times are recorded. The JSON file records HEAD, the
versions and the calibration.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from child import calibrate  # noqa: E402
from run import CALIB_REF_S, to_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spdelab  # noqa: E402
from spdelab import lattice  # noqa: E402
from spdelab.action import _AdjointProblem  # noqa: E402
from spdelab.experiments import ExperimentConfig  # noqa: E402
from spdelab.lattice import eigenfunction, make_grid  # noqa: E402
from spdelab.storage import parse_config_text  # noqa: E402

TARGET_S = 0.01
TRANSFORMS = ("to_modes", "from_modes", "cos_analysis", "cos_synthesis")


def per_call_s(fn, repeats: int) -> list[float]:
    """Seconds per call of fn, one value per repeat."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= TARGET_S or n >= 1 << 16:
            break
        n *= 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return times


def action_problem() -> _AdjointProblem:
    cfg = ExperimentConfig.from_raw(parse_config_text(WORKLOADS["burgers_action"].config_text()))
    grid = cfg.grid()
    target = eigenfunction(grid, cfg.target_mode, amplitude=cfg.target_amp)
    return _AdjointProblem(target, cfg.eta_field(grid), cfg.coefficients(), grid,
                           cfg.action_options())


def layers() -> dict:
    """Name -> a zero-argument call of each layer."""
    rng = np.random.default_rng(5)
    prob = action_problem()
    ops, g = prob.ops, prob.grid
    calls = {}
    for rows in (1, 6, 250):
        shape = (rows, g.n_interior) if rows > 1 else (g.n_interior,)
        u, psi = 0.3 * rng.standard_normal(shape), 0.3 * rng.standard_normal(shape)
        calls[f"mild_solver.step.rows{rows}"] = lambda u=u, psi=psi: ops.step(u, 0.25, psi=psi)
    psi = 0.3 * rng.standard_normal((g.nt, g.n_interior))
    calls["action.forward.rows1"] = lambda: prob.forward(psi)
    stack = psi * np.arange(1.0, 7.0)[:, None, None]
    calls["action.forward.rows6"] = lambda: prob.forward(stack)
    v = prob.forward(psi)
    calls["action.gradient.rows1"] = lambda: prob.gradient(psi, v, 10.0)
    for nx in (32, 64):
        grid = make_grid(nx, 1, 1.0)
        for rows in (1, 250):
            x = rng.standard_normal((rows, nx - 1) if rows > 1 else (nx - 1,))
            for name in TRANSFORMS:
                fn = getattr(lattice, name)
                key = f"lattice.{name}.nx{nx}.rows{rows}"
                calls[key] = lambda fn=fn, x=x, grid=grid: fn(x, grid)
    return calls


def git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15, help="repeats per layer (K)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    calls = layers()
    calibs = [calibrate()]
    raw = {name: per_call_s(fn, args.repeats) for name, fn in calls.items()}
    calibs.append(calibrate())
    results = {}
    for name, times in raw.items():
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        r = results[name] = {
            "us": 1e6 * to_reference(med, calibs),
            "q1_us": 1e6 * to_reference(q1, calibs),
            "q3_us": 1e6 * to_reference(q3, calibs),
            "raw_us": 1e6 * med,
        }
        print(f"{name:40s} {r['us']:10.2f} us  (IQR {r['q1_us']:.2f}-{r['q3_us']:.2f})")
    # Whether the timed sources differ from HEAD (None outside a git checkout).
    status = git("status", "--porcelain", "--", "src")
    report = {
        "head": git("rev-parse", "HEAD"),
        "dirty": None if status is None else status != "",
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "spdelab": spdelab.__version__,
        },
        "machine": platform.machine(),
        "calibration": {"calib_s": calibs, "reference_s": CALIB_REF_S},
        "repeats": args.repeats,
        "layers": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
