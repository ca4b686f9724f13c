"""End-to-end and per-layer timings of spdelab.

    PYTHONPATH=src python tools/layers.py --out BENCH_<n>.json [--repeats K]

Run from the root of a checkout. End to end, each of perfbench's four
workload configs and the golden mc-scaling config runs once as a fresh
``python -m spdelab`` process, with the BLAS/OpenMP pools at one thread as
perfbench pins them; the file records its wall time and the process's own
``ru_maxrss`` and ``ru_minflt``, read with ``os.wait4`` (see ``end_to_end``).

Each layer is timed by direct calls on fixed inputs, with nothing wrapped:

- one ``_Ops.step`` of the ``burgers_action`` coefficients with a control,
  at 1, 6 and 250 rows (nx 32);
- one adjoint ``forward`` sweep of the ``burgers_action`` problem at 1 and 6
  rows, and one ``gradient`` sweep (a gradient sweep takes one control);
- ``to_modes``, ``from_modes``, ``cos_analysis`` and ``cos_synthesis`` at
  nx 32 and 64, one row and 250 rows;
- ``philox_keys`` for 4000 rows;
- the noise drawer's ``fill`` in 32-step windows and its ``fill_blocks``, a
  whole nx 32, nt 64 horizon of 504 rows, reported per 1e6 normals;
- one contracted ``_sample_replicas`` call of the ``tilted_scaling`` config
  at its first eps, with its optimal tilt;
- ``_replica_engine`` running the ``burgers_convergence`` Galerkin leg
  (``galerkin_coupled_errors``) at threads 1 and 2.

A repeat is the mean over enough calls to take about 10 ms; a layer's time is
the median of K repeats, with its quartiles. Times are scaled to the
benchmark's reference machine by ``perfbench/child.calibrate``, as
``perfbench/run.py`` scales a study: the calibration is timed before the
end-to-end runs and after the layers, and both times are recorded. The JSON
file records HEAD, the versions and the calibration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from child import calibrate  # noqa: E402
from run import CALIB_REF_S, THREAD_ENV, to_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spdelab  # noqa: E402
from spdelab import lattice  # noqa: E402
from spdelab.action import _AdjointProblem  # noqa: E402
from spdelab.experiments import ExperimentConfig, _tilt  # noqa: E402
from spdelab.lattice import eigenfunction, make_grid  # noqa: E402
from spdelab.mild_solver import _sample_replicas, galerkin_coupled_errors  # noqa: E402
from spdelab.noise import _NoiseDrawer, philox_keys  # noqa: E402
from spdelab.storage import parse_config_text  # noqa: E402

TARGET_S = 0.01
TRANSFORMS = ("to_modes", "from_modes", "cos_analysis", "cos_synthesis")
GOLDEN = ROOT / "tests" / "data" / "golden_mc_scaling.cfg"
# A whole nx 32, nt 64 horizon of this many rows is 999,936 normals; the
# fills' times are scaled to 1e6 normals.
FILL_ROWS = 504
FILL_NORMALS = FILL_ROWS * 64 * 31
PER_1E6 = {"noise.fill.window32", "noise.fill_blocks"}


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


def workload_config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_raw(parse_config_text(WORKLOADS[name].config_text()))


def action_problem() -> _AdjointProblem:
    cfg = workload_config("burgers_action")
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
    calls["noise.philox_keys.rows4000"] = lambda: philox_keys(90125, range(4000), 0)
    calls.update(noise_layers())
    calls.update(contraction_layer())
    calls.update(galerkin_layers())
    return calls


def noise_layers() -> dict:
    """The drawer's two fills of a whole horizon of FILL_ROWS rows."""
    grid = make_grid(32, 64, 0.3)
    windowed, whole = (_NoiseDrawer(grid, 90125, range(FILL_ROWS), 0, grid.n_interior)
                       for _ in range(2))
    block = np.empty((FILL_ROWS, grid.nt, grid.n_interior))
    windows = [np.empty((FILL_ROWS, 32, grid.n_interior)) for _ in range(grid.nt // 32)]

    def fill():
        windowed.drawn = 0  # rewound: each row re-keys at its first window
        for w in windows:
            windowed.fill(w)

    return {"noise.fill.window32": fill,
            "noise.fill_blocks": lambda: whole.fill_blocks(block, 0)}


def contraction_layer() -> dict:
    """One tilted, contracted replica call of the tilted_scaling study."""
    cfg = workload_config("tilted_scaling")
    grid, cf = cfg.grid(), cfg.coefficients()
    eta, psi, scfg = cfg.eta_field(grid), _tilt(cfg, grid, cf), cfg.solver_config()
    return {"mild_solver.sample_replicas.tilted_scaling": lambda: _sample_replicas(
        [eta], cf, cfg.eps_list[0], grid, cfg.master_seed, cfg.replicas, 0, scfg, [psi],
        threads=cfg.threads,
    )}


def galerkin_layers() -> dict:
    """The replica engine on the burgers_convergence Galerkin leg."""
    cfg = workload_config("burgers_convergence")
    grid, cf = cfg.grid(), cfg.coefficients()
    eta = cfg.eta_field(grid)
    return {
        f"mild_solver.replica_engine.galerkin.threads{threads}": (
            lambda threads=threads: galerkin_coupled_errors(
                eta, cf, cfg.eps, grid, cfg.master_seed, cfg.replicas, cfg.k_list,
                k_modes=cfg.k_modes, threads=threads,
            )
        )
        for threads in (1, 2)
    }


# Runs sys.argv[1:] as a python child and prints its exit code, wall time and
# its own rusage (os.wait4) as JSON; the child's stdout is dropped.
LAUNCHER = """
import json, os, sys, time
argv = [sys.executable, *sys.argv[1:]]
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
t0 = time.perf_counter()
_, status, ru = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet), 0)
print(json.dumps({"exit_code": os.waitstatus_to_exitcode(status),
                  "wall_s": time.perf_counter() - t0,
                  "maxrss_mb": ru.ru_maxrss / 1024.0, "minflt": ru.ru_minflt}))
"""


def end_to_end(work: Path) -> dict:
    """Wall time, peak RSS and minor faults of each config in a fresh process.

    Each child is started by a small launcher interpreter: a child's maxrss
    starts at the high-water mark of the process it was spawned from, and this
    one holds numpy, scipy and the layers' inputs.
    """
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(Path(spdelab.__file__).parents[1]))
    configs = {name: (w.command, w.config_text()) for name, w in WORKLOADS.items()}
    configs["golden_mc_scaling"] = ("mc-scaling", GOLDEN.read_text(encoding="utf-8"))
    results = {}
    for name, (command, text) in configs.items():
        config = work / f"{name}.cfg"
        config.write_text(text, encoding="utf-8")
        args = ["-m", "spdelab", command, "--config", str(config), "--out", str(work / name)]
        out = subprocess.run([sys.executable, "-c", LAUNCHER, *args], env=env,
                             capture_output=True, text=True, check=True)
        r = results[name] = json.loads(out.stdout)
        print(f"{name:46s} {r['wall_s']:12.3f} s   maxrss {r['maxrss_mb']:.1f} MB  "
              f"minflt {r['minflt']}")
    return results


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
    calibs = [calibrate()]
    with tempfile.TemporaryDirectory() as work:
        e2e = end_to_end(Path(work))
    calls = layers()
    raw = {name: per_call_s(fn, args.repeats) for name, fn in calls.items()}
    calibs.append(calibrate())
    results = {}
    for name, times in raw.items():
        if name in PER_1E6:
            times = [t * 1e6 / FILL_NORMALS for t in times]
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        r = results[name] = {
            "us": 1e6 * to_reference(med, calibs),
            "q1_us": 1e6 * to_reference(q1, calibs),
            "q3_us": 1e6 * to_reference(q3, calibs),
            "raw_us": 1e6 * med,
        }
        print(f"{name:46s} {r['us']:12.2f} us  (IQR {r['q1_us']:.2f}-{r['q3_us']:.2f})")
    for name, r in e2e.items():
        r["ref_s"] = to_reference(r["wall_s"], calibs)
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
        "end_to_end": e2e,
        "layers": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return int(any(r["exit_code"] for r in e2e.values()))


if __name__ == "__main__":
    sys.exit(main())
