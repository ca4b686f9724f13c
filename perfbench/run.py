"""spdelab benchmark: run one study workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; spdelab is imported from ``src/``. Every
study runs in a fresh interpreter (``perfbench/child.py``) through
``spdelab.cli.main``, one at a time (a closed loop with one client), with the
BLAS/OpenMP pools pinned to one thread so that a workload's ``threads`` key is
its only parallelism. Studies repeat with the same seed, each followed by two
set-up-only processes, for about S seconds and at least three studies; times
are medians over the repeats, each scaled to a fixed machine speed by a
calibration that its own process times (see ``to_reference``).

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` the same untraced studies run, then one traced study and a
transform sweep, and the last line reports the per-layer metrics. The lines
before it print every metric by name and unit, each output check, and the
environment. Scratch files go to ``.bench_work/`` in the checkout; the spans
of a traced study are kept in ``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from child import SWEEP_FUNCS, SWEEP_NX  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, check, study_summary  # noqa: E402

MIN_STUDIES = 3
# Set-up-only processes after each study. With the study's own sample and
# studies of a few seconds, a 28-second run collects 9 to 18 set-up samples.
SETUPS_PER_STUDY = 2
# No new study starts after this many seconds of measuring, which keeps a run
# under three minutes even when the studies get slower.
MEASURE_CAP_S = 90.0
CHILD_TIMEOUT_S = 60.0
THREAD_ENV = {
    k: "1"
    for k in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Seconds that ``child.calibrate`` takes on the machine the benchmark was
# defined on (2-vCPU x86_64) in its fast phase; its slow phases take up to 0.4 s.
CALIB_REF_S = 0.22


class ChildError(RuntimeError):
    pass


def to_reference(seconds: float, calibs) -> float:
    """A time measured in a process, in seconds of the reference machine.

    The host this benchmark was defined on changes speed by up to 1.8x, for
    seconds to minutes at a time, and study, set-up and calibration times move
    together. So every process times ``child.calibrate`` right after set-up
    and, in a study process, again right after the study; ``calibs`` are those
    times. A change to spdelab changes the scaled time by the same factor as
    the measured one.
    """
    return seconds * CALIB_REF_S / statistics.fmean(calibs)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Studies start from cached bytecode, as an installed package does, whatever
    # the caller's setting; the warm-up process writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(run_dir: Path, tag: str, mode: str, args) -> dict:
    """Run child.py in a fresh interpreter and return the result it wrote."""
    result = run_dir / f"{tag}.json"
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), str(result), repr(spawned), mode, *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{tag}: no result within {CHILD_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise ChildError(f"{tag}: exit code {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    """The studies of one benchmark run and what they produced."""

    def __init__(self, workload, seed: int, tiny: bool, run_dir: Path):
        self.w = workload
        self.seed = seed
        self.tiny = tiny
        self.dir = run_dir
        self.config = run_dir / f"{workload.name}.cfg"
        self.config.write_text(workload.config_text(tiny), encoding="utf-8")
        self.setups: list[float] = []  # scaled by to_reference
        self.raw_setups: list[float] = []
        self.calibs: list[float] = []  # of every recorded process
        self.studies: list[dict] = []  # untraced studies that completed
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.problems: list[str] = []
        self.check_lines: list[str] = []

    def argv(self, out: Path | None = None) -> list[str]:
        args = [self.w.command, "--config", str(self.config), "--seed", str(self.seed)]
        return args + ["--out", str(out or self.dir / "out")]

    def setup_only(self, tag: str, record: bool = True) -> dict:
        res = spawn(self.dir, tag, "setup", self.argv())
        if record:
            self.record_setup(res)
        return res

    def record_setup(self, res: dict) -> None:
        # The first calibration runs right after set-up.
        self.setups.append(to_reference(res["setup_s"], res["calib_s"][:1]))
        self.raw_setups.append(res["setup_s"])
        self.calibs.extend(res["calib_s"])

    def study(self, tag: str, trace_args=()) -> dict | None:
        """One study: spawn, check its outputs, count it.

        None if the study did not complete; a study whose checks failed is
        returned and counted as failed.
        """
        self.attempted += 1
        out = self.dir / f"out-{tag}"
        mode = "trace" if trace_args else "study"
        try:
            res = spawn(self.dir, tag, mode, [*trace_args, *self.argv(out)])
            if res["exit_code"] != 0:
                raise ChildError(f"{tag}: spdelab exited with {res['exit_code']}")
            summary = study_summary(self.w, out, res["solve"], self.tiny)
            checks = check(self.w, summary, self.seed, self.tiny)
            self.digests.add(digest(out))
        except (ChildError, OSError, KeyError, ValueError, IndexError) as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        bad = [c for c in checks if not c[1]]
        summary["ops"] += len(checks)
        summary["ops_failed"] += len(bad)
        if not self.check_lines:
            self.check_lines = [
                f"check {name}: {'ok' if ok else 'FAILED'} ({detail})" for name, ok, detail in checks
            ]
        if bad:
            self.failed += 1
            self.problems.extend(f"{tag}: check {name} failed ({detail})" for name, ok, detail in bad)
        res["summary"] = summary
        if not trace_args:
            self.record_setup(res)
            res["scaled_wall_s"] = to_reference(res["wall_s"], res["calib_s"])
            self.studies.append(res)
        return res

    def correct(self) -> bool:
        if len(self.digests) > 1:
            self.problems.append("outputs differ between repeats of the same seed")
        return self.failed == 0 and len(self.digests) <= 1 and bool(self.studies)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def time_to_1pct(wall: float, summary: dict) -> float | None:
    rel = summary.get("rel_stderr")
    return None if rel is None else wall * (rel / 0.01) ** 2


def env_info(versions: dict) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        **versions,
        "nproc": os.cpu_count(),
        "threads_env": THREAD_ENV,
        "machine": platform.machine(),
        "commit": commit or "unknown",
    }


# -- per-layer metrics -------------------------------------------------------

PER_LAYER_UNITS = {
    "lattice.calls": "count",
    "lattice.self_s": "s",
    "lattice.single_us": "us",
    "lattice.batch_ns_per_row": "ns/row",
    "lattice.bytes_computed": "B",
    "lattice.norm_s": "s",
    "noise.draws": "count",
    "noise.draw_s": "s",
    "noise.seed_s": "s",
    "noise.self_s": "s",
    "mild_solver.noise_block_s": "s",
    "mild_solver.step_calls": "count",
    "mild_solver.integrate_calls": "count",
    "mild_solver.integrate_rows_per_call": "rows",
    "mild_solver.integrate_self_s": "s",
    "mild_solver.replica_steps": "count",
    "mild_solver.replica_steps_per_s": "1/s",
    "mild_solver.cpu_util": "ratio",
    "mild_solver.self_s": "s",
    "control.calls": "count",
    "control.self_s": "s",
    "action.solve_s": "s",
    "action.iterations": "count",
    "action.forward_calls": "count",
    "action.gradient_calls": "count",
    "action.forward_s": "s",
    "action.gradient_s": "s",
    "action.self_s": "s",
    "action.accept_ratio": "ratio",
    "action.mu_final": "1",
    "action.residual": "1",
    "experiments.self_s": "s",
    "experiments.blown": "count",
    "experiments.retry_rows": "count",
    "experiments.retry_s": "s",
    "experiments.retry_useful_ratio": "ratio",
    "experiments.ops": "count",
    "experiments.ops_failed": "count",
    "experiments.failed_frac": "ratio",
    "experiments.time_to_1pct_s": "s",
    "storage.write_s": "s",
    "storage.bytes_written": "B",
    "storage.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.missing": "count",
    "trace.spans": "count",
}
for _fn in SWEEP_FUNCS:
    for _nx in SWEEP_NX:
        for _kind in ("single", "batch"):
            PER_LAYER_UNITS[f"lattice.sweep.{_fn}.nx{_nx}.{_kind}_us"] = "us"


def layer_metrics(traced: dict, sweep: dict, wall_untraced: float, wall_scaled: float) -> dict:
    """Reduce the traced study's stats and counts to the named per-layer metrics.

    ``wall_untraced`` is the median untraced study time as measured and
    ``wall_scaled`` the same median in reference seconds.
    """
    tr = traced["trace"]
    stats, counts, summary = tr["stats"], tr["counts"], traced["summary"]
    solve = traced["solve"] or {}

    def stat(name, i):
        return stats.get(name, [0, 0.0, 0.0, 0, 0.0])[i]

    def layer(prefix, i):
        return sum(s[i] for n, s in stats.items() if n.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts.get
    wall = traced["wall_s"]
    engine = ("mild_solver.run_replicas", "experiments._mc_terminals")
    objective_calls = stat("action._AdjointProblem.objective", 0)
    gradient_calls = stat("action._AdjointProblem.gradient", 0)
    accepted = max(gradient_calls - 1 - solve.get("mu_changes", 0), 0) if solve else 0
    blown = sum(summary.get("blown", []))
    retry_rows = c("experiments.retry_rows", 0)
    t1 = time_to_1pct(wall_scaled, summary)
    m = {
        "lattice.calls": layer("lattice", 0),
        "lattice.self_s": layer("lattice", 2),
        "lattice.single_us": 1e6 * ratio(c("lattice.single_s", 0.0), c("lattice.single_calls", 0)),
        "lattice.batch_ns_per_row": 1e9 * ratio(c("lattice.batch_s", 0.0), c("lattice.batch_rows", 0)),
        "lattice.bytes_computed": c("lattice.bytes_computed", 0),
        "lattice.norm_s": stat("lattice.lp_norm_values", 1),
        "noise.draws": stat("noise.draw_mode_increments", 0),
        "noise.draw_s": stat("noise.draw_mode_increments", 1),
        "noise.seed_s": stat("noise.SeedDerivation.generator", 1),
        "noise.self_s": layer("noise", 2),
        "mild_solver.noise_block_s": stat("mild_solver._noise_block", 1),
        "mild_solver.step_calls": stat("mild_solver._etd_step", 0),
        "mild_solver.integrate_calls": stat("mild_solver._integrate", 0),
        "mild_solver.integrate_rows_per_call": ratio(
            c("mild_solver.integrate_rows", 0), stat("mild_solver._integrate", 0)
        ),
        "mild_solver.integrate_self_s": stat("mild_solver._integrate", 2),
        "mild_solver.replica_steps": c("mild_solver.replica_steps", 0),
        "mild_solver.replica_steps_per_s": ratio(
            c("mild_solver.replica_steps", 0), stat("mild_solver._integrate", 1)
        ),
        "mild_solver.cpu_util": ratio(
            sum(stat(n, 4) for n in engine), sum(stat(n, 1) for n in engine)
        ),
        "mild_solver.self_s": layer("mild_solver", 2),
        "control.calls": layer("control", 0),
        "control.self_s": layer("control", 2),
        "action.solve_s": stat("action.minimize_action", 1),
        "action.iterations": solve.get("iterations", 0),
        "action.forward_calls": stat("action._AdjointProblem.forward", 0),
        "action.gradient_calls": gradient_calls,
        "action.forward_s": stat("action._AdjointProblem.forward", 1),
        "action.gradient_s": stat("action._AdjointProblem.gradient", 1),
        "action.self_s": layer("action", 2),
        "action.accept_ratio": ratio(accepted, objective_calls),
        "action.mu_final": solve.get("mu_final", 0.0),
        "action.residual": solve.get("residual", 0.0),
        "experiments.self_s": layer("experiments", 2),
        "experiments.blown": blown,
        "experiments.retry_rows": retry_rows,
        "experiments.retry_s": c("experiments.retry_s", 0.0),
        # No retries means nothing was retried in vain.
        "experiments.retry_useful_ratio": ratio(blown, retry_rows) if retry_rows else 1.0,
        "experiments.ops": summary["ops"],
        "experiments.ops_failed": summary["ops_failed"],
        "experiments.failed_frac": ratio(summary["ops_failed"], summary["ops"]),
        "experiments.time_to_1pct_s": t1 or 0.0,
        "storage.write_s": c("storage.write_s", 0.0),
        "storage.bytes_written": c("storage.bytes_written", 0),
        "storage.self_s": layer("storage", 2),
        "cli.self_s": layer("cli", 2),
        "trace.overhead_frac": ratio(wall, wall_untraced) - 1.0,
        "trace.coverage": ratio(sum(layer(n, 2) for n in LAYERS), wall),
        "trace.missing": len(tr["missing"]) + len(sweep["missing"]),
        "trace.spans": tr["spans"],
    }
    for name in PER_LAYER_UNITS:
        if name.startswith("lattice.sweep."):
            m[name] = sweep["sweep"].get(name, 0.0)
    return m


# -- the run -------------------------------------------------------------------


def measure(run: Run, seconds: float, trace: bool):
    """Cycles of one study and SETUPS_PER_STUDY set-up-only processes.

    A new cycle starts while it would end closer to ``seconds`` than the last
    one did, judged by the median cycle so far, and at least MIN_STUDIES run.
    """
    versions = run.setup_only("warmup", record=False)  # fills bytecode and file caches
    start = time.monotonic()
    cycles: list[float] = []
    while True:
        t0 = time.monotonic()
        i = len(cycles)
        run.study(f"study{i}")
        for j in range(SETUPS_PER_STUDY):
            run.setup_only(f"setup{i}-{j}")
        cycles.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed > MEASURE_CAP_S:
            break
        if len(cycles) >= MIN_STUDIES and elapsed + median(cycles) / 2 > seconds:
            break
    traced = sweep = None
    if trace:
        spans = WORK / "spans" / f"{run.w.name}-seed{run.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        run_id = f"{run.w.name}-seed{run.seed}-{os.getpid()}"
        traced = run.study("traced", trace_args=(str(spans), run_id))
        sweep = spawn(run.dir, "sweep", "sweep", [str(run.seed)])
    return versions["versions"], traced, sweep


def report(run: Run, env: dict, trace: bool, traced, sweep) -> dict:
    w = run.w
    raw_wall = median([s["wall_s"] for s in run.studies])
    walls = [s["scaled_wall_s"] for s in run.studies]
    wall = median(walls)
    e2e = {
        "wall_s": wall,
        "setup_s": median(run.setups),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in run.studies]),
    }
    ops = sum(s["summary"]["ops"] for s in run.studies)
    ops_failed = sum(s["summary"]["ops_failed"] for s in run.studies)
    first = run.studies[0]["summary"] if run.studies else {}
    t1 = time_to_1pct(wall, first) if first else None
    residual = first.get("residual") if w.command == "minimize-action" else None

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(
        f"workload {w.name} seed {run.seed}: {len(run.studies)} untraced studies completed, "
        f"{run.attempted} attempted in all, {run.failed} failed, trace {int(trace)}"
    )
    print(
        f"  wall_s          {wall:.4f} s   (median of {len(walls)}: "
        + " ".join(f"{x:.3f}" for x in sorted(walls)) + ")"
    )
    print(f"  setup_s         {e2e['setup_s']:.4f} s   (median of {len(run.setups)})")
    print(
        f"  unscaled: wall {raw_wall:.4f} s, setup {median(run.raw_setups):.4f} s; "
        f"calibration {median(run.calibs):.4f} s (median of {len(run.calibs)}), "
        f"reference {CALIB_REF_S} s"
    )
    print(f"  peak_rss_mb     {e2e['peak_rss_mb']:.1f} MB")
    print(
        f"  failed_frac     {(ops_failed / ops if ops else 0.0):.6f} ratio "
        f"(ops_failed {ops_failed} of ops {ops})"
    )
    print("  time_to_1pct_s  " + (f"{t1:.4f} s" if t1 is not None else "n/a (no Monte Carlo p_hat)"))
    print("  action_residual " + (f"{residual:.6e} 1" if residual is not None else "n/a (no action solve)"))
    for line in run.check_lines:
        print(f"  {line}")
    correct = run.correct()
    for p in run.problems:
        print(f"  problem: {p}")

    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        if traced is None:
            correct = False
            values = {name: 0.0 for name in PER_LAYER_UNITS}
        else:
            values = layer_metrics(traced, sweep, raw_wall, wall)
            missing = traced["trace"]["missing"] + sweep["missing"]
            if missing:
                print(f"  trace: boundaries missing (reported as 0): {', '.join(missing)}")
        for name, unit in PER_LAYER_UNITS.items():
            if not name.startswith("lattice.sweep."):
                print(f"  {name:<38} {values[name]:.6g} {unit}")
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    return {
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny study sizes, for the harness smoke test"
    )
    args = parser.parse_args(argv)
    if not (SRC / "spdelab" / "__init__.py").is_file():
        print(f"error: no spdelab sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.tiny, run_dir)
        versions, traced, sweep = measure(run, args.seconds, bool(args.trace))
        result = report(run, env_info(versions), bool(args.trace), traced, sweep)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
