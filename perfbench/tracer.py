"""Layer tracing for one spdelab study, installed from outside the package.

The tracer replaces, in the namespace of each spdelab module, every function
that module imported from another spdelab module with a timing wrapper, so a
span opens at each cross-module call. A few boundaries inside a module are
wrapped as well (the adjoint sweeps, the step and the whole-path integrator,
the replica engine); they are listed in ``INTERNAL``. Nothing under ``src/``
is edited: the wrappers are installed in the process that runs the study.

Each wrapped call records (id, name, start, end, parent, run id) in memory,
and its duration minus the time of its child spans is its self time. The
hottest leaf boundaries (transforms, noise draws, seed derivation, the one
step) are only counted and timed, not kept as spans, so a study with a
million transform calls still writes a span file of a few megabytes.

``greenfn`` is on no study path and ``coeffs`` closures run inside the self
time of their callers, so neither is a layer here.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = (
    "lattice",
    "noise",
    "mild_solver",
    "control",
    "action",
    "experiments",
    "storage",
    "cli",
)

# Boundaries called from inside their own module: (module, attribute path).
INTERNAL = (
    ("cli", "main"),
    ("mild_solver", "_integrate"),
    ("mild_solver", "_etd_step"),
    ("mild_solver", "_noise_block"),
    ("mild_solver", "run_replicas"),
    ("action", "_AdjointProblem.forward"),
    ("action", "_AdjointProblem.gradient"),
    ("action", "_AdjointProblem.objective"),
    ("noise", "SeedDerivation.generator"),
    ("experiments", "run_eps_scaling"),
    ("experiments", "run_convergence_studies"),
    ("experiments", "_tilt_control"),
    ("experiments", "_mc_terminals"),
    ("experiments", "galerkin_coupled_errors"),
    ("experiments", "_write_manifest"),
)

# Counted and timed, but not kept as spans.
_LEAF = {
    "mild_solver._etd_step",
    "noise.SeedDerivation.generator",
    "noise.draw_mode_increments",
}
_ARRAY_FUNCS = {"to_modes", "from_modes", "cos_analysis", "cos_synthesis", "lp_norm_values"}
_TRANSFORMS = _ARRAY_FUNCS - {"lp_norm_values"}
_STORAGE_WRITES = {"write_csv", "write_snapshot"}
_CPU_TIMED = {"mild_solver.run_replicas", "experiments._mc_terminals"}


class _ThreadState:
    def __init__(self):
        self.stack = []  # [span id, child seconds] per open span
        self.stats = {}  # name -> [calls, total s, self s, failed, cpu s]
        self.counts = {}
        self.spans = []


class Tracer:
    """Installs the wrappers and collects spans, call statistics and counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self.missing = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: sys.modules[f"spdelab.{name}"]
            for name in LAYERS
            if f"spdelab.{name}" in sys.modules
        }
        for layer, path in INTERNAL:
            owner = modules.get(layer)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(f"{layer}.{path}")
                continue
            setattr(owner, attr, self._wrap(fn, f"{layer}.{path}", host=layer))
        for host, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or getattr(fn, "_traced", False):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if layer == host or layer not in modules:
                    continue
                setattr(module, attr, self._wrap(fn, f"{layer}.{fn.__qualname__}", host=host))

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, fn, name: str, host: str):
        keep = name not in _LEAF and not name.startswith("lattice.")
        short = name.rpartition(".")[2]
        hook = None
        if name.startswith("lattice.") and short in _ARRAY_FUNCS:
            hook = functools.partial(_lattice_hook, transform=short in _TRANSFORMS)
        elif name == "mild_solver._etd_step":
            hook = _step_hook
        elif name == "mild_solver._integrate":
            hook = functools.partial(_integrate_hook, retry=host == "experiments")
        elif name.startswith("storage.") and short in _STORAGE_WRITES:
            hook = _storage_hook
        cpu = name in _CPU_TIMED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1][0] if st.stack else None
            frame = [next(tracer._ids), 0.0]
            st.stack.append(frame)
            failed = False
            result = None
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                dur = t1 - t0
                s = st.stats.get(name)
                if s is None:
                    s = st.stats[name] = [0, 0.0, 0.0, 0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[1]
                s[3] += failed
                if cpu:
                    s[4] += time.process_time() - c0
                if st.stack:
                    st.stack[-1][1] += dur
                if keep:
                    st.spans.append((frame[0], name, t0, t1, parent, failed))
                if hook is not None:
                    hook(st.counts, args, kwargs, result, dur, failed)

        wrapper._traced = True
        return wrapper

    # -- reduction ---------------------------------------------------------

    def merged(self):
        stats, counts = {}, {}
        for st in self._states:
            for name, s in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
                for i, v in enumerate(s):
                    acc[i] += v
            for key, v in st.counts.items():
                counts[key] = counts.get(key, 0) + v
        return stats, counts

    def spans(self):
        out = []
        for tid, st in enumerate(self._states):
            for sid, name, t0, t1, parent, failed in st.spans:
                out.append(
                    {
                        "id": sid,
                        "name": name,
                        "start": t0,
                        "end": t1,
                        "parent": parent,
                        "run": self.run_id,
                        "thread": tid,
                        "failed": failed,
                    }
                )
        out.sort(key=lambda s: s["start"])
        return out

    def write_spans(self, path) -> int:
        spans = self.spans()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "missing": self.missing, "spans": spans}, fh)
        os.replace(tmp, path)
        return len(spans)


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    if len(shape) < 2:
        return 1
    return int(arr.size // shape[-1]) if shape[-1] else 0


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


def _lattice_hook(counts, args, kwargs, result, dur, failed, transform):
    arr = _first(args, kwargs)
    if getattr(arr, "ndim", 0) >= 2:
        _add(counts, "lattice.batch_calls", 1)
        _add(counts, "lattice.batch_rows", _rows(arr))
        _add(counts, "lattice.batch_s", dur)
    else:
        _add(counts, "lattice.single_calls", 1)
        _add(counts, "lattice.single_s", dur)
    nbytes = getattr(arr, "nbytes", 0)
    # A transform reads and writes an array of the same size; a norm reads one.
    _add(counts, "lattice.bytes_computed", 2 * nbytes if transform else nbytes)


def _step_hook(counts, args, kwargs, result, dur, failed):
    _add(counts, "mild_solver.replica_steps", _rows(_first(args, kwargs)))


def _integrate_hook(counts, args, kwargs, result, dur, failed, retry):
    u0 = _first(args, kwargs)
    _add(counts, "mild_solver.integrate_rows", _rows(u0))
    if retry and getattr(u0, "ndim", 0) == 1:
        # experiments integrates one row only when it retries a blown batch.
        _add(counts, "experiments.retry_rows", 1)
        _add(counts, "experiments.retry_s", dur)


def _storage_hook(counts, args, kwargs, result, dur, failed):
    _add(counts, "storage.write_s", dur)
    if not failed:
        _add(counts, "storage.bytes_written", os.path.getsize(_first(args, kwargs)))
