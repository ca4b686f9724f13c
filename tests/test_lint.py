"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "spdelab"
CATCH_ALL = {"Exception", "BaseException"}
# The functions that may sweep _Ops.step in a for loop: the whole-path
# integrator, the Picard iteration and the adjoint forward sweep (whose
# per-call setup measured slower through _integrate on 32-step sweeps).
SWEEPS = {"_integrate", "picard_solve", "_AdjointProblem.forward"}


def _catch_all_handlers(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(t is None or (isinstance(t, ast.Name) and t.id in CATCH_ALL) for t in caught):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    # A handler that catches everything hides the errors it was not written for.
    assert list(_catch_all_handlers(path)) == [], f"{path.name}: catch-all except"


def _calls_step(node):
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "step"
        for n in ast.walk(node)
    )


def _stepping_loops(node, scope=()):
    """(enclosing qualified name, line) of every for loop that calls .step(."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _stepping_loops(child, scope + (child.name,))
            continue
        if isinstance(child, ast.For) and _calls_step(child):
            yield ".".join(scope), child.lineno
        yield from _stepping_loops(child, scope)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_hand_written_sweeps(path):
    # A step loop outside SWEEPS writes the whole-path sweep a second time.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loops = [(name, line) for name, line in _stepping_loops(tree) if name not in SWEEPS]
    assert loops == [], f"{path.name}: for loop over .step( outside {sorted(SWEEPS)}"


# The noise drawer is the one Philox fill: no other code builds a Philox or
# draws normals, so every stream's bits come from one place.
DRAWS = {"standard_normal", "Philox"}
DRAWER = ("noise.py", "_NoiseDrawer")


def _matches(node, match, scope=()):
    """(enclosing qualified name, line) of every node for which match holds."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        if match(child):
            yield ".".join(scope), child.lineno
        yield from _matches(child, match, inner)


def _draw_calls(node, names=DRAWS):
    """(enclosing qualified name, line) of every call named in names."""

    def named(n):
        if not isinstance(n, ast.Call):
            return False
        func = n.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in names

    return _matches(node, named)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_philox_fill(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        (name, line) for name, line in _draw_calls(tree)
        if (path.name, name.split(".")[0]) != DRAWER
    ]
    assert calls == [], f"{path.name}: Philox or standard_normal outside {'.'.join(DRAWER)}"


# The replica engine builds each chunk's drawer and sample_sheet_expansion a
# single path's, so every noise window is drawn where the chunking is decided.
DRAWER_BUILDERS = {"_replica_engine", "sample_sheet_expansion"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_drawer_constructor(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        (name, line) for name, line in _draw_calls(tree, {"_NoiseDrawer"})
        if name.split(".")[0] not in DRAWER_BUILDERS
    ]
    assert calls == [], f"{path.name}: _NoiseDrawer( outside {sorted(DRAWER_BUILDERS)}"


# Stepping consumers read their noise through _windows and a single path's
# block is filled by sample_sheet_expansion; the contraction draws whole
# blocks with fill_blocks. No other code fills a drawer, so none can draw a
# chunk's whole horizon at once.
DRAWER_FILLS = {"_windows", "sample_sheet_expansion"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_drawer_filled_only_by_windows(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        (name, line) for name, line in _draw_calls(tree, {"fill"})
        if name.split(".")[0] not in DRAWER_FILLS
    ]
    assert calls == [], f"{path.name}: .fill( outside {sorted(DRAWER_FILLS)}"


# Whether a problem is linear additive is decided once per solve: by
# minimize_action, which takes the closed-form minimum there, and by
# _sample_replicas, which contracts those terminals. No other code forks on
# it, so every other path runs the one stepping scheme.
DIAGONAL_READERS = {("action.py", "minimize_action"), ("mild_solver.py", "_sample_replicas")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_diagonal_decided_once(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        (name, line)
        for name, line in _matches(tree, lambda n: isinstance(n, ast.Attribute)
                                   and n.attr == "diagonal")
        if (path.name, name) not in DIAGONAL_READERS
    ]
    assert reads == [], f"{path.name}: .diagonal read outside {sorted(DIAGONAL_READERS)}"


# The pocketfft kernels are private to lattice: every other module transforms
# through lattice's public functions, which keep the scaling and checks.
KERNELS = {"_dst", "_dct"}


def _names_kernel(node):
    if isinstance(node, ast.Name):
        return node.id in KERNELS
    if isinstance(node, ast.Attribute):
        return node.attr in KERNELS
    return isinstance(node, ast.alias) and node.name in KERNELS


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_transform_kernels_stay_in_lattice(path):
    refs = list(_matches(ast.parse(path.read_text(encoding="utf-8")), _names_kernel))
    assert refs == [], f"{path.name}: {sorted(KERNELS)} referenced outside lattice.py"
