import ast
import dataclasses
import functools
import pickle
import subprocess
import sys
import time

import pytest

from cascadekit.cascade import Condition
from cascadekit.forest import PredecessorForest, Window, random_forest
from cascadekit.names import Assignment, CoordinateBox
from cascadekit.verify import REGISTRY, lemma_parameters
from cascadekit.verify import _all_closed_subsets as all_closed_subsets  # noqa: F401
from cascadekit.verify import _all_conditions as all_conditions  # noqa: F401
from cascadekit.verify import _all_forests as all_forests  # noqa: F401
from cascadekit.verify import _involutions as involutions  # noqa: F401
from cascadekit.verify import _parent_star as parent_star
from cascadekit.verify import _subspace_span as subspace_span  # noqa: F401


def forest_of(size: int, pred: dict[int, int]) -> PredecessorForest:
    return PredecessorForest.from_pred(size, pred)


def small_box(rows=1, bits=2, size=3, pred=None):
    """The box over a whole forest of ``size`` nodes; by default every other node hangs off the root."""
    f = forest_of(size, pred if pred is not None else {i: 0 for i in range(1, size)})
    return CoordinateBox(Window.whole(f), rows, bits)


def on_nodes(entries, nodes) -> Condition:
    """The condition of the ``(coordinate, value)`` entries whose node lies in ``nodes``."""
    return Condition(tuple((c, v) for c, v in entries if c.node in nodes))


def assignment_entries(g):
    """Each coordinate of an assignment's box with its value there."""
    return tuple((c, g.value_bits >> i & 1) for i, c in enumerate(g.box.coords()))


def unit_upper_triangular(matrix) -> bool:
    """Column j of the matrix holds bit j and no higher bit, read from its columns alone."""
    return all(col >> j == 1 for j, col in enumerate(matrix.cols))


def format_condition(q, size: int, rows: int, bits: int) -> str:
    """A condition file: header ``box N R B``, then one ``node row bit value`` line each."""
    lines = [f"box {size} {rows} {bits}"]
    lines.extend(f"{c.node} {c.row} {c.bit} {v}" for c, v in q.entries)
    return "\n".join(lines) + "\n"


def forward_substitution(K, bits):
    """Reference star-span solver: stars read from the parent map, one residual bit at a time.

    In window order a star holds its own node and later-listed children, so
    the lowest residual bit names the next node of the solution.
    """
    order = K.ordered
    chosen = set()
    while bits:
        xi = order[(bits & -bits).bit_length() - 1]
        bits ^= parent_star(order, K.forest.parents, xi)
        chosen.add(xi)
    return chosen


def assert_canonical(value):
    """A derived value is one its constructor accepts unchanged: checked and stored canonically.

    Its rebuild from its constructor fields equals it field by field, derived fields included,
    and hashes the same; so does its pickle round trip.  Tuples compare by order and a set is
    unhashable, so a field stored unsorted or as a list or set fails here.
    """
    rebuilt = type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value) if f.init))
    for f in dataclasses.fields(value):
        assert getattr(rebuilt, f.name) == getattr(value, f.name), f.name
    assert rebuilt == value and hash(rebuilt) == hash(value)
    loaded = pickle.loads(pickle.dumps(value))
    assert loaded == value and hash(loaded) == hash(value)


def checked_sites(paths):
    """Each (module, owner) that names ``_checked``: the enclosing defs, dotted, or ``<module>``.

    Every node of each module is visited, so a module-level statement, a class
    body and a nested class or function are all seen.
    """
    sites = set()

    def visit(node, stem, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, stem, child.name if owner == "<module>" else f"{owner}.{child.name}")
            else:
                if isinstance(child, ast.Attribute) and child.attr == "_checked":
                    sites.add((stem, owner))
                visit(child, stem, owner)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def random_box(rng, shape):
    """A box of the given (nodes, rows, bits) shape over a random forest drawn from ``rng``."""
    n_nodes, rows, bits = shape
    return CoordinateBox(Window.whole(random_forest(n_nodes, rng.getrandbits(32))), rows, bits)


def all_assignments(box):
    """Every total assignment of the box, in order of its packed bits."""
    return (Assignment(box, bits) for bits in range(1 << box.n_coords))


def apply_to_assignment(tau, g):
    """The assignment a cascade automorphism carries ``g`` to: each toggled box coordinate flips."""
    box = g.box
    flip = 0
    for c in box.coords():
        if c.bit in tau.toggle_at(c.node, c.row):
            flip |= 1 << box.index(c)
    return Assignment(box, g.value_bits ^ flip)


def pattern_flip_loop(tau, beta, gamma, row, expected, box):
    """Whether ``tau`` moves the equality pattern of two rows by ``expected``, on every assignment.

    The reference for ``verify._replayed_flips``: it reads the flip mask
    through ``tau.toggle_at`` and compares the two rows' pattern before and
    after on each of the box's ``2**n_coords`` assignments, one at a time.
    """
    rows, bits = box.rows, box.bits
    pos = {xi: k for k, xi in enumerate(box.window.ordered)}
    flip = 0
    for xi, k in pos.items():
        for r in range(rows):
            ts = tau.toggle_at(xi, r)
            for bit in range(bits):
                if bit in ts:
                    flip |= 1 << ((k * rows + r) * bits + bit)
    row_mask = (1 << bits) - 1
    at_beta = (pos[beta] * rows + row) * bits
    at_gamma = (pos[gamma] * rows + row) * bits
    for g in range(1 << box.n_coords):
        before = ~((g >> at_beta) ^ (g >> at_gamma)) & row_mask
        h = g ^ flip
        after = ~((h >> at_beta) ^ (h >> at_gamma)) & row_mask
        if before ^ after != expected:
            return False
    return True


def record_calls(monkeypatch, module, attr):
    """Wrap ``module.attr`` for the test so that each call's positional arguments are recorded.

    Returns the list the calls go into; the wrapped function still runs.
    """
    calls = []
    real = getattr(module, attr)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, attr, recorded)
    return calls


@pytest.fixture(scope="session")
def exhaustive_reports():
    """The report of each lemma that only enumerates, run once per test session.

    Those lemmas take no argument, so each has one report; a test may only
    read it.  A test that patches the library runs the lemma itself.
    """
    return {lemma: routine() for lemma, (routine, _) in REGISTRY.items() if not lemma_parameters(lemma)}


@functools.cache
def verify_all_run(seed):
    """``verify --all --seed seed`` in a subprocess, run once per test session.

    Returns ``(returncode, stdout, elapsed seconds)``; the golden transcripts
    and acceptance criterion 12 read the same run, so tier-1 runs each seed once.
    The interpreter's ``-W`` options (``python -W error -m pytest``) pass to the subprocess.
    """
    warn = [f"-W{option}" for option in sys.warnoptions]
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *warn, "-m", "cascadekit.cli", "verify", "--all", "--seed", str(seed)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - started
