"""Star vectors, the triangular star matrix, and span solving."""

import dataclasses
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import weakref

from collections.abc import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_closed_subsets,
    all_forests,
    assert_canonical,
    forest_of,
    forward_substitution,
    parent_star,
    unit_upper_triangular,
)
from cascadekit import f2linalg
from cascadekit.errors import CertificateError, DomainError
from cascadekit.f2linalg import (
    F2Matrix,
    F2Vector,
    StarBasis,
    combine_stars,
    matrix_order,
    solve_all_targets,
    solve_star_span,
    star_matrix,
)
from cascadekit.forest import Window, random_forest, rho_closure


def brute_force_solutions(K, target):
    """All coefficient subsets reproducing the target; the solver oracle."""
    hits = []
    for r in range(len(K.ordered) + 1):
        for combo in itertools.combinations(K.ordered, r):
            if combine_stars(K, combo) == target:
                hits.append(set(combo))
    return hits


class TestHeight:
    def test_children_precede_parents_in_order(self):
        for f in all_forests(6):
            for closed in all_closed_subsets(f):
                if not closed:
                    continue
                order = matrix_order(Window(f, closed))
                pos = {xi: i for i, xi in enumerate(order)}
                for xi in closed:
                    if xi >= 1 and f.parents[xi] in closed:
                        assert pos[xi] < pos[f.parents[xi]]


class TestStarVector:
    """A single node's star is ``combine_stars`` of that node alone."""

    def test_root_star_in_fork(self):
        f = forest_of(3, {1: 0, 2: 0})
        K = Window(f, frozenset({0, 1, 2}))
        assert combine_stars(K, [0]) == F2Vector.from_nodes(K, {0, 1, 2})

    def test_leaf_star(self):
        f = forest_of(3, {1: 0, 2: 0})
        K = Window(f, frozenset({0, 1, 2}))
        assert combine_stars(K, [1]) == F2Vector.from_nodes(K, {1})

    def test_intersection_with_window(self):
        f = forest_of(3, {1: 0, 2: 0})
        K = Window(f, frozenset({0, 1}))
        assert combine_stars(K, [0]) == F2Vector.from_nodes(K, {0, 1})

    def test_diagonal_always_set(self):
        for f in all_forests(5):
            for closed in all_closed_subsets(f):
                K = Window(f, closed)
                for j, xi in enumerate(K.ordered):
                    star = combine_stars(K, [xi])
                    assert (star.bits >> j) & 1 == 1
                    assert star.bits == parent_star(K.ordered, f.parents, xi)

class TestF2Vector:
    K = Window.whole(forest_of(4, {1: 0, 2: 0, 3: 1}))

    @pytest.mark.parametrize("bits", [-1, 16, 1 << 40])
    def test_bits_outside_the_window_rejected(self, bits):
        with pytest.raises(DomainError, match="vector bits exceed the window length"):
            F2Vector(self.K, bits)

    def test_equality_hash_and_repr(self):
        v = F2Vector(self.K, 5)
        assert v == F2Vector(window=self.K, bits=5) != F2Vector(self.K, 4)
        assert hash(v) == hash(F2Vector(self.K, 5))
        assert repr(v) == f"F2Vector(window={self.K!r}, bits=5)"
        assert vars(v) == {"window": self.K, "bits": 5}

    def test_replace_checks_the_new_bits(self):
        v = F2Vector(self.K, 5)
        assert dataclasses.replace(v, bits=3) == F2Vector(self.K, 3)
        with pytest.raises(DomainError):
            dataclasses.replace(v, bits=16)

    def test_from_nodes_reads_each_position_from_one_map(self):
        # one scan of the window's order per node would make a vector of n nodes cost O(n^2)
        K = Window.whole(random_forest(2000, 5))

        class Unscannable(tuple):
            def index(self, *args):
                raise AssertionError("from_nodes scanned the window's order")

        object.__setattr__(K, "ordered", Unscannable(K.ordered))
        nodes = range(0, 2000, 3)
        # the whole window's order is ascending, so node xi sits at position xi
        assert F2Vector.from_nodes(K, nodes).bits == sum(1 << xi for xi in nodes)
        with pytest.raises(DomainError, match="node 2000 not in window"):
            F2Vector.from_nodes(K, [1, 2000])

    def test_pickle_round_trip(self):
        v = F2Vector(self.K, 9)
        restored = pickle.loads(pickle.dumps(v))
        assert restored == v and hash(restored) == hash(v)

    @pytest.mark.parametrize("name", ["window", "bits"])
    def test_fields_are_frozen(self, name):
        v = F2Vector(self.K, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, name)


class TestStarMatrix:
    def test_fork_order_and_triangularity(self):
        f = forest_of(3, {1: 0, 2: 0})
        K = Window(f, frozenset({0, 1, 2}))
        m = star_matrix(K)
        assert m.order == (2, 1, 0)
        assert unit_upper_triangular(m)

    def test_singleton_identity(self):
        f = forest_of(2, {1: 0})
        m = star_matrix(Window(f, frozenset({0})))
        assert m.order == (0,) and m.cols == (1,)

    def test_chain_matrix_by_hand(self):
        f = forest_of(3, {1: 0, 2: 1})
        m = star_matrix(Window(f, frozenset({0, 1, 2})))
        assert m.order == (2, 1, 0)
        expected = {
            (0, 0): 1, (0, 1): 1, (0, 2): 0,
            (1, 0): 0, (1, 1): 1, (1, 2): 1,
            (2, 0): 0, (2, 1): 0, (2, 2): 1,
        }
        for (i, j), v in expected.items():
            assert (m.cols[j] >> i) & 1 == v

    def test_lists_stored_as_tuples(self):
        listed = F2Matrix([0], [1])
        assert listed == F2Matrix((0,), (1,)) and hash(listed) == hash(F2Matrix((0,), (1,)))

    def test_columns_checked_against_the_order(self):
        with pytest.raises(DomainError, match="column count"):
            F2Matrix((1, 0), (1,))
        with pytest.raises(DomainError, match="column bits"):
            F2Matrix((0,), (2,))
        with pytest.raises(DomainError, match="must be an int"):
            F2Matrix(("a", "b"), (1, 2))

    def test_rejects_empty_window(self):
        f = forest_of(2, {1: 0})
        with pytest.raises(DomainError):
            star_matrix(Window(f, frozenset()))

    def test_triangular_and_invertible_everywhere(self):
        for f in all_forests(6):
            for closed in all_closed_subsets(f):
                if not closed:
                    continue
                assert unit_upper_triangular(star_matrix(Window(f, closed)))

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sets(st.integers(0, 11)))
    def test_trusted_build_is_canonical(self, size, seed, nodes):
        f = random_forest(size, seed)
        K = rho_closure(f, {xi for xi in nodes if xi < size} or {0})
        assert_canonical(star_matrix(K))

    def test_off_diagonal_ones_strictly_above(self):
        for seed in range(10):
            f = random_forest(9, seed)
            K = rho_closure(f, {3, 5, 8})
            m = star_matrix(K)
            for j, col in enumerate(m.cols):
                above = col & ~(1 << j)
                assert above >> j == 0

    def test_child_before_parent_order(self):
        f = forest_of(3, {1: 0, 2: 0})
        m = star_matrix(Window(f, frozenset({0, 1, 2})))
        assert m.order == (2, 1, 0) and len(m.cols) == 3
        assert [[(m.cols[j] >> i) & 1 for j in range(3)] for i in range(3)] == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]


class TestSolve:
    def test_chain_e0(self):
        f = forest_of(2, {1: 0})
        K = Window(f, frozenset({0, 1}))
        target = F2Vector.from_nodes(K, {0})
        got = solve_star_span(K, target)
        assert [got] == brute_force_solutions(K, target)
        assert got == {0, 1}

    def test_zero_target(self):
        f = forest_of(2, {1: 0})
        K = Window(f, frozenset({0, 1}))
        assert solve_star_span(K, F2Vector(K, 0)) == set()

    def test_fork_all_ones(self):
        f = forest_of(3, {1: 0, 2: 0})
        K = Window(f, frozenset({0, 1, 2}))
        target = F2Vector.from_nodes(K, {0, 1, 2})
        got = solve_star_span(K, target)
        assert [got] == brute_force_solutions(K, target)
        assert got == {0}

    def test_window_mismatch_rejected(self):
        f = forest_of(3, {1: 0, 2: 0})
        K1 = Window(f, frozenset({0, 1, 2}))
        K2 = Window(f, frozenset({0, 1}))
        with pytest.raises(DomainError):
            solve_star_span(K1, F2Vector(K2, 0))

    def test_round_trip_all_targets(self):
        for seed in (0, 1, 2):
            f = random_forest(10, seed)
            K = rho_closure(f, set(range(f.size)))
            for bits in range(1 << len(K)):
                target = F2Vector(K, bits)
                assert combine_stars(K, solve_star_span(K, target)) == target

    def test_batch_solver_matches_per_target(self):
        rng = random.Random(8)
        windows = []
        for seed in range(6):
            f = random_forest(7, seed)
            windows.append(rho_closure(f, set(range(f.size))))
            # proper sub-windows: positions differ from node ids and from matrix order
            windows.append(rho_closure(f, set(rng.sample(range(1, 7), 2))))
        for seed in range(3):
            f = random_forest(14, seed)
            windows.append(rho_closure(f, set(rng.sample(range(1, 14), 4))))
        windows.append(Window.whole(random_forest(12, 0)))
        for K in windows:
            batch = solve_all_targets(K)
            expected = [solve_star_span(K, F2Vector(K, bits)) for bits in range(1 << len(K))]
            assert batch.size == len(expected)
            solved = [batch[bits] for bits in range(1 << len(K))]
            assert solved == expected
            assert all(type(nodes) is frozenset for nodes in solved)

    def test_combine_stars_matches_star_vectors(self):
        rng = random.Random(4)
        for seed in range(20):
            f = random_forest(rng.randint(1, 12), seed)
            K = rho_closure(f, set(rng.sample(range(f.size), rng.randint(1, f.size))))
            for _ in range(10):
                nodes = rng.sample(K.ordered, rng.randrange(len(K) + 1))
                expected = 0
                for xi in nodes:
                    expected ^= parent_star(K.ordered, f.parents, xi)
                assert combine_stars(K, nodes) == F2Vector(K, expected)

    def test_combine_stars_rejects_off_window_node(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        K = Window(f, frozenset({0, 1}))
        assert combine_stars(K, []) == F2Vector(K, 0)
        for outside in (2, 3, 7, -1):
            with pytest.raises(DomainError):
                combine_stars(K, [0, outside])

    def test_residual_raises_under_any_optimisation_level(self):
        # corrupted star masks fail the basis certificate; its checks are raises, not asserts
        K = Window(forest_of(2, {1: 0}), frozenset({0, 1}))
        for masks in (
            {0: 0, 1: 0},  # no star holds its own bit
            {0: 0b01, 1: 0b11},  # the child's star holds its parent's bit
            {0: 0b111, 1: 0b10},  # a star reaches past the window
        ):
            with pytest.raises(CertificateError):
                StarBasis(K, masks)
        # node 1's unit {1, 2} and node 2's unit {2} overlap inside node 0's
        path = Window(forest_of(3, {1: 0, 2: 1}), frozenset(range(3)))
        with pytest.raises(CertificateError):
            StarBasis(path, {0: 0b111, 1: 0b110, 2: 0b100})
        code = (
            "from cascadekit.errors import CertificateError\n"
            "from cascadekit.f2linalg import StarBasis\n"
            "from cascadekit.forest import PredecessorForest, Window\n"
            "K = Window(PredecessorForest(2, (-1, 0)), frozenset({0, 1}))\n"
            "try:\n"
            "    StarBasis(K, {0: 0, 1: 0})\n"
            "except CertificateError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0

    def test_matches_forward_substitution_on_windows_up_to_22_nodes(self):
        rng = random.Random(22)
        for size in range(1, 23):
            f = random_forest(size + rng.randrange(size), rng.getrandbits(32))
            K = rho_closure(f, set(rng.sample(range(f.size), rng.randint(1, size))))
            n = len(K)
            batch = solve_all_targets(K)
            # every target on small windows, a sample on wide ones
            if n <= 8:
                targets = range(1 << n)
            else:
                targets = [0, (1 << n) - 1, *rng.sample(range(1 << n), 100)]
            for t in targets:
                expected = forward_substitution(K, t)
                assert solve_star_span(K, F2Vector(K, t)) == expected
                assert batch[t] == expected

    def test_two_thousand_node_path(self):
        # a path is the deepest window: unit j holds every later node, so the units
        # hold n**2 / 2 bits; substituting each unit back would cost O(n**2) steps
        n = 2000
        K = Window.whole(forest_of(n, {xi: xi - 1 for xi in range(1, n)}))
        tracemalloc.start()
        try:
            f2linalg._star_basis(K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        t = random.Random(2000).getrandbits(n)
        assert solve_star_span(K, F2Vector(K, t)) == forward_substitution(K, t)

    def test_unique_solution_small_windows(self):
        for f in all_forests(5):
            K = Window(f, frozenset(range(5)))
            for bits in range(1 << 5):
                target = F2Vector(K, bits)
                assert brute_force_solutions(K, target) == [solve_star_span(K, target)]

    def test_unique_solution_six_node_windows(self):
        for seed in range(5):
            f = random_forest(6, seed)
            K = Window(f, frozenset(range(6)))
            for bits in range(1 << 6):
                target = F2Vector(K, bits)
                assert brute_force_solutions(K, target) == [solve_star_span(K, target)]


class TestTargetSolutions:
    """``solve_all_targets`` returns the window's basis, indexed by target.

    An entry is solved and boxed only when it is read.
    """

    def test_batch_is_the_cached_basis(self):
        K = Window(forest_of(3, {1: 0, 2: 0}), frozenset(range(3)))
        batch = solve_all_targets(K)
        assert batch is f2linalg._star_basis(K)
        assert isinstance(batch, StarBasis) and not isinstance(batch, Sequence)

    def test_window_keeps_its_basis_while_others_are_solved(self):
        K1 = Window(forest_of(3, {1: 0, 2: 0}), frozenset(range(3)))
        K2 = Window(forest_of(4, {1: 0, 2: 1, 3: 1}), frozenset(range(4)))
        first = solve_all_targets(K1)
        assert solve_star_span(K2, F2Vector(K2, 0b1010)) == forward_substitution(K2, 0b1010)
        assert solve_all_targets(K1) is first

    def test_solved_window_dies_with_its_last_reference(self):
        # nothing outside the window holds it, and its basis does not point back at it
        K = Window(forest_of(4, {1: 0, 2: 1, 3: 1}), frozenset(range(4)))
        gc.disable()
        try:
            solve_star_span(K, F2Vector(K, 0b0110))
            combine_stars(K, [1, 3])
            solve_all_targets(K)[5]
            ref = weakref.ref(K)
            del K
            assert ref() is None
        finally:
            gc.enable()

    def test_pickle_carries_the_window_alone(self):
        # the basis is derived, so a solved window pickles to the bytes of an unsolved one
        K = Window(forest_of(5, {1: 0, 2: 1, 3: 1, 4: 0}), frozenset(range(5)))
        blob = pickle.dumps(K)
        solved = solve_all_targets(K)
        assert pickle.dumps(K) == blob
        restored = pickle.loads(blob)
        assert restored == K and hash(restored) == hash(K) and restored._basis is None
        targets = range(1 << len(K))
        assert [solve_all_targets(restored)[t] for t in targets] == [solved[t] for t in targets]

    def test_every_closed_window_up_to_five_nodes(self):
        for size in range(1, 6):
            for f in all_forests(size):
                for closed in all_closed_subsets(f):
                    if not closed:
                        continue
                    K = Window(f, closed)
                    targets = range(1 << len(K))
                    expected = [frozenset(solve_star_span(K, F2Vector(K, t))) for t in targets]
                    assert [solve_all_targets(K)[t] for t in targets] == expected
                    assert star_matrix(K).order == matrix_order(K)

    def test_index_outside_the_targets_raises(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        K = Window(f, frozenset(range(4)))
        batch = solve_all_targets(K)
        assert batch.size == 16
        for t in (16, -1, -16, -17):
            with pytest.raises(IndexError):
                batch[t]
        assert batch[15] == solve_star_span(K, F2Vector(K, 15))
        assert batch[0] == frozenset()

    def test_read_only(self):
        batch = solve_all_targets(Window(forest_of(2, {1: 0}), frozenset({0, 1})))
        with pytest.raises(TypeError):
            batch[0] = frozenset({1})
        with pytest.raises(TypeError):
            del batch[0]
        with pytest.raises(AttributeError):
            batch.coeffs = (0, 0, 0, 0)

    def test_sixteen_node_window_stays_small(self):
        # the basis takes a few KB; a frozenset per target would peak near 41 MB
        f = random_forest(16, 5)
        K = Window.whole(f)
        tracemalloc.start()
        try:
            batch = solve_all_targets(K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.size == 1 << 16
        assert peak < 16 * 2**20
        for bits in random.Random(16).sample(range(1 << 16), 50):
            assert batch[bits] == solve_star_span(K, F2Vector(K, bits))

    def test_twenty_two_node_window_builds_nothing_per_target(self):
        # 2**22 targets; the batch keeps only the 22 unit solutions
        f = random_forest(22, 3)
        K = Window.whole(f)
        tracemalloc.start()
        try:
            batch = solve_all_targets(K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.size == 1 << 22
        assert peak < 64 * 2**10
        rng = random.Random(22)
        for t in rng.sample(range(1 << 22), 200):
            assert batch[t] == solve_star_span(K, F2Vector(K, t))


EMPTY = Window(forest_of(2, {1: 0}), frozenset())


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: F2Vector.from_nodes(rho_closure(forest_of(3, {1: 0, 2: 0}), {1}), {2}),
            "node 2 not in window",
            id="entry-off-window",
        ),
        pytest.param(lambda: combine_stars(EMPTY, []), "window must be nonempty", id="combine-empty"),
        pytest.param(lambda: solve_star_span(EMPTY, F2Vector(EMPTY, 0)), "window must be nonempty", id="solve-empty"),
        pytest.param(lambda: solve_all_targets(EMPTY), "window must be nonempty", id="solve-all-empty"),
    ],
)
def test_off_window_and_empty_window_rejected(call, message):
    with pytest.raises(DomainError, match=message):
        call()
