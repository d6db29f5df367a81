"""Forest structure, closure, and fresh-separation tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_closed_subsets, all_forests, forest_of
from cascadekit.errors import CapacityError, DomainError, ParseError
from cascadekit.forest import (
    PredecessorForest,
    Window,
    format_forest,
    fresh_separation,
    is_rho_closed,
    parse_forest,
    parse_node_set,
    random_forest,
    rho_closure,
    successors,
)


def separation_clauses_hold(forest, A, beta, gamma):
    """Independent four-clause check used as the separation oracle."""
    succ_beta = {eta for eta in range(forest.size) if eta >= 1 and forest.parents[eta] == beta}
    return (
        beta not in A.nodes
        and gamma not in A.nodes
        and beta != gamma
        and gamma not in succ_beta
        and not (succ_beta & A.nodes)
    )


class TestSuccessors:
    def test_fiber_readout(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        assert successors(f, 0) == {1, 2}

    def test_leaf_has_empty_fiber(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        assert successors(f, 3) == set()

    def test_chain_fiber(self):
        f = forest_of(4, {1: 0, 2: 1, 3: 2})
        assert successors(f, 1) == {2}

    def test_out_of_universe(self):
        f = forest_of(2, {1: 0})
        with pytest.raises(DomainError):
            successors(f, 5)

    def test_non_int_nodes_rejected(self):
        f = forest_of(3, {1: 0, 2: 1})
        for xi in (1.0, "1", None):
            with pytest.raises(DomainError):
                f.check_node(xi)
            with pytest.raises(DomainError):
                successors(f, xi)
            with pytest.raises(DomainError):
                rho_closure(f, {xi})
            with pytest.raises(DomainError):
                Window(f, frozenset({0, xi}))
        for pool in ([1.0, 2], ["1", 2]):  # the pool's nodes pass the same check, before sorting
            with pytest.raises(DomainError):
                fresh_separation(f, rho_closure(f, {0}), pool=pool)
        # bool is an int subclass and stays accepted
        f.check_node(True)
        assert successors(f, True) == {2}

    def test_successors_lie_strictly_above(self):
        for f in all_forests(5):
            for xi in range(f.size):
                assert all(eta > xi for eta in successors(f, xi))


class TestClosure:
    def test_iterates_to_root(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        assert rho_closure(f, {3}).nodes == {3, 1, 0}

    def test_empty(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        assert rho_closure(f, set()).nodes == frozenset()

    def test_chain(self):
        f = forest_of(3, {1: 0, 2: 1})
        assert rho_closure(f, {2, 1}).nodes == {2, 1, 0}

    def test_is_rho_closed_examples(self):
        f = forest_of(3, {1: 0, 2: 0})
        assert is_rho_closed(f, {0, 1})
        assert not is_rho_closed(f, {1})
        assert is_rho_closed(f, set())

    def test_idempotent_and_extensive(self):
        for f in all_forests(5):
            for seed in ({1}, {2, 4}, {3}, set(range(f.size))):
                seed = {x for x in seed if x < f.size}
                closed = rho_closure(f, seed)
                assert seed <= closed.nodes
                assert rho_closure(f, closed.nodes).nodes == closed.nodes

    @given(st.integers(2, 30), st.integers(0, 10**6), st.data())
    def test_monotone_and_union_closed(self, n, seed, data):
        f = random_forest(n, seed)
        a = data.draw(st.sets(st.integers(0, n - 1)))
        b = data.draw(st.sets(st.integers(0, n - 1)))
        ca, cb = rho_closure(f, a), rho_closure(f, b)
        if a <= b:
            assert ca.nodes <= cb.nodes
        assert is_rho_closed(f, ca.nodes | cb.nodes)

    def test_closed_window_rejects_outside_fibers(self):
        # surviving claim for closed sets: fibers of outside nodes stay outside
        for size in range(1, 8):
            for f in all_forests(size):
                for closed in all_closed_subsets(f):
                    for xi in range(f.size):
                        if xi not in closed:
                            assert not (successors(f, xi) & closed)


class TestWindow:
    def test_rejects_non_closed(self):
        f = forest_of(3, {1: 0, 2: 1})
        with pytest.raises(DomainError):
            Window(f, frozenset({2}))

    def test_serialize_sorted(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        w = rho_closure(f, {3, 2})
        assert w.serialize() == "0 1 2 3"

    def test_equal_windows_hash_equal(self):
        # built separately, from separately built forests: the dataclass hash must still agree
        a = rho_closure(forest_of(5, {1: 0, 2: 1, 3: 0, 4: 3}), {2, 4})
        b = Window(forest_of(5, {1: 0, 2: 1, 3: 0, 4: 3}), frozenset({0, 1, 2, 3, 4}))
        assert a is not b and a.forest is not b.forest
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        c = Window(a.forest, frozenset({0, 1, 2}))
        assert c != a and hash(c) != hash(a)


class TestFreshSeparation:
    def test_flat_forest_example(self):
        f = forest_of(6, {i: 0 for i in range(1, 6)})
        A = Window(f, frozenset({0}))
        beta, gamma = fresh_separation(f, A)
        assert (beta, gamma) == (2, 1)
        assert separation_clauses_hold(f, A, beta, gamma)

    def test_blocked_predecessor_example(self):
        f = forest_of(5, {1: 0, 2: 0, 3: 1, 4: 0})
        A = Window(f, frozenset({0, 1, 3}))
        beta, gamma = fresh_separation(f, A)
        assert (beta, gamma) == (4, 2)
        assert separation_clauses_hold(f, A, beta, gamma)

    def test_saturated_universe(self):
        f = forest_of(3, {1: 0, 2: 0})
        A = Window(f, frozenset({0, 1, 2}))
        with pytest.raises(CapacityError):
            fresh_separation(f, A)

    def test_exhaustive_small_universes(self):
        for size in range(1, 7):
            for f in all_forests(size):
                for closed in all_closed_subsets(f):
                    A = Window(f, closed)
                    blocked = set(closed) | {
                        f.parents[eta] for eta in closed if eta >= 1
                    }
                    free = [xi for xi in range(size) if xi not in blocked]
                    if len(free) >= 2:
                        beta, gamma = fresh_separation(f, A)
                        assert separation_clauses_hold(f, A, beta, gamma)
                        assert (gamma, beta) == (free[0], free[1])
                    else:
                        with pytest.raises(CapacityError):
                            fresh_separation(f, A)

    def test_pool_restriction(self):
        f = forest_of(6, {i: 0 for i in range(1, 6)})
        A = Window(f, frozenset({0}))
        beta, gamma = fresh_separation(f, A, pool={3, 4, 5})
        assert (beta, gamma) == (4, 3)


class TestRandomForest:
    def test_single_node(self):
        f = random_forest(1, 3)
        assert f.size == 1 and f.parents == (-1,)

    def test_two_nodes_forced(self):
        assert random_forest(2, 99).parents == (-1, 0)

    def test_deterministic_per_seed(self):
        assert random_forest(5, 7) == random_forest(5, 7)
        assert random_forest(30, 1) == random_forest(30, 1)

    def test_zero_size_rejected(self):
        with pytest.raises(DomainError):
            random_forest(0, 0)

    def test_regressive_always(self):
        for seed in range(20):
            f = random_forest(12, seed)
            assert all(f.parents[xi] < xi for xi in range(1, 12))


class TestForestText:
    def test_round_trip(self):
        f = random_forest(9, 4)
        assert parse_forest(format_forest(f)) == f

    def test_format_shape(self):
        f = forest_of(3, {1: 0, 2: 1})
        assert format_forest(f) == "3\n1 0\n2 1\n"

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_forest("3\n1 zero\n2 1\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_forest("3\n1 0\n2 1 7\n")

    def test_parse_rejects_non_regressive(self):
        with pytest.raises(ParseError):
            parse_forest("3\n1 2\n2 1\n")

    def test_parse_node_set(self):
        assert parse_node_set("3,5") == {3, 5}
        assert parse_node_set("") == set()
        with pytest.raises(ParseError):
            parse_node_set("3,x")


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: PredecessorForest(0, ()), DomainError, "at least the root", id="empty-universe"),
        pytest.param(lambda: PredecessorForest(2, (-1,)), DomainError, "cover the whole universe", id="short-parents"),
        pytest.param(lambda: PredecessorForest(2, (0, 0)), DomainError, "entry must be -1", id="rooted-root"),
        pytest.param(lambda: forest_of(2, {5: 0}), DomainError, "node 5 outside universe of size 2", id="pred-off-universe"),
        pytest.param(lambda: forest_of(3, {1: 0}), DomainError, "pred undefined at node 2", id="pred-missing"),
        pytest.param(
            lambda: fresh_separation(forest_of(2, {1: 0}), Window.whole(forest_of(3, {1: 0, 2: 0}))),
            DomainError,
            "window belongs to a different forest",
            id="foreign-window",
        ),
        pytest.param(
            lambda: parse_forest("3\n1 0\n1 0\n2 0\n"),
            ParseError,
            "line 3: duplicate entry for node 1",
            id="duplicate-node",
        ),
    ],
)
def test_malformed_forests_and_windows_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()
