"""Conditions, toggle sets, cascade automorphisms, shielding, transport."""

import itertools
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_closed_subsets,
    assert_canonical,
    checked_sites,
    forest_of,
    format_condition,
    on_nodes,
    record_calls,
)
from cascadekit import cascade
from cascadekit.cascade import (
    CascadeAutomorphism,
    Condition,
    Coordinate,
    Packet,
    ToggleSet,
    apply,
    compose,
    compose_all,
    fixes_rows_over,
    generator,
    identity,
    pad_common_domain,
    shield_set,
    transport,
)
from cascadekit.cli import parse_condition
from cascadekit.errors import CertificateError, DomainError, ParseError, PreconditionError
from cascadekit.forest import Window, random_forest, rho_closure

toggle_sets = st.builds(
    ToggleSet,
    st.booleans(),
    st.frozensets(st.integers(0, 12), max_size=5),
)


class TestToggleSet:
    def test_finite_symmetric_difference(self):
        a = ToggleSet.finite({1, 2})
        b = ToggleSet.finite({2, 3})
        assert a ^ b == ToggleSet.finite({1, 3})

    def test_cofinite_xor_cofinite_is_finite(self):
        a = ToggleSet.cofinite_excluding({1})
        b = ToggleSet.cofinite_excluding({2})
        got = a ^ b
        # oracle: membership of bits 0..4 pointwise, tails both cofinite so xor is finite
        for n in range(5):
            assert (n in got) == ((n in a) != (n in b))
        assert got == ToggleSet.finite({1, 2})

    def test_self_xor_empty(self):
        s = ToggleSet.cofinite_excluding({0, 7})
        assert (s ^ s).is_empty()

    @given(toggle_sets, toggle_sets)
    def test_xor_matches_pointwise(self, a, b):
        got = a ^ b
        for n in range(16):
            assert (n in got) == ((n in a) != (n in b))

    @given(toggle_sets, toggle_sets, toggle_sets)
    def test_xor_associative_commutative(self, a, b, c):
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ b == b ^ a

    def test_serialize_round_trip(self):
        assert ToggleSet.finite({1, 2}).serialize() == "fin{1,2}"
        assert ToggleSet.cofinite_excluding({0}).serialize() == "cofin{0}"

    def test_mask_below(self):
        assert ToggleSet.cofinite_excluding({1}).mask_below(4) == 0b1101
        assert ToggleSet.finite({0, 5}).mask_below(4) == 0b0001
        cases = [
            ToggleSet.finite(()),
            ToggleSet.cofinite_excluding(set()),
            ToggleSet.finite({4, 9}),  # every exception at or above B = 4
            ToggleSet.cofinite_excluding({4, 9}),
            ToggleSet.finite({0, 3, 4}),
            ToggleSet.cofinite_excluding({0, 3, 4}),
        ]
        for s in cases:
            for B in range(7):  # B = 0 included
                assert s.mask_below(B) == sum(1 << n for n in range(B) if n in s)

    @given(toggle_sets, st.lists(st.integers(0, 14), max_size=6))
    def test_disjoint_from_matches_pointwise(self, s, bits):
        expected = all(n not in s for n in bits)
        assert s.disjoint_from(set(bits)) == expected
        assert s.disjoint_from(frozenset(bits)) == expected
        assert s.disjoint_from(list(bits)) == expected
        assert s.disjoint_from(n for n in bits) == expected  # a one-shot iterator

    def test_negative_bits_rejected(self):
        with pytest.raises(DomainError):
            ToggleSet.finite({-1})
        with pytest.raises(DomainError):  # no mask has a bit 1.5
            ToggleSet.finite({1.5})
        with pytest.raises(DomainError):
            ToggleSet.cofinite_excluding({0, 2.0})

    def test_non_bool_cofinite_rejected(self):
        # 'yes' != True, so a truthy flag would put the excluded bit 1 in the set
        for flag in ("yes", 1, 0, None):
            with pytest.raises(DomainError):
                ToggleSet(flag, frozenset({1}))


class TestConditionValidation:
    def test_bad_value(self):
        with pytest.raises(DomainError):
            Condition.from_map({(0, 0, 0): 2})
        for value in (1.0, 0.0, "1", None):  # 1.0 == 1, but only ints shift into masks
            with pytest.raises(DomainError):
                Condition(((Coordinate(0, 0, 0), value),))

    def test_bool_values_accepted(self):
        cond = Condition(((Coordinate(0, 0, 1), True), (Coordinate(0, 0, 0), False)))
        assert cond == Condition.from_map({(0, 0, 0): 0, (0, 0, 1): 1})

    def test_negative_coordinate(self):
        with pytest.raises(DomainError):
            Condition.from_map({(0, -1, 0): 1})
        # a plain tuple is no Coordinate, though it compares equal to one
        for coord in (Coordinate(0.0, 0, 0), Coordinate(0, 1.0, 0), Coordinate(0, 0, 0.5), (0, 0, 0), None):
            with pytest.raises(DomainError):
                Condition(((coord, 1),))

    def test_duplicate_coordinate(self):
        with pytest.raises(DomainError):
            Condition(((Coordinate(0, 0, 0), 1), (Coordinate(0, 0, 0), 0)))


class TestGenerator:
    def test_fork_root_toggles_three_rows(self):
        f = forest_of(3, {1: 0, 2: 0})
        tau = generator(f, 0, 4, ToggleSet.finite({5}))
        assert dict(tau.row_toggles) == {
            (0, 4): ToggleSet.finite({5}),
            (1, 4): ToggleSet.finite({5}),
            (2, 4): ToggleSet.finite({5}),
        }

    def test_leaf_toggles_single_row(self):
        f = forest_of(3, {1: 0, 2: 0})
        tau = generator(f, 1, 0, ToggleSet.finite({3}))
        assert dict(tau.row_toggles) == {(1, 0): ToggleSet.finite({3})}

    def test_cofinite_generator(self):
        f = forest_of(3, {1: 0, 2: 0})
        full = ToggleSet.cofinite_excluding(set())
        tau = generator(f, 0, 1, full)
        assert set(dict(tau.row_toggles).values()) == {full}
        assert len(tau.row_toggles) == 3

    def test_empty_toggle_rejected(self):
        f = forest_of(2, {1: 0})
        with pytest.raises(DomainError):
            generator(f, 0, 0, ToggleSet.finite(()))

    def test_non_int_node_rejected(self):
        f = forest_of(2, {1: 0})
        for xi in (0.0, "0"):
            with pytest.raises(DomainError):
                generator(f, xi, 0, ToggleSet.finite({0}))


class TestAutomorphismValidation:
    def test_keys_sorted_whatever_the_input_order(self):
        f = forest_of(3, {1: 0, 2: 0})
        s = ToggleSet.finite({1})
        entries = (((2, 0), s), ((0, 1), s), ((1, 0), s))
        tau = CascadeAutomorphism(f, entries)
        assert [k for k, _ in tau.row_toggles] == [(0, 1), (1, 0), (2, 0)]
        assert tau == CascadeAutomorphism(f, tuple(sorted(entries, key=lambda kv: kv[0])))
        assert tau.toggle_at(2, 0) == s and tau.toggle_at(2, 1).is_empty()

    @pytest.mark.parametrize(
        "entries",
        [
            (((1, 0), ToggleSet.finite({1})), ((1, 0), ToggleSet.finite({2}))),  # duplicate row
            (((3, 0), ToggleSet.finite({1})),),  # node outside the universe
            (((-1, 0), ToggleSet.finite({1})),),  # negative node
            (((1, -1), ToggleSet.finite({1})),),  # negative row
            (((1.0, 0), ToggleSet.finite({0})),),  # non-int node
            (((1, 0.5), ToggleSet.finite({0})),),  # non-int row
            ((("1", 0), ToggleSet.finite({0})),),  # str node
            (((1, 0), ToggleSet.finite(())),),  # empty toggle
            (((2, 0), ToggleSet.finite({1})), ((0, 0), ToggleSet.finite(()))),  # empty, unsorted
        ],
    )
    def test_rejections(self, entries):
        f = forest_of(3, {1: 0, 2: 0})
        with pytest.raises(DomainError):
            CascadeAutomorphism(f, entries)

    def test_bool_node_and_row_accepted(self):
        f = forest_of(3, {1: 0, 2: 0})
        tau = CascadeAutomorphism(f, (((True, True), ToggleSet.finite({0})),))
        assert tau.toggle_at(1, 1) == ToggleSet.finite({0})


conditions = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 3)),
    st.integers(0, 1),
    max_size=7,
).map(Condition.from_map)


class TestDerivedConditions:
    """Derived values skip the checks through ``_Value._checked``, so each must already pass them."""

    def test_checked_only_at_derivation_sites(self):
        assert checked_sites(Path(cascade.__file__).parent.glob("*.py")) == {
            ("cascade", "ToggleSet.__xor__"),
            ("cascade", "compose_all"),
            ("cascade", "apply"),
            ("cascade", "pad_common_domain"),
            ("f2linalg", "star_matrix"),
            ("names", "normalize"),
            ("names", "packet_of_code"),
            ("names", "two_layer_code"),
            ("orbits", "close_group"),
        }

    def test_site_walk_sees_module_statements_and_nested_defs(self, tmp_path):
        path = tmp_path / "derived.py"
        path.write_text(
            "EMPTY = ToggleSet._checked(cofinite=False, exceptions=frozenset())\n"
            "class Outer:\n"
            "    DEFAULT = Condition._checked(entries=())\n"
            "    class Inner:\n"
            "        def build(self):\n"
            "            return Condition._checked(entries=())\n"
            "def outer():\n"
            "    def inner():\n"
            "        return Packet._checked\n"
            "    return inner\n"
        )
        assert checked_sites([path]) == {
            ("derived", "<module>"),
            ("derived", "Outer"),
            ("derived", "Outer.Inner.build"),
            ("derived", "outer.inner"),
        }

    @given(toggle_sets, toggle_sets)
    def test_toggle_xor(self, a, b):
        got = a ^ b
        assert_canonical(got)
        assert all((n in got) == ((n in a) != (n in b)) for n in range(14))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_compose_all(self, seed, n_generators):
        rng = random.Random(seed)
        f = random_forest(rng.randrange(1, 7), seed)
        word = [random_generator(f, rng) for _ in range(n_generators)]
        # a repeated factor cancels, so the product also omits the rows the word empties
        word += word[: rng.randrange(n_generators + 1)]
        got = compose_all(f, word)
        assert_canonical(got)
        for node, row, bit in itertools.product(range(f.size), range(3), range(5)):
            parity = sum(bit in tau.toggle_at(node, row) for tau in word) % 2
            assert (bit in got.toggle_at(node, row)) == parity

    @given(conditions, st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_apply(self, q, seed, n_generators):
        rng = random.Random(seed)
        f = random_forest(5, seed)
        tau = compose_all(f, (random_generator(f, rng) for _ in range(n_generators)))
        assert_canonical(apply(tau, q))

    @given(conditions, st.sets(st.integers(0, 5)))
    def test_restrict_to_nodes(self, q, nodes):
        got = on_nodes(q.entries, nodes)
        assert_canonical(got)
        assert got.as_dict() == {c: v for c, v in q.entries if c.node in nodes}

    @given(conditions, conditions)
    def test_merge_and_pad(self, p, q):
        p_map = p.as_dict()
        # p and the part of q off p's domain, one condition as transport's instances are built
        merged = Condition(p.entries + tuple((c, v) for c, v in q.entries if c not in p_map))
        assert_canonical(merged)
        assert merged.as_dict() == {**q.as_dict(), **p_map}
        p_pad, q_pad = pad_common_domain(p, q)
        assert_canonical(p_pad)
        assert_canonical(q_pad)
        assert p_pad.domain() == q_pad.domain() == p.domain() | q.domain()


def random_generator(forest, rng, rows=3, bits=4):
    xi = rng.randrange(forest.size)
    row = rng.randrange(rows)
    cofinite = rng.random() < 0.3
    exceptions = frozenset(rng.sample(range(bits), rng.randrange(1, bits)))
    s = ToggleSet(cofinite, exceptions) if (cofinite or exceptions) else ToggleSet.finite({0})
    return generator(forest, xi, row, s)


def random_condition(forest, rng, rows=3, bits=4, max_len=6):
    entries = {}
    for _ in range(rng.randrange(max_len + 1)):
        coord = Coordinate(rng.randrange(forest.size), rng.randrange(rows), rng.randrange(bits))
        entries[coord] = rng.randrange(2)
    return Condition.from_map({tuple(c): v for c, v in entries.items()})


class TestCompose:
    def test_involution(self):
        f = forest_of(3, {1: 0, 2: 0})
        tau = generator(f, 0, 1, ToggleSet.finite({2, 3}))
        assert compose(tau, tau).is_identity()

    def test_commutative_on_random_generators(self):
        f = random_forest(7, 11)
        rng = random.Random(5)
        for _ in range(60):
            g1, g2 = random_generator(f, rng), random_generator(f, rng)
            assert compose(g1, g2) == compose(g2, g1)

    def test_disjoint_rows_union(self):
        f = forest_of(3, {1: 0, 2: 0})
        g1 = generator(f, 1, 0, ToggleSet.finite({1}))
        g2 = generator(f, 2, 1, ToggleSet.finite({2}))
        combined = dict(compose(g1, g2).row_toggles)
        assert combined == {
            (1, 0): ToggleSet.finite({1}),
            (2, 1): ToggleSet.finite({2}),
        }

    def test_forest_mismatch(self):
        g1 = generator(forest_of(2, {1: 0}), 0, 0, ToggleSet.finite({1}))
        g2 = generator(forest_of(3, {1: 0, 2: 0}), 0, 0, ToggleSet.finite({1}))
        with pytest.raises(DomainError):
            compose(g1, g2)

    @pytest.mark.parametrize("position", range(4))
    def test_word_with_a_foreign_factor(self, position):
        f = forest_of(3, {1: 0, 2: 0})
        word = [generator(f, xi, 0, ToggleSet.finite({xi})) for xi in range(3)]
        word.insert(position, generator(forest_of(3, {1: 0, 2: 1}), 0, 0, ToggleSet.finite({0})))
        with pytest.raises(DomainError, match="different forests"):
            compose_all(f, word)

    def test_every_product_is_self_inverse(self):
        f = random_forest(6, 2)
        rng = random.Random(9)
        for _ in range(40):
            taus = [random_generator(f, rng) for _ in range(rng.randrange(1, 5))]
            product = compose_all(f, taus)
            assert compose(product, product).is_identity()


class TestApply:
    def test_identity_fixes_everything(self):
        f = forest_of(3, {1: 0, 2: 0})
        rng = random.Random(0)
        for _ in range(20):
            q = random_condition(f, rng)
            assert apply(identity(f), q) == q

    def test_single_flip(self):
        f = forest_of(2, {1: 0})
        q = Condition.from_map({(0, 1, 3): 0})
        tau = generator(f, 0, 1, ToggleSet.finite({3}))
        assert apply(tau, q) == Condition.from_map({(0, 1, 3): 1})

    def test_disjoint_row_untouched(self):
        f = forest_of(2, {1: 0})
        q = Condition.from_map({(0, 2, 3): 1, (1, 2, 0): 0})
        tau = generator(f, 0, 1, ToggleSet.cofinite_excluding(set()))
        assert apply(tau, q) == q

    def test_unmoved_condition_is_returned_itself(self):
        f = forest_of(3, {1: 0, 2: 0})
        q = Condition.from_map({(0, 0, 1): 1, (1, 0, 2): 0, (2, 1, 0): 1})
        assert apply(identity(f), q) is q
        assert apply(generator(f, 0, 0, ToggleSet.cofinite_excluding({1, 2})), q) is q
        assert apply(generator(f, 1, 1, ToggleSet.finite({0})), q) is q

    def test_pointwise_replay(self):
        rng = random.Random(21)
        for _ in range(300):
            f = random_forest(rng.randint(1, 6), rng.getrandbits(32))
            tau = compose_all(f, [random_generator(f, rng) for _ in range(rng.randrange(4))])
            q = random_condition(f, rng)
            toggles = dict(tau.row_toggles)
            expected = {}
            for c, v in q.entries:
                ts = toggles.get((c.node, c.row))
                expected[tuple(c)] = v ^ (ts is not None and c.bit in ts)
            moved = apply(tau, q)
            assert moved == Condition.from_map(expected)
            assert (moved is q) == (moved == q)

    def test_action_is_involutive(self):
        f = random_forest(5, 3)
        rng = random.Random(1)
        for _ in range(40):
            q = random_condition(f, rng)
            tau = random_generator(f, rng)
            assert apply(tau, apply(tau, q)) == q


class TestShield:
    def test_definition_readout(self):
        f = forest_of(3, {1: 0, 2: 1})
        # eta=2 is a successor of beta=1; row 9 with other row index excluded
        q = Condition.from_map({(1, 0, 2): 1, (2, 0, 5): 0, (1, 9, 7): 1})
        assert shield_set(q, 1, 0, f) == {2, 5}

    def test_empty_condition(self):
        f = forest_of(3, {1: 0, 2: 1})
        assert shield_set(Condition.empty(), 1, 0, f) == frozenset()

    def test_far_nodes_do_not_shield(self):
        f = forest_of(4, {1: 0, 2: 0, 3: 1})
        q = Condition.from_map({(2, 0, 1): 1, (0, 0, 2): 0})
        assert shield_set(q, 1, 0, f) == frozenset()

    def test_shielded_toggles_fix_the_condition(self):
        rng = random.Random(77)
        for trial in range(300):
            f = random_forest(rng.randrange(2, 8), trial)
            q = random_condition(f, rng)
            beta = rng.randrange(f.size)
            row = rng.randrange(3)
            shield = shield_set(q, beta, row, f)
            free = [n for n in range(6) if n not in shield]
            exceptions = frozenset(shield | set(rng.sample(free, rng.randrange(len(free) + 1))))
            for s in (
                ToggleSet.cofinite_excluding(exceptions),
                ToggleSet.finite(frozenset(free) - exceptions),
            ):
                if s.is_empty():
                    continue
                assert s.disjoint_from(shield)
                assert apply(generator(f, beta, row, s), q) == q

    def test_pointwise_replay(self):
        # conditions mention rows 0..2 of nodes anywhere in the forest; rows 3 and 4 never
        rng = random.Random(314)
        checked = {"found": 0, "empty": 0, "unmentioned": 0}
        for _ in range(300):
            f = random_forest(rng.randint(1, 7), rng.getrandbits(32))
            q = random_condition(f, rng, max_len=rng.choice((0, 3, 8)))
            for beta in range(f.size):
                for row in range(5):
                    expected = frozenset(
                        c.bit for c, _ in q.entries
                        if c.row == row and (c.node == beta or f.parents[c.node] == beta)
                    )
                    got = shield_set(q, beta, row, f)
                    assert type(got) is frozenset and got == expected
                    if expected:
                        checked["found"] += 1
                    elif any(c.row == row for c, _ in q.entries):
                        checked["empty"] += 1  # the row is mentioned, but only off beta and its children
                    else:
                        checked["unmentioned"] += 1
        assert min(checked.values()) > 100

    def test_bad_node_still_rejected(self):
        f = forest_of(3, {1: 0, 2: 1})
        q = Condition.from_map({(1, 0, 2): 1})
        with pytest.raises(DomainError):
            shield_set(q, 3, 0, f)
        for beta in (1.0, "1"):
            with pytest.raises(DomainError):
                shield_set(q, beta, 0, f)


class TestRowIndex:
    """The row index ``apply`` and ``shield_set`` read is a cache, not part of the value."""

    def test_equality_and_hash_ignore_the_index(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_forest(rng.randint(2, 6), rng.getrandbits(32))
            q = random_condition(f, rng)
            shuffled = list(q.entries)
            rng.shuffle(shuffled)
            other = Condition(tuple(shuffled))
            text, blob = repr(q), pickle.dumps(q)
            apply(random_generator(f, rng), q)  # builds the index on q only
            shield_set(q, 0, 0, f)
            assert "_row_bits" in vars(q) and "_row_bits" not in vars(other)
            assert q == other and other == q and hash(q) == hash(other)
            assert len({q, other}) == 1
            assert repr(q) == repr(other) == text
            assert pickle.dumps(q) == pickle.dumps(other) == blob
            restored = pickle.loads(blob)
            assert restored == q and hash(restored) == hash(q)
            assert "_row_bits" not in vars(restored) and restored._row_bits == q._row_bits

    def test_index_matches_the_entries(self):
        q = Condition.from_map({(2, 0, 3): 1, (0, 1, 0): 0, (2, 0, 1): 1, (1, 1, 4): 0})
        assert q._row_bits == {(0, 1): {0}, (1, 1): {4}, (2, 0): {1, 3}}
        assert Condition.empty()._row_bits == {}


class TestFixesRowsOver:
    def test_generator_off_window_exhaustive(self):
        from conftest import all_forests

        for size in range(1, 6):
            for f in all_forests(size):
                for closed in all_closed_subsets(f):
                    A = Window(f, closed)
                    for xi in range(f.size):
                        if xi in closed:
                            continue
                        tau = generator(f, xi, 0, ToggleSet.finite({1}))
                        # oracle: successors of an outside node stay outside a closed set
                        assert fixes_rows_over(tau, A)

    def test_generator_inside_window(self):
        f = forest_of(3, {1: 0, 2: 0})
        A = Window(f, frozenset({0, 1}))
        assert not fixes_rows_over(generator(f, 0, 0, ToggleSet.finite({1})), A)

    def test_identity_fixes(self):
        f = forest_of(3, {1: 0, 2: 0})
        assert fixes_rows_over(identity(f), Window(f, frozenset({0})))

    def test_closed_under_composition(self):
        f = random_forest(6, 21)
        A = rho_closure(f, {1})
        rng = random.Random(3)
        fixers = []
        while len(fixers) < 10:
            tau = random_generator(f, rng)
            if fixes_rows_over(tau, A):
                fixers.append(tau)
        for g1, g2 in itertools.combinations(fixers, 2):
            assert fixes_rows_over(compose(g1, g2), A)


class TestPadCommonDomain:
    def test_pads_missing_with_zero(self):
        c = (0, 0, 0)
        p = Condition.from_map({c: 1})
        q = Condition.empty()
        p2, q2 = pad_common_domain(p, q)
        assert p2 == Condition.from_map({c: 1})
        assert q2 == Condition.from_map({c: 0})

    def test_equal_inputs_unchanged(self):
        p = Condition.from_map({(0, 1, 2): 1, (1, 0, 0): 0})
        assert pad_common_domain(p, p) == (p, p)

    def test_pads_both_sides_with_zero(self):
        a, b = Coordinate(0, 0, 0), Coordinate(1, 0, 0)
        p2, q2 = pad_common_domain(Condition(((a, 1),)), Condition(((b, 1),)))
        assert p2.as_dict() == {a: 1, b: 0}
        assert q2.as_dict() == {a: 0, b: 1}

    def test_disjoint_domains(self):
        p = Condition.from_map({(0, 0, 0): 1})
        q = Condition.from_map({(1, 0, 0): 1})
        p2, q2 = pad_common_domain(p, q)
        assert p2.domain() == q2.domain() == p.domain() | q.domain()


class TestPacket:
    def test_fixed_by_support_fixers(self):
        rng = random.Random(13)
        for trial in range(100):
            f = random_forest(rng.randrange(2, 7), trial + 1000)
            pkt = Packet(random_condition(f, rng))
            A = rho_closure(f, {c.node for c in pkt.condition.domain()})
            tau = random_generator(f, rng)
            if fixes_rows_over(tau, A):
                assert apply(tau, pkt.condition) == pkt.condition


def automorphisms_up_to_two_generators(forest, rows, bits):
    gens = [
        generator(forest, xi, row, ToggleSet.finite({n}))
        for xi in range(forest.size)
        for row in range(rows)
        for n in range(bits)
    ]
    yield identity(forest)
    for g in gens:
        yield g
    for g1, g2 in itertools.combinations(gens, 2):
        yield compose(g1, g2)


class TestTransport:
    def test_equal_conditions_give_identity(self):
        f = forest_of(3, {1: 0, 2: 0})
        A = rho_closure(f, {0})
        p = Condition.from_map({(1, 0, 0): 1})
        assert transport(p, p, A).is_identity()

    def test_leaf_single_difference_is_one_generator(self):
        f = forest_of(3, {1: 0, 2: 1})
        A = Window(f, frozenset())
        p = Condition.from_map({(2, 1, 3): 0})
        q = Condition.from_map({(2, 1, 3): 1})
        pi = transport(p, q, A)
        assert pi == generator(f, 2, 1, ToggleSet.finite({3}))
        # oracle: search products of at most two single-bit generators
        p2, q2 = pad_common_domain(p, q)
        matches = [
            tau
            for tau in automorphisms_up_to_two_generators(f, 2, 4)
            if apply(tau, p2) == q2 and fixes_rows_over(tau, A)
        ]
        assert pi in matches
        assert min(len(tau.row_toggles) for tau in matches) == len(pi.row_toggles)

    def test_two_node_chain_difference(self):
        f = forest_of(3, {1: 0, 2: 1})
        A = Window(f, frozenset())
        p = Condition.from_map({(1, 0, 2): 0, (2, 0, 2): 0})
        q = Condition.from_map({(1, 0, 2): 1, (2, 0, 2): 0})
        pi = transport(p, q, A)
        p2, q2 = pad_common_domain(p, q)
        assert apply(pi, p2) == q2
        assert fixes_rows_over(pi, A)

    def test_disagreement_over_window_rejected(self):
        f = forest_of(3, {1: 0, 2: 0})
        A = rho_closure(f, {1})
        p = Condition.from_map({(1, 0, 0): 1})
        q = Condition.from_map({(1, 0, 0): 0})
        with pytest.raises(PreconditionError):
            transport(p, q, A)

    def test_closure_through_window_stays_sound(self):
        # the closure of the off-window mentions passes through the window root
        f = forest_of(2, {1: 0})
        A = rho_closure(f, {0})
        p = Condition.from_map({(1, 0, 0): 0, (0, 0, 0): 1})
        q = Condition.from_map({(1, 0, 0): 1, (0, 0, 0): 1})
        pi = transport(p, q, A)
        assert fixes_rows_over(pi, A)
        p2, q2 = pad_common_domain(p, q)
        assert apply(pi, p2) == q2

    def test_one_product_of_the_generators(self, monkeypatch):
        # a row-bit slice of three nodes: each solved generator is checked once, then one product
        builds = record_calls(monkeypatch, CascadeAutomorphism, "__post_init__")
        generators = record_calls(monkeypatch, cascade, "generator")
        products = record_calls(monkeypatch, cascade, "compose_all")
        f = forest_of(4, {1: 0, 2: 1, 3: 1})
        p = Condition.from_map({(1, 0, 0): 0, (2, 0, 0): 0, (3, 1, 2): 0})
        q = Condition.from_map({(1, 0, 0): 1, (2, 0, 0): 1, (3, 1, 2): 1})
        pi = transport(p, q, Window(f, frozenset()))
        assert len(generators) >= 2 and len(builds) == len(generators) and len(products) == 1
        assert apply(pi, p) == q

    def test_random_instances(self):
        rng = random.Random(99)
        for trial in range(200):
            f = random_forest(rng.randrange(2, 8), 5000 + trial)
            A = rho_closure(f, set(rng.sample(range(f.size), rng.randrange(f.size))))
            off = set(range(f.size)) - A.nodes
            shared = on_nodes(random_condition(f, rng, max_len=3).entries, A.nodes)
            p = Condition(shared.entries + on_nodes(random_condition(f, rng, max_len=3).entries, off).entries)
            q = Condition(shared.entries + on_nodes(random_condition(f, rng, max_len=3).entries, off).entries)
            pi = transport(p, q, A)
            p2, q2 = pad_common_domain(p, q)
            assert apply(pi, p2) == q2
            assert fixes_rows_over(pi, A)


class TestTransportGuards:
    """Each internal check raises CertificateError, so it survives ``python -O``."""

    @staticmethod
    def instance():
        f = forest_of(3, {1: 0, 2: 0})
        A = rho_closure(f, {0})
        p = Condition.from_map({(0, 0, 0): 1, (1, 0, 2): 0})
        q = Condition.from_map({(0, 0, 0): 1, (1, 0, 2): 1})
        return p, q, A

    def test_coefficients_inside_the_window(self, monkeypatch):
        monkeypatch.setattr(cascade, "solve_star_span", lambda K, target: {0})
        with pytest.raises(CertificateError, match="fixed window"):
            transport(*self.instance())

    def test_rows_over_the_window_toggled(self, monkeypatch):
        monkeypatch.setattr(cascade, "fixes_rows_over", lambda tau, A: False)
        with pytest.raises(CertificateError, match="toggles a row"):
            transport(*self.instance())

    def test_result_misses_the_target(self, monkeypatch):
        monkeypatch.setattr(cascade, "apply", lambda tau, q: q)
        with pytest.raises(CertificateError, match="carry p to q"):
            transport(*self.instance())


class TestConditionText:
    def test_round_trip(self):
        q = Condition.from_map({(0, 1, 2): 1, (3, 0, 1): 0})
        text = format_condition(q, 4, 2, 3)
        dims, parsed = parse_condition(text)
        assert dims == (4, 2, 3) and parsed == q

    def test_header_required(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_condition("0 0 0 1\n")

    def test_out_of_box_coordinate(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_condition("box 2 2 2\n5 0 0 1\n")

    def test_duplicate_coordinate(self):
        with pytest.raises(ParseError):
            parse_condition("box 2 2 2\n0 0 0 1\n0 0 0 0\n")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: generator(forest_of(2, {1: 0}), 0, -1, ToggleSet.finite({0})),
            "negative row index",
            id="generator-negative-row",
        ),
        pytest.param(
            lambda: fixes_rows_over(
                generator(forest_of(2, {1: 0}), 0, 0, ToggleSet.finite({0})),
                Window.whole(forest_of(3, {1: 0, 2: 0})),
            ),
            "automorphism and window use different forests",
            id="fixes-foreign-window",
        ),
        pytest.param(
            lambda: generator(forest_of(2, {1: 0}), 1, 0, None),
            None,
            id="generator-toggle-none",
        ),
        pytest.param(
            lambda: CascadeAutomorphism(None, ()),
            "malformed CascadeAutomorphism",
            id="automorphism-forest-none",
        ),
    ],
)
def test_generator_and_fixing_rejections(call, message):
    # a row without a message passes a wrong-typed argument, which need only fail at the call
    with pytest.raises(Exception if message is None else DomainError, match=message):
        call()


def test_toggle_set_given_a_list_equals_the_frozen_one():
    listed = ToggleSet(False, [1])
    assert listed == ToggleSet.finite({1}) and hash(listed) == hash(ToggleSet.finite({1}))
    assert listed ^ ToggleSet.finite({2}) == ToggleSet.finite({1, 2})


def test_automorphism_given_a_list_equals_the_tuple_one():
    f = forest_of(2, {1: 0})
    entries = [((1, 0), ToggleSet.finite({1}))]
    listed = CascadeAutomorphism(f, entries)
    assert listed == CascadeAutomorphism(f, tuple(entries))
    assert hash(listed) == hash(generator(f, 1, 0, ToggleSet.finite({1})))
