"""Equality patterns, swap witnesses, canonical selectors, choice lifting."""

import dataclasses
import itertools
import random

import pytest

from conftest import (
    all_assignments,
    all_conditions,
    apply_to_assignment,
    forest_of,
    pattern_flip_loop,
    random_box,
    small_box,
)
from cascadekit.cascade import Condition, ToggleSet, compose, compose_all, generator
from cascadekit.errors import CapacityError, DomainError, PreconditionError
from cascadekit.forest import Window, rho_closure
from cascadekit.names import Assignment, CoordinateBox
from cascadekit.selectors import (
    IndexedFamily,
    SwapCertificate,
    SwapWitness,
    TraceProfile,
    canonical_selector,
    equality_pattern,
    format_witness,
    lift_choice,
    pattern_shift,
    swap_witness,
)
from cascadekit.verify import _replayed_flips, _witness_faults


def assignment_with_rows(box, node_to_row_bits, row=0):
    bits = 0
    for node, row_bits in node_to_row_bits.items():
        for n in range(box.bits):
            if (row_bits >> n) & 1:
                from cascadekit.cascade import Coordinate

                bits |= 1 << box.index(Coordinate(node, row, n))
    return Assignment(box, bits)


class TestEqualityPattern:
    def test_pointwise_comparison(self):
        box = small_box(size=2, rows=1, bits=4)
        # rows 0101 and 0110 written low bit first
        g = assignment_with_rows(box, {0: 0b1010, 1: 0b0110})
        assert equality_pattern(g, 0, 1, 0) == 0b0011  # 1100 low bit first

    def test_identical_rows(self):
        box = small_box(size=2, rows=1, bits=4)
        g = assignment_with_rows(box, {0: 0b1010, 1: 0b1010})
        assert equality_pattern(g, 0, 1, 0) == 0b1111  # 1111 low bit first

    def test_complementary_rows(self):
        box = small_box(size=2, rows=1, bits=4)
        g = assignment_with_rows(box, {0: 0b1010, 1: 0b0101})
        assert equality_pattern(g, 0, 1, 0) == 0b0000  # 0000 low bit first

    def test_same_row_rejected(self):
        box = small_box(size=2, rows=1, bits=4)
        with pytest.raises(DomainError):
            equality_pattern(Assignment(box, 0), 1, 1, 0)


class TestSwapWitness:
    def test_empty_condition_gives_empty_shield(self):
        box = small_box(size=3, rows=1, bits=2)
        A = rho_closure(box.forest, {0})
        w = swap_witness(Condition.empty(), A, 0, box)
        assert w.shield == frozenset()
        assert w.toggle == ToggleSet.cofinite_excluding(set())
        assert w.certificate.all_pass()

    def test_single_entry_shield(self):
        box = small_box(size=3, rows=1, bits=4)
        A = rho_closure(box.forest, {0})
        beta_expected = 2  # fresh pair beside {0} in a flat forest is (2, 1)
        q = Condition.from_map({(beta_expected, 0, 2): 1})
        w = swap_witness(q, A, 0, box)
        assert (w.beta, w.gamma) == (2, 1)
        assert w.shield == {2}
        assert 2 not in w.toggle
        assert w.certificate.all_pass()

    def test_condition_over_support_leaves_empty_shield(self):
        box = small_box(size=4, rows=1, bits=3)
        A = rho_closure(box.forest, {0, 1})
        q = Condition.from_map({(0, 0, 1): 1, (1, 0, 2): 0})
        w = swap_witness(q, A, 0, box)
        assert w.shield == frozenset()
        assert w.certificate.all_pass()

    def test_saturated_window_raises_capacity(self):
        box = small_box(size=3, rows=1, bits=2)
        A = Window.whole(box.forest)
        with pytest.raises(CapacityError):
            swap_witness(Condition.empty(), A, 0, box)

    def test_certificates_reverify_independently(self):
        box = small_box(size=3, rows=2, bits=2)
        f = box.forest
        A = rho_closure(f, {0})
        q = Condition.from_map({(1, 0, 0): 1, (2, 1, 1): 0})
        w = swap_witness(q, A, 0, box)
        tau = generator(f, w.beta, w.row, w.toggle)
        from cascadekit.cascade import apply, fixes_rows_over
        assert apply(tau, q) == q
        assert fixes_rows_over(tau, A)
        expected_flip = w.toggle.mask_below(box.bits)
        for g in all_assignments(box):
            before = equality_pattern(g, w.beta, w.gamma, w.row)
            after = equality_pattern(apply_to_assignment(tau, g), w.beta, w.gamma, w.row)
            assert after == before ^ expected_flip

    def test_pair_is_preserved_while_members_swap(self):
        box = small_box(size=3, rows=1, bits=3)
        f = box.forest
        A = rho_closure(f, {0})
        w = swap_witness(Condition.empty(), A, 0, box)
        tau = generator(f, w.beta, w.row, w.toggle)
        full = (1 << box.bits) - 1
        for g in all_assignments(box):
            before = equality_pattern(g, w.beta, w.gamma, w.row)
            after = equality_pattern(apply_to_assignment(tau, g), w.beta, w.gamma, w.row)
            assert {after, after ^ full} == {before, before ^ full}
            assert after == before ^ full  # toggle covers every bit below B

    def test_both_rows_toggled_fixes_pattern(self):
        # a generator at the common predecessor toggles both rows alike
        box = small_box(size=3, rows=1, bits=3)
        f = box.forest
        tau = generator(f, 0, 0, ToggleSet.cofinite_excluding({1}))
        assert pattern_shift(tau, 1, 2, 0, box) == 0

    def test_witness_text_block(self):
        box = small_box(size=3, rows=1, bits=4)
        A = rho_closure(box.forest, {0})
        q = Condition.from_map({(2, 0, 2): 1})
        text = format_witness(swap_witness(q, A, 0, box))
        assert "beta: 2" in text
        assert "shield: {2}" in text
        assert "toggle: cofin{2}" in text
        assert text.count("PASS") == 3


def replayed_shift(word, beta, gamma, row, box):
    """The oracle's pattern shift: the replayed flips of the two rows, XORed."""
    f, B = box.forest, box.bits
    return _replayed_flips(f, word, beta, row, B) ^ _replayed_flips(f, word, gamma, row, B)


def swept_shifts(tau, beta, gamma, row, box):
    """Brute force: the pattern shift ``pattern(g ^ f) ^ pattern(g)`` of every assignment."""
    return {
        equality_pattern(apply_to_assignment(tau, g), beta, gamma, row)
        ^ equality_pattern(g, beta, gamma, row)
        for g in all_assignments(box)
    }


class TestClosedFormCertificate:
    SHAPES = ((3, 1, 2), (2, 2, 2), (4, 1, 2), (3, 1, 3), (4, 2, 1), (2, 1, 4))

    def random_instance(self, rng):
        n_nodes, rows, bits = rng.choice(self.SHAPES)
        box = random_box(rng, (n_nodes, rows, bits))
        f = box.forest
        A = rho_closure(f, set(rng.sample(range(n_nodes), rng.randrange(n_nodes))))
        entries = {}
        for _ in range(rng.randrange(6)):
            entries[(rng.randrange(n_nodes), rng.randrange(rows), rng.randrange(bits))] = rng.randrange(2)
        return Condition.from_map(entries), A, rng.randrange(rows), box

    def test_agrees_with_brute_force_sweep(self):
        rng = random.Random(2024)
        witnesses = 0
        while witnesses < 200:
            q, A, row, box = self.random_instance(rng)
            try:
                w = swap_witness(q, A, row, box)
            except CapacityError:
                continue
            witnesses += 1
            tau = generator(box.forest, w.beta, w.row, w.toggle)
            swept = swept_shifts(tau, w.beta, w.gamma, w.row, box)
            assert swept == {pattern_shift(tau, w.beta, w.gamma, w.row, box)}
            assert w.certificate.pattern_flip == (swept == {w.toggle.mask_below(box.bits)})
            assert w.certificate.all_pass()
            assert w.certificate.assignments_checked == 1 << box.n_coords
            assert _witness_faults(w, q, A, box) == []
            assert {replayed_shift([(w.beta, w.row, w.toggle)], w.beta, w.gamma, w.row, box)} == swept

    def test_shift_of_any_automorphism_is_constant(self):
        rng = random.Random(7)
        for _ in range(200):
            _, _, row, box = self.random_instance(rng)
            f = box.forest
            gens = []
            for _ in range(rng.randrange(4)):
                s = ToggleSet(rng.random() < 0.5, frozenset(rng.sample(range(4), rng.randint(1, 3))))
                gens.append(generator(f, rng.randrange(f.size), rng.randrange(box.rows), s))
            tau = compose_all(f, gens)
            beta, gamma = rng.sample(range(f.size), 2)
            assert swept_shifts(tau, beta, gamma, row, box) == {pattern_shift(tau, beta, gamma, row, box)}

    def test_tampered_witness_hitting_gamma_fails(self):
        # gamma is replaced by a successor of beta, so beta's generator toggles it too
        box = small_box(size=4, rows=1, bits=3, pred={1: 0, 2: 0, 3: 2})
        A = rho_closure(box.forest, {0})
        w = swap_witness(Condition.empty(), A, 0, box)
        assert (w.beta, w.gamma) == (2, 1) and w.certificate.all_pass()
        tampered = dataclasses.replace(w, gamma=3)
        tau = generator(box.forest, w.beta, w.row, w.toggle)
        expected = w.toggle.mask_below(box.bits)
        assert pattern_shift(tau, tampered.beta, tampered.gamma, 0, box) != expected
        assert swept_shifts(tau, tampered.beta, tampered.gamma, 0, box) != {expected}
        assert not pattern_flip_loop(tau, tampered.beta, tampered.gamma, 0, expected, box)
        assert pattern_flip_loop(tau, 2, 3, 0, replayed_shift([(2, 0, w.toggle)], 2, 3, 0, box), box)
        assert _witness_faults(tampered, Condition.empty(), A, box) == ["pattern-flip"]
        # the same rows with gamma's row toggled alike by a second generator
        both = compose(tau, generator(box.forest, w.gamma, 0, w.toggle))
        assert pattern_shift(both, w.beta, w.gamma, 0, box) == 0 != expected

    def test_both_rows_toggled_matches_sweep(self):
        for bits in (1, 2, 3):
            box = small_box(size=4, rows=1, bits=bits, pred={1: 0, 2: 0, 3: 1})
            for exceptions in (set(), {0}, {1, 2}):
                word = [(0, 0, ToggleSet.cofinite_excluding(exceptions))]
                tau = generator(box.forest, *word[0])
                assert pattern_shift(tau, 1, 2, 0, box) == 0
                assert swept_shifts(tau, 1, 2, 0, box) == {0}
                assert replayed_shift(word, 1, 2, 0, box) == 0
                assert pattern_flip_loop(tau, 1, 2, 0, 0, box)

    def test_sweep_rejects_one_row_toggled(self):
        # node 3's predecessor is 1, so a generator at 1 toggles rows 1 and 3 but not row 2
        box = small_box(size=4, rows=1, bits=2, pred={1: 0, 2: 0, 3: 1})
        for s in (ToggleSet.cofinite_excluding(set()), ToggleSet.finite({1})):
            word = [(1, 0, s)]
            tau = generator(box.forest, *word[0])
            toggled = s.mask_below(box.bits)
            for beta, gamma, shift in ((1, 2, toggled), (2, 3, toggled), (1, 3, 0)):
                assert replayed_shift(word, beta, gamma, 0, box) == shift
                assert pattern_flip_loop(tau, beta, gamma, 0, shift, box)
                assert not pattern_flip_loop(tau, beta, gamma, 0, shift ^ toggled, box)


class TestReplayOracle:
    """``verify._replayed_flips`` against the per-assignment loop (``conftest.pattern_flip_loop``)."""

    @staticmethod
    def assert_agrees(word, beta, gamma, row, box):
        """The loop accepts the replayed shift and no other, over every shift of a row and one past it."""
        f = box.forest
        tau = compose_all(f, [generator(f, *g) for g in word])
        shift = replayed_shift(word, beta, gamma, row, box)
        for expected in range(1 << (box.bits + 1)):
            assert pattern_flip_loop(tau, beta, gamma, row, expected, box) == (expected == shift)
        return shift

    def test_every_enumerated_witness(self):
        # the 729 conditions of verify swap's 6-coordinate enumeration
        box = small_box(size=3, rows=1, bits=2)
        A = rho_closure(box.forest, {0})
        count = 0
        for q in all_conditions(list(box.coords())):
            w = swap_witness(q, A, 0, box)
            word = [(w.beta, w.row, w.toggle)]
            true = self.assert_agrees(word, w.beta, w.gamma, w.row, box)
            assert true == w.toggle.mask_below(box.bits)
            assert _witness_faults(w, q, A, box) == []
            # tampered rows: beta against itself, and the pair read from the other side
            assert self.assert_agrees(word, w.beta, w.beta, w.row, box) == 0
            assert self.assert_agrees(word, w.gamma, w.beta, w.row, box) == true
            count += 1
        assert count == 729

    def test_random_boxes_up_to_twelve_coordinates(self):
        rng = random.Random(1717)
        shapes = ((3, 2, 2), (4, 1, 3), (3, 1, 4), (2, 3, 2), (2, 1, 6), (6, 2, 1), (2, 2, 1))
        widths = set()
        for _ in range(60):
            n_nodes, rows, bits = rng.choice(shapes)
            box = random_box(rng, (n_nodes, rows, bits))
            word = []
            for _ in range(rng.randrange(4)):
                s = ToggleSet(rng.random() < 0.5, frozenset(rng.sample(range(bits + 1), rng.randint(1, bits))))
                word.append((rng.randrange(n_nodes), rng.randrange(rows), s))
            beta, gamma = rng.sample(range(n_nodes), 2)
            row = rng.randrange(rows)
            tau = compose_all(box.forest, [generator(box.forest, *g) for g in word])
            assert self.assert_agrees(word, beta, gamma, row, box) == pattern_shift(tau, beta, gamma, row, box)
            widths.add(box.n_coords)
        assert max(widths) == 12

    def test_replay_refutes_tampered_witnesses(self):
        # the fork 1 -> 0 <- 2 with 3 -> 2: the witness beside A = {0} is (beta, gamma) = (2, 1)
        box = small_box(size=4, rows=1, bits=3, pred={1: 0, 2: 0, 3: 2})
        A = rho_closure(box.forest, {0})
        q = Condition.from_map({(3, 0, 1): 1})
        w = swap_witness(q, A, 0, box)
        assert (w.beta, w.gamma, w.toggle) == (2, 1, ToggleSet.cofinite_excluding({1}))
        assert _witness_faults(w, q, A, box) == []
        # gamma a child of beta: beta's generator toggles both rows alike
        assert _witness_faults(dataclasses.replace(w, gamma=3), q, A, box) == ["pattern-flip"]
        # a toggle meeting the shield, which holds bit 1 of the child 3's row
        meets = dataclasses.replace(w, shield=frozenset(), toggle=ToggleSet.cofinite_excluding(()))
        assert _witness_faults(meets, q, A, box) == ["condition-fixed"]
        # beta inside A: its generator toggles a row over the support
        assert _witness_faults(dataclasses.replace(w, beta=0), q, A, box) == ["support-fixed", "pattern-flip"]


class TestCanonicalSelector:
    def test_two_node_window_example(self):
        f = forest_of(2, {1: 0})
        W = Window.whole(f)
        profiles = [
            TraceProfile(W, frozenset({0})),
            TraceProfile(W, frozenset({1})),
            TraceProfile(W, frozenset({0, 1})),
        ]
        # codes (1,0), (0,1), (1,1): least is (0,1)
        assert canonical_selector(profiles) == 1

    def test_empty_profile_wins(self):
        f = forest_of(2, {1: 0})
        W = Window.whole(f)
        profiles = [
            TraceProfile(W, frozenset()),
            TraceProfile(W, frozenset({0})),
            TraceProfile(W, frozenset({0, 1})),
        ]
        assert canonical_selector(profiles) == 0

    def test_duplicates_rejected(self):
        f = forest_of(2, {1: 0})
        W = Window.whole(f)
        p = TraceProfile(W, frozenset({0}))
        with pytest.raises(PreconditionError):
            canonical_selector([p, p, TraceProfile(W, frozenset())])

    def test_permutation_invariance_exhaustive(self):
        f = forest_of(3, {1: 0, 2: 0})
        W = Window.whole(f)
        subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(range(3), r)]
        for triple in itertools.combinations(subsets, 3):
            profiles = [TraceProfile(W, s) for s in triple]
            chosen = profiles[canonical_selector(profiles)]
            for perm in itertools.permutations(profiles):
                perm = list(perm)
                assert perm[canonical_selector(perm)] == chosen

    def test_window_mismatch(self):
        f = forest_of(3, {1: 0, 2: 0})
        W1, W2 = Window.whole(f), rho_closure(f, {1})
        with pytest.raises(DomainError):
            canonical_selector(
                [TraceProfile(W1, frozenset()), TraceProfile(W2, frozenset({0})),
                 TraceProfile(W1, frozenset({0}))]
            )

    def test_profile_outside_window(self):
        f = forest_of(3, {1: 0, 2: 0})
        with pytest.raises(DomainError):
            TraceProfile(rho_closure(f, {1}), frozenset({2}))


class TestLiftChoice:
    def test_projection_example(self):
        family = IndexedFamily.of({"t": {"a", "b"}})
        assert lift_choice(family, 3, {"t": ("b", 2)}) == {"t": "b"}

    def test_degenerate_product(self):
        family = IndexedFamily.of({0: {10, 11}, 1: {20}})
        f = {0: (10, 0), 1: (20, 0)}
        assert lift_choice(family, 1, f) == {0: 10, 1: 20}

    def test_singletons_forced(self):
        family = IndexedFamily.of({t: {t * 10} for t in range(3)})
        f = {t: (t * 10, 1) for t in range(3)}
        assert lift_choice(family, 2, f) == {t: t * 10 for t in range(3)}

    def test_rejects_out_of_set_choice(self):
        family = IndexedFamily.of({0: {1, 2}})
        with pytest.raises(DomainError):
            lift_choice(family, 2, {0: (3, 0)})
        with pytest.raises(DomainError):
            lift_choice(family, 2, {0: (1, 5)})
        with pytest.raises(DomainError):
            lift_choice(family, 2, {})

    def test_empty_set_rejected_at_construction(self):
        with pytest.raises(DomainError):
            IndexedFamily.of({0: set()})

    def test_exhaustive_small_families(self):
        for sizes in itertools.product(range(1, 4), repeat=2):
            family = IndexedFamily.of({t: set(range(s)) for t, s in enumerate(sizes)})
            for k in range(1, 4):
                products = [
                    [(a, j) for a in range(sizes[t]) for j in range(k)]
                    for t in range(len(sizes))
                ]
                for combo in itertools.product(*products):
                    f = dict(enumerate(combo))
                    assert lift_choice(family, k, f) == {t: a for t, (a, _) in f.items()}


FORK = forest_of(3, {1: 0, 2: 0})
FORK_BOX = CoordinateBox(Window.whole(FORK), 1, 2)
SINGLETON = IndexedFamily.of({0: {0}})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: pattern_shift(generator(FORK, 1, 0, ToggleSet.finite({0})), 1, 1, 0, FORK_BOX),
            "equality pattern needs two distinct rows",
            id="shift-same-row",
        ),
        pytest.param(
            lambda: SwapWitness(1, 2, 0, frozenset(), ToggleSet.finite({0}), None),
            "swap toggles must be cofinite",
            id="witness-finite-toggle",
        ),
        pytest.param(
            lambda: SwapWitness(1, 2, 0, frozenset({0}), ToggleSet.cofinite_excluding(frozenset()), None),
            "toggle set meets the shield",
            id="witness-toggle-meets-shield",
        ),
        pytest.param(
            lambda: swap_witness(Condition.empty(), rho_closure(FORK, {0}), 1, FORK_BOX),
            "row 1 outside the box",
            id="witness-row-off-box",
        ),
        pytest.param(
            lambda: swap_witness(Condition.empty(), rho_closure(FORK, {0}), 0, None),
            None,
            id="witness-box-none",
        ),
        pytest.param(
            lambda: canonical_selector([TraceProfile(Window.whole(FORK), frozenset(s)) for s in ((), (1,))]),
            "selector expects exactly three profiles",
            id="selector-two-profiles",
        ),
        pytest.param(
            lambda: IndexedFamily(((0, frozenset({1})), (0, frozenset({2})))),
            "duplicate index 0",
            id="family-duplicate-index",
        ),
        pytest.param(lambda: TraceProfile(None, [0]), "malformed TraceProfile", id="profile-window-none"),
        pytest.param(lambda: lift_choice(SINGLETON, 0, {0: (0, 0)}), "product arity must be positive", id="lift-k0"),
        pytest.param(lambda: lift_choice(SINGLETON, 1, {0: 0}), None, id="lift-not-pair"),
    ],
)
def test_selector_layer_rejections(call, message):
    # a row without a message passes a wrong-typed argument, which need only fail at the call
    with pytest.raises(Exception if message is None else DomainError, match=message):
        call()


def test_trace_profile_given_a_list_equals_the_frozen_one():
    W = Window.whole(FORK)
    profile = TraceProfile(W, [0])
    assert profile == TraceProfile(W, frozenset({0}))
    assert hash(profile) == hash(TraceProfile(W, frozenset({0})))


def test_indexed_family_given_lists_equals_the_frozen_one():
    frozen = IndexedFamily(((0, frozenset({1})),))
    for listed in (IndexedFamily([(0, frozenset({1}))]), IndexedFamily(((0, [1]),))):
        assert listed == frozen and hash(listed) == hash(frozen)


@pytest.mark.parametrize("failing", ["condition_fixed", "support_fixed", "pattern_flip"])
def test_certificate_fails_when_any_one_certificate_fails(failing):
    passing = SwapCertificate(True, True, True, assignments_checked=64)
    assert passing.all_pass()
    assert not dataclasses.replace(passing, **{failing: False}).all_pass()
