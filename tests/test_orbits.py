"""2-group actions, orbit structure, and dyadic quotient analysis."""

import itertools

import pytest

from conftest import subspace_span
from cascadekit.errors import CertificateError, DomainError, PreconditionError
from cascadekit.orbits import (
    FiniteAction,
    TranslationPartition,
    _compose,
    close_group,
    odd_fixed_point,
    orbit_partition,
    quotient_analysis,
)


def transposition(n, i, j):
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


class TestCloseGroup:
    def test_single_involution(self):
        action = close_group([transposition(3, 0, 1)])
        assert len(action.elements) == 2

    def test_two_commuting_involutions(self):
        action = close_group([transposition(4, 0, 1), transposition(4, 2, 3)])
        assert len(action.elements) == 4

    def test_three_cycle_rejected_with_witness(self):
        with pytest.raises(CertificateError, match="odd order 3"):
            close_group([(1, 2, 0)])

    def test_dihedral_of_odd_rotation_rejected(self):
        # two involutions whose product is a 3-cycle generate S3
        with pytest.raises(CertificateError):
            close_group([transposition(3, 0, 1), transposition(3, 1, 2)])

    def test_mismatched_sizes(self):
        with pytest.raises(DomainError):
            close_group([(1, 0), (1, 2, 0, 3)])

    def test_non_permutation(self):
        with pytest.raises(DomainError):
            close_group([(0, 0, 1)])

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError, match="at least one generator"):
            close_group([])
        with pytest.raises(DomainError):
            close_group([()])


class TestOrbitPartition:
    def test_identity_group_gives_singletons(self):
        action = close_group([tuple(range(5))])
        assert orbit_partition(action) == [(0,), (1,), (2,), (3,), (4,)]

    def test_single_swap(self):
        action = close_group([transposition(3, 0, 1)])
        assert orbit_partition(action) == [(0, 1), (2,)]

    def test_two_swaps_brute_force(self):
        action = close_group([transposition(4, 0, 1), transposition(4, 2, 3)])
        # oracle: brute-force orbit closure point by point
        reach = {x: {x} for x in range(4)}
        changed = True
        while changed:
            changed = False
            for x in range(4):
                for p in action.elements:
                    for y in list(reach[x]):
                        if p[y] not in reach[x]:
                            reach[x].add(p[y])
                            changed = True
        assert orbit_partition(action) == [(0, 1), (2, 3)]
        for orbit in orbit_partition(action):
            for x in orbit:
                assert reach[x] == set(orbit)

    def test_orbit_sizes_are_dyadic(self):
        gens = [transposition(6, 0, 1), transposition(6, 2, 3), transposition(6, 0, 2)]
        for k in range(1, len(gens) + 1):
            for combo in itertools.combinations(gens, k):
                try:
                    action = close_group(list(combo))
                except CertificateError:
                    continue
                for orbit in orbit_partition(action):
                    assert len(orbit) & (len(orbit) - 1) == 0


class TestOddFixedPoint:
    def test_swap_on_three_points(self):
        action = close_group([transposition(3, 0, 1)])
        assert odd_fixed_point(action) == 2

    def test_identity_on_singleton(self):
        action = close_group([(0,)])
        assert odd_fixed_point(action) == 0

    def test_two_swaps_on_five_points(self):
        action = close_group([transposition(5, 0, 1), transposition(5, 2, 3)])
        assert odd_fixed_point(action) == 4

    def test_even_size_rejected(self):
        action = close_group([transposition(4, 0, 1)])
        with pytest.raises(PreconditionError):
            odd_fixed_point(action)


class TestFiniteActionValidation:
    def test_missing_identity(self):
        with pytest.raises(DomainError):
            FiniteAction(2, ((1, 0),))

    def test_not_closed(self):
        with pytest.raises(DomainError):
            FiniteAction(3, (tuple(range(3)), (1, 2, 0)))

    def test_non_dyadic_order_rejected(self):
        elements = tuple(sorted(itertools.permutations(range(3))))
        with pytest.raises(CertificateError):
            FiniteAction(3, elements)


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def closed_pairwise(elements):
    """Oracle: every product of two members is a member."""
    members = set(elements)
    return all(compose(p, q) in members for p in members for q in members)


def subgroup_check_matches_pairwise(group, n):
    """FiniteAction on every identity-holding subset agrees with the pairwise check."""
    ident = tuple(range(n))
    others = sorted(p for p in group if p != ident)
    accepted = 0
    for k in range(len(others) + 1):
        for subset in itertools.combinations(others, k):
            elements = (ident,) + subset
            order = len(elements)
            if not closed_pairwise(elements):
                with pytest.raises(DomainError):
                    FiniteAction(n, elements)
            elif order & (order - 1):
                with pytest.raises(CertificateError):
                    FiniteAction(n, elements)
            else:
                assert FiniteAction(n, elements).elements == tuple(sorted(elements))
                accepted += 1
    return accepted


class TestGeneratingSetClosure:
    def test_every_subset_of_the_dihedral_group_of_order_8(self):
        rotation, reflection = (1, 2, 3, 0), (0, 3, 2, 1)
        d4 = close_group([rotation, reflection]).elements
        assert len(d4) == 8
        # D4 has ten subgroups, all of 2-power order
        assert subgroup_check_matches_pairwise(d4, 4) == 10

    def test_every_subset_of_the_symmetric_group_on_3_points(self):
        s3 = tuple(itertools.permutations(range(3)))
        # the trivial group and the three transpositions pass; A3 and S3 are not 2-groups
        assert subgroup_check_matches_pairwise(s3, 3) == 4

    def test_unsorted_duplicate_listing_is_canonicalised(self):
        action = FiniteAction(4, ((1, 0, 2, 3), (0, 1, 2, 3), (1, 0, 2, 3)))
        assert action.elements == ((0, 1, 2, 3), (1, 0, 2, 3))


def brute_force_closure(generators, n):
    """Oracle: the identity and the generators, multiplied pairwise until nothing new appears."""
    group = {tuple(range(n)), *generators}
    while True:
        grown = group | {compose(p, q) for p in group for q in group}
        if grown == group:
            return group
        group = grown


class TestComposeAndClose:
    def test_compose_applies_q_first_on_one_to_five_points(self):
        for n in range(1, 6):
            perms = list(itertools.permutations(range(n)))
            for p, q in itertools.product(perms, repeat=2):
                composed = _compose(p, q)
                assert isinstance(composed, tuple)
                assert all(composed[i] == p[q[i]] for i in range(n))

    def test_close_group_matches_brute_force_on_every_pair_up_to_four_points(self):
        closed = rejected = 0
        for n in range(1, 5):
            perms = list(itertools.permutations(range(n)))
            for p, q in itertools.product(perms, repeat=2):
                group = brute_force_closure([p, q], n)
                if len(group) & (len(group) - 1):
                    with pytest.raises(CertificateError):
                        close_group([p, q])
                    rejected += 1
                else:
                    assert set(close_group([p, q]).elements) == group
                    closed += 1
        assert closed and rejected

    def test_one_point_group(self):
        action = close_group([(0,), (0,)])
        assert action.elements == ((0,),)
        assert orbit_partition(action) == [(0,)]
        assert odd_fixed_point(action) == 0


def involutions(n):
    return [p for p in itertools.permutations(range(n)) if compose(p, p) == tuple(range(n))]


def bfs_orbits(generators, n):
    """Oracle: orbits by breadth-first search over the generators alone."""
    orbits, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            frontier = [g[x] for x in frontier for g in generators if g[x] not in orbit]
            orbit.update(frontier)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


class TestSinglePassOrbits:
    def test_matches_bfs_on_every_pair_of_involutions(self):
        checked = 0
        for n in range(1, 6):
            invs = involutions(n)
            for sigma, mu in itertools.product(invs, repeat=2):
                try:
                    action = close_group([sigma, mu])
                except CertificateError:
                    continue
                checked += 1
                orbits = bfs_orbits([sigma, mu], n)
                assert orbit_partition(action) == orbits
                # the checked constructor accepts what close_group built without it
                assert FiniteAction(n, action.elements) == action
                if n % 2:
                    singletons = [orbit[0] for orbit in orbits if len(orbit) == 1]
                    assert odd_fixed_point(action) == singletons[0]
        assert checked == 407  # the pairs whose product has 2-power order


def coset_labels(d, basis):
    """Label each vector of F2^d by its coset of the span of the basis."""
    span = subspace_span(basis)
    labels = [-1] * (1 << d)
    next_label = 0
    for v in range(1 << d):
        if labels[v] < 0:
            for w in span:
                labels[v ^ w] = next_label
            next_label += 1
    return TranslationPartition(d, tuple(labels))


def set_partitions(n):
    """Every labelling of range(n) by first appearance, one per set partition."""
    if n == 0:
        yield ()
        return
    for head in set_partitions(n - 1):
        for label in range(max(head, default=-1) + 2):
            yield (*head, label)


def brute_force_invariant(labels):
    n = len(labels)
    return all(
        labels[q ^ v] == labels[q2 ^ v]
        for q in range(n)
        for q2 in range(n)
        if labels[q] == labels[q2]
        for v in range(n)
    )


class TestQuotientAnalysis:
    def test_first_coordinate_labels(self):
        labels = tuple(v & 1 for v in range(4))
        result = quotient_analysis(TranslationPartition(2, labels))
        assert result.invariant
        assert result.subspace_basis == (2,)  # span{(0,1)}
        assert result.class_count == 2

    def test_all_distinct_labels(self):
        result = quotient_analysis(TranslationPartition(2, (0, 1, 2, 3)))
        assert result.invariant
        assert result.subspace_basis == ()
        assert result.class_count == 4

    def test_every_three_class_partition_rejected(self):
        for labels in itertools.product(range(3), repeat=4):
            if len(set(labels)) != 3:
                continue
            result = quotient_analysis(TranslationPartition(2, labels))
            assert not result.invariant
            q, q2, v = result.witness
            assert labels[q] == labels[q2]
            assert labels[q ^ v] != labels[q2 ^ v]

    def test_all_subspace_partitions_up_to_dim3(self):
        for d in range(4):
            all_vectors = list(range(1, 1 << d))
            seen_spans = set()
            for k in range(d + 1):
                for basis in itertools.combinations(all_vectors, k):
                    span = frozenset(subspace_span(basis))
                    if span in seen_spans:
                        continue
                    seen_spans.add(span)
                    partition = coset_labels(d, basis)
                    result = quotient_analysis(partition)
                    assert result.invariant
                    dim_w = len(result.subspace_basis)
                    assert 1 << dim_w == len(span)
                    assert result.class_count == 1 << (d - dim_w)

    def test_every_set_partition_up_to_dim3_against_brute_force(self):
        swept = 0
        for d in range(4):
            for labels in set_partitions(1 << d):
                swept += 1
                result = quotient_analysis(TranslationPartition(d, labels))
                assert result.invariant == brute_force_invariant(labels), labels
                if result.invariant:
                    classes = len(set(labels))
                    assert result.class_count == classes
                    assert classes & (classes - 1) == 0
                    assert classes << len(result.subspace_basis) == 1 << d
                else:
                    q, q2, v = result.witness
                    assert labels[q] == labels[q2]
                    assert labels[q ^ v] != labels[q2 ^ v]
        assert swept == 1 + 2 + 15 + 4140  # Bell numbers B(1), B(2), B(4), B(8)

    def test_witnesses_on_random_relabelings(self):
        # merging two cosets of a strict subspace under one label must fail
        partition = coset_labels(3, [0b001])
        labels = list(partition.labels)
        relabel = {0: 0, 1: 1, 2: 0, 3: 2}
        merged = TranslationPartition(3, tuple(relabel[x] for x in labels))
        result = quotient_analysis(merged)
        assert not result.invariant
        q, q2, v = result.witness
        assert merged.labels[q] == merged.labels[q2]
        assert merged.labels[q ^ v] != merged.labels[q2 ^ v]

    def test_dimension_bound(self):
        for d in (21, -1, 99999999999):
            with pytest.raises(DomainError):
                TranslationPartition(d, tuple())


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: FiniteAction(0, ((),)), "the acted-on set must be nonempty", id="empty-set"),
        pytest.param(lambda: FiniteAction(2, ((0, 1), (0, 0))), "not a permutation of the set", id="non-permutation"),
        pytest.param(
            lambda: TranslationPartition(2, (0, 0, 0)),
            "labelling must cover every vector exactly once",
            id="short-labelling",
        ),
    ],
)
def test_malformed_actions_and_partitions_rejected(build, message):
    with pytest.raises(DomainError, match=message):
        build()
