"""Name evaluation, support sweeps, normalization, and two-layer coding."""

import collections
import gc
import itertools
import pickle
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_assignments,
    all_conditions,
    apply_to_assignment,
    assert_canonical,
    forest_of,
    random_box,
    record_calls,
)
from cascadekit import _kernels as kernels
from cascadekit import cascade
from cascadekit.cascade import Condition, Coordinate, Packet, ToggleSet, generator
from cascadekit.errors import DomainError, PreconditionError
from cascadekit.forest import PredecessorForest, Window, random_forest, rho_closure
from cascadekit.names import (
    Assignment,
    CoordinateBox,
    PacketScheme,
    RawName,
    TwoLayerCode,
    _prime_cubes,
    decision_invariant,
    decode_two_layer,
    evaluate,
    normalize,
    packet_code,
    packet_of_code,
    support_report,
    two_layer_code,
)
from cascadekit.selectors import TraceProfile
from cascadekit.verify import (
    _BOX_SHAPES,
    _cube_minterms,
    _generator_sweep_supported,
    _grown_box,
    _member_table,
    _random_box,
    _random_supported_name,
)


def small_box(rows=1, bits=2, size=3, pred=None):
    f = forest_of(size, pred if pred is not None else {i: 0 for i in range(1, size)})
    return CoordinateBox(Window.whole(f), rows, bits)


def naive_supported(name, A, box):
    """Sweep oracle: every off-support single-bit generator fixes every evaluation."""
    forest = box.forest
    for xi in box.window.ordered:
        if xi in A.nodes:
            continue
        for row in range(box.rows):
            for bit in range(box.bits):
                tau = generator(forest, xi, row, ToggleSet.finite({bit}))
                for g in all_assignments(box):
                    if evaluate(name, apply_to_assignment(tau, g)) != evaluate(name, g):
                        return False
    return True


def witness_flip_changes_members(name, box, witness):
    """Whether flipping the witness's one coordinate at its assignment changes the name's members."""
    xi, row, bit, g_bits = witness
    flipped = g_bits ^ 1 << box.index(Coordinate(xi, row, bit))
    return evaluate(name, Assignment(box, flipped)) != evaluate(name, Assignment(box, g_bits))


class TestBoxAndAssignment:
    def test_index_round_trip(self):
        box = small_box(rows=2, bits=3)
        for idx in range(box.n_coords):
            assert box.index(box.coords()[idx]) == idx

    def test_outside_coordinate_rejected(self):
        box = small_box()
        with pytest.raises(DomainError):
            box.index(Coordinate(9, 0, 0))

    @pytest.mark.parametrize("shape", _BOX_SHAPES)
    def test_index_table_matches_packing(self, shape):
        n_nodes, rows, bits = shape
        box = small_box(rows=rows, bits=bits, size=n_nodes)
        assert box.n_coords == n_nodes * rows * bits
        # oracle: node-major, then row, then bit, over the ascending window order
        packed = [
            Coordinate(xi, row, bit)
            for xi in sorted(box.window.nodes)
            for row in range(rows)
            for bit in range(bits)
        ]
        assert list(box.coords()) == packed
        for idx, coord in enumerate(packed):
            assert box.coords()[idx] == coord
            assert box.index(coord) == idx
            assert box.contains(coord)

    @pytest.mark.parametrize("shape", _BOX_SHAPES)
    def test_off_table_lookups_rejected(self, shape):
        n_nodes, rows, bits = shape
        f = forest_of(n_nodes + 1, {i: 0 for i in range(1, n_nodes + 1)})
        box = CoordinateBox(rho_closure(f, set(range(n_nodes))), rows, bits)
        outside = [
            Coordinate(n_nodes, 0, 0),  # a node of the forest outside the window
            Coordinate(0, rows, 0),
            Coordinate(0, 0, bits),
        ]
        for coord in outside:
            assert not box.contains(coord)
            with pytest.raises(DomainError):
                box.index(coord)

    @pytest.mark.parametrize("shape", _BOX_SHAPES)
    def test_condition_masks_match_the_index(self, shape):
        n_nodes, rows, bits = shape
        f = forest_of(n_nodes + 1, {i: 0 for i in range(1, n_nodes + 1)})
        box = CoordinateBox(rho_closure(f, set(range(n_nodes))), rows, bits)
        coords = list(box.coords())
        rng = random.Random(n_nodes * 100 + rows * 10 + bits)
        for _ in range(40):
            picked = rng.sample(coords, rng.randrange(len(coords) + 1))
            cond = Condition(tuple((c, rng.randrange(2)) for c in picked))
            # oracle: each coordinate's bit read from the box's index alone
            dmask = sum(1 << box.index(c) for c, _ in cond.entries)
            vmask = sum(v << box.index(c) for c, v in cond.entries)
            assert box.condition_masks(cond) == (dmask, vmask)
        for outside in (Coordinate(n_nodes, 0, 0), Coordinate(0, rows, 0), Coordinate(0, 0, bits)):
            cond = Condition(((coords[0], 1), (coords[-1], 0), (outside, 1)))
            with pytest.raises(DomainError) as excinfo:
                box.condition_masks(cond)
            assert str(outside) in str(excinfo.value)

    def test_assignment_extends(self):
        box = small_box()
        g = Assignment(box, 0b000001)  # bit 0 of node 0, row 0 set
        assert g.extends(Condition.from_map({(0, 0, 0): 1}))
        assert not g.extends(Condition.from_map({(0, 0, 1): 1}))

    def test_restrict_to_nodes(self):
        box = small_box()
        g = Assignment(box, 0b110101)
        cond = g.restrict_to_nodes({1})
        assert {c.node for c in cond.domain()} == {1}
        assert len(cond.entries) == box.rows * box.bits


class TestEvaluate:
    def test_scheme_membership(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        pkt = Packet(Condition.from_map({(0, 0, 0): 1}))
        scheme = PacketScheme.of(A, {3: {pkt}})
        for g in all_assignments(box):
            assert (3 in evaluate(scheme, g)) == g.extends(pkt.condition)

    def test_empty_name(self):
        box = small_box()
        for g in itertools.islice(all_assignments(box), 8):
            assert evaluate(RawName.of([]), g) == set()

    def test_existential_semantics(self):
        box = small_box()
        p = Condition.from_map({(0, 0, 0): 1, (0, 0, 1): 1})
        p_alt = Condition.from_map({(1, 0, 0): 1})
        name = RawName.of([(0, p), (0, p_alt)])
        g = Assignment(box, 1 << box.index(Coordinate(1, 0, 0)))
        assert evaluate(name, g) == {0}

    def test_condition_outside_box_rejected(self):
        box = small_box()
        name = RawName.of([(0, Condition.from_map({(9, 0, 0): 1}))])
        with pytest.raises(DomainError):
            evaluate(name, Assignment(box, 0))


class TestCheckSupport:
    def test_scheme_name_is_supported(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        pkt = Packet(Condition.from_map({(1, 0, 1): 1, (0, 0, 0): 0}))
        name = RawName.of([(0, pkt.condition)])
        assert naive_supported(name, A, box)
        assert support_report(name, A, box).supported

    def test_leaf_mention_off_support_fails(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        name = RawName.of([(0, Condition.from_map({(2, 0, 1): 1}))])
        assert not naive_supported(name, A, box)
        report = support_report(name, A, box)
        assert not report.supported
        assert report.exhaustive
        assert report.witness[0] not in A.nodes
        assert witness_flip_changes_members(name, box, report.witness)

    def test_empty_name_supported(self):
        box = small_box()
        A = rho_closure(box.forest, set())
        assert support_report(RawName.of([]), A, box).supported

    def test_matches_naive_oracle_on_random_names(self):
        rng = random.Random(8)
        box = small_box(rows=1, bits=2)
        f = box.forest
        coords = list(box.coords())
        for _ in range(40):
            pairs = []
            for _ in range(rng.randrange(4)):
                picked = rng.sample(coords, rng.randrange(1, 3))
                cond = Condition(tuple((c, rng.randrange(2)) for c in picked))
                pairs.append((rng.randrange(2), cond))
            name = RawName.of(pairs)
            A = rho_closure(f, set(rng.sample(range(f.size), rng.randrange(f.size + 1))))
            assert support_report(name, A, box).supported == naive_supported(name, A, box)

    @pytest.mark.parametrize("shape", [(17, 1, 1), (3, 3, 2), (11, 1, 2)])
    def test_exhaustive_above_sixteen_coordinates(self, shape):
        size, rows, bits = shape
        f = random_forest(size, 1)
        box = CoordinateBox(Window.whole(f), rows, bits)  # 17, 18 and 22 coordinates
        A = rho_closure(f, {0})
        pkt = Packet(Condition.from_map({(0, rows - 1, bits - 1): 1}))
        name = RawName.of([(0, pkt.condition)])
        report = support_report(name, A, box)
        assert report.supported and report.exhaustive
        assert report.assignments_checked == 2**box.n_coords

    def test_unsupported_witness_at_eighteen_coordinates(self):
        f = random_forest(3, 1)
        box = CoordinateBox(Window.whole(f), 3, 2)  # 18 coordinates
        A = rho_closure(f, {0})
        name = RawName.of([(0, Condition.from_map({(2, 1, 1): 1, (0, 0, 0): 0}))])
        report = support_report(name, A, box)
        assert not report.supported and report.exhaustive
        assert report.assignments_checked == 2**18
        assert not support_report(name, A, box).supported
        assert report.witness[0] not in A.nodes
        assert witness_flip_changes_members(name, box, report.witness)

    def test_box_above_table_bound_rejected(self):
        # the table bound caps the coordinates a name mentions, not the box
        f = random_forest(23, 2)
        box = CoordinateBox(Window.whole(f), 1, 1)  # 23 coordinates
        A = rho_closure(f, {0})
        small = RawName.of([(0, Condition.from_map({(0, 0, 0): 1}))])
        report = support_report(small, A, box)
        assert report.supported and report.assignments_checked == 2**23
        assert dict(normalize(small, A, box).families).get(0, frozenset())
        coords = list(box.coords())
        low = Condition(tuple((c, 0) for c in coords[:12]))
        every = RawName.of([(0, low), (1, Condition(tuple((c, 1) for c in coords[12:])))])
        with pytest.raises(DomainError):
            support_report(every, A, box)
        with pytest.raises(DomainError):
            normalize(every, A, box)
        with pytest.raises(DomainError):
            decision_invariant(every, A, low, 0, box)

    def test_22_coordinate_box_sweeps_mentioned_coordinates(self, monkeypatch):
        built = record_calls(monkeypatch, kernels, "build_table")
        f = random_forest(11, 1)
        box = CoordinateBox(Window.whole(f), 1, 2)  # 22 coordinates
        A = rho_closure(f, {0})
        name = RawName.of([(m, Condition(((box.coords()[2 * m + 1], 1),))) for m in range(4)])
        report = support_report(name, A, box)
        assert [n_coords for n_coords, _ in built] == [4]
        assert not report.supported and report.assignments_checked == 2**22
        # the least off-support mentioned coordinate, with the least assignment its flip changes
        assert report.witness == (*box.coords()[3], 0)
        assert witness_flip_changes_members(name, box, report.witness)


class TestDecisionInvariant:
    def test_condition_entirely_over_support(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        pkt = Packet(Condition.from_map({(1, 0, 0): 1}))
        name = RawName.of([(2, pkt.condition)])
        p = Condition.from_map({(1, 0, 0): 1, (0, 0, 1): 0})
        assert decision_invariant(name, A, p, 2, box)

    def test_supported_names_always_invariant(self):
        rng = random.Random(31)
        for trial in range(30):
            f = random_forest(rng.randrange(2, 4), trial)
            box = CoordinateBox(Window.whole(f), 1, 2)
            A = rho_closure(f, set(rng.sample(range(f.size), rng.randrange(1, f.size + 1))))
            coords_over_A = [c for c in box.coords() if c.node in A.nodes]
            pairs = []
            for _ in range(rng.randrange(1, 4)):
                picked = rng.sample(coords_over_A, rng.randrange(1, min(3, len(coords_over_A)) + 1))
                pairs.append((rng.randrange(3), Condition(tuple((c, rng.randrange(2)) for c in picked))))
            name = RawName.of(pairs)
            assert support_report(name, A, box).supported
            for g in itertools.islice(all_assignments(box), 0, 1 << box.n_coords, 7):
                p = g.restrict_to_nodes(box.window.nodes)  # total, so it decides
                for m in range(3):
                    assert decision_invariant(name, A, p, m, box)

    def test_crafted_unsupported_counterexample(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        p = Condition.from_map({(2, 0, 0): 1})
        name = RawName.of([(0, p)])
        assert not decision_invariant(name, A, p, 0, box)

    def test_undecided_condition_rejected(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        pkt = Packet(Condition.from_map({(0, 0, 0): 1}))
        name = RawName.of([(0, pkt.condition)])
        with pytest.raises(PreconditionError):
            decision_invariant(name, A, Condition.empty(), 0, box)

    def test_member_absent_from_name(self):
        box = small_box()
        A = rho_closure(box.forest, {0})
        name = RawName.of([])
        assert decision_invariant(name, A, Condition.empty(), 5, box)

    def test_condition_outside_box_rejected(self):
        # the name never mentions these coordinates, yet they must lie in the box
        box = small_box()
        A = rho_closure(box.forest, {0})
        name = RawName.of([(0, Condition.from_map({(0, 0, 0): 1}))])
        for outside in ((9, 0, 0), (1, 1, 0), (1, 0, 2)):
            p = Condition.from_map({(0, 0, 0): 1, outside: 0})
            with pytest.raises(DomainError):
                decision_invariant(name, A, p, 0, box)


class TestNormalize:
    def test_name_over_support_trims_to_itself(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        p = Condition.from_map({(1, 0, 0): 1, (0, 0, 1): 0})
        scheme = normalize(RawName.of([(0, p)]), A, box)
        assert dict(scheme.families).get(0, frozenset()) == {Packet(p)}

    def test_member_table_built_once(self, monkeypatch):
        built = record_calls(monkeypatch, kernels, "build_table")
        box = small_box()
        A = rho_closure(box.forest, {0, 1})
        name = RawName.of(
            [(0, Condition.from_map({(1, 0, 0): 1})), (3, Condition.from_map({(0, 0, 1): 0}))]
        )
        normalize(name, A, box)
        assert [n_coords for n_coords, _ in built] == [2]  # the two coordinates the name mentions, not the box's 6

    def test_scheme_normalizes_to_equal_semantics(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 2})
        pkts = {
            Packet(Condition.from_map({(2, 0, 0): 1})),
            Packet(Condition.from_map({(0, 0, 1): 0, (2, 0, 1): 1})),
        }
        name = RawName.of((0, pkt.condition) for pkt in pkts)
        normalized = normalize(name, A, box)
        for g in all_assignments(box):
            assert evaluate(normalized, g) == evaluate(name, g)

    def test_constant_empty_name(self):
        box = small_box()
        A = rho_closure(box.forest, set())
        scheme = normalize(RawName.of([]), A, box)
        assert scheme.families == () and dict(scheme.families).get(0, frozenset()) == frozenset()

    def test_unsupported_name_rejected(self):
        box = small_box()
        A = rho_closure(box.forest, {0})
        name = RawName.of([(0, Condition.from_map({(2, 0, 0): 1}))])
        with pytest.raises(PreconditionError):
            normalize(name, A, box)

    def test_m_range_padding(self):
        # no padding: families only for the members that occur
        box = small_box()
        A = rho_closure(box.forest, {0})
        cond = Condition.from_map({(0, 0, 0): 1})
        scheme = normalize(RawName.of([(0, cond)]), A, box)
        assert [m for m, _ in scheme.families] == [0]
        wide = normalize(RawName.of([(11, cond)]), A, box)
        assert [m for m, _ in wide.families] == [11]
        assert dict(wide.families).get(10, frozenset()) == frozenset()
        assert dict(wide.families).get(11, frozenset()) != frozenset()

    def test_large_member_pads_no_gap(self):
        box = small_box()
        A = rho_closure(box.forest, {0})
        cond = Condition.from_map({(0, 0, 0): 1})
        scheme = normalize(RawName.of([(10**6, cond)]), A, box)
        assert [m for m, _ in scheme.families] == [10**6]
        code = two_layer_code(scheme, box)
        assert code.packet_indices == ((10**6, (packet_code(cond),)),)
        assert decode_two_layer(code, box) == scheme

    def test_random_supported_names_normalize_soundly(self):
        rng = random.Random(17)
        for trial in range(25):
            f = random_forest(rng.randrange(2, 4), 100 + trial)
            box = CoordinateBox(Window.whole(f), rng.randrange(1, 3), 2)
            A = rho_closure(f, set(rng.sample(range(f.size), rng.randrange(1, f.size + 1))))
            coords_over_A = [c for c in box.coords() if c.node in A.nodes]
            pairs = []
            for _ in range(rng.randrange(4)):
                k = rng.randrange(1, min(4, len(coords_over_A)) + 1)
                picked = rng.sample(coords_over_A, k)
                pairs.append((rng.randrange(3), Condition(tuple((c, rng.randrange(2)) for c in picked))))
            name = RawName.of(pairs)
            scheme = normalize(name, A, box)
            for g in all_assignments(box):
                assert evaluate(scheme, g) == evaluate(name, g)
            assert support_report(scheme, A, box).supported

    def test_complementary_off_window_pairs_trim_away(self):
        # both values of an off-window coordinate appear, so the name is
        # supported and the free coordinate must vanish from the packets
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        base = Condition.from_map({(1, 0, 0): 1})
        name = RawName.of(
            [
                (0, base.merge(Condition.from_map({(2, 0, 1): 0}))),
                (0, base.merge(Condition.from_map({(2, 0, 1): 1}))),
            ]
        )
        assert support_report(name, A, box).supported
        assert naive_supported(name, A, box)
        scheme = normalize(name, A, box)
        assert dict(scheme.families).get(0, frozenset()) == {Packet(base)}
        for g in all_assignments(box):
            assert evaluate(scheme, g) == evaluate(name, g)

    def test_subsumed_off_window_mention_is_supported(self):
        # a pair over the window subsumes one mentioning a fresh node
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        over = Condition.from_map({(0, 0, 1): 1})
        bigger = over.merge(Condition.from_map({(2, 0, 0): 0}))
        name = RawName.of([(1, over), (1, bigger)])
        assert support_report(name, A, box).supported
        scheme = normalize(name, A, box)
        for g in all_assignments(box):
            assert evaluate(scheme, g) == evaluate(name, g)

    def test_equivariance_of_supported_names(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        pkt = Packet(Condition.from_map({(1, 0, 1): 1}))
        name = RawName.of([(0, pkt.condition)])
        tau = generator(f, 2, 0, ToggleSet.finite({0, 1}))
        for g in all_assignments(box):
            assert evaluate(name, apply_to_assignment(tau, g)) == evaluate(name, g)


class TestManyMembers:
    def test_seventy_member_name(self):
        # member indices are any naturals: no cap on how many one name holds
        rng = random.Random(70)
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        coords_over_A = [c for c in box.coords() if c.node in A.nodes]
        off_A = [c for c in box.coords() if c.node not in A.nodes]
        pairs = []
        for m in range(70):
            picked = rng.sample(coords_over_A, rng.randrange(1, len(coords_over_A) + 1))
            base = tuple((c, rng.randrange(2)) for c in picked)
            if m % 3 == 0:
                # a complementary pair across an off-support coordinate stays supported
                free = rng.choice(off_A)
                pairs += [(m, Condition(base + ((free, 0),))), (m, Condition(base + ((free, 1),)))]
            else:
                pairs.append((m, Condition(base)))
        name = RawName.of(pairs)
        report = support_report(name, A, box)
        assert report.supported and report.assignments_checked == 1 << box.n_coords
        scheme = normalize(name, A, box)
        decoded = decode_two_layer(two_layer_code(scheme, box), box)
        for g in all_assignments(box):
            assert evaluate(scheme, g) == evaluate(decoded, g) == evaluate(name, g)
        assert len(set().union(*(evaluate(name, g) for g in all_assignments(box)))) > 64
        assert _member_table(box, name) == _member_table(box, scheme) == _member_table(box, decoded)
        assert _member_table(box, name) != _member_table(box, RawName.of(pairs[1:]))


class TestPacketEnumeration:
    """One injection of all finite packets into the naturals, independent of any box."""

    def test_every_natural_below_2_16_decodes_or_is_rejected(self):
        decoded = rejected = 0
        for k in range(1 << 16):
            try:
                cond = packet_of_code(k)
            except DomainError:
                rejected += 1
                continue
            assert packet_code(cond) == k
            decoded += 1
        assert (decoded, rejected) == (6790, 58746)

    @pytest.mark.parametrize(
        "k",
        [-1, -(2**20000), 0b111, 2**20000, 0b100111, 0b11111111],
        ids=["negative", "huge-negative", "three-gaps", "huge-one-gap", "value-2", "repeated-coordinate"],
    )
    def test_natural_that_codes_no_packet_rejected(self, k):
        # 0b100111 reads (0, 0, 0, 2); 0b11111111 reads (0, 0, 0, 0) twice; a huge k
        # has more than the 4,300 digits Python formats in decimal, so no message may print it so
        with pytest.raises(DomainError):
            packet_of_code(k)

    def test_round_trip_on_six_coordinate_box(self):
        box = small_box(rows=1, bits=2)  # 6 coordinates, 729 packets
        codes = set()
        for cond in all_conditions(list(box.coords())):
            k = packet_code(cond)
            assert packet_of_code(k) == cond
            codes.add(k)
        assert len(codes) == 3**6

    def test_code_reads_gaps_between_set_bits(self):
        # literals (node gap, row, bit, value): (2, 0, 1, 1) then (0, 1, 0, 0) on the same node
        cond = Condition.from_map({(2, 0, 1): 1, (2, 1, 0): 0})
        positions = [2, 3, 5, 7, 8, 10, 11, 12]
        assert packet_code(cond) == sum(1 << p for p in positions)
        assert packet_code(Condition.empty()) == 0
        assert packet_of_code(0) == Condition.empty()

    def test_single_packet_code_indices(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        cond = Condition.from_map({(0, 0, 1): 1})
        scheme = PacketScheme.of(A, {2: {Packet(cond)}})
        code = two_layer_code(scheme, box)
        assert dict(code.packet_indices)[2] == (packet_code(cond),)


class TestTwoLayerCode:
    def test_empty_scheme(self):
        box = small_box()
        A = rho_closure(box.forest, set())
        code = two_layer_code(PacketScheme.of(A, {0: set()}), box)
        assert dict(code.packet_indices) == {0: ()}

    def test_round_trip_semantics(self):
        rng = random.Random(23)
        for trial in range(20):
            f = random_forest(rng.randrange(2, 4), 300 + trial)
            box = CoordinateBox(Window.whole(f), 1, 2)
            A = rho_closure(f, set(rng.sample(range(f.size), rng.randrange(1, f.size + 1))))
            coords_over_A = [c for c in box.coords() if c.node in A.nodes]
            families = {}
            for m in range(rng.randrange(1, 4)):
                packets = set()
                for _ in range(rng.randrange(3)):
                    k = rng.randrange(1, len(coords_over_A) + 1)
                    picked = rng.sample(coords_over_A, k)
                    packets.add(Packet(Condition(tuple((c, rng.randrange(2)) for c in picked))))
                families[m] = packets
            scheme = PacketScheme.of(A, families)
            decoded = decode_two_layer(two_layer_code(scheme, box), box)
            for g in all_assignments(box):
                assert evaluate(decoded, g) == evaluate(scheme, g)

    def test_decode_over_grown_box_gives_same_scheme(self):
        rng = random.Random(29)
        for shape in _BOX_SHAPES:
            for _ in range(5):
                box = random_box(rng, shape)
                name, A = _random_supported_name(rng, box)
                scheme = normalize(name, A, box)
                code = two_layer_code(scheme, box)
                grown = _grown_box(rng, box)
                assert two_layer_code(scheme, grown) == code
                assert decode_two_layer(code, grown) == scheme

    def test_packets_certified_in_the_supports_forest(self):
        # the box's forest hangs node 2 off 0, the code's off 1; decoding checks the code's support
        chain, star = forest_of(3, {1: 0, 2: 1}), forest_of(3, {1: 0, 2: 0})
        box = CoordinateBox(Window.whole(chain), 1, 1)
        pkt = Packet(Condition.from_map({(2, 0, 0): 1}))
        scheme = PacketScheme.of(Window.whole(chain), {0: {pkt}})
        code = two_layer_code(scheme, box)
        assert decode_two_layer(code, CoordinateBox(Window.whole(star), 1, 1)) == scheme

    def test_normalize_and_decode_take_no_closures(self, monkeypatch):
        # the scheme's closed support certifies its packets, so no packet closes its own nodes
        box = small_box(size=3, pred={1: 0, 2: 1})
        A = rho_closure(box.forest, {1})
        name = RawName.of([(0, Condition.from_map({(1, 0, 0): 1, (0, 0, 1): 0}))])

        def refuse(*args):
            raise AssertionError("rho_closure called")

        monkeypatch.setattr(cascade, "rho_closure", refuse)
        scheme = normalize(name, A, box)
        assert dict(scheme.families).get(0, frozenset()) == {Packet(Condition.from_map({(1, 0, 0): 1, (0, 0, 1): 0}))}
        assert decode_two_layer(two_layer_code(scheme, box), box) == scheme

    def test_box_missing_a_coordinate_rejected(self):
        box = small_box(bits=3)
        A = rho_closure(box.forest, {0})
        cond = Condition.from_map({(0, 0, 2): 1})
        code = two_layer_code(PacketScheme.of(A, {0: {Packet(cond)}}), box)
        narrow = small_box(bits=2)
        with pytest.raises(DomainError):
            decode_two_layer(code, narrow)
        with pytest.raises(DomainError):
            two_layer_code(decode_two_layer(code, box), narrow)
        far = Packet(Condition.from_map({(2, 0, 0): 1}))
        code = two_layer_code(PacketScheme.of(Window.whole(box.forest), {0: {far}}), box)
        with pytest.raises(DomainError):
            decode_two_layer(code, small_box(size=2))


class TestBoxValidation:
    def test_degenerate_dimensions(self):
        from cascadekit.forest import Window

        f = forest_of(2, {1: 0})
        with pytest.raises(DomainError):
            CoordinateBox(Window.whole(f), 0, 2)
        with pytest.raises(DomainError):
            CoordinateBox(Window.whole(f), 1, 0)
        for rows, bits in ((1.5, 2), (1, 2.0), ("1", 1), (None, 1)):
            with pytest.raises(DomainError):
                CoordinateBox(Window.whole(f), rows, bits)
        assert CoordinateBox(Window.whole(f), True, 1).n_coords == 2  # bool stays accepted

    def test_window_node_outside_universe(self):
        from cascadekit.forest import Window

        f = forest_of(2, {1: 0})
        with pytest.raises(DomainError):
            Window(f, frozenset({0, 5}))


def full_box_minterms(name, A, box):
    """``(trim_mask, minterms)``: per member, the projections of the whole-box assignments carrying it.

    The projection keeps the coordinates the name mentions over ``A``, at
    their box positions.
    """
    table = _member_table(box, name)
    mentioned = 0
    for _, cond in name.pairs:
        mentioned |= box.condition_masks(cond)[0]
    trim_mask = mentioned & box.node_coord_mask(A.nodes)
    return trim_mask, {m: set(kernels.project_member(table, m, trim_mask)) for m in {m for m, _ in name.pairs}}


def brute_force_primes(minterms, within):
    """Every prime implicant ``(dmask, vmask)`` of a set of minterms, among all 3^t cubes over ``within``."""
    bits = [1 << i for i in range(within.bit_length()) if (within >> i) & 1]
    implied = {}

    def implicant(d, v):
        if (d, v) not in implied:
            free = within & ~d
            low = free & -free
            implied[d, v] = (
                v in minterms if not free else implicant(d | low, v) and implicant(d | low, v | low)
            )
        return implied[d, v]

    primes = set()
    for digits in itertools.product((0, 1, 2), repeat=len(bits)):
        d = sum(b for b, x in zip(bits, digits) if x < 2)
        v = sum(b for b, x in zip(bits, digits) if x == 1)
        if implicant(d, v) and not any(implicant(d & ~b, v & ~b) for b in bits if d & b):
            primes.add((d, v))
    return primes


def full_box_decision(name, A, p, m, box):
    """decision_invariant over the member table of the whole box; None when p does not decide."""
    table = _member_table(box, name)
    verdict = kernels.subcube_member_summary(table, m, *box.condition_masks(p))
    if verdict == 2:
        return None
    restriction = p.restrict_to_nodes(A.nodes)
    return kernels.subcube_member_summary(table, m, *box.condition_masks(restriction)) == verdict


def random_raw_name(rng, box):
    coords = list(box.coords())
    pairs = []
    for _ in range(rng.randrange(1, 5)):
        picked = rng.sample(coords, rng.randint(1, min(4, len(coords))))
        pairs.append((rng.randrange(4), Condition(tuple((c, rng.randrange(2)) for c in picked))))
    return RawName.of(pairs)


class TestMentionedCoordinates:
    """Tables over the mentioned coordinates give the whole-box verdicts."""

    @pytest.mark.parametrize("shape", _BOX_SHAPES)
    def test_verdicts_match_whole_box_tables(self, shape):
        rng = random.Random(sum(shape) * 101 + shape[0])
        unsupported = brute_forced = 0
        for _ in range(30):
            box = random_box(rng, shape)
            name, A = _random_supported_name(rng, box)
            if rng.random() < 0.5:
                name = random_raw_name(rng, box)
            report = support_report(name, A, box)
            table = _member_table(box, name)
            supported = _generator_sweep_supported(table, A, box)
            assert report.supported == supported
            assert report.assignments_checked == 2**box.n_coords
            if not supported:
                unsupported += 1
                # the first coordinate off A, in box order, whose flip alone changes the whole-box
                # table, with the least assignment it changes
                flips = (
                    (i, kernels.flip_violation(table, 1 << i))
                    for i, c in enumerate(box.coords())
                    if c.node not in A.nodes
                )
                i, g = next((i, g) for i, g in flips if g >= 0)
                assert report.witness == (*box.coords()[i], g)
                with pytest.raises(PreconditionError):
                    normalize(name, A, box)
                continue
            scheme = normalize(name, A, box)
            trim_mask, minterms = full_box_minterms(name, A, box)
            cubes = {m: [box.condition_masks(pkt.condition) for pkt in pkts] for m, pkts in scheme.families}
            for m, expected in minterms.items():
                # the packets cover exactly the whole-box projections
                assert {g for d, v in cubes[m] for g in _cube_minterms(d, v, trim_mask)} == expected
                if bin(trim_mask).count("1") <= 8:
                    assert set(cubes[m]) == brute_force_primes(expected, trim_mask)
                    brute_forced += 1
            assert all(not cubes[m] for m in cubes if m not in minterms)
            # the support is closed, so it holds the closure of every packet's nodes
            assert all(
                rho_closure(box.forest, {c.node for c in pkt.condition.domain()}).nodes <= A.nodes
                for _, pkts in scheme.families
                for pkt in pkts
            )
            coords = list(box.coords())
            probes = [(cond, m) for m, cond in name.pairs]
            for _ in range(8):
                picked = rng.sample(coords, rng.randint(1, len(coords)))
                probes.append((Condition(tuple((c, rng.randrange(2)) for c in picked)), rng.randrange(4)))
            for p, m in probes:
                expected = full_box_decision(name, A, p, m, box)
                if expected is None:
                    with pytest.raises(PreconditionError):
                        decision_invariant(name, A, p, m, box)
                else:
                    assert decision_invariant(name, A, p, m, box) == expected
        assert unsupported  # the witness comparison ran
        assert brute_forced  # the prime comparison ran

    def test_box_of_600_coordinates(self):
        rng = random.Random(600)
        f = random_forest(150, 600)
        box = CoordinateBox(Window.whole(f), 2, 2)  # 600 coordinates
        A = rho_closure(f, set(rng.sample(range(150), 6)))
        over_A = rng.sample([c for c in box.coords() if c.node in A.nodes], 6)
        off_A = [c for c in box.coords() if c.node not in A.nodes]
        pairs = []
        for m in range(5):
            base = tuple((c, rng.randrange(2)) for c in rng.sample(over_A, 3))
            free = rng.choice(off_A)
            pairs += [(m, Condition(base + ((free, 0),))), (m, Condition(base + ((free, 1),)))]
        name = RawName.of(pairs)
        report = support_report(name, A, box)
        assert report.supported and report.assignments_checked == 2**600
        scheme = normalize(name, A, box)
        code = two_layer_code(scheme, box)
        decoded = decode_two_layer(code, box)
        assert decoded == scheme
        for _ in range(200):
            g = Assignment(box, rng.getrandbits(600))
            assert evaluate(name, g) == evaluate(scheme, g) == evaluate(decoded, g)
        for m, cond in name.pairs:
            assert decision_invariant(name, A, cond, m, box)
        # one pair on an off-support leaf breaks support; the witness really changes evaluation
        leaf = next(c for c in off_A if not f._children[c.node])
        broken = RawName.of(pairs + [(0, Condition(((leaf, 1),)))])
        report = support_report(broken, A, box)
        assert not report.supported
        assert report.witness[0] not in A.nodes
        assert witness_flip_changes_members(broken, box, report.witness)


def padded_box(box, rng, min_coords):
    """The box over its forest plus fresh leaf nodes, until it exceeds ``min_coords``.

    The new nodes come last in box order and hang off original nodes, so
    every original coordinate keeps its position and the new ones are
    mentioned by no name over the original box.
    """
    per_node = box.rows * box.bits
    size = box.forest.size
    extra = min_coords // per_node + 1
    parents = box.forest.parents + tuple(rng.randrange(size) for _ in range(extra))
    big = PredecessorForest(size + extra, parents)
    return CoordinateBox(Window.whole(big), box.rows, box.bits)


def family_conditions(scheme):
    return {m: {pkt.condition for pkt in packets} for m, packets in scheme.families}


class TestBoxExtension:
    """Fresh leaf nodes add only unmentioned coordinates, so no verdict moves.

    The padded boxes exceed ``kernels.MAX_TABLE_COORDS``, where the full-box
    oracle tables of ``verify normalize`` and ``verify code`` cannot go.
    """

    @pytest.mark.parametrize("shape", _BOX_SHAPES)
    def test_padding_keeps_support_scheme_and_code(self, shape):
        rng = random.Random(sum(shape) * 37 + shape[1])
        unsupported = 0
        for _ in range(20):
            box = random_box(rng, shape)
            name, A = _random_supported_name(rng, box)
            if rng.random() < 0.3:
                name = random_raw_name(rng, box)
            big = padded_box(box, rng, kernels.MAX_TABLE_COORDS + rng.randrange(40))
            assert big.n_coords > kernels.MAX_TABLE_COORDS
            big_A = Window(big.forest, A.nodes)
            report = support_report(name, A, box)
            big_report = support_report(name, big_A, big)
            # original coordinates keep their positions, so even the witness is equal
            assert (big_report.supported, big_report.witness) == (report.supported, report.witness)
            assert big_report.assignments_checked == 2**big.n_coords
            if not report.supported:
                unsupported += 1
                with pytest.raises(PreconditionError):
                    normalize(name, big_A, big)
                continue
            expected = family_conditions(normalize(name, A, box))
            scheme = normalize(name, big_A, big)
            assert family_conditions(scheme) == expected
            decoded = decode_two_layer(two_layer_code(scheme, big), big)
            assert family_conditions(decoded) == expected
            for _ in range(20):
                g = Assignment(big, rng.getrandbits(big.n_coords))
                assert evaluate(name, g) == evaluate(scheme, g) == evaluate(decoded, g)
        assert unsupported  # the unsupported branch ran


small_cubes = st.lists(
    st.tuples(st.integers(0, 31), st.integers(0, 31)).map(lambda dv: (dv[0], dv[0] & dv[1])),
    max_size=8,
)


class TestPrimePackets:
    """Families are the prime implicants of the restricted conditions: the Blake canonical form."""

    @given(small_cubes)
    def test_prime_cubes_match_brute_force(self, cubes):
        minterms = {g for d, v in cubes for g in _cube_minterms(d, v, 31)}
        assert _prime_cubes(cubes) == brute_force_primes(minterms, 31)

    def test_wide_support_normalizes_to_few_packets(self):
        # each member fixes 3 of 15 coordinates over A; one packet per
        # assignment of the other 12 would make 5 * 2**12 packets
        rng = random.Random(600)
        f = random_forest(150, 600)
        box = CoordinateBox(Window.whole(f), 2, 2)  # 600 coordinates
        A = rho_closure(f, set(rng.sample(range(150), 6)))
        over_A = rng.sample([c for c in box.coords() if c.node in A.nodes], 15)
        off_A = [c for c in box.coords() if c.node not in A.nodes]
        pairs = []
        for m in range(5):
            base = tuple((c, rng.randrange(2)) for c in over_A[3 * m : 3 * m + 3])
            free = rng.choice(off_A)
            pairs += [(m, Condition(base + ((free, 0),))), (m, Condition(base + ((free, 1),)))]
        name = RawName.of(pairs)
        scheme = normalize(name, A, box)
        assert sum(len(pkts) for _, pkts in scheme.families) <= 5
        decoded = decode_two_layer(two_layer_code(scheme, box), box)
        assert decoded == scheme
        for _ in range(50):
            g = Assignment(box, rng.getrandbits(600))
            assert evaluate(name, g) == evaluate(scheme, g)

    def test_two_presentations_give_one_scheme(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1, 2})
        x, y = {(0, 0, 0): 0}, {(1, 0, 0): 1}
        first = RawName.of([(0, Condition.from_map(x)), (0, Condition.from_map({(0, 0, 0): 1, **y}))])
        second = RawName.of([(0, Condition.from_map(x)), (0, Condition.from_map(y))])
        scheme = normalize(first, A, box)
        assert scheme == normalize(second, A, box)
        assert dict(scheme.families).get(0, frozenset()) == {Packet(Condition.from_map(x)), Packet(Condition.from_map(y))}

    def test_parity_has_a_prime_per_minterm(self):
        # no two odd-parity minterms are adjacent, so no consensus merges any
        box = small_box()
        A = rho_closure(box.forest, {0, 1, 2})
        coords = list(box.coords())
        odd = [
            Condition(tuple(zip(coords, values)))
            for values in itertools.product((0, 1), repeat=6)
            if sum(values) % 2
        ]
        scheme = normalize(RawName.of((0, cond) for cond in odd), A, box)
        assert len(dict(scheme.families).get(0, frozenset())) == 32
        assert {pkt.condition for pkt in dict(scheme.families).get(0, frozenset())} == set(odd)

    def test_code_rejects_duplicate_and_negative_members(self):
        A = rho_closure(small_box().forest, {0})
        with pytest.raises(DomainError):
            TwoLayerCode(A, ((0, (1,)), (0, (2,))))
        with pytest.raises(DomainError):
            TwoLayerCode(A, ((-1, (1,)),))
        with pytest.raises(DomainError):
            TwoLayerCode(A, ((0, (5, -1)),))  # a code is any natural, and only that
        with pytest.raises(DomainError):
            TwoLayerCode(A, ((1.5, (1,)),))
        with pytest.raises(DomainError):
            TwoLayerCode(A, ((0, (1, 2.0)),))
        with pytest.raises(DomainError):
            TwoLayerCode(A, ((0, (1,)), ("1", (2,))))

    def test_huge_box_code_keeps_small_indices(self):
        # a packet's code grows with its literals, not with the box: 3**600 has 951 bits
        f = random_forest(150, 600)
        box = CoordinateBox(Window.whole(f), 2, 2)  # 600 coordinates
        cond = Condition.from_map({(149, 1, 1): 1, (149, 1, 0): 0})
        A = rho_closure(f, {149})
        code = two_layer_code(PacketScheme.of(A, {0: {Packet(cond)}}), box)
        assert code.packet_indices == ((0, (packet_code(cond),)),)
        assert packet_code(cond).bit_length() == 161

    def test_scheme_rejects_off_support_repeated_and_negative_members(self):
        f = small_box().forest
        A = rho_closure(f, {0})
        off_support = Packet(Condition.from_map({(1, 0, 0): 1}))
        with pytest.raises(DomainError):
            PacketScheme.of(A, {0: {off_support}})
        with pytest.raises(DomainError):
            PacketScheme(A, ((0, frozenset()), (0, frozenset())))
        with pytest.raises(DomainError):
            PacketScheme.of(A, {-1: set()})
        with pytest.raises(DomainError):
            PacketScheme.of(A, {1.5: set()})
        cond = Condition.from_map({(0, 0, 0): 1})
        for m in (-1, 1.5, 0.0):  # a raw name's member indices are natural ints too
            with pytest.raises(DomainError):
                RawName.of([(m, cond)])
        for bad in (((Coordinate(0, 0, 0), 1),), Packet(cond), None):  # and its conditions Conditions
            with pytest.raises(DomainError):
                RawName.of([(0, bad)])
        outside = Packet(Condition.from_map({(9, 0, 0): 1}))  # node outside the forest
        with pytest.raises(DomainError):
            PacketScheme.of(A, {0: {outside}})
        # a family holds Packets; a hashable look-alike would be stored but for the member check
        look_alike = collections.namedtuple("LookAlike", "condition")(cond)
        for bad in (cond, None, look_alike):
            with pytest.raises(DomainError, match="not a Packet"):
                PacketScheme.of(A, {0: {bad}})


class TestDerivedConditions:
    """Values this module derives skip the checks, so each must already pass them."""

    @given(st.integers(0, 2**32 - 1))
    def test_normalized_packets(self, seed):
        rng = random.Random(seed)
        box = random_box(rng, rng.choice(_BOX_SHAPES))
        name, A = _random_supported_name(rng, box)
        for _, packets in normalize(name, A, box).families:
            for pkt in packets:
                assert_canonical(pkt)
                assert_canonical(pkt.condition)

    @given(st.integers(0, 2**32 - 1))
    def test_normalized_scheme_its_code_and_the_decoded_packets(self, seed):
        rng = random.Random(seed)
        box = random_box(rng, rng.choice(_BOX_SHAPES))
        name, A = _random_supported_name(rng, box)
        scheme = normalize(name, A, box)
        assert_canonical(scheme)
        code = two_layer_code(scheme, box)
        assert_canonical(code)
        decoded = decode_two_layer(code, box)
        assert decoded == scheme
        for _, packets in decoded.families:
            for pkt in packets:
                assert_canonical(pkt)

    @given(st.integers(0, 2**48))
    def test_decoded_packets(self, k):
        try:
            cond = packet_of_code(k)
        except DomainError:
            return
        assert_canonical(cond)
        assert packet_code(cond) == k

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3)),
            st.integers(0, 1),
            max_size=6,
        )
    )
    def test_coded_packets_decode_canonical(self, mapping):
        cond = Condition.from_map(mapping)
        decoded = packet_of_code(packet_code(cond))
        assert_canonical(decoded)
        assert decoded == cond

    @given(st.integers(0, 2**32 - 1), st.sets(st.integers(0, 4)))
    def test_assignment_restrictions(self, seed, nodes):
        rng = random.Random(seed)
        box = random_box(rng, rng.choice(_BOX_SHAPES))
        g = Assignment(box, rng.getrandbits(box.n_coords))
        got = g.restrict_to_nodes(nodes)
        assert_canonical(got)
        assert got.domain() == {c for c in box.coords() if c.node in nodes}
        assert g.extends(got)


class TestNameCache:
    """A name holds one member table and one verdict per flip, whatever the window or box."""

    def test_one_table_and_one_sweep_per_name(self, monkeypatch):
        builds = record_calls(monkeypatch, kernels, "build_table")
        flips = record_calls(monkeypatch, kernels, "flip_violation")
        f = forest_of(4, {1: 0, 2: 1, 3: 0})
        box = CoordinateBox(Window.whole(f), 1, 2)
        A = rho_closure(f, {0, 1})
        over, off = Coordinate(1, 0, 0), Coordinate(3, 0, 1)
        pairs = [
            (0, Condition(((over, 1),))),
            (1, Condition(((over, 0), (off, 0)))),  # off-support coordinate set both ways
            (1, Condition(((over, 0), (off, 1)))),
        ]
        name = RawName.of(pairs)
        assert support_report(name, A, box).supported
        assert len(builds) == 1 and len(flips) >= 1
        sweep = len(flips)
        normalize(name, A, box)
        for m, cond in pairs:
            assert decision_invariant(name, A, cond, m, box)
        assert support_report(name, A, box).supported
        assert len(builds) == 1 and len(flips) == sweep

    def test_flips_run_once_per_name_across_windows(self, monkeypatch):
        flips = record_calls(monkeypatch, kernels, "flip_violation")
        f = forest_of(3, {1: 0, 2: 0})
        box = CoordinateBox(Window.whole(f), 1, 1)
        A = rho_closure(f, {2})
        off, over = Coordinate(1, 0, 0), Coordinate(2, 0, 0)
        # member 1 holds whatever the off-support coordinate says; member 0 reads the one over A
        name = RawName.of([(0, Condition(((over, 1),))), (1, Condition(((off, 0),))), (1, Condition(((off, 1),)))])
        assert support_report(name, A, box).supported
        first = {mask for _, mask in flips}
        del flips[:]
        report = support_report(name, Window(f, frozenset()), box)
        assert not report.supported and report.witness[:3] == over
        assert flips and not {mask for _, mask in flips} & first

    def test_answered_name_dies_with_its_last_reference(self):
        # no module cache holds a name, and the table it holds does not point back at it
        box = small_box()
        A = rho_closure(box.forest, {0})
        name = RawName.of([(0, Condition.from_map({(1, 0, 0): 1})), (1, Condition.from_map({(0, 0, 1): 0}))])
        gc.disable()
        try:
            assert not support_report(name, A, box).supported
            ref = weakref.ref(name)
            del name
            assert ref() is None
        finally:
            gc.enable()

    def test_box_lacking_a_mentioned_coordinate_still_rejected(self):
        f = forest_of(3, {1: 0, 2: 1})
        A = rho_closure(f, {0})
        name = RawName.of([(0, Condition.from_map({(2, 1, 2): 1}))])
        holds = CoordinateBox(Window.whole(f), 2, 3)
        report = support_report(name, A, holds)
        p = Condition.from_map({(0, 0, 0): 1})
        # a box without the mentioned node, row or bit, asked after one that holds them all
        for box in (
            CoordinateBox(rho_closure(f, {1}), 2, 3),
            CoordinateBox(Window.whole(f), 1, 3),
            CoordinateBox(Window.whole(f), 2, 2),
        ):
            with pytest.raises(DomainError, match="outside the box"):
                support_report(name, A, box)
            with pytest.raises(DomainError, match="outside the box"):
                normalize(name, A, box)
            with pytest.raises(DomainError, match="outside the box"):
                decision_invariant(name, A, p, 0, box)
        assert support_report(name, A, holds) == report

    def test_pickle_carries_the_name_alone(self):
        box = small_box()
        A = rho_closure(box.forest, {0, 1})
        name = RawName.of([(0, Condition.from_map({(1, 0, 0): 1})), (2, Condition.from_map({(2, 0, 1): 0}))])
        scheme = PacketScheme.of(A, {0: {Packet(Condition.from_map({(1, 0, 0): 1}))}})
        for named in (name, scheme):
            blob = pickle.dumps(named)
            report = support_report(named, A, box)
            assert pickle.dumps(named) == blob
            restored = pickle.loads(blob)
            assert restored == named and hash(restored) == hash(named) and restored._table is None
            assert support_report(restored, A, box) == report

    def test_list_or_dict_name_raises(self):
        # a name is typed, so a wrong-typed one need only fail at the call
        box = small_box()
        A = rho_closure(box.forest, {0})
        pairs = [(0, Condition.from_map({(0, 0, 0): 1}))]
        p = Condition.from_map({(0, 0, 0): 1})
        for name in (pairs, dict(pairs)):
            with pytest.raises(Exception):
                support_report(name, A, box)
            with pytest.raises(Exception):
                normalize(name, A, box)
            with pytest.raises(Exception):
                decision_invariant(name, A, p, 0, box)

    def test_names_built_from_sets_are_frozen_into_cache_keys(self):
        box = small_box()
        A = rho_closure(box.forest, {0})
        cond = Condition.from_map({(0, 0, 0): 1})
        raw = RawName({(0, cond)})
        scheme = PacketScheme(A, ((0, {Packet(cond)}),))
        assert raw == RawName.of([(0, cond)]) and hash(raw) == hash(RawName.of([(0, cond)]))
        assert support_report(raw, A, box).supported and support_report(scheme, A, box).supported

    def test_cached_verdicts_equal_uncached(self):
        rng = random.Random(16)
        for _ in range(200):
            box = _random_box(rng)
            name, A = _random_supported_name(rng, box)
            root = rho_closure(box.forest, {0})
            pairs = sorted(name.pairs, key=lambda p: (p[0], p[1].entries))

            def answers(fresh):
                def call(fn, named, *args):
                    if fresh:  # an equal copy builds its own table and runs its own flips
                        named = RawName.of(named.pairs)
                    try:
                        return fn(named, *args)
                    except PreconditionError:
                        return "precondition"

                # the name and an equal twin are asked over two windows and three boxes;
                # a wider box packs the same coordinates at other positions
                twin = RawName.of(list(name.pairs))
                twin_box = CoordinateBox(Window(box.forest, frozenset(box.window.nodes)), box.rows, box.bits)
                wide = CoordinateBox(box.window, box.rows, box.bits + 1)
                return (
                    call(support_report, name, A, box),
                    call(support_report, name, root, box),
                    call(normalize, name, A, box),
                    call(normalize, twin, A, twin_box),
                    call(normalize, name, root, box),
                    [call(decision_invariant, name, A, cond, m, box) for m, cond in pairs],
                    call(support_report, twin, root, twin_box).supported,
                    call(support_report, name, root, wide),
                    call(normalize, name, A, wide),
                )

            assert answers(fresh=False) == answers(fresh=True)


BOX = small_box()
ROOT = rho_closure(BOX.forest, {0})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: support_report(RawName.of([]), Window.whole(forest_of(2, {1: 0})), BOX),
            "support window and box use different forests",
            id="support-foreign-window",
        ),
        pytest.param(lambda: Assignment(BOX, 1 << BOX.n_coords), "assignment bits exceed the box", id="assignment-wide"),
        pytest.param(lambda: Assignment(BOX, 1.5), "malformed Assignment", id="assignment-float"),
        pytest.param(lambda: PacketScheme.of(ROOT, {0: {Packet(None)}}), "packet condition None must be a Condition", id="packet-none"),
        pytest.param(lambda: PacketScheme.of(None, {}), "malformed PacketScheme", id="scheme-support-none"),
        # a profile has the window's ``nodes``, but a scheme's code may hold only a Window
        pytest.param(
            lambda: PacketScheme.of(TraceProfile(ROOT, ()), {}), "support .* must be a Window", id="scheme-support-profile"
        ),
        pytest.param(lambda: TwoLayerCode(None, ()), "must be a Window", id="code-support-none"),
        pytest.param(lambda: two_layer_code(RawName.of([]), BOX), None, id="code-of-raw-name"),
        pytest.param(lambda: decode_two_layer(None, BOX), None, id="decode-none"),
        pytest.param(lambda: Assignment(None, 0), "malformed Assignment", id="assignment-box-none"),
        pytest.param(lambda: CoordinateBox(None, 1, 1), "malformed CoordinateBox", id="box-window-none"),
        pytest.param(lambda: support_report(RawName.of([]), None, BOX), None, id="support-window-none"),
        pytest.param(lambda: normalize(RawName.of([]), ROOT, None), None, id="normalize-box-none"),
    ],
)
def test_malformed_names_layer_inputs_rejected(call, message):
    # a row without a message passes a wrong-typed argument, which need only fail at the call
    with pytest.raises(Exception if message is None else DomainError, match=message):
        call()


def test_assignment_accepts_bool_bits():
    assert Assignment(BOX, True).value_bits == 1
