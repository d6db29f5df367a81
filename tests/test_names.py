"""Name evaluation, support sweeps, normalization, and two-layer coding."""

import itertools
import random

import pytest

from conftest import forest_of
from cascadekit.cascade import Condition, Coordinate, Packet, ToggleSet, generator
from cascadekit.errors import DomainError, PreconditionError
from cascadekit.forest import Window, random_forest, rho_closure
from cascadekit.names import (
    Assignment,
    CoordinateBox,
    PacketScheme,
    RawName,
    all_assignments,
    apply_to_assignment,
    check_support,
    decision_invariant,
    decode_two_layer,
    evaluate,
    format_code,
    format_scheme,
    normalize,
    packet_rank,
    packet_unrank,
    parse_code,
    parse_scheme,
    support_report,
    two_layer_code,
)
from cascadekit.verify import _BOX_SHAPES


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


class TestBoxAndAssignment:
    def test_index_round_trip(self):
        box = small_box(rows=2, bits=3)
        for idx in range(box.n_coords):
            assert box.index(box.coord_at(idx)) == idx

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
            assert box.coord_at(idx) == coord
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
        for idx in (-1, box.n_coords):
            with pytest.raises(DomainError):
                box.coord_at(idx)

    def test_assignment_extends(self):
        box = small_box()
        g = Assignment(box, 0b000001)  # bit 0 of node 0, row 0 set
        assert g.extends(Condition.from_map({(0, 0, 0): 1}))
        assert not g.extends(Condition.from_map({(0, 0, 1): 1}))

    def test_restrict_to_nodes(self):
        box = small_box()
        g = Assignment(box, 0b110101)
        cond = g.restrict_to_nodes({1})
        assert cond.node_support() == {1}
        assert len(cond) == box.rows * box.bits


class TestEvaluate:
    def test_scheme_membership(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        pkt = Packet.of(Condition.from_map({(0, 0, 0): 1}), f)
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
        pkt = Packet.of(Condition.from_map({(1, 0, 1): 1, (0, 0, 0): 0}), f)
        scheme = PacketScheme.of(A, {0: {pkt}})
        name = scheme.to_raw_name()
        assert naive_supported(name, A, box)
        assert check_support(name, A, box)

    def test_leaf_mention_off_support_fails(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        name = RawName.of([(0, Condition.from_map({(2, 0, 1): 1}))])
        assert not naive_supported(name, A, box)
        report = support_report(name, A, box)
        assert not report.supported
        assert report.exhaustive
        xi, row, bit, g_bits = report.witness
        tau = generator(f, xi, row, ToggleSet.finite({bit}))
        g = Assignment(box, g_bits)
        assert evaluate(name, apply_to_assignment(tau, g)) != evaluate(name, g)

    def test_empty_name_supported(self):
        box = small_box()
        A = rho_closure(box.forest, set())
        assert check_support(RawName.of([]), A, box)

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
            assert check_support(name, A, box) == naive_supported(name, A, box)

    def test_sampled_path_above_exhaustive_limit(self):
        f = random_forest(3, 1)
        box = CoordinateBox(Window.whole(f), 3, 2)  # 18 coordinates
        A = rho_closure(f, {0})
        pkt = Packet.of(Condition.from_map({(0, 1, 1): 1}), f)
        name = PacketScheme.of(A, {0: {pkt}}).to_raw_name()
        report = support_report(name, A, box, seed=5)
        assert report.supported and not report.exhaustive
        assert report.assignments_checked == 4096
        bad = RawName.of([(0, Condition.from_map({(2, 0, 0): 1}))])
        assert not check_support(bad, A, box, seed=5)


class TestDecisionInvariant:
    def test_condition_entirely_over_support(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        pkt = Packet.of(Condition.from_map({(1, 0, 0): 1}), f)
        name = PacketScheme.of(A, {2: {pkt}}).to_raw_name()
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
            assert check_support(name, A, box)
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
        pkt = Packet.of(Condition.from_map({(0, 0, 0): 1}), f)
        name = PacketScheme.of(A, {0: {pkt}}).to_raw_name()
        with pytest.raises(PreconditionError):
            decision_invariant(name, A, Condition.empty(), 0, box)

    def test_member_absent_from_name(self):
        box = small_box()
        A = rho_closure(box.forest, {0})
        name = RawName.of([])
        assert decision_invariant(name, A, Condition.empty(), 5, box)


class TestNormalize:
    def test_name_over_support_trims_to_itself(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        p = Condition.from_map({(1, 0, 0): 1, (0, 0, 1): 0})
        scheme = normalize(RawName.of([(0, p)]), A, box)
        assert scheme.family(0) == {Packet.of(p, f)}

    def test_scheme_normalizes_to_equal_semantics(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 2})
        pkts = {
            Packet.of(Condition.from_map({(2, 0, 0): 1}), f),
            Packet.of(Condition.from_map({(0, 0, 1): 0, (2, 0, 1): 1}), f),
        }
        scheme = PacketScheme.of(A, {0: pkts, 1: set()})
        name = scheme.to_raw_name()
        normalized = normalize(name, A, box)
        for g in all_assignments(box):
            assert evaluate(normalized, g) == evaluate(name, g)

    def test_constant_empty_name(self):
        box = small_box()
        A = rho_closure(box.forest, set())
        scheme = normalize(RawName.of([]), A, box)
        assert scheme.families and all(not pkts for _, pkts in scheme.families)

    def test_unsupported_name_rejected(self):
        box = small_box()
        A = rho_closure(box.forest, {0})
        name = RawName.of([(0, Condition.from_map({(2, 0, 0): 1}))])
        with pytest.raises(PreconditionError):
            normalize(name, A, box)

    def test_m_range_too_small_rejected(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        name = RawName.of([(5, Condition.from_map({(0, 0, 0): 1}))])
        with pytest.raises(DomainError):
            normalize(name, A, box, m_range=3)

    def test_m_range_padding(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        name = RawName.of([(0, Condition.from_map({(0, 0, 0): 1}))])
        scheme = normalize(name, A, box, m_range=12)
        assert len(scheme.families) == 12
        assert scheme.family(11) == frozenset()

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
            assert check_support(scheme, A, box)

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
        assert check_support(name, A, box)
        assert naive_supported(name, A, box)
        scheme = normalize(name, A, box)
        assert scheme.family(0) == {Packet.of(base, f)}
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
        assert check_support(name, A, box)
        scheme = normalize(name, A, box)
        for g in all_assignments(box):
            assert evaluate(scheme, g) == evaluate(name, g)

    def test_equivariance_of_supported_names(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        pkt = Packet.of(Condition.from_map({(1, 0, 1): 1}), f)
        name = PacketScheme.of(A, {0: {pkt}}).to_raw_name()
        tau = generator(f, 2, 0, ToggleSet.finite({0, 1}))
        for g in all_assignments(box):
            assert evaluate(name, apply_to_assignment(tau, g)) == evaluate(name, g)


def tiny_enumeration_box():
    f = forest_of(1, {})
    return CoordinateBox(Window.whole(f), 1, 3)  # 3 coordinates, 27 packets


class TestPacketEnumeration:
    def test_rank_matches_explicit_enumeration(self):
        box = tiny_enumeration_box()
        coords = list(box.coords())
        packets = []
        for dom_size in range(len(coords) + 1):
            for combo in itertools.combinations(range(len(coords)), dom_size):
                for values in itertools.product((0, 1), repeat=dom_size):
                    cond = Condition(tuple((coords[i], v) for i, v in zip(combo, values)))
                    packets.append(cond)
        def serialized(cond):
            return tuple(sorted((box.index(c), v) for c, v in cond.entries))
        packets.sort(key=serialized)
        assert len(packets) == 27
        for k, cond in enumerate(packets):
            assert packet_rank(cond, box) == k
            assert packet_unrank(k, box) == cond

    def test_unrank_out_of_range(self):
        box = tiny_enumeration_box()
        with pytest.raises(DomainError):
            packet_unrank(27, box)

    def test_round_trip_on_six_coordinate_box(self):
        box = small_box(rows=1, bits=2)  # 6 coordinates, 729 packets
        coords = list(box.coords())
        rng = random.Random(6)
        previous = []
        for k in range(3 ** len(coords)):
            cond = packet_unrank(k, box)
            assert packet_rank(cond, box) == k
            previous.append(cond)
        # spot check the order: serialization is strictly increasing in rank
        def serialized(cond):
            return tuple(sorted((box.index(c), v) for c, v in cond.entries))
        for _ in range(100):
            i, j = sorted(rng.sample(range(len(previous)), 2))
            assert serialized(previous[i]) < serialized(previous[j])

    def test_single_packet_code_indices(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        cond = Condition.from_map({(0, 0, 1): 1})
        scheme = PacketScheme.of(A, {2: {Packet.of(cond, f)}})
        code = two_layer_code(scheme, box)
        assert dict(code.packet_indices)[2] == (packet_rank(cond, box),)


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
                    packets.add(Packet.of(Condition(tuple((c, rng.randrange(2)) for c in picked)), f))
                families[m] = packets
            scheme = PacketScheme.of(A, families)
            decoded = decode_two_layer(two_layer_code(scheme, box), box)
            for g in all_assignments(box):
                assert evaluate(decoded, g) == evaluate(scheme, g)

    def test_dimension_mismatch_rejected(self):
        box = small_box()
        other = small_box(bits=3)
        A = rho_closure(box.forest, set())
        code = two_layer_code(PacketScheme.of(A, {}), box)
        with pytest.raises(DomainError):
            decode_two_layer(code, other)

    def test_unknown_version_rejected(self):
        from dataclasses import replace

        box = small_box()
        A = rho_closure(box.forest, set())
        code = two_layer_code(PacketScheme.of(A, {}), box)
        with pytest.raises(DomainError):
            decode_two_layer(replace(code, version="lex-v999"), box)


class TestBoxValidation:
    def test_degenerate_dimensions(self):
        from cascadekit.forest import Window

        f = forest_of(2, {1: 0})
        with pytest.raises(DomainError):
            CoordinateBox(Window.whole(f), 0, 2)
        with pytest.raises(DomainError):
            CoordinateBox(Window.whole(f), 1, 0)

    def test_window_node_outside_universe(self):
        from cascadekit.forest import Window

        f = forest_of(2, {1: 0})
        with pytest.raises(DomainError):
            Window(f, frozenset({0, 5}))


class TestSchemeText:
    def test_scheme_round_trip(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0, 1})
        scheme = PacketScheme.of(
            A,
            {
                0: {Packet.of(Condition.from_map({(1, 0, 0): 1, (0, 0, 1): 0}), f)},
                1: set(),
            },
        )
        assert parse_scheme(format_scheme(scheme), f) == scheme

    def test_code_round_trip(self):
        box = small_box()
        f = box.forest
        A = rho_closure(f, {0})
        scheme = PacketScheme.of(A, {0: {Packet.of(Condition.from_map({(0, 0, 0): 1}), f)}})
        code = two_layer_code(scheme, box)
        assert parse_code(format_code(code), f) == code

    def test_parse_scheme_bad_block(self):
        from cascadekit.errors import ParseError

        f = small_box().forest
        with pytest.raises(ParseError):
            parse_scheme("support: 0\nm 0: {0 0 0}\n", f)
        with pytest.raises(ParseError):
            parse_scheme("m 0:\n", f)
        with pytest.raises(ParseError):
            parse_scheme("support: 0\nm 0: {0 0 0 1\n", f)
