"""Names over a finite coordinate box: evaluation, support, normalization, coding.

A raw name is a finite set of (m, condition) pairs; an assignment g of the
whole box evaluates it to {m : some paired condition sits inside g}.  The
finite semantics replaces forcing machinery wholesale: total assignments
play the role of a maximal antichain of atoms, so "decides" and "supported
by" become finite sweeps.  Evaluation reads only the coordinates a name
mentions, so each sweep runs over a member table of those coordinates and
still covers every assignment of the box: the box may have any size, and
``kernels.MAX_TABLE_COORDS`` bounds what one name mentions.  A name holds
an index built on its first question: its member table, each pair's
masks over the table's bits, the coordinate of each bit, each node's bits
and the verdict of each single-coordinate flip once some support window
needs it.  Support, normalization and decision questions over any box that
holds the name read that index instead of the conditions.

Values from outside the library are checked by their constructors; the
values this module derives from checked ones (a normalized scheme, a
scheme's two-layer code and a decoded packet's condition) are built by
``_Value._checked``, the one build that skips the checks.  A packet is
built by ``Packet``, whose one type check costs less.  A decoded scheme is
still built by ``PacketScheme``: its node check certifies packets read
from outside naturals.

A name supported by a closed window A normalizes to a packet scheme: per
member m, the prime implicants (the Blake canonical form) of m's
conditions restricted to the coordinates the name mentions over A.  The
family depends only on which restrictions-to-A carry m, not on how the
name presents them.  Schemes admit a two-layer code via one well-orderable
base: an injection of all finite packets over nodes x rows x bits into the
naturals, so a code names its packets over every box that holds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from . import _kernels as kernels
from .cascade import Condition, Coordinate, Packet
from .errors import DomainError, PreconditionError, _Value
from .forest import PredecessorForest, Window


@dataclass(frozen=True)
class CoordinateBox(_Value):
    """A finite coordinate space: window nodes times ``rows`` times ``bits``.

    Coordinates are packed into bit positions node-major, then row, then
    bit, following the window's ascending node order.
    """

    window: Window
    rows: int
    bits: int
    _coords: tuple = field(init=False, repr=False, compare=False, default=None)
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.window.nodes or self.rows < 1 or self.bits < 1:
            raise DomainError("box must have nodes, rows, and bits")
        coords = tuple(
            Coordinate(xi, row, bit)
            for xi in self.window.ordered
            for row in range(self.rows)
            for bit in range(self.bits)
        )
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(coords)})

    @property
    def forest(self) -> PredecessorForest:
        return self.window.forest

    @property
    def n_coords(self) -> int:
        return len(self._coords)

    def index(self, coord: Coordinate) -> int:
        try:
            return self._index[coord]
        except KeyError:
            raise DomainError(f"coordinate {coord} outside the box") from None

    def coords(self) -> Iterable[Coordinate]:
        return self._coords

    def condition_masks(self, cond: Condition) -> tuple[int, int]:
        """Domain and value bitmasks of a condition inside this box."""
        return _slot_masks(_in_box(cond, self), self._index)

    def dims(self) -> tuple[int, int, int]:
        return len(self.window), self.rows, self.bits


@dataclass(frozen=True)
class Assignment(_Value):
    """A total 0/1 function on a box, packed by coordinate index."""

    box: CoordinateBox
    value_bits: int

    def __post_init__(self):
        if self.value_bits < 0 or self.value_bits >> self.box.n_coords:
            raise DomainError("assignment bits exceed the box")

    def extends(self, cond: Condition) -> bool:
        dmask, vmask = self.box.condition_masks(cond)
        return self.value_bits & dmask == vmask


@dataclass(frozen=True)
class RawName(_Value):
    """A finite set of (m, condition) pairs; the pre-normalization shape."""

    pairs: frozenset[tuple[int, Condition]]
    # the name's index (member table, masks, flip verdicts), set by _name_table on its first question
    _table: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # frozen pairs keep the name fixed, so the table it holds stays its own
        object.__setattr__(self, "pairs", frozenset(map(self._ordered, self._unordered(self.pairs))))
        for m, cond in self.pairs:
            if not isinstance(m, int) or m < 0:
                raise DomainError(f"member index {m!r} must be a natural int")
            if not isinstance(cond, Condition):
                raise DomainError(f"member {m} is paired with {cond!r}, not a Condition")

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, Condition]]) -> "RawName":
        return cls(pairs)


@dataclass(frozen=True)
class PacketScheme(_Value):
    """A support window plus, per member index, a family of packets over it.

    The node check here is the one packet certificate: a packet that
    mentions a node outside the support (or outside the forest) raises
    :class:`DomainError`.  That is enough, because the support is closed,
    so the closure of any packet's nodes already lies inside it.
    """

    support: Window
    families: tuple[tuple[int, frozenset[Packet]], ...]
    _table: tuple = field(init=False, repr=False, compare=False, default=None)  # as RawName's

    def __post_init__(self):
        # frozen families keep the packets fixed, so the table the scheme holds stays its own
        pairs = map(self._ordered, self._unordered(self.families))
        families = tuple((m, frozenset(self._unordered(packets))) for m, packets in pairs)
        if not isinstance(self.support, Window):  # two_layer_code stores it as a code's support
            raise TypeError(f"support {self.support!r} must be a Window")
        seen = set()
        nodes = self.support.nodes
        for m, packets in families:
            if not isinstance(m, int) or m < 0:
                raise DomainError(f"member index {m!r} must be a natural int")
            if m in seen:
                raise DomainError(f"duplicate family for member {m}")
            seen.add(m)
            for pkt in packets:
                if not isinstance(pkt, Packet):
                    raise DomainError(f"family {m} holds {pkt!r}, not a Packet")
                for coord, _ in pkt.condition.entries:
                    if coord.node not in nodes:
                        raise DomainError(
                            f"packet in family {m} mentions nodes outside the support"
                        )
        object.__setattr__(self, "families", tuple(sorted(families)))

    @classmethod
    def of(cls, support: Window, families: Mapping[int, Iterable[Packet]]) -> "PacketScheme":
        return cls(support, tuple(families.items()))


def _name_pairs(name) -> Iterable[tuple[int, Condition]]:
    """A raw name's pairs, or a scheme's ``(m, packet.condition)`` pairs, as stored."""
    if isinstance(name, PacketScheme):
        return [(m, pkt.condition) for m, packets in name.families for pkt in packets]
    return name.pairs


def evaluate(name, g: Assignment) -> set[int]:
    """Members of the name under one total assignment."""
    return {m for m, cond in _name_pairs(name) if g.extends(cond)}


class _NameIndex(NamedTuple):
    """What a name knows about itself, from one pass over its conditions."""

    table: kernels.Table
    masks: tuple[tuple[int, int, int], ...]  # each pair's (dmask, vmask, m) over the table bits
    coords: tuple[Coordinate, ...]  # the mentioned coordinates, by table bit
    slot: dict[Coordinate, int]  # each mentioned coordinate's table bit
    node_bits: dict[int, int]  # each mentioned node's table bits, as a mask
    flips: dict[int, int]  # kernels.flip_violation of each table bit flipped so far
    top: tuple[int, int]  # the largest row and bit mentioned, -1 when none

    def bits_over(self, A: Window) -> int:
        """Mask of the table bits whose coordinates lie over the window ``A``."""
        return sum(bits for node, bits in self.node_bits.items() if node in A.nodes)


def _name_table(name, box: CoordinateBox) -> _NameIndex:
    """The name's index: its member table over only the coordinates it mentions.

    The table's bits are the mentioned coordinates in box order.  The index
    also holds each of the name's pairs as ``(dmask, vmask, m)`` over
    those bits, the coordinate of each bit and its inverse ``slot``,
    each mentioned node's bits, and the ``kernels.flip_violation`` result
    of each bit flipped so far.  Evaluation reads no other coordinate, so a
    verdict over the table holds for all ``2**n_coords`` assignments of the
    box.  A coordinate outside the box, or more than
    ``kernels.MAX_TABLE_COORDS`` mentioned coordinates, raises
    :class:`DomainError`.

    Built on the name's first question and held by the name for as long as
    it lives: one column of at most ``2**MAX_TABLE_COORDS`` bits (512 KB)
    per member.  Boxes pack coordinates in the order of :class:`Coordinate`
    tuples, so the index is the same over every box that holds it, and the
    box is read only to check that it does.
    """
    index = name._table
    if index is None:
        pairs = _name_pairs(name)
        coords = tuple(sorted({c for _, cond in pairs for c, _ in cond.entries}))
        slot = {c: j for j, c in enumerate(coords)}
        masks = tuple((*_slot_masks(cond, slot), m) for m, cond in pairs)
        node_bits: dict[int, int] = {}
        for j, coord in enumerate(coords):
            node_bits[coord.node] = node_bits.get(coord.node, 0) | 1 << j
        top = max((c.row for c in coords), default=-1), max((c.bit for c in coords), default=-1)
        table = kernels.build_table(len(coords), masks)
        index = _NameIndex(table, masks, coords, slot, node_bits, {}, top)
        object.__setattr__(name, "_table", index)
    # a box holds every mentioned coordinate when it holds their nodes, largest row and bit
    top_row, top_bit = index.top
    if not (index.node_bits.keys() <= box.window.nodes and top_row < box.rows and top_bit < box.bits):
        for coord in index.coords:
            box.index(coord)  # raises DomainError naming a coordinate outside the box
    return index


def _slot_masks(cond: Condition, slot) -> tuple[int, int]:
    """Domain and value masks of a condition over the table bits ``slot`` assigns.

    A coordinate without a slot drops out: the name never reads it.
    """
    dmask = vmask = 0
    for coord, value in cond.entries:
        j = slot.get(coord)
        if j is not None:
            dmask |= 1 << j
            vmask |= value << j
    return dmask, vmask


@dataclass(frozen=True)
class SupportReport:
    """Outcome of a support sweep, with the scale that backs the verdict.

    The sweep runs over the whole member table of the coordinates the name
    mentions, and evaluation reads no others, so it covers all
    ``assignments_checked = 2**n_coords`` assignments of the box and
    ``exhaustive`` is always true.
    """

    supported: bool
    exhaustive: bool
    assignments_checked: int
    # (node, row, bit, assignment): flipping that coordinate alone changes the assignment's members
    witness: tuple[int, int, int, int] | None


def _check_box_window(A: Window, box: CoordinateBox) -> None:
    if A.forest != box.forest:
        raise DomainError("support window and box use different forests")


def _in_box(cond: Condition, box: CoordinateBox) -> Condition:
    """The condition, once each of its coordinates is found in the box."""
    index = box._index
    for coord, _ in cond.entries:
        if coord not in index:
            box.index(coord)  # raises DomainError naming the coordinate
    return cond


def support_report(name, A: Window, box: CoordinateBox) -> SupportReport:
    """Flip each coordinate off the support alone and check that no evaluation changes.

    Exhaustive over all ``2**n_coords`` assignments of a box of any size;
    a name that mentions more than ``kernels.MAX_TABLE_COORDS`` coordinates
    raises :class:`DomainError`.  Single coordinates suffice by the
    star-span lemma: the generators at nodes off the closed window ``A``
    toggle a node and its successors, all off ``A``, and their star matrix
    is unit triangular, so inside the box the group fixing the rows over
    ``A`` is exactly the group of flips of coordinates off ``A``.  The
    witness is the first mentioned coordinate off ``A``, in box order,
    whose flip changes some evaluation, with the least assignment it
    changes (unmentioned coordinates 0).  A flip's verdict depends on the
    name alone, so the name holds its member table and each flip's verdict
    from their first use: each flip runs at most once, and :func:`normalize`
    and :func:`decision_invariant` read them too.
    """
    _check_box_window(A, box)
    index = _name_table(name, box)
    coords, flips = index.coords, index.flips
    checked = 1 << box.n_coords
    for j, coord in enumerate(coords):
        if coord.node not in A.nodes:
            if j not in flips:
                flips[j] = kernels.flip_violation(index.table, 1 << j)
            g = flips[j]
            if g >= 0:
                assignment = sum(1 << box.index(coords[i]) for i in kernels.set_bits(g))
                return SupportReport(False, True, checked, (*coord, assignment))
    return SupportReport(True, True, checked, None)


def decision_invariant(
    name, A: Window, p: Condition, m: int, box: CoordinateBox
) -> bool:
    """Whether the restriction of a deciding condition to support rows decides alike.

    ``p`` must decide m: every total extension of p agrees on membership.
    Returns True when the restriction of p to rows over ``A`` still decides
    m with the same truth value, sweeping all of its total extensions.  The
    coordinates of ``p`` that the name does not mention cannot change
    membership, so they drop out of the sweep; they must still lie in the box.
    The name holds its index, so asking about many conditions of one name
    builds its table once.
    """
    _check_box_window(A, box)
    _in_box(p, box)
    index = _name_table(name, box)
    dmask, vmask = _slot_masks(p, index.slot)
    verdict = kernels.subcube_member_summary(index.table, m, dmask, vmask)
    if verdict == 2:
        raise PreconditionError(f"condition does not decide membership of {m}")
    # restricting p to the rows over A keeps the table bits of the coordinates over A
    over_A = index.bits_over(A)
    return kernels.subcube_member_summary(index.table, m, dmask & over_A, vmask & over_A) == verdict


def _prime_cubes(cubes) -> set[tuple[int, int]]:
    """Every prime implicant of a union of ``(dmask, vmask)`` cubes: its Blake canonical form.

    Iterated consensus with absorption.  A cube that no kept cube absorbs
    evicts the kept cubes it absorbs and queues its consensus with each
    one left; once the queue is empty, every consensus of two kept cubes
    is absorbed by a kept cube, so by Blake's theorem the kept cubes are
    exactly the prime implicants.
    """
    primes: set[tuple[int, int]] = set()
    queue = list(set(cubes))
    while queue:
        d, v = queue.pop()
        if any(pd & ~d == 0 and v & pd == pv for pd, pv in primes):
            continue
        primes = {(pd, pv) for pd, pv in primes if d & ~pd or pv & d != v}
        for pd, pv in primes:
            opposed = d & pd & (v ^ pv)
            if opposed and not opposed & (opposed - 1):
                queue.append(((d | pd) & ~opposed, (v | pv) & ~opposed))
        primes.add((d, v))
    return primes


def normalize(name, A: Window, box: CoordinateBox) -> PacketScheme:
    """Rewrite a supported name as a packet scheme over its support window.

    Per member m the family is the set of prime implicants of m's
    conditions, each restricted to the coordinates the name mentions over
    the support.  The assignments carrying m are the union of those
    conditions' cubes, and projecting a union of cubes onto the trimmed
    coordinates restricts each cube, so the family covers exactly the
    projections of the assignments carrying m.  Support makes membership
    depend on those projections alone, so the scheme evaluates exactly like
    the name on every assignment; the prime implicants depend only on that
    function, so two presentations of one name give one scheme.  Support is
    checked by :func:`support_report`, over the member table and flip
    verdicts the name holds: after :func:`support_report` on the same name,
    no table is built and no flip runs again.  The box may have any size,
    and a name that mentions more than ``kernels.MAX_TABLE_COORDS``
    coordinates raises :class:`DomainError`.
    Families run over the members that occur; every other member's family
    is empty.
    """
    report = support_report(name, A, box)
    if not report.supported:
        raise PreconditionError(
            f"name is not supported by the window; witness coordinate+assignment {report.witness}"
        )
    index = _name_table(name, box)
    keep = index.bits_over(A)
    cubes: dict[int, list[tuple[int, int]]] = {}
    for dmask, vmask, m in index.masks:
        cubes.setdefault(m, []).append((dmask & keep, vmask & keep))
    coords = index.coords
    # a prime's bits ascend in box order, which is the coordinates' sorted order, and lie over A
    families = tuple(
        (m, frozenset(
            Packet(Condition._checked(
                entries=tuple((coords[j], (v >> j) & 1) for j in kernels.set_bits(d))
            ))
            for d, v in _prime_cubes(member_cubes)
        ))
        for m, member_cubes in sorted(cubes.items())
    )
    return PacketScheme._checked(support=A, families=families)


@dataclass(frozen=True)
class TwoLayerCode(_Value):
    """A scheme coded as its support plus, per member, the codes of its packets."""

    support: Window
    packet_indices: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        pairs = map(self._ordered, self._unordered(self.packet_indices))
        indices = tuple((m, self._unordered(ks)) for m, ks in pairs)
        if not isinstance(self.support, Window):
            raise DomainError(f"code support {self.support!r} must be a Window")
        for m, ks in indices:  # a float would sort, and be stored
            if not all(isinstance(k, int) and k >= 0 for k in (m, *ks)):
                raise DomainError("member indices and packet codes must be natural ints")
            if len(set(ks)) != len(ks):  # a repeat decodes as one packet, which codes back without it
                raise DomainError(f"member {m} lists a packet code twice")
        if len({m for m, _ in indices}) != len(indices):
            raise DomainError("duplicate index list for one member")
        object.__setattr__(self, "packet_indices", tuple(sorted((m, tuple(sorted(ks))) for m, ks in indices)))


def packet_code(cond: Condition) -> int:
    """A packet's natural in one injection of all finite packets into the naturals.

    The sorted literals are listed as (node gap, row, bit, value), the gap
    counting from the previous literal's node and from 0 for the first; the
    sequence x1..xn is coded by setting bit x1+...+xi+i-1 for each i.
    """
    code = node = 0
    pos = -1
    for (xi, row, bit), value in cond.entries:
        for x in (xi - node, row, bit, value):
            pos += x + 1
            code |= 1 << pos
        node = xi
    return code


def packet_of_code(k: int) -> Condition:
    """Inverse of :func:`packet_code`, reading the gaps between set bits back.

    A natural that :func:`packet_code` never returns raises
    :class:`DomainError`: its gaps do not come in fours, or give a value
    above 1 or literals that are not strictly increasing.
    """
    if k < 0:
        raise DomainError("packet codes must be naturals")
    # the runs of zeros below each set bit, lowest first, are the gaps x1..xn
    xs = [len(run) for run in bin(k)[:1:-1].split("1")[:-1]]
    if len(xs) % 4:
        raise DomainError(f"no packet has code {k:#x}")
    entries = []
    node = 0
    literals = iter(xs)
    for gap, row, bit, value in zip(literals, literals, literals, literals):
        node += gap
        coord = Coordinate(node, row, bit)
        if value > 1 or (entries and coord <= entries[-1][0]):
            raise DomainError(f"no packet has code {k:#x}")
        entries.append((coord, value))
    return Condition._checked(entries=tuple(entries))


def two_layer_code(scheme: PacketScheme, box: CoordinateBox) -> TwoLayerCode:
    """Code a scheme by its packets' codes; a packet outside the box raises :class:`DomainError`."""
    # the scheme's families are sorted by member, so sorting each code list stores the code canonically
    indices = tuple(
        (m, tuple(sorted(packet_code(_in_box(p.condition, box)) for p in packets)))
        for m, packets in scheme.families
    )
    return TwoLayerCode._checked(support=scheme.support, packet_indices=indices)


def decode_two_layer(code: TwoLayerCode, box: CoordinateBox) -> PacketScheme:
    """The scheme a code names, the same over every box that holds its packets.

    Packets are certified by the scheme's node check against the code's
    support, whatever the box's forest; a packet outside the box raises
    :class:`DomainError`.
    """
    families = {
        m: {Packet(_in_box(packet_of_code(k), box)) for k in ks}
        for m, ks in code.packet_indices
    }
    return PacketScheme.of(code.support, families)
