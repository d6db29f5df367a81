"""Names over a finite coordinate box: evaluation, support, normalization, coding.

A raw name is a finite set of (m, condition) pairs; an assignment g of the
whole box evaluates it to {m : some paired condition sits inside g}.  The
finite semantics replaces forcing machinery wholesale: total assignments
play the role of a maximal antichain of atoms, so "decides" and "supported
by" become finite sweeps.

A name supported by a closed window A normalizes to a packet scheme: per
member m, the family of restrictions-to-A of the assignments carrying m,
trimmed to the coordinates the name actually mentions over A.  Schemes
admit a two-layer code via a canonical enumeration of all packets over the
box.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import _kernels as kernels
from .cascade import CascadeAutomorphism, Condition, Coordinate, Packet
from .errors import CertificateError, DomainError, ParseError, PreconditionError
from .forest import PredecessorForest, Window, parse_node_set

DEFAULT_M_RANGE = 8
ENUMERATION_VERSION = "lex-v1"
EXHAUSTIVE_COORD_LIMIT = 16
SAMPLE_COUNT = 4096


@dataclass(frozen=True)
class CoordinateBox:
    """A finite coordinate space: window nodes times ``rows`` times ``bits``.

    Coordinates are packed into bit positions node-major, then row, then
    bit, following the window's ascending node order.
    """

    window: Window
    rows: int
    bits: int
    _node_pos: dict = field(init=False, repr=False, compare=False, default=None)
    _coords: tuple = field(init=False, repr=False, compare=False, default=None)
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.window.nodes or self.rows < 1 or self.bits < 1:
            raise DomainError("box must have nodes, rows, and bits")
        object.__setattr__(
            self, "_node_pos", {xi: k for k, xi in enumerate(self.window.ordered)}
        )
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

    def contains(self, coord: Coordinate) -> bool:
        return coord in self._index

    def index(self, coord: Coordinate) -> int:
        try:
            return self._index[coord]
        except KeyError:
            raise DomainError(f"coordinate {coord} outside the box") from None

    def coord_at(self, idx: int) -> Coordinate:
        if not 0 <= idx < len(self._coords):
            raise DomainError(f"coordinate index {idx} outside the box")
        return self._coords[idx]

    def coords(self) -> Iterable[Coordinate]:
        return self._coords

    def condition_masks(self, cond: Condition) -> tuple[int, int]:
        """Domain and value bitmasks of a condition inside this box."""
        dmask = vmask = 0
        for coord, value in cond.entries:
            pos = self.index(coord)
            dmask |= 1 << pos
            if value:
                vmask |= 1 << pos
        return dmask, vmask

    def node_coord_mask(self, nodes) -> int:
        """Bitmask of every coordinate whose node lies in ``nodes``."""
        mask = 0
        per_node = (1 << (self.rows * self.bits)) - 1
        for xi in nodes:
            if xi in self._node_pos:
                mask |= per_node << (self._node_pos[xi] * self.rows * self.bits)
        return mask

    def dims(self) -> tuple[int, int, int]:
        return len(self.window), self.rows, self.bits


@dataclass(frozen=True)
class Assignment:
    """A total 0/1 function on a box, packed by coordinate index."""

    box: CoordinateBox
    value_bits: int

    def __post_init__(self):
        if self.value_bits < 0 or self.value_bits >> self.box.n_coords:
            raise DomainError("assignment bits exceed the box")

    def value(self, coord: Coordinate) -> int:
        return (self.value_bits >> self.box.index(coord)) & 1

    def extends(self, cond: Condition) -> bool:
        dmask, vmask = self.box.condition_masks(cond)
        return self.value_bits & dmask == vmask

    def restrict_to_coord_mask(self, mask: int) -> Condition:
        entries = []
        idx = 0
        while mask >> idx:
            if (mask >> idx) & 1:
                entries.append((self.box.coord_at(idx), (self.value_bits >> idx) & 1))
            idx += 1
        return Condition(tuple(entries))

    def restrict_to_nodes(self, nodes) -> Condition:
        return self.restrict_to_coord_mask(self.box.node_coord_mask(nodes))

    def flip(self, mask: int) -> "Assignment":
        return Assignment(self.box, self.value_bits ^ mask)


def all_assignments(box: CoordinateBox) -> Iterable[Assignment]:
    for bits in range(1 << box.n_coords):
        yield Assignment(box, bits)


def automorphism_flip_mask(tau: CascadeAutomorphism, box: CoordinateBox) -> int:
    """The box coordinates a cascade automorphism toggles, as a bitmask."""
    mask = 0
    for (node, row), ts in tau.row_toggles:
        if node not in box.window.nodes or row >= box.rows:
            continue
        row_mask = ts.mask_below(box.bits)
        base = box.index(Coordinate(node, row, 0))
        mask |= row_mask << base
    return mask


def apply_to_assignment(tau: CascadeAutomorphism, g: Assignment) -> Assignment:
    return g.flip(automorphism_flip_mask(tau, g.box))


@dataclass(frozen=True)
class RawName:
    """A finite set of (m, condition) pairs; the pre-normalization shape."""

    pairs: frozenset[tuple[int, Condition]]

    def __post_init__(self):
        for m, _ in self.pairs:
            if m < 0:
                raise DomainError("member indices must be naturals")

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, Condition]]) -> "RawName":
        return cls(frozenset(pairs))

    def members(self) -> tuple[int, ...]:
        return tuple(sorted({m for m, _ in self.pairs}))


@dataclass(frozen=True)
class PacketScheme:
    """A support window plus, per member index, a family of packets over it."""

    support: Window
    families: tuple[tuple[int, frozenset[Packet]], ...]

    def __post_init__(self):
        seen = set()
        for m, packets in self.families:
            if m < 0:
                raise DomainError("member indices must be naturals")
            if m in seen:
                raise DomainError(f"duplicate family for member {m}")
            seen.add(m)
            for pkt in packets:
                if not pkt.condition.node_support() <= self.support.nodes:
                    raise DomainError(
                        f"packet in family {m} mentions nodes outside the support"
                    )
        canonical = tuple(sorted(self.families, key=lambda kv: kv[0]))
        if canonical != self.families:
            object.__setattr__(self, "families", canonical)

    @classmethod
    def of(cls, support: Window, families: Mapping[int, Iterable[Packet]]) -> "PacketScheme":
        return cls(support, tuple((m, frozenset(ps)) for m, ps in families.items()))

    def family(self, m: int) -> frozenset[Packet]:
        for k, packets in self.families:
            if k == m:
                return packets
        return frozenset()

    def to_raw_name(self) -> RawName:
        return RawName.of(
            (m, pkt.condition) for m, packets in self.families for pkt in packets
        )


def _name_pairs(name) -> tuple[tuple[int, Condition], ...]:
    if isinstance(name, PacketScheme):
        name = name.to_raw_name()
    if not isinstance(name, RawName):
        raise DomainError(f"expected a raw name or packet scheme, got {type(name)!r}")
    return tuple(sorted(name.pairs, key=lambda p: (p[0], p[1].entries)))


def evaluate(name, g: Assignment) -> set[int]:
    """Members of the name under one total assignment."""
    out = set()
    for m, cond in _name_pairs(name):
        if g.extends(cond):
            out.add(m)
    return out


def _member_bits(pairs) -> dict[int, int]:
    members = sorted({m for m, _ in pairs})
    if len(members) > 64:
        raise DomainError("more than 64 distinct member indices in one name")
    return {m: 1 << k for k, m in enumerate(members)}


def _build_table(pairs, box: CoordinateBox):
    bits = _member_bits(pairs)
    entries = []
    for m, cond in pairs:
        dmask, vmask = box.condition_masks(cond)
        entries.append((dmask, vmask, bits[m]))
    return kernels.build_table(box.n_coords, entries), bits


def _off_support_generators(A: Window, box: CoordinateBox):
    """Flip masks of every single-bit generator at a node off the support.

    Yields ``(xi, row, bit, mask)``; the mask covers the generator's own
    coordinate and the matching coordinate of each successor in the box.
    """
    forest = box.forest
    for xi in box.window.ordered:
        if xi in A.nodes:
            continue
        in_box_children = [eta for eta in forest._children[xi] if eta in box.window.nodes]
        for row in range(box.rows):
            for bit in range(box.bits):
                mask = 1 << box.index(Coordinate(xi, row, bit))
                for eta in in_box_children:
                    mask |= 1 << box.index(Coordinate(eta, row, bit))
                yield xi, row, bit, mask


@dataclass(frozen=True)
class SupportReport:
    """Outcome of a support sweep, with the scale that backs the verdict."""

    supported: bool
    exhaustive: bool
    assignments_checked: int
    witness: tuple[int, int, int, int] | None  # (node, row, bit, assignment)


def _check_box_window(A: Window, box: CoordinateBox) -> None:
    if A.forest != box.forest:
        raise DomainError("support window and box use different forests")


def support_report(name, A: Window, box: CoordinateBox, seed: int = 0) -> SupportReport:
    """Sweep single-bit generators off the support for evaluation invariance.

    Exhaustive over all assignments up to ``EXHAUSTIVE_COORD_LIMIT``
    coordinates, seeded sampling of ``SAMPLE_COUNT`` assignments above.
    Generators off the support suffice: the group is abelian and every
    element fixing the support factors into them inside the box.
    """
    _check_box_window(A, box)
    pairs = _name_pairs(name)
    for _, cond in pairs:
        dm, vm = box.condition_masks(cond)  # raises DomainError outside the box
        del dm, vm
    if box.n_coords <= EXHAUSTIVE_COORD_LIMIT:
        table, _ = _build_table(pairs, box)
        checked = 1 << box.n_coords
        for xi, row, bit, mask in _off_support_generators(A, box):
            g = kernels.flip_violation(table, mask)
            if g >= 0:
                return SupportReport(False, True, checked, (xi, row, bit, g))
        return SupportReport(True, True, checked, None)
    rng = random.Random(seed)
    masks = list(_off_support_generators(A, box))
    cond_masks = [
        (box.condition_masks(c), m) for m, c in pairs
    ]
    samples = [rng.getrandbits(box.n_coords) for _ in range(SAMPLE_COUNT)]
    for g_bits in samples:
        base = {m for (dm, vm), m in cond_masks if g_bits & dm == vm}
        for xi, row, bit, mask in masks:
            flipped_bits = g_bits ^ mask
            flipped = {m for (dm, vm), m in cond_masks if flipped_bits & dm == vm}
            if flipped != base:
                return SupportReport(False, False, len(samples), (xi, row, bit, g_bits))
    return SupportReport(True, False, len(samples), None)


def check_support(name, A: Window, box: CoordinateBox, seed: int = 0) -> bool:
    """True when no off-support single-bit generator changes any evaluation."""
    return support_report(name, A, box, seed=seed).supported


def decision_invariant(
    name, A: Window, p: Condition, m: int, box: CoordinateBox
) -> bool:
    """Whether the restriction of a deciding condition to support rows decides alike.

    ``p`` must decide m: every total extension of p agrees on membership.
    Returns True when the restriction of p to rows over ``A`` still decides
    m with the same truth value, sweeping all of its total extensions.
    """
    _check_box_window(A, box)
    pairs = _name_pairs(name)
    table, bits = _build_table(pairs, box)
    member_bit = bits.get(m, 0)
    dmask, vmask = box.condition_masks(p)
    if member_bit == 0:
        return True  # the name never contains m, so every restriction decides it false
    verdict = kernels.subcube_member_summary(table, member_bit, dmask, vmask)
    if verdict == 2:
        raise PreconditionError(f"condition does not decide membership of {m}")
    restriction = p.restrict_to_nodes(A.nodes)
    r_dmask, r_vmask = box.condition_masks(restriction)
    r_verdict = kernels.subcube_member_summary(table, member_bit, r_dmask, r_vmask)
    return r_verdict == verdict


def normalize(
    name, A: Window, box: CoordinateBox, m_range: int | None = None, seed: int = 0
) -> PacketScheme:
    """Rewrite a supported name as a packet scheme over its support window.

    Per member m the family collects, over all assignments carrying m, the
    restriction to the support rows trimmed to the coordinates the name
    mentions there.  Evaluation then inspects only mentioned coordinates,
    and support erases off-window differences, so the scheme evaluates
    exactly like the name on every assignment.
    """
    _check_box_window(A, box)
    report = support_report(name, A, box, seed=seed)
    if not report.supported:
        raise PreconditionError(
            f"name is not supported by the window; witness generator+assignment {report.witness}"
        )
    pairs = _name_pairs(name)
    members = sorted({m for m, _ in pairs})
    if m_range is None:
        m_range = max(DEFAULT_M_RANGE, max(members) + 1 if members else 0)
    elif members and members[-1] >= m_range:
        raise DomainError("name mentions members beyond the requested range")
    table, bits = _build_table(pairs, box)
    support_mask = box.node_coord_mask(A.nodes)
    mentioned = 0
    for _, cond in pairs:
        dmask, _ = box.condition_masks(cond)
        mentioned |= dmask
    trim_mask = mentioned & support_mask
    forest = box.forest
    families: dict[int, set[Packet]] = {m: set() for m in range(m_range)}
    for m in members:
        for proj in kernels.project_member(table, bits[m], trim_mask):
            probe = Assignment(box, proj)
            cond = probe.restrict_to_coord_mask(trim_mask)
            families[m].add(Packet.of(cond, forest))
    return PacketScheme.of(A, families)


@dataclass(frozen=True)
class TwoLayerCode:
    """A scheme coded as its support plus packet ranks in the box enumeration."""

    support: Window
    box_dims: tuple[int, int, int]
    packet_indices: tuple[tuple[int, tuple[int, ...]], ...]
    version: str = ENUMERATION_VERSION

    def __post_init__(self):
        size, rows, bits = self.box_dims
        n = size * rows * bits
        canonical = tuple(sorted((m, tuple(sorted(ks))) for m, ks in self.packet_indices))
        for _, ks in canonical:
            for k in ks:
                # k < 2**n <= 3**n needs no power, which is huge for a large box
                if k < 0 or (k.bit_length() > n and k >= 3**n):
                    raise DomainError(f"packet index {k} outside the enumeration")
        if canonical != self.packet_indices:
            object.__setattr__(self, "packet_indices", canonical)


def packet_rank(cond: Condition, box: CoordinateBox) -> int:
    """Position of a condition in the canonical packet enumeration of the box.

    Packets are ordered lexicographically by their serialized list of
    (coordinate index, value) pairs; a proper prefix precedes its
    extensions.
    """
    n = box.n_coords
    seq = sorted((box.index(c), v) for c, v in cond.entries)
    rank = 0
    base = 0
    for i, v in seq:
        rank += 1  # the prefix itself precedes everything that extends it
        for j in range(base, i):
            rank += 2 * 3 ** (n - 1 - j)
        rank += v * 3 ** (n - 1 - i)
        base = i + 1
    return rank


def packet_unrank(k: int, box: CoordinateBox) -> Condition:
    """Inverse of :func:`packet_rank`."""
    n = box.n_coords
    if not 0 <= k < 3**n:
        raise DomainError(f"packet index {k} outside the enumeration of size {3 ** n}")
    entries = []
    base = 0
    while k > 0:
        k -= 1
        placed = False
        for i in range(base, n):
            block = 3 ** (n - 1 - i)
            for v in (0, 1):
                if k < block:
                    entries.append((box.coord_at(i), v))
                    base = i + 1
                    placed = True
                    break
                k -= block
            if placed:
                break
        if not placed:
            raise CertificateError("rank arithmetic exhausted the coordinate space")
    return Condition(tuple(entries))


def two_layer_code(scheme: PacketScheme, box: CoordinateBox) -> TwoLayerCode:
    """Code a scheme by packet ranks; decoding restores equal semantics."""
    indices = []
    for m, packets in scheme.families:
        indices.append((m, tuple(sorted(packet_rank(p.condition, box) for p in packets))))
    return TwoLayerCode(scheme.support, box.dims(), tuple(indices))


def decode_two_layer(code: TwoLayerCode, box: CoordinateBox) -> PacketScheme:
    if code.version != ENUMERATION_VERSION:
        raise DomainError(f"unknown enumeration version {code.version!r}")
    if code.box_dims != box.dims():
        raise DomainError("code was built over a box of different dimensions")
    forest = box.forest
    families = {
        m: {Packet.of(packet_unrank(k, box), forest) for k in ks}
        for m, ks in code.packet_indices
    }
    return PacketScheme.of(code.support, families)


def format_scheme(scheme: PacketScheme) -> str:
    """Text form: support line, then one ``m <idx>: {...} {...}`` line per member."""
    lines = [f"support: {scheme.support.serialize()}"]
    for m, packets in scheme.families:
        blocks = []
        for pkt in sorted(packets, key=lambda p: p.condition.entries):
            cells = "; ".join(
                f"{c.node} {c.row} {c.bit} {v}" for c, v in pkt.condition.entries
            )
            blocks.append("{%s}" % cells)
        lines.append(f"m {m}:" + (" " + " ".join(blocks) if blocks else ""))
    return "\n".join(lines) + "\n"


def parse_scheme(text: str, forest: PredecessorForest) -> PacketScheme:
    """Inverse of :func:`format_scheme`; raises only :class:`ParseError` on bad input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("support:"):
        raise ParseError("scheme file must start with a support line", 1)
    support = _parse_support(lines[0], forest, 1)
    families: dict[int, set[Packet]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.startswith("m "):
            raise ParseError(f"expected 'm <idx>:' line, got {line!r}", lineno)
        head, _, rest = line.partition(":")
        try:
            m = int(head[2:])
        except ValueError:
            raise ParseError(f"bad member index in {head!r}", lineno) from None
        packets: set[Packet] = set()
        rest = rest.strip()
        while rest:
            if not rest.startswith("{"):
                raise ParseError(f"expected a packet block in {rest!r}", lineno)
            end = rest.find("}")
            if end < 0:
                raise ParseError("unterminated packet block", lineno)
            body = rest[1:end].strip()
            entries = []
            if body:
                for cell in body.split(";"):
                    parts = cell.split()
                    if len(parts) != 4:
                        raise ParseError(f"bad packet cell {cell!r}", lineno)
                    try:
                        node, row, bit, value = (int(x) for x in parts)
                    except ValueError:
                        raise ParseError(f"non-integer packet cell {cell!r}", lineno) from None
                    entries.append((Coordinate(node, row, bit), value))
            try:
                packets.add(Packet.of(Condition(tuple(entries)), forest))
            except DomainError as exc:
                raise ParseError(str(exc), lineno) from exc
            rest = rest[end + 1 :].strip()
        families[m] = packets
    try:
        return PacketScheme.of(support, families)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def _parse_support(line: str, forest: PredecessorForest, lineno: int) -> Window:
    nodes = parse_node_set(line[len("support:"):].replace(" ", ","))
    try:
        return Window(forest, frozenset(nodes))
    except DomainError as exc:
        raise ParseError(str(exc), lineno) from exc


def format_code(code: TwoLayerCode) -> str:
    n, r, b = code.box_dims
    lines = [
        f"box {n} {r} {b}",
        f"enumeration {code.version}",
        f"support: {code.support.serialize()}",
    ]
    for m, ks in code.packet_indices:
        lines.append(f"m {m}:" + (" " + ",".join(str(k) for k in ks) if ks else ""))
    return "\n".join(lines) + "\n"


def parse_code(text: str, forest: PredecessorForest) -> TwoLayerCode:
    """Inverse of :func:`format_code`; raises only :class:`ParseError` on bad input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ParseError("code file needs box, enumeration, and support lines", 1)
    head = lines[0].split()
    if len(head) != 4 or head[0] != "box":
        raise ParseError(f"expected 'box N R B', got {lines[0]!r}", 1)
    try:
        dims = (int(head[1]), int(head[2]), int(head[3]))
    except ValueError:
        raise ParseError(f"non-integer box dimensions in {lines[0]!r}", 1) from None
    if min(dims) < 1:
        raise ParseError(f"box dimensions must be positive, got {lines[0]!r}", 1)
    enum_line = lines[1].split(None, 1)
    if len(enum_line) != 2 or enum_line[0] != "enumeration":
        raise ParseError(f"expected enumeration line, got {lines[1]!r}", 2)
    version = enum_line[1]
    if not lines[2].startswith("support:"):
        raise ParseError(f"expected support line, got {lines[2]!r}", 3)
    support = _parse_support(lines[2], forest, 3)
    indices = []
    for lineno, line in enumerate(lines[3:], start=4):
        if not line.startswith("m "):
            raise ParseError(f"expected 'm <idx>:' line, got {line!r}", lineno)
        head, _, rest = line.partition(":")
        try:
            m = int(head[2:])
            ks = tuple(int(x) for x in rest.replace(",", " ").split())
        except ValueError:
            raise ParseError(f"bad index list in {line!r}", lineno) from None
        indices.append((m, ks))
    try:
        return TwoLayerCode(support, dims, tuple(indices), version)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
