"""Finite conditions, toggle sets, and cascade automorphisms.

A condition is a finite partial 0/1 assignment on (node, row, bit)
coordinates.  A cascade generator toggles one row along a set of bit
indices and repeats the same toggle on the matching row of every immediate
successor of its node.  Products of generators form an abelian group of
exponent two, so an automorphism is stored in normal form: the accumulated
toggle set per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import CertificateError, DomainError, PreconditionError, _Value
from .f2linalg import F2Vector, solve_star_span
from .forest import NodeId, PredecessorForest, Window, rho_closure


class Coordinate(NamedTuple):
    node: NodeId
    row: int
    bit: int


@dataclass(frozen=True)
class ToggleSet(_Value):
    """A finite or cofinite set of bit indices.

    ``exceptions`` holds the set itself when finite and the complement when
    cofinite.  Symmetric difference works uniformly: exceptions combine by
    symmetric difference and the cofinite flags add mod 2.
    """

    cofinite: bool
    exceptions: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "exceptions", frozenset(self._unordered(self.exceptions)))
        if not isinstance(self.cofinite, bool):
            raise DomainError(f"cofinite flag {self.cofinite!r} must be a bool")
        for n in self.exceptions:
            if not isinstance(n, int) or n < 0:
                raise DomainError(f"bit index {n!r} must be a natural int")

    @classmethod
    def finite(cls, bits: Iterable[int]) -> "ToggleSet":
        return cls(False, bits)

    @classmethod
    def cofinite_excluding(cls, bits: Iterable[int]) -> "ToggleSet":
        return cls(True, bits)

    def __contains__(self, n: int) -> bool:
        return self.cofinite != (n in self.exceptions)

    def __xor__(self, other: "ToggleSet") -> "ToggleSet":
        return ToggleSet._checked(
            cofinite=self.cofinite != other.cofinite, exceptions=self.exceptions ^ other.exceptions
        )

    def is_empty(self) -> bool:
        return not self.cofinite and not self.exceptions

    def disjoint_from(self, bits: Iterable[int]) -> bool:
        if self.cofinite:
            return self.exceptions.issuperset(bits)
        return self.exceptions.isdisjoint(bits)

    def mask_below(self, B: int) -> int:
        """Members among ``0..B-1`` as a bitmask; how the set acts on a truncated box."""
        mask = sum(1 << n for n in self.exceptions if n < B)
        return mask ^ ((1 << B) - 1) if self.cofinite else mask

    def serialize(self) -> str:
        inner = ",".join(str(n) for n in sorted(self.exceptions))
        return ("cofin{%s}" if self.cofinite else "fin{%s}") % inner


_EMPTY_TOGGLE = ToggleSet(False, frozenset())
_NO_BITS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Condition(_Value):
    """A finite partial 0/1 function on coordinates, stored canonically sorted."""

    entries: tuple[tuple[Coordinate, int], ...]

    def __post_init__(self):
        entries = tuple(map(self._ordered, self._unordered(self.entries)))
        seen = set()
        for coord, value in entries:
            # bool passes as an int; 1.0 equals 1 but cannot shift into a mask
            if value not in (0, 1) or not isinstance(value, int):
                raise DomainError(f"value at {coord} must be the int 0 or 1")
            if not isinstance(coord, Coordinate):
                raise DomainError(f"coordinate {coord!r} must be a Coordinate")
            node, row, bit = coord
            if not (isinstance(node, int) and isinstance(row, int) and isinstance(bit, int)):
                raise DomainError(f"coordinate {coord} must hold ints")
            if node < 0 or row < 0 or bit < 0:
                raise DomainError(f"negative coordinate {coord}")
            if coord in seen:
                raise DomainError(f"duplicate coordinate {coord}")
            seen.add(coord)
        object.__setattr__(self, "entries", tuple(sorted(entries)))

    @classmethod
    def from_map(cls, mapping: Mapping[tuple[int, int, int], int]) -> "Condition":
        return cls((Coordinate(*c), v) for c, v in mapping.items())

    @classmethod
    def empty(cls) -> "Condition":
        return cls(())

    def as_dict(self) -> dict[Coordinate, int]:
        return dict(self.entries)

    def domain(self) -> frozenset[Coordinate]:
        return frozenset(c for c, _ in self.entries)

    @cached_property
    def _row_bits(self) -> dict[tuple[int, int], frozenset[int]]:
        """The bits mentioned on each (node, row), built on first use and kept.

        Not a field, so equality, hashing, repr and pickling ignore it.
        """
        rows: dict[tuple[int, int], list[int]] = {}
        for (node, row, bit), _ in self.entries:
            rows.setdefault((node, row), []).append(bit)
        return {key: frozenset(bits) for key, bits in rows.items()}


@dataclass(frozen=True)
class Packet(_Value):
    """One condition of a packet scheme's family.

    A packet carries no certificate of its own: the scheme that holds it
    checks its nodes against the scheme's closed support
    (``names.PacketScheme``), and that support already contains the
    closure of every packet's nodes.
    """

    condition: Condition

    def __post_init__(self):
        if not isinstance(self.condition, Condition):
            raise DomainError(f"packet condition {self.condition!r} must be a Condition")


@dataclass(frozen=True)
class CascadeAutomorphism(_Value):
    """Normal form of a product of cascade generators.

    ``row_toggles`` maps (node, row) to the accumulated toggle set, with
    empty toggles omitted.  Because the group is abelian of exponent two
    this form is canonical, so equality is plain comparison.
    """

    forest: PredecessorForest
    row_toggles: tuple[tuple[tuple[int, int], ToggleSet], ...]
    _lookup: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        lookup = {}
        size = self.forest.size
        for pair in self._unordered(self.row_toggles):
            key, ts = self._ordered(pair)
            node, row = key = self._ordered(key)
            if not (isinstance(node, int) and 0 <= node < size):
                self.forest.check_node(node)
            if not isinstance(row, int):  # bool passes, as for nodes
                raise DomainError(f"row {row!r} must be an int")
            if row < 0:
                raise DomainError("negative row index")
            if ts.is_empty():
                raise DomainError("empty toggle entries must be omitted")
            if key in lookup:
                raise DomainError("duplicate row in toggle map")
            lookup[key] = ts
        object.__setattr__(self, "row_toggles", tuple(sorted(lookup.items())))
        object.__setattr__(self, "_lookup", lookup)

    def toggle_at(self, node: int, row: int) -> ToggleSet:
        return self._lookup.get((node, row), _EMPTY_TOGGLE)

    def is_identity(self) -> bool:
        return not self.row_toggles


def identity(forest: PredecessorForest) -> CascadeAutomorphism:
    return CascadeAutomorphism(forest, ())


def generator(
    forest: PredecessorForest, xi: NodeId, row: int, s: ToggleSet
) -> CascadeAutomorphism:
    """The basic automorphism toggling row (xi, row) and its successor rows along s."""
    forest.check_node(xi)
    if s.is_empty():
        raise DomainError("a generator needs a nonempty toggle set")
    toggles = [((xi, row), s)]
    toggles.extend(((eta, row), s) for eta in forest._children[xi])
    return CascadeAutomorphism(forest, toggles)


def compose(
    tau1: CascadeAutomorphism, tau2: CascadeAutomorphism
) -> CascadeAutomorphism:
    """Pointwise XOR of the two toggle maps; commutative, and self-inverse."""
    return compose_all(tau1.forest, (tau1, tau2))


def compose_all(
    forest: PredecessorForest, taus: Iterable[CascadeAutomorphism]
) -> CascadeAutomorphism:
    """The product of a word: every factor's toggle map XORed into one, built once."""
    merged: dict[tuple[int, int], ToggleSet] = {}
    for tau in taus:
        if tau.forest != forest:
            raise DomainError("automorphisms act on different forests")
        for key, ts in tau.row_toggles:
            held = merged.get(key)
            merged[key] = ts if held is None else held ^ ts
    # every factor's keys are checked on this forest, so the product is stored as its constructor would
    lookup = {key: ts for key, ts in merged.items() if not ts.is_empty()}
    return CascadeAutomorphism._checked(forest=forest, row_toggles=tuple(sorted(lookup.items())), _lookup=lookup)


def apply(tau: CascadeAutomorphism, q: Condition) -> Condition:
    """Act on a condition: flip each entry whose bit lies in its row's toggle set.

    The test runs over the rows ``tau`` toggles, against the row index of
    ``q`` (its bits per (node, row), built in one pass over the entries on
    the condition's first ``apply`` or ``shield_set`` and kept): one dict
    lookup and one set test per toggled row.  Returns ``q`` itself when no
    toggle set meets its row's bits; otherwise the entries are rebuilt.
    """
    rows = q._row_bits
    for key, ts in tau.row_toggles:
        bits = rows.get(key)
        if bits is not None and not ts.disjoint_from(bits):
            break
    else:
        return q
    lookup = tau._lookup
    out = []
    for coord, value in q.entries:
        ts = lookup.get((coord.node, coord.row))
        if ts is not None and coord.bit in ts:
            value ^= 1
        out.append((coord, value))
    return Condition._checked(entries=tuple(out))


def shield_set(
    q: Condition, beta: NodeId, row: int, forest: PredecessorForest
) -> frozenset[int]:
    """Bits at which ``q`` constrains row (beta, row) or a successor's matching row.

    Any toggle set disjoint from this finite set leaves ``q`` fixed.  It is
    the union of at most 1 + |children of beta| sets read from the row
    index of ``q`` (built once per condition, as for :func:`apply`).
    """
    forest.check_node(beta)
    rows = q._row_bits
    found = rows.get((beta, row), _NO_BITS)
    for eta in forest._children[beta]:
        bits = rows.get((eta, row))
        if bits:
            found |= bits
    return found


def fixes_rows_over(tau: CascadeAutomorphism, A: Window) -> bool:
    """True when the automorphism leaves every row over the window untouched."""
    if tau.forest != A.forest:
        raise DomainError("automorphism and window use different forests")
    return all(node not in A.nodes for (node, _), _ in tau.row_toggles)


def pad_common_domain(p: Condition, q: Condition) -> tuple[Condition, Condition]:
    """Extend both conditions by zeros so they share the union of their domains."""
    union = sorted(p.domain() | q.domain())
    p_map = p.as_dict()
    q_map = q.as_dict()
    p_out = tuple((c, p_map.get(c, 0)) for c in union)
    q_out = tuple((c, q_map.get(c, 0)) for c in union)
    return Condition._checked(entries=p_out), Condition._checked(entries=q_out)


def transport(p: Condition, q: Condition, A: Window) -> CascadeAutomorphism:
    """An automorphism fixing all rows over ``A`` that carries p to q after padding.

    Requires p and q to agree on every coordinate over ``A`` once padded.
    The difference pattern is solved slice by slice (one row-bit pair at a
    time) inside the closure of the non-A mentioned nodes; the closure may
    reach into ``A``, but the solved coefficients over ``A`` provably vanish
    because the difference does.  That vanishing, the fixed rows and the
    result are all checked; a failed check raises :class:`CertificateError`.
    """
    forest = A.forest
    p_pad, q_pad = pad_common_domain(p, q)
    # padding gives both one domain, so their sorted entries align
    diff = [c for (c, pv), (_, qv) in zip(p_pad.entries, q_pad.entries) if pv != qv]
    for c in diff:
        if c.node in A.nodes:
            raise PreconditionError(f"conditions disagree over the window at {c}")
    if not diff:
        return identity(forest)
    mentioned_off_A = {c.node for c in p_pad.domain()} - A.nodes
    K = rho_closure(forest, mentioned_off_A)
    slices: dict[tuple[int, int], set[int]] = {}
    for c in diff:
        slices.setdefault((c.row, c.bit), set()).add(c.node)
    generators = []
    for (row, bit), nodes in sorted(slices.items()):
        target = F2Vector.from_nodes(K, nodes)
        coeffs = solve_star_span(K, target)
        if coeffs & A.nodes:
            raise CertificateError("solved coefficients reached the fixed window")
        generators.extend(generator(forest, xi, row, ToggleSet.finite({bit})) for xi in coeffs)
    pi = compose_all(forest, generators)
    if not fixes_rows_over(pi, A):
        raise CertificateError("transport toggles a row over the fixed window")
    if apply(pi, p_pad) != q_pad:
        raise CertificateError("transport does not carry p to q")
    return pi
