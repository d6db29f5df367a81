"""F2 vectors, star-incidence matrices and the star-span basis of a window.

The star of a node inside a window is the node together with its immediate
successors that fall in the window.  Every star is read from the parent map
by one builder, :func:`_star_masks`, over whichever ordering the caller
needs: the window's ascending order for the basis, child-before-parent for
the matrix.  Listing the window child-before-parent (descending node id,
since the forest is regressive) makes the star-incidence matrix unit upper
triangular, so the star vectors form a basis.

Each window keeps the :class:`StarBasis` built on its first solve for as
long as it lives: :func:`solve_star_span` reads it per target, and
:func:`solve_all_targets` returns it, indexed by target, to read every
target's solution.  The target that is 1 at a single node is solved by that
node plus its descendants inside the window; the basis holds these unit
solutions in four-Russians tables (Arlazarov, Dinic, Kronrod and Faradzev,
1970), every XOR of each group of four, built by doubling, so a solve costs
one lookup per four bits.  The basis is certified once, when it is built,
and by linearity its certificate covers every target.  An empty window has
no basis: its build raises ``DomainError("window must be nonempty")``, so
both solvers and :func:`combine_stars` raise it, as :func:`star_matrix` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, DomainError, _Value
from .forest import NodeId, Window


@dataclass(frozen=True, init=False)
class F2Vector(_Value):
    """A 0/1 vector indexed by a window, packed as an int bitset.

    Bit ``j`` is the entry at ``window.ordered[j]``.
    """

    window: Window
    bits: int

    def __init__(self, window: Window, bits: int):
        # two per solved target: checked here, not in a wrapped __post_init__; fields go straight into __dict__
        try:
            if bits < 0 or bits >> len(window.nodes):
                raise DomainError("vector bits exceed the window length")
        except (TypeError, AttributeError) as exc:
            raise self._malformed(exc) from exc
        fields = self.__dict__
        fields["window"] = window
        fields["bits"] = bits

    @classmethod
    def from_nodes(cls, window: Window, nodes) -> "F2Vector":
        position = {xi: j for j, xi in enumerate(window.ordered)}
        bits = 0
        for xi in nodes:
            try:
                bits |= 1 << position[xi]
            except (KeyError, TypeError):  # TypeError: an unhashable node, which no window holds
                raise DomainError(f"node {xi} not in window") from None
        return cls(window, bits)


def matrix_order(K: Window) -> tuple[int, ...]:
    """The fixed child-before-parent ordering of a window: descending node id.

    The forest is regressive, so every child has a larger id than its parent.
    """
    return tuple(reversed(K.ordered))


def _star_masks(order: tuple[NodeId, ...], parents: tuple[int, ...]) -> dict[NodeId, int]:
    """Each node's star over the positions of ``order``, read from the parent map.

    ``order`` lists a closed window, which holds the root and the parent of
    every other node: each node's bit goes into its own star and its parent's.
    """
    masks = {xi: 1 << j for j, xi in enumerate(order)}
    for j, xi in enumerate(order):
        if xi:
            masks[parents[xi]] |= 1 << j
    return masks


@dataclass(frozen=True)
class F2Matrix(_Value):
    """A square 0/1 matrix whose rows and columns share one node ordering.

    ``cols[j]`` is the j-th column packed as a bitset over row positions.
    """

    order: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", self._ordered(self.order))
        object.__setattr__(self, "cols", self._ordered(self.cols))
        if len(self.cols) != len(self.order):
            raise DomainError("column count does not match the ordering")
        for xi in self.order:
            if not isinstance(xi, int):
                raise DomainError(f"node {xi!r} in the ordering must be an int")
        if len(set(self.order)) != len(self.order):
            raise DomainError("a node repeats in the ordering")
        for c in self.cols:
            if c < 0 or c >> len(self.order):
                raise DomainError("column bits exceed the ordering")


def star_matrix(K: Window) -> F2Matrix:
    """Star-incidence matrix of a window in the fixed child-before-parent order.

    Rows and columns share the :func:`matrix_order` ordering.  Each column
    holds the star vector of its node; the children of a node sit strictly
    before it, so the matrix is unit upper triangular.
    """
    if not K.nodes:
        raise DomainError("window must be nonempty")
    order = matrix_order(K)
    masks = _star_masks(order, K.forest.parents)
    return F2Matrix._checked(order=order, cols=tuple(masks[xi] for xi in order))


class StarBasis:
    """The star masks of a window with their certified inverse, as lookup tables.

    ``basis[t]``, for ``0 <= t < size``, is the solution for
    ``F2Vector(window, t)``, solved when it is read and boxed as a
    ``frozenset`` of nodes; any other index raises ``IndexError``.

    ``masks[xi]`` is the star of node ``xi`` over window positions.  Positions
    split into chunks of four: ``sums[c][i]`` is the solution mask (over
    positions) of the target whose bits in chunk ``c`` are ``i`` and whose
    other bits are 0, and ``nodes[c][i]`` is the tuple of nodes at the bits
    ``i`` of chunk ``c``.  By linearity a target's solution mask is the XOR of
    one ``sums`` entry per chunk.  Each chunk's tables are built by doubling:
    from ``[0]`` and ``[()]``, each unit and node of the chunk, in position
    order, appends every entry so far XORed with the unit or extended by the
    node, so a short last chunk of ``k`` positions gets ``2**k`` entries.

    The constructor solves the unit targets from ``masks`` alone, last
    position first: a star must hold its own bit and otherwise only later
    positions, its children, and the unit of position ``j`` is ``j`` plus the
    union of its children's units, which must be disjoint.  Then, by induction
    from the last position, the stars of unit ``j``'s nodes XOR to the target
    ``2**j``: the certificate covers every target at once.  A failed check
    raises :class:`CertificateError`, under ``python -O`` too.  O(n) big-int
    steps build the units; no unit is substituted back.
    """

    __slots__ = ("size", "masks", "sums", "nodes")

    def __init__(self, K: Window, masks: dict[int, int]):
        order = K.ordered
        n = len(order)
        units = [0] * n
        j = n
        for xi in reversed(order):
            j -= 1
            bit = 1 << j
            star = masks[xi]
            if star & ((bit << 1) - 1) != bit or star >> n:
                raise CertificateError(f"star of node {xi} is not its own bit plus later positions")
            unit = bit
            children = star ^ bit
            while children:
                low = children & -children
                child_unit = units[low.bit_length() - 1]
                if unit & child_unit:
                    raise CertificateError(f"children of node {xi} share a descendant")
                unit |= child_unit
                children ^= low
            units[j] = unit
        sums = []
        nodes = []
        for c in range(0, n, 4):
            span, subsets = [0], [()]
            for unit, xi in zip(units[c : c + 4], order[c : c + 4]):
                span += [s ^ unit for s in span]
                subsets += [sub + (xi,) for sub in subsets]
            sums.append(tuple(span))
            nodes.append(tuple(subsets))
        self.size = 1 << n
        self.masks = masks
        self.sums = tuple(sums)
        self.nodes = tuple(nodes)

    def solution(self, bits: int) -> list[NodeId]:
        """Nodes whose stars XOR to the target ``bits``: one lookup per chunk, then one per chunk again."""
        mask = 0
        for table in self.sums:
            mask ^= table[bits & 15]
            bits >>= 4
        out = []
        for table in self.nodes:
            out += table[mask & 15]
            mask >>= 4
        return out

    def __getitem__(self, t: int) -> frozenset:
        if not 0 <= t < self.size:
            raise IndexError("target index out of range")
        return frozenset(self.solution(t))

    # not iterable: Python's fallback over __getitem__ would make list(basis) solve
    # every target and `x in basis` solve them one by one until one matched
    __iter__ = None


def _star_basis(K: Window) -> StarBasis:
    """The window's certified basis, built on its first solve and kept by the window.

    It is held as long as the window lives: about 6 KB up to 22 nodes, with
    tables growing as n**2 / 2 bytes, so 3 MB for a 2,000-node window.
    """
    if K._basis is None:
        if not K.nodes:
            raise DomainError("window must be nonempty")
        object.__setattr__(K, "_basis", StarBasis(K, _star_masks(K.ordered, K.forest.parents)))
    return K._basis


def solve_star_span(K: Window, target: F2Vector) -> set[NodeId]:
    """The unique node set whose star vectors XOR to ``target``.

    Reads the window's certified :class:`StarBasis`: one table lookup per
    four bits of the target, then one per four bits of its solution.
    """
    if target.window is not K and target.window != K:
        raise DomainError("target indexed by a different window")
    return set(_star_basis(K).solution(target.bits))


def combine_stars(K: Window, nodes) -> F2Vector:
    """XOR of the star vectors of ``nodes``; inverse direction of the solver."""
    masks = _star_basis(K).masks
    bits = 0
    for xi in nodes:
        try:
            bits ^= masks[xi]
        except KeyError:
            raise DomainError(f"node {xi} not in window") from None
    return F2Vector(K, bits)


def solve_all_targets(K: Window) -> StarBasis:
    """Coefficient sets for every target over the window: its :class:`StarBasis`.

    Index ``t``, for ``0 <= t < 2**len(K)``, holds the solution for
    ``F2Vector(K, t)``.  The basis is the one :func:`solve_star_span` reads,
    so no entry is stored or solved before it is read.
    """
    return _star_basis(K)
