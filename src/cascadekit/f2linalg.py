"""F2 vectors and star-incidence matrices over window nodes.

The star of a node inside a window is the node together with its immediate
successors that fall in the window.  Listing the window child-before-parent
(descending node id, since the forest is regressive) makes the star-incidence
matrix unit upper triangular, so the star vectors form a basis.  In the
window's own ascending order the same matrix is unit lower triangular, and
every target pattern is solvable by forward substitution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from . import _kernels as kernels
from .errors import CertificateError, DomainError
from .forest import NodeId, Window


@dataclass(frozen=True)
class F2Vector:
    """A 0/1 vector indexed by a window, packed as an int bitset.

    Bit ``j`` is the entry at ``window.ordered[j]``.  Arithmetic across
    different windows is rejected rather than silently misaligned.
    """

    window: Window
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> len(self.window):
            raise DomainError("vector bits exceed the window length")

    @classmethod
    def from_nodes(cls, window: Window, nodes) -> "F2Vector":
        bits = 0
        for xi in nodes:
            bits |= 1 << _position(window, xi)
        return cls(window, bits)

    def entry(self, xi: NodeId) -> int:
        return (self.bits >> _position(self.window, xi)) & 1

    def support(self) -> set[NodeId]:
        return {xi for j, xi in enumerate(self.window.ordered) if (self.bits >> j) & 1}

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        if self.window != other.window:
            raise DomainError("vectors indexed by different windows")
        return F2Vector(self.window, self.bits ^ other.bits)


def _position(window: Window, xi: NodeId) -> int:
    try:
        return window.ordered.index(xi)
    except ValueError:
        raise DomainError(f"node {xi} not in window") from None


def matrix_order(K: Window) -> tuple[int, ...]:
    """The fixed child-before-parent ordering of a window: descending node id.

    The forest is regressive, so every child has a larger id than its parent.
    """
    return tuple(reversed(K.ordered))


def star_vector(K: Window, xi: NodeId) -> F2Vector:
    """Characteristic vector of ``{xi}`` plus xi's successors inside ``K``."""
    if xi not in K:
        raise DomainError(f"node {xi} not in window")
    members = {xi}
    members.update(eta for eta in K.forest._children[xi] if eta in K.nodes)
    return F2Vector.from_nodes(K, members)


@dataclass(frozen=True)
class F2Matrix:
    """A 0/1 matrix with node-labelled rows and columns.

    ``cols[j]`` is the j-th column packed as a bitset over row positions.
    """

    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.cols) != len(self.col_order):
            raise DomainError("column count does not match the column ordering")
        for c in self.cols:
            if c < 0 or c >> len(self.row_order):
                raise DomainError("column bits exceed the row ordering")

    def entry(self, i: int, j: int) -> int:
        return (self.cols[j] >> i) & 1

    def shape(self) -> tuple[int, int]:
        return len(self.row_order), len(self.col_order)

    def is_upper_triangular_unit(self) -> bool:
        n = len(self.row_order)
        if len(self.col_order) != n:
            return False
        for j, col in enumerate(self.cols):
            if not (col >> j) & 1:
                return False
            if col >> (j + 1):
                return False
        return True


def star_matrix(K: Window) -> F2Matrix:
    """Star-incidence matrix of a window in the fixed child-before-parent order.

    Rows and columns share the :func:`matrix_order` ordering.  Each column
    holds the star vector of its node; the children of a node sit strictly
    before it, so the matrix is unit upper triangular.
    """
    if not K.nodes:
        raise DomainError("window must be nonempty")
    order = matrix_order(K)
    pos = {xi: i for i, xi in enumerate(order)}
    cols = []
    for xi in order:
        col = 1 << pos[xi]
        for eta in K.forest._children[xi]:
            if eta in K.nodes:
                col |= 1 << pos[eta]
        cols.append(col)
    return F2Matrix(order, order, tuple(cols))


@lru_cache(maxsize=256)
def _star_masks(K: Window) -> dict[int, int]:
    """Star vector bits per window node, cached: callers solve many targets per window."""
    pos = {xi: j for j, xi in enumerate(K.ordered)}
    children = K.forest._children
    masks = {}
    for xi, j in pos.items():
        mask = 1 << j
        for eta in children[xi]:
            if eta in pos:
                mask |= 1 << pos[eta]
        masks[xi] = mask
    return masks


def solve_star_span(K: Window, target: F2Vector) -> set[NodeId]:
    """The unique node set whose star vectors XOR to ``target``.

    Forward substitution in window order: a star holds its own node and
    later-listed children, so the lowest residual bit names the next node.
    """
    if target.window != K:
        raise DomainError("target indexed by a different window")
    if not K.nodes:
        raise DomainError("window must be nonempty")
    masks = _star_masks(K)
    order = K.ordered
    residual = target.bits
    chosen: set[int] = set()
    while residual:
        low = residual & -residual
        xi = order[low.bit_length() - 1]
        residual ^= masks[xi]
        # a mask that leaves bits at or below its pivot would stall or cycle
        if residual & ((low << 1) - 1):
            raise CertificateError("star mask did not clear its own bit; matrix not invertible")
        chosen.add(xi)
    return chosen


def combine_stars(K: Window, nodes) -> F2Vector:
    """XOR of the star vectors of ``nodes``; inverse direction of the solver."""
    masks = _star_masks(K)
    bits = 0
    for xi in nodes:
        try:
            bits ^= masks[xi]
        except KeyError:
            raise DomainError(f"node {xi} not in window") from None
    return F2Vector(K, bits)


@dataclass(frozen=True)
class TargetSolutions(Sequence):
    """Coefficient sets for every target over a window, each derived when read.

    ``units[j]`` is the solution for the window's unit target ``2**j`` as a
    mask over matrix positions, and ``order`` names the node at each
    position.  Solutions are linear in the target, so entry ``t`` XORs the
    units at the set bits of ``t`` and boxes the result as a ``frozenset``
    of nodes; negative indices and ``IndexError`` work as on a list.
    """

    units: tuple[int, ...]
    order: tuple[int, ...]

    def __len__(self) -> int:
        return 1 << len(self.units)

    def __getitem__(self, t: int) -> frozenset:
        mask = kernels.xor_combination(self.units, t)
        order = self.order
        nodes = []
        while mask:
            low = mask & -mask
            nodes.append(order[low.bit_length() - 1])
            mask ^= low
        return frozenset(nodes)


def solve_all_targets(K: Window) -> TargetSolutions:
    """Coefficient sets for every target over the window, solved in one batch.

    Index ``t`` holds the solution for ``F2Vector(K, t)``.  The batch kernel
    back-substitutes the star matrix's unit targets once; each entry is
    derived from them by linearity, and its node set built, only when it is
    read.  Agreement with the per-target :func:`solve_star_span` is part of
    the verification suite.
    """
    matrix = star_matrix(K)
    n = len(matrix.cols)
    batch = kernels.solve_unit_triangular_all(matrix.cols, n)
    # window unit j sits at matrix position n-1-j
    units = tuple(batch[1 << (n - 1 - j)] for j in range(n))
    return TargetSolutions(units, matrix.col_order)
