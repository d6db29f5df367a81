"""Predecessor forests, closed node windows, and fresh-node separation.

A forest is a total regressive map ``pred`` on the nodes ``1..N-1`` of a
finite universe ``0..N-1``; node 0 is the unique root.  A set of nodes is
*closed* when it contains the predecessor of each of its nonzero members,
and a finite closed set is called a window.  Windows are where all the
later linear algebra happens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import CapacityError, DomainError, _Value

NodeId = int


@dataclass(frozen=True)
class PredecessorForest(_Value):
    """A total regressive predecessor map on the universe ``0..size-1``.

    ``parents[xi]`` is the predecessor of node ``xi`` for ``xi >= 1`` and a
    ``-1`` sentinel at index 0, where the map is undefined.
    """

    size: int
    parents: tuple[int, ...]
    _children: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        object.__setattr__(self, "parents", self._ordered(self.parents))
        if self.size < 1:
            raise DomainError("universe must contain at least the root node")
        if len(self.parents) != self.size:
            raise DomainError("parents tuple must cover the whole universe")
        if self.parents[0] != -1:
            raise DomainError("node 0 is the root; its predecessor entry must be -1")
        kids: list[list[int]] = [[] for _ in range(self.size)]
        for xi in range(1, self.size):
            p = self.parents[xi]
            if not (isinstance(p, int) and 0 <= p < xi):
                raise DomainError(f"pred({xi})={p} is not regressive")
            kids[p].append(xi)
        object.__setattr__(self, "_children", tuple(tuple(k) for k in kids))

    @classmethod
    def from_pred(cls, size: int, pred: dict[int, int]) -> "PredecessorForest":
        """Build from a ``{node: predecessor}`` map over ``1..size-1``."""
        if size < 1:  # checked first: a huge negative size overflows the list below
            raise DomainError("universe must contain at least the root node")
        parents = [-1] * size
        for xi, p in pred.items():
            if not 1 <= xi < size:
                raise DomainError(f"node {xi} outside universe of size {size}")
            parents[xi] = p
        for xi in range(1, size):
            if parents[xi] == -1:
                raise DomainError(f"pred undefined at node {xi}")
        return cls(size, tuple(parents))

    def check_node(self, xi: NodeId) -> None:
        if not isinstance(xi, int):  # bool passes; 1.0 would index no parent or child list
            raise DomainError(f"node {xi!r} must be an int")
        if not 0 <= xi < self.size:
            raise DomainError(f"node {xi} outside universe of size {self.size}")


def successors(forest: PredecessorForest, xi: NodeId) -> set[NodeId]:
    """The fiber of nodes whose predecessor is ``xi``; all lie strictly above it."""
    forest.check_node(xi)
    return set(forest._children[xi])


def rho_closure(forest: PredecessorForest, nodes) -> "Window":
    """Smallest superset of ``nodes`` closed under the predecessor map."""
    closed: set[int] = set()
    for xi in nodes:
        forest.check_node(xi)
        while xi not in closed:
            closed.add(xi)
            if xi == 0:
                break
            xi = forest.parents[xi]
    return Window(forest, frozenset(closed))


def is_rho_closed(forest: PredecessorForest, nodes) -> bool:
    """True when ``nodes`` already contains every predecessor of its members."""
    node_set = set(nodes)
    for xi in node_set:
        forest.check_node(xi)
        if xi >= 1 and forest.parents[xi] not in node_set:
            return False
    return True


@dataclass(frozen=True)
class Window(_Value):
    """A finite set of nodes closed under the predecessor map."""

    forest: PredecessorForest
    nodes: frozenset[int]
    ordered: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    # the window's certified star basis, set by f2linalg on its first solve
    _basis: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self._unordered(self.nodes)))
        if not isinstance(self.forest, PredecessorForest):
            raise DomainError(f"window forest {self.forest!r} must be a PredecessorForest")
        if not is_rho_closed(self.forest, self.nodes):
            raise DomainError("window is not closed under the predecessor map")
        object.__setattr__(self, "ordered", tuple(sorted(self.nodes)))

    @classmethod
    def whole(cls, forest: PredecessorForest) -> "Window":
        """The full universe as a window; initial segments are always closed."""
        return cls(forest, frozenset(range(forest.size)))

    def __contains__(self, xi: int) -> bool:
        return xi in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def serialize(self) -> str:
        return " ".join(str(xi) for xi in self.ordered)


def fresh_separation(
    forest: PredecessorForest, A: Window, pool=None
) -> tuple[NodeId, NodeId]:
    """Two fresh nodes ``(beta, gamma)`` separated from the window ``A``.

    Picks the two least candidates gamma < beta outside ``A`` and outside the
    predecessor image of ``A``, which forces all four separation clauses:
    both fresh, distinct, gamma below every successor of beta, and no
    successor of beta inside ``A``.  ``pool`` restricts the candidate nodes
    (default: the whole universe).

    Raises :class:`CapacityError` when fewer than two candidates remain; the
    universe is too small, nothing more.
    """
    if A.forest != forest:
        raise DomainError("window belongs to a different forest")
    blocked = set(A.nodes)
    for eta in A.nodes:
        if eta >= 1:
            blocked.add(forest.parents[eta])
    if pool is None:
        candidates = range(forest.size)
    else:
        pool = set(pool)
        for xi in pool:  # before sorting, which would raise TypeError on a str
            forest.check_node(xi)
        candidates = sorted(pool)
    found: list[int] = []
    for xi in candidates:
        if xi not in blocked:
            found.append(xi)
            if len(found) == 2:
                return found[1], found[0]
    raise CapacityError(
        "universe holds no two fresh nodes outside the window and its predecessor image"
    )


def random_forest(n: int, seed: int) -> PredecessorForest:
    """Uniformly random regressive predecessor map on ``0..n-1``, fixed by seed."""
    rng = random.Random(seed)
    parents = [-1] + [rng.randrange(xi) for xi in range(1, n)]
    return PredecessorForest(n, tuple(parents))
