"""Finite 2-group actions and translation-invariant quotients of F2 spaces.

A permutation is a tuple of images.  Composition goes through
:func:`operator.itemgetter`: ``p∘q`` is ``itemgetter(*q)(p)``, one C call.
:func:`close_group` closes the identity under right multiplication by the
generators, and orbits and fixed points read the action by columns: the
images of point ``x`` under the whole group are column ``x`` of the element
list.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import CertificateError, DomainError, PreconditionError, _Value

Permutation = tuple[int, ...]
MAX_DIMENSION = 20


def _compose(p: Permutation, q: Permutation) -> Permutation:
    # apply q first, then p; on one point itemgetter returns the bare image
    if len(q) == 1:
        return (p[q[0]],)
    return itemgetter(*q)(p)


def _perm_order(p: Permutation) -> int:
    n = len(p)
    ident = tuple(range(n))
    order = 1
    cur = p
    while cur != ident:
        cur = _compose(cur, p)
        order += 1
    return order


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and k & (k - 1) == 0


def _generate(generators: list[Permutation], ident: Permutation) -> set[Permutation]:
    """Closure of the identity under right multiplication by the generators.

    Breadth-first search: each frontier element p yields p∘g for every
    generator g, so the set reached holds every product of generators.  In
    a finite group each inverse is a positive power, so that set is the
    generated group and is closed under composition.
    """
    # ``right(p)`` is p∘g; on one point every permutation is the identity
    rights = [itemgetter(*g) for g in generators] if len(ident) > 1 else []
    elements = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for right in rights:
            for p in frontier:
                composed = right(p)
                if composed not in elements:
                    elements.add(composed)
                    fresh.append(composed)
        frontier = fresh
    return elements


@dataclass(frozen=True)
class FiniteAction(_Value):
    """A finite 2-group given by its full element list acting on 0..set_size-1."""

    set_size: int
    elements: tuple[Permutation, ...]

    def __post_init__(self):
        elements = tuple(map(self._ordered, self._unordered(self.elements)))
        if self.set_size < 1:
            raise DomainError("the acted-on set must be nonempty")
        ident = tuple(range(self.set_size))
        if ident not in elements:
            raise DomainError("element list is missing the identity")
        for p in elements:
            if len(p) != self.set_size or sorted(p) != list(ident):
                raise DomainError(f"not a permutation of the set: {p}")
        # a finite set of permutations closed under composition is a group: the one it generates
        elems = set(elements)
        if any(_compose(p, q) not in elems for p in elems for q in elems):
            raise DomainError("element list is not closed under composition")
        if not _is_power_of_two(len(elems)):
            raise CertificateError(f"group order {len(elems)} is not a power of 2")
        object.__setattr__(self, "elements", tuple(sorted(elems)))


def close_group(generators: list[Permutation]) -> FiniteAction:
    """Generate the group and certify it is a 2-group.

    A non-2-group is rejected with a :class:`CertificateError` naming a
    witness element of odd order greater than one.
    """
    generators = [tuple(g) for g in generators]
    if not generators:
        raise DomainError("need at least one generator")
    set_size = len(generators[0])
    if set_size < 1:
        raise DomainError("the acted-on set must be nonempty")
    points = list(range(set_size))
    for g in generators:
        if len(g) != set_size:
            raise DomainError("generators permute sets of different sizes")
        if sorted(g) != points:
            raise DomainError(f"not a permutation: {g}")
    elements = _generate(generators, tuple(points))
    if not _is_power_of_two(len(elements)):
        for p in sorted(elements):
            order = _perm_order(p)
            if order > 1 and order % 2 == 1:
                raise CertificateError(
                    f"group of order {len(elements)} is not a 2-group; "
                    f"witness element {p} has odd order {order}"
                )
        raise CertificateError(
            f"group of order {len(elements)} is not a 2-group"
        )  # pragma: no cover - Cauchy guarantees an odd-order witness
    # the closure under right multiplication is the generated group, holds the
    # identity and is made of checked permutations, so nothing is checked again
    return FiniteAction._checked(set_size=set_size, elements=tuple(sorted(elements)))


def orbit_partition(action: FiniteAction) -> list[tuple[int, ...]]:
    """Orbits of the action, each sorted, listed by least element."""
    # the element list is the whole group, so column x holds the orbit of x
    seen: set[int] = set()
    orbits = []
    for x, images in enumerate(zip(*action.elements)):
        if x not in seen:
            orbit = set(images)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def odd_fixed_point(action: FiniteAction) -> int:
    """The least point fixed by the whole group; exists whenever |S| is odd."""
    if action.set_size % 2 == 0:
        raise PreconditionError("fixed points are only promised for odd set sizes")
    for x, images in enumerate(zip(*action.elements)):
        if images.count(x) == len(images):
            return x
    raise CertificateError("odd set size admits no singleton orbit; 2-group invariant broken")


@dataclass(frozen=True)
class TranslationPartition(_Value):
    """A labelling of F2^d; vectors are ints with bit j the j-th coordinate."""

    dimension: int
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", self._ordered(self.labels))
        if not 0 <= self.dimension <= MAX_DIMENSION:
            raise DomainError(f"dimension must lie in 0..{MAX_DIMENSION}")
        if len(self.labels) != 1 << self.dimension:
            raise DomainError("labelling must cover every vector exactly once")
        hash(self.labels)  # quotient_analysis keys a dict by label; an unhashable one is malformed


@dataclass(frozen=True)
class QuotientAnalysis:
    invariant: bool
    subspace_basis: tuple[int, ...] | None
    class_count: int | None
    witness: tuple[int, int, int] | None  # (q, q2, v): equal labels split by v


def _reduce(v: int, basis: list[int]) -> int:
    for b in basis:
        if v ^ b < v:
            v ^= b
    return v


def quotient_analysis(partition: TranslationPartition) -> QuotientAnalysis:
    """Decide translation invariance and compute the coset structure.

    Invariance means equal labels stay equal under every common translation:
    each member of ``W = {v : label(v) = label(0)}`` is a period and distinct
    cosets of W carry distinct labels.  A period pass checks the members of W
    outside the span found so far, then a coset pass maps each label to the
    coset where it first appears; the class count is the index of W, a power
    of two.  A non-invariant labelling gets a witness (q, q2, v) with
    label(q) = label(q2) whose translates by v get different labels.
    """
    d = partition.dimension
    labels = partition.labels
    size = 1 << d
    basis: list[int] = []
    for v in range(1, size):
        if labels[v] != labels[0]:
            continue
        reduced = _reduce(v, basis)
        if not reduced:
            continue
        for x in range(size):
            if labels[x ^ v] != labels[x]:
                return QuotientAnalysis(False, None, None, (0, v, x))
        basis.append(reduced)
        basis.sort(reverse=True)
    # W is now the span of basis and labels are constant on its cosets
    first_rep: dict[int, int] = {}
    for q in range(size):
        rep = _reduce(q, basis)
        other = first_rep.setdefault(labels[q], rep)
        if other != rep:
            # translating by other sends it to 0, in W, and rep to other ^ rep, outside W
            return QuotientAnalysis(False, None, None, (other, rep, other))
    class_count = len(first_rep)
    if class_count << len(basis) != size:
        raise CertificateError(f"{class_count} labels, but W has {size >> len(basis)} cosets in F2^{d}")
    return QuotientAnalysis(True, tuple(sorted(basis)), class_count, None)
