"""Finite 2-group actions and translation-invariant quotients of F2 spaces."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, DomainError, ParseError, PreconditionError

Permutation = tuple[int, ...]
MAX_DIMENSION = 20


def _compose(p: Permutation, q: Permutation) -> Permutation:
    # apply q first, then p
    return tuple(map(p.__getitem__, q))


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


def _generate(
    generators: list[Permutation], ident: Permutation, inside: set[Permutation] | None = None
) -> set[Permutation] | None:
    """Closure of the generators under composition, by breadth-first search.

    Returns ``None`` as soon as the closure reaches an element outside
    ``inside`` (when given).
    """
    elements = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for g in generators:
            for p in frontier:
                composed = _compose(g, p)
                if composed not in elements:
                    if inside is not None and composed not in inside:
                        return None
                    elements.add(composed)
                    fresh.append(composed)
        frontier = fresh
    return elements


@dataclass(frozen=True)
class FiniteAction:
    """A finite 2-group given by its full element list acting on 0..set_size-1."""

    set_size: int
    elements: tuple[Permutation, ...]

    def __post_init__(self):
        if self.set_size < 1:
            raise DomainError("the acted-on set must be nonempty")
        ident = tuple(range(self.set_size))
        if ident not in self.elements:
            raise DomainError("element list is missing the identity")
        for p in self.elements:
            if len(p) != self.set_size or sorted(p) != list(ident):
                raise DomainError(f"not a permutation of the set: {p}")
        # A set holding the identity is a group exactly when it is the closure
        # of some subset of itself: grow a generating set greedily and require
        # every closure to stay inside the set.
        elems = set(self.elements)
        gens: list[Permutation] = []
        reached = {ident}
        for p in sorted(elems):
            if p not in reached:
                gens.append(p)
                reached = _generate(gens, ident, elems)
                if reached is None:
                    raise DomainError("element list is not closed under composition")
        if not _is_power_of_two(len(elems)):
            raise CertificateError(f"group order {len(elems)} is not a power of 2")
        canonical = tuple(sorted(elems))
        if canonical != self.elements:
            object.__setattr__(self, "elements", canonical)


def close_group(generators: list[Permutation], set_size: int | None = None) -> FiniteAction:
    """Generate the group and certify it is a 2-group.

    A non-2-group is rejected with a :class:`CertificateError` naming a
    witness element of odd order greater than one.
    """
    generators = [tuple(g) for g in generators]
    if set_size is None:
        if not generators:
            raise DomainError("need a set size when no generators are given")
        set_size = len(generators[0])
    for g in generators:
        if len(g) != set_size:
            raise DomainError("generators permute sets of different sizes")
        if sorted(g) != list(range(set_size)):
            raise DomainError(f"not a permutation: {g}")
    elements = _generate(generators, tuple(range(set_size)))
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
    return FiniteAction(set_size, tuple(sorted(elements)))


def orbit_partition(action: FiniteAction) -> list[tuple[int, ...]]:
    """Orbits of the action, each sorted, listed by least element."""
    # the element list is the whole group, so one pass over it finds each orbit
    seen: set[int] = set()
    orbits = []
    for x in range(action.set_size):
        if x not in seen:
            orbit = {p[x] for p in action.elements}
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def odd_fixed_point(action: FiniteAction) -> int:
    """The least point fixed by the whole group; exists whenever |S| is odd."""
    if action.set_size % 2 == 0:
        raise PreconditionError("fixed points are only promised for odd set sizes")
    for orbit in orbit_partition(action):
        if len(orbit) == 1:
            return orbit[0]
    raise AssertionError("odd set size admits no singleton orbit; 2-group invariant broken")


@dataclass(frozen=True)
class TranslationPartition:
    """A labelling of F2^d; vectors are ints with bit j the j-th coordinate."""

    dimension: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.dimension <= MAX_DIMENSION:
            raise DomainError(f"dimension must lie in 0..{MAX_DIMENSION}")
        if len(self.labels) != 1 << self.dimension:
            raise DomainError("labelling must cover every vector exactly once")


@dataclass(frozen=True)
class QuotientAnalysis:
    invariant: bool
    subspace_basis: tuple[int, ...] | None
    class_count: int | None
    witness: tuple[int, int, int] | None  # (q, q2, v): equal labels split by v


def _echelon_basis(vectors) -> list[int]:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def _reduce(v: int, basis: list[int]) -> int:
    for b in basis:
        v = min(v, v ^ b)
    return v


def quotient_analysis(partition: TranslationPartition) -> QuotientAnalysis:
    """Decide translation invariance and compute the coset structure.

    Invariance means equal labels stay equal under every common translation.
    For an invariant labelling the classes are exactly the cosets of
    ``W = {v : label(v) = label(0)}`` and the class count is the index of
    W, a power of two.  A non-invariant labelling is reported with a
    witness triple (q, q2, v): label(q) = label(q2) but the translates by
    v get different labels.
    """
    d = partition.dimension
    labels = partition.labels
    size = 1 << d
    W = [v for v in range(size) if labels[v] == labels[0]]
    basis = _echelon_basis(W)
    span_size = 1 << len(basis)
    if span_size != len(W):
        # W is not closed under addition: some pair of its members splits
        w_set = set(W)
        for v in W:
            for w in W:
                if v ^ w not in w_set:
                    return QuotientAnalysis(False, None, None, (0, v, w))
        raise AssertionError("span size mismatch without an addition witness")
    reps: dict[int, int] = {}
    for q in range(size):
        rep = _reduce(q, basis)
        if rep not in reps:
            reps[rep] = labels[q]
        elif reps[rep] != labels[q]:
            # q and its reduction share a coset of W but not a label
            walk = q
            for b in basis:
                step = min(walk, walk ^ b)
                if step != walk and labels[step] != labels[walk]:
                    return QuotientAnalysis(False, None, None, (0, walk ^ step, walk))
                walk = step
            raise AssertionError("label changed along the coset without a step witness")
    by_label: dict[int, int] = {}
    for rep, label in reps.items():
        if label in by_label:
            other = by_label[label]
            for u in range(size):
                if labels[other ^ u] != labels[rep ^ u]:
                    return QuotientAnalysis(False, None, None, (other, rep, u))
            raise AssertionError("two cosets share a label yet no translate splits them")
        by_label[label] = rep
    class_count = len(reps)
    if class_count != 1 << (d - len(basis)):
        raise CertificateError(
            f"{class_count} cosets found, but a {len(basis)}-dimensional subspace of F2^{d} has "
            f"{1 << (d - len(basis))}"
        )
    return QuotientAnalysis(True, tuple(sorted(basis)), class_count, None)


def format_partition(partition: TranslationPartition) -> str:
    """Text form: dimension line, then one ``bits label`` line per vector."""
    d = partition.dimension
    lines = [str(d)]
    for v in range(1 << d):
        bits = "".join(str((v >> j) & 1) for j in range(d))
        lines.append(f"{bits} {partition.labels[v]}")
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> TranslationPartition:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty partition file", 1)
    try:
        d = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"expected dimension, got {lines[0]!r}", 1) from None
    if not 0 <= d <= MAX_DIMENSION:
        raise ParseError(f"dimension {d} outside 0..{MAX_DIMENSION}", 1)
    labels: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if d == 0 and len(parts) == 1:
            parts = ["", parts[0]]  # the one vector of F2^0 is written as an empty string
        if len(parts) != 2:
            raise ParseError(f"expected 'bits label', got {line!r}", lineno)
        bits, label_text = parts
        if len(bits) != d or any(ch not in "01" for ch in bits):
            raise ParseError(f"bad vector {bits!r} for dimension {d}", lineno)
        v = sum(1 << j for j, ch in enumerate(bits) if ch == "1")
        if v in labels:
            raise ParseError(f"duplicate vector {bits!r}", lineno)
        try:
            labels[v] = int(label_text)
        except ValueError:
            raise ParseError(f"bad label {label_text!r}", lineno) from None
    if len(labels) != 1 << d:
        raise ParseError("labelling does not cover every vector")
    return TranslationPartition(d, tuple(labels[v] for v in range(1 << d)))
