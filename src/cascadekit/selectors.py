"""Equality patterns, the complement-pair swap mechanism, and selectors.

The swap witness packages the flip construction: fresh nodes beside a
support window, a cofinite toggle avoiding the shield of a condition, and
machine-checked certificates that the condition is fixed, the support rows
are fixed, and the two-row equality pattern flips exactly on the toggle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cascade import (
    CascadeAutomorphism,
    Condition,
    Coordinate,
    ToggleSet,
    apply,
    generator,
    fixes_rows_over,
    shield_set,
)
from .errors import DomainError, PreconditionError, _Value
from .forest import NodeId, Window, fresh_separation
from .names import Assignment, CoordinateBox, _check_box_window


def equality_pattern(g: Assignment, beta: NodeId, gamma: NodeId, row: int) -> int:
    """Agreement bits of two rows of ``g``: bit n is 1 when the rows agree at n."""
    if beta == gamma:
        raise DomainError("equality pattern needs two distinct rows")
    box = g.box
    row_mask = (1 << box.bits) - 1
    beta_bits = g.value_bits >> box.index(Coordinate(beta, row, 0))
    gamma_bits = g.value_bits >> box.index(Coordinate(gamma, row, 0))
    return ~(beta_bits ^ gamma_bits) & row_mask


def pattern_shift(
    tau: CascadeAutomorphism, beta: NodeId, gamma: NodeId, row: int, box: CoordinateBox
) -> int:
    """Bits at which ``tau`` flips the equality pattern of two rows, on every assignment.

    ``tau`` flips bit n of a row exactly when n lies in that row's toggle
    set, and two rows change agreement at n exactly when one of them flips
    there.  So the shift is the symmetric difference of the two rows'
    toggle sets below ``box.bits``, the same for every assignment of the box.
    """
    if beta == gamma:
        raise DomainError("equality pattern needs two distinct rows")
    box.index(Coordinate(beta, row, 0))
    box.index(Coordinate(gamma, row, 0))
    return (tau.toggle_at(beta, row) ^ tau.toggle_at(gamma, row)).mask_below(box.bits)


@dataclass(frozen=True)
class SwapCertificate:
    """The three swap certificates.

    ``pattern_flip`` compares the toggle sets of the rows (beta, row) and
    (gamma, row) through :func:`pattern_shift`: the pattern flips exactly on
    the toggle when beta's row takes it and gamma's row does not.  That
    holds for all ``assignments_checked = 2**n_coords`` assignments of the box.
    """

    condition_fixed: bool
    support_fixed: bool
    pattern_flip: bool
    assignments_checked: int

    def all_pass(self) -> bool:
        return self.condition_fixed and self.support_fixed and self.pattern_flip


@dataclass(frozen=True)
class SwapWitness(_Value):
    beta: NodeId
    gamma: NodeId
    row: int
    shield: frozenset[int]
    toggle: ToggleSet
    certificate: SwapCertificate

    def __post_init__(self):
        object.__setattr__(self, "shield", frozenset(self._unordered(self.shield)))
        if not (isinstance(self.beta, int) and isinstance(self.gamma, int) and isinstance(self.row, int)):
            raise DomainError("swap nodes and row must be ints")
        if not self.toggle.cofinite:
            raise DomainError("swap toggles must be cofinite")
        if not self.toggle.disjoint_from(self.shield):
            raise DomainError("toggle set meets the shield")
        if not isinstance(self.certificate, SwapCertificate):
            raise DomainError(f"swap certificate {self.certificate!r} must be a SwapCertificate")


def swap_witness(q: Condition, A: Window, row: int, box: CoordinateBox) -> SwapWitness:
    """Build and certify the complement-flip automorphism beside a support window.

    Fresh nodes (beta, gamma) are drawn from the box; the toggle is the
    largest cofinite set avoiding the shield of ``q`` at (beta, row).  The
    three certificates are recomputed, not assumed.  Raises
    :class:`CapacityError` when the box has no two fresh nodes left.
    """
    _check_box_window(A, box)
    forest = box.forest
    if not 0 <= row < box.rows:
        raise DomainError(f"row {row} outside the box")
    beta, gamma = fresh_separation(forest, A, pool=box.window.nodes)
    shield = shield_set(q, beta, row, forest)
    toggle = ToggleSet.cofinite_excluding(shield)
    tau = generator(forest, beta, row, toggle)
    cert = SwapCertificate(
        condition_fixed=apply(tau, q) == q,
        support_fixed=fixes_rows_over(tau, A),
        pattern_flip=pattern_shift(tau, beta, gamma, row, box) == toggle.mask_below(box.bits),
        assignments_checked=1 << box.n_coords,
    )
    return SwapWitness(beta, gamma, row, shield, toggle, cert)


def format_witness(w: SwapWitness) -> str:
    cert = w.certificate

    def mark(ok):
        return "PASS" if ok else "FAIL"

    lines = [
        "swap witness",
        f"  beta: {w.beta}",
        f"  gamma: {w.gamma}",
        f"  row: {w.row}",
        "  shield: {%s}" % ",".join(str(n) for n in sorted(w.shield)),
        f"  toggle: {w.toggle.serialize()}",
        f"  certificate condition-fixed: {mark(cert.condition_fixed)}",
        f"  certificate support-fixed: {mark(cert.support_fixed)}",
        f"  certificate pattern-flip: {mark(cert.pattern_flip)}"
        # 2**n_coords in decimal can pass the int-to-str digit limit on a large box
        f" (exhaustive, 2^{cert.assignments_checked.bit_length() - 1} assignments)",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TraceProfile(_Value):
    """A subset of a fixed window, compared by its characteristic code."""

    window: Window
    nodes: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self._unordered(self.nodes)))
        if not self.nodes <= self.window.nodes:
            raise DomainError("profile nodes must lie inside the window")

    def code(self) -> tuple[int, ...]:
        return tuple(1 if xi in self.nodes else 0 for xi in self.window.ordered)


def canonical_selector(profiles: list[TraceProfile]) -> int:
    """Index of the profile with lexicographically least characteristic code.

    The three profiles must share one window and be pairwise distinct;
    permuting the input list always selects the same set member.
    """
    if len(profiles) != 3:
        raise DomainError("selector expects exactly three profiles")
    window = profiles[0].window
    if any(p.window != window for p in profiles):
        raise DomainError("profiles lie in different windows")
    node_sets = {p.nodes for p in profiles}
    if len(node_sets) != 3:
        raise PreconditionError("profiles are not trace-separated (duplicates present)")
    codes = [p.code() for p in profiles]
    return codes.index(min(codes))


@dataclass(frozen=True)
class IndexedFamily(_Value):
    """Finitely many nonempty finite sets of opaque ids, keyed by an index set."""

    sets: tuple[tuple[object, frozenset], ...]

    def __post_init__(self):
        pairs = map(self._ordered, self._ordered(self.sets))
        object.__setattr__(self, "sets", tuple((t, frozenset(self._unordered(elems))) for t, elems in pairs))
        seen = set()
        for t, elems in self.sets:
            if t in seen:
                raise DomainError(f"duplicate index {t!r}")
            seen.add(t)
            if not elems:
                raise DomainError(f"the set at index {t!r} is empty")

    @classmethod
    def of(cls, mapping: Mapping) -> "IndexedFamily":
        return cls(tuple(mapping.items()))


def lift_choice(family: IndexedFamily, k: int, f: Mapping) -> dict:
    """Project a choice on the k-fold product family back to the family itself.

    ``f`` maps each index t to a pair (a, j) with a in the set at t and
    j < k; the result maps t to a.
    """
    if k < 1:
        raise DomainError("product arity must be positive")
    out = {}
    for t, elems in family.sets:
        if t not in f:
            raise DomainError(f"choice map undefined at index {t!r}")
        pair = f[t]
        a, j = pair
        if a not in elems or not isinstance(j, int) or not 0 <= j < k:
            raise DomainError(f"choice {pair!r} outside the product set at {t!r}")
        out[t] = a
    return out
