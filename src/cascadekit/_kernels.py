"""Hot-loop kernels on Python's big-int bitsets.

The heavy operations are sweeps over every total assignment of a small
coordinate box: building the member table of a name, checking XOR-flip
invariance and projecting satisfying assignments.  A :class:`Table` is a
value: its coordinate count and its columns keyed by member index ``m``,
any natural number, where a column is one integer with bit ``g`` set when
assignment ``g`` carries ``m``; two tables are equal under ``==`` exactly
when both parts are.  Subcube indicators are built by width doubling,
XOR-permutation by half-block swaps and projection by an OR-fold over the
dropped coordinates, so the per-assignment work runs inside CPython's
big-int arithmetic instead of a Python-level loop.  A half-block mask, the
assignments with coordinate ``b`` equal to 0, is the one-coordinate
subcube indicator; all indicators over at most 16 coordinates share one
bounded LRU.

The batch triangular solver :func:`solve_unit_triangular_all`, with
:class:`XorSpan` and :func:`xor_combination`, has no library caller since
``f2linalg`` solves through its own per-window basis; it is kept only
because the benchmark's probe test still calls it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

from .errors import CertificateError, DomainError

MAX_TABLE_COORDS = 22
BACKEND = "python"


class Table(NamedTuple):
    """Member table: one column bitset per member index that occurs."""

    n_coords: int
    cols: dict[int, int]


def _check_dims(n_coords: int) -> None:
    if n_coords < 0:
        raise DomainError("negative coordinate count")
    if n_coords > MAX_TABLE_COORDS:
        raise DomainError(
            f"table over {n_coords} coordinates exceeds the {MAX_TABLE_COORDS}-bit sweep bound"
        )


def _build_subcube_indicator(n_coords: int, dmask: int, vmask: int) -> int:
    """Bitset over all assignments of ``{g : g & dmask == vmask}``."""
    ind = 1
    for j in range(n_coords):
        width = 1 << j
        if not (dmask >> j) & 1:
            ind |= ind << width
        elif (vmask >> j) & 1:
            ind <<= width
    return ind


# indicators over at most 16 coordinates (8 KB each), the half-block masks of
# flip_violation and project_member among them, are cached, 8 MB at most; a
# wider one (up to 512 KB) is rebuilt on each call
_cached_subcube_indicator = lru_cache(maxsize=1024)(_build_subcube_indicator)


def _subcube_indicator(n_coords: int, dmask: int, vmask: int) -> int:
    if n_coords <= 16:
        return _cached_subcube_indicator(n_coords, dmask, vmask)
    return _build_subcube_indicator(n_coords, dmask, vmask)


def build_table(n_coords: int, entries) -> Table:
    """Member table of a name over a box.

    ``entries`` is an iterable of ``(dmask, vmask, m)`` triples: a condition
    with domain ``dmask`` and values ``vmask`` contributing member ``m``.
    Column ``m`` holds the assignments, among all ``2**n_coords``, that
    extend some condition of ``m``.
    """
    _check_dims(n_coords)
    full = (1 << n_coords) - 1
    cols: dict[int, int] = {}
    for dmask, vmask, m in entries:
        if dmask & ~full:
            raise DomainError("condition mentions coordinates outside the box")
        if vmask & ~dmask:
            raise DomainError("value bits outside the condition domain")
        if m < 0:
            raise DomainError("member index must be a natural number")
        cols[m] = cols.get(m, 0) | _subcube_indicator(n_coords, dmask, vmask)
    return Table(n_coords, cols)


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of a natural ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def flip_violation(table: Table, flip_mask: int) -> int:
    """Least assignment whose members change under XOR with ``flip_mask``; -1 if none."""
    n = table.n_coords
    if flip_mask < 0 or flip_mask >> n:
        raise IndexError("flip mask outside the table")
    # only the flipped coordinates permute: each swaps the halves of its blocks
    swaps = [(1 << b, _subcube_indicator(n, 1 << b, 0)) for b in set_bits(flip_mask)]
    best = -1
    for col in table.cols.values():
        permuted = col
        for block, low in swaps:
            permuted = ((permuted & low) << block) | ((permuted >> block) & low)
        diff = col ^ permuted
        if diff:
            g = (diff & -diff).bit_length() - 1
            if best < 0 or g < best:
                best = g
    return best


def project_member(table: Table, m: int, proj_mask: int) -> tuple[int, ...]:
    """Sorted distinct ``g & proj_mask`` over assignments carrying member ``m``."""
    n = table.n_coords
    col = table.cols.get(m, 0)
    # OR each dropped coordinate's high half onto its low half (a zeta transform):
    # bit g survives exactly when some carrying assignment projects to g
    for b in range(n):
        if not (proj_mask >> b) & 1:
            block = 1 << b
            col = (col | (col >> block)) & _subcube_indicator(n, block, 0)
    return tuple(set_bits(col))


def subcube_member_summary(table: Table, m: int, dmask: int, vmask: int) -> int:
    """Membership of ``m`` across the subcube ``{g : g & dmask == vmask}``.

    Returns 0 when no assignment of the subcube carries ``m``, 1 when
    all do, 2 when mixed.
    """
    if dmask < 0 or dmask >> table.n_coords or vmask & ~dmask:
        raise IndexError("subcube masks outside the table")
    ind = _subcube_indicator(table.n_coords, dmask, vmask)
    hit = table.cols.get(m, 0) & ind
    if hit == 0:
        return 0
    if hit == ind:
        return 1
    return 2


def xor_combination(cols, t: int) -> int:
    """XOR of ``cols[i]`` over the set bits ``i`` of ``t``.

    ``t`` indexes the ``2**len(cols)`` combinations as on a list: a negative
    index counts from the end, and one out of range raises ``IndexError``.
    """
    size = 1 << len(cols)
    if t < 0:
        t += size
    if not 0 <= t < size:
        raise IndexError("combination index out of range")
    acc = 0
    while t:
        low = t & -t
        acc ^= cols[low.bit_length() - 1]
        t ^= low
    return acc


class XorSpan(Sequence):
    """Read-only sequence of every XOR combination of a few columns.

    Entry ``t`` is :func:`xor_combination` of the columns, computed when it
    is read; only the columns are stored.
    """

    __slots__ = ("cols",)

    def __init__(self, cols: tuple[int, ...]):
        self.cols = cols

    def __len__(self) -> int:
        return 1 << len(self.cols)

    def __getitem__(self, t: int) -> int:
        return xor_combination(self.cols, t)


def solve_unit_triangular_all(cols, n: int) -> XorSpan:
    """Solve every target of F2^n through a unit upper triangular matrix.

    ``cols[j]`` is the j-th column as a row-position bitmask with bit ``j``
    set and no bits above it.  Back-substitutes the n unit targets once and
    returns the coefficient mask per target as an :class:`XorSpan` over those
    inverse columns: a target's solution is the XOR of the solutions of the
    unit targets its bits name.
    """
    _check_dims(n)
    cols = list(cols)
    if len(cols) != n:
        raise DomainError("need exactly one column per dimension")
    for j, col in enumerate(cols):
        if not (col >> j) & 1 or col >> (j + 1):
            raise DomainError("columns must be unit upper triangular")
    inverse = []
    for i in range(n):
        residual = 1 << i
        coeffs = 0
        for j in range(i, -1, -1):
            if (residual >> j) & 1:
                coeffs |= 1 << j
                residual ^= cols[j]
        if residual:
            raise CertificateError("triangular solve left a residual")
        inverse.append(coeffs)
    return XorSpan(tuple(inverse))
