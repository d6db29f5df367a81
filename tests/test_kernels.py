"""Big-int kernels against naive per-assignment loops."""

import random

import pytest

from cascadekit import _kernels
from cascadekit.errors import DomainError


def random_entries(rng, n_coords, n_pairs, n_members=3):
    entries = []
    full = (1 << n_coords) - 1
    for _ in range(n_pairs):
        dmask = rng.getrandbits(n_coords) & full
        vmask = rng.getrandbits(n_coords) & dmask
        member = 1 << rng.randrange(n_members)
        entries.append((dmask, vmask, member))
    return entries


def naive_eval(entries, g):
    out = 0
    for dmask, vmask, member in entries:
        if g & dmask == vmask:
            out |= member
    return out


class TestAgainstNaive:
    def test_eval_table(self):
        rng = random.Random(1)
        for n in (0, 1, 4, 7):
            entries = random_entries(rng, n, 5)
            table = _kernels.build_table(n, entries)
            for g in range(1 << n):
                assert _kernels.eval_at(table, g) == naive_eval(entries, g)

    def test_flip_violation(self):
        rng = random.Random(2)
        n = 6
        entries = random_entries(rng, n, 4)
        table = _kernels.build_table(n, entries)
        for mask in range(1 << n):
            naive = -1
            for g in range(1 << n):
                if naive_eval(entries, g) != naive_eval(entries, g ^ mask):
                    naive = g
                    break
            assert _kernels.flip_violation(table, mask) == naive

    def test_project_member(self):
        rng = random.Random(3)
        for n in (6, 0, 2, 10):
            entries = random_entries(rng, n, 5)
            table = _kernels.build_table(n, entries)
            # the last two masks carry bits at or above n_coords
            projs = (0, 0b101010, (1 << n) - 1, (1 << n) | 0b1001, rng.getrandbits(n + 4))
            for member in (1, 2, 3, 4):
                for proj in projs:
                    naive = sorted(
                        {g & proj for g in range(1 << n) if naive_eval(entries, g) & member}
                    )
                    assert list(_kernels.project_member(table, member, proj)) == naive

    def test_subcube_summary(self):
        rng = random.Random(4)
        n = 5
        entries = random_entries(rng, n, 4)
        table = _kernels.build_table(n, entries)
        for _ in range(50):
            dmask = rng.getrandbits(n)
            vmask = rng.getrandbits(n) & dmask
            hits = [
                bool(naive_eval(entries, g) & 1)
                for g in range(1 << n)
                if g & dmask == vmask
            ]
            expected = 2 if any(hits) and not all(hits) else (1 if all(hits) else 0)
            assert _kernels.subcube_member_summary(table, 1, dmask, vmask) == expected

    def test_solve_unit_triangular(self):
        rng = random.Random(5)
        for n in (1, 3, 6, 0, 10):
            cols = []
            for j in range(n):
                col = (1 << j) | (rng.getrandbits(j) if j else 0)
                cols.append(col)
            solved = _kernels.solve_unit_triangular_all(cols, n)
            assert len(solved) == 1 << n
            for target, coeffs in enumerate(solved):
                acc = 0
                for j in range(n):
                    if (coeffs >> j) & 1:
                        acc ^= cols[j]
                assert acc == target


class TestDispatchValidation:
    def test_table_size_bound(self):
        with pytest.raises(DomainError):
            _kernels.build_table(_kernels.MAX_TABLE_COORDS + 1, [])

    def test_entry_validation(self):
        with pytest.raises(DomainError):
            _kernels.build_table(2, [(0b111, 0, 1)])
        with pytest.raises(DomainError):
            _kernels.build_table(2, [(0b01, 0b10, 1)])
        with pytest.raises(DomainError):
            _kernels.build_table(2, [(0b01, 0b01, 3)])

    def test_solver_shape_validation(self):
        with pytest.raises(DomainError):
            _kernels.solve_unit_triangular_all([0b10], 1)
        with pytest.raises(DomainError):
            _kernels.solve_unit_triangular_all([0b01, 0b01], 2)

    def test_out_of_table_masks_rejected(self):
        table = _kernels.build_table(3, [(0b011, 0b001, 1)])
        with pytest.raises(IndexError):
            _kernels.eval_at(table, 1 << 3)
        with pytest.raises(IndexError):
            _kernels.eval_at(table, -1)
        with pytest.raises(IndexError):
            _kernels.flip_violation(table, 1 << 3)
        with pytest.raises(IndexError):
            _kernels.subcube_member_summary(table, 1, 1 << 3, 0)
        with pytest.raises(IndexError):
            _kernels.subcube_member_summary(table, 1, 0b001, 0b010)
