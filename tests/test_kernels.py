"""Big-int kernels against naive per-assignment loops."""

import random
import tracemalloc
from collections.abc import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cascadekit import _kernels
from cascadekit.errors import DomainError


def random_entries(rng, n_coords, n_pairs, n_members=3):
    entries = []
    full = (1 << n_coords) - 1
    for _ in range(n_pairs):
        dmask = rng.getrandbits(n_coords) & full
        vmask = rng.getrandbits(n_coords) & dmask
        entries.append((dmask, vmask, rng.randrange(n_members)))
    return entries


def naive_eval(entries, g):
    """Set of members whose conditions assignment ``g`` extends."""
    return {m for dmask, vmask, m in entries if g & dmask == vmask}


class TestAgainstNaive:
    def test_eval_table(self):
        rng = random.Random(1)
        for n in (0, 1, 4, 7):
            entries = random_entries(rng, n, 5)
            table = _kernels.build_table(n, entries)
            evals = [naive_eval(entries, g) for g in range(1 << n)]
            assert set(table.cols) == set().union(*evals)
            for m, col in table.cols.items():
                assert col == sum(1 << g for g, members in enumerate(evals) if m in members)

    def test_large_member_index(self):
        entries = [(0b011, 0b001, 1000), (0b100, 0b100, 1000), (0b001, 0, 2)]
        table = _kernels.build_table(3, entries)
        assert sorted(table.cols) == [2, 1000]
        col = sum(1 << g for g in range(8) if 1000 in naive_eval(entries, g))
        assert table.cols[1000] == col
        assert _kernels.project_member(table, 1000, 0b100) == (0b000, 0b100)
        assert _kernels.subcube_member_summary(table, 1000, 0b100, 0b100) == 1
        assert _kernels.subcube_member_summary(table, 1000, 0b111, 0b010) == 0
        assert _kernels.subcube_member_summary(table, 1000, 0b011, 0b000) == 2
        assert _kernels.flip_violation(table, 0b010) == 1

    def test_tables_compare_by_value(self):
        entries = [(0b01, 0b01, 0), (0b10, 0, 3)]
        table = _kernels.build_table(2, entries)
        assert table == _kernels.build_table(2, reversed(entries))
        assert table != _kernels.build_table(2, entries[:1])
        # equal columns over more coordinates name other assignments, so the tables differ
        wider = _kernels.Table(3, dict(table.cols))
        assert wider.cols == table.cols and wider != table

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

    @given(st.integers(0, 9), st.integers(0, 2**32 - 1), st.integers(0, 6), st.data())
    def test_flip_violation_matches_flip_oracle(self, n, seed, n_pairs, data):
        entries = random_entries(random.Random(seed), n, n_pairs)
        table = _kernels.build_table(n, entries)
        flipped = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=min(n, 4)))
        mask = sum(1 << b for b in flipped)
        # the least assignment whose members change when the flipped coordinates toggle
        oracle = next(
            (g for g in range(1 << n) if naive_eval(entries, g) != naive_eval(entries, g ^ mask)), -1
        )
        assert _kernels.flip_violation(table, mask) == oracle

    def test_project_member(self):
        rng = random.Random(3)
        for n in (6, 0, 2, 10):
            entries = random_entries(rng, n, 5)
            table = _kernels.build_table(n, entries)
            # the last two masks carry bits at or above n_coords
            projs = (0, 0b101010, (1 << n) - 1, (1 << n) | 0b1001, rng.getrandbits(n + 4))
            # member 3 never occurs, so it projects to ()
            for member in (0, 1, 2, 3):
                for proj in projs:
                    naive = sorted(
                        {g & proj for g in range(1 << n) if member in naive_eval(entries, g)}
                    )
                    assert list(_kernels.project_member(table, member, proj)) == naive
            assert _kernels.project_member(table, 3, projs[2]) == ()

    def test_subcube_summary(self):
        rng = random.Random(4)
        n = 5
        entries = random_entries(rng, n, 4)
        table = _kernels.build_table(n, entries)
        for _ in range(50):
            dmask = rng.getrandbits(n)
            vmask = rng.getrandbits(n) & dmask
            for member in (0, 1, 2, 3):
                hits = [
                    member in naive_eval(entries, g)
                    for g in range(1 << n)
                    if g & dmask == vmask
                ]
                expected = 2 if any(hits) and not all(hits) else (1 if all(hits) else 0)
                assert _kernels.subcube_member_summary(table, member, dmask, vmask) == expected

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

    def test_solve_unit_triangular_is_a_lazy_sequence(self):
        n = 5
        cols = [(1 << j) | (j and 1) for j in range(n)]
        solved = _kernels.solve_unit_triangular_all(cols, n)
        assert isinstance(solved, Sequence)
        assert len(solved) == 2**n
        assert solved[-1] == solved[2**n - 1]
        assert solved[-(2**n)] == solved[0] == 0
        with pytest.raises(IndexError):
            solved[2**n]
        with pytest.raises(IndexError):
            solved[-(2**n) - 1]


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
            _kernels.build_table(2, [(0b01, 0b01, -1)])

    def test_solver_shape_validation(self):
        with pytest.raises(DomainError):
            _kernels.solve_unit_triangular_all([0b10], 1)
        with pytest.raises(DomainError):
            _kernels.solve_unit_triangular_all([0b01, 0b01], 2)

    def test_out_of_table_masks_rejected(self):
        table = _kernels.build_table(3, [(0b011, 0b001, 1)])
        with pytest.raises(IndexError):
            _kernels.flip_violation(table, 1 << 3)
        with pytest.raises(IndexError):
            _kernels.subcube_member_summary(table, 1, 1 << 3, 0)
        with pytest.raises(IndexError):
            _kernels.subcube_member_summary(table, 1, 0b001, 0b010)


class TestIndicatorCache:
    def test_wide_indicators_are_not_retained(self):
        # each 22-coordinate indicator is 512 KB: caching all 200 would keep 100 MB
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for dmask in range(1, 201):
                _kernels.build_table(22, [(dmask, 0, 0)])
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 10 << 20

    def test_narrow_indicators_are_cached_in_a_bounded_lru(self):
        cached = _kernels._cached_subcube_indicator
        cached.cache_clear()
        for _ in range(2):
            _kernels.build_table(16, [(0b101, 0b001, 0)])
        _kernels.build_table(17, [(0b101, 0b001, 0)])
        info = cached.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 1, 1024)

    @pytest.mark.parametrize("n", [1, 9, 16])
    def test_one_coordinate_flip_hits_the_indicator_cache(self, n):
        # the half-block mask of coordinate b is the one-coordinate subcube indicator
        table = _kernels.build_table(n, [(1, 1, 0)])
        cached = _kernels._cached_subcube_indicator
        cached.cache_clear()
        for _ in range(2):
            _kernels.flip_violation(table, 1 << (n - 1))
        info = cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        low_half = sum(1 << g for g in range(1 << n) if not (g >> (n - 1)) & 1)
        assert cached(n, 1 << (n - 1), 0) == low_half

    def test_flip_and_projection_agree_across_the_cache_threshold(self):
        # a 17th coordinate that no entry mentions changes no answer for masks below bit 16,
        # though the 16-coordinate table reads cached half-block masks and the wider one rebuilds them
        rng = random.Random(17)
        entries = random_entries(rng, 16, 12)
        narrow = _kernels.build_table(16, entries)
        wide = _kernels.build_table(17, entries)
        flips = [0, 1, 1 << 15, (1 << 16) - 1, *(rng.getrandbits(16) for _ in range(20))]
        for mask in flips:
            assert _kernels.flip_violation(wide, mask) == _kernels.flip_violation(narrow, mask)
        # sparse projections keep the outputs short; the full mask keeps every assignment
        projs = [0, 1 << 15, (1 << 16) - 1, *(rng.getrandbits(16) & rng.getrandbits(16) for _ in range(10))]
        for proj in projs:
            for m in range(3):
                assert _kernels.project_member(wide, m, proj) == _kernels.project_member(narrow, m, proj)

    def test_wide_low_half_masks_are_not_retained(self):
        # flipping all 22 coordinates reads 22 low-half masks of 512 KB each; caching them kept 10.5 MB
        table = _kernels.build_table(22, [(0b1, 0b1, 0)])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            assert _kernels.flip_violation(table, (1 << 22) - 1) == 0
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 2 << 20
