import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley8.multiindex import (
    DIM,
    basis,
    basis_position,
    canonicalize,
    complement,
    contraction,
    merge_sign,
    star_sign,
)


def parity_by_sort(seq):
    """Reference parity: count inversions pairwise."""
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


class TestCanonicalize:
    def test_sorted_passthrough(self):
        assert canonicalize((0, 2, 5)) == ((0, 2, 5), 1)

    def test_single_swap(self):
        assert canonicalize((1, 0)) == ((0, 1), -1)

    def test_repeated_index_kills(self):
        assert canonicalize((3, 1, 3)) == ((1, 3, 3), 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            canonicalize((0, 8))

    @pytest.mark.parametrize("indices", [(True,), (0, True), (False, 3)])
    def test_bool_rejected(self, indices):
        # a bool is an int to isinstance, but no index: True is not x1
        with pytest.raises(ValueError, match="outside 0..7"):
            canonicalize(indices)

    @given(st.permutations(list(range(6))))
    def test_sign_matches_inversion_count(self, perm):
        idx, sign = canonicalize(perm)
        assert idx == tuple(range(6))
        assert sign == parity_by_sort(perm)


class TestMergeSign:
    def test_disjoint(self):
        assert merge_sign((0, 2), (1, 3)) == ((0, 1, 2, 3), -1)

    def test_overlap_is_zero(self):
        assert merge_sign((0, 1), (1, 2))[1] == 0

    @given(
        st.sets(st.integers(0, 7), min_size=0, max_size=4),
        st.sets(st.integers(0, 7), min_size=0, max_size=4),
    )
    def test_agrees_with_canonicalize(self, a, b):
        a, b = tuple(sorted(a)), tuple(sorted(b))
        merged, sign = merge_sign(a, b)
        expected_idx, expected_sign = canonicalize(a + b)
        assert (merged, sign) == (expected_idx, expected_sign)


class TestStarSign:
    def test_full_and_empty(self):
        assert star_sign(()) == 1
        assert star_sign(tuple(range(DIM))) == 1

    def test_double_star_parity(self):
        for k in range(DIM + 1):
            for idx in basis(k):
                product = star_sign(idx) * star_sign(complement(idx))
                assert product == (-1) ** (k * (DIM - k))


class TestContraction:
    def test_not_subset(self):
        assert contraction((4,), (0, 1)) is None

    def test_front_removal(self):
        assert contraction((0,), (0, 1, 2)) == ((1, 2), 1)

    def test_positional_sign(self):
        assert contraction((1,), (0, 1)) == ((0,), -1)

    def test_full_contraction(self):
        assert contraction((0, 1), (0, 1)) == ((), 1)

    def test_matches_iterated_single(self):
        # closed form vs removing one index at a time, smallest first
        for j in basis(2):
            for i in basis(4):
                closed = contraction(j, i)
                step1 = contraction((j[0],), i)
                if step1 is None:
                    assert closed is None
                    continue
                mid, s1 = step1
                step2 = contraction((j[1],), mid)
                if step2 is None:
                    assert closed is None
                    continue
                rest, s2 = step2
                assert closed == (rest, s1 * s2)


class TestBasis:
    def test_sizes_are_binomial(self):
        for k in range(DIM + 1):
            assert len(basis(k)) == math.comb(DIM, k)

    def test_lexicographic_positions(self):
        assert basis(2)[0] == (0, 1)
        assert basis_position((0, 1)) == 0
        for k in (1, 3):
            for n, idx in enumerate(basis(k)):
                assert basis_position(idx) == n

    def test_only_an_int_is_a_degree(self):
        # a float asked before and after True: the answer may not depend on what was asked first
        for k in (1.0, True, 1.0, False, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"basis degree must be an int, not {k!r}"):
                basis(k)
        assert basis(1) == tuple((i,) for i in range(DIM))
        assert basis(-1) == basis(DIM + 1) == ()
