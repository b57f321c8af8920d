"""Exact integer matrices: Smith normal form certificates and abelian quotients.

Frozen diagonals were hand-checked (d1 = gcd of all entries, product of the
diagonal = |det| for square nonsingular input) before being written down.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum import lattice
from metasum.errors import OverflowDetected
from metasum.lattice import (
    IntMatrix,
    abelian_quotient,
    determinant,
    smith_diagonal,
    smith_normal_form,
)


class TestIntMatrix:
    def test_matmul_frozen(self):
        prod = IntMatrix.from_rows([[1, 2], [3, 4]]) @ IntMatrix.from_rows([[5, 6], [7, 8]])
        assert prod.to_lists() == [[19, 22], [43, 50]]

    def test_identity(self):
        eye = IntMatrix.identity(3)
        m = IntMatrix.from_rows([[2, 3, 1], [4, 1, -2], [0, 5, 7]])
        assert (eye @ m).to_lists() == m.to_lists()
        assert (m @ eye).to_lists() == m.to_lists()

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2]]) @ IntMatrix.from_rows([[1, 2]])


class TestDeterminant:
    def test_frozen_3x3(self):
        m = IntMatrix.from_rows([[2, 3, 1], [4, 1, -2], [0, 5, 7]])
        assert determinant(m) == -30

    def test_singular(self):
        assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_requires_square(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix.from_rows([[1, 2, 3]]))


class TestSmithNormalForm:
    def test_tall_matrix_frozen(self):
        m = IntMatrix.from_rows([[8, 0], [-2, 2], [4, 0]])
        snf = smith_normal_form(m)
        assert snf.d.to_lists() == [[2, 0], [0, 4], [0, 0]]
        assert snf.diagonal == (2, 4)

    def test_diagonal_matrix_needs_divisibility_fix(self):
        # diag(2, 3) is NOT in Smith form; the chain forces diag(1, 6).
        assert smith_diagonal(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)

    def test_square_frozen(self):
        # det = 28, gcd of entries = 2, so the diagonal must be (2, 14).
        assert smith_diagonal(IntMatrix.from_rows([[6, 4], [8, 10]])) == (2, 14)

    def test_zero_matrix(self):
        snf = smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert snf.d.to_lists() == [[0, 0], [0, 0]]

    def test_empty_matrix(self):
        assert smith_diagonal(IntMatrix(entries=())) == ()

    def test_certificate_on_frozen_example(self):
        m = IntMatrix.from_rows([[8, 0], [-2, 2], [4, 0]])
        snf = smith_normal_form(m)
        assert (snf.u @ m @ snf.v).to_lists() == snf.d.to_lists()
        assert determinant(snf.u) in (-1, 1)
        assert determinant(snf.v) in (-1, 1)

    def test_diagonal_only_path_matches_certified(self):
        m = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        assert smith_diagonal(m) == smith_normal_form(m).diagonal

    def test_entry_limit_guard(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_ENTRY_LIMIT", 10)
        m = IntMatrix.from_rows([[1000, 3], [7, 1000]])
        with pytest.raises(OverflowDetected):
            smith_normal_form(m)


MATRIX_STRATEGY = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestSmithProperties:
    @settings(max_examples=200, deadline=None)
    @given(MATRIX_STRATEGY)
    def test_certificate_and_chain(self, rows):
        m = IntMatrix.from_rows(rows)
        snf = smith_normal_form(m)
        # 1. the transformation certificate multiplies out exactly
        assert (snf.u @ m @ snf.v).to_lists() == snf.d.to_lists()
        # 2. both transforms are unimodular
        assert determinant(snf.u) in (-1, 1)
        assert determinant(snf.v) in (-1, 1)
        # 3. D is diagonal with nonnegative entries in a divisibility chain
        d = snf.d.to_lists()
        diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
        for i, row in enumerate(d):
            for j, val in enumerate(row):
                if i != j:
                    assert val == 0
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        # 4. the fast path agrees with the certified one
        assert smith_diagonal(m) == snf.diagonal


class TestAbelianQuotient:
    def test_symmetric_group_abelianization(self):
        # relations a^3, b^2, a (commutator collapse) => C2
        structure = abelian_quotient(IntMatrix.from_rows([[3, 0], [0, 2], [1, 0]]))
        assert structure.invariant_factors == (2,)
        assert structure.free_rank == 0
        assert structure.order == 2

    def test_quaternion_abelianization(self):
        structure = abelian_quotient(IntMatrix.from_rows([[4, 0], [-2, 2], [2, 0]]))
        assert structure.invariant_factors == (2, 2)
        assert structure.order == 4

    def test_free_summand_means_infinite(self):
        structure = abelian_quotient(IntMatrix.from_rows([[2, 0, 0]]))
        assert structure.invariant_factors == (2,)
        assert structure.free_rank == 2
        assert structure.order is None

    def test_no_columns(self):
        # Z^0 is trivial: the verdict reaches this when every generator of
        # ab(S) is eliminated and the diagonal left is empty.
        structure = abelian_quotient(IntMatrix(entries=()))
        assert structure.invariant_factors == ()
        assert structure.free_rank == 0
        assert structure.order == 1

    @settings(max_examples=60, deadline=None)
    @given(MATRIX_STRATEGY)
    def test_order_matches_determinant_for_square_nonsingular(self, rows):
        m = IntMatrix.from_rows(rows)
        if m.rows != m.cols:
            return
        det = determinant(m)
        if det == 0:
            return
        structure = abelian_quotient(m)
        assert structure.order == abs(det)
        assert structure.order == math.prod(d for d in smith_diagonal(m) if d)
