"""Exact integer matrices: Smith normal form certificates and abelian quotients.

Frozen diagonals were hand-checked (d1 = gcd of all entries, product of the
diagonal = |det| for square nonsingular input) before being written down.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum.errors import OverflowDetected
from metasum.lattice import (
    IntMatrix,
    abelian_quotient,
    abelian_quotient_mod,
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

    def test_entry_limit_guard(self):
        m = IntMatrix.from_rows([[1000, 3], [7, 1000]])
        with pytest.raises(OverflowDetected):
            smith_normal_form(m, entry_limit=10)


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


def _factors(diagonal) -> tuple[int, ...]:
    return tuple(d for d in diagonal if d > 1)


# Lattices containing N * Z^n: a power row d_c * e_c for every column, N a
# multiple of lcm(d_c); sparse rows with at most two nonzeros (the shape of
# an active-sum presentation) and full-width rows whose entries are all
# multiples of a prime dividing N, so they carry no unit and reach the dense
# remainder.
MODULAR_LATTICE_STRATEGY = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, 12), min_size=n, max_size=n),
        st.integers(1, 3),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(-20, 20)),
                min_size=1,
                max_size=2,
            ),
            max_size=8,
        ),
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=3),
    )
)


def _smallest_prime_factor(n: int) -> int:
    return next(q for q in range(2, n + 1) if n % q == 0)


class TestAbelianQuotientMod:
    @settings(max_examples=300, deadline=None)
    @given(MODULAR_LATTICE_STRATEGY)
    def test_matches_certified_smith_form(self, drawn):
        n, powers, multiple, sparse, dense = drawn
        modulus = math.lcm(*powers) * multiple
        rows = [{c: d} for c, d in enumerate(powers)]
        for entries in sparse:
            row: dict[int, int] = {}
            for c, x in entries:
                row[c] = row.get(c, 0) + x
            rows.append(row)
        if modulus > 1:
            q = _smallest_prime_factor(modulus)
            rows += [{c: q * x for c, x in enumerate(row)} for row in dense]
        matrix = IntMatrix.from_rows(
            [[row.get(c, 0) for c in range(n)] for row in rows]
        )
        expected = _factors(smith_normal_form(matrix).diagonal)
        structure = abelian_quotient_mod(rows, n, modulus)
        assert structure.invariant_factors == expected
        assert structure.free_rank == 0

    def test_no_unit_pivot_goes_to_the_dense_remainder(self):
        # 2x + 2y and 4x, 4y modulo 4: no entry is a unit, Z/4 + Z/2 remains.
        rows = [{0: 4}, {1: 4}, {0: 2, 1: 2}]
        assert abelian_quotient_mod(rows, 2, 4).invariant_factors == (2, 4)

    def test_unit_pivots_collapse_a_chain(self):
        # x0 = x1 = x2 with 6*x0 = 0 and 4*x2 = 0 gives Z/2.
        rows = [{0: 6}, {1: 6}, {2: 4}, {0: 1, 1: -1}, {1: 1, 2: -1}]
        assert abelian_quotient_mod(rows, 3, 12).invariant_factors == (2,)

    def test_no_columns(self):
        assert abelian_quotient_mod([], 0, 1).order == 1

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            abelian_quotient_mod([{0: 2}], 1, 0)
