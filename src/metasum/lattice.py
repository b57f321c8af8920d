"""Exact integer-matrix reduction: Smith normal form and abelian quotients.

Given an integer relation matrix A (rows are relations over n generators),
``smith_normal_form`` produces D = U @ A @ V with U, V unimodular and D
diagonal with a divisibility chain d1 | d2 | ... .  The transformations are
returned so every result is a checkable certificate; the tests use it as
the oracle of the route below and of the closed form of G/G' in
:mod:`metasum.families`.

Invariant factors without a certificate come from ``smith_diagonal``, which
skips U and V; ``abelian_quotient`` reads the quotient's isomorphism type off
it.  No verdict reduces a matrix: ab(S) is a weighted union-find in
``active_sum.abelianized_order``, which takes only ``AbelianStructure`` here.

Arithmetic is exact (Python integers).  Entry magnitudes are nevertheless
checked against ``DEFAULT_ENTRY_LIMIT``, read when a reduction starts, after
every elementary operation, and OverflowDetected is raised when the reduction
blows up; the limit is far beyond anything the desk-scale inputs of this
package produce, so hitting it indicates pathological input rather than
normal operation.

Pivoting picks a nonzero entry of least absolute value in the remaining
block, which keeps intermediate growth tame for small matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import OverflowDetected

DEFAULT_ENTRY_LIMIT = 10**30


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ocols = other.cols
        return IntMatrix(
            tuple(
                tuple(
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(ocols)
                )
                for i in range(self.rows)
            )
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def determinant(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = mat.rows
    if n != mat.cols:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = mat.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithNormalForm:
    """Certificate u @ a @ v = d with u, v unimodular, d diagonal with chain."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(n))


class _Reducer:
    """Mutable workspace tracking row ops in u and column ops in v.

    With ``track=False`` the transformation matrices are skipped entirely —
    useful for large structured matrices (e.g. homology boundary maps) where
    only the diagonal is needed and the certificates would dominate the cost.
    """

    def __init__(self, mat: IntMatrix, track: bool = True):
        self.a = mat.to_lists()
        self.rows = mat.rows
        self.cols = mat.cols
        self.track = track
        self.u = IntMatrix.identity(mat.rows).to_lists() if track else []
        self.v = IntMatrix.identity(mat.cols).to_lists() if track else []
        self.limit = DEFAULT_ENTRY_LIMIT

    def _check(self, values: Iterable[int]) -> None:
        for x in values:
            if abs(x) > self.limit:
                raise OverflowDetected(f"entry magnitude {abs(x)} exceeds limit {self.limit}")

    def swap_rows(self, i: int, j: int) -> None:
        self.a[i], self.a[j] = self.a[j], self.a[i]
        if self.track:
            self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i: int, j: int) -> None:
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def add_row(self, src: int, dst: int, c: int) -> None:
        self.a[dst] = [x + c * y for x, y in zip(self.a[dst], self.a[src])]
        self._check(self.a[dst])
        if self.track:
            self.u[dst] = [x + c * y for x, y in zip(self.u[dst], self.u[src])]
            self._check(self.u[dst])

    def add_col(self, src: int, dst: int, c: int) -> None:
        for row in self.a:
            row[dst] += c * row[src]
        for row in self.v:
            row[dst] += c * row[src]
        self._check(row[dst] for row in self.a)
        self._check(row[dst] for row in self.v)

    def negate_row(self, i: int) -> None:
        self.a[i] = [-x for x in self.a[i]]
        if self.track:
            self.u[i] = [-x for x in self.u[i]]

    def _pivot(self, k: int) -> tuple[int, int] | None:
        """Position of a least-|value| nonzero entry in the block from (k, k)."""
        best = None
        best_val = None
        for i in range(k, self.rows):
            for j in range(k, self.cols):
                x = abs(self.a[i][j])
                if x and (best_val is None or x < best_val):
                    best, best_val = (i, j), x
                    if x == 1:
                        return best
        return best

    def reduce(self) -> None:
        k = 0
        while k < min(self.rows, self.cols):
            pos = self._pivot(k)
            if pos is None:
                break
            self.swap_rows(k, pos[0])
            self.swap_cols(k, pos[1])
            if self.a[k][k] < 0:
                self.negate_row(k)
            # Clear row and column k; restart if a remainder creates a smaller pivot.
            dirty = False
            for i in range(k + 1, self.rows):
                if self.a[i][k]:
                    q = self.a[i][k] // self.a[k][k]
                    self.add_row(k, i, -q)
                    if self.a[i][k]:
                        dirty = True
            for j in range(k + 1, self.cols):
                if self.a[k][j]:
                    q = self.a[k][j] // self.a[k][k]
                    self.add_col(k, j, -q)
                    if self.a[k][j]:
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining block by the pivot.
            pivot = self.a[k][k]
            offender = None
            for i in range(k + 1, self.rows):
                for j in range(k + 1, self.cols):
                    if self.a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is not None:
                self.add_row(offender, k, 1)
                continue
            k += 1


def smith_normal_form(mat: IntMatrix) -> SmithNormalForm:
    """Diagonalise mat over Z, returning the certificate (D, U, V).

    Postconditions (verified in tests): U @ mat @ V = D; det(U), det(V) are
    +-1; the diagonal of D is nonnegative and forms a divisibility chain.
    """
    red = _Reducer(mat)
    red.reduce()
    d = IntMatrix.from_rows(red.a)
    u = IntMatrix.from_rows(red.u)
    v = IntMatrix.from_rows(red.v)
    return SmithNormalForm(d=d, u=u, v=v)


def smith_diagonal(mat: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form only, without transformation certificates.

    Same invariant factors as smith_normal_form, but skips the U/V
    bookkeeping; prefer this for large boundary matrices where only ranks
    and torsion are needed.
    """
    red = _Reducer(mat, track=False)
    red.reduce()
    n = min(red.rows, red.cols)
    return tuple(red.a[i][i] for i in range(n))


@dataclass(frozen=True)
class AbelianStructure:
    """Isomorphism type of a finitely generated abelian group.

    ``invariant_factors`` lists the nontrivial torsion factors in divisibility
    order (factors equal to 1 are dropped); ``free_rank`` counts Z summands.
    """

    invariant_factors: tuple[int, ...]
    free_rank: int

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)


def abelian_quotient(relations: IntMatrix) -> AbelianStructure:
    """Isomorphism type of Z^n modulo the row space of ``relations``: the
    Smith diagonal, with a 0 for each of the n columns it does not reach."""
    diagonal = smith_diagonal(relations) + (0,) * (relations.cols - relations.rows)
    return AbelianStructure(tuple(d for d in diagonal if d > 1), diagonal.count(0))
