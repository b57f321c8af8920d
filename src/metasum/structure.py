"""Closed-form structure invariants of a metacyclic group.

For G = <a, b | a**m, b**s = a**t, b**-1 a b = a**r> the following classical
descriptions hold and are implemented here:

* derived subgroup:  G' = <a**(r-1)>, the powers a**i with gcd(r-1, m) | i;
* center:            Z(G) = <a**k, b**s'> where k = m / gcd(r-1, m) and
  s' is the multiplicative order of r modulo m;
* the central quotient G/Z(G) is again metacyclic with parameters
  (k, s', 0, r), and its Schur multiplier is cyclic of order q/k where

      q = gcd(r-1, k) * gcd(1 + r + ... + r**(s'-1), k);

* |G' ∩ Z(G)| = gcd(r-1, k).

The geometric sum above is evaluated modulo k by the binary digits of s'
(``core.geometric_sum_mod``), with the usual convention gcd(0, k) = k; for
r = 1 the sum degenerates to s' (which equals 1 in that case, as r = 1 has
order 1).

``ganea_check`` compares the Schur-multiplier order of the central quotient
with |G' ∩ Z(G)|.  Surjectivity of the connecting (Ganea) map in the
five-term homology sequence for the central extension Z(G) -> G -> G/Z(G)
reduces to the inequality  |H2(G/Z(G))| <= |G' ∩ Z(G)|, which for metacyclic
groups always holds; the check still computes both sides honestly so the
claim is verified rather than assumed.

Every closed form has an independent brute-force counterpart: center and
derived subgroup by direct search in :mod:`metasum.core`, and the Schur
multiplier via bar-resolution homology at the bottom of this module
(``multiplier_order_from_table`` works on any abstract multiplication table).
numpy is imported only inside that brute-force layer.
The acceptance suite cross-checks closed forms against the brute-force routes
on every valid parameter tuple with m*s <= 200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CayleyTable, MetacyclicParams, Subgroup, _check_cap, cayley_table, generate_subgroup,
    geometric_sum_mod,
)
from .errors import CapExceeded, InternalCheckError
from .lattice import IntMatrix, smith_diagonal


def multiplicative_order(r: int, m: int) -> int:
    """Order of r in (Z/m)*; requires gcd(r, m) = 1.  Order 1 when m = 1."""
    if m == 1:
        return 1
    if math.gcd(r, m) != 1:
        raise ValueError(f"{r} is not a unit modulo {m}")
    cur = r % m
    n = 1
    while cur != 1:
        cur = cur * r % m
        n += 1
    return n


def twist_gcd(p: MetacyclicParams) -> int:
    """gcd(r-1, m), the index data of the derived subgroup (gcd(0, m) = m)."""
    return math.gcd(p.r - 1, p.m)


def center_exponents(p: MetacyclicParams) -> tuple[int, int]:
    """(k, s') with Z(G) = <a**k, b**s'>."""
    k = p.m // twist_gcd(p)
    s_prime = multiplicative_order(p.r, p.m)
    return k, s_prime


def center_closed_form(p: MetacyclicParams) -> Subgroup:
    """Z(G) = <a**k, b**s'> materialised as an element set."""
    k, s_prime = center_exponents(p)
    return generate_subgroup(p, [k % p.m * p.s, s_prime % p.s])


def derived_closed_form(p: MetacyclicParams) -> Subgroup:
    """G' = <a**(r-1)> listed from its exponent: the powers a**i with
    g = gcd(m, r-1) dividing i, |G'| = m/g checked against the cap first."""
    g = twist_gcd(p)
    _check_cap(p.m // g, "derived subgroup order")
    return Subgroup(frozenset(range(0, p.m * p.s, g * p.s)), generator=(p.r - 1) % p.m * p.s)


def schur_order_of_central_quotient(p: MetacyclicParams) -> int:
    """Order of the (cyclic) Schur multiplier of G/Z(G).

    G/Z(G) is metacyclic with parameters (k, s', 0, r); its multiplier is
    cyclic of order q/k with q = gcd(r-1, k) * gcd(1 + r + ... + r**(s'-1), k).
    """
    k, s_prime = center_exponents(p)
    geo = geometric_sum_mod(p.r, s_prime, k)
    q = math.gcd(p.r - 1, k) * math.gcd(geo, k)
    if q % k != 0:
        raise InternalCheckError(
            f"Schur order q/k is not integral: q={q}, k={k} for {p}"
        )
    return q // k


def derived_center_intersection_order(p: MetacyclicParams) -> int:
    """|G' ∩ Z(G)| = gcd(r-1, k)."""
    k, _ = center_exponents(p)
    return math.gcd(p.r - 1, k)


@dataclass(frozen=True)
class GaneaCheck:
    """Comparison of |H2(G/Z(G))| against |G' ∩ Z(G)|."""

    h2_order: int
    cap_order: int

    @property
    def surjective(self) -> bool:
        return self.h2_order <= self.cap_order


def ganea_check(p: MetacyclicParams) -> GaneaCheck:
    """Compute both sides of the surjectivity criterion for the Ganea map."""
    return GaneaCheck(
        h2_order=schur_order_of_central_quotient(p),
        cap_order=derived_center_intersection_order(p),
    )


# --------------------------------------------------------------------------
# Brute-force oracle: Schur multiplier from a multiplication table
# --------------------------------------------------------------------------

#: Largest central quotient the homology oracle will attempt.  The boundary
#: matrix of triples has (n-1)**3 rows, so cost grows roughly like n**5;
#: n = 12 takes about a second, n = 16 about ten.
DEFAULT_HOMOLOGY_LIMIT = 12


def quotient_table(tab: CayleyTable, normal_idx: np.ndarray) -> np.ndarray:
    """Multiplication table of G/N as a dense index table (0 = identity coset).

    ``normal_idx`` holds the element indices of a *normal* subgroup N
    (normality is assumed, not re-checked).  Each coset is labelled by its
    least element index, and labels are compressed to 0..|G/N|-1 in ascending
    order, so the identity coset always gets id 0 and the output is
    deterministic.
    """
    import numpy as np
    n_idx = np.asarray(normal_idx, dtype=np.int64)
    rep_of = tab.table[np.ix_(n_idx, np.arange(tab.n))].min(axis=0)
    reps = np.unique(rep_of)
    dense = np.full(tab.n, -1, dtype=np.int64)
    dense[reps] = np.arange(reps.size, dtype=np.int64)
    return dense[rep_of[tab.table[np.ix_(reps, reps)]]]


def _normalized_bar_boundaries(q: np.ndarray) -> tuple[IntMatrix, IntMatrix]:
    """Boundary matrices (d2, d3) of the normalized bar complex of a group table.

    Chain bases are the nondegenerate tuples over the n-1 nonidentity
    elements (identity entries are degenerate and excluded); with trivial
    coefficients the boundaries are

        d2 [g|h]   = [h] - [gh] + [g]
        d3 [g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h]

    where any bracket containing the identity is dropped.  Each matrix row is
    the image of one source basis tuple in target coordinates; coinciding
    targets accumulate.
    """
    n = int(q.shape[0])
    nd = n - 1

    def pair_col(g: int, h: int) -> int:
        return (g - 1) * nd + (h - 1)

    rows2 = []
    for g in range(1, n):
        for h in range(1, n):
            row = [0] * nd
            row[h - 1] += 1
            gh = int(q[g, h])
            if gh:
                row[gh - 1] -= 1
            row[g - 1] += 1
            rows2.append(row)

    rows3 = []
    for g in range(1, n):
        for h in range(1, n):
            gh = int(q[g, h])
            for k in range(1, n):
                row = [0] * (nd * nd)
                row[pair_col(h, k)] += 1
                if gh:
                    row[pair_col(gh, k)] -= 1
                hk = int(q[h, k])
                if hk:
                    row[pair_col(g, hk)] += 1
                row[pair_col(g, h)] -= 1
                rows3.append(row)

    return IntMatrix.from_rows(rows2), IntMatrix.from_rows(rows3)


def multiplier_order_from_table(q: np.ndarray) -> int:
    """|H2(Q; Z)| — the Schur multiplier order — from a multiplication table.

    H2 = ker d2 / im d3 on normalized bar chains.  ker d2 is a direct summand
    of the free module of pairs (the quotient by it embeds in the free module
    of singles), so the nonzero Smith invariant factors of d3, computed in
    ambient pair coordinates, are exactly the torsion coefficients of H2.
    Finiteness is verified: rank(ker d2) must equal rank(d3), otherwise the
    input was not a group table and InternalCheckError is raised.
    """
    import numpy as np
    q = np.asarray(q)
    n = int(q.shape[0])
    if n == 1:
        return 1
    d2, d3 = _normalized_bar_boundaries(q)
    rank2 = sum(1 for x in smith_diagonal(d2) if x)
    diag3 = smith_diagonal(d3)
    rank3 = sum(1 for x in diag3 if x)
    kernel_rank = (n - 1) ** 2 - rank2
    if kernel_rank != rank3:
        raise InternalCheckError(
            "second homology of a finite group must be finite: "
            f"cycle rank {kernel_rank} != boundary rank {rank3}"
        )
    order = 1
    for x in diag3:
        if x:
            order *= x
    return order


def bruteforce_schur_of_central_quotient(p: MetacyclicParams) -> int:
    """Multiplier order of G/Z(G) with no closed forms anywhere in the route.

    The center comes from a commutation scan of the Cayley table, the
    quotient table from least-index coset representatives, and the multiplier
    from bar-resolution homology.  Raises CapExceeded when the central
    quotient is larger than ``DEFAULT_HOMOLOGY_LIMIT``.
    """
    tab = cayley_table(p)
    qt = quotient_table(tab, tab.center_idx)
    if qt.shape[0] > DEFAULT_HOMOLOGY_LIMIT:
        raise CapExceeded(
            f"central quotient has order {qt.shape[0]}, "
            f"above the homology guard {DEFAULT_HOMOLOGY_LIMIT}"
        )
    return multiplier_order_from_table(qt)


def bruteforce_derived_center_intersection(p: MetacyclicParams) -> int:
    """|G' ∩ Z(G)| read off the Cayley table, for cross-checking the gcd form."""
    tab = cayley_table(p)
    return len(set(tab.center_idx.tolist()) & set(tab.derived_idx.tolist()))


def bruteforce_ganea(p: MetacyclicParams) -> GaneaCheck:
    """Both sides of the Ganea surjectivity criterion, via brute force only."""
    return GaneaCheck(
        h2_order=bruteforce_schur_of_central_quotient(p),
        cap_order=bruteforce_derived_center_intersection(p),
    )
