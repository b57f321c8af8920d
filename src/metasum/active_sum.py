"""Active-sum presentations, their enumeration, and the isomorphism verdict.

The *active sum* S of a conjugation-closed family of subgroups is the free
product of the members modulo all relators ``h**-1 g h (g**h)**-1`` with h in
F1, g in F2 (the inner conjugation action made internal).  For families of
cyclic subgroups, S is presented on one generator ``x_F`` per member F with

* a power relator  ``x_F**|F|``, and
* one conjugation relator per ordered pair (F1, F2): writing h = g_F1 and
  g = g_F2 for the chosen generators, locate F2**h in the family and the
  exponent e with  g**h = (g_{F2**h})**e; the relator is
  ``x_F1**-1 x_F2 x_F1 (x_{F2**h})**-e``.

Generator-level relators suffice; the elementwise relators follow:

* Powers of g.  Conjugation by a fixed h is a homomorphism, so from
  x_F1**-1 x_F2 x_F1 = y**e  (y the symbol of F2**h) we get
  x_F1**-1 x_F2**l x_F1 = y**(e*l) for every l, which is exactly the relator
  for the pair (h, g**l): discrete logarithms compose along the isomorphism
  F2 -> F2**h, g |-> g**h.
* Powers of h.  Conjugating the generator relation by x_F1 again rewrites
  x_F1**-2 x_F2 x_F1**2 through the relator of the pair (h, -) followed by
  the relator of (h, -) at the member F2**h, and the composite exponent is
  the discrete log of g**(h**2) because conjugation maps compose; induction
  extends this to every power h**k.  Since every element of the cyclic F1 is
  a power of h, all pairs (h', g') are covered.

The verdict keeps only the conjugation relators whose acting member F1 lies
in A = ``Family.acting``: one representative per component, extended in
canonical order until <g_R : R in A> = G — |A| * |family| relators instead of
|family|**2, every power relator kept (a Tietze transformation; Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005).  The dropped
relators follow.  The kept ones make conjugation by each x_R (R in A) send
every symbol power x_F**k to the symbol power of g_F**k conjugated by g_R
(the first point above), a permutation of the symbol powers.  Since
<g_A> = G, a member F1 = R**h of the component of R in A has h equal to a
word w in g_A, so x_F1 = (w**-1 x_R w)**f with f invertible mod |F1|.
Conjugation by x_F1 therefore acts as g_F1 does, which is every dropped
relator.  A family that does not generate G has every member acting: the
full presentation, which ``present`` always prints.

``abelianized_order`` computes ab(S) by the same argument, abelianized.
Every relator's exponent-sum row is zero or has one entry (the power relator
|F| * e_F, or (1 - e) * e_F when g_R normalises F) or two, e_F - e * e_F'
with F' = F**(g_R) and e a unit mod |F| = |F'|: x_F = e * x_F' in S^ab.  A
weighted union-find over these edges writes every x_F as w_F * x_T, w_F a
unit, for the root T of its class; the classes are the orbits under
K = <g_A>.  A closed walk from T along a word h in g_A has T**h = T, and
its composite exponent is the discrete log e_h of g_T**h, so it leaves
(e_h - 1) * x_T = 0; every h in N_K(T) is such a walk.  So x_T has order
d = gcd(|T|, e_h - 1 over h in N_K(T)), and <g_T**d> = [T, N_K(T)]
(:mod:`metasum.families`).  For a generating family K = G and the classes
are the components: S^ab = ⊕_T T/[T, N_G(T)] over a transversal, of order
the product of |T| / |[T, N_G(T)]| that ``is_regular`` reports (the tests
check this; it is not asserted).  The invariant factors come from the
roots' orders by pairwise gcd/lcm: Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).

``verdict`` ties everything together: family checks (generating, regular,
independent), the Ganea criterion, |S| = [S : <x_F>] * |F| by HLT coset
enumeration over the cyclic subgroup of the member F of largest order (limit
10 x |G| live cosets unless the caller passes ``max_cosets``), and the
abelianizations of both sides.  It also asserts the two implications
the theory guarantees — (generating and regular and independent and Ganea)
implies |S| = |G|, and failed independence implies a visible discrepancy
(either |S^ab| != |G^ab| or |S| != |G|) — raising InternalCheckError on any
violation, since those would signal an implementation bug.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .core import Element, MetacyclicParams, conjugate, mul
from .coset import free_reduce, todd_coxeter as _enumerate_raw
from .errors import CosetLimitExceeded, InternalCheckError
from .families import (
    Family,
    abelianized_group,
    is_generating,
    is_independent,
    is_regular,
)
from .lattice import AbelianStructure
from .structure import ganea_check

DEFAULT_COSET_FACTOR = 10  # max_cosets defaults to this multiple of |G|


@dataclass(frozen=True)
class PresentationGenerator:
    """One presentation symbol: the member's order and chosen generator."""

    symbol: str
    order: int
    element: Element


@dataclass(frozen=True)
class FpPresentation:
    """Finite presentation with freely reduced relators over signed symbols.

    Words are tuples of nonzero integers: ``k`` stands for the k-th generator
    (1-based) and ``-k`` for its inverse.  ``relators`` contains the power
    relator of every generator followed by the conjugation relators in
    ordered-pair order; freely trivial words (the self-pairs) are dropped.
    """

    generators: tuple[PresentationGenerator, ...]
    relators: tuple[tuple[int, ...], ...]

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def dump(self) -> str:
        """Stable text form: ``gen x0 order 3`` lines, then one relator per
        line as a word in ``x0`` / ``X0`` (capital = inverse)."""
        lines = [f"gen {g.symbol} order {g.order}" for g in self.generators]
        for word in self.relators:
            lines.append(
                " ".join(
                    f"x{k - 1}" if k > 0 else f"X{-k - 1}" for k in word
                )
            )
        return "\n".join(lines)


def _member_of_generator(
    p: MetacyclicParams, family: Family
) -> dict[tuple[int, Element], tuple[int, int]]:
    """(component, x) -> (member index, k) for every generator x = w**k,
    gcd(k, |F|) = 1, of every member with witness w.  Distinct members of
    one component are distinct cyclic subgroups, so no key repeats."""
    member_of: dict[tuple[int, Element], tuple[int, int]] = {}
    for i, (sub, comp) in enumerate(family.indexed_members()):
        x = 0
        for k in range(sub.order):
            if math.gcd(k, sub.order) == 1:
                member_of[(comp, x)] = (i, k)
            x = mul(p, x, sub.generator)
    return member_of


def build_active_sum_presentation(
    p: MetacyclicParams, family: Family, acting: Iterable[int] | None = None
) -> FpPresentation:
    """Present the active sum of a conjugation-closed family of cyclic subgroups.

    One conjugation relator per ordered member pair (F1, F2) with F1 among
    the ``acting`` member indices, every member when None (the module
    docstring shows which subsets present the same group).  With h = g_F1
    and g = g_F2, the member F2**h is the one of F2's component that has
    g**h as a generator, say g**h = (g_{F2**h})**e, and the relator says
    x1**-1 x2 x1 = (x_{F2**h})**e.  Searching F2's own component
    disambiguates coincident members of different components; an image that
    is no generator there would mean the family is not conjugation closed,
    a bug (InternalCheckError).  Each relator is freely reduced by
    ``coset.free_reduce``, the enumerator's own reduction, and dropped when
    empty (the self-pairs).  Member order (and hence generator
    numbering) is the family's canonical order, so output is reproducible
    byte for byte.
    """
    members = family.subgroups
    member_of = _member_of_generator(p, family)
    gens = tuple(
        PresentationGenerator(symbol=f"x{i}", order=sub.order, element=sub.generator)
        for i, sub in enumerate(members)
    )
    relators: list[tuple[int, ...]] = [
        (i + 1,) * sub.order for i, sub in enumerate(members)
    ]
    for i1 in range(len(members)) if acting is None else acting:
        h = members[i1].generator
        for i2, (sub, comp) in enumerate(family.indexed_members()):
            try:
                i_target, e = member_of[(comp, conjugate(p, sub.generator, h))]
            except KeyError:
                raise InternalCheckError("family is not conjugation closed") from None
            word = free_reduce([-(i1 + 1), i2 + 1, i1 + 1] + [-(i_target + 1)] * e)
            if word:
                relators.append(word)
    return FpPresentation(generators=gens, relators=tuple(relators))


def todd_coxeter(pres: FpPresentation, max_cosets: int) -> int:
    """Order of the presented group; CosetLimitExceeded when it cannot close.

    Enumerates the cosets of <x_F> by HLT with lookahead (:mod:`metasum.coset`)
    and returns [S : <x_F>] * |F|, where x_F is the generator of largest order
    (the lowest-numbered on ties).  |<x_F>| = |F| exactly: x_F -> g_F extends
    to a homomorphism S -> G because every relator of an active-sum
    presentation holds in G, so the order of x_F is at least that of g_F,
    which is |F|; the power relator x_F**|F| bounds it by |F|.  A generator
    without its power relator raises InternalCheckError.  ``max_cosets``
    bounds the live cosets of <x_F>.  The presentation without generators
    (the empty family of the trivial group) presents the trivial group.
    """
    if not pres.generators:
        return 1
    f = max(range(pres.ngens), key=lambda i: pres.generators[i].order)
    order = pres.generators[f].order
    if (f + 1,) * order not in pres.relators:
        raise InternalCheckError(f"{pres.generators[f].symbol} has no power relator")
    return _enumerate_raw(pres.ngens, pres.relators, max_cosets, ((f + 1,),)) * order


def abelianized_order(pres: FpPresentation) -> AbelianStructure:
    """Invariant factors of the presentation's abelianization.

    A weighted union-find over the exponent-sum rows (module docstring):
    x_c = weight[c] * x_parent[c], and each root keeps the order ``cut`` its
    rows leave it, starting from its generator's order.  A one-entry row
    k * e_a cuts a's root by gcd with k (w_a is a unit); x_a = e * x_b joins
    two roots or, in one class, cuts by gcd(cut, w_a - e * w_b).  Any other
    row, a join of unequal orders or a non-unit e, and a generator without
    its power relator x_F**|F| raise InternalCheckError: no active-sum
    presentation has them.
    """
    orders = [g.order for g in pres.generators]
    parent = list(range(len(orders)))
    weight = [1] * len(orders)
    cut = orders[:]
    has_power = [False] * len(orders)

    def find(c: int) -> int:
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        w = 1
        for node in reversed(path):
            w = w * weight[node] % orders[c]
            parent[node], weight[node] = c, w
        return c

    for word in pres.relators:
        sums: dict[int, int] = {}
        for k, count in Counter(word).items():
            sums[abs(k) - 1] = sums.get(abs(k) - 1, 0) + (count if k > 0 else -count)
        row = sorted((abs(x) != 1, c, x) for c, x in sums.items() if x)  # +-1 first
        if not row:
            continue
        (no_unit, a, x), (_, b, y) = row[0], row[-1]
        if len(row) == 1:
            has_power[a] |= abs(x) == orders[a]
            root = find(a)
            cut[root] = math.gcd(cut[root], x)
            continue
        n, e = orders[a], -x * y
        if len(row) > 2 or no_unit or orders[b] != n or math.gcd(e, n) != 1:
            raise InternalCheckError(f"exponent sums {sums} fit no active-sum relator")
        ra, rb = find(a), find(b)
        if ra == rb:
            cut[ra] = math.gcd(cut[ra], weight[a] - e * weight[b])
        else:
            parent[ra], weight[ra] = rb, pow(weight[a], -1, n) * e * weight[b] % n
            cut[rb] = math.gcd(cut[rb], cut[ra])
    missing = [g.symbol for g, ok in zip(pres.generators, has_power) if not ok]
    if missing:
        raise InternalCheckError(
            f"generators without a power relator: {' '.join(missing)}"
        )
    factors = [cut[c] for c in range(len(orders)) if parent[c] == c and cut[c] > 1]
    return AbelianStructure(_invariant_factors(factors), 0)


def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of Z/d over positive ``orders``:
    each pair becomes (gcd, lcm), so after the pass over i every later entry
    is a multiple of entry i.  Factors equal to 1 are dropped."""
    d = orders[:]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(x for x in d if x > 1)


@dataclass(frozen=True)
class Verdict:
    """All checks for one (group, family) pair plus the enumerated order.

    ``active_sum_order`` is None when enumeration hit the coset limit; then
    ``isomorphic`` is None (unknown) and the verdict is partial.  The
    abelianized orders need no enumeration and are always set.
    """

    params: MetacyclicParams
    generating: bool
    regular: bool
    independent: bool
    ganea_surjective: bool
    group_order: int
    active_sum_order: int | None
    abelianized_order_s: int
    abelianized_order_g: int
    isomorphic: bool | None


def verdict(p: MetacyclicParams, family: Family, max_cosets: int | None = None) -> Verdict:
    """Assemble the isomorphism verdict for a family.

    The coset limit defaults to 10x the group order (the expected order of S
    is exactly the group order, and the index over <x_F> is at most that).
    A limit hit yields a partial verdict, with ``isomorphic`` None, rather
    than an exception, so scans can flag the row and continue.
    """
    limit = DEFAULT_COSET_FACTOR * p.order if max_cosets is None else max_cosets
    generating = is_generating(p, family)
    regular = is_regular(p, family).regular
    independent = is_independent(p, family).independent
    ganea = ganea_check(p).surjective
    pres = build_active_sum_presentation(p, family, family.acting[0])
    ab_s = abelianized_order(pres).order
    ab_g = abelianized_group(p).order
    try:
        order_s: int | None = todd_coxeter(pres, limit)
    except CosetLimitExceeded:
        order_s = None
    isomorphic = None if order_s is None else order_s == p.order
    if generating and regular and independent and ganea and order_s is not None:
        if not isomorphic:
            raise InternalCheckError(
                f"family passes every criterion yet |S| = {order_s} != {p.order}"
            )
    if not independent and order_s is not None:
        if ab_s == ab_g and order_s == p.order:
            raise InternalCheckError(
                "failed independence must leave a visible discrepancy, but "
                f"|S^ab| = {ab_s} = |G^ab| and |S| = {order_s} = |G|"
            )
    return Verdict(
        params=p,
        generating=generating,
        regular=regular,
        independent=independent,
        ganea_surjective=ganea,
        group_order=p.order,
        active_sum_order=order_s,
        abelianized_order_s=ab_s,
        abelianized_order_g=ab_g,
        isomorphic=isomorphic,
    )
