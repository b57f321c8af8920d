"""Hall decomposition of a metacyclic group and the cyclic family it yields.

For a set of primes ``pi``, write every positive integer n as a product of
its pi-part and pi'-part.  The decomposition sought here is

    G = N x| H,   N the (normal) set of all elements of pi'-order,
                  H a nilpotent Hall pi-subgroup,

together with enough extra structure to assemble a conjugation-closed family
of cyclic subgroups whose active sum recovers G:

* ``V`` — the pi'-part of the cyclic kernel <a> (always normal in G),
* ``U`` — the pi'-part of <b>; the decomposition requires N = V x| U with
  U centralising H and gcd(r - 1, |V|) = 1, plus G' ∩ N = V and
  G' ∩ H = H',
* per Sylow subgroup H_q of H (H nilpotent means every such set of q-power
  order elements really is a subgroup): a two-generator factorisation
  H_q = <alpha> <beta> with <alpha> normal and the divisibility condition
  gcd(|alpha|, twist - 1) | tail, where ``twist`` and ``tail`` are the
  discrete logarithms base alpha of alpha**beta and beta**[H_q:<alpha>].
  That condition makes the generator family of H_q independent, which is
  what the active-sum argument needs locally.

The search tries prime sets in decreasing size (then lexicographically) and
returns the first one for which every condition holds.  Element orders
and G' are closed forms; closure, H' and commutation are scanned in
subgroup-sized blocks of the Cayley table.  The pi-parts of the defining
generators always span a Hall pi-subgroup H0 (the pi-part of <a> is normal,
and the pi-part of b covers the full pi-share of G/<a>), so candidate Hall
subgroups are exactly the conjugates of H0, walked as its orbit under a and
b.  Nilpotency and G' ∩ H = H' transfer along conjugation and are tested
once; the centraliser condition for U is tested per conjugate, in ascending
order of their sorted index rows.

The family is the conjugacy closure of the nontrivial seeds
{V, U, <alpha_q>, <beta_q>}: closing under all of G automatically adds the
V-conjugates of U (the members ``<u * v**(i*(eta - 1))>`` with
v**u = v**eta) and the H-conjugates of the Sylow pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    CayleyTable,
    Element,
    MetacyclicParams,
    Subgroup,
    cayley_table,
    conjugate,
    cyclic_subgroup,
    element_log,
    element_orders,
    generate_subgroup,
    power,
    trivial_subgroup,
)
from .errors import InternalCheckError, SearchFailed
from .families import (
    Family,
    Transversal,
    conjugacy_closure,
    defining_generators,
    transversal,
    xgcd,
)
from .structure import derived_closed_form


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _split_by_primes(n: int, primes: tuple[int, ...]) -> tuple[int, int]:
    """(pi-part, pi'-part) of n."""
    part = 1
    rest = n
    for q in primes:
        while rest % q == 0:
            rest //= q
            part *= q
    return part, rest


def pi_part(p: MetacyclicParams, g: Element, primes: tuple[int, ...]) -> Element:
    """The power of g whose order is the pi-part of the order of g.

    With n = n_pi * n_rest coprime and 1 = x*n_pi + y*n_rest, the element
    g**(y*n_rest) has order n_pi and g equals the product of its two parts.
    """
    n = int(element_orders(p)[g[0] * p.s + g[1]])
    n_pi, n_rest = _split_by_primes(n, primes)
    _, _, y = xgcd(n_pi, n_rest)
    return power(p, g, (y * n_rest) % n)


def pi_complement_part(p: MetacyclicParams, g: Element, primes: tuple[int, ...]) -> Element:
    """The power of g whose order is the pi'-part of the order of g."""
    n = int(element_orders(p)[g[0] * p.s + g[1]])
    n_pi, n_rest = _split_by_primes(n, primes)
    _, x, _ = xgcd(n_pi, n_rest)
    return power(p, g, (x * n_pi) % n)


@dataclass(frozen=True)
class SylowFactorization:
    """A Sylow subgroup of the Hall part, split into two cyclic pieces.

    ``normal_part`` (= <alpha>) is normal in the Sylow subgroup and
    ``complement_part`` (= <beta>) covers the cyclic quotient, so the Sylow
    subgroup is their product.  For a cyclic Sylow subgroup the normal part
    is trivial and the complement is the whole thing.  ``twist_exponent`` and
    ``tail_exponent`` are the local analogues of r and t: alpha**beta =
    alpha**twist and beta**[H_q : <alpha>] = alpha**tail; the recorded
    factorisation always satisfies gcd(|alpha|, twist - 1) | tail.
    """

    prime: int
    sylow: Subgroup
    normal_part: Subgroup
    complement_part: Subgroup
    twist_exponent: int
    tail_exponent: int


@dataclass(frozen=True)
class HallDecomposition:
    """G = (V x| U) x| H with H nilpotent, and the data extracted from it."""

    params: MetacyclicParams
    primes: tuple[int, ...]
    hall_subgroup: Subgroup
    normal_complement: Subgroup
    kernel_part: Subgroup  # V = pi'-part of <a>
    top_part: Subgroup  # U = pi'-part of <b>
    twist_exponent: int  # eta with v**u = v**eta
    sylow_factorizations: tuple[SylowFactorization, ...]


def _closed_under_product(tab: CayleyTable, idx: np.ndarray) -> bool:
    mask = np.zeros(tab.n, dtype=bool)
    mask[idx] = True
    return bool(mask[tab.table[np.ix_(idx, idx)]].all())


def _sylow_split(tab: CayleyTable, h_idx: np.ndarray) -> list[tuple[int, np.ndarray]] | None:
    """Per-prime subgroups of q-power-order elements, or None if some set
    fails to be a subgroup of full Sylow size (i.e. the group is not nilpotent)."""
    size = h_idx.size
    ords = element_orders(tab.params)[h_idx]
    out: list[tuple[int, np.ndarray]] = []
    for q in prime_factors(size):
        q_part, _ = _split_by_primes(size, (q,))
        sel = h_idx[q_part % ords == 0]
        if sel.size != q_part or not _closed_under_product(tab, sel):
            return None
        out.append((q, sel))
    return out


def _factor_sylow(
    p: MetacyclicParams, tab: CayleyTable, prime: int, sylow_idx: np.ndarray
) -> SylowFactorization:
    """Find cyclic <alpha> normal and <beta> with product the whole Sylow
    subgroup and the local divisibility condition; deterministic search order
    (alpha by decreasing order then normal form, beta by normal form)."""
    size = int(sylow_idx.size)
    ords = element_orders(p)[sylow_idx]
    elems = [tab.el(i) for i in sylow_idx]  # ascending normal-form order
    if int(ords.max()) == size:
        gen = elems[int(np.argmax(ords == size))]
        sylow = Subgroup(frozenset(elems), generator=gen)
        return SylowFactorization(
            prime=prime,
            sylow=sylow,
            normal_part=trivial_subgroup(p),
            complement_part=cyclic_subgroup(p, gen),
            twist_exponent=1,
            tail_exponent=0,
        )
    sylow = Subgroup(frozenset(elems))
    order_of = {g: int(o) for g, o in zip(elems, ords)}
    for alpha in sorted(elems, key=lambda g: (-order_of[g], g)):
        part_a = cyclic_subgroup(p, alpha)
        a_idx = tab.idx_array(part_a.elements)
        if not np.isin(tab.conjugates(sylow_idx, a_idx), a_idx).all():
            continue  # <alpha> not normal in the Sylow subgroup
        for beta in elems:
            part_b = cyclic_subgroup(p, beta)
            meet = len(part_a.elements & part_b.elements)
            if part_a.order * part_b.order != size * meet:
                continue  # <alpha><beta> falls short of the Sylow subgroup
            index = size // part_a.order
            tail = element_log(p, alpha, power(p, beta, index))
            twist = element_log(p, alpha, conjugate(p, alpha, beta))
            if tail % math.gcd(part_a.order, twist - 1) == 0:
                return SylowFactorization(
                    prime=prime,
                    sylow=sylow,
                    normal_part=part_a,
                    complement_part=part_b,
                    twist_exponent=twist,
                    tail_exponent=tail,
                )
    raise SearchFailed(
        f"no two-generator factorisation with the divisibility condition "
        f"exists for the Sylow {prime}-subgroup of the Hall part of {p}"
    )


def _conjugate_rows(tab: CayleyTable, sub_idx: np.ndarray) -> np.ndarray:
    """Sorted index rows of the G-conjugates of a subgroup, ascending, from a
    walk over its orbit under the defining generators."""
    gens = [tab.idx(g) for g in defining_generators(tab.params)]
    seen, frontier = {tuple(sub_idx.tolist())}, [sub_idx]
    while frontier:
        for row in np.sort(tab.conjugates(gens, frontier.pop()), axis=1):
            if (key := tuple(row.tolist())) not in seen:
                seen.add(key)
                frontier.append(row)
    return np.array(sorted(seen), dtype=np.int64)


def _try_prime_set(
    p: MetacyclicParams, tab: CayleyTable, primes: tuple[int, ...]
) -> HallDecomposition | None:
    _, n_target = _split_by_primes(p.order, primes)
    pi_prod = math.prod(primes)
    n_idx = np.nonzero(np.gcd(element_orders(p), pi_prod) == 1)[0]
    if n_idx.size != n_target or not _closed_under_product(tab, n_idx):
        return None  # the pi'-elements do not form a Hall subgroup
    a, b = defining_generators(p)
    h0 = generate_subgroup(p, [pi_part(p, a, primes), pi_part(p, b, primes)])
    if h0.order * n_target != p.order:
        raise InternalCheckError(
            "pi-parts of the defining generators must span a Hall subgroup"
        )
    h0_idx = tab.idx_array(h0.elements)
    if _sylow_split(tab, h0_idx) is None:
        return None  # Hall subgroup not nilpotent; conjugates are isomorphic

    zeta = _split_by_primes(p.m, primes)[1]
    v = ((p.m // zeta) % p.m, 0)
    kernel_part = cyclic_subgroup(p, v)
    u = pi_complement_part(p, b, primes)
    top_part = cyclic_subgroup(p, u)
    if len(kernel_part.elements & top_part.elements) != 1:
        return None
    if kernel_part.order * top_part.order != int(n_idx.size):
        return None  # N does not split as V x| U
    if math.gcd(p.r - 1, kernel_part.order) != 1:
        return None
    derived = tab.idx_array(derived_closed_form(p).elements)
    if not np.array_equal(
        np.intersect1d(derived, n_idx), tab.idx_array(kernel_part.elements)
    ):
        return None  # G' ∩ N != V
    if not np.array_equal(
        np.intersect1d(derived, h0_idx), tab.commutator_span_idx(h0_idx, h0_idx)
    ):
        return None  # G' ∩ H != H' (conjugation-invariant, so checked once)

    u_idx = tab.idx_array(top_part.elements)
    for row in _conjugate_rows(tab, h0_idx):
        if tab.commute(u_idx, row):
            hall_idx = row
            break
    else:
        return None  # U centralises no Hall pi-subgroup
    hall = tab.subgroup(hall_idx)
    split = _sylow_split(tab, hall_idx)
    if split is None:
        raise InternalCheckError("nilpotency must be conjugation invariant")

    if kernel_part.is_trivial:
        eta = 1
    else:
        eta = element_log(p, v, conjugate(p, v, u))
    if pow(eta, top_part.order, kernel_part.order) != 1 % kernel_part.order:
        raise InternalCheckError(
            "the conjugation exponent of U on V must have order dividing |U|"
        )

    return HallDecomposition(
        params=p,
        primes=primes,
        hall_subgroup=hall,
        normal_complement=tab.subgroup(n_idx),
        kernel_part=kernel_part,
        top_part=top_part,
        twist_exponent=eta,
        sylow_factorizations=tuple(
            _factor_sylow(p, tab, q, q_idx) for q, q_idx in split
        ),
    )


def hall_decomposition(p: MetacyclicParams) -> HallDecomposition:
    """Search prime sets (decreasing size, then lexicographic) for a usable
    decomposition; SearchFailed if none qualifies."""
    if p.order == 1:
        triv = trivial_subgroup(p)
        return HallDecomposition(p, (), triv, triv, triv, triv, 1, ())
    tab = cayley_table(p)
    primes = prime_factors(p.order)
    for size in range(len(primes), 0, -1):
        for subset in combinations(primes, size):
            found = _try_prime_set(p, tab, subset)
            if found is not None:
                return found
    raise SearchFailed(f"no prime set yields a usable Hall decomposition for {p}")


@dataclass(frozen=True)
class HallFamilyBuild:
    """Decomposition, orbit seeds, closed family, and its transversal."""

    decomposition: HallDecomposition
    seeds: tuple[Subgroup, ...]
    family: Family
    transversal: Transversal


def build_hall_family(p: MetacyclicParams) -> HallFamilyBuild:
    """Assemble the cyclic family from a Hall decomposition (CLI mode ``hall``).

    Seeds are the nontrivial pieces {V, U, <alpha_q>, <beta_q>}; the family
    is their conjugacy closure with set semantics (seeds sharing an orbit
    collapse to one component).  The transversal confirms that every
    component is a full orbit; the build then checks that every seed is a
    member and every component contains a seed.
    """
    decomp = hall_decomposition(p)
    seeds: list[Subgroup] = []
    candidates = [decomp.kernel_part, decomp.top_part]
    for fact in decomp.sylow_factorizations:
        candidates.extend((fact.normal_part, fact.complement_part))
    for sub in candidates:
        if not sub.is_trivial and sub not in seeds:
            seeds.append(sub)
    family = conjugacy_closure(p, seeds, distinct_orbits=True)
    found = transversal(p, family)  # also checks that every component is an orbit
    component_of = dict(family.indexed_members())
    if {component_of.get(seed) for seed in seeds} != set(family.components):
        raise InternalCheckError("hall family transversal bookkeeping out of sync")
    return HallFamilyBuild(
        decomposition=decomp, seeds=tuple(seeds), family=family, transversal=found
    )
