"""Hall decomposition of a metacyclic group and the cyclic family it yields.

For a set of primes ``pi``, write every positive integer n as a product of
its pi-part and pi'-part.  The decomposition sought here is

    G = N x| H,   N the (normal) set of all elements of pi'-order,
                  H a nilpotent Hall pi-subgroup,

together with enough extra structure to assemble a conjugation-closed family
of cyclic subgroups whose active sum recovers G:

* ``V`` — the pi'-part of the cyclic kernel <a> (always normal in G),
* ``U`` — the pi'-part of <b>; the decomposition requires N = V x| U with
  U centralising H, gcd(r - 1, |V|) = 1, G' ∩ H = H' and G' ∩ N = V,
* per Sylow subgroup H_q of H (H nilpotent means every such set of q-power
  order elements really is a subgroup): a two-generator factorisation
  H_q = <alpha> <beta> with <alpha> normal and the divisibility condition
  gcd(|alpha|, twist - 1) | tail, where ``twist`` and ``tail`` are the
  discrete logarithms base alpha of alpha**beta and beta**[H_q:<alpha>].
  That condition makes the generator family of H_q independent, which is
  what the active-sum argument needs locally.

The search tries prime sets in decreasing size (then lexicographically) and
returns the first that passes three tests, in plain integer arithmetic: the
pi'-elements number |G|_pi' (counted, below), gcd(r - 1, m_pi') = 1, and H
is nilpotent.  With alpha = pi(a), beta = pi(b) = b**e, u = pi'(b), and
m_pi, m_pi', s_pi, s_pi' the parts of m and s, the rest follows:

1. A passing count makes N the normal Hall pi'-subgroup, so |V| = m_pi'.
2. V ∩ U lies in <a> ∩ <b> = <a**t>, central as m | t*(r - 1).  A
   nontrivial v there has v**b = v, so its order divides r - 1 and |V|:
   the gcd test leaves V ∩ U = 1.
3. N/V is the pi'-part of the cyclic G/<a>, generated by the image of u
   (b's generates G/<a>, beta's is a pi-element).  So N = V U, and
   |V| |U| = |N| says V ∩ U = 1.
4. u**(s_pi') lies in <a> ∩ U, inside V ∩ U = 1.  So u**s = 1,
   b**(s_pi') = beta**(s_pi'), and b**s = a**t is a pi-element: m_pi' | t.
   So H0 = {a**i b**j : m_pi' | i, s_pi' | j} is closed under ``core.mul``
   (the carry a**t keeps m_pi' | i) and holds alpha and beta, so it is
   <alpha, beta>: both have |G|_pi elements, as G = <alpha, beta> N.
5. <alpha> and N are normal of coprime orders, so [alpha, u] = 1; u and
   beta are powers of b.  So U centralises H0.
6. G' = <a**(r-1)> lies in <a>: its pi'-part G' ∩ N is V, as m_pi' is
   prime to r - 1.  By 5, u = b**(1 - e) fixes alpha, so r = r**e
   (mod m_pi), and its pi-part G' ∩ H0 is <alpha**(r-1)> =
   <alpha**(r**e - 1)> = <[alpha, beta]> = H0' (below).
7. A conjugate of H0 has the same columns j (G/<a> is abelian) and one
   coset {a**i : i = c_j mod m_pi'} of <alpha> per column (<alpha> is
   normal).  Only H0 has every c_j = 0, so it has the least element tuple
   of its conjugates: the canonical choice of H.

``_try_prime_set`` re-checks 4 and 5 on alpha and beta.  Neither N nor a
Sylow subgroup is closed:

* N and the Sylow sets are counted.  G is solvable, so (P. Hall) its
  pi'-elements are the union of its Hall pi'-subgroups, and the q-elements
  of H the union of its Sylow q-subgroups; a count equal to that subgroup
  order leaves only the one subgroup, which is then normal.  a**i b**j has
  pi'-order iff the order k of b**j modulo <a> is a pi'-number and the
  pi-part of m divides A in (a**i b**j)**k = a**A (``core.element_orders``):
  one arithmetic progression of i per such column j.
* H0' = <[alpha, beta]>: <alpha> lies in the cyclic normal <a>, so its
  subgroup <[alpha, beta]> is characteristic there and normal in H0, and
  H0 modulo it is generated by two commuting images.

The family is the conjugacy closure of the nontrivial seeds
{V, U, <alpha_q>, <beta_q>}: closing under all of G automatically adds the
V-conjugates of U (the members ``<u * v**(i*(eta - 1))>`` with
v**u = v**eta) and the H-conjugates of the Sylow pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .core import (
    Element,
    MetacyclicParams,
    Subgroup,
    _check_cap,
    commutator,
    conjugate,
    cyclic_subgroup,
    element_log,
    element_order,
    element_orders,
    geometric_sum_mod,
    inverse,
    mul,
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
    n = element_order(p, g)
    n_pi, n_rest = _split_by_primes(n, primes)
    _, _, y = xgcd(n_pi, n_rest)
    return power(p, g, (y * n_rest) % n)


def pi_complement_part(p: MetacyclicParams, g: Element, primes: tuple[int, ...]) -> Element:
    """The power g**(x*n_pi) of g whose order is the pi'-part of the order
    of g: g times the inverse of its pi-part (:func:`pi_part`)."""
    return mul(p, g, inverse(p, pi_part(p, g, primes)))


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


def _pi_prime_progressions(p: MetacyclicParams, primes: tuple[int, ...]) -> list[tuple]:
    """(j, i0, step) per column j: the pi'-elements a**i b**j are those with
    i = i0 mod step (module docstring), i.e. i*geo_j + c_j = 0 mod m_pi.  Only
    the columns j divisible by the pi-part of s have k = s/gcd(j, s) pi'."""
    m_pi, s = _split_by_primes(p.m, primes)[0], p.s
    out = []
    for j in range(0, s, _split_by_primes(s, primes)[0]):
        g = math.gcd(j, s)
        geo = geometric_sum_mod(pow(p.r, -j, m_pi), s // g, m_pi)
        c, d = p.t * (j // g) % m_pi, math.gcd(geo, m_pi)
        if c % d == 0:
            step = m_pi // d
            out.append((j, -c // d * pow(geo // d, -1, step) % step, step))
    return out


def _sylow_split(p: MetacyclicParams, elems: list[Element]) -> list[tuple[int, dict]] | None:
    """Per-prime Sylow subgroups of H as counted sets of q-power-order
    elements, each a dict element -> order, ascending like H's ``elems``;
    None if a count differs from |H|_q (H is not nilpotent)."""
    size = len(elems)
    ords = element_orders(p, elems)
    out: list[tuple[int, dict[Element, int]]] = []
    for q in prime_factors(size):
        q_part, _ = _split_by_primes(size, (q,))
        sel = {x: n for x, n in zip(elems, ords) if q_part % n == 0}
        if len(sel) != q_part:
            return None
        out.append((q, sel))
    return out


def _factor_sylow(p: MetacyclicParams, prime: int, order_of: dict) -> SylowFactorization:
    """Find cyclic <alpha> normal and <beta> with product the Sylow subgroup
    (``order_of``: element -> order, ascending) and the local divisibility
    condition; alpha by decreasing order then normal form, beta by normal form."""
    elems, size = list(order_of), len(order_of)
    if max(order_of.values()) == size:
        gen = next(x for x in elems if order_of[x] == size)
        sylow = Subgroup(frozenset(elems), generator=gen)  # cyclic: <alpha> trivial
        return SylowFactorization(prime, sylow, trivial_subgroup(p), cyclic_subgroup(p, gen), 1, 0)
    sylow = Subgroup(frozenset(elems))
    for alpha in sorted(elems, key=lambda g: (-order_of[g], g)):
        part_a = cyclic_subgroup(p, alpha)
        if not all(conjugate(p, alpha, y) in part_a.elements for y in elems):
            continue  # <alpha> not normal in the Sylow subgroup
        for beta in (x for x in elems if part_a.order * order_of[x] >= size):
            part_b = cyclic_subgroup(p, beta)  # a smaller beta cannot cover the Sylow
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


def _try_prime_set(p: MetacyclicParams, primes: tuple[int, ...]) -> HallDecomposition | None:
    """The decomposition for ``primes``, or None if a test rejects it (module docstring)."""
    (m_pi, zeta), (s_pi, s_rest) = _split_by_primes(p.m, primes), _split_by_primes(p.s, primes)
    n_columns = _pi_prime_progressions(p, primes)
    if sum(p.m // step for _, _, step in n_columns) != zeta * s_rest:
        return None  # the pi'-elements do not form a Hall subgroup
    _check_cap(m_pi * s_pi, "Hall subgroup order")
    if math.gcd(p.r - 1, zeta) != 1:
        return None  # V ∩ U is nontrivial
    rows, columns = range(0, p.m, zeta), range(0, p.s, s_rest)
    hall = Subgroup(frozenset(i * p.s + j for i in rows for j in columns))
    a, b = defining_generators(p)
    alpha, beta = pi_part(p, a, primes), pi_part(p, b, primes)
    u = pi_complement_part(p, b, primes)
    if not {alpha, beta} <= hall.elements or any(commutator(p, u, y) for y in (alpha, beta)):
        raise InternalCheckError("pi(a) and pi(b) must lie in H0 and commute with pi'(b)")
    split = _sylow_split(p, hall.key)
    if split is None:
        return None  # H0 is not nilpotent

    v = p.m // zeta % p.m * p.s
    kernel_part = cyclic_subgroup(p, v)
    top_part = cyclic_subgroup(p, u)
    n_elems = (i * p.s + j for j, i0, step in n_columns for i in range(i0, p.m, step))
    normal = Subgroup(frozenset(n_elems))
    eta = 1 if kernel_part.is_trivial else element_log(p, v, conjugate(p, v, u))
    if pow(eta, top_part.order, kernel_part.order) != 1 % kernel_part.order:
        raise InternalCheckError("the conjugation exponent of U on V must have order dividing |U|")

    return HallDecomposition(
        params=p,
        primes=primes,
        hall_subgroup=hall,
        normal_complement=normal,
        kernel_part=kernel_part,
        top_part=top_part,
        twist_exponent=eta,
        sylow_factorizations=tuple(_factor_sylow(p, q, order_of) for q, order_of in split),
    )


def hall_decomposition(p: MetacyclicParams) -> HallDecomposition:
    """Search prime sets (decreasing size, then lexicographic) for a usable
    decomposition; SearchFailed if none qualifies."""
    if p.order == 1:
        triv = trivial_subgroup(p)
        return HallDecomposition(p, (), triv, triv, triv, triv, 1, ())
    primes = prime_factors(p.order)
    for size in range(len(primes), 0, -1):
        for subset in combinations(primes, size):
            found = _try_prime_set(p, subset)
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
