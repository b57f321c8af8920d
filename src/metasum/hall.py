"""Hall decomposition of a metacyclic group and the cyclic family it yields.

For a set of primes ``pi``, write every positive integer n as a product of
its pi-part and pi'-part.  The decomposition sought here is

    G = N x| H,   N the (normal) set of all elements of pi'-order,
                  H a nilpotent Hall pi-subgroup,

together with enough extra structure to assemble a conjugation-closed family
of cyclic subgroups whose active sum recovers G:

* ``V`` — the pi'-part of the cyclic kernel <a> (always normal in G),
* ``U`` — the pi'-part of <b>; the decomposition requires N = V x| U with
  U centralising H and gcd(r - 1, |V|) = 1, plus G' ∩ H = H' and
  G' ∩ N = V.  The last needs no test: G' lies in <a> and N ∩ <a> = V, so
  G' ∩ N = V iff |V| divides |G'| = m/gcd(m, r-1), which holds as |V|
  divides m and is prime to r - 1,
* per Sylow subgroup H_q of H (H nilpotent means every such set of q-power
  order elements really is a subgroup): a two-generator factorisation
  H_q = <alpha> <beta> with <alpha> normal and the divisibility condition
  gcd(|alpha|, twist - 1) | tail, where ``twist`` and ``tail`` are the
  discrete logarithms base alpha of alpha**beta and beta**[H_q:<alpha>].
  That condition makes the generator family of H_q independent, which is
  what the active-sum argument needs locally.

The search tries prime sets in decreasing size (then lexicographically) and
returns the first one for which every condition holds.  No Cayley table is
built: element orders and G' are closed forms, and the Sylow normality test
conjugates whole element arrays with ``core.mul_idx``/``core.inv_idx``.
The pi-parts alpha = pi(a), beta = pi(b) of the defining generators span a
Hall pi-subgroup H0 (the pi-part of <a> is normal, and the pi-part of b
covers the pi-share of G/<a>), so the candidate Hall subgroups are the
conjugates of H0, walked as its orbit under a and b by the closed-form
conjugations of ``families._orbit_of``.  Nilpotency and G' ∩ H = H'
transfer along conjugation and are tested once; U = <u> centralising a
conjugate (u commutes with each of its elements) is tested per conjugate,
in ascending order of their sorted element tuples.  Neither N nor a Sylow
subgroup is closed:

* N and the Sylow sets are counted.  G is solvable, so (P. Hall) its
  pi'-elements are the union of its Hall pi'-subgroups, and the q-elements
  of H the union of its Sylow q-subgroups; a count equal to that subgroup
  order leaves only the one subgroup, which is then normal.
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

import numpy as np

from .core import (
    Element,
    MetacyclicParams,
    Subgroup,
    commutator,
    conjugate,
    cyclic_subgroup,
    element_log,
    element_orders,
    generate_subgroup,
    inv_idx,
    mul,
    mul_idx,
    power,
    trivial_subgroup,
)
from .errors import InternalCheckError, SearchFailed
from .families import (
    Family,
    Transversal,
    _orbit_of,
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
    n = int(element_orders(p)[g])
    n_pi, n_rest = _split_by_primes(n, primes)
    _, _, y = xgcd(n_pi, n_rest)
    return power(p, g, (y * n_rest) % n)


def pi_complement_part(p: MetacyclicParams, g: Element, primes: tuple[int, ...]) -> Element:
    """The power of g whose order is the pi'-part of the order of g."""
    n = int(element_orders(p)[g])
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


def _sylow_split(p: MetacyclicParams, h_idx: np.ndarray) -> list[tuple[int, np.ndarray]] | None:
    """Per-prime Sylow subgroups of H as counted sets of q-power-order
    elements; None if a count differs from |H|_q (H is not nilpotent)."""
    size = h_idx.size
    ords = element_orders(p)[h_idx]
    out: list[tuple[int, np.ndarray]] = []
    for q in prime_factors(size):
        q_part, _ = _split_by_primes(size, (q,))
        sel = h_idx[q_part % ords == 0]
        if sel.size != q_part:
            return None
        out.append((q, sel))
    return out


def _factor_sylow(p: MetacyclicParams, prime: int, sylow_idx: np.ndarray) -> SylowFactorization:
    """Find cyclic <alpha> normal and <beta> with product the whole Sylow
    subgroup and the local divisibility condition; deterministic search order
    (alpha by decreasing order then normal form, beta by normal form)."""
    size = int(sylow_idx.size)
    ords = element_orders(p)[sylow_idx]
    elems = sylow_idx.tolist()  # ascending
    if int(ords.max()) == size:
        gen = elems[int(np.argmax(ords == size))]
        sylow = Subgroup(frozenset(elems), generator=gen)  # cyclic: <alpha> trivial
        return SylowFactorization(prime, sylow, trivial_subgroup(p), cyclic_subgroup(p, gen), 1, 0)
    sylow = Subgroup(frozenset(elems))
    order_of = dict(zip(elems, ords.tolist()))
    syl_inv = inv_idx(p, sylow_idx)
    for alpha in sorted(elems, key=lambda g: (-order_of[g], g)):
        part_a = cyclic_subgroup(p, alpha)
        alpha_conj = mul_idx(p, mul_idx(p, syl_inv, alpha), sylow_idx)
        if not part_a.elements.issuperset(alpha_conj.tolist()):
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


def _try_prime_set(p: MetacyclicParams, primes: tuple[int, ...]) -> HallDecomposition | None:
    _, n_target = _split_by_primes(p.order, primes)
    pi_prod = math.prod(primes)
    n_idx = np.nonzero(np.gcd(element_orders(p), pi_prod) == 1)[0]
    if n_idx.size != n_target:
        return None  # the pi'-elements do not form a Hall subgroup
    a, b = defining_generators(p)
    alpha, beta = pi_part(p, a, primes), pi_part(p, b, primes)
    h0 = generate_subgroup(p, [alpha, beta])
    if h0.order * n_target != p.order:
        raise InternalCheckError(
            "pi-parts of the defining generators must span a Hall subgroup"
        )
    if _sylow_split(p, np.array(h0.key)) is None:
        return None  # Hall subgroup not nilpotent; conjugates are isomorphic

    zeta = _split_by_primes(p.m, primes)[1]
    v = p.m // zeta % p.m * p.s
    kernel_part = cyclic_subgroup(p, v)
    u = pi_complement_part(p, b, primes)
    top_part = cyclic_subgroup(p, u)
    if len(kernel_part.elements & top_part.elements) != 1:
        return None
    if kernel_part.order * top_part.order != int(n_idx.size):
        return None  # N does not split as V x| U
    if math.gcd(p.r - 1, kernel_part.order) != 1:
        return None
    normal = Subgroup(frozenset(n_idx.tolist()))
    derived = derived_closed_form(p).elements
    if derived & h0.elements != cyclic_subgroup(p, commutator(p, alpha, beta)).elements:
        return None  # G' ∩ H != H' (conjugation-invariant, so checked once)

    for hall in sorted(_orbit_of(p, h0), key=lambda sub: sub.key):
        if all(mul(p, u, x) == mul(p, x, u) for x in hall.elements):
            break
    else:
        return None  # U centralises no Hall pi-subgroup
    split = _sylow_split(p, np.array(hall.key))
    if split is None:
        raise InternalCheckError("nilpotency must be conjugation invariant")

    eta = 1 if kernel_part.is_trivial else element_log(p, v, conjugate(p, v, u))
    if pow(eta, top_part.order, kernel_part.order) != 1 % kernel_part.order:
        raise InternalCheckError(
            "the conjugation exponent of U on V must have order dividing |U|"
        )

    return HallDecomposition(
        params=p,
        primes=primes,
        hall_subgroup=hall,
        normal_complement=normal,
        kernel_part=kernel_part,
        top_part=top_part,
        twist_exponent=eta,
        sylow_factorizations=tuple(_factor_sylow(p, q, q_idx) for q, q_idx in split),
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
