"""Conjugation-closed families of cyclic subgroups and their two key tests.

An *active-sum family* for G is a conjugation-closed list of nontrivial
cyclic subgroups whose union generates G.  Families here are **indexed**:
each seed subgroup contributes its own conjugation orbit as a separate
component, and two components may consist of the same underlying subgroups.
That matters for degenerate presentations — with s = 1 the generator b is a
power of a, so <a> and <b> can coincide as sets while the family still has
two summands; the independence test must (and does) count both, which is
exactly what makes independence of the two-generator family equivalent to
the divisibility condition gcd(m, r-1) | t with no exceptions.  Callers who
want plain set semantics (one component per distinct orbit) pass
``distinct_orbits=True`` to :func:`conjugacy_closure`.

The two properties governing whether the active sum of the family recovers
G are implemented here:

* **regularity** — for every member F (conjugacy-class representatives
  suffice, since all the data transforms equivariantly under conjugation):

      [F, N_G(F)] = F ∩ G'

  The left side always sits inside the right (commutators with normalizing
  elements stay in F, and all commutators lie in G'), so the check fails only
  when some element of F ∩ G' is missed.  G' = <a**(r-1)> is the closed
  form.  Both other sides are closed forms for cyclic F = <g>: h normalises F
  iff g**h lies in F (g**h has the order of g), say g**h = g**e_h; then
  [g**k, h] = g**-k (g**h)**k = g**(k*(e_h - 1)), so
  [F, N_G(F)] = <g**d> with d = gcd(|F|, e_h - 1 over h in N_G(F)).  As
  e1*e2 - 1 = e1*(e2 - 1) + (e1 - 1), generators of N_G(F) suffice: the
  Schreier generators w*x*w'**-1 of the transversal's own orbit walk
  (Schreier's lemma; Holt, Eick & O'Brien, *Handbook of Computational Group
  Theory*, 2005, ch. 4).  [g, h] = g**(e_h - 1) has order
  |F|/gcd(|F|, e_h - 1), so |F|/d is the lcm of their closed-form orders.

* **independence** — the canonical map  ⊕_{F in T} F/(F ∩ G') → G/G'  is an
  isomorphism, where T is a transversal of conjugacy classes (conjugate
  members have equal image, so the transversal choice does not matter).
  G/G' is Z^2 over the exponents of (a, b) modulo the lattice of (m, 0),
  (-t, s) and (r-1, 0), that is of (g, 0) and (-t, s), g = gcd(m, r-1): of
  order g*s, with invariant factors d1 = gcd(g, t, s) and g*s/d1.  Checked
  as: the product of the local orders |F/(F ∩ G')| is g*s, and the
  representatives' exponent vectors and those two rows span Z^2, that is,
  the gcd of their 2 x 2 minors (d1*d2 of their Smith form) is 1 (Newman,
  *Integral Matrices*, 1972).  Order plus surjectivity forces bijectivity.

The canonical two-generator family — <a>, <b> and all their conjugates — is
built by ``build_generator_family``.  For it, independence is equivalent to
the single divisibility condition  gcd(m, r-1) | t, and regularity always
holds; ``regularity_witness`` constructs the explicit normalizing element
a**z (z = -t/gcd * Bezout coefficient of r-1) with  b**(a**z) = b**(s+1),
exhibiting b**s = [b, a**z] inside [<b>, N_G(<b>)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable

from .core import (
    Element,
    MetacyclicParams,
    Subgroup,
    commutator,
    conjugate,
    cyclic_subgroup,
    element_order,
    generate_subgroup,
    inverse,
    mul,
    power,
)
from .errors import ConditionFails, InternalCheckError
from .lattice import AbelianStructure
from .structure import derived_closed_form, twist_gcd

def defining_generators(p: MetacyclicParams) -> tuple[Element, Element]:
    """The defining generators a and b.

    a reduces to the identity when m = 1.  For s = 1 the relation b = a**t
    makes b an element of <a>, so its normal form is (t mod m, 0) — possibly
    a nontrivial power of a — rather than an out-of-range (0, 1).
    """
    return 1 % p.m * p.s, 1 if p.s > 1 else p.t % p.m


@dataclass(frozen=True)
class Family:
    """Immutable indexed family: members sorted by element set, then component.

    ``subgroups`` and ``components`` run in parallel: member i is the
    subgroup ``subgroups[i]`` belonging to the conjugation orbit (component)
    labelled ``components[i]``.  Distinct components may repeat the same
    underlying subgroup; within one component all members are distinct.
    Every member is cyclic with its generator witness set: the regularity,
    independence and presentation code reads it without checking.
    """

    params: MetacyclicParams
    subgroups: tuple[Subgroup, ...]
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.subgroups) != len(self.components):
            raise InternalCheckError("family members and component labels misaligned")
        keys = [(sub.key, comp) for sub, comp in zip(self.subgroups, self.components)]
        if keys != sorted(keys):
            raise InternalCheckError("family members must be sorted by (element set, component)")
        if any(sub.generator is None for sub in self.subgroups):
            raise InternalCheckError("family members must be cyclic with generator witnesses")

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def indexed_members(self) -> tuple[tuple[Subgroup, int], ...]:
        """(subgroup, component) pairs in canonical member order."""
        return tuple(zip(self.subgroups, self.components))

    @cached_property
    def transversal(self) -> "Transversal":
        """The family's transversal, computed once (see :func:`transversal`)."""
        p, by_component = self.params, {}
        for sub, comp in self.indexed_members():
            by_component.setdefault(comp, set()).add(sub)
        orbits = []
        for comp, members in sorted(by_component.items()):
            seed = min(members, key=lambda s: s.key)
            orbit, closing = _orbit_of(p, seed)
            if orbit.keys() != members:
                raise ValueError("family is not conjugation closed")
            schreier = {mul(p, mul(p, w, x), inverse(p, orbit[f])) for w, x, f in closing}
            orbits.append((seed, len(members), tuple(sorted(schreier)), comp))
        orbits.sort(key=lambda orbit: (orbit[0].key, orbit[3]))
        reps, sizes, schreiers, _ = zip(*orbits) if orbits else ((),) * 4
        return Transversal(reps, sizes, schreiers)

    @cached_property
    def acting(self) -> tuple[tuple[int, ...], bool]:
        """(acting member indices, whether the family generates G), one walk.

        The first member of each component (its transversal representative)
        acts; while their generators span less than G, each further member
        whose generator lies outside the span acts too, in canonical order.
        A family that still falls short has every member acting.
        """
        gens = [s.generator for s in self.subgroups]
        first: dict[int, int] = {}
        for i, comp in enumerate(self.components):
            first.setdefault(comp, i)
        acting = sorted(first.values())
        span = generate_subgroup(self.params, (gens[i] for i in acting))
        for i in range(len(self)):
            if span.order < self.params.order and gens[i] not in span.elements:
                acting = sorted(acting + [i])
                span = generate_subgroup(self.params, (gens[k] for k in acting))
        if span.order < self.params.order:
            return tuple(range(len(self))), False
        return tuple(acting), True


@dataclass(frozen=True)
class Transversal:
    """One representative per orbit of the family and its normaliser's Schreier generators."""

    representatives: tuple[Subgroup, ...]
    orbit_sizes: tuple[int, ...]
    normalizer_generators: tuple[tuple[Element, ...], ...]

    def __len__(self) -> int:
        return len(self.representatives)


def _assemble_family(p: MetacyclicParams, orbits: Iterable[Iterable[Subgroup]]) -> Family:
    members: list[tuple[Subgroup, int]] = []
    for comp, orbit in enumerate(orbits):
        members.extend((sub, comp) for sub in orbit)
    members.sort(key=lambda pair: (pair[0].key, pair[1]))
    return Family(
        params=p,
        subgroups=tuple(sub for sub, _ in members),
        components=tuple(comp for _, comp in members),
    )


def _conjugation_maps(p: MetacyclicParams) -> tuple[Callable, Callable]:
    """x -> x**a and x -> x**b in closed form, for the defining generators:
    (i, j)**a = (i - 1 + r**-j, j) and (i, j)**b = (i*r, j)."""
    m, s, r, twist = p.m, p.s, p.r, p._rinv_pows
    return (
        lambda x: (x // s - 1 + twist[x % s]) % m * s + x % s,
        lambda x: x // s * r % m * s + x % s,
    )


def _orbit_of(p: MetacyclicParams, seed: Subgroup) -> tuple[dict[Subgroup, Element], list]:
    """The conjugation orbit of seed with a conjugator w (seed**w = F) per member
    F, and the walk's edges (w, x, F') to known members F' = F**x: the w*x*w'**-1
    (w' the conjugator of F') are the Schreier generators of N_G(seed)."""
    steps = tuple(zip(defining_generators(p), _conjugation_maps(p)))
    orbit = {seed: 0}
    closing: list[tuple[Element, Element, Subgroup]] = []
    frontier = [seed]
    while frontier:
        sub = frontier.pop()
        w = orbit[sub]
        for x, f in steps:
            gen = None if sub.generator is None else f(sub.generator)
            stays = gen in sub.elements  # <g**x> = <g>
            conj = sub if stays else Subgroup(frozenset(map(f, sub.elements)), generator=gen)
            if conj not in orbit:
                orbit[conj] = mul(p, w, x)
                frontier.append(conj)
            else:
                closing.append((w, x, conj))
    return orbit, closing


def conjugacy_closure(
    p: MetacyclicParams,
    seeds: Iterable[Subgroup],
    distinct_orbits: bool = False,
) -> Family:
    """Close each nontrivial seed under conjugation by G, one component each.

    Conjugating by the two defining generators repeatedly reaches every
    G-conjugate; seeds carry a generator witness, as every :class:`Family`
    member must.  By default every nontrivial seed opens its own component
    even when two seeds have the same orbit (indexed semantics); with
    ``distinct_orbits=True`` a seed whose orbit was already produced by an
    earlier seed is skipped (set semantics).  Whether the result generates G
    is *not* checked here; use :func:`is_generating`.
    """
    orbits: list[dict[Subgroup, Element]] = []
    seen_orbits: set[frozenset[Subgroup]] = set()
    for seed in seeds:
        if seed.is_trivial:
            continue
        orbit, _ = _orbit_of(p, seed)
        if distinct_orbits:
            key = frozenset(orbit)
            if key in seen_orbits:
                continue
            seen_orbits.add(key)
        orbits.append(orbit)
    return _assemble_family(p, orbits)


def build_generator_family(p: MetacyclicParams) -> Family:
    """The family of <a>, <b> and all their conjugates (CLI mode ``theorem3``).

    Indexed semantics: <a> and <b> each open a component even when the two
    subgroups coincide (s = 1 presentations with b a generating power of a),
    so the independence test counts two summands in that case.
    """
    a, b = defining_generators(p)
    return conjugacy_closure(p, [cyclic_subgroup(p, a), cyclic_subgroup(p, b)])


def transversal(p: MetacyclicParams, family: Family) -> Transversal:
    """Deterministic transversal: one representative per family component.

    Each component must be a full conjugation orbit (ValueError otherwise);
    its representative is the member with the lexicographically least
    canonical element set.  Representatives are sorted by that same key,
    component label breaking ties between coincident orbits.  Computed once
    per family and cached on it; a failed check raises on every call.
    """
    if family.params != p:
        raise ValueError(f"family belongs to {family.params}, not {p}")
    return family.transversal


def is_generating(p: MetacyclicParams, family: Family) -> bool:
    """True iff the union of the family generates the whole group: the walk
    of :attr:`Family.acting` decides it."""
    return family.acting[1]


def divisibility_condition(p: MetacyclicParams) -> bool:
    """gcd(m, r-1) | t — equivalent to independence of the generator family."""
    return p.t % math.gcd(p.m, p.r - 1) == 0


# --------------------------------------------------------------------------
# Regularity.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityCheck:
    """Both sides of [F, N_G(F)] = F ∩ G' for one representative."""

    representative: Subgroup
    commutator_side: Subgroup
    intersection_side: frozenset[Element]

    @property
    def ok(self) -> bool:
        return self.commutator_side.elements == self.intersection_side


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    checks: tuple[RegularityCheck, ...]


def is_regular(p: MetacyclicParams, family: Family) -> RegularityReport:
    """Check [F, N_G(F)] = F ∩ G' on a transversal, with full witnesses.

    Closed forms (module docstring): one element order per Schreier generator
    until the lcm reaches |F|.  Conjugation equivariance of every ingredient
    makes per-representative checking equivalent to checking all members.
    """
    derived = derived_closed_form(p).elements
    found = transversal(p, family)
    checks = []
    for rep, schreier in zip(found.representatives, found.normalizer_generators):
        g, span = rep.generator, 1  # span = lcm of the orders of [g, h] = |F|/d
        for h in schreier:
            span = math.lcm(span, element_order(p, commutator(p, g, h)))
            if span == rep.order:
                break
        commutators = Subgroup(cyclic_subgroup(p, power(p, g, rep.order // span)).elements)
        checks.append(RegularityCheck(rep, commutators, rep.elements & derived))
    return RegularityReport(regular=all(c.ok for c in checks), checks=tuple(checks))


# --------------------------------------------------------------------------
# Independence.
# --------------------------------------------------------------------------


def abelianized_group(p: MetacyclicParams) -> AbelianStructure:
    """G/G' in closed form: invariant factors d1 = gcd(g, t, s) and g*s/d1,
    g = gcd(m, r-1) (module docstring)."""
    g = twist_gcd(p)
    d1 = math.gcd(g, p.t, p.s)
    return AbelianStructure(tuple(d for d in (d1, g * p.s // d1) if d > 1), 0)


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    representatives: tuple[Subgroup, ...]
    local_orders: tuple[int, ...]
    product_order: int
    target_order: int
    spans_quotient: bool


def is_independent(p: MetacyclicParams, family: Family) -> IndependenceReport:
    """Check that ⊕_T F/(F ∩ G') → G/G' is an isomorphism.

    The map restricted to each cyclic summand sends the generator a**i b**j
    of F to the class of its exponent vector (i, j), so surjectivity is
    equivalent to those vectors and the rows (g, 0), (-t, s) of G/G'
    spanning Z^2: the gcd of their 2 x 2 minors is 1.  Injectivity then
    follows from the order count against |G/G'| = g*s.
    """
    derived = derived_closed_form(p).elements
    reps = transversal(p, family).representatives
    local_orders = tuple(rep.order // len(rep.elements & derived) for rep in reps)
    g = twist_gcd(p)
    target = g * p.s
    rows = [(g, 0), (-p.t, p.s), *(divmod(rep.generator, p.s) for rep in reps)]
    spans = math.gcd(*(a * d - b * c for (a, b), (c, d) in combinations(rows, 2))) == 1
    product = math.prod(local_orders)
    return IndependenceReport(
        independent=(product == target) and spans,
        representatives=reps,
        local_orders=local_orders,
        product_order=product,
        target_order=target,
        spans_quotient=spans,
    )


# --------------------------------------------------------------------------
# Explicit normalizer witness for the generator family.
# --------------------------------------------------------------------------


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@dataclass(frozen=True)
class ConjugationWitness:
    """The element a**z with b**(a**z) = b**(s+1), certifying b**s in [<b>, N_G(<b>)]."""

    z: int
    q: int
    alpha: int
    beta: int

    def element(self, p: MetacyclicParams) -> Element:
        return self.z % p.m * p.s


def regularity_witness(p: MetacyclicParams) -> ConjugationWitness:
    """Construct and verify the witness; requires gcd(m, r-1) | t.

    Writing t = q*gcd(m, r-1) and gcd(m, r-1) = alpha*m + beta*(r-1), the
    element a**z with z = -q*beta satisfies  b**(a**z) = b * a**t = b**(s+1)
    because conjugating b by a**-1 multiplies it by a**(r-1).  The identity
    is re-verified here by direct element arithmetic.
    """
    g = math.gcd(p.m, p.r - 1)
    if p.t % g != 0:
        raise ConditionFails(f"gcd(m, r-1) = {g} does not divide t = {p.t}")
    q = p.t // g
    g2, alpha, beta = xgcd(p.m, p.r - 1)
    if g2 != g:
        raise InternalCheckError(f"extended gcd disagreement: {g2} != {g}")
    z = (-q * beta) % p.m
    witness = ConjugationWitness(z=z, q=q, alpha=alpha, beta=beta)
    _, b = defining_generators(p)
    left = conjugate(p, b, witness.element(p))
    right = power(p, b, p.s + 1)
    if left != right:
        raise InternalCheckError(
            f"witness verification failed for {p}: b**(a**{z}) = {left} != b**(s+1) = {right}"
        )
    return witness
