"""Exact arithmetic in finite metacyclic groups.

A parameter tuple ``(m, s, t, r)`` with ``r**s = 1 (mod m)`` and
``m | t*(r-1)`` presents the group

    G = < a, b | a**m = 1,  b**s = a**t,  b**-1 * a * b = a**r >

of order ``m*s``.  Those two congruences are exactly what is needed for the
presented group to have order ``m*s``; every element then has a unique normal
form ``a**i * b**j`` with ``0 <= i < m`` and ``0 <= j < s``.  The package
encodes it as the single integer ``x = i*s + j``, the mixed-radix form of the
exponent vector (i, j) of that polycyclic normal form (Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, 2005): the identity is 0, and the
integers sort as the pairs (i, j) do.  ``divmod(x, s)`` recovers (i, j).

Multiplication folds products back into normal form.  Conjugation by ``b``
sends ``a`` to ``a**r``, so moving ``a**k`` leftward through ``b**j`` twists
the exponent by ``r**-j`` (the inverse exists because ``r**s = 1 (mod m)``
forces ``gcd(r, m) = 1``).  Overflow of the ``b`` exponent past ``s``
contributes ``b**s = a**t``, and ``a**t`` is central because ``m | t*(r-1)``,
so it can be absorbed into the ``a`` exponent:

    (i, j) * (k, l) = ((i + k*r**-j + t*((j + l) // s)) % m,  (j + l) % s)

The module has two layers:

* element-level functions (``mul``, ``inverse``, ``power``, ``conjugate``,
  ``element_order``, ``generate_subgroup``) on single elements, in plain
  integer arithmetic: every production check is built from these, and
  ``element_order``/``element_orders`` is a closed form in O(log s) steps
  per column of the normal form; and
* a dense :class:`CayleyTable` (independent vectorised numpy arithmetic,
  memory quadratic in |G|) for the brute-force oracles and tests only: its
  whole-table scans cross-check the closed forms in
  :mod:`metasum.structure`, ``element_order``, ``mul``, ``inverse``,
  ``generate_subgroup`` and the table-free checks in :mod:`metasum.families`
  and :mod:`metasum.hall`.  numpy is imported inside that layer only, so the
  verdict path runs without it.

The element-enumeration cap (default ``10**6``, set by the ``METASUM_CAP``
environment variable and read by :func:`default_cap`) bounds every operation
that would materialise the whole group, a subgroup, or the ``s`` twist
factors that :func:`mul` reads; there is no per-call override.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .errors import CapExceeded, ConstraintViolation, NotAPower

Element = int  # the index i*s + j of a**i * b**j

DEFAULT_CAP = 10**6
CAP_ENV_VAR = "METASUM_CAP"


def default_cap() -> int:
    """Element-enumeration cap, honouring the METASUM_CAP environment variable."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConstraintViolation(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConstraintViolation(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


def _check_cap(n: int, what: str) -> None:
    """CapExceeded when ``n`` items of kind ``what`` would exceed the cap."""
    limit = default_cap()
    if n > limit:
        raise CapExceeded(f"{what} {n} exceeds enumeration cap {limit}")


@dataclass(frozen=True)
class MetacyclicParams:
    """Canonicalised presentation parameters (m, s, t, r).

    Instances always satisfy the presentation constraints; construct via
    :func:`validate` for friendly canonicalisation of out-of-range t and r.
    """

    m: int
    s: int
    t: int
    r: int

    def __post_init__(self) -> None:
        m, s, t, r = self.m, self.s, self.t, self.r
        if m < 1 or s < 1:
            raise ConstraintViolation(f"m and s must be positive, got m={m}, s={s}")
        if not 0 <= t < m:
            raise ConstraintViolation(f"t must lie in [0, m), got t={t} with m={m}")
        if not 1 <= r <= m:
            raise ConstraintViolation(f"r must lie in [1, m], got r={r} with m={m}")
        if pow(r, s, m) != 1 % m:
            raise ConstraintViolation(f"r**s = {r}**{s} is not 1 modulo {m}")
        if (t * (r - 1)) % m != 0:
            raise ConstraintViolation(f"{m} does not divide t*(r-1) = {t}*({r}-1)")

    @property
    def order(self) -> int:
        """Order of the presented group."""
        return self.m * self.s

    @cached_property
    def _rinv_pows(self) -> tuple[int, ...]:
        """r**-j mod m for 0 <= j < s, the twist factors used by mul.

        Checked against the cap before the s entries are allocated: s <= |G|,
        so a larger s belongs to a group no command may materialise anyway.
        """
        m, s = self.m, self.s
        _check_cap(s, "twist table size")
        rinv = pow(self.r, -1, m)  # exists since r**s = 1 mod m
        pows = [1 % m]
        for _ in range(s - 1):
            pows.append(pows[-1] * rinv % m)
        return tuple(pows)


def validate(m: int, s: int, t: int, r: int) -> MetacyclicParams:
    """Canonicalise and validate a parameter tuple.

    t is reduced modulo m; r is reduced modulo m into [1, m] (so r and
    r + m present the same group).  Raises ConstraintViolation naming the
    failed congruence otherwise.
    """
    if m < 1 or s < 1:
        raise ConstraintViolation(f"m and s must be positive, got m={m}, s={s}")
    return MetacyclicParams(m=m, s=s, t=t % m, r=(r - 1) % m + 1)


def mul(p: MetacyclicParams, x: Element, y: Element) -> Element:
    """Product of two elements."""
    (i, j), (k, l) = divmod(x, p.s), divmod(y, p.s)
    jl = j + l
    return (i + k * p._rinv_pows[j] + p.t * (jl // p.s)) % p.m * p.s + jl % p.s


def inverse(p: MetacyclicParams, x: Element) -> Element:
    """Inverse of an element.

    With l = -j mod s the b-exponents fold exactly once unless j = 0, so the
    a-exponent must cancel i plus that central contribution, pre-twisted by
    r**j to survive the move through b**j.
    """
    i, j = divmod(x, p.s)
    carry = p.t if j else 0
    return (-(i + carry) * pow(p.r, j, p.m)) % p.m * p.s + (-j) % p.s


def power(p: MetacyclicParams, x: Element, n: int) -> Element:
    """n-th power by binary exponentiation; negative n inverts first."""
    if n < 0:
        return power(p, inverse(p, x), -n)
    acc = 0
    base = x
    while n:
        if n & 1:
            acc = mul(p, acc, base)
        base = mul(p, base, base)
        n >>= 1
    return acc


def conjugate(p: MetacyclicParams, g: Element, h: Element) -> Element:
    """h**-1 * g * h."""
    hi = inverse(p, h)
    return mul(p, mul(p, hi, g), h)


def commutator(p: MetacyclicParams, x: Element, y: Element) -> Element:
    """[x, y] = x**-1 * y**-1 * x * y."""
    return mul(p, mul(p, inverse(p, x), inverse(p, y)), mul(p, x, y))


def geometric_sum_mod(r: int, n: int, mod: int) -> int:
    """(1 + r + ... + r**(n-1)) mod mod in O(log n) steps, by the binary
    digits of n: S(c + 2**e) = S(c) + r**c * S(2**e)."""
    total, r_c, block, r_e = 0, 1, 1, r % mod
    while n:
        if n & 1:
            total, r_c = (total + r_c * block) % mod, r_c * r_e % mod
        block, r_e, n = block * (1 + r_e) % mod, r_e * r_e % mod, n >> 1
    return total


def element_orders(p: MetacyclicParams, xs: Iterable[Element]) -> list[int]:
    """Multiplicative order of each x = a**i b**j in xs, in closed form.

    With k = s/gcd(j, s) the order of b**j modulo <a>, (a**i b**j)**k = a**A
    where A = i*(1 + y + ... + y**(k-1)) + t*j/gcd(j, s) and y = r**-j, so
    the order is k*m/gcd(A, m).  The column data (k, the geometric sum, the
    t-term) is computed once per column j that xs reaches, and each sum once
    per pair (y, k).
    """
    m, s, twist = p.m, p.s, p._rinv_pows
    columns: dict[int, tuple[int, int, int]] = {}
    sums: dict[tuple[int, int], int] = {}
    out = []
    for x in xs:
        i, j = divmod(x, s)
        if j not in columns:
            g = math.gcd(j, s)
            key = (twist[j], s // g)
            if key not in sums:
                sums[key] = geometric_sum_mod(*key, m)
            columns[j] = (s // g, sums[key], p.t * (j // g))
        k, geo, c = columns[j]
        out.append(k * (m // math.gcd(i * geo + c, m)))
    return out


def element_order(p: MetacyclicParams, x: Element) -> int:
    """Multiplicative order of x (:func:`element_orders`), O(log s) steps."""
    return element_orders(p, (x,))[0]


def element_log(p: MetacyclicParams, base: Element, target: Element) -> int:
    """Least e >= 0 with base**e == target, or NotAPower.

    Walks the cyclic group generated by ``base`` once, stopping at the
    target or, when it returns to the identity first, raising; cost is
    bounded by the order of ``base``.
    """
    cur, e = 0, 0
    while cur != target:
        cur, e = mul(p, cur, base), e + 1
        if cur == 0:
            raise NotAPower(f"{target} is not a power of {base}")
    return e


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as an immutable element set.

    Equality and hashing consider only the element set; ``generator`` is a
    bookkeeping witness (set exactly when the subgroup was produced from a
    single generator) and never participates in identity.
    """

    elements: frozenset[Element]
    generator: Element | None = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def key(self) -> tuple[Element, ...]:
        """Canonical sort key: the sorted element tuple, which orders the
        normal forms as their pairs (i, j) since 0 <= j < s."""
        return tuple(sorted(self.elements))

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __contains__(self, x: Element) -> bool:
        return x in self.elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self.key)


def trivial_subgroup(p: MetacyclicParams) -> Subgroup:
    return Subgroup(frozenset({0}), generator=0)


def generate_subgroup(p: MetacyclicParams, generators: Iterable[Element]) -> Subgroup:
    """Subgroup generated by the given elements (orbit closure).

    Closure under right multiplication by the generators suffices in a finite
    group, and costs O(result size * number of generators) products: the
    product formula of :func:`mul`, with each generator split into (k, l)
    once and each popped element once.  The ``generator`` field of the
    result is set exactly when a single generator was supplied.
    """
    gens = list(generators)
    limit = default_cap()
    m, s, t, twist = p.m, p.s, p.t, p._rinv_pows
    split = [divmod(g, s) for g in gens]
    seen: set[Element] = {0}
    frontier: list[Element] = [0]
    while frontier:
        i, j = divmod(frontier.pop(), s)
        tw = twist[j]
        for k, l in split:
            jl = j + l
            y = (i + k * tw + t * (jl // s)) % m * s + jl % s
            if y not in seen:
                if len(seen) >= limit:
                    raise CapExceeded(f"subgroup closure exceeds cap {limit}")
                seen.add(y)
                frontier.append(y)
    gen = gens[0] if len(gens) == 1 else None
    return Subgroup(frozenset(seen), generator=gen)


def cyclic_subgroup(p: MetacyclicParams, g: Element) -> Subgroup:
    """Cyclic subgroup generated by g (generator field always set)."""
    return generate_subgroup(p, [g])


# --------------------------------------------------------------------------
# Dense Cayley-table layer: brute-force oracles.
# --------------------------------------------------------------------------


class CayleyTable:
    """Dense multiplication table over the elements ``i*s + j``.

    Built by vectorised modular arithmetic (independent of :func:`mul` and
    :func:`inverse`; they are cross-checked in the test suite).  All arrays
    are frozen after construction.  Only the oracles and the tests build it:
    memory grows with the square of the group order.  Each method imports
    numpy itself, so importing this module does not.
    """

    def __init__(self, p: MetacyclicParams):
        import numpy as np
        n = p.order
        _check_cap(n, "group order")
        self.params = p
        self.n = n
        m, s, t = p.m, p.s, p.t
        iv = np.repeat(np.arange(m, dtype=np.int64), s)
        jv = np.tile(np.arange(s, dtype=np.int64), m)
        twist = np.array(p._rinv_pows, dtype=np.int64)[jv]  # r**-j per row element
        jsum = jv[:, None] + jv[None, :]
        i2 = (iv[:, None] + iv[None, :] * twist[:, None] + t * (jsum // s)) % m
        self.table = i2 * s + jsum % s
        self.inv = np.argmax(self.table == 0, axis=1)
        self.table.setflags(write=False)
        self.inv.setflags(write=False)

    # -- cached whole-group structures ---------------------------------------

    @cached_property
    def conj(self) -> np.ndarray:
        """conj[h, x] = h**-1 * x * h over the whole group (oracle only)."""
        out = self.conjugates(range(self.n), range(self.n))
        out.setflags(write=False)
        return out

    @cached_property
    def orders(self) -> np.ndarray:
        """Multiplicative order of every element (oracle of :func:`element_order`)."""
        import numpy as np
        tab = self.table
        out = np.zeros(self.n, dtype=np.int64)
        alive = np.arange(self.n)
        cur = alive.copy()
        k = 1
        while alive.size:
            done = cur == 0
            out[alive[done]] = k
            alive = alive[~done]
            cur = cur[~done]
            cur = tab[cur, alive]
            k += 1
        out.setflags(write=False)
        return out

    # -- brute-force computations ---------------------------------------------

    def conjugates(self, hs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Block [h, x] = h**-1 * x * h over the index arrays hs and xs."""
        import numpy as np
        hs = np.asarray(hs)[:, None]
        return self.table[self.table[self.inv[hs], xs], hs]

    def closure_idx(self, seed: np.ndarray) -> np.ndarray:
        """Subgroup generated by the seed indices: iterate pairwise products."""
        import numpy as np
        cur = np.union1d(np.asarray(seed, dtype=np.int64), np.array([0], dtype=np.int64))
        while True:
            prod = self.table[np.ix_(cur, cur)].ravel()
            nxt = np.union1d(cur, prod)
            if nxt.size == cur.size:
                return nxt
            cur = nxt

    @cached_property
    def center_idx(self) -> np.ndarray:
        mask = (self.table == self.table.T).all(axis=1)
        out = mask.nonzero()[0]
        out.setflags(write=False)
        return out

    @cached_property
    def derived_idx(self) -> np.ndarray:
        import numpy as np
        tab = self.table
        xy = tab
        x1y1 = tab[self.inv[:, None], self.inv[None, :]]
        comms = np.unique(tab[x1y1, xy])
        out = self.closure_idx(comms)
        out.setflags(write=False)
        return out

    def normalizer_idx(self, members: np.ndarray) -> np.ndarray:
        import numpy as np
        member_mask = np.zeros(self.n, dtype=bool)
        member_mask[members] = True
        ok = member_mask[self.conjugates(np.arange(self.n), members)].all(axis=1)
        return np.nonzero(ok)[0]

    def commutator_span_idx(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np
        tab = self.table
        xy = tab[np.ix_(a, b)]
        x1y1 = tab[self.inv[a][:, None], self.inv[b][None, :]]
        comms = np.unique(tab[x1y1, xy])
        return self.closure_idx(comms)

    def commute(self, a: np.ndarray, b: np.ndarray) -> bool:
        """True iff every element of a commutes with every element of b."""
        return bool((self.table[a][:, b] == self.table[b][:, a].T).all())


@lru_cache(maxsize=64)
def _cached_table(p: MetacyclicParams) -> CayleyTable:
    return CayleyTable(p)


def cayley_table(p: MetacyclicParams) -> CayleyTable:
    """Shared dense table for p (cached; respects the enumeration cap).

    The cap is checked before the cache lookup, so a table built under a
    larger cap is not handed out after the cap is lowered.
    """
    _check_cap(p.order, "group order")
    return _cached_table(p)


def bruteforce_center(p: MetacyclicParams) -> Subgroup:
    """Center by scanning the full multiplication table for commuting rows."""
    return Subgroup(frozenset(cayley_table(p).center_idx.tolist()))


def bruteforce_derived(p: MetacyclicParams) -> Subgroup:
    """Derived subgroup: closure of the set of all n**2 commutators."""
    return Subgroup(frozenset(cayley_table(p).derived_idx.tolist()))
