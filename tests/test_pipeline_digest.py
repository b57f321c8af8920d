"""One frozen digest of everything the verdict pipeline materialises.

For every tuple of order at most 60 (3,334 tuples) the digest covers both
families' members, components and generators; the Hall decomposition
(primes, V, U, eta, H, N and every Sylow factorisation with its twist and
tail); both sides of each regularity check; every field of the
independence report; and the verdict presentation's ``dump()``.  Elements
are written as normal-form pairs (i, j), so the digest does not depend on
how the package encodes them.  The value was taken before elements became
the indices i*s + j; a change to any subgroup, generator, search order or
relator changes it.
"""

from __future__ import annotations

import hashlib

from metasum.active_sum import build_active_sum_presentation
from metasum.cli import valid_tuples
from metasum.families import build_generator_family, is_independent, is_regular
from metasum.hall import build_hall_family

PIPELINE_60_SHA256 = "078d5072190a04104bfdae30ea885c2ead51f7d3ab6af0ee14b262a2f4572eb8"


def _pair(p, x):
    return None if x is None else divmod(x, p.s)


def _sub(p, sub):
    return (sorted(_pair(p, x) for x in sub.elements), _pair(p, sub.generator))


def _family(p, family):
    regular = is_regular(p, family)
    independent = is_independent(p, family)
    return (
        [(_sub(p, sub), comp) for sub, comp in family.indexed_members()],
        [
            (_sub(p, c.representative), _sub(p, c.commutator_side),
             sorted(_pair(p, x) for x in c.intersection_side), c.ok)
            for c in regular.checks
        ],
        (
            independent.independent,
            [_sub(p, rep) for rep in independent.representatives],
            independent.local_orders,
            independent.product_order,
            independent.target_order,
            independent.spans_quotient,
        ),
        build_active_sum_presentation(p, family, family.acting[0]).dump(),
    )


def _hall(p, built):
    d = built.decomposition
    return (
        d.primes,
        [_sub(p, sub) for sub in (d.hall_subgroup, d.normal_complement, d.kernel_part, d.top_part)],
        d.twist_exponent,
        [
            (f.prime, _sub(p, f.sylow), _sub(p, f.normal_part), _sub(p, f.complement_part),
             f.twist_exponent, f.tail_exponent)
            for f in d.sylow_factorizations
        ],
        [_sub(p, seed) for seed in built.seeds],
    )


def test_pipeline_digest_to_order_60():
    h = hashlib.sha256()
    for p in valid_tuples(60):
        hall = build_hall_family(p)
        record = (
            (p.m, p.s, p.t, p.r),
            _family(p, build_generator_family(p)),
            _hall(p, hall),
            _family(p, hall.family),
        )
        h.update(repr(record).encode())
    assert h.hexdigest() == PIPELINE_60_SHA256
