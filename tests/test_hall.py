"""Hall-subgroup decomposition and the family it induces.

The decomposition splits G as H0 ⋉ N (Hall subgroup acting on a nilpotent
normal complement), factors each non-cyclic Sylow of H0, and seeds the
subgroup family from the pieces.  The module re-checks the structural
claims at runtime, so these tests focus on frozen outcomes for the small
showcase groups plus sampled invariants.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum.core import (
    CayleyTable,
    cayley_table,
    commutator,
    conjugate,
    cyclic_subgroup,
    element_order,
    generate_subgroup,
    mul,
    validate,
)
from metasum.errors import CapExceeded
from metasum.families import (
    _orbit_of,
    defining_generators,
    divisibility_condition,
    is_independent,
    is_regular,
    transversal,
)
from metasum.hall import (
    HallDecomposition,
    _pi_prime_progressions,
    _split_by_primes,
    _sylow_split,
    _try_prime_set,
    build_hall_family,
    hall_decomposition,
    pi_complement_part,
    pi_part,
    prime_factors,
)
from metasum.structure import derived_closed_form


class TestPrimeFactors:
    def test_frozen(self):
        assert prime_factors(12) == (2, 3)
        assert prime_factors(1) == ()
        assert prime_factors(97) == (97,)
        assert prime_factors(360) == (2, 3, 5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10_000))
    def test_reconstructs_radical(self, n):
        ps = prime_factors(n)
        assert all(n % q == 0 for q in ps)
        assert ps == tuple(sorted(set(ps)))
        rest = n
        for q in ps:
            while rest % q == 0:
                rest //= q
        assert rest == 1


class TestPrimePartSplit:
    def test_rotation_of_order_six(self, q12):
        # a has order 6; its 2-part is a^3 and its 2'-part is a^4.
        assert pi_part(q12, 2, (2,)) == 6
        assert pi_complement_part(q12, 2, (2,)) == 8

    def test_parts_recombine(self, pool_48):
        for p in pool_48[::11]:
            primes = prime_factors(p.order)[:1]
            for g in range(0, p.order, max(1, p.order // 6)):
                gp = pi_part(p, g, primes)
                gq = pi_complement_part(p, g, primes)
                assert mul(p, gp, gq) == g
                assert mul(p, gq, gp) == g  # the two parts commute
                op, oq = element_order(p, gp), element_order(p, gq)
                assert math.gcd(op, oq) == 1
                assert all(prime_factors(op) == () or q in primes for q in prime_factors(op))
                assert not any(q in primes for q in prime_factors(oq))


class TestConjugateRows:
    def test_walk_matches_whole_table_conjugation_to_order_60(self, pool_100):
        """The orbit walk gives, in ascending order, the rows np.unique gives
        over all n conjugates, for the H0 of every prime set of every
        Hall-route tuple; the conjugator w it carries gives H0**w."""
        checked = 0
        for p in pool_100:
            if p.order > 60 or divisibility_condition(p):
                continue
            tab = cayley_table(p)
            a, b = defining_generators(p)
            primes = prime_factors(p.order)
            for size in range(1, len(primes) + 1):
                for subset in combinations(primes, size):
                    h0 = generate_subgroup(p, [pi_part(p, a, subset), pi_part(p, b, subset)])
                    expected = np.unique(np.sort(tab.conj[:, np.array(h0.key)], axis=1), axis=0)
                    orbit, _ = _orbit_of(p, h0)
                    walked = np.array(sorted(sub.key for sub in orbit))
                    assert np.array_equal(walked, expected), (p, subset)
                    for sub, w in orbit.items():
                        assert sorted(tab.conjugates([w], h0.key)[0].tolist()) == list(sub.key)
                    checked += 1
        assert checked > 1000


def _closed_under_product(tab: CayleyTable, idx: np.ndarray) -> bool:
    """Whole-block closure test the Hall search used before it counted."""
    mask = np.zeros(tab.n, dtype=bool)
    mask[idx] = True
    return bool(mask[tab.table[np.ix_(idx, idx)]].all())


def _hall_prime_sets(limit: int, pool):
    """(p, prime set, H0 = <pi(a), pi(b)>) for every prime set of every tuple."""
    for p in pool:
        if p.order > limit:
            continue
        a, b = defining_generators(p)
        primes = prime_factors(p.order)
        for size in range(1, len(primes) + 1):
            for subset in combinations(primes, size):
                alpha, beta = pi_part(p, a, subset), pi_part(p, b, subset)
                yield p, subset, alpha, beta, generate_subgroup(p, [alpha, beta])


class TestTableFreeSubgroupTests:
    def test_h0_derived_is_one_commutator_to_order_60(self, pool_100):
        """<[pi(a), pi(b)]> is the commutator span of H0 with itself."""
        checked = 0
        for p, subset, alpha, beta, h0 in _hall_prime_sets(60, pool_100):
            tab = cayley_table(p)
            h0_idx = np.array(h0.key)
            expected = tab.commutator_span_idx(h0_idx, h0_idx)
            got = np.array(cyclic_subgroup(p, commutator(p, alpha, beta)).key)
            assert np.array_equal(got, expected), (p, subset)
            checked += 1
        assert checked > 10000

    def test_counted_sets_are_subgroups_to_order_60(self, pool_100):
        """A pi'-element set or a Sylow set of the right size is closed."""
        counted = 0
        for p, subset, _, _, h0 in _hall_prime_sets(60, pool_100):
            tab = cayley_table(p)
            _, n_target = _split_by_primes(p.order, subset)
            n_idx = np.nonzero(np.gcd(tab.orders, math.prod(subset)) == 1)[0]
            if n_idx.size == n_target:
                assert _closed_under_product(tab, n_idx), (p, subset)
                counted += 1
            for _, sel in _sylow_split(p, h0.key) or ():
                assert list(sel) == sorted(sel)
                assert list(sel.values()) == tab.orders[list(sel)].tolist()
                assert _closed_under_product(tab, np.array(list(sel))), (p, subset)
                counted += 1
        assert counted > 20000


class TestListedHallSubgroup:
    def test_facts_the_search_does_not_test_to_order_60(self, pool_100):
        """For every prime set that passes the pi'-count and gcd(r - 1, m_pi') = 1,
        on the table: the listed H0 is <pi(a), pi(b)> and the search's H, V ∩ U = 1,
        |V|·|U| = |N|, u = pi'(b) commutes with pi(a) and pi(b),
        G' ∩ H0 = <[pi(a), pi(b)]>, and H0 is the least of its conjugate rows."""
        checked = 0
        for p, subset, alpha, beta, h0 in _hall_prime_sets(60, pool_100):
            tab = cayley_table(p)
            zeta, s_rest = (_split_by_primes(n, subset)[1] for n in (p.m, p.s))
            n_idx = np.nonzero(np.gcd(tab.orders, math.prod(subset)) == 1)[0]
            if n_idx.size != zeta * s_rest or math.gcd(p.r - 1, zeta) != 1:
                continue
            listed = [i * p.s + j for i in range(0, p.m, zeta) for j in range(0, p.s, s_rest)]
            assert listed == list(h0.key), (p, subset)
            found = _try_prime_set(p, subset)
            assert found is None or found.hall_subgroup.key == h0.key, (p, subset)
            u = pi_complement_part(p, defining_generators(p)[1], subset)
            kernel = tab.closure_idx([p.m // zeta % p.m * p.s])
            top = tab.closure_idx([u])
            assert np.intersect1d(kernel, top).tolist() == [0], (p, subset)
            assert kernel.size * top.size == n_idx.size, (p, subset)
            assert tab.commute(np.array([u]), np.array([alpha, beta])), (p, subset)
            h0_idx = np.array(h0.key)
            comm = tab.table[tab.table[tab.inv[alpha], tab.inv[beta]], tab.table[alpha, beta]]
            meet = np.intersect1d(tab.derived_idx, h0_idx)
            assert np.array_equal(meet, tab.closure_idx([comm])), (p, subset)
            rows = np.unique(np.sort(tab.conj[:, h0_idx], axis=1), axis=0)
            assert np.array_equal(rows[0], h0_idx), (p, subset)
            checked += 1
        assert checked > 4000

    def test_cap_below_the_whole_group_refuses(self, s3, monkeypatch):
        """pi = all primes is tried first, and its H0 is G: a cap below |G|
        refuses it before H0 is listed, though the search settles on pi = {2}."""
        monkeypatch.setenv("METASUM_CAP", "5")
        with pytest.raises(CapExceeded, match="Hall subgroup order 6"):
            hall_decomposition(s3)
        monkeypatch.setenv("METASUM_CAP", "6")
        assert hall_decomposition(s3).primes == (2,)


class TestPiPrimeProgressions:
    def test_match_table_orders_for_every_prime_set(self, pool_200):
        """The columns' progressions list exactly the elements whose table
        order is prime to the prime set: every tuple of order <= 100 and
        every fourth above, to order 200."""
        checked = 0
        for n, p in enumerate(pool_200):
            if p.order > 100 and n % 4:
                continue
            orders = cayley_table(p).orders.tolist()
            primes = prime_factors(p.order)
            for size in range(1, len(primes) + 1):
                for subset in combinations(primes, size):
                    listed = sorted(
                        i * p.s + j
                        for j, i0, step in _pi_prime_progressions(p, subset)
                        for i in range(i0, p.m, step)
                    )
                    pi = math.prod(subset)
                    expected = [x for x, o in enumerate(orders) if math.gcd(o, pi) == 1]
                    assert listed == expected, (p, subset)
                    checked += 1
        assert checked > 20000


class TestDecompositionFrozen:
    def test_symmetric_group(self, s3):
        d = hall_decomposition(s3)
        assert d.primes == (2,)
        assert d.hall_subgroup.order == 2
        assert d.normal_complement.order == 3
        assert d.kernel_part.order == 3  # V = <a>
        assert d.top_part.order == 1  # U trivial
        assert d.twist_exponent == 1

    def test_dicyclic_twelve(self, q12):
        d = hall_decomposition(q12)
        assert d.primes == (2,)
        assert d.hall_subgroup.order == 4
        assert d.normal_complement.order == 3
        assert d.kernel_part.order == 3
        [syl] = d.sylow_factorizations
        assert syl.prime == 2 and syl.sylow.order == 4
        assert syl.complement_part.generator == 1  # (0, 1)

    def test_order_24_needs_both_primes(self):
        d = hall_decomposition(validate(12, 2, 6, 7))
        assert d.primes == (2, 3)
        assert d.hall_subgroup.order == 24
        assert d.normal_complement.order == 1
        two, three = d.sylow_factorizations
        assert (two.prime, two.sylow.order) == (2, 8)
        assert two.normal_part.generator == 1  # (0, 1)
        assert two.complement_part.generator == 6  # (3, 0)
        assert (two.twist_exponent, two.tail_exponent) == (3, 2)
        assert (three.prime, three.sylow.order) == (3, 3)
        assert three.complement_part.generator == 8  # (4, 0)

    def test_klein_group(self):
        d = hall_decomposition(validate(2, 2, 0, 1))
        [syl] = d.sylow_factorizations
        assert syl.normal_part.generator == 1  # (0, 1)
        assert syl.complement_part.generator == 2  # (1, 0)
        assert (syl.twist_exponent, syl.tail_exponent) == (1, 0)

    def test_negative_control_is_a_two_group(self, negative_control):
        d = hall_decomposition(negative_control)
        assert d.primes == (2,)
        assert d.hall_subgroup.order == 16
        assert d.normal_complement.order == 1
        [syl] = d.sylow_factorizations
        assert syl.normal_part.generator == 1  # (0, 1)
        assert syl.complement_part.generator == 3  # (1, 1)
        assert (syl.twist_exponent, syl.tail_exponent) == (5, 0)


class TestDecompositionInvariants:
    def test_orders_multiply_and_are_coprime(self, pool_48):
        for p in pool_48[::9]:
            d = hall_decomposition(p)
            assert d.hall_subgroup.order * d.normal_complement.order == p.order
            assert math.gcd(d.hall_subgroup.order, d.normal_complement.order) == 1

    def test_complement_is_normal(self, pool_48):
        for p in pool_48[::17]:
            d = hall_decomposition(p)
            for h in [1 % p.m * p.s, 1 % p.s]:
                moved = {conjugate(p, x, h) for x in d.normal_complement}
                assert moved == d.normal_complement.elements

    def test_kernel_and_top_parts_sit_in_complement(self, pool_48):
        for p in pool_48[::13]:
            d = hall_decomposition(p)
            assert d.kernel_part.elements <= d.normal_complement.elements
            assert d.top_part.elements <= d.normal_complement.elements
            derived = derived_closed_form(p).elements
            assert derived & d.normal_complement.elements == d.kernel_part.elements

    def test_twist_gcd_conditions_inside_sylow(self, pool_48):
        for p in pool_48[::13]:
            for syl in hall_decomposition(p).sylow_factorizations:
                a_order = syl.normal_part.order
                if a_order > 1:
                    assert pow(syl.twist_exponent, syl.complement_part.order, a_order) == 1 % a_order
                    assert syl.tail_exponent % math.gcd(a_order, syl.twist_exponent - 1) == 0


class TestHallFamily:
    def test_dicyclic_family_frozen(self, q12):
        built = build_hall_family(q12)
        assert [s.generator for s in built.seeds] == [4, 1]  # (2,0) (0,1)
        assert [s.generator for s in built.family] == [1, 9, 4, 5]  # (0,1) (4,1) (2,0) (2,1)
        assert built.family.components == (1, 1, 0, 1)
        assert built.transversal.orbit_sizes == (3, 1)

    def test_negative_control_family_frozen(self, negative_control):
        built = build_hall_family(negative_control)
        assert [s.generator for s in built.family] == [1, 3, 11]  # (0,1) (1,1) (5,1)
        assert built.family.components == (0, 1, 1)

    def test_collision_parameters_get_single_member(self):
        built = build_hall_family(validate(5, 1, 2, 1))
        assert [s.generator for s in built.family] == [1]

    def test_family_is_regular_and_independent_sampled(self, pool_48):
        for p in pool_48[::19]:
            built = build_hall_family(p)
            assert is_regular(p, built.family).regular
            assert is_independent(p, built.family).independent

    def test_family_components_are_distinct_orbits(self, pool_48):
        for p in pool_48[::23]:
            built = build_hall_family(p)
            seen: dict[int, set] = {}
            for sub, comp in built.family.indexed_members():
                seen.setdefault(comp, set()).add(sub)
            orbits = [frozenset(v) for v in seen.values()]
            assert len(orbits) == len(set(orbits))
