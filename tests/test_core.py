"""Group arithmetic in normal form: construction, products, orders, tables.

Expected values were computed independently (by hand from the defining
relations, or via the brute-force enumerators in this module, which are
themselves checked against hand calculations here) and then frozen.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory import n_order, primefactors

from metasum.core import (
    CayleyTable,
    MetacyclicParams,
    bruteforce_center,
    bruteforce_derived,
    cayley_table,
    commutator,
    conjugate,
    Subgroup,
    cyclic_subgroup,
    default_cap,
    element_log,
    element_order,
    element_orders,
    generate_subgroup,
    inverse,
    mul,
    power,
    trivial_subgroup,
    validate,
)
from metasum.errors import CapExceeded, ConstraintViolation, NotAPower
from metasum.families import defining_generators
from metasum.structure import derived_closed_form


class TestValidate:
    def test_accepts_symmetric_group_parameters(self, s3):
        assert (s3.m, s3.s, s3.t, s3.r) == (3, 2, 0, 2)
        assert s3.order == 6

    def test_canonicalizes_t_and_r_modulo_m(self):
        # t = 9 ≡ 3 (mod 6) and r = 11 ≡ 5 (mod 6) present the same group.
        assert validate(6, 2, 9, 11) == validate(6, 2, 3, 5)

    def test_r_canonical_range_is_one_to_m(self):
        # r ≡ 0 (mod m) canonicalizes to m, not 0.
        p = validate(5, 4, 0, 1)
        assert p.r == 1
        assert 1 <= validate(2, 1, 0, 1).r <= 2

    def test_rejects_nonpositive_m_or_s(self):
        with pytest.raises(ConstraintViolation):
            validate(0, 2, 0, 1)
        with pytest.raises(ConstraintViolation):
            validate(3, 0, 0, 1)
        with pytest.raises(ConstraintViolation):
            validate(-3, 2, 0, 2)

    def test_rejects_broken_twist_congruence(self):
        # r = 3: 3^2 = 9 ≢ 1 (mod 8).
        with pytest.raises(ConstraintViolation):
            validate(8, 2, 2, 3)

    def test_rejects_broken_power_compatibility(self):
        # m | t(r-1) fails: 8 ∤ 1·(5-1) = 4.
        with pytest.raises(ConstraintViolation):
            validate(8, 2, 1, 5)

    def test_trivial_group(self):
        p = validate(1, 1, 0, 1)
        assert p.order == 1
        assert mul(p, 0, 0) == inverse(p, 0) == 0


class TestArithmetic:
    def test_symmetric_group_reflection_squares_to_identity(self, s3):
        # (ab)^2 = 1 in S3; fails under the opposite twist convention.
        assert mul(s3, 3, 3) == 0

    def test_quaternion_b_squared_is_a_squared(self, q8):
        assert mul(q8, 1, 1) == 4  # (0, 1)**2 = (2, 0)

    def test_quaternion_product_ba(self, q8):
        # b·a = a^3 b since moving a across b twists by r^{-1} = 3.
        assert mul(q8, 1, 2) == 7

    def test_identity_element(self, s3, q8):
        assert power(s3, 1, 0) == 0  # the empty product
        for p in (s3, q8):
            for x in range(p.order):
                assert mul(p, 0, x) == x
                assert mul(p, x, 0) == x

    def test_associativity_exhaustive_small(self, s3, q8):
        for p in (s3, q8):
            els = range(p.order)
            for x in els:
                for y in els:
                    xy = mul(p, x, y)
                    for z in els:
                        assert mul(p, xy, z) == mul(p, x, mul(p, y, z))

    def test_inverse_exhaustive_small(self, q12):
        for x in range(q12.order):
            assert mul(q12, x, inverse(q12, x)) == 0
            assert mul(q12, inverse(q12, x), x) == 0

    def test_inverse_frozen_value(self, q8):
        assert inverse(q8, 3) == 7  # (1, 1)**-1 = (3, 1)

    def test_power_matches_repeated_multiplication(self, q12):
        for x in range(q12.order):
            acc = 0
            for n in range(0, q12.order + 2):
                assert power(q12, x, n) == acc
                acc = mul(q12, acc, x)
            assert power(q12, x, -1) == inverse(q12, x)
            assert power(q12, x, -5) == inverse(q12, power(q12, x, 5))

    def test_element_orders_frozen(self, s3, q8):
        assert [element_order(s3, x) for x in range(s3.order)] == [1, 2, 3, 2, 3, 2]
        orders = sorted(element_order(q8, x) for x in range(q8.order))
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_conjugation_twists_rotation(self, s3):
        # a^b = a^r = a^2.
        assert conjugate(s3, 2, 1) == 4

    def test_commutator_of_defining_generators(self, s3, q8):
        # [a, b] = a^{r-1}.
        assert commutator(s3, 2, 1) == (s3.r - 1) % s3.m * s3.s
        assert commutator(q8, 2, 1) == (q8.r - 1) % q8.m * q8.s

    def test_enumeration_order_and_count(self, s3):
        # The index i*s + j orders the elements as their normal forms (i, j).
        els = [divmod(x, s3.s) for x in range(s3.order)]
        assert els == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        assert len(set(els)) == s3.order


class TestElementLog:
    def test_power_of_rotation(self, q8):
        assert element_log(q8, 2, 6) == 3

    def test_identity_is_zeroth_power(self, q8):
        assert element_log(q8, 2, 0) == 0

    def test_not_a_power_raises(self, q8):
        with pytest.raises(NotAPower):
            element_log(q8, 2, 1)


class TestCaps:
    def test_default_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("METASUM_CAP", "123")
        assert default_cap() == 123

    def test_default_cap_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("METASUM_CAP", "not-a-number")
        with pytest.raises(ConstraintViolation):
            default_cap()
        monkeypatch.setenv("METASUM_CAP", "0")
        with pytest.raises(ConstraintViolation):
            default_cap()

    def test_enumerate_respects_cap(self, q8, monkeypatch):
        monkeypatch.setenv("METASUM_CAP", "7")
        with pytest.raises(CapExceeded):
            generate_subgroup(q8, [2, 1])  # the whole group, 8 elements

    @pytest.mark.parametrize(
        "build, params",
        [
            (cayley_table, (4, 2, 2, 3)),  # Q8: 8 elements
            (derived_closed_form, (40, 2, 0, 39)),  # D_40: |G'| = 20
        ],
        ids=["cayley_table", "derived_closed_form"],
    )
    def test_cayley_table_respects_cap(self, build, params, monkeypatch):
        p = validate(*params)
        build(p)  # cached under the default cap ...
        monkeypatch.setenv("METASUM_CAP", "3")
        with pytest.raises(CapExceeded):  # ... and still refused under a lower one
            build(p)

    def test_twist_table_checked_before_allocation(self, monkeypatch):
        # mul reads s twist factors; with s above the cap they are never built.
        monkeypatch.setenv("METASUM_CAP", "10")
        p = validate(1, 11, 0, 1)
        with pytest.raises(CapExceeded):
            p._rinv_pows
        with pytest.raises(CapExceeded):
            mul(p, 1, 1)
        monkeypatch.setenv("METASUM_CAP", "11")
        assert len(p._rinv_pows) == 11


class TestSubgroups:
    def test_cyclic_subgroup_of_rotation(self, s3):
        sub = cyclic_subgroup(s3, 2)
        assert sorted(sub.elements) == [0, 2, 4]
        assert sub.order == 3
        assert sub.generator == 2
        assert 4 in sub
        assert 1 not in sub

    def test_trivial_subgroup(self, s3):
        assert trivial_subgroup(s3).order == 1
        assert trivial_subgroup(s3).is_trivial

    def test_generate_full_group(self, s3):
        assert generate_subgroup(s3, [2, 1]).order == 6

    def test_conjugate_subgroup(self, s3):
        sub_b = cyclic_subgroup(s3, 1)
        moved = {conjugate(s3, x, 2) for x in sub_b.elements}
        assert sorted(moved) == [0, 3]

    def test_closure_matches_table_on_pool_48(self, pool_48):
        # Single generators, consecutive pairs of a spread of elements, and
        # <a, b>, against the table's closure under pairwise products.
        for p in pool_48:
            tab = cayley_table(p)
            xs = list(range(0, p.order, max(1, p.order // 5)))
            for gens in [[x] for x in xs] + list(zip(xs, xs[1:])) + [defining_generators(p)]:
                sub = generate_subgroup(p, gens)
                assert sub.key == tuple(tab.closure_idx(np.array(gens)).tolist()), (p, gens)
                assert sub.generator == (gens[0] if len(gens) == 1 else None)


class TestBruteforceStructure:
    def test_center_frozen(self, s3, q8):
        assert sorted(bruteforce_center(s3).elements) == [0]
        assert sorted(bruteforce_center(q8).elements) == [0, 4]

    def test_derived_frozen(self, s3, q8):
        assert sorted(bruteforce_derived(s3).elements) == [0, 2, 4]
        assert sorted(bruteforce_derived(q8).elements) == [0, 4]

    def test_normalizer_frozen(self, s3):
        rot = cyclic_subgroup(s3, 2)
        refl = cyclic_subgroup(s3, 1)
        tab = cayley_table(s3)
        assert tab.normalizer_idx(np.array(rot.key)).size == 6  # normal subgroup
        assert tab.normalizer_idx(np.array(refl.key)).tolist() == [0, 1]

    def test_commutator_span_frozen(self, s3):
        rot = cyclic_subgroup(s3, 2)
        refl = cyclic_subgroup(s3, 1)
        span = cayley_table(s3).commutator_span_idx(np.array(rot.key), np.array(refl.key))
        assert span.tolist() == [0, 2, 4]


class TestCayleyTable:
    def test_table_matches_elementwise_product(self, q12):
        tab = cayley_table(q12)
        for x in range(q12.order):
            for y in range(q12.order):
                assert tab.table[x, y] == mul(q12, x, y)

    def test_orders_column_matches_element_order(self, q12):
        tab = cayley_table(q12)
        for i in range(tab.n):
            assert tab.orders[i] == element_order(q12, i)

    def test_center_and_derived_indices(self, q8):
        tab = cayley_table(q8)
        assert tab.center_idx.tolist() == [0, 4]
        assert tab.derived_idx.tolist() == [0, 4]

    def test_conjugation_table(self, s3):
        tab = cayley_table(s3)
        a, b = s3.s, 1  # (1, 0) and (0, 1)
        assert tab.conj[b, a] == conjugate(s3, a, b)

    def test_conjugation_block_matches_whole_table(self, q12):
        tab = cayley_table(q12)
        hs, xs = np.array([1, 4, 7]), np.array([0, 2, 3, 11])
        assert np.array_equal(tab.conjugates(hs, xs), tab.conj[np.ix_(hs, xs)])

    def test_closed_form_orders_match_table_to_order_60(self, pool_100):
        small = [p for p in pool_100 if p.order <= 60]
        assert any(p.s == 1 for p in small) and any(p.m == 1 for p in small)
        for p in small:
            expected = cayley_table(p).orders.tolist()
            assert element_orders(p, range(p.order)) == expected, p
            assert [element_order(p, x) for x in range(p.order)] == expected, p
            assert element_orders(p, range(p.order - 1, -1, -1)) == expected[::-1], p

    def test_identity_index_is_zero(self, s3):
        assert trivial_subgroup(s3).key == (0,)
        assert cayley_table(s3).inv[0] == 0


class TestIndexArithmetic:
    def test_matches_table_to_order_60(self, pool_100):
        small = [p for p in pool_100 if p.order <= 60]
        assert any(p.s == 1 for p in small) and any(p.m == 1 for p in small)
        for p in small:
            tab, every = cayley_table(p), range(p.order)
            assert [[mul(p, x, y) for y in every] for x in every] == tab.table.tolist(), p
            assert [inverse(p, x) for x in every] == tab.inv.tolist(), p

    def test_index_helpers_round_trip(self, q12):
        rot = cyclic_subgroup(q12, 2)
        idxs = np.array(rot.key)
        assert idxs.tolist() == [0, 2, 4, 6, 8, 10]
        assert Subgroup(frozenset(idxs.tolist())) == rot
        assert idxs.dtype == np.int64


@st.composite
def large_params_and_indices(draw):
    """Valid (m, s, t, r) of order up to 10**6 and a few element indices."""
    m = draw(st.integers(1, 10**6))
    s = draw(st.integers(1, 10**6 // m))
    c = draw(st.integers(1, m))
    while math.gcd(c, m) != 1:
        c -= 1
    o = n_order(c, m) if m > 1 else 1
    r = pow(c, o // math.gcd(o, s), m)  # its order divides s
    step = m // math.gcd(m, r - 1)
    t = draw(st.integers(0, m - 1)) // step * step
    p = validate(m, s, t, r)
    xs = draw(st.lists(st.integers(0, p.order - 1), min_size=1, max_size=8))
    return p, xs


LARGE_EXAMPLES = (
    (validate(999_983, 1, 0, 1), [0, 1, 999_982]),
    (validate(1, 10**6, 0, 1), [0, 1, 999_999]),
    (validate(1000, 1000, 500, 1), [0, 999, 123_456, 999_999]),
    (validate(2, 500_000, 1, 1), [1, 2, 999_999]),  # b of order 10**6
)


class TestIndexArithmeticLarge:
    @settings(max_examples=60, deadline=None)
    @given(large_params_and_indices())
    @example(LARGE_EXAMPLES[0])
    @example(LARGE_EXAMPLES[1])
    @example(LARGE_EXAMPLES[2])
    @example(LARGE_EXAMPLES[3])
    def test_inverse_and_associativity(self, data):
        p, xs = data
        for x in xs:
            assert mul(p, x, inverse(p, x)) == 0 == mul(p, inverse(p, x), x)
            for y in xs:
                for z in xs[:3]:
                    assert mul(p, mul(p, x, y), z) == mul(p, x, mul(p, y, z))

    @settings(max_examples=60, deadline=None)
    @given(large_params_and_indices())
    @example(LARGE_EXAMPLES[0])
    @example(LARGE_EXAMPLES[1])
    @example(LARGE_EXAMPLES[2])
    @example(LARGE_EXAMPLES[3])
    def test_element_order_by_prime_divisors(self, data):
        # n is the order of x iff x**n = 1 and x**(n/q) != 1 for each prime q | n.
        p, xs = data
        for x, n in zip(xs, element_orders(p, xs)):
            assert n == element_order(p, x) and p.order % n == 0
            assert power(p, x, n) == 0
            assert all(power(p, x, n // q) != 0 for q in primefactors(n)), (p, x, n)


@st.composite
def params_and_elements(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    s = draw(st.integers(min_value=1, max_value=6))
    r = draw(
        st.sampled_from([r for r in range(1, m + 1) if pow(r, s, m) == 1 % m])
    )
    step = m // np.gcd(m, r - 1) if m > 1 else 1
    t = draw(st.sampled_from(range(0, m, step))) if m > 1 else 0
    p = validate(m, s, t, r)
    x = draw(st.integers(0, p.order - 1))
    y = draw(st.integers(0, p.order - 1))
    return p, x, y


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(params_and_elements())
    def test_group_axioms_hold(self, data):
        p, x, y = data
        assert mul(p, x, inverse(p, x)) == 0
        assert inverse(p, mul(p, x, y)) == mul(p, inverse(p, y), inverse(p, x))
        assert mul(p, mul(p, x, y), inverse(p, y)) == x

    @settings(max_examples=120, deadline=None)
    @given(params_and_elements(), st.integers(-20, 40))
    def test_power_is_homomorphic_in_exponent(self, data, n):
        p, x, _ = data
        assert mul(p, power(p, x, n), x) == power(p, x, n + 1)

    @settings(max_examples=120, deadline=None)
    @given(params_and_elements())
    def test_element_order_divides_group_order(self, data):
        p, x, _ = data
        assert p.order % element_order(p, x) == 0

    @settings(max_examples=80, deadline=None)
    @given(params_and_elements())
    def test_conjugation_is_an_automorphism(self, data):
        p, x, y = data
        h = 1 % p.m * p.s + p.s - 1  # (1, s - 1)
        lhs = conjugate(p, mul(p, x, y), h)
        rhs = mul(p, conjugate(p, x, h), conjugate(p, y, h))
        assert lhs == rhs
