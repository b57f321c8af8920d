"""Structural invariants: closed forms cross-checked against brute force.

The closed forms (center, derived subgroup, multiplier order of the central
quotient, Ganea comparison) are the fast route; the brute-force routines work
from the multiplication table alone and know nothing about the formulas.
Every frozen number below was produced by the brute-force route first and
checked against textbook values where available (multiplier of C_a x C_b is
cyclic of order gcd(a, b); quaternion and symmetric groups have trivial
multiplier).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum import structure
from metasum.core import cayley_table, cyclic_subgroup, validate
from metasum.errors import CapExceeded
from metasum.structure import (
    DEFAULT_HOMOLOGY_LIMIT,
    bruteforce_derived_center_intersection,
    bruteforce_ganea,
    bruteforce_schur_of_central_quotient,
    center_closed_form,
    center_exponents,
    derived_center_intersection_order,
    derived_closed_form,
    ganea_check,
    geometric_sum_mod,
    multiplicative_order,
    multiplier_order_from_table,
    quotient_table,
    schur_order_of_central_quotient,
    twist_gcd,
)

# (m, s, t, r) -> (|Z|, |G'|, multiplier order of G/Z, |G' ∩ Z|)
BATTERY = {
    (3, 2, 0, 2): (1, 3, 1, 1),  # symmetric group deg 3
    (4, 2, 2, 3): (2, 2, 2, 2),  # quaternion
    (6, 2, 3, 5): (2, 3, 1, 1),  # dicyclic order 12
    (8, 2, 2, 5): (4, 2, 2, 2),  # negative control
    (12, 2, 6, 7): (6, 2, 2, 2),
    (6, 1, 0, 1): (6, 1, 1, 1),  # cyclic order 6
}


class TestScalarHelpers:
    def test_multiplicative_order(self):
        assert multiplicative_order(3, 8) == 2
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(1, 1) == 1
        assert multiplicative_order(1, 5) == 1

    def test_geometric_sum_mod(self):
        assert geometric_sum_mod(3, 2, 4) == 0  # 1 + 3 = 4
        assert geometric_sum_mod(1, 5, 7) == 5
        assert geometric_sum_mod(2, 4, 100) == 15  # 1+2+4+8

    def test_twist_gcd(self):
        assert twist_gcd(validate(8, 2, 2, 5)) == 4  # gcd(8, 5-1)
        assert twist_gcd(validate(3, 2, 0, 2)) == 1

    def test_center_exponents_frozen(self):
        assert center_exponents(validate(4, 2, 2, 3)) == (2, 2)
        assert center_exponents(validate(8, 2, 2, 5)) == (2, 2)
        assert center_exponents(validate(3, 2, 0, 2)) == (3, 2)
        assert center_exponents(validate(6, 1, 0, 1)) == (1, 1)


class TestClosedForms:
    @pytest.mark.parametrize("tup,expected", sorted(BATTERY.items()))
    def test_battery_frozen(self, tup, expected):
        p = validate(*tup)
        want_z, want_d, want_schur, want_int = expected
        assert center_closed_form(p).order == want_z
        assert derived_closed_form(p).order == want_d
        assert schur_order_of_central_quotient(p) == want_schur
        assert derived_center_intersection_order(p) == want_int

    def test_center_elements_of_negative_control(self):
        p = validate(8, 2, 2, 5)
        assert sorted(center_closed_form(p).elements) == [0, 4, 8, 12]  # (0..6 step 2, 0)

    def test_derived_is_generated_by_twisted_rotation(self):
        p = validate(8, 2, 2, 5)
        assert sorted(derived_closed_form(p).elements) == [0, 8]  # (0, 0) and (4, 0)

    def test_ganea_battery(self):
        for tup in BATTERY:
            check = ganea_check(validate(*tup))
            assert check.surjective
            assert check.h2_order <= check.cap_order

    def test_negative_control_invariants_frozen(self, negative_control):
        p = negative_control
        assert center_exponents(p) == (2, 2)
        assert center_closed_form(p).order == 4
        assert derived_closed_form(p).order == 2
        assert schur_order_of_central_quotient(p) == 2
        assert derived_center_intersection_order(p) == 2
        assert ganea_check(p).surjective


class TestQuotientTable:
    def test_symmetric_group_mod_rotations(self, s3):
        tab = cayley_table(s3)
        rot = np.array(cyclic_subgroup(s3, 2).key)
        assert quotient_table(tab, rot).tolist() == [[0, 1], [1, 0]]

    def test_quotient_by_whole_group_is_trivial(self, s3):
        tab = cayley_table(s3)
        everything = np.arange(tab.n)
        assert quotient_table(tab, everything).tolist() == [[0]]

    def test_quotient_identity_coset_is_zero(self, q8):
        tab = cayley_table(q8)
        center = tab.center_idx
        q = quotient_table(tab, center)
        assert q.shape == (4, 4)
        assert q[0].tolist() == list(range(4))  # identity coset acts as identity


class TestAbstractMultiplier:
    # Multiplier of C_a x C_b is cyclic of order gcd(a, b); quaternion and
    # symmetric groups have trivial multiplier.
    KNOWN = {
        (2, 2, 0, 1): 2,
        (3, 3, 0, 1): 3,
        (4, 2, 0, 1): 2,
        (4, 4, 0, 1): 4,
        (6, 1, 0, 1): 1,
        (3, 2, 0, 2): 1,
        (4, 2, 2, 3): 1,
    }

    @pytest.mark.parametrize("tup,expected", sorted(KNOWN.items()))
    def test_known_multipliers(self, tup, expected):
        table = cayley_table(validate(*tup)).table
        assert multiplier_order_from_table(table) == expected

    def test_trivial_group(self):
        assert multiplier_order_from_table(np.zeros((1, 1), dtype=np.int64)) == 1


class TestBruteForceRoutes:
    def test_brute_schur_matches_closed_on_battery(self):
        for tup in BATTERY:
            p = validate(*tup)
            assert bruteforce_schur_of_central_quotient(p) == schur_order_of_central_quotient(p)

    def test_brute_intersection_matches_closed_on_battery(self):
        for tup in BATTERY:
            p = validate(*tup)
            assert (
                bruteforce_derived_center_intersection(p)
                == derived_center_intersection_order(p)
            )

    def test_brute_ganea_matches_closed(self, q12):
        brute = bruteforce_ganea(q12)
        closed = ganea_check(q12)
        assert (brute.h2_order, brute.cap_order) == (closed.h2_order, closed.cap_order)
        assert brute.surjective == closed.surjective

    def test_homology_guard(self, q8, monkeypatch):
        assert DEFAULT_HOMOLOGY_LIMIT >= 12
        monkeypatch.setattr(structure, "DEFAULT_HOMOLOGY_LIMIT", 1)
        with pytest.raises(CapExceeded):
            bruteforce_schur_of_central_quotient(q8)


class TestClosedVersusBruteSampled:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_center_and_derived_agree(self, data, pool_48):
        p = data.draw(st.sampled_from(pool_48))
        from metasum.core import bruteforce_center, bruteforce_derived

        assert center_closed_form(p).elements == bruteforce_center(p).elements
        assert derived_closed_form(p).elements == bruteforce_derived(p).elements
        assert (
            derived_center_intersection_order(p)
            == bruteforce_derived_center_intersection(p)
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_schur_agrees_when_quotient_is_small(self, data, pool_48):
        p = data.draw(st.sampled_from(pool_48))
        if p.order // center_closed_form(p).order > DEFAULT_HOMOLOGY_LIMIT:
            return
        assert bruteforce_schur_of_central_quotient(p) == schur_order_of_central_quotient(p)
