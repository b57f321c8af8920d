"""Active-sum presentations: relators, enumeration, abelianization, verdicts.

One presentation generator per indexed family member; relators are the
member's cyclic order plus, for every ordered pair, the conjugation action
of one member's generator on the other's.  Dump strings and orders below
were frozen after hand-checking the small cases and cross-checking the
interesting order (32) with sympy's independent enumerator.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum import active_sum
from metasum.active_sum import (
    DEFAULT_COSET_FACTOR,
    FpPresentation,
    PresentationGenerator,
    abelianized_order,
    build_active_sum_presentation,
    todd_coxeter,
    verdict,
)
from metasum.core import (
    Subgroup,
    conjugate,
    cyclic_subgroup,
    element_log,
    power,
    validate,
)
from metasum.coset import free_reduce, todd_coxeter as enumerate_cosets
from metasum.errors import CosetLimitExceeded, InternalCheckError
from metasum.families import (
    Family,
    abelianized_group,
    build_generator_family,
    conjugacy_closure,
    is_independent,
    is_regular,
    transversal,
)
from metasum.hall import build_hall_family
from metasum.lattice import IntMatrix, abelian_quotient


def _presentation_by_subgroup_lookup(p, family, element_pairs=False) -> FpPresentation:
    """Full presentation whose relator targets are found by conjugating the
    whole member and looking its element set up.  One relator per member
    pair (g_F1, g_F2), or with ``element_pairs`` one per element pair
    (g_F1**k, g_F2**l), each element a power of its member's generator."""
    members = family.subgroups
    index_of = {pair: i for i, pair in enumerate(family.indexed_members())}
    relators = [(i + 1,) * sub.order for i, sub in enumerate(members)]
    for i1, f1 in enumerate(members):
        for i2, f2 in enumerate(members):
            for k in range(f1.order) if element_pairs else (1,):
                h = power(p, f1.generator, k)
                moved = Subgroup(frozenset(conjugate(p, x, h) for x in f2))
                target = index_of[(moved, family.components[i2])]
                for l in range(f2.order) if element_pairs else (1,):
                    image = conjugate(p, power(p, f2.generator, l), h)
                    e = element_log(p, members[target].generator, image)
                    word = [-(i1 + 1)] * k + [i2 + 1] * l + [i1 + 1] * k + [-(target + 1)] * e
                    if word := free_reduce(word):
                        relators.append(word)
    gens = tuple(
        PresentationGenerator(symbol=f"x{i}", order=sub.order, element=sub.generator)
        for i, sub in enumerate(members)
    )
    return FpPresentation(generators=gens, relators=tuple(relators))


def _relation_matrix(pres: FpPresentation) -> IntMatrix:
    """Dense exponent-sum rows of the relators."""
    dense = [[0] * pres.ngens for _ in pres.relators]
    for row, word in zip(dense, pres.relators):
        for k in word:
            row[abs(k) - 1] += 1 if k > 0 else -1
    return IntMatrix.from_rows(dense)


def _abelian_presentation(orders, relators) -> FpPresentation:
    gens = tuple(
        PresentationGenerator(symbol=f"x{i}", order=n, element=0) for i, n in enumerate(orders)
    )
    power = [(i + 1,) * n for i, n in enumerate(orders)]
    return FpPresentation(generators=gens, relators=tuple(power + list(relators)))


def _order_or_none(pres: FpPresentation, limit: int) -> int | None:
    try:
        return todd_coxeter(pres, max_cosets=limit)
    except CosetLimitExceeded:
        return None


class TestTargetLookup:
    def test_matches_whole_member_conjugation_up_to_order_32(self, pool_48):
        checked = 0
        for p in pool_48:
            if p.order > 32:
                continue
            for family in (build_generator_family(p), build_hall_family(p).family):
                expected = _presentation_by_subgroup_lookup(p, family).dump()
                assert build_active_sum_presentation(p, family).dump() == expected, p
                checked += 1
        assert checked == 2 * sum(1 for p in pool_48 if p.order <= 32)


class TestPresentationShape:
    def test_single_member_dump(self):
        p = validate(5, 1, 0, 1)
        pres = build_active_sum_presentation(p, build_generator_family(p))
        assert pres.dump() == "gen x0 order 5\nx0 x0 x0 x0 x0"

    def test_quaternion_dump_frozen(self, q8):
        pres = build_active_sum_presentation(q8, build_generator_family(q8))
        assert pres.dump() == (
            "gen x0 order 4\n"
            "gen x1 order 4\n"
            "x0 x0 x0 x0\n"
            "x1 x1 x1 x1\n"
            "X0 x1 x0 X1 X1 X1\n"
            "X1 x0 x1 X0 X0 X0"
        )

    def test_symmetric_group_relator_count(self, s3):
        pres = build_active_sum_presentation(s3, build_generator_family(s3))
        # 4 members: 4 power relators + 4*3 ordered conjugation pairs
        assert pres.ngens == 4
        assert len(pres.relators) == 16

    def test_symmetric_group_generator_metadata(self, s3):
        pres = build_active_sum_presentation(s3, build_generator_family(s3))
        assert [(g.symbol, g.order, g.element) for g in pres.generators] == [
            ("x0", 2, 1),  # (0, 1)
            ("x1", 3, 2),  # (1, 0)
            ("x2", 2, 3),  # (1, 1)
            ("x3", 2, 5),  # (2, 1)
        ]

    def test_conjugation_relator_example(self, s3):
        # conjugating the rotation generator by the reflection inverts it:
        # X0 x1 x0 = x1^2, recorded as (-1, 2, 1, -2, -2).
        pres = build_active_sum_presentation(s3, build_generator_family(s3))
        assert (-1, 2, 1, -2, -2) in pres.relators

    def test_exhaustive_mode_adds_relators_same_group(self, s3):
        fam = build_generator_family(s3)
        lean = build_active_sum_presentation(s3, fam)
        full = _presentation_by_subgroup_lookup(s3, fam, element_pairs=True)
        assert len(full.relators) > len(lean.relators)
        assert todd_coxeter(lean, max_cosets=100) == todd_coxeter(full, max_cosets=100) == 6

    def test_exhaustive_mode_matches_on_small_groups(self, pool_48):
        for p in pool_48[::31]:
            if p.order > 24:
                continue
            fam = build_generator_family(p)
            full = _presentation_by_subgroup_lookup(p, fam, element_pairs=True)
            limit = DEFAULT_COSET_FACTOR * p.order * 4
            expected = todd_coxeter(full, max_cosets=limit)
            for acting in (None, fam.acting[0]):
                lean = build_active_sum_presentation(p, fam, acting)
                assert todd_coxeter(lean, max_cosets=limit) == expected, p


class TestActingPresentation:
    def test_matches_full_presentation_up_to_order_32(self, pool_48):
        checked = 0
        for p in pool_48:
            if p.order > 32:
                break
            limit = DEFAULT_COSET_FACTOR * p.order
            for family in (build_generator_family(p), build_hall_family(p).family):
                acting, generating = family.acting
                assert generating, p
                lean = build_active_sum_presentation(p, family, acting)
                full = build_active_sum_presentation(p, family)
                assert set(lean.relators) <= set(full.relators)
                assert _order_or_none(lean, limit) == _order_or_none(full, limit), p
                assert abelianized_order(lean) == abelianized_order(full), p
                checked += 1
        assert checked == 2 * sum(1 for p in pool_48 if p.order <= 32)

    def test_three_reflections_extend_the_representative(self, s3):
        # One component, and one reflection spans only itself: the walk adds
        # the next reflection, and two reflections generate S3.
        family = conjugacy_closure(s3, [cyclic_subgroup(s3, 1)])
        assert family.components == (0, 0, 0)
        assert family.acting == ((0, 1), True)
        lean = build_active_sum_presentation(s3, family, family.acting[0])
        full = build_active_sum_presentation(s3, family)
        assert len(lean.relators) < len(full.relators)
        assert todd_coxeter(lean, max_cosets=60) == todd_coxeter(full, max_cosets=60)
        assert abelianized_order(lean) == abelianized_order(full)

    @pytest.mark.parametrize("params, seed", [((3, 2, 0, 2), (1, 0)), ((6, 2, 0, 5), (0, 1))])
    def test_non_generating_family_has_every_member_acting(self, params, seed):
        # <a> alone in S3; the three reflections conjugate to b in D_6, which
        # span an S3 of index 2.
        p = validate(*params)
        family = conjugacy_closure(p, [cyclic_subgroup(p, seed[0] * p.s + seed[1])])
        assert family.acting == (tuple(range(len(family))), False)
        assert not verdict(p, family).generating

    def test_verdict_presents_dihedral_39_with_118_relators(self, monkeypatch):
        # 40 members, two of them acting: 40 power relators and 2 x 39
        # conjugation relators, against 40 + 40 x 39 = 1,600 in full.
        p = validate(39, 2, 0, 38)
        family = build_generator_family(p)
        build, built = active_sum.build_active_sum_presentation, []
        monkeypatch.setattr(
            active_sum,
            "build_active_sum_presentation",
            lambda *args: built.append(build(*args)) or built[-1],
        )
        assert verdict(p, family).isomorphic
        assert [len(pres.relators) for pres in built] == [118]
        assert len(build(p, family).relators) == 1600


class TestEnumeratedOrders:
    def test_classical_groups(self, s3, q8, q12):
        for p, expected in ((s3, 6), (q8, 8)):
            pres = build_active_sum_presentation(p, build_generator_family(p))
            assert todd_coxeter(pres, max_cosets=10 * p.order) == expected
        hall = build_hall_family(q12)
        pres = build_active_sum_presentation(q12, hall.family)
        assert todd_coxeter(pres, max_cosets=120) == 12

    def test_negative_control_doubles(self, negative_control):
        pres = build_active_sum_presentation(
            negative_control, build_generator_family(negative_control)
        )
        assert todd_coxeter(pres, max_cosets=1000) == 32

    def test_negative_control_against_sympy(self, negative_control):
        from sympy.combinatorics.fp_groups import FpGroup
        from sympy.combinatorics.free_groups import free_group

        pres = build_active_sum_presentation(
            negative_control, build_generator_family(negative_control)
        )
        built = free_group(" ".join(g.symbol for g in pres.generators))
        fg, gens = built[0], built[1:]
        words = []
        for rel in pres.relators:
            w = fg.identity
            for signed in rel:
                g = gens[abs(signed) - 1]
                w = w * (g if signed > 0 else g**-1)
            words.append(w)
        assert FpGroup(fg, words).order() == 32

    def test_collision_gives_direct_square(self):
        p = validate(5, 1, 2, 1)
        pres = build_active_sum_presentation(p, build_generator_family(p))
        assert todd_coxeter(pres, max_cosets=500) == 25

    def test_limit_counts_cosets_of_the_largest_member(self, negative_control):
        # |S| = 32 and the largest member has order 8, so the index is 4.  HLT
        # defines more cosets than that on the way, but none of |S| = 32.
        pres = build_active_sum_presentation(
            negative_control, build_generator_family(negative_control)
        )
        assert max(g.order for g in pres.generators) == 8
        assert todd_coxeter(pres, max_cosets=8) == 32
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(pres, max_cosets=3)

    def test_no_generators_is_the_trivial_group(self):
        p = validate(1, 1, 0, 1)
        pres = build_active_sum_presentation(p, build_generator_family(p))
        assert pres.ngens == 0
        assert todd_coxeter(pres, max_cosets=1) == 1

    def test_missing_power_relator_is_an_internal_error(self):
        pres = FpPresentation(
            generators=(PresentationGenerator(symbol="x0", order=3, element=2),),
            relators=((1, 1),),
        )
        with pytest.raises(InternalCheckError):
            todd_coxeter(pres, max_cosets=10)

    def test_matches_trivial_subgroup_enumeration_up_to_order_32(self, pool_48):
        # The order over the trivial subgroup is the oracle.  ``auto`` picks
        # one of these two families per tuple, so all three modes are covered.
        checked = 0
        for p in pool_48:
            if p.order > 32:
                break
            limit = DEFAULT_COSET_FACTOR * p.order
            for family in (build_generator_family(p), build_hall_family(p).family):
                pres = build_active_sum_presentation(p, family)
                try:
                    oracle = enumerate_cosets(pres.ngens, pres.relators, limit)
                except CosetLimitExceeded:
                    continue
                assert todd_coxeter(pres, max_cosets=limit) == oracle, p
                checked += 1
        assert checked == 1482


class TestAbelianization:
    def test_quaternion(self, q8):
        pres = build_active_sum_presentation(q8, build_generator_family(q8))
        structure = abelianized_order(pres)
        assert structure.invariant_factors == (2, 2)
        assert structure.order == 4

    def test_negative_control(self, negative_control):
        pres = build_active_sum_presentation(
            negative_control, build_generator_family(negative_control)
        )
        assert abelianized_order(pres).invariant_factors == (4, 4)

    def test_matches_local_order_product_for_independent_families(self, pool_48):
        for p in pool_48[::21]:
            fam = build_generator_family(p)
            rep = is_independent(p, fam)
            if not rep.independent:
                continue
            pres = build_active_sum_presentation(p, fam)
            assert abelianized_order(pres).order == math.prod(rep.local_orders)

    def test_empty_presentation_is_trivial(self):
        p = validate(1, 1, 0, 1)
        pres = build_active_sum_presentation(p, build_generator_family(p))
        assert pres.ngens == 0
        assert abelianized_order(pres).order == 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 25, 36, 60, 720]), max_size=6))
    def test_invariant_factors_match_the_smith_form_of_the_diagonal(self, orders):
        k = len(orders)
        diagonal = IntMatrix.from_rows(
            [[d * (i == j) for j in range(k)] for i, d in enumerate(orders)]
        )
        expected = abelian_quotient(diagonal)
        assert expected.free_rank == 0
        assert active_sum._invariant_factors(orders) == expected.invariant_factors

    def test_matches_certified_smith_form_up_to_order_30(self, pool_48):
        for p in pool_48:
            if p.order > 30:
                break
            for family in (build_generator_family(p), build_hall_family(p).family):
                pres = build_active_sum_presentation(p, family)
                certified = abelian_quotient(_relation_matrix(pres))
                assert abelianized_order(pres) == certified, p

    @pytest.mark.parametrize(
        "params, ab_s, ab_g",
        [
            ((81, 2, 0, 80), 2, 2),  # D_81: 82 members, 6,724 relators
            ((8, 2, 2, 5), 16, 8),  # negative control
        ],
    )
    def test_frozen_orders(self, params, ab_s, ab_g):
        p = validate(*params)
        pres = build_active_sum_presentation(p, build_generator_family(p))
        assert abelianized_order(pres).order == ab_s
        assert abelianized_group(p).order == ab_g

    def test_missing_power_relator_is_an_internal_error(self):
        pres = FpPresentation(
            generators=(PresentationGenerator(symbol="x0", order=3, element=2),),
            relators=((1, 1),),
        )
        with pytest.raises(InternalCheckError):
            abelianized_order(pres)

    @pytest.mark.parametrize(
        "orders, relator",
        [
            ((4, 4, 4), (1, 2, 3)),  # three entries
            ((4, 4, 4), (1, 1, -2, -2)),  # 2*e0 - 2*e1: no +-1 entry
            ((4, 2, 4), (1, -2)),  # x0 = x1 across unequal orders
            ((4, 4, 4), (1, -2, -2)),  # x0 = 2*x1, 2 no unit mod 4
        ],
        ids=["three-entries", "no-unit-entry", "unequal-orders", "non-unit-weight"],
    )
    def test_row_of_no_active_sum_shape_is_an_internal_error(self, orders, relator):
        pres = _abelian_presentation(orders, [relator])
        with pytest.raises(InternalCheckError):
            abelianized_order(pres)

    def test_chain_collapses_to_z2(self):
        # x0 = x1 = x2 of order 12, with 6*x0 = 0 and 4*x2 = 0: Z/gcd(12, 6, 4).
        pres = _abelian_presentation((12, 12, 12), [(-1, 2), (-2, 3), (1,) * 6, (3,) * 4])
        assert abelianized_order(pres).invariant_factors == (2,)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_dense_relation_matrix(self, data):
        # Classes of equal-order generators joined by unit-weight relators
        # X_r x_a x_r X_b**e, the shape of an active-sum conjugation relator,
        # with further relators of that shape closing cycles or, when a = b,
        # leaving (1 - e) * e_a; the rows come in any order.
        classes = data.draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)), max_size=4))
        orders = [n for n, size in classes for _ in range(size)]
        members, start = [], 0
        for n, size in classes:
            members.append(list(range(start, start + size)))
            start += size

        def relator(a, b):
            n = orders[a]
            e = data.draw(st.sampled_from([e for e in range(n) if math.gcd(e, n) == 1]))
            r = data.draw(st.integers(1, len(orders)))
            return (-r, a + 1, r) + (-(b + 1),) * e

        relators = []
        for gens in members:
            for i in range(1, len(gens)):
                relators.append(relator(gens[i], gens[data.draw(st.integers(0, i - 1))]))
        for _ in range(data.draw(st.integers(0, 6)) if members else 0):
            gens = data.draw(st.sampled_from(members))
            relators.append(relator(data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))))
        pres = _abelian_presentation(orders, data.draw(st.permutations(relators)))
        assert abelianized_order(pres) == abelian_quotient(_relation_matrix(pres))

    def test_product_over_the_transversal_of_local_quotients(self, pool_48):
        # S^ab = (+)_T T/[T, N_G(T)] for a generating family (module docstring).
        for p in pool_48:
            for family in (build_generator_family(p), build_hall_family(p).family):
                acting, generating = family.acting
                assert generating, p
                pres = build_active_sum_presentation(p, family, acting)
                local = math.prod(
                    c.representative.order // c.commutator_side.order
                    for c in is_regular(p, family).checks
                )
                assert abelianized_order(pres).order == local, p


class TestMalformedFamilies:
    def test_family_not_conjugation_closed(self, s3):
        # Two of the three reflections: conjugating one by the other leaves the family.
        members = sorted(
            (cyclic_subgroup(s3, 1), cyclic_subgroup(s3, 3)), key=lambda s: s.key
        )
        broken = Family(params=s3, subgroups=tuple(members), components=(0, 0))
        with pytest.raises(InternalCheckError):
            build_active_sum_presentation(s3, broken)

    def test_member_without_generator(self, s3):
        # Rejected when the family is built: the presentation and independence
        # checks read generator witnesses without testing them.
        rotations = Subgroup(cyclic_subgroup(s3, 2).elements)
        with pytest.raises(InternalCheckError):
            Family(params=s3, subgroups=(rotations,), components=(0,))

    def test_witness_outside_its_member(self, s3):
        # A reflection member whose generator witness is the identity: the
        # conjugation relator landing on it has no discrete log, which a
        # valid family never allows, so it is an internal check failure.
        family = build_generator_family(s3)
        i = next(i for i, sub in enumerate(family.subgroups) if sub.order == 2)
        members = list(family.subgroups)
        members[i] = Subgroup(members[i].elements, generator=0)
        broken = Family(params=s3, subgroups=tuple(members), components=family.components)
        with pytest.raises(InternalCheckError):
            build_active_sum_presentation(s3, broken)


class TestVerdict:
    def test_symmetric_group_all_green(self, s3):
        v = verdict(s3, build_generator_family(s3))
        assert v.generating and v.regular and v.independent and v.ganea_surjective
        assert v.group_order == 6
        assert v.active_sum_order == 6
        assert v.abelianized_order_s == 2 == v.abelianized_order_g
        assert v.isomorphic

    def test_negative_control_fails_cleanly(self, negative_control):
        v = verdict(negative_control, build_generator_family(negative_control))
        assert v.regular and not v.independent
        assert v.ganea_surjective
        assert v.group_order == 16
        assert v.active_sum_order == 32
        assert v.abelianized_order_s == 16
        assert v.abelianized_order_g == 8
        assert not v.isomorphic

    def test_negative_control_hall_family_rescues(self, negative_control):
        built = build_hall_family(negative_control)
        v = verdict(negative_control, built.family)
        assert v.independent and v.isomorphic
        assert v.active_sum_order == 16

    def test_collision_verdict(self):
        p = validate(5, 1, 2, 1)
        v = verdict(p, build_generator_family(p))
        assert not v.independent
        assert v.active_sum_order == 25
        assert v.abelianized_order_s == 25
        assert not v.isomorphic

    def test_partial_verdict_under_tiny_limit(self, negative_control):
        # the index of the order-8 member's subgroup is 32 / 8 = 4 > 3
        v = verdict(negative_control, build_generator_family(negative_control), max_cosets=3)
        assert v.active_sum_order is None
        assert v.abelianized_order_s is not None  # abelianization needs no enumeration
        assert v.isomorphic is None

    def test_theorem3_rows_partial_over_the_trivial_subgroup_now_close(self, pool_48):
        # Over the trivial subgroup, 188 theorem3 rows of order <= 24 hit the
        # default limit of 10 x |G| cosets.  Over <x_F> every row closes, and
        # those 188 with |S| != |G|.
        was_partial = 0
        for p in pool_48:
            if p.order > 24:
                break
            family = build_generator_family(p)
            v = verdict(p, family)
            assert v.active_sum_order is not None, p
            pres = build_active_sum_presentation(p, family)
            try:
                enumerate_cosets(pres.ngens, pres.relators, DEFAULT_COSET_FACTOR * p.order)
            except CosetLimitExceeded:
                was_partial += 1
                assert v.active_sum_order != p.order and v.isomorphic is False, p
        assert was_partial == 188

    def test_default_coset_budget_is_ten_times_group_order(self):
        assert DEFAULT_COSET_FACTOR == 10

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_full_criteria_imply_isomorphic_sampled(self, data, pool_48):
        p = data.draw(st.sampled_from(pool_48))
        v = verdict(p, build_generator_family(p))
        if v.generating and v.regular and v.independent and v.ganea_surjective:
            assert v.isomorphic
            assert v.active_sum_order == p.order
