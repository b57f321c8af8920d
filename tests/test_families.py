"""Generator families: closure, transversals, regularity, independence.

The family is indexed: every seed orbit contributes a component, and two
components may contain equal subgroups (this happens exactly for the
degenerate parameters (m, 1, t, 1) where the two defining generators span
the same cyclic group).  Frozen values below were computed by enumerating
orbits by hand for the small groups and cross-checked with the brute-force
subgroup routines.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum import families
from metasum.cli import verdict_payload
from metasum.core import (
    Subgroup,
    bruteforce_derived,
    cayley_table,
    conjugate,
    cyclic_subgroup,
    generate_subgroup,
    power,
    validate,
)
from metasum.errors import ConditionFails, InternalCheckError
from metasum.families import (
    ConjugationWitness,
    Family,
    RegularityCheck,
    abelianized_group,
    build_generator_family,
    conjugacy_closure,
    defining_generators,
    divisibility_condition,
    is_generating,
    is_independent,
    is_regular,
    regularity_witness,
    transversal,
    xgcd,
)
from metasum.hall import build_hall_family
from metasum.lattice import AbelianStructure, IntMatrix, smith_normal_form
from metasum.structure import derived_closed_form


def _generators(family):
    return [sub.generator for sub in family.subgroups]


class TestDefiningGenerators:
    def test_split_case(self, s3):
        assert defining_generators(s3) == (2, 1)  # (1, 0) and (0, 1)

    def test_nonsplit_case(self, q8):
        assert defining_generators(q8) == (2, 1)

    def test_s_equal_one_puts_b_inside_a(self):
        # with s = 1 the power relation reads b = a^t
        assert defining_generators(validate(5, 1, 2, 1)) == (1, 2)
        assert defining_generators(validate(6, 1, 0, 1)) == (1, 0)

    def test_m_equal_one(self):
        assert defining_generators(validate(1, 4, 0, 1)) == (0, 1)

    def test_trivial_group(self):
        assert defining_generators(validate(1, 1, 0, 1)) == (0, 0)


class TestFamilyConstruction:
    def test_symmetric_group_family(self, s3):
        fam = build_generator_family(s3)
        assert _generators(fam) == [1, 2, 3, 5]  # (0,1) (1,0) (1,1) (2,1)
        assert fam.components == (1, 0, 1, 1)
        assert len(fam) == 4

    def test_quaternion_family_is_two_normal_subgroups(self, q8):
        fam = build_generator_family(q8)
        assert _generators(fam) == [1, 2]
        assert fam.components == (1, 0)

    def test_collision_keeps_both_components(self):
        # m=5, s=1, t=2: <a> and <b> = <a^2> are equal as sets but the
        # family still has two members, one per defining generator.
        fam = build_generator_family(validate(5, 1, 2, 1))
        assert _generators(fam) == [1, 2]
        assert fam.components == (0, 1)
        subs = fam.subgroups
        assert subs[0].elements == subs[1].elements

    def test_trivial_seeds_are_dropped(self):
        # t = 0 and s = 1 make b the identity; only <a> survives.
        fam = build_generator_family(validate(6, 1, 0, 1))
        assert _generators(fam) == [1]
        assert fam.components == (0,)

    def test_trivial_group_family_is_empty(self):
        fam = build_generator_family(validate(1, 1, 0, 1))
        assert len(fam) == 0

    def test_family_is_conjugation_closed(self, s3, q12):
        for p in (s3, q12):
            fam = build_generator_family(p)
            members = set(fam.subgroups)
            for sub in fam:
                for h in [1 % p.m * p.s, 1 % p.s]:
                    assert Subgroup(frozenset(conjugate(p, x, h) for x in sub)) in members

    def test_post_init_validates_parallel_lengths(self, s3):
        sub = cyclic_subgroup(s3, 2)
        with pytest.raises(InternalCheckError):
            Family(params=s3, subgroups=(sub,), components=(0, 1))

    def test_post_init_validates_canonical_order(self, s3):
        rot = cyclic_subgroup(s3, 2)
        refl = cyclic_subgroup(s3, 1)
        # refl.key < rot.key, so (rot, refl) is out of order
        with pytest.raises(InternalCheckError):
            Family(params=s3, subgroups=(rot, refl), components=(0, 1))


class TestConjugacyClosure:
    def test_closure_of_reflection(self, s3):
        fam = conjugacy_closure(s3, [cyclic_subgroup(s3, 1)])
        assert _generators(fam) == [1, 3, 5]
        assert fam.components == (0, 0, 0)

    def test_distinct_orbits_deduplicates(self, s3):
        seeds = [cyclic_subgroup(s3, 1), cyclic_subgroup(s3, 3)]
        merged = conjugacy_closure(s3, seeds, distinct_orbits=True)
        assert len(merged) == 3  # one orbit, counted once
        kept = conjugacy_closure(s3, seeds, distinct_orbits=False)
        assert len(kept) == 6  # same orbit listed under both components
        assert set(kept.components) == {0, 1}


class TestTransversal:
    def test_symmetric_group(self, s3):
        fam = build_generator_family(s3)
        tv = transversal(s3, fam)
        assert [rep.generator for rep in tv.representatives] == [1, 2]
        assert tv.orbit_sizes == (3, 1)
        assert len(tv) == 2

    def test_collision_has_two_singleton_orbits(self):
        p = validate(5, 1, 2, 1)
        tv = transversal(p, build_generator_family(p))
        assert [rep.generator for rep in tv.representatives] == [1, 2]
        assert tv.orbit_sizes == (1, 1)

    def test_rejects_non_closed_family(self, s3):
        refl = cyclic_subgroup(s3, 1)
        broken = Family(params=s3, subgroups=(refl,), components=(0,))
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ValueError):
                transversal(s3, broken)

    def test_rejects_family_of_another_group(self, s3, q12):
        with pytest.raises(ValueError):
            transversal(q12, build_generator_family(s3))

    def test_one_orbit_walk_per_component_per_verdict(self, s3, monkeypatch):
        fam = build_generator_family(s3)
        walked = []
        orbit_of = families._orbit_of
        monkeypatch.setattr(
            families, "_orbit_of", lambda p, seed: walked.append(seed) or orbit_of(p, seed)
        )
        verdict_payload(s3, "theorem3", fam)
        assert len(walked) == len(set(fam.components)) == 2
        assert transversal(s3, fam) is transversal(s3, fam)
        assert len(walked) == 2


class TestActingMembers:
    def test_is_generating_matches_closure_of_every_member(self, pool_48):
        # The production families always generate; the closures of <a> alone
        # and <b> alone often do not, and walk past their representatives.
        extended = falls_short = 0
        for p in pool_48:
            a, b = defining_generators(p)
            for fam in (
                build_generator_family(p),
                build_hall_family(p).family,
                conjugacy_closure(p, [cyclic_subgroup(p, a)]),
                conjugacy_closure(p, [cyclic_subgroup(p, b)]),
            ):
                expected = generate_subgroup(p, _generators(fam)).order == p.order
                acting, generating = fam.acting
                assert is_generating(p, fam) == generating == expected, p
                firsts = {fam.components.index(comp) for comp in fam.components}
                assert firsts <= set(acting) and list(acting) == sorted(acting)
                if generating:
                    span = generate_subgroup(p, [fam.subgroups[i].generator for i in acting])
                    assert span.order == p.order
                    extended += len(acting) > len(firsts)
                else:
                    assert acting == tuple(range(len(fam)))
                    falls_short += 1
        assert extended > 0 and falls_short > 0


class TestClosedFormConjugation:
    def test_matches_conjugate_by_defining_generators(self, pool_48):
        assert any(p.s == 1 for p in pool_48) and any(p.m == 1 for p in pool_48)
        for p in pool_48:
            maps = families._conjugation_maps(p)
            for g, conj_by_g in zip(defining_generators(p), maps):
                for x in range(p.order):
                    assert conj_by_g(x) == conjugate(p, x, g), (p, x, g)


class TestDivisibility:
    def test_frozen(self):
        assert divisibility_condition(validate(3, 2, 0, 2)) is True
        assert divisibility_condition(validate(4, 2, 2, 3)) is True
        assert divisibility_condition(validate(8, 2, 2, 5)) is False
        assert divisibility_condition(validate(5, 1, 2, 1)) is False
        assert divisibility_condition(validate(5, 1, 0, 1)) is True

    def test_matches_direct_gcd_computation(self, pool_48):
        for p in pool_48[::7]:
            expected = p.t % math.gcd(p.m, p.r - 1) == 0
            assert divisibility_condition(p) == expected


class TestRegularity:
    def test_frozen_regular_families(self, s3, q8, negative_control):
        for p in (s3, q8, negative_control):
            report = is_regular(p, build_generator_family(p))
            assert report.regular
            for check in report.checks:
                assert check.ok

    def test_check_details_for_reflection(self, s3):
        report = is_regular(s3, build_generator_family(s3))
        by_gen = {c.representative.generator: c for c in report.checks}
        refl = by_gen[1]
        # N(<b>) = <b> in S3, so [F, N(F)] is trivial, as is F ∩ G'.
        assert refl.commutator_side.order == 1
        assert refl.intersection_side == frozenset({0})


def _table_regularity(p, family) -> tuple[RegularityCheck, ...]:
    """Both sides of the regularity check from whole-table scans: N_G(F) and
    [F, N_G(F)] over the Cayley table, G' as the closure of all commutators."""
    tab = cayley_table(p)
    derived = bruteforce_derived(p).elements
    checks = []
    for rep in transversal(p, family).representatives:
        members = np.array(rep.key)
        span = tab.commutator_span_idx(members, tab.normalizer_idx(members))
        commutators = Subgroup(frozenset(span.tolist()))
        checks.append(RegularityCheck(rep, commutators, rep.elements & derived))
    return tuple(checks)


class TestClosedFormRegularity:
    def test_matches_table_route_to_order_60(self, pool_100):
        irregular = 0
        for p in pool_100:
            if p.order > 60:
                continue
            for family in (build_generator_family(p), build_hall_family(p).family):
                report = is_regular(p, family)
                assert report.checks == _table_regularity(p, family), p
                irregular += not report.regular
        assert irregular == 0  # every family of either mode is regular

    def test_schreier_generators_generate_the_normalizer_to_order_60(self, pool_100):
        # Schreier's lemma on the transversal's own walk: N_G(F) exactly.
        for p in pool_100:
            if p.order > 60:
                continue
            tab = cayley_table(p)
            for family in (build_generator_family(p), build_hall_family(p).family):
                found = transversal(p, family)
                for rep, schreier in zip(found.representatives, found.normalizer_generators):
                    assert list(schreier) == sorted(set(schreier))
                    normalizer = tab.normalizer_idx(np.array(rep.key)).tolist()
                    assert generate_subgroup(p, schreier).key == tuple(normalizer), p

    def test_member_without_generator(self, s3):
        # Family construction rejects the member, so is_regular, which reads
        # the generator witness without testing it, never sees such a family.
        rotations = Subgroup(cyclic_subgroup(s3, 2).elements)
        with pytest.raises(InternalCheckError):
            is_regular(s3, Family(params=s3, subgroups=(rotations,), components=(0,)))


class TestAbelianization:
    def test_quaternion_abelianization_is_klein(self, q8):
        assert abelianized_group(q8).invariant_factors == (2, 2)

    def test_symmetric_group_abelianization_is_c2(self, s3):
        assert abelianized_group(s3).order == 2

    def test_closed_form_matches_certified_smith_form(self, pool_200):
        # G/G' = Z^2 / <(m, 0), (-t, s), (r-1, 0)>, reduced with certificates.
        for p in pool_200:
            rows = IntMatrix.from_rows([(p.m, 0), (-p.t, p.s), (p.r - 1, 0)])
            diagonal = smith_normal_form(rows).diagonal
            expected = AbelianStructure(tuple(d for d in diagonal if d > 1), diagonal.count(0))
            assert abelianized_group(p) == expected, p


class TestIndependence:
    def test_symmetric_group(self, s3):
        rep = is_independent(s3, build_generator_family(s3))
        assert rep.independent
        assert rep.local_orders == (2, 1)
        assert rep.product_order == 2 and rep.target_order == 2
        assert rep.spans_quotient

    def test_quaternion(self, q8):
        rep = is_independent(q8, build_generator_family(q8))
        assert rep.independent
        assert rep.local_orders == (2, 2)
        assert rep.product_order == 4 == rep.target_order

    def test_negative_control_fails_on_order(self, negative_control):
        rep = is_independent(negative_control, build_generator_family(negative_control))
        assert not rep.independent
        assert rep.local_orders == (4, 4)
        assert rep.product_order == 16 and rep.target_order == 8
        assert rep.spans_quotient  # images span, only the order count fails

    def test_collision_fails_despite_identical_subgroups(self):
        p = validate(5, 1, 2, 1)
        rep = is_independent(p, build_generator_family(p))
        assert not rep.independent
        assert rep.local_orders == (5, 5)
        assert rep.product_order == 25 and rep.target_order == 5

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equivalence_with_divisibility(self, data, pool_48):
        p = data.draw(st.sampled_from(pool_48))
        fam = build_generator_family(p)
        assert is_independent(p, fam).independent == divisibility_condition(p)

    def test_spans_quotient_iff_generators_and_derived_generate(self, pool_48):
        # The images span G/G' iff the representatives' generators and G'
        # generate G.  The families of <a> alone and <b> alone often fall short.
        seen = set()
        for p in pool_48:
            a, b = defining_generators(p)
            g_prime = derived_closed_form(p).generator
            for fam in (
                build_generator_family(p),
                build_hall_family(p).family,
                conjugacy_closure(p, [cyclic_subgroup(p, a)]),
                conjugacy_closure(p, [cyclic_subgroup(p, b)]),
            ):
                rep = is_independent(p, fam)
                gens = [sub.generator for sub in rep.representatives] + [g_prime]
                spans = generate_subgroup(p, gens).order == p.order
                assert rep.spans_quotient == spans, p
                seen.add(spans)
        assert seen == {True, False}


class TestWitness:
    def test_frozen_witnesses(self):
        assert regularity_witness(validate(3, 2, 0, 2)) == ConjugationWitness(
            z=0, q=0, alpha=0, beta=1
        )
        assert regularity_witness(validate(4, 2, 2, 3)).z == 3
        assert regularity_witness(validate(12, 2, 6, 7)).z == 11

    def test_witness_identity_holds(self, pool_48):
        for p in pool_48[::5]:
            if not divisibility_condition(p):
                continue
            w = regularity_witness(p)
            _, b = defining_generators(p)
            assert conjugate(p, b, w.element(p)) == power(p, b, p.s + 1)

    def test_refuses_when_divisibility_fails(self, negative_control):
        with pytest.raises(ConditionFails):
            regularity_witness(negative_control)


class TestXgcd:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_bezout_identity(self, a, b):
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g
