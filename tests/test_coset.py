"""Coset enumeration: word encoding, HLT with lookahead, limits, subgroups.

Relators and subgroup generators are signed generator words (1-based;
negative = inverse).  Expected indices for the presentations below are
classical; sympy's independent enumerator is used as a cross-check oracle on
the same inputs.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum.coset import CosetTable, free_reduce, signed_word_to_letters, todd_coxeter
from metasum.errors import CosetLimitExceeded

S3_RELATORS = [[1, 1, 1], [2, 2], [1, 2, 1, 2]]
Q8_RELATORS = [[1, 1, 1, 1], [2, 2, -1, -1], [-2, 1, 2, 1]]
Q12_RELATORS = [[1, 1, 1, 1, 1, 1], [2, 2, -1, -1, -1], [-2, 1, 2, 1]]


class TestWordEncoding:
    def test_signed_to_letters(self):
        assert signed_word_to_letters([1, -2, 1]) == (0, 3, 0)
        assert signed_word_to_letters([]) == ()
        assert signed_word_to_letters([-1]) == (1,)

    def test_free_reduce_cancels_adjacent_inverses(self):
        assert free_reduce(signed_word_to_letters([1, -1, 2])) == (2,)
        assert free_reduce(signed_word_to_letters([1, 2, -2, -1])) == ()
        assert free_reduce(signed_word_to_letters([1, 2, 1])) == (0, 2, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12))
    def test_free_reduce_is_idempotent_and_no_shorter_cancellation(self, word):
        reduced = free_reduce(signed_word_to_letters(word))
        assert free_reduce(reduced) == reduced
        for a, b in zip(reduced, reduced[1:]):
            assert a ^ 1 != b  # adjacent letters never cancel


class TestCyclicCalibration:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 64])
    def test_single_power_relator(self, n):
        assert todd_coxeter(1, [[1] * n], max_cosets=10 * n) == n


class TestClassicalPresentations:
    def test_symmetric_group(self):
        assert todd_coxeter(2, S3_RELATORS, max_cosets=100) == 6

    def test_quaternion(self):
        assert todd_coxeter(2, Q8_RELATORS, max_cosets=100) == 8

    def test_dicyclic_twelve(self):
        assert todd_coxeter(2, Q12_RELATORS, max_cosets=200) == 12

    def test_trivial_presentation(self):
        assert todd_coxeter(0, [], max_cosets=10) == 1
        assert todd_coxeter(1, [[1]], max_cosets=10) == 1

    def test_relator_order_does_not_change_index(self):
        for perm in itertools.permutations(S3_RELATORS):
            assert todd_coxeter(2, list(perm), max_cosets=100) == 6

    def test_inverted_relators_same_index(self):
        inverted = [[-g for g in reversed(rel)] for rel in Q8_RELATORS]
        assert todd_coxeter(2, inverted, max_cosets=100) == 8


class TestLimits:
    def test_free_group_hits_limit(self):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(1, [], max_cosets=50)

    def test_infinite_dihedral_hits_limit(self):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(2, [[1, 1], [2, 2]], max_cosets=64)

    def test_tight_but_sufficient_limit(self):
        # enumeration may allocate intermediate cosets, but a generous
        # multiple of the final index always suffices for these inputs
        assert todd_coxeter(2, S3_RELATORS, max_cosets=60) == 6


class TestSubgroups:
    def test_cyclic_subgroup_of_cyclic_group(self):
        # <x**3> has order 4 in Z_12, so index 3
        assert todd_coxeter(1, [[1] * 12], max_cosets=100, subgroup=[[1, 1, 1]]) == 3
        assert todd_coxeter(1, [[1] * 12], max_cosets=100, subgroup=[[1]]) == 1

    def test_both_generators_give_the_whole_group(self):
        assert todd_coxeter(2, S3_RELATORS, max_cosets=100, subgroup=[[1], [2]]) == 1

    def test_trivial_words_give_the_trivial_subgroup(self):
        assert todd_coxeter(2, Q8_RELATORS, max_cosets=100, subgroup=[[], [1, -1]]) == 8

    def test_subgroup_word_must_loop_at_coset_zero(self):
        # The regular table of Z_2 is complete and x**2 scans trivially at
        # both cosets, but x leads from coset 0 to coset 1, so it is not the
        # table of <x>.
        regular = [[1, 1], [0, 0]]
        plain = CosetTable(1, [[1, 1]], max_cosets=10)
        over_x = CosetTable(1, [[1, 1]], max_cosets=10, subgroup=[[1]])
        for table in (plain, over_x):
            table.table = [row[:] for row in regular]
            table.p = [0, 1]
            table.nlive = 2
        assert plain._closed_and_consistent()
        assert not over_x._closed_and_consistent()
        assert over_x.enumerate() == 1

    def test_limit_below_the_index_binds(self):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(2, S3_RELATORS, max_cosets=2, subgroup=[[2]])


class TestSympyCrossCheck:
    """Same presentations through an unrelated implementation."""

    @staticmethod
    def _sympy_group(relators):
        """The two-generator presentation as a sympy FpGroup, with the
        sympy word of each signed letter."""
        from sympy.combinatorics.fp_groups import FpGroup
        from sympy.combinatorics.free_groups import free_group

        F, x, y = free_group("x y")
        letters = {1: x, -1: x**-1, 2: y, -2: y**-1}
        words = []
        for rel in relators:
            word = F.identity
            for g in rel:
                word = word * letters[g]
            words.append(word)
        return FpGroup(F, words), letters

    @pytest.mark.parametrize("relators", [S3_RELATORS, Q8_RELATORS, Q12_RELATORS])
    def test_two_generator_presentations(self, relators):
        group, _ = self._sympy_group(relators)
        assert todd_coxeter(2, relators, max_cosets=400) == group.order()

    @pytest.mark.parametrize("relators", [S3_RELATORS, Q8_RELATORS, Q12_RELATORS])
    @pytest.mark.parametrize("generator", [1, 2])
    def test_index_over_a_cyclic_subgroup(self, relators, generator):
        group, letters = self._sympy_group(relators)
        expected = group.index([letters[generator]])
        assert todd_coxeter(2, relators, max_cosets=400, subgroup=[[generator]]) == expected

    @pytest.mark.parametrize("n", [7, 12, 30])
    def test_cyclic(self, n):
        from sympy.combinatorics.fp_groups import FpGroup
        from sympy.combinatorics.free_groups import free_group

        F, x = free_group("x")
        assert FpGroup(F, [x**n]).order() == todd_coxeter(1, [[1] * n], max_cosets=10 * n)
