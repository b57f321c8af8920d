"""Coset enumeration: word encoding, HLT with lookahead, limits, subgroups.

Relators and subgroup generators are signed generator words (1-based;
negative = inverse).  Expected indices for the presentations below are
classical; sympy's independent enumerator is used as a cross-check oracle on
the same inputs.  ``ReferenceTable`` keeps the scan that restarts from alpha
after every definition and walks power relators letter by letter; the
resumed, cycle-skipping scan must enumerate step for step as it does.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasum.active_sum import DEFAULT_COSET_FACTOR
from metasum.coset import UNDEF, CosetTable, free_reduce, signed_word_to_letters, todd_coxeter
from metasum.errors import CosetLimitExceeded, InternalCheckError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

S3_RELATORS = [[1, 1, 1], [2, 2], [1, 2, 1, 2]]
Q8_RELATORS = [[1, 1, 1, 1], [2, 2, -1, -1], [-2, 1, 2, 1]]
Q12_RELATORS = [[1, 1, 1, 1, 1, 1], [2, 2, -1, -1, -1], [-2, 1, 2, 1]]


class TestWordEncoding:
    def test_signed_to_letters(self):
        assert signed_word_to_letters([1, -2, 1]) == (0, 3, 0)
        assert signed_word_to_letters([]) == ()
        assert signed_word_to_letters([-1]) == (1,)

    def test_free_reduce_cancels_adjacent_inverses(self):
        assert free_reduce([1, -1, 2]) == (2,)
        assert free_reduce([1, 2, -2, -1]) == ()
        assert free_reduce([1, 2, 1]) == (1, 2, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12))
    def test_free_reduce_is_idempotent_and_no_shorter_cancellation(self, word):
        reduced = free_reduce(word)
        assert free_reduce(reduced) == reduced
        for a, b in zip(reduced, reduced[1:]):
            assert a != -b  # adjacent letters never cancel


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


class TestPowerRelatorClosingCheck:
    @staticmethod
    def _complete(relators, rows):
        table = CosetTable(1, relators, max_cosets=10)
        table.table = [row[:] for row in rows]
        table.p = list(range(len(rows)))
        table.nlive = len(rows)
        return table

    def test_cycle_whose_length_does_not_divide_n_is_rejected(self):
        three_cycle = [[1, 2], [2, 0], [0, 1]]
        assert not self._complete([[1] * 4], three_cycle)._closed_and_consistent()
        assert not self._complete([[-1] * 4], three_cycle)._closed_and_consistent()
        assert self._complete([[1] * 6], three_cycle)._closed_and_consistent()

    def test_every_cycle_must_divide_n(self):
        # A fixed point and a 2-cycle: x**2 fixes all three cosets, x**3 does not.
        rows = [[0, 0], [2, 2], [1, 1]]
        assert self._complete([[1, 1]], rows)._closed_and_consistent()
        assert not self._complete([[1, 1, 1]], rows)._closed_and_consistent()

    def test_a_column_that_is_no_permutation_is_rejected(self):
        # 0 -> 1 -> 1: x**n fixes coset 1 for every n but never coset 0.
        rows = [[1, UNDEF], [1, 0]]
        for n in (1, 2, 5):
            assert not self._complete([[1] * n], rows)._closed_and_consistent()


class ReferenceTable(CosetTable):
    """The enumerator with the scan that walks the whole word again from
    alpha after every definition and the closing check that traces every
    relator letter by letter; the HLT passes and coincidence processing are shared."""

    def _scan(self, alpha: int, word: Sequence[int], fill: bool, closed=None) -> None:
        table = self.table
        while True:
            f = alpha
            i = 0
            n = len(word)
            while i < n:
                nxt = table[f][word[i]]
                if nxt == UNDEF:
                    break
                f = nxt
                i += 1
            if i == n:
                if f != alpha:
                    self._coincidence(f, alpha)
                return
            b = alpha
            j = n - 1
            while j >= i:
                prev = table[b][word[j] ^ 1]
                if prev == UNDEF:
                    break
                b = prev
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                self._set(f, word[i], b)
                return
            if not fill:
                return
            self._define(f, word[i])
            alpha = self.rep(alpha)

    def _closed_and_consistent(self) -> bool:
        for alpha in range(len(self.table)):
            if self.p[alpha] != alpha:
                continue
            row = self.table[alpha]
            if any(entry == UNDEF or self.p[entry] != entry for entry in row):
                return False
            if any(self._trace(alpha, word) != alpha for word in self.relators):
                return False
        return all(self._trace(0, word) == 0 for word in self.subgroup)


def _run(cls, ngens, relators, subgroup, max_cosets):
    """Outcome, rows defined, live count and live rows of one enumeration."""
    table = cls(ngens, relators, max_cosets, subgroup)
    try:
        outcome = table.enumerate()
    except CosetLimitExceeded:
        outcome = "limit"
    except InternalCheckError:
        outcome = "unstable"
    live = [row for alpha, row in enumerate(table.table) if table.p[alpha] == alpha]
    return outcome, len(table.table), table.nlive, live


@st.composite
def _presentations(draw):
    """A presentation on 1-3 generators: power relators up to x**40 (either
    sign), conjugation relators X_a x_b x_a X_c**e with e up to 20 and short
    words, in any order; subgroup words; a small coset limit."""
    ngens = draw(st.integers(1, 3))
    gen = st.integers(1, ngens)
    letter = gen.flatmap(lambda g: st.sampled_from([g, -g]))
    words = st.lists(letter, max_size=8)
    relators = [
        [g * sign] * n
        for g, n, sign in draw(
            st.lists(st.tuples(gen, st.integers(1, 40), st.sampled_from([1, -1])), max_size=3)
        )
    ]
    relators += [
        [-a, b, a] + [-c] * e
        for a, b, c, e in draw(st.lists(st.tuples(gen, gen, gen, st.integers(1, 20)), max_size=3))
    ]
    relators += draw(st.lists(words, max_size=2))
    subgroup = draw(st.lists(words, max_size=2))
    return ngens, draw(st.permutations(relators)), subgroup, draw(st.integers(1, 64))


class TestReferenceScan:
    @settings(max_examples=300, deadline=None)
    @given(_presentations())
    def test_same_enumeration_as_the_restarting_scan(self, presentation):
        assert _run(CosetTable, *presentation) == _run(ReferenceTable, *presentation)

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 97])
    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 200])
    def test_cyclic_and_dihedral_calibration(self, n, limit):
        # x y X: at a fresh coset the backward walk stops at the entry that
        # the forward definition fills, so it must walk on after defining.
        for relators, subgroup in (
            ([[1] * n], []),
            ([[1] * n, [2, 2], [-2, 1, 2, 1]], [[2]]),
            ([[1] * n, [2, 2], [-2, 1, 2, 1]], [[1, 1]]),
            ([[1, 2, -1], [1] * n, [2, 2]], []),
        ):
            presentation = (2 if len(relators) > 1 else 1, relators, subgroup, limit)
            assert _run(CosetTable, *presentation) == _run(ReferenceTable, *presentation)


def _enumeration_digest_script():
    path = os.path.join(ROOT, "scripts", "enumeration_digest.py")
    spec = importlib.util.spec_from_file_location("enumeration_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (index or limit hit, rows defined, live) of every verdict enumeration of
# order <= 32, at the default limit and at 1, 2, 3, 5 and |G| live cosets;
# the values were taken with the scan that ReferenceTable keeps.
ENUMERATION_32_SHA256 = {
    "theorem3": "ccf41ff3798fbcbea3239c70d3093794abc7480a5b1b27c9b4a18fe92e6451e4",
    "hall": "7d8bd612822411c239e5d5f74a965c6ad9c014d991bff51140f3043abae33fc5",
}


@pytest.mark.parametrize("mode", sorted(ENUMERATION_32_SHA256))
def test_enumeration_digest_to_order_32(mode):
    script = _enumeration_digest_script()
    digest = script.enumeration_digest(
        32, mode, lambda order: (DEFAULT_COSET_FACTOR * order, 1, 2, 3, 5, order)
    )
    assert digest == ENUMERATION_32_SHA256[mode]


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
