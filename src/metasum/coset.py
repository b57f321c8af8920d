"""Todd-Coxeter coset enumeration over a subgroup given by generating words.

Given a finite presentation <x_1..x_n | w_1..w_k> and words h_1..h_l
generating a subgroup H, the enumerator builds the (right) coset table of H
and returns the number of live cosets, which is the index [G : H] of H in
the presented group G whenever the enumeration closes.  With no subgroup
words H is trivial, the table is the regular permutation representation and
the index is the order of G.

The strategy is HLT with lookahead: each pass first scans every subgroup
word at coset 0 (the coset H itself), then each coset is scanned against
every relator with gaps filled by defining new cosets, then its remaining row
entries are filled.  When the live-coset count would exceed ``max_cosets``
the enumerator first attempts a lookahead pass (scanning all relators
everywhere without defining anything, harvesting coincidences only) and
resumes if that freed space; otherwise it raises CosetLimitExceeded.  The
enumeration is deterministic for a fixed input.

Coincidences are processed with a union-find structure (path-compressing
``rep``) and a queue, transplanting every edge of a dying coset onto its
representative, exactly in the classical formulation.  The lower-numbered
coset survives a merge, so coset 0 stays live.

Letters: generator i (0-based) is column 2*i, its inverse is column 2*i + 1,
so ``letter ^ 1`` inverts.  Public entry points accept words over signed
integers (+-(i+1)) and convert.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import CosetLimitExceeded, InternalCheckError

UNDEF = -1


class _TableFull(Exception):
    """Internal: a define was refused; triggers lookahead in the driver."""


def signed_word_to_letters(word: Sequence[int]) -> tuple[int, ...]:
    """Convert a word over +-(i+1) generator numbers into column letters."""
    letters = []
    for k in word:
        if k == 0:
            raise ValueError("0 is not a valid signed generator")
        idx = abs(k) - 1
        letters.append(2 * idx if k > 0 else 2 * idx + 1)
    return tuple(letters)


def free_reduce(letters: Sequence[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs."""
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == letter ^ 1:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _letter_words(words: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Signed words as freely reduced column-letter words, empty ones dropped."""
    return tuple(w for w in (free_reduce(signed_word_to_letters(v)) for v in words) if w)


class CosetTable:
    """Mutable enumeration state for one presentation and subgroup."""

    def __init__(
        self,
        ngens: int,
        relators: Iterable[Sequence[int]],
        max_cosets: int,
        subgroup: Iterable[Sequence[int]] = (),
    ):
        if max_cosets < 1:
            raise ValueError("max_cosets must be positive")
        self.ngens = ngens
        self.width = 2 * ngens
        self.relators = _letter_words(relators)
        self.subgroup = _letter_words(subgroup)
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[UNDEF] * self.width]
        self.p: list[int] = [0]
        self.nlive = 1

    # -- union-find ---------------------------------------------------------

    def rep(self, k: int) -> int:
        """Representative of coset k with path compression."""
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def _merge(self, a: int, b: int, queue: deque[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.p[hi] = lo
        self.nlive -= 1
        queue.append(hi)

    # -- low-level table operations ------------------------------------------

    def _define(self, alpha: int, x: int) -> int:
        """Create a fresh coset beta with alpha^x = beta."""
        if self.nlive >= self.max_cosets:
            raise _TableFull
        beta = len(self.table)
        self.table.append([UNDEF] * self.width)
        self.p.append(beta)
        self.nlive += 1
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha
        return beta

    def _set(self, alpha: int, x: int, beta: int) -> None:
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha

    def _coincidence(self, a: int, b: int) -> None:
        """Merge cosets a and b and transplant all edges of dying cosets."""
        queue: deque[int] = deque()
        self._merge(a, b, queue)
        table = self.table
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for x in range(self.width):
                delta = row[x]
                if delta == UNDEF:
                    continue
                table[delta][x ^ 1] = UNDEF
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu][x] != UNDEF:
                    self._merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] != UNDEF:
                    self._merge(mu, table[nu][x ^ 1], queue)
                else:
                    self._set(mu, x, nu)

    # -- scanning --------------------------------------------------------------

    def _scan(self, alpha: int, word: Sequence[int], fill: bool) -> None:
        """Trace word at alpha; fill gaps (HLT) or, with fill=False
        (lookahead), only close one-entry gaps.

        May trigger coincidences.  With fill=False a multi-entry gap simply
        leaves the scan incomplete.
        """
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

    # -- HLT driver --------------------------------------------------------------

    def _hlt_pass(self) -> None:
        for word in self.subgroup:
            self._scan(0, word, fill=True)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            for word in self.relators:
                self._scan(alpha, word, fill=True)
                if self.p[alpha] != alpha:
                    break
            if self.p[alpha] == alpha:
                row = self.table[alpha]
                for x in range(self.width):
                    if row[x] == UNDEF:
                        self._define(alpha, x)
            alpha += 1

    def _lookahead(self) -> None:
        """Scan everything without defining, to harvest pending coincidences."""
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] == alpha:
                for word in self.relators:
                    self._scan(alpha, word, fill=False)
                    if self.p[alpha] != alpha:
                        break
            alpha += 1

    # -- verification and public API ---------------------------------------------

    def _trace(self, alpha: int, word: Sequence[int]) -> int:
        """The coset alpha^word (meaningful once every live row is complete)."""
        for letter in word:
            alpha = self.table[alpha][letter]
        return alpha

    def _closed_and_consistent(self) -> bool:
        """True iff all live rows are complete, all relators scan trivially
        and every subgroup word loops at coset 0."""
        for alpha in range(len(self.table)):
            if self.p[alpha] != alpha:
                continue
            row = self.table[alpha]
            if any(entry == UNDEF or self.p[entry] != entry for entry in row):
                return False
            if any(self._trace(alpha, word) != alpha for word in self.relators):
                return False
        return all(self._trace(0, word) == 0 for word in self.subgroup)

    def enumerate(self) -> int:
        """Run to closure and return the number of cosets (the index)."""
        if self.width == 0:
            return 1
        clean_passes = 0
        while True:
            try:
                self._hlt_pass()
            except _TableFull:
                before = self.nlive
                self._lookahead()
                if self.nlive >= before and self.nlive >= self.max_cosets:
                    raise CosetLimitExceeded(
                        f"{self.nlive} live cosets at limit {self.max_cosets}"
                    ) from None
                continue
            if self._closed_and_consistent():
                return self.nlive
            clean_passes += 1
            if clean_passes > 100:
                raise InternalCheckError("coset enumeration failed to stabilise")


def todd_coxeter(
    ngens: int,
    relators: Iterable[Sequence[int]],
    max_cosets: int,
    subgroup: Iterable[Sequence[int]] = (),
) -> int:
    """Index in <x_1..x_ngens | relators> of the subgroup generated by the
    ``subgroup`` words, by coset enumeration; with none, the group's order.

    All words are over signed generator numbers (+-(i+1)).  Raises
    CosetLimitExceeded when the table cannot close within ``max_cosets`` live
    cosets.  The result is independent of relator order.
    """
    return CosetTable(ngens, relators, max_cosets, subgroup).enumerate()
