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

A scan is SCANANDFILL (Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, 2005, ch. 5): it walks the word forward from alpha and
backward from alpha until the two ends meet or leave a gap, and when a gap
of two or more letters is left it defines the coset f^x = beta at the
forward end and carries on from (beta, i + 1) and from the backward end it
had reached.  Walking the whole word again from alpha would find the same
two ends: the definition adds only the entries f^x = beta and beta^(x^-1)
= f, and a freely reduced word never walks on out of the fresh beta, so the
next definition, deduction or coincidence is the one the re-walk would
find.

A power relator x**n is scanned by cycles.  A forward walk that comes back
to alpha after l steps skips the whole turns and walks only n mod l more.
When l divides n the scan closes, and every coset of alpha's x-cycle is
recorded as closed for that relator; a later scan of it at a recorded live
coset returns at once.  The record stays true: coincidence processing maps
the table onto its representatives homomorphically (a defined gamma^x =
delta becomes rep(gamma)^x = rep(delta)), so the cycle of a live recorded
coset still closes after a length dividing l.  The final check reads a power
relator as "every x-cycle of the live table has a length dividing n", which
holds exactly when x**n fixes every live coset.

Coincidences are processed with a union-find structure (path-compressing
``rep``) and a queue, transplanting every edge of a dying coset onto its
representative, exactly in the classical formulation.  The lower-numbered
coset survives a merge, so coset 0 stays live.

Letters: generator i (0-based) is column 2*i, its inverse is column 2*i + 1,
so ``letter ^ 1`` inverts.  Public entry points accept words over signed
integers (+-(i+1)), freely reduce them there (``free_reduce``, which the
active-sum presentations share) and convert.
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


def free_reduce(word: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs ``k, -k`` of a signed word (0 is kept,
    so ``signed_word_to_letters`` still rejects it)."""
    out: list[int] = []
    for k in word:
        if out and k and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def _is_power(word: Sequence[int]) -> bool:
    """True iff the nonempty word is one letter repeated: x**n."""
    return word.count(word[0]) == len(word)


def _letter_word(word: Sequence[int]) -> tuple[int, ...]:
    """A signed word as a freely reduced column-letter word; a power x**n is
    reduced as it stands and converted in one piece."""
    if word and _is_power(word):
        return signed_word_to_letters(word[:1]) * len(word)
    return signed_word_to_letters(free_reduce(word))


def _letter_words(words: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Signed words as freely reduced column-letter words, empty ones dropped."""
    return tuple(w for w in map(_letter_word, words) if w)


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
        # Per relator: for a power x**n, the cosets recorded on a closed
        # x-cycle (module docstring); None for every other relator.
        self._closed: tuple[set[int] | None, ...] = tuple(
            set() if _is_power(word) else None for word in self.relators
        )
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

    def _scan(
        self, alpha: int, word: Sequence[int], fill: bool, closed: set[int] | None = None
    ) -> None:
        """Trace word at alpha; fill gaps (HLT) or, with fill=False
        (lookahead), only close one-entry gaps.

        ``closed`` is the record of a power relator (module docstring), None
        for any other word.  May trigger coincidences.  With fill=False a
        multi-entry gap simply leaves the scan incomplete.
        """
        table = self.table
        n = len(word)
        f = alpha
        i = 0
        if closed is None:
            while i < n:
                nxt = table[f][word[i]]
                if nxt == UNDEF:
                    break
                f = nxt
                i += 1
        elif alpha in closed:
            return
        else:
            x = word[0]
            while i < n:
                nxt = table[f][x]
                if nxt == UNDEF:
                    break
                f = nxt
                i += 1
                if f == alpha:  # an x-cycle of length i: skip its whole turns
                    rest = n % i
                    if rest:
                        for _ in range(rest):
                            f = table[f][x]
                    else:
                        for _ in range(i):
                            closed.add(f)
                            f = table[f][x]
                    i = n
        if i == n:
            if f != alpha:
                self._coincidence(f, alpha)
            return
        b = alpha
        j = n - 1
        while True:
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
            f = self._define(f, word[i])
            i += 1

    # -- HLT driver --------------------------------------------------------------

    def _hlt_pass(self) -> None:
        for word in self.subgroup:
            self._scan(0, word, fill=True)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            for word, closed in zip(self.relators, self._closed):
                self._scan(alpha, word, True, closed)
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
                for word, closed in zip(self.relators, self._closed):
                    self._scan(alpha, word, False, closed)
                    if self.p[alpha] != alpha:
                        break
            alpha += 1

    # -- verification and public API ---------------------------------------------

    def _trace(self, alpha: int, word: Sequence[int]) -> int:
        """The coset alpha^word (meaningful once every live row is complete)."""
        for letter in word:
            alpha = self.table[alpha][letter]
        return alpha

    def _cycles_divide(self, x: int, n: int, live: list[int]) -> bool:
        """True iff every x-cycle through the live cosets has a length
        dividing n, that is x**n fixes every live coset (rows complete)."""
        table = self.table
        seen: set[int] = set()
        for alpha in live:
            if alpha in seen:
                continue
            cycle = [alpha]
            c = table[alpha][x]
            while c != alpha and len(cycle) < n:
                cycle.append(c)
                c = table[c][x]
            if c != alpha or n % len(cycle):
                return False
            seen.update(cycle)
        return True

    def _closed_and_consistent(self) -> bool:
        """True iff all live rows are complete, all relators scan trivially
        and every subgroup word loops at coset 0."""
        table, p = self.table, self.p
        live = [alpha for alpha in range(len(table)) if p[alpha] == alpha]
        for alpha in live:
            if any(entry == UNDEF or p[entry] != entry for entry in table[alpha]):
                return False
        for word, closed in zip(self.relators, self._closed):
            if closed is not None:
                if not self._cycles_divide(word[0], len(word), live):
                    return False
            elif any(self._trace(alpha, word) != alpha for alpha in live):
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
