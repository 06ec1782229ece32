"""Garside left normal form in the braid group B_n.

Every braid has a unique left normal form Delta^k A_1 ... A_m (Garside 1969;
El-Rifai & Morton 1994).  Delta is the positive half twist, and each A_i is
a simple element other than 1 and Delta: a positive braid in which every
pair of strands crosses at most once.  Every pair (A_i, A_{i+1}) is
left-weighted: the starting set of A_{i+1} lies in the finishing set of A_i.
Two braid words are equal in B_n exactly when their normal forms are equal,
so braid equality is tuple equality of (k, factors) and needs no free-group
images.

A simple element is stored as ``bytes`` of length n holding the 0-based
position map of its strands: the strand starting at position j ends at
position ``perm[j]``.  So a position is one byte, which bounds the strand
count at 256 (:attr:`braidforge.braid.BraidWord.form` checks it).  Inverting
a map is one ``bytes.translate`` through ``bytes.maketrans``, and tau and the
complement reverse or translate through a flip table v -> n-1-v, so all
three run in C.  Letters act left to right as in :mod:`braidforge.braid`, so
sigma_i swaps positions i-1 and i.  The starting set of a simple element
(the sigma_i it can begin with) is the descent set of its map, and the
finishing set is the descent set of the inverse map.  Both are held as
bitmasks, bit i-1 for sigma_i.

The left-weighting step is memoised: ``_left_weight`` is a pure function of
two ``bytes``, and an ``lru_cache`` keyed on the pair (a, b) keeps its last
1024 results.  Blocks shared across a suite's checks meet the same pairs in
different products, so at monomial (3,4) and (6,6) about a third of the
presentation suite's calls are hits; a full memo holds 0.2-0.35 MB.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterable

__all__ = [
    "Simple",
    "NormalForm",
    "normal_form",
    "product",
    "inverse",
    "simple_tau",
    "complement",
    "starting_set",
    "finishing_set",
]

Simple = bytes


@dataclass(frozen=True)
class NormalForm:
    """Delta^power A_1 ... A_m in B_strands, with left-weighted simple factors."""

    strands: int
    power: int
    factors: tuple[Simple, ...]


@cache
def _tables(n: int) -> tuple[bytes, bytes, bytes]:
    """The identity and Delta of B_n as simple elements, and the flip table v -> n-1-v."""
    ident = bytes(range(n))
    delta = ident[::-1]
    return ident, delta, delta.ljust(256, b"\0")


def _inverse_map(a: bytes) -> bytes:
    ident = _tables(len(a))[0]
    return ident.translate(bytes.maketrans(a, ident))


def _descents(p) -> int:
    mask = 0
    for i in range(len(p) - 1):
        if p[i] > p[i + 1]:
            mask |= 1 << i
    return mask


def starting_set(a: Simple) -> int:
    """Bitmask of the sigma_i that a simple element can begin with."""
    return _descents(a)


def finishing_set(a: Simple) -> int:
    """Bitmask of the sigma_i that a simple element can end with."""
    return _descents(_inverse_map(a))


def simple_tau(a: Simple) -> Simple:
    """Delta a Delta^-1, which maps sigma_i to sigma_{n-i}."""
    return a[::-1].translate(_tables(len(a))[2])


def complement(a: Simple) -> Simple:
    """The right complement a^-1 Delta, a simple element."""
    return _inverse_map(a).translate(_tables(len(a))[2])


@lru_cache(maxsize=1024)
def _left_weight(a: Simple, b: Simple):
    """Left-weight the pair (a, b): returns (a', b') with a'b' = ab, or None.

    If b is Delta, a Delta = Delta tau(a) gives (Delta, tau(a)), or None when
    a is Delta too.  Otherwise the largest prefix c of b for which ac is
    still simple is the meet of b and the complement of a: a pair of strands
    j < k may cross in c only if it crosses in b and has not crossed in a.
    Inserting the strands in turn builds the final order of c, because every
    forced "j stays before k" chain runs through indices between j and k:
    strand k goes right after the last strand placed so far that it may not
    overtake.  The loop inserts the values of b and of a^-1 in that order,
    so b' = c^-1 b is the first list and a' = ac inverts the second.  None
    means c = 1: the pair is left-weighted.
    """
    ident, delta, _ = _tables(len(b))
    if b == delta:
        return None if a == b else (b, simple_tau(a))
    ai = ident.translate(bytes.maketrans(a, ident))
    bo: list[int] = []
    ao: list[int] = []
    for k, bk in enumerate(b):
        ak = ai[k]
        p = k
        while p and bo[p - 1] > bk and ao[p - 1] < ak:
            p -= 1
        bo.insert(p, bk)
        ao.insert(p, ak)
    b2 = bytes(bo)
    return None if b2 == b else (ident.translate(bytes.maketrans(bytes(ao), ident)), b2)


class _Product:
    """Right multiplication onto Delta^power tau^twist(F_1 ... F_m).

    The stored factors F_i are kept untwisted: multiplying by Delta^-1 only
    flips ``twist``, and tau is applied to the factors once, in ``result``.
    Each new factor is swept leftwards by ``_left_weight`` (one step carries a
    Delta past a factor); a normal form multiplied onto no stored factors is
    already left-weighted and is taken as it is, with ``twist`` reset, since
    tau^twist of no factors is the identity.
    """

    def __init__(self, n: int):
        self.n = n
        self.ident, self.half_twist, _ = _tables(n)
        self.power = 0
        self.twist = 0
        self.factors: list[Simple] = []

    def delta_power(self, e: int) -> None:
        self.power += e
        self.twist ^= e & 1

    def simple(self, s: Simple) -> None:
        if self.twist:
            s = simple_tau(s)
        factors = self.factors
        factors.append(s)
        j = len(factors) - 1
        while j:
            pair = _left_weight(factors[j - 1], factors[j])
            if pair is None:
                break
            factors[j - 1], factors[j] = pair
            j -= 1
        ident, half_twist = self.ident, self.half_twist
        while factors and factors[-1] == ident:
            factors.pop()
        while factors and factors[0] == half_twist:
            del factors[0]
            self.power += 1

    def letters(self, letters: Iterable[int]) -> None:
        """Multiply by a word, one maximal simple run at a time.

        A positive run sigma_{g_1} ... sigma_{g_k} in which no two strands
        cross twice is one simple element R.  A negative run
        sigma_{g_1}^-1 ... sigma_{g_k}^-1 is T^-1 for the simple element
        T = sigma_{g_k} ... sigma_{g_1}, and T^-1 = Delta^-1 tau(T^-1 Delta).
        Appending sigma_g to R swaps entries g, g+1 of the inverse map of R,
        and prepending it to T swaps entries g, g+1 of the map of T; either
        is allowed while those two entries are increasing.
        """
        run: list[int] | None = None
        sign = 0
        for x in letters:
            g = abs(x) - 1
            if run is not None and ((x > 0) != (sign > 0) or run[g] > run[g + 1]):
                self._close_run(run, sign)
                run = None
            if run is None:
                run, sign = list(range(self.n)), x
            run[g], run[g + 1] = run[g + 1], run[g]
        if run is not None:
            self._close_run(run, sign)

    def _close_run(self, run: list[int], sign: int) -> None:
        inv = _inverse_map(bytes(run))
        if sign > 0:
            self.simple(inv)
        else:  # tau(T^-1 Delta) is the inverse map of T reversed
            self.delta_power(-1)
            self.simple(inv[::-1])

    def form(self, y: NormalForm) -> None:
        self.delta_power(y.power)
        if self.factors:
            for s in y.factors:
                self.simple(s)
        else:  # a normal form is already left-weighted, and tau moves no factor
            self.twist = 0
            self.factors = list(y.factors)

    def result(self) -> NormalForm:
        factors = self.factors
        if self.twist:
            factors = [simple_tau(a) for a in factors]
        return NormalForm(self.n, self.power, tuple(factors))


def normal_form(n: int, letters: Iterable[int]) -> NormalForm:
    """Left normal form of the word in signed Artin generator indices of B_n."""
    b = _Product(n)
    b.letters(letters)
    return b.result()


def product(n: int, forms: Iterable[NormalForm]) -> NormalForm:
    """Normal form of the product of the given normal forms, left to right."""
    b = _Product(n)
    for y in forms:
        b.form(y)
    return b.result()


def inverse(x: NormalForm) -> NormalForm:
    """(Delta^k A_1..A_m)^-1 = Delta^(-k-m) tau^(k+m)(dA_m) ... tau^(k+1)(dA_1).

    Here dA = A^-1 Delta is the right complement; the reversed sequence of
    twisted complements is again left-weighted, so no sweep is needed.
    tau(dA) is the inverse map of A reversed, as in ``_Product._close_run``.
    """
    k, m = x.power, len(x.factors)
    out = []
    for i in range(m, 0, -1):
        a = x.factors[i - 1]
        out.append(_inverse_map(a)[::-1] if (k + i) & 1 else complement(a))
    return NormalForm(x.strands, -k - m, tuple(out))
