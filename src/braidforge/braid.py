"""Braid words, the Artin representation, and pure braid machinery.

A braid word is given by its letters, signed Artin generator indices (``i``
means sigma_i, ``-i`` sigma_i^-1), or built from braids by :func:`product`,
``*``, ``~`` and ``**``; a built braid keeps its parts and spells out its
letters only when they are read.  The word farther left acts first:
artin(a*b) = compose(artin(a), artin(b)) under the right-action convention
of :mod:`braidforge.freegroup`.

Braid equality is :func:`braid_equal`, decided by Garside left normal form
(:mod:`braidforge.garside`, read by this module alone).  Each braid keeps
its normal form as :attr:`BraidWord.form`: a given word reads it from its
letters, and a built one multiplies its parts' cached forms, so a block
built once is normalised once and a conjugate of it costs one product of
forms.  Before it reads a form, :func:`braid_equal` cancels the top-level
parts both braids share at either end (the same object with the same
sign), so two conjugates by one braid compare only their middles; ``~~x``
is ``x`` itself, so a conjugate by an inverse shares its ends too.  The
Artin representation is kept for the places that print or
inspect free-group images, and as an independent oracle in the tests.
One kernel, :func:`_byte_images`, reads a word right to left: prefixing
one letter to a word whose action is already known rewrites only the
images of the two generators that letter moves.  Each image is held as a
conjugate c t_z c^-1 with c not ending in t_z^{+-1}, so a letter costs one
:func:`_join` of reduced words.  The kernel holds each image as ``bytes``,
one signed byte per letter, so inverting an image is a slice and finding
how far two words cancel is one integer XOR; this bounds it at 127 strands
(the CLI's guard needs at most 37).  The bytes have two readers:
:func:`artin` decodes each image to a :class:`Word`, and
:func:`conjugate_splits` reads each image's core z and the exponent sums
of its conjugator c straight off them.  Outside this module every image is
a :class:`Word`.
A normal form holds one byte per strand position, so
:attr:`BraidWord.form` takes at most 256 strands.

Raw letters are checked in one place, :func:`braid`, which rejects a strand
count below 1 and a letter outside +-1..+-(n-1); the wiring parser reads
each braid line through it.  Everything built from a braid (products, the
named braids, which check their own indices, Artin images, permutations) is
trusted and not checked again, except that :func:`product` and
:func:`braid_equal` check that strand counts agree.

Each strand fact has one form: :func:`permutation` is the tuple of end
positions, which :func:`is_pure` compares with the identity, and
:func:`linking_pairs` is the sparse map {(i, j): linking number} of a pure
braid, counted straight from its crossings.
"""
from __future__ import annotations

from functools import cache, cached_property
from operator import sub
from typing import Iterable, Sequence

from . import garside
from .freegroup import Endomorphism, Word
from .garside import NormalForm, inverse, normal_form
from .report import Report

__all__ = [
    "BraidWord",
    "BraidError",
    "braid",
    "empty_braid",
    "artin",
    "conjugate_splits",
    "braid_equal",
    "permutation",
    "is_pure",
    "pure_gen",
    "full_twist",
    "u_chain",
    "linking_pairs",
    "product",
    "verify_braid_relations",
    "verify_pure_braid_relations",
    "braid_to_text",
]


class BraidError(ValueError):
    pass


class BraidWord:
    """A braid in B_n: a word given by its letters, or a product of (braid, +-1) parts.

    No reduction is performed, and ``==`` is identity: braid equality is
    :func:`braid_equal`.  The constructor checks nothing: raw letters come in
    through :func:`braid`, and the package's own builders pass it letters
    they have already bounded.  Both lazy properties walk the parts with an
    explicit stack, so a deep chain such as ``b = b * s`` needs no recursion.
    Such a chain still keeps every intermediate braid as a part, and once
    ``form`` is read, each intermediate's normal form too, so its memory
    grows with the square of its length: 3000 steps of ``b = b * s`` on 3
    strands peak at about 60 MB (``ru_maxrss``, after ``form`` and
    ``letters``), where one ``product([s] * 3000)`` peaks at about 17 MB.
    Build a long word with a single :func:`product` call.
    """

    def __init__(self, strands: int, letters: tuple[int, ...], parts=()) -> None:
        self.strands = strands
        self.parts: tuple[tuple[BraidWord, int], ...] = parts
        self.length = sum(p.length for p, _ in parts) if parts else len(letters)
        if not parts:
            self.__dict__["letters"] = letters

    @cached_property
    def letters(self) -> tuple[int, ...]:
        """The letters of a built braid, spelled out on first read and kept on it alone."""
        out: list[int] = []
        stack = [(self, 1)]
        while stack:
            b, sign = stack.pop()
            known = b.__dict__.get("letters")
            if known is None:  # the part spelled first goes on top
                stack += [(p, s * sign) for p, s in (b.parts if sign < 0 else b.parts[::-1])]
            else:
                out += known if sign > 0 else [-x for x in reversed(known)]
        return tuple(out)

    @cached_property
    def form(self) -> NormalForm:
        """Garside left normal form: read from given letters, multiplied from built parts.

        Each simple factor holds one byte per strand position, so this takes
        at most 256 strands.
        """
        n = self.strands
        if n > 256:
            raise BraidError(f"normal forms take at most 256 strands (one byte per position), got {n}")
        if not self.parts:
            return normal_form(n, self.letters)
        stack = [self]
        while stack:
            b = stack.pop()
            todo = [p for p, _ in b.parts if p.parts and "form" not in p.__dict__]
            if todo:
                stack += [b] + todo
            elif "form" not in b.__dict__:
                forms = [p.form if s > 0 else inverse(p.form) for p, s in b.parts]
                b.__dict__["form"] = garside.product(b.strands, forms) if forms[1:] else forms[0]
        return self.__dict__["form"]

    def __mul__(self, other: BraidWord) -> BraidWord:
        return product([self, other])

    def __invert__(self) -> BraidWord:
        if not self.length:
            return self
        if len(self.parts) == 1:  # only ~ builds a one-part braid, so ~~x is x
            return self.parts[0][0]
        return BraidWord(self.strands, (), ((self, -1),))

    def __pow__(self, k: int) -> BraidWord:
        return product([self] * k if k >= 0 else [~self] * -k, self.strands)


def braid(n: int, letters: Iterable[int]) -> BraidWord:
    """Check raw signed Artin generator indices and make them a braid word on n strands."""
    if n < 1:
        raise BraidError(f"strand count must be positive, got {n}")
    letters = tuple(letters)
    top = n - 1
    if letters and (min(letters) < -top or max(letters) > top or 0 in letters):
        bad = next(x for x in letters if x == 0 or abs(x) > top)
        raise BraidError(f"letter {bad} out of range for {n} strands")
    return BraidWord(n, letters)


@cache
def empty_braid(n: int) -> BraidWord:
    """The trivial braid on n strands: one shared word, so one normal form."""
    return BraidWord(n, ())


def product(braids: Sequence[BraidWord], n: int | None = None) -> BraidWord:
    """The braids multiplied left to right; an empty product needs the strand count n.

    The result keeps the braids as its parts, without flattening nested
    products, so their cached forms are reused.  Empty factors are dropped,
    so a product with one nontrivial factor is that braid, and one with none
    is the shared empty word.
    """
    if not braids:
        if n is None:
            raise BraidError("empty product needs an explicit strand count")
        return empty_braid(n)
    strands = braids[0].strands
    for b in braids:
        if b.strands != strands:
            raise BraidError(f"strand mismatch: {strands} != {b.strands}")
    factors = [b for b in braids if b.length]
    if len(factors) <= 1:
        return factors[0] if factors else empty_braid(strands)
    return BraidWord(strands, (), tuple((b, 1) for b in factors))


# One signed byte per letter: ``x`` is stored as ``x % 256``, so a word's
# inverse is ``w[::-1].translate(_NEG)``, and ``_LETTER`` decodes a byte to
# one shared int object per letter value.
_NEG = bytes(-c % 256 for c in range(256))
_LETTER = tuple(c - 256 if c > 127 else c for c in range(256))
_CORE = tuple(bytes((c, -c % 256)) for c in range(256))  # the letters t_z^{+-1} of core byte c


def _join(x: bytes, y: bytes) -> bytes:
    """The reduced word x y from reduced byte words x and y, x nonempty.

    y may be empty: in :func:`_byte_images` it is an image's conjugator half.
    x's last k letters cancel y's first k exactly when x ends with the
    inverse of y[:k].  XOR the last m bytes of x with the inverse of y[:m]
    as big-endian integers: a cancelling letter is a zero byte at the low
    end, so k is the number of trailing zero bytes, and all m when the XOR
    is 0.
    """
    if not y or x[-1] != _NEG[y[0]]:
        return x + y
    m = min(len(x), len(y))
    d = int.from_bytes(x[-m:], "big") ^ int.from_bytes(y[:m][::-1].translate(_NEG), "big")
    k = ((d & -d).bit_length() - 1) >> 3 if d else m
    return x[:len(x) - k] + y[k:]


def _byte_images(b: BraidWord) -> list[bytes]:
    """The Artin images of the generators under b, one signed byte per letter.

    sigma_i sends t_i -> t_i t_{i+1} t_i^-1 and t_{i+1} -> t_i, and fixes
    the other generators.  The letters are read right to left: with psi the
    action of the suffix already read, sigma_i sets
    psi(t_i) <- psi(t_i) psi(t_{i+1}) psi(t_i)^-1 and psi(t_{i+1}) <- psi(t_i),
    and sigma_i^-1 sets psi(t_i) <- psi(t_{i+1}) and
    psi(t_{i+1}) <- psi(t_{i+1})^-1 psi(t_i) psi(t_{i+1}).  Every image is a
    conjugate c t_z c^-1 (Artin 1925), held reduced as c + z + c^-1 with c
    not ending in t_z^{+-1}; so sigma_i sets psi(t_i) to the conjugate of z
    by u c (u = psi(t_i), c t_z c^-1 = psi(t_{i+1})), sigma_i^-1 likewise:
    one :func:`_join` per letter, whose trailing t_z^{+-1} letters commute
    with t_z and are stripped, so w + z + w^-1 is reduced.  The images are
    ``bytes``, so all of this runs in C; that bounds the strand count at 127.
    """
    n = b.strands
    if n > 127:
        raise BraidError(f"artin takes at most 127 strands (one signed byte per letter), got {n}")
    images = [bytes((i,)) for i in range(1, n + 1)]
    for gen in reversed(b.letters):
        i = abs(gen) - 1
        u, v = images[i], images[i + 1]
        if gen > 0:
            h = len(v) >> 1
            w = _join(u, v[:h]).rstrip(_CORE[v[h]])
            images[i], images[i + 1] = w + v[h:h + 1] + w[::-1].translate(_NEG), u
        else:
            h = len(u) >> 1
            w = _join(v[::-1].translate(_NEG), u[:h]).rstrip(_CORE[u[h]])
            images[i], images[i + 1] = v, w + u[h:h + 1] + w[::-1].translate(_NEG)
    return images


def artin(b: BraidWord) -> Endomorphism:
    """The Artin representation of a braid word as a free-group endomorphism.

    The images come from :func:`_byte_images`, each decoded once.
    """
    n = b.strands
    letter = _LETTER.__getitem__
    return Endomorphism(n, tuple(Word(n, tuple(map(letter, img))) for img in _byte_images(b)))


def conjugate_splits(b: BraidWord) -> list[tuple[int, tuple[int, ...]]]:
    """(z, ab) for each t_s, where artin(b) sends t_s to c t_z c^-1, c reduced.

    ab is the exponent-sum vector of c, one entry per generator.  Both are
    read off the byte image c + z + c^-1, so no :class:`Word` is built:
    t_k^{+-1} is the byte k or 256 - k, and each is counted in C.
    """
    n = b.strands
    ks, negs = range(1, n + 1), range(255, 255 - n, -1)
    splits = []
    for img in _byte_images(b):
        h = len(img) >> 1
        c = img[:h]
        splits.append((img[h], tuple(map(sub, map(c.count, ks), map(c.count, negs)))))
    return splits


def _spine(b: BraidWord) -> list[tuple[BraidWord, int]]:
    """The top-level parts of b as (braid, sign), with each ``~w`` read as (w, -1)."""
    spine = []
    for p, s in b.parts or ((b, 1),):
        if len(p.parts) == 1:
            q, t = p.parts[0]
            p, s = q, s * t
        spine.append((p, s))
    return spine


def _middle(n: int, parts: list[tuple[BraidWord, int]]) -> BraidWord:
    """The product of a run of spine parts, reusing a lone part and its cached form."""
    if len(parts) == 1:
        p, s = parts[0]
        return p if s > 0 else ~p
    return BraidWord(n, (), tuple(parts)) if parts else empty_braid(n)


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """True iff the two words define the same element of B_n.

    The top-level parts the two braids share at either end cancel first:
    a shared part is the same object with the same sign, ``~w`` counting as
    (w, -1).  If a = P X S and b = P Y S, then a = b exactly when X = Y, so
    only the middles' normal forms are read, and a conjugate compared with a
    conjugate by the same braid never normalises the conjugator.  Only the
    spine is inspected, not the parts' own parts.
    """
    n = a.strands
    if n != b.strands:
        raise BraidError(f"strand mismatch: {n} != {b.strands}")
    x, y = _spine(a), _spine(b)
    # == on (braid, sign) pairs is identity on the braid: BraidWord has no __eq__
    m = min(len(x), len(y))
    head = 0
    while head < m and x[head] == y[head]:
        head += 1
    tail = 0
    while tail < m - head and x[-1 - tail] == y[-1 - tail]:
        tail += 1
    if not head and not tail:
        return a.form == b.form
    return _middle(n, x[head:len(x) - tail]).form == _middle(n, y[head:len(y) - tail]).form


def permutation(b: BraidWord) -> tuple[int, ...]:
    """Strand permutation of a braid word, sign-insensitive per letter.

    Entry ``i - 1`` is the end position of the strand that starts at position i.
    """
    at = list(range(1, b.strands + 1))
    for x in b.letters:
        i = abs(x) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    images = [0] * b.strands
    for pos, label in enumerate(at, start=1):
        images[label - 1] = pos
    return tuple(images)


def is_pure(b: BraidWord) -> bool:
    """True iff every strand of the braid word ends where it starts."""
    return permutation(b) == tuple(range(1, b.strands + 1))


def pure_gen(i: int, j: int, n: int) -> BraidWord:
    """A_{i,j} = s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1."""
    if not (1 <= i < j <= n):
        raise BraidError(f"need 1 <= i < j <= n, got ({i}, {j}, {n})")
    letters = list(range(j - 1, i, -1)) + [i, i] + [-k for k in range(i + 1, j)]
    return BraidWord(n, tuple(letters))


def full_twist(V: Iterable[int], n: int) -> BraidWord:
    """Full twist A_V on the strand set V; a singleton gives the empty braid."""
    ks = sorted(set(V))
    if not ks:
        raise BraidError("full twist needs a nonempty strand set")
    if ks[0] < 1 or ks[-1] > n:
        raise BraidError(f"strand indices {ks} out of range for n={n}")
    letters: list[int] = []
    for t in range(1, len(ks)):
        for s in range(t):
            letters.extend(pure_gen(ks[s], ks[t], n).letters)
    return BraidWord(n, tuple(letters))


def u_chain(r: int, s: int, n: int) -> BraidWord:
    """U_{r,s} = A_{r,r+1} A_{r,r+2} ... A_{r,s}; empty when s = r."""
    if not (1 <= r <= s <= n):
        raise BraidError(f"need 1 <= r <= s <= n, got ({r}, {s}, {n})")
    letters: list[int] = []
    for k in range(r + 1, s + 1):
        letters.extend(pure_gen(r, k, n).letters)
    return BraidWord(n, tuple(letters))


def linking_pairs(b: BraidWord) -> dict[tuple[int, int], int]:
    """Linking numbers of a pure braid as {(i, j): value}, i < j, 1-based, keys ascending.

    Half the signed crossings of each pair of strands (two strands of a
    pure braid end in their starting order, so they cross an even number of
    times); pairs that do not link are left out.  This is the
    abelianization of P_n onto the free abelian group on the A_{i,j},
    computed by direct crossing counting, independently of the Artin
    representation.
    """
    counts: dict[tuple[int, int], int] = {}
    start = list(range(1, b.strands + 1))
    at = start[:]
    for x in b.letters:
        i = abs(x) - 1
        a, c = at[i], at[i + 1]
        pair = (a, c) if a < c else (c, a)
        counts[pair] = counts.get(pair, 0) + (1 if x > 0 else -1)
        at[i], at[i + 1] = c, a
    if at != start:
        raise BraidError("linking numbers are defined for pure braids only")
    return {pair: v // 2 for pair, v in sorted(counts.items()) if v}


def _pure_rel_rhs(i: int, j: int, k: int, l: int, n: int) -> tuple[str, BraidWord]:
    """The case of A_{i,j}^-1 A_{k,l} A_{i,j} and the braid it equals."""
    A = lambda a, b: pure_gen(a, b, n)
    if k == i or k == j:
        case, c = ("k=i" if k == i else "k=j"), A(i, l) * A(j, l)
    elif i < k < j:
        ail, ajl = A(i, l), A(j, l)
        case, c = "i<k<j", ail * ajl * ~ail * ~ajl
    else:
        return "otherwise", A(k, l)
    return case, c * A(k, l) * ~c


def verify_braid_relations(n: int) -> Report:
    """Check every defining relation of B_n."""
    if n < 2:
        raise BraidError("need n >= 2")
    report = Report(f"braid relations, n={n}")
    for i in range(1, n - 1):
        report.add(
            f"s{i} s{i+1} s{i} = s{i+1} s{i} s{i+1}",
            braid_equal(braid(n, (i, i + 1, i)), braid(n, (i + 1, i, i + 1))),
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            report.add(f"s{i} s{j} = s{j} s{i}", braid_equal(braid(n, (i, j)), braid(n, (j, i))))
    return report


def verify_pure_braid_relations(n: int) -> Report:
    """Check every instance of the pure braid relations A_{i,j}^-1 A_{k,l} A_{i,j}."""
    if n < 2:
        raise BraidError("need n >= 2")
    report = Report(f"pure braid relations, n={n}")
    for j in range(2, n + 1):
        for i in range(1, j):
            conj = pure_gen(i, j, n)
            for l in range(j + 1, n + 1):
                for k in range(1, l):
                    lhs = ~conj * pure_gen(k, l, n) * conj
                    case, rhs = _pure_rel_rhs(i, j, k, l, n)
                    report.add(
                        f"A[{i},{j}]^-1 A[{k},{l}] A[{i},{j}] ({case})", braid_equal(lhs, rhs)
                    )
    return report


def braid_to_text(b: BraidWord) -> str:
    """Space-separated signed integers; the trivial braid is the empty string."""
    return " ".join(str(x) for x in b.letters)
