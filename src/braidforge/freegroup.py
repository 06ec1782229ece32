"""Reduced words in finitely generated free groups, and their endomorphisms.

A word in the free group on t_1, ..., t_rank is a fully reduced sequence of
signed generator indices: the letter ``i`` stands for t_i and ``-i`` for
t_i^-1.  Every constructor reduces, so equality of group elements is plain
sequence equality.

Raw letters are checked in one place, :func:`word`, which rejects a rank
below 1 and a letter outside +-1..+-rank.  A :class:`Word` built from words
already checked (by the group operations, :func:`apply`, or the Artin images
of a checked braid) is trusted and not checked again; the operations that
combine two values still check that their ranks agree.

Endomorphisms compose under the right-action convention: ``compose(a, b)``
is the map "apply a, then b".  Conjugation is ``u^v = v^-1 u v`` and the
commutator is ``[u, v] = u v u^-1 v^-1``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

__all__ = [
    "Word",
    "Endomorphism",
    "WordError",
    "word",
    "multiply",
    "invert",
    "conjugate",
    "commutator",
    "peel_conjugate",
    "apply",
    "compose",
    "identity",
    "abelianize",
    "word_to_text",
]

class WordError(ValueError):
    """Malformed word data: bad letter, rank mismatch, or a word of the wrong shape."""


def _check_letters(letters: Sequence[int], rank: int) -> None:
    if letters and (min(letters) < -rank or max(letters) > rank or 0 in letters):
        bad = next(x for x in letters if x == 0 or abs(x) > rank)
        raise WordError(f"letter {bad} out of range for rank {rank}")


def _reduce_list(letters: Iterable[int]) -> list[int]:
    out: list[int] = []
    push = out.append
    pop = out.pop
    for x in letters:
        if out and out[-1] == -x:
            pop()
        else:
            push(x)
    return out


@dataclass(frozen=True)
class Word:
    """A reduced word in the free group of the given rank.

    Instances are immutable; build them through :func:`word` or the group
    operations, which always reduce.  The constructor checks nothing.
    """

    rank: int
    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)


def word(rank: int, letters: Sequence[int]) -> Word:
    """Check a raw signed-index sequence and freely reduce it into a Word."""
    if rank < 1:
        raise WordError(f"rank must be positive, got {rank}")
    _check_letters(letters, rank)
    return Word(rank, tuple(_reduce_list(letters)))


def multiply(u: Word, v: Word) -> Word:
    if u.rank != v.rank:
        raise WordError(f"rank mismatch: {u.rank} != {v.rank}")
    return Word(u.rank, tuple(_reduce_list(u.letters + v.letters)))


def invert(u: Word) -> Word:
    return Word(u.rank, tuple(-x for x in reversed(u.letters)))


def conjugate(u: Word, v: Word) -> Word:
    """u^v = v^-1 u v."""
    return multiply(multiply(invert(v), u), v)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return multiply(multiply(u, v), multiply(invert(u), invert(v)))


def peel_conjugate(w: Word) -> tuple[Word, int]:
    """Split a reduced word of the form u t_s u^-1 into (u, s)."""
    letters = w.letters
    half = len(letters) // 2
    u = letters[:half]
    if (
        len(letters) % 2 == 0
        or letters[half] < 0
        or [-x for x in reversed(u)] != list(letters[half + 1:])
    ):
        raise WordError(f"not a conjugate of a generator: {w}")
    return Word(w.rank, u), letters[half]


def abelianize(u: Word) -> tuple[int, ...]:
    """Exponent-sum vector of the word, one entry per generator."""
    counts = [0] * u.rank
    for x in u.letters:
        if x > 0:
            counts[x - 1] += 1
        else:
            counts[-x - 1] -= 1
    return tuple(counts)


@dataclass(frozen=True)
class Endomorphism:
    """An endomorphism of the free group, stored by generator images."""

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise WordError(f"need {self.rank} images, got {len(self.images)}")
        for img in self.images:
            if img.rank != self.rank:
                raise WordError("image rank mismatch")


def identity(rank: int) -> Endomorphism:
    return Endomorphism(rank, tuple(Word(rank, (i,)) for i in range(1, rank + 1)))


def apply(e: Endomorphism, u: Word) -> Word:
    """Image of a word under an endomorphism, fully reduced."""
    if e.rank != u.rank:
        raise WordError(f"rank mismatch: {e.rank} != {u.rank}")
    images = e.images
    letters = chain.from_iterable(
        images[x - 1].letters if x > 0 else [-y for y in reversed(images[-x - 1].letters)]
        for x in u.letters
    )
    return Word(u.rank, tuple(_reduce_list(letters)))


def compose(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    """Right-action product a*b = b after a: apply(compose(a,b), w) = b(a(w))."""
    if a.rank != b.rank:
        raise WordError(f"rank mismatch: {a.rank} != {b.rank}")
    return Endomorphism(a.rank, tuple(apply(b, img) for img in a.images))


def _tokens(names) -> dict[int, str]:
    """Each letter's spelling in the generator names ``names``: ``t -> name``, ``-t -> name^-1``."""
    tokens = {i: name for i, name in enumerate(names, start=1)}
    tokens.update({-i: f"{name}^-1" for i, name in tokens.items()})
    return tokens


def _word_text(w: Word, tokens: dict[int, str]) -> str:
    """The word spelled through a ``_tokens`` table; the empty word is ``1``."""
    return " ".join(map(tokens.__getitem__, w.letters)) or "1"


def word_to_text(u: Word) -> str:
    """Render as juxtaposed tokens like ``t3 t3^-1``; the empty word is ``1``."""
    return _word_text(u, _tokens(f"t{i}" for i in range(1, u.rank + 1)))
