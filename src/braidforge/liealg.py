"""Free Lie algebras on Lyndon bases and holonomy Lie algebra ranks.

Everything is exact over the integers/rationals.  Elements are integer
combinations of Lyndon words with their standard bracketings; a bracket of
two basis elements is rewritten in the basis itself, by the standard
factorization and Jacobi, without expanding into the free associative
algebra.

Graded ranks of a holonomy presentation (free Lie algebra modulo
degree-two relations) are computed two ways:

* direct elimination: the degree-k ideal component satisfies
  I_2 = span(relations) and I_{k+1} = [L_1, I_k].  This recurrence is
  complete because the ideal is generated in degree two and the algebra in
  degree one: writing a higher bracket [u, v] with u = [a, b] via Jacobi,
  [[a,b],v] = [a,[b,v]] - [b,[a,v]], pushes every bracketing of the ideal
  into brackets by degree-one elements, by induction on the degree of u.

* level certification: when the presentation carries the level/flat
  structure of a fiber-type arrangement, the ranks equal the Witt sums of
  the per-level free Lie algebras.  The upper bound is the straightening
  argument above (every mixed bracket rewrites into the top level modulo
  relations, given that every mixed hyperplane pair lies in a flat with a
  single lower member); the lower bound is a machine-checked surjection
  onto the semidirect sum of the per-level free Lie algebras, which exists
  precisely when the induced derivation action kills the lower-level
  relations.  That is decided on the flats alone, by set operations: the
  blocks that the members of each lower flat cut on a higher level must
  close up into a partition.  Both sides are exact; no numerics anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

__all__ = [
    "LieError",
    "LieElement",
    "HolonomyPresentation",
    "witt_rank",
    "witt_sums",
    "lyndon_words",
    "standard_factorization",
    "bracket",
    "generator",
    "flat_relations",
    "holonomy_relations_from_flats",
    "graded_ranks",
]

ELIMINATION_DIM_LIMIT = 260


class LieError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Witt numbers and Lyndon words


def _mobius(m: int) -> int:
    if m == 1:
        return 1
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    if m > 1:
        mu = -mu
    return mu


def witt_rank(d: int, k: int) -> int:
    """Number of degree-k Lyndon words over d letters: (1/k) sum mu(m) d^{k/m}."""
    if d < 1 or k < 1:
        raise LieError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    total = 0
    for m in range(1, k + 1):
        if k % m == 0:
            total += _mobius(m) * d ** (k // m)
    return total // k


def witt_sums(sizes: Sequence[int], max_degree: int) -> list[int]:
    """Degree 1..max_degree ranks of a direct sum of free Lie algebras on ``sizes`` generators."""
    return [sum(witt_rank(d, k) for d in sizes) for k in range(1, max_degree + 1)]


@lru_cache(maxsize=None)
def lyndon_words(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of length k over the ordered alphabet 1..d, lex sorted."""
    if d < 1 or k < 1:
        raise LieError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    out: list[tuple[int, ...]] = []
    w = [1]
    while w:
        if len(w) == k:
            out.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) - m])
        while w and w[-1] == d:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def standard_factorization(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word of length >= 2 as (u, v) with v its least proper suffix."""
    if len(w) < 2:
        raise LieError(f"no factorization of a single letter {w}")
    v = min(w[s:] for s in range(1, len(w)))
    return w[: len(w) - len(v)], v


def _accumulate(acc: dict, items: Iterable, scale: int = 1) -> dict:
    """Add scale * items, given as (key, coefficient) pairs, into the sparse row acc.

    Entries that cancel are dropped, so acc never holds a zero.  This is the
    one place where sparse integer rows are added; acc is returned.
    """
    for key, c in items:
        new = acc.get(key, 0) + scale * c
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return acc


@lru_cache(maxsize=None)
def _bracket_pair(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """[b(u), b(v)] in Lyndon coordinates, as a hashable item tuple.

    For Lyndon words u < v, uv is Lyndon with standard factorization (u, v)
    when u is a letter or the right factor u2 of u = (u1, u2) has u2 >= v,
    so the bracket is the single basis element b(uv).  Otherwise Jacobi,
    [[b(u1), b(u2)], b(v)] = [b(u1), [b(u2), b(v)]] + [[b(u1), b(v)], b(u2)],
    rewrites it through this cache (Reutenauer, Free Lie Algebras, ch. 5).
    """
    if u == v:
        return ()
    if v < u:
        return tuple((w, -c) for w, c in _bracket_pair(v, u))
    if len(u) == 1:
        return ((u + v, 1),)
    u1, u2 = standard_factorization(u)
    if u2 >= v:
        return ((u + v, 1),)
    terms: dict[tuple[int, ...], int] = {}
    for w, c in _bracket_pair(u2, v):
        _accumulate(terms, _bracket_pair(u1, w), c)
    for w, c in _bracket_pair(u1, v):
        _accumulate(terms, _bracket_pair(w, u2), c)
    return tuple(sorted(terms.items()))


# ---------------------------------------------------------------------------
# elements


@dataclass
class LieElement:
    """Homogeneous integer combination of degree-k Lyndon basis brackets."""

    degree: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for w, c in list(self.terms.items()):
            if len(w) != self.degree:
                raise LieError(f"term {w} has wrong degree (expected {self.degree})")
            if not c:
                del self.terms[w]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LieElement") -> "LieElement":
        if self.degree != other.degree:
            raise LieError("cannot add elements of different degrees")
        return LieElement(self.degree, _accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "LieElement":
        return LieElement(self.degree, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)


def generator(i: int) -> LieElement:
    if i < 1:
        raise LieError(f"generator index must be positive, got {i}")
    return LieElement(1, {(i,): 1})


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket, expanded exactly in the Lyndon basis."""
    degree = a.degree + b.degree
    terms: dict[tuple[int, ...], int] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            _accumulate(terms, _bracket_pair(u, v), cu * cv)
    return LieElement(degree, terms)


# ---------------------------------------------------------------------------
# holonomy presentations


@dataclass(frozen=True)
class HolonomyPresentation:
    """Generators with degree-two relations; optional fiber-type structure.

    ``levels`` assigns each generator its tower level, and ``flats`` lists
    codimension-two flats as tuples of 0-based generator indices; both are
    needed only by the certified rank path.  A flat may not repeat a member,
    and no pair of generators may lie in two flats; the certificate's
    block-closure check (c) relies on that.
    """

    d: int
    labels: tuple[str, ...]
    relations: tuple[LieElement, ...]
    levels: tuple[int, ...] | None = None
    flats: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise LieError("a holonomy presentation needs at least one generator")
        if len(self.labels) != self.d:
            raise LieError("label count disagrees with generator count")
        for rel in self.relations:
            if rel.degree != 2:
                raise LieError("holonomy relations must be of degree 2")
        if self.levels is not None and len(self.levels) != self.d:
            raise LieError("level count disagrees with generator count")
        # a flat is a set, and two hyperplanes span exactly one flat
        pairs: set[tuple[int, int]] = set()
        for flat in self.flats or ():
            for a, b in combinations(sorted(flat), 2):
                if a == b:
                    raise LieError(f"flat member {self.labels[a]!r} is repeated")
                if (a, b) in pairs:
                    raise LieError(
                        f"pair {self.labels[a]!r}, {self.labels[b]!r} lies in two flats"
                    )
                pairs.add((a, b))


def flat_relations(flat: Sequence[int]) -> list[LieElement]:
    """The m-1 relations [x_{q_1}+...+x_{q_m}, x_{q_k}], k = 2..m, of one flat.

    Generators are 1-based.  The k = 1 relation is minus the sum of these,
    so the m-1 listed relations span all m and are independent.
    """
    rels = []
    for q in flat[1:]:
        terms: dict[tuple[int, ...], int] = {}
        for s in flat:
            _accumulate(terms, _bracket_pair((s,), (q,)))
        rels.append(LieElement(2, terms))
    return rels


def holonomy_relations_from_flats(flats, labels) -> HolonomyPresentation:
    """Holonomy presentation of an arrangement from its maximal flats.

    This is the one constructor of flats presentations.  ``labels`` fixes
    the generator order and must be distinct; each flat, a sequence of
    labels, contributes its ``flat_relations``.  Generator names come from
    ``label()`` where the labels have it, and level data is attached when
    they all expose a ``level`` attribute.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise LieError("duplicate hyperplane labels")
    rels: list[LieElement] = []
    flat_indices: list[tuple[int, ...]] = []
    for flat in flats:
        try:
            idx = tuple(index[h] for h in flat)
        except KeyError as exc:
            raise LieError(f"flat member {exc.args[0]!r} is not a known label") from exc
        flat_indices.append(idx)
        rels.extend(flat_relations([i + 1 for i in idx]))
    levels = None
    if labels and all(hasattr(lab, "level") for lab in labels):
        levels = tuple(lab.level for lab in labels)
    names = tuple(lab.label() if hasattr(lab, "label") else str(lab) for lab in labels)
    return HolonomyPresentation(
        len(labels), names, tuple(rels), levels, tuple(flat_indices)
    )


# ---------------------------------------------------------------------------
# exact sparse echelon over the rationals (integer rows, gcd-normalized)


def _echelon_insert(pivots: dict[tuple[int, ...], dict], row: dict) -> bool:
    """Reduce a sparse integer row against pivots; install it if nonzero.

    The function owns ``row``: it is reduced in place and may itself become
    the installed pivot, so callers pass a fresh dict.  Installed pivot rows
    are never changed.
    """
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            g = 0
            for c in row.values():
                g = gcd(g, c)
            if g > 1:
                row = {w: c // g for w, c in row.items()}
            if row[lead] < 0:
                row = {w: -c for w, c in row.items()}
            pivots[lead] = row
            return True
        a, b = piv[lead], row[lead]
        g = gcd(a, b)
        ma, mb = a // g, b // g
        if ma != 1:
            row = {w: c * ma for w, c in row.items()}
        _accumulate(row, piv.items(), -mb)
    return False


def _rank_of_rows(rows: Iterable[dict]) -> tuple[int, dict]:
    pivots: dict[tuple[int, ...], dict] = {}
    for row in rows:
        _echelon_insert(pivots, dict(row))
    return len(pivots), pivots


def graded_ranks(
    pres: HolonomyPresentation,
    max_degree: int,
    method: str = "auto",
    elimination_limit: int = ELIMINATION_DIM_LIMIT,
) -> list[int]:
    """Graded ranks of the holonomy Lie algebra, degrees 1..max_degree.

    ``method`` selects the computation: "elimination" applies the ideal
    recurrence with exact sparse elimination, "tower" uses the certified
    level decomposition, and "auto" picks elimination when it fits and the
    tower path otherwise.  The decision is made once, in this order: the
    reach, the highest degree whose ambient Lyndon dimensions all fit
    ``elimination_limit``, is computed; elimination runs when asked for, or
    under "auto" when the reach is ``max_degree``, and raises when the reach
    falls short; otherwise the tower path needs the level and flat data,
    certifies it, and runs elimination through the reach as a canary.
    """
    if max_degree < 1:
        raise LieError("need max_degree >= 1")
    if method not in ("auto", "elimination", "tower"):
        raise LieError(f"unknown method {method!r}")
    d = pres.d
    reach = _elimination_reach(d, max_degree, elimination_limit)
    if method == "elimination" or (method == "auto" and reach == max_degree):
        if reach < max_degree:
            raise LieError(
                f"degree {reach + 1} ambient dimension {witt_rank(d, reach + 1)} exceeds "
                f"the elimination limit {elimination_limit}; use the tower method or "
                "raise the limit"
            )
        return _elimination_ranks(pres, max_degree)
    if pres.levels is None or pres.flats is None:
        if method == "auto":
            raise LieError(
                "presentation too large for exact elimination "
                f"(ambient dimension exceeds {elimination_limit}) and carries "
                "no level structure for the certified path"
            )
        raise LieError("tower method needs level and flat data")
    _certify_tower(pres)
    ranks = witt_sums([pres.levels.count(lv) for lv in set(pres.levels)], max_degree)
    # internal canary: the elimination oracle must agree wherever it is cheap
    if reach >= 2:
        elim = _elimination_ranks(pres, reach)
        if elim != ranks[:reach]:
            raise LieError(
                "internal inconsistency: certified ranks disagree with "
                f"elimination through degree {reach}: {ranks[:reach]} vs {elim}"
            )
    return ranks


def _elimination_reach(d: int, max_degree: int, limit: int) -> int:
    """How far elimination may run: the largest degree up to max_degree such
    that every ambient Lyndon dimension from degree 2 through it is <= limit."""
    for k in range(2, max_degree + 1):
        if witt_rank(d, k) > limit:
            return k - 1
    return max_degree


def _word_code(w: tuple[int, ...], d: int) -> int:
    """Integer code of a word over 1..d: its negated base-(d+1) digit value.

    Among words of one length a smaller code is a lex-larger word, so the
    ``min(row)`` lead of ``_echelon_insert`` is the row's lex-largest word.
    """
    value = 0
    for letter in w:
        value = value * (d + 1) + letter
    return -value


def _elimination_ranks(pres: HolonomyPresentation, max_degree: int) -> list[int]:
    """The ideal recurrence I_{k+1} = [L_1, I_k] on integer-coded Lyndon words.

    Rows are keyed by ``_word_code``, so each pivot leads with its lex-largest
    word; that keeps pivots sparser than lex-least leads do.  The rows
    [x_g, p] of the next degree go in generator-major, g ascending.  For
    g <= w[0] the bracket [x_g, b(w)] is the one basis element b(gw), so the
    rows of a small generator are mostly copies of pivots shifted by g, with
    distinct leads (g,) + lead(p); they install with little reduction, and the
    rows of later generators reduce against these sparse pivots.  Ranks do
    not depend on the order.  The coded images [x_g, b(w)] of the current
    generator are kept in one table, dropped when g is done.
    """
    d = pres.d
    word_of: dict[int, tuple[int, ...]] = {}

    def coded(items: Iterable) -> dict[int, int]:
        row = {}
        for w, c in items:
            code = _word_code(w, d)
            word_of[code] = w
            row[code] = c
        return row

    _, pivots = _rank_of_rows(coded(rel.terms.items()) for rel in pres.relations)
    ranks = [d]
    for k in range(2, max_degree + 1):
        ranks.append(witt_rank(d, k) - len(pivots))
        if k == max_degree:
            break
        next_pivots: dict[int, dict] = {}
        for gen in range(1, d + 1):
            image: dict[int, tuple] = {}
            for row in pivots.values():
                terms: dict[int, int] = {}
                for code, c in row.items():
                    items = image.get(code)
                    if items is None:
                        items = image[code] = tuple(
                            coded(_bracket_pair((gen,), word_of[code])).items()
                        )
                    _accumulate(terms, items, c)
                if terms:
                    _echelon_insert(next_pivots, terms)
        pivots = next_pivots
    return ranks


# -- certified tower path ----------------------------------------------------


def _certify_tower(pres: HolonomyPresentation) -> None:
    """Validate the level/flat structure and the derivation certificate.

    (a) Every flat has exactly one member below its top level, and every
    mixed-level pair lies in exactly one flat.  Then the flat relations are
    independent, one per mixed pair, and span the kernel of the degree-2
    map onto the semidirect sum of the per-level free Lie algebras.  (b)
    Every flat relation lies in the presented span, and the presented rank
    equals their number; together these say that the presented span is the
    flat span, so every presented relation vanishes in the semidirect sum,
    whichever basis of the span is given.  (c) The induced derivation action
    of the lower levels kills their flat relations on every higher level.
    That holds exactly when, for every flat below a level, the blocks its
    members cut on the level close up into a partition; the proof is at the
    check.  Failure of any check raises.
    """
    levels = pres.levels
    flats = pres.flats
    assert levels is not None and flats is not None
    labels = pres.labels

    # A flat {x} + B, with x below the level lv of B, puts B in one block of
    # x on lv; only blocks of two or more members are kept.
    blocks: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    covered: set[tuple[int, int]] = set()
    tops: list[int] = []
    for flat in flats:
        top = max(levels[g] for g in flat)
        tops.append(top)
        lower = [g for g in flat if levels[g] < top]
        if len(lower) != 1:
            raise LieError(
                f"flat {tuple(labels[g] for g in flat)} does not have exactly one "
                "member below its top level"
            )
        if len(flat) > 2:
            block = tuple(g for g in flat if levels[g] == top)
            blocks.setdefault((lower[0], top), []).append(block)
        covered.update((a, b) for a in flat for b in flat if a < b and levels[a] != levels[b])
    for a in range(pres.d):
        for b in range(a + 1, pres.d):
            if levels[a] != levels[b] and (a, b) not in covered:
                raise LieError(
                    f"mixed pair {labels[a]!r}, {labels[b]!r} is not covered by any flat"
                )

    # flat relations lie in the presented span (degree-2 elimination); an
    # install raises at once, so the pivot table needs no copy
    _, pivots = _rank_of_rows(dict(rel.terms) for rel in pres.relations)
    for flat in flats:
        for rel in flat_relations([g + 1 for g in flat]):
            if _echelon_insert(pivots, dict(rel.terms)):
                raise LieError(
                    f"flat relation for {tuple(labels[g] for g in flat)} is not implied "
                    "by the presentation"
                )
    # the flat relations are a basis of the kernel, so a larger presented
    # rank means some presented relation survives in the semidirect sum
    if len(pivots) != sum(len(flat) - 1 for flat in flats):
        raise LieError(
            "presented relation does not vanish in the semidirect sum; certificate fails"
        )

    # Lower relations act trivially on every higher level lv.  Those below lv
    # are combinations of the relations [sum F, x], x in F, of the flats F
    # below lv, which act as [D_F, D_x] with D_F the sum of D_x over F.  A
    # generator x below lv acts by D_x y = [y, sum S], S the block of x
    # through y (the level's members of the flat through x and y).  These
    # blocks partition the level, so D_x is the sum of d_S over them, with
    # d_S z = [z, sum S] on S and 0 off it, and by Jacobi d_S and d_T commute
    # when S and T are disjoint or nested.  Join y and z when some x in F
    # puts them in one block; no two members of F join the same pair, as
    # that pair would lie in two flats.
    # * If every joined class U is a clique, then D_F is the sum of d_U, each
    #   block of each D_x lies in some U, and so [D_F, D_x] = 0.
    # * If y-z-w are joined but y and w are not, and x joins y and z, then
    #   [D_F, D_x] z = [z, E] where [y, w] has coefficient -1 in E, and in a
    #   free Lie algebra [z, E] = 0 only for E = 0.
    # Levels ascend, so the lowest failing level is the one named.
    for lv in sorted(set(levels))[1:]:
        for flat, top in zip(flats, tops):
            if top >= lv:
                continue
            joined: dict[int, set[int]] = {}
            for x in flat:
                for block in blocks.get((x, lv), ()):
                    for y in block:
                        joined.setdefault(y, set()).update(block)
            # each class is a clique: all that y joins join the same set
            if any(joined[z] != near for near in joined.values() for z in near):
                raise LieError(
                    f"lower-level relation acts nontrivially on level {lv}; "
                    "certificate fails"
                )
