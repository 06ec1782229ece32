import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge import liealg
from braidforge.arrangements import (
    build_typeb_tower,
    ft_bracket_relations,
    monomial_flats,
    monomial_hyperplanes,
)
from braidforge.liealg import (
    HolonomyPresentation,
    LieElement,
    LieError,
    _bracket_pair,
    _echelon_insert,
    flat_relations,
    _rank_of_rows,
    _word_code,
    bracket,
    generator,
    graded_ranks,
    holonomy_relations_from_flats,
    lyndon_words,
    standard_factorization,
    witt_rank,
)


def test_witt_values():
    assert [witt_rank(2, k) for k in (1, 2, 3)] == [2, 1, 2]
    assert witt_rank(1, 1) == 1
    assert all(witt_rank(1, k) == 0 for k in range(2, 9))
    assert [witt_rank(3, k) for k in range(1, 6)] == [3, 3, 8, 18, 48]
    assert liealg.witt_sums([1, 3], 4) == [4, 3, 8, 18]


def test_necklace_identity():
    for d in range(1, 6):
        for k in range(1, 9):
            assert d ** k == sum(
                m * witt_rank(d, m) for m in range(1, k + 1) if k % m == 0
            )


def test_lyndon_word_counts_match_witt():
    for d in range(1, 6):
        for k in range(1, 9 - d // 2):
            assert len(lyndon_words(d, k)) == witt_rank(d, k)


def is_lyndon(w):
    return all(w < w[s:] + w[:s] for s in range(1, len(w)))


def test_lyndon_enumeration_by_brute_force():
    from itertools import product

    for d, k in [(2, 5), (3, 4)]:
        brute = sorted(
            w for w in product(range(1, d + 1), repeat=k) if is_lyndon(w)
        )
        assert list(lyndon_words(d, k)) == brute


def test_standard_factorization():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
    with pytest.raises(LieError):
        standard_factorization((1,))


def test_bracket_basics():
    x1, x2 = generator(1), generator(2)
    assert bracket(x1, x1).is_zero()
    assert bracket(x1, x2).terms == {(1, 2): 1}
    assert bracket(x2, x1).terms == {(1, 2): -1}


def commutator_poly(P, Q):
    """The associative commutator PQ - QP of two noncommutative polynomials."""
    out = {}
    for u, cu in P.items():
        for v, cv in Q.items():
            for w, c in ((u + v, cu * cv), (v + u, -cu * cv)):
                out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def lyndon_poly(w):
    """Associative expansion of the standard bracketing of a Lyndon word."""
    if len(w) == 1:
        return {w: 1}
    return commutator_poly(*map(lyndon_poly, standard_factorization(w)))


def assoc_to_lyndon(P):
    """Lyndon coordinates of a Lie polynomial, by triangular extraction: the
    lex-least word of lyndon_poly(w) is w itself, with coefficient one."""
    P, out = dict(P), {}
    while P:
        w = min(P)
        assert is_lyndon(w), f"leading word {w} is not Lyndon"
        c = out[w] = P[w]
        for x, cx in lyndon_poly(w).items():
            P[x] = P.get(x, 0) - c * cx
            if not P[x]:
                del P[x]
    return out


@st.composite
def lyndon_pairs(draw):
    """Two Lyndon words over at most 5 letters, of total degree at most 7."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, 6))
    u = draw(st.sampled_from(lyndon_words(d, k)))
    v = draw(st.sampled_from(lyndon_words(d, draw(st.integers(1, 7 - k)))))
    return u, v


@settings(max_examples=300, deadline=None)
@given(lyndon_pairs())
def test_bracket_pair_matches_associative_oracle(pair):
    u, v = pair
    expected = assoc_to_lyndon(commutator_poly(lyndon_poly(u), lyndon_poly(v)))
    assert dict(_bracket_pair(u, v)) == expected


@st.composite
def lie_elements(draw, d=4, max_degree=3):
    k = draw(st.integers(1, max_degree))
    words = st.sampled_from(lyndon_words(d, k))
    terms = draw(st.dictionaries(words, st.integers(-3, 3), max_size=4))
    return LieElement(k, terms)


@settings(max_examples=60, deadline=None)
@given(lie_elements(), lie_elements(), lie_elements())
def test_bracket_antisymmetry_and_jacobi_on_random_elements(a, b, c):
    assert (bracket(a, b) + bracket(b, a)).is_zero()
    jacobi = (
        bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    )
    assert jacobi.is_zero()


def basis_elements(d, max_deg):
    return [
        LieElement(k, {w: 1})
        for k in range(1, max_deg + 1)
        for w in lyndon_words(d, k)
    ]


def test_jacobi_exhaustive_small():
    elems = basis_elements(3, 2)
    for u in elems:
        for v in elems:
            for w in elems:
                if u.degree + v.degree + w.degree > 5:
                    continue
                lhs = bracket(u, bracket(v, w))
                rhs = bracket(v, bracket(u, w)) + bracket(bracket(u, v), w)
                assert (lhs - rhs).is_zero()
                assert (bracket(u, v) + bracket(v, u)).is_zero()


def test_degree_mismatch_raises():
    with pytest.raises(LieError):
        generator(1) + LieElement(2, {(1, 2): 1})


def full_flat_relation(flat, q):
    """[x_{q_1} + ... + x_{q_m}, x_q], built with the public bracket."""
    total = LieElement(2, {})
    for s in flat:
        total = total + bracket(generator(s), generator(q))
    return total


def test_flat_relation_example():
    # a pair flat keeps only [x_a + x_b, x_b] = [x_a, x_b]
    (rel,) = flat_relations([1, 2])
    assert rel.terms == {(1, 2): 1}
    # the dropped [x_a + x_b, x_a] = [x_b, x_a] reduces to zero against it
    _, pivots = _rank_of_rows([dict(rel.terms)])
    assert not _echelon_insert(pivots, dict(full_flat_relation([1, 2], 1).terms))
    # a triple flat keeps k = 2, 3: [x_1 + x_2 + x_3, x_2] and [.., x_3]
    rels = flat_relations([1, 2, 3])
    assert [rel.terms for rel in rels] == [
        {(1, 2): 1, (2, 3): -1},
        {(1, 3): 1, (2, 3): 1},
    ]
    assert rels == [full_flat_relation([1, 2, 3], q) for q in (2, 3)]


def test_holonomy_from_flats_monomial22():
    hp = holonomy_relations_from_flats(monomial_flats(2, 2), monomial_hyperplanes(2, 2))
    assert hp.d == 4
    assert hp.levels == (1, 2, 2, 2)
    (flat,) = hp.flats
    assert len(hp.relations) == 3 == len(flat) - 1
    # the dropped relation of the first member is minus the sum of the kept
    # three, so it reduces to zero against them
    dropped = full_flat_relation([g + 1 for g in flat], flat[0] + 1)
    total = dropped
    for rel in hp.relations:
        total = total + rel
    assert total.is_zero() and not dropped.is_zero()
    rank, pivots = _rank_of_rows(dict(rel.terms) for rel in hp.relations)
    assert rank == 3
    assert not _echelon_insert(pivots, dict(dropped.terms))


def test_braid_arrangement_infinitesimal_relations():
    # flats of the braid arrangement on 3 strands: one triple flat
    rels = tuple(flat_relations([1, 2, 3]))
    pres = HolonomyPresentation(3, ("A12", "A13", "A23"), rels)
    assert graded_ranks(pres, 4) == [witt_rank(1, k) + witt_rank(2, k) for k in range(1, 5)]


def test_free_case_ranks_are_witt():
    pres = HolonomyPresentation(3, ("a", "b", "c"), ())
    assert graded_ranks(pres, 5) == [witt_rank(3, k) for k in range(1, 6)]


def test_monomial_22_ranks():
    hp = holonomy_relations_from_flats(monomial_flats(2, 2), monomial_hyperplanes(2, 2))
    assert graded_ranks(hp, 5, method="elimination") == [4, 3, 8, 18, 48]
    assert graded_ranks(hp, 5, method="tower") == [4, 3, 8, 18, 48]


@pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_monomial_rank_equalities(r, n):
    hp = holonomy_relations_from_flats(monomial_flats(r, n), monomial_hyperplanes(r, n))
    exps = [r * (j - 1) + 1 for j in range(1, n + 1)]
    expect = [sum(witt_rank(d, k) for d in exps) for k in range(1, 6)]
    assert graded_ranks(hp, 5) == expect


@pytest.mark.parametrize("r,n", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_explicit_relations_span_equalsflat_relations(r, n):
    # the m - 1 relations listed per flat are independent and span all m
    # relations [x_F, x_q] of every flat, q its first member included
    hp = holonomy_relations_from_flats(monomial_flats(r, n), monomial_hyperplanes(r, n))
    rank, pivots = _rank_of_rows(dict(x.terms) for x in hp.relations)
    assert rank == len(hp.relations) == sum(len(flat) - 1 for flat in hp.flats)
    for flat in hp.flats:
        members = [g + 1 for g in flat]
        for q in members:
            assert not _echelon_insert(dict(pivots), dict(full_flat_relation(members, q).terms))


def test_elimination_agrees_with_tower_where_both_run():
    # (1,3): ambient dimensions allow elimination through degree 4
    hp = holonomy_relations_from_flats(monomial_flats(1, 3), monomial_hyperplanes(1, 3))
    elim = graded_ranks(hp, 4, method="elimination", elimination_limit=400)
    tower = graded_ranks(hp, 4, method="tower")
    assert elim == tower


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_elimination_guard():
    # 12 generators: 66 Lyndon words in degree 2 and 572 in degree 3
    hp = holonomy_relations_from_flats(monomial_flats(3, 3), monomial_hyperplanes(3, 3))
    with pytest.raises(LieError, match=_exactly(
        "degree 3 ambient dimension 572 exceeds the elimination limit 260; "
        "use the tower method or raise the limit"
    )):
        graded_ranks(hp, 5, method="elimination")


def test_graded_ranks_rejects_a_bad_degree_or_method():
    pres = HolonomyPresentation(3, ("a", "b", "c"), ())
    with pytest.raises(LieError, match=_exactly("need max_degree >= 1")):
        graded_ranks(pres, 0)
    with pytest.raises(LieError, match=_exactly("unknown method 'foo'")):
        graded_ranks(pres, 3, method="foo")


def test_presentation_needs_a_generator():
    # refused at construction, not later inside a Witt count
    with pytest.raises(LieError, match=_exactly(
        "a holonomy presentation needs at least one generator"
    )):
        HolonomyPresentation(0, (), ())


def test_tower_needs_structure():
    pres = HolonomyPresentation(3, ("a", "b", "c"), ())
    with pytest.raises(LieError, match=_exactly("tower method needs level and flat data")):
        graded_ranks(pres, 3, method="tower")


def test_auto_without_structure_raises_when_too_big():
    pres = HolonomyPresentation(13, tuple(f"g{i}" for i in range(13)), ())
    with pytest.raises(LieError, match=_exactly(
        "presentation too large for exact elimination (ambient dimension exceeds 100) "
        "and carries no level structure for the certified path"
    )):
        graded_ranks(pres, 5, elimination_limit=100)


def test_tower_canary_runs_elimination_once_through_the_reach(monkeypatch):
    # monomial (2,3) has 9 generators and 36, 240, 1620 Lyndon words in
    # degrees 2-4, so at the default limit elimination reaches degree 3
    degrees = []

    def wrong(pres, max_degree, *rest):
        degrees.append(max_degree)
        return [0] * max_degree

    monkeypatch.setattr(liealg, "_elimination_ranks", wrong)
    hp = holonomy_relations_from_flats(monomial_flats(2, 3), monomial_hyperplanes(2, 3))
    with pytest.raises(LieError, match=r"^internal inconsistency: .* through degree 3: "):
        graded_ranks(hp, 5)
    assert degrees == [3]


def test_tower_certificate_rejects_corruption():
    hp = holonomy_relations_from_flats(monomial_flats(2, 3), monomial_hyperplanes(2, 3))
    with pytest.raises(LieError):
        bad = HolonomyPresentation(hp.d, hp.labels, hp.relations[:-4], hp.levels, hp.flats)
        graded_ranks(bad, 3, method="tower")
    junk = LieElement(2, {(1, 2): 1})
    with pytest.raises(LieError):
        bad_rels = hp.relations[:1] + (hp.relations[1] + junk,) + hp.relations[2:]
        bad = HolonomyPresentation(hp.d, hp.labels, bad_rels, hp.levels, hp.flats)
        graded_ranks(bad, 3, method="tower")
    with pytest.raises(LieError):
        bad = HolonomyPresentation(hp.d, hp.labels, hp.relations, hp.levels, hp.flats[:-1])
        graded_ranks(bad, 3, method="tower")
    # a bracket of two top-level generators is no relation of the semidirect sum
    top = [g + 1 for g, lv in enumerate(hp.levels) if lv == 3]
    extra = LieElement(2, {(top[0], top[1]): 1})
    with pytest.raises(LieError, match="does not vanish"):
        bad = HolonomyPresentation(hp.d, hp.labels, hp.relations + (extra,), hp.levels, hp.flats)
        graded_ranks(bad, 3, method="tower")
    # [a, b] = 0 on the lower levels, but a and b act on level 3 by derivations
    # that do not commute (elimination gives rank 6 in degree 3, not 8)
    flats = ((0, 1), (0, 2, 3), (0, 4), (1, 3, 4), (1, 2))
    rels = tuple(rel for f in flats for rel in flat_relations([g + 1 for g in f]))
    bad = HolonomyPresentation(5, tuple("abcde"), rels, (1, 2, 3, 3, 3), flats)
    assert graded_ranks(bad, 3, method="elimination") == [5, 3, 6]
    with pytest.raises(LieError, match="acts nontrivially"):
        graded_ranks(bad, 3, method="tower")


def test_tower_certificate_names_flat_members_below_the_top():
    # the flat {a, b, c} has two members below its top level 3
    flats = ((0, 1, 2),)
    rels = flat_relations([1, 2, 3])
    bad = HolonomyPresentation(3, ("a", "b", "c"), tuple(rels), (1, 2, 3), flats)
    with pytest.raises(LieError, match=r"flat \('a', 'b', 'c'\) does not have exactly one"):
        graded_ranks(bad, 2, method="tower")


def test_tower_certificate_names_an_uncovered_mixed_pair():
    bad = HolonomyPresentation(3, ("a", "b", "c"), (), (1, 2, 2), ((0, 1),))
    with pytest.raises(LieError, match="mixed pair 'a', 'c' is not covered by any flat"):
        graded_ranks(bad, 2, method="tower")


def test_tower_certificate_names_a_flat_whose_relation_is_not_implied():
    bad = HolonomyPresentation(2, ("a", "b"), (), (1, 2), ((0, 1),))
    with pytest.raises(LieError, match=r"flat relation for \('a', 'b'\) is not implied"):
        graded_ranks(bad, 2, method="tower")


def test_tower_certificate_does_not_depend_on_the_relation_basis():
    # the presentation above with [a, b] replaced by [a, b] + [a+c+d, d],
    # another flat relation: the span is the same, but no presented relation
    # now tops out below level 3.  The canary is off (limit 5), so only the
    # certificate stands between the Witt sums [5, 3, 8] and the output.
    flats = ((0, 1), (0, 2, 3), (0, 4), (1, 3, 4), (1, 2))
    rels = [rel for f in flats for rel in flat_relations([g + 1 for g in f])]
    a, c, d = generator(1), generator(3), generator(4)
    assert rels[0] == bracket(a, generator(2))
    rels[0] = rels[0] + bracket(a + c + d, d)
    swapped = HolonomyPresentation(5, tuple("abcde"), tuple(rels), (1, 2, 3, 3, 3), flats)
    assert graded_ranks(swapped, 3, method="elimination") == [5, 3, 6]
    with pytest.raises(LieError, match="acts nontrivially on level 3"):
        graded_ranks(swapped, 3, method="tower", elimination_limit=5)


def test_tower_certificate_checks_every_top_level_generator():
    # Level 3 is c, d, e, f.  a acts on d, e and b on e, f; neither moves c,
    # so [D_a, D_b] kills c, the first generator of the level, but sends d to
    # -[d, [e, f]].  A certificate that checked only c, or reused the
    # commutator of (a, b) from c for the others, would accept [a, b] = 0.
    flats = ((0, 1), (0, 2), (0, 3, 4), (0, 5), (1, 2), (1, 3), (1, 4, 5))
    rels = tuple(rel for f in flats for rel in flat_relations([g + 1 for g in f]))
    bad = HolonomyPresentation(6, tuple("abcdef"), rels, (1, 2, 3, 3, 3, 3), flats)
    witt = [sum(witt_rank(d, k) for d in (1, 1, 4)) for k in range(1, 4)]
    assert graded_ranks(bad, 3, method="elimination") != witt
    with pytest.raises(LieError, match="acts nontrivially on level 3"):
        graded_ranks(bad, 3, method="tower")


@st.composite
def tower_structures(draw):
    """Levels 1..3 of at most 2, 3, 4 generators; each lower generator x cuts
    each higher level into blocks B, and each block gives the flat {x} + B.

    A block is split where it would put a same-level pair into a second
    flat, since two generators span exactly one flat.
    """
    sizes = [draw(st.integers(1, lv + 1)) for lv in range(1, draw(st.integers(1, 3)) + 1)]
    levels = tuple(lv for lv, size in enumerate(sizes, start=1) for _ in range(size))
    flats = []
    for lv in range(2, len(sizes) + 1):
        members = [g for g, level in enumerate(levels) if level == lv]
        used = set()
        for x in (g for g, level in enumerate(levels) if level < lv):
            labels = draw(st.lists(
                st.integers(0, len(members) - 1), min_size=len(members), max_size=len(members)
            ))
            blocks = {}
            for y, label in zip(members, labels):
                parts = blocks.setdefault(label, [])
                home = next((b for b in parts if all((z, y) not in used for z in b)), None)
                if home is None:
                    parts.append([y])
                else:
                    home.append(y)
            for block in (b for parts in blocks.values() for b in parts):
                used.update(combinations(block, 2))
                flats.append((x, *block))
    rels = tuple(rel for f in flats for rel in flat_relations([g + 1 for g in f]))
    labels = tuple(f"g{g}" for g in range(len(levels)))
    return HolonomyPresentation(len(levels), labels, rels, levels, tuple(flats))


@settings(max_examples=60, deadline=None)
@given(tower_structures(), st.data())
def test_tower_verdict_ignores_top_level_relations_added_below(pres, data):
    # adding top-level flat relations to the lower ones changes the basis of
    # the relation span, not the span, so the certificate must not change
    # its verdict (limit 0 turns the elimination canary off when d > 1)
    def verdict(p):
        try:
            return graded_ranks(p, 3, method="tower", elimination_limit=0)
        except LieError as exc:
            return str(exc)

    def top_of(rel):
        return max(pres.levels[g - 1] for w in rel.terms for g in w)

    top = max(pres.levels)
    tops = [rel for rel in pres.relations if top_of(rel) == top]
    rels = list(pres.relations)
    for i, rel in enumerate(rels):
        if tops and top_of(rel) < top:
            extra = data.draw(st.sampled_from(tops))
            rels[i] = rel + scaled(extra, data.draw(st.sampled_from([-2, -1, 1, 2])))
    mixed = HolonomyPresentation(pres.d, pres.labels, tuple(rels), pres.levels, pres.flats)
    assert verdict(mixed) == verdict(pres)


def scaled(x, c):
    return LieElement(x.degree, {w: c * v for w, v in x.terms.items()})


def lower_relation_moves_a_level(pres):
    """True when some relation below a level acts on it nontrivially.

    Each lower generator x acts on a level by the derivation with
    D_x y = [y, sum of the level's members of the flat through x and y];
    sum c (D_a D_b - D_b D_a) y is expanded in degree 3 with ``bracket``.
    """
    levels, flats = pres.levels, pres.flats
    members = {lv: [g for g, level in enumerate(levels) if level == lv] for lv in set(levels)}

    def on_letter(x, lv, u):
        y = members[lv][u - 1]
        flat = next(f for f in flats if x in f and y in f)
        s = LieElement(1, {(members[lv].index(z) + 1,): 1 for z in flat if levels[z] == lv})
        return bracket(generator(u), s)

    def act(x, lv, element):
        out = LieElement(element.degree + 1)
        for w, c in element.terms.items():
            if len(w) == 1:
                out += scaled(on_letter(x, lv, w[0]), c)
            else:
                u, v = w
                out += scaled(bracket(on_letter(x, lv, u), generator(v)), c)
                out += scaled(bracket(generator(u), on_letter(x, lv, v)), c)
        return out

    for lv in sorted(members)[1:]:
        for rel in pres.relations:
            if max(levels[g - 1] for w in rel.terms for g in w) >= lv:
                continue
            for u in range(1, len(members[lv]) + 1):
                y, image = generator(u), LieElement(3)
                for (a, b), c in rel.terms.items():
                    comm = act(a - 1, lv, act(b - 1, lv, y)) - act(b - 1, lv, act(a - 1, lv, y))
                    image += scaled(comm, c)
                if not image.is_zero():
                    return True
    return False


@settings(max_examples=80, deadline=None)
@given(tower_structures())
def test_tower_lower_level_check_matches_degree_three_oracle(pres):
    if lower_relation_moves_a_level(pres):
        with pytest.raises(LieError, match="acts nontrivially"):
            graded_ranks(pres, 3, method="tower")
        return
    witt = [
        sum(witt_rank(pres.levels.count(lv), k) for lv in set(pres.levels))
        for k in range(1, 4)
    ]
    assert graded_ranks(pres, 3, method="tower") == witt
    assert graded_ranks(pres, 3, method="elimination") == witt


def set_partitions(items):
    """Every partition of the list ``items`` into blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield part[:i] + [[first, *part[i]]] + part[i + 1:]


@pytest.mark.parametrize(
    "levels,count",
    [((1, 2, 3, 3, 3, 3), 113), ((1, 2, 2, 3, 3, 3), 37), ((1, 2, 2, 3, 3, 3, 3), 637)],
    ids=["F=ab-level3=4", "F=abc-level3=3", "F=abc-level3=4"],
)
def test_tower_lower_level_check_matches_oracle_on_every_small_structure(levels, count):
    # F is the one flat below level 3.  Each member of F cuts level 3 into
    # blocks in every possible way; the structures that put a pair into two
    # flats are not presentations and are skipped.
    lower = [g for g, lv in enumerate(levels) if lv < 3]
    top = [g for g, lv in enumerate(levels) if lv == 3]
    labels = tuple(f"g{g}" for g in range(len(levels)))
    valid = 0
    for parts in product(list(set_partitions(top)), repeat=len(lower)):
        flats = (tuple(lower),) + tuple(
            (x, *block) for x, part in zip(lower, parts) for block in part
        )
        rels = tuple(rel for f in flats for rel in flat_relations([g + 1 for g in f]))
        try:
            pres = HolonomyPresentation(len(levels), labels, rels, levels, flats)
        except LieError:
            continue
        valid += 1
        if lower_relation_moves_a_level(pres):
            with pytest.raises(LieError, match="acts nontrivially on level 3"):
                graded_ranks(pres, 3, method="tower", elimination_limit=0)
        else:
            graded_ranks(pres, 3, method="tower", elimination_limit=0)
    assert valid == count


def test_tower_certificate_names_the_lowest_failing_level():
    # The flat (a, b1) fails only on level 4: a cuts that level into f, g | h
    # and b1 into f | g, h.  The flat (a, b2) fails on level 3: a cuts c, d | e and
    # b2 cuts c | d, e.  Levels are checked in ascending order, so level 3 is
    # named although (a, b1) is listed first.
    names = "a b1 b2 c d e f g h".split()
    text = "a,b1 a,b2 a,c,d a,e b1,c b1,d b1,e b2,c b2,d,e a,f,g a,h b1,f b1,g,h b2,f b2,g b2,h"
    flats = [tuple(names.index(m) for m in f.split(",")) for f in text.split()]
    flats += [(y, z) for y in (3, 4, 5) for z in (6, 7, 8)]
    rels = tuple(rel for f in flats for rel in flat_relations([g + 1 for g in f]))
    levels = (1, 2, 2, 3, 3, 3, 4, 4, 4)
    pres = HolonomyPresentation(9, tuple(names), rels, levels, tuple(flats))
    with pytest.raises(LieError, match="acts nontrivially on level 3;"):
        graded_ranks(pres, 3, method="tower", elimination_limit=0)


def fraction_rank(rows, cols):
    """Rank by Gaussian elimination over the rationals on dense rows."""
    mat = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][j] / mat[rank][j]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@given(
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            st.integers(-3, 3).filter(bool),
            max_size=6,
        ),
        max_size=8,
    )
)
def test_rank_of_rows_matches_fraction_elimination(rows):
    cols = sorted({key for row in rows for key in row})
    given_rows = [dict(row) for row in rows]
    rank, pivots = _rank_of_rows(rows)
    assert rows == given_rows  # the input rows are not reduced in place
    assert rank == fraction_rank(rows, cols)
    assert len(pivots) == rank
    for lead, row in pivots.items():
        assert min(row) == lead and row[lead] > 0 and all(row.values())
    # an installed pivot row never changes when later rows are inserted
    pivots, snapshots = {}, {}
    for row in rows:
        _echelon_insert(pivots, dict(row))
        for lead, piv in pivots.items():
            assert piv == snapshots.setdefault(lead, dict(piv))


def test_echelon_scales_a_row_to_meet_a_pivot():
    # the pivot leads with 2 and the row with 1, so the row is scaled by 2
    # before the pivot is subtracted
    pivot = {(1, 2): 2, (1, 3): 1}
    pivots = {(1, 2): pivot}
    row = {(1, 2): 1, (1, 4): 1}
    assert _echelon_insert(pivots, row)
    assert pivots == {(1, 2): {(1, 2): 2, (1, 3): 1}, (1, 3): {(1, 3): 1, (1, 4): -2}}
    assert not _echelon_insert(pivots, {(1, 2): 3, (1, 3): -1, (1, 4): 5})
    assert pivot == {(1, 2): 2, (1, 3): 1}


def fraction_ideal_ranks(pres, max_degree):
    """Graded ranks from I_2 = span(relations), I_{k+1} = [L_1, I_k].

    Each I_k is spanned with the public ``bracket`` and cut to a basis by
    Fraction elimination on sparse rows, leading with the lex-least word.
    """
    def basis(elements):
        kept, pivots = [], {}
        for x in elements:
            row = {w: Fraction(c) for w, c in x.terms.items()}
            while row and min(row) in pivots:
                piv = pivots[min(row)]
                f = row[min(row)] / piv[min(row)]
                for w, c in piv.items():
                    row[w] = row.get(w, 0) - f * c
                    if not row[w]:
                        del row[w]
            if row:
                pivots[min(row)] = row
                kept.append(x)
        return kept

    ideal = basis(pres.relations)
    ranks = [pres.d]
    for k in range(2, max_degree + 1):
        ranks.append(witt_rank(pres.d, k) - len(ideal))
        ideal = basis(bracket(generator(g), x) for x in ideal for g in range(1, pres.d + 1))
    return ranks


def _noncommuting_action():
    # the five-generator presentation of test_tower_certificate_rejects_corruption
    flats = ((0, 1), (0, 2, 3), (0, 4), (1, 3, 4), (1, 2))
    rels = tuple(rel for f in flats for rel in flat_relations([g + 1 for g in f]))
    return HolonomyPresentation(5, tuple("abcde"), rels)


ORACLE_PRESENTATIONS = {
    "triple flat": HolonomyPresentation(3, tuple("abc"), tuple(flat_relations([1, 2, 3]))),
    "one commutator": HolonomyPresentation(3, tuple("abc"), (LieElement(2, {(1, 2): 1}),)),
    "integer coefficients": HolonomyPresentation(4, tuple("abcd"), (
        LieElement(2, {(1, 2): 2, (1, 3): -3, (3, 4): 1}),
        LieElement(2, {(2, 4): 5, (1, 4): 1}),
    )),
    "monomial (2,2)": holonomy_relations_from_flats(monomial_flats(2, 2), monomial_hyperplanes(2, 2)),
    "noncommuting action": _noncommuting_action(),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PRESENTATIONS))
def test_elimination_matches_fraction_ideal_recurrence(name):
    pres = ORACLE_PRESENTATIONS[name]
    assert graded_ranks(pres, 4, method="elimination") == fraction_ideal_ranks(pres, 4)


def test_elimination_oracle_sees_the_noncommuting_action():
    # the Witt sums of its levels (1, 1, 3) would be [5, 3, 8]
    assert fraction_ideal_ranks(_noncommuting_action(), 3) == [5, 3, 6]


@st.composite
def small_presentations(draw):
    d = draw(st.integers(2, 5))
    word = st.tuples(st.integers(1, d), st.integers(1, d)).filter(lambda w: w[0] < w[1])
    relation = st.dictionaries(word, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    rels = draw(st.lists(relation, min_size=1, max_size=4))
    return HolonomyPresentation(d, tuple("abcde"[:d]), tuple(LieElement(2, r) for r in rels))


@settings(max_examples=40, deadline=None)
@given(small_presentations())
def test_elimination_matches_fraction_ideal_recurrence_on_random_presentations(pres):
    # the oracle inserts pivot by pivot, leads lex-least and works in Fraction,
    # so it shares neither the insertion order nor the arithmetic
    assert graded_ranks(pres, 4, method="elimination") == fraction_ideal_ranks(pres, 4)


def test_elimination_pivots_stay_sparse(monkeypatch):
    # Generator-major insertion puts in the rows [x_g, p] = b(g w) of small
    # generators first, as near copies of the pivots; inserting pivot by
    # pivot left 45 110 nonzeros in the degree-4 pivots at monomial (3,3).
    tables = []

    def recording(pivots, row):
        if not tables or tables[-1] is not pivots:
            tables.append(pivots)
        return _echelon_insert(pivots, row)

    monkeypatch.setattr(liealg, "_echelon_insert", recording)
    pres = holonomy_relations_from_flats(monomial_flats(3, 3), monomial_hyperplanes(3, 3))
    ranks = graded_ranks(pres, 4, method="elimination", elimination_limit=witt_rank(12, 4))
    assert ranks == [12, 27, 132, 648]
    assert len(tables) == 3  # the pivots of degrees 2, 3 and 4
    assert sum(len(row) for row in tables[-1].values()) <= 30_000


def test_word_codes_order_lyndon_words_reverse_lex():
    for d in range(1, 6):
        for k in range(1, 6):
            words = lyndon_words(d, k)
            codes = [_word_code(w, d) for w in words]
            assert sorted(codes) == codes[::-1]
            assert len(set(codes)) == len(codes)


def test_monotone_under_added_relations():
    rng = random.Random(3)
    base = tuple(flat_relations([1, 2, 3]))
    pres = HolonomyPresentation(4, ("a", "b", "c", "d"), base)
    ranks = graded_ranks(pres, 4)
    for _ in range(5):
        extra = LieElement(
            2, {(rng.randint(1, 3), 4): rng.choice([-2, -1, 1, 2])}
        )
        bigger = HolonomyPresentation(4, ("a", "b", "c", "d"), base + (extra,))
        ranks2 = graded_ranks(bigger, 4)
        assert all(r2 <= r1 for r1, r2 in zip(ranks, ranks2))
        assert ranks2[0] == 4  # degree-1 rank is always the generator count


def lemma_brackets_transform(x_index, y_index, w_ab, offset=0):
    """[x + w-bar, y] from a group relation x^-1 y x = w y w^-1.

    ``w_ab`` is the abelianization of w over the target level's generators;
    ``offset`` maps those level positions into the global generator list.
    Conjugate choices of w change the result by multiples of brackets with
    y, so the emitted relation set is well defined up to row span.
    """
    left = generator(x_index)
    for pos, coeff in enumerate(w_ab, start=1):
        if coeff:
            left = left + scaled(generator(offset + pos), coeff)
    return bracket(left, generator(y_index))


def test_lemma_brackets_transform():
    # empty conjugator: plain commutation [x, y]
    rel = lemma_brackets_transform(1, 4, (0, 0, 0), offset=1)
    assert rel.terms == {(1, 4): 1}
    # w = t2 t3 t4 acting on t2 at level offset 1 (type-B n=2 table cell)
    rel = lemma_brackets_transform(1, 3, (1, 1, 1), offset=1)
    # [x_1 + x_2 + x_3 + x_4, x_3]
    assert rel.terms == {(1, 3): 1, (2, 3): 1, (3, 4): -1}
    # conjugate-invariance: abelianization of w is all that enters
    assert lemma_brackets_transform(1, 3, (1, 1, 1), offset=1) == rel


def test_ft_bracket_relations_typeb_ranks():
    tower = build_typeb_tower(3)
    hp = ft_bracket_relations(tower)
    assert hp.d == 9
    exps = [1, 3, 5]
    expect = [sum(witt_rank(d, k) for d in exps) for k in range(1, 5)]
    assert graded_ranks(hp, 4) == expect


def test_ft_relations_span_matches_raw_lemma_transform():
    # the cleaned block relations span the same degree-2 space as the raw
    # conjugator-abelianization transforms of the tower's relations
    from braidforge.arrangements import tower_relations
    from braidforge.freegroup import abelianize

    tower = build_typeb_tower(3)
    hp = ft_bracket_relations(tower)
    gens = [g for lvl in tower for g in lvl.gens]
    index = {g: i + 1 for i, g in enumerate(gens)}
    offsets = {}
    for g in gens:
        offsets.setdefault(g.level, index[g] - 1)
    raw = []
    for rel in tower_relations(tower):
        x = index[rel.conj]
        y = index[rel.target]
        img = rel.rhs
        half = (len(img.letters) - 1) // 2
        w_ab = abelianize(
            type(img)(img.rank, img.letters[:half])
        )
        raw.append(lemma_brackets_transform(x, y, w_ab, offsets[rel.target.level]))
    # same-rank spans
    r1, piv1 = _rank_of_rows(dict(x.terms) for x in hp.relations)
    r2, piv2 = _rank_of_rows(dict(x.terms) for x in raw)
    assert r1 == r2
    for rel in raw:
        assert not _echelon_insert(dict(piv1), dict(rel.terms))


def test_typeb_equals_monomial_r2_ranks():
    from braidforge.arrangements import build_monomial_tower

    tb = graded_ranks(ft_bracket_relations(build_typeb_tower(3)), 4)
    mo = graded_ranks(ft_bracket_relations(build_monomial_tower(2, 3)), 4)
    assert tb == mo


def test_check_lcs_degenerate_exponent_one():
    pres = HolonomyPresentation(1, ("x",), ())
    ranks = graded_ranks(pres, 4)
    assert ranks == [1, 0, 0, 0]


def test_monomial_32_degree1_is_hyperplane_count():
    hp = holonomy_relations_from_flats(monomial_flats(3, 2), monomial_hyperplanes(3, 2))
    ranks = graded_ranks(hp, 2)
    assert ranks[0] == 5 == len(monomial_hyperplanes(3, 2))


def _flat_sets(tower):
    """The flats of a tower's holonomy presentation, as sets of its symbols."""
    gens = [g for lvl in tower for g in lvl.gens]
    return {frozenset(gens[i] for i in flat) for flat in ft_bracket_relations(tower).flats}


def test_r2_flats_correspond_to_typeb_tower_flats():
    # under typeb_hyperplane (a = A^{(2)}, b = A^{(1)}, c = Z) the monomial
    # tower's flats equal the type-B tower's flats as families of symbol sets
    from braidforge.arrangements import build_monomial_tower, typeb_hyperplane

    tb = _flat_sets(build_typeb_tower(3))
    mo = _flat_sets(build_monomial_tower(2, 3))
    assert {frozenset(map(typeb_hyperplane, flat)) for flat in tb} == mo


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_monomial_tower_flats_equal_monomial_flats(r, n):
    # the linking blocks of the tower's braids give the arrangement's flats:
    # each fiber generator is the hyperplane whose braid is its loop
    from braidforge.arrangements import build_monomial_tower

    tower = _flat_sets(build_monomial_tower(r, n))
    assert tower == {frozenset(flat) for flat in monomial_flats(r, n)}


def test_monomial_tower_is_certified():
    from braidforge.arrangements import build_monomial_tower, exponents

    hp = ft_bracket_relations(build_monomial_tower(4, 4))
    ranks = graded_ranks(hp, 4, method="tower")
    assert ranks == [sum(witt_rank(d, k) for d in exponents(4, 4)) for k in range(1, 5)]
    assert ranks == [28, 124, 1008, 8868]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_monomial_rank_equalities_n4(r):
    from braidforge.arrangements import exponents

    hp = holonomy_relations_from_flats(monomial_flats(r, 4), monomial_hyperplanes(r, 4))
    exps = exponents(r, 4)
    expect = [sum(witt_rank(d, k) for d in exps) for k in range(1, 6)]
    assert graded_ranks(hp, 5) == expect
