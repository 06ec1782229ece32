import dataclasses
import hashlib
import io
import re
from fractions import Fraction
from itertools import combinations

import pytest

from braidforge.arrangements import (
    ArrangementError,
    a_hyp,
    a_sym,
    b_sym,
    build_monomial_tower,
    build_typeb_tower,
    c_sym,
    exponents,
    ft_bracket_relations,
    monomial_flats,
    monomial_hyperplanes,
    pbn_table_cells,
    typeb_lines,
    typeb_meridian_symbols,
    typeb_monodromy_closed,
    typeb_hyperplane,
    tower_relations,
    typeb_wiring_cross_check,
    verify_pbn_correspondence,
    verify_pbn_table,
    write_presentation,
    z_hyp,
    TowerLevel,
)
from braidforge.braid import artin, braid_equal, empty_braid, full_twist, pure_gen, u_chain
from braidforge.freegroup import Endomorphism, abelianize, invert, multiply, word
from braidforge.wiring import wiring_from_real_lines


def test_typeb_lines_values():
    lines = typeb_lines(2)
    assert [(l.slope, l.intercept) for l in lines] == [
        (-2, -120),
        (-1, 0),
        (0, 0),
        (1, 0),
        (2, 120),
    ]
    assert len(typeb_lines(3)) == 7


def test_typeb_n1_single_event():
    W = wiring_from_real_lines(typeb_lines(1))
    assert len(W.events) == 1
    assert W.events[0][0].blocks == ((1, 2, 3),)


def test_typeb_wiring_reproduces_b2_partitions():
    W = wiring_from_real_lines(typeb_lines(2))
    assert [I.blocks for I, _ in W.events] == [
        ((1,), (2, 3, 4), (5,)),
        ((1, 2), (3,), (4, 5)),
        ((1,), (2, 3, 4), (5,)),
        ((1, 2), (3,), (4, 5)),
    ]


def test_meridian_symbols_order():
    assert [s.label() for s in typeb_meridian_symbols(2)] == [
        "c[1]",
        "b[1,2]",
        "c[2]",
        "a[1,2]",
    ]
    syms3 = [s.label() for s in typeb_meridian_symbols(3)]
    assert syms3[:4] == ["c[1]", "b[1,2]", "c[2]", "a[1,2]"]
    assert syms3[4:] == ["b[2,3]", "b[1,3]", "c[3]", "a[1,3]", "a[2,3]"]


def test_closed_form_small_values():
    chi = typeb_monodromy_closed(2)
    assert braid_equal(chi[c_sym(1)], full_twist({2, 3, 4}, 5))
    A = lambda i, j: pure_gen(i, j, 5)
    assert braid_equal(chi[a_sym(1, 2)], A(1, 2) * A(4, 5))
    want_b = A(2, 5) * u_chain(1, 3, 5) * A(1, 4) * ~u_chain(1, 3, 5)
    assert braid_equal(chi[b_sym(1, 2)], want_b)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_matches_wiring(n):
    rep = typeb_wiring_cross_check(n)
    assert rep.passed, rep.failures


def test_exponents():
    assert exponents(2, 3) == [1, 3, 5]  # type B is r = 2
    assert exponents(1, 3) == [1, 2, 3]
    assert [lvl.rank for lvl in build_typeb_tower(3)] == exponents(2, 3)


# ---------------------------------------------------------------------------
# flats and the cyclotomic brute-force oracle


class Cyc:
    """Elements of Q(zeta_r) as polynomials in zeta modulo the r-th cyclotomic."""

    def __init__(self, r, coeffs):
        self.r = r
        phi = _cyclotomic(r)
        cs = list(coeffs)
        while len(cs) >= len(phi):  # reduce degree by the minimal polynomial
            lead = cs.pop()
            if lead:
                for k, c in enumerate(phi[:-1]):
                    cs[len(cs) - len(phi) + 1 + k] -= lead * c
        cs += [Fraction(0)] * (len(phi) - 1 - len(cs))
        self.coeffs = tuple(Fraction(c) for c in cs)

    def __add__(self, other):
        return Cyc(self.r, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return Cyc(self.r, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        out = [Fraction(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Cyc(self.r, out)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


def _cyclotomic(r):
    """Coefficients of the r-th cyclotomic polynomial, low degree first."""
    # divide x^r - 1 by the cyclotomic polynomials of the proper divisors
    poly = [Fraction(-1)] + [Fraction(0)] * (r - 1) + [Fraction(1)]
    for d in range(1, r):
        if r % d == 0:
            q = [Fraction(c) for c in _cyclotomic(d)]
            poly = _poly_div(poly, q)
    return poly


def _poly_div(num, den):
    num = num[:]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        out[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert all(c == 0 for c in num[len(out) + len(den) - 2 :] + num[: len(den) - 1])
    return out


def _zeta_power(r, p):
    coeffs = [Fraction(0)] * (p % r) + [Fraction(1)]
    return Cyc(r, coeffs)


def _form(h, r, n):
    """Coefficient vector over Q(zeta_r) of the defining linear form."""
    zero = Cyc(r, [0])
    vec = [zero] * n
    one = Cyc(r, [1])
    if h.i == 0:
        vec[h.j - 1] = one
    else:
        vec[h.j - 1] = one
        vec[h.i - 1] = zero - _zeta_power(r, h.p)
    return vec


def _rank3(v1, v2, v3, r):
    """True if the three coefficient vectors are linearly independent."""
    n = len(v1)
    for cols in combinations(range(n), 3):
        det = _det3([[v[c] for c in cols] for v in (v1, v2, v3)], r)
        if not det.is_zero():
            return True
    return False


def _det3(m, r):
    def p(a, b, c):
        return m[0][a] * m[1][b] * m[2][c]

    return (
        p(0, 1, 2)
        - p(0, 2, 1)
        - p(1, 0, 2)
        + p(1, 2, 0)
        + p(2, 0, 1)
        - p(2, 1, 0)
    )


def brute_force_flats(r, n):
    """Group hyperplane pairs by their maximal flat, from the linear forms."""
    hyps = monomial_hyperplanes(r, n)
    forms = {h: _form(h, r, n) for h in hyps}
    flats = set()
    for h1, h2 in combinations(hyps, 2):
        members = set()
        for h3 in hyps:
            if h3 in (h1, h2):
                members.add(h3)
            elif not _rank3(forms[h1], forms[h2], forms[h3], r):
                members.add(h3)
        flats.add(frozenset(members))
    return flats


@pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_monomial_flats_against_brute_force(r, n):
    ours = {frozenset(f) for f in monomial_flats(r, n)}
    assert ours == brute_force_flats(r, n)


def test_monomial_flats_r2_n2_single_flat():
    flats = monomial_flats(2, 2)
    assert len(flats) == 1
    assert flats[0] == (z_hyp(1), a_hyp(1, 2, 1), z_hyp(2), a_hyp(1, 2, 2))


@pytest.mark.parametrize("r", [1, 2, 6])
def test_monomial_flats_of_one_hyperplane(r):
    # at n = 1 the arrangement is H_1 alone, so it has no codimension-two flat
    assert monomial_hyperplanes(r, 1) == [z_hyp(1)]
    assert monomial_flats(r, 1) == []


def test_monomial_flats_need_a_positive_r():
    with pytest.raises(ArrangementError, match="^need r >= 1$"):
        monomial_flats(0, 2)


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 4), (2, 4)])
def test_every_pair_in_exactly_one_flat(r, n):
    flats = monomial_flats(r, n)
    seen = {}
    for f in flats:
        for pair in combinations(sorted(f), 2):
            assert pair not in seen, f"pair {pair} in two flats"
            seen[pair] = f
    hyps = monomial_hyperplanes(r, n)
    assert len(seen) == len(hyps) * (len(hyps) - 1) // 2


def test_r2_flats_match_typeb_shape():
    # under a=A^{(2)}, b=A^{(1)}, c=Z the r=2 flats mirror the type-B wiring
    # blocks: one big flat per (j,l) and triples matching double points
    flats = monomial_flats(2, 2)
    assert {len(f) for f in flats} == {4}
    flats3 = monomial_flats(2, 3)
    sizes = sorted(len(f) for f in flats3)
    assert sizes == [2] * 6 + [3] * 4 + [4] * 3


# ---------------------------------------------------------------------------
# towers and presentations


def _trivial_tower(braids):
    """Levels Z[1] and (Z[2], A[1,2;1]); level 2 carries ``braids``."""
    return [
        TowerLevel(1, (z_hyp(1),), {}),
        TowerLevel(2, (z_hyp(2), a_hyp(1, 2, 1)), braids),
    ]


def test_trivial_tower_direct_product():
    tower = _trivial_tower({z_hyp(1): empty_braid(2)})
    relations = list(tower_relations(tower))
    assert len(relations) == 2
    for rel in relations:
        assert rel.rhs.letters in ((1,), (2,))
    out = io.StringIO()
    write_presentation(tower, out)
    assert "Z[1]^-1 Z[2] Z[1] = Z[2]\n" in out.getvalue()


def _write_nothing_on_error(tower):
    """write_presentation as a tower reader: a bad key raises before its first write."""
    buf = io.StringIO()
    try:
        write_presentation(tower, buf)
    except ArrangementError:
        assert buf.getvalue() == ""
        raise


@pytest.mark.parametrize("read", [
    pytest.param(_write_nothing_on_error, id="write_presentation"),
    tower_relations,
    ft_bracket_relations,
])
@pytest.mark.parametrize(
    "braids,message",
    [
        pytest.param({}, "tower level 2 lacks a braid for Z[1]", id="missing"),
        pytest.param(
            {z_hyp(1): empty_braid(2), z_hyp(9): empty_braid(2)},
            "tower level 2 has a braid for Z[9], which is not a lower generator",
            id="foreign",
        ),
        pytest.param(
            {z_hyp(1): empty_braid(2), a_hyp(1, 2, 1): empty_braid(2)},
            "tower level 2 has a braid for A[1,2;1], which is not a lower generator",
            id="same-level",
        ),
    ],
)
def test_tower_readers_check_the_braid_keys(read, braids, message):
    # every reader of a tower sees the same keys, one for each lower
    # generator; tower_relations checks them all before it builds a relation
    with pytest.raises(ArrangementError, match=f"^{re.escape(message)}$"):
        read(_trivial_tower(braids))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_tower_levels_hold_their_hyperplanes(r, n):
    for lvl in build_monomial_tower(r, n):
        j = lvl.level
        assert set(lvl.gens) == {h for h in monomial_hyperplanes(r, j) if h.level == j}
        assert len(lvl.gens) == len(set(lvl.gens))
        assert list(lvl.braids) == monomial_hyperplanes(r, j - 1)


def test_typeb_hyperplane_is_the_r2_dictionary():
    assert typeb_hyperplane(c_sym(3)) == z_hyp(3)
    assert typeb_hyperplane(a_sym(1, 3)) == a_hyp(1, 3, 2)
    assert typeb_hyperplane(b_sym(1, 3)) == a_hyp(1, 3, 1)
    syms = [g for lvl in build_typeb_tower(4) for g in lvl.gens]
    assert sorted(map(typeb_hyperplane, syms)) == sorted(monomial_hyperplanes(2, 4))


def test_typeb_tower_relation_count_and_abelianization():
    tower = build_typeb_tower(3)
    relations = list(tower_relations(tower))
    # sum over i<j of d_i * d_j with d = (1, 3, 5)
    assert len(relations) == 1 * 3 + 1 * 5 + 3 * 5
    for rel in relations:
        target_pos = tower[rel.target.level - 1].gens.index(rel.target) + 1
        ab = abelianize(rel.rhs)
        assert ab[target_pos - 1] == 1
        assert all(v == 0 for k, v in enumerate(ab) if k != target_pos - 1)


def test_typeb_tower_reproduces_b2_table():
    tower = build_typeb_tower(3)
    # conjugation of t_3 by c_1 at level 3 has RHS (t2 t3 t4) t3 (t2 t3 t4)^-1
    t = lambda *xs: word(5, xs)
    rel = next(
        r for r in tower_relations(tower) if r.conj == c_sym(1) and r.target == c_sym(3)
    )
    wconj = t(2, 3, 4)
    assert rel.rhs == multiply(multiply(wconj, t(3)), invert(wconj))


def test_monomial_tower_matches_typeb_at_r2():
    # same tower shape: level ranks equal and relation counts agree
    tb = list(tower_relations(build_typeb_tower(3)))
    mo = list(tower_relations(build_monomial_tower(2, 3)))
    assert len(tb) == len(mo)


@pytest.mark.parametrize("n", [2, 3])
def test_pbn_table(n):
    rep = verify_pbn_table(n)
    assert rep.passed, rep.failures
    specials = [c for c in rep.checks if "no literal reading" in c.name]
    # exactly the two flagged conjugator cells appear per (j,l) instance:
    # a-on-b at k=i and c-on-b at k=j
    for c in specials:
        assert c.detail.startswith("computed:")
    names = [c.name for c in specials]
    assert all(("a[" in nm or "c[" in nm) for nm in names)


def test_pbn_table_special_cells_have_computed_rhs():
    rep = verify_pbn_table(2)
    specials = [c for c in rep.checks if "no literal reading" in c.name]
    assert len(specials) == 1  # only c[1]^-1 b[1,2] c[1] exists at n=2
    assert "c_l reading matches" in specials[0].detail


def test_pbn_table_rejects_a_non_conjugate_image(monkeypatch):
    # the special cells peel the computed image; t_q^2 is no conjugate of t_q
    import braidforge.arrangements as arrangements

    def squares(b):
        n = b.strands
        return Endomorphism(n, tuple(word(n, [i, i]) for i in range(1, n + 1)))

    monkeypatch.setattr(arrangements, "artin", squares)
    with pytest.raises(ArrangementError, match="not a conjugate"):
        verify_pbn_table(2)


def test_pbn_table_reads_the_printed_relations(monkeypatch):
    # the table takes each right-hand side from the relations `present typeb`
    # prints, so a relation tampered there fails exactly its own cell and
    # reaches the printed text as well
    import braidforge.arrangements as arrangements

    real = arrangements.tower_relations
    cell = "a[1,2]^-1 a[1,3] a[1,2]"  # conjugator a[1,3] a[2,3], not empty

    def tampered(tower):
        return (
            dataclasses.replace(
                rel,
                rhs=word(rel.rhs.rank, [tower[rel.target.level - 1].gens.index(rel.target) + 1]),
            )
            if (rel.conj, rel.target) == (a_sym(1, 2), a_sym(1, 3))
            else rel
            for rel in real(tower)
        )

    def printed():
        out = io.StringIO()
        write_presentation(build_typeb_tower(3), out)
        return out.getvalue().splitlines()

    line = f"{cell} = a[1,3]"
    assert verify_pbn_table(3).passed
    assert line not in printed()
    monkeypatch.setattr(arrangements, "tower_relations", tampered)
    assert [c.name for c in verify_pbn_table(3).failures] == [cell]
    assert line in printed()


# sha256 prefix of the "name, ok, detail" lines of verify_pbn_table(n), as
# printed before the Artin images were shared between cells
PBN_TABLE_DIGESTS = {
    2: "b0c5f649f01ee3e9",
    3: "62a11ca9b64d5198",
    4: "d009f1fa87ead674",
    5: "b4431f2e2392fe8c",
    6: "ab25d57aed0dbb82",
}


@pytest.mark.parametrize("n", sorted(PBN_TABLE_DIGESTS))
def test_pbn_table_builds_one_artin_image_per_conjugator(n, monkeypatch):
    import braidforge.arrangements as arrangements

    calls = []

    def counting(b):
        calls.append(b)
        return artin(b)

    monkeypatch.setattr(arrangements, "artin", counting)
    rep = verify_pbn_table(n)
    conjugators = {(cell.l, cell.conj) for cell in pbn_table_cells(n)}
    assert len(calls) == len(conjugators) < len(rep.checks)
    text = "\n".join(f"{c.name}\t{c.ok}\t{c.detail}" for c in rep.checks)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PBN_TABLE_DIGESTS[n]


@pytest.mark.parametrize("verify", [verify_pbn_table, verify_pbn_correspondence])
def test_pbn_checks_need_two_levels(verify):
    with pytest.raises(ArrangementError, match="need n >= 2"):
        verify(1)


def test_pbn_cells_cover_expected_count():
    # n=3: (1,2): 1 conj x 3 targets; (1,3): 1 x 5; (2,3): 3 x 5
    assert len(pbn_table_cells(3)) == 3 + 5 + 15


@pytest.mark.parametrize("n", [4, 5])
def test_closed_form_matches_wiring_larger(n):
    assert typeb_wiring_cross_check(n).passed


def test_twist_shape_on_typeb_towers():
    from braidforge.wiring import braid_monodromy, verify_twist_shape

    for n in (3, 4):
        W = wiring_from_real_lines(typeb_lines(n))
        for g in braid_monodromy(W):
            rep = verify_twist_shape(g, W.n)
            assert rep.passed, rep.failures
