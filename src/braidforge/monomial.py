"""Monomial braid groups inside B_{rn+1}: generators and verification suites.

The braids rho_0, ..., rho_{n-1} generate the image of the monomial braid
group on n orbit points for the cyclic group of order r acting on the
punctured plane; strand 1 is the orbit of 0 and strands (i-1)r+2 .. ir+1
form the orbit of the i-th point.  From these we assemble the pure monomial
braids Z_j, A^{(p)}_{i,j}, X_i and the derived words C, D, Q used in the
presentation of the pure monomial braid group, and verify every identity
claimed for them.  Each block has one builder, cached per (indices,
params), and every suite calls the builders directly.

Relations are decided by Garside left normal form (:mod:`braidforge.garside`),
never through Artin images.  Because the derived words grow quickly under
conjugation, the suites never flatten them into letters: each named block
carries its normal form (:attr:`BraidWord.form`, kept with the cached block,
so it is read from the letters once per process), inverses come from
:func:`garside.inverse`, and conjugates, chains and cyclic products are
products of these forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import garside
from .braid import (
    BraidWord, BraidError, braid_equal, empty_braid, linking_pairs, permutation, product
)
from .garside import NormalForm, inverse
from .liealg import _rank_of_rows
from .report import Report

__all__ = [
    "MonomialParams",
    "tau",
    "rho",
    "X",
    "Z",
    "A",
    "Abracket",
    "C",
    "D",
    "Q",
    "strand_of_point",
    "orbit_strands",
    "verify_monomial_relations",
    "verify_lemma_conj",
    "verify_presentation",
    "verify_generators_free_factor",
]


@dataclass(frozen=True)
class MonomialParams:
    """Cyclic group order r and orbit count n; the braids live in B_{rn+1}."""

    r: int
    n: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.n < 1:
            raise BraidError(f"need r >= 1 and n >= 1, got r={self.r}, n={self.n}")

    @property
    def strands(self) -> int:
        return self.r * self.n + 1


def strand_of_point(i: int, p: int, prm: MonomialParams) -> int:
    """Strand index of the orbit point `i * zeta^p`, 1 <= p <= r."""
    if not (1 <= i <= prm.n and 1 <= p <= prm.r):
        raise BraidError(f"point ({i}, {p}) out of range")
    return (i - 1) * prm.r + p + 1


def orbit_strands(i: int, prm: MonomialParams) -> tuple[int, ...]:
    return tuple(strand_of_point(i, p, prm) for p in range(1, prm.r + 1))


def tau(i: int, prm: MonomialParams) -> BraidWord:
    """The shuffle word conjugating the i-th orbit swap into generator position.

    The m-th factor runs over sigma_{(i-1)r+m+2}, step 2, up to
    sigma_{(i-1)r+2r-m}, for m = 1..r-1; empty when r = 1.
    """
    r = prm.r
    if not (1 <= i <= prm.n - 1):
        raise BraidError(f"tau index {i} out of range for n={prm.n}")
    base = (i - 1) * r
    letters: list[int] = []
    for m in range(1, r):
        letters.extend(range(base + m + 2, base + 2 * r - m + 1, 2))
    return BraidWord(prm.strands, tuple(letters))


# Every block below is built once per (indices, params) and then shared:
# braid words are immutable, and MonomialParams hashes.
@cache
def rho(i: int, prm: MonomialParams) -> BraidWord:
    """Monomial braid generator rho_i, 0 <= i <= n-1."""
    r, n = prm.r, prm.n
    if i == 0:
        letters = tuple(range(r, 0, -1)) + (1,)
        return BraidWord(prm.strands, letters)
    if not (1 <= i <= n - 1):
        raise BraidError(f"rho index {i} out of range for n={n}")
    base = (i - 1) * r
    mid = BraidWord(prm.strands, tuple(range(base + 2, base + 2 * r + 1, 2)))
    t = tau(i, prm)
    return product([~t, mid, t], prm.strands)


@cache
def X(i: int, prm: MonomialParams) -> BraidWord:
    """X_i = rho_{i-1} ... rho_1 rho_0 rho_1 ... rho_{i-1}, 1 <= i <= n."""
    if not (1 <= i <= prm.n):
        raise BraidError(f"X index {i} out of range for n={prm.n}")
    down = [rho(k, prm) for k in range(i - 1, 0, -1)]
    return product(down + [rho(0, prm)] + down[::-1], prm.strands)


@cache
def Z(j: int, prm: MonomialParams) -> BraidWord:
    """Z_j = rho_{j-1} ... rho_1 rho_0^r rho_1^-1 ... rho_{j-1}^-1."""
    if not (1 <= j <= prm.n):
        raise BraidError(f"Z index {j} out of range for n={prm.n}")
    down = [rho(k, prm) for k in range(j - 1, 0, -1)]
    up = [~b for b in reversed(down)]
    return product(down + [rho(0, prm) ** prm.r] + up, prm.strands)


@cache
def _A_any_p(i: int, j: int, p: int, prm: MonomialParams) -> BraidWord:
    down = [rho(k, prm) for k in range(j - 1, i, -1)]
    up = [~b for b in reversed(down)]
    xi = X(i, prm)
    factors = [xi ** (p - prm.r)] + down + [rho(i, prm) ** 2] + up + [xi ** (prm.r - p)]
    return product(factors, prm.strands)


def A(i: int, j: int, p: int, prm: MonomialParams) -> BraidWord:
    """A^{(p)}_{i,j} = X_i^{p-r} (rho_{j-1}..rho_i^2..rho_{j-1}^-1) X_i^{r-p}."""
    if not (1 <= i < j <= prm.n):
        raise BraidError(f"A indices ({i},{j}) out of range for n={prm.n}")
    if not (1 <= p <= prm.r):
        raise BraidError(f"A exponent p={p} out of range for r={prm.r}")
    return _A_any_p(i, j, p, prm)


@cache
def Abracket(i: int, j: int, p: int, prm: MonomialParams) -> BraidWord:
    """A^{[p]} = A^{(p)} A^{(p+1)} ... A^{(r-1)}, with A^{[r]} = 1."""
    if not (1 <= p <= prm.r):
        raise BraidError(f"A-bracket exponent p={p} out of range for r={prm.r}")
    return product([A(i, j, q, prm) for q in range(p, prm.r)], prm.strands)


@cache
def C(l: int, prm: MonomialParams) -> BraidWord:
    """C_l = A^{(r)}_{1,l} A^{(r)}_{2,l} ... A^{(r)}_{l-1,l}; C_1 is empty."""
    if not (1 <= l <= prm.n):
        raise BraidError(f"C index {l} out of range for n={prm.n}")
    return product([A(i, l, prm.r, prm) for i in range(1, l)], prm.strands)


@cache
def D(k: int, prm: MonomialParams) -> BraidWord:
    """D_k = A^{[1]}_{k-1,k} A^{[1]}_{k-2,k} ... A^{[1]}_{1,k} Z_k C_k."""
    if not (1 <= k <= prm.n):
        raise BraidError(f"D index {k} out of range for n={prm.n}")
    brackets = [Abracket(i, k, 1, prm) for i in range(k - 1, 0, -1)]
    return product(brackets + [Z(k, prm), C(k, prm)], prm.strands)


@cache
def lemma_conj_D(k: int, l: int, prm: MonomialParams) -> BraidWord:
    """Conjugator W_{k,l} for the i=l case: D_k A^{(1)}_{k,k+1} ... A^{(1)}_{k,l-1}.

    For l = k+1 this is D_k itself; the trailing factors carry the twist past
    the intermediate orbits and are forced by direct computation whenever
    l - k >= 2.
    """
    tail = [A(k, m, 1, prm) for m in range(k + 1, l)]
    return product([D(k, prm)] + tail, prm.strands)


def _q_conjugates(j: int, p: int, prm: MonomialParams) -> list[tuple[BraidWord, BraidWord]]:
    """The pairs (W_{i,j}, A^{(q)}_{i,j}) whose conjugates W A W^-1 follow C_j in Q_{j,p}."""
    return [(lemma_conj_D(i, j, prm), A(i, j, q, prm))
            for q in range(1, p + 1) for i in range(1, j)]


def Q(j: int, p: int, prm: MonomialParams) -> BraidWord:
    """Q_{j,p} = C_j prod_{q<=p} prod_{i<j} W_{i,j} A^{(q)}_{i,j} W_{i,j}^-1.

    The inner conjugators are W_{i,j} = D_i A^{(1)}_{i,i+1} .. A^{(1)}_{i,j-1}
    (see lemma_conj_D); they reduce to the bare D_i when j = i + 1.
    """
    if not (1 <= j <= prm.n):
        raise BraidError(f"Q index {j} out of range for n={prm.n}")
    if p < 0 or p > prm.r:
        raise BraidError(f"Q exponent p={p} out of range for r={prm.r}")
    factors = [C(j, prm)]
    for w, a in _q_conjugates(j, p, prm):
        factors += [w, a, ~w]
    return product(factors, prm.strands)


def _conjugated(n: int, conj: NormalForm, mid: NormalForm) -> NormalForm:
    """Normal form of conj mid conj^-1."""
    return garside.product(n, [conj, mid, inverse(conj)])


def _commute(n: int, a: NormalForm, b: NormalForm) -> bool:
    return garside.product(n, [a, b]) == garside.product(n, [b, a])


def verify_monomial_relations(prm: MonomialParams) -> Report:
    """Check the defining relations among rho_0, ..., rho_{n-1}."""
    if prm.n < 2:
        raise BraidError("need n >= 2")
    report = Report(f"monomial braid relations, r={prm.r}, n={prm.n}")
    rhos = [rho(i, prm) for i in range(prm.n)]
    r0, r1 = rhos[0], rhos[1]
    report.add("(rho0 rho1)^2 = (rho1 rho0)^2", braid_equal(r0 * r1 * r0 * r1, r1 * r0 * r1 * r0))
    for i in range(1, prm.n - 1):
        a, b = rhos[i], rhos[i + 1]
        report.add(f"rho{i} rho{i+1} rho{i} = rho{i+1} rho{i} rho{i+1}",
                   braid_equal(a * b * a, b * a * b))
    for i in range(prm.n):
        for j in range(i + 2, prm.n):
            report.add(f"rho{i} rho{j} = rho{j} rho{i}",
                       braid_equal(rhos[i] * rhos[j], rhos[j] * rhos[i]))
    return report


def verify_lemma_conj(prm: MonomialParams) -> Report:
    """Check the conjugation case table for X_i acting on Z_l and A^{(r)}_{k,l}."""
    if prm.n < 2:
        raise BraidError("need n >= 2")
    r, strands = prm.r, prm.strands
    report = Report(f"conjugation lemma, r={r}, n={prm.n}")
    # A^{(r-1)} is built by _A_any_p, not A: p = r-1 degenerates to p = 0 at
    # r = 1, and the defining formula extends.
    for i in range(1, prm.n + 1):
        xi = X(i, prm).form
        xi_inv = inverse(xi)
        for l in range(1, prm.n + 1):
            z = Z(l, prm).form
            lhs = garside.product(strands, [xi_inv, z, xi])
            if l < i:
                rhs = z
                case = "l<i"
            elif l == i:
                rhs = _conjugated(strands, inverse(C(l, prm).form), z)
                case = "l=i"
            else:
                rhs = _conjugated(strands, _A_any_p(i, l, r - 1, prm).form, z)
                case = "l>i"
            report.add(f"X[{i}]^-1 Z[{l}] X[{i}] ({case})", lhs == rhs)
        for k in range(1, prm.n + 1):
            for l in range(k + 1, prm.n + 1):
                a = A(k, l, r, prm).form
                lhs = garside.product(strands, [xi_inv, a, xi])
                if i < k or i > l:
                    rhs = a
                    case = "i<k or i>l"
                elif i == k:
                    rhs = _A_any_p(k, l, r - 1, prm).form
                    case = "i=k"
                elif k < i < l:
                    rhs = _conjugated(strands, _A_any_p(i, l, r - 1, prm).form, a)
                    case = "k<i<l"
                else:
                    rhs = _conjugated(strands, lemma_conj_D(k, l, prm).form, A(k, l, 1, prm).form)
                    case = "i=l"
                report.add(f"X[{i}]^-1 A[{k},{l};{r}] X[{i}] ({case})", lhs == rhs)
    return report


def _family_holds(strands: int, elements: list[list[NormalForm]], report: Report,
                  label: str) -> None:
    """Commutation family [g_1, ..., g_m]: all cyclic products agree.

    Equivalent to the full product commuting with each of g_1 .. g_{m-1};
    each of those m-1 commutations is recorded as one check.  Elements are
    factor lists of normal forms.
    """
    prod = garside.product(strands, [f for el in elements for f in el])
    for k, el in enumerate(elements[:-1]):
        e = garside.product(strands, el)
        report.add(f"{label} rotation {k+1}", _commute(strands, prod, e))


def verify_presentation(prm: MonomialParams) -> Report:
    """Check every defining relation family of the pure monomial braid group.

    Families are expanded exhaustively over their index ranges, with the
    conjugators written out in full (their intermediate-orbit factors vanish
    for adjacent indices): the Z-against-higher-A family conjugates Z_k by
    A^{[p]}_{i,k}, the big Z..Z family pairs A^{(p)} with Q_{j,r-1-p} where
    Q_{j,0} = C_j, and the last two triple families carry the chain
    A^{[r-q]}_{m,k} over i < m < j next to their A-bracket conjugator.
    """
    if prm.n < 2:
        raise BraidError("need n >= 2")
    r, n, strands = prm.r, prm.n, prm.strands
    report = Report(f"pure monomial presentation, r={r}, n={n}")

    def conj_factors(conj: list[NormalForm], mid: BraidWord) -> list[NormalForm]:
        return conj + [mid.form] + [inverse(f) for f in reversed(conj)]

    def q_factors(j: int, p: int) -> list[NormalForm]:
        # the factors of Q_{j,p}, as in Q
        out = [C(j, prm).form]
        for w, a in _q_conjugates(j, p, prm):
            out += [w.form, a.form, inverse(w.form)]
        return out

    # Z_j .. Z_l family; A^{(p)} is conjugated by Q_{j,r-1-p}, with Q_{j,0} = C_j.
    # The (1,2) instance is checked by direct rotation; the general instance
    # is its conjugate by w = rho_{l-1}..rho_{j+1} nu_j, so it suffices that
    # every element match the w-conjugate of the base element.
    base_elems = (
        [[Z(1, prm).form]]
        + [[A(1, 2, p, prm).form] for p in range(1, r)]
        + [[Z(2, prm).form], [A(1, 2, r, prm).form]]
    )
    _family_holds(strands, base_elems, report, f"[Z1,A..A,Z2,A(1,2;{r})]")
    base_forms = [garside.product(strands, el) for el in base_elems]

    # nu_j = rho_1 .. rho_j nu_{j-1}, with nu_1 = 1
    nus = {1: empty_braid(strands)}
    for j in range(2, n):
        nus[j] = product([rho(s, prm) for s in range(1, j + 1)] + [nus[j - 1]])

    for j in range(1, n + 1):
        for l in range(j + 1, n + 1):
            if (j, l) == (1, 2):
                continue
            w = product([rho(s, prm) for s in range(l - 1, j, -1)] + [nus[j]])
            elems = (
                [[Z(j, prm).form]]
                + [conj_factors(q_factors(j, r - 1 - p), A(j, l, p, prm)) for p in range(1, r)]
                + [[Z(l, prm).form], [A(j, l, r, prm).form]]
            )
            label = f"[Z{j},Q.A..Q,Z{l},A({j},{l};{r})]"
            for s, el in enumerate(elems):
                lhs = garside.product(strands, el)
                rhs = _conjugated(strands, w.form, base_forms[s])
                report.add(f"{label} element {s+1} conjugates from base", lhs == rhs)

    # Z against A with all three relative positions of the Z index.  A Z above
    # both A-indices commutes with the A^{[p]}-conjugate of Z_k, which
    # degenerates to the bare commutator at p = r.
    for p in range(1, r + 1):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                for l in range(k + 1, n + 1):
                    report.add(
                        f"[Z{i}, A({k},{l};{p})]",
                        _commute(strands, Z(i, prm).form, A(k, l, p, prm).form),
                    )
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    zk = _conjugated(strands, Abracket(i, k, p, prm).form, Z(k, prm).form)
                    report.add(
                        f"[A({i},{j};{p}), Abr({i},{k};{p}) Z{k} .]",
                        _commute(strands, A(i, j, p, prm).form, zk),
                    )
                    lhs = _conjugated(strands, Abracket(i, j, p, prm).form, Z(j, prm).form)
                    chain = [A(s, k, r, prm).form for s in range(i + 1, j + 1)]
                    conjd = _conjugated(
                        strands, inverse(garside.product(strands, chain)), A(i, k, p, prm).form
                    )
                    report.add(
                        f"[Abr({i},{j};{p}) Z{j} ., A({i},{k};{p})^(A..A)]",
                        _commute(strands, lhs, conjd),
                    )

    # A against A: disjoint, nested, and linked pairs.
    for p in range(1, r + 1):
        for q in range(1, r + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for k in range(j + 1, n + 1):
                        for l in range(k + 1, n + 1):
                            report.add(
                                f"[A({i},{j};{p}), A({k},{l};{q})]",
                                _commute(strands, A(i, j, p, prm).form, A(k, l, q, prm).form),
                            )
                            nested = _conjugated(
                                strands, Abracket(j, l, p, prm).form, A(i, l, q, prm).form
                            )
                            report.add(
                                f"[A({j},{k};{p}), Abr A({i},{l};{q}) Abr^-1]",
                                _commute(strands, A(j, k, p, prm).form, nested),
                            )
                            lhs = _conjugated(
                                strands, Abracket(j, k, p, prm).form, A(i, k, q, prm).form
                            )
                            akl = A(k, l, r, prm).form
                            rhs = garside.product(
                                strands, [inverse(akl), A(j, l, p, prm).form, akl]
                            )
                            report.add(
                                f"[Abr A({i},{k};{q}) Abr^-1, A({j},{l};{p})^A({k},{l};{r})]",
                                _commute(strands, lhs, rhs),
                            )

    # Triple families.
    for p in range(1, r + 1):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    _family_holds(
                        strands,
                        [[A(i, j, p, prm).form], [A(i, k, p, prm).form], [A(j, k, r, prm).form]],
                        report,
                        f"[A({i},{j};{p}), A({i},{k};{p}), A({j},{k};{r})]",
                    )

    def bracket_chain(i: int, j: int, k: int, q: int) -> list[NormalForm]:
        # descending m = j-1 .. i+1, the order of the A^{[1]}_{m,k} factors of D_k
        lower = [Abracket(m, k, r - q, prm).form for m in range(j - 1, i, -1)]
        return [Abracket(j, k, r - q + 1, prm).form] + lower

    for p in range(1, r + 1):
        for q in range(1, p):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for k in range(j + 1, n + 1):
                        elems = [
                            [A(i, j, p, prm).form],
                            [A(j, k, r - q, prm).form],
                            conj_factors(bracket_chain(i, j, k, q), A(i, k, p - q, prm)),
                        ]
                        _family_holds(
                            strands,
                            elems,
                            report,
                            f"[A({i},{j};{p}), A({j},{k};{r-q}), . A({i},{k};{p-q}) .]",
                        )
    for q in range(1, r):
        for p in range(1, q + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for k in range(j + 1, n + 1):
                        elems = [
                            conj_factors([D(i, prm).form], A(i, j, p, prm)),
                            [A(j, k, r - q, prm).form],
                            conj_factors(bracket_chain(i, j, k, q), A(i, k, r - q + p, prm)),
                        ]
                        _family_holds(
                            strands,
                            elems,
                            report,
                            f"[D A({i},{j};{p}) D^-1, A({j},{k};{r-q}), . A({i},{k};{r-q+p}) .]",
                        )
    return report


def _expected_A_pairs(i: int, j: int, p: int, prm: MonomialParams) -> set[tuple[int, int]]:
    """Strand pairs twisted by A^{(p)}_{i,j}: orbit point i*zeta^{q-p} with j*zeta^q.

    The r pairs are disjoint and shifted by p; with the strand numbering of
    this module the shift computed from the defining words is q - p mod r
    (the two zeta-orientations coincide for r <= 2).
    """
    pairs = set()
    for q in range(1, prm.r + 1):
        pq = (q - p - 1) % prm.r + 1
        a = strand_of_point(i, pq, prm)
        b = strand_of_point(j, q, prm)
        pairs.add((min(a, b), max(a, b)))
    return pairs


def verify_generators_free_factor(prm: MonomialParams) -> Report:
    """Purity, linking patterns, and homology independence of Z_n, A^{(p)}_{i,n}.

    The linking pattern of Z_n is the full twist on strand 1 together with
    the n-th orbit block (the defining word winds the whole orbit once
    around the puncture), and A^{(p)}_{i,n} twists the r shifted orbit
    pairs.  Independence of the r(n-1)+1 abelianized vectors is checked by
    exact rank computation.
    """
    r, n = prm.r, prm.n
    report = Report(f"free factor generators, r={r}, n={n}")
    # (name, braid, expected linking pairs)
    block = (1,) + orbit_strands(n, prm)
    z_pairs = {(a, c) for ai, a in enumerate(block) for c in block[ai + 1:]}
    gens = [(f"Z[{n}]", Z(n, prm), z_pairs)]
    for i in range(1, n):
        for p in range(1, r + 1):
            gens.append((f"A[{i},{n};{p}]", A(i, n, p, prm), _expected_A_pairs(i, n, p, prm)))

    vectors = []
    for name, b, expect_pairs in gens:
        pure = permutation(b).is_identity
        report.add(f"{name} is pure", pure)
        if not pure:
            continue
        pairs = linking_pairs(b)
        expect = dict.fromkeys(expect_pairs, 1)
        report.add(f"{name} linking pattern", pairs == expect, f"{pairs}")
        vectors.append(pairs)

    rank, _ = _rank_of_rows(vectors)
    report.add(
        f"linking vectors independent (rank {len(gens)})",
        rank == len(gens),
        f"rank={rank}",
    )
    return report
