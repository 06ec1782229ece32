"""Monomial braid groups inside B_{rn+1}: generators and verification suites.

The braids rho_0, ..., rho_{n-1} generate the image of the monomial braid
group on n orbit points for the cyclic group of order r acting on the
punctured plane; strand 1 is the orbit of 0 and strands (i-1)r+2 .. ir+1
form the orbit of the i-th point.  From these we assemble the pure monomial
braids Z_j, A^{(p)}_{i,j}, X_i and the derived words C, D, Q used in the
presentation of the pure monomial braid group, and verify every identity
claimed for them.  Each block has one builder, cached per (indices,
params), and every suite calls the builders directly.

Relations are decided by :func:`braid_equal`, never through Artin images.
Every block, conjugate, chain and cyclic product is built with
:func:`product`, ``~`` and ``**``, so it keeps its parts: the derived words
grow quickly under conjugation (Q_{6,5} at r = n = 6 has 455 230 letters),
but no suite spells them out.  Each braid's normal form is multiplied from
its parts' forms and kept with it, so a cached block is normalised once per
process and a conjugate of it costs one product of forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .braid import BraidWord, BraidError, braid_equal, empty_braid, linking_pairs, product
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


@cache
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
    for q in range(1, p + 1):
        for i in range(1, j):
            w = lemma_conj_D(i, j, prm)
            factors += [w, A(i, j, q, prm), ~w]
    return product(factors, prm.strands)


def _conjugated(w: BraidWord, x: BraidWord) -> BraidWord:
    """The conjugate w x w^-1."""
    return product([w, x, ~w])


def _commute(a: BraidWord, b: BraidWord) -> bool:
    return braid_equal(product([a, b]), product([b, a]))


def verify_monomial_relations(prm: MonomialParams) -> Report:
    """Check the defining relations among rho_0, ..., rho_{n-1}."""
    if prm.n < 2:
        raise BraidError("need n >= 2")
    report = Report(f"monomial braid relations, r={prm.r}, n={prm.n}")
    rhos = [rho(i, prm) for i in range(prm.n)]
    r0, r1 = rhos[0], rhos[1]
    report.add("(rho0 rho1)^2 = (rho1 rho0)^2",
               braid_equal(product([r0, r1, r0, r1]), product([r1, r0, r1, r0])))
    for i in range(1, prm.n - 1):
        a, b = rhos[i], rhos[i + 1]
        report.add(f"rho{i} rho{i+1} rho{i} = rho{i+1} rho{i} rho{i+1}",
                   braid_equal(product([a, b, a]), product([b, a, b])))
    for i in range(prm.n):
        for j in range(i + 2, prm.n):
            report.add(f"rho{i} rho{j} = rho{j} rho{i}", _commute(rhos[i], rhos[j]))
    return report


def verify_lemma_conj(prm: MonomialParams) -> Report:
    """Check the conjugation case table for X_i acting on Z_l and A^{(r)}_{k,l}."""
    if prm.n < 2:
        raise BraidError("need n >= 2")
    r = prm.r
    report = Report(f"conjugation lemma, r={r}, n={prm.n}")
    # A^{(r-1)} is built by _A_any_p, not A: p = r-1 degenerates to p = 0 at
    # r = 1, and the defining formula extends.
    for i in range(1, prm.n + 1):
        xi = X(i, prm)
        xi_inv = ~xi
        for l in range(1, prm.n + 1):
            z = Z(l, prm)
            lhs = product([xi_inv, z, xi])
            if l < i:
                rhs = z
                case = "l<i"
            elif l == i:
                rhs = _conjugated(~C(l, prm), z)
                case = "l=i"
            else:
                rhs = _conjugated(_A_any_p(i, l, r - 1, prm), z)
                case = "l>i"
            report.add(f"X[{i}]^-1 Z[{l}] X[{i}] ({case})", braid_equal(lhs, rhs))
        for k in range(1, prm.n + 1):
            for l in range(k + 1, prm.n + 1):
                a = A(k, l, r, prm)
                lhs = product([xi_inv, a, xi])
                if i < k or i > l:
                    rhs = a
                    case = "i<k or i>l"
                elif i == k:
                    rhs = _A_any_p(k, l, r - 1, prm)
                    case = "i=k"
                elif k < i < l:
                    rhs = _conjugated(_A_any_p(i, l, r - 1, prm), a)
                    case = "k<i<l"
                else:
                    rhs = _conjugated(lemma_conj_D(k, l, prm), A(k, l, 1, prm))
                    case = "i=l"
                report.add(f"X[{i}]^-1 A[{k},{l};{r}] X[{i}] ({case})", braid_equal(lhs, rhs))
    return report


def _family_holds(elements: list[BraidWord], report: Report, label: str) -> None:
    """Commutation family [g_1, ..., g_m]: all cyclic products agree.

    Equivalent to the full product commuting with each of g_1 .. g_{m-1};
    each of those m-1 commutations is recorded as one check.
    """
    prod = product(elements)
    for k, el in enumerate(elements[:-1]):
        report.add(f"{label} rotation {k+1}", _commute(prod, el))


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

    def z_family(j: int, l: int) -> list[BraidWord]:
        # A^{(p)} is conjugated by Q_{j,r-1-p}; Q_{1,*} = C_1 is empty
        conjugates = [_conjugated(Q(j, r - 1 - p, prm), A(j, l, p, prm)) for p in range(1, r)]
        return [Z(j, prm)] + conjugates + [Z(l, prm), A(j, l, r, prm)]

    # Z_j .. Z_l family.  The (1,2) instance is checked by direct rotation;
    # the general instance is its conjugate by w = rho_{l-1}..rho_{j+1} nu_j,
    # so it suffices that every element match the w-conjugate of the base
    # element.
    base = z_family(1, 2)
    _family_holds(base, report, f"[Z1,A..A,Z2,A(1,2;{r})]")

    # nu_j = rho_1 .. rho_j nu_{j-1}, with nu_1 = 1
    nus = {1: empty_braid(strands)}
    for j in range(2, n):
        nus[j] = product([rho(s, prm) for s in range(1, j + 1)] + [nus[j - 1]])

    for j in range(1, n + 1):
        for l in range(j + 1, n + 1):
            if (j, l) == (1, 2):
                continue
            w = product([rho(s, prm) for s in range(l - 1, j, -1)] + [nus[j]])
            label = f"[Z{j},Q.A..Q,Z{l},A({j},{l};{r})]"
            for s, el in enumerate(z_family(j, l)):
                report.add(f"{label} element {s+1} conjugates from base",
                           braid_equal(el, _conjugated(w, base[s])))

    # Z against A with all three relative positions of the Z index.  A Z above
    # both A-indices commutes with the A^{[p]}-conjugate of Z_k, which
    # degenerates to the bare commutator at p = r.
    for p in range(1, r + 1):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                for l in range(k + 1, n + 1):
                    report.add(f"[Z{i}, A({k},{l};{p})]", _commute(Z(i, prm), A(k, l, p, prm)))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    zk = _conjugated(Abracket(i, k, p, prm), Z(k, prm))
                    report.add(
                        f"[A({i},{j};{p}), Abr({i},{k};{p}) Z{k} .]",
                        _commute(A(i, j, p, prm), zk),
                    )
                    lhs = _conjugated(Abracket(i, j, p, prm), Z(j, prm))
                    chain = product([A(s, k, r, prm) for s in range(i + 1, j + 1)])
                    report.add(
                        f"[Abr({i},{j};{p}) Z{j} ., A({i},{k};{p})^(A..A)]",
                        _commute(lhs, _conjugated(~chain, A(i, k, p, prm))),
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
                                _commute(A(i, j, p, prm), A(k, l, q, prm)),
                            )
                            nested = _conjugated(Abracket(j, l, p, prm), A(i, l, q, prm))
                            report.add(
                                f"[A({j},{k};{p}), Abr A({i},{l};{q}) Abr^-1]",
                                _commute(A(j, k, p, prm), nested),
                            )
                            lhs = _conjugated(Abracket(j, k, p, prm), A(i, k, q, prm))
                            akl = A(k, l, r, prm)
                            rhs = product([~akl, A(j, l, p, prm), akl])
                            report.add(
                                f"[Abr A({i},{k};{q}) Abr^-1, A({j},{l};{p})^A({k},{l};{r})]",
                                _commute(lhs, rhs),
                            )

    # Triple families.
    for p in range(1, r + 1):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    _family_holds(
                        [A(i, j, p, prm), A(i, k, p, prm), A(j, k, r, prm)],
                        report,
                        f"[A({i},{j};{p}), A({i},{k};{p}), A({j},{k};{r})]",
                    )

    def bracket_chain(i: int, j: int, k: int, q: int) -> BraidWord:
        # descending m = j-1 .. i+1, the order of the A^{[1]}_{m,k} factors of D_k
        lower = [Abracket(m, k, r - q, prm) for m in range(j - 1, i, -1)]
        return product([Abracket(j, k, r - q + 1, prm)] + lower)

    for p in range(1, r + 1):
        for q in range(1, p):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for k in range(j + 1, n + 1):
                        elems = [
                            A(i, j, p, prm),
                            A(j, k, r - q, prm),
                            _conjugated(bracket_chain(i, j, k, q), A(i, k, p - q, prm)),
                        ]
                        _family_holds(
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
                            _conjugated(D(i, prm), A(i, j, p, prm)),
                            A(j, k, r - q, prm),
                            _conjugated(bracket_chain(i, j, k, q), A(i, k, r - q + p, prm)),
                        ]
                        _family_holds(
                            elems,
                            report,
                            f"[D A({i},{j};{p}) D^-1, A({j},{k};{r-q}), . A({i},{k};{r-q+p}) .]",
                        )
    return report


def _expected_A_pairs(i: int, j: int, p: int, prm: MonomialParams) -> set[tuple[int, int]]:
    """Strand pairs twisted by A^{(p)}_{i,j}: orbit point i*zeta^{q-p} with j*zeta^q.

    The r pairs are disjoint and shifted by p: A^{(p)}_{i,j} is the loop of
    x_j around x_i zeta^{-p}.  This fixes the naming convention of the
    monomial tower, where the fiber strand of x_i zeta^p is named
    A[i,j;r-p] (A[i,j;r] for p = r), so that a name means the same braid
    as a fiber generator and as a lower generator.
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
        try:
            pairs = linking_pairs(b)
        except BraidError:  # linking numbers need a pure braid
            report.add(f"{name} is pure", False)
            continue
        report.add(f"{name} is pure", True)
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
