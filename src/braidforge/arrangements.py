"""Type-B tower data, monomial arrangement flats, and tower presentations.

The type-B arrangement on n coordinates is sliced by a generic line into
2n+1 real fiber lines; its braid monodromy has a closed form in the pure
braid generators which this module builds and cross-checks against the
wiring-diagram computation.  The monomial arrangement's codimension-two
flats and the iterated semidirect-product presentations of both towers are
built here as well, together with what reads the towers: their holonomy
presentations and the type-B action table, checked on fiber words and, at
r = 2, as braid identities among the monomial braids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import monomial as mono
from .braid import (
    BraidWord,
    artin,
    braid_equal,
    full_twist,
    is_pure,
    linking_pairs,
    product,
    pure_gen,
    u_chain,
)
from .freegroup import Word, WordError, _tokens, _word_text, conjugate, invert, peel_conjugate, word
from .liealg import HolonomyPresentation, holonomy_relations_from_flats
from .report import Report
from .wiring import RealLine, braid_monodromy, real_line, wiring_from_real_lines

__all__ = [
    "Hyperplane",
    "BSym",
    "TowerLevel",
    "typeb_lines",
    "typeb_meridian_symbols",
    "typeb_monodromy_closed",
    "typeb_wiring_cross_check",
    "exponents",
    "typeb_hyperplane",
    "monomial_flats",
    "build_typeb_tower",
    "build_monomial_tower",
    "tower_relations",
    "write_presentation",
    "ft_bracket_relations",
    "pbn_table_cells",
    "verify_pbn_table",
    "verify_pbn_correspondence",
]


class ArrangementError(ValueError):
    pass


# ---------------------------------------------------------------------------
# type-B line data and closed-form monodromy


def _b_coeff(k: int) -> int:
    return 0 if k == 1 else math.factorial(2 * k + 1)


def typeb_lines(n: int) -> list[RealLine]:
    """The 2n+1 fiber lines z = 0, z = +-(k x + b_k) with b_k = (2k+1)!.

    Returned in increasing slope order, which is also the height order at
    the basepoint far to the right.
    """
    if n < 1:
        raise ArrangementError("need n >= 1")
    lines = [real_line(-k, -_b_coeff(k)) for k in range(n, 0, -1)]
    lines.append(real_line(0, 0))
    lines.extend(real_line(k, _b_coeff(k)) for k in range(1, n + 1))
    return lines


class BSym(NamedTuple):
    """A type-B meridian symbol on level j: c_j, a_{i,j}, or b_{i,j} (i = 0 for c)."""

    kind: str
    i: int
    j: int

    def label(self) -> str:
        if self.kind == "c":
            return f"c[{self.j}]"
        return f"{self.kind}[{self.i},{self.j}]"

    @property
    def level(self) -> int:
        return self.j


def c_sym(j: int) -> BSym:
    return BSym("c", 0, j)


def a_sym(i: int, j: int) -> BSym:
    return BSym("a", i, j)


def b_sym(i: int, j: int) -> BSym:
    return BSym("b", i, j)


def typeb_meridian_symbols(n: int) -> list[BSym]:
    """Meridian names in wiring-event order (decreasing intersection x).

    c_j sits at x = -b_j/j, a_{i,j} at the slope-difference point, and
    b_{i,j} at the slope-sum point; the order is recomputed from the exact
    values rather than assumed.
    """
    points: list[tuple[Fraction, BSym]] = []
    for j in range(1, n + 1):
        points.append((Fraction(-_b_coeff(j), j), c_sym(j)))
        for i in range(1, j):
            bi, bj = _b_coeff(i), _b_coeff(j)
            points.append((Fraction(-(bj - bi), j - i), a_sym(i, j)))
            points.append((Fraction(-(bj + bi), j + i), b_sym(i, j)))
    points.sort(key=lambda t: t[0], reverse=True)
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ArrangementError("type-B intersection points are not distinct")
    return [sym for _, sym in points]


def typeb_monodromy_closed(n: int) -> dict[BSym, BraidWord]:
    """Closed-form braid monodromy chi: PB_n -> P_{2n+1} on all meridians."""
    if n < 1:
        raise ArrangementError("need n >= 1")
    N = 2 * n + 1
    chi: dict[BSym, BraidWord] = {}
    for j in range(1, n + 1):
        u = u_chain(n - j + 1, n, N)
        chi[c_sym(j)] = u * full_twist({n - j + 1, n + 1, n + j + 1}, N) * ~u
        for i in range(1, j):
            ua = u_chain(n - j + 1, n - i, N)
            chi[a_sym(i, j)] = (
                pure_gen(n + i + 1, n + j + 1, N)
                * ua
                * pure_gen(n - j + 1, n - i + 1, N)
                * ~ua
            )
            ub = u_chain(n - j + 1, n + i, N)
            chi[b_sym(i, j)] = (
                pure_gen(n - i + 1, n + j + 1, N)
                * ub
                * pure_gen(n - j + 1, n + i + 1, N)
                * ~ub
            )
    return chi


def typeb_wiring_cross_check(n: int) -> Report:
    """braid_equal of each closed-form braid against the wiring computation."""
    report = Report(f"type-B closed form vs wiring, n={n}")
    gens = braid_monodromy(wiring_from_real_lines(typeb_lines(n)))
    symbols = typeb_meridian_symbols(n)
    if len(gens) != len(symbols):
        report.add("event count equals meridian count", False,
                   f"{len(gens)} events vs {len(symbols)} meridians")
        return report
    chi = typeb_monodromy_closed(n)
    for g, sym in zip(gens, symbols):
        report.add(
            f"chi({sym.label()}) = gamma(u_{g.index})",
            braid_equal(chi[sym], g.braid),
        )
    return report


def exponents(r: int, n: int) -> list[int]:
    """Fiber-type exponents r(j-1)+1 of the monomial arrangement; type B is r = 2."""
    return [r * (j - 1) + 1 for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# monomial arrangement flats


class Hyperplane(NamedTuple):
    """A monomial-arrangement hyperplane: H_j when i = p = 0, else H^{(p)}_{i,j}.

    It is also the tower generator Z_j or A^{(p)}_{i,j} on level j, labelled so.
    """

    i: int
    j: int
    p: int

    def label(self) -> str:
        if self.i == 0:
            return f"Z[{self.j}]"
        return f"A[{self.i},{self.j};{self.p}]"

    @property
    def level(self) -> int:
        return self.j


def z_hyp(j: int) -> Hyperplane:
    return Hyperplane(0, j, 0)


def a_hyp(i: int, j: int, p: int) -> Hyperplane:
    return Hyperplane(i, j, p)


def monomial_hyperplanes(r: int, n: int) -> list[Hyperplane]:
    """All hyperplanes of the monomial arrangement, levels ascending."""
    out: list[Hyperplane] = []
    for j in range(1, n + 1):
        out.append(z_hyp(j))
        for i in range(1, j):
            out.extend(a_hyp(i, j, p) for p in range(1, r + 1))
    return out


def typeb_hyperplane(sym: BSym) -> Hyperplane:
    """The r = 2 hyperplane of a type-B symbol: c_j is H_j, a_{i,j} is
    H^{(2)}_{i,j} and b_{i,j} is H^{(1)}_{i,j}."""
    if sym.kind == "c":
        return z_hyp(sym.j)
    return a_hyp(sym.i, sym.j, 2 if sym.kind == "a" else 1)


def monomial_flats(r: int, n: int) -> list[tuple[Hyperplane, ...]]:
    """Maximal codimension-two flats, each as the hyperplanes containing it.

    Each unordered pair of hyperplanes lies in exactly one listed flat;
    the test suite checks this against a brute-force intersection oracle
    over the cyclotomic field.  At n = 1 the arrangement is the single
    hyperplane H_1 and has no flats.
    """
    if r < 1:
        raise ArrangementError("need r >= 1")
    flats: list[tuple[Hyperplane, ...]] = []
    for j in range(1, n + 1):
        for l in range(j + 1, n + 1):
            big = (z_hyp(j),) + tuple(a_hyp(j, l, p) for p in range(1, r)) + (
                z_hyp(l),
                a_hyp(j, l, r),
            )
            flats.append(big)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            for m in range(1, n + 1):
                if m in (k, l):
                    continue
                for q in range(1, r + 1):
                    flats.append((z_hyp(m), a_hyp(k, l, q)))
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    for ai in range(len(pairs)):
        for bi in range(ai + 1, len(pairs)):
            (i, j), (k, l) = pairs[ai], pairs[bi]
            if {i, j} & {k, l}:
                continue
            for p in range(1, r + 1):
                for q in range(1, r + 1):
                    flats.append((a_hyp(i, j, p), a_hyp(k, l, q)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for l in range(j + 1, n + 1):
                for p in range(1, r + 1):
                    for q in range(1, r + 1):
                        m = (p + q - 1) % r + 1
                        flats.append((a_hyp(i, j, p), a_hyp(i, l, m), a_hyp(j, l, q)))
    return flats


# ---------------------------------------------------------------------------
# towers and presentations


@dataclass(frozen=True)
class TowerLevel:
    """One level of a fiber-type tower: its generators and monodromy braids.

    ``gens`` are symbols of this ``level`` in fiber-strand order; ``braids``
    maps every lower-level symbol to the pure braid it induces on them.
    """

    level: int
    gens: tuple[Hyperplane | BSym, ...]
    braids: dict[Hyperplane | BSym, BraidWord]

    @property
    def rank(self) -> int:
        return len(self.gens)

    def __post_init__(self) -> None:
        for sym, b in self.braids.items():
            if b.strands != self.rank:
                raise ArrangementError(f"braid for {sym.label()} has wrong strand count")
            if not is_pure(b):
                raise ArrangementError(f"braid for {sym.label()} is not pure")


@dataclass(frozen=True)
class Relation:
    """x^-1 y x = rhs, with rhs a word over the generators of y's level."""

    conj: Hyperplane | BSym
    target: Hyperplane | BSym
    rhs: Word


def build_typeb_tower(n: int) -> list[TowerLevel]:
    """Type-B tower; level j carries the closed-form braids of rank j-1.

    Its strands are ``typeb_lines(j - 1)``: slope -k is b_{k,j}, 0 is c_j, k is a_{k,j}.
    """
    levels = []
    for j in range(1, n + 1):
        gens = (
            tuple(b_sym(i, j) for i in range(j - 1, 0, -1))
            + (c_sym(j),)
            + tuple(a_sym(i, j) for i in range(1, j))
        )
        levels.append(TowerLevel(j, gens, typeb_monodromy_closed(j - 1) if j > 1 else {}))
    return levels


def _monomial_braid(h: Hyperplane, r: int, n: int) -> BraidWord:
    """The monomial braid Z_j or A^{(p)}_{i,j} of a hyperplane, at (r, n)."""
    prm = mono.MonomialParams(r, n)
    return mono.Z(h.j, prm) if h.i == 0 else mono.A(h.i, h.j, h.p, prm)


def build_monomial_tower(r: int, n: int) -> list[TowerLevel]:
    """Monomial tower; level j's braids are the monomial braids at (r, j-1).

    Each fiber generator is the hyperplane whose braid is its loop
    (``monomial._expected_A_pairs``): the strand of x_i zeta^p is
    Hyperplane(i, j, r-p), with r for p = r, so a symbol means the same
    ``monomial.A`` as a fiber generator and as a lower generator.
    """
    levels = []
    for j in range(1, n + 1):
        gens = (z_hyp(j),) + tuple(
            a_hyp(i, j, r - p or r) for i in range(1, j) for p in range(1, r + 1)
        )
        braids = {h: _monomial_braid(h, r, j - 1) for h in monomial_hyperplanes(r, j - 1)}
        levels.append(TowerLevel(j, gens, braids))
    return levels


def _level_braids(tower: list[TowerLevel]):
    """Each level with its (lower symbol, braid) pairs, in tower order.

    A missing or a foreign braid key raises, naming the level and the symbol.
    """
    lower: list[Hyperplane | BSym] = []
    for lvl in tower:
        for sym in lower:
            if sym not in lvl.braids:
                raise ArrangementError(f"tower level {lvl.level} lacks a braid for {sym.label()}")
        if len(lvl.braids) > len(lower):
            sym = next(sym for sym in lvl.braids if sym not in lower)
            raise ArrangementError(f"tower level {lvl.level} has a braid for {sym.label()}, "
                                   "which is not a lower generator")
        yield lvl, [(sym, lvl.braids[sym]) for sym in lower]
        lower.extend(lvl.gens)


def tower_relations(tower: list[TowerLevel]):
    """The conjugation relations x^-1 y x = eta(x)(y) of the tower, one at a time.

    For each lower generator x and each level-j generator y = t_q, the
    right-hand side is the Artin image of t_q under the stored braid for x,
    a word over the level-j generators.  The braid keys of every level are
    checked before this returns; the relations are then built lazily, so
    only one braid's images are held at a time.
    """
    levels = list(_level_braids(tower))
    return (Relation(x, y, img)
            for lvl, braids in levels
            for x, braid in braids
            for y, img in zip(lvl.gens, artin(braid).images))


def write_presentation(tower: list[TowerLevel], out) -> None:
    """Write the tower's generators with their (level, position), then one line per relation.

    ``tower_relations`` checks every level's braid keys before the first
    write.  Each line then goes to ``out`` in its own write as soon as it is
    built, so neither the relations nor the text are ever held whole.
    """
    relations = tower_relations(tower)
    label, tokens = {}, {}
    out.write("# generators: name (level, position)\n")
    for lvl in tower:
        names = [g.label() for g in lvl.gens]
        table = _tokens(names)
        for pos, (g, name) in enumerate(zip(lvl.gens, names), start=1):
            label[g], tokens[g] = name, table
            out.write(f"# {name} ({lvl.level}, {pos})\n")
    for rel in relations:
        x, y = label[rel.conj], label[rel.target]
        out.write(f"{x}^-1 {y} {x} = {_word_text(rel.rhs, tokens[rel.target])}\n")


def ft_bracket_relations(tower: list[TowerLevel]) -> HolonomyPresentation:
    """Holonomy presentation of a fiber-type tower from its monodromy braids.

    Each lower generator x and each linking block V of its braid on a higher
    level form one flat {x} + V, so x + sum_{s in V} t_s commutes with every
    t_q, q in V; a strand outside every nontrivial block is a pair flat, so
    it commutes with x.  The flats go through ``holonomy_relations_from_flats``,
    which attaches them, with the levels, for the certified rank path.
    """
    flats: list[tuple[Hyperplane | BSym, ...]] = []
    for lvl, braids in _level_braids(tower):
        for x, braid in braids:
            adj: dict[int, set[int]] = {}
            for (s, t), val in linking_pairs(braid).items():
                if val != 1:
                    raise ArrangementError(f"unexpected linking value {val} in tower braid")
                adj.setdefault(s, set()).add(t)
                adj.setdefault(t, set()).add(s)
            seen: set[int] = set()
            for s in range(1, lvl.rank + 1):
                if s in seen:
                    continue
                block = {s} | adj.get(s, set())
                for t in block:
                    if adj.get(t, set()) | {t} != block:
                        raise ArrangementError(
                            "linking pattern of tower braid is not a block clique"
                        )
                seen |= block
                flats.append((x,) + tuple(lvl.gens[t - 1] for t in sorted(block)))
    return holonomy_relations_from_flats(flats, [g for lvl in tower for g in lvl.gens])


# ---------------------------------------------------------------------------
# the type-B action table


@dataclass(frozen=True)
class TableCell:
    """One cell of the type-B action table: g^-1 y g = K y K^-1.

    ``conjugator`` is K as a list of (symbol, sign) over level-l symbols, or
    None where the printed conjugator has no well-formed reading; such a
    cell may carry an emendation to test informationally.
    """

    name: str
    l: int
    conj: BSym
    target: BSym
    conjugator: tuple[tuple[BSym, int], ...] | None
    emendation: tuple[tuple[BSym, int], ...] | None = None


def _abar(i: int, l: int) -> list[tuple[BSym, int]]:
    return [(a_sym(s, l), 1) for s in range(1, i)]


def _bbar(i: int, l: int) -> list[tuple[BSym, int]]:
    return [(b_sym(s, l), 1) for s in range(i - 1, 0, -1)]


def _inv(word: list[tuple[BSym, int]]) -> list[tuple[BSym, int]]:
    return [(sym, -sign) for sym, sign in reversed(word)]


def _bhat(i: int, l: int) -> list[tuple[BSym, int]]:
    bb = _bbar(i, l)
    return _inv(bb) + [(b_sym(i, l), 1)] + bb


def _comm(x: list[tuple[BSym, int]], y: list[tuple[BSym, int]]) -> list[tuple[BSym, int]]:
    return x + y + _inv(x) + _inv(y)


def pbn_table_cells(n: int) -> list[TableCell]:
    """Every action-table cell for all level pairs j < l <= n."""
    cells: list[TableCell] = []
    for l in range(2, n + 1):
        for j in range(1, l):
            conjs: list[BSym] = [c_sym(j)]
            for i in range(1, j):
                conjs.extend([a_sym(i, j), b_sym(i, j)])
            targets: list[BSym] = [c_sym(l)]
            for k in range(1, l):
                targets.extend([a_sym(k, l), b_sym(k, l)])
            for g in conjs:
                for y in targets:
                    cells.append(_table_cell(g, y, j, l))
    return cells


def _table_cell(g: BSym, y: BSym, j: int, l: int) -> TableCell:
    name = f"{g.label()}^-1 {y.label()} {g.label()}"
    i = g.i
    k = y.i
    al = lambda s: [(a_sym(s, l), 1)]
    bl = lambda s: [(b_sym(s, l), 1)]
    cl = [(c_sym(l), 1)]
    K: list[tuple[BSym, int]] | None
    emend = None
    if g.kind == "a":
        if y.kind == "a":
            if k == i or k == j:
                K = al(i) + al(j)
            elif i < k < j:
                K = _comm(al(i), al(j))
            else:
                K = []
        elif y.kind == "b":
            if k == i:
                # printed conjugator references an unbound index; no reading
                K = None
            elif k == j:
                K = bl(j) + _bbar(j, l) + _bhat(i, l) + _inv(_bbar(j, l))
            else:
                K = []
        else:
            K = []
    elif g.kind == "b":
        if y.kind == "a":
            if k < i or i < k < j:
                K = _comm(bl(i), al(j))
            elif k == i:
                tail = cl + _abar(i, l)
                K = _comm(bl(i), al(j)) + _inv(tail) + _bhat(j, l) + tail
            elif k == j:
                K = bl(i)
            else:
                K = []
        elif y.kind == "b":
            if k < i:
                K = _comm(bl(i), al(j))
            elif k == i:
                K = bl(i) + al(j)
            elif k == j:
                K = bl(j) + _comm(_bbar(j, l) + cl + _abar(i, l), al(i)) + al(i)
            else:
                K = []
        else:
            K = _comm(bl(i), al(j))
    else:  # g = c_j
        if y.kind == "a":
            if k < j:
                K = _comm(_bhat(j, l) + cl, al(j))
            elif k == j:
                K = _bhat(j, l) + cl
            else:
                K = []
        elif y.kind == "b":
            if k == j:
                # printed conjugator mixes in the level-j symbol c_j; test
                # the c_l reading informationally
                K = None
                emend = tuple(bl(j) + _bbar(j, l) + cl + al(j) + _inv(_bbar(j, l)))
            else:
                K = []
        else:
            K = _bhat(j, l) + cl + al(j)
    return TableCell(name, l, g, y, None if K is None else tuple(K), emend)


def _conjugate_of(syms: Iterable[tuple[BSym, int]], gens: tuple[BSym, ...], q: int) -> Word:
    """K t_q K^-1 as a reduced word, K spelled over a level's generators ``gens``."""
    K = word(len(gens), [sign * (gens.index(sym) + 1) for sym, sign in syms])
    return conjugate(Word(K.rank, (q,)), invert(K))


def verify_pbn_table(n: int) -> Report:
    """Check the type-B action table against the relations ``present typeb`` prints.

    Each cell g^-1 y g is the left-hand side of one relation of
    ``tower_relations(build_typeb_tower(n))``, the stream ``write_presentation``
    prints; its right-hand side is read from there, and positions from the
    level's symbols.  So the table and ``present typeb`` share one reader of
    the tower.  Each literal cell is compared as reduced words; the two
    cells without a well-formed printed conjugator are reported
    informationally with the computed right-hand side (and, for the c-on-b
    cell, whether the c_l emendation matches).
    """
    if not (2 <= n):
        raise ArrangementError("need n >= 2")
    report = Report(f"type-B action table, n={n}")
    tower = build_typeb_tower(n)
    rhs = {(rel.conj, rel.target): rel.rhs for rel in tower_relations(tower)}
    for cell in pbn_table_cells(n):
        gens = tower[cell.l - 1].gens
        q = gens.index(cell.target) + 1
        computed = rhs[cell.conj, cell.target]
        if cell.conjugator is not None:
            report.add(cell.name, computed == _conjugate_of(cell.conjugator, gens, q))
            continue
        # no literal reading: peel the computed conjugator and report it
        try:
            w, core = peel_conjugate(computed)
        except WordError:
            core = None
        if core != q:
            raise ArrangementError(f"image is not a conjugate of t{q}: {computed}")
        detail = f"computed: w tw^-1 with w = {_word_text(w, _tokens(g.label() for g in gens))}"
        if cell.emendation is not None:
            matches = _conjugate_of(cell.emendation, gens, q) == computed
            detail += "; c_l reading %s" % ("matches" if matches else "differs")
        report.add(f"{cell.name} [no literal reading]", True, detail)
    return report


def verify_pbn_correspondence(n: int) -> Report:
    """Check the type-B action table as braid identities in P(2,n).

    Each symbol stands for the monomial braid of its ``typeb_hyperplane``,
    and each literal table cell g^-1 y g = K y K^-1 is tested by
    braid_equal.  The two cells without a well-formed literal reading (the
    q_k conjugator at k=i and the y_k conjugator at k=j) are reported
    informationally, not as failures.
    """
    if not (2 <= n):
        raise ArrangementError("need n >= 2")
    prm = mono.MonomialParams(2, n)

    def as_braid(sym: BSym) -> BraidWord:
        return _monomial_braid(typeb_hyperplane(sym), 2, n)

    report = Report(f"type-B table correspondence, n={n}")
    for cell in pbn_table_cells(n):
        if cell.conjugator is None:
            report.add(f"{cell.name} (no literal reading)", True, "computed only")
            continue
        g = as_braid(cell.conj)
        y = as_braid(cell.target)
        conj = product(
            [as_braid(sym) if sign > 0 else ~as_braid(sym) for sym, sign in cell.conjugator],
            prm.strands,
        )
        report.add(cell.name, braid_equal(product([~g, y, g]), product([conj, y, ~conj])))
    return report
