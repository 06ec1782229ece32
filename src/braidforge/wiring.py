"""Braided wiring diagrams and the braid monodromy of real line arrangements.

A wiring diagram on n wires is a sequence of events, one per multiple point
encountered while traversing a generic line from the right.  Each event
carries the consecutive-block partition I(j) of the current wire ordering
and the interleaving braid beta_{j,j+1} read on the way to the next event.
The local monodromy at an event is the squared half-twist Upsilon_{I(j)}^2,
and the global braid monodromy generators are

    gamma(u_j) = beta_j^-1 Upsilon_{I(j)}^2 beta_j,
    beta_1 = 1,  beta_{j+1} = beta_{j,j+1} Upsilon_{I(j)} beta_j.

Upsilon_I, Upsilon_I^2 and the product of I's block full twists depend
only on the partition I, so one cached record per partition holds all three.

Real line input is exact: rational data, scaled to integers for the events.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import gcd, lcm
from typing import Iterator

from .braid import (
    BraidWord,
    BraidError,
    artin,
    braid,
    braid_equal,
    conjugate_splits,
    empty_braid,
    linking_pairs,
    permutation,
    product,
)
from .report import Report

__all__ = [
    "ConsecutivePartition",
    "WiringDiagram",
    "MonodromyGenerator",
    "RealLine",
    "WiringError",
    "partition",
    "singletons",
    "real_line",
    "permutation_braid_mu",
    "braid_monodromy",
    "verify_twist_shape",
    "wiring_from_real_lines",
    "content_lines",
    "parse_wiring",
]


class WiringError(ValueError):
    pass


@dataclass(frozen=True)
class ConsecutivePartition:
    """An ordered partition of {1,...,n} into intervals of consecutive integers."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        expect = 1
        for block in self.blocks:
            for k, x in enumerate(block):
                if x != expect + k:
                    raise WiringError(f"blocks not consecutive/ordered: {self.blocks}")
            expect += len(block)
        if expect != self.n + 1:
            raise WiringError(f"blocks do not cover [1,{self.n}]: {self.blocks}")


def partition(n: int, blocks) -> ConsecutivePartition:
    return ConsecutivePartition(n, tuple(tuple(b) for b in blocks))


def singletons(n: int) -> ConsecutivePartition:
    return ConsecutivePartition(n, tuple((i,) for i in range(1, n + 1)))


@dataclass(frozen=True)
class WiringDiagram:
    """Events (I(j), beta_{j,j+1}) on n wires.

    The braid paired with the final event is the trailing braid: stored for
    fidelity to the diagram definition, never consulted by the monodromy.
    """

    n: int
    events: tuple[tuple[ConsecutivePartition, BraidWord], ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise WiringError("a wiring diagram needs at least one event")
        for part, b in self.events:
            if part.n != self.n or b.strands != self.n:
                raise WiringError("event size disagrees with diagram strand count")


@dataclass(frozen=True)
class MonodromyGenerator:
    """One braid monodromy generator gamma(u_j) with its block data.

    ``blocks`` partitions [n] by original wire label of the lines meeting at
    event j: the wire entering the event at position p is the one beta_j
    carries there, so each block of I(j) is carried back through the strand
    permutation of beta_j to basepoint labels, and the blocks are sorted by
    their least label.  ``positions`` holds each block as it stands in I(j),
    in the order of ``blocks``.  Singleton blocks are kept, so both partition
    [n].
    """

    index: int
    braid: BraidWord
    blocks: tuple[tuple[int, ...], ...]
    positions: tuple[tuple[int, ...], ...]
    conjugator: BraidWord


@cache
def permutation_braid_mu(block: tuple[int, ...], n: int) -> BraidWord:
    """Half twist on an interval block: (s_i..s_{i+s-1})(s_i..s_{i+s-2})..(s_i).

    Built once per (block, n), so its normal form is read from its letters
    once per process.
    """
    if not block:
        raise WiringError("mu needs a nonempty block")
    for k, x in enumerate(block):
        if x != block[0] + k:
            raise WiringError(f"mu needs an interval block, got {block}")
    if block[0] < 1 or block[-1] > n:
        raise WiringError(f"block {block} out of range for n={n}")
    i = block[0]
    letters: list[int] = []
    for top in range(block[-1] - 1, i - 1, -1):
        letters.extend(range(i, top + 1))
    return BraidWord(n, tuple(letters))


@cache
def _twists(I: ConsecutivePartition) -> tuple[BraidWord, BraidWord, BraidWord]:
    """(Upsilon_I, Upsilon_I^2, the product T_I of the full twists mu_B^2 on I's blocks).

    The one builder of a partition's braids, run once per partition.
    Upsilon_I's parts are the blocks' cached half twists; Upsilon_I^2 is a
    given word, not ``ups * ups``, so it keeps no parts; T_I's parts are the
    nontrivial blocks' half twists, each taken twice, so its form
    multiplies forms already read and no mu_B^2 is built.
    """
    mus = [permutation_braid_mu(block, I.n) for block in I.blocks]
    ups = product(mus, I.n)
    twist_product = product([m for mu in mus for m in (mu, mu)], I.n)
    return ups, BraidWord(I.n, ups.letters * 2), twist_product


def braid_monodromy(W: WiringDiagram) -> list[MonodromyGenerator]:
    """The pure braids gamma(u_j) = beta_j^-1 Upsilon_{I(j)}^2 beta_j, in order.

    Upsilon_I and Upsilon_I^2 come from the partition's one cached twist
    record, so every generator at I shares one middle and every conjugator
    after an event at I holds that one Upsilon_I.  Pure without a check:
    each half twist reverses its block, so Upsilon's permutation is an
    involution and gamma(u_j) is a conjugate of Upsilon^2."""
    gens: list[MonodromyGenerator] = []
    beta = empty_braid(W.n)
    for j, (I, between) in enumerate(W.events, start=1):
        ups, ups2, _ = _twists(I)
        gamma = product([~beta, ups2, beta])
        perm = permutation(beta)
        # (labels, positions) per block; disjoint blocks sort by least label
        carried = sorted((tuple(sorted(perm[p - 1] for p in b)), b) for b in I.blocks)
        blocks = tuple(labels for labels, _ in carried)
        positions = tuple(b for _, b in carried)
        gens.append(MonodromyGenerator(j, gamma, blocks, positions, beta))
        beta = product([between, ups, beta])
    return gens


def verify_twist_shape(g: MonodromyGenerator, n: int) -> Report:
    """Check a monodromy generator against the commuting-full-twist shape.

    (a) its linking matrix is 1 exactly on pairs inside a common block;
    (b) each generator image reduces to w t_s w^-1 where abelianize(w) lies
        in the lattice spanned by the block's characteristic vector and e_s
        (a strand in no block of ``g.blocks`` fails); the split and the
        exponent sums come from :func:`conjugate_splits`, and an image is
        decoded only to print a failure;
    (c) ``g.positions`` form a consecutive partition of 1..n, so the full
        twists on their blocks are words in s_i at least 2 apart and commute
        by far commutation: the per-block product is the same in every order;
    (d) the braid equals beta_j^-1 (prod mu_B^2) beta_j, mu_B the half twist
        on block B's positions in I(j).  Both are conjugates by beta_j, so
        :func:`braid_equal` compares only the middles, two fields of the
        partition's one twist record: Upsilon_I^2, which
        :func:`braid_monodromy` puts in every generator at I, and the block
        twists' product, whose parts are the blocks' cached half twists.
        So their normal forms, and the identity Upsilon_I^2 = prod mu_B^2,
        are read once per partition, not per generator.
        If (c) fails, no twist is built.  ``n`` must be the strand count.
    """
    if n != g.braid.strands:
        raise WiringError(f"n={n} but generator {g.index} has {g.braid.strands} strands")
    report = Report(f"twist shape, generator {g.index}")
    in_block = {(a, b): 1 for block in g.blocks for a in block for b in block if a < b}
    try:
        report.add("linking pattern matches V(j)", linking_pairs(g.braid) == in_block)
    except BraidError:  # linking numbers need a pure braid
        report.add("linking pattern matches V(j)", False, "braid is not pure")

    by_strand = {s: block for block in g.blocks for s in block}
    images = ()
    for s, (core, ab) in enumerate(conjugate_splits(g.braid), start=1):
        if core != s:
            images = images or artin(g.braid).images
            report.add(f"image of t{s} is a conjugate of t{s}", False, str(images[s - 1]))
            continue
        block = by_strand.get(s)
        check = f"conjugator of t{s} abelianizes into span(block, e{s})"
        if block is None:
            report.add(check, False, f"strand {s} lies in no block")
            continue
        inside = {ab[k - 1] for k in block if k != s}
        outside_ok = all(ab[k - 1] == 0 for k in range(1, n + 1) if k not in block)
        report.add(check, outside_ok and len(inside) <= 1, f"block={block} ab={ab}")

    try:
        I = ConsecutivePartition(n, tuple(sorted(g.positions)))
    except WiringError as exc:
        report.add("positions form a consecutive partition", False, str(exc))
        report.add("per-block product", False, "positions are not a consecutive partition")
        return report
    report.add("positions form a consecutive partition", True)
    beta = g.conjugator
    report.add("per-block product", braid_equal(product([~beta, _twists(I)[2], beta]), g.braid))
    return report


@dataclass(frozen=True)
class RealLine:
    """The real line z = slope*x + intercept, with exact rational data."""

    slope: Fraction
    intercept: Fraction

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


def real_line(slope, intercept) -> RealLine:
    return RealLine(Fraction(slope), Fraction(intercept))


def wiring_from_real_lines(lines: list[RealLine]) -> WiringDiagram:
    """Unbraided wiring diagram of a real line arrangement.

    Events are the distinct x-values of pairwise intersections, traversed by
    decreasing x; simultaneous intersections of disjoint subsets at one
    x-value form a single event with several nontrivial blocks.  Wires are
    numbered by increasing height at a basepoint right of every event, and
    all interleaving braids are trivial.

    Scaling every slope and intercept by one common denominator L > 0 (the
    lcm of theirs) moves no intersection and no order of heights, and makes
    them integers s, b.  Two lines then meet at a reduced x = p/q with
    q > 0, where the heights s x + b are ordered, ties included, as the
    integers s p + b q; the events are sorted exactly, by Fraction(p, q).
    """
    if len(lines) < 2:
        raise WiringError("need at least two lines")
    if len(set(lines)) != len(lines):
        raise WiringError("lines must be pairwise distinct")
    L = lcm(*(l.slope.denominator for l in lines), *(l.intercept.denominator for l in lines))
    scaled = [(int(l.slope * L), int(l.intercept * L)) for l in lines]
    xs: set[tuple[int, int]] = set()
    for a, (sa, ba) in enumerate(scaled):
        for sb, bb in scaled[a + 1:]:
            if sa != sb:  # x = p/q reduced, with the sign of q folded into g
                p, q = bb - ba, sa - sb
                g = gcd(p, q) if q > 0 else -gcd(p, q)
                xs.add((p // g, q // g))
    if not xs:
        raise WiringError("no intersections: parallel lines give no events")

    n = len(lines)
    events: list[tuple[ConsecutivePartition, BraidWord]] = []
    for p, q in sorted(xs, key=lambda x: Fraction(*x), reverse=True):
        # Wires meet in the order of their values at p/q, and lines through
        # one point share that value: the runs of equal sorted values are the
        # event's blocks, bottom to top.
        blocks: list[tuple[int, ...]] = []
        pos = 1
        for _, meeting in groupby(sorted(s * p + b * q for s, b in scaled)):
            stop = pos + sum(1 for _ in meeting)
            blocks.append(tuple(range(pos, stop)))
            pos = stop
        events.append((ConsecutivePartition(n, tuple(blocks)), empty_braid(n)))
    return WiringDiagram(n, tuple(events))


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, body)`` for each line of ``text`` with text before its ``#``.

    This is the line syntax that wiring, lines and flats files share: ``#``
    starts a comment, blank lines are skipped, ``body`` is stripped, and
    ``lineno`` counts every line from 1, so errors can name it.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def parse_wiring(text: str) -> WiringDiagram:
    """Parse the line-oriented wiring format described in README, "File formats".

    Lines are read once, in order, and each is checked as it is read, so a
    malformed file is reported at its first bad line.
    """
    n: int | None = None
    events: list[tuple[ConsecutivePartition, BraidWord | None]] = []
    for lineno, line in content_lines(text):
        if n is None:
            head = line.split()
            if len(head) != 2 or head[0] != "n":
                raise WiringError(f"line {lineno}: expected header 'n <int>'")
            try:
                n = int(head[1])
            except ValueError as exc:
                raise WiringError(f"line {lineno}: bad strand count") from exc
            if n < 1:
                raise WiringError(f"line {lineno}: strand count must be positive")
            continue
        kind, body = line[:2], line[2:].strip()
        if kind == "I:":
            blocks = []
            for chunk in body.split("|"):
                entries = chunk.split()
                if not entries:
                    raise WiringError(f"line {lineno}: empty block in partition")
                try:
                    blocks.append(tuple(int(tok) for tok in entries))
                except ValueError as exc:
                    raise WiringError(f"line {lineno}: bad block entry") from exc
            try:
                events.append((ConsecutivePartition(n, tuple(blocks)), None))
            except WiringError as exc:
                raise WiringError(f"line {lineno}: {exc}") from exc
        elif kind == "B:":
            if not events:
                raise WiringError(f"line {lineno}: braid line before any partition")
            if events[-1][1] is not None:
                raise WiringError(f"line {lineno}: partition has a second 'B:' line")
            try:
                b = braid(n, [int(tok) for tok in body.split()])
            except (BraidError, ValueError) as exc:
                raise WiringError(f"line {lineno}: {exc}") from exc
            events[-1] = (events[-1][0], b)
        else:
            raise WiringError(f"line {lineno}: expected 'I:' or 'B:' line")
    if n is None:
        raise WiringError("missing 'n <int>' header")
    if not events:
        raise WiringError("diagram has no events")
    return WiringDiagram(n, tuple((I, empty_braid(n) if b is None else b) for I, b in events))
