import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge import garside, wiring
from braidforge.braid import (
    braid,
    braid_equal,
    empty_braid,
    full_twist,
    is_pure,
    linking_pairs,
    permutation,
    product,
    pure_gen,
)
from braidforge.wiring import (
    WiringDiagram,
    WiringError,
    braid_monodromy,
    parse_wiring,
    partition,
    permutation_braid_mu,
    real_line,
    singletons,
    verify_twist_shape,
    wiring_from_real_lines,
)

B2_EVENTS = [
    partition(5, [(1,), (2, 3, 4), (5,)]),
    partition(5, [(1, 2), (3,), (4, 5)]),
    partition(5, [(1,), (2, 3, 4), (5,)]),
    partition(5, [(1, 2), (3,), (4, 5)]),
]


def b2_diagram():
    return WiringDiagram(5, tuple((I, empty_braid(5)) for I in B2_EVENTS))


def b2_lines():
    return [
        real_line(-2, -120),
        real_line(-1, 0),
        real_line(0, 0),
        real_line(1, 0),
        real_line(2, 120),
    ]


def consecutive_partitions(n):
    """All ordered partitions of [n] into consecutive blocks, as a strategy."""

    def build(cuts):
        blocks = []
        start = 1
        for c in sorted(cuts) + [n]:
            blocks.append(tuple(range(start, c + 1)))
            start = c + 1
        return partition(n, blocks)

    return st.sets(st.integers(1, n - 1), max_size=n - 1).map(
        lambda cuts: build(list(cuts))
    )


def test_partition_validation():
    with pytest.raises(WiringError):
        partition(4, [(1, 3), (2,), (4,)])
    with pytest.raises(WiringError):
        partition(4, [(1, 2), (3,)])
    partition(5, [(1, 2), (3,), (4, 5)])


def test_mu_and_upsilon():
    assert permutation_braid_mu((2, 3, 4), 5).letters == (2, 3, 2)
    # built once per (block, n), so its normal form is read once
    assert permutation_braid_mu((2, 3, 4), 5) is permutation_braid_mu((2, 3, 4), 5)
    assert permutation_braid_mu((2, 3, 4), 5) is not permutation_braid_mu((2, 3, 4), 6)
    assert permutation_braid_mu((3,), 5).letters == ()
    assert permutation_braid_mu((1, 2), 5).letters == (1,)
    assert wiring._twists(B2_EVENTS[0])[0].letters == (2, 3, 2)
    assert wiring._twists(B2_EVENTS[1])[0].letters == (1, 4)
    assert wiring._twists(singletons(4))[0].letters == ()
    with pytest.raises(WiringError):
        permutation_braid_mu((1, 3), 5)


@given(st.integers(2, 9).flatmap(consecutive_partitions))
@settings(max_examples=40, deadline=None)
def test_upsilon_factors_commute(I):
    # what verify_twist_shape and braid_monodromy take from the partition
    # alone: the blocks' full twists commute, their product is Upsilon^2,
    # and Upsilon^2 is pure
    twists = [permutation_braid_mu(b, I.n) ** 2 for b in I.blocks if len(b) > 1]
    for k, a in enumerate(twists):
        for b in twists[k + 1:]:
            assert braid_equal(a * b, b * a)
    ups = wiring._twists(I)[0]
    assert braid_equal(product(twists, I.n), ups ** 2)
    assert is_pure(ups ** 2)


def test_b2_conjugators_letter_for_letter():
    gens = braid_monodromy(b2_diagram())
    assert gens[0].conjugator.letters == ()
    assert gens[1].conjugator.letters == (2, 3, 2)
    assert gens[2].conjugator.letters == (1, 4, 2, 3, 2)
    assert gens[3].conjugator.letters == (2, 3, 2, 1, 4, 2, 3, 2)


def test_b2_monodromy_pure_braids():
    gens = braid_monodromy(b2_diagram())
    A = lambda i, j: pure_gen(i, j, 5)
    expected = [
        full_twist({2, 3, 4}, 5),
        A(1, 2) * A(1, 3) * A(1, 4) * ~A(1, 3) * ~A(1, 2) * A(2, 5),
        A(1, 2) * full_twist({1, 3, 5}, 5) * ~A(1, 2),
        A(1, 2) * A(4, 5),
    ]
    for g, want in zip(gens, expected):
        assert braid_equal(g.braid, want)


def test_b2_block_partitions():
    blocks = [g.blocks for g in braid_monodromy(b2_diagram())]
    assert blocks == [
        ((1,), (2, 3, 4), (5,)),
        ((1, 4), (2, 5), (3,)),
        ((1, 3, 5), (2,), (4,)),
        ((1, 2), (3,), (4, 5)),
    ]


def test_blocks_match_linking():
    for g in braid_monodromy(b2_diagram()):
        pairs = set(linking_pairs(g.braid))
        expected = {
            (a, b)
            for block in g.blocks
            for a in block
            for b in block
            if a < b
        }
        assert pairs == expected


def _random_diagram(rng, n, m):
    letters = [s for s in range(-(n - 1), n) if s != 0]
    events = []
    for _ in range(m):
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        bounds = [0] + cuts + [n]
        I = partition(n, [range(a + 1, b + 1) for a, b in zip(bounds, bounds[1:])])
        events.append((I, braid(n, [rng.choice(letters) for _ in range(rng.randint(0, 6))])))
    return WiringDiagram(n, tuple(events))


def _random_lines(rng):
    # small integer data, so that several lines often meet in one point
    grid = [(s, c) for s in range(-3, 4) for c in range(-3, 4)]
    while True:
        lines = [real_line(s, c) for s, c in rng.sample(grid, rng.randint(3, 7))]
        if len({l.slope for l in lines}) > 1:
            return lines


@pytest.mark.parametrize("seed", range(1, 11))
def test_positions_carry_onto_blocks(seed):
    # the conjugator's strand permutation carries each block's positions at
    # I(j) onto the block's basepoint labels, and each position block is a
    # block of I(j)
    rng = random.Random(seed)
    diagrams = [
        _random_diagram(rng, rng.randint(2, 7), rng.randint(1, 5)),
        wiring_from_real_lines(_random_lines(rng)),
    ]
    for W in diagrams:
        for g, (I, _) in zip(braid_monodromy(W), W.events):
            perm = permutation(g.conjugator)
            carried = [tuple(sorted(perm[p - 1] for p in pos)) for pos in g.positions]
            assert carried == list(g.blocks)
            assert sorted(g.positions) == sorted(I.blocks)


def test_single_event_all_singletons():
    W = WiringDiagram(4, ((singletons(4), empty_braid(4)),))
    gens = braid_monodromy(W)
    assert len(gens) == 1 and gens[0].braid.letters == ()


def test_twist_shape_b2():
    W = b2_diagram()
    for g in braid_monodromy(W):
        rep = verify_twist_shape(g, 5)
        assert rep.passed, rep.failures


def test_twist_shape_checks_every_block_pair(monkeypatch):
    # five disjoint pairs of lines meet on x = 0: one generator with five
    # blocks, whose factors commute because its positions partition 1..n, so
    # one positions line stands for every pair and only the product is a
    # braid comparison
    lines = [real_line(s * k, 10 * k) for k in range(1, 6) for s in (1, -1)]
    W = wiring_from_real_lines(lines)
    [g] = [g for g in braid_monodromy(W) if sum(len(b) > 1 for b in g.blocks) == 5]
    calls = []
    monkeypatch.setattr(wiring, "braid_equal", lambda a, b: calls.append(1) or braid_equal(a, b))
    rep = verify_twist_shape(g, W.n)
    names = [c.name for c in rep.checks][-2:]
    assert names == ["positions form a consecutive partition", "per-block product"]
    assert len(calls) == 1
    assert rep.passed, rep.failures

    # overlapping, nested and non-interval positions fail the positions line
    # and build no twist; the nested full twists commute, so no commute check
    # could see them
    overlapping = ((1, 2), (2, 3, 4), (5, 6), (7, 8), (9, 10))
    nested = ((1, 2, 3, 4), (1, 2), (5, 6), (7, 8), (9, 10))
    interleaved = ((1, 3), (2, 4), (5, 6), (7, 8), (9, 10))
    outer, inner = (permutation_braid_mu(b, W.n) ** 2 for b in nested[:2])
    assert braid_equal(outer * inner, inner * outer)
    for positions in (overlapping, nested, interleaved):
        calls.clear()
        checks = {c.name: c for c in verify_twist_shape(replace(g, positions=positions), W.n).checks}
        assert not checks["positions form a consecutive partition"].ok
        assert not checks["per-block product"].ok
        assert not calls


def test_twist_shape_fails_a_generator_that_is_not_pure():
    g = braid_monodromy(b2_diagram())[1]
    bad = replace(g, braid=g.braid * braid(5, [1]))
    good_rep, bad_rep = verify_twist_shape(g, 5), verify_twist_shape(bad, 5)
    assert len(bad_rep.checks) == len(good_rep.checks)
    [check] = [c for c in bad_rep.checks if c.name == "linking pattern matches V(j)"]
    assert (check.ok, check.detail) == (False, "braid is not pure")


def test_twist_shape_fails_a_strand_in_no_block():
    # blocks that miss strand 3 fail its conjugator line instead of raising
    g = braid_monodromy(b2_diagram())[1]
    assert g.index == 2
    bad = replace(g, blocks=((1, 4), (2, 5)))
    good_rep, bad_rep = verify_twist_shape(g, 5), verify_twist_shape(bad, 5)
    assert [c.name for c in bad_rep.checks] == [c.name for c in good_rep.checks]
    name = "conjugator of t3 abelianizes into span(block, e3)"
    [check] = [c for c in bad_rep.checks if c.name == name]
    assert (check.ok, check.detail) == (False, "strand 3 lies in no block")


@pytest.mark.parametrize("n", [4, 6])
def test_twist_shape_rejects_a_wrong_strand_count(n):
    g = braid_monodromy(b2_diagram())[1]
    with pytest.raises(WiringError, match=f"n={n} .* 5 strands"):
        verify_twist_shape(g, n)


@pytest.mark.parametrize("extra", [False, True], ids=["dropped", "extra"])
def test_twist_shape_fails_a_dropped_or_extra_block_twist(extra):
    # one block's conjugated full twist taken out of the braid, or put in twice
    checked = 0
    for g in braid_monodromy(b2_diagram()):
        beta = g.conjugator
        for block in (b for b in g.positions if len(b) > 1):
            mu = permutation_braid_mu(block, 5)
            twist = ~beta * mu * mu * beta
            bad = replace(g, braid=g.braid * twist if extra else g.braid * ~twist)
            [check] = [c for c in verify_twist_shape(bad, 5).checks if c.name == "per-block product"]
            assert not check.ok
            checked += 1
    assert checked == 6


def test_twist_shape_never_normalises_a_conjugated_generator():
    # the generator and the per-block product are conjugates by one beta,
    # so braid_equal cancels beta and compares the middles
    conjugated = 0
    for g in braid_monodromy(b2_diagram()):
        assert verify_twist_shape(g, 5).passed
        if g.conjugator.length:
            assert "form" not in g.braid.__dict__
            conjugated += 1
    assert conjugated == 3


def test_twist_shape_normalises_each_partition_once(monkeypatch):
    # generators 2 and 4 of b2 share the partition (12)(3)(45) under
    # different conjugators: once beta cancels, both middles are the same
    # cached twist record, so the second check reads no normal form at all
    for cached in (wiring._twists, permutation_braid_mu, garside._left_weight):
        cached.cache_clear()
    gens = braid_monodromy(b2_diagram())
    first, second = gens[1], gens[3]
    assert sorted(first.positions) == sorted(second.positions)
    assert first.conjugator.letters != second.conjugator.letters
    calls = []
    left_weight = garside._left_weight
    monkeypatch.setattr(garside, "_left_weight", lambda a, b: calls.append(1) or left_weight(a, b))
    assert verify_twist_shape(first, 5).passed
    assert calls
    calls.clear()
    assert verify_twist_shape(second, 5).passed
    assert not calls


@pytest.mark.parametrize("seed", range(1, 6))
def test_one_twist_record_per_partition(seed):
    # the monodromy and the check share one cached record per partition,
    # and its twist product holds the blocks' cached half twists as parts,
    # so no full twist mu_B^2 is kept beside them
    for cached in (wiring._twists, permutation_braid_mu):
        cached.cache_clear()
    rng = random.Random(seed)
    diagrams = [_random_diagram(rng, rng.randint(2, 7), rng.randint(1, 5)) for _ in range(4)]
    diagrams += [wiring_from_real_lines(_random_lines(rng)) for _ in range(4)]
    seen = set()
    for W in diagrams:
        seen.update(I for I, _ in W.events)
        for g in braid_monodromy(W):
            assert verify_twist_shape(g, W.n).passed
    assert wiring._twists.cache_info().currsize == len(seen)
    for I in seen:
        _, _, twist_product = wiring._twists(I)
        mus = [permutation_braid_mu(b, I.n) for b in I.blocks if len(b) > 1]
        # == on (braid, sign) pairs is identity on the braid
        assert twist_product.parts == tuple((m, 1) for mu in mus for m in (mu, mu))


@pytest.mark.parametrize("seed", range(6))
def test_conjugators_share_the_record_upsilon(seed):
    # beta_{j+1} = beta_{j,j+1} Upsilon_I beta_j takes Upsilon_I from the
    # partition's one twist record, so no event builds its own; seed 0 is b2
    rng = random.Random(seed)
    diagrams = [b2_diagram()] if not seed else (
        [_random_diagram(rng, rng.randint(2, 7), rng.randint(1, 5)) for _ in range(4)]
        + [wiring_from_real_lines(_random_lines(rng)) for _ in range(4)])
    shared = 0
    for W in diagrams:
        gens = braid_monodromy(W)
        for j, ((I, between), after) in enumerate(zip(W.events, gens[1:])):
            ups, beta = wiring._twists(I)[0], after.conjugator
            if not ups.length:
                continue
            assert beta is ups or any(p is ups for p, _ in beta.parts)
            if j == 0 and not between.length:
                assert beta is ups
            shared += 1
    assert shared


def _per_block_product(g):
    [check] = [c for c in verify_twist_shape(g, g.braid.strands).checks
               if c.name == "per-block product"]
    return check.ok


def test_twist_shape_fails_a_wrong_middle():
    # a generator whose shared Upsilon_I^2 is swapped for its inverse, the
    # same object with the other sign, fails: the middles are compared
    for g in braid_monodromy(b2_diagram()):
        beta, I = g.conjugator, partition(5, sorted(g.positions))
        assert _per_block_product(g)
        assert not _per_block_product(
            replace(g, braid=product([~beta, ~wiring._twists(I)[1], beta])))


def test_twist_shape_does_not_trust_the_shared_upsilon(monkeypatch):
    # if the shared Upsilon_I^2 were wrong, here Upsilon_I, the check's own
    # twist product would still tell
    twists = wiring._twists
    monkeypatch.setattr(wiring, "_twists", lambda I: (twists(I)[0], twists(I)[0], twists(I)[2]))
    for g in braid_monodromy(b2_diagram()):
        assert not _per_block_product(g)


def test_twist_shape_empty_braid_vacuous():
    W = WiringDiagram(3, ((singletons(3), empty_braid(3)),))
    g = braid_monodromy(W)[0]
    assert verify_twist_shape(g, 3).passed


def _twist_shape_lines(seed):
    """The "title, name, ok, detail" lines of verify_twist_shape on seeded generators.

    Each generator of four seeded braided diagrams and four seeded line sets
    is checked as it is and tampered four ways: made not pure, given
    overlapping positions, given blocks that miss strand n, and given
    singleton blocks, so the conjugator lines fail with their ``ab`` text.
    """
    rng = random.Random(seed)
    diagrams = [_random_diagram(rng, rng.randint(2, 7), rng.randint(1, 5)) for _ in range(4)]
    diagrams += [wiring_from_real_lines(_random_lines(rng)) for _ in range(4)]
    lines = []
    for W in diagrams:
        n = W.n
        for g in braid_monodromy(W):
            for h in (
                g,
                replace(g, braid=g.braid * braid(n, [1])),
                replace(g, positions=((1, 2),) + tuple((k,) for k in range(2, n + 1))),
                replace(g, blocks=tuple(b for b in g.blocks if n not in b)),
                replace(g, blocks=tuple((k,) for k in range(1, n + 1))),
            ):
                rep = verify_twist_shape(h, n)
                lines += [f"{rep.title}\t{c.name}\t{c.ok}\t{c.detail}" for c in rep.checks]
    return lines


# sha256 prefix of _twist_shape_lines(seed), recorded while check (b) still
# decoded every Artin image and peeled it, and check (d) still normalised
# Upsilon^2 and the block twists for each generator
TWIST_SHAPE_DIGESTS = {
    1: "d507ffe210b5dfdf",
    2: "1b510b39c2548298",
    3: "638b4b02b80f9668",
    4: "0197abe60ed22313",
    5: "4409950247462b52",
}


@pytest.mark.parametrize("seed", sorted(TWIST_SHAPE_DIGESTS))
def test_twist_shape_reports_are_pinned(seed):
    lines = _twist_shape_lines(seed)
    assert any("\tFalse\tblock=" in line for line in lines)
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == TWIST_SHAPE_DIGESTS[seed]


def test_wiring_from_b2_lines():
    W = wiring_from_real_lines(b2_lines())
    assert [I.blocks for I, _ in W.events] == [I.blocks for I in B2_EVENTS]


def test_two_crossing_lines():
    W = wiring_from_real_lines([real_line(0, 0), real_line(1, 1)])
    assert len(W.events) == 1
    assert W.events[0][0].blocks == ((1, 2),)


def test_parallel_lines_error():
    with pytest.raises(WiringError):
        wiring_from_real_lines([real_line(1, 0), real_line(1, 1)])
    with pytest.raises(WiringError):
        wiring_from_real_lines([real_line(1, 0)])
    with pytest.raises(WiringError):
        wiring_from_real_lines([real_line(1, 0), real_line(1, 0)])


def fraction_wiring(lines):
    """The real-line diagram by plain Fraction evaluation at every event."""
    n = len(lines)
    xs = {(b.intercept - a.intercept) / (a.slope - b.slope)
          for k, a in enumerate(lines) for b in lines[k + 1:] if a.slope != b.slope}
    events = []
    for x in sorted(xs, reverse=True):
        sizes = [len(list(run)) for _, run in groupby(sorted(l.value(x) for l in lines))]
        bounds = [0, *accumulate(sizes)]
        I = partition(n, [range(a + 1, b + 1) for a, b in zip(bounds, bounds[1:])])
        events.append((I, empty_braid(n)))
    return WiringDiagram(n, tuple(events))


def _rational_lines(rng):
    """Lines with denominators 2..7 and mixed signs: three to five meet at one
    non-integer x, and two slopes are each taken by a pair of parallel lines."""
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(2, 7))

    x0 = Fraction(2 * rng.randint(-9, 9) + 1, 2 * rng.randint(1, 3))
    y0 = q()
    slopes = rng.sample(sorted({q() for _ in range(12)}), rng.randint(3, 5))
    through = [real_line(s, y0 - s * x0) for s in slopes]
    rest = [real_line(q(), q()) for _ in range(rng.randint(2, 6))]
    shifted = [real_line(l.slope, l.intercept + rng.choice((-1, 1)) * abs(q() or 1))
               for l in rng.sample(rest, 2)]
    return list(dict.fromkeys(through + rest + shifted))


@pytest.mark.parametrize("seed", range(1, 21))
def test_integer_wiring_matches_fraction_evaluation(seed):
    # the scaled integer events equal the diagram read with Fractions
    lines = _rational_lines(random.Random(seed))
    W = wiring_from_real_lines(lines)
    assert W == fraction_wiring(lines)
    assert any(len(b) >= 3 for I, _ in W.events for b in I.blocks)


def test_integer_wiring_matches_fraction_evaluation_on_typeb_lines():
    # typeb_lines(6) has factorial intercepts, so the scaled heights are large
    from braidforge.arrangements import typeb_lines

    for lines in (typeb_lines(6), b2_lines()):
        assert wiring_from_real_lines(lines) == fraction_wiring(lines)


def test_wiring_lines_pair_linking_at_most_once():
    # every pair of lines meets at most once, so linking numbers sum to <= 1
    lines = [real_line(k, Fraction(k * k, 2)) for k in range(-2, 3)]
    W = wiring_from_real_lines(lines)
    total = Counter()
    for g in braid_monodromy(W):
        total.update(linking_pairs(g.braid))
    assert all(v <= 1 for v in total.values())


def test_parse_serialize_round_trip():
    text = """
# a comment
n 5
I: 1 | 2 3 4 | 5
B:
I: 1 2 | 3 | 4 5
B: 2 -3
"""
    W = parse_wiring(text)
    assert len(W.events) == 2
    assert W.events[1][1].letters == (2, -3)


def test_parse_wiring_errors():
    with pytest.raises(WiringError):
        parse_wiring("I: 1 2\nB:")  # missing header
    with pytest.raises(WiringError):
        parse_wiring("n 3\nI: 1 3 | 2\nB:")  # non-consecutive block
    with pytest.raises(WiringError):
        parse_wiring("n 3\nI: 1 2\nB:")  # does not cover
    with pytest.raises(WiringError):
        parse_wiring("n 3\nI: 1 2 3\nB: 7")  # braid letter out of range
    with pytest.raises(WiringError):
        parse_wiring("n 3\nB: 1")  # braid before partition
    with pytest.raises(WiringError):
        parse_wiring("n 3")  # no events
    for n in (0, -1):
        with pytest.raises(WiringError, match="^line 1: strand count must be positive$"):
            parse_wiring(f"n {n}\nI: 1")
    # two faults: the first malformed line is the one reported
    with pytest.raises(
        WiringError, match=r"^line 2: blocks not consecutive/ordered: \(\(1, 3\), \(2,\)\)$"
    ):
        parse_wiring("n 3\nI: 1 3 | 2\nfoo")


@given(st.integers(3, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_monodromy_generators_are_pure_on_random_diagrams(n, data):
    m = data.draw(st.integers(1, 5))
    gens = [s for s in range(-(n - 1), n) if s != 0]
    events = []
    for _ in range(m):
        I = data.draw(consecutive_partitions(n))
        b = braid(n, data.draw(st.lists(st.sampled_from(gens), max_size=6)))
        events.append((I, b))
    W = WiringDiagram(n, tuple(events))
    for g in braid_monodromy(W):
        assert is_pure(g.braid)
        assert sorted(x for block in g.blocks for x in block) == list(range(1, n + 1))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_basepoint_conjugation_conjugates_every_generator(data):
    n = 5
    gens = [s for s in range(-(n - 1), n) if s != 0]
    b = braid(n, data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=5)))
    W = b2_diagram()
    # prepend a no-degeneration event that braids the bundle by b
    prefixed = WiringDiagram(n, ((singletons(n), b),) + W.events)
    before = braid_monodromy(W)
    after = braid_monodromy(prefixed)
    assert after[0].braid.letters == ()
    for g, gc in zip(before, after[1:]):
        assert braid_equal(gc.braid, ~b * g.braid * b)


def test_block_sizes_match_concurrency_counts():
    # multiset of block sizes at each event = multiset of concurrent-line
    # counts at that x-value, recomputed directly from the line data
    from braidforge.arrangements import typeb_lines

    lines = typeb_lines(3)
    W = wiring_from_real_lines(lines)
    xs = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if lines[i].slope != lines[j].slope:
                xs.add(
                    (lines[j].intercept - lines[i].intercept)
                    / (lines[i].slope - lines[j].slope)
                )
    for xe, (I, _) in zip(sorted(xs, reverse=True), W.events):
        values = Counter(l.value(xe) for l in lines)
        concurrency = sorted(v for v in values.values())
        block_sizes = sorted(len(b) for b in I.blocks)
        assert block_sizes == concurrency
