import io
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge import braid as braid_module
from braidforge.braid import (
    BraidError,
    artin,
    braid,
    braid_equal,
    braid_to_text,
    conjugate_splits,
    empty_braid,
    full_twist,
    is_pure,
    linking_pairs,
    permutation,
    product,
    pure_gen,
    u_chain,
    verify_braid_relations,
    verify_pure_braid_relations,
)
from braidforge.cli import run
from braidforge.freegroup import (
    Endomorphism,
    WordError,
    abelianize,
    apply,
    compose,
    conjugate,
    identity,
    invert,
    multiply,
    peel_conjugate,
    word,
)
from braidforge.garside import normal_form
from braidforge.monomial import MonomialParams, Q


def random_braid(rng, n, max_len=20):
    gens = [s for s in range(-(n - 1), n) if s != 0]
    return braid(n, [rng.choice(gens) for _ in range(rng.randint(0, max_len))])


def test_artin_single_generator():
    e = artin(braid(3, [1]))
    assert [w.letters for w in e.images] == [(1, 2, -1), (1,), (3,)]
    assert artin(empty_braid(4)).images == tuple(word(4, [i]) for i in range(1, 5))


def test_artin_inverse_generator():
    e = artin(braid(3, [-1]))
    assert [w.letters for w in e.images] == [(2,), (-2, 1, 2), (3,)]
    assert compose(artin(braid(3, [1])), e).images == artin(empty_braid(3)).images


def letter_image(n, x):
    """The defining action of one letter: sigma_i sends t_i -> t_i t_{i+1} t_i^-1
    and t_{i+1} -> t_i; sigma_i^-1 sends t_i -> t_{i+1} and
    t_{i+1} -> t_{i+1}^-1 t_i t_{i+1}; every other t_k is fixed."""
    i = abs(x)
    images = [[k] for k in range(1, n + 1)]
    if x > 0:
        images[i - 1], images[i] = [i, i + 1, -i], [i]
    else:
        images[i - 1], images[i] = [i + 1], [-(i + 1), i, i + 1]
    return Endomorphism(n, tuple(word(n, img) for img in images))


@given(st.integers(2, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_artin_matches_fold_of_letter_images(n, data):
    gens = [s for s in range(-(n - 1), n) if s != 0]
    letters = data.draw(st.lists(st.sampled_from(gens), max_size=30))
    assert artin(braid(n, letters)) == fold_of_letter_images(n, letters)


def fold_of_letter_images(n, letters):
    expected = identity(n)
    for x in letters:
        expected = compose(expected, letter_image(n, x))
    return expected


@st.composite
def kernel_braids(draw):
    """A braid on 2..40 strands whose Artin image cancels long, partly or totally.

    u v u^-1 and w w^-1 v make the images grow and then cancel back down
    through the joins; a plain word cancels at random.  The length is capped
    at 5n + 10 (200 letters from n = 38), since a random word on few
    strands has images exponentially long in its length.
    """
    n = draw(st.integers(2, 40))
    cap = min(200, 5 * n + 10)
    gens = st.sampled_from([s for s in range(-(n - 1), n) if s != 0])

    def letters(most):  # the length is drawn first, so long words are common
        size = draw(st.integers(0, most))
        return draw(st.lists(gens, min_size=size, max_size=size))

    shape = draw(st.sampled_from(["u v u^-1", "w w^-1 v", "plain"]))
    if shape == "plain":
        return n, letters(cap)
    outer = letters(cap // 3)
    inner = letters(cap - 2 * len(outer))
    back = [-x for x in reversed(outer)]
    if shape == "u v u^-1":
        return n, outer + inner + back
    return n, outer + back + inner


@given(kernel_braids())
@settings(max_examples=300, deadline=None)
def test_artin_byte_kernel_matches_the_oracles(case):
    n, letters = case
    e = artin(braid(n, letters))
    for img in e.images:
        assert word(n, img.letters) == img  # reduced
    size = sum(len(img) for img in e.images)
    if len(letters) * (size + n) <= 100_000:
        assert e == fold_of_letter_images(n, letters)
    else:  # the fold is too slow; the halves come from shorter words
        half = len(letters) // 2
        assert e == compose(artin(braid(n, letters[:half])), artin(braid(n, letters[half:])))


def _artin_counting_strips(monkeypatch, n, letters):
    """artin of the word, and how many joined conjugators ended in their core letter.

    Each letter makes one _join and then reads _CORE at the core of the
    image it conjugates, in that order, so the two records pair up.
    """
    joined, cores = [], []
    join, core = braid_module._join, braid_module._CORE

    class Cores:
        def __getitem__(self, c):
            cores.append(core[c])
            return core[c]

    monkeypatch.setattr(braid_module, "_join", lambda x, y: joined.append(join(x, y)) or joined[-1])
    monkeypatch.setattr(braid_module, "_CORE", Cores())
    e = artin(braid(n, letters))
    monkeypatch.undo()
    assert len(joined) == len(cores) == len(letters)
    return e, sum(1 for w, c in zip(joined, cores) if w and w[-1] in c)


def _strip_cases():
    rng = random.Random(126)
    delta2 = full_twist(range(1, 5), 4).letters
    yield from ((2, [x] * k) for x in (1, -1) for k in range(2, 7))
    yield 4, list(delta2)
    yield 4, [-x for x in reversed(delta2)]
    for x in (126, -126):
        yield 127, [x, x]
        yield 127, [rng.choice((-1, 1)) * rng.randint(120, 126) for _ in range(12)] + [x]


@pytest.mark.parametrize("case", list(_strip_cases()), ids=lambda c: f"{c[0]}:{c[1][-6:]}")
def test_artin_strips_the_core_letter_off_a_joined_conjugator(monkeypatch, case):
    # sigma_i sets t_i to (u c) t_z (u c)^-1; when u c ends in t_z^{+-1}
    # those letters commute with t_z and must go, or the rebuilt image
    # would not be reduced
    n, letters = case
    e, strips = _artin_counting_strips(monkeypatch, n, letters)
    assert strips
    assert e == fold_of_letter_images(n, letters)
    for img in e.images:
        assert word(n, img.letters) == img  # reduced


def test_artin_takes_127_strands_and_no_more():
    # sigma_126^-1 and sigma_1 write t_127^-1 and t_1^-1, the bytes 129 and
    # 255 at either end of the signed-byte range
    letters = [-126, 1, 64, -64, 125, 126]
    assert artin(braid(127, letters)) == fold_of_letter_images(127, letters)
    assert artin(braid(127, [-126])).images[126].letters == (-127, 126, 127)
    with pytest.raises(BraidError, match="at most 127 strands"):
        artin(braid(128, [1]))


def _peeled_splits(b):
    """conjugate_splits by the Word oracles: peel each Artin image, abelianize its half."""
    splits = []
    for img in artin(b).images:
        c, z = peel_conjugate(img)
        splits.append((z, abelianize(c)))
    return splits


@given(st.integers(2, 9).flatmap(
    lambda n: st.lists(st.sampled_from([s for s in range(1 - n, n) if s]), max_size=24)
    .map(lambda letters: braid(n, letters))))
@settings(max_examples=200, deadline=None)
def test_conjugate_splits_match_the_peeled_images(b):
    assert conjugate_splits(b) == _peeled_splits(b)


def test_conjugate_splits_at_the_edges():
    # the empty braid, a braid that is not pure, and t_127^{+-1}, the bytes
    # 129 and 255 at either end of the signed-byte range
    rng = random.Random(127)
    words = [(3, []), (4, [1, 2, -3, 2])]
    words += [(127, [rng.choice((-1, 1)) * rng.randint(120, 126) for _ in range(10)] + [x])
              for x in (126, -126)]
    for n, letters in words:
        b = braid(n, letters)
        assert conjugate_splits(b) == _peeled_splits(b)
    assert conjugate_splits(empty_braid(3)) == [(s, (0, 0, 0)) for s in (1, 2, 3)]
    assert [z for z, _ in conjugate_splits(braid(4, [1, 2, -3, 2]))] != [1, 2, 3, 4]
    z, ab = conjugate_splits(braid(127, [-126]))[126]
    assert (z, ab[125:]) == (126, (0, -1))


@pytest.mark.parametrize("n", [2, 5])
def test_out_of_range_letters_are_rejected_by_name(n):
    for bad in (0, n, -n):
        with pytest.raises(BraidError, match=f"letter {bad} out of range for {n} strands"):
            braid(n, [1, bad, -1])
        with pytest.raises(WordError, match=f"letter {bad} out of range for rank {n - 1}"):
            word(n - 1, [1, bad, -1])
    # the first bad letter is the one named
    with pytest.raises(BraidError, match=f"letter {-n} out of range"):
        braid(n, [1, -n, 0, n])
    with pytest.raises(WordError, match="letter 0 out of range"):
        word(n, [0, n + 1])


def test_braid_rejects_a_strand_count_below_one():
    with pytest.raises(BraidError, match="^strand count must be positive, got 0$"):
        braid(0, [])


def test_present_monomial_at_the_guard():
    # (6,6) is the largest point the CLI admits.  Level j has rank
    # 1 + (j-1) r, and each lower generator acts on each level-j generator
    # by a conjugate w t w^-1 of that generator.
    r = n = 6
    buf = io.StringIO()
    assert run(["present", "monomial", "--r", str(r), "--n", str(n)], buf) == 0
    lines = buf.getvalue().splitlines()
    ranks = [1 + (j - 1) * r for j in range(1, n + 1)]
    expected = sum(sum(ranks[:j]) * ranks[j] for j in range(n))
    relations = [line for line in lines if not line.startswith("#")]
    assert len(relations) == expected
    for line in relations:
        lhs, rhs = line.split(" = ")
        conj, target, conj_again = lhs.split(" ")
        assert conj == f"{conj_again}^-1"
        tokens = rhs.split(" ")
        half = len(tokens) // 2
        assert len(tokens) % 2 == 1 and tokens[half] == target, line
        for a, b in zip(tokens[:half], reversed(tokens[half + 1:])):
            assert a == f"{b}^-1" or b == f"{a}^-1", line


def test_artin_full_twist_on_two_strands():
    e = artin(braid(2, [1, 1]))
    c = word(2, [1, 2])
    assert e.images[0] == multiply(multiply(c, word(2, [1])), invert(c))
    assert e.images[1] == multiply(multiply(c, word(2, [2])), invert(c))


def test_braid_equal_relations():
    assert braid_equal(braid(3, [1, 2, 1]), braid(3, [2, 1, 2]))
    assert braid_equal(braid(4, [1, 3]), braid(4, [3, 1]))
    assert not braid_equal(braid(2, [1]), braid(2, [-1]))
    with pytest.raises(BraidError):
        braid_equal(braid(2, [1]), braid(3, [1]))


def test_permutation_examples():
    assert permutation(braid(2, [1])) == (2, 1)
    assert is_pure(pure_gen(1, 2, 2))
    # the monomial rho_0 word at r=3: a 3-cycle moving 2->3->4->2
    assert permutation(braid(7, [3, 2, 1, 1])) == (1, 3, 4, 2, 5, 6, 7)


def test_pure_gen():
    assert pure_gen(1, 2, 4).letters == (1, 1)
    assert pure_gen(2, 4, 5).letters == (3, 2, 2, -3)
    assert linking_pairs(pure_gen(2, 4, 5)) == {(2, 4): 1}
    with pytest.raises(BraidError):
        pure_gen(2, 2, 4)


def test_full_twist():
    ft = full_twist({2, 3, 4}, 5)
    expected = pure_gen(2, 3, 5) * pure_gen(2, 4, 5) * pure_gen(3, 4, 5)
    assert ft.letters == expected.letters
    assert full_twist({3}, 5).letters == ()
    assert is_pure(ft)
    with pytest.raises(BraidError):
        full_twist(set(), 3)
    with pytest.raises(BraidError):
        full_twist({1, 9}, 3)


def test_full_twist_action_conjugates_by_block_product():
    # A_V sends t_j to t_V t_j t_V^-1 for j in V, and fixes the others
    ft = full_twist({2, 3, 4}, 5)
    e = artin(ft)
    tv = word(5, [2, 3, 4])
    for j in range(1, 6):
        if j in (2, 3, 4):
            assert e.images[j - 1] == conjugate(word(5, [j]), invert(tv))
        else:
            assert e.images[j - 1] == word(5, [j])


def test_half_twist_square_is_full_twist():
    assert braid_equal(braid(5, [2, 3, 2] * 2), full_twist({2, 3, 4}, 5))


def test_u_chain():
    assert u_chain(1, 2, 4).letters == pure_gen(1, 2, 4).letters
    assert u_chain(1, 3, 4).letters == (pure_gen(1, 2, 4) * pure_gen(1, 3, 4)).letters
    assert u_chain(2, 2, 4).letters == ()
    assert linking_pairs(u_chain(1, 3, 4)) == {(1, 2): 1, (1, 3): 1}


def test_linking_numbers():
    assert linking_pairs(empty_braid(4)) == {}
    assert linking_pairs(full_twist({1, 2, 3}, 3)) == {
        (1, 2): 1,
        (1, 3): 1,
        (2, 3): 1,
    }
    with pytest.raises(BraidError, match="defined for pure braids only"):
        linking_pairs(braid(3, [1]))
    # strands 1 and 2 cross an odd number of times only in a braid that is
    # not pure, and that is what is reported
    with pytest.raises(BraidError, match="defined for pure braids only"):
        linking_pairs(braid(3, [1, 2, 2]))


def test_linking_additive_under_multiplication():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 5)
        a = random_braid(rng, n, 8)
        a = a * ~a * pure_gen(1, 2, n)  # ensure pure
        b = pure_gen(1, n, n) if n > 1 else empty_braid(n)
        la, lb, lab = linking_pairs(a), linking_pairs(b), linking_pairs(a * b)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert lab.get((i, j), 0) == la.get((i, j), 0) + lb.get((i, j), 0)



def random_pure_braid(rng, n, max_len):
    """Random letters, then a bubble sort of the strands home with random signs."""
    letters = list(random_braid(rng, n, max_len).letters)
    at = list(range(n))
    for x in letters:
        i = abs(x) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    for _ in range(n):
        for i in range(n - 1):
            if at[i] > at[i + 1]:
                letters.append(rng.choice((i + 1, -(i + 1))))
                at[i], at[i + 1] = at[i + 1], at[i]
    return braid(n, letters)


def dense_linking(b):
    """Half the signed crossings per strand pair, counted in an n x n matrix."""
    n = b.strands
    m = [[0] * n for _ in range(n)]
    at = list(range(n))
    for x in b.letters:
        i = abs(x) - 1
        a, c = at[i], at[i + 1]
        m[a][c] += 1 if x > 0 else -1
        m[c][a] = m[a][c]
        at[i], at[i + 1] = c, a
    assert all(v % 2 == 0 for row in m for v in row)
    return {(i + 1, j + 1): m[i][j] // 2
            for i in range(n) for j in range(i + 1, n) if m[i][j]}


def test_linking_pairs_match_a_dense_crossing_count():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 6)
        b = random_pure_braid(rng, n, 16)
        assert is_pure(b)
        pairs = linking_pairs(b)
        assert pairs == dense_linking(b)
        assert list(pairs) == sorted(pairs)

def test_verify_relation_suites():
    assert verify_braid_relations(3).passed
    rep = verify_pure_braid_relations(4)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "A[1,2]^-1 A[1,4] A[1,2] (k=i)" in names
    assert "A[2,3]^-1 A[1,4] A[2,3] (otherwise)" in names


def test_eq4_case_k_eq_i_explicit():
    n = 4
    conj = pure_gen(1, 2, n)
    lhs = ~conj * pure_gen(1, 4, n) * conj
    c = pure_gen(1, 4, n) * pure_gen(2, 4, n)
    rhs = c * pure_gen(1, 4, n) * ~c
    assert braid_equal(lhs, rhs)


def test_eq4_otherwise_commutes():
    assert braid_equal(
        pure_gen(3, 4, 4) * pure_gen(1, 2, 4), pure_gen(1, 2, 4) * pure_gen(3, 4, 4)
    )


def test_text_round_trip():
    b = braid(4, [2, -3])
    assert braid_to_text(b) == "2 -3"


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_artin_is_homomorphism(n, data):
    gens = [s for s in range(-(n - 1), n) if s != 0]
    la = data.draw(st.lists(st.sampled_from(gens), max_size=12))
    lb = data.draw(st.lists(st.sampled_from(gens), max_size=12))
    a, b = braid(n, la), braid(n, lb)
    assert artin(a * b) == compose(artin(a), artin(b))


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_artin_fixes_product_of_generators(n, data):
    gens = [s for s in range(-(n - 1), n) if s != 0]
    b = braid(n, data.draw(st.lists(st.sampled_from(gens), max_size=16)))
    prod = word(n, list(range(1, n + 1)))
    assert apply(artin(b), prod) == prod


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_artin_image_is_conjugate_of_permuted_generator(n, data):
    gens = [s for s in range(-(n - 1), n) if s != 0]
    b = braid(n, data.draw(st.lists(st.sampled_from(gens), max_size=16)))
    e, perm = artin(b), permutation(b)
    for j in range(1, n + 1):
        core = list(e.images[j - 1].letters)
        while len(core) > 1 and core[0] == -core[-1]:
            core = core[1:-1]
        assert core == [perm[j - 1]]


@given(st.integers(3, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_braid_equal_invariant_under_relator_insertion(n, data):
    gens = [s for s in range(-(n - 1), n) if s != 0]
    letters = data.draw(st.lists(st.sampled_from(gens), max_size=10))
    b = braid(n, letters)
    i = data.draw(st.integers(1, n - 2))
    relator = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    pos = data.draw(st.integers(0, len(letters)))
    modified = braid(n, letters[:pos] + list(relator) + letters[pos:])
    assert braid_equal(b, modified)


def test_full_twist_pair_equals_pure_gen():
    for n in (3, 5):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert braid_equal(full_twist({i, j}, n), pure_gen(i, j, n))


@given(st.integers(4, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_braid_equal_invariant_under_commutation_relator(n, data):
    gens = [s for s in range(-(n - 1), n) if s != 0]
    letters = data.draw(st.lists(st.sampled_from(gens), max_size=10))
    b = braid(n, letters)
    i = data.draw(st.integers(1, n - 3))
    j = data.draw(st.integers(i + 2, n - 1))
    relator = (i, j, -i, -j)
    pos = data.draw(st.integers(0, len(letters)))
    assert braid_equal(b, braid(n, letters[:pos] + list(relator) + letters[pos:]))


def _inverse_letters(letters):
    return tuple(-x for x in reversed(letters))


@st.composite
def built_braids(draw):
    """Braids built from random words by product, *, ~ and **, each with its letters
    concatenated eagerly by hand; later entries reuse earlier ones as parts."""
    n = draw(st.integers(2, 8))
    gens = [s for s in range(-(n - 1), n) if s != 0]
    pool = []

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["word", "mul", "inv", "pow", "product"]))
        if op == "word" or not pool:
            letters = tuple(draw(st.lists(st.sampled_from(gens), max_size=6)))
            pool.append((braid(n, letters), letters))
        elif op == "mul":
            (a, la), (b, lb) = pick(), pick()
            pool.append((a * b, la + lb))
        elif op == "inv":
            a, la = pick()
            pool.append((~a, _inverse_letters(la)))
        elif op == "pow":
            (a, la), k = pick(), draw(st.integers(-3, 3))
            pool.append((a ** k, (la if k >= 0 else _inverse_letters(la)) * abs(k)))
        else:
            picks = [pick() for _ in range(draw(st.integers(0, 4)))]
            pool.append((product([b for b, _ in picks], n), tuple(x for _, l in picks for x in l)))
    return n, pool


@given(built_braids())
@settings(max_examples=200, deadline=None)
def test_built_braids_match_their_eager_letters(case):
    n, pool = case
    # the last braid first, so the others are read after it has cached their forms
    for b, letters in reversed(pool):
        assert b.form == normal_form(n, letters)
        assert b.letters == letters
        assert b.length == len(letters)


def test_deep_chains_need_no_recursion():
    # b = ~b, b * s2, b * s2^-1 in turn, 10 000 times: the word grows while its
    # form stays short.  The expected word is a deque holding either the word
    # or its inverse, so it is built in linear time.
    b, stored, inverted = braid(3, (1,)), deque([1]), False
    for k in range(10_000):
        if k % 3 == 0:
            b, inverted = ~b, not inverted
            continue
        x = 2 if k % 3 == 1 else -2
        b = b * braid(3, (x,))
        if inverted:
            stored.appendleft(-x)
        else:
            stored.append(x)
    letters = _inverse_letters(tuple(stored)) if inverted else tuple(stored)
    assert len(letters) == 6_667
    assert b.form == normal_form(3, letters)
    assert b.letters == letters


def test_a_built_form_leaves_the_letters_unspelled():
    q = Q(6, 5, MonomialParams(6, 6))
    assert q.length == 455_230
    assert q.form.strands == 37
    assert "letters" not in q.__dict__


def test_double_inverse_is_the_braid_itself():
    w = braid(3, (1, 2))
    built = w * braid(3, (-1,))
    for b in (w, built, empty_braid(3)):
        assert ~~b is b
    assert ~~~built is not built and (~~~built).parts == ((built, -1),)


@st.composite
def shared_end_pairs(draw):
    """Braids x = P X S and y = P' Y S', built from one pool of parts.

    The ends are (part, sign) lists; y's ends are x's, except that one end
    part may have its sign flipped, which must not cancel.  A sign -1 is
    built as a fresh ``~part``.  The middles may be empty, the same, a
    fresh word with the same letters, or unrelated.
    """
    n = draw(st.integers(2, 6))
    gens = st.sampled_from([s for s in range(-(n - 1), n) if s != 0])
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        b = braid(n, draw(st.lists(gens, min_size=1, max_size=5)))
        if pool and draw(st.booleans()):  # a built part, so spelling its letters would show
            b = product([b, pool[draw(st.integers(0, len(pool) - 1))]])
        pool.append(b)
    parts = st.tuples(st.sampled_from(pool), st.sampled_from([1, -1]))

    def build(spine):
        return product([p if s > 0 else ~p for p, s in spine], n)

    head = draw(st.lists(parts, max_size=3))
    tail = draw(st.lists(parts, max_size=3))
    x_mid = draw(st.lists(parts, max_size=3))
    how = draw(st.sampled_from(["same", "twin", "other"]))
    if how == "same":
        y_mid = x_mid
    elif how == "twin":
        y_mid = [(braid(n, build(x_mid).letters), 1)] if x_mid else []
    else:
        y_mid = draw(st.lists(parts, max_size=3))
    y_head, y_tail = list(head), list(tail)
    ends = y_head or y_tail
    if ends and draw(st.booleans()):  # the same part with the opposite sign
        k = draw(st.integers(0, len(ends) - 1))
        ends[k] = (ends[k][0], -ends[k][1])
    x = build(head + x_mid + tail)
    y = build(y_head + y_mid + y_tail)
    return n, pool, x, y


@given(shared_end_pairs())
@settings(max_examples=300, deadline=None)
def test_braid_equal_cancels_shared_ends_soundly(case):
    n, pool, x, y = case
    built = [b for b in pool + [x, y] if b.parts and "letters" not in b.__dict__]
    verdict = braid_equal(x, y)
    # cancellation matches parts by identity, so it spells no part's letters
    assert not [b for b in built if "letters" in b.__dict__]
    assert verdict == (braid(n, x.letters).form == braid(n, y.letters).form)
