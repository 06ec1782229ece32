"""The Garside normal form against the Artin representation as oracle."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge import garside
from braidforge.braid import BraidError, BraidWord, artin, braid, braid_equal


@st.composite
def words(draw, n, max_len=14):
    gens = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    return draw(st.lists(gens, max_size=max_len))


@st.composite
def word_pairs(draw):
    """A word and either an unrelated word or the same word with a relator inserted."""
    n = draw(st.integers(2, 8))
    a = draw(words(n))
    if draw(st.booleans()):
        return n, a, draw(words(n))
    i = draw(st.integers(1, n - 1))
    relators = [[i, -i]]
    if i < n - 1:
        relators.append([i, i + 1, i, -(i + 1), -i, -(i + 1)])
    relators += [[i, j, -i, -j] for j in range(i + 2, n)]
    relator = draw(st.sampled_from(relators))
    pos = draw(st.integers(0, len(a)))
    return n, a, a[:pos] + relator + a[pos:]


def nf(n, letters):
    return garside.normal_form(n, letters)


def mul(*forms):
    return garside.product(forms[0].strands, forms)


@settings(max_examples=300, deadline=None)
@given(word_pairs())
def test_normal_forms_agree_exactly_when_artin_images_agree(pair):
    n, a, b = pair
    same_artin = artin(BraidWord(n, tuple(a))) == artin(BraidWord(n, tuple(b)))
    assert (nf(n, a) == nf(n, b)) == same_artin
    assert braid_equal(BraidWord(n, tuple(a)), BraidWord(n, tuple(b))) == same_artin


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_normal_form_is_multiplicative(pair):
    n, a, b = pair
    assert nf(n, a + b) == mul(nf(n, a), nf(n, b))
    assert nf(n, a + b + a) == mul(nf(n, a), nf(n, b), nf(n, a))


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_inverse_matches_normal_form_of_inverse_word(pair):
    n, a, _ = pair
    inv = garside.inverse(nf(n, a))
    assert inv == nf(n, [-x for x in reversed(a)])
    assert mul(nf(n, a), inv) == garside.NormalForm(n, 0, ())


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_inverse_matches_the_twisted_complement_formula(pair):
    # a factor of odd parity is tau of its complement; inverse reads it as
    # the reversed inverse map
    n, a, _ = pair
    x = nf(n, a)
    k, m = x.power, len(x.factors)
    old = []
    for i in range(m, 0, -1):
        d = garside.complement(x.factors[i - 1])
        old.append(garside.simple_tau(d) if (k + i) & 1 else d)
    inv = garside.inverse(x)
    assert inv == garside.NormalForm(n, -k - m, tuple(old))
    assert mul(x, inv) == mul(inv, x) == garside.NormalForm(n, 0, ())


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_braid_word_carries_its_normal_form(pair):
    n, a, _ = pair
    b = BraidWord(n, tuple(a))
    assert b.form == nf(n, a)
    assert b.form is b.form  # read from the letters once, then kept
    assert (~b).form == garside.inverse(b.form)


def _delta_word(n):
    # Delta = (s1)(s2 s1)(s3 s2 s1)...
    return [g for top in range(1, n) for g in range(top, 0, -1)]


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_delta_squared_is_central(pair):
    n, a, _ = pair
    d = nf(n, _delta_word(n))
    assert d == garside.NormalForm(n, 1, ())
    d2 = mul(d, d)
    x = nf(n, a)
    assert mul(d2, x) == mul(x, d2)
    assert nf(n, _delta_word(n) * 2 + a) == nf(n, a + _delta_word(n) * 2)


@settings(max_examples=300, deadline=None)
@given(word_pairs())
def test_normal_form_is_left_weighted_without_delta_or_identity(pair):
    n, a, b = pair
    for x in (nf(n, a), nf(n, b), mul(nf(n, a), nf(n, b)), garside.inverse(nf(n, a))):
        ident, half_twist = bytes(range(n)), bytes(range(n - 1, -1, -1))
        for f in x.factors:
            assert sorted(f) == list(range(n))
            assert f != ident and f != half_twist
        for left, right in zip(x.factors, x.factors[1:]):
            assert garside.starting_set(right) & ~garside.finishing_set(left) == 0


def test_simple_elements_and_sets():
    # sigma_1 sigma_2 in B_3: starts with sigma_1 only, ends with sigma_2 only
    x = nf(3, [1, 2])
    assert x.power == 0 and len(x.factors) == 1
    (a,) = x.factors
    assert garside.starting_set(a) == 0b01
    assert garside.finishing_set(a) == 0b10
    assert garside.complement(a) == nf(3, [1]).factors[0]
    assert garside.simple_tau(a) == nf(3, [2, 1]).factors[0]
    # sigma_1^-1 = Delta^-1 (sigma_1 sigma_2) in B_3
    assert nf(3, [-1]) == garside.NormalForm(3, -1, (bytes((2, 0, 1)),))
    assert nf(1, []) == garside.NormalForm(1, 0, ())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))), st.data())
def test_byte_maps_match_the_position_map_definitions(perm, data):
    """Inverse, tau and complement equal loops over the map; every normal-form factor is bytes."""
    a, n = bytes(perm), len(perm)
    top = n - 1
    inv = [0] * n
    for j, v in enumerate(perm):
        inv[v] = j
    assert garside._inverse_map(a) == bytes(inv)
    assert garside.simple_tau(a) == bytes(top - perm[top - j] for j in range(n))
    assert garside.complement(a) == bytes(top - v for v in inv)
    x = nf(n, data.draw(words(n, 30)) if n > 1 else [])
    for y in (x, garside.inverse(x), mul(x, x)):
        assert all(type(f) is bytes and len(f) == n for f in y.factors)


def test_normal_forms_take_at_most_256_strands():
    top = braid(256, [255, 1, -255, 2, 1])
    assert braid_equal(top, braid(256, [1, 2, 1]))
    assert all(len(f) == 256 for f in top.form.factors)
    for b in (braid(257, [256, 1]), braid(257, [1]) * braid(257, [-256])):
        with pytest.raises(BraidError, match="at most 256 strands"):
            b.form


def _left_weight_by_definition(a, b):
    """Move sigma_i from b to a while it starts b and does not finish a."""
    moved = False
    while True:
        movable = garside.starting_set(b) & ~garside.finishing_set(a)
        if not movable:
            return (a, b) if moved else None
        i = (movable & -movable).bit_length()  # sigma_i swaps positions i-1, i
        swap = {i - 1: i, i: i - 1}
        a = bytes(swap.get(v, v) for v in a)
        b = b[: i - 1] + bytes((b[i], b[i - 1])) + b[i + 1 :]
        moved = True


@st.composite
def simple_pairs(draw):
    n = draw(st.integers(2, 9))
    delta = bytes(range(n - 1, -1, -1))
    simple = st.one_of(st.permutations(range(n)), st.just(delta), st.just(bytes(range(n))))
    return bytes(draw(simple)), bytes(draw(simple))


@settings(max_examples=500, deadline=None)
@given(simple_pairs())
def test_left_weight_matches_the_definition(pair):
    # the kernel under the memo, and the memoised entry point the sweep calls
    a, b = pair
    expected = _left_weight_by_definition(a, b)
    assert garside._left_weight.__wrapped__(a, b) == expected
    assert garside._left_weight(a, b) == expected


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_forms_do_not_depend_on_the_memo(pair):
    # a warm memo returns what the kernel computed for a cold one
    n, a, b = pair

    def forms():
        x, y = nf(n, a), nf(n, b)
        return x, y, mul(x, y), mul(y, x, y)

    garside._left_weight.cache_clear()
    cold = forms()
    assert forms() == cold


@pytest.mark.parametrize("n", range(2, 10))
def test_left_weight_moves_delta_in_one_step(n):
    delta = bytes(range(n - 1, -1, -1))
    for a in map(bytes, itertools.islice(itertools.permutations(range(n)), 200)):
        if a != delta:
            assert garside._left_weight(a, delta) == (delta, garside.simple_tau(a))
    assert garside._left_weight(delta, delta) is None


@st.composite
def word_triples(draw):
    n = draw(st.integers(5, 8))
    return n, draw(words(n, 20)), draw(words(n, 20)), draw(words(n, 20))


@settings(max_examples=150, deadline=None)
@given(word_triples())
def test_product_keeps_the_first_operand(case):
    """product() takes its first operand's factors as they are, under either Delta parity."""
    n, w, y, z = case
    w_inv = [-x for x in reversed(w)]
    firsts = (w_inv, _delta_word(n) + w_inv)
    forms = [nf(n, letters) for letters in firsts]
    assert {f.power & 1 for f in forms} == {0, 1}
    for letters, x in zip(firsts, forms):
        got = garside.product(n, [x, nf(n, y), nf(n, z)])
        assert got == nf(n, letters + y + z)
        by_factor = garside._Product(n)
        for f in (x, nf(n, y), nf(n, z)):
            by_factor.delta_power(f.power)
            for s in f.factors:
                by_factor.simple(s)
        assert got == by_factor.result()


def test_product_of_one_form_applies_no_tau(monkeypatch):
    """A first operand with an odd Delta power is stored as it is: tau acts on no factor."""
    n = 5
    x = nf(n, [-1, 2, -3, 4, 1, 2])
    assert x.power & 1 and x.factors
    calls = []
    real_tau = garside.simple_tau

    def counted(a):
        calls.append(a)
        return real_tau(a)

    monkeypatch.setattr(garside, "simple_tau", counted)
    assert garside.product(n, [x]) == x
    assert calls == []
