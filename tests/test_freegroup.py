import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidforge.freegroup import (
    Endomorphism,
    Word,
    WordError,
    abelianize,
    apply,
    commutator,
    compose,
    conjugate,
    identity,
    invert,
    multiply,
    peel_conjugate,
    word,
    word_to_text,
)


def naive_reduce(letters):
    """Scan-until-fixpoint oracle for free reduction."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


def test_reduce_examples():
    assert word(3, [1, 2, -2, 3]).letters == (1, 3)
    assert word(3, []).letters == ()
    assert word(1, [1, -1, 1, -1]).letters == naive_reduce([1, -1, 1, -1]) == ()


def test_reduce_rejects_bad_letters():
    with pytest.raises(WordError):
        word(2, [0])
    with pytest.raises(WordError):
        word(2, [3])
    with pytest.raises(WordError, match="^rank must be positive, got 0$"):
        word(0, [])


letters_strategy = st.lists(
    st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0), max_size=30
)


@given(letters_strategy)
def test_reduce_matches_naive_oracle(letters):
    assert word(4, letters).letters == naive_reduce(letters)


@given(letters_strategy)
def test_reduce_idempotent_and_nonincreasing(letters):
    w = word(4, letters)
    assert word(4, w.letters) == w
    assert len(w) <= len(letters)


def test_group_laws_examples():
    assert multiply(word(2, [1]), word(2, [-1])).letters == ()
    assert invert(word(2, [1, 2])).letters == (-2, -1)
    assert multiply(word(3, [1, 2]), word(3, [-2, 3])).letters == (1, 3)


@given(letters_strategy, letters_strategy, letters_strategy)
def test_group_axioms(a, b, c):
    u, v, w = (word(4, x) for x in (a, b, c))
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
    e = Word(4, ())
    assert multiply(u, e) == u and multiply(e, u) == u
    assert multiply(u, invert(u)) == e


def test_conjugate_and_commutator():
    assert conjugate(word(3, [1]), word(3, [])).letters == (1,)
    assert conjugate(word(3, [2]), word(3, [1])).letters == (-1, 2, 1)
    inner = conjugate(word(3, [3]), word(3, [1]))
    assert conjugate(inner, word(3, [-1])).letters == (3,)
    assert commutator(word(3, [1]), word(3, [1])).letters == ()
    assert commutator(word(3, [1]), word(3, [2])).letters == (1, 2, -1, -2)
    assert commutator(word(3, [1]), word(3, [])).letters == ()


def test_rank_mismatch():
    with pytest.raises(WordError):
        multiply(word(2, [1]), word(3, [1]))


def test_apply_substitutes_and_reduces():
    e = Endomorphism(2, (word(2, [1, 2, -1]), word(2, [1])))
    assert apply(e, word(2, [2, 1])).letters == (1, 1, 2, -1)
    assert apply(e, word(2, [])).letters == ()
    assert apply(identity(3), word(3, [1, -2, 3])) == word(3, [1, -2, 3])


def test_apply_homomorphism_property():
    e = Endomorphism(2, (word(2, [1, 2, -1]), word(2, [1])))
    u, v = word(2, [1, -2]), word(2, [2, 2, 1])
    assert apply(e, multiply(u, v)) == multiply(apply(e, u), apply(e, v))


def test_compose_right_action_convention():
    # sigma_1 image endomorphism in rank 2, composed with itself
    e = Endomorphism(2, (word(2, [1, 2, -1]), word(2, [1])))
    ee = compose(e, e)
    assert ee.images[0].letters == (1, 2, 1, -2, -1)
    assert ee.images[1].letters == (1, 2, -1)
    assert compose(identity(2), e) == e
    assert compose(e, identity(2)) == e


@given(letters_strategy)
def test_compose_is_apply_then_apply(letters):
    e = Endomorphism(4, tuple(word(4, [i, (i % 4) + 1]) for i in range(1, 5)))
    f = Endomorphism(4, tuple(word(4, [-i]) for i in range(1, 5)))
    w = word(4, letters)
    assert apply(compose(e, f), w) == apply(f, apply(e, w))


def test_abelianize():
    assert abelianize(word(3, [1, 2, -1])) == (0, 1, 0)
    assert abelianize(word(3, [])) == (0, 0, 0)
    assert abelianize(word(3, [1, 1, -2])) == (2, -1, 0)


@given(letters_strategy, letters_strategy)
def test_abelianize_additive_and_conjugation_invariant(a, b):
    u, v = word(4, a), word(4, b)
    uv = multiply(u, v)
    assert abelianize(uv) == tuple(
        x + y for x, y in zip(abelianize(u), abelianize(v))
    )
    assert abelianize(conjugate(u, v)) == abelianize(u)


def test_word_text_round_trip():
    w = word(3, [1, -3, -3, 2])
    assert word_to_text(w) == "t1 t3^-1 t3^-1 t2"
    assert word_to_text(word(3, [])) == "1"


def test_peel_conjugate():
    assert peel_conjugate(word(3, [2])) == (word(3, []), 2)
    assert peel_conjugate(word(3, [1, -3, 2, 3, -1])) == (word(3, [1, -3]), 2)
    for bad in ([], [1, 2], [-2], [1, -2, 1], [1, 2, 2, -1, -1], [1, 3, -2]):
        with pytest.raises(WordError):
            peel_conjugate(word(3, bad))


@given(letters_strategy, st.integers(min_value=1, max_value=4))
def test_peel_conjugate_inverts_conjugation(letters, s):
    u = word(4, letters)
    w = multiply(multiply(u, word(4, [s])), invert(u))
    v, core = peel_conjugate(w)
    assert core == s
    assert multiply(multiply(v, word(4, [s])), invert(v)) == w


@given(letters_strategy)
def test_compose_associative(letters):
    e = Endomorphism(4, tuple(word(4, [i, (i % 4) + 1]) for i in range(1, 5)))
    f = Endomorphism(4, tuple(word(4, [-i]) for i in range(1, 5)))
    g = Endomorphism(4, tuple(word(4, [(i % 4) + 1]) for i in range(1, 5)))
    w = word(4, letters)
    assert apply(compose(compose(e, f), g), w) == apply(compose(e, compose(f, g)), w)
