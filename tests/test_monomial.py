from collections import Counter

import pytest

from braidforge import braid, monomial
from braidforge.arrangements import verify_pbn_correspondence
from braidforge.braid import braid_equal, is_pure, linking_pairs, permutation
from braidforge.garside import inverse, normal_form, product
from braidforge.monomial import (
    A,
    Abracket,
    C,
    D,
    MonomialParams,
    Q,
    X,
    Z,
    lemma_conj_D,
    orbit_strands,
    rho,
    strand_of_point,
    tau,
    verify_generators_free_factor,
    verify_lemma_conj,
    verify_monomial_relations,
    verify_presentation,
)
from braidforge.braid import BraidError


def test_tau_closed_form():
    assert tau(1, MonomialParams(2, 2)).letters == (3,)
    assert tau(1, MonomialParams(3, 2)).letters == (3, 5, 4)
    assert tau(1, MonomialParams(1, 3)).letters == ()
    assert tau(2, MonomialParams(3, 3)).letters == (6, 8, 7)
    with pytest.raises(BraidError):
        tau(2, MonomialParams(2, 2))


def test_rho_closed_form():
    assert rho(0, MonomialParams(1, 2)).letters == (1, 1)
    assert rho(1, MonomialParams(1, 4)).letters == (2,)
    assert rho(0, MonomialParams(2, 2)).letters == (2, 1, 1)
    assert rho(1, MonomialParams(2, 2)).letters == (-3, 2, 4, 3)
    assert rho(0, MonomialParams(3, 2)).letters == (3, 2, 1, 1)
    with pytest.raises(BraidError):
        rho(2, MonomialParams(2, 2))


def test_strand_order():
    prm = MonomialParams(3, 2)
    assert strand_of_point(1, 1, prm) == 2
    assert strand_of_point(1, 3, prm) == 4
    assert strand_of_point(2, 1, prm) == 5
    assert orbit_strands(2, prm) == (5, 6, 7)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_rho_permutations(r, n):
    prm = MonomialParams(r, n)
    p0 = permutation(rho(0, prm))
    # r-cycle on the first orbit block {2..r+1}, fixing everything else
    for s in range(2, r + 1):
        assert p0[s - 1] == s + 1
    assert p0[r] == 2
    assert p0[0] == 1
    for s in range(r + 2, prm.strands + 1):
        assert p0[s - 1] == s
    for i in range(1, n):
        pi = permutation(rho(i, prm))
        left = orbit_strands(i, prm)
        right = orbit_strands(i + 1, prm)
        for a, b in zip(left, right):
            assert pi[a - 1] == b and pi[b - 1] == a
        assert pi[0] == 1


@pytest.mark.parametrize("r,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_pure_monomial_braids_are_pure(r, n):
    prm = MonomialParams(r, n)
    for j in range(1, n + 1):
        assert is_pure(Z(j, prm))
        assert is_pure(X(j, prm) ** r)
        assert is_pure(C(j, prm))
        assert is_pure(D(j, prm))
        for p in range(0, r + 1):
            assert is_pure(Q(j, p, prm))
        for i in range(1, j):
            for p in range(1, r + 1):
                assert is_pure(A(i, j, p, prm))


def test_z_and_a_base_cases():
    prm = MonomialParams(2, 2)
    assert Z(1, prm).letters == (rho(0, prm) ** 2).letters
    assert Abracket(1, 2, 2, prm).letters == ()
    assert Abracket(1, 2, 1, prm).letters == A(1, 2, 1, prm).letters
    assert C(1, prm).letters == ()
    assert Q(1, 1, prm).letters == ()
    assert D(1, prm).letters == (Z(1, prm) * C(1, prm)).letters
    prm3 = MonomialParams(3, 3)
    assert Abracket(1, 2, 1, prm3).letters == (
        A(1, 2, 1, prm3) * A(1, 2, 2, prm3)
    ).letters


def test_index_validation():
    prm = MonomialParams(2, 3)
    with pytest.raises(BraidError):
        A(2, 2, 1, prm)
    with pytest.raises(BraidError):
        A(1, 2, 3, prm)
    with pytest.raises(BraidError):
        Z(4, prm)
    with pytest.raises(BraidError):
        Q(2, 5, prm)


def test_r1_z_is_classical_twist():
    prm = MonomialParams(1, 3)
    assert linking_pairs(Z(1, prm)) == {(1, 2): 1}
    # A^{(1)}_{1,2} at r=1 twists the two orbit strands
    assert linking_pairs(A(1, 2, 1, prm)) == {(2, 3): 1}


def test_z2_linking_pattern_r2():
    prm = MonomialParams(2, 2)
    assert linking_pairs(Z(2, prm)) == {(1, 4): 1, (1, 5): 1, (4, 5): 1}
    assert linking_pairs(A(1, 2, 1, prm)) == {(2, 5): 1, (3, 4): 1}
    assert linking_pairs(A(1, 2, 2, prm)) == {(2, 4): 1, (3, 5): 1}


@pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_monomial_relations(r, n):
    rep = verify_monomial_relations(MonomialParams(r, n))
    assert rep.passed, rep.failures


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 3)])
def test_lemma_conj(r, n):
    rep = verify_lemma_conj(MonomialParams(r, n))
    assert rep.passed, rep.failures


def test_lemma_conj_extended_conjugator_is_bare_D_for_adjacent():
    prm = MonomialParams(3, 3)
    assert lemma_conj_D(2, 3, prm).letters == D(2, prm).letters
    assert lemma_conj_D(1, 3, prm).letters == (D(1, prm) * A(1, 2, 1, prm)).letters


def test_suites_normalise_each_letter_sequence_once(monkeypatch):
    # Every block is built once and keeps its form, a one-factor block is
    # its factor, and every trivial block (C_1, A^{[r]}, nu_1) is the one
    # shared empty word, so the (3,4) pair reads no letter sequence twice.
    for cached in (braid.empty_braid, *(f for f in vars(monomial).values()
                                        if hasattr(f, "cache_clear"))):
        cached.cache_clear()
    seen = Counter()

    def counting(n, letters):
        seen[n, letters] += 1
        return normal_form(n, letters)

    monkeypatch.setattr(braid, "normal_form", counting)
    prm = MonomialParams(3, 4)
    assert verify_presentation(prm).passed and verify_lemma_conj(prm).passed
    assert [key for key, count in seen.items() if count > 1] == []


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 3)])
def test_presentation_families(r, n):
    rep = verify_presentation(MonomialParams(r, n))
    assert rep.passed, rep.failures


def test_presentation_zaza_base_product_is_central_power():
    # Z_1 A^{(1)} .. A^{(r-1)} Z_2 A^{(r)} = (rho_0 rho_1)^{2r}
    for r in (1, 2, 3):
        prm = MonomialParams(r, 2)
        prod = Z(1, prm)
        for p in range(1, r):
            prod = prod * A(1, 2, p, prm)
        prod = prod * Z(2, prm) * A(1, 2, r, prm)
        power = (rho(0, prm) * rho(1, prm)) ** (2 * r)
        assert braid_equal(prod, power)


@pytest.mark.parametrize("r,n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_generators_free_factor(r, n):
    rep = verify_generators_free_factor(MonomialParams(r, n))
    assert rep.passed, rep.failures


def test_generators_free_factor_fails_a_generator_that_is_not_pure(monkeypatch):
    # purity is read from linking_pairs: a braid that is not pure gets a FAIL
    # line and no linking line, and its missing vector drops the rank
    prm = MonomialParams(2, 3)
    monkeypatch.setattr(monomial, "Z", lambda j, prm: braid.braid(prm.strands, (1,)))
    rep = verify_generators_free_factor(prm)
    checks = {c.name: c.ok for c in rep.checks}
    assert checks["Z[3] is pure"] is False
    assert "Z[3] linking pattern" not in checks
    assert checks["linking vectors independent (rank 5)"] is False
    assert all(ok for name, ok in checks.items() if name.startswith("A["))


@pytest.mark.parametrize("n", [2, 3])
def test_pbn_correspondence_r2(n):
    rep = verify_pbn_correspondence(n)
    assert rep.passed, rep.failures
    # the two conjugator cells without a literal reading are informational
    specials = [c for c in rep.checks if "no literal reading" in c.name]
    for c in specials:
        assert c.ok


@pytest.mark.parametrize("r,n", [(1, 4), (2, 4), (3, 3)])
def test_top_index_braids_satisfy_classical_relations(r, n):
    # the A^{(r)} family satisfies the classical pure braid relations verbatim
    prm = MonomialParams(r, n)
    a = {(i, j): A(i, j, r, prm).form for j in range(2, n + 1) for i in range(1, j)}
    for j in range(2, n + 1):
        for i in range(1, j):
            for l in range(j + 1, n + 1):
                for k in range(1, l):
                    conj = a[i, j]
                    lhs = product(prm.strands, [inverse(conj), a[k, l], conj])
                    if k == i or k == j:
                        c = [a[i, l], a[j, l]]
                    elif i < k < j:
                        c = [a[i, l], a[j, l], inverse(a[i, l]), inverse(a[j, l])]
                    else:
                        c = []
                    rhs = product(prm.strands, c + [a[k, l]] + [inverse(x) for x in reversed(c)])
                    assert lhs == rhs, (i, j, k, l)


@pytest.mark.parametrize("r,n", [(4, 3), (5, 2)])
def test_lemma_conj_higher_r(r, n):
    assert verify_lemma_conj(MonomialParams(r, n)).passed


@pytest.mark.parametrize("r,n", [(4, 3), (5, 2)])
def test_presentation_higher_r(r, n):
    assert verify_presentation(MonomialParams(r, n)).passed
