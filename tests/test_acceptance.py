"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is an exact symbolic identity or an exact integer equality;
there are no numerical tolerances anywhere.  Each criterion carries a
wall-clock budget which is asserted.
"""
import random
import time

from braidforge import arrangements as arr
from braidforge import garside, liealg
from braidforge import monomial as mono
from braidforge.braid import (
    artin,
    braid,
    braid_equal,
    empty_braid,
    full_twist,
    permutation,
    pure_gen,
    verify_braid_relations,
    verify_pure_braid_relations,
)
from braidforge.freegroup import apply, commutator, compose, invert, multiply, word
from braidforge.garside import inverse
from braidforge.wiring import WiringDiagram, braid_monodromy, partition


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.name}]: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def b2_diagram():
    I13 = partition(5, [(1,), (2, 3, 4), (5,)])
    I24 = partition(5, [(1, 2), (3,), (4, 5)])
    return WiringDiagram(
        5, tuple((I, empty_braid(5)) for I in (I13, I24, I13, I24))
    )


B2_W_TABLE = {
    (1, 1): (), (1, 5): (),
    (1, 2): (2, 3, 4), (1, 3): (2, 3, 4), (1, 4): (2, 3, 4),
    (2, 1): (1, 2, 3, 4, -3, -2),
    (2, 2): (2, 5), (2, 5): (2, 5),
    (2, 3): "comm[t2,t5]",
    (2, 4): "comm[t2,t5] -3 -2 1 2 3",
    (3, 1): (1, 2, 3, 5, -2),
    (3, 2): (),
    (3, 3): (-2, 1, 2, 3, 5), (3, 5): (-2, 1, 2, 3, 5),
    (3, 4): "comm[-2 1 2 3,t5]",
    (4, 1): (1, 2), (4, 2): (1, 2),
    (4, 3): (),
    (4, 4): (4, 5), (4, 5): (4, 5),
}


def _table_word(entry):
    t = lambda *xs: word(5, xs)
    if entry == "comm[t2,t5]":
        return commutator(t(2), t(5))
    if entry == "comm[t2,t5] -3 -2 1 2 3":
        return multiply(commutator(t(2), t(5)), t(-3, -2, 1, 2, 3))
    if entry == "comm[-2 1 2 3,t5]":
        return commutator(t(-2, 1, 2, 3), t(5))
    return t(*entry)


def test_criterion_1_example_b2_golden():
    with _Budget(1, "type-B n=2 wiring goldens", 1.0):
        gens = braid_monodromy(b2_diagram())
        assert gens[0].conjugator.letters == ()
        assert gens[1].conjugator.letters == (2, 3, 2)
        assert gens[2].conjugator.letters == (1, 4, 2, 3, 2)
        assert gens[3].conjugator.letters == (2, 3, 2, 1, 4, 2, 3, 2)

        A = lambda i, j: pure_gen(i, j, 5)
        expected_words = [
            full_twist({2, 3, 4}, 5),
            A(1, 2) * A(1, 3) * A(1, 4) * ~A(1, 3) * ~A(1, 2) * A(2, 5),
            A(1, 2) * full_twist({1, 3, 5}, 5) * ~A(1, 2),
            A(1, 2) * A(4, 5),
        ]
        for g, want in zip(gens, expected_words):
            assert braid_equal(g.braid, want)

        endos = [artin(g.braid) for g in gens]
        assert len(B2_W_TABLE) == 20
        for (i, j), entry in B2_W_TABLE.items():
            w = _table_word(entry)
            lhs = multiply(multiply(w, word(5, [j])), invert(w))
            assert endos[i - 1].images[j - 1] == lhs, (i, j)


def test_criterion_2_typeb_closed_form_cross_check():
    with _Budget(2, "type-B closed form vs wiring, n=2,3,4", 30.0):
        for n in (2, 3, 4):
            rep = arr.typeb_wiring_cross_check(n)
            assert rep.passed, rep.failures


def test_criterion_3_braid_and_pure_braid_relations():
    with _Budget(3, "braid and pure braid relation suites, n<=5", 10.0):
        for n in range(2, 6):
            assert verify_braid_relations(n).passed
            assert verify_pure_braid_relations(n).passed


def test_criterion_4_monomial_braid_relations():
    with _Budget(4, "monomial braid relations, r<=3, n<=4", 10.0):
        for r in (1, 2, 3):
            for n in (2, 3, 4):
                rep = mono.verify_monomial_relations(mono.MonomialParams(r, n))
                assert rep.passed, rep.failures


def test_criterion_5_lemma_conj():
    with _Budget(5, "conjugation lemma case table, r in {2,3}, n in {3,4}", 30.0):
        for r in (2, 3):
            for n in (3, 4):
                rep = mono.verify_lemma_conj(mono.MonomialParams(r, n))
                assert rep.passed, rep.failures


def test_criterion_6_presentation_families():
    with _Budget(6, "pure monomial presentation families, r<=3, n=4", 300.0):
        for r in (1, 2, 3):
            rep = mono.verify_presentation(mono.MonomialParams(r, 4))
            assert rep.passed, rep.failures
        # r=1 degeneration: the braids satisfy the classical pure braid
        # relation instances verbatim
        prm = mono.MonomialParams(1, 4)
        a = {(i, j): mono.A(i, j, 1, prm).form for j in range(2, 5) for i in range(1, j)}
        for j in range(2, 5):
            for i in range(1, j):
                for l in range(j + 1, 5):
                    for k in range(1, l):
                        conj = a[i, j]
                        lhs = garside.product(prm.strands, [inverse(conj), a[k, l], conj])
                        if k == i or k == j:
                            c = [a[i, l], a[j, l]]
                        elif i < k < j:
                            c = [a[i, l], a[j, l], inverse(a[i, l]), inverse(a[j, l])]
                        else:
                            c = []
                        rhs = garside.product(
                            prm.strands, c + [a[k, l]] + [inverse(x) for x in reversed(c)]
                        )
                        assert lhs == rhs, (i, j, k, l)


def test_criterion_7_free_factor_generators():
    with _Budget(7, "free-factor generators: purity, linking, independence", 10.0):
        for r in (1, 2, 3):
            for n in (2, 3, 4):
                rep = mono.verify_generators_free_factor(mono.MonomialParams(r, n))
                assert rep.passed, rep.failures


def test_criterion_8_lie_rank_equalities():
    with _Budget(8, "holonomy Lie ranks equal Witt sums, r<=3, n<=3, k<=5", 60.0):
        for r in (1, 2, 3):
            for n in (2, 3):
                pres = liealg.holonomy_relations_from_flats(
                    arr.monomial_flats(r, n), arr.monomial_hyperplanes(r, n)
                )
                exps = arr.exponents(r, n)
                expect = [
                    sum(liealg.witt_rank(d, k) for d in exps) for k in range(1, 6)
                ]
                assert liealg.graded_ranks(pres, 5) == expect, (r, n)
        # the (2,2) instance through the literal elimination oracle
        pres22 = liealg.holonomy_relations_from_flats(
            arr.monomial_flats(2, 2), arr.monomial_hyperplanes(2, 2)
        )
        assert liealg.graded_ranks(pres22, 5, method="elimination") == [4, 3, 8, 18, 48]


def test_criterion_9_r2_correspondence_table():
    with _Budget(9, "type-B action table under a=A(2), b=A(1), c=Z, n=2,3", 60.0):
        for n in (2, 3):
            rep = arr.verify_pbn_correspondence(n)
            assert rep.passed, rep.failures
            # the only non-checked cells are the two flagged conjugators,
            # reported informationally
            specials = [c for c in rep.checks if "no literal reading" in c.name]
            for c in specials:
                assert ("a[" in c.name and "b[" in c.name) or (
                    "c[" in c.name and "b[" in c.name
                )
            # fiber-word verification attaches the computed right-hand side
            table = arr.verify_pbn_table(n)
            assert table.passed, table.failures
            info = [c for c in table.checks if "no literal reading" in c.name]
            assert all("computed:" in c.detail for c in info)
            assert len(info) == len(specials)


def test_criterion_10_property_suites():
    with _Budget(10, "property suites, >= 10^4 random cases", 60.0):
        rng = random.Random(20260810)
        failures = 0
        cases = 0

        def rand_braid(n, max_len=20):
            gens = [s for s in range(-(n - 1), n) if s != 0]
            return braid(
                n, [rng.choice(gens) for _ in range(rng.randint(0, max_len))]
            )

        # Artin homomorphism law
        for _ in range(3000):
            n = rng.randint(2, 6)
            a, b = rand_braid(n, 10), rand_braid(n, 10)
            cases += 1
            if artin(a * b) != compose(artin(a), artin(b)):
                failures += 1
        # fixed product t_1 .. t_n
        for _ in range(3000):
            n = rng.randint(2, 6)
            b = rand_braid(n)
            prod = word(n, list(range(1, n + 1)))
            cases += 1
            if apply(artin(b), prod) != prod:
                failures += 1
        # image of t_j is a conjugate of t_{perm(j)}
        for _ in range(2500):
            n = rng.randint(2, 6)
            b = rand_braid(n)
            e, perm = artin(b), permutation(b)
            cases += 1
            ok = True
            for j in range(1, n + 1):
                core = list(e.images[j - 1].letters)
                while len(core) > 1 and core[0] == -core[-1]:
                    core = core[1:-1]
                ok = ok and core == [perm[j - 1]]
            if not ok:
                failures += 1
        # braid_equal invariant under relator insertion
        for _ in range(1600):
            n = rng.randint(3, 6)
            b = rand_braid(n, 12)
            i = rng.randint(1, n - 2)
            relator = (i, i + 1, i, -(i + 1), -i, -(i + 1))
            pos = rng.randint(0, len(b.letters))
            modified = braid(
                n, b.letters[:pos] + relator + b.letters[pos:]
            )
            cases += 1
            if not braid_equal(b, modified):
                failures += 1
        for _ in range(400):
            n = rng.randint(2, 6)
            b = rand_braid(n, 12)
            pos = rng.randint(0, len(b.letters))
            i = rng.randint(1, n - 1)
            modified = braid(n, b.letters[:pos] + (i, -i) + b.letters[pos:])
            cases += 1
            if not braid_equal(b, modified):
                failures += 1

        assert cases >= 10**4
        assert failures == 0
