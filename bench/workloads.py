"""The three benchmark workloads: seeded inputs, cases and known answers.

Every known answer here comes from the paper's statements or from
closed forms computed in this file, never from braidforge itself:

* the monomial suites must report every check ok, with the check count the
  paper's relation families give;
* real-line monodromy blocks must equal the incidence of the lines at each
  intersection point, found with exact rationals here;
* ``present`` relations must peel to conjugates of their own target, and
  their number is sum_j (lower generators) * rank_j;
* Lie ranks must equal the Witt sums of the fiber exponents.

A case's ``run`` is timed; its ``score`` runs after the timed region and
returns (checks, wrong).  A case that raises counts all its checks wrong.
Answers that take work to find (the line incidences) are found in
``score``, so set-up holds only the import and the input generation.
"""
from __future__ import annotations

import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from braidforge import arrangements, cli, liealg, wiring

# Fixed (r, n) points of the gated cases; the frontier probe walks past them.
MONOMIAL_POINT = (3, 4)
# Instances of the paper's relation families at MONOMIAL_POINT; all hold.
SUITE_CHECKS = {"presentation": 164, "lemma-conj": 40}
PRESENT_POINT = (5, 5)
TYPEB_N = 6
PUREBRAID_N = 6
LIE_ELIMINATION = (3, 3, 4)  # r, n, degree
LIE_TOWER = (6, 6, 8)

# Random inputs of braid-images.  Many small instances keep the work per
# seed steady: Artin image length grows exponentially with the conjugator,
# so a few long braided diagrams would dominate the time of one seed.  With
# three events per diagram the image length per diagram has a standard
# deviation as large as its mean; two events halve the spread of a seed's
# total.
LINE_SETS = 30
DIAGRAMS = 240
DIAGRAM_EVENTS = 2
DIAGRAM_BRAID_LETTERS = 1


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    score: Callable[[object], tuple[int, int]]
    method: str = ""
    ambient: tuple[int, ...] = ()  # Lyndon dimension per degree, Lie cases only


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    rc = cli.run(argv, out)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# closed forms


def _mobius(m: int) -> int:
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


def witt(d: int, k: int) -> int:
    return sum(_mobius(m) * d ** (k // m) for m in range(1, k + 1) if k % m == 0) // k


def monomial_exponents(r: int, n: int) -> list[int]:
    return [r * (j - 1) + 1 for j in range(1, n + 1)]


def present_relation_count(r: int, n: int) -> int:
    ranks = monomial_exponents(r, n)
    return sum(sum(ranks[:j]) * ranks[j] for j in range(n))


def purebraid_check_count(n: int) -> int:
    braid_rels = (n - 2) + sum(1 for i in range(1, n) for j in range(i + 2, n))
    pure_rels = sum(l - 1 for l in range(3, n + 1) for j in range(2, l) for i in range(1, j))
    return braid_rels + pure_rels


# ---------------------------------------------------------------------------
# scoring


def suite_tally(text: str) -> tuple[int, list[str]]:
    """The number of ``ok`` lines and the ``FAIL`` lines of a suite's report."""
    ok, failed = 0, []
    for line in text.splitlines():
        if " checks passed" in line:
            break
        if line.startswith("ok\t"):
            ok += 1
        elif line.startswith("FAIL\t"):
            failed.append(line)
    return ok, failed


def _suite_score(expected: int) -> Callable[[object], tuple[int, int]]:
    """All checks ok, exactly `expected` of them, exit status 0."""

    def score(raw) -> tuple[int, int]:
        if isinstance(raw, BaseException):
            return expected, expected
        rc, text = raw
        ok, failed = suite_tally(text)
        fail = len(failed)
        wrong = fail + abs(expected - ok - fail)
        if rc != 0 and wrong == 0:
            wrong = 1  # exit status disagrees with an all-ok report
        checks = max(expected, ok + fail)
        return checks, min(wrong, checks)

    return score


def _inverse_token(tok: str) -> str:
    return tok[:-3] if tok.endswith("^-1") else tok + "^-1"


def _present_score(r: int, n: int):
    expected = present_relation_count(r, n)

    def score(raw) -> tuple[int, int]:
        if isinstance(raw, BaseException):
            return expected + 1, expected + 1
        rc, text = raw
        rels = [line for line in text.splitlines() if line and not line.startswith("#")]
        wrong = int(rc != 0 or len(rels) != expected)
        for line in rels:
            lhs, _, rhs = line.partition(" = ")
            parts = lhs.split(" ")
            toks = rhs.split()
            ok = len(parts) == 3 and parts[0] == parts[2] + "^-1" and len(toks) % 2 == 1
            if ok:
                half = len(toks) // 2
                ok = toks[half] == parts[1] and all(
                    toks[k] == _inverse_token(toks[-1 - k]) for k in range(half)
                )
            wrong += not ok
        return max(expected, len(rels)) + 1, wrong

    return score


def _reports_score(expected_of: Callable[[int], list]):
    """Raw is a list of units; each unit is an exception or a list of
    (report, observed) pairs, one per event.  ``expected_of(k)`` is unit k's
    known answer, one entry per event to compare with ``observed``; it is
    computed here, after the timed region."""

    def score(raw) -> tuple[int, int]:
        checks = wrong = 0
        for k, unit in enumerate(raw):
            expected = None if isinstance(unit, BaseException) else expected_of(k)
            if expected is None or len(unit) != len(expected):
                checks += 1  # a crash, or not one generator per event
                wrong += 1
                continue
            for (report, observed), want in zip(unit, expected):
                checks += len(report.checks) + 1
                wrong += sum(1 for c in report.checks if not c.ok) + (observed != want)
        return checks, wrong

    return score


def _ranks_score(expected: list[int]):
    def score(raw) -> tuple[int, int]:
        if isinstance(raw, BaseException):
            return len(expected), len(expected)
        got = list(raw)
        wrong = sum(1 for k, e in enumerate(expected) if k >= len(got) or got[k] != e)
        return len(expected), wrong + max(0, len(got) - len(expected))

    return score


def _guard(fn: Callable[[], object]) -> Callable[[], object]:
    def run():
        try:
            return fn()
        except Exception as exc:  # a crash is a wrong verdict, not a benchmark error
            return exc
    return run


# ---------------------------------------------------------------------------
# monomial-verify


def monomial_verify(seed: int, root: Path) -> list[Case]:
    """The two monomial suites at (3, 4) through the command line."""
    r, n = MONOMIAL_POINT
    cases = []
    for suite, count in SUITE_CHECKS.items():
        argv = ["monomial", "--r", str(r), "--n", str(n), "--verify", suite]
        cases.append(Case(f"{suite}({r},{n})", _guard(lambda a=argv: run_cli(a)),
                          _suite_score(count)))
    return cases


# ---------------------------------------------------------------------------
# braid-images


def random_line_set(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Distinct integer (slope, intercept) pairs, most through a few shared points."""
    hubs = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3)]
    out: set[tuple[int, int]] = set()
    while len(out) < size or len({s for s, _ in out}) < 2:
        s = rng.randint(-4, 4)
        if rng.random() < 0.75:
            x, y = rng.choice(hubs)
            out.add((s, y - s * x))
        else:
            out.add((s, rng.randint(-12, 12)))
    return sorted(out)


def incidence_blocks(pairs: list[tuple[int, int]]) -> list[tuple[tuple[int, ...], ...]]:
    """Per intersection abscissa, right to left: lines meeting at each point.

    Lines are labelled 1..n by height right of every intersection, and each
    event lists the label sets of its points, singletons included.
    """
    lines = [(Fraction(s), Fraction(b)) for s, b in pairs]
    xs = sorted({(b2 - b1) / (s1 - s2)
                 for i, (s1, b1) in enumerate(lines) for s2, b2 in lines[i + 1:]
                 if s1 != s2}, reverse=True)
    x0 = xs[0] + 1
    order = sorted(range(len(lines)), key=lambda i: lines[i][0] * x0 + lines[i][1])
    label = {i: pos + 1 for pos, i in enumerate(order)}
    events = []
    for x in xs:
        points: dict[Fraction, list[int]] = {}
        for i, (s, b) in enumerate(lines):
            points.setdefault(s * x + b, []).append(label[i])
        events.append(tuple(sorted(tuple(sorted(v)) for v in points.values())))
    return events


def lines_text(pairs: list[tuple[int, int]]) -> str:
    return "".join(f"{s} {b}\n" for s, b in pairs)


def random_wiring_text(rng: random.Random, n: int) -> str:
    """A braided wiring diagram in the .wd format, every event with a multiple point."""
    rows = [f"n {n}"]
    for _ in range(DIAGRAM_EVENTS):
        while True:
            sizes, left = [], n
            while left:
                sizes.append(min(left, rng.choice((1, 1, 2, 2, 3))))
                left -= sizes[-1]
            if max(sizes) > 1:
                break
        blocks, start = [], 1
        for size in sizes:
            blocks.append(" ".join(str(start + k) for k in range(size)))
            start += size
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                   for _ in range(DIAGRAM_BRAID_LETTERS)]
        rows.append("I: " + " | ".join(blocks))
        rows.append("B: " + " ".join(map(str, letters)))
    return "\n".join(rows) + "\n"


def _block_sizes_of_text(text: str) -> list[list[int]]:
    return [sorted(len(b.split()) for b in line[2:].split("|"))
            for line in text.splitlines() if line.startswith("I:")]


def _lines_unit(text: str) -> list:
    lines = [wiring.real_line(*row.split()) for row in text.splitlines()]
    W = wiring.wiring_from_real_lines(lines)
    return [(wiring.verify_twist_shape(g, W.n), tuple(g.blocks))
            for g in wiring.braid_monodromy(W)]


def _diagram_unit(text: str) -> list:
    W = wiring.parse_wiring(text)
    return [(wiring.verify_twist_shape(g, W.n), sorted(map(len, g.blocks)))
            for g in wiring.braid_monodromy(W)]


def _units(items, unit_fn) -> Callable[[], list]:
    def run() -> list:
        out = []
        for item in items:
            try:
                out.append(unit_fn(*item))
            except Exception as exc:  # counted as one wrong verdict
                out.append(exc)
        return out
    return run


def braid_images(seed: int, root: Path) -> list[Case]:
    """Seeded line sets and braided diagrams, plus the fixed Artin-image suites."""
    rng = random.Random(seed)
    line_pairs = [random_line_set(rng, 6 + k % 3) for k in range(LINE_SETS)]
    line_sets = [(lines_text(pairs),) for pairs in line_pairs]
    diagrams = [(random_wiring_text(rng, 5 + k % 4),) for k in range(DIAGRAMS)]
    wd = root / "data" / "b2.wd"
    golden = (root / "tests" / "golden_b2_monodromy.txt").read_bytes()
    r, n = PRESENT_POINT

    def golden_score(raw) -> tuple[int, int]:
        if isinstance(raw, BaseException):
            return 1, 1
        rc, text = raw
        return 1, int(rc != 0 or text.encode("utf-8") != golden)

    typeb = ["typeb", "--n", str(TYPEB_N), "--verify"]
    pure = ["verify", "purebraid", "--n", str(PUREBRAID_N)]
    present = ["present", "monomial", "--r", str(r), "--n", str(n)]
    mono = ["monodromy", str(wd)]
    return [
        Case("lines", _units(line_sets, _lines_unit),
             _reports_score(lambda k: incidence_blocks(line_pairs[k]))),
        Case("diagrams", _units(diagrams, _diagram_unit),
             _reports_score(lambda k: _block_sizes_of_text(diagrams[k][0]))),
        Case(f"typeb({TYPEB_N})", _guard(lambda: run_cli(typeb)),
             _suite_score(TYPEB_N * TYPEB_N)),
        Case(f"purebraid({PUREBRAID_N})", _guard(lambda: run_cli(pure)),
             _suite_score(purebraid_check_count(PUREBRAID_N))),
        Case(f"present({r},{n})", _guard(lambda: run_cli(present)), _present_score(r, n)),
        Case("monodromy(b2)", _guard(lambda: run_cli(mono)), golden_score),
    ]


# ---------------------------------------------------------------------------
# lie-ranks


def lie_case(r: int, n: int, degree: int, method: str) -> Case:
    exps = monomial_exponents(r, n)
    expected = [sum(witt(e, k) for e in exps) for k in range(1, degree + 1)]
    ambient = tuple(witt(sum(exps), k) for k in range(1, degree + 1))
    limit = max(ambient)

    def run():
        pres = liealg.holonomy_relations_from_flats(
            arrangements.monomial_flats(r, n), arrangements.monomial_hyperplanes(r, n)
        )
        if method == "elimination":
            return liealg.graded_ranks(pres, degree, method=method, elimination_limit=limit)
        return liealg.graded_ranks(pres, degree, method=method)

    return Case(f"lie-{method}({r},{n};{degree})", _guard(run), _ranks_score(expected), method,
                ambient)


LIE_CACHES = ("lyndon_words", "_lyndon_poly", "_bracket_pair", "standard_factorization")


def lie_ranks(seed: int, root: Path) -> list[Case]:
    """Exact elimination at (3,3) degree 4 and the certified tower at (6,6) degree 8."""
    for name in LIE_CACHES:
        cache = getattr(liealg, name, None)
        if cache is not None and cache.cache_info().currsize != 0:
            raise RuntimeError(f"liealg.{name} is warm before the first case")
    return [lie_case(*LIE_ELIMINATION, "elimination"), lie_case(*LIE_TOWER, "tower")]


WORKLOADS = {
    "monomial-verify": monomial_verify,
    "braid-images": braid_images,
    "lie-ranks": lie_ranks,
}
