import dataclasses
import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from braidforge import arrangements, garside
from braidforge.cli import run
from braidforge.liealg import witt_rank

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def run_cli(*argv):
    buf = io.StringIO()
    code = run(list(argv), buf)
    return code, buf.getvalue()


def test_monodromy_b2_file():
    code, out = run_cli("monodromy", os.path.join(DATA, "b2.wd"))
    assert code == 0
    assert "gamma: 2 3 2 2 3 2" in out
    assert "V: 1 4 | 2 5 | 3" in out
    assert out.count("generator") == 4


def test_lines_matches_wiring_file(tmp_path):
    code1, out1 = run_cli("monodromy", os.path.join(DATA, "b2.wd"))
    code2, out2 = run_cli("lines", os.path.join(DATA, "b2.lines"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_lines_file_errors(tmp_path):
    bad = tmp_path / "bad.lines"
    bad.write_text("1 0\n1 0\n")
    code, out = run_cli("lines", str(bad))
    assert code == 2
    assert "error" in out
    code, out = run_cli("lines", str(tmp_path / "missing.lines"))
    assert code == 2
    for text, message in (
        ("1 2 3\n", "line 1: expected 'slope intercept'"),
        ("1 x\n", "line 1: bad rational (Invalid literal for Fraction: 'x')"),
    ):
        bad.write_text(text)
        assert run_cli("lines", str(bad)) == (2, f"error: {message}\n")


def test_typeb_verify():
    code, out = run_cli("typeb", "--n", "2", "--verify")
    assert code == 0
    assert "4/4 checks passed" in out
    assert "chi(c[1])" in out


def test_monomial_suites():
    code, out = run_cli("monomial", "--r", "2", "--n", "2", "--verify", "relations")
    assert code == 0
    code, out = run_cli("monomial", "--r", "1", "--n", "3", "--verify", "lemma-conj")
    assert code == 0
    code, out = run_cli("monomial", "--r", "2", "--n", "2", "--verify", "generators")
    assert code == 0
    code, out = run_cli("monomial", "--r", "1", "--n", "2", "--verify", "presentation")
    assert code == 0


def test_jobs_option_is_rejected():
    code, _ = run_cli(
        "monomial", "--r", "2", "--n", "3", "--verify", "relations", "--jobs", "2"
    )
    assert code == 2
    code, _ = run_cli("verify", "purebraid", "--n", "3", "--jobs", "2")
    assert code == 2


def test_equality_builds_no_artin_images(monkeypatch):
    # Every binding of artin raises, so these suites pass only if each
    # equality is decided by normal form.
    from braidforge import arrangements, braid, wiring

    def no_artin(b):
        raise AssertionError("an equality check built an Artin image")

    for module in (braid, arrangements, wiring):
        monkeypatch.setattr(module, "artin", no_artin)
    for suite, count in (("presentation", 164), ("lemma-conj", 40), ("relations", 6)):
        code, out = run_cli("monomial", "--r", "3", "--n", "4", "--verify", suite)
        assert code == 0, out
        assert f"{count}/{count} checks passed" in out
    code, out = run_cli("typeb", "--n", "4", "--verify")
    assert code == 0 and "16/16 checks passed" in out
    code, out = run_cli("verify", "purebraid", "--n", "5")
    assert code == 0, out
    with pytest.raises(AssertionError):
        arrangements.verify_pbn_table(2)


def test_suites_reach_the_left_weighting_memo():
    # a rebinding of garside._left_weight that bypasses the memo reads no hits
    garside._left_weight.cache_clear()
    code, out = run_cli("monomial", "--r", "3", "--n", "4", "--verify", "presentation")
    assert code == 0, out
    assert sum(line.startswith("ok\t") for line in out.splitlines()) == 164
    info = garside._left_weight.cache_info()
    assert info.hits > 0 and info.currsize <= info.maxsize


def test_presentation_past_the_verified_range_reports_every_check():
    # (4,4) lies past the range where the presentation families are known to
    # hold; the suite must still decide every instance, with FAIL lines and
    # exit 1 where a family fails, and never stop on an error.
    code, out = run_cli("monomial", "--r", "4", "--n", "4", "--verify", "presentation")
    assert code in (0, 1)
    assert "error:" not in out
    lines = out.splitlines()
    summary = next(line for line in lines if " checks passed" in line)
    total = int(summary.rsplit("/", 1)[1].split()[0])
    checks = lines[: lines.index(summary)]
    assert len(checks) == total
    assert all(line.startswith(("ok\t", "FAIL\t")) for line in checks)
    assert (code == 0) == all(line.startswith("ok\t") for line in checks)
    # the one family still failing here is the Z family [Zj,Q.A..Q,Zl,...]
    failed = [line.split("\t", 1)[1] for line in checks if line.startswith("FAIL\t")]
    assert all(name.startswith("[Z") and ",Q.A..Q,Z" in name for name in failed), failed


def test_presentation_triple_families_hold_at_2_5():
    # n = 5 is the first n where a bracket chain has two factors (j - i >= 3),
    # so only there does the order of its A^{[1]}_{m,k} factors matter
    code, out = run_cli("monomial", "--r", "2", "--n", "5", "--verify", "presentation")
    assert code == 0, out
    assert "239/239 checks passed" in out
    assert "FAIL" not in out


def test_present_commands():
    code, out = run_cli("present", "typeb", "--n", "2")
    assert code == 0
    assert "c[1]^-1 c[2] c[1] =" in out
    code, out = run_cli("present", "monomial", "--r", "2", "--n", "2")
    assert code == 0
    assert "Z[1]^-1 Z[2] Z[1] =" in out


def test_lie_exponents():
    code, out = run_cli("lie", "--exponents", "1,3", "--max-degree", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["degree", "rank", "expected", "match"]
    assert lines[1].split() == ["1", "4", "4", "-"]
    assert lines[3].split() == ["3", "8", "8", "-"]


def test_lie_monomial_tsv():
    code, out = run_cli(
        "lie", "--monomial", "2,2", "--max-degree", "5", "--format", "tsv"
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[1:] == [
        ["1", "4", "4", "yes"],
        ["2", "3", "3", "yes"],
        ["3", "8", "8", "yes"],
        ["4", "18", "18", "yes"],
        ["5", "48", "48", "yes"],
    ]


def test_lie_monomial_at_the_guard():
    # (6,6) is the CLI guard; degree 8 is far past elimination, so the
    # ranks come from the certified tower path
    code, out = run_cli("lie", "--monomial", "6,6", "--max-degree", "8")
    assert code == 0
    exps = [6 * (j - 1) + 1 for j in range(1, 7)]
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [int(row[1]) for row in rows] == [
        sum(witt_rank(d, k) for d in exps) for k in range(1, 9)
    ]


@pytest.mark.parametrize("r", [1, 6])
def test_lie_monomial_with_one_coordinate(r):
    # n = 1 passes the guard as it does for present and monomial: the one
    # hyperplane H_1 spans a free Lie algebra of rank 1
    code, out = run_cli("lie", "--monomial", f"{r},1", "--max-degree", "8")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert rows == [[str(k), str(int(k == 1)), str(int(k == 1)), "yes"] for k in range(1, 9)]


def test_format_is_an_option_of_lie_alone():
    # only the lie rank table has a tsv form; other commands reject the flag
    code, _ = run_cli("monodromy", os.path.join(DATA, "b2.wd"), "--format", "tsv")
    assert code == 2


def test_lie_monomial_and_flats_are_exclusive(tmp_path):
    # the two presentation sources cannot be combined; argparse exits 2
    flats = tmp_path / "pair.flats"
    flats.write_text("a b\n")
    code, out = run_cli(
        "lie", "--monomial", "2,2", "--flats", str(flats), "--max-degree", "2"
    )
    assert code == 2
    assert out == ""


def test_lie_flats_file(tmp_path):
    flats = tmp_path / "triple.flats"
    flats.write_text("gens: a b c\nflat: a b c\n")
    code, out = run_cli(
        "lie", "--flats", str(flats), "--exponents", "1,2", "--max-degree", "3"
    )
    assert code == 0
    assert out.splitlines()[1].split() == ["1", "3", "3", "yes"]
    # without exponents there is nothing to compare against
    code, out = run_cli("lie", "--flats", str(flats), "--max-degree", "3")
    assert code == 0
    assert [line.split() for line in out.splitlines()[1:]] == [
        ["1", "3", "-", "-"], ["2", "1", "-", "-"], ["3", "2", "-", "-"],
    ]


@pytest.mark.parametrize(
    "text,message",
    [
        ("gens: a a b\nflat: a b\n", "duplicate hyperplane labels"),
        ("gens: a b\nflat: a c\n", "flat member 'c' is not a known label"),
        ("flat: a\n", "line 1: a flat needs at least two members"),
        ("flat: a a b\n", "flat member 'a' is repeated"),
        ("gens: a b c\nflat: a b\nflat: a b c\n", "pair 'a', 'b' lies in two flats"),
        ("# comments only\n\n", "flats file names no generator"),
        ("gens: a b\ngens: a b c\nflat: a b\n", "line 2: second 'gens:' header"),
        ("gens:\nflat: a b\n", "line 1: empty 'gens:' header"),
    ],
    ids=["duplicate-gens", "unknown-member", "one-member", "repeated-member", "pair-in-two-flats",
         "no-generator", "second-gens-header", "empty-gens-header"],
)
def test_lie_flats_file_errors(tmp_path, text, message):
    flats = tmp_path / "bad.flats"
    flats.write_text(text)
    code, out = run_cli("lie", "--flats", str(flats), "--max-degree", "3")
    assert code == 2
    assert out == f"error: {message}\n"


def _p5_flats(with_pairs: bool) -> str:
    """The rank-2 flats of the braid arrangement P_5, hyperplanes ``ij`` = {x_i = x_j}."""
    names = [f"{i}{j}" for i, j in combinations(range(1, 6), 2)]
    flats = [f"{i}{j} {i}{k} {j}{k}" for i, j, k in combinations(range(1, 6), 3)]
    if with_pairs:
        flats += [f"{a} {b}" for a, b in combinations(names, 2) if not set(a) & set(b)]
    return "gens: " + " ".join(names) + "\n" + "".join(f"flat: {f}\n" for f in flats)


def test_lie_flats_needs_every_pair_flat(tmp_path):
    # a pair of hyperplanes in no listed flat is read as not commuting, so a
    # flats file without P_5's 15 pair flats presents another Lie algebra
    flats = tmp_path / "p5.flats"
    flats.write_text(_p5_flats(with_pairs=True))
    assert flats.read_text().count("flat:") == 25
    code, out = run_cli("lie", "--flats", str(flats), "--exponents", "1,2,3,4",
                        "--max-degree", "2")
    assert code == 0
    assert out.splitlines()[2].split() == ["2", "10", "10", "yes"]
    flats.write_text(_p5_flats(with_pairs=False))
    assert flats.read_text().count("flat:") == 10
    code, out = run_cli("lie", "--flats", str(flats), "--max-degree", "2")
    assert code == 0
    assert out.splitlines()[2].split() == ["2", "25", "-", "-"]
    code, out = run_cli("lie", "--flats", str(flats), "--exponents", "1,2,3,4",
                        "--max-degree", "2")
    assert code == 1
    assert "FAIL\tlie\tdegree 2" in out


def test_lie_mismatch_exit_code(tmp_path):
    flats = tmp_path / "pair.flats"
    flats.write_text("a b\n")
    code, out = run_cli(
        "lie", "--flats", str(flats), "--exponents", "2", "--max-degree", "2"
    )
    assert code == 1
    assert "FAIL\tlie\tdegree" in out


@pytest.mark.parametrize(
    "option,value,form",
    [
        ("--monomial", "3", "r,n"),
        ("--monomial", "3,x", "r,n"),
        ("--monomial", "1,2,3", "r,n"),
        ("--exponents", "1,x", "d1,d2,..."),
        ("--exponents", ",", "d1,d2,..."),
        ("--exponents", "", "d1,d2,..."),
        ("--exponents", "0,2", "d1,d2,..."),
    ],
)
def test_lie_malformed_lists(option, value, form):
    code, out = run_cli("lie", option, value, "--max-degree", "2")
    assert code == 2
    assert out.startswith(f"error: {option} expects {form}")
    assert out.count("\n") == 1


def test_python_dash_m_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "braidforge", "verify", "purebraid", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


def test_closed_pipe_ends_without_traceback():
    # The reader takes one line and closes the pipe (``... | head -1``), even
    # with PYTHONUNBUFFERED set.  typeb writes in several calls; present
    # writes about 150 kB, one line per call, more than the pipe holds, so
    # the rest meets the closed pipe and the run must report it by exit
    # status 1.
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv, first, codes in (
        (["typeb", "--n", "6", "--verify"], b"chi(", (0, 1)),
        (["present", "monomial", "--r", "4", "--n", "4"], b"# generators", (1,)),
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "braidforge", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(first)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) in codes
        assert err == ""


def test_verify_purebraid():
    code, out = run_cli("verify", "purebraid", "--n", "3")
    assert code == 0
    assert "checks passed" in out
    # argparse rejects every other target before a command runs
    code, out = run_cli("verify", "braid", "--n", "3")
    assert code == 2 and out == ""


def test_guards():
    code, out = run_cli("typeb", "--n", "9", "--verify")
    assert code == 2 and "exceeds the supported bound" in out
    code, out = run_cli("monomial", "--r", "7", "--n", "2", "--verify", "relations")
    assert code == 2
    code, out = run_cli("lie", "--exponents", "1", "--max-degree", "9")
    assert code == 2


def test_missing_mode_error():
    code, out = run_cli("lie", "--max-degree", "3")
    assert code == 2
    assert "one of" in out


def test_deterministic_output():
    runs = [run_cli("typeb", "--n", "3", "--verify") for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli("lie", "--monomial", "3,2", "--max-degree", "4") for _ in range(2)]
    assert runs[0] == runs[1]


def _golden(name):
    with open(os.path.join(os.path.dirname(__file__), name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_monodromy_golden_file():
    code, out = run_cli("monodromy", os.path.join(DATA, "b2.wd"))
    assert code == 0
    assert out == _golden("golden_b2_monodromy.txt")


@pytest.mark.parametrize(
    "argv,golden",
    [
        pytest.param("monomial --r 3 --n 4 --verify presentation",
                     "golden_monomial_r3_n4_presentation.txt", id="presentation"),
        pytest.param("monomial --r 3 --n 4 --verify lemma-conj",
                     "golden_monomial_r3_n4_lemma_conj.txt", id="lemma-conj"),
        pytest.param("monomial --r 3 --n 5 --verify relations",
                     "golden_monomial_r3_n5_relations.txt", id="relations"),
        pytest.param("typeb --n 4 --verify", "golden_typeb_n4_verify.txt", id="typeb"),
        pytest.param("verify purebraid --n 5", "golden_purebraid_n5.txt", id="purebraid"),
        pytest.param("present typeb --n 3", "golden_present_typeb_n3.txt", id="present-typeb"),
        pytest.param("present monomial --r 2 --n 3",
                     "golden_present_monomial_r2_n3.txt", id="present-monomial"),
        pytest.param("present monomial --r 3 --n 3",
                     "golden_present_monomial_r3_n3.txt", id="present-monomial-r3"),
    ],
)
def test_monomial_suite_golden_file(argv, golden):
    # pins every check name, its order and its verdict of each braid-equality
    # suite, and every generator and relation `present` prints
    code, out = run_cli(*argv.split())
    assert code == 0
    assert out == _golden(golden)


# sha256 prefix of the stdout of `present`, recorded before the tower levels
# held symbols in place of generator names; monomial (5,5) and (6,6) and
# type B n = 6 recorded before the Artin images were built as bytes
PRESENT_DIGESTS = {
    ("monomial", 1, 1): "4265e7163fdebf89",
    ("monomial", 1, 2): "f773505789e49cbb",
    ("monomial", 1, 3): "568408c42a5ca379",
    ("monomial", 1, 4): "cab6766f79b1aa72",
    ("monomial", 2, 1): "4265e7163fdebf89",
    ("monomial", 2, 2): "e568996cac2399fe",
    ("monomial", 2, 3): "18ab11c6b400a500",
    ("monomial", 2, 4): "924fc957139d9215",
    ("monomial", 3, 1): "4265e7163fdebf89",
    ("monomial", 3, 2): "5a539b573eeae688",
    ("monomial", 3, 3): "dac37378589e2d0c",
    ("monomial", 3, 4): "723a1c52213b93a9",
    ("monomial", 4, 1): "4265e7163fdebf89",
    ("monomial", 4, 2): "f6216394611515ff",
    ("monomial", 4, 3): "0fb637a0049f453e",
    ("monomial", 4, 4): "df3a6d5160616a74",
    ("monomial", 5, 5): "867689c260b329af",
    ("monomial", 6, 6): "810f2b617c4a534d",
    ("typeb", None, 1): "49b8c15a5b368af9",
    ("typeb", None, 2): "67dcab20c227c41d",
    ("typeb", None, 3): "ea1434c99d205503",
    ("typeb", None, 4): "723e9bf74bd2e668",
    ("typeb", None, 5): "63d053a3e9087f6d",
    ("typeb", None, 6): "b82721336624ef1c",
}


@pytest.mark.parametrize("what,r,n", sorted(PRESENT_DIGESTS, key=str))
def test_present_output_digests(what, r, n):
    argv = ["present", what, "--n", str(n)]
    if r is not None:
        argv += ["--r", str(r)]
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PRESENT_DIGESTS[what, r, n]


class _CountingWriter:
    """Keeps only counts and a digest of what is written: characters, the
    longest single write and the longest line, newline included."""

    def __init__(self):
        self.chars = self.longest_write = self.longest_line = self._line = 0
        self.sha = hashlib.sha256()

    def write(self, text):
        self.chars += len(text)
        self.longest_write = max(self.longest_write, len(text))
        self.sha.update(text.encode())
        *ended, rest = text.split("\n")
        for part in ended:
            self.longest_line = max(self.longest_line, self._line + len(part) + 1)
            self._line = 0
        self._line += len(rest)


def test_present_streams_one_relation_at_a_time():
    # present (6,6) prints 7.3 MB.  Every relation's word, every line and
    # the joined text held at once come to about four times that; streamed,
    # the peak is about one braid's Artin images, well under half the text.
    out = _CountingWriter()
    tracemalloc.start()
    try:
        code = run(["present", "monomial", "--r", "6", "--n", "6"], out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.sha.hexdigest()[:16] == PRESENT_DIGESTS["monomial", 6, 6]
    assert peak < out.chars / 2, (peak, out.chars)
    assert out.longest_write <= out.longest_line


def test_present_checks_the_whole_tower_before_writing(monkeypatch):
    # a bad braid key in the last level is found before the first line is
    # written, so the output is the error line alone
    real = arrangements.build_monomial_tower

    def short_tower(r, n):
        tower = real(r, n)
        braids = dict(tower[-1].braids)
        del braids[arrangements.z_hyp(2)]
        return tower[:-1] + [dataclasses.replace(tower[-1], braids=braids)]

    monkeypatch.setattr(arrangements, "build_monomial_tower", short_tower)
    code, out = run_cli("present", "monomial", "--r", "2", "--n", "3")
    assert code == 2
    assert out == "error: tower level 3 lacks a braid for Z[2]\n"


def test_monodromy_reports_a_second_braid_line(tmp_path):
    bad = tmp_path / "two.wd"
    bad.write_text("n 3\nI: 1 2 | 3\nB: 1\nB: 2\n")
    code, out = run_cli("monodromy", str(bad))
    assert code == 2
    assert out == "error: line 4: partition has a second 'B:' line\n"


def test_monodromy_names_an_out_of_range_braid_letter(tmp_path):
    bad = tmp_path / "letter.wd"
    bad.write_text("n 3\nI: 1 2 3\nB: 7\n")
    code, out = run_cli("monodromy", str(bad))
    assert code == 2
    assert out == "error: line 3: letter 7 out of range for 3 strands\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("n 3\nI: 1 2\n", "line 2: blocks do not cover [1,3]: ((1, 2),)"),
        ("n 3\nI: 1 2 3\nI: 1 3 | 2\n", "line 3: blocks not consecutive/ordered: ((1, 3), (2,))"),
        ("n 3\nI: 1 | | 2 3\n", "line 2: empty block in partition"),
        ("n 3\nI: 1 x | 2 3\n", "line 2: bad block entry"),
    ],
    ids=["uncovered", "out-of-order", "empty-block", "bad-entry"],
)
def test_monodromy_names_the_line_of_a_bad_partition(tmp_path, text, message):
    bad = tmp_path / "bad.wd"
    bad.write_text(text)
    code, out = run_cli("monodromy", str(bad))
    assert code == 2
    assert out == f"error: {message}\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("n x\n", "line 1: bad strand count"),
        ("n 3\nI: 1 | 2 | 3\nQ: 1\n", "line 3: expected 'I:' or 'B:' line"),
        ("# only a comment\n", "missing 'n <int>' header"),
    ],
    ids=["strand-count", "line-kind", "no-header"],
)
def test_monodromy_names_a_malformed_line(tmp_path, text, message):
    bad = tmp_path / "bad.wd"
    bad.write_text(text)
    assert run_cli("monodromy", str(bad)) == (2, f"error: {message}\n")


def test_monodromy_closes_a_last_partition_with_the_empty_braid(tmp_path):
    # a file may end on an 'I:' line; its event reads no braid after it
    path = tmp_path / "open.wd"
    path.write_text("n 3\nI: 1 2 | 3\n")
    code, out = run_cli("monodromy", str(path))
    assert code == 0
    assert out.count("generator") == 1
    assert "gamma: 1 1\n" in out and "V: 1 2 | 3\n" in out


def _seeded_wiring_text(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    letters = [s for s in range(-(n - 1), n) if s != 0]
    rows = [f"n {n}"]
    for _ in range(rng.randint(2, 5)):
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        bounds = [0] + cuts + [n]
        rows.append("I: " + " | ".join(
            " ".join(map(str, range(a + 1, b + 1))) for a, b in zip(bounds, bounds[1:])))
        rows.append("B: " + " ".join(str(rng.choice(letters)) for _ in range(rng.randint(0, 5))))
    return "\n".join(rows) + "\n"


def _seeded_lines_text(seed):
    rng = random.Random(seed)
    grid = [(s, c) for s in range(-3, 4) for c in range(-3, 4)]
    return "".join(f"{s} {c}\n" for s, c in rng.sample(grid, rng.randint(3, 6)))


def _seeded_rational_lines_text(seed):
    # fractional slopes and intercepts with denominators 2..7, signs mixed
    rng = random.Random(seed)
    grid = sorted({(Fraction(a, d), Fraction(b, e))
                   for a in range(-4, 5) for b in range(-4, 5) for d in (2, 3) for e in (2, 5, 7)})
    return "".join(f"{s} {c}\n" for s, c in rng.sample(grid, rng.randint(6, 9)))


_SEEDED_TEXT = {
    "monodromy": _seeded_wiring_text,
    "lines": _seeded_lines_text,
    "lines-rational": _seeded_rational_lines_text,
}


# sha256 prefix of the stdout of `monodromy` and `lines` on seeded inputs,
# recorded before linking numbers were counted into a sparse map, so the
# printed linking matrices stay byte-stable; the `lines-rational` entry was
# recorded while the real-line events were still found by Fraction
# arithmetic, before they were scaled to integers
MONODROMY_DIGESTS = {
    ("monodromy", 1): "55a6fd7d090f47b0",
    ("monodromy", 2): "29b4b06a28749ba9",
    ("monodromy", 3): "f3ef985ac69e3f1f",
    ("lines", 1): "26fdc518f2d0a4b1",
    ("lines", 2): "2fd0c48fefc6bb5d",
    ("lines", 3): "debe04cb74a5fca0",
    ("lines-rational", 4): "344dce7404b7dcf9",
}


@pytest.mark.parametrize("command,seed", sorted(MONODROMY_DIGESTS))
def test_monodromy_output_digests(tmp_path, command, seed):
    path = tmp_path / f"seeded.{command}"
    path.write_text(_SEEDED_TEXT[command](seed))
    code, out = run_cli(command.split("-")[0], str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == MONODROMY_DIGESTS[command, seed]
