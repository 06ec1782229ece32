"""Command-line front end: monodromy, verification suites, and rank tables.

Output is deterministic and byte-stable: fixed orderings everywhere, no
timestamps.  Every verification subcommand exits 0 exactly when all
requested checks pass, and prints one FAIL line per failed instance
otherwise.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import arrangements as arr
from . import liealg
from . import monomial as mono
from .braid import (
    braid_to_text,
    linking_pairs,
    verify_braid_relations,
    verify_pure_braid_relations,
)
from .report import Report
from .wiring import braid_monodromy, content_lines, parse_wiring, real_line, wiring_from_real_lines

MAX_R = 6
MAX_N = 6
MAX_DEGREE = 8


class CliError(Exception):
    pass


def _guard(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise CliError(
            f"{name}={value} exceeds the supported bound {cap}: conjugated "
            "braid words and graded Lie dimensions grow combinatorially, so "
            "cost explodes past desk scale"
        )
    if value < 1:
        raise CliError(f"{name} must be positive, got {value}")


def _print_report(report: Report, out) -> bool:
    for check in report.checks:
        out.write(check.line() + "\n")
    out.write(report.summary() + "\n")
    if not report.passed:
        for check in report.failures:
            out.write(f"FAIL\t{report.title}\t{check.name}\n")
    return report.passed


def _monodromy_text(W) -> str:
    lines = [f"n {W.n}"]
    for g in braid_monodromy(W):
        lines.append(f"generator {g.index}")
        lines.append("gamma: " + braid_to_text(g.braid))
        lines.append(
            "V: " + " | ".join(" ".join(map(str, b)) for b in g.blocks)
        )
        lk = [[0] * W.n for _ in range(W.n)]
        for (a, b), value in linking_pairs(g.braid).items():
            lk[a - 1][b - 1] = lk[b - 1][a - 1] = value
        lines.append("linking:")
        for row in lk:
            lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _cmd_monodromy(args, out) -> int:
    text = _read_file(args.wiring_file)
    W = parse_wiring(text)
    out.write(_monodromy_text(W))
    return 0


def _parse_lines_file(text: str):
    lines = []
    for lineno, body in content_lines(text):
        parts = body.split()
        if len(parts) != 2:
            raise CliError(f"line {lineno}: expected 'slope intercept'")
        try:
            lines.append(real_line(parts[0], parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"line {lineno}: bad rational ({exc})") from exc
    return lines


def _cmd_lines(args, out) -> int:
    lines = _parse_lines_file(_read_file(args.lines_file))
    W = wiring_from_real_lines(lines)
    out.write(_monodromy_text(W))
    return 0


def _cmd_typeb(args, out) -> int:
    _guard("n", args.n, MAX_N)
    chi = arr.typeb_monodromy_closed(args.n)
    for sym in arr.typeb_meridian_symbols(args.n):
        out.write(f"chi({sym.label()}) = {braid_to_text(chi[sym])}\n")
    if args.verify:
        report = arr.typeb_wiring_cross_check(args.n)
        return 0 if _print_report(report, out) else 1
    return 0


def _cmd_monomial(args, out) -> int:
    _guard("r", args.r, MAX_R)
    _guard("n", args.n, MAX_N)
    prm = mono.MonomialParams(args.r, args.n)
    suites = {
        "relations": mono.verify_monomial_relations,
        "lemma-conj": mono.verify_lemma_conj,
        "presentation": mono.verify_presentation,
        "generators": mono.verify_generators_free_factor,
    }
    report = suites[args.verify](prm)
    return 0 if _print_report(report, out) else 1


def _cmd_present(args, out) -> int:
    if args.what == "typeb":
        _guard("n", args.n, MAX_N)
        tower = arr.build_typeb_tower(args.n)
    else:
        _guard("r", args.r, MAX_R)
        _guard("n", args.n, MAX_N)
        tower = arr.build_monomial_tower(args.r, args.n)
    arr.write_presentation(tower, out)
    return 0


def _parse_flats_file(text: str) -> liealg.HolonomyPresentation:
    gens: list[str] = []
    flats: list[tuple[str, ...]] = []
    for lineno, body in content_lines(text):
        if body.startswith("gens:"):
            if gens:
                raise CliError(f"line {lineno}: second 'gens:' header")
            gens = body[5:].split()
            if not gens:
                raise CliError(f"line {lineno}: empty 'gens:' header")
            continue
        members = tuple(body.removeprefix("flat:").split())
        if len(members) < 2:
            raise CliError(f"line {lineno}: a flat needs at least two members")
        flats.append(members)
    if not gens:
        gens = list(dict.fromkeys(name for flat in flats for name in flat))
    if not gens:
        raise CliError("flats file names no generator")
    return liealg.holonomy_relations_from_flats(flats, gens)


def _rank_table(cells, fmt: str) -> str:
    """The degree table; ``cells`` holds one (rank, expected, match) row per degree."""
    rows = [("degree", "rank", "expected", "match")]
    rows += [(str(k), *map(str, row)) for k, row in enumerate(cells, start=1)]
    if fmt == "tsv":
        return "\n".join("\t".join(row) for row in rows) + "\n"
    widths = [max(len(row[c]) for row in rows) for c in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    ) + "\n"


def _int_list(option: str, text: str, form: str, valid) -> list[int]:
    """Parse ``--option``'s comma-separated integers; ``valid`` checks the list."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or not valid(values):
        raise CliError(f"--{option} expects {form}, got {text!r}")
    return values


def _cmd_lie(args, out) -> int:
    _guard("max-degree", args.max_degree, MAX_DEGREE)
    pres = exps = None
    if args.exponents is not None:
        exps = _int_list("exponents", args.exponents, "d1,d2,... (positive integers)",
                         lambda v: min(v) >= 1)
    if args.monomial is not None:
        r, n = _int_list("monomial", args.monomial, "r,n (two integers)",
                         lambda v: len(v) == 2)
        _guard("r", r, MAX_R)
        _guard("n", n, MAX_N)
        pres = liealg.holonomy_relations_from_flats(
            arr.monomial_flats(r, n), arr.monomial_hyperplanes(r, n)
        )
        if exps is None:
            exps = arr.exponents(r, n)
    elif args.flats:
        pres = _parse_flats_file(_read_file(args.flats))
    elif exps is None:
        raise CliError("lie needs one of --exponents, --monomial, or --flats")
    # with no presentation the rank column shows the Witt sums and compares nothing
    expected = ["-"] * args.max_degree if exps is None else liealg.witt_sums(exps, args.max_degree)
    ranks = expected if pres is None else liealg.graded_ranks(pres, args.max_degree)
    compare = pres is not None and exps is not None
    cells = [(rank, e, ("yes" if rank == e else "NO") if compare else "-")
             for rank, e in zip(ranks, expected)]
    out.write(_rank_table(cells, args.format))
    bad = [k for k, cell in enumerate(cells, start=1) if cell[2] == "NO"]
    for k in bad:
        out.write(f"FAIL\tlie\tdegree {k}\n")
    return 1 if bad else 0


def _cmd_verify(args, out) -> int:
    _guard("n", args.n, MAX_N)
    report = Report(f"braid and pure braid relations, n={args.n}")
    report.extend(verify_braid_relations(args.n))
    report.extend(verify_pure_braid_relations(args.n))
    return 0 if _print_report(report, out) else 1


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidforge",
        description="exact braid monodromy, monomial braid groups, holonomy Lie ranks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monodromy", help="braid monodromy of a wiring diagram file")
    p.add_argument("wiring_file")

    p = sub.add_parser("lines", help="braid monodromy of a real-line arrangement file")
    p.add_argument("lines_file")

    p = sub.add_parser("typeb", help="type-B closed-form monodromy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("monomial", help="monomial braid verification suites")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--verify",
        required=True,
        choices=["relations", "lemma-conj", "presentation", "generators"],
    )

    p = sub.add_parser("present", help="emit a tower presentation")
    psub = p.add_subparsers(dest="what", required=True)
    pt = psub.add_parser("typeb")
    pt.add_argument("--n", type=int, required=True)
    pm = psub.add_parser("monomial")
    pm.add_argument("--r", type=int, required=True)
    pm.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lie", help="graded rank table with Witt comparison")
    p.add_argument("--exponents")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--monomial")
    source.add_argument("--flats")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--format", choices=["text", "tsv"], default="text")

    p = sub.add_parser("verify", help="relation suites")
    p.add_argument("what", choices=["purebraid"])
    p.add_argument("--n", type=int, required=True)
    return parser


_COMMANDS = {
    "monodromy": _cmd_monodromy,
    "lines": _cmd_lines,
    "typeb": _cmd_typeb,
    "monomial": _cmd_monomial,
    "present": _cmd_present,
    "lie": _cmd_lie,
    "verify": _cmd_verify,
}


def run(argv: list[str], out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except (CliError, ValueError) as exc:
        out.write(f"error: {exc}\n")
        return 2


def main() -> None:
    # A buffered writer retries short writes, so a reader that closes the
    # pipe early surfaces as BrokenPipeError even when PYTHONUNBUFFERED makes
    # sys.stdout a raw stream whose short writes would go unreported.
    with open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
              errors=sys.stdout.errors, closefd=False) as out:
        try:
            code = run(sys.argv[1:], out)
            out.flush()
        except BrokenPipeError:
            # the reader went away (``| head``): point stdout at devnull so
            # the flush on closing cannot raise again, and end quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
    sys.exit(code)
