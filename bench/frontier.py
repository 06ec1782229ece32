"""Frontier probe: how far up each parameter ladder a suite decides its claim.

    python3 bench/frontier.py

Run on demand from the repository root; it is not one of the gated
workloads.  Each ladder point runs in its own interpreter with a budget of
BUDGET_S seconds and a 2 GiB address-space cap, two points at a time.  The
outcome is one of:

* ``ok``: the suite decided the claim and every check held;
* ``FAIL``: the suite decided and some check did not hold (exit 1, or Lie
  ranks that differ from the Witt sums);
* ``error``: the suite gave up (exit 2, e.g. the word-length cap) or raised;
* ``timeout``: no answer within the budget.

The table is printed and written to ``bench/out/frontier.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUDGET_S = 120.0
PROCESSES = 2
MONOMIAL_SUITES = ("presentation", "lemma-conj")
MONOMIAL_LADDER = [(3, 4), (4, 4), (3, 5), (2, 5), (4, 5), (5, 5)]
LIE_POINT = (3, 3)  # monomial (r, n) whose holonomy presentation is eliminated
LIE_DEGREES = [2, 3, 4, 5, 6]
MEMORY_CAP = 2 << 30

LADDER = [(suite, r, n) for suite in MONOMIAL_SUITES for r, n in MONOMIAL_LADDER]
LADDER += [("lie", *LIE_POINT, k) for k in LIE_DEGREES]


def _error(exc: BaseException) -> tuple[str, str]:
    if isinstance(exc, MemoryError):
        return "error", f"memory cap {MEMORY_CAP >> 30} GiB"
    return "error", f"{type(exc).__name__}: {exc}"


def run_point(point: tuple) -> tuple[str, str]:
    """Decide one ladder point in this process; return (outcome, detail)."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    suite, r, n = point[:3]
    if suite == "lie":
        case = workloads.lie_case(r, n, point[3], "elimination")
        raw = case.run()
        if isinstance(raw, BaseException):
            return _error(raw)
        wrong = case.score(raw)[1]
        return ("FAIL" if wrong else "ok"), f"ambient dimension {max(case.ambient)}"
    argv = ["monomial", "--r", str(r), "--n", str(n), "--verify", suite]
    try:
        rc, text = workloads.run_cli(argv)
    except Exception as exc:  # the probe records crashes as outcomes
        return _error(exc)
    lines = text.splitlines()
    if rc == 0:
        return "ok", lines[-1] if lines else ""
    if rc == 1:
        ok, failed = workloads.suite_tally(text)
        first = failed[0] if failed else "?"
        return "FAIL", f"{ok}/{ok + len(failed)} checks ok; first: {first}"
    return "error", lines[-1] if lines else f"exit {rc}"


def probe(point: tuple) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--point", json.dumps(point)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=BUDGET_S,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:
        outcome, detail = "timeout", f"no answer within {BUDGET_S:.0f} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            outcome, detail = json.loads(lines[-1])
        else:
            tail = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
            outcome, detail = "error", tail[-1]
    return {"point": list(point), "outcome": outcome, "detail": detail,
            "seconds": round(time.monotonic() - start, 2)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--point", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(tuple(json.loads(args.point)))))
        return 0
    if not (ROOT / "src" / "braidforge" / "__init__.py").is_file():
        print(f"error: no braidforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(max_workers=PROCESSES) as pool:
        rows = list(pool.map(probe, LADDER))
    for row in rows:
        label = " ".join(map(str, row["point"]))
        print(f"{label:<22} {row['outcome']:<8} {row['seconds']:8.2f} s  {row['detail']}")
    (BENCH / "out").mkdir(exist_ok=True)
    with open(BENCH / "out" / "frontier.json", "w", encoding="utf-8") as fh:
        json.dump({"budget_s": BUDGET_S, "points": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
