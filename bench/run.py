"""braidforge benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload monomial-verify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root.  Each iteration runs in a fresh interpreter
(``worker.py``), so liealg's ``lru_cache``s and every ``ArtinCalculator``
start empty, as they do for a command-line user.  A run times set-up-only
interpreters and iterations in turn until ``--seconds`` is spent, one
worker process at a time.

``--trace 0`` reports the end-to-end metrics (medians over iterations):

* ``verdict_s``: first call into braidforge to the last verdict, in
  seconds at a fixed machine speed (see speed.py; the wall time is
  printed beside it);
* ``setup_s``: interpreter start, ``import braidforge`` and input
  generation, up to the first timed call, normalised the same way;
* ``peak_rss_mb``: peak resident memory of the iteration's process.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead (traced over
untraced ``verdict_s``, minus one).  Spans are written as JSON lines to
``bench/out/<workload>-seed<seed>.spans.jsonl``.

Every run checks each verdict against a known answer (see workloads.py);
``failed`` counts wrong verdicts out of ``attempted`` checks.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("monomial-verify", "braid-images", "lie-ranks")
RECHECK_SEED = 7  # a seed kept out of tuning, for re-checking later claims
SETUP_SAMPLES = 4  # at the start, then SETUP_PER_ITERATION before each iteration
SETUP_PER_ITERATION = 3
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "freegroup.compose.calls": "count",
    "freegroup.compose.self_s": "s",
    "freegroup.apply.calls": "count",
    "freegroup.apply.s": "s",
    "freegroup.apply.out_letters": "letters",
    "freegroup.max_image_letters": "letters",
    "freegroup.self_s": "s",
    "braid.artin.calls": "count",
    "braid.artin.s": "s",
    "braid.artin.in_letters": "letters",
    "braid.artin.out_letters": "letters",
    "braid.braid_equal.calls": "count",
    "braid.braid_equal.s": "s",
    "braid.self_s": "s",
    "monomial.endo.calls": "count",
    "monomial.endo.hits": "count",
    "monomial.endo.hit_ratio": "ratio",
    "monomial.verify_presentation.s": "s",
    "monomial.verify_lemma_conj.s": "s",
    "monomial.self_s": "s",
    "wiring.wiring_from_real_lines.s": "s",
    "wiring.braid_monodromy.s": "s",
    "wiring.verify_twist_shape.s": "s",
    "wiring.gamma_letters": "letters",
    "wiring.self_s": "s",
    "arrangements.typeb_wiring_cross_check.s": "s",
    "arrangements.assemble_presentation.s": "s",
    "arrangements.monomial_flats.s": "s",
    "arrangements.self_s": "s",
    "liealg.graded_ranks.elimination.s": "s",
    "liealg.graded_ranks.tower.s": "s",
    "liealg.ideal_rank": "count",
    "liealg.bracket.calls": "count",
    "liealg.bracket.s": "s",
    "liealg.bracket_pair.hits": "count",
    "liealg.bracket_pair.misses": "count",
    "liealg.self_s": "s",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "unattributed_s": "s",
    "trace.spans": "count",
    "trace.unreached": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one worker process; return its result and the monotonic spawn time."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"{workload}-seed{seed}.spans.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _listing(values: list[float]) -> str:
    return f"n={len(values)} [" + " ".join(f"{v:.4f}" for v in values) + "]"


def _setup_sample(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """Time a set-up-only interpreter up to its first call; (normalised, wall) s.

    The worker normalises from its first line on; the interpreter start
    before that is scaled by the worker's first speed sample.
    """
    res, spawned = _worker(workload, seed, "setup", deadline)
    start = res["t_script"] - spawned
    return start * res["first_factor"] + res["setup_in_script"], res["t_first"] - spawned


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [_setup_sample(workload, seed, deadline) for _ in range(SETUP_SAMPLES)]
    done: dict[str, list[dict]] = {"plain": [], "traced": []}
    durations: dict[str, list[float]] = {"plain": [], "traced": []}
    modes = ["plain", "traced"] if trace else ["plain"]
    for turn in itertools.count():
        mode = modes[turn % len(modes)]
        if turn >= len(modes):
            expected = statistics.median(durations[mode])
            if time.monotonic() + expected > start + seconds:
                break
        t = time.monotonic()
        setups += [_setup_sample(workload, seed, deadline) for _ in range(SETUP_PER_ITERATION)]
        done[mode].append(_worker(workload, seed, mode, deadline)[0])
        durations[mode].append(time.monotonic() - t)

    plain, traced = done["plain"], done["traced"]
    iterations = plain + traced
    verdicts = [r["verdict_s"] for r in plain]
    out = {
        "workload": workload,
        "seed": seed,
        "iterations": iterations,
        "attempted": sum(r["checks"] for r in iterations),
        "failed": sum(r["wrong"] for r in iterations),
        "setup": [norm for norm, _ in setups],
        "setup_wall": [wall for _, wall in setups],
        "verdict": verdicts,
        "verdict_wall": [r["wall_s"] for r in plain],
    }
    if not trace:
        out["metrics"] = {
            "verdict_s": statistics.median(verdicts),
            "setup_s": statistics.median(out["setup"]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        return out
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in PER_LAYER if name != "trace.overhead_ratio"}
    traced_verdict = statistics.median(r["verdict_s"] for r in traced)
    layers["trace.overhead_ratio"] = traced_verdict / statistics.median(verdicts) - 1
    out["metrics"] = layers
    out["traced_verdict"] = traced_verdict
    return out


def _print_human(res: dict, trace: bool) -> None:
    last = res["iterations"][-1]
    print(f"workload {res['workload']}  seed {res['seed']}  recheck-seed {RECHECK_SEED}  "
          f"iterations {len(res['iterations'])}")
    print(f"  wrong_verdicts {res['failed']}/{res['attempted']} checks")
    for case in last["cases"]:
        extra = f"  method={case['method']}" if "method" in case else ""
        error = f"  error={case['error']}" if "error" in case else ""
        print(f"  case {case['name']:<28} {case['s']:9.4f} s  "
              f"wrong {case['wrong']}/{case['checks']}{extra}{error}")
    print(f"  verdict_s {_listing(res['verdict'])}  wall {_listing(res['verdict_wall'])}")
    print(f"  setup_s {_listing(res['setup'])}  wall {_listing(res['setup_wall'])}")
    if not trace:
        for name, unit in END_TO_END.items():
            print(f"  {name:<40} {res['metrics'][name]:14.6g} {unit}")
        return
    traced = [r for r in res["iterations"] if "layers" in r][-1]
    lay = res["metrics"]
    print(f"  tracing overhead {lay['trace.overhead_ratio']:+.3f} "
          f"(traced verdict_s {res['traced_verdict']:.4f} / untraced "
          f"{statistics.median(res['verdict']):.4f})")
    if traced["unreached"]:
        print(f"  wrappers never reached: {', '.join(traced['unreached'])}")
    for case, secs in traced["cli_cases"].items():
        print(f"  cli.run.s[{case}] {secs:.4f} s")
    for name, unit in PER_LAYER.items():
        base = ""
        if name == "monomial.endo.hit_ratio":
            base = f"  (hits/calls = {lay['monomial.endo.hits']:.0f}/{lay['monomial.endo.calls']:.0f})"
        print(f"  {name:<40} {lay[name]:14.6g} {unit}{base}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "braidforge" / "__init__.py").is_file():
        print(f"error: no braidforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_human(res, bool(args.trace))
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
