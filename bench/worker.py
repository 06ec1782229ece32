"""One iteration of one workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last stdout line.  Modes:

* ``setup``: import braidforge from the checkout's ``src`` and build the
  workload's inputs, then stop.  ``run.py`` times these for ``setup_s``.
* ``plain``: also run every case untraced, then score the verdicts.
* ``traced``: the same with spans installed, followed by a probe that
  calls each wrapped function once on a minimal input.

``t_first`` is the CLOCK_MONOTONIC reading just before the first call into
braidforge, so set-up time is measured across the process boundary.  Set-up
and ``verdict_s`` are normalised to a fixed machine speed by the sampler of
speed.py: set-up from this script's first line, with the interpreter start
before it scaled by the first sample.  ``wall_s`` is the verdict interval
in wall time; per-layer span times are wall times.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from pathlib import Path

from speed import Sampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_INTERVAL_S = 0.02  # set-up lasts about 0.2 s

# Minimal inputs that reach every wrapped function through its usual caller.
PROBE_ARGVS = [
    ["typeb", "--n", "2", "--verify"],
    ["monomial", "--r", "1", "--n", "2", "--verify", "lemma-conj"],
    ["monomial", "--r", "1", "--n", "2", "--verify", "presentation"],
    ["present", "monomial", "--r", "1", "--n", "2"],
    ["lie", "--monomial", "1,2", "--max-degree", "2"],
]


def _import_braidforge() -> None:
    """Import the package from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "braidforge" / "__init__.py").is_file():
        raise SystemExit(f"no braidforge sources under {src}")
    sys.path.insert(0, str(src))
    import braidforge

    if Path(braidforge.__file__).resolve().parent != (src / "braidforge").resolve():
        raise SystemExit(f"imported braidforge from {braidforge.__file__}, not {src}")


def _probe(tracer) -> list[str]:
    """Call every wrapped function once; return the targets no span reached,
    including those the tracer found no function to wrap for."""
    from braidforge import arrangements, cli, liealg, wiring

    tracer.case = "probe"
    for argv in PROBE_ARGVS:
        cli.run(argv, io.StringIO())
    W = wiring.parse_wiring((ROOT / "data" / "b2.wd").read_text(encoding="utf-8"))
    wiring.verify_twist_shape(wiring.braid_monodromy(W)[0], W.n)
    pres = liealg.holonomy_relations_from_flats(
        arrangements.monomial_flats(1, 3), arrangements.monomial_hyperplanes(1, 3)
    )
    for method in ("elimination", "tower"):
        liealg.graded_ranks(pres, 2, method=method)
    seen = {span[2] for span in tracer.spans}
    return tracer.missing + [name for name in tracer.installed
                             if not any(s == name or s.startswith(name + ".") for s in seen)]


def _layer_metrics(tracer, elapsed: float, extra: dict) -> dict:
    from spans import LAYERS

    summ = tracer.summary()
    names = summ["names"]

    def get(name: str, field: str) -> float:
        return names.get(name, {}).get(field, 0)

    endo_calls = get("monomial.endo", "calls")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in names.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    out = {
        "freegroup.compose.calls": get("freegroup.compose", "calls"),
        "freegroup.compose.self_s": get("freegroup.compose", "self_s"),
        "freegroup.apply.calls": get("freegroup.apply", "calls"),
        "freegroup.apply.s": get("freegroup.apply", "s"),
        "braid.artin.calls": get("braid.artin", "calls"),
        "braid.artin.s": get("braid.artin", "s"),
        "braid.braid_equal.calls": get("braid.braid_equal", "calls"),
        "braid.braid_equal.s": get("braid.braid_equal", "s"),
        "monomial.endo.calls": endo_calls,
        "monomial.endo.hits": endo_calls - summ["endo_misses"],
        "monomial.endo.hit_ratio":
            (endo_calls - summ["endo_misses"]) / endo_calls if endo_calls else 0.0,
        "monomial.verify_presentation.s": get("monomial.verify_presentation", "s"),
        "monomial.verify_lemma_conj.s": get("monomial.verify_lemma_conj", "s"),
        "wiring.wiring_from_real_lines.s": get("wiring.wiring_from_real_lines", "s"),
        "wiring.braid_monodromy.s": get("wiring.braid_monodromy", "s"),
        "wiring.verify_twist_shape.s": get("wiring.verify_twist_shape", "s"),
        "arrangements.typeb_wiring_cross_check.s":
            get("arrangements.typeb_wiring_cross_check", "s"),
        "arrangements.assemble_presentation.s": get("arrangements.assemble_presentation", "s"),
        "arrangements.monomial_flats.s": get("arrangements.monomial_flats", "s"),
        "liealg.graded_ranks.elimination.s": get("liealg.graded_ranks.elimination", "s"),
        "liealg.graded_ranks.tower.s": get("liealg.graded_ranks.tower", "s"),
        "liealg.bracket.calls": get("liealg.bracket", "calls"),
        "liealg.bracket.s": get("liealg.bracket", "s"),
        "cli.run.s": get("cli.run", "s"),
        "unattributed_s": elapsed - summ["root_s"],
        "trace.spans": summ["spans"],
    }
    out.update(summ["counters"])
    out.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
    out.update(extra)
    return out


def main(argv: list[str] | None = None) -> int:
    t_script, p_script = time.monotonic(), time.perf_counter()
    setup_sampler = Sampler(SETUP_INTERVAL_S)
    setup_sampler.start()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    ap.add_argument("--spans", help="JSON-lines file for the spans of a traced run")
    args = ap.parse_args(argv)

    _import_braidforge()
    import workloads

    cases = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    t_first, p_first = time.monotonic(), time.perf_counter()
    setup_sampler.stop()
    setup = {
        "t_script": t_script,
        "t_first": t_first,
        "setup_in_script": setup_sampler.normalised(p_script, p_first),
        "first_factor": setup_sampler.first_factor(),
    }
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    sampler = Sampler()
    raws, times = [], []
    sampler.start()
    t0 = time.perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.case = case.name
        start = time.perf_counter()
        raws.append(case.run())
        times.append(time.perf_counter() - start)
    t1 = time.perf_counter()
    sampler.stop()
    verdict_s = sampler.normalised(t0, t1)
    wall_s = sampler.wall(t0, t1)

    from braidforge import liealg

    result_cases = []
    ideal_rank = 0
    for case, raw, seconds in zip(cases, raws, times):
        checks, wrong = case.score(raw)
        row = {"name": case.name, "s": seconds, "checks": checks, "wrong": wrong}
        if case.method:
            row["method"] = case.method
        if isinstance(raw, BaseException):
            row["error"] = f"{type(raw).__name__}: {raw}"
        elif case.method == "elimination":
            ideal_rank += sum(dim - rank for dim, rank in zip(case.ambient[1:], raw[1:]))
        result_cases.append(row)

    result = {
        "verdict_s": verdict_s,
        "wall_s": wall_s,
        "checks": sum(r["checks"] for r in result_cases),
        "wrong": sum(r["wrong"] for r in result_cases),
        "cases": result_cases,
    }
    if tracer is not None:
        pair_cache = getattr(liealg, "_bracket_pair", None)
        info = pair_cache.cache_info() if pair_cache is not None else None
        extra = {
            "liealg.ideal_rank": ideal_rank,
            "liealg.bracket_pair.hits": info.hits if info else 0,
            "liealg.bracket_pair.misses": info.misses if info else 0,
        }
        unreached = _probe(tracer)
        extra["trace.unreached"] = len(unreached)
        result["layers"] = _layer_metrics(tracer, t1 - t0, extra)
        result["unreached"] = unreached
        result["cli_cases"] = {
            case: row["s"] for case, row in tracer.case_totals("cli.run").items()
        }
        if args.spans:
            tracer.write_spans(args.spans, t0)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
