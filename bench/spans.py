"""Spans around the public functions of each braidforge module.

The tracer replaces a function at every name it is bound to inside the
``braidforge`` package (``from .braid import artin`` binds ``artin`` in the
importing module too), so calls are seen whichever caller makes them.
Spans are kept in memory as ``[id, parent, name, case, start, end]`` and
written out as JSON lines once the iteration is over.  Private helpers get
no wrapper; they show up in the span of their public caller and in the
counters the package already exposes.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute); "Class.method" wraps the class attribute.
TARGETS = [
    ("freegroup.apply", "freegroup", "apply"),
    ("freegroup.compose", "freegroup", "compose"),
    ("braid.artin", "braid", "artin"),
    ("braid.braid_equal", "braid", "braid_equal"),
    ("monomial.endo", "monomial", "ArtinCalculator.endo"),
    ("monomial.verify_presentation", "monomial", "verify_presentation"),
    ("monomial.verify_lemma_conj", "monomial", "verify_lemma_conj"),
    ("wiring.parse_wiring", "wiring", "parse_wiring"),
    ("wiring.wiring_from_real_lines", "wiring", "wiring_from_real_lines"),
    ("wiring.braid_monodromy", "wiring", "braid_monodromy"),
    ("wiring.verify_twist_shape", "wiring", "verify_twist_shape"),
    ("arrangements.typeb_wiring_cross_check", "arrangements", "typeb_wiring_cross_check"),
    ("arrangements.assemble_presentation", "arrangements", "assemble_presentation"),
    ("arrangements.monomial_flats", "arrangements", "monomial_flats"),
    ("liealg.holonomy_relations_from_flats", "liealg", "holonomy_relations_from_flats"),
    ("liealg.graded_ranks", "liealg", "graded_ranks"),
    ("liealg.bracket", "liealg", "bracket"),
    ("cli.run", "cli", "run"),
]

LAYERS = ("freegroup", "braid", "monomial", "wiring", "arrangements", "liealg", "cli")


class Tracer:
    """Records spans and counters for one iteration in this process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = ""
        self.counters = {
            "freegroup.apply.out_letters": 0,
            "freegroup.max_image_letters": 0,
            "braid.artin.in_letters": 0,
            "braid.artin.out_letters": 0,
            "wiring.gamma_letters": 0,
        }
        self.installed: list[str] = []
        self.missing: list[str] = []  # targets with no such function to wrap

    # -- counters taken from arguments and results at the span boundary

    def _on_apply(self, args, kwargs, result) -> None:
        n = len(result.letters)
        self.counters["freegroup.apply.out_letters"] += n
        if n > self.counters["freegroup.max_image_letters"]:
            self.counters["freegroup.max_image_letters"] = n

    def _on_artin(self, args, kwargs, result) -> None:
        lengths = [len(img.letters) for img in result.images]
        self.counters["braid.artin.in_letters"] += len(args[0].letters)
        self.counters["braid.artin.out_letters"] += sum(lengths)
        top = max(lengths, default=0)
        if top > self.counters["freegroup.max_image_letters"]:
            self.counters["freegroup.max_image_letters"] = top

    def _on_monodromy(self, args, kwargs, result) -> None:
        self.counters["wiring.gamma_letters"] += sum(len(g.braid.letters) for g in result)

    @staticmethod
    def _ranks_name(args, kwargs) -> str:
        method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
        return f"liealg.graded_ranks.{method}"

    # -- installation

    def _wrap(self, name: str, fn, on_exit=None, name_of=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1,
                   name_of(args, kwargs) if name_of else name, self.case, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[5] = clock()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at each of its bindings in the package.

        A target whose module, class or function is gone is put in
        ``missing`` rather than skipped, so a renamed layer is reported as
        unreached and not shown as an idle one.
        """
        hooks = {
            "freegroup.apply": self._on_apply,
            "braid.artin": self._on_artin,
            "wiring.braid_monodromy": self._on_monodromy,
        }
        modules = [m for key, m in list(sys.modules.items())
                   if key == "braidforge" or key.startswith("braidforge.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules.get(f"braidforge.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self._wrap(name, vars(cls)[meth]))
                self.installed.append(name)
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            name_of = self._ranks_name if name == "liealg.graded_ranks" else None
            wrapper = self._wrap(name, fn, hooks.get(name), name_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
            self.installed.append(name)

    # -- reduction

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, case, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "case": case,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                }) + "\n")

    def case_totals(self, name: str) -> dict[str, dict]:
        """Calls and seconds of the spans named `name`, per case."""
        out: dict[str, dict] = {}
        for _, _, span_name, case, start, end in self.spans:
            if span_name == name:
                row = out.setdefault(case, {"calls": 0, "s": 0.0})
                row["calls"] += 1
                row["s"] += end - start
        return out

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; per case root time."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, dict] = {}
        roots = 0.0
        artin_parents = set()
        for sid, parent, name, case, start, end in self.spans:
            dur = end - start
            row = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[sid]
            if parent < 0 and case != "probe":
                roots += dur
            elif name == "braid.artin":
                artin_parents.add(parent)
        endo_misses = sum(1 for p in artin_parents if self.spans[p][2] == "monomial.endo")
        return {"names": names, "root_s": roots, "endo_misses": endo_misses,
                "counters": dict(self.counters), "spans": len(self.spans)}
