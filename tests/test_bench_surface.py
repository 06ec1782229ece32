"""The package names and call forms the benchmark in ``bench/`` relies on.

``bench/workloads.py`` and ``bench/worker.py`` look some of these up by name
with ``getattr`` and a default, so a rename would not fail there: it would
show up only as failed benchmark operations or as a guard that checks less.
These tests make such a rename fail here first.
"""
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from braidforge import arrangements, liealg, wiring

DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.mark.parametrize("name", ["lyndon_words", "_bracket_pair", "standard_factorization"])
def test_lie_caches_expose_cache_info(name):
    # the lie-ranks warm-cache guard reads each one's currsize, and the
    # worker reads _bracket_pair's hits and misses
    info = getattr(liealg, name).cache_info()
    assert info.currsize >= 0 and info.hits >= 0 and info.misses >= 0


def test_graded_ranks_takes_method_and_limit_as_keywords():
    pres = liealg.holonomy_relations_from_flats(
        arrangements.monomial_flats(1, 3), arrangements.monomial_hyperplanes(1, 3))
    by_tower = liealg.graded_ranks(pres, 2, method="tower")
    limit = liealg.ELIMINATION_DIM_LIMIT
    assert liealg.graded_ranks(pres, 2, method="elimination", elimination_limit=limit) == by_tower


def test_verify_twist_shape_takes_n_positionally():
    params = list(inspect.signature(wiring.verify_twist_shape).parameters.values())
    assert [p.name for p in params] == ["g", "n"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    W = wiring.parse_wiring((DATA / "b2.wd").read_text(encoding="utf-8"))
    assert wiring.verify_twist_shape(wiring.braid_monodromy(W)[0], W.n).passed


def test_real_lines_from_strings_give_tuple_blocks():
    # the lines case passes each "slope intercept" row's two strings to
    # real_line, and compares each generator's blocks, as a tuple of tuples,
    # with the incidence of the lines at its event
    rows = (DATA / "b2.lines").read_text(encoding="utf-8").splitlines()[1:]
    lines = [wiring.real_line(*row.split()) for row in rows]
    assert lines[0] == wiring.RealLine(Fraction(-2), Fraction(-120))
    W = wiring.wiring_from_real_lines(lines)
    assert [tuple(g.blocks) for g in wiring.braid_monodromy(W)] == [
        ((1,), (2, 3, 4), (5,)),
        ((1, 4), (2, 5), (3,)),
        ((1, 3, 5), (2,), (4,)),
        ((1, 2), (3,), (4, 5)),
    ]
