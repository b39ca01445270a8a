"""Whole-term analyses are cached on the term object.

`rank_summary` and `shift_report` store their result on the root term
(`terms.analysis_cache`), so the analyze sequence and a twin family compute
one shift report per term object and horizon.  Cached results must read
the same as a fresh computation on an equal term parsed separately.
"""

import random

import pytest

from scattree import ends
from scattree.ends import shift_report
from scattree.ranks import rank_summary
from scattree.stability import classify, twin_cardinality
from scattree.terms import builtins, format_term, parse_term
from scattree.twins import twin_n, verify_twins

CORPUS = 300

_CONTEXTS = ("succ(_)", "sup(_*2)", "succ(sup(_*2))", "sup(succ(_)*w)", "sup(_,succ(box))", "wsum([_](box))")


@pytest.fixture
def report_count(monkeypatch):
    """Counts computed shift reports: each one classifies its component
    sequence once."""
    calls = [0]
    original = ends.regular_components

    def counting(seq):
        calls[0] += 1
        return original(seq)

    monkeypatch.setattr(ends, "regular_components", counting)
    return calls


def fresh(name):
    """A built-in term as a new object, with nothing cached on it."""
    return parse_term(format_term(builtins()[name]))


def test_analyze_sequence_computes_one_report(report_count):
    for name in ("ray", "ex1", "ex3", "ex4"):
        t = fresh(name)
        before = report_count[0]
        summary = rank_summary(t)
        report = shift_report(t, 8)
        classify(t, 8)
        assert report_count[0] - before == 1, name
        assert rank_summary(t) is summary
        assert shift_report(t, 8) is report


def test_twin_family_shares_one_report(report_count):
    t = fresh("ex1")
    family = [twin_n(t, j, 8) for j in range(1, 9)]
    assert verify_twins(t, family, horizon=12)["ok"]
    assert report_count[0] == 1
    twin_cardinality(t, 8)
    assert report_count[0] == 1


def test_each_horizon_gets_its_own_report(report_count):
    t = fresh("ex4")
    short, long = shift_report(t, 4), shift_report(t, 8)
    assert short is not long
    assert report_count[0] == 2
    assert short.to_json() == shift_report(fresh("ex4"), 4).to_json()
    assert long.to_json() == shift_report(fresh("ex4"), 8).to_json()
    assert shift_report(t, 4) is short
    assert report_count[0] == 4  # the two fresh terms computed their own


def test_equal_terms_parsed_separately_share_nothing():
    a, b = fresh("ex1"), fresh("ex1")
    assert a == b
    assert shift_report(a) is not shift_report(b)
    assert rank_summary(a) is not rank_summary(b)


def test_cached_results_are_read_only():
    t = fresh("ex1")
    report, summary = shift_report(t, 8), rank_summary(t)
    with pytest.raises(TypeError):
        report.eventual[1] = 5
    with pytest.raises(TypeError):
        del report.eventual[1]
    with pytest.raises(AttributeError):
        report.regular = "yes"
    with pytest.raises(AttributeError):
        summary.top_ends = 2
    assert report.eventual[1] == 0
    assert classify(t, 8).twins == "continuum"


def _term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return "box"
    if roll < 0.5:
        return f"succ({_term(rng, depth - 1)})"
    if roll < 0.8:
        arms = [f"{_term(rng, depth - 1)}*{rng.choice(['1', '2', 'w'])}" for _ in range(rng.randrange(1, 3))]
        return f"sup({','.join(arms)})"
    return f"wsum({_seq(rng, depth - 1)})"


def _seq(rng, depth):
    roll = rng.random()
    if roll < 0.45:
        pre = ",".join(_term(rng, depth) for _ in range(rng.randrange(0, 2)))
        cyc = ",".join(_term(rng, depth) for _ in range(rng.randrange(1, 3)))
        return f"[{pre}]({cyc})"
    if roll < 0.75:
        return f"gen({_term(rng, depth)};{rng.choice(_CONTEXTS)})"
    patches = ",".join(f"{n}:{_term(rng, depth)}" for n in sorted(rng.sample(range(6), rng.randrange(1, 3))))
    return f"patch({_seq(rng, depth)};{patches})"


def test_warm_results_match_a_fresh_parse():
    rng = random.Random(5)
    texts = [f"wsum({_seq(rng, 2)})" for _ in range(CORPUS)]
    kinds = set()
    for text in texts:
        warm = parse_term(text)
        kinds.add(type(warm.seq).__name__)
        rank = rank_summary(warm).to_json()
        classify(warm, 8)
        assert shift_report(warm, 8).to_json() == shift_report(parse_term(text), 8).to_json(), text
        assert rank_summary(warm).to_json() == rank == rank_summary(parse_term(text)).to_json(), text
    assert kinds == {"Periodic", "Generated", "Patched"}
