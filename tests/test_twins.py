import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import scattree
from scattree.finite_trees import canonical_code
from scattree.stability import CONTINUUM, ONE
from scattree.terms import (
    BOX,
    CutCoder,
    Succ,
    TermError,
    UNKNOWN,
    YES,
    builtins,
    equimorphic,
    parse_term,
    truncate,
)
from scattree.twins import (
    LabelledPath,
    Poset,
    almost_disjoint_family,
    analyze_lpath,
    displacements,
    enumerate_lpath_twins,
    format_lpath,
    least_shift_period,
    lpath_embeds,
    lpath_equimorphic,
    lpath_twin_count,
    parse_lpath,
    shift_feasible,
    subset_twins_report,
    twin_from_subset,
    twin_json,
    twin_n,
    twins_report,
    verify_twins,
)


# -- posets ---------------------------------------------------------------------

def test_poset_closure_and_antichain():
    p = Poset({"0", "a", "b"}, [("0", "a"), ("a", "b")])
    assert p.le("0", "b")  # transitivity
    assert p.is_antichain_on({"b"})
    assert not p.is_antichain_on({"0", "b"})
    assert ("0", "a") in p.strict_pairs_into({"a"})


def test_poset_rejects_cycles():
    with pytest.raises(TermError):
        Poset({"a", "b"}, [("a", "b"), ("b", "a")])


# -- parsing and printing ---------------------------------------------------------

def test_lpath_round_trip():
    for text in (
        "lpath oneway poset{a,b} prefix[] cycle(a,b)",
        "lpath oneway poset{0<a} prefix[a] cycle(0,a)",
        "lpath oneway poset{0<a,a<b} prefix[] cycle(b)",
        "lpath twoway poset{a,b} left(a) center[b] right(a,b)",
    ):
        p = parse_lpath(text)
        assert format_lpath(p) == text
        assert parse_lpath(format_lpath(p)) == p


def test_chain_shorthand_expands_to_cover_pairs():
    chain = parse_lpath("lpath oneway poset{0<a<b} prefix[] cycle(b)")
    pairs = parse_lpath("lpath oneway poset{0<a,a<b} prefix[] cycle(b)")
    assert chain.poset.le("0", "b")
    assert format_lpath(chain) == format_lpath(pairs)


def test_lpath_parse_rejects_garbage():
    for bad in (
        "lpath oneway poset{a} cycle(a)",  # missing prefix
        "lpath oneway poset{a} prefix[] cycle()",  # empty cycle
        "lpath oneway poset{a} prefix[] cycle(b)",  # unknown label
        "oneway poset{a} prefix[] cycle(a)",  # missing keyword
    ):
        with pytest.raises(TermError):
            parse_lpath(bad)


def test_label_lookup_both_kinds():
    p = parse_lpath("lpath oneway poset{a,b} prefix[a] cycle(b,a)")
    assert [p.label(n) for n in range(5)] == ["a", "b", "a", "b", "a"]
    q = parse_lpath("lpath twoway poset{a,b} left(a,b) center[b] right(a)")
    # left reads outward from position -1
    assert [q.label(n) for n in (-3, -2, -1, 0, 1, 2)] == ["a", "b", "a", "b", "a", "a"]


def test_equality_sees_through_presentation():
    p = parse_lpath("lpath oneway poset{a,b} prefix[] cycle(a,b)")
    q = parse_lpath("lpath oneway poset{a,b} prefix[a,b] cycle(a,b)")
    r = parse_lpath("lpath oneway poset{a,b} prefix[] cycle(a,b,a,b)")
    assert p == q
    assert p == r
    assert hash(p) == hash(q) == hash(r)


# -- embedding decision ------------------------------------------------------------

def test_lpath_embeds_respects_order():
    low = parse_lpath("lpath oneway poset{0<a} prefix[] cycle(0)")
    high = parse_lpath("lpath oneway poset{0<a} prefix[] cycle(a)")
    assert lpath_embeds(low, high)
    assert not lpath_embeds(high, low)
    assert not lpath_equimorphic(low, high)


def test_lpath_embeds_on_antichain_is_rotation_matching():
    p = parse_lpath("lpath oneway poset{a,b} prefix[] cycle(a,b)")
    q = parse_lpath("lpath oneway poset{a,b} prefix[] cycle(b,a)")
    assert lpath_embeds(p, q)  # shift by one aligns the cycles
    assert lpath_equimorphic(p, q)


def test_lpath_embeds_can_skip_positions():
    sparse = parse_lpath("lpath oneway poset{0<a} prefix[] cycle(0,a)")
    dense = parse_lpath("lpath oneway poset{0<a} prefix[] cycle(0,0,0,a)")
    assert lpath_embeds(sparse, dense)
    assert lpath_embeds(dense, sparse)


def test_shift_feasibility_window():
    p = parse_lpath("lpath oneway poset{0<a} prefix[] cycle(0,a)")
    assert not shift_feasible(p, 1)  # an `a` would land on a `0`
    assert shift_feasible(p, 2)
    assert least_shift_period(p) == 2
    d = displacements(p)
    assert d["values"] == [2, 4]
    assert d["infinite"]


def test_rigid_prefix_has_no_displacement():
    p = parse_lpath("lpath oneway poset{a,b} prefix[a] cycle(b)")
    assert least_shift_period(p) is None
    assert displacements(p)["values"] == []


# -- twin counting -----------------------------------------------------------------

def test_antichain_cycle_twins_are_rotations():
    for cycle, expected in (("a", 1), ("a,b", 2), ("a,b,c", 3)):
        p = parse_lpath(f"lpath oneway poset{{a,b,c}} prefix[] cycle({cycle})")
        count, reason = lpath_twin_count(p)
        assert count == expected, cycle
        assert "rotations" in reason
        twins = enumerate_lpath_twins(p)
        assert len(twins) == expected
        # pairwise distinct labellings, each mutually embeddable with p
        for i, t in enumerate(twins):
            assert lpath_equimorphic(p, t)
            for u in twins[i + 1 :]:
                assert t != u


def test_repeated_rotation_collapses():
    p = parse_lpath("lpath oneway poset{a,b} prefix[] cycle(a,b,a,b)")
    count, _ = lpath_twin_count(p)
    assert count == 2  # rotations of (a,b,a,b) give only two labellings


def test_non_periodic_prefix_means_rigid():
    p = parse_lpath("lpath oneway poset{a,b} prefix[a] cycle(b)")
    count, reason = lpath_twin_count(p)
    assert count == ONE
    assert "rigid" in reason


def test_twoway_zero_displacement_means_rigid():
    p = parse_lpath("lpath twoway poset{a,b} left(a) center[] right(b)")
    count, reason = lpath_twin_count(p)
    assert count == ONE
    assert displacements(p)["values"] == []


def test_ordered_cycle_gives_continuum_with_sample_family():
    p = parse_lpath("lpath oneway poset{0<a} prefix[] cycle(0,a)")
    count, reason = lpath_twin_count(p)
    assert count == CONTINUUM
    assert "lowered" in reason or "lower" in reason
    family = enumerate_lpath_twins(p, count=5)
    assert len(family) == 5
    for i, t in enumerate(family):
        assert lpath_equimorphic(p, t)
        for u in family[i + 1 :]:
            assert t != u


def test_analyze_bundles_the_verdict():
    info = analyze_lpath(parse_lpath("lpath oneway poset{0<a} prefix[] cycle(0,a)"))
    assert info["twin_count"] == CONTINUUM
    assert info["period"] == 2
    assert info["kind"] == "oneway"


# -- term twin generators ------------------------------------------------------------

def test_twin_n_prunes_growing_tops():
    t = parse_term("wsum([](succ(box)))")
    twins = [twin_n(t, n) for n in range(1, 6)]
    assert [w.seq.last_patch() for w in twins] == [4, 7, 10, 13, 16]
    for w in twins:
        assert equimorphic(t, w) == YES
        assert w != t


def test_twin_n_rejects_rigid_terms():
    with pytest.raises(TermError):
        twin_n(builtins()["ex4"], 1)


def test_twin_from_subset_marks_positions():
    ex1 = builtins()["ex1"]
    w = twin_from_subset(ex1, (1, 3, 6))
    assert equimorphic(ex1, w) == YES
    assert w != ex1


def test_twin_from_subset_rejects_noop_patches():
    # on a constant cycle, copying a component forward changes nothing
    with pytest.raises(TermError) as e:
        twin_from_subset(parse_term("wsum([](succ(box)))"), (1, 3, 6))
    assert "no-op" in str(e.value)


def test_almost_disjoint_family_overlaps_are_finite():
    fam = almost_disjoint_family(3)
    assert len(fam) == 3
    assert all(len(s) == 8 for s in fam)
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            assert len(set(a) & set(b)) <= 1


def test_verify_twins_runs_both_checks():
    t = parse_term("wsum([](succ(box)))")
    twins = [twin_n(t, n) for n in range(1, 4)]
    report = verify_twins(t, twins)
    assert report["ok"]
    assert report["all_mutual"]
    assert report["codes_distinct"]
    assert len(set(report["codes"])) == len(twins) + 1  # original included


def test_twins_report_and_json():
    t = parse_term("wsum([](succ(box)))")
    r = twins_report(t, 3)
    assert r["verified"]
    assert r["prune_tops"] == [4, 7, 10]
    data = json.loads(twin_json(r))
    assert data["verified"] is True
    assert len(data["family"]) == 3


def test_subset_twins_report_on_growing_components():
    r = subset_twins_report(builtins()["ex1"], 3)
    assert r["verified"]
    assert len(r["family"]) == 3
    assert len(r["sets"]) == 3


# -- properties -----------------------------------------------------------------------

_labels = st.sampled_from(["a", "b", "c"])


@given(st.lists(_labels, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_antichain_twin_count_divides_cycle_length(cycle):
    text = f"lpath oneway poset{{a,b,c}} prefix[] cycle({','.join(cycle)})"
    p = parse_lpath(text)
    count, _ = lpath_twin_count(p)
    assert isinstance(count, int)
    assert 1 <= count <= len(cycle)
    assert len(cycle) % count == 0  # rotations factor through the least period


@given(st.lists(_labels, min_size=1, max_size=4), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_cycle_length_shift_is_always_feasible(cycle, extra):
    text = f"lpath oneway poset{{a,b,c}} prefix[] cycle({','.join(cycle)})"
    p = parse_lpath(text)
    assert shift_feasible(p, len(cycle))
    # with no order relations, feasible shifts are exactly the multiples
    if shift_feasible(p, extra) and extra > 0:
        assert all(
            p.label(n) == p.label(n + extra) for n in range(len(cycle) * 3)
        )


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_generated_twin_family_verifies(n):
    t = parse_term("wsum([](succ(box)))")
    twins = [twin_n(t, k) for k in range(1, n + 1)]
    assert verify_twins(t, twins)["ok"]


# -- symbolic cut codes ---------------------------------------------------------

_CONTEXTS = ("succ(_)", "sup(_*2)", "succ(sup(_*2))", "sup(succ(_)*w)", "sup(_,succ(box))", "wsum([_](box))")


def _random_term(rng, depth):
    """Seeded term text over the whole grammar: omega arms, wsum and supseq
    over periodic, generated and patched sequences."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return "box"
    if roll < 0.4:
        return f"succ({_random_term(rng, depth - 1)})"
    if roll < 0.6:
        arms = [
            f"{_random_term(rng, depth - 1)}*{rng.choice(['1', '2', 'w'])}"
            for _ in range(rng.randrange(1, 3))
        ]
        return f"sup({','.join(arms)})"
    return f"{rng.choice(['wsum', 'supseq'])}({_random_seq(rng, depth - 1)})"


def _random_seq(rng, depth):
    roll = rng.random()
    if roll < 0.4:
        pre = ",".join(_random_term(rng, depth) for _ in range(rng.randrange(0, 2)))
        cyc = ",".join(_random_term(rng, depth) for _ in range(rng.randrange(1, 3)))
        return f"[{pre}]({cyc})"
    if roll < 0.7:
        return f"gen({_random_term(rng, depth)};{rng.choice(_CONTEXTS)})"
    patches = ",".join(
        f"{n}:{_random_term(rng, depth)}" for n in sorted(rng.sample(range(5), rng.randrange(1, 3)))
    )
    return f"patch({_random_seq(rng, depth)};{patches})"


def _oracle_corpus():
    rng = random.Random(7)
    terms = list(builtins().values())
    terms += [parse_term(_random_term(rng, 3)) for _ in range(60)]
    ex1 = builtins()["ex1"]
    terms += [twin_n(ex1, 1), twin_from_subset(ex1, (1, 3))]
    # spines that repeat with period 3 after a prefix, with and without patches
    terms += [
        parse_term("wsum([succ(box)](box,succ(box),succ(succ(box))))"),
        parse_term("wsum(patch([succ(box)](box,succ(box),succ(succ(box)));4:succ(box)))"),
    ]
    return terms


def test_cut_codes_match_canonical_codes_of_truncations():
    # every cut up to 3000 vertices: two symbolic codes are equal exactly
    # when the materialised cuts have equal AHU strings
    for width in (1, 2, 3):
        coder = CutCoder(width)
        pairs = set()
        for t in _oracle_corpus():
            for depth in range(9):
                cut = truncate(t, depth, width)
                if cut.tree.n > 3000:
                    break
                pairs.add((coder.code(t, depth), canonical_code(cut.rooted)))
        assert len({s for s, _ in pairs}) == len(pairs) == len({c for _, c in pairs})
        assert len(pairs) > 100


_PRINT_CODES = """
from scattree.terms import CutCoder, builtins
from scattree.twins import twin_from_subset, twin_n, verify_twins
ex1 = builtins()["ex1"]
coder = CutCoder(3)
print([coder.code(t, d) for t in builtins().values() for d in range(6)])
print(verify_twins(ex1, [twin_n(ex1, j) for j in (1, 2)] + [twin_from_subset(ex1, (2, 5))])["codes"])
"""


def test_cut_codes_repeat_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(scattree.__file__))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _PRINT_CODES], env=env, capture_output=True, text=True, check=True
        )
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 2


def test_ex2_twin_family_verifies_in_bounded_memory():
    # materialising ex2's cuts ran out of memory; the symbolic codes stay
    # far below the 50 MB ceiling
    ex2 = builtins()["ex2"]
    family = [twin_n(ex2, j) for j in range(1, 9)]
    tracemalloc.start()
    try:
        report = verify_twins(ex2, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["ok"]
    assert peak < 50 * 2**20


@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_twenty_member_families_verify(name):
    # the n-th member's pruned zone reaches position 3n + 2 or beyond, past
    # both a fixed depth-20 cut and a fixed shift horizon
    t = builtins()[name]
    report = verify_twins(t, [twin_n(t, j) for j in range(1, 21)])
    assert report["mutual"] == [YES] * 20
    assert report["codes_distinct"]


def _succ_chain(n):
    t = BOX
    for _ in range(n):
        t = Succ(t)
    return t


def test_deep_cuts_code_without_recursion():
    # a path of 3001 vertices, once as a succ chain and once as the spine of
    # wsum([](box)); both lie far past Python's recursion limit
    chain = _succ_chain(3000)
    assert chain == _succ_chain(3000)
    coder = CutCoder(2)
    assert coder.code(chain, 3000) == coder.code(parse_term("wsum([](box))"), 3000)
    assert coder.code(chain, 3000) != coder.code(chain, 2999)


def test_member_patched_past_the_reach_cap_gets_a_verdict():
    # twin_n(ex1, 300) is pruned up to spine position 901; verify_twins
    # follows patches only MAX_REACH deep, so the shift it needs stays
    # open, but the check returns instead of recursing 900 levels
    ex1 = builtins()["ex1"]
    report = verify_twins(ex1, [twin_n(ex1, 300)])
    assert report["mutual"] == [UNKNOWN]
    assert report["codes_distinct"]
    assert not report["ok"]
