import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import scattree
from scattree import embedding
from scattree.cuts import CutCoder, truncate
from scattree.embedding import shift_embeds
from scattree.stability import CONTINUUM, ONE
from scattree.terms import (
    BOX,
    Succ,
    Term,
    TermError,
    YES,
    builtins,
    parse_term,
    resolve_name,
    stage,
    stage_index,
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
    twin_from_subset,
    twin_n,
    verify_twins,
)


# -- posets ---------------------------------------------------------------------

def test_poset_closure_and_antichain():
    p = Poset({"0", "a", "b"}, [("0", "a"), ("a", "b")])
    assert p.le("0", "b")  # transitivity
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


def test_paths_past_the_continuum_rule_use_incomparable_labels():
    """`lpath_twin_count`'s last rule takes the used labels to be an
    antichain: a feasible shift r and used labels s < t, t at n, give
    label(n) <= label(n + jr) for every j, so a cycle label at or above t
    makes (s, that label) lowerable and the continuum rule answers first.
    Checked on 5000 seeded one-way paths that get past that rule."""
    rng = random.Random(28)
    reached = with_prefix = 0
    while reached < 5000:
        labels = "abcde"[: rng.randint(1, 5)]
        # relations from earlier to later letters only, so the order is acyclic
        relations = [(x, y) for i, x in enumerate(labels) for y in labels[i + 1 :] if rng.random() < 0.3]
        poset = Poset(labels, relations)
        prefix = [rng.choice(labels) for _ in range(rng.randint(0, 3))]
        cycle = [rng.choice(labels) for _ in range(rng.randint(1, 4))]
        p = LabelledPath("oneway", poset, prefix=prefix, cycle=cycle)
        if least_shift_period(p) is None or poset.strict_pairs_into(set(cycle)):
            continue
        reached += 1
        with_prefix += bool(prefix)
        used = set(prefix) | set(cycle)
        assert not any(s != t and poset.le(s, t) for s in used for t in used), format_lpath(p)
    assert with_prefix >= 1000


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
        assert shift_embeds(t, w) == shift_embeds(w, t) == YES
        assert w != t


def test_twin_n_rejects_rigid_terms():
    with pytest.raises(TermError):
        twin_n(builtins()["ex4"], 1)


def test_twin_from_subset_marks_positions():
    ex1 = builtins()["ex1"]
    w = twin_from_subset(ex1, (1, 3, 6))
    assert shift_embeds(ex1, w) == shift_embeds(w, ex1) == YES
    assert w != ex1


def test_twin_from_subset_rejects_noop_patches():
    # on a constant cycle, copying a component forward changes nothing
    with pytest.raises(TermError) as e:
        twin_from_subset(parse_term("wsum([](succ(box)))"), (1, 3, 6))
    assert "no-op" in str(e.value)


@pytest.mark.parametrize(
    "positions, message",
    [((), "at least one position"), ((1.5,), "integers, not 1.5"), ((2, "x"), "integers, not 'x'"), ((True,), "integers")],
)
def test_twin_from_subset_validates_positions(positions, message):
    with pytest.raises(TermError, match=message):
        twin_from_subset(builtins()["ex1"], positions)


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


@pytest.mark.parametrize("name", ["ex1", "ex3", "wsum([](succ(box)))"])
def test_one_family_memo_answers_as_fresh_memos(name):
    """verify_twins runs every mutual check through one memo; each member
    still gets the verdict it gets when verified alone, with a fresh
    memo."""
    t = resolve_name(name)
    family = [twin_n(t, j) for j in range(1, 7)]
    report = verify_twins(t, family)
    assert report["mutual"] == [verify_twins(t, [x])["mutual"][0] for x in family]
    assert report["ok"]


def test_verify_twins_needs_spined_sums():
    t = parse_term("wsum([](succ(box)))")
    bare = parse_term("sup(succ(box))")
    with pytest.raises(TermError):
        verify_twins(bare, [twin_n(t, 1)])
    with pytest.raises(TermError):
        verify_twins(t, [twin_n(t, 1), bare])


def test_twin_n_family_prune_tops():
    t = parse_term("wsum([](succ(box)))")
    family = [twin_n(t, j) for j in range(1, 4)]
    assert verify_twins(t, family)["ok"]
    assert [x.seq.last_patch() for x in family] == [4, 7, 10]


def test_subset_twins_report_on_growing_components():
    t = builtins()["ex1"]
    sets = almost_disjoint_family(3)
    family = [twin_from_subset(t, a) for a in sets]
    assert verify_twins(t, family)["ok"]
    assert len(family) == 3
    assert len(sets) == 3


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
    # generated spines, whose deep stages are coded as the least stage with
    # the same cut: contexts with the hole at depth 0 to 3, a *w arm on the
    # hole path, holes inside a context wsum, and patches that copy stages
    for ctx in _HOLE_CONTEXTS:
        for base in ("box", "succ(box)", "sup(box*w,succ(box))", "wsum([](box))"):
            terms += [parse_term(f"{kind}(gen({base};{ctx}))") for kind in ("wsum", "supseq")]
    for text in ("ex3", "wsum(gen(box;sup(succ(succ(_))*2)))", "wsum(gen(succ(box);wsum([box](_))))"):
        t = resolve_name(text)
        terms += [twin_from_subset(t, (0, 2)), twin_from_subset(t, (1, 3, 4))]
    terms.append(parse_term("wsum(patch(gen(box;succ(succ(_)));1:succ(succ(succ(succ(box)))),3:box))"))
    return terms


# hole depths 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3
_HOLE_CONTEXTS = (
    "sup(_,succ(box))",
    "wsum([_](box))",
    "succ(_)",
    "sup(succ(_)*w)",
    "wsum([box](_))",
    "succ(succ(_))",
    "succ(sup(succ(_)*2,box))",
    "wsum([succ(box),box](_))",
    "succ(succ(succ(_)))",
    "sup(succ(succ(succ(_)))*w,succ(box))",
    "succ(wsum([sup(box*2)](box,_)))",
)


def _capped_code(cut, width):
    """The AHU string of a materialised cut whose vertices each keep at most
    `width` children of each class, classes taken after the cap below."""
    tree, parent = cut.tree, {cut.root: None}
    order = [cut.root]
    for u in order:
        for v in tree.adj[u]:
            if v != parent[u]:
                parent[v] = u
                order.append(v)
    code = {}
    for u in reversed(order):
        counts = Counter(code[v] for v in tree.adj[u] if v != parent[u])
        code[u] = "(" + "".join(c * min(m, width) for c, m in sorted(counts.items())) + ")"
    return code[cut.root]


def test_cut_codes_match_canonical_codes_of_truncations():
    # every cut up to 3000 vertices: two symbolic codes are equal exactly
    # when the materialised cuts, each class of children capped at the
    # width, have equal AHU strings
    for width in (1, 2, 3):
        coder = CutCoder(width)
        pairs = set()
        for t in _oracle_corpus():
            for depth in range(9):
                cut = truncate(t, depth, width)
                if cut.tree.n > 3000:
                    break
                pairs.add((coder.code(t, depth), _capped_code(cut, width)))
        assert len({s for s, _ in pairs}) == len(pairs) == len({c for _, c in pairs})
        assert len(pairs) > 100


def test_cut_codes_are_isomorphism_invariants():
    # both trees are a root with w copies of succ(box), yet the plain cuts
    # hang 1 + width and width copies: a family whose members are all
    # isomorphic to the original must not verify
    coder = CutCoder(3)
    a, b = parse_term("sup(succ(box),succ(box)*w)"), parse_term("sup(succ(box)*w)")
    for depth in range(7):
        assert coder.code(a, depth) == coder.code(b, depth)
    comb = parse_term("wsum([](sup(succ(box),succ(box)*w),sup(succ(box)*w)))")
    family = [twin_from_subset(comb, s) for s in _cli_seed_sets(1, 3)]
    check = verify_twins(comb, family)
    assert check["mutual"] == [YES] * 3
    assert not check["codes_distinct"] and not check["ok"]


_PRINT_CODES = """
from scattree.cuts import CutCoder
from scattree.terms import builtins
from scattree.twins import twin_from_subset, twin_n, verify_twins
ex1 = builtins()["ex1"]
coder = CutCoder(3)
print([coder.code(t, d) for t in builtins().values() for d in range(6)])
print(verify_twins(ex1, [twin_n(ex1, j) for j in (1, 2)] + [twin_from_subset(ex1, (2, 5))])["codes"])
print([CutCoder(6).code(t, 40) for t in builtins().values()])
"""

# the ids _PRINT_CODES prints under every hash seed; the benchmark's twins
# digest hashes such ids, so a change of cut keys that renumbers them fails
_PINNED_CODES = """\
[0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 0, 1, 7, 9, 12, 15, 0, 1, 17, 19, 22, 25, 0, 6, 26, 27, 30, 33, 0, 16, 34, 36, 38, 42]
['20', '25', '33', '40']
[0, 40, 40, 40, 272, 59]
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
    assert outs[0] == outs[1] == _PINNED_CODES


def _cli_seed_sets(seed, count):
    """The position sets of `scattree twins --seed seed --count count`."""
    rng = random.Random(seed)
    offsets = rng.sample(range(max(6, count)), count)
    return [tuple(j * (j + 1) // 2 + off for j in range(1, 7)) for off in offsets]


# the first 16 hex digits of the sha256 of each family's verify_twins codes,
# as (term, members, --seed or None for twin_n); the comb rejects every set
_PINNED_FAMILY_CODES = {
    ("ex1", 3, None): "12ae7cd2e99ea0a3",
    ("ex1", 3, 1): "7411019892bc9032",
    ("ex1", 3, 2): "adea9f49448793c7",
    ("ex1", 3, 3): "71c4a868390e51f5",
    ("ex1", 8, None): "9119a9f1fd0de521",
    ("ex1", 8, 1): "01e8da3b08dec9e9",
    ("ex1", 8, 2): "263fdd32e5ec1731",
    ("ex1", 8, 3): "13168cd8c86f3102",
    ("ex3", 3, None): "32f8d742c577ffa6",
    ("ex3", 3, 1): "cfbe3c428b045b8a",
    ("ex3", 3, 2): "cf1fad3daeeb7ca4",
    ("ex3", 3, 3): "ab02cecda016bc90",
    ("ex3", 8, None): "7fa30b4ad32b76f6",
    ("ex3", 8, 1): "b39b2adb88654e96",
    ("ex3", 8, 2): "685e0a00bbdc8cac",
    ("ex3", 8, 3): "430e0eb1e5655699",
    ("wsum([](succ(box)))", 3, None): "12ae7cd2e99ea0a3",
    ("wsum([](succ(box)))", 8, None): "9119a9f1fd0de521",
}


@pytest.mark.parametrize("name", ["ex1", "ex3", "wsum([](succ(box)))"])
@pytest.mark.parametrize("members", [3, 8])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_twin_family_codes_are_pinned(name, members, seed):
    # the twins workload's families at the verify depths 20..30: the ids
    # are handed out in first-visit order, which a change of cut keys or of
    # child order renumbers
    t = resolve_name(name)
    if seed is None:
        family = [twin_n(t, j) for j in range(1, members + 1)]
    elif (name, members, seed) in _PINNED_FAMILY_CODES:
        family = [twin_from_subset(t, a) for a in _cli_seed_sets(seed, members)]
    else:
        with pytest.raises(TermError, match="no-op"):
            twin_from_subset(t, _cli_seed_sets(seed, members)[0])
        return
    codes = verify_twins(t, family, horizon=12)["codes"]
    assert hashlib.sha256(" ".join(codes).encode()).hexdigest()[:16] == _PINNED_FAMILY_CODES[name, members, seed]


@pytest.mark.parametrize("name, depth, most", [("ex1", 400, 1000), ("ex4", 400, 1000), ("ex3", 200, 7000)])
def test_cut_keys_grow_with_the_depth_not_the_stages(name, depth, most):
    # keyed by (stage, depth) the deep cuts of a generated spine take
    # quadratically many memo entries: 40401, 40601 and 13734 here
    coder = CutCoder(6)
    coder.code(builtins()[name], depth)
    assert len(coder._memo) <= most


def test_stage_index_compares_each_stage_once(monkeypatch):
    # every patch of a twin_n member is a box, which no stage of ex3 is: a
    # scan of stages 0..n + 1 per position compares quadratically often
    ex3 = builtins()["ex3"]
    seq = twin_n(ex3, 200).seq
    positions = seq.last_patch() + 2
    compared = []
    equal = Term.__eq__

    def counted_stage(s, n):
        compared.append(n)
        return stage(s, n)

    def counted_equal(a, b):
        compared.append(None)
        return equal(a, b)

    monkeypatch.setattr("scattree.terms.stage", counted_stage)
    monkeypatch.setattr(Term, "__eq__", counted_equal)
    found = [stage_index(seq, n) for n in range(positions)]
    assert found == [None] * (positions - 1) + [positions - 1]
    assert positions > 600 and len(compared) <= 2 * positions


def test_verify_twins_needs_a_member():
    with pytest.raises(TermError):
        verify_twins(builtins()["ex1"], [])


@pytest.mark.parametrize("width", [0, -1])
def test_cut_width_must_be_positive(width):
    ex2 = builtins()["ex2"]
    with pytest.raises(TermError):
        CutCoder(width)
    with pytest.raises(TermError):
        truncate(ex2, 3, width=width)


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


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "wsum([](succ(box),box))"])
def test_twenty_member_families_verify(name, monkeypatch):
    # the n-th member's pruned zone reaches position 3n + 2 or beyond, past
    # both a fixed depth-20 cut and any fixed shift
    t = resolve_name(name)
    family = [twin_n(t, j) for j in range(1, 21)]
    items = {t, *family}
    decide, touched = embedding.embeds, []

    def recorder(a, b, *rest):
        touched.append(a in items or b in items)
        return decide(a, b, *rest)

    monkeypatch.setattr(embedding, "embeds", recorder)
    report = verify_twins(t, family)
    assert report["mutual"] == [YES] * 20
    assert report["codes_distinct"]
    # the mutual checks are shift walks both ways: the root-to-root
    # relation is asked only about components, never about a member
    assert touched and not any(touched)


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


def test_sup_nests_code_without_recursion():
    # 1500 identified roots above one edge: the same cut as the edge alone,
    # and a generated spine of such nests verifies its twins
    assert sys.getrecursionlimit() <= 1000
    nest = parse_term("sup(" * 1500 + "succ(box)" + ")" * 1500)
    coder = CutCoder(6)
    assert coder.code(nest, 3) == coder.code(parse_term("succ(box)"), 3)
    t = parse_term("wsum(gen(box;" + "sup(" * 1500 + "succ(_)" + ")" * 1500 + "))")
    report = verify_twins(t, [twin_n(t, j) for j in (1, 2)])
    assert report["mutual"] == [YES, YES]
    assert report["ok"]


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_member_patched_900_deep_verifies(name):
    # twin_n(t, 300) is pruned up to spine position 900 or beyond: the
    # forth walk's shift and the cut follow it all the way, and a deep
    # stage pair is asked one stage deep, so no check recurses 900 levels
    assert sys.getrecursionlimit() <= 1000
    t = builtins()[name]
    report = verify_twins(t, [twin_n(t, 300)])
    assert report["mutual"] == [YES]
    assert report["ok"]


def test_two_hundred_member_periodic_family_verifies():
    # the 200th member is patched up to spine position 1201: its shift
    # and its cut reach that deep
    t = parse_term("wsum([](succ(box),box))")
    family = [twin_n(t, j) for j in range(1, 201)]
    assert max(x.seq.last_patch() for x in family) == 1201
    report = verify_twins(t, family)
    assert report["mutual"] == [YES] * 200
    assert report["codes_distinct"]
    assert report["ok"]
