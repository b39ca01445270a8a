import random

import pytest
from hypothesis import given, settings, strategies as st

from scattree.finite_trees import canonical_code, path_tree, rooted_embeds, star_tree
from scattree.terms import (
    BOX,
    Context,
    Generated,
    HOLE,
    INF,
    NO,
    Patched,
    Periodic,
    Succ,
    Sup,
    TermError,
    UNKNOWN,
    WSum,
    YES,
    address_distance,
    builtins,
    embeds,
    equimorphic,
    expand_finite,
    format_term,
    height,
    is_rayless,
    join_address,
    level,
    parse_term,
    resolve,
    resolve_name,
    root_degree,
    shift_seq,
    spine_address,
    stage,
    truncate,
    truncation_dot,
    vertex_count,
)

RAY = "wsum([](box))"


# -- parsing and printing -----------------------------------------------------

def test_round_trip_core_forms():
    for text in (
        "box",
        "succ(box)",
        "sup(box*2)",
        "sup(succ(box)*3,box)",
        "sup(succ(box)*w)",
        "wsum([](box))",
        "wsum([succ(box)](box,sup(box*2)))",
        "wsum(gen(box;succ(sup(_*2))))",
        "wsum(patch([](succ(box));0:box,3:sup(box*2)))",
        "supseq(gen(box;succ(_)))",
    ):
        assert format_term(parse_term(text)) == text


def test_multiplicity_one_is_elided():
    assert parse_term("sup(box*2,succ(box)*1)") == parse_term("sup(box*2,succ(box))")
    assert format_term(parse_term("sup(box*2,succ(box)*1)")) == "sup(box*2,succ(box))"


def test_parse_errors_carry_position():
    with pytest.raises(TermError) as e:
        parse_term("sup(box")
    assert "position" in str(e.value)
    with pytest.raises(TermError):
        parse_term("wsum(box)")  # wsum needs a sequence
    with pytest.raises(TermError):
        parse_term("gen(box;succ(_))")  # a sequence is not a term
    with pytest.raises(TermError):
        parse_term("")


def test_context_has_exactly_one_hole():
    with pytest.raises(TermError):
        parse_term("wsum(gen(box;succ(box)))")  # no hole
    with pytest.raises(TermError):
        parse_term("wsum(gen(box;sup(_*2,succ(_)*1)))")  # two holes
    # multiplicity on the hole arm is fan-out, not extra holes
    parse_term("wsum(gen(box;sup(_*2)))")
    parse_term("wsum(gen(box;sup(_*w)))")


def test_builtin_names_resolve():
    table = builtins()
    assert set(table) == {"box", "ray", "ex1", "ex2", "ex3", "ex4"}
    assert resolve_name("ray") == table["ray"]
    assert resolve_name(" sup(box*2) ") == parse_term("sup(box*2)")


def test_structural_equality_and_hash():
    a = parse_term("sup(succ(box)*2)")
    b = parse_term("sup(succ(box)*2)")
    assert a == b and hash(a) == hash(b)
    assert a != parse_term("sup(succ(box)*3)")


# -- components ---------------------------------------------------------------

def test_stage_periodic_and_patched():
    seq = parse_term("wsum([succ(box)](box,sup(box*2)))").seq
    assert stage(seq, 0) == parse_term("succ(box)")
    assert stage(seq, 1) == BOX
    assert stage(seq, 2) == parse_term("sup(box*2)")
    assert stage(seq, 3) == BOX
    patched = Patched(seq, {1: parse_term("succ(succ(box))")})
    assert stage(patched, 1) == parse_term("succ(succ(box))")
    assert stage(patched, 3) == BOX


def test_stage_generated_applies_context():
    ex1 = builtins()["ex1"]
    s0, s1, s2 = (stage(ex1.seq, j) for j in range(3))
    assert s0 == BOX
    assert s1 == parse_term("succ(sup(box*2))")
    assert s2 == parse_term("succ(sup(succ(sup(box*2))*2))")


def test_example_stage_size_law():
    ex1 = builtins()["ex1"]
    for n in range(11):
        assert vertex_count(stage(ex1.seq, n)) == 2 ** n


def test_shift_seq():
    seq = parse_term("wsum([succ(box)](box,sup(box*2)))").seq
    shifted = shift_seq(seq, 2)
    for n in range(6):
        assert stage(shifted, n) == stage(seq, n + 2)


# -- measures -------------------------------------------------------------------

def test_vertex_count_and_height():
    assert vertex_count(BOX) == 1
    assert vertex_count(parse_term("sup(succ(box)*3)")) == 4
    assert vertex_count(parse_term("sup(succ(box)*w)")) == INF
    assert vertex_count(builtins()["ray"]) == INF
    assert height(BOX) == 0
    assert height(parse_term("succ(succ(box))")) == 2
    assert height(builtins()["ray"]) == INF


def test_root_degree():
    assert root_degree(BOX) == 0
    assert root_degree(parse_term("sup(succ(box)*3)")) == 3
    assert root_degree(parse_term("sup(succ(box)*w)")) == "w"
    assert root_degree(builtins()["ray"]) == 1  # spine only
    assert root_degree(parse_term("wsum([succ(box)](box))")) == 2


def test_rayless_detection():
    assert is_rayless(BOX)
    assert is_rayless(parse_term("sup(succ(box)*w)"))
    assert not is_rayless(builtins()["ray"])
    # a union of ever-longer finite paths glued at the root has no infinite ray
    assert is_rayless(parse_term("supseq(gen(box;succ(_)))"))
    assert not is_rayless(parse_term("sup(wsum([](box))*2)"))


# -- truncation ------------------------------------------------------------------

def test_truncate_finite_term_is_exact():
    t = parse_term("sup(succ(succ(box))*2)")
    tr = truncate(t, 5)
    assert not tr.lossy
    assert tr.tree.n == 5
    assert canonical_code(tr.rooted) == canonical_code(expand_finite(t))


def test_truncate_cuts_depth_and_width():
    ray = builtins()["ray"]
    tr = truncate(ray, 4)
    assert tr.lossy
    assert tr.tree.n == 5
    assert list(tr.spine) == [0, 1, 2, 3, 4]
    fan = parse_term("sup(succ(box)*w)")
    # each kept arm copy shares its root with the sup vertex, adding one leaf
    cut = truncate(fan, 3, width=2)
    assert cut.lossy and cut.tree.n == 3  # root + 2 kept leaves

    wide = truncate(fan, 3, width=5)
    assert wide.tree.n == 6


def test_truncate_width_not_lossy_when_nothing_hidden():
    t = parse_term("sup(succ(box)*2)")
    tr = truncate(t, 3, width=2)
    assert not tr.lossy


def test_truncation_dot_marks_spine():
    tr = truncate(builtins()["ray"], 2)
    dot = truncation_dot(tr)
    assert "shape=square" in dot and "graph truncation" in dot


def test_expand_finite_raises_on_infinite():
    with pytest.raises(TermError):
        expand_finite(builtins()["ray"])


# -- addresses --------------------------------------------------------------------

def test_resolve_spine_and_arm():
    ex4 = builtins()["ex4"]
    spine3 = resolve(ex4, spine_address(3))
    assert spine3.spine_index == 3 and spine3.depth_below == 0
    # spine vertex 2 carries succ(sup(stage1*2)); walk into the sup, scope
    # into the first arm copy (its root is the sup vertex itself), then down
    below = resolve(ex4, (("spine", 2), ("into",), ("arm", 0, 0), ("into",)))
    assert below.spine_index == 2
    assert below.depth_below == 2


def test_level_is_spine_minus_depth():
    ray = builtins()["ray"]
    assert level(ray, spine_address(0)) == 0
    assert level(ray, spine_address(7)) == 7
    t = parse_term("wsum([](succ(box)))")
    deep = (("spine", 4), ("into",))
    assert level(t, deep) == 3  # one step below spine position 4


def test_join_and_distance():
    ray = builtins()["ray"]
    a, b = spine_address(2), spine_address(6)
    assert join_address(ray, a, b) == spine_address(6)
    assert address_distance(ray, a, b) == 4
    t = parse_term("wsum([](succ(box)))")
    x = (("spine", 1), ("into",))
    y = (("spine", 3), ("into",))
    assert address_distance(t, x, y) == 4  # up, along the spine, down
    assert join_address(t, x, y) == spine_address(3)
    assert join_address(t, x, (("spine", 1),)) == (("spine", 1),)


def test_bad_addresses_raise():
    ray = builtins()["ray"]
    with pytest.raises(TermError):
        resolve(ray, (("spine", 0), ("into",)))  # box has no child
    with pytest.raises(TermError):
        resolve(parse_term("sup(box*2)"), (("arm", 5, 0),))


# -- embedding engine --------------------------------------------------------------

def test_embeds_finite_exact():
    assert embeds(parse_term("succ(box)"), parse_term("succ(succ(box))")) == YES
    assert embeds(parse_term("succ(succ(box))"), parse_term("succ(box)")) == NO
    assert embeds(parse_term("sup(succ(box)*2)"), parse_term("sup(succ(box)*3)")) == YES
    assert embeds(parse_term("sup(succ(box)*3)"), parse_term("sup(succ(box)*2)")) == NO
    # the two-vertex paths must leave the first arm of the target to the
    # three-vertex paths, and only as many as they hold there can move
    target = parse_term("sup(succ(succ(succ(box)))*3,succ(succ(box))*5)")
    fits = parse_term("sup(succ(succ(box))*1,succ(succ(succ(box)))*3)")
    assert embeds(fits, target) == YES
    assert embeds(parse_term("sup(succ(succ(box))*1,succ(succ(succ(box)))*4)"), target) == NO
    # large multiplicities are matched as amounts, not as unit copies
    many, more = parse_term("sup(succ(box)*100000)"), parse_term("sup(succ(box)*100001)")
    assert embeds(many, more) == YES
    assert embeds(more, many) == NO
    # consecutive stages far past any expandable size: ex1's stage n sits
    # below the root of stage n+1; ex4's root degree drops from 3 to 1 at
    # stage 1, and that failure is inherited by every later pair
    for name, verdict in (("ex1", YES), ("ex4", NO)):
        seq = builtins()[name].seq
        for n in (11, 12, 40, 200):
            assert embeds(stage(seq, n), stage(seq, n + 1)) == verdict, (name, n)


def _finite_term(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return BOX
    if rng.random() < 0.4:
        return Succ(_finite_term(rng, depth - 1))
    return Sup(
        tuple((_finite_term(rng, depth - 1), rng.randint(1, 7)) for _ in range(rng.randint(1, 2)))
    )


def _grown(rng, t):
    """A finite term that contains ``t`` root-to-root: somewhere below the
    root a multiplicity rises or a sibling is added.  Arms are listed in a
    new order, so a greedy matching of children would have to undo its
    first choices."""
    if isinstance(t, Succ) and rng.random() < 0.7:
        return Succ(_grown(rng, t.child))
    if isinstance(t, Sup) and rng.random() < 0.7:
        arms = list(t.arms)
        k = rng.randrange(len(arms))
        a, m = arms[k]
        arms[k] = (a, m + 1) if rng.random() < 0.5 else (_grown(rng, a), m)
        return Sup(arms[::-1])
    return Sup(((_finite_term(rng, 2), rng.randint(1, 3)), (t, 1)))


def test_embeds_agrees_with_the_finite_oracle():
    # on finite terms embeds is exact: it must answer yes or no, and agree
    # with the matching of the materialised trees
    rng = random.Random(4)
    pairs = [(_finite_term(rng, 4), _finite_term(rng, 4)) for _ in range(1000)]
    for _ in range(500):
        t = _finite_term(rng, 4)
        g = _grown(rng, t)
        pairs += [(t, g), (g, t)]
    verdicts = set()
    for t, s in pairs:
        expected = YES if rooted_embeds(expand_finite(t), expand_finite(s)) else NO
        assert embeds(t, s) == expected, (format_term(t), format_term(s))
        verdicts.add(expected)
    assert verdicts == {YES, NO}


def test_embeds_box_everywhere():
    for text in ("box", "succ(box)", RAY, "sup(succ(box)*w)"):
        assert embeds(BOX, parse_term(text)) == YES
    assert embeds(parse_term("succ(box)"), BOX) == NO


def test_embeds_infinite_into_finite_is_no():
    assert embeds(parse_term(RAY), parse_term("succ(succ(box))")) == NO


def test_embeds_ray_shifts():
    ray = parse_term(RAY)
    assert embeds(ray, parse_term("succ(" + RAY + ")")) == YES
    assert embeds(parse_term("succ(" + RAY + ")"), ray) == YES
    assert equimorphic(ray, parse_term("succ(succ(" + RAY + "))")) == YES


def test_embeds_omega_mult_shares_one_subtree():
    # all omega copies are identical, so a second identical branch packs in
    t = parse_term("sup(succ(box)*2)")
    s = parse_term("sup(succ(box)*w)")
    assert embeds(t, s) == YES
    assert embeds(s, t) == NO  # omega fan cannot enter a finite tree


def test_embeds_periodic_wsum_shift_rule():
    a = parse_term("wsum([](succ(box)))")
    b = parse_term("wsum([box,box](succ(box)))")
    assert equimorphic(a, b) == YES
    c = parse_term("wsum([](sup(succ(box)*2)))")
    assert embeds(a, c) == YES
    assert embeds(c, a) == NO


def test_embeds_generated_monotone():
    ex1 = builtins()["ex1"]
    assert embeds(stage(ex1.seq, 0), stage(ex1.seq, 1)) == YES
    assert embeds(stage(ex1.seq, 2), stage(ex1.seq, 5)) == YES
    assert embeds(stage(ex1.seq, 3), stage(ex1.seq, 2)) == NO


def test_embeds_self():
    for name, t in builtins().items():
        assert embeds(t, t) == YES, name


def test_patched_twin_equimorphy():
    base = parse_term("wsum([](succ(box)))")
    pruned = WSum(Patched(base.seq, {j: BOX for j in range(5)}))
    assert equimorphic(base, pruned) == YES
    # pruning is not the identity
    assert pruned != base


def test_tri_logic_unknown_is_honest():
    # supseq targets beyond the packing rule stay undecided, never wrong
    t = parse_term("supseq(gen(box;succ(_)))")
    s = parse_term("supseq(gen(box;succ(succ(_))))")
    assert embeds(t, s) in (YES, UNKNOWN)


# -- property tests -----------------------------------------------------------------

_leaf = st.just("box")


def _grow(inner):
    return st.one_of(
        inner.map(lambda t: f"succ({t})"),
        st.tuples(inner, st.sampled_from([1, 2, 3, "w"])).map(
            lambda p: f"sup({p[0]}*{p[1]})"
        ),
        st.tuples(inner, inner).map(lambda p: f"sup({p[0]}*1,{p[1]}*2)"),
        inner.map(lambda t: f"wsum([]({t}))"),
        st.tuples(inner, inner).map(lambda p: f"wsum([{p[0]}]({p[1]}))"),
    )


_terms_text = st.recursive(_leaf, _grow, max_leaves=6)


@given(_terms_text)
@settings(max_examples=120)
def test_format_parse_round_trip(text):
    t = parse_term(text)
    assert parse_term(format_term(t)) == t


@given(_terms_text)
@settings(max_examples=80)
def test_every_term_embeds_in_itself(text):
    t = parse_term(text)
    assert embeds(t, t) == YES


@given(_terms_text)
@settings(max_examples=80)
def test_root_glued_wrapper_contains_original(text):
    # gluing an extra pendant leaf onto the root keeps the original inside,
    # root to root; the engine must never refute that
    t = parse_term(text)
    s = Sup(((t, 1), (Succ(BOX), 1)))
    assert embeds(t, s) in (YES, UNKNOWN)
    if vertex_count(t) != INF:
        assert embeds(t, s) == YES


@given(_terms_text, st.integers(min_value=0, max_value=5))
@settings(max_examples=60)
def test_truncation_monotone_in_depth(text, depth):
    t = parse_term(text)
    small = truncate(t, depth, width=3)
    big = truncate(t, depth + 2, width=3)
    from scattree.finite_trees import RootedFiniteTree, rooted_embeds

    assert rooted_embeds(small.rooted, big.rooted)
