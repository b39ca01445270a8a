import json

import pytest
from hypothesis import given, settings, strategies as st

from scattree.ordinals import OMEGA, ZERO, parse_ordinal, format_ordinal, succ as ord_succ
from scattree.ranks import (
    MANY,
    RankSummary,
    RankUndecided,
    build_rank_witness,
    lim_member,
    rank_summary,
)
from scattree.terms import (
    BOX,
    NO,
    OMEGA_MULT,
    Periodic,
    Succ,
    Sup,
    TermError,
    UNKNOWN,
    WSum,
    YES,
    builtins,
    parse_term,
    stage,
    vertex_count,
)


# -- fixture ranks -----------------------------------------------------------

def test_single_vertex_has_rank_zero():
    rs = rank_summary(BOX)
    assert rs.space_rank == ZERO
    assert rs.top_ends == 0
    assert not rs.limit_flag


def test_ray_rank_one_single_end():
    rs = rank_summary(builtins()["ray"])
    assert format_ordinal(rs.space_rank) == "1"
    assert rs.top_ends == 1
    assert not rs.limit_flag


def test_example_ranks_are_frozen():
    b = builtins()
    expect = {"ex1": "1", "ex2": "1", "ex3": "2", "ex4": "1"}
    for name, rank_text in expect.items():
        rs = rank_summary(b[name])
        assert format_ordinal(rs.space_rank) == rank_text, name
        assert rs.top_ends == 1, name
        assert not rs.limit_flag, name


def test_rank_of_end_space_shortcut():
    assert rank_summary(builtins()["ex3"]).space_rank == parse_ordinal("2")


def test_component_growth_doubles_each_stage():
    seq = builtins()["ex1"].seq
    for n in range(8):
        assert vertex_count(stage(seq, n)) == 2**n


# -- union and spine arithmetic ------------------------------------------------

def test_union_takes_max_rank_and_counts_top_ends():
    w1 = build_rank_witness(parse_ordinal("1"))
    w2 = build_rank_witness(parse_ordinal("2"))
    both = rank_summary(Sup(((w2, 1), (w1, 2))))
    assert format_ordinal(both.space_rank) == "2"
    assert both.top_ends == 1  # the rank-1 ends sit below the top level

    two = rank_summary(Sup(((w1, 2),)))
    assert two.top_ends == 2

    many = rank_summary(Sup(((w1, 3),)))
    assert many.top_ends == MANY

    unbounded = rank_summary(Sup(((w1, OMEGA_MULT),)))
    assert unbounded.top_ends == MANY


def test_spine_end_sits_one_above_cyclic_components():
    # components of rank 0 repeat forever; the spine end has rank exactly 1
    rs = rank_summary(parse_term("wsum([](succ(box)))"))
    assert format_ordinal(rs.space_rank) == "1"
    assert rs.top_ends == 1


def test_finite_prefix_component_can_dominate_the_spine():
    w2 = build_rank_witness(parse_ordinal("2"))
    t = WSum(Periodic((w2,), (BOX,)))
    rs = rank_summary(t)
    assert format_ordinal(rs.space_rank) == "2"
    assert rs.top_ends == 1
    assert not rs.limit_flag


def test_two_ends_from_doubled_ray():
    rs = rank_summary(parse_term("sup(wsum([](box))*2)"))
    assert format_ordinal(rs.space_rank) == "1"
    assert rs.top_ends == 2


def test_supseq_of_rays_has_many_top_ends():
    rs = rank_summary(parse_term("supseq([succ(box)](wsum([](box))))"))
    assert format_ordinal(rs.space_rank) == "1"
    assert rs.top_ends == MANY


def test_limit_rank_from_unbounded_union():
    w = build_rank_witness(OMEGA)
    rs = rank_summary(Sup(((w, 1), (Succ(BOX), 1))))
    assert rs.space_rank == OMEGA
    assert rs.top_ends == 0
    assert rs.limit_flag


def test_summary_json_shape():
    data = json.loads(rank_summary(builtins()["ex3"]).to_json())
    assert data == {"rank": "2", "top_ends": 1, "limit": False}


# -- witnesses -----------------------------------------------------------------

def test_witness_round_trips_through_summary():
    for text in ("0", "1", "2", "3", "w", "w+1", "w*2"):
        alpha = parse_ordinal(text)
        rs = rank_summary(build_rank_witness(alpha))
        assert rs.space_rank == alpha, text
        if alpha.is_zero():
            assert rs.top_ends == 0 and not rs.limit_flag
        elif alpha.is_successor():
            assert rs.top_ends == 1 and not rs.limit_flag, text
        else:
            assert rs.top_ends == 0 and rs.limit_flag, text


def test_witness_rejects_ordinals_at_or_above_w_squared():
    with pytest.raises(TermError):
        build_rank_witness(parse_ordinal("w^2"))
    with pytest.raises(TermError):
        build_rank_witness(parse_ordinal("w^2+w"))


# -- generated sequences -------------------------------------------------------

def test_growing_generator_realizes_a_limit():
    # each stage wraps the last in one more spined sum: ranks 0,1,2,...
    rs = rank_summary(parse_term("supseq(gen(box;wsum([](_))))"))
    assert rs.space_rank == OMEGA
    assert rs.limit_flag


def test_stable_generator_is_decided():
    # stages grow in size but stay at rank 1
    rs = rank_summary(builtins()["ex1"])
    assert format_ordinal(rs.space_rank) == "1"


def test_double_step_growth_is_undecided():
    t = parse_term("wsum(gen(box;wsum([](wsum([](_))))))")
    with pytest.raises(RankUndecided) as e:
        rank_summary(t)
    assert "unit-step" in str(e.value)


# -- limit membership ------------------------------------------------------------

def test_lim_member_trichotomy():
    w = build_rank_witness(OMEGA)
    assert lim_member(w, ()) == YES  # the root sees every stage
    assert lim_member(w, (("arm", 2, 0),)) == NO  # inside one bounded stage


def test_lim_member_unknown_outside_supseq():
    w = build_rank_witness(OMEGA)
    glued = Sup(((w, 1), (Succ(BOX), 1)))
    assert rank_summary(glued).limit_flag
    assert lim_member(glued, ()) == UNKNOWN


def test_lim_member_requires_limit_rank():
    with pytest.raises(RankUndecided):
        lim_member(builtins()["ray"], ())


# -- properties ------------------------------------------------------------------

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
@settings(max_examples=80)
def test_subdividing_an_edge_keeps_the_summary(text):
    t = parse_term(text)
    assert rank_summary(Succ(t)) == rank_summary(t)


@given(_terms_text)
@settings(max_examples=80)
def test_cyclic_spine_wrap_adds_exactly_one(text):
    t = parse_term(text)
    wrapped = rank_summary(WSum(Periodic((), (t,))))
    assert wrapped.space_rank == ord_succ(rank_summary(t).space_rank)
    assert wrapped.top_ends == 1
    assert not wrapped.limit_flag


@given(_terms_text, _terms_text)
@settings(max_examples=80)
def test_union_rank_is_the_max(a_text, b_text):
    a, b = parse_term(a_text), parse_term(b_text)
    u = rank_summary(Sup(((a, 1), (b, 1))))
    assert u.space_rank == max(
        rank_summary(a).space_rank, rank_summary(b).space_rank
    )
