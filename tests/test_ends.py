import json

import pytest
from hypothesis import given, settings, strategies as st

from scattree.ends import (
    OriginUndefined,
    origin_vertex,
    regular_components,
    shift_report,
)
from scattree.terms import (
    NO,
    Patched,
    TermError,
    UNKNOWN,
    YES,
    WSum,
    builtins,
    parse_term,
    spine_address,
)


# -- fixture reports -----------------------------------------------------------

def test_ray_shifts_by_every_amount():
    r = shift_report(builtins()["ray"])
    assert r.periods == (1, 2, 3, 4, 5, 6, 7, 8)
    assert r.d == 1
    assert r.almost_rigid == NO
    assert r.regular == YES
    assert r.origin_index == 0
    assert r.origin_error is None
    assert r.eventual == {k: 0 for k in range(1, 9)}


def test_growing_examples_shift_but_are_irregular():
    b = builtins()
    for name in ("ex1", "ex2", "ex3"):
        r = shift_report(b[name])
        assert r.periods == (1, 2, 3, 4, 5, 6, 7, 8), name
        assert r.d == 1, name
        assert r.almost_rigid == NO, name
        assert r.regular == NO, name
        assert r.origin_index is None, name
        assert "infinitely many equimorphy classes" in r.origin_error, name


def test_branching_base_blocks_every_shift():
    r = shift_report(builtins()["ex4"])
    assert r.periods == ()
    assert r.d is None
    assert r.eventual == {}
    assert r.almost_rigid == YES
    assert r.regular == NO


def test_prefix_decoration_shifts_only_eventually():
    # a star pinned at spine vertex 1 blocks strict shifts, but the tail
    # beyond it is a bare ray
    t = parse_term("wsum([sup(succ(box)*3)](box))")
    r = shift_report(t)
    assert r.periods == ()
    assert r.d is None
    assert r.eventual == {k: 1 for k in range(1, 9)}
    assert r.almost_rigid == YES
    assert r.regular == YES
    assert r.origin_index == 1


def test_patched_ray_recovers_shifts():
    # overriding position 0 with a bare vertex leaves a shiftable tail
    t = parse_term("wsum(patch([](succ(box));0:box))")
    r = shift_report(t)
    assert r.periods == (1, 2, 3, 4, 5, 6, 7, 8)
    assert r.d == 1
    assert r.almost_rigid == NO
    assert r.origin_index == 1


def test_shift_report_needs_a_spined_sum():
    with pytest.raises(TermError):
        shift_report(parse_term("succ(box)"))


def test_report_json_shape():
    data = json.loads(shift_report(builtins()["ray"]).to_json())
    assert data["periods"] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert data["d"] == 1
    assert data["origin"] == "spine[0]"
    assert data["almost_rigid"] == NO
    assert data["regular"] == YES
    assert data["origin_error"] is None
    assert data["eventual"]["1"] == 0


# -- origin ---------------------------------------------------------------------

def test_origin_vertex_addresses():
    assert origin_vertex(builtins()["ray"]) == spine_address(0)
    star = parse_term("wsum([sup(succ(box)*3)](box))")
    assert origin_vertex(star) == spine_address(1)


def test_origin_undefined_for_irregular_components():
    with pytest.raises(OriginUndefined) as e:
        origin_vertex(builtins()["ex1"])
    assert "infinitely many equimorphy classes" in str(e.value)


# -- regularity certificates ------------------------------------------------------

def test_periodic_components_are_regular():
    verdict, reason = regular_components(builtins()["ray"].seq)
    assert verdict == YES
    assert reason == "finitely many component terms"


def test_overrides_keep_regularity():
    seq = parse_term("wsum(patch([](succ(box));0:box))").seq
    verdict, reason = regular_components(seq)
    assert verdict == YES
    assert "overrides" in reason


def test_equimorphy_cycle_certificate():
    seq = parse_term("wsum(gen(succ(box);sup(_*1)))").seq
    verdict, reason = regular_components(seq)
    assert verdict == YES
    assert "classes cycle" in reason


def test_vertex_count_growth_certificate():
    verdict, reason = regular_components(builtins()["ex1"].seq)
    assert verdict == NO
    assert "vertex counts grow" in reason


def test_height_growth_certificate():
    seq = parse_term("wsum(gen(sup(succ(box)*w);succ(_)))").seq
    verdict, reason = regular_components(seq)
    assert verdict == NO
    assert "heights grow" in reason


def test_branch_growth_certificate():
    verdict, reason = regular_components(builtins()["ex3"].seq)
    assert verdict == NO
    assert "branch counts grow" in reason


def test_regularity_can_stay_unknown():
    seq = parse_term("wsum(gen(box;sup(_*1,wsum([](box))*1)))").seq
    verdict, _ = regular_components(seq)
    assert verdict == UNKNOWN


# -- honesty under undecided embeddings ---------------------------------------------

def test_undecided_components_surface_in_notes():
    t = parse_term("wsum(gen(supseq(gen(box;succ(_)));succ(_)))")
    r = shift_report(t)
    assert r.periods == ()
    assert r.almost_rigid == UNKNOWN
    assert any("undecided" in n for n in r.notes)


def test_almost_rigid_shortcut_matches_report():
    assert shift_report(builtins()["ex4"]).almost_rigid == YES


@pytest.mark.parametrize(
    "text",
    [
        "wsum(patch(gen(box;succ(sup(_*2)));3:succ(box)))",
        "wsum(patch(gen(box;sup(succ(_)*2));2:succ(box)))",
        "wsum(patch(gen(succ(box);sup(_*2));3:succ(box)))",
    ],
)
def test_strict_periods_hold_eventually_from_zero(text):
    # a strict period is the eventual question at offset 0; both read the
    # generated tail past the patch with the same rule, so they agree even
    # where the stage at the tail is too large to compare
    r = shift_report(parse_term(text))
    assert 4 in r.periods
    for k in r.periods:
        assert r.eventual[k] == 0


def test_patched_sequence_without_patches_reads_as_its_inner_sequence():
    ray = builtins()["ray"]
    bare, plain = (json.loads(shift_report(t).to_json()) for t in (WSum(Patched(ray.seq, {})), ray))
    # only the regularity note mentions the (empty) overrides
    del bare["notes"], plain["notes"]
    assert bare == plain


# -- properties -----------------------------------------------------------------

_component = st.sampled_from(
    ["box", "succ(box)", "succ(succ(box))", "sup(succ(box)*2)"]
)


@given(
    st.lists(_component, max_size=2),
    st.lists(_component, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_periodic_spines_always_get_an_origin(prefix, cycle):
    text = f"wsum([{','.join(prefix)}]({','.join(cycle)}))"
    r = shift_report(parse_term(text))
    # finite components decide everything: regularity holds and some
    # equimorphy period starts within the prefix
    assert r.regular == YES
    assert r.origin_index is not None
    assert r.origin_index <= len(prefix) + 2 * len(cycle) + 1
    assert r.almost_rigid in (YES, NO)
    if r.periods:
        assert r.d == min(r.periods)
        assert r.almost_rigid == NO


@given(st.lists(_component, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_pure_cycles_shift_by_their_length(cycle):
    text = f"wsum([]({','.join(cycle)}))"
    r = shift_report(parse_term(text))
    # with no prefix, shifting by the cycle length maps each component to
    # an identical one
    assert len(cycle) in r.periods
    assert r.eventual[len(cycle)] == 0
