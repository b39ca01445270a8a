import json

from scattree.ordinals import OMEGA
from scattree.ranks import build_rank_witness
from scattree.stability import (
    CONTINUUM,
    INFINITE,
    ONE,
    VARIANT_CORE,
    VARIANT_FIXED,
    VARIANT_RAYLESS_INF,
    VARIANT_TWO,
    VARIANT_UEF,
    classify,
    twin_cardinality,
)
from scattree.terms import NO, UNKNOWN, YES, builtins, parse_term


# -- variants -----------------------------------------------------------------

def test_finite_trees_pin_a_center():
    c = classify(parse_term("sup(succ(box)*3)"))
    assert c.variant == VARIANT_FIXED
    assert c.fields["center"]["kind"] == "vertex"
    assert c.twins == ONE


def test_finite_path_even_order_pins_an_edge():
    c = classify(parse_term("succ(box)"))  # two vertices: center is the edge
    assert c.variant == VARIANT_FIXED
    assert c.fields["center"]["kind"] == "edge"


def test_supseq_of_single_vertices_is_a_finite_tree():
    c = classify(parse_term("supseq([](box))"))
    assert c.variant == VARIANT_FIXED
    assert c.fields["center"] == {"kind": "vertex", "at": 0}
    assert c.twins == ONE


def test_supseq_with_one_late_larger_component_is_a_finite_tree():
    c = classify(parse_term("supseq(patch([](box);3:succ(box)))"))
    assert c.variant == VARIANT_FIXED
    assert c.fields["center"] == {"kind": "edge", "at": [0, 1]}
    assert c.twins == ONE


def test_infinite_rayless_tree_keeps_fixed_structure():
    c = classify(parse_term("sup(succ(box)*w)"))
    assert c.variant == VARIANT_RAYLESS_INF
    assert c.twins == UNKNOWN

    tall = classify(parse_term("supseq(gen(box;succ(_)))"))
    assert tall.variant == VARIANT_RAYLESS_INF


def test_single_ray_is_unique_end_forward():
    c = classify(builtins()["ray"])
    assert c.variant == VARIANT_UEF
    assert c.fields["regular"] == YES
    assert c.fields["almost_rigid"] == NO
    assert c.fields["d"] == 1
    assert c.twins == ONE


def test_two_maximal_ends_form_a_preserved_pair():
    c = classify(parse_term("sup(wsum([](box))*2)"))
    assert c.variant == VARIANT_TWO


def test_many_maximal_ends_preserve_a_rayless_core():
    c = classify(parse_term("sup(wsum([](box))*w)"))
    assert c.variant == VARIANT_CORE
    assert c.fields["top_ends"] == "many"
    assert not c.fields["limit"]


def test_limit_rank_preserves_a_rayless_core():
    c = classify(build_rank_witness(OMEGA))
    assert c.variant == VARIANT_CORE
    assert c.fields["rank"] == "w"
    assert c.fields["top_ends"] == 0
    assert c.fields["limit"] is True


# -- twin cardinality ------------------------------------------------------------

def test_growing_examples_have_continuum_twins():
    b = builtins()
    for name in ("ex1", "ex2", "ex3"):
        c = classify(b[name])
        assert c.variant == VARIANT_UEF, name
        assert c.fields["regular"] == NO, name
        assert c.fields["almost_rigid"] == NO, name
        assert c.twins == CONTINUUM, name


def test_almost_rigid_example_has_no_twin():
    c = classify(builtins()["ex4"])
    assert c.variant == VARIANT_UEF
    assert c.fields["almost_rigid"] == YES
    assert c.twins == ONE


def test_regular_shiftable_decoration_gives_infinitely_many():
    t = parse_term("wsum(patch([](succ(box));0:box))")
    verdict, reason = twin_cardinality(t)
    assert verdict == INFINITE
    assert "pruned initial segments" in reason


def test_bare_path_is_its_only_twin():
    verdict, _ = twin_cardinality(builtins()["ray"])
    assert verdict == ONE


def test_patched_away_prefix_entries_are_not_components():
    # position 0 is patched to a single vertex, so this is the bare ray
    verdict, reason = twin_cardinality(parse_term("wsum(patch([succ(box)](box);0:box))"))
    assert verdict == ONE
    assert "bare one-way path" in reason
    # the only infinite entry is patched away: every component is finite
    verdict, reason = twin_cardinality(parse_term("wsum(patch([sup(wsum([](box)))](box);0:succ(box)))"))
    assert verdict == ONE
    assert "finite components" in reason


def test_cardinality_matches_certificate():
    b = builtins()
    for name in ("ray", "ex1", "ex2", "ex3", "ex4"):
        verdict, _ = twin_cardinality(b[name])
        assert classify(b[name]).twins == verdict, name


# -- serialization -----------------------------------------------------------------

def test_certificate_json_round_trip():
    data = json.loads(classify(builtins()["ex1"]).to_json())
    assert data["variant"] == "unique_end_forward"
    assert data["twins"] == "continuum"
    assert data["regular"] == NO
    assert isinstance(data["notes"], list)


def test_fixed_center_json():
    data = json.loads(classify(parse_term("box")).to_json())
    assert data["variant"] == "fixed_vertex_or_edge"
    assert data["center"] == {"kind": "vertex", "at": 0}
