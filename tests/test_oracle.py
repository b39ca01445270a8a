import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from scattree.finite_trees import (
    FiniteTree,
    RootedFiniteTree,
    canonical_code,
    center,
    is_automorphism,
    iter_automorphisms,
    path_tree,
    rooted_embeds,
    star_tree,
    unrooted_code,
)
from scattree.oracle import (
    FREE_COUNTS,
    ROOTED_COUNTS,
    OracleError,
    automorphism_count,
    cayley_identity,
    center_fixed_check,
    check_tree_counts,
    embed_cross_check,
    endo_classification_sweep,
    equimorphy_is_isomorphy,
    free_trees,
    naive_automorphisms,
    naive_rooted_embeds,
    prufer_cross_check,
    prufer_tree,
    rooted_trees,
    run_oracle,
    unrooted_embeds,
)


# -- enumeration ---------------------------------------------------------------

def test_tree_counts_match_known_values():
    report = check_tree_counts()
    assert report["ok"]
    assert report["free"] == list(FREE_COUNTS)
    assert report["rooted"] == list(ROOTED_COUNTS)


def test_enumerations_contain_no_duplicates():
    for n in range(1, 8):
        codes = {unrooted_code(t) for t in free_trees(n)}
        assert len(codes) == FREE_COUNTS[n - 1]
    rcodes = {canonical_code(r) for r in rooted_trees(5)}
    assert len(rcodes) == ROOTED_COUNTS[4]


# -- labeled-tree decoding -----------------------------------------------------

def test_prufer_decodes_the_star():
    t = prufer_tree((0, 0), 4)
    assert unrooted_code(t) == unrooted_code(star_tree(3))


def test_prufer_decodes_the_path():
    # sequence (1, 2) yields the labeled path 0-1-2-3
    t = prufer_tree((1, 2), 4)
    assert unrooted_code(t) == unrooted_code(path_tree(4))


def test_prufer_cross_check_small():
    five = prufer_cross_check(5)
    assert five == {"n": 5, "classes": 3, "labeled": 125, "ok": True}
    six = prufer_cross_check(6)
    assert six == {"n": 6, "classes": 6, "labeled": 1296, "ok": True}


def test_cayley_identity_holds_at_nine():
    report = cayley_identity(9)
    assert report["ok"]
    assert report["labeled"] == 9**7


# -- independent automorphism search -----------------------------------------------

def test_naive_search_agrees_with_group_enumerator():
    for n in range(1, 9):
        for t in free_trees(n):
            streamed = list(iter_automorphisms(t))
            assert len(set(streamed)) == len(streamed)
            assert all(is_automorphism(t, sigma) for sigma in streamed)
            assert set(naive_automorphisms(t)) == set(streamed)


def test_automorphism_count_of_star():
    assert automorphism_count(star_tree(4)) == 24  # leaves permute freely


def test_group_order_formula_matches_enumeration():
    for n in range(1, 11):
        for t in free_trees(n):
            assert automorphism_count(t) == sum(1 for _ in iter_automorphisms(t))


DOUBLE_STAR = FiniteTree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6), (4, 7)))
UNEQUAL_HALVES = FiniteTree(5, ((0, 1), (0, 2), (0, 3), (1, 4)))


@pytest.mark.parametrize(
    "tree, order",
    [
        (star_tree(9), 362880),  # K(1,9): 9!
        (path_tree(6), 2),  # the flip of the center edge
        (DOUBLE_STAR, 3 * 2 * 3 * 2 * 2),  # two K(1,3) joined at their centers, swapped
        (UNEQUAL_HALVES, 2),  # edge center whose halves differ: no swap
    ],
)
def test_group_order_formula_values(tree, order):
    assert automorphism_count(tree) == order


def test_pinned_trees_have_edge_centers():
    assert center(DOUBLE_STAR) == ("edge", (0, 4))
    assert center(UNEQUAL_HALVES) == ("edge", (0, 1))


def test_center_fixed_by_all_automorphisms():
    report = center_fixed_check(8)
    assert report == {"trees": 48, "automorphisms": 6355, "ok": True}


def test_center_check_streams_the_groups():
    # the check holds no group as a list: K(1,9) alone has 362880
    # automorphisms, about 50 MB as tuples
    tracemalloc.start()
    try:
        report = center_fixed_check(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == {"trees": 201, "automorphisms": 422224, "ok": True}
    assert peak < 10 * 2**20


def test_endo_classification_has_no_translations():
    report = endo_classification_sweep(7)
    assert report == {"rotation": 961, "inversion": 7, "translation": 0, "ok": True}


# -- independent embedding search ----------------------------------------------------

def test_naive_embeds_agrees_with_matching_solver():
    a = RootedFiniteTree(star_tree(2), 0)
    b = RootedFiniteTree(star_tree(3), 0)
    assert naive_rooted_embeds(a, b)
    assert rooted_embeds(a, b)
    assert not naive_rooted_embeds(b, a)


def test_embed_cross_check_small():
    report = embed_cross_check(5)
    assert report == {"pairs": 289, "ok": True}


def test_unrooted_embedding_basics():
    assert unrooted_embeds(path_tree(3), star_tree(3))
    assert not unrooted_embeds(path_tree(4), star_tree(3))


def test_mutual_embedding_forces_isomorphy_on_finite_trees():
    report = equimorphy_is_isomorphy(6)
    assert report == {"pairs": 196, "ok": True}


# -- runner ----------------------------------------------------------------------

def test_run_oracle_single_job():
    out = run_oracle("counts")
    assert out["counts"]["ok"]


def test_run_oracle_rejects_unknown_job():
    with pytest.raises(OracleError):
        run_oracle("nonsense")


# -- properties -----------------------------------------------------------------

@given(st.integers(min_value=2, max_value=7))
@settings(max_examples=12, deadline=None)
def test_path_automorphisms_are_identity_and_flip(n):
    assert automorphism_count(path_tree(n)) == (1 if n == 1 else 2)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_prufer_decode_always_yields_a_tree(seq):
    t = prufer_tree(tuple(seq), 6)
    assert isinstance(t, FiniteTree)
    assert t.n == 6
    assert sum(len(a) for a in t.adj) == 10  # five edges, each counted twice
