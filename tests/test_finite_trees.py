from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from scattree.finite_trees import (
    FiniteTree,
    RootedFiniteTree,
    TreeError,
    automorphism_count,
    automorphisms,
    canonical_code,
    center,
    classify_automorphism,
    is_automorphism,
    is_isomorphic,
    iter_automorphisms,
    path_tree,
    rooted_embeds,
    rooted_isomorphisms,
    star_tree,
    unrooted_code,
)


def test_validation():
    with pytest.raises(TreeError):
        FiniteTree(3, ((0, 1),))  # disconnected
    with pytest.raises(TreeError):
        FiniteTree(2, ((0, 0),))  # loop
    with pytest.raises(TreeError):
        FiniteTree(3, ((0, 1), (1, 2), (0, 2)))  # cycle


def test_path_and_star_shapes():
    p = path_tree(5)
    assert p.n == 5 and len(p.edges()) == 4
    assert p.distance(0, 4) == 4
    assert p.path(0, 3) == [0, 1, 2, 3]
    s = star_tree(4)
    assert sorted(s.degree(v) for v in range(s.n)) == [1, 1, 1, 1, 4]


def test_center_vertex_and_edge():
    assert center(path_tree(5)) == ("vertex", 2)
    kind, (u, v) = center(path_tree(4))
    assert kind == "edge" and (u, v) == (1, 2)
    assert center(star_tree(5))[0] == "vertex"
    assert center(FiniteTree(1, ())) == ("vertex", 0)


def test_json_round_trip():
    t = star_tree(3)
    assert FiniteTree.from_json(t.to_json()) .edges() == t.edges()


def test_isomorphism_codes():
    # the two shapes on 4 vertices
    p4 = path_tree(4)
    s4 = star_tree(3)
    assert not is_isomorphic(p4, s4)
    relabeled = FiniteTree(4, ((2, 3), (1, 2), (0, 1)))
    assert is_isomorphic(p4, relabeled)
    assert unrooted_code(p4) == unrooted_code(relabeled)


def test_rooted_code_distinguishes_roots():
    p = path_tree(3)
    end = canonical_code(RootedFiniteTree(p, 0))
    mid = canonical_code(RootedFiniteTree(p, 1))
    assert end != mid


def test_rooted_embeds_basics():
    p3 = RootedFiniteTree(path_tree(3), 0)
    p5 = RootedFiniteTree(path_tree(5), 0)
    assert rooted_embeds(p3, p5)
    assert not rooted_embeds(p5, p3)
    # a 2-branch root does not fit into a path
    s = RootedFiniteTree(star_tree(2), 0)
    assert not rooted_embeds(s, p5)
    assert rooted_embeds(s, RootedFiniteTree(star_tree(5), 0))


def test_rooted_embeds_needs_matching_not_greedy():
    # root with branches (path2, path1) into root with branches (path1, path2):
    # the matching must pair them correctly
    a = FiniteTree(4, ((0, 1), (1, 2), (0, 3)))
    b = FiniteTree(4, ((0, 1), (0, 2), (2, 3)))
    assert rooted_embeds(RootedFiniteTree(a, 0), RootedFiniteTree(b, 0))


def test_automorphism_groups():
    assert len(automorphisms(path_tree(1))) == 1
    assert len(automorphisms(path_tree(2))) == 2
    assert len(automorphisms(path_tree(5))) == 2
    assert len(automorphisms(star_tree(4))) == 24  # S_4 on the leaves
    for sigma in iter_automorphisms(star_tree(4)):
        assert is_automorphism(star_tree(4), sigma)


def test_automorphisms_of_long_paths_need_no_recursion():
    # radius 1500, far past Python's recursion limit: codes and group
    # orders are computed bottom-up
    for n in (3000, 3001):
        p = path_tree(n)
        assert automorphism_count(p) == 2
        maps = list(iter_automorphisms(p))
        assert len(maps) == 2 and tuple(reversed(range(n))) in maps
    spider = FiniteTree(3001, [(0, 1), (0, 1001), (0, 2001)] + [(i, i + 1) for i in range(1, 3000) if i % 1000])
    assert automorphism_count(spider) == 6


def test_classification_rotation_inversion():
    p5 = path_tree(5)
    flip = tuple(4 - v for v in range(5))
    c = classify_automorphism(p5, flip)
    assert c.variant == "rotation" and c.evidence == ("vertex", 2)
    p4 = path_tree(4)
    flip4 = tuple(3 - v for v in range(4))
    c4 = classify_automorphism(p4, flip4)
    assert c4.variant == "inversion" and c4.evidence == ("edge", (1, 2))
    ident = tuple(range(4))
    assert classify_automorphism(p4, ident).variant == "rotation"
    with pytest.raises(TreeError):
        classify_automorphism(p4, (1, 2, 3, 0))


def test_rooted_isomorphisms_count():
    s = star_tree(3)
    root = RootedFiniteTree(s, 0)
    maps = list(rooted_isomorphisms(root, root))
    assert len(maps) == 6
    assert {tuple(m[v] for v in range(4)) for m in maps} == {
        (0,) + p for p in permutations((1, 2, 3))
    }
    # onto a relabelled copy, rooted at the image of the root
    other = RootedFiniteTree(FiniteTree(4, ((3, 0), (3, 1), (3, 2))), 3)
    onto = list(rooted_isomorphisms(root, other))
    assert len(onto) == 6
    assert {tuple(m[v] for v in range(4)) for m in onto} == {
        (3,) + p for p in permutations((0, 1, 2))
    }


# random trees via random attachment (a Prüfer-free construction)
@st.composite
def _trees(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return FiniteTree(n, tuple(edges))


@given(_trees())
def test_every_tree_embeds_in_itself(t):
    rt = RootedFiniteTree(t, 0)
    assert rooted_embeds(rt, rt)


@given(_trees())
def test_grown_tree_contains_original(t):
    bigger = FiniteTree(t.n + 1, tuple(t.edges()) + ((t.n - 1, t.n),))
    assert rooted_embeds(RootedFiniteTree(t, 0), RootedFiniteTree(bigger, 0))
    assert not rooted_embeds(RootedFiniteTree(bigger, 0), RootedFiniteTree(t, 0))


@given(_trees())
def test_automorphisms_preserve_center(t):
    kind, c = center(t)
    for sigma in iter_automorphisms(t):
        if kind == "vertex":
            assert sigma[c] == c
        else:
            u, v = c
            assert {sigma[u], sigma[v]} == {u, v}


@given(_trees(), st.randoms())
def test_code_invariant_under_relabeling(t, rng):
    perm = list(range(t.n))
    rng.shuffle(perm)
    edges = tuple((perm[u], perm[v]) for u, v in t.edges())
    assert unrooted_code(FiniteTree(t.n, edges)) == unrooted_code(t)
