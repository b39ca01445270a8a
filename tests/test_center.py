"""The center of a finite tree, found on its term (`stability.finite_center`),
against the center of the expanded tree (`finite_trees.center`), in the
vertex numbering of `cuts.expand_finite`."""

import random
import sys

from scattree.cuts import expand_finite
from scattree.finite_trees import center
from scattree.oracle import free_trees
from scattree.stability import classify, finite_center
from scattree.terms import parse_term


def expected(t):
    kind, where = center(expand_finite(t).tree)
    return kind, list(where) if kind == "edge" else where


def rooted_text(tree, root):
    """The term of a free tree rooted at `root`: a vertex with one child is
    a succ, one with more a sup of a succ per child."""
    parent, order, stack = {root: None}, [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in tree.adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    text = {}
    for v in reversed(order):
        below = [f"succ({text[u]})" for u in tree.adj[v] if parent[u] == v]
        text[v] = "box" if not below else below[0] if len(below) == 1 else f"sup({','.join(below)})"
    return text[root]


def test_every_free_tree_rooted_at_every_vertex():
    checked = 0
    for n in range(1, 11):
        for tree in free_trees(n):
            for root in range(n):
                t = parse_term(rooted_text(tree, root))
                assert t.size == n
                assert finite_center(t) == expected(t), (n, tree.edges(), root)
                checked += 1
    assert checked == sum(n * len(free_trees(n)) for n in range(1, 11))


def finite_text(rng, depth):
    """A finite term: succ chains, sups with multiplicities (w only on
    single vertices) and nested sups, and supseqs with finitely many
    components that are not single vertices, placed by prefixes and by
    patches over periodic and generated sequences."""
    r = rng.random()
    if depth == 0 or r < 0.12:
        return rng.choice(("box", "box", "sup(box*w)", "supseq([](box))"))
    if r < 0.4:
        return f"succ({finite_text(rng, depth - 1)})"
    if r < 0.8:
        arms = []
        for _ in range(rng.randint(1, 3)):
            arm = finite_text(rng, depth - 1)
            if rng.random() < 0.25:
                arm = f"sup({arm},{finite_text(rng, depth - 1)})"  # a nested sup
            arms.append(arm + rng.choice(("", "", "", "*2", "*3")))
        return f"sup({','.join(arms)})"
    parts = [finite_text(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    kind = rng.randrange(4)
    if kind == 0:
        return f"supseq([{','.join(parts)}](box))"
    patches = ",".join(f"{p}:{x}" for p, x in zip(sorted(rng.sample(range(12), len(parts))), parts))
    if kind == 1:
        return f"supseq(patch([](box);{patches}))"
    if kind == 2:  # patches that override prefix entries
        prefix = ",".join(finite_text(rng, depth - 1) for _ in range(rng.randint(1, 4)))
        return f"supseq(patch([{prefix}](sup(box*2));{patches}))"
    return f"supseq(patch(gen(box;sup(_*2,box));{patches}))"


def test_seeded_finite_terms():
    rng = random.Random(16)
    kinds = set()
    for _ in range(2500):
        t = parse_term(finite_text(rng, 4))
        assert t.size != float("inf")
        got = finite_center(t)
        assert got == expected(t), repr(t)
        kinds.add(got[0])
    assert kinds == {"vertex", "edge"}


def test_deep_terms_answer_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    tall = parse_term("succ(" * 10000 + "box" + ")" * 10000)
    assert finite_center(tall) == ("vertex", 5000)
    # 3000 identified roots, one leaf edge each, above a path of two
    # edges: the center is the edge to that path, numbered past the leaves
    nest = parse_term("sup(succ(box)," * 3000 + "succ(succ(box))" + ")" * 3000)
    assert finite_center(nest) == ("edge", [0, 3001]) == expected(nest)
    bare = parse_term("sup(" * 3000 + "succ(succ(box))" + ")" * 3000)
    assert finite_center(bare) == ("vertex", 1) == expected(bare)
    cert = classify(tall)
    assert cert.fields["center"] == {"kind": "vertex", "at": 5000}
