"""Exhaustive ground truth on small finite trees.

Everything here is independent of the symbolic engine: trees are
enumerated by repeated leaf addition, cross-checked against Prüfer
sequences and the Cayley count, automorphisms are enumerated by naive
backtracking, and embeddings by brute-force injection search.  The test
suite compares engine verdicts against these oracles and freezes the
classical counts.

Group orders come from the product formula over AHU codes at the center
(`finite_trees.automorphism_count`), with no enumeration; the Cayley and
Prüfer checks use it.  Automorphisms are listed only where each one is
checked: the center sweep streams the naive backtracker here, the
classification sweep the center-anchored enumerator of `finite_trees`,
and each compares its count per tree with the formula.  Both enumerators
rewrite one image list in place and hand out one permutation at a time,
so no group is held whole and the sweeps run in memory independent of
the group order (K(1,9) alone has 362880 automorphisms).
"""

from __future__ import annotations

import heapq
from itertools import product
from math import factorial

from .finite_trees import (
    FiniteTree,
    RootedFiniteTree,
    automorphism_classifier,
    automorphism_count,
    canonical_code,
    center,
    iter_automorphisms,
    rooted_embeds,
    unrooted_code,
)

# unlabeled free trees and rooted trees by vertex count, frozen
FREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)
ROOTED_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115)


class OracleError(Exception):
    pass


_free_cache = {}
_rooted_cache = {}


def free_trees(n: int):
    """All unlabeled free trees on n vertices, one representative per
    isomorphism class, built by adding a leaf everywhere on each tree
    with n-1 vertices and deduplicating on the canonical form."""
    if n < 1:
        raise OracleError("need n >= 1")
    if n in _free_cache:
        return _free_cache[n]
    if n == 1:
        out = [FiniteTree(1, ())]
    else:
        seen = {}
        for t in free_trees(n - 1):
            for v in range(t.n):
                grown = FiniteTree(n, tuple(t.edges()) + ((v, n - 1),))
                seen.setdefault(unrooted_code(grown), grown)
        out = list(seen.values())
    _free_cache[n] = out
    return out


def rooted_trees(n: int):
    """All rooted trees on n vertices up to rooted isomorphism (root 0)."""
    if n < 1:
        raise OracleError("need n >= 1")
    if n in _rooted_cache:
        return _rooted_cache[n]
    if n == 1:
        out = [RootedFiniteTree(FiniteTree(1, ()), 0)]
    else:
        seen = {}
        for rt in rooted_trees(n - 1):
            for v in range(rt.tree.n):
                grown = RootedFiniteTree(
                    FiniteTree(n, tuple(rt.tree.edges()) + ((v, n - 1),)), rt.root
                )
                seen.setdefault(canonical_code(grown), grown)
        out = list(seen.values())
    _rooted_cache[n] = out
    return out


def check_tree_counts(max_free: int = 10, max_rooted: int = 8) -> dict:
    free = [len(free_trees(n)) for n in range(1, max_free + 1)]
    rooted = [len(rooted_trees(n)) for n in range(1, max_rooted + 1)]
    if tuple(free) != FREE_COUNTS[:max_free]:
        raise OracleError(f"free tree counts {free} != {FREE_COUNTS[:max_free]}")
    if tuple(rooted) != ROOTED_COUNTS[:max_rooted]:
        raise OracleError(f"rooted tree counts {rooted} != {ROOTED_COUNTS[:max_rooted]}")
    return {"free": free, "rooted": rooted, "ok": True}


# -- Prüfer sequences ---------------------------------------------------------


def prufer_tree(seq, n: int) -> FiniteTree:
    """Decode a Prüfer sequence (length n-2 over 0..n-1) to a labeled tree."""
    seq = tuple(seq)
    if n < 2 or len(seq) != n - 2:
        raise OracleError("sequence length must be n - 2")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return FiniteTree(n, edges)


def prufer_cross_check(n: int) -> dict:
    """Decode every Prüfer sequence on n vertices, bucket the labeled trees
    by isomorphism class, and verify (a) the class count matches the
    leaf-addition enumeration and (b) each class occurs exactly
    n!/|Aut| times, so the total recovers n^(n-2)."""
    if n < 3:
        raise OracleError("needs n >= 3")
    buckets = {}
    for seq in product(range(n), repeat=n - 2):
        t = prufer_tree(seq, n)
        code = unrooted_code(t)
        if code in buckets:
            buckets[code][1] += 1
        else:
            buckets[code] = [t, 1]
    enum_codes = {unrooted_code(t) for t in free_trees(n)}
    if set(buckets) != enum_codes:
        raise OracleError(f"Prüfer classes disagree with enumeration at n={n}")
    fact = factorial(n)
    for code, (t, count) in buckets.items():
        auts = automorphism_count(t)
        if count * auts != fact:
            raise OracleError(
                f"class {code} occurs {count} times, expected {fact}//{auts}"
            )
    total = sum(c for _, c in buckets.values())
    if total != n ** (n - 2):
        raise OracleError("labeled total is not n^(n-2)")
    return {"n": n, "classes": len(buckets), "labeled": total, "ok": True}


def cayley_identity(n: int) -> dict:
    """Verify sum over isomorphism classes of n!/|Aut| = n^(n-2) without
    touching any labeled sequence (used where the full Prüfer sweep is too
    wide)."""
    fact = factorial(n)
    total = 0
    for t in free_trees(n):
        auts = automorphism_count(t)
        if fact % auts:
            raise OracleError("automorphism count does not divide n!")
        total += fact // auts
    if total != n ** (n - 2):
        raise OracleError(f"Cayley identity fails at n={n}: {total} != {n ** (n - 2)}")
    return {"n": n, "labeled": total, "ok": True}


# -- automorphisms by naive search --------------------------------------------


def naive_automorphisms(t: FiniteTree):
    """Stream all automorphisms as vertex permutation tuples, by
    backtracking over a BFS order, independent of the center-anchored
    streaming enumerator."""
    n = t.n
    order, parent = [0], [None] * n
    seen = [False] * n
    seen[0] = True
    for v in order:
        for w in t.adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    deg = [len(a) for a in t.adj]
    image = [None] * n
    used = [False] * n
    # cands[i] iterates the candidate images of order[i]: any vertex for
    # the root, the neighbours of its parent's image otherwise
    cands = [iter(range(n))] + [None] * (n - 1)
    i = 0
    while i >= 0:
        v = order[i]
        for c in cands[i]:
            if not used[c] and deg[c] == deg[v]:
                break
        else:
            i -= 1
            if i >= 0:
                used[image[order[i]]] = False
            continue
        image[v] = c
        if i + 1 == n:
            yield tuple(image)
            continue
        used[c] = True
        i += 1
        cands[i] = iter(t.adj[image[parent[order[i]]]])


def center_fixed_check(max_n: int = 10) -> dict:
    """Every automorphism of every tree up to max_n vertices fixes the
    central vertex, or fixes-or-swaps the central edge.  Automorphisms come
    from the naive backtracker, each checked as it is produced, and their
    number per tree must equal the group order from the product formula."""
    trees = autos = 0
    for n in range(1, max_n + 1):
        for t in free_trees(n):
            kind, c = center(t)
            size = 0
            for sigma in naive_automorphisms(t):
                if kind == "vertex":
                    if sigma[c] != c:
                        raise OracleError(f"center vertex moved by {sigma} on {t.to_json()}")
                else:
                    u, v = c
                    if {sigma[u], sigma[v]} != {u, v}:
                        raise OracleError(f"center edge moved by {sigma} on {t.to_json()}")
                size += 1
            if size != automorphism_count(t):
                raise OracleError(f"automorphism group sizes disagree on {t.to_json()}")
            autos += size
            trees += 1
    return {"trees": trees, "automorphisms": autos, "ok": True}


def endo_classification_sweep(max_n: int = 9) -> dict:
    """Classify every automorphism of every tree up to max_n vertices:
    each is a rotation (fixes a vertex) or an inversion (reverses an edge);
    translations need an infinite axis and must never appear.  The
    automorphisms come from the center-anchored streaming enumerator, and
    their number per tree must equal the group order from the product
    formula."""
    counts = {"rotation": 0, "inversion": 0, "translation": 0}
    for n in range(1, max_n + 1):
        for t in free_trees(n):
            classify = automorphism_classifier(t)
            size = 0
            for sigma in iter_automorphisms(t):
                kind = classify(sigma).variant
                counts[kind] = counts.get(kind, 0) + 1
                size += 1
            if size != automorphism_count(t):
                raise OracleError(f"automorphism group sizes disagree on {t.to_json()}")
    if counts["translation"]:
        raise OracleError("a finite tree produced a translation")
    if set(counts) - {"rotation", "inversion", "translation"}:
        raise OracleError(f"unexpected classification in {counts}")
    return {**counts, "ok": True}


# -- embeddings by brute force -------------------------------------------------


def naive_rooted_embeds(a: RootedFiniteTree, b: RootedFiniteTree) -> bool:
    """Root-to-root embedding by trying every injective assignment of
    children to children, no matching theory involved."""
    ta, tb = a.tree, b.tree

    def go(va, pa, vb, pb):
        kids_a = [w for w in ta.adj[va] if w != pa]
        kids_b = [w for w in tb.adj[vb] if w != pb]
        if len(kids_a) > len(kids_b):
            return False

        def assign(i, used):
            if i == len(kids_a):
                return True
            for j in range(len(kids_b)):
                if j not in used and go(kids_a[i], va, kids_b[j], vb):
                    if assign(i + 1, used | {j}):
                        return True
            return False

        return assign(0, frozenset())

    return go(a.root, None, b.root, None)


def embed_cross_check(max_n: int = 6) -> dict:
    """Engine rooted embedding agrees with brute force on every ordered
    pair of rooted trees up to max_n vertices."""
    pool = [rt for n in range(1, max_n + 1) for rt in rooted_trees(n)]
    memo = {}
    pairs = agree = 0
    for a in pool:
        for b in pool:
            fast = rooted_embeds(a, b, memo)
            slow = naive_rooted_embeds(a, b)
            if fast != slow:
                raise OracleError(
                    f"embed disagreement: {a.tree.to_json()} into {b.tree.to_json()}"
                )
            pairs += 1
            agree += 1
    return {"pairs": pairs, "ok": True}


def unrooted_embeds(a: FiniteTree, b: FiniteTree, memo=None) -> bool:
    """a embeds into b as a subtree: some placement of roots works (any
    adjacency-preserving injection is root-to-root once both sides are
    rooted at a vertex and its image)."""
    if memo is None:
        memo = {}
    return any(
        rooted_embeds(RootedFiniteTree(a, 0), RootedFiniteTree(b, rb), memo)
        for rb in range(b.n)
    )


def equimorphy_is_isomorphy(max_n: int = 7) -> dict:
    """On finite trees, mutual embeddability coincides with isomorphism:
    checked exhaustively over all pairs up to max_n vertices."""
    pool = [t for n in range(1, max_n + 1) for t in free_trees(n)]
    memo = {}
    coded = [(t, unrooted_code(t)) for t in pool]
    pairs = 0
    for a, code_a in coded:
        for b, code_b in coded:
            mutual = unrooted_embeds(a, b, memo) and unrooted_embeds(b, a, memo)
            iso = code_a == code_b
            if mutual != iso:
                raise OracleError(
                    f"equimorphy/isomorphy mismatch: {a.to_json()} vs {b.to_json()}"
                )
            pairs += 1
    return {"pairs": pairs, "ok": True}


# -- runner --------------------------------------------------------------------


# the oracle jobs by name, as `scattree oracle WHICH` runs them
JOBS = {
    "counts": lambda: check_tree_counts(),
    "prufer": lambda: {str(n): prufer_cross_check(n) for n in range(3, 9)},
    "cayley": lambda: {str(n): cayley_identity(n) for n in (9, 10)},
    "center": lambda: center_fixed_check(),
    "endos": lambda: endo_classification_sweep(),
    "embeds": lambda: embed_cross_check(),
    "equimorphy": lambda: equimorphy_is_isomorphy(),
}


def run_oracle(which: str = "all") -> dict:
    """Run one oracle (by name) or all of them; returns a report dict."""
    if which == "all":
        return {name: job() for name, job in JOBS.items()}
    if which not in JOBS:
        raise OracleError(f"unknown oracle {which!r}; choose from {sorted(JOBS)}")
    return {which: JOBS[which]()}
