"""Concrete finite trees: canonical codes, isomorphism, rooted embedding,
centers, automorphism enumeration and group orders, and the
rotation/inversion classification of automorphisms.

Embedding means induced subtree embedding.  Between trees the induced
condition is free: an injective adjacency-preserving map sends every path to
a path of the same length (a shortcut edge would close a cycle), so only the
forward condition needs checking.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import permutations
from math import factorial


class TreeError(ValueError):
    pass


class FiniteTree:
    """Unrooted tree on vertices 0..n-1, immutable adjacency lists."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges):
        edges = [tuple(e) for e in edges]
        if n < 1:
            raise TreeError("tree needs at least one vertex")
        if len(edges) != n - 1:
            raise TreeError(f"a tree on {n} vertices has {n - 1} edges, got {len(edges)}")
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise TreeError(f"bad edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise TreeError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        if self._component_size(0) != n:
            raise TreeError("tree is not connected")

    def _component_size(self, start):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def degree(self, v):
        return len(self.adj[v])

    def distances(self, u):
        """Distances from u to every vertex, by breadth-first search."""
        dist = [-1] * self.n
        dist[u] = 0
        queue = [u]
        for x in queue:
            for y in self.adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def distance(self, u, v):
        return self.distances(u)[v]

    def path(self, u, v):
        """Vertex sequence of the unique u-v path."""
        parent = {u: None}
        queue = [u]
        for x in queue:
            if x == v:
                break
            for y in self.adj[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        out = [v]
        while out[-1] != u:
            out.append(parent[out[-1]])
        return out[::-1]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges()]})

    @staticmethod
    def from_json(text: str) -> "FiniteTree":
        data = json.loads(text)
        return FiniteTree(data["n"], data["edges"])

    def __eq__(self, other):
        return isinstance(other, FiniteTree) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"FiniteTree(n={self.n}, edges={self.edges()})"


class RootedFiniteTree(namedtuple("RootedFiniteTree", "tree root")):
    """A FiniteTree with a root vertex; read-only."""

    __slots__ = ()

    def __new__(cls, tree: FiniteTree, root: int):
        if not (0 <= root < tree.n):
            raise TreeError("root out of range")
        return super().__new__(cls, tree, root)


def path_tree(n: int) -> FiniteTree:
    return FiniteTree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(leaves: int) -> FiniteTree:
    return FiniteTree(leaves + 1, [(0, i + 1) for i in range(leaves)])


def _children_order(t: FiniteTree, root: int, above=None):
    """Parent map and a bottom-up vertex order for the tree rooted at root,
    or, given a neighbour `above` of root, for the subtree at root cut
    above it."""
    parent = {root: above}
    order = [root]
    for u in order:
        for v in t.adj[u]:
            if v != parent[u]:
                parent[v] = u
                order.append(v)
    return parent, order[::-1]


def canonical_code(rt: RootedFiniteTree) -> str:
    """AHU code: sorted-children bracket string; equal iff rooted-isomorphic."""
    t, root = rt.tree, rt.root
    parent, bottom_up = _children_order(t, root)
    code = {}
    for u in bottom_up:
        kids = sorted(code[v] for v in t.adj[u] if v != parent[u])
        code[u] = "(" + "".join(kids) + ")"
    return code[root]


def center(t: FiniteTree):
    """Iterated leaf stripping; ('vertex', v) or ('edge', (u, v))."""
    if t.n == 1:
        return ("vertex", 0)
    degree = [len(a) for a in t.adj]
    removed = [False] * t.n
    alive = t.n
    leaves = [v for v in range(t.n) if degree[v] == 1]
    while alive > 2:
        for v in leaves:
            removed[v] = True
        alive -= len(leaves)
        nxt = []
        for v in leaves:
            for u in t.adj[v]:
                if not removed[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        leaves = nxt
    rest = [v for v in range(t.n) if not removed[v]]
    if len(rest) == 1:
        return ("vertex", rest[0])
    u, v = rest
    if v not in t.adj[u]:
        raise TreeError("center invariant broken")
    return ("edge", (u, v))


def unrooted_code(t: FiniteTree) -> str:
    """Canonical form of the unrooted tree: code at the center (both
    orientations for an edge center, take the smaller)."""
    kind, c = center(t)
    if kind == "vertex":
        return canonical_code(RootedFiniteTree(t, c))
    u, v = c
    return min(
        canonical_code(RootedFiniteTree(t, u)),
        canonical_code(RootedFiniteTree(t, v)),
    )


def is_isomorphic(a: FiniteTree, b: FiniteTree) -> bool:
    return a.n == b.n and unrooted_code(a) == unrooted_code(b)


# -- rooted embedding ---------------------------------------------------------

def _kuhn_match(n_left, n_right, compatible):
    """Match every left item to a distinct right item along compatible pairs
    (augmenting-path search)."""
    match = {}

    def try_assign(i, seen):
        for j in range(n_right):
            if j in seen or not compatible(i, j):
                continue
            seen.add(j)
            if j not in match or try_assign(match[j], seen):
                match[j] = i
                return True
        return False

    for i in range(n_left):
        if not try_assign(i, set()):
            return False
    return True


def _subcode(t, v, parent, cache):
    """AHU code of the subtree at v cut above parent.  A first call codes
    every vertex of that subtree bottom-up into `cache`, keyed by (vertex,
    parent), so later calls below v only read it."""
    if (v, parent) not in cache:
        up, bottom_up = _children_order(t, v, parent)
        for u in bottom_up:
            kids = sorted(cache[w, u] for w in t.adj[u] if w != up[u])
            cache[u, up[u]] = "(" + "".join(kids) + ")"
    return cache[v, parent]


def rooted_embeds(a: RootedFiniteTree, b: RootedFiniteTree, memo=None) -> bool:
    """Does (a, root) embed into (b, root) as an induced rooted subtree?
    Children match injectively with recursive embeddability as compatibility,
    feasibility by augmenting-path matching, memoized on code pairs.  Pass a
    shared `memo` dict to amortize across many calls: it also keeps each
    tree's subtree codes, under the tree, so a tree is coded once."""
    if memo is None:
        memo = {}
    codes_a = memo.setdefault(a.tree, {})
    codes_b = memo.setdefault(b.tree, {})

    def go(va, pa, vb, pb):
        ca = _subcode(a.tree, va, pa, codes_a)
        cb = _subcode(b.tree, vb, pb, codes_b)
        if ca == cb:
            return True
        key = (ca, cb)
        if key in memo:
            return memo[key]
        if len(ca) > len(cb):  # code length is 2 * subtree size
            memo[key] = False
            return False
        kids_a = [w for w in a.tree.adj[va] if w != pa]
        kids_b = [w for w in b.tree.adj[vb] if w != pb]
        ok = len(kids_a) <= len(kids_b) and _kuhn_match(
            len(kids_a),
            len(kids_b),
            lambda i, j: go(kids_a[i], va, kids_b[j], vb),
        )
        memo[key] = ok
        return ok

    return go(a.root, None, b.root, None)


# -- automorphisms ------------------------------------------------------------

def _child_groups(t, v, parent, codes, cache):
    """The children of v (cut above parent) grouped by subtree code; groups
    and members in adjacency order."""
    key = (v, parent)
    groups = cache.get(key)
    if groups is None:
        groups = {}
        for w in t.adj[v]:
            if w != parent:
                groups.setdefault(_subcode(t, w, v, codes), []).append(w)
        cache[key] = groups
    return groups


def _group_order(t, v, parent, codes, cache):
    """Order of the automorphism group of the subtree at v cut above parent,
    v fixed: each group of m equal-code children contributes
    m! * |Aut(child)|^m.  Computed bottom-up, after one pass codes the
    subtree."""
    _subcode(t, v, parent, codes)
    up, bottom_up = _children_order(t, v, parent)
    order = {}
    for u in bottom_up:
        n = 1
        for members in _child_groups(t, u, up[u], codes, cache).values():
            m = len(members)
            n *= factorial(m) * order[members[0]] ** m
        order[u] = n
    return order[v]


def automorphism_count(t: FiniteTree) -> int:
    """|Aut(t)| by the product formula over AHU codes rooted at the center,
    with no enumeration (Colbourn & Booth, SIAM J. Comput. 1981).  At an
    edge center the two halves multiply, times 2 for the swap when their
    codes are equal."""
    kind, c = center(t)
    codes, cache = {}, {}
    if kind == "vertex":
        return _group_order(t, c, None, codes, cache)
    u, v = c
    order = _group_order(t, u, v, codes, cache) * _group_order(t, v, u, codes, cache)
    if _subcode(t, u, v, codes) == _subcode(t, v, u, codes):
        order *= 2
    return order


def _iter_isos(ta, tb, roots):
    """Every isomorphism that maps, for each root pair (va, pa, vb, pb), the
    subtree of ta at va cut above pa onto the subtree of tb at vb cut above
    pb, sending va to vb.  Yields one list `img` (img[x] is the image of x,
    None off the subtrees), rewritten in place between yields.

    Children of matched vertices are grouped by AHU code; each group is
    matched by every permutation of its equal-code partners, and under each
    by every product of isomorphisms of the matched child pairs (a group
    of leaves, code "()", by the permutation alone).  The open groups form
    a linked list (group, rest), searched depth-first with one permutation
    iterator per level, so nothing but `img` and that stack is held however
    large the group is."""
    codes_a, groups_a = {}, {}
    codes_b, groups_b = (codes_a, groups_a) if ta is tb else ({}, {})
    for va, pa, vb, pb in roots:
        if _subcode(ta, va, pa, codes_a) != _subcode(tb, vb, pb, codes_b):
            return
    img = [None] * ta.n

    def match(va, pa, vb, pb, rest):
        img[va] = vb
        kids_a = _child_groups(ta, va, pa, codes_a, groups_a)
        if kids_a:
            kids_b = _child_groups(tb, vb, pb, codes_b, groups_b)
            for code, mem_a in reversed(kids_a.items()):
                rest = ((va, vb, mem_a, kids_b[code], len(code) == 2), rest)
        return rest

    todo = None
    for va, pa, vb, pb in reversed(roots):
        todo = match(va, pa, vb, pb, todo)
    if todo is None:
        yield img
        return
    stack = [(permutations(todo[0][3]), todo)]
    while stack:
        perms, todo = stack[-1]
        perm = next(perms, None)
        if perm is None:
            stack.pop()
            continue
        (va, vb, mem_a, _, leaves), rest = todo
        if leaves:
            for w_a, w_b in zip(mem_a, perm):
                img[w_a] = w_b
        else:
            for w_a, w_b in zip(reversed(mem_a), reversed(perm)):
                rest = match(w_a, va, w_b, vb, rest)
        if rest is None:
            yield img
        else:
            stack.append((permutations(rest[0][3]), rest))


def rooted_isomorphisms(a: RootedFiniteTree, b: RootedFiniteTree):
    """All rooted isomorphisms (a, root) -> (b, root), as dict maps."""
    for img in _iter_isos(a.tree, b.tree, [(a.root, None, b.root, None)]):
        yield dict(enumerate(img))


def iter_automorphisms(t: FiniteTree):
    """Stream the automorphism group as vertex permutation tuples, anchored at
    the center (which every automorphism preserves)."""
    kind, c = center(t)
    if kind == "vertex":
        anchors = [[(c, None, c, None)]]
    else:
        u, v = c
        anchors = [[(u, v, u, v), (v, u, v, u)], [(u, v, v, u), (v, u, u, v)]]
    for roots in anchors:
        for img in _iter_isos(t, t, roots):
            yield tuple(img)


def automorphisms(t: FiniteTree, bound: int = 12):
    """The full automorphism group; raises on trees larger than `bound`."""
    if t.n > bound:
        raise TreeError("too large")
    return list(iter_automorphisms(t))


def _automorphism_test(t: FiniteTree):
    """`is_automorphism` on t, with t's edges read once."""
    identity = list(range(t.n))
    edges = t.edges()
    arcs = set(edges) | {(v, u) for u, v in edges}

    def test(sigma):
        return sorted(sigma) == identity and all(
            (sigma[u], sigma[v]) in arcs for u, v in edges
        )

    return test


def is_automorphism(t: FiniteTree, sigma) -> bool:
    return _automorphism_test(t)(sigma)


class EndoClassification(namedtuple("EndoClassification", "variant evidence")):
    """`variant` is rotation | inversion | translation | ray_forward;
    `evidence` the fixed vertex, reversed edge or displacement path."""

    __slots__ = ()


def automorphism_classifier(t: FiniteTree):
    """`classify_automorphism` on t, as a function of sigma alone: the
    distance table and the edge set are built once."""
    preserves = _automorphism_test(t)
    dist = [t.distances(x) for x in range(t.n)]

    def classify(sigma) -> EndoClassification:
        if not preserves(sigma):
            raise TreeError("not an automorphism")
        moved = [row[s] for row, s in zip(dist, sigma)]
        best_m = min(moved)
        best = moved.index(best_m)
        if best_m == 0:
            return EndoClassification("rotation", ("vertex", best))
        p = t.path(best, sigma[best])
        if best_m % 2 == 1:
            u, v = p[best_m // 2], p[best_m // 2 + 1]
            if sigma[u] == v and sigma[v] == u:
                return EndoClassification("inversion", ("edge", (min(u, v), max(u, v))))
        return EndoClassification("translation", ("path", tuple(p)))

    return classify


def classify_automorphism(t: FiniteTree, sigma) -> EndoClassification:
    """Minimize displacement m = d(x, sigma(x)).  m = 0 is a rotation about a
    fixed vertex.  Otherwise minimality forces m odd with the middle edge of
    the x..sigma(x) path reversed (an inversion); an even minimum would mean a
    translation along an infinite axis, impossible on finite trees but kept as
    an honest outcome for the oracle to count."""
    return automorphism_classifier(t)(sigma)
