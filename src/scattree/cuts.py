"""Depth-bounded cuts of terms: the finite trees that `truncate` builds,
their symbolic isomorphism codes (`CutCoder`), the exact expansion of a
finite term, and the text renderings of a cut.

`CutCoder` keys a cut by the least term that has it (rules (a) and (b)):
a finite term at most at its height, a deep stage as a shallower stage.

This is the one module of the engine that builds `finite_trees` values;
the analysis layers read terms only, and `finite_trees` stays an
independent oracle for them.
"""

from __future__ import annotations

import json

from .terms import (
    INF,
    OMEGA_MULT,
    Generated,
    Patched,
    Periodic,
    Succ,
    Sup,
    SupSeq,
    Term,
    TermError,
    WSum,
    fold,
    height,
    stage,
    stage_index,
    vertex_count,
)


class Truncation:
    __slots__ = ("tree", "root", "lossy", "spine")

    def __init__(self, tree, root, lossy, spine):
        self.tree = tree
        self.root = root
        self.lossy = lossy
        self.spine = tuple(spine)

    @property
    def rooted(self):
        from .finite_trees import RootedFiniteTree

        return RootedFiniteTree(self.tree, self.root)


def truncate(t: Term, depth: int, width: int = 3) -> Truncation:
    """Induced subtree of all vertices within `depth` of the root.  A `*w`
    arm, and likewise each recurring member of a supseq, is cut to `width`
    copies, and the cut is flagged lossy when that hides anything; a supseq
    whose generated stages have a child is cut to its first `width`
    members, also lossy.  Vertices are numbered depth first, from an
    explicit stack of tasks, so a deep cut needs no Python recursion."""
    from .finite_trees import FiniteTree

    if depth < 0:
        raise TermError("depth must be >= 0")
    if width < 1:
        raise TermError("width must be >= 1")
    edges = []
    spine = []
    lossy = False
    n = 1  # vertices made so far; 0 is the root
    # tasks, the next on top: (term, v, budget) hangs the cut of term at
    # vertex v; (seq, j, v, budget) hangs spine vertex j of wsum(seq) below
    # spine vertex v, with budget the depth left at that wsum's root
    stack = [(t, 0, depth)]
    while stack:
        task = stack.pop()
        if len(task) == 4:
            seq, j, v, budget = task
            w, n = n, n + 1
            edges.append((v, w))
            spine.append(w)
            if j < budget:
                stack.append((seq, j + 1, w, budget))
            stack.append((stage(seq, j), w, budget - j))
            continue
        term, v, budget = task
        if term.single:
            continue  # no vertex below v
        if isinstance(term, Succ):
            if budget >= 1:
                stack.append((term.child, n, budget - 1))
                edges.append((v, n))
                n += 1
            else:
                lossy = True
        elif isinstance(term, (Sup, SupSeq)):
            if term.arms is None:
                lossy = True  # `width` members stand for a generated family
                stack.extend((stage(term.seq, j), v, budget) for j in reversed(range(width)))
                continue
            copies = []
            for a, m in term.arms:
                if not a.single:
                    if m == OMEGA_MULT:
                        lossy, m = True, width
                    copies += [(a, v, budget)] * m
            stack.extend(reversed(copies))
        elif isinstance(term, WSum):
            lossy = True  # the spine is infinite; a cut always hides its tail
            spine.append(v)
            if budget >= 1:
                stack.append((term.seq, 1, v, budget))
            stack.append((stage(term.seq, 0), v, budget))
        else:
            raise TermError(f"bad term {term!r}")
    return Truncation(FiniteTree(n, edges), 0, lossy, spine)


class CutCoder:
    """Symbolic isomorphism codes of truncation cuts, without building them.

    ``code(t, depth)`` is an integer id of the depth-`depth` cut of t with
    capped class counts: the AHU scheme (Aho, Hopcroft and Ullman 1974),
    each vertex's children interned as the sorted multiset of their
    classes, every class counted min(N, width) times, N its count in the
    tree (w for a `*w` arm or a recurring supseq member).  So the id is an
    isomorphism invariant of the tree, and two trees with different ids
    differ within `depth` of the root.  The plain cut is not one:
    ``truncate`` hangs 1 + width copies of s under sup(s, s*w) and width
    under sup(s*w), two trees with w copies of s at the root.  It is the
    class of ``truncate(t, depth, width)`` with each vertex's children
    capped at `width` per class.  A supseq whose generated stages have a
    child counts its first `width` members only, as ``truncate`` does.

    A cut is a function of (subterm, remaining depth), and a spine vertex's
    cut of (sequence, spine position, remaining depth), so both the codes
    and the intern table are memoised on those keys; the work grows with the
    number of distinct keys, not with the vertices of the cut.  Keys are
    coded children first by `fold`, so a deep cut (a long spine or succ
    chain) needs no Python recursion.  Ids are handed out in
    first-visit order, so they repeat under every hash seed, and two ids are
    comparable only when the same coder made them.

    A key names the least term with the same cut, so the keys grow with the
    term and the depth, not with the stages of a generated spine.  (a) A
    term u of finite height h has key (u, h) at every remaining depth
    b >= h: the cut keeps all of u.  (b) Let gen(base; C) have hole depth
    d >= 1.  Its stage i at remaining depth b, as a component or as a patch
    that copies it (`terms.stage_index`), is coded as stage min(i, m), with
    m = ceil(b / d): stage i is C^m[stage i - m], whose holes lie at depth
    m * d >= b or deeper (a hole in a wsum cycle recurs), so every filler,
    each `*w` arm keeping `width` copies of it, gives the same depth-b cut.
    Either swap keeps the cut the same tree, children in the same order, so
    the ids are those the plain keys get.
    """

    __slots__ = ("width", "_ids", "_memo")

    def __init__(self, width: int):
        if width < 1:
            raise TermError("width must be >= 1")
        self.width = width
        self._ids = {}  # sorted ((child id, multiplicity), ...) -> id
        self._memo = {}  # (term, depth) or (seq, spine position, depth) -> id

    def code(self, t: Term, depth: int) -> int:
        if depth < 0:
            raise TermError("depth must be >= 0")
        return fold(_term_key(t, depth), self._kids, self._intern, self._memo)

    def _kids(self, key):
        """{child key: multiplicity} of the cut named by key, in the order
        truncate hangs the child cuts.  A succ or a single vertex is read
        at once; the roots identified at any other vertex are flattened
        from an explicit stack, so a sup nest of any depth needs no Python
        recursion."""
        if len(key) == 2:
            t, budget = key
            last = None
        else:
            # spine vertex j of wsum(seq): component j, then spine vertex
            # j + 1 one level down
            seq, j, budget = key
            t = _component(seq, j, budget)
            last = _spine_key(seq, j + 1, budget - 1) if budget >= 1 else None
        cls = type(t)
        if cls is Succ:
            kids = {_term_key(t.child, budget - 1): 1} if budget >= 1 else {}
        elif t.single:
            kids = {}  # a box, or a supseq of boxes: no child cut
        else:
            kids = {}
            # tasks, the next on top: (term, copies) hangs the child cuts at
            # term's root, and (child key, copies) counts one
            stack = [(t, 1)]
            while stack:
                t, copies = stack.pop()
                cls = type(t)
                if cls is Succ:
                    if budget >= 1:
                        k = _term_key(t.child, budget - 1)
                        kids[k] = kids.get(k, 0) + copies
                elif cls is Sup or cls is SupSeq and t.arms is not None:
                    for a, m in reversed(t.arms):
                        stack.append((a, copies * (self.width if m == OMEGA_MULT else m)))
                elif cls is tuple:
                    kids[t] = kids.get(t, 0) + copies
                elif t.single:
                    pass
                elif cls is WSum:
                    if budget >= 1:
                        stack.append((_spine_key(t.seq, 1, budget - 1), copies))
                    stack.append((_component(t.seq, 0, budget), copies))
                elif cls is SupSeq:
                    stack.extend((_component(t.seq, j, budget), copies) for j in reversed(range(self.width)))
                else:
                    raise TermError(f"bad term {t!r}")
        if last is not None:
            kids[last] = kids.get(last, 0) + 1
        return kids

    def _intern(self, key, kids, memo):
        """The id of the sorted multiset of the children's ids, each id
        counted at most `width` times; one or two children make their tuple
        directly."""
        w = self.width
        if len(kids) == 1:
            ((k, m),) = kids.items()
            shape = ((memo[k], m if m < w else w),)
        elif len(kids) == 2:
            (a, m), (b, n) = kids.items()
            a, b = memo[a], memo[b]
            if a == b:
                m += n
                shape = ((a, m if m < w else w),)
            else:
                m, n = m if m < w else w, n if n < w else w
                shape = ((a, m), (b, n)) if a < b else ((b, n), (a, m))
        else:
            counts = {}
            for k, m in kids.items():
                c = memo[k]
                m += counts.get(c, 0)
                counts[c] = m if m < w else w
            shape = tuple(sorted(counts.items()))
        return self._ids.setdefault(shape, len(self._ids))


def _term_key(t, budget):
    """The key of t's cut at remaining depth budget, by rule (a)."""
    return (t, budget if budget < t.height else t.height)


def _component(seq, j, budget):
    """Component j of seq, as the least stage with the same cut at remaining
    depth budget, by rule (b)."""
    gen = seq.inner if type(seq) is Patched else seq
    if type(gen) is not Generated:
        return stage(seq, j)
    d = gen.context.hole_depth()
    k = stage_index(seq, j) if d else None
    if k is None:
        return stage(seq, j)
    k = min(k, -(-budget // d))
    stages = gen._stages
    return stages[k] if k < len(stages) else stage(gen, k)


def _spine_key(seq, j, budget):
    """The key of spine vertex j's cut at remaining depth budget: past the
    last patch the inner sequence, and a periodic position folded into its
    first period, so spines that agree from some vertex on share their
    codes."""
    if type(seq) is Patched and j > seq.last_patch():
        seq = seq.inner
    if type(seq) is Periodic and j >= len(seq.prefix) + len(seq.cycle):
        j = len(seq.prefix) + (j - len(seq.prefix)) % len(seq.cycle)
    return seq, j, budget


def expand_finite(t: Term):
    """Exact expansion of a finite term, as a `finite_trees.RootedFiniteTree`:
    its cut at its height, which hides nothing, since a finite term has no
    `*w` arm and no recurring supseq member with a child."""
    h = height(t)
    if h == INF or vertex_count(t) == INF:
        raise TermError("term is infinite")
    return truncate(t, int(h)).rooted


def truncation_dot(tr: Truncation) -> str:
    lines = ["graph truncation {"]
    spine = set(tr.spine)
    for v in range(tr.tree.n):
        attrs = ['shape=circle', 'label=""']
        if v == tr.root:
            attrs.append("style=bold")
        if v in spine:
            attrs = ['shape=square', 'label=""', "style=filled", "fillcolor=lightgray"]
            if v == tr.root:
                attrs.append("penwidth=2")
        lines.append(f"  v{v} [{', '.join(attrs)}];")
    for u, v in tr.tree.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines)


def truncation_json(tr: Truncation) -> str:
    return json.dumps(
        {
            "n": tr.tree.n,
            "edges": [list(e) for e in tr.tree.edges()],
            "root": tr.root,
            "spine": list(tr.spine),
            "lossy": tr.lossy,
        }
    )
