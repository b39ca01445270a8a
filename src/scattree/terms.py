"""Finite presentations of scattered rooted trees.

Grammar:
    term := "box" | "succ(" term ")" | "sup(" arm {"," arm} ")"
          | "wsum(" seq ")" | "supseq(" seq ")"
    arm  := term ["*" (nat | "w")]
    seq  := "[" [term {"," term}] "](" term {"," term} ")"
          | "gen(" term ";" ctx ")"
          | "patch(" seq ";" nat ":" term {"," nat ":" term} ")"
    ctx  := like term, with exactly one "_"

`sup` identifies the roots of all arm copies with a single vertex.  `wsum`
hangs component n at the n-th vertex of a one-way path (the spine), whose
single end is the distinguished end.  `supseq` identifies the roots of the
whole component sequence.  `patch` overrides finitely many positions of a
sequence and exists so that twin constructions stay expressible as terms.

Everything is immutable with precomputed hashes, so structurally shared
expansions (stage n of a generated sequence references stage n-1, not a
copy) stay cheap to hash and compare.
"""

from __future__ import annotations

import json
import re
from math import gcd

from .finite_trees import FiniteTree, RootedFiniteTree

OMEGA_MULT = "w"
INF = float("inf")


class TermError(ValueError):
    pass


class AddressError(TermError):
    pass


# -- tri-valued logic ---------------------------------------------------------

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


def tri_and(*vals):
    if any(v == NO for v in vals):
        return NO
    if all(v == YES for v in vals):
        return YES
    return UNKNOWN


# -- term classes -------------------------------------------------------------

def _same_structure(a, b) -> bool:
    """Structural equality of two terms or sequences of the same type and
    hash, from an explicit stack: generated stages nest as deep as their
    index, which soon passes Python's recursion limit."""
    stack = [(a._key(), b._key())]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, (Term, ComponentSeq)):
            if type(x) is not type(y) or x._hash != y._hash:
                return False
            stack.append((x._key(), y._key()))
        elif isinstance(x, tuple):
            if type(y) is not tuple or len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


class Term:
    __slots__ = ("_hash",)

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        return _same_structure(self, other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_term(self)


class Box(Term):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("box")

    def _key(self):
        return ()


BOX = Box()


class Succ(Term):
    __slots__ = ("child",)

    def __init__(self, child: Term):
        self.child = child
        self._hash = hash(("succ", child._hash))

    def _key(self):
        return (self.child,)


class Sup(Term):
    __slots__ = ("arms",)

    def __init__(self, arms):
        arms = tuple((t, m) for t, m in arms)
        if not arms:
            raise TermError("sup needs at least one arm")
        for t, m in arms:
            if m != OMEGA_MULT and (not isinstance(m, int) or m < 1):
                raise TermError("arm multiplicity must be a positive integer or w")
        self.arms = arms
        self._hash = hash(("sup", tuple((t._hash, m) for t, m in arms)))

    def _key(self):
        return self.arms


class WSum(Term):
    __slots__ = ("seq",)

    def __init__(self, seq):
        self.seq = seq
        self._hash = hash(("wsum", seq._hash))

    def _key(self):
        return (self.seq,)


class SupSeq(Term):
    __slots__ = ("seq",)

    def __init__(self, seq):
        self.seq = seq
        self._hash = hash(("supseq", seq._hash))

    def _key(self):
        return (self.seq,)


# -- component sequences ------------------------------------------------------

class ComponentSeq:
    __slots__ = ("_hash",)

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        return _same_structure(self, other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_seq(self)


class Periodic(ComponentSeq):
    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix, cycle):
        self.prefix = tuple(prefix)
        self.cycle = tuple(cycle)
        if not self.cycle:
            raise TermError("cycle must be nonempty")
        self._hash = hash(
            ("periodic", tuple(t._hash for t in self.prefix), tuple(t._hash for t in self.cycle))
        )

    def _key(self):
        return (self.prefix, self.cycle)


class Generated(ComponentSeq):
    __slots__ = ("base", "context", "_stages")

    def __init__(self, base: Term, context: "Context"):
        self.base = base
        self.context = context
        self._stages = [base]
        self._hash = hash(("generated", base._hash, context._hash))

    def _key(self):
        return (self.base, self.context)


class Patched(ComponentSeq):
    """A sequence with finitely many positions overridden."""

    __slots__ = ("inner", "patches", "_map", "_stage_index")

    def __init__(self, inner: ComponentSeq, patches):
        if isinstance(inner, Patched):
            merged = dict(inner.patches)
            merged.update(patches)
            inner, patches = inner.inner, merged
        self.inner = inner
        self.patches = tuple(sorted((int(n), t) for n, t in dict(patches).items()))
        for n, _ in self.patches:
            if n < 0:
                raise TermError("patch positions must be >= 0")
        self._hash = hash(("patched", inner._hash, tuple((n, t._hash) for n, t in self.patches)))
        self._map = dict(self.patches)
        self._stage_index = {}  # patched position -> _effective_stage_index

    def _key(self):
        return (self.inner, self.patches)

    def patch_at(self, n):
        """The patch term at position n, or None."""
        return self._map.get(n)

    def last_patch(self):
        """The last patched position, or -1 when nothing is patched."""
        return self.patches[-1][0] if self.patches else -1


class Context:
    """A term shape with exactly one hole; substitution plugs a term in."""

    __slots__ = ("shape", "_hash")

    def __init__(self, shape):
        holes = _count_holes(shape)
        if holes != 1:
            raise TermError(f"context must have exactly one hole, found {holes}")
        self.shape = shape
        self._hash = hash(("context", shape._hash))

    def __eq__(self, other):
        return isinstance(other, Context) and self.shape == other.shape

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_term(self.shape)

    def subst(self, t: Term) -> Term:
        return _subst(self.shape, t)

    def hole_depth(self):
        """Edge distance from the context root to the hole's root position
        (sup arms add nothing: roots are identified)."""
        return _hole_depth(self.shape)

    def hole_under_wsum_cycle(self):
        return _hole_in_cycle(self.shape)

    def hole_under_sup_branch(self):
        """Is there a sup node on the hole path whose other content guarantees
        a branching vertex above (or at) every substituted copy?  True when
        the hole's arm has multiplicity >= 2 or a sibling arm has a
        non-single-vertex term."""
        return _hole_branch(self.shape)


class Hole(Term):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("hole")

    def _key(self):
        return ()


HOLE = Hole()


def _count_holes(t):
    if isinstance(t, Hole):
        return 1
    if isinstance(t, (Box,)):
        return 0
    if isinstance(t, Succ):
        return _count_holes(t.child)
    if isinstance(t, Sup):
        # multiplicity is substitution fan-out, not extra hole slots
        return sum(_count_holes(a) for a, _ in t.arms)
    if isinstance(t, WSum):
        seq = t.seq
        if not isinstance(seq, Periodic):
            raise TermError("contexts cannot contain generated sequences")
        pre = sum(_count_holes(x) for x in seq.prefix)
        cyc = sum(_count_holes(x) for x in seq.cycle)
        return pre + cyc
    if isinstance(t, SupSeq):
        raise TermError("contexts cannot contain supseq")
    raise TermError(f"bad context node {t!r}")


def _subst(t, repl):
    if isinstance(t, Hole):
        return repl
    if isinstance(t, Box):
        return t
    if isinstance(t, Succ):
        return Succ(_subst(t.child, repl))
    if isinstance(t, Sup):
        return Sup(tuple((_subst(a, repl), m) for a, m in t.arms))
    if isinstance(t, WSum):
        seq = t.seq
        return WSum(
            Periodic(
                tuple(_subst(x, repl) for x in seq.prefix),
                tuple(_subst(x, repl) for x in seq.cycle),
            )
        )
    raise TermError(f"bad context node {t!r}")


def _hole_path(t):
    """Steps from the context root to the hole, or None if absent."""
    if isinstance(t, Hole):
        return []
    if isinstance(t, Box):
        return None
    if isinstance(t, Succ):
        sub = _hole_path(t.child)
        return None if sub is None else [("succ",)] + sub
    if isinstance(t, Sup):
        for i, (a, m) in enumerate(t.arms):
            sub = _hole_path(a)
            if sub is not None:
                return [("sup", t, i)] + sub
        return None
    if isinstance(t, WSum):
        seq = t.seq
        for i, x in enumerate(seq.prefix):
            sub = _hole_path(x)
            if sub is not None:
                return [("wsum-prefix", t, i)] + sub
        for i, x in enumerate(seq.cycle):
            sub = _hole_path(x)
            if sub is not None:
                return [("wsum-cycle", t, i)] + sub
        return None
    return None


def _hole_depth(shape):
    depth = 0
    for step in _hole_path(shape):
        kind = step[0]
        if kind == "succ":
            depth += 1
        elif kind == "wsum-prefix":
            depth += step[2]
        elif kind == "wsum-cycle":
            depth += len(step[1].seq.prefix) + step[2]
    return depth


def _hole_in_cycle(shape):
    return any(step[0] == "wsum-cycle" for step in _hole_path(shape))


def _hole_branch(shape):
    for step in _hole_path(shape):
        if step[0] != "sup":
            continue
        sup, idx = step[1], step[2]
        _, m = sup.arms[idx]
        if m == OMEGA_MULT or m >= 2:
            return True
        for j, (a, mj) in enumerate(sup.arms):
            if j != idx and not is_single_vertex(a):
                return True
    return False


# -- formatting ---------------------------------------------------------------

def format_term(t: Term) -> str:
    if isinstance(t, Box):
        return "box"
    if isinstance(t, Hole):
        return "_"
    if isinstance(t, Succ):
        return f"succ({format_term(t.child)})"
    if isinstance(t, Sup):
        parts = []
        for a, m in t.arms:
            if m == 1:
                parts.append(format_term(a))
            else:
                parts.append(f"{format_term(a)}*{m}")
        return "sup(" + ",".join(parts) + ")"
    if isinstance(t, WSum):
        return f"wsum({format_seq(t.seq)})"
    if isinstance(t, SupSeq):
        return f"supseq({format_seq(t.seq)})"
    raise TermError(f"cannot format {t!r}")


def format_seq(seq: ComponentSeq) -> str:
    if isinstance(seq, Periodic):
        pre = ",".join(format_term(t) for t in seq.prefix)
        cyc = ",".join(format_term(t) for t in seq.cycle)
        return f"[{pre}]({cyc})"
    if isinstance(seq, Generated):
        return f"gen({format_term(seq.base)};{format_term(seq.context.shape)})"
    if isinstance(seq, Patched):
        pt = ",".join(f"{n}:{format_term(t)}" for n, t in seq.patches)
        return f"patch({format_seq(seq.inner)};{pt})"
    raise TermError(f"cannot format {seq!r}")


# -- parsing ------------------------------------------------------------------

_TOKENS = re.compile(r"\s*(box|succ|supseq|sup|wsum|gen|patch|w|_|\d+|[()\[\],;:*])")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKENS.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise TermError(f"syntax error at position {pos}: {text[pos:pos+20]!r}")
                break
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.toks.append((None, len(text)))
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def pos(self):
        return self.toks[self.i][1]

    def take(self, expected=None):
        tok, at = self.toks[self.i]
        if tok is None or (expected is not None and tok != expected):
            raise TermError(f"expected {expected or 'a token'} at position {at} in {self.text!r}")
        self.i += 1
        return tok

    def parse_term(self, allow_hole=False):
        tok = self.peek()
        if tok == "box":
            self.take()
            return BOX
        if tok == "_":
            if not allow_hole:
                raise TermError(f"hole not allowed at position {self.pos()}")
            self.take()
            return HOLE
        if tok == "succ":
            self.take()
            self.take("(")
            child = self.parse_term(allow_hole)
            self.take(")")
            return Succ(child)
        if tok == "sup":
            self.take()
            self.take("(")
            arms = [self.parse_arm(allow_hole)]
            while self.peek() == ",":
                self.take(",")
                arms.append(self.parse_arm(allow_hole))
            self.take(")")
            return Sup(arms)
        if tok == "wsum":
            self.take()
            self.take("(")
            seq = self.parse_seq(allow_hole)
            self.take(")")
            return WSum(seq)
        if tok == "supseq":
            if allow_hole:
                raise TermError(f"supseq not allowed inside a context (position {self.pos()})")
            self.take()
            self.take("(")
            seq = self.parse_seq(False)
            self.take(")")
            return SupSeq(seq)
        raise TermError(f"expected a term at position {self.pos()} in {self.text!r}")

    def parse_arm(self, allow_hole):
        t = self.parse_term(allow_hole)
        m = 1
        if self.peek() == "*":
            self.take("*")
            tok = self.take()
            if tok == "w":
                m = OMEGA_MULT
            elif tok.isdigit():
                m = int(tok)
                if m < 1:
                    raise TermError(f"multiplicity must be >= 1 at position {self.pos()}")
            else:
                raise TermError(f"expected multiplicity at position {self.pos()}")
        return (t, m)

    def parse_seq(self, allow_hole):
        tok = self.peek()
        if tok == "[":
            self.take("[")
            prefix = []
            if self.peek() != "]":
                prefix.append(self.parse_term(allow_hole))
                while self.peek() == ",":
                    self.take(",")
                    prefix.append(self.parse_term(allow_hole))
            self.take("]")
            self.take("(")
            cycle = [self.parse_term(allow_hole)]
            while self.peek() == ",":
                self.take(",")
                cycle.append(self.parse_term(allow_hole))
            self.take(")")
            return Periodic(prefix, cycle)
        if tok == "gen":
            if allow_hole:
                raise TermError(f"gen not allowed inside a context (position {self.pos()})")
            self.take()
            self.take("(")
            base = self.parse_term(False)
            self.take(";")
            shape = self.parse_term(allow_hole=True)
            self.take(")")
            return Generated(base, Context(shape))
        if tok == "patch":
            if allow_hole:
                raise TermError(f"patch not allowed inside a context (position {self.pos()})")
            self.take()
            self.take("(")
            inner = self.parse_seq(False)
            self.take(";")
            patches = {}
            while True:
                n = int(self.take())
                self.take(":")
                patches[n] = self.parse_term(False)
                if self.peek() != ",":
                    break
                self.take(",")
            self.take(")")
            return Patched(inner, patches)
        raise TermError(f"expected a component sequence at position {self.pos()} in {self.text!r}")


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term()
    if p.peek() is not None:
        raise TermError(f"trailing input at position {p.pos()} in {text!r}")
    return t


# -- built-in fixtures --------------------------------------------------------

def builtins():
    return {
        "box": BOX,
        "ray": parse_term("wsum([](box))"),
        "ex1": parse_term("wsum(gen(box;succ(sup(_*2))))"),
        "ex2": parse_term("wsum(gen(box;sup(succ(_)*w)))"),
        "ex3": parse_term("wsum(gen(wsum([](box));succ(sup(succ(_)*2))))"),
        "ex4": parse_term("wsum(gen(sup(succ(box)*3);succ(sup(_*2))))"),
    }


def resolve_name(text: str) -> Term:
    table = builtins()
    key = text.strip()
    if key in table:
        return table[key]
    return parse_term(text)


# -- component access ---------------------------------------------------------

def stage(seq: ComponentSeq, n: int) -> Term:
    """The n-th component term, fully expanded for generated sequences."""
    if n < 0:
        raise TermError("stage index must be >= 0")
    if isinstance(seq, Periodic):
        if n < len(seq.prefix):
            return seq.prefix[n]
        return seq.cycle[(n - len(seq.prefix)) % len(seq.cycle)]
    if isinstance(seq, Generated):
        stages = seq._stages
        while len(stages) <= n:
            stages.append(seq.context.subst(stages[-1]))
        return stages[n]
    if isinstance(seq, Patched):
        t = seq.patch_at(n)
        return stage(seq.inner, n) if t is None else t
    raise TermError(f"bad sequence {seq!r}")


def shift_seq(seq: ComponentSeq, k: int) -> ComponentSeq:
    """The sequence with the first k components dropped."""
    if k == 0:
        return seq
    if isinstance(seq, Periodic):
        if k < len(seq.prefix):
            return Periodic(seq.prefix[k:], seq.cycle)
        r = (k - len(seq.prefix)) % len(seq.cycle)
        return Periodic((), seq.cycle[r:] + seq.cycle[:r])
    if isinstance(seq, Generated):
        return Generated(stage(seq, k), seq.context)
    if isinstance(seq, Patched):
        patches = {n - k: t for n, t in seq.patches if n >= k}
        inner = shift_seq(seq.inner, k)
        return Patched(inner, patches) if patches else inner
    raise TermError(f"bad sequence {seq!r}")


# -- structural measures ------------------------------------------------------

def is_single_vertex(t: Term) -> bool:
    if isinstance(t, Box):
        return True
    if isinstance(t, Sup):
        return all(is_single_vertex(a) for a, _ in t.arms)
    if isinstance(t, SupSeq):
        return _seq_all_single(t.seq)
    return False


def _seq_all_single(seq) -> bool:
    if isinstance(seq, Periodic):
        return all(is_single_vertex(t) for t in seq.prefix + seq.cycle)
    if isinstance(seq, Generated):
        return is_single_vertex(seq.base) and is_single_vertex(seq.context.subst(BOX))
    if isinstance(seq, Patched):
        return _seq_all_single(seq.inner) and all(is_single_vertex(t) for _, t in seq.patches)
    raise TermError(f"bad sequence {seq!r}")


def is_rayless(t: Term) -> bool:
    """No ray at all: equivalent to containing no wsum node, since a supseq of
    rayless arms keeps every descent inside one arm."""
    if isinstance(t, (Box, Hole)):
        return True
    if isinstance(t, Succ):
        return is_rayless(t.child)
    if isinstance(t, Sup):
        return all(is_rayless(a) for a, _ in t.arms)
    if isinstance(t, WSum):
        return False
    if isinstance(t, SupSeq):
        return _seq_rayless(t.seq)
    raise TermError(f"bad term {t!r}")


def _seq_rayless(seq) -> bool:
    if isinstance(seq, Periodic):
        return all(is_rayless(t) for t in seq.prefix + seq.cycle)
    if isinstance(seq, Generated):
        return is_rayless(seq.base) and is_rayless(seq.context.subst(BOX))
    if isinstance(seq, Patched):
        return _seq_rayless(seq.inner) and all(is_rayless(t) for _, t in seq.patches)
    raise TermError(f"bad sequence {seq!r}")


def vertex_count(t: Term):
    """Exact vertex count, or INF for infinite trees."""
    if isinstance(t, Box):
        return 1
    if isinstance(t, Succ):
        return 1 + vertex_count(t.child)
    if isinstance(t, Sup):
        total = 1
        for a, m in t.arms:
            below = vertex_count(a) - 1
            if below == 0:
                continue
            if m == OMEGA_MULT:
                return INF
            total += m * below
        return total
    if isinstance(t, (WSum, SupSeq)):
        return INF
    raise TermError(f"bad term {t!r}")


def height(t: Term):
    """Exact height (max root distance), or INF."""
    if isinstance(t, Box):
        return 0
    if isinstance(t, Succ):
        h = height(t.child)
        return INF if h == INF else 1 + h
    if isinstance(t, Sup):
        return max(height(a) for a, _ in t.arms)
    if isinstance(t, WSum):
        return INF
    if isinstance(t, SupSeq):
        seq = t.seq
        if isinstance(seq, Periodic):
            return max(height(x) for x in seq.prefix + seq.cycle)
        if isinstance(seq, Generated):
            hd = seq.context.hole_depth()
            if _hole_in_cycle(seq.context.shape):
                return INF
            h0 = height(seq.base)
            if h0 == INF:
                return INF
            if hd == 0:
                hs = [height(stage(seq, i)) for i in range(4)]
                if INF in hs:
                    return INF
                if hs[1] == hs[2] == hs[3]:
                    return hs[3]
                return INF
            return INF
        if isinstance(seq, Patched):
            hin = height(SupSeq(seq.inner))
            hp = max((height(x) for _, x in seq.patches), default=0)
            if hin == INF or hp == INF:
                return INF
            return max(hin, hp)
    raise TermError(f"bad term {t!r}")


def root_degree(t: Term):
    """Number of neighbors of the root; int or 'w'."""
    if isinstance(t, Box):
        return 0
    if isinstance(t, Succ):
        return 1
    if isinstance(t, Sup):
        total = 0
        for a, m in t.arms:
            d = root_degree(a)
            if d == 0:
                continue

            if m == OMEGA_MULT or d == "w":
                return "w"
            total += m * d
        return total
    if isinstance(t, WSum):
        d = root_degree(stage(t.seq, 0))
        return "w" if d == "w" else d + 1
    if isinstance(t, SupSeq):
        seq = t.seq
        if isinstance(seq, Periodic):
            cyc = 0
            for x in seq.cycle:
                d = root_degree(x)
                if d == "w" or d > 0:
                    return "w"  # repeats forever
                cyc += d
            total = 0
            for x in seq.prefix:
                d = root_degree(x)
                if d == "w":
                    return "w"
                total += d
            return total
        degs = [root_degree(stage(seq, j)) for j in range(6)]
        if any(d == "w" for d in degs):
            return "w"
        if degs[1:] and all(d == degs[1] for d in degs[1:]):
            return "w" if degs[1] > 0 else degs[0]
        return "w"
    raise TermError(f"bad term {t!r}")


def branch_count(t: Term):
    """Max number of vertices with >= 2 children along a descending path from
    the root; monotone under rooted embedding.  None when not computable,
    INF when unbounded."""
    if isinstance(t, Box):
        return 0
    if isinstance(t, Succ):
        return branch_count(t.child)
    if isinstance(t, Sup):
        kids = root_children(t)
        if kids is None:
            return None
        return _branch_over(kids)
    if isinstance(t, WSum):
        seq = t.seq
        if not isinstance(seq, Periodic):
            return None
        # A cycle component with any child makes its spine vertex branch
        # (child + next spine vertex), and that recurs forever.
        if any(not is_single_vertex(x) for x in seq.cycle):
            return INF
        best = 0
        running = 0  # branching spine vertices before position i
        for i, x in enumerate(seq.prefix):
            kids = root_children(x)
            if kids is None:
                return None
            here = 0 if is_single_vertex(x) else 1
            sub = 0  # deepest branch count strictly below the spine vertex
            for c, _ in kids:
                b = branch_count(c)
                if b is None:
                    return None
                if b == INF:
                    return INF
                sub = max(sub, b)
            best = max(best, running + here + sub)
            running += here
        return max(best, running)
    if isinstance(t, SupSeq):
        seq = t.seq
        if not isinstance(seq, Periodic):
            return None
        kids = []
        for x in seq.prefix + seq.cycle:
            sub = root_children(x)
            if sub is None:
                return None
            kids.extend(sub)
        rd = root_degree(t)
        here = 1 if (rd == "w" or rd >= 2) else 0
        best = 0
        for c, _ in kids:
            b = branch_count(c)
            if b is None:
                return None
            if b == INF:
                return INF
            best = max(best, b)
        return here + best
    raise TermError(f"bad term {t!r}")


def _branch_over(kids):
    """Branch count at a vertex given its child subtrees with multiplicity."""
    total = 0
    for _, m in kids:
        total += 2 if m == OMEGA_MULT else m
        if total >= 2:
            break
    here = 1 if total >= 2 else 0
    best = 0
    for c, _ in kids:
        b = branch_count(c)
        if b is None:
            return None
        if b == INF:
            return INF
        best = max(best, b)
    return here + best


def root_children(t: Term):
    """Child subtrees of the root as (term, multiplicity) pairs, flattening
    root identifications.  None for supseq (infinitely many contributions)."""
    if isinstance(t, Box):
        return []
    if isinstance(t, Succ):
        return [(t.child, 1)]
    if isinstance(t, Sup):
        out = []
        for a, m in t.arms:
            sub = root_children(a)
            if sub is None:
                return None
            for c, mc in sub:
                if m == OMEGA_MULT or mc == OMEGA_MULT:
                    out.append((c, OMEGA_MULT))
                else:
                    out.append((c, m * mc))
        return out
    if isinstance(t, WSum):
        sub = root_children(stage(t.seq, 0))
        if sub is None:
            return None
        return sub + [(WSum(shift_seq(t.seq, 1)), 1)]
    if isinstance(t, SupSeq):
        return None
    raise TermError(f"bad term {t!r}")


# -- truncation ---------------------------------------------------------------

class Truncation:
    __slots__ = ("tree", "root", "lossy", "spine")

    def __init__(self, tree, root, lossy, spine):
        self.tree = tree
        self.root = root
        self.lossy = lossy
        self.spine = tuple(spine)

    @property
    def rooted(self):
        return RootedFiniteTree(self.tree, self.root)


def truncate(t: Term, depth: int, width: int = 3) -> Truncation:
    """Induced subtree of all vertices within `depth` of the root.  Omega
    multiplicities and supseq families are cut to `width` copies and flagged
    lossy when that hides anything."""
    if depth < 0:
        raise TermError("depth must be >= 0")
    edges = []
    spine = []
    lossy = [False]
    counter = [0]

    def fresh():
        v = counter[0]
        counter[0] += 1
        return v

    def build_into(term, v, budget):
        if isinstance(term, Box):
            return
        if isinstance(term, Succ):
            if budget >= 1:
                c = fresh()
                edges.append((v, c))
                build_into(term.child, c, budget - 1)
            else:
                lossy[0] = True
            return
        if isinstance(term, Sup):
            for a, m in term.arms:
                if m == OMEGA_MULT:
                    if not is_single_vertex(a):
                        lossy[0] = True
                    copies = width
                else:
                    copies = m
                for _ in range(copies):
                    build_into(a, v, budget)
            return
        if isinstance(term, WSum):
            lossy[0] = True  # the spine is infinite; a cut always hides its tail
            spine.append(v)
            build_into(stage(term.seq, 0), v, budget)
            prev = v
            for j in range(1, budget + 1):
                w = fresh()
                edges.append((prev, w))
                spine.append(w)
                build_into(stage(term.seq, j), w, budget - j)
                prev = w
            return
        if isinstance(term, SupSeq):
            if not _seq_all_single(term.seq):
                lossy[0] = True
            for j in range(width):
                build_into(stage(term.seq, j), v, budget)
            return
        raise TermError(f"bad term {term!r}")

    root = fresh()
    build_into(t, root, depth)
    tree = FiniteTree(counter[0], edges)
    return Truncation(tree, root, lossy[0], spine)


class CutCoder:
    """Symbolic isomorphism codes of truncation cuts, without building them.

    ``code(t, depth)`` is an integer id of the rooted isomorphism class of
    ``truncate(t, depth, width).rooted``: the AHU scheme (Aho, Hopcroft and
    Ullman 1974) with the children's classes interned as a sorted multiset.
    A cut is a function of (subterm, remaining depth), and a spine vertex's
    cut of (sequence, spine position, remaining depth), so both the codes
    and the intern table are memoised on those keys; the work grows with the
    number of distinct keys, not with the vertices of the cut.  Keys are
    coded from an explicit stack, children first, so a deep cut (a long
    spine or succ chain) needs no Python recursion.  Ids are handed out in
    first-visit order, so they repeat under every hash seed, and two ids are
    comparable only when the same coder made them.
    """

    __slots__ = ("width", "_ids", "_memo")

    def __init__(self, width: int):
        self.width = width
        self._ids = {}  # sorted ((child id, multiplicity), ...) -> id
        self._memo = {}  # (term, depth) or (seq, spine position, depth) -> id

    def code(self, t: Term, depth: int) -> int:
        if depth < 0:
            raise TermError("depth must be >= 0")
        memo = self._memo
        stack = [(t, depth)]
        kids_of = {}  # key on the stack -> {child key: multiplicity}
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            kids = kids_of.get(key)
            if kids is None:
                kids = kids_of[key] = {}
                if len(key) == 2:
                    self._hang(key[0], key[1], 1, kids)
                else:
                    self._hang_spine(*key, 1, kids)
                todo = [k for k in kids if k not in memo]
                if todo:
                    stack.extend(reversed(todo))
                    continue
            stack.pop()
            del kids_of[key]
            shape = {}
            for k, m in kids.items():
                c = memo[k]
                shape[c] = shape.get(c, 0) + m
            memo[key] = self._ids.setdefault(tuple(sorted(shape.items())), len(self._ids))
        return memo[(t, depth)]

    def _hang(self, t, budget, copies, kids):
        """Count into `kids` the keys of the child cuts that truncate hangs
        at the vertex where t's root sits, `copies` times over."""
        if isinstance(t, Box):
            return
        if isinstance(t, Succ):
            if budget >= 1:
                k = (t.child, budget - 1)
                kids[k] = kids.get(k, 0) + copies
            return
        if isinstance(t, Sup):
            for a, m in t.arms:
                self._hang(a, budget, copies * (self.width if m == OMEGA_MULT else m), kids)
            return
        if isinstance(t, WSum):
            self._hang_spine(t.seq, 0, budget, copies, kids)
            return
        if isinstance(t, SupSeq):
            for j in range(self.width):
                self._hang(stage(t.seq, j), budget, copies, kids)
            return
        raise TermError(f"bad term {t!r}")

    def _hang_spine(self, seq, j, budget, copies, kids):
        """The same for spine vertex j of wsum(seq): component j, then spine
        vertex j + 1 one level down."""
        self._hang(stage(seq, j), budget, copies, kids)
        if budget >= 1:
            k = (*_spine_key(seq, j + 1), budget - 1)
            kids[k] = kids.get(k, 0) + copies


def _spine_key(seq, j):
    """(sequence, position) naming spine vertex j's cut: past the last patch
    the inner sequence, and a periodic position folded into its first
    period, so spines that agree from some vertex on share their codes."""
    if isinstance(seq, Patched) and j > seq.last_patch():
        seq = seq.inner
    if isinstance(seq, Periodic) and j >= len(seq.prefix) + len(seq.cycle):
        j = len(seq.prefix) + (j - len(seq.prefix)) % len(seq.cycle)
    return seq, j


def expand_finite(t: Term) -> RootedFiniteTree:
    """Exact expansion of a finite term."""
    h = height(t)
    if h == INF or vertex_count(t) == INF:
        raise TermError("term is infinite")
    tr = truncate(t, int(h))
    return tr.rooted


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


# -- vertex addresses ---------------------------------------------------------

class ResolvedVertex:
    __slots__ = ("address", "spine_index", "depth_below", "subterm", "degree", "component_index")

    def __init__(self, address, spine_index, depth_below, subterm, degree, component_index):
        self.address = address
        self.spine_index = spine_index
        self.depth_below = depth_below
        self.subterm = subterm
        self.degree = degree
        self.component_index = component_index


def spine_address(n: int):
    return (("spine", n),)


def resolve(t: Term, address) -> ResolvedVertex:
    """Resolve an address: steps are ('spine', n) on a wsum, ('arm', i, copy)
    scoping into an arm copy of a sup (or the i-th member of a supseq), and
    ('into',) descending through a succ."""
    address = tuple(tuple(s) for s in address)
    cur = t
    spine_index = None
    comp_index = None
    depth = 0
    top = isinstance(t, WSum)
    for si, step in enumerate(address):
        kind = step[0]
        if kind == "spine":
            if not isinstance(cur, WSum):
                raise AddressError(f"step {si}: 'spine' needs a wsum, got {format_term(cur) if isinstance(cur, Term) else cur}")
            n = step[1]
            if n < 0:
                raise AddressError("spine index must be >= 0")
            if si == 0 and top:
                spine_index = n
                comp_index = n
            else:
                depth += n
            cur = stage(cur.seq, n)
        elif kind == "arm":
            i, copy = step[1], step[2]
            if isinstance(cur, Sup):
                if not (0 <= i < len(cur.arms)):
                    raise AddressError(f"step {si}: arm {i} out of range")
                a, m = cur.arms[i]
                if m != OMEGA_MULT and not (0 <= copy < m):
                    raise AddressError(f"step {si}: copy {copy} out of range")
                cur = a
            elif isinstance(cur, SupSeq):
                cur = stage(cur.seq, i)
            else:
                raise AddressError(f"step {si}: 'arm' needs a sup or supseq")
        elif kind == "into":
            if not isinstance(cur, Succ):
                raise AddressError(f"step {si}: 'into' needs a succ")
            cur = cur.child
            depth += 1
        else:
            raise AddressError(f"unknown step kind {kind!r}")
    deg = root_degree(cur)
    # degree in the whole tree: children of the scoped subterm, plus the next
    # spine vertex when the cursor sits on a spine, plus the parent edge
    on_spine = bool(address) and address[-1][0] == "spine"
    if on_spine:
        n_last = address[-1][1]
        has_parent = n_last > 0 or len(address) > 1
        extra = 1 + (1 if has_parent else 0)
    else:
        extra = 1 if address else 0
    degree = "w" if deg == "w" else deg + extra
    return ResolvedVertex(address, spine_index, depth, cur, degree, comp_index)


def level(t: Term, address) -> int:
    """Height along the distinguished end: spine position minus depth below."""
    r = resolve(t, address)
    if r.spine_index is None:
        if isinstance(t, WSum):
            # address inside component 0 without an explicit spine step
            return -r.depth_below
        raise AddressError("term has no distinguished end")
    return r.spine_index - r.depth_below


def join_address(t: Term, a, b):
    """First common vertex of the rays from a and b toward the spine end."""
    if not isinstance(t, WSum):
        raise AddressError("term has no distinguished end")
    a = tuple(tuple(s) for s in a)
    b = tuple(tuple(s) for s in b)
    ra, rb = resolve(t, a), resolve(t, b)
    ja = ra.spine_index if ra.spine_index is not None else 0
    jb = rb.spine_index if rb.spine_index is not None else 0
    if ja != jb:
        return spine_address(max(ja, jb))
    # same component: deepest common ancestor = longest common step prefix
    common = []
    for sa, sb in zip(a, b):
        if sa != sb:
            break
        common.append(sa)
    return tuple(common)


def address_distance(t: Term, a, b) -> int:
    ra, rb = resolve(t, a), resolve(t, b)
    ja = ra.spine_index if ra.spine_index is not None else 0
    jb = rb.spine_index if rb.spine_index is not None else 0
    if ja != jb:
        return ra.depth_below + abs(ja - jb) + rb.depth_below
    z = join_address(t, a, b)
    rz = resolve(t, z)
    return (ra.depth_below - rz.depth_below) + (rb.depth_below - rz.depth_below)


# -- embedding ----------------------------------------------------------------

def embeds(t: Term, s: Term, horizon: int = 16, _memo=None) -> str:
    """Tri-valued induced-embedding check, root to root; between two wsum
    terms the map is spine to spine with a forward shift (path-aligned).
    yes and no answers are sound; unknown marks the analysis horizon."""
    if _memo is None:
        _memo = {}
    key = (t, s)
    if key in _memo:
        return _memo[key]
    _memo[key] = UNKNOWN  # cycle guard; real value set below
    out = _embeds(t, s, horizon, _memo)
    _memo[key] = out
    return out


def _embeds(t, s, horizon, memo):
    if t == s:
        return YES
    if is_single_vertex(t):
        return YES
    if is_single_vertex(s):
        return NO
    if vertex_count(t) > vertex_count(s):
        return NO
    if isinstance(t, WSum) and isinstance(s, WSum):
        return _wsum_embeds(t.seq, s.seq, horizon, memo)
    if isinstance(t, SupSeq):
        return UNKNOWN
    # generic packing of root children; exact on finite terms, where a
    # root-to-root embedding is an injective matching of children into
    # children they embed in, decided once per pair of subterms by the memo
    dem = root_children(t)
    if dem is None:
        return UNKNOWN
    if isinstance(s, SupSeq):
        caps = []
        for j in range(horizon):
            sub = root_children(stage(s.seq, j))
            if sub is None:
                return UNKNOWN
            caps.extend(sub)
        verdict = _pack(dem, caps, horizon, memo)
        return YES if verdict == YES else UNKNOWN
    caps = root_children(s)
    if caps is None:
        return UNKNOWN
    return _pack(dem, caps, horizon, memo)


def _pack(demands, capacities, horizon, memo):
    """Can the demand children inject into the capacity children so that each
    pair embeds?  Tri-valued: NO only when even unknown edges cannot help.
    Multiplicities are amounts in a transportation problem, never unit
    copies, so the work does not grow with them."""
    edges = {}
    for i, (a, _) in enumerate(demands):
        for j, (b, _) in enumerate(capacities):
            edges[i, j] = embeds(a, b, horizon, memo)

    def feasible(ok):
        # omega demands each need an omega capacity; they share freely
        for i, (a, m) in enumerate(demands):
            if m == OMEGA_MULT and not any(
                capacities[j][1] == OMEGA_MULT and ok(edges[i, j])
                for j in range(len(capacities))
            ):
                return False
        need = [0 if m == OMEGA_MULT else m for _, m in demands]
        total = sum(need)
        spare = [total if m == OMEGA_MULT else m for _, m in capacities]
        held = [{} for _ in capacities]  # held[j][i]: amount of demand i placed at j
        for i in range(len(demands)):
            while need[i]:
                # augmenting path, demand u -> capacity j -> a demand that j
                # holds and passes on -> ...; shortest paths (breadth first)
                # bound the augmentations by the graph, not by the amounts
                # (Edmonds-Karp)
                came_from = {}  # capacity -> demand that reached it
                moved_from = {i: None}  # demand -> capacity it would leave
                frontier, end = [i], None
                while frontier and end is None:
                    reached = []
                    for u in frontier:
                        for j in range(len(capacities)):
                            if j in came_from or not ok(edges[u, j]):
                                continue
                            came_from[j] = u
                            if spare[j]:
                                end = j
                                break
                            for u2 in held[j]:
                                if u2 not in moved_from:
                                    moved_from[u2] = j
                                    reached.append(u2)
                        if end is not None:
                            break
                    frontier = reached
                if end is None:
                    return False
                # move the path's bottleneck amount in one step
                amount = min(need[i], spare[end])
                u = came_from[end]
                while moved_from[u] is not None:
                    amount = min(amount, held[moved_from[u]][u])
                    u = came_from[moved_from[u]]
                need[i] -= amount
                spare[end] -= amount
                j = end
                while j is not None:
                    u = came_from[j]
                    held[j][u] = held[j].get(u, 0) + amount
                    j = moved_from[u]
                    if j is not None:
                        held[j][u] -= amount
                        if not held[j][u]:
                            del held[j][u]
        return True

    if feasible(lambda e: e == YES):
        return YES
    if not feasible(lambda e: e != NO):
        return NO
    return UNKNOWN


def _wsum_embeds(p, q, horizon, memo):
    if p == q:
        return YES
    if isinstance(p, Periodic) and isinstance(q, Periodic):
        L = _lcm(len(p.cycle), len(q.cycle))
        s_max = len(q.prefix) + L
        n_check = max(len(p.prefix), len(q.prefix)) + L
        any_unknown = False
        for s in range(s_max + 1):
            verdict = tri_and(
                *(embeds(stage(p, n), stage(q, n + s), horizon, memo) for n in range(n_check + 1))
            )
            if verdict == YES:
                return YES
            if verdict == UNKNOWN:
                any_unknown = True
        return UNKNOWN if any_unknown else NO
    if (
        isinstance(p, Generated)
        and isinstance(q, Generated)
        and p.context == q.context
    ):
        # monotone rule: base embedding into stage s propagates along the
        # context, giving every component a shift-s target
        for s in range(horizon + 1):
            if embeds(p.base, stage(q, s), horizon, memo) == YES:
                return YES
        return UNKNOWN
    if isinstance(p, Periodic) and isinstance(q, Generated):
        # if q's stages form an increasing chain and every component of p
        # lands somewhere in it, a large enough shift works
        if embeds(stage(q, 0), stage(q, 1), horizon, memo) == YES:
            comps = set(p.prefix) | set(p.cycle)
            if all(
                any(embeds(c, stage(q, m), horizon, memo) == YES for m in range(horizon + 1))
                for c in comps
            ):
                return YES
        return UNKNOWN
    if isinstance(p, Generated) and isinstance(q, Periodic):
        # components of p outgrow every component of q: no shift can work
        v0, v1 = vertex_count(stage(p, 0)), vertex_count(stage(p, 1))
        caps = [vertex_count(x) for x in q.prefix + q.cycle]
        if v0 != INF and v1 != INF and v1 > v0 and INF not in caps:
            return NO
        return UNKNOWN
    if isinstance(p, Patched) or isinstance(q, Patched):
        return _patched_wsum_embeds(p, q, horizon, memo)
    return UNKNOWN


def _patched_wsum_embeds(p, q, horizon, memo):
    inner_p = p.inner if isinstance(p, Patched) else p
    inner_q = q.inner if isinstance(q, Patched) else q
    transient = 1 + max(
        (x.last_patch() for x in (p, q) if isinstance(x, Patched)), default=-1
    )
    both_periodic = isinstance(inner_p, Periodic) and isinstance(inner_q, Periodic)
    if both_periodic:
        # beyond the transient the verdict at shift s depends only on s
        # modulo the cycle alignment, so a finite shift range is exhaustive
        L = _lcm(len(inner_p.cycle), len(inner_q.cycle))
        s_max = transient + len(inner_q.prefix) + L
    else:
        s_max = horizon
    saw_unknown = False
    for s in range(s_max + 1):
        head = tri_and(
            *(
                _stage_embeds(p, n, q, n + s, horizon, memo)
                for n in range(transient + 1)
            )
        )
        if head == NO:
            continue
        # tail: beyond every patch both sides are their inner sequences
        tail = _tail_embeds(inner_p, inner_q, transient + 1, s, horizon, memo)
        verdict = tri_and(head, tail)
        if verdict == YES:
            return YES
        if verdict == UNKNOWN:
            saw_unknown = True
    if both_periodic and not saw_unknown:
        return NO
    return UNKNOWN  # shifts beyond the horizon stay open


def _tail_embeds(p, q, start, s, horizon, memo):
    """Do components p[n] embed in q[n+s] for all n >= start?"""
    if isinstance(p, Periodic) and isinstance(q, Periodic):
        L = _lcm(len(p.cycle), len(q.cycle))
        n_check = max(len(p.prefix), len(q.prefix)) + L
        return tri_and(
            *(
                embeds(stage(p, n), stage(q, n + s), horizon, memo)
                for n in range(start, start + n_check + 1)
            )
        )
    if isinstance(p, Generated) and isinstance(q, Generated) and p.context == q.context:
        # p[n] into q[n+s] for all n follows from p[0] into q[s] by applying
        # the context n times
        if embeds(stage(p, 0), stage(q, s), horizon, memo) == YES:
            return YES
        return UNKNOWN
    return UNKNOWN


def _stage_embeds(p, i, q, j, horizon, memo):
    """embeds(p[i], q[j]) with shortcuts for same-generator stages: stages
    nest as deep as their index, and packing recurses once per term level,
    so comparing two deep stages directly is slow and can exhaust the
    Python stack."""
    a, b = stage(p, i), stage(q, j)
    if a == b:
        return YES
    gp = p.inner if isinstance(p, Patched) else p
    gq = q.inner if isinstance(q, Patched) else q
    if (
        isinstance(gp, Generated)
        and isinstance(gq, Generated)
        and gp.context == gq.context
        and gp.base == gq.base
    ):
        ii = _effective_stage_index(p, i)
        jj = _effective_stage_index(q, j)
        if ii is not None and jj is not None:
            if ii == jj:
                return YES
            if ii < jj:
                if embeds(gp.base, stage(gq, jj - ii), horizon, memo) == YES:
                    return YES
            else:
                obstruction = _stage_strictly_growing(gp)
                if obstruction:
                    return NO
    return embeds(a, b, horizon, memo)


def _effective_stage_index(seq, n):
    """If component n of seq equals stage k of the underlying generator,
    return k."""
    if isinstance(seq, Patched):
        t = seq.patch_at(n)
        if t is None:
            return _effective_stage_index(seq.inner, n)
        found = seq._stage_index
        if n not in found:
            found[n] = next((k for k in range(n + 2) if stage(seq.inner, k) == t), None)
        return found[n]
    return n


def _stage_strictly_growing(gen: Generated):
    """Sound certificate that stage m never embeds into stage n for m > n:
    an embedding-monotone measure strictly increases along all stages."""
    v0, v1 = vertex_count(stage(gen, 0)), vertex_count(stage(gen, 1))
    if v0 != INF and v1 != INF:
        # |C[t]| is affine in |t| with slope >= 1, so one strict step
        # propagates forever
        return v1 > v0
    hd = gen.context.hole_depth()
    if hd >= 1:
        h0, h1, h2 = (height(stage(gen, j)) for j in range(3))
        if INF not in (h0, h1, h2) and h1 == hd + h0 and h2 == hd + h1:
            # height(C[t]) = max(hd + height(t), c); once the hole branch
            # dominates it dominates forever and adds hd >= 1 each stage
            return True
    return False


def _lcm(a, b):
    return a * b // gcd(a, b)


def equimorphic(t: Term, s: Term, horizon: int = 16) -> str:
    memo = {}
    return tri_and(embeds(t, s, horizon, memo), embeds(s, t, horizon, memo))
