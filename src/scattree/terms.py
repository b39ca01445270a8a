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

Everything is immutable, and each term node computes its hash and its
measures (single vertex, rayless, vertex count, height, root degree) once,
in its constructor, from its children's.  Substitution into a context
rebuilds only the nodes on the path to the hole and shares every hole-free
subterm, so structurally shared expansions (stage n of a generated
sequence references stage n-1, not a copy) stay cheap to build, hash,
compare and measure.  Walks over a whole term (formatting, ranks, cuts)
run from explicit stacks, since terms may nest far deeper than Python's
recursion limit.

This module is the syntax and structure layer.  Root-to-root embedding
lives in `embedding` and truncation cuts in `cuts`, the only module that
builds `finite_trees` values; their public names are re-exported here on
first access (PEP 562), so loading `terms` loads neither.
"""

from __future__ import annotations

import re

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
    """A term node.  Its hash and its measure fields are computed in the
    constructor from its children's, so reading them costs no walk:
    `single` (the tree is one vertex), `rayless`, `size` (vertex count, or
    INF), `height` (max root distance, or INF) and `degree` (number of root
    neighbours, an int or 'w').  A field that is the same for every node
    of a class is a class attribute, the others are slots."""

    # _analyses: whole-term analysis results of this object, created on
    # first use by analysis_cache
    __slots__ = ("_hash", "_analyses")

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
    single = rayless = True
    size, height, degree = 1, 0, 0

    def __init__(self):
        self._hash = hash("box")

    def _key(self):
        return ()


BOX = Box()


class Succ(Term):
    __slots__ = ("child", "rayless", "size", "height")
    single, degree = False, 1

    def __init__(self, child: Term):
        self.child = child
        self._hash = hash(("succ", child._hash))
        self.rayless = child.rayless
        self.size = child.size + 1
        self.height = child.height + 1

    def _key(self):
        return (self.child,)


class Sup(Term):
    __slots__ = ("arms", "single", "rayless", "size", "height", "degree")

    def __init__(self, arms):
        # arms: (term, multiplicity) tuples, kept as given; the parser hands
        # over its own list
        arms = tuple(arms)
        if not arms:
            raise TermError("sup needs at least one arm")
        self.arms = arms
        self._hash = hash(("sup", _fold_arms(self, arms)))

    def _key(self):
        return self.arms


def _fold_arms(node, arms):
    """Set node's measure fields to those of a root with the (term,
    multiplicity) arms identified at it, and return the arms' hash keys,
    all in one pass over the arms: parsing builds many small sups, so
    construction is hot."""
    keys = []
    single = rayless = True
    height, size, degree = 0, 1, 0
    for t, m in arms:
        if type(m) is not int or m < 1:  # a positive int passes one test
            if m != OMEGA_MULT and (not isinstance(m, int) or m < 1):
                raise TermError("arm multiplicity must be a positive integer or w")
        keys.append((t._hash, m))
        if t.single:
            continue  # the shared root itself: rayless and of height 0
        single = False
        if not t.rayless:
            rayless = False
        if t.height > height:
            height = t.height
        if m == OMEGA_MULT:
            size, degree = INF, OMEGA_MULT
        else:
            size += m * (t.size - 1)
            if degree != OMEGA_MULT:
                degree = OMEGA_MULT if t.degree == OMEGA_MULT else degree + m * t.degree
    node.single, node.rayless, node.height, node.size, node.degree = single, rayless, height, size, degree
    return tuple(keys)


class WSum(Term):
    __slots__ = ("seq", "degree")
    single = rayless = False
    size = height = INF

    def __init__(self, seq):
        self.seq = seq
        self._hash = hash(("wsum", seq._hash))
        d = seq.first.degree
        self.degree = d if d == OMEGA_MULT else d + 1  # component 0, then the spine

    def _key(self):
        return (self.seq,)


class SupSeq(Term):
    """The roots of all components identified.  When no generated stage has
    a child, the supseq is *regular*: it is the tree sup(o1, ..., ok,
    c1*w, ..., cL*w) of its components that are not single vertices, o
    those that occur once (prefix entries and patches, in position order)
    and c the members of the cycle at its least period (`components`), and
    `arms` holds those (term, multiplicity) pairs, measured as a sup's.
    Otherwise `arms` is None."""

    __slots__ = ("seq", "arms", "single", "rayless", "size", "height", "degree")

    def __init__(self, seq):
        self.seq = seq
        self._hash = hash(("supseq", seq._hash))
        once, recurring, gen = components(seq)
        # a Hole measures as a box, so a context shape measures as
        # context.subst(BOX), and with the base it stands for every stage
        if gen is None or gen.base.single and gen.context.shape.single:
            self.arms = arms = tuple(
                [(t, 1) for _, t in once if not t.single]
                + [(t, OMEGA_MULT) for t in recurring if not t.single]
            )
            _fold_arms(self, arms)
            return
        self.arms = None
        parts = [t for _, t in once] + [*recurring, gen.base, gen.context.shape]
        self.single = False
        self.rayless = all(t.rayless for t in parts)
        # height(C[t]) = max(height(t), height(C[box])) when the hole sits at
        # depth 0, so no stage outgrows the base and the shape; a hole at
        # depth d >= 1 puts stage n at least n * d high
        self.height = INF if gen.context.hole_depth() else max(t.height for t in parts)
        self.size, self.degree = INF, OMEGA_MULT  # a root neighbour recurs forever

    def _key(self):
        return (self.seq,)


def analysis_cache(t: Term) -> dict:
    """The table of whole-term analysis results stored on this term object
    (its rank summary, its shift report per horizon), filled on first use.
    It lives and dies with the object, so equal terms built separately never
    share an entry.  Cached results are shared by every caller: read-only."""
    try:
        return t._analyses
    except AttributeError:
        t._analyses = {}
        return t._analyses


# -- component sequences ------------------------------------------------------

class ComponentSeq:
    # first: component 0, which a wsum's root degree reads; _layout: what
    # `components` returns, filled on its first call
    __slots__ = ("_hash", "first", "_layout")

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

    def last_patch(self):
        """The last patched position, or -1 when nothing is patched."""
        return -1


class Periodic(ComponentSeq):
    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix, cycle):
        self.prefix = prefix = tuple(prefix)
        self.cycle = cycle = tuple(cycle)
        if not cycle:
            raise TermError("cycle must be nonempty")
        self.first = (prefix or cycle)[0]
        self._layout = None
        self._hash = hash(
            ("periodic", tuple([t._hash for t in prefix]), tuple([t._hash for t in cycle]))
        )

    def _key(self):
        return (self.prefix, self.cycle)


class Generated(ComponentSeq):
    # _index: stage term -> its least index, over stages 0.._entered - 1;
    # both are filled by `stage_index` alone
    __slots__ = ("base", "context", "_stages", "_index", "_entered")

    def __init__(self, base: Term, context: "Context"):
        self.base = base
        self.context = context
        self._stages = [base]
        self._index = {}
        self._entered = 0
        self.first = base
        self._layout = None  # never filled: the layout would refer to self
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
        self.patches = tuple(sorted([(int(n), t) for n, t in dict(patches).items()]))
        for n, _ in self.patches:
            if n < 0:
                raise TermError("patch positions must be >= 0")
        self._hash = hash(("patched", inner._hash, tuple([(n, t._hash) for n, t in self.patches])))
        self._map = dict(self.patches)
        self.first = self._map.get(0, inner.first)
        self._layout = None
        self._stage_index = {}  # patched position -> stage_index

    def _key(self):
        return (self.inner, self.patches)

    def patch_at(self, n):
        """The patch term at position n, or None."""
        return self._map.get(n)

    def last_patch(self):
        return self.patches[-1][0] if self.patches else -1


class Context:
    """A term shape with exactly one hole; substitution plugs a term in.

    The constructor walks the shape once, from an explicit stack (a parsed
    shape may nest deeper than Python's recursion limit): it counts the
    holes, rejects generated sequences and supseq, and records `path`, the
    (node, index) steps from the root to the hole.  The index is the arm of
    a sup, the position in prefix + cycle of a wsum, and 0 under a succ.
    The hole's depth and its count of wsum cycle steps are summed along
    that path once, here, and kept: cut codes and stage analysis ask for
    them per component."""

    __slots__ = ("shape", "path", "_hash", "_hole_depth", "_hole_wsum_cycles")

    def __init__(self, shape):
        holes, found = 0, None
        stack = [(shape, None)]  # (node, the steps to it as a linked list)
        while stack:
            t, steps = stack.pop()
            if isinstance(t, Box):
                continue
            if isinstance(t, Hole):
                holes += 1
                found = steps
                continue
            if isinstance(t, Succ):
                below = [t.child]
            elif isinstance(t, Sup):
                # multiplicity is substitution fan-out, not extra hole slots
                below = [a for a, _ in t.arms]
            elif isinstance(t, WSum) and isinstance(t.seq, Periodic):
                below = t.seq.prefix + t.seq.cycle
            elif isinstance(t, WSum):
                raise TermError("contexts cannot contain generated sequences")
            elif isinstance(t, SupSeq):
                raise TermError("contexts cannot contain supseq")
            else:
                raise TermError(f"bad context node {t!r}")
            # pushed right to left, so the first bad node is reported
            stack.extend((below[i], (steps, t, i)) for i in reversed(range(len(below))))
        if holes != 1:
            raise TermError(f"context must have exactly one hole, found {holes}")
        path = []
        depth = cycles = 0
        while found is not None:
            found, node, i = found
            path.append((node, i))
            if isinstance(node, Succ):
                depth += 1
            elif isinstance(node, WSum):
                depth += i  # spine position i lies i edges below the wsum's root
                cycles += i >= len(node.seq.prefix)
        self.path = tuple(reversed(path))
        self._hole_depth, self._hole_wsum_cycles = depth, cycles
        self.shape = shape
        self._hash = hash(("context", shape._hash))

    def __eq__(self, other):
        return isinstance(other, Context) and self.shape == other.shape

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_term(self.shape)

    def subst(self, t: Term) -> Term:
        """The shape with t in the hole.  Only the nodes on the hole path
        are rebuilt; every hole-free subterm is the shape's own object."""
        for node, i in reversed(self.path):
            if isinstance(node, Succ):
                t = Succ(t)
            elif isinstance(node, Sup):
                arms = list(node.arms)
                arms[i] = (t, arms[i][1])
                t = Sup(arms)
            else:
                k = len(node.seq.prefix)
                entries = list(node.seq.prefix + node.seq.cycle)
                entries[i] = t
                t = WSum(Periodic(entries[:k], entries[k:]))
        return t

    def hole_depth(self):
        """Edge distance from the context root to the hole's root position
        (sup arms add nothing: roots are identified)."""
        return self._hole_depth

    def hole_wsum_cycles(self):
        """How many steps of the hole path enter a cycle position of a wsum."""
        return self._hole_wsum_cycles


class Hole(Term):
    """The hole of a context shape.  It measures as a box, so a shape's
    measure fields are those of the shape with a box plugged in."""

    __slots__ = ()
    single = rayless = True
    size, height, degree = 1, 0, 0

    def __init__(self):
        self._hash = hash("hole")

    def _key(self):
        return ()


HOLE = Hole()


# -- formatting ---------------------------------------------------------------

def format_term(t) -> str:
    """The text of a term or sequence in the grammar above.  It is written
    from an explicit stack of pieces, each a text or a node still to write,
    so any nesting depth prints without Python recursion."""
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        else:
            stack.extend(reversed(_pieces(x)))
    return "".join(out)


format_seq = format_term


def _pieces(x):
    """x as texts and the child nodes between them, left to right."""
    if isinstance(x, Box):
        return ["box"]
    if isinstance(x, Hole):
        return ["_"]
    if isinstance(x, Succ):
        return ["succ(", x.child, ")"]
    if isinstance(x, Sup):
        return ["sup(", *_separated([a] if m == 1 else [a, f"*{m}"] for a, m in x.arms), ")"]
    if isinstance(x, (WSum, SupSeq)):
        return ["wsum(" if isinstance(x, WSum) else "supseq(", x.seq, ")"]
    if isinstance(x, Periodic):
        return ["[", *_separated([t] for t in x.prefix), "](", *_separated([t] for t in x.cycle), ")"]
    if isinstance(x, Generated):
        return ["gen(", x.base, ";", x.context.shape, ")"]
    if isinstance(x, Patched):
        return ["patch(", x.inner, ";", *_separated([f"{n}:", t] for n, t in x.patches), ")"]
    raise TermError(f"cannot format {x!r}")


def _separated(items):
    """The pieces of each item, with commas between the items."""
    out = []
    for item in items:
        if out:
            out.append(",")
        out += item
    return out


# -- parsing ------------------------------------------------------------------

_TOKENS = re.compile(r"[()\[\],;:*]|box|succ|supseq|sup|wsum|gen|patch|w|_|\d+")


def _token_position(text, i):
    """Where token i of a text that splits into tokens starts; past the last
    token, the text's length.  Only error messages need positions."""
    for j, m in enumerate(_TOKENS.finditer(text)):
        if j == i:
            return m.start()
    return len(text)


def _expected(what, text, i):
    return TermError(f"expected {what} at position {_token_position(text, i)} in {text!r}")


# the frames of the nodes with one part, shared by every parse, and the
# frame under the root
_SUCC, _WSUM, _SUPSEQ, _ROOT = ("succ",), ("wsum",), ("supseq",), ("root",)


def parse_term(text: str) -> Term:
    """Read a term in the grammar above; whitespace may separate tokens.

    The tokens come from one findall, and the text splits into tokens
    exactly when they cover every non-space character; a syntax error names
    the end of the last token before the first stray character.  The reader
    keeps the open nodes on an explicit stack of frames ``(kind, parts...)``,
    so any nesting depth parses without Python recursion.  It alternates two
    phases: open pushes the frames of the nodes that start at the cursor
    down to a leaf, and close hands each finished value to the innermost
    frame, which either asks for its next part or is finished itself, in
    one branch per kind."""
    toks = _TOKENS.findall(text)
    covered = len("".join(toks))
    if covered != len(text) and covered != len("".join(text.split())):
        pos = 0
        for m in _TOKENS.finditer(text):
            if text[pos:m.start()].strip():
                break
            pos = m.end()
        raise TermError(f"syntax error at position {pos}: {text[pos:pos+20]!r}")
    toks.append(None)
    frame, stack = _ROOT, []  # the innermost frame, and the frames around it
    hole = False  # reading a gen context, the only place "_" may stand
    i = 0
    while True:
        # open: push the frame of a node, or read a leaf and close
        tok = toks[i]
        if tok == "box":
            i += 1
            value = BOX
        elif tok == "succ":
            if toks[i + 1] != "(":
                raise _expected("(", text, i + 1)
            i += 2
            stack.append(frame)
            frame = _SUCC
            continue
        elif tok == "sup":
            if toks[i + 1] != "(":
                raise _expected("(", text, i + 1)
            i += 2
            stack.append(frame)
            frame = ["sup", []]
            continue
        elif tok == "wsum" or tok == "supseq":
            if hole and tok == "supseq":
                raise TermError(
                    f"supseq not allowed inside a context (position {_token_position(text, i)})"
                )
            if toks[i + 1] != "(":
                raise _expected("(", text, i + 1)
            i += 2
            stack.append(frame)
            frame = _WSUM if tok == "wsum" else _SUPSEQ
            # a component sequence, under any number of patches
            while True:
                tok = toks[i]
                stack.append(frame)
                if tok == "[":
                    i += 1
                    if toks[i] == "]":
                        if toks[i + 1] != "(":
                            raise _expected("(", text, i + 1)
                        i += 2
                        frame = ["cycle", [], []]
                    else:
                        frame = ["prefix", [], []]
                    break
                if tok != "gen" and tok != "patch":
                    raise _expected("a component sequence", text, i)
                if hole:
                    raise TermError(
                        f"{tok} not allowed inside a context (position {_token_position(text, i)})"
                    )
                if toks[i + 1] != "(":
                    raise _expected("(", text, i + 1)
                i += 2
                frame = [tok]
                if tok == "gen":
                    break  # its base is a term
            continue
        elif tok == "_":
            if not hole:
                raise TermError(f"hole not allowed at position {_token_position(text, i)}")
            i += 1
            value = HOLE
        else:
            raise _expected("a term", text, i)
        # close: hand the value to the innermost frame; finish the frames it
        # completes, up to one that wants another part
        while True:
            kind = frame[0]
            tok = toks[i]
            if kind == "sup":
                if tok == "*":
                    tok = toks[i + 1]
                    if tok is None:
                        raise _expected("a token", text, i + 1)
                    i += 2
                    if tok == "w":
                        m = OMEGA_MULT
                    elif not tok.isdigit():
                        raise TermError(f"expected multiplicity at position {_token_position(text, i)}")
                    elif (m := int(tok)) < 1:
                        raise TermError(f"multiplicity must be >= 1 at position {_token_position(text, i)}")
                    frame[1].append((value, m))
                    tok = toks[i]
                else:
                    frame[1].append((value, 1))
                if tok == ",":
                    i += 1
                    break
                if tok != ")":
                    raise _expected(")", text, i)
                value = Sup(frame[1])
            elif kind == "succ":
                if tok != ")":
                    raise _expected(")", text, i)
                value = Succ(value)
            elif kind == "cycle":
                frame[2].append(value)
                if tok == ",":
                    i += 1
                    break
                if tok != ")":
                    raise _expected(")", text, i)
                value = Periodic(frame[1], frame[2])
            elif kind == "wsum":
                if tok != ")":
                    raise _expected(")", text, i)
                value = WSum(value)
            elif kind == "prefix":
                frame[1].append(value)
                if tok == ",":
                    i += 1
                    break
                if tok != "]":
                    raise _expected("]", text, i)
                if toks[i + 1] != "(":
                    raise _expected("(", text, i + 1)
                i += 2
                frame[0] = "cycle"
                break
            elif kind == "gen":
                if len(frame) == 1:
                    if tok != ";":
                        raise _expected(";", text, i)
                    i += 1
                    frame.append(value)  # the base; the context follows
                    hole = True
                    break
                if tok != ")":
                    raise _expected(")", text, i)
                hole = False
                value = Generated(frame[1], Context(value))
            elif kind == "patch":
                if len(frame) == 1:
                    if tok != ";":
                        raise _expected(";", text, i)
                    frame += (value, {}, None)  # inner sequence, patches, position
                else:
                    frame[2][frame[3]] = value
                    if tok != ",":
                        if tok != ")":
                            raise _expected(")", text, i)
                        i += 1
                        value = Patched(frame[1], frame[2])
                        frame = stack.pop()
                        continue
                n = toks[i + 1]
                if n is None:
                    raise _expected("a token", text, i + 1)
                if not n.isdigit():
                    raise _expected("a patch position", text, i + 1)
                if toks[i + 2] != ":":
                    raise _expected(":", text, i + 2)
                frame[3] = int(n)
                i += 3
                break
            elif kind == "supseq":
                if tok != ")":
                    raise _expected(")", text, i)
                value = SupSeq(value)
            else:  # the root
                if tok is not None:
                    raise TermError(f"trailing input at position {_token_position(text, i)} in {text!r}")
                return value
            i += 1
            frame = stack.pop()


# -- built-in fixtures --------------------------------------------------------

# the built-in trees by name; `resolve_name` parses only the one asked for
_BUILTIN_TEXTS = {
    "box": "box",
    "ray": "wsum([](box))",
    "ex1": "wsum(gen(box;succ(sup(_*2))))",
    "ex2": "wsum(gen(box;sup(succ(_)*w)))",
    "ex3": "wsum(gen(wsum([](box));succ(sup(succ(_)*2))))",
    "ex4": "wsum(gen(sup(succ(box)*3);succ(sup(_*2))))",
}


def builtins():
    return {name: parse_term(text) for name, text in _BUILTIN_TEXTS.items()}


def resolve_name(text: str) -> Term:
    return parse_term(_BUILTIN_TEXTS.get(text.strip(), text))


# -- component access ---------------------------------------------------------

def stage(seq: ComponentSeq, n: int) -> Term:
    """The n-th component term, fully expanded for generated sequences."""
    if n < 0:
        raise TermError("stage index must be >= 0")
    cls = type(seq)
    if cls is Patched:
        t = seq._map.get(n)
        if t is not None:
            return t
        seq = seq.inner  # never itself patched: Patched merges nested patches
        cls = type(seq)
    if cls is Periodic:
        if n < len(seq.prefix):
            return seq.prefix[n]
        return seq.cycle[(n - len(seq.prefix)) % len(seq.cycle)]
    if cls is Generated:
        stages = seq._stages
        while len(stages) <= n:
            stages.append(seq.context.subst(stages[-1]))
        return stages[n]
    raise TermError(f"bad sequence {seq!r}")


def stage_index(seq: ComponentSeq, n: int):
    """Which stage component n of a generated sequence, patched or not,
    is: n at a position no patch overrides, and at a patched one the least
    k <= n + 1 whose stage equals the patch, or None.  A patched position
    costs one lookup in the generator's table of least stage indices,
    grown to stage n + 1 when needed, and its answer is kept by position.
    The generator counts the stages entered: stages may repeat, so the
    table's size does not tell how far it reaches."""
    if type(seq) is not Patched:
        return n
    t = seq._map.get(n)
    if t is None:
        return n
    found = seq._stage_index
    if n not in found:
        gen = seq.inner
        index = gen._index
        for k in range(gen._entered, n + 2):
            index.setdefault(stage(gen, k), k)
        gen._entered = max(gen._entered, n + 2)
        k = index.get(t, n + 2)
        found[n] = k if k <= n + 1 else None
    return found[n]


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

def components(seq):
    """The layout of a component sequence as (once, recurring, generated):
    `once`, the (position, term) pairs, in position order, of the prefix
    entries no patch overrides and of the patches; `recurring`, the cycle
    at its least period under term equality, from the first position past
    the prefix, each term at infinitely many positions; and `generated`,
    the Generated sequence whose stages fill every other position, or
    None.  Every reader of a sequence's layout goes through here, so all
    read one cycle length.  A generated sequence is read whole, patched
    positions included.  The layout is computed once per sequence object
    and kept in its `_layout` slot."""
    layout = seq._layout
    if layout is not None:
        return layout
    if isinstance(seq, Generated):
        return (), (), seq
    if isinstance(seq, Periodic):
        cycle, n = seq.cycle, len(seq.cycle)
        p = next((p for p in range(1, n // 2 + 1) if n % p == 0 and cycle[p:] == cycle[: n - p]), n)
        layout = tuple(enumerate(seq.prefix)), cycle[:p], None
    else:
        # patched: the inner layout, its overridden entries replaced by the patches
        once, recurring, gen = components(seq.inner)
        kept = [(n, t) for n, t in once if seq.patch_at(n) is None]
        layout = tuple(sorted(kept + list(seq.patches), key=lambda e: e[0])), recurring, gen
    seq._layout = layout
    return layout


def settled_from(seq) -> int:
    """The first position past every component that occurs once: from
    there on each component is a cycle member or a generated stage."""
    once = components(seq)[0]
    return once[-1][0] + 1 if once else 0


def is_single_vertex(t: Term) -> bool:
    return t.single


def is_rayless(t: Term) -> bool:
    """No ray at all: equivalent to containing no wsum node, since a supseq of
    rayless arms keeps every descent inside one arm."""
    return t.rayless


def vertex_count(t: Term):
    """Exact vertex count, or INF for infinite trees."""
    return t.size


def height(t: Term):
    """Exact height (max root distance), or INF."""
    return t.height


def root_degree(t: Term):
    """Number of neighbors of the root; int or 'w'."""
    return t.degree


def branch_count(t: Term):
    """Max number of vertices with >= 2 children along a descending path from
    the root; monotone under rooted embedding.  None when not computable,
    INF when unbounded.  Computed children first (`fold`), so no nesting
    depth needs Python recursion."""
    parts = {}

    def below(x):
        parts[x] = p = _branch_parts(x)
        return [c for _, group in p for c in group or ()] if isinstance(p, list) else []

    def step(x, kids, memo):
        p = parts[x]
        if not isinstance(p, list):
            return p
        best = 0
        for offset, group in p:
            if group is None:
                return None
            sub = 0
            for c in group:
                b = memo[c]
                if b is None or b == INF:
                    return b
                sub = max(sub, b)
            best = max(best, offset + sub)
        return best

    return fold(t, below, step, {})


def _branch_parts(t):
    """The branch count of t as its parts: a list of (offset, children),
    where t's count is the largest offset plus the largest count among the
    children, read in order (a child of count None or INF decides it, and
    so does a None in place of the children); or the count itself when no
    child is needed."""
    if t.single:
        return []  # a box, or a supseq of boxes, branches nowhere
    if isinstance(t, Succ):
        return [(0, [t.child])]
    if isinstance(t, (Sup, SupSeq)):
        kids = root_children(t)
        if kids is None:
            return None
        total = 0
        for _, m in kids:
            total += 2 if m == OMEGA_MULT else m
            if total >= 2:
                break
        return [(1 if total >= 2 else 0, [c for c, _ in kids])]
    if isinstance(t, WSum):
        once, recurring, gen = components(t.seq)
        if gen is not None:
            return None
        # A cycle component with any child makes its spine vertex branch
        # (child + next spine vertex), and that recurs forever.
        if any(not x.single for x in recurring):
            return INF
        # a spine vertex branches when its component has a child; the
        # i-th such vertex adds i + 1 to the deepest count strictly below it
        out = []
        for x in (x for _, x in once if not x.single):
            kids = root_children(x)
            out.append((len(out) + 1, kids and [c for c, _ in kids]))
        return out
    raise TermError(f"bad term {t!r}")


def root_children(t: Term):
    """Child subtrees of the root as (term, multiplicity) pairs, flattening
    root identifications, a regular supseq's `arms` as a sup's; a
    single-vertex subterm of any class adds none.  None only for a supseq
    whose generated stages have a child.  The identified roots are read
    from an explicit stack, so a sup nest of any depth is flattened without
    Python recursion."""
    # every embeds pair reads this, so it dispatches on the exact class
    if type(t) is Succ:
        return [(t.child, 1)]
    out = []
    stack = [(t, 1)]  # (term whose root is identified here, multiplicity)
    while stack:
        x, m = stack.pop()
        cls = type(x)
        if cls is Succ:
            out.append((x.child, m))
        elif cls is Sup or cls is SupSeq:
            arms = x.arms
            if arms is None:
                return None
            if m == 1:
                stack.extend(reversed(arms))
            else:
                for a, ma in reversed(arms):
                    stack.append((a, OMEGA_MULT if OMEGA_MULT in (m, ma) else m * ma))
        elif x.single:
            pass  # a box: no vertex below the root
        elif cls is WSum:
            # component 0's root is the spine vertex: its children, then
            # the next spine vertex
            stack.append((Succ(WSum(shift_seq(x.seq, 1))), m))
            stack.append((stage(x.seq, 0), m))
        else:
            raise TermError(f"bad term {x!r}")
    return out


# -- children-first walks ----------------------------------------------------

def fold(root, children, combine, memo):
    """The value of `root`, computed children first from an explicit stack,
    so a term may nest far deeper than Python's recursion limit.
    `children(x)` lists the nodes that x's value depends on, in the order
    they are evaluated; `combine(x, kids, memo)` returns x's value, where
    `kids` is what children(x) returned and each of them has its value in
    `memo`.  `memo` maps nodes to values; it may start filled, and every
    node evaluated is left in it."""
    stack = [(root, None)]  # (node, its children once they are pushed)
    while stack:
        x, kids = stack.pop()
        if kids is None:
            if x in memo:
                continue
            kids = children(x)
            todo = [(k, None) for k in kids if k not in memo]
            if todo:
                stack.append((x, kids))
                stack.extend(reversed(todo))
                continue
        memo[x] = combine(x, kids, memo)
    return memo[root]


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
    cur = vertex = t
    stem = ()
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
        if kind != "arm":  # an arm copy's root is the vertex itself
            vertex, stem = cur, address[: si + 1]
    # degree in the whole tree: children of the vertex, plus the next spine
    # vertex when it sits on a spine, plus the parent edge
    if stem and stem[-1][0] == "spine":
        extra = 2 if stem[-1][1] > 0 or len(stem) > 1 else 1
    else:
        extra = 1 if stem else 0
    degree = "w" if vertex.degree == "w" else vertex.degree + extra
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


# -- the names of the later layers ---------------------------------------------

# the public names that `embedding` and `cuts` define, by module
_LATER = {
    "embedding": ("embeds", "equimorphic", "growth_certificate", "shift_walk"),
    "cuts": ("CutCoder", "Truncation", "expand_finite", "truncate", "truncation_dot", "truncation_json"),
}
_HOME = {name: module for module, names in _LATER.items() for name in names}


def __getattr__(name):
    """A name of a later layer, loaded on first access and then bound here,
    so every later read is a plain attribute read."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value
