"""Two embedding relations on terms, and the shift relation between
component sequences that serves both and the shift analysis.

`embeds` decides whether one tree embeds in another with roots matched,
by packing root children (`_pack`).  `shift_embeds` decides whether one
spined sum embeds in another spine into spine at some shift, by walking
the shifts of one spine along the other (`shift_walk`); a yes gives an
embedding without roots, the relation twins are counted by.  Every walk
and every pack runs on the terms' structure (`terms`), never on an
expanded tree.

`embeds` is the one decider of a (term, term) pair: the packing and the
walks call it for every pair of children or components they read, and
only it reads the memo's (term, term) entries.  Its recursion costs two
Python frames per finite term level and four per spined-sum level.
Every pair is decided within one budget, `PAIR_HORIZON`, and no
function here takes a horizon, so a memo's entries hold for every caller.
"""

from __future__ import annotations

from math import lcm

from .terms import (
    INF,
    NO,
    OMEGA_MULT,
    UNKNOWN,
    YES,
    Generated,
    Patched,
    Periodic,
    SupSeq,
    Term,
    WSum,
    components,
    root_children,
    stage,
    stage_index,
    tri_and,
)

# the budget of every pair: the supseq members `_capacities` reads, and the
# stages and the shifts searched one by one by `shift_embeds`
PAIR_HORIZON = 16


def embeds(t: Term, s: Term, _memo=None) -> str:
    """Tri-valued induced-embedding check, root to root.  yes and no answers
    are sound; unknown marks the pair budget (`PAIR_HORIZON`).

    The one decider of a (term, term) pair: `_pack` and the shift tables
    call it for every pair they read.  The measure fields settle a pair
    before any memo key is built; the memo decides every other pair once,
    its entry unknown while the pair is being decided (the cycle guard).
    A finite term level costs two Python frames (`embeds`, `_pack`), a
    spined-sum level four (`embeds`, `shift_embeds`, a shift table's
    `walk` and `read`).

    Every other pair packs root children (`terms.root_children`), listed
    exactly for every term but a supseq whose generated stages have a
    child: such a source is unknown, and of such a target the first
    `PAIR_HORIZON` members are read (`_capacities`): only a yes is sound.

    Its callers need the rooted relation: `_pack`'s child pairs, the
    shift tables' component pairs, `_stage_embeds`, and
    `ends._regular_tail` through `equimorphic`.  Between two wsum terms
    it still answers `shift_embeds`, whose shift s > 0 moves the root and
    whose no refutes only spine-aligned embeddings: not yet root to root.
    """
    if t is s or t.single:
        return YES
    if t.size > s.size:  # a one-vertex s included: t has two vertices or more
        return NO
    if _memo is None:
        _memo = {}
    key = (t, s)
    size = len(_memo)
    out = _memo.setdefault(key, UNKNOWN)  # the cycle guard, until decided
    if len(_memo) == size:
        return out
    if t == s:
        out = YES
    elif isinstance(t, WSum) and isinstance(s, WSum):
        out = shift_embeds(t, s, _memo)
    else:
        # generic packing of root children; exact on finite terms, where a
        # root-to-root embedding is an injective matching of children into
        # children they embed in, decided once per pair of subterms by the memo
        dem = root_children(t)
        caps = None if dem is None else _capacities(s)
        if caps is not None:
            out = _pack(dem, caps, _memo)
            if out != YES and isinstance(s, SupSeq) and s.arms is None:
                out = UNKNOWN
    _memo[key] = out
    return out


def _capacities(s):
    """The root children of s; of a supseq whose generated stages have a
    child, those of its first `PAIR_HORIZON` members, where only a yes is
    sound; None when they are not listed."""
    caps = root_children(s)
    if caps is not None or not isinstance(s, SupSeq):
        return caps
    caps = []
    for j in range(PAIR_HORIZON):
        sub = root_children(stage(s.seq, j))
        if sub is None:
            return None
        caps.extend(sub)
    return caps


def _pack(demands, capacities, memo):
    """Can the demand children inject into the capacity children so that each
    pair embeds?  Tri-valued: NO only when even unknown edges cannot help.
    Multiplicities are amounts in a transportation problem, never unit
    copies, so the work does not grow with them."""
    edges = {}
    for i, (a, _) in enumerate(demands):
        for j, (b, _) in enumerate(capacities):
            edges[i, j] = embeds(a, b, memo)

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


def shift_embeds(t: Term, s: Term, memo=None) -> str:
    """The shift relation between spined sums t and s: is there a shift
    k >= 0 with component n of t embedding in component n + k of s for
    every n, each pair decided root to root by `embeds`?  A yes gives an
    embedding without roots, spine vertex n mapped to n + k; a no refutes
    only such spine-aligned embeddings.  `embeds` answers it between two
    spined sums.  Where no shift table lists the deciding shifts, the
    shifts 0..PAIR_HORIZON are searched one by one."""
    if memo is None:
        memo = {}
    p, q = t.seq, s.seq
    if isinstance(p, Periodic) and isinstance(q, Generated):
        # if q's stages form an increasing chain and every component of p
        # lands somewhere in it, a large enough shift works
        if embeds(stage(q, 0), stage(q, 1), memo) == YES:
            comps = set(p.prefix) | set(p.cycle)
            if all(
                any(embeds(c, stage(q, m), memo) == YES for m in range(PAIR_HORIZON + 1))
                for c in comps
            ):
                return YES
        return UNKNOWN
    if isinstance(p, Generated) and isinstance(q, Periodic):
        # components of p outgrow every component of q: no shift can work
        v0, v1 = stage(p, 0).size, stage(p, 1).size
        caps = [x.size for x in q.prefix + q.cycle]
        if v0 != INF and v1 != INF and v1 > v0 and INF not in caps:
            return NO
        return UNKNOWN
    if isinstance(_inner(p), Periodic) and isinstance(_inner(q), Periodic):
        # the shifts the table lists decide every shift
        table = _shift_table(p, q, memo)
        verdict = NO
        for s in table.shifts_to_try():
            walked = table.walk(s, False, None, memo)[0]
            if walked == YES:
                return YES
            if walked == UNKNOWN:
                verdict = UNKNOWN
        return verdict
    for s in range(PAIR_HORIZON + 1):
        if shift_walk(p, q, s, memo)[0] == YES:
            return YES
    return UNKNOWN  # shifts beyond PAIR_HORIZON stay open


# A generated tail pair at or below this position is tried first: its yes
# carries forward through the context, and it stays shallow however deep
# the last patch sits.
_EARLY_STAGE = 4

# The memo keys of the shift tables (`_ShiftTable`) are (_TABLES, p, q);
# the memo's other keys are (term, term) pairs
_TABLES = object()


def shift_walk(p, q, s, memo=None, both_ways=False, reach=None):
    """The shift relation: does component p[n] embed in component q[n + s]
    for every n >= u?  With `both_ways` each pair must embed both ways
    (equimorphy).

    * Periodic inner sequences: call a position marked when it holds a
      prefix entry or a patch, and let L be the lcm of the cycles at their
      least periods, as `components` lists them.  The pairs
      (p[n], q[n + s]) are of four kinds: both sides marked; p[n] marked
      and q[n + s] not; q[m] marked and p[m - s] not, for m >= s; and
      neither marked, two cycle members fixed by n mod L and s mod L.  The
      first three are read at the marks, however far out they sit.  The
      last kind is the tail class of s mod L: L pairs, read on L positions
      past every mark, and decided once per memo and direction by the
      memo's shift table of (p, q) (`_ShiftTable`).  A failing pair of the
      class recurs once per L positions, so a failing class fails the walk
      and leaves no eventual offset; under a class that holds, u is one
      past the last marked pair that is not yes.
    * Generated inner sequences with one context: every pair n < T, where
      T is one past the last patch on either side, each through
      `_stage_embeds`, then the pair at min(T, 4), whose yes carries to
      every later pair because the context preserves embeddings; failing
      that, the pair at T, the only one whose no refutes.  u is one past
      the last pair read that is not yes.
    * Anything else: unknown.

    Returns (verdict, u): the verdict for u = 0, and the least offset u
    from which the relation holds, or None when none is found.  Without
    `reach` a no returns (no, None) as soon as it is read.  With it u is
    always sought: every marked pair under a class that holds is read, and
    a generated tail that fails at T is scanned up to `reach` pairs
    further for a pair that holds.
    """
    if memo is None:
        memo = {}
    inner_p, inner_q = _inner(p), _inner(q)
    if isinstance(inner_p, Periodic) and isinstance(inner_q, Periodic):
        return _shift_table(p, q, memo).walk(s, both_ways, reach, memo)
    if not (
        isinstance(inner_p, Generated)
        and isinstance(inner_q, Generated)
        and inner_p.context == inner_q.context
    ):
        return UNKNOWN, None
    start = _transient(p, q)

    def holds(a, n, b):
        verdict = _stage_embeds(a, n, b, n + s, memo)
        if both_ways and verdict != NO:
            verdict = tri_and(verdict, _stage_embeds(b, n + s, a, n, memo))
        return verdict

    verdict, last = YES, -1  # last: the last pair read that is not yes
    for n in range(start):
        pair = holds(p, n, q)
        if pair != YES:
            if pair == NO and reach is None:
                return NO, None
            verdict, last = tri_and(verdict, pair), n
    early = min(start, _EARLY_STAGE)
    tail = holds(inner_p, early, inner_q)
    if tail != YES and early < start:
        tail = holds(p, start, q)
    verdict = tri_and(verdict, tail)
    if tail == YES:
        return verdict, last + 1
    for n in range(start + 1, start + (reach or 0) + 1):
        if holds(p, n, q) == YES:
            return verdict, n
    return verdict, None


def _shift_table(p, q, memo):
    """The memo's shift table of (p, q), built on first use."""
    key = (_TABLES, p, q)
    table = memo.get(key)
    if table is None:
        table = memo[key] = _ShiftTable(p, q)
    return table


class _ShiftTable:
    """The shift relation between two sequences p and q whose inner
    sequences are periodic (`shift_walk`), one table per memo: both
    layouts, and the verdict of each tail class and direction decided so
    far.  L, the lcm of the cycles at their least periods (`components`),
    sets the tail window and the classes.

    `marked` lists the positions of a shift's marked pairs and `tail` those
    of its class; `read` takes each pair's two components straight off the
    marks and the cycles, and builds no object per pair, which would give
    the cycle collector work in proportion to the pairs read.  Every pair
    goes to `embeds`, which keeps its verdict in the memo's (term, term)
    entry: equal components share one verdict however many objects carry
    them.  The memo keys the table by p and q themselves, so equal
    sequences share one table too.  The table does not hold the memo that
    holds it, so a finished memo is freed at once, not left to the cycle
    collector: each walk passes the memo in.  Only yes and no are kept for
    classes: an unknown may rest on the cycle guard of a pair still being
    decided further up.
    """

    __slots__ = (
        "classes", "marks_p", "marks_q", "cyc_p", "cyc_q", "kp", "kq", "cycle", "window",
    )

    def __init__(self, p, q):
        self.classes = {}  # (s mod L, both_ways) -> yes or no
        once_p, cyc_p, _ = components(p)
        once_q, cyc_q, _ = components(q)
        # position -> term at each mark, in position order
        self.marks_p, self.marks_q = dict(once_p), dict(once_q)
        self.cyc_p, self.cyc_q = cyc_p, cyc_q
        self.kp, self.kq = len(_inner(p).prefix), len(_inner(q).prefix)
        self.cycle = lcm(len(cyc_p), len(cyc_q))
        # the first of L positions past every mark on either side
        self.window = max(once_p[-1][0] + 1 if once_p else 0, once_q[-1][0] + 1 if once_q else 0)

    def shifts_to_try(self):
        """The shifts s, in increasing order, whose verdicts decide whether
        some shift of p along q holds: 0, the differences D = {m - n >= 0 :
        m marked in q, n marked in p}, and one shift per class of s mod L_q
        from q's settled point S_q on (L_q: q's cycle at its least period).

        From S_q on, q[n + s] is the cycle member fixed by n + s mod L_q,
        so a shift s >= S_q reads the pairs of its class's representative
        r in [S_q, S_q + L_q).  A shift s < S_q outside D has a superset of
        r's pairs.  At each n where q[n + s] is unmarked, s and r read the
        same pair.  At each n where q[n + s] is marked, p[n] is unmarked (s
        is not in D), and r's pair there, two cycle members, is the pair s
        reads at n + jL for j large enough, L the table's lcm.  So s
        holds only if r does, and is unknown only if r is unknown or holds:
        leaving s out changes neither a yes nor a no.  D lies below S_q and
        takes a step per pair of marks to list, so when there are S_q such
        pairs or more, every shift below S_q is tried instead."""
        yield 0  # first: the shift that most often holds, for free
        marks_p, marks_q = self.marks_p, self.marks_q
        settled = next(reversed(marks_q)) + 1 if marks_q else 0
        top = settled + len(self.cyc_q)
        if len(marks_p) * len(marks_q) >= settled:
            yield from range(1, top)
            return
        shifts = {m - n for m in marks_q for n in marks_p if m > n}
        yield from sorted(shifts)
        yield from range(max(settled, 1), top)

    def walk(self, s, both_ways, reach, memo):
        """`shift_walk` at shift s: the tail class, then, unless it fails,
        the marked pairs.  A failing class settles the walk, no with no
        offset, before any marked pair is read."""
        key = (s % self.cycle, both_ways)
        tail = self.classes.get(key)
        if tail is None:
            tail = self.read(self.tail(), s, both_ways, True, memo)[0]
            if tail != UNKNOWN:
                self.classes[key] = tail
        if tail == NO:
            return NO, None
        verdict, last = YES, -1  # last: the greatest marked n whose pair is not yes
        if self.marks_p or self.marks_q:
            verdict, last = self.read(self.marked(s), s, both_ways, reach is None or tail != YES, memo)
        if tail == YES and (verdict != NO or reach is not None):
            return verdict, last + 1
        return (NO if verdict == NO else UNKNOWN), None

    def marked(self, s):
        """The positions n where p[n] or q[n + s] is marked: p's marks, then
        each n = m - s for a mark m of q that p leaves unmarked, each in
        position order."""
        marks_p = self.marks_p
        positions = list(marks_p)
        for m in self.marks_q:
            n = m - s
            if n >= 0 and n not in marks_p:
                positions.append(n)
        return positions

    def tail(self):
        """The L window positions n, where p[n] and q[n + s] are cycle
        members for every shift s: read at s, the tail class of s mod L."""
        return range(self.window, self.window + self.cycle)

    def read(self, positions, s, both_ways, stop, memo):
        """(verdict, last) over the pairs p[n], q[n + s] at the positions, in
        order: the conjunction of p[n] into q[n + s] (and back, with
        `both_ways`), and the greatest n whose pair is not yes, or -1.
        With `stop` the read ends at the first no."""
        marks_p, marks_q = self.marks_p, self.marks_q
        cyc_p, cyc_q, kp, kq = self.cyc_p, self.cyc_q, self.kp, self.kq
        lp, lq = len(cyc_p), len(cyc_q)
        verdict, last = YES, -1
        for n in positions:
            # a = stage(p, n) and b = stage(q, n + s), without the calls
            a = marks_p.get(n) or cyc_p[(n - kp) % lp]
            b = marks_q.get(n + s) or cyc_q[(n + s - kq) % lq]
            pair = embeds(a, b, memo)
            if both_ways and pair != NO:
                back = embeds(b, a, memo)
                if back != YES:
                    pair = back
            if pair != YES:
                if pair == NO and stop:
                    return NO, n
                if verdict != NO:
                    verdict = pair
                if n > last:
                    last = n
        return verdict, last


def _inner(seq):
    """The sequence under the patches."""
    return seq.inner if isinstance(seq, Patched) else seq


def _transient(p, q):
    """The first position past every patch of p and q."""
    return 1 + max(p.last_patch(), q.last_patch())


def _stage_embeds(p, i, q, j, memo):
    """embeds(p[i], q[j]) with shortcuts for same-generator stages: stages
    nest as deep as their index, and packing recurses once per term level,
    so comparing two deep stages directly is slow and can exhaust the
    Python stack.

    Stage ii into stage jj > ii is first asked as stage 0 into stage 1, a
    question one stage deep however deep ii and jj sit.  A context
    preserves root-to-root embeddings (the hole's image is the embedded
    subtree, the rest maps identically), so stage 0 into stage 1 gives
    stage k into stage k + 1 for every k, and their composition stage ii
    into stage jj.  Failing that, stage 0 into stage jj - ii gives stage
    ii into stage jj by the same argument."""
    a, b = stage(p, i), stage(q, j)
    if a == b:
        return YES
    gp, gq = _inner(p), _inner(q)
    if (
        isinstance(gp, Generated)
        and isinstance(gq, Generated)
        and gp.context == gq.context
        and gp.base == gq.base
    ):
        ii = stage_index(p, i)
        jj = stage_index(q, j)
        if ii is not None and jj is not None:
            if ii < jj:
                if (
                    embeds(gp.base, stage(gq, 1), memo) == YES
                    or embeds(gp.base, stage(gq, jj - ii), memo) == YES
                ):
                    return YES
            elif growth_certificate(gp):
                return NO
    return embeds(a, b, memo)


def growth_certificate(gen: Generated):
    """Why stage m never embeds in stage n < m, as a reason string, or None:
    an embedding-monotone measure strictly increases along all stages, by a
    recurrence in the context C, so the stages are also pairwise
    non-equimorphic.  No stage past 1 is read.

    Ranks read no stage: rank(C[t]) = max(rank(t) + delta, K), delta the
    wsum cycle positions on the hole path (`ranks._tail_summary`), and with
    delta >= 1, r1 >= r0 + delta > r0 and r1 >= K give r2 = r1 + delta, and
    so on.  An embedding embeds the end spaces, and a subspace's
    Cantor-Bendixson rank is at most the space's.  |C[t]| is affine in |t|
    with slope >= 1, so one strict step propagates forever.  height(C[t]) =
    max(hd + height(t), c) for the hole depth hd: with hd >= 1 and h1
    finite, h1 >= hd + h0 > h0 and h1 >= c give h2 = hd + h1, and so on."""
    if gen.context.hole_wsum_cycles() >= 1:
        return "stage ranks grow strictly (wsum cycles on the hole path)"
    if stage(gen, 0).size < stage(gen, 1).size < INF:
        return "stage vertex counts grow strictly (affine recurrence)"
    if gen.context.hole_depth() >= 1 and stage(gen, 1).height != INF:
        return "stage heights grow strictly (hole at positive depth)"
    return None


def equimorphic(t: Term, s: Term) -> str:
    memo = {}
    return tri_and(embeds(t, s, memo), embeds(s, t, memo))
