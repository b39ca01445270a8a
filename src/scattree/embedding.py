"""Root-to-root embedding of terms, and the shift relation between
component sequences that serves both it and the shift analysis.

`embeds` decides whether one tree embeds in another with roots matched,
by packing root children (`_pack`) and, between two spined sums, by
walking shifts of one spine along the other (`shift_walk`).  Every walk
and every pack runs on the terms' structure (`terms`), never on an
expanded tree.
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
    root_children,
    settled_from,
    stage,
    tri_and,
)


def embeds(t: Term, s: Term, horizon: int = 16, _memo=None) -> str:
    """Tri-valued induced-embedding check, root to root.  yes and no answers
    are sound; unknown marks the analysis horizon.

    Between two wsum terms the check is the shift relation instead
    (`shift_walk`): spine to spine, component n into component n + s, and
    any forward shift s >= 0 is accepted, although s > 0 moves the root.
    Making this pair strictly root to root is still open (ROADMAP item 1).
    """
    # the first tests of _embeds, which the measure fields settle before
    # any memo key is built
    if t is s or t.single:
        return YES
    if s.single or t.size > s.size:
        return NO
    if _memo is None:
        _memo = {}
    key = (t, s)
    out = _memo.get(key)
    if out is None:
        _memo[key] = UNKNOWN  # cycle guard; real value set below
        out = _memo[key] = _embeds(t, s, horizon, _memo)
    return out


def _embeds(t, s, horizon, memo):
    if t == s:
        return YES
    if t.single:
        return YES
    if s.single:
        return NO
    if t.size > s.size:
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
            # embeds' own first tests, without the call
            if a is b or a.single:
                edges[i, j] = YES
            elif b.single or a.size > b.size:
                edges[i, j] = NO
            else:
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
        v0, v1 = stage(p, 0).size, stage(p, 1).size
        caps = [x.size for x in q.prefix + q.cycle]
        if v0 != INF and v1 != INF and v1 > v0 and INF not in caps:
            return NO
        return UNKNOWN
    inner_p, inner_q = _inner(p), _inner(q)
    periodic = isinstance(inner_p, Periodic) and isinstance(inner_q, Periodic)
    if periodic:
        # from q's last patch and prefix on, q[n + s] is the cycle member
        # fixed by n + s modulo q's cycle for every n, so the verdict at s
        # repeats at s + len(cycle): one cycle of shifts past there is
        # exhaustive, however late p's patches sit
        s_max = settled_from(q) + len(inner_q.cycle) - 1
    else:
        s_max = horizon
    saw_unknown = False
    for s in range(s_max + 1):
        verdict = shift_walk(p, q, s, horizon, memo)[0]
        if verdict == YES:
            return YES
        saw_unknown = saw_unknown or verdict == UNKNOWN
    if periodic and not saw_unknown:
        return NO
    return UNKNOWN  # shifts beyond the horizon stay open


# A generated tail pair at or below this position is tried first: its yes
# carries forward through the context, and it stays shallow however deep
# the last patch sits.
_EARLY_STAGE = 4

# The memo key of the pair table of periodic walks (`_periodic_walk`); the
# memo's other keys are (term, term) pairs
_PAIR_TABLE = object()

_NO_PATCHES = {}  # the patch map of an unpatched sequence; never written


def shift_walk(p, q, s, horizon=16, memo=None, both_ways=False, reach=None):
    """The shift relation: does component p[n] embed in component q[n + s]
    for every n >= u?  With `both_ways` each pair must embed both ways
    (equimorphy).  The walk reads a finite window, in position order.  T
    is the transient, the last patch on either side plus 1; past it both
    sides are their inner sequences.

    * Periodic inner sequences (`_periodic_walk`): the pairs n < E = T +
      max(prefix) + L, L = lcm(cycles); later pairs repeat the last L of
      these.  Of the head, only the marked pairs are read
      (`_periodic_head`): those where p[n] or q[n + s] is a prefix entry
      or a patch.  Every other pair is a pair of cycle members fixed by
      n mod L, which the last window [E - L, E) reads again, so skipping
      it changes neither the verdict nor u, and the work grows with the
      patches and the period, not with T.  Each pair's two components are
      read straight off the prefixes, cycles and patch maps, and each
      pair of objects is decided once per memo.
    * Generated inner sequences with one context: every pair n < T, each
      through `_stage_embeds`, then the pair at min(T, 4), whose yes
      carries to every later pair because the context preserves
      embeddings; failing that, the pair at T, the only one whose no
      refutes.
    * Anything else: unknown.

    Returns (verdict, u): the verdict for u = 0, and the least offset u
    from which the relation holds, one past the last pair read that is not
    yes, or None when none is found.  Without `reach` the walk stops at the
    first no, with u None.  With it the walk reads every head pair, and a
    generated tail that fails at T is scanned up to `reach` pairs further
    for a pair that holds.
    """
    if memo is None:
        memo = {}
    inner_p, inner_q = _inner(p), _inner(q)
    start = _transient(p, q)
    if isinstance(inner_p, Periodic) and isinstance(inner_q, Periodic):
        return _periodic_walk(p, q, s, start, horizon, memo, both_ways, reach)
    if not (
        isinstance(inner_p, Generated)
        and isinstance(inner_q, Generated)
        and inner_p.context == inner_q.context
    ):
        return UNKNOWN, None

    def holds(a, n, b):
        verdict = _stage_embeds(a, n, b, n + s, horizon, memo)
        if both_ways and verdict != NO:
            verdict = tri_and(verdict, _stage_embeds(b, n + s, a, n, horizon, memo))
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


def _periodic_walk(p, q, s, start, horizon, memo, both_ways, reach):
    """`shift_walk` over two sequences with periodic inner sequences.

    A pair of one object twice holds, and so does a pair whose first
    component is a single vertex; a pair whose second component is a
    single vertex, or smaller, fails.  Any other pair (a, b) is decided by
    embeds(a, b).  From the memo's second periodic walk on, the verdict
    also goes into the memo's pair table, keyed by (id(a), id(b)), so a
    pair that a later walk reads again (shift k + L, the both-ways origin
    walks, the next shift `_wsum_embeds` tries) costs one dict probe
    instead of hashing two terms; the first walk has no earlier walk to
    re-read, and leaves repeats within itself to the memo.  An id names
    an object only while it lives, so the memo keeps every p and q walked
    into the table alive, and with them their components: no id in the
    table is reused while the table lives.  Like the memo's (t, s)
    entries, a verdict holds for the memo's one horizon.  Only yes and no
    are kept: an unknown may be the cycle guard of a pair still being
    decided further up, which `embeds` answers afresh once it is decided
    (the guard fires on none of the benchmark's operations).
    """
    pre_p, cyc_p, patch_p = _periodic_parts(p)
    pre_q, cyc_q, patch_q = _periodic_parts(q)
    kp, lp, kq, lq = len(pre_p), len(cyc_p), len(pre_q), len(cyc_q)
    cycle = lcm(lp, lq)
    end = start + max(kp, kq) + cycle
    table = memo.get(_PAIR_TABLE)
    if table is None:
        memo[_PAIR_TABLE] = ()  # one walk made; the table starts with the next
    else:
        if not table:
            table = memo[_PAIR_TABLE] = ({}, [])
        table, alive = table
        alive.append((p, q))

    def decide(a, b):
        verdict = embeds(a, b, horizon, memo)
        if verdict != UNKNOWN:
            table[id(a), id(b)] = verdict
        return verdict

    verdict, last = YES, -1  # last: the last pair read that is not yes
    for n in _periodic_head(p, q, s, start, end, cycle):
        # a = stage(p, n) and b = stage(q, n + s), without the calls
        a = patch_p.get(n)
        if a is None:
            a = pre_p[n] if n < kp else cyc_p[(n - kp) % lp]
        m = n + s
        b = patch_q.get(m)
        if b is None:
            b = pre_q[m] if m < kq else cyc_q[(m - kq) % lq]
        if a is b:
            continue
        # embeds' own first tests, then the table
        if a.single:
            pair = YES
        elif b.single or a.size > b.size:
            pair = NO
        elif table is None:
            pair = embeds(a, b, horizon, memo)
        else:
            pair = table.get((id(a), id(b))) or decide(a, b)
        if both_ways and pair != NO:
            if b.single:
                back = YES
            elif a.single or b.size > a.size:
                back = NO
            elif table is None:
                back = embeds(b, a, horizon, memo)
            else:
                back = table.get((id(b), id(a))) or decide(b, a)
            pair = tri_and(pair, back)
        if pair != YES:
            if pair == NO and reach is None:
                return NO, None
            verdict, last = tri_and(verdict, pair), n
    return verdict, (last + 1 if last < end - cycle else None)


def _periodic_head(p, q, s, start, end, cycle):
    """The positions n, in order, whose pairs p[n], q[n + s] a periodic
    walk reads below its window end `end`.  A pair away from the prefixes
    and the patches is a pair of cycle members fixed by n mod cycle, so the
    last window reads it again; most heads are shorter than a cycle and
    skip nothing, so they are read whole without building a list."""
    if start <= cycle:
        return range(end)
    marked = set(range(max(len(_inner(p).prefix), len(_inner(q).prefix) - s)))
    marked.update(n for n, _ in _patches(p))
    marked.update(n - s for n, _ in _patches(q) if n >= s)
    return [*sorted(marked), *range(end - cycle, end)]


def _periodic_parts(seq):
    """(prefix, cycle, patch map) of a sequence whose inner sequence is
    periodic; the patch map is read only."""
    if isinstance(seq, Patched):
        return seq.inner.prefix, seq.inner.cycle, seq._map
    return seq.prefix, seq.cycle, _NO_PATCHES


def _inner(seq):
    """The sequence under the patches."""
    return seq.inner if isinstance(seq, Patched) else seq


def _patches(seq):
    """The (position, term) overrides of seq, in position order."""
    return seq.patches if isinstance(seq, Patched) else ()


def _transient(p, q):
    """The first position past every patch of p and q."""
    return 1 + max(p.last_patch(), q.last_patch())


def _stage_embeds(p, i, q, j, horizon, memo):
    """embeds(p[i], q[j]) with shortcuts for same-generator stages: stages
    nest as deep as their index, and packing recurses once per term level,
    so comparing two deep stages directly is slow and can exhaust the
    Python stack."""
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
        ii = _effective_stage_index(p, i)
        jj = _effective_stage_index(q, j)
        if ii is not None and jj is not None:
            if ii == jj:
                return YES
            if ii < jj:
                if embeds(gp.base, stage(gq, jj - ii), horizon, memo) == YES:
                    return YES
            elif growth_certificate(gp):
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


def growth_certificate(gen: Generated):
    """Why stage m never embeds in stage n < m, as a reason string, or None:
    an embedding-monotone measure strictly increases along all stages, so
    the stages are also pairwise non-equimorphic."""
    v0, v1 = stage(gen, 0).size, stage(gen, 1).size
    if INF not in (v0, v1) and v1 > v0:
        # |C[t]| is affine in |t| with slope >= 1, so one strict step
        # propagates forever
        return "stage vertex counts grow strictly (affine recurrence)"
    hd = gen.context.hole_depth()
    if hd >= 1:
        h0, h1, h2 = (stage(gen, j).height for j in range(3))
        if INF not in (h0, h1, h2) and h1 == hd + h0 and h2 == hd + h1:
            # height(C[t]) = max(hd + height(t), c); once the hole branch
            # dominates it dominates forever and adds hd >= 1 each stage
            return "stage heights grow strictly (hole at positive depth)"
    return None


def equimorphic(t: Term, s: Term, horizon: int = 16) -> str:
    memo = {}
    return tri_and(embeds(t, s, horizon, memo), embeds(s, t, horizon, memo))
