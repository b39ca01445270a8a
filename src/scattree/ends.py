"""Spine shift analysis: which forward shifts of a spined sum extend to
self-embeddings, whether the component sequence is eventually self-similar,
and where the forward-invariant origin vertex sits.

A strict period k means component n embeds in component n+k for every
n >= 0; gluing those component embeddings over the spine map n -> n+k gives
a genuine self-embedding that moves the distinguished end's ray forward by
k.  An eventual period holds only from some offset u on.  A term is almost
rigid (path-aligned) when no strict period exists: no spine-aligned
self-embedding moves the spine.

Every period question is one walk, `embedding.shift_walk(seq, seq, k)`: does
component n embed in component n+k for every n >= u (both ways for the
origin's equimorphy period)?  One walk per k gives both answers: the
strict verdict is the walk from 0, and the eventual offset is one past the
last pair that is not yes, when the tail holds.  Over a periodic inner
sequence the walk reads the pairs at prefix entries and patches, and the
tail class of k: the pairs of cycle members, which depend only on k modulo
the cycle's least period.  So a patch at position 10^8 costs what a patch
at position 10 does.

Nor does the horizon set the cost when no generated tail is left.  Let S
be the first position past the prefix and the patches (`settled_from`) and
p the length of the cycle `terms.components` lists, its least period under
term equality: from S on, position m holds a term fixed by m mod p.  For
k >= max(S, 1) + p and every n >= 0, both n + k and n + k - p are at least
S and congruent mod p, so they hold equal terms: the walk at k reads
exactly the pairs the walk at k - p read.  So shift k takes its strict
verdict and eventual offset from shift k - p, and the origin search skips
it.  At most max(S, 1) + p - 1 shifts are walked, whatever the horizon,
and from that horizon on every shift class has been walked, so a spine
with no strict period among them is almost rigid.

The walks of one report share one memo, and with it one shift table
(`embedding._ShiftTable`) that keeps what the walks decide.  Each tail
class is decided once per direction, so shifts k and k + L read its pairs
once, and so do the origin's both-ways walks of one class.  A class that
fails settles its shift before any pair at a mark is read.  Every pair
the walk reads goes to `embeds`, which decides it once per memo and pair
of component terms, so equal components built as distinct objects share
one verdict.  The report's horizon bounds the shifts, and past a generated
tail's transient the pairs scanned for an eventual offset, max(4,
horizon // 2) of them; every pair is decided within the one pair budget,
`embedding.PAIR_HORIZON`.

Regularity asks whether the components fall into finitely many equimorphy
classes.  Certificates:

* periodic sequences are regular outright;
* a generated sequence is regular if some stage is equimorphic to a later
  one (the context preserves equimorphy in both directions, so the classes
  cycle from there on);
* a generated sequence is irregular if an embedding-monotone measure
  strictly increases stage over stage by a recurrence the context fixes:
  end-space rank (wsum cycles on the hole path), vertex count, height
  (the hole below the root), or branch count from stage 3 on.

Everything is tri-valued; unknown marks the analysis horizon, never a
guess.
"""

from __future__ import annotations

import json
from collections import namedtuple
from types import MappingProxyType

from .embedding import equimorphic, growth_certificate, shift_walk
from .terms import (
    NO,
    UNKNOWN,
    YES,
    Generated,
    INF,
    Term,
    TermError,
    WSum,
    analysis_cache,
    branch_count,
    components,
    is_single_vertex,
    root_degree,
    settled_from,
    spine_address,
    stage,
)


class OriginUndefined(TermError):
    pass


class ShiftReport(
    namedtuple(
        "ShiftReport",
        "periods d eventual almost_rigid regular origin_index origin_error notes",
    )
):
    """Result of `shift_report`, read-only: one report is shared by every
    caller that asks about the same term object and horizon.  `periods`
    are the strict shifts found and `d` the least of them (None if none);
    `eventual` maps a shift k to the offset from which it holds;
    `origin_index` is None when `origin_error` says why."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "periods": list(self.periods),
                "d": self.d,
                "eventual": {str(k): u for k, u in sorted(self.eventual.items())},
                "almost_rigid": self.almost_rigid,
                "regular": self.regular,
                "origin": f"spine[{self.origin_index}]" if self.origin_index is not None else None,
                "origin_error": self.origin_error,
                "notes": list(self.notes),
            }
        )


def regular_components(seq) -> tuple[str, str]:
    """(verdict, reason): do the components fall into finitely many
    equimorphy classes?"""
    verdict, reason = _regular_tail(components(seq)[2])
    if seq.last_patch() >= 0:
        reason += " (finitely many overrides)"
    return verdict, reason


def _regular_tail(gen):
    """The same for the components other than the finitely many patches:
    finitely many terms, or the stages of a generated sequence."""
    if gen is None:
        return YES, "finitely many component terms"
    for p in range(1, 4):
        if equimorphic(stage(gen, 0), stage(gen, p)) == YES:
            return YES, f"stage 0 equimorphic to stage {p}; classes cycle"
    growth = growth_certificate(gen) or _branch_growth(gen)
    if growth:
        return NO, growth
    return UNKNOWN, "no equimorphy cycle or growth certificate found"


def _branch_growth(seq: Generated):
    """A reason string when branch counts rise from stage 3 on, so that the
    stages fall into infinitely many equimorphy classes; stages 2-4 are read.

    In C[t] only t's root changes: it becomes the hole's vertex.  Whether
    that vertex and C's root branch depends on t through min(deg(t), 2), so
    b(C[t]) = max(c', b(t) + beta) with c' and beta >= 0 fixed by C and that
    value, which stage 2 not a single vertex fixes from stage 2 on: with
    the hole below the root every stage from 1 on has C's root degree, and
    at the root deg(C[t]) = m * deg(t) + c0 with m >= 1 is 1 for every stage
    past 2 if deg(stage 2) = 1 (then c0 = 0 and m = 1, as deg(stage 1) >=
    c0) and else stays >= 2.  So b(n) = max(c', b(n - 1) + beta) for n >= 3,
    b3 >= c', and b3 < b4 gives beta >= 1: each later stage adds beta.
    Branch counts are monotone under rooted embedding."""
    if is_single_vertex(stage(seq, 2)):
        return None
    b3, b4 = branch_count(stage(seq, 3)), branch_count(stage(seq, 4))
    if None not in (b3, b4) and b3 < b4 < INF:
        return "branch counts grow strictly from stage 3 on"
    return None


def _almost_rigid(seq, periods_yes, periods_unknown, horizon, first):
    """Tri-valued: no strict period at all?"""
    if periods_yes:
        return NO
    if periods_unknown:
        return UNKNOWN
    once, _, gen = components(seq)
    if gen is None:
        # the shifts below `first`, `_repeat_from`'s, stand for all of them
        return YES if horizon >= first - 1 else UNKNOWN
    if gen.context.hole_depth() >= 1:
        # root degree is monotone under root-to-root embedding, and every
        # stage from 1 on has stage 1's: so component 0 embeds in no later
        # one when its root degree exceeds stage 1's and each later patch's
        d0 = root_degree(stage(seq, 0))
        later = [root_degree(stage(gen, 1))] + [root_degree(t) for n, t in once if n > 0]
        if "w" not in later and (d0 == "w" or d0 > max(later)):
            return YES
    return UNKNOWN


def shift_report(t: Term, horizon: int = 8) -> ShiftReport:
    """Shift analysis of a spined sum over the shifts 1..horizon.  The
    horizon bounds the shifts, and the max(4, horizon // 2) pairs past a
    generated tail's transient that are scanned for an eventual offset
    (`shift_walk`'s `reach`); each pair of components is decided by
    `embeds` within `embedding.PAIR_HORIZON`, whatever the report's own.
    The report is cached on the term object per horizon (`analysis_cache`)
    and shared by every caller, so it must not be mutated: its containers
    are read-only."""
    if not isinstance(t, WSum):
        raise TermError("shift analysis needs a spined sum at the root")
    cache = analysis_cache(t)
    key = ("shift", horizon)
    if key not in cache:
        cache[key] = _shift_report(t.seq, horizon)
    return cache[key]


def _shift_report(seq, horizon):
    """Walk the shifts 1..horizon, each at most once: a shift k >= first
    reads exactly the pairs of shift k - p (`_repeat_from`), and takes its
    verdict and offset from there."""
    memo = {}
    notes = []
    reach = max(4, horizon // 2)  # how far past the transient a generated tail is scanned
    first, p = _repeat_from(seq)
    yes, unk, eventual, walked = [], [], {}, {}
    for k in range(1, horizon + 1):
        if k >= first:
            strict, u = walked[k - p]
        else:
            strict, u = shift_walk(seq, seq, k, memo=memo, reach=reach)
        walked[k] = strict, u
        if strict == YES:
            yes.append(k)
        elif strict == UNKNOWN:
            unk.append(k)
        if u is not None:
            eventual[k] = u
    if unk:
        notes.append(f"strict periods undecided at {unk}")
    d = yes[0] if yes else None
    rigid = _almost_rigid(seq, yes, unk, horizon, first)
    regular, reason = regular_components(seq)
    notes.append(f"regular: {reason}")
    origin_index, origin_error = _origin(seq, regular, eventual, memo, reach)
    return ShiftReport(
        tuple(yes), d, MappingProxyType(eventual), rigid, regular, origin_index, origin_error, tuple(notes)
    )


def _repeat_from(seq):
    """(first, p): every shift k >= first = max(S, 1) + p repeats shift
    k - p, p the cycle's least period, the length `components` lists
    (module docstring).  A generated tail leaves no cycle to repeat: first
    is INF."""
    _, recurring, gen = components(seq)
    if gen is not None:
        return INF, 0
    p = len(recurring)
    return max(settled_from(seq), 1) + p, p


def _origin(seq, regular, eventual, memo, reach):
    """Least spine index u from which the component sequence is equimorphy
    periodic: component y equimorphic to component y+d for all y >= u.  No
    candidate the loop reaches repeats an earlier shift (`_repeat_from`): a
    generated tail repeats none, and otherwise shift p (the cycle's least
    period) pairs equal terms both ways from S = settled_from(seq) on, so
    within the horizon it is a candidate where the loop returns at the
    latest, below the first repeating shift max(S, 1) + p."""
    if regular == NO:
        return None, "components fall into infinitely many equimorphy classes"
    if regular == UNKNOWN:
        return None, "regularity of the component sequence is undecided"
    if not eventual:
        return None, "no eventual period found within the horizon"
    for d in sorted(eventual):
        u = shift_walk(seq, seq, d, memo=memo, both_ways=True, reach=reach)[1]
        if u is not None:
            return u, None
    return None, "no equimorphy period found within the horizon"


def origin_vertex(t: Term, horizon: int = 8):
    """Address of the forward-invariant origin: the first spine vertex from
    which the component sequence is equimorphy periodic."""
    report = shift_report(t, horizon)
    if report.origin_index is None:
        raise OriginUndefined(report.origin_error)
    return spine_address(report.origin_index)

