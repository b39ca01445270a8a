"""Spine shift analysis: which forward shifts of a spined sum extend to
self-embeddings, whether the component sequence is eventually self-similar,
and where the forward-invariant origin vertex sits.

A strict period k means component n embeds in component n+k for every
n >= 0; gluing those component embeddings over the spine map n -> n+k gives
a genuine self-embedding that moves the distinguished end's ray forward by
k.  An eventual period holds only from some offset u on.  A term is almost
rigid (path-aligned) when no strict period exists: no spine-aligned
self-embedding moves the spine.

Every period question is one walk, `_holds_from(seq, u, k)`: does the pair
check hold between component n and component n+k for every n >= u?  The
check is one-way embedding for shift periods and embedding both ways for
the origin's equimorphy period.  The walk reads a finite window:

* periodic: the pairs n = u .. u + len(prefix) + len(cycle); later pairs
  repeat these;
* patched: the pairs from u up to the last patch plus k, then the inner
  sequence from there on;
* generated: the pair at min(u, 4), whose yes carries to every later pair
  because the context preserves embeddings; failing that, the pair at u,
  the only one whose no refutes.

A strict period is the walk from 0, an eventual period the least offset u
from which it holds.

Regularity asks whether the components fall into finitely many equimorphy
classes.  Certificates:

* periodic sequences are regular outright;
* a generated sequence is regular if some stage is equimorphic to a later
  one (the context preserves equimorphy in both directions, so the classes
  cycle from there on);
* a generated sequence is irregular if an embedding-monotone measure
  (vertex count, height, or branch count under a branching hole) strictly
  increases stage over stage: the stages are then pairwise non-equimorphic.

Everything is tri-valued; unknown marks the analysis horizon, never a
guess.
"""

from __future__ import annotations

import json

from .terms import (
    NO,
    UNKNOWN,
    YES,
    Generated,
    INF,
    Patched,
    Periodic,
    Term,
    TermError,
    WSum,
    branch_count,
    embeds,
    equimorphic,
    height,
    is_single_vertex,
    root_degree,
    spine_address,
    stage,
    tri_and,
    vertex_count,
)


class OriginUndefined(TermError):
    pass


class ShiftReport:
    __slots__ = (
        "periods",
        "d",
        "eventual",
        "almost_rigid",
        "regular",
        "origin_index",
        "origin_error",
        "notes",
    )

    def __init__(self, periods, d, eventual, almost_rigid, regular, origin_index, origin_error, notes):
        self.periods = tuple(periods)
        self.d = d
        self.eventual = dict(eventual)
        self.almost_rigid = almost_rigid
        self.regular = regular
        self.origin_index = origin_index
        self.origin_error = origin_error
        self.notes = tuple(notes)

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


# A verified pair of generated stages at or below this position carries
# forward through the context, so the walk tries it before the pair at u.
_EARLY_STAGE = 4


def _one_way(a, b, memo) -> str:
    return embeds(a, b, _memo=memo)


def _both_ways(a, b, memo) -> str:
    return tri_and(embeds(a, b, _memo=memo), embeds(b, a, _memo=memo))


def _holds_from(seq, u, k, memo, rel=_one_way) -> str:
    """Does rel(component n, component n+k) hold for every n >= u?"""

    def pair(n):
        return rel(stage(seq, n), stage(seq, n + k), memo)

    if isinstance(seq, Periodic):
        return tri_and(*(pair(n) for n in range(u, u + len(seq.prefix) + len(seq.cycle) + 1)))
    if isinstance(seq, Generated):
        # the context preserves rel, so a pair holding at v <= u holds at
        # every n >= v; only the pair at u itself refutes
        v = min(u, _EARLY_STAGE)
        verdict = pair(v)
        return verdict if verdict == YES or v == u else pair(u)
    if isinstance(seq, Patched):
        tail = max(seq.last_patch() + k + 1, u)
        head = tri_and(*(pair(n) for n in range(u, tail)))
        if head == NO:
            return NO
        return tri_and(head, _holds_from(seq.inner, tail, k, memo, rel))
    raise TermError(f"bad sequence {seq!r}")


def regular_components(seq) -> tuple[str, str]:
    """(verdict, reason): do the components fall into finitely many
    equimorphy classes?"""
    if isinstance(seq, Periodic):
        return YES, "finitely many component terms"
    if isinstance(seq, Patched):
        verdict, reason = regular_components(seq.inner)
        return verdict, reason + " (finitely many overrides)"
    if isinstance(seq, Generated):
        for p in range(1, 4):
            if equimorphic(stage(seq, 0), stage(seq, p)) == YES:
                return YES, f"stage 0 equimorphic to stage {p}; classes cycle"
        growth = _growth_certificate(seq)
        if growth:
            return NO, growth
        return UNKNOWN, "no equimorphy cycle or growth certificate found"
    raise TermError(f"bad sequence {seq!r}")


def _growth_certificate(seq: Generated):
    """A reason string when stages are certifiably pairwise non-equimorphic."""
    v = [vertex_count(stage(seq, j)) for j in range(2)]
    if INF not in v and v[1] > v[0]:
        return "stage vertex counts grow strictly (affine recurrence)"
    hd = seq.context.hole_depth()
    if hd >= 1:
        h = [height(stage(seq, j)) for j in range(3)]
        if INF not in h and h[1] == hd + h[0] and h[2] == hd + h[1]:
            return "stage heights grow strictly (hole at positive depth)"
    if seq.context.hole_under_sup_branch():
        b = [branch_count(stage(seq, j)) for j in range(5)]
        if (
            all(x is not None and x != INF for x in b[2:])
            and b[2] < b[3] < b[4]
            and not is_single_vertex(stage(seq, 2))
        ):
            return "branch counts grow strictly (hole under a branching join)"
    return None


def _almost_rigid(seq, periods_yes, periods_unknown, horizon):
    """Tri-valued: no strict period at all?"""
    if periods_yes:
        return NO
    if periods_unknown:
        return UNKNOWN
    if isinstance(seq.inner if isinstance(seq, Patched) else seq, Periodic):
        # past the prefix and the overrides the verdict for k repeats that
        # of k mod cycle, so a horizon past the offset bound is exhaustive
        return YES if horizon >= _offset_bound(seq, horizon) else UNKNOWN
    if isinstance(seq, Generated) and seq.context.hole_depth() >= 1:
        # stage 0 cannot embed into any later stage when its root degree
        # exceeds the fixed root degree of all later stages
        d0 = root_degree(stage(seq, 0))
        d1 = root_degree(stage(seq, 1))
        if d1 != "w" and (d0 == "w" or d0 > d1):
            return YES
    return UNKNOWN


def shift_report(t: Term, horizon: int = 8) -> ShiftReport:
    if not isinstance(t, WSum):
        raise TermError("shift analysis needs a spined sum at the root")
    seq = t.seq
    memo = {}
    notes = []
    u_max = _offset_bound(seq, horizon)
    yes, unk, eventual = [], [], {}
    for k in range(1, horizon + 1):
        # the strict verdict is the walk from 0; eventual[k] is the least
        # offset u <= u_max from which the walk holds
        strict = _holds_from(seq, 0, k, memo)
        if strict == YES:
            yes.append(k)
        elif strict == UNKNOWN:
            unk.append(k)
        for u in range(u_max + 1):
            if (strict if u == 0 else _holds_from(seq, u, k, memo)) == YES:
                eventual[k] = u
                break
    if unk:
        notes.append(f"strict periods undecided at {unk}")
    d = yes[0] if yes else None
    rigid = _almost_rigid(seq, yes, unk, horizon)
    regular, reason = regular_components(seq)
    notes.append(f"regular: {reason}")
    origin_index, origin_error = _origin(seq, regular, eventual, memo, u_max)
    return ShiftReport(yes, d, eventual, rigid, regular, origin_index, origin_error, notes)


def _offset_bound(seq, horizon):
    if isinstance(seq, Periodic):
        return len(seq.prefix) + 2 * len(seq.cycle)
    if isinstance(seq, Patched):
        return seq.last_patch() + 1 + _offset_bound(seq.inner, horizon)
    return max(4, horizon // 2)


def _origin(seq, regular, eventual, memo, u_max):
    """Least spine index u from which the component sequence is equimorphy
    periodic: component y equimorphic to component y+d for all y >= u."""
    if regular == NO:
        return None, "components fall into infinitely many equimorphy classes"
    if regular == UNKNOWN:
        return None, "regularity of the component sequence is undecided"
    if not eventual:
        return None, "no eventual period found within the horizon"
    for d in sorted(eventual):
        for u in range(u_max + 1):
            if _holds_from(seq, u, d, memo, _both_ways) == YES:
                return u, None
    return None, "no equimorphy period found within the horizon"


def origin_vertex(t: Term, horizon: int = 8):
    """Address of the forward-invariant origin: the first spine vertex from
    which the component sequence is equimorphy periodic."""
    report = shift_report(t, horizon)
    if report.origin_index is None:
        raise OriginUndefined(report.origin_error)
    return spine_address(report.origin_index)

