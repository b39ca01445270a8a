"""Cantor-Bendixson ranks of end spaces of scattered-tree terms.

The end space of a term decomposes along its constructors: `succ` leaves it
unchanged, `sup`/`supseq` take disjoint unions, and `wsum` adds the spine's
own end on top of the component union.  Ranks combine accordingly:

* disjoint union: the supremum of the part ranks; a part repeated omega
  times repeats its top-level ends omega times.
* spine sum: the spine end sits exactly at level sigma, where sigma is the
  supremum of levels realized by infinitely many components; the whole
  space then has rank max(sigma + 1, finitely-occurring component ranks).

For generated component sequences the component ranks obey an affine
recurrence r(n+1) = max(r(n), c) + delta, where delta is 1 exactly when the
hole sits under a cycle position of a spined sum inside the context.  The
ranks of stages 0..3 are computed directly, checked against the recurrence,
and extrapolated; sequences that do not fit raise RankUndecided.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .ordinals import ONE, ZERO, Ordinal, format_ordinal, succ as ord_succ
from .terms import (
    BOX,
    HOLE,
    NO,
    UNKNOWN,
    YES,
    Context,
    Generated,
    OMEGA_MULT,
    Periodic,
    Succ,
    Sup,
    SupSeq,
    Term,
    TermError,
    WSum,
    analysis_cache,
    components,
    fold,
    resolve,
    stage,
)

MANY = "many"


class RankUndecided(TermError):
    pass


class RankSummary(namedtuple("RankSummary", "space_rank top_ends limit_flag")):
    """space_rank: least Cantor-Bendixson derivative that is empty.
    top_ends: how many ends sit at the last nonempty level (0, 1, 2, many).
    limit_flag: the rank is a limit realized only cofinally, never by an
    end at a top level.  Read-only: a top-level summary is shared by every
    caller that asks about the same term object."""

    __slots__ = ()

    def __repr__(self):
        return (
            f"RankSummary({format_ordinal(self.space_rank)}, "
            f"top={self.top_ends}, limit={self.limit_flag})"
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "rank": format_ordinal(self.space_rank),
                "top_ends": self.top_ends,
                "limit": self.limit_flag,
            }
        )


def _add_tops(a, b):
    if a == MANY or b == MANY:
        return MANY
    total = a + b
    return total if total <= 2 else MANY


def _scale_top(top, mult):
    if top == 0:
        return 0
    if mult == OMEGA_MULT or mult >= 3:
        return MANY
    if mult == 1:
        return top
    return MANY if top == MANY else _add_tops(top, top)


def _union(parts):
    """Rank summary of a finite disjoint union of (summary, multiplicity)."""
    parts = [(s, m) for s, m in parts]
    if not parts:
        return _NO_ENDS
    rank = max(s.space_rank for s, _ in parts)
    top = 0
    for s, m in parts:
        if s.space_rank == rank:
            top = _add_tops(top, _scale_top(s.top_ends, m))
    limit = bool(rank > ZERO and top == 0)
    return RankSummary(rank, top, limit)


_NO_ENDS = RankSummary(ZERO, 0, False)  # the summary of every rayless term


def rank_summary(t: Term) -> RankSummary:
    """Rank summary of the end space of t, computed children first
    (`terms.fold`).  The summary is cached on the term object
    (`analysis_cache`), so repeated calls on one object share one result."""
    cache = analysis_cache(t)
    if "rank" not in cache:
        cache["rank"] = _NO_ENDS if t.rayless else fold(t, _rank_inputs, _rank_of, {})
    return cache["rank"]


def _rank_inputs(x):
    """The nodes whose summaries x's summary is made from, rayless terms
    left out: subterms, and for a generated tail (a node of its own) its
    stages 0..3.  The tail is the only node that is not a term."""
    if not isinstance(x, Term):
        return _with_ends(stage(x, n) for n in range(4))
    if isinstance(x, Succ):
        return [x.child]  # x has ends, so its child has
    if isinstance(x, Sup):
        return _with_ends(a for a, _ in x.arms)
    once, recurring, gen = components(x.seq)
    return _with_ends(recurring) + ([] if gen is None else [gen]) + _with_ends(c for _, c in once)


def _with_ends(terms):
    return [t for t in terms if not t.rayless]


def _summary(t, memo):
    return _NO_ENDS if t.rayless else memo[t]


def _rank_of(x, _, memo):
    if not isinstance(x, Term):  # a generated tail
        return _fit_recurrence(x, memo)
    if isinstance(x, Succ):
        return memo[x.child]
    if isinstance(x, Sup):
        return _union((_summary(a, memo), m) for a, m in x.arms)
    parts = _parts(x.seq, memo)
    if isinstance(x, SupSeq):
        return _union(parts)
    # sigma: the sup of the ranks realized by infinitely many components
    sigma = max((s.space_rank for s, m in parts if m == OMEGA_MULT), default=ZERO)
    spine = ord_succ(sigma)  # the rank of the spine's own end
    rank = max([spine] + [s.space_rank for s, m in parts if m == 1])
    top = 1 if rank == spine else 0
    for s, m in parts:
        if m == 1 and s.space_rank == rank:
            top = _add_tops(top, s.top_ends)
    return RankSummary(rank, top, top == 0)


def _parts(seq, memo):
    """The component summaries of a sequence with their multiplicities: 1
    for a component that occurs once, omega for a cycle term and for the
    eventual stages of a generated tail.  Stage 0 needs no part of its
    own: it is a subtree of stage 1, so its ends sit at levels stage 1
    also reaches.  When the stage ranks grow, the tail's part is their
    sup, a limit realized by no single end."""
    once, recurring, gen = components(seq)
    parts = [(_summary(x, memo), OMEGA_MULT) for x in recurring]
    if gen is not None:
        kind, data = memo[gen]
        if kind == "growing":
            data = RankSummary(data, 0, True)
        parts.append((data, OMEGA_MULT))
    return parts + [(_summary(x, memo), 1) for _, x in once]


def _fit_recurrence(seq: Generated, memo):
    """Check stage ranks 0..3 against r(n+1) = max(r(n), c) + delta and
    extrapolate.  Returns ('stable', summary-of-eventual-stage) or
    ('growing', limit-ordinal-sup)."""
    delta = 1 if seq.context.hole_under_wsum_cycle() else 0
    summaries = [_summary(stage(seq, n), memo) for n in range(4)]
    r = [s.space_rank for s in summaries]
    if delta == 0:
        if not (r[1] == r[2] == r[3] and r[1] >= r[0]):
            raise RankUndecided(
                "undecided sequence: stage ranks "
                + ", ".join(format_ordinal(x) for x in r)
                + " do not stabilize"
            )
        return "stable", summaries[1]
    # delta == 1: once the hole branch dominates, ranks step by one
    if r[1] > ord_succ(r[0]) and not r[1].is_successor():
        raise RankUndecided(
            "undecided sequence: stage rank jumps to the limit "
            + format_ordinal(r[1])
        )
    c = r[1].pred() if r[1] > ord_succ(r[0]) else ZERO
    fits = (
        r[1] == ord_succ(_ord_max(r[0], c))
        and r[2] == ord_succ(r[1])
        and r[3] == ord_succ(r[2])
    )
    if not fits:
        raise RankUndecided(
            "undecided sequence: stage ranks "
            + ", ".join(format_ordinal(x) for x in r)
            + " do not fit a unit-step recurrence"
        )
    return "growing", _limit_of(r[3])


def _ord_max(a, b):
    return a if a >= b else b


def _limit_of(alpha: Ordinal) -> Ordinal:
    """sup of alpha + n over n < omega: strip the finite tail, add omega."""
    terms = [(e, c) for e, c in alpha.terms if not e.is_zero()]
    if terms and terms[-1][0] == ONE:
        e, c = terms[-1]
        terms[-1] = (e, c + 1)
    else:
        terms.append((ONE, 1))
    return Ordinal(terms)


# -- rank witnesses -----------------------------------------------------------

def build_rank_witness(alpha: Ordinal) -> Term:
    """A term whose end space has rank exactly alpha.  Supports all ordinals
    below w*w (finite ranks, w, w+n, w*k, w*k+n)."""
    if alpha.is_zero():
        return BOX
    if alpha.is_successor():
        inner = build_rank_witness(alpha.pred())
        return WSum(Periodic((), (inner,)))
    # limit: must be w*k below w*w
    if len(alpha.terms) != 1 or alpha.terms[0][0] != ONE:
        raise TermError(
            f"rank witness supports ordinals below w*w, got {format_ordinal(alpha)}"
        )
    k = alpha.terms[0][1]
    mu = Ordinal(((ONE, k - 1),)) if k > 1 else ZERO
    base = build_rank_witness(mu)
    context = Context(WSum(Periodic((), (HOLE,))))
    return SupSeq(Generated(base, context))


# -- limit membership ---------------------------------------------------------

def lim_member(t: Term, address) -> str:
    """Does the vertex at `address` realize the limit rank: does every
    neighborhood of it see component ranks cofinal in the space rank?
    Errors when the term's rank is not limit-realized."""
    summary = rank_summary(t)
    if not summary.limit_flag:
        raise RankUndecided(
            f"rank {format_ordinal(summary.space_rank)} is not a limit realized "
            "only cofinally"
        )
    if isinstance(t, SupSeq):
        address = tuple(tuple(s) for s in address)
        if not address:
            # the root sees every stage, so arbitrarily high ranks
            return YES
        first = address[0]
        if first[0] == "arm":
            sub = stage(t.seq, first[1])
            r = rank_summary(sub)
            if r.space_rank < summary.space_rank:
                # the vertex sits inside one stage: ranks visible below it
                # are bounded strictly under the limit
                return NO
        resolve(t, address)  # validate the address at least
        return UNKNOWN
    return UNKNOWN
