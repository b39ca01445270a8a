"""Cantor-Bendixson ranks of end spaces of scattered-tree terms.

The end space of a term decomposes along its constructors: `succ` leaves it
unchanged, `sup`/`supseq` take disjoint unions, and `wsum` adds the spine's
own end on top of the component union.  Ranks combine accordingly:

* disjoint union: the supremum of the part ranks; a part repeated omega
  times repeats its top-level ends omega times.
* spine sum: the spine end sits exactly at level sigma, where sigma is the
  supremum of levels realized by infinitely many components; the whole
  space then has rank max(sigma + 1, finitely-occurring component ranks).

For a generated component sequence, stage n >= 1 has rank
r(1) + (n - 1) * delta, where delta is the number of cycle positions of
spined sums on the context's path to its hole (`_tail_summary`).  So a
generated tail is read off stage 1 alone: its summary when delta is 0,
else the limit its stage ranks grow to.
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
    """Rank summary of a finite disjoint union of (summary, multiplicity)
    pairs with ends."""
    rank, top = ZERO, 0
    for s, m in parts:
        if s.space_rank > rank:
            rank, top = s.space_rank, _scale_top(s.top_ends, m)
        elif s.space_rank == rank:
            top = _add_tops(top, _scale_top(s.top_ends, m))
    return RankSummary(rank, top, top == 0)


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
    """The terms whose summaries x's summary is made from, rayless terms
    left out: subterms, and for a generated tail its stage 1
    (`_tail_summary`)."""
    if isinstance(x, Succ):
        return [x.child]  # x has ends, so its child has
    if isinstance(x, Sup):
        return [a for a, _ in x.arms if not a.rayless]
    once, recurring, gen = components(x.seq)
    kids = list(recurring)
    if gen is not None:
        kids.append(stage(gen, 1))
    kids += [c for _, c in once]
    return [c for c in kids if not c.rayless]


def _rank_of(x, _, memo):
    if isinstance(x, Succ):
        return memo[x.child]
    if isinstance(x, Sup):
        return _union((memo[a], m) for a, m in x.arms if not a.rayless)
    once, recurring, gen = components(x.seq)
    # sigma: the sup of the ranks realized by infinitely many components,
    # the cycle terms and the eventual stages of a generated tail; each of
    # them repeats omega times, so a top end among them is one of many.
    # Stage 0 needs no part of its own: it is a subtree of stage 1, so its
    # ends sit at levels stage 1 also reaches.
    sigma, many = ZERO, False
    if gen is not None:
        s = _tail_summary(gen, memo)
        sigma, many = s.space_rank, s.top_ends != 0
    for c in recurring:
        if not c.rayless:
            s = memo[c]
            if s.space_rank > sigma:
                sigma, many = s.space_rank, s.top_ends != 0
            elif s.top_ends and s.space_rank == sigma:
                many = True
    if isinstance(x, SupSeq):
        rank, top = sigma, MANY if many else 0
    else:
        rank, top = ord_succ(sigma), 1  # the spine's own end sits one above sigma
    for _, c in once:
        if not c.rayless:
            s = memo[c]
            if s.space_rank > rank:
                rank, top = s.space_rank, s.top_ends
            elif s.space_rank == rank:
                top = _add_tops(top, s.top_ends)
    return RankSummary(rank, top, top == 0)


def _tail_summary(seq: Generated, memo):
    """The summary of the eventual stages of a generated tail: stage 1's
    when delta is 0, else that of the limit the stage ranks grow to.

    delta counts the wsum cycle positions on the context's hole path.  Each
    step on that path maps the rank x of what lies below it to max(x, a)
    (a sup arm, a prefix position or a succ) or to max(x + 1, a) (a cycle
    position: the spine end sits one above the recurring ranks), with a
    fixed by the context.  Successor distributes over max, so
    rank(C[t]) = max(rank(t) + delta, K) for a K fixed by the context.

    K is finite: a context holds no gen and no supseq, so every term in it
    is built from box (rank 0), succ and sup (the largest rank of their
    parts) and periodic wsums (one more than that).  So r(1) =
    max(r(0) + delta, K) is r(0) + delta or a finite K above it, never a
    limit the ranks jump to, and r(1) >= K.

    With delta = 0, every later stage has rank max(r(1), K) = r(1), and so
    a top end exactly when stage 1 has one: when that rank is a successor.
    With delta >= 1, r(1) + delta lies above K, so r(2) = r(1) + delta,
    and by induction r(n) = r(1) + (n - 1) * delta for every n >= 1: the
    ranks grow to the limit of r(1), realized by no single end.  Stage 0
    only bounds r(1) from below, and no stage past 1 is read."""
    first = stage(seq, 1)
    s = _NO_ENDS if first.rayless else memo[first]
    if seq.context.hole_wsum_cycles() == 0:
        return s
    return RankSummary(_limit_of(s.space_rank), 0, True)


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
