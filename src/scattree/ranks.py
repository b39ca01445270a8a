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
recurrence r(n+1) = max(r(n), c) + delta, where delta is the number of
cycle positions of spined sums on the context's path to its hole.  The
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
    """The nodes whose summaries x's summary is made from, rayless terms
    left out: subterms, and for a generated tail (a node of its own) its
    stages 0..3.  The tail is the only node that is not a term."""
    if not isinstance(x, Term):
        return [t for t in (stage(x, n) for n in range(4)) if not t.rayless]
    if isinstance(x, Succ):
        return [x.child]  # x has ends, so its child has
    if isinstance(x, Sup):
        return [a for a, _ in x.arms if not a.rayless]
    once, recurring, gen = components(x.seq)
    kids = [c for c in recurring if not c.rayless]
    if gen is not None:
        kids.append(gen)
    kids += [c for _, c in once if not c.rayless]
    return kids


def _rank_of(x, _, memo):
    if not isinstance(x, Term):  # a generated tail
        return _fit_recurrence(x, memo)
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
        s = memo[gen]
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


def _fit_recurrence(seq: Generated, memo):
    """Check stage ranks 0..3 against r(n+1) = max(r(n), c) + delta and
    extrapolate: the summary of the eventual stages when delta is 0, else
    the summary of the limit the stage ranks grow to.

    delta counts the wsum cycle positions on the context's hole path.  Each
    step on that path maps the rank x of what lies below it to max(x, a)
    (a sup arm, a prefix position or a succ) or to max(x, a) + 1 (a cycle
    position: the spine end sits one above the recurring ranks), with a
    fixed by the context.  Successor distributes over max, so
    rank(C[t]) = max(rank(t) + delta, K) for a K fixed by the context, and
    once one stage adds delta, every later stage does.  With c = K - delta
    this is the recurrence above; it is refused when K = r(1) lies above
    r(0) + delta and r(1) - delta is undefined."""
    delta = seq.context.hole_wsum_cycles()
    summaries = [_NO_ENDS if t.rayless else memo[t] for t in (stage(seq, n) for n in range(4))]
    r = [s.space_rank for s in summaries]
    if delta == 0:
        if not (r[1] == r[2] == r[3] and r[1] >= r[0]):
            raise RankUndecided(
                "undecided sequence: stage ranks "
                + ", ".join(format_ordinal(x) for x in r)
                + " do not stabilize"
            )
        return summaries[1]
    c = ZERO
    if r[1] > _plus(r[0], delta):
        c = r[1]  # K = r(1): c is r(1) - delta
        for _ in range(delta):
            if not c.is_successor():
                raise RankUndecided(
                    "undecided sequence: stage rank jumps to the limit "
                    + format_ordinal(r[1])
                )
            c = c.pred()
    fits = (
        r[1] == _plus(_ord_max(r[0], c), delta)
        and r[2] == _plus(r[1], delta)
        and r[3] == _plus(r[2], delta)
    )
    if not fits:
        raise RankUndecided(
            "undecided sequence: stage ranks "
            + ", ".join(format_ordinal(x) for x in r)
            + f" do not fit a recurrence that steps by {delta}"
        )
    return RankSummary(_limit_of(r[3]), 0, True)  # a limit realized by no single end


def _plus(alpha, n):
    for _ in range(n):
        alpha = ord_succ(alpha)
    return alpha


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
