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

from .ordinals import ONE, ZERO, Ordinal, format_ordinal, succ as ord_succ
from .terms import (
    BOX,
    HOLE,
    NO,
    UNKNOWN,
    YES,
    Box,
    Context,
    Generated,
    OMEGA_MULT,
    Patched,
    Periodic,
    Succ,
    Sup,
    SupSeq,
    Term,
    TermError,
    WSum,
    is_rayless,
    resolve,
    stage,
)

MANY = "many"


class RankUndecided(TermError):
    pass


class RankSummary:
    """space_rank: least Cantor-Bendixson derivative that is empty.
    top_ends: how many ends sit at the last nonempty level (0, 1, 2, many).
    limit_flag: the rank is a limit realized only cofinally, never by an
    end at a top level."""

    __slots__ = ("space_rank", "top_ends", "limit_flag")

    def __init__(self, space_rank: Ordinal, top_ends, limit_flag: bool):
        self.space_rank = space_rank
        self.top_ends = top_ends
        self.limit_flag = limit_flag

    def __eq__(self, other):
        return (
            isinstance(other, RankSummary)
            and self.space_rank == other.space_rank
            and self.top_ends == other.top_ends
            and self.limit_flag == other.limit_flag
        )

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
        return RankSummary(ZERO, 0, False)
    rank = max(s.space_rank for s, _ in parts)
    top = 0
    for s, m in parts:
        if s.space_rank == rank:
            top = _add_tops(top, _scale_top(s.top_ends, m))
    limit = bool(rank > ZERO and top == 0)
    return RankSummary(rank, top, limit)


def rank_summary(t: Term, _memo=None) -> RankSummary:
    if _memo is None:
        _memo = {}
    if t in _memo:
        return _memo[t]
    out = _rank_summary(t, _memo)
    _memo[t] = out
    return out


def _rank_summary(t, memo):
    if is_rayless(t):
        return RankSummary(ZERO, 0, False)
    if isinstance(t, Succ):
        return rank_summary(t.child, memo)
    if isinstance(t, Sup):
        return _union((rank_summary(a, memo), m) for a, m in t.arms)
    if isinstance(t, WSum):
        sigma, finite_parts = _seq_profile(t.seq, memo)
        rank = ord_succ(sigma)
        for s, _ in finite_parts:
            if s.space_rank > rank:
                rank = s.space_rank
        top = 1 if rank == ord_succ(sigma) else 0
        for s, m in finite_parts:
            if s.space_rank == rank:
                top = _add_tops(top, _scale_top(s.top_ends, m))
        limit = bool(top == 0)
        return RankSummary(rank, top, limit)
    if isinstance(t, SupSeq):
        return _supseq_summary(t.seq, memo)
    raise TermError(f"bad term {t!r}")


def _seq_profile(seq, memo):
    """(sigma, finite_parts) for a spined component sequence: sigma is the
    sup of ranks realized by infinitely many components; finite_parts lists
    summaries of components that occur only finitely often, with counts."""
    if isinstance(seq, Periodic):
        sigma = ZERO
        for x in seq.cycle:
            r = rank_summary(x, memo).space_rank
            if r > sigma:
                sigma = r
        finite_parts = [(rank_summary(x, memo), 1) for x in seq.prefix]
        return sigma, finite_parts
    if isinstance(seq, Generated):
        kind, data = _fit_recurrence(seq, memo)
        if kind == "stable":
            return data.space_rank, [(rank_summary(seq.base, memo), 1)]
        # growing: component ranks are cofinal in a limit ordinal
        return data, []
    if isinstance(seq, Patched):
        sigma, finite_parts = _seq_profile(seq.inner, memo)
        # drop the inner contributions of overridden positions: prefix
        # entries of a periodic inner, or the base of a stable generator;
        # a patched cycle or later-stage position leaves infinitely many
        # identical-rank components behind, so sigma is unaffected
        if isinstance(seq.inner, Periodic):
            dropped = {n for n, _ in seq.patches if n < len(seq.inner.prefix)}
            finite_parts = [
                part for i, part in enumerate(finite_parts) if i not in dropped
            ]
        elif isinstance(seq.inner, Generated):
            if any(n == 0 for n, _ in seq.patches):
                finite_parts = finite_parts[1:]
        extra = [(rank_summary(x, memo), 1) for _, x in seq.patches]
        return sigma, finite_parts + extra
    raise TermError(f"bad sequence {seq!r}")


def _fit_recurrence(seq: Generated, memo):
    """Check stage ranks 0..3 against r(n+1) = max(r(n), c) + delta and
    extrapolate.  Returns ('stable', summary-of-eventual-stage) or
    ('growing', limit-ordinal-sup)."""
    delta = 1 if seq.context.hole_under_wsum_cycle() else 0
    summaries = [rank_summary(stage(seq, n), memo) for n in range(4)]
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


def _supseq_summary(seq, memo):
    if isinstance(seq, Periodic):
        cyc = [rank_summary(x, memo) for x in seq.cycle]
        pre = [rank_summary(x, memo) for x in seq.prefix]
        parts = [(s, 1) for s in pre] + [(s, OMEGA_MULT) for s in cyc]
        return _union(parts)
    if isinstance(seq, Generated):
        kind, data = _fit_recurrence(seq, memo)
        if kind == "stable":
            eventual = data
            base = rank_summary(seq.base, memo)
            return _union([(base, 1), (eventual, OMEGA_MULT)])
        # ranks grow without bound: the union's rank is their sup, a limit
        # realized by no single end
        return RankSummary(data, 0, True)
    if isinstance(seq, Patched):
        extra = [(rank_summary(x, memo), 1) for _, x in seq.patches]
        patched_at = {n for n, _ in seq.patches}
        inner = seq.inner
        if isinstance(inner, Periodic):
            # rebuild the union without the overridden prefix entries;
            # patched cycle positions leave infinitely many copies behind
            parts = [
                (rank_summary(x, memo), 1)
                for i, x in enumerate(inner.prefix)
                if i not in patched_at
            ]
            parts += [(rank_summary(x, memo), OMEGA_MULT) for x in inner.cycle]
            return _union(parts + extra)
        if isinstance(inner, Generated):
            kind, data = _fit_recurrence(inner, memo)
            if kind == "stable":
                parts = [(data, OMEGA_MULT)]
                if 0 not in patched_at:
                    parts.append((rank_summary(inner.base, memo), 1))
                return _union(parts + extra)
            # growing: finitely many overrides cannot change a cofinal sup,
            # but a patch may exceed it
            return _union([(RankSummary(data, 0, True), 1)] + extra)
    raise TermError(f"bad sequence {seq!r}")


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
