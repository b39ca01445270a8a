"""What every self-embedding of a tree must preserve, and how many
equimorphy twins the tree has.

The classification runs on the rank summary of the end space:

* no rays, finitely many vertices: every self-embedding is an automorphism
  and fixes the central vertex or edge;
* no rays, infinitely many vertices: some vertex or edge is fixed by every
  self-embedding (existence only: no finite certificate names it);
* a single top end: every self-embedding maps the distinguished end to
  itself and moves its ray forward; the shift analysis then settles how
  much freedom remains;
* exactly two top ends: the pair is preserved (possibly swapped);
* rank realized cofinally or by many ends: every self-embedding preserves
  a rayless core around which the high-rank ends accumulate.

Twin cardinality (how many pairwise non-isomorphic trees are equimorphic
to this one) is decided by an ordered rule table; every answer carries its
reason, and anything past the decidable fragment stays "unknown".
"""

from __future__ import annotations

import json

from .finite_trees import center
from .ordinals import format_ordinal
from .ranks import rank_summary
from .terms import (
    INF,
    NO,
    UNKNOWN,
    YES,
    Term,
    WSum,
    components,
    is_rayless,
    is_single_vertex,
    expand_finite,
    stage,
    vertex_count,
)

ONE = "one"
INFINITE = "infinite"
CONTINUUM = "continuum"

VARIANT_FIXED = "fixed_vertex_or_edge"
VARIANT_RAYLESS_INF = "rayless_fixed_structure"
VARIANT_UEF = "unique_end_forward"
VARIANT_TWO = "two_ends"
VARIANT_CORE = "rayless_core"


class StabilityCertificate:
    __slots__ = ("variant", "fields", "twins", "twins_reason", "notes")

    def __init__(self, variant, fields, twins, twins_reason, notes):
        self.variant = variant
        self.fields = dict(fields)
        self.twins = twins
        self.twins_reason = twins_reason
        self.notes = tuple(notes)

    def to_json(self) -> str:
        out = {"variant": self.variant}
        out.update(self.fields)
        out["twins"] = self.twins
        out["notes"] = [self.twins_reason] + list(self.notes)
        return json.dumps(out)


def classify(t: Term, horizon: int = 8) -> StabilityCertificate:
    from .ends import shift_report

    notes = []
    if is_rayless(t):
        v = vertex_count(t)
        if v != INF:
            rooted = expand_finite(t)
            kind, where = center(rooted.tree)
            fields = {"center": {"kind": kind, "at": list(where) if kind == "edge" else where}}
            notes.append(
                "finite tree: every self-embedding is an automorphism and fixes the center"
            )
            return StabilityCertificate(
                VARIANT_FIXED, fields, ONE, "finite trees are isomorphic to their twins", notes
            )
        notes.append(
            "rayless with infinitely many vertices: a fixed vertex or edge exists, "
            "but no finite certificate names it"
        )
        return StabilityCertificate(
            VARIANT_RAYLESS_INF,
            {},
            UNKNOWN,
            "twin counting beyond finite rayless trees is undecided here",
            notes,
        )
    summary = rank_summary(t)
    twins, reason = twin_cardinality(t, horizon)
    if summary.limit_flag or summary.top_ends in (0, "many"):
        notes.append(
            "top rank is realized cofinally or by many ends: self-embeddings "
            "preserve a rayless core"
        )
        rank_fields = {
            "rank": format_ordinal(summary.space_rank),
            "top_ends": summary.top_ends,
            "limit": summary.limit_flag,
        }
        return StabilityCertificate(VARIANT_CORE, rank_fields, twins, reason, notes)
    if summary.top_ends == 2:
        notes.append("the two ends of maximal rank form a preserved pair")
        return StabilityCertificate(VARIANT_TWO, {}, twins, reason, notes)
    # exactly one end of maximal rank
    fields = {}
    if isinstance(t, WSum):
        report = shift_report(t, horizon)
        fields["regular"] = report.regular
        fields["almost_rigid"] = report.almost_rigid
        if report.d is not None:
            fields["d"] = report.d
        notes.append(
            "unique end of maximal rank: every self-embedding maps its ray forward"
        )
    else:
        notes.append("unique end of maximal rank inside a non-spined term")
    return StabilityCertificate(VARIANT_UEF, fields, twins, reason, notes)


def twin_cardinality(t: Term, horizon: int = 8):
    """(cardinality, reason) for the number of pairwise non-isomorphic trees
    equimorphic to t.  Rules are tried in order; the first match wins.

    The rules read the shift report that `shift_report(t, horizon)` caches
    on the term object, so asking again about the same object, directly or
    through `classify` or the twin constructions, recomputes nothing.  The
    report is shared: do not mutate it."""
    from .ends import shift_report

    if is_rayless(t) and vertex_count(t) != INF:
        return ONE, "finite trees are isomorphic to their twins"
    if not isinstance(t, WSum):
        return UNKNOWN, "twin counting needs a spined sum at the root"
    report = shift_report(t, horizon)
    if report.regular == NO and report.almost_rigid == NO:
        return (
            CONTINUUM,
            "irregular components with a forward shift: pruning before the shift "
            "target yields continuum many pairwise distinct twins",
        )
    if _bare_path(t.seq):
        return ONE, "a bare one-way path is its only twin"
    if report.almost_rigid == YES and _all_components_finite(t.seq):
        return ONE, "almost rigid with finite components: no twin can differ"
    if report.regular == YES and report.periods:
        return (
            INFINITE,
            "regular components with a genuine shift: pruned initial segments "
            "give infinitely many pairwise distinct twins",
        )
    return UNKNOWN, "no twin-cardinality rule applies within the horizon"


def _representatives(seq):
    """The component terms of seq, with stages 0 and 1 standing for a
    generated tail."""
    once, recurring, gen = components(seq)
    tail = [] if gen is None else [stage(gen, 0), stage(gen, 1)]
    return [x for _, x in once] + list(recurring) + tail


def _bare_path(seq) -> bool:
    # a context that keeps stages 0 and 1 single vertices keeps them all so
    return all(is_single_vertex(x) for x in _representatives(seq))


def _all_components_finite(seq) -> bool:
    # an affine recurrence keeps finite sizes finite
    return all(vertex_count(x) != INF for x in _representatives(seq))
