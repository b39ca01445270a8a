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

from .ordinals import format_ordinal
from .ranks import rank_summary
from .terms import (
    INF,
    NO,
    UNKNOWN,
    YES,
    Succ,
    Term,
    WSum,
    components,
    is_rayless,
    is_single_vertex,
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
    notes = []
    if is_rayless(t):
        v = vertex_count(t)
        if v != INF:
            kind, where = finite_center(t)
            fields = {"center": {"kind": kind, "at": where}}
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
        from .ends import shift_report

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


def finite_center(t: Term):
    """The center of the finite tree of t, as ("vertex", v) or ("edge",
    [u, v]), with vertices numbered as `cuts.expand_finite` numbers them:
    depth first, the root 0, the children of a vertex in the order of the
    identified roots they hang from, every copy of a multi-copy arm whole
    before the next.

    The center is the middle of a longest path.  From the root, with `up`
    the longest path that leaves the current vertex other than downward,
    the walk steps into the one deepest child while that branch is more
    than one edge longer than every other way out; then the vertex is the
    center if its deepest branch equals the best alternative, and else the
    edge to that child.  A child's number is its parent's plus one plus
    the sizes of the subtrees hung before it.  The walk reads the `height`
    and `size` fields only, so its cost grows with the term, not with the
    tree."""
    v, up = 0, 0
    while t.height:
        child, before, other = _deepest_child(t)
        alt = max(up, other)
        if t.height == alt:
            return "vertex", v
        if t.height == alt + 1:
            return "edge", [v, v + 1 + before]
        t, v, up = child, v + 1 + before, alt + 1
    return "vertex", v


def _deepest_child(t: Term):
    """(child, before, other) of the root of a finite term t of height at
    least 1: `child` the child term whose branch reaches t's height, when
    it is the only one, else None; `before` the number of vertices hung
    below the root ahead of that child; `other` the longest other branch.
    The roots identified with t's are walked from the top down, only into
    the one arm that holds the deepest branch, so no nesting depth needs
    recursion."""
    h = t.height
    before = other = 0
    while not isinstance(t, Succ):
        deep = None
        for a, m in t.arms:  # a sup's, or a finite supseq's
            if a.single:
                continue
            if deep is None and m == 1 and a.height == h:
                deep = a
                continue
            other = max(other, a.height)
            if deep is None:
                before += m * (a.size - 1)
        if deep is None or other == h:
            return None, before, other
        t = deep
    return t.child, before, other


def twin_cardinality(t: Term, horizon: int = 8):
    """(cardinality, reason) for the number of pairwise non-isomorphic trees
    equimorphic to t.  Rules are tried in order; the first match wins.

    The rules read the shift report that `shift_report(t, horizon)` caches
    on the term object, so asking again about the same object, directly or
    through `classify` or the twin constructions, recomputes nothing.  The
    report is shared: do not mutate it."""
    if is_rayless(t) and vertex_count(t) != INF:
        return ONE, "finite trees are isomorphic to their twins"
    if not isinstance(t, WSum):
        return UNKNOWN, "twin counting needs a spined sum at the root"
    from .ends import shift_report

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
