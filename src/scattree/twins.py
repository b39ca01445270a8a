"""Equimorphy twins: trees mutually embeddable with a given tree yet
pairwise non-isomorphic.

Two generators work on spined sums with a strict shift period:

* ``twin_n`` prunes a growing initial segment of the spine down to bare
  vertices.  The pruned tree still embeds into the original (identity on
  the tail), and the original embeds back by shifting a whole number of
  periods past the pruned zone, so the results are genuine twins; their
  pruned runs have different lengths, so they are pairwise distinct.
* ``twin_from_subset`` re-hangs, for every position n in a chosen set, a
  copy of component n one period later.  Distinct position sets give
  distinct trees, and almost disjoint families of position sets witness
  large twin families.

Labelled paths get a complete small theory of their own: eventually
periodic label sequences over a finite poset, exact embedding decision,
shift/displacement analysis, and a twin-count table with verified sample
families.
"""

from __future__ import annotations

import json
import re
from math import gcd

from .terms import (
    BOX,
    YES,
    CutCoder,
    Generated,
    Patched,
    Periodic,
    Term,
    TermError,
    WSum,
    equimorphic,
    stage,
)

# ---------------------------------------------------------------------------
# labelled paths
# ---------------------------------------------------------------------------


class Poset:
    """Finite partial order given by generating relations; stores the
    reflexive-transitive closure."""

    __slots__ = ("elements", "_le")

    def __init__(self, elements, relations=()):
        self.elements = frozenset(elements)
        le = {(a, a) for a in self.elements}
        for a, b in relations:
            if a not in self.elements or b not in self.elements:
                raise TermError("relation uses an element outside the poset")
            le.add((a, b))
        changed = True
        while changed:
            changed = False
            for a, b in list(le):
                for c in self.elements:
                    if (b, c) in le and (a, c) not in le:
                        le.add((a, c))
                        changed = True
        for a, b in le:
            if a != b and (b, a) in le:
                raise TermError(f"not a partial order: {a} and {b} are mutually below each other")
        self._le = frozenset(le)

    def le(self, a, b) -> bool:
        return (a, b) in self._le

    def is_antichain_on(self, labels) -> bool:
        labels = set(labels)
        return not any(a != b and self.le(a, b) for a in labels for b in labels)

    def strict_pairs_into(self, labels):
        """(s, t) with s strictly below t and t drawn from `labels`."""
        out = []
        for t in sorted(set(labels)):
            for s in sorted(self.elements):
                if s != t and self.le(s, t):
                    out.append((s, t))
        return out


class LabelledPath:
    """A one-way (domain 0,1,2,...) or two-way (domain ...,-1,0,1,...)
    path with an eventually periodic labelling into a finite poset.

    One-way: `prefix` then `cycle` repeating forever.
    Two-way: `left` repeating toward -infinity (read outward from -1),
    `center` on 0..len-1, `right` repeating from len(center) on.
    """

    __slots__ = ("kind", "poset", "prefix", "cycle", "left", "center", "right")

    def __init__(self, kind, poset, prefix=(), cycle=(), left=(), center=(), right=()):
        if kind not in ("oneway", "twoway"):
            raise TermError("path kind must be oneway or twoway")
        self.kind = kind
        self.poset = poset
        self.prefix = tuple(prefix)
        self.cycle = tuple(cycle)
        self.left = tuple(left)
        self.center = tuple(center)
        self.right = tuple(right)
        if kind == "oneway":
            if not self.cycle:
                raise TermError("a one-way path needs a nonempty cycle")
            used = self.prefix + self.cycle
        else:
            if not self.left or not self.right:
                raise TermError("a two-way path needs nonempty left and right cycles")
            used = self.left + self.center + self.right
        for lab in used:
            if lab not in poset.elements:
                raise TermError(f"label {lab!r} is not in the poset")

    def label(self, n: int):
        if self.kind == "oneway":
            if n < 0:
                raise TermError("one-way paths have no negative positions")
            if n < len(self.prefix):
                return self.prefix[n]
            return self.cycle[(n - len(self.prefix)) % len(self.cycle)]
        if n < 0:
            return self.left[(-1 - n) % len(self.left)]
        if n < len(self.center):
            return self.center[n]
        return self.right[(n - len(self.center)) % len(self.right)]

    def labels_used(self):
        if self.kind == "oneway":
            return set(self.prefix) | set(self.cycle)
        return set(self.left) | set(self.center) | set(self.right)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LabelledPath) or self.kind != other.kind:
            return False
        return same_labelling(self, other)

    def __hash__(self):
        # presentation-independent: only the labels that recur forever; equal
        # labellings under any presentation agree on these
        if self.kind == "oneway":
            recurring = frozenset(self.cycle)
        else:
            recurring = frozenset(self.left) | frozenset(self.right)
        return hash((self.kind, recurring))

    def __repr__(self):
        return format_lpath(self)


def same_labelling(p: LabelledPath, q: LabelledPath) -> bool:
    """Position-by-position equality of the label sequences (this is
    isomorphism for labelled paths read from their canonical origin)."""
    if p.kind != q.kind:
        return False
    if p.kind == "oneway":
        c = _lcm(len(p.cycle), len(q.cycle))
        hi = max(len(p.prefix), len(q.prefix)) + c
        return all(p.label(n) == q.label(n) for n in range(hi))
    cl = _lcm(len(p.left), len(q.left))
    cr = _lcm(len(p.right), len(q.right))
    hi = max(len(p.center), len(q.center)) + cr
    lo = cl
    return all(p.label(n) == q.label(n) for n in range(-lo, hi))


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


_LPATH_TOKENS = re.compile(r"\s*([A-Za-z0-9_]+|[{}()\[\],<])")


def parse_lpath(text: str) -> LabelledPath:
    """Parse e.g.  lpath oneway poset{0<a,b} prefix[a] cycle(0,a)
    or            lpath twoway poset{a} left(a) center[] right(a)."""
    tokens, positions = [], []
    pos = 0
    while pos < len(text):
        m = _LPATH_TOKENS.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise TermError(f"unexpected character at position {pos}: {text[pos]!r}")
            break
        tokens.append(m.group(1))
        positions.append(m.start(1))
        pos = m.end()
    cur = 0

    def peek():
        return tokens[cur] if cur < len(tokens) else None

    def take(expected=None):
        nonlocal cur
        if cur >= len(tokens):
            raise TermError(f"unexpected end of input (wanted {expected or 'more'})")
        tok = tokens[cur]
        if expected is not None and tok != expected:
            raise TermError(f"expected {expected!r} at position {positions[cur]}, found {tok!r}")
        cur += 1
        return tok

    def label_list(close):
        out = []
        if peek() == close:
            take(close)
            return out
        while True:
            out.append(take())
            if peek() == ",":
                take(",")
                continue
            take(close)
            return out

    take("lpath")
    kind = take()
    if kind not in ("oneway", "twoway"):
        raise TermError(f"path kind must be oneway or twoway, found {kind!r}")
    take("poset")
    take("{")
    elements, relations = set(), []
    while True:
        chain = [take()]
        while peek() == "<":
            take("<")
            chain.append(take())
        elements.update(chain)
        relations.extend(zip(chain, chain[1:]))
        if peek() == ",":
            take(",")
            continue
        take("}")
        break
    poset = Poset(elements, relations)
    if kind == "oneway":
        take("prefix")
        take("[")
        prefix = label_list("]")
        take("cycle")
        take("(")
        cycle = label_list(")")
        path = LabelledPath("oneway", poset, prefix=prefix, cycle=cycle)
    else:
        take("left")
        take("(")
        left = label_list(")")
        take("center")
        take("[")
        cen = label_list("]")
        take("right")
        take("(")
        right = label_list(")")
        path = LabelledPath("twoway", poset, left=left, center=cen, right=right)
    if cur != len(tokens):
        raise TermError(f"trailing input at position {positions[cur]}: {tokens[cur]!r}")
    return path


def format_lpath(p: LabelledPath) -> str:
    # print the covering relations only; transitive consequences are implied
    rels = []
    covered = set()
    for a in sorted(p.poset.elements):
        for b in sorted(p.poset.elements):
            if a == b or not p.poset.le(a, b):
                continue
            if any(
                c not in (a, b) and p.poset.le(a, c) and p.poset.le(c, b)
                for c in p.poset.elements
            ):
                continue
            rels.append(f"{a}<{b}")
            covered.update((a, b))
    lone = [a for a in sorted(p.poset.elements) if a not in covered]
    poset = "poset{" + ",".join(rels + lone) + "}"
    if p.kind == "oneway":
        return (
            f"lpath oneway {poset} prefix[{','.join(p.prefix)}] "
            f"cycle({','.join(p.cycle)})"
        )
    return (
        f"lpath twoway {poset} left({','.join(p.left)}) "
        f"center[{','.join(p.center)}] right({','.join(p.right)})"
    )


def lpath_embeds(p: LabelledPath, q: LabelledPath) -> bool:
    """Exact decision: is there a strictly increasing f with
    label_p(n) <= label_q(f(n)) for all n?  (One-way paths.)

    Greedy choice of the least admissible image is optimal: if any
    embedding g exists, induction gives a greedy f with f(n) <= g(n), so
    greedy death refutes every embedding.  Once both sides run in their
    cycles the greedy step depends only on (n mod |cycle_p|, f mod
    |cycle_q|), so a repeated state continues forever and the search
    terminates by pigeonhole.
    """
    if p.kind != "oneway" or q.kind != "oneway":
        raise TermError("embedding decision covers one-way paths")
    le = q.poset.le
    pp, cp = len(p.prefix), len(p.cycle)
    pq, cq = len(q.prefix), len(q.cycle)
    f = -1
    n = 0
    seen = set()
    while True:
        lab = p.label(n)
        limit = max(f + 1, pq) + cq
        nxt = None
        for cand in range(f + 1, limit + 1):
            if le(lab, q.label(cand)):
                nxt = cand
                break
        if nxt is None:
            return False
        f = nxt
        n += 1
        if n >= pp and f >= pq:
            state = ((n - pp) % cp, (f - pq) % cq)
            if state in seen:
                return True
            seen.add(state)


def lpath_equimorphic(p: LabelledPath, q: LabelledPath) -> bool:
    return lpath_embeds(p, q) and lpath_embeds(q, p)


def shift_feasible(p: LabelledPath, d: int) -> bool:
    """Does shifting by d respect the labels: label(n) <= label(n+d) for
    every n in the domain?"""
    if d == 0:
        return True
    if p.kind == "oneway":
        if d < 0:
            return False
        hi = len(p.prefix) + len(p.cycle)
        return all(p.poset.le(p.label(n), p.label(n + d)) for n in range(hi))
    w = len(p.center) + abs(d) + 2 * (len(p.left) + len(p.right)) + 4
    return all(p.poset.le(p.label(n), p.label(n + d)) for n in range(-w, w + 1))


def displacements(p: LabelledPath):
    """The set of label-compatible shifts, reported as the values found
    inside a window that is provably complete, plus whether the set is
    infinite.

    One-way: feasibility of r depends only on r mod |cycle| once
    r >= |prefix|, so the window |prefix| + 2|cycle| sees every behaviour;
    a feasible r >= |prefix| repeats at r + |cycle|, r + 2|cycle|, ...
    Two-way: the same residue argument applies on both sides with period
    lcm(|left|, |right|) beyond |center| + |left| + |right|.
    """
    if p.kind == "oneway":
        window = len(p.prefix) + 2 * len(p.cycle)
        vals = [r for r in range(1, window + 1) if shift_feasible(p, r)]
        infinite = any(r >= len(p.prefix) for r in vals)
        return {"values": vals, "window": window, "infinite": infinite}
    period = _lcm(len(p.left), len(p.right))
    threshold = len(p.center) + len(p.left) + len(p.right) + 2
    window = threshold + period
    vals = [d for d in range(-window, window + 1) if d != 0 and shift_feasible(p, d)]
    infinite = any(abs(d) >= threshold for d in vals)
    return {"values": vals, "window": window, "infinite": infinite}


def least_shift_period(p: LabelledPath):
    if p.kind != "oneway":
        raise TermError("shift periods are a one-way notion")
    d = displacements(p)
    return d["values"][0] if d["values"] else None


def _rotations(cycle):
    out = []
    for i in range(len(cycle)):
        rot = cycle[i:] + cycle[:i]
        if rot not in out:
            out.append(rot)
    return out


def lpath_twin_count(p: LabelledPath):
    """(count, reason): how many pairwise distinct labelled paths are
    mutually embeddable with p.  `count` is "one", an integer, "continuum",
    or "unknown".  Rules are tried in order; only decided cases answer."""
    if p.kind == "twoway":
        d = displacements(p)
        if not d["values"]:
            return "one", "the only label-compatible displacement is zero, so the path is rigid"
        return (
            "unknown",
            "nonzero displacements are feasible; only the rigid two-way case is decided",
        )
    if least_shift_period(p) is None:
        return "one", "no forward shift is label-compatible, so the path is rigid"
    lowerable = p.poset.strict_pairs_into(set(p.cycle))
    if lowerable:
        s, t = lowerable[0]
        return (
            "continuum",
            f"label {t} recurs on the cycle and can be lowered to {s} at any "
            "infinite co-infinite set of its positions, and distinct sets give "
            "distinct twins",
        )
    if p.poset.is_antichain_on(p.labels_used()):
        if p.prefix:
            return (
                "unknown",
                "antichain labels with a transient prefix fall outside the decided table",
            )
        count = len(_rotations(p.cycle))
        return count, "with incomparable labels the twins are exactly the rotations of the cycle"
    return "unknown", "no twin-count rule applies"


def enumerate_lpath_twins(p: LabelledPath, count: int = 5):
    """A verified sample of pairwise distinct, mutually embeddable paths
    (p itself first).  Every returned pair is checked for mutual
    embeddability and for genuinely different label sequences."""
    verdict, _reason = lpath_twin_count(p)
    if verdict == "one":
        return [p]
    samples = [p]
    if isinstance(verdict, int):
        for rot in _rotations(p.cycle):
            cand = LabelledPath("oneway", p.poset, prefix=(), cycle=rot)
            if not any(same_labelling(cand, x) for x in samples):
                samples.append(cand)
        samples = samples[:count] if count < len(samples) else samples
    elif verdict == "continuum":
        s, t = p.poset.strict_pairs_into(set(p.cycle))[0]
        k = 0
        while len(samples) < count and k < 4 * count:
            # lower the first t of every (k+2)-nd pass through the cycle
            reps = k + 2
            cycle = list(p.cycle) * reps
            cycle[p.cycle.index(t)] = s
            cand = LabelledPath("oneway", p.poset, prefix=p.prefix, cycle=cycle)
            if not any(same_labelling(cand, x) for x in samples):
                samples.append(cand)
            k += 1
    else:
        return [p]
    for i, a in enumerate(samples):
        for b in samples[i + 1 :]:
            if same_labelling(a, b):
                raise TermError("twin sample family is not pairwise distinct")
            if not lpath_equimorphic(a, b):
                raise TermError("twin sample family is not mutually embeddable")
    return samples


def analyze_lpath(p: LabelledPath) -> dict:
    count, reason = lpath_twin_count(p)
    out = {
        "kind": p.kind,
        "displacements": displacements(p),
        "twin_count": count,
        "reason": reason,
    }
    if p.kind == "oneway":
        out["period"] = least_shift_period(p)
    return out


# ---------------------------------------------------------------------------
# twins of spined sums
# ---------------------------------------------------------------------------


def _transient_length(seq) -> int:
    if isinstance(seq, Periodic):
        return len(seq.prefix)
    if isinstance(seq, Generated):
        return 0
    if isinstance(seq, Patched):
        return max(_transient_length(seq.inner), seq.last_patch() + 1)
    raise TermError("unknown component sequence")


def _shift_data(t: Term, horizon: int):
    from .ends import shift_report
    from .stability import twin_cardinality

    if not isinstance(t, WSum):
        raise TermError("twin generation needs a spined sum at the root")
    report = shift_report(t, horizon)
    if not report.periods:
        raise TermError("twin generation needs a strict shift period")
    card, why = twin_cardinality(t, horizon, report=report)
    if card == "one":
        raise TermError(f"this tree is its only twin: {why}")
    return report.periods[0]


def twin_n(t: Term, n: int, horizon: int = 8) -> Term:
    """The n-th member of an infinite twin family: prune spine positions
    0..(l + 1 + 3nk) to bare vertices, where l is the transient length and
    k the least strict shift period.

    The pruned tree embeds into the original identically beyond the pruned
    zone (and a bare vertex embeds anywhere), and the original embeds into
    the pruned tree by shifting ceil((L+1)/k) periods, which lands every
    component past the zone.  Different n leave pruned runs of different
    lengths, so the family is pairwise distinct.
    """
    if n < 1:
        raise TermError("twin index starts at 1")
    k = _shift_data(t, horizon)
    top = _transient_length(t.seq) + 1 + 3 * n * k
    return WSum(Patched(t.seq, {j: BOX for j in range(top + 1)}))


def twin_from_subset(t: Term, positions, horizon: int = 8) -> Term:
    """A twin indexed by a finite set of spine positions: for each n in the
    set, hang a fresh copy of component n at position n + k as well (k the
    least strict period).

    The result embeds into the original by mapping component n+k's extra
    copy of component n forward along the shift; the original embeds by
    shifting one period.  Distinct position sets change distinct spine
    positions, so sets from an almost disjoint family give pairwise
    distinct twins.
    """
    k = _shift_data(t, horizon)
    pos = sorted(set(int(x) for x in positions))
    if any(x < 0 for x in pos):
        raise TermError("positions must be >= 0")
    patches = {
        x + k: stage(t.seq, x) for x in pos if stage(t.seq, x) != stage(t.seq, x + k)
    }
    if not patches:
        raise TermError(
            "every requested patch is a no-op: the components repeat with the "
            "shift period, so these positions cannot mark a twin"
        )
    return WSum(Patched(t.seq, patches))


def almost_disjoint_family(count: int, length: int = 8):
    """`count` translates of the triangular numbers; the gaps grow, so any
    two translates share only finitely many members."""
    if count < 1 or length < 1:
        raise TermError("count and length must be >= 1")
    base = [j * (j + 1) // 2 for j in range(1, length + 1)]
    return [tuple(x + s for x in base) for s in range(count)]


# omega multiplicities and supseq families are cut to this many copies in
# the verification cuts
CUT_WIDTH = 6
# verify_twins follows patches this deep into the spine and no deeper: a
# deeper patch leaves its member's checks open instead of growing the work
MAX_REACH = 128


def verify_twins(t: Term, twins, horizon: int = 12) -> dict:
    """Certify a twin family: every member mutually embeddable with t
    (engine verdicts), and pairwise distinct cut codes.

    The cut depth is derived from the family: 20, or two past the deepest
    patched spine position of any member (the reach, at most MAX_REACH),
    whichever is larger, so every patch up to MAX_REACH lies inside the
    cut.  A cut keeps everything within that depth of
    the root (omega multiplicities and supseq families cut to CUT_WIDTH
    copies), so a code difference exhibits a concrete finite neighbourhood
    on which the trees disagree.  Codes are symbolic (``CutCoder``) and
    share one intern table, so they are comparable only within one result.
    The mutual checks search spine shifts up to `horizon` past the same
    reach, since the n-th twin_n member needs a shift of at least 3n + 2.
    Members patched past MAX_REACH may come out `unknown` or share a code:
    the family is then reported unverified, never wrongly verified.
    """
    items = [t] + list(twins)
    reach = max(
        (
            x.seq.patches[-1][0] + 2
            for x in items
            if isinstance(x, WSum) and isinstance(x.seq, Patched) and x.seq.patches
        ),
        default=0,
    )
    reach = min(reach, MAX_REACH)
    coder = CutCoder(CUT_WIDTH)
    depth = max(20, reach)
    codes = [str(coder.code(x, depth)) for x in items]
    mutual = [equimorphic(t, s, horizon + reach) for s in twins]
    distinct = len(set(codes)) == len(codes)
    return {
        "mutual": mutual,
        "all_mutual": all(v == YES for v in mutual),
        "codes_distinct": distinct,
        "codes": codes,
        "ok": all(v == YES for v in mutual) and distinct,
    }


def twins_report(t: Term, n: int = 3, horizon: int = 8) -> dict:
    """Build and verify a family of n twins via twin_n."""
    family = [twin_n(t, j, horizon) for j in range(1, n + 1)]
    check = verify_twins(t, family, horizon=max(horizon, 12))
    return {
        "family": family,
        "prune_tops": [x.seq.last_patch() for x in family],
        "verified": check["ok"],
        "mutual": check["mutual"],
        "codes_distinct": check["codes_distinct"],
    }


def subset_twins_report(t: Term, count: int = 3, horizon: int = 8) -> dict:
    """Build and verify twins from an almost disjoint family of position
    sets."""
    sets = almost_disjoint_family(count)
    family = [twin_from_subset(t, a, horizon) for a in sets]
    check = verify_twins(t, family, horizon=max(horizon, 12))
    return {
        "sets": sets,
        "family": family,
        "verified": check["ok"],
        "mutual": check["mutual"],
        "codes_distinct": check["codes_distinct"],
    }


def twin_json(report: dict) -> str:
    out = dict(report)
    if "family" in out:
        from .terms import format_term

        out["family"] = [format_term(x) for x in out["family"]]
    if "sets" in out:
        out["sets"] = [list(a) for a in out["sets"]]
    return json.dumps(out)
