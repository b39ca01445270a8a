"""Consistency checks that need no exact decider.

Root-to-root embedding is transitive, and shifts along spines compose:
a chain of two `yes` with a `no` across it proves a wrong verdict without
saying which one.  Mutually embeddable trees are equimorphic, so they
share every equimorphism invariant: the twin count and the end-space
rank.  And two terms that denote the same tree must get the same
verdicts, `unknown` included.

The corpora come from the parser tests' grammar (`test_parse`): terms
from `term(rng, 4)` with seed 11, spines `"wsum(" + seq(rng, 4) + ")"`
with seed 5.
"""

import json
import random

import pytest

from scattree.cuts import truncate
from scattree.embedding import embeds, shift_embeds, shift_walk
from scattree.ends import shift_report
from scattree.finite_trees import rooted_embeds
from scattree.ranks import rank_summary
from scattree.stability import twin_cardinality
from scattree.terms import NO, UNKNOWN, YES, Patched, Periodic, TermError, WSum, format_term, parse_term, stage
from scattree.twins import twin_from_subset, twin_n, verify_twins

from test_parse import seq, term

HORIZON = 8


def _spines(count):
    rng = random.Random(5)
    return ["wsum(" + "".join(seq(rng, 4)) + ")" for _ in range(count)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_embedding_is_transitive():
    """Every ordered pair of 150 distinct non-single terms, decided by
    `embeds` in one memo: no a -> b yes, b -> c yes with a -> c no.  Among
    the spined sums, shift k from t to u and shift l from u to v (k, l <=
    3, each a `shift_walk` yes) must not leave shift k + l from t to v a
    no."""
    rng = random.Random(11)
    terms, seen = [], set()
    while len(terms) < 150:
        t = parse_term("".join(term(rng, 4)))
        if not t.single and t not in seen:
            seen.add(t)
            terms.append(t)
    memo = {}
    into, onto, refuted = [0] * len(terms), [0] * len(terms), []
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            verdict = embeds(a, b, memo)
            if verdict == YES:
                into[i] |= 1 << j  # the bs that a embeds in
                onto[j] |= 1 << i  # the as that embed in b
            elif verdict == NO:
                refuted.append((i, j))
    # each no a -> c with the bit set of the bs that chain a -> b -> c
    chains = [(i, j, into[i] & onto[j]) for i, j in refuted if into[i] & onto[j]]
    triples = sum(bin(middles).count("1") for _, _, middles in chains)

    spines = [t.seq for t in terms if isinstance(t, WSum)]
    walks = {(p, q): [shift_walk(p, q, k, memo=memo)[0] for k in range(7)] for p in spines for q in spines}
    broken = [
        (p, q, r, k, l)
        for p in spines
        for q in spines
        for r in spines
        for k in range(4)
        if walks[p, q][k] == YES
        for l in range(4)
        if walks[q, r][l] == YES and walks[p, r][k + l] == NO
    ]
    first = [
        " -> ".join(format_term(terms[x]) for x in (i, (middles & -middles).bit_length() - 1, j))
        for i, j, middles in chains[:3]
    ]
    assert not triples and not broken, (
        f"{triples} triples a -> b yes, b -> c yes, a -> c no, among them {first}; "
        f"{len(broken)} shift pairs that do not compose"
    )


def test_mutually_embeddable_twins_keep_the_invariants():
    """A `twin_n(t, 1)` member, reparsed so that it shares no cache with t,
    that embeds in t and t in it (`shift_embeds` yes both ways) has t's
    twin count and end-space rank.  3000 seed-5 spines, of which 1128
    members qualify."""
    checked = 0
    for text in _spines(3000):
        t = parse_term(text)
        count = twin_cardinality(t, HORIZON)[0]
        if count not in ("infinite", "continuum"):
            continue
        member = parse_term(format_term(twin_n(t, 1, HORIZON)))
        if shift_embeds(t, member) == YES and shift_embeds(member, t) == YES:
            checked += 1
            assert twin_cardinality(member, HORIZON)[0] == count, text
            assert rank_summary(member).space_rank == rank_summary(t).space_rank, text
    assert checked > 1000


def test_twin_families_verify_on_their_construction_walks():
    """On the first 1500 seed-5 spines, each of the 685 with an infinite or
    continuum twin count gets a 3-member `twin_n` family, which must
    verify, and a 3-member `twin_from_subset` family drawn as the CLI's
    `--seed` draws it, from `random.Random(i)` for spine #i.  234 of those
    are built and 451 refused as no-ops; every member of a built family
    must be mutually embeddable with t.  In 33 of them the members are
    isomorphic to t, so codes are shared: they are counted, not asserted
    distinct (`twin_from_subset` copies a component over an isomorphic
    one written differently)."""
    counted = built = shared = 0
    for i, text in enumerate(_spines(1500)):
        t = parse_term(text)
        if twin_cardinality(t, HORIZON)[0] not in ("infinite", "continuum"):
            continue
        counted += 1
        assert verify_twins(t, [twin_n(t, j, HORIZON) for j in (1, 2, 3)], HORIZON)["ok"], text
        offsets = random.Random(i).sample(range(6), 3)
        try:
            family = [twin_from_subset(t, [j * (j + 1) // 2 + off for j in range(1, 7)], HORIZON) for off in offsets]
        except TermError:
            continue
        built += 1
        report = verify_twins(t, family, HORIZON)
        assert report["mutual"] == [YES] * 3, text
        shared += not report["codes_distinct"]
    assert (counted, built) == (685, 234)
    assert shared <= 33


UNDECIDED = "strict periods undecided at "


def _verdicts(t):
    """The decided-or-unknown verdicts of a spine: rank, each shift 1..8,
    regular, almost rigid and the twin count."""
    report = shift_report(t, HORIZON)
    unknown = next((json.loads(n[len(UNDECIDED):]) for n in report.notes if n.startswith(UNDECIDED)), [])
    out = {
        "rank": rank_summary(t).to_json(),
        "regular": report.regular,
        "almost_rigid": report.almost_rigid,
        "twins": twin_cardinality(t, HORIZON)[0],
    }
    for k in range(1, HORIZON + 1):
        out[f"period {k}"] = YES if k in report.periods else UNKNOWN if k in unknown else NO
    return out


def _rewrites(t):
    """Spines that denote t's tree: one cycle entry unrolled into the
    prefix, the cycle doubled, and an identity patch at position 0 or 5."""
    s = t.seq
    patches = dict(s.patches) if isinstance(s, Patched) else {}
    inner = s.inner if patches else s
    out = {f"patch {n}": WSum(Patched(s, {n: stage(s, n)})) for n in (0, 5)}
    if isinstance(inner, Periodic):
        c = inner.cycle
        for name, p in (
            ("unroll", Periodic(inner.prefix + c[:1], c[1:] + c[:1])),
            ("double", Periodic(inner.prefix, c + c)),
        ):
            out[name] = WSum(Patched(p, patches) if patches else p)
    return out


def test_tree_preserving_rewrites_flip_no_decided_verdict():
    """On 1000 seed-5 spines, each rewrite, reparsed, keeps every verdict,
    unknown included: no decided verdict flips, and none falls to unknown.
    A doubled cycle is read at its least period, and the root-degree rule
    for generated tails reads the patches.  (Rotating the prefix is no such
    rewrite: `[a,b](c)` and `[b,a](c)` are different trees.)"""
    moved, rewritten = [], 0
    for text in _spines(1000):
        t = parse_term(text)
        before = _verdicts(t)
        for name, r in _rewrites(t).items():
            rewritten += 1
            after = _verdicts(parse_term(format_term(r)))
            moved += [(text, name, key, v, after[key]) for key, v in before.items() if after[key] != v]
    assert not moved, moved[:5]
    assert rewritten > 2500


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_strict_periods_of_generated_spines_survive_exact_cuts():
    """Seed-5 spines #548, #1762 and #2810 report strict period 1, and
    with their irregular tails twin count continuum.  A strict period k
    embeds component n in component n + k root to root, so each
    depth-d cut of the one embeds in the depth-d cut of the other.  The
    source is cut at width 1, a subtree of its ball, and the target at
    width the source cut's size, enough copies of every class for an
    injective matching, so a failure refutes the period.  (At target width
    3, #175 would look refuted, and it is not.)  Today component 0 fails at
    depth 2: `embeds`' wsum/wsum branch accepts a shifted spine."""
    spines = _spines(3000)
    refuted = []
    for i in (548, 1762, 2810):
        t = parse_term(spines[i])
        for k in shift_report(t, HORIZON).periods:
            for n in range(3):
                for depth in range(4):
                    a = truncate(stage(t.seq, n), depth, 1)
                    b = truncate(stage(t.seq, n + k), depth, a.tree.n)
                    if not rooted_embeds(a.rooted, b.rooted):
                        refuted.append((i, k, n, depth))
    assert not refuted, refuted[:5]
