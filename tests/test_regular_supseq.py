"""A supseq whose generated stages have no child is the sup of its
components: sup(o1, ..., ok, c1*w, ..., cL*w), the o occurring once and
the c recurring.  Every reader of identified roots (embedding, measures,
branch counts, ranks, cuts) must give it the answers that sup gets."""

import random

from scattree.cuts import CutCoder, expand_finite, truncate
from scattree.embedding import embeds
from scattree.finite_trees import canonical_code
from scattree.ranks import rank_summary
from scattree.terms import (
    BOX,
    OMEGA_MULT,
    Generated,
    Patched,
    Periodic,
    Succ,
    Sup,
    SupSeq,
    WSum,
    branch_count,
    components,
    parse_term,
    stage,
)

from test_center import finite_text
from test_parse import term  # the parser tests' grammar


def as_sup(t):
    """t with every regular supseq, inner ones included, rewritten as the
    sup of all its components (single ones too, which add nothing), read
    off `components`: those that occur once, then each recurring one *w.
    A supseq with a generated stage that has a child keeps its node."""
    if isinstance(t, Succ):
        return Succ(as_sup(t.child))
    if isinstance(t, Sup):
        return Sup([(as_sup(a), m) for a, m in t.arms])
    if isinstance(t, WSum):
        return WSum(_seq_as_sup(t.seq))
    if isinstance(t, SupSeq):
        once, recurring, gen = components(t.seq)
        # stage 1 is the context around stage 0, so two single stages make
        # every stage single
        if gen is None or stage(gen, 0).single and stage(gen, 1).single:
            arms = [(as_sup(c), 1) for _, c in once] + [(as_sup(c), OMEGA_MULT) for c in recurring]
            return Sup(arms or [(BOX, 1)])
        return SupSeq(_seq_as_sup(t.seq))
    return t


def _seq_as_sup(seq):
    if isinstance(seq, Periodic):
        return Periodic([as_sup(t) for t in seq.prefix], [as_sup(t) for t in seq.cycle])
    if isinstance(seq, Generated):
        return Generated(as_sup(seq.base), seq.context)
    return Patched(_seq_as_sup(seq.inner), {n: as_sup(t) for n, t in seq.patches})


def _terms(seed, count):
    rng = random.Random(seed)
    return [parse_term("".join(term(rng, 4))) for _ in range(count)]


def test_regular_supseqs_decide_and_measure_as_their_sups():
    terms = _terms(24, 10000)
    pairs = list(zip(terms[::2], terms[1::2]))
    rewritten = {t: as_sup(t) for t in terms}
    moved = sum(rewritten[t] != t for t in terms)
    assert moved > 3000  # a third of the terms hold a regular supseq
    for t, r in rewritten.items():
        for field in ("single", "rayless", "size", "height", "degree"):
            assert getattr(t, field) == getattr(r, field), (field, t)
        assert branch_count(t) == branch_count(r), t
        assert rank_summary(t) == rank_summary(r), t
    decided = 0
    for a, b in pairs:
        verdict = embeds(a, b)
        assert verdict == embeds(rewritten[a], rewritten[b]), (a, b)
        decided += verdict != "unknown"
    assert decided > len(pairs) // 2


def _cut_code(t, depth, width=3):
    cut = truncate(t, depth, width)
    return canonical_code(cut.rooted), cut.lossy


def test_finite_supseqs_cut_whole():
    # members that are not single vertices far past the cut width, patches
    # over a generated sequence of single stages, prefix entries overridden
    texts = [
        "supseq(patch([](box);5:succ(box)))",
        "supseq(patch([](box);4:succ(box),9:succ(succ(box)),30:sup(succ(box)*2)))",
        "supseq(patch(gen(box;sup(_,box));2:succ(box),7:succ(succ(box))))",
        "supseq(patch([succ(box),box,box,box](box);1:succ(succ(box)),6:succ(box)))",
        "succ(supseq(patch(gen(box;sup(_,box));8:sup(succ(box),succ(box)))))",
    ]
    rng = random.Random(3)
    texts += [finite_text(rng, 4) for _ in range(400)]
    for text in texts:
        t = parse_term(text)
        s = as_sup(t)
        for depth in range(int(t.height) + 2):
            code, lossy = _cut_code(t, depth)
            assert code == _cut_code(s, depth)[0], (text, depth)
            assert not lossy or depth < t.height, (text, depth)
        assert canonical_code(expand_finite(t)) == canonical_code(expand_finite(s)), text
        assert expand_finite(t).tree.n == t.size
    cut = truncate(parse_term(texts[0]), 2)
    assert (cut.tree.n, cut.lossy) == (2, False)


def test_recurring_members_cut_to_width_copies():
    # a cycle member recurs forever: it is cut like a *w arm, width copies
    t = parse_term("supseq([succ(box)](box,succ(succ(box))))")
    s = parse_term("sup(succ(box),succ(succ(box))*w)")
    for width in (1, 2, 5):
        for depth in range(4):
            a, b = truncate(t, depth, width), truncate(s, depth, width)
            assert canonical_code(a.rooted) == canonical_code(b.rooted)
            assert a.lossy and b.lossy  # the copies past the width are hidden


def test_a_cycle_written_twice_cuts_as_written_once():
    # a supseq's arms list each recurring member once, however often its
    # cycle is written
    t = parse_term("supseq([](succ(box),succ(box)))")
    s = parse_term("supseq([](succ(box)))")
    for width in (1, 2, 3):
        coder = CutCoder(width)
        for depth in range(5):
            a, b = truncate(t, depth, width), truncate(s, depth, width)
            assert a.tree.n == b.tree.n, (depth, width)
            assert canonical_code(a.rooted) == canonical_code(b.rooted), (depth, width)
            assert coder.code(t, depth) == coder.code(s, depth), (depth, width)
