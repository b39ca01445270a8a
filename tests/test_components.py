"""`terms.components` is the one reader of a sequence's layout.

A patched periodic sequence denotes the same components as the unpatched
`Periodic` that spells its stages out: a prefix of stages 0..E-1, for some
E past the last patch and the prefix, then a cycle of the next
cycle-length stages.  Every structural measure must agree on the two,
whether the components hang along a spine (`wsum`) or at one root
(`supseq`).
"""

import random

from scattree import embedding
from scattree.embedding import shift_walk
from scattree.ranks import rank_summary
from scattree.terms import (
    NO,
    Patched,
    Periodic,
    SupSeq,
    WSum,
    branch_count,
    components,
    format_seq,
    height,
    is_rayless,
    is_single_vertex,
    parse_term,
    root_degree,
    stage,
    vertex_count,
)

SEQUENCES = 500

SINGLE = [parse_term(x) for x in ("box", "sup(box*w)", "supseq([](box))", "sup(box,box*2)")]
LARGER = [
    parse_term(x)
    for x in (
        "succ(box)",
        "succ(succ(box))",
        "sup(succ(box)*2)",
        "sup(succ(box)*w)",
        "sup(box,succ(sup(box,succ(box))))",
        "wsum([](box))",
        "wsum([succ(box)](box))",
        "sup(wsum([](box))*2)",
        "supseq([](succ(box)))",
        "supseq(gen(box;succ(_)))",
        "wsum(gen(box;succ(sup(_*2))))",
        "supseq(patch([](box);9:succ(box)))",
    )
]
MEASURES = (rank_summary, vertex_count, height, root_degree, branch_count, is_rayless, is_single_vertex)


def patched_seq(rng):
    """A patched periodic sequence.  Its cycle holds only single vertices
    half of the time, so that finite supseqs occur; its prefix entries and
    patches come from every shape."""
    singles = rng.random() < 0.5

    def pick(recurring=False):
        single = recurring and singles or rng.random() < 0.4
        return rng.choice(SINGLE if single else LARGER)

    prefix = [pick() for _ in range(rng.randint(0, 4))]
    cycle = [pick(recurring=True) for _ in range(rng.randint(1, 3))]
    last = rng.choice((6, 40, 300))
    patches = {rng.randint(0, last): pick() for _ in range(rng.randint(1, 3))}
    return Patched(Periodic(prefix, cycle), patches)


def unrolled(seq, extra):
    """The same components as an unpatched sequence: stages 0..E-1 as the
    prefix, E = `extra` past the last patch and the prefix, and the next
    cycle-length stages as the cycle."""
    end = max(seq.last_patch() + 1, len(seq.inner.prefix)) + extra
    cycle = len(seq.inner.cycle)
    return Periodic([stage(seq, n) for n in range(end)], [stage(seq, n) for n in range(end, end + cycle)])


def test_components_layout():
    seq = parse_term("wsum(patch([succ(box),box,box](sup(box*2));1:box,7:succ(box)))").seq
    once, recurring, gen = components(seq)
    assert [n for n, _ in once] == [0, 1, 2, 7]
    assert recurring == seq.inner.cycle
    assert gen is None
    gen_seq = parse_term("supseq(patch(gen(box;succ(_));4:box))").seq
    assert components(gen_seq) == (gen_seq.patches, (), gen_seq.inner)


def test_a_cycle_is_listed_at_its_least_period(monkeypatch):
    """A cycle written twice over lists as the cycle written once, so a
    shift walk over it reads as many tail positions as over the cycle
    written once; a cycle with no shorter period stays whole."""
    a, b, x, y = (parse_term(t) for t in ("box", "succ(box)", "sup(box*2)", "succ(succ(box))"))
    doubled = Periodic([], [a, b, a, b])
    assert components(doubled)[1] == (a, b)
    assert doubled.cycle == (a, b, a, b)  # the sequence keeps its cycle as written
    assert components(Patched(Periodic([x], [a, b, a, b]), {7: y}))[1] == (a, b)
    assert components(Periodic([], [a, a, a]))[1] == (a,)
    assert components(Periodic([], [a, b, a]))[1] == (a, b, a)

    tails = []
    table = embedding._ShiftTable
    listed = table.tail

    def counted(self):
        positions = list(listed(self))
        tails.append(len(positions))
        return positions

    monkeypatch.setattr(table, "tail", counted)
    for seq in (Periodic([], [a, b]), doubled):
        assert shift_walk(seq, seq, 1, memo={}) == (NO, None)
    assert tails == [2, 2]


def test_layout_is_computed_once_per_sequence():
    seq = parse_term("wsum(patch([succ(box)](box);3:box))").seq
    assert components(seq) is components(seq)
    assert components(seq.inner) is components(seq.inner)


def test_patched_and_unrolled_sequences_agree():
    rng = random.Random(11)
    for _ in range(SEQUENCES):
        seq = patched_seq(rng)
        twin = unrolled(seq, rng.randint(0, 3))
        for wrap in (WSum, SupSeq):
            for measure in MEASURES:
                where = f"{measure.__name__} of {wrap.__name__}: {format_seq(seq)}"
                assert measure(wrap(seq)) == measure(wrap(twin)), where
