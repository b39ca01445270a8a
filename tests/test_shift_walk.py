"""The shift walk against brute force on finite components.

A seeded generator draws pairs of periodic or patched periodic sequences
whose components are small finite trees, and a shift s.  Every component
expands exactly, so each pair p[n] -> q[n + s] can be decided by the
finite oracle `rooted_embeds`.  The dense reference reads a window of T +
max(prefix) + lcm(cycles) pairs; the expansion checks three times as many.

The walk reads only the marked pairs, where a side is a prefix entry or a
patch, and the tail class of s modulo the cycle, which its memo's shift
table decides once per direction.  A dense reference that reads every
pair in order checks that this changes no answer, at shifts s and s + L
from one memo, and a count of the pairs the table lists checks that
patches far out cost no more than near ones.  The walk decides each pair
of component terms once per memo, in the memo's own (term, term) entries;
walks over short-lived sequences that share one memo check that it
answers as fresh memos do, and a spine of equal components built as
distinct objects checks that it costs the memory of a shared one.

`shift_report` walks a shift k only below max(S, 1) + L, where S is the
first position past the prefix and the patches and L the cycle's least
period, the length `components` lists; every later shift repeats shift
k - L.  A dense report that walks every shift up to the horizon checks
that this changes no field of the report, and a walk count checks that
the horizon no longer sets the cost.
"""

import gc
import random
import tracemalloc
from math import lcm

from scattree import embedding, ends
from scattree.cuts import expand_finite
from scattree.embedding import embeds, shift_embeds, shift_walk
from scattree.ends import shift_report
from scattree.finite_trees import rooted_embeds
from scattree.stability import classify
from scattree.terms import (
    BOX,
    NO,
    UNKNOWN,
    YES,
    Patched,
    Periodic,
    Succ,
    Sup,
    WSum,
    components,
    format_seq,
    parse_term,
    settled_from,
    stage,
    tri_and,
)

PAIRS = 600
DENSE_PAIRS = 500
SPINES = 2000
PAIRS_PER_WALK = 24


def finite_term(rng, depth):
    """A small finite term: box, succ or sup with multiplicities up to 2."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return BOX
    if roll < 0.6:
        return Succ(finite_term(rng, depth - 1))
    arms = [(finite_term(rng, depth - 1), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
    return Sup(arms)


def finite_seq(rng, last=12, patches=(1, 2), chance=0.5, max_prefix=2):
    """A periodic sequence of finite terms with up to `max_prefix` prefix
    entries, patched with the given chance at a number of positions up to
    `last` drawn from `patches`.  Components come from a small pool, so
    that pairs embed often enough for both verdicts to occur."""
    pool = [finite_term(rng, 3) for _ in range(3)]
    prefix = [rng.choice(pool) for _ in range(rng.randint(0, max_prefix))]
    cycle = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    seq = Periodic(prefix, cycle)
    if rng.random() < chance:
        marks = {rng.randint(0, last): rng.choice(pool) for _ in range(rng.randint(*patches))}
        seq = Patched(seq, marks)
    return seq


def inner(seq):
    return seq.inner if isinstance(seq, Patched) else seq


def cycle_of(p, q):
    return lcm(len(inner(p).cycle), len(inner(q).cycle))


def window(p, q):
    return (
        1
        + max(p.last_patch(), q.last_patch())
        + max(len(inner(p).prefix), len(inner(q).prefix))
        + cycle_of(p, q)
    )


def plain_run(p, q, s):
    """The longest run of head pairs n < window - cycle where neither
    p[n] nor q[n + s] is a prefix entry or a patch."""
    def marked(seq, n):
        return n < len(inner(seq).prefix) or isinstance(seq, Patched) and seq.patch_at(n) is not None

    best = run = 0
    for n in range(window(p, q) - cycle_of(p, q)):
        run = 0 if marked(p, n) or marked(q, n + s) else run + 1
        best = max(best, run)
    return best


def dense_walk(p, q, s, both_ways=False, reach=None):
    """The reference: every pair below the window end, in order."""
    memo, end = {}, window(p, q)
    verdict, last = YES, -1
    for n in range(end):
        pair = embedding._stage_embeds(p, n, q, n + s, memo)
        if both_ways and pair != NO:
            pair = tri_and(pair, embedding._stage_embeds(q, n + s, p, n, memo))
        if pair != YES:
            if pair == NO and reach is None:
                return NO, None
            verdict, last = tri_and(verdict, pair), n
    return verdict, (last + 1 if last < end - cycle_of(p, q) else None)


def test_walk_matches_the_finite_oracle():
    rng = random.Random(11)
    expanded = {}

    def tree(t):
        if t not in expanded:
            expanded[t] = expand_finite(t)
        return expanded[t]

    seen = {YES: 0, NO: 0}
    sparse = 0  # pairs whose head has a plain run the walk skips
    for _ in range(PAIRS):
        p, q, s = finite_seq(rng), finite_seq(rng), rng.randint(0, 4)
        sparse += plain_run(p, q, s) > cycle_of(p, q)
        reach = 3 * window(p, q)
        fails = [
            n
            for n in range(reach + 1)
            if not rooted_embeds(tree(stage(p, n)), tree(stage(q, n + s)))
        ]
        where = f"{format_seq(p)} -> {format_seq(q)} at shift {s}"
        verdict, u = shift_walk(p, q, s)
        assert verdict == (NO if fails else YES), where
        seen[verdict] += 1
        # with a reach the walk also names the least offset; a pair that
        # fails past the first window fails once per period, so no offset
        _, u = shift_walk(p, q, s, reach=0)
        if not fails:
            assert u == 0, where
        elif fails[-1] < window(p, q):
            assert u == fails[-1] + 1, where
        else:
            assert u is None, where
    assert min(seen.values()) >= PAIRS // 10, seen
    assert sparse >= PAIRS // 3, sparse


def test_sparse_head_matches_the_dense_walk():
    """Every shift below 3L, so that s and s + L both meet the dense walk,
    in all four modes, from one memo: its shift table answers shift s + L
    from the class verdict shift s decided."""
    rng = random.Random(5)
    sparse = 0
    modes = [(both_ways, reach) for both_ways in (False, True) for reach in (None, 0)]
    for _ in range(DENSE_PAIRS):
        p, q = (finite_seq(rng, last=200, patches=(1, 3), chance=0.8, max_prefix=8) for _ in "pq")
        s = rng.randint(0, 8)
        sparse += plain_run(p, q, s) > cycle_of(p, q)
        memo = {}
        for shift in range(3 * cycle_of(p, q)):
            for both_ways, reach in modes:
                where = f"{format_seq(p)} -> {format_seq(q)} at shift {shift}, {both_ways}, {reach}"
                assert shift_walk(p, q, shift, memo=memo, both_ways=both_ways, reach=reach) == dense_walk(
                    p, q, shift, both_ways=both_ways, reach=reach
                ), where
    assert sparse >= DENSE_PAIRS // 2, sparse


def test_a_tail_class_is_read_once_per_direction(monkeypatch):
    """Shifts s and s + L share their tail class, so one memo reads its L
    pairs once.  The class holds one way and fails both ways here: a
    one-way verdict served to a both-ways query would answer yes."""
    read = []
    tail = embedding._ShiftTable.tail

    def counted(self):
        positions = tail(self)
        read.append(len(positions))
        return positions

    monkeypatch.setattr(embedding._ShiftTable, "tail", counted)
    box, succ, succ2, sup = (parse_term(x) for x in ("box", "succ(box)", "succ(succ(box))", "sup(succ(box)*2)"))
    # p[0] fails into every q member, so shift s >= 1 holds from 1 on
    p = Periodic([parse_term("sup(succ(box)*3)")], [succ, box])
    q = Periodic([box], [succ2, succ, sup])
    cycle = 6
    memo = {}
    for s in (1, 1 + cycle, 1 + 2 * cycle):
        assert shift_walk(p, q, s, memo=memo, reach=0) == (NO, 1) == dense_walk(p, q, s, reach=0)
    assert read == [cycle]
    for s in (1, 1 + cycle):
        assert shift_walk(p, q, s, memo=memo, both_ways=True, reach=0) == (NO, None)
        assert dense_walk(p, q, s, both_ways=True, reach=0) == (NO, None)
    assert read == [cycle, cycle]


class PairBudget:
    """Counts the walks and the pairs they read, and fails as soon as the
    pairs exceed PAIRS_PER_WALK per walk started, so a walk that reads every
    position fails at once instead of running for hours.  A periodic walk
    is counted where it runs, at its shift table's `walk`, whether
    `shift_walk` or `shift_embeds` started it, and reads the pairs its table
    lists: the marked pairs of its shift, and the pairs of its tail class
    when no earlier walk decided the class.  They are counted one by one as
    the walk takes them.  Any other walk is counted at `shift_walk`; a
    generated walk reads each pair through `_stage_embeds`, counted per
    call."""

    def __init__(self, monkeypatch):
        self.walks = self.pairs = 0
        walk, pair, table = embedding.shift_walk, embedding._stage_embeds, embedding._ShiftTable
        table_walk = table.walk

        def counted_walk(p, q, *args, **kwargs):
            if not (isinstance(inner(p), Periodic) and isinstance(inner(q), Periodic)):
                self.walks += 1
            return walk(p, q, *args, **kwargs)

        def counted_table_walk(*args):
            self.walks += 1
            return table_walk(*args)

        def spend(n):
            self.pairs += n
            assert self.pairs <= PAIRS_PER_WALK * self.walks, (self.pairs, self.walks)

        def counted_list(listed):
            def counted(*args):
                for item in listed(*args):
                    spend(1)
                    yield item

            return counted

        def counted_pair(*args):
            spend(1)
            return pair(*args)

        monkeypatch.setattr(embedding, "shift_walk", counted_walk)
        monkeypatch.setattr(ends, "shift_walk", counted_walk)
        monkeypatch.setattr(table, "walk", counted_table_walk)
        monkeypatch.setattr(table, "marked", counted_list(table.marked))
        monkeypatch.setattr(table, "tail", counted_list(table.tail))
        monkeypatch.setattr(embedding, "_stage_embeds", counted_pair)


def test_far_patches_cost_bounded_work(monkeypatch):
    budget = PairBudget(monkeypatch)
    far = 99999999
    t = parse_term(f"wsum(patch([](box);{far}:box))")
    report = shift_report(t)
    assert report.periods == tuple(range(1, 9))
    assert dict(report.eventual) == {k: 0 for k in range(1, 9)}
    assert classify(t).twins == "one"

    t = parse_term(f"wsum(patch([](box);{far}:succ(box)))")
    report = shift_report(t)
    assert report.periods == ()
    assert dict(report.eventual) == {k: far + 1 for k in range(1, 9)}
    assert report.origin_index == far + 1
    assert classify(t).variant == "unique_end_forward"
    assert budget.walks > 0

    late = parse_term("wsum(patch([](box);3000:succ(box)))")
    early = parse_term("wsum(patch([](box);1500:succ(box)))")
    assert shift_embeds(late, early) == NO
    assert shift_embeds(early, late) == YES

    # a generated walk reads its pairs through _stage_embeds, which the
    # budget counts one by one
    pairs = budget.pairs
    t = parse_term("wsum(patch(gen(box;succ(sup(_*2)));3:box))")
    assert shift_report(t, 2).periods == ()
    assert budget.pairs > pairs


def test_far_patched_target_costs_bounded_work(monkeypatch):
    """Shifting a wsum along one patched far out tries shift 0, the shifts
    between marks and one shift per class past the target's last mark:
    two walks here, and one tail class read once."""
    ray = parse_term("wsum([](succ(box)))")
    for far in (2000, 20000, 99999999):
        budget = PairBudget(monkeypatch)
        assert shift_embeds(ray, parse_term(f"wsum(patch([](box);{far}:succ(box)))")) == NO
        assert budget.walks == 2


def test_a_finished_memo_goes_without_the_cycle_collector():
    """The shift tables live in the memo and do not point back at it, so
    the memo of a finished query and its tables are freed at once."""
    def tables():
        return sum(type(x) is embedding._ShiftTable for x in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = tables()
        far = parse_term("wsum(patch([](box);5:succ(box)))")
        assert embeds(far, parse_term("wsum([box](succ(box),box))")) == YES
        shift_report(far)
        assert tables() == before
    finally:
        gc.enable()


FRESH_TEXTS = (
    "succ(box)",
    "succ(succ(box))",
    "sup(succ(box)*2)",
    "sup(box,succ(succ(box)))",
    "succ(sup(box*2))",
)


def short_lived(rng):
    """Two sequences of freshly parsed components, equal to components
    built before but never the same objects, and a shift."""
    def fresh(low, high):
        return [parse_term(rng.choice(FRESH_TEXTS)) for _ in range(rng.randint(low, high))]

    def seq():
        return Periodic(fresh(0, 1), fresh(1, 2))

    return seq(), seq(), rng.randint(0, 2)


def test_one_memo_serves_many_short_lived_walks():
    """One memo shared by the walks of sequences built and dropped in a
    loop answers exactly as a fresh memo per walk does.  Their components
    are equal to earlier ones but never the same objects, and the objects
    die each round, so their ids recur: a verdict keyed by object could
    be read for the wrong pair."""
    rng = random.Random(29)
    memo = {}
    for _ in range(1500):
        p, q, s = short_lived(rng)
        for both in (False, True):
            shared = shift_walk(p, q, s, memo=memo, both_ways=both, reach=0)
            assert shared == shift_walk(p, q, s, both_ways=both, reach=0), (p, q, s, both)
    # with nothing holding them, the loop's components die each round and
    # their ids recur
    seen, recurred = set(), 0
    for _ in range(200):
        p, q, _ = short_lived(rng)
        recurred += id(stage(p, 0)) in seen
        seen.add(id(stage(p, 0)))
    assert recurred > 0


def test_equal_components_built_apart_cost_what_shared_ones_do():
    """A spine shaped like the wide CI term, with n = 300: the parser
    builds one object per occurrence, so its 1500 components are distinct
    objects of four distinct terms.  Its report must equal that of the same
    spine built from four shared objects, and take at most twice the
    memory: each pair of component terms is decided and kept once, not
    once per pair of objects."""
    n = 300
    prefix = ",".join(["sup(box*2,succ(box))"] * n)
    cycle = ",".join(["succ(box),box"] * n)
    patches = ",".join(f"{3 * i}:sup(box*w)" for i in range(n))
    apart = parse_term(f"wsum(patch([{prefix}]({cycle});{patches}))")
    head, leg, mark = (parse_term(x) for x in ("sup(box*2,succ(box))", "succ(box)", "sup(box*w)"))
    shared = WSum(Patched(Periodic([head] * n, [leg, BOX] * n), {3 * i: mark for i in range(n)}))
    assert apart == shared and apart is not shared

    def peak(t):
        tracemalloc.start()
        try:
            report = shift_report(t, 20)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report_shared, peak_shared = peak(shared)
    report_apart, peak_apart = peak(apart)
    assert report_apart == report_shared
    assert peak_apart <= 2 * peak_shared + 64 * 1024, (peak_apart, peak_shared)


def test_far_patch_in_the_source_bounds_the_shifts_tried(monkeypatch):
    """From q's last patch and prefix on, the verdict at shift s repeats with
    q's cycle, so shifting a wsum along a periodic one tries one cycle of
    shifts past there, however late the source's patches sit."""
    shifts = []
    walk = embedding._ShiftTable.walk

    def counted_walk(table, s, *args):
        shifts.append(s)
        return walk(table, s, *args)

    monkeypatch.setattr(embedding._ShiftTable, "walk", counted_walk)
    ray = parse_term("wsum([](box))")
    comb = parse_term("wsum([box](succ(box),box))")
    for far in (100000, 99999999):
        shifts.clear()
        assert shift_embeds(parse_term(f"wsum(patch([](box);{far}:succ(box)))"), ray) == NO
        assert shifts == [0]
        shifts.clear()
        assert shift_embeds(parse_term(f"wsum(patch([](box);{far}:sup(box,succ(box)*2)))"), comb) == NO
        assert shifts == [0, 1, 2]


def test_the_shifts_tried_decide_as_every_shift_does():
    """Between periodic wsums, `shift_embeds` tries shift 0, the differences m - n
    between a mark m of q and a mark n of p, and one shift per class of q's
    cycle from q's settled point on.  Any other shift below that point has
    a superset of its class representative's pairs, so the verdict is the
    one that trying every shift up to the settled point plus a cycle
    gives, also where only a difference holds."""
    rng = random.Random(23)
    seen = {YES: 0, NO: 0, "only_a_difference": 0}
    for i in range(PAIRS):
        if i % 2:
            p, q = (finite_seq(rng, last=8, patches=(1, 3), chance=0.7, max_prefix=3) for _ in "pq")
        else:
            # a source of boxes patched near the start, so that its patches
            # fit only into the target's
            pool = [finite_term(rng, 3) for _ in range(3)]
            p = Patched(Periodic([], [BOX]), {rng.randint(0, 4): rng.choice(pool) for _ in range(rng.randint(1, 2))})
            q = Patched(Periodic([], [rng.choice([BOX, *pool])]), {rng.randint(0, 8): rng.choice(pool) for _ in range(rng.randint(1, 3))})
        settled, cycle = settled_from(q), len(inner(q).cycle)
        holds = [s for s in range(settled + cycle) if dense_walk(p, q, s)[0] == YES]
        verdict = YES if holds else NO
        assert shift_embeds(WSum(p), WSum(q)) == verdict, (format_seq(p), format_seq(q))
        seen[verdict] += 1
        seen["only_a_difference"] += bool(holds) and 0 < holds[0] < settled and holds[-1] < settled
    assert min(seen.values()) >= PAIRS // 20, seen


def spine(rng):
    """A periodic spine of small finite components: with no prefix and no
    patch (S = 0) a quarter of the time, else prefixed or patched."""
    if rng.random() < 0.25:
        return finite_seq(rng, chance=0, max_prefix=0)
    return finite_seq(rng, last=rng.choice((3, 12)), patches=(1, 3), chance=0.6, max_prefix=3)


def dense_report(seq, horizon):
    """The reference: every shift 1..horizon walked, and every eventual
    shift tried for the origin, in order."""
    memo, reach = {}, max(4, horizon // 2)
    yes, unknown, eventual = [], [], {}
    for k in range(1, horizon + 1):
        strict, u = shift_walk(seq, seq, k, memo=memo, reach=reach)
        if strict == YES:
            yes.append(k)
        elif strict != NO:
            unknown.append(k)
        if u is not None:
            eventual[k] = u
    notes = [f"strict periods undecided at {unknown}"] if unknown else []
    regular, reason = ends.regular_components(seq)
    notes.append(f"regular: {reason}")
    origin = None
    if regular == YES:
        for d in sorted(eventual):
            origin = shift_walk(seq, seq, d, memo=memo, both_ways=True, reach=reach)[1]
            if origin is not None:
                break
    return {
        "periods": tuple(yes),
        "eventual": eventual,
        "almost_rigid": ends._almost_rigid(seq, yes, unknown, horizon, ends._repeat_from(seq)[0]),
        "regular": regular,
        "origin": origin,
        "notes": tuple(notes),
    }


def test_repeated_shifts_match_the_dense_report():
    rng = random.Random(13)
    seen = {"settled_at_0": 0, "repeats": 0, "periods": 0, "rigid": 0, "origin_past_0": 0}
    for _ in range(SPINES):
        seq = spine(rng)
        t = WSum(seq)
        first = max(settled_from(seq), 1) + len(components(seq)[1])
        for horizon in (8, 40):
            report = shift_report(t, horizon)
            got = {
                "periods": report.periods,
                "eventual": dict(report.eventual),
                "almost_rigid": report.almost_rigid,
                "regular": report.regular,
                "origin": report.origin_index,
                "notes": report.notes,
            }
            assert got == dense_report(seq, horizon), (format_seq(seq), horizon)
            assert report.d == (report.periods[0] if report.periods else None)
        seen["settled_at_0"] += settled_from(seq) == 0
        seen["repeats"] += first <= 8
        seen["periods"] += bool(report.periods)
        seen["rigid"] += report.almost_rigid == YES
        seen["origin_past_0"] += bool(report.origin_index)
    # every kind of spine and of answer occurs often
    assert min(seen.values()) >= SPINES // 20, seen


class WalkCount:
    """Counts the strict walks `shift_report` starts, and the both-ways
    walks of its origin search."""

    def __init__(self, monkeypatch):
        self.strict = self.both_ways = 0
        walk = ends.shift_walk

        def counted(*args, **kwargs):
            if kwargs.get("both_ways"):
                self.both_ways += 1
            else:
                self.strict += 1
            return walk(*args, **kwargs)

        monkeypatch.setattr(ends, "shift_walk", counted)


def test_periodic_spine_walks_each_shift_class_once(monkeypatch):
    """Shifts 1..max(S, 1) + p - 1 are walked, p the least rotation of the
    cycle that maps it to itself term by term: a cycle written twice over
    costs what it does once."""
    rng = random.Random(17)
    shorter = 0
    for _ in range(200):
        seq = spine(rng)
        cycle = inner(seq).cycle  # as written, so that some are longer than p
        n = len(cycle)
        period = min(p for p in range(1, n + 1) if all(cycle[i] == cycle[(i + p) % n] for i in range(n)))
        shorter += period < n
        for horizon in (8, 40, 400):
            count = WalkCount(monkeypatch)
            report = shift_report(WSum(seq), horizon)
            assert count.strict == min(horizon, max(settled_from(seq), 1) + period - 1)
            assert count.both_ways <= len(report.eventual)
    assert shorter >= 30, shorter


def test_horizon_does_not_set_the_cost_of_a_periodic_spine(monkeypatch):
    t = parse_term("wsum(patch([box](succ(box),sup(box*2));3:succ(succ(box))))")
    count = WalkCount(monkeypatch)
    report = shift_report(t, 20000)
    # S = 4 (the patch at 3), L = 2: shifts 1..5 are walked, the rest repeat
    assert count.strict == 5
    assert report.periods == ()
    assert dict(report.eventual) == {k: 4 for k in range(2, 20001, 2)}
    assert report.almost_rigid == YES
    assert report.origin_index == 4
    assert classify(t, 20000).variant == "unique_end_forward"


def test_almost_rigid_is_decided_once_every_shift_class_is_walked():
    """With no generated tail, the shifts 1..max(S, 1) + L - 1 stand for
    every shift, so from that horizon on `almost_rigid` is the truth: yes
    exactly when no shift up to 40 is a strict period.  Below it the
    verdict may stay unknown, but is never wrong."""
    rng = random.Random(19)
    seen = {YES: 0, NO: 0, "open_below": 0}
    for _ in range(300):
        seq = spine(rng)
        bound = max(settled_from(seq), 1) + len(components(seq)[1]) - 1
        truth = NO if any(shift_walk(seq, seq, k)[0] == YES for k in range(1, 41)) else YES
        seen[truth] += 1
        for horizon in range(1, bound + 2):
            rigid = shift_report(WSum(seq), horizon).almost_rigid
            if horizon >= bound:
                assert rigid == truth, (format_seq(seq), horizon)
            else:
                assert rigid in (truth, UNKNOWN), (format_seq(seq), horizon)
                seen["open_below"] += rigid == UNKNOWN
    assert min(seen.values()) >= 30, seen


def test_almost_rigid_at_the_repeat_bound():
    # S = 4 (the patch at 3), L = 2: shifts 1..5 are every class, also
    # when the cycle is written twice over
    for cycle in ("succ(box),sup(box*2)", "succ(box),sup(box*2),succ(box),sup(box*2)"):
        t = parse_term(f"wsum(patch([box]({cycle});3:succ(succ(box))))")
        for horizon, rigid, twins in ((4, UNKNOWN, UNKNOWN), (5, YES, "one"), (8, YES, "one")):
            assert shift_report(t, horizon).almost_rigid == rigid, (cycle, horizon)
            assert classify(t, horizon).twins == twins, (cycle, horizon)


def test_a_generated_tail_that_fails_at_its_transient_is_scanned_on():
    # a fuzz spine (seed 5) with no patch, so its transient is 0: stage 0
    # does not embed in stage 1, stage n does in stage n + 1 for n >= 1, and
    # every later shift holds from 0.  Only the scan past the transient
    # names shift 1's offset.
    t = parse_term(
        "wsum(gen(succ(sup(box,succ(box)*4));"
        "sup(sup(sup(box*3,box*9),wsum([](box,box))*8)*3,wsum([](succ(_))))))"
    )
    seq, memo = t.seq, {}
    report = shift_report(t, 8)
    assert report.periods == (2, 3, 4, 5, 6, 7, 8)
    for k in range(1, 9):
        pairs = [embedding._stage_embeds(seq, n, seq, n + k, memo) for n in range(4)]
        holds_from = pairs.index(YES)
        assert pairs[holds_from:] == [YES] * (4 - holds_from), k
        assert report.eventual[k] == holds_from, k
    assert shift_walk(seq, seq, 1) == (NO, None)
    assert shift_walk(seq, seq, 1, reach=1) == (NO, 1)
