"""The shift walk against brute force on finite components.

A seeded generator draws pairs of periodic or patched periodic sequences
whose components are small finite trees, and a shift s.  Every component
expands exactly, so each pair p[n] -> q[n + s] can be decided by the
finite oracle `rooted_embeds`.  The walk reads a window of T + max(prefix)
+ lcm(cycles) pairs; the expansion checks three times as many.
"""

import random
from math import lcm

from scattree.finite_trees import rooted_embeds
from scattree.terms import (
    BOX,
    NO,
    YES,
    Patched,
    Periodic,
    Succ,
    Sup,
    expand_finite,
    format_seq,
    shift_walk,
    stage,
)

PAIRS = 600


def finite_term(rng, depth):
    """A small finite term: box, succ or sup with multiplicities up to 2."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return BOX
    if roll < 0.6:
        return Succ(finite_term(rng, depth - 1))
    arms = [(finite_term(rng, depth - 1), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
    return Sup(arms)


def finite_seq(rng):
    """A periodic sequence of finite terms, patched at up to two positions
    half of the time.  Components come from a small pool, so that pairs
    embed often enough for both verdicts to occur."""
    pool = [finite_term(rng, 3) for _ in range(3)]
    prefix = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
    cycle = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    seq = Periodic(prefix, cycle)
    if rng.random() < 0.5:
        patches = {rng.randint(0, 5): rng.choice(pool) for _ in range(rng.randint(1, 2))}
        seq = Patched(seq, patches)
    return seq


def window(p, q):
    inner_p = p.inner if isinstance(p, Patched) else p
    inner_q = q.inner if isinstance(q, Patched) else q
    return (
        1
        + max(p.last_patch(), q.last_patch())
        + max(len(inner_p.prefix), len(inner_q.prefix))
        + lcm(len(inner_p.cycle), len(inner_q.cycle))
    )


def test_walk_matches_the_finite_oracle():
    rng = random.Random(11)
    expanded = {}

    def tree(t):
        if t not in expanded:
            expanded[t] = expand_finite(t)
        return expanded[t]

    seen = {YES: 0, NO: 0}
    for _ in range(PAIRS):
        p, q, s = finite_seq(rng), finite_seq(rng), rng.randint(0, 4)
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
