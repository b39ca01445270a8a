"""Acceptance gate: ten end-to-end criteria for the whole engine.

Each criterion is one test and yields exactly one verdict line,
``criterion N: PASS`` or ``criterion N: FAIL``, printed in the
"acceptance gate" section at the end of the pytest run.  Every numeric
target below was frozen from an independent brute-force computation or a
hand-checked construction; the gate re-derives each one from scratch on
every run.
"""

import functools
import random
import time

from scattree.cuts import truncate
from scattree.embedding import embeds
from scattree.terms import (
    BOX,
    OMEGA_MULT,
    Patched,
    Periodic,
    Succ,
    Sup,
    WSum,
    YES,
    builtins,
    format_term,
    level,
    parse_term,
    stage,
    vertex_count,
)
from scattree.ordinals import parse_ordinal
from scattree.ranks import build_rank_witness, rank_summary
from scattree.ends import shift_report
from scattree.stability import (
    CONTINUUM,
    ONE,
    VARIANT_CORE,
    VARIANT_UEF,
    classify,
    twin_cardinality,
)
from scattree.twins import (
    almost_disjoint_family,
    displacements,
    enumerate_lpath_twins,
    lpath_embeds,
    lpath_twin_count,
    parse_lpath,
    same_labelling,
    twin_from_subset,
    twin_n,
    verify_twins,
)
from scattree.oracle import (
    FREE_COUNTS,
    center_fixed_check,
    endo_classification_sweep,
    free_trees,
)
from scattree.finite_trees import rooted_embeds


GATE_LINES = []


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                GATE_LINES.append(f"criterion {n}: FAIL — {label}")
                raise
            GATE_LINES.append(f"criterion {n}: PASS — {label}")

        return run

    return deco


# -- 1. finite anchor: every automorphism fixes the center --------------------

@criterion(1, "automorphisms of all trees on <= 10 vertices fix the center")
def test_criterion_01_center_is_fixed_on_all_small_trees():
    t0 = time.perf_counter()
    report = center_fixed_check(10)
    elapsed = time.perf_counter() - t0
    assert sum(1 for _ in free_trees(10)) == 106
    assert report == {"trees": 201, "automorphisms": 422224, "ok": True}
    assert report["trees"] == sum(FREE_COUNTS)
    assert elapsed < 60.0


# -- 2. finite anchor: self-embeddings are rotations or inversions ------------

@criterion(2, "no tree on <= 9 vertices has a translating self-embedding")
def test_criterion_02_no_finite_translations():
    report = endo_classification_sweep(9)
    assert report == {
        "rotation": 48273,
        "inversion": 49,
        "translation": 0,
        "ok": True,
    }


# -- 3. rank fixtures ----------------------------------------------------------

@criterion(3, "end-space ranks of the built-in fixtures")
def test_criterion_03_fixture_ranks():
    expected = {
        "box": ("0", 0),
        "ray": ("1", 1),
        "ex1": ("1", 1),
        "ex2": ("1", 1),
        "ex3": ("2", 1),
    }
    table = builtins()
    for name, (rank_text, top_ends) in expected.items():
        t0 = time.perf_counter()
        summary = rank_summary(table[name])
        elapsed = time.perf_counter() - t0
        assert summary.space_rank == parse_ordinal(rank_text), name
        assert summary.top_ends == top_ends, name
        assert elapsed < 1.0, name


# -- 4. rank witnesses round-trip ----------------------------------------------

@criterion(4, "rank witnesses round-trip through the rank computation")
def test_criterion_04_rank_witnesses_round_trip():
    for text in ("0", "1", "2", "3", "w", "w+1", "w*2"):
        alpha = parse_ordinal(text)
        witness = build_rank_witness(alpha)
        summary = rank_summary(witness)
        assert summary.space_rank == alpha, text
    omega_witness = build_rank_witness(parse_ordinal("w"))
    summary = rank_summary(omega_witness)
    assert summary.limit_flag
    assert classify(omega_witness).variant == VARIANT_CORE


# -- 5. doubling component growth ----------------------------------------------

@criterion(5, "component n of the doubling fixture has exactly 2^n vertices")
def test_criterion_05_doubling_stage_sizes():
    seq = builtins()["ex1"].seq
    for n in range(11):
        assert vertex_count(stage(seq, n)) == 2 ** n, n


# -- 6. stability classification of the fixtures --------------------------------

@criterion(6, "fixture classifications and twin cardinalities")
def test_criterion_06_fixture_classifications():
    table = builtins()
    for name in ("ex1", "ex2", "ex3"):
        cert = classify(table[name])
        assert cert.variant == VARIANT_UEF, name
        assert cert.fields["regular"] == "no", name
        assert cert.fields["almost_rigid"] == "no", name
        assert cert.twins == CONTINUUM, name
        assert twin_cardinality(table[name])[0] == CONTINUUM, name
    cert = classify(table["ex4"])
    assert cert.variant == VARIANT_UEF
    assert cert.fields["almost_rigid"] == "yes"
    assert cert.twins == ONE
    assert twin_cardinality(table["ex4"])[0] == ONE


# -- 7. labelled-path twin counts ------------------------------------------------

def _cycle_lpath(cycle):
    labels = ",".join(sorted(set(cycle)))
    body = ",".join(cycle)
    return parse_lpath(f"lpath oneway poset{{{labels}}} prefix[] cycle({body})")


@criterion(7, "labelled-path twin counts in all four decided regimes")
def test_criterion_07_labelled_path_twins():
    # (a) incomparable labels: the twins are exactly the rotations
    for cycle in (("a",), ("a", "b"), ("a", "b", "c")):
        p = _cycle_lpath(cycle)
        count, _reason = lpath_twin_count(p)
        assert count == len(cycle), cycle
        twins = enumerate_lpath_twins(p, 10)
        rotations = []
        for r in range(len(cycle)):
            q = _cycle_lpath(cycle[r:] + cycle[:r])
            if not any(same_labelling(q, seen) for seen in rotations):
                rotations.append(q)
        assert len(twins) == len(rotations) == count, cycle
        for q in twins:
            assert any(same_labelling(q, rot) for rot in rotations), cycle
            assert lpath_embeds(p, q) and lpath_embeds(q, p), cycle
        for i, q in enumerate(twins):
            for other in twins[i + 1:]:
                assert not same_labelling(q, other), cycle

    # (b) a label that never recurs makes the path rigid
    p = parse_lpath("lpath oneway poset{a,b} prefix[a] cycle(b)")
    count, reason = lpath_twin_count(p)
    assert count == ONE
    assert "rigid" in reason

    # (c) a two-way path with no nonzero displacement is rigid
    q = parse_lpath("lpath twoway poset{a,b} left(a,b) center[] right(a,b)")
    count, reason = lpath_twin_count(q)
    assert count == ONE
    assert displacements(q)["values"] == []

    # (d) a lowerable comparable pair gives continuum many twins
    r = parse_lpath("lpath oneway poset{0<a} prefix[] cycle(0,a)")
    count, _reason = lpath_twin_count(r)
    assert count == CONTINUUM
    family = enumerate_lpath_twins(r, 5)
    assert len(family) == 5
    for i, member in enumerate(family):
        assert lpath_embeds(r, member) and lpath_embeds(member, r)
        for other in family[i + 1:]:
            assert not same_labelling(member, other)


# -- 8. twin families on terms -----------------------------------------------

@criterion(8, "generated twin families verify with zero failures")
def test_criterion_08_twin_families_verify():
    base = parse_term("wsum([](succ(box)))")
    family = [twin_n(base, n) for n in range(1, 6)]
    report = verify_twins(base, family)
    assert report["all_mutual"]
    assert report["codes_distinct"]
    assert report["ok"]
    assert all(verdict == YES for verdict in report["mutual"])

    ex1 = builtins()["ex1"]
    sets = almost_disjoint_family(3)
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            assert len(set(a) & set(b)) <= 1
    subset_family = [twin_from_subset(ex1, a) for a in sets]
    report = verify_twins(ex1, subset_family)
    assert report["all_mutual"]
    assert report["codes_distinct"]
    assert report["ok"]


# -- 9. the level valuation and its shift law ----------------------------------

def _ray_descent(rng, n):
    return (), 0, None


def _ex1_descent(rng, n):
    layers = rng.randrange(0, n + 1)
    steps = []
    for _ in range(layers):
        steps += [("into",), ("arm", 0, rng.randrange(2))]
    extend = (("into",),) if layers < n else None
    return tuple(steps), layers, extend


def _ex2_descent(rng, n):
    layers = rng.randrange(0, n + 1)
    steps = []
    for _ in range(layers):
        steps += [("arm", 0, rng.randrange(3)), ("into",)]
    extend = (("arm", 0, 0), ("into",)) if layers < n else None
    return tuple(steps), layers, extend


def _ex3_descent(rng, n):
    layers = rng.randrange(0, n + 1)
    steps = []
    for _ in range(layers):
        steps += [("into",), ("arm", 0, rng.randrange(2)), ("into",)]
    extend = (("into",),) if layers < n else None
    return tuple(steps), 2 * layers, extend


def _ex4_descent(rng, n):
    layers = rng.randrange(0, n + 1)
    steps = []
    for _ in range(layers):
        steps += [("into",), ("arm", 0, rng.randrange(2))]
    if layers < n:
        extend = (("into",),)
    else:
        # the identity-size base component still has one edge to walk down
        extend = (("arm", 0, rng.randrange(3)), ("into",))
    return tuple(steps), layers, extend


@criterion(9, "the level valuation is pinned and shifts add their period")
def test_criterion_09_level_valuation_laws():
    table = builtins()
    descents = {
        "ray": _ray_descent,
        "ex1": _ex1_descent,
        "ex2": _ex2_descent,
        "ex3": _ex3_descent,
        "ex4": _ex4_descent,
    }
    expected_periods = {
        "ray": tuple(range(1, 9)),
        "ex1": tuple(range(1, 9)),
        "ex2": tuple(range(1, 9)),
        "ex3": tuple(range(1, 9)),
        "ex4": (),
    }
    rng = random.Random(9)
    for name, descend in descents.items():
        t = table[name]
        report = shift_report(t)
        assert report.periods == expected_periods[name], name
        assert report.d == (1 if report.periods else None), name
        # normalisation: the valuation vanishes at the first spine vertex
        assert level(t, (("spine", 0),)) == 0, name
        for _ in range(200):
            n = rng.randrange(0, 30)
            steps, depth, extend = descend(rng, n)
            addr = (("spine", n),) + steps
            v = level(t, addr)
            # exact integers, recomputed independently from the address shape
            assert isinstance(v, int), name
            assert v == n - depth, (name, addr)
            # adjacent spine vertices differ by exactly one
            assert level(t, (("spine", n + 1),)) == n + 1, name
            # one edge down inside a component lowers the valuation by one
            if extend is not None:
                assert level(t, addr + extend) == v - 1, (name, addr)
            # a verified shift by d moves every valuation up by exactly d
            for d in report.periods:
                shifted = (("spine", n + d),) + steps
                assert level(t, shifted) == v + d, (name, addr, d)


# -- 10. truncation soundness for embeddings ------------------------------------

def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return BOX
    kind = rng.randrange(3)
    if kind == 0:
        return Succ(_random_term(rng, depth - 1))
    if kind == 1:
        arms = tuple(
            (_random_term(rng, depth - 1), rng.choice((1, 2, OMEGA_MULT)))
            for _ in range(rng.randrange(1, 3))
        )
        return Sup(arms)
    prefix = tuple(_random_term(rng, depth - 1) for _ in range(rng.randrange(0, 2)))
    cycle = tuple(_random_term(rng, depth - 1) for _ in range(rng.randrange(1, 3)))
    return WSum(Periodic(prefix, cycle))


def _grow(rng, t):
    """A strictly larger term that still contains ``t`` root-to-root."""
    kind = rng.randrange(5)
    if kind == 0:
        return Sup(((t, 1), (_random_term(rng, 2), 1)))
    if kind == 1:
        return Sup(((t, 1), (t, 1)))
    if kind == 2:
        return Sup(((t, 2),))
    if kind == 3:
        return Sup(((t, 1), (Succ(BOX), 2)))
    if isinstance(t, WSum):
        bigger = Sup(((stage(t.seq, 0), 1), (Succ(BOX), 1)))
        return WSum(Patched(t.seq, {0: bigger}))
    return Sup(((t, 1), (_random_term(rng, 2), 1)))


@criterion(10, "verified embeddings survive truncation at every depth <= 8")
def test_criterion_10_truncation_soundness():
    rng = random.Random(2026)
    pairs = []
    draws = 0
    while len(pairs) < 50 and draws < 400:
        draws += 1
        t = _random_term(rng, 3)
        s = _grow(rng, t)
        if embeds(t, s) == YES:
            pairs.append((t, s))
    assert len(pairs) == 50, f"only {len(pairs)} verified pairs in {draws} draws"
    for t, s in pairs:
        for depth in range(9):
            small = truncate(t, depth, 3)
            large = truncate(s, depth, 8)
            assert rooted_embeds(small.rooted, large.rooted), (
                format_term(t),
                format_term(s),
                depth,
            )
