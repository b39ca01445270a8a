"""Operation lists for the four benchmark workloads.

Every list is a pure function of the workload seed: the same seed gives the
same operations in the same order.  Inputs are plain text (term syntax,
labelled-path syntax or CLI arguments), because every operation reparses
its input the way a command-line user's invocation does.  Nothing here
imports ``scattree``; the engine only ever sees the generated text.

An operation is a dict with a ``kind`` (what the worker runs), its text
inputs, ``asked`` (how many verdicts it asks the engine for, so that a
failed operation still counts its verdicts as undecided), an optional
``expect`` (the known answer, see ``checks.py``) and ``isolate`` (run in a
fresh capped child of its own, because it is expected to exhaust memory or
the interpreter stack).

Why each workload exists, and which layers it bypasses, is stated beside
its builder, so that an optimisation issue can name the workload that
must not move.
"""

from __future__ import annotations

import random

NAMES = ("analyze", "embed", "twins", "cli")

BUILTINS = {
    "box": "box",
    "ray": "wsum([](box))",
    "ex1": "wsum(gen(box;succ(sup(_*2))))",
    "ex2": "wsum(gen(box;sup(succ(_)*w)))",
    "ex3": "wsum(gen(wsum([](box));succ(sup(succ(_)*2))))",
    "ex4": "wsum(gen(sup(succ(box)*3);succ(sup(_*2))))",
}

# The README table: rank and classification of each built-in tree.
README_TABLE = {
    "box": {"rank": "0", "variant": "fixed_vertex_or_edge"},
    "ray": {"rank": "1", "variant": "unique_end_forward"},
    "ex1": {"rank": "1", "variant": "unique_end_forward", "twins": "continuum"},
    "ex2": {"rank": "1", "variant": "unique_end_forward", "twins": "continuum"},
    "ex3": {"rank": "2", "variant": "unique_end_forward", "twins": "continuum"},
    "ex4": {
        "rank": "1",
        "variant": "unique_end_forward",
        "almost_rigid": "yes",
        "twins": "one",
    },
}

# Rank witnesses of acceptance criterion 4; the seed adds more below w*w.
FIXED_WITNESSES = ("0", "1", "2", "3", "w", "w+1", "w*2")

# Contexts whose stages grow linearly, and ones whose stages double, so
# generated sequences reach the finite-expansion limit at a fixed rate.
LINEAR_CONTEXTS = ("succ(_)", "sup(_,{t})", "succ(sup(_,{t}))", "sup(succ(_),{t})")
DOUBLING_CONTEXTS = ("sup(_*2)", "succ(sup(_*2))", "sup(succ(_)*2)")
DOUBLING_BASES = ("box", "succ(box)", "sup(box*3)")


# -- random terms ---------------------------------------------------------------

def finite_term(rng, depth, omega=False):
    """A term with no spine: a finite tree, or a rayless one when omega
    multiplicities are allowed."""
    if depth <= 0 or rng.random() < 0.3:
        return "box"
    if rng.random() < 0.4:
        return f"succ({finite_term(rng, depth - 1, omega)})"
    arms = []
    for _ in range(rng.randrange(1, 3)):
        m = rng.choice(("1", "2", "3", "w") if omega else ("1", "2", "3"))
        a = finite_term(rng, depth - 1, omega)
        arms.append(a if m == "1" else f"{a}*{m}")
    return f"sup({','.join(arms)})"


def plain_term(rng, depth):
    """A term built from box, succ, sup and periodic wsum only: the shapes
    allowed inside a context."""
    if depth <= 0 or rng.random() < 0.3:
        return "box"
    k = rng.randrange(3)
    if k == 0:
        return f"succ({plain_term(rng, depth - 1)})"
    if k == 1:
        arms = []
        for _ in range(rng.randrange(1, 3)):
            m = rng.choice(("1", "2", "w"))
            a = plain_term(rng, depth - 1)
            arms.append(a if m == "1" else f"{a}*{m}")
        return f"sup({','.join(arms)})"
    return f"wsum({periodic_seq(rng, depth - 1)})"


def periodic_seq(rng, depth):
    pre = [plain_term(rng, depth) for _ in range(rng.randrange(0, 2))]
    cyc = [plain_term(rng, depth) for _ in range(rng.randrange(1, 3))]
    return f"[{','.join(pre)}]({','.join(cyc)})"


def generated_seq(rng, contexts):
    ctx = rng.choice(contexts).replace("{t}", finite_term(rng, 1))
    return f"gen({plain_term(rng, 1)};{ctx})"


def maybe_patched(rng, seq):
    if rng.random() < 0.5:
        return seq
    pos = sorted(rng.sample(range(6), rng.randrange(1, 3)))
    return f"patch({seq};{','.join(f'{p}:{plain_term(rng, 1)}' for p in pos)})"


def free_term(rng, depth):
    """Acceptance criterion 10's random term without omega multiplicities,
    so every depth cut of it is exact.  Returns (text, first component)
    where the first component is None unless the term is a wsum."""
    if depth == 0 or rng.random() < 0.35:
        return "box", None
    kind = rng.randrange(3)
    if kind == 0:
        return f"succ({free_term(rng, depth - 1)[0]})", None
    if kind == 1:
        arms = []
        for _ in range(rng.randrange(1, 3)):
            a = free_term(rng, depth - 1)[0]
            arms.append(a if rng.choice((1, 2)) == 1 else f"{a}*2")
        return f"sup({','.join(arms)})", None
    prefix = [free_term(rng, depth - 1)[0] for _ in range(rng.randrange(0, 2))]
    cycle = [free_term(rng, depth - 1)[0] for _ in range(rng.randrange(1, 3))]
    return f"wsum([{','.join(prefix)}]({','.join(cycle)}))", (prefix, cycle)


def grow(rng, term):
    """Acceptance criterion 10's generator: a strictly larger term that
    still contains ``term`` root to root."""
    text, parts = term
    kind = rng.randrange(5)
    if kind == 0:
        return f"sup({text},{free_term(rng, 2)[0]})"
    if kind == 1:
        return f"sup({text},{text})"
    if kind == 2:
        return f"sup({text}*2)"
    if kind == 3:
        return f"sup({text},succ(box)*2)"
    if parts is not None:
        prefix, cycle = parts
        bigger = f"sup({(prefix or cycle)[0]},succ(box))"
        return f"wsum(patch([{','.join(prefix)}]({','.join(cycle)});0:{bigger}))"
    return f"sup({text},{free_term(rng, 2)[0]})"


def stage_text(base, context, n):
    """Component n of gen(base; context), written out in full."""
    out = base
    for _ in range(n):
        out = context.replace("_", out)
    return out


def ordinal_text(k, n):
    """w*k+n in the ordinal syntax."""
    parts = ["w" if k == 1 else f"w*{k}"] if k else []
    if n or not k:
        parts.append(str(n))
    return "+".join(parts)


def scaled(n, size):
    """n scaled by the run size, at least one."""
    return max(1, round(n * size))


def analyze_op(text, expect=None, isolate=False):
    op = {"kind": "analyze", "text": text, "asked": 4 if text.startswith("wsum(") else 2}
    if expect:
        op["expect"] = expect
    if isolate:
        op["isolate"] = True
    return op


# -- analyze --------------------------------------------------------------------

def analyze_ops(rng, size=1.0):
    """Each operation mirrors `scattree analyze`: parse_term, rank_summary,
    shift_report when the term is a wsum, then classify at horizon 8.

    Why: most of the time goes to ends (shift periods), stability and the
    finite-component comparisons that terms.embeds answers through
    expand_finite and finite_trees.rooted_embeds; the doubling generated
    sequences make that path the heavy tail.  Bypasses: no twin family is
    built or verified, no canonical code is computed, truncate runs only
    inside expand_finite on finite terms, and no oracle enumerates, so the
    twins, canonical-code and oracle layers should not move here.

    The seeded corpus has a fixed mix (finite, rayless, periodic and
    linearly generated sequences, half of them patched), so seeds differ
    in content but not in composition; the heavy doubling family and the
    built-ins are the same for every seed.
    """
    ops = []
    for name, text in BUILTINS.items():
        ops.append(analyze_op(text, {"table": README_TABLE[name]}))
    # Patched doubling sequences with a finite base compare components up
    # to the finite-expansion limit.  Their cost swings by a factor of 100
    # with the base and the patch, so this family is fixed, not seeded.
    # With ex4 and the hostile patch it holds the top sixteen of a pass, so
    # op_tail_ms (the eleventh largest) is read inside the family.
    for base in DOUBLING_BASES:
        for context in DOUBLING_CONTEXTS:
            for position in (2, 3):
                ops.append(analyze_op(f"wsum(patch(gen({base};{context});{position}:succ(box)))"))
    alphas = list(FIXED_WITNESSES)
    for _ in range(scaled(8, size)):
        alphas.append(ordinal_text(rng.randrange(5), rng.randrange(5)))
    for alpha in alphas:
        successor = alpha.split("+")[-1].isdigit() and alpha != "0"  # its witness is a wsum
        ops.append({"kind": "witness", "alpha": alpha, "asked": 4 if successor else 2, "expect": {"rank": alpha}})
    for _ in range(scaled(30, size)):
        ops.append(analyze_op(finite_term(rng, 4), {"finite": True}))
    for _ in range(scaled(10, size)):
        ops.append(analyze_op(finite_term(rng, 3, omega=True), {"rayless": True}))
    # Most of the operations, so they set op_p50_ms: with 1000 of them the
    # median moved by up to 8% from one seed to another.
    for _ in range(scaled(3000, size)):
        ops.append(analyze_op(f"wsum({maybe_patched(rng, periodic_seq(rng, 3))})"))
    for _ in range(scaled(30, size)):
        ops.append(analyze_op(f"wsum({maybe_patched(rng, generated_seq(rng, LINEAR_CONTEXTS))})"))
    # Two short hostile inputs: a patch far out on the spine (windows scan
    # every index up to it), and nesting deeper than the interpreter stack.
    ops.append(analyze_op("wsum(patch([](box);10000:box))", isolate=True))
    ops.append(analyze_op("succ(" * 1500 + "box" + ")" * 1500, isolate=True))
    return ops


# -- embed ----------------------------------------------------------------------

CHAINS = {
    # (name, base, context, verdict of stage n -> n+1 for every n).  ex1 and
    # ex3: the root maps to the root and, by induction, stage n-1 into
    # stage n below the single child.  ex4: stage 0 has root degree 3 and
    # stage 1 root degree 1; the induction then fails at every n.
    "ex1": ("box", "succ(sup(_*2))", "yes"),
    "ex3": ("wsum([](box))", "succ(sup(succ(_)*2))", "yes"),
    "ex4": ("sup(succ(box)*3)", "succ(sup(_*2))", "no"),
}
CHAIN_STAGES = 20
DIFFERENTIAL_SEED = 1


def embed_ops(rng, size=1.0):
    """Root-to-root `embeds(t, s)`.

    Two halves that differ in how much structure the two sides share.
    Independent random omega-free pairs (criterion 10's generator) and
    grown pairs (t, grow(t)) share little.  The random pairs are always
    the ROADMAP's random differential, drawn with seed 1 whatever the run's
    seed: their refuted `yes` verdicts are failed operations, and a count
    of failures that moved with the seed (from 2 to 7 over seeds 1-10)
    would make two sets of runs of unchanged code disagree.  The grown
    pairs come from the run's seed.  Stage chains n -> n+1 of ex1, ex3 and ex4, with n past
    the 4000-vertex expansion limit, share nearly everything; a term-DAG
    memo should show on them and not on the random pairs.

    Why: the random pairs exercise the symbolic cases of terms.embeds, and
    the chains its finite path (expand_finite, rooted_embeds) and the
    point where it gives up.  Bypasses: ranks, ends, stability, twins and
    the oracles are never called by the timed operations, and truncate
    runs only inside expand_finite; the exact-cut checker, which truncates
    every pair, runs after the timing.
    """
    ops = []
    differential = random.Random(DIFFERENTIAL_SEED)
    for _ in range(scaled(1500, size)):
        t, s = free_term(differential, 3), free_term(differential, 3)
        ops.append({"kind": "embed", "group": "random", "t": t[0], "s": s[0], "asked": 1, "cut": True})
    for _ in range(scaled(500, size)):
        t = free_term(rng, 3)
        ops.append(
            {"kind": "embed", "group": "grown", "t": t[0], "s": grow(rng, t), "asked": 1, "cut": True, "expect": {"embeds": "yes"}}
        )
    for base, context, verdict in CHAINS.values():
        for n in range(CHAIN_STAGES):
            ops.append(
                {
                    "kind": "embed",
                    "group": "chain",
                    "t": stage_text(base, context, n),
                    "s": stage_text(base, context, n + 1),
                    "asked": 1,
                    "cut": True,
                    "expect": {"embeds": verdict},
                }
            )
    return ops


# -- twins ----------------------------------------------------------------------

LABELS = "abcd"


def distinct_rotations(cycle):
    return len({tuple(cycle[r:] + cycle[:r]) for r in range(len(cycle))})


def lpath_ops(rng):
    """Labelled paths with a known twin count (acceptance criterion 7).
    The seed picks the labels; the lengths are fixed, so every seed asks
    for the same amount of work."""
    ops = []
    for length in (2, 3, 4):
        cycle = [rng.choice(LABELS) for _ in range(length)]
        text = f"lpath oneway poset{{{','.join(sorted(set(cycle)))}}} prefix[] cycle({','.join(cycle)})"
        count = distinct_rotations(cycle)
        ops.append({"kind": "lpath", "text": text, "count": 8, "asked": 1, "expect": {"count": count, "family": count}})
    # a prefix label that never recurs: rigid
    cycle = [rng.choice(LABELS[1:]) for _ in range(3)]
    labels = sorted(set(cycle) | {"a"})
    text = f"lpath oneway poset{{{','.join(labels)}}} prefix[a] cycle({','.join(cycle)})"
    ops.append({"kind": "lpath", "text": text, "count": 8, "asked": 1, "expect": {"count": "one", "family": 1}})
    # y recurs and can be lowered to x: continuum many
    cycle = ["y"] + [rng.choice("xy") for _ in range(2)]
    rng.shuffle(cycle)
    text = f"lpath oneway poset{{x<y}} prefix[] cycle({','.join(cycle)})"
    ops.append({"kind": "lpath", "text": text, "count": 5, "asked": 1, "expect": {"count": "continuum", "family": 5}})
    # no nonzero displacement: rigid
    ops.append(
        {
            "kind": "lpath",
            "text": "lpath twoway poset{a,b} left(a,b) center[] right(a,b)",
            "count": 8,
            "asked": 1,
            "expect": {"count": "one", "family": 1},
        }
    )
    return ops


def twins_ops(rng, size=1.0):
    """Each operation mirrors `scattree twins`: twin_cardinality, then a
    family from twin_n or from seeded twin_from_subset position sets, of
    sizes 3 and 8, then verify_twins with the CLI's settings (depth 20,
    width 6, horizon 12).

    Why: the work is terms.truncate plus finite_trees.canonical_code on
    depth-20 cuts, the mutual embeddings, and one shift_report per
    generated member; ex2 is where materialising the cut exhausts memory
    before a verdict.  Labelled paths add the exact twin counts.
    Bypasses: no oracle enumerates and ranks is reached only through
    classification of the input, so oracle and the finite expansion
    limit of analyze should not move here.
    """
    ops = []
    for name in ("wsum([](succ(box)))", "ex1", "ex3"):
        table = README_TABLE.get(name, {})
        expect = {"cardinality": table["twins"]} if "twins" in table else {}
        for members in (3, 8):
            ops.append({"kind": "twins", "term": name, "count": members, "asked": 1 + members, "expect": dict(expect)})
            # every set is rejected for the comb, whose components all agree
            for _ in range(7 if name in BUILTINS else 1):
                # the CLI's --seed sets: small offsets keep the patches shallow
                offsets = rng.sample(range(max(6, members)), members)
                sets = [[j * (j + 1) // 2 + off for j in range(1, 7)] for off in offsets]
                ops.append(
                    {"kind": "twins", "term": name, "sets": sets, "count": members, "asked": 1 + members, "expect": dict(expect)}
                )
    if size >= 1:
        ops.append(
            {"kind": "twins", "term": "ex2", "count": 3, "asked": 4, "expect": {"cardinality": "continuum"}, "isolate": True}
        )
    return ops + lpath_ops(rng)


# -- cli ------------------------------------------------------------------------

ORACLES = ("counts", "cayley", "center", "endos", "embeds", "equimorphy")
ORACLES_SMALL = ("counts", "embeds", "equimorphy")  # the fast ones, for the smoke test


def cli_ops(rng, size=1.0):
    """Subprocess invocations of the README's commands, with JSON output so
    that the answers can be checked, plus every `oracle` subcommand except
    `prufer`, whose run alone would outweigh all the others.

    Why: the only workload that measures interpreter start-up, argument
    parsing, report rendering, and the brute-force oracle and finite_trees
    enumeration.  Bypasses: it barely touches the symbolic layers, so a
    change to terms, ends, stability or twins should not move it beyond
    the few milliseconds of the README examples.
    """
    ops = [
        cli_op(["examples"], {"examples": README_TABLE}),
        cli_op(["rank", "ex3"], {"rank": "2"}),
        cli_op(["analyze", "wsum([](succ(box)))"], {"rank": "1"}),
        cli_op(["twins", "ex1", "--count", "3"], {"cardinality": "continuum"}),
        cli_op(["twins", "lpath oneway poset{a,b} prefix[] cycle(a,b)"], {"cardinality": 2}),
        cli_op(["truncate", "ray", "--depth", "4"], {"vertices": 5}),
    ]
    # Every built-in, whatever the seed: their costs differ by a factor of
    # two, and a seeded choice among them moved op_p50_ms across the gap
    # between start-up-bound calls and the rest.
    for name in sorted(BUILTINS)[: scaled(6, size)]:
        ops.append(cli_op(["rank", name], {"rank": README_TABLE[name]["rank"]}))
        ops.append(cli_op(["analyze", name], {"rank": README_TABLE[name]["rank"]}))
    # Five seeded twin families: with the eight heavier calls above them,
    # op_tail_ms (the eleventh largest of a pass) falls inside this group
    # and not at its edge.
    for _ in range(scaled(5, size)):
        ops.append(cli_op(["twins", "ex1", "--count", "2", "--seed", str(rng.randrange(1000))], {"cardinality": "continuum"}))
    for _ in range(scaled(6, size)):
        ops.append(cli_op(["analyze", finite_term(rng, 4)], {"rank": "0", "twins": "one"}))
        depth = rng.randrange(2, 7)
        ops.append(cli_op(["truncate", "ray", "--depth", str(depth)], {"vertices": depth + 1}))
    # The oracles take most of a pass.  Spread between the short calls, they
    # leave the short calls (op_p50_ms, op_tail_ms, start-up) sampled over
    # the whole pass and not over its first seconds only.
    oracles = [cli_op(["oracle", which], {"oracle_ok": True}) for which in (ORACLES if size >= 1 else ORACLES_SMALL)]
    step = len(ops) / (len(oracles) + 1)
    for k, op in reversed(list(enumerate(oracles))):
        ops.insert(round((k + 1) * step), op)
    return ops


def cli_op(argv, expect=None):
    op = {"kind": "cli", "argv": argv + ["--format", "json"], "asked": 1}
    if expect:
        op["expect"] = expect
    return op


BUILDERS = {"analyze": analyze_ops, "embed": embed_ops, "twins": twins_ops, "cli": cli_ops}


def operations(workload, seed, size=1.0):
    """The operation list of `workload` for `seed`.  A `size` below 1
    scales the seeded parts down and drops the slow fixed operations (the
    ex2 family and the three slowest oracles), for the smoke test."""
    return BUILDERS[workload](random.Random(seed), size)
