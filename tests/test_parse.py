"""The term parser on grammar-generated texts, their one-character
mutations, and nestings far deeper than Python's recursion limit."""

import random
import time

import pytest

from scattree.terms import (
    BOX,
    OMEGA_MULT,
    Generated,
    Patched,
    Periodic,
    Succ,
    Sup,
    SupSeq,
    TermError,
    WSum,
    format_term,
    parse_term,
)

SPACES = ("", "", "", "", " ", "  ", "\t", "\n")


def plain(rng, depth):
    """A term without generated or patched sequences: legal in a context."""
    r = rng.random() if depth > 0 else 0.0
    if r < 0.3:
        return ["box"]
    if r < 0.5:
        return ["succ", "(", *plain(rng, depth - 1), ")"]
    if r < 0.8:
        return ["sup", "(", *arms(rng, depth, lambda: plain(rng, depth - 1)), ")"]
    return ["wsum", "(", *periodic(rng, [plain(rng, depth - 1) for _ in range(rng.randint(1, 4))]), ")"]


def term(rng, depth):
    r = rng.random() if depth > 0 else 0.0
    if r < 0.25:
        return ["box"]
    if r < 0.4:
        return ["succ", "(", *term(rng, depth - 1), ")"]
    if r < 0.6:
        return ["sup", "(", *arms(rng, depth, lambda: term(rng, depth - 1)), ")"]
    if r < 0.85:
        return ["wsum", "(", *seq(rng, depth - 1), ")"]
    return ["supseq", "(", *seq(rng, depth - 1), ")"]


def context(rng, depth):
    """A term shape with exactly one hole."""
    r = rng.random() if depth > 0 else 0.0
    if r < 0.2:
        return ["_"]
    if r < 0.45:
        return ["succ", "(", *context(rng, depth - 1), ")"]
    if r < 0.8:
        n = rng.randint(1, 3)
        hole_at = rng.randrange(n)
        parts = [context(rng, depth - 1) if k == hole_at else plain(rng, depth - 1) for k in range(n)]
        return ["sup", "(", *arms(rng, depth, iter(parts).__next__, n), ")"]
    entries = [plain(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    entries[rng.randrange(len(entries))] = context(rng, depth - 1)
    return ["wsum", "(", *periodic(rng, entries), ")"]


def arms(rng, depth, make, n=None):
    out = []
    for k in range(n or rng.randint(1, 3)):
        if k:
            out.append(",")
        out += make()
        r = rng.random()
        if r < 0.2:
            out += ["*", "w"]
        elif r < 0.45:
            out += ["*", str(rng.randint(1, 12))]
    return out


def periodic(rng, entries):
    """[prefix](cycle) over the given entries; the cycle keeps at least one."""
    cut = rng.randrange(len(entries))
    out = ["["]
    for k, e in enumerate(entries[:cut]):
        out += ([","] if k else []) + e
    out += ["]", "("]
    for k, e in enumerate(entries[cut:]):
        out += ([","] if k else []) + e
    return out + [")"]


def seq(rng, depth):
    r = rng.random() if depth > 0 else 0.0
    if r < 0.45:
        return periodic(rng, [term(rng, depth - 1) for _ in range(rng.randint(1, 4))])
    if r < 0.75:
        return ["gen", "(", *term(rng, depth - 1), ";", *context(rng, depth - 1), ")"]
    out = ["patch", "(", *seq(rng, depth - 1), ";"]  # the inner sequence may be a patch too
    for k in range(rng.randint(1, 3)):
        out += ([","] if k else []) + [str(rng.randrange(30)), ":", *term(rng, depth - 1)]
    return out + [")"]


def render(rng, tokens):
    return "".join(rng.choice(SPACES) + tok for tok in tokens) + rng.choice(SPACES)


def mutations(rng, text, count=3):
    alphabet = "boxsucpwmgenath_0123456789()[],;:* \t"
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            yield text[:at] + rng.choice(alphabet) + text[at:]
        elif kind == 1:
            yield text[:at] + text[at + 1:]
        else:
            yield text[:at] + rng.choice(alphabet) + text[at + 1:]


def corpus(seed=11, size=3000):
    rng = random.Random(seed)
    texts = [render(rng, term(rng, rng.randint(1, 5))) for _ in range(size)]
    return texts, [m for text in texts for m in mutations(rng, text)]


def check(text):
    """Parse one text: a term that survives a print-and-reparse round trip,
    or a TermError naming a position.  Anything else fails the test."""
    try:
        t = parse_term(text)
    except TermError as e:
        assert "position" in str(e), (text, str(e))
        return None
    assert parse_term(format_term(t)) == t, text
    return t


def test_generated_texts_round_trip_and_mutations_fail_cleanly():
    texts, mutated = corpus()
    assert len(texts) >= 3000 and len(mutated) >= 3 * len(texts)
    for text in texts:
        assert check(text) is not None, text
    parsed = sum(check(text) is not None for text in mutated)
    assert 0 < parsed < len(mutated)  # both outcomes are exercised


def test_generated_texts_cover_the_grammar():
    texts, _ = corpus()
    joined = "".join(texts)
    for piece in ("supseq(", "gen(", "*w", "_", " ", "\t", "\n", "[]("):
        assert piece in joined, piece
    assert any("patch(patch(" in "".join(t.split()) for t in texts)  # nested patch


def depth(t):
    """Nesting depth of a term, by an explicit stack (format_term recurses)."""
    deepest = 0
    stack = [(t, 0)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(node, Succ):
            stack.append((node.child, d + 1))
        elif isinstance(node, Sup):
            stack.extend((a, d + 1) for a, _ in node.arms)
        elif isinstance(node, (WSum, SupSeq)):
            stack.append((node.seq, d + 1))
        elif isinstance(node, Periodic):
            stack.extend((x, d) for x in node.prefix + node.cycle)
        elif isinstance(node, Generated):
            stack.extend([(node.base, d), (node.context.shape, d)])
        elif isinstance(node, Patched):
            stack.append((node.inner, d))
            stack.extend((x, d) for _, x in node.patches)
    return deepest


@pytest.mark.parametrize(
    "opening, closing, n",
    [
        ("succ(", ")", 100000),
        ("sup(", ")", 5000),
        ("wsum([](", "))", 3000),
        ("sup(box,succ(", ")*2)", 3000),
    ],
)
def test_deep_nesting_needs_no_recursion(opening, closing, n):
    text = opening * n + "box" + closing * n
    start = time.perf_counter()
    t = parse_term(text)
    assert time.perf_counter() - start < 5.0
    assert depth(t) == n * (opening.count("(") - opening.count("[]("))


def test_deep_context_needs_no_recursion():
    n = 5000
    t = parse_term("wsum(gen(box;" + "succ(" * n + "_" + ")" * n + "))")
    assert depth(t.seq.context.shape) == n


def test_deep_errors_report_the_position():
    n = 5000
    text = "succ(" * n + "box" + ")" * (n - 1)
    with pytest.raises(TermError, match=f"expected \\) at position {len(text)} in"):
        parse_term(text)
    with pytest.raises(TermError, match=f"hole not allowed at position {5 * n}$"):
        parse_term("succ(" * n + "_" + ")" * n)


@pytest.mark.parametrize(
    "text, message",
    [
        # a hole may stand only inside the context of the gen being read
        ("sup(wsum(gen(box;succ(_))),_)", "hole not allowed at position 27"),
        ("wsum(gen(_;succ(_)))", "hole not allowed at position 9"),
        ("wsum(gen(box;wsum(gen(box;_))))", "gen not allowed inside a context (position 18)"),
        ("wsum(gen(box;supseq([](_))))", "supseq not allowed inside a context (position 13)"),
        ("wsum(gen(box;wsum(patch([](_);1:box))))", "patch not allowed inside a context (position 18)"),
        ("sup(box*0)", "multiplicity must be >= 1 at position 9"),
        ("sup(box*box)", "expected multiplicity at position 11"),
        ("wsum([box]box)", "expected ( at position 10 in 'wsum([box]box)'"),
        ("box box", "trailing input at position 4 in 'box box'"),
        ("succ(box) x", "syntax error at position 9: ' x'"),
        ("succ( x box)", "syntax error at position 5: ' x box)'"),
    ],
)
def test_error_messages(text, message):
    with pytest.raises(TermError) as e:
        parse_term(text)
    assert str(e.value) == message


def containers(items):
    """The same items as a list, a tuple and a generator."""
    return list(items), tuple(items), (x for x in items)


def test_direct_construction_matches_the_parser():
    a, b = parse_term("succ(box)"), parse_term("wsum([](box))")
    sup = parse_term("sup(succ(box),wsum([](box))*3,box*w)")
    for arms in containers([(a, 1), (b, 3), (BOX, OMEGA_MULT)]):
        t = Sup(arms)
        assert t == sup and hash(t) == hash(sup)
        assert t.arms == sup.arms and type(t.arms) is tuple
    seq = parse_term("wsum([succ(box),box](wsum([](box))))").seq
    for prefix, cycle in zip(containers([a, BOX]), containers([b])):
        p = Periodic(prefix, cycle)
        assert p == seq and hash(p) == hash(seq)
        assert (p.prefix, p.cycle) == (seq.prefix, seq.cycle)
        assert type(p.prefix) is type(p.cycle) is tuple
    patched = parse_term("wsum(patch([](box);2:succ(box),0:wsum([](box))))").seq
    for patches in containers([(2, a), (0, b)]):
        p = Patched(Periodic((), (BOX,)), patches)
        assert p == patched and hash(p) == hash(patched)
        assert p.patches == patched.patches


@pytest.mark.parametrize("m", [0, -1, 1.5, 2.0, "2", None])
def test_sup_rejects_bad_multiplicities(m):
    with pytest.raises(TermError, match="arm multiplicity must be a positive integer or w"):
        Sup([(BOX, 1), (parse_term("succ(box)"), m)])
