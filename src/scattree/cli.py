"""Command line front end.

    scattree examples                     list the built-in trees
    scattree rank TERM                    end-space rank summary
    scattree analyze TERM_OR_LPATH        rank + shift analysis + stability
    scattree twins TERM_OR_LPATH          twin cardinality and a verified family
    scattree truncate TERM --depth D      depth-bounded cut (text, json, dot)
    scattree oracle [WHICH]               exhaustive small-tree ground truth

TERM is a term expression or a built-in name (box, ray, ex1..ex4); inputs
starting with "lpath" are labelled paths.  Exit codes: 0 fine, 1 an
answer stayed undecided under --strict, 2 parse or usage error, 3 oracle
failure, 4 out of stack or memory (no verdict).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .ends import shift_report
from .finite_trees import canonical_code
from .oracle import OracleError, run_oracle
from .ranks import RankUndecided, rank_summary
from .stability import classify, twin_cardinality
from .terms import (
    TermError,
    WSum,
    builtins,
    format_term,
    resolve_name,
    truncate,
    truncation_dot,
    truncation_json,
)
from .twins import (
    almost_disjoint_family,
    analyze_lpath,
    enumerate_lpath_twins,
    format_lpath,
    lpath_twin_count,
    parse_lpath,
    twin_from_subset,
    twin_n,
    verify_twins,
)


def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _is_lpath(text: str) -> bool:
    return text.strip().startswith("lpath")


def _rank_payload(t):
    try:
        return json.loads(rank_summary(t).to_json()), False
    except RankUndecided as e:
        return {"undecided": str(e)}, True


def _cmd_examples(args):
    rows = []
    undecided = False
    for name, t in builtins().items():
        rank, und = _rank_payload(t)
        cert = None
        if not und:
            c = classify(t, args.horizon)
            cert = json.loads(c.to_json())
        undecided = undecided or und
        rows.append({"name": name, "term": format_term(t), "rank": rank, "stability": cert})
    return {"examples": rows}, undecided


def _cmd_rank(args):
    t = resolve_name(args.term)
    rank, undecided = _rank_payload(t)
    return {"term": format_term(t), "rank": rank}, undecided


def _cmd_analyze(args):
    if _is_lpath(args.term):
        report = analyze_lpath(parse_lpath(args.term))
        return {"lpath": args.term.strip(), **report}, report["twin_count"] == "unknown"
    t = resolve_name(args.term)
    payload = {"term": format_term(t)}
    rank, undecided = _rank_payload(t)
    payload["rank"] = rank
    if isinstance(t, WSum):
        payload["shift"] = json.loads(shift_report(t, args.horizon).to_json())
    if not undecided:
        cert = classify(t, args.horizon)
        payload["stability"] = json.loads(cert.to_json())
        if cert.twins == "unknown":
            undecided = True
    return payload, undecided


def _cmd_twins(args):
    if _is_lpath(args.term):
        p = parse_lpath(args.term)
        count, reason = lpath_twin_count(p)
        payload = {"lpath": args.term.strip(), "cardinality": count, "reason": reason}
        if count != "unknown":
            payload["family"] = [format_lpath(q) for q in enumerate_lpath_twins(p, args.count)]
        return payload, count == "unknown"
    t = resolve_name(args.term)
    card, reason = twin_cardinality(t, args.horizon)
    payload = {"term": format_term(t), "cardinality": card, "reason": reason}
    undecided = card == "unknown"
    if card in ("infinite", "continuum"):
        if args.seed is not None:
            rng = random.Random(args.seed)
            # keep offsets small: the verification cut depth and shift search
            # grow with the deepest patched position
            offsets = rng.sample(range(max(6, args.count)), args.count)
            sets = [tuple(j * (j + 1) // 2 + off for j in range(1, 7)) for off in offsets]
            family = [twin_from_subset(t, a, args.horizon) for a in sets]
            payload["sets"] = [list(a) for a in sets]
        else:
            family = [twin_n(t, j, args.horizon) for j in range(1, args.count + 1)]
        check = verify_twins(t, family, horizon=max(args.horizon, 12))
        payload["family"] = [format_term(x) for x in family]
        payload["verified"] = check["ok"]
        payload["mutual"] = check["mutual"]
        if not check["ok"]:
            undecided = True
    return payload, undecided


def _cmd_truncate(args):
    t = resolve_name(args.term)
    tr = truncate(t, args.depth, args.width)
    if args.format == "dot":
        return {"_raw": truncation_dot(tr)}, False
    payload = json.loads(truncation_json(tr))
    payload["code"] = canonical_code(tr.rooted)
    return payload, False


def _cmd_oracle(args):
    report = run_oracle(args.which)
    return {"oracle": report}, False


def _render_text(payload, indent=0):
    pad = "  " * indent
    lines = []
    if "_raw" in payload:
        return payload["_raw"]
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for item in value:
                lines.append(f"{pad}{key}[]:")
                lines.append(_render_text(item, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scattree",
        description="scattered trees as finite terms: ranks, self-embedding "
        "structure, and equimorphy twins",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, horizon=False, strict=True, formats=("text", "json")):
        if horizon:
            p.add_argument("--horizon", type=_int_at_least(0), default=8, help="search depth for shift analysis")
        if strict:
            p.add_argument(
                "--strict",
                action="store_true",
                help="exit 1 when any reported verdict stays undecided",
            )
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the report to a file instead of stdout")

    p_ex = sub.add_parser("examples", help="list the built-in trees with their analyses")
    common(p_ex, horizon=True)
    p_ex.set_defaults(func=_cmd_examples)

    p_rank = sub.add_parser("rank", help="end-space rank summary of a term")
    p_rank.add_argument("term")
    common(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    p_an = sub.add_parser("analyze", help="rank, shift analysis, and stability certificate")
    p_an.add_argument("term")
    common(p_an, horizon=True)
    p_an.set_defaults(func=_cmd_analyze)

    p_tw = sub.add_parser("twins", help="twin cardinality and a verified twin family")
    p_tw.add_argument("term")
    p_tw.add_argument("--count", type=_int_at_least(1), default=3, help="family size to generate")
    p_tw.add_argument("--seed", type=int, help="sample twins from seeded position sets")
    common(p_tw, horizon=True)
    p_tw.set_defaults(func=_cmd_twins)

    p_tr = sub.add_parser("truncate", help="depth-bounded finite cut of a term")
    p_tr.add_argument("term")
    p_tr.add_argument("--depth", type=int, required=True)
    p_tr.add_argument("--width", type=_int_at_least(1), default=3, help="copies kept per infinite family")
    common(p_tr, strict=False, formats=("text", "json", "dot"))
    p_tr.set_defaults(func=_cmd_truncate)

    p_or = sub.add_parser("oracle", help="exhaustive checks on small finite trees")
    p_or.add_argument(
        "which",
        nargs="?",
        default="all",
        help="counts | prufer | cayley | center | endos | embeds | equimorphy | all",
    )
    common(p_or)
    p_or.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        payload, undecided = args.func(args)
    except TermError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OracleError as e:
        print(f"oracle failure: {e}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as e:
        # out of stack or memory: no verdict, so not the exit code of one
        print(f"error: {type(e).__name__}: the input is too large to analyze", file=sys.stderr)
        return 4
    if args.format == "json" and "_raw" not in payload:
        text = json.dumps(payload, indent=2)
    else:
        text = _render_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if getattr(args, "strict", False) and undecided else 0


if __name__ == "__main__":
    sys.exit(main())
