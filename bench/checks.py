"""Known answers for the benchmark's verdicts.

Nothing here comes from the engine under test.  The fixed answers are the
README table, rank(witness(a)) = a, the twin counts of labelled paths
(criterion 7), the `ok` fields of the brute-force oracles, facts that hold
by construction (a finite tree has rank 0 and is its only twin; t embeds
in grow(t); every twin_n or twin_from_subset member is a twin), and the
stage-chain verdicts proved beside ``workloads.CHAINS``.  Embedding
verdicts on omega-free pairs are also compared with exact finite cuts
(``worker.run_cutcheck``); a refuted `yes` is a wrong verdict, a `no`
whose cuts all embed is only suspect.
"""

from __future__ import annotations

import json

UNDECIDED = ("unknown", "undecided", None)


def expectation_errors(op, verdict):
    """The ways `verdict` contradicts the operation's known answer."""
    expect = op.get("expect", {})
    kind = op["kind"]
    errors = []

    def differs(field, want):
        got = verdict.get(field)
        if got not in UNDECIDED and got != want:
            errors.append(f"{field}: expected {want!r}, got {got!r}")

    if kind in ("analyze", "witness"):
        for field, want in expect.get("table", {}).items():
            differs(field if field != "almost_rigid" else "classify_almost_rigid", want)
        if "rank" in expect:
            differs("rank", expect["rank"])
        if expect.get("finite"):
            differs("rank", "0")
            differs("variant", "fixed_vertex_or_edge")
            differs("twins", "one")
        if expect.get("rayless"):
            differs("rank", "0")
    elif kind == "embed":
        if "embeds" in expect:
            differs("embeds", expect["embeds"])
    elif kind == "twins":
        if "cardinality" in expect:
            differs("cardinality", expect["cardinality"])
        if "no" in verdict.get("mutual", ()):
            errors.append("a generated twin was judged not mutually embeddable")
    elif kind == "lpath":
        differs("count", expect["count"])
        if verdict["count"] not in UNDECIDED and verdict["family"] != expect["family"]:
            errors.append(f"family: expected {expect['family']}, got {verdict['family']}")
    elif kind == "cli":
        for field, want in expect.items():
            if field == "examples":
                for name, row in want.items():
                    for key, value in row.items():
                        got = verdict["examples"].get(name, {}).get(key)
                        if got not in UNDECIDED and got != value:
                            errors.append(f"examples {name} {key}: expected {value!r}, got {got!r}")
            else:
                differs(field, want)
    return errors


def decided(op, verdict):
    """How many of the operation's verdicts are decided: yes/no answers,
    decided ranks and twin counts, and verified twin members."""
    kind = op["kind"]
    if verdict is None:
        return 0
    if kind in ("analyze", "witness"):
        fields = ["rank", "twins"] + (["regular", "almost_rigid"] if "periods" in verdict else [])
        return sum(verdict.get(f) not in UNDECIDED for f in fields)
    if kind == "embed":
        return int(verdict["embeds"] not in UNDECIDED)
    if kind == "twins":
        return int(verdict["cardinality"] not in UNDECIDED) + verified_members(op, verdict)
    if kind == "lpath":
        return int(verdict["count"] not in UNDECIDED)
    if kind == "cli":
        return int(all(v not in UNDECIDED for k, v in verdict.items() if k != "examples"))
    raise ValueError(f"unknown operation kind {kind!r}")


def verified_members(op, verdict):
    """Family members with an engine-checked mutual embedding and a cut
    code that no other member shares."""
    if op["kind"] != "twins" or verdict is None:
        return 0
    return sum(m == "yes" and unique for m, unique in zip(verdict.get("mutual", ()), verdict.get("code_unique", ())))


def cli_verdict(argv, stdout):
    """The verdict fields of one CLI report (JSON format)."""
    payload = json.loads(stdout)
    command = argv[0]
    if command == "examples":
        rows = {}
        for row in payload["examples"]:
            cert = row["stability"] or {}
            rows[row["name"]] = {
                "rank": row["rank"].get("rank", "undecided"),
                "variant": cert.get("variant"),
                "twins": cert.get("twins"),
                "almost_rigid": cert.get("almost_rigid"),
            }
        return {"examples": rows}
    if command in ("rank", "analyze"):
        out = {"rank": payload["rank"].get("rank", "undecided")}
        if "stability" in payload:
            out["twins"] = payload["stability"]["twins"]
        return out
    if command == "twins":
        out = {"cardinality": payload["cardinality"]}
        if "verified" in payload:
            out["verified"] = payload["verified"]
        return out
    if command == "truncate":
        return {"vertices": payload["n"]}
    if command == "oracle":
        oks = list(_ok_fields(payload))
        return {"oracle_ok": bool(oks) and all(v is True for v in oks)}
    raise ValueError(f"unknown command {command!r}")


def _ok_fields(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "ok":
                yield value
            else:
                yield from _ok_fields(value)
