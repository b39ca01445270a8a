import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scattree import oracle
from scattree.cli import ORACLES, main

SRC = Path(__file__).resolve().parents[1] / "src"

MALFORMED = (
    "wsum(patch([](box);(:box))",
    "wsum(patch([](box);w:box))",
    "wsum(patch([](box);:box))",
    "wsum(patch([](box);1:box,,2:box))",
    "sup(box",
    "wsum(x)",
)


def test_examples_lists_all_fixtures(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in ("box", "ray", "ex1", "ex2", "ex3", "ex4"):
        assert f"name: {name}" in out


def test_rank_text_output(capsys):
    assert main(["rank", "ex3"]) == 0
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "top_ends: 1" in out


def test_rank_accepts_raw_terms(capsys):
    assert main(["rank", "wsum([](succ(box)))"]) == 0
    assert "rank: 1" in capsys.readouterr().out


def test_json_format_is_machine_readable(capsys):
    assert main(["rank", "ex1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"]["rank"] == "1"
    assert data["rank"]["top_ends"] == 1


def test_analyze_term_reports_shifts_and_stability(capsys):
    assert main(["analyze", "ray"]) == 0
    out = capsys.readouterr().out
    assert "periods" in out
    assert "unique_end_forward" in out


def test_analyze_labelled_path(capsys):
    assert main(["analyze", "lpath oneway poset{0<a} prefix[] cycle(0,a)"]) == 0
    out = capsys.readouterr().out
    assert "twin_count: continuum" in out


def test_twins_emits_verified_family(capsys):
    assert main(["twins", "wsum([](succ(box)))", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "verified: True" in out


def test_twins_json_on_labelled_path(capsys):
    assert main(
        ["twins", "lpath oneway poset{a,b} prefix[] cycle(a,b)", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cardinality"] == 2
    assert len(data["family"]) == 2


def test_truncate_dot_output(capsys):
    assert main(["truncate", "ray", "--depth", "2", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph truncation {")
    assert "v0" in out


def test_truncate_json_reports_loss(capsys):
    assert main(["truncate", "ray", "--depth", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lossy"] is True
    assert data["n"] == 4
    assert data["spine"] == [0, 1, 2, 3]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["rank", "ex1", "--format", "json", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["rank"]["rank"] == "1"


def test_unwritable_output_file_is_a_usage_error(tmp_path):
    # exit 1 would read as "undecided" under --strict
    target = tmp_path / "missing" / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "scattree.cli", "rank", "ex1", "--strict", "--out", str(target)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_oracle_subcommand(capsys):
    assert main(["oracle", "counts"]) == 0
    out = capsys.readouterr().out
    assert "ok: True" in out


def test_oracle_choices_are_the_jobs():
    # the parser names the oracles without loading the oracle module
    assert ORACLES == tuple(oracle.JOBS)


def test_failed_oracle_exits_three(capsys, monkeypatch):
    def fail():
        raise oracle.OracleError("planted failure")

    monkeypatch.setitem(oracle.JOBS, "counts", fail)
    assert main(["oracle", "counts"]) == 3
    assert capsys.readouterr().err == "oracle failure: planted failure\n"


def test_parse_error_exits_two(capsys):
    assert main(["rank", "wsum("]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["twins", "ex1", "--count", "-1"], "--count: must be at least 1"),
        (["twins", "ex1", "--count", "-2", "--seed", "3"], "--count: must be at least 1"),
        (["twins", "ex1", "--count", "0"], "--count: must be at least 1"),
        (["truncate", "ex1", "--depth", "2", "--width", "0"], "--width: must be at least 1"),
        (["analyze", "ex1", "--horizon", "-1"], "--horizon: must be at least 0"),
        (["twins", "ex1", "--count", "x"], "--count: invalid int value"),
    ],
)
def test_out_of_range_numbers_are_usage_errors(capsys, argv, message):
    # a usage error exits 2, never 0 with an empty family or 1 (undecided)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_unknown_oracle_is_a_usage_error(capsys):
    # exit 3 is reserved for an oracle check that failed
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "nonsense"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_stack_exhaustion_exits_four(capsys, monkeypatch):
    # running out of stack yields no verdict, so it exits with none of a
    # verdict's codes.  Ranks no longer recurse, so the layer is made to
    # run out here, as a recursive one (embeds) still can on deep input.
    import scattree.ranks

    def exhausted(t):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(scattree.ranks, "rank_summary", exhausted)
    assert main(["rank", "succ(box)"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: RecursionError")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_term_exits_two(capsys, text):
    # exit 1 would read as "undecided" under --strict
    assert main(["rank", text, "--strict"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "position" in err


def test_malformed_term_prints_no_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "scattree.cli", "rank", MALFORMED[0]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: expected a patch position")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_deep_patch_twins_need_no_deep_recursion(capsys):
    assert main(["twins", "wsum(patch(gen(box;succ(sup(_*2)));3000:box))"]) == 0
    assert "cardinality" in capsys.readouterr().out


DEEP = {
    "succ": ("succ(" * 10000 + "box" + ")" * 10000, "0"),
    "sup": ("sup(" * 3000 + "succ(box)" + ")" * 3000, "0"),
    "context": ("wsum(gen(box;" + "succ(" * 3000 + "_" + ")" * 3000 + "))", "1"),
    "succ-wsum": ("succ(" * 1500 + "wsum([](box))" + ")" * 1500, "1"),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_terms_need_no_recursion(capsys, name):
    # nested far deeper than Python's default recursion limit, left as it is
    text, rank = DEEP[name]
    assert sys.getrecursionlimit() <= 1000
    for command in ("rank", "analyze"):
        assert main([command, text, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"]["rank"] == rank
    assert main(["truncate", text, "--depth", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] > 1


def test_sup_nests_compare_without_recursion(capsys):
    # 1500 identified roots above one child each: the children of the root,
    # the branch count and the embedding verdicts need no recursion per
    # level, and the spine over the two nests reads as over their children
    from scattree.embedding import embeds
    from scattree.terms import BOX, NO, YES, Succ, branch_count, parse_term, root_children

    assert sys.getrecursionlimit() <= 1000
    a_text = "sup(" * 1500 + "succ(box)" + ")" * 1500
    b_text = "sup(" * 1500 + "succ(succ(box))" + ")" * 1500
    a, b = parse_term(a_text), parse_term(b_text)
    assert root_children(a) == [(BOX, 1)]
    assert root_children(b) == [(Succ(BOX), 1)]
    assert branch_count(a) == branch_count(b) == 0
    assert embeds(a, b) == YES
    assert embeds(b, a) == NO
    wide = parse_term("succ(" * 10000 + "sup(succ(box)*2)" + ")" * 10000)
    assert branch_count(wide) == 1
    outputs = []
    for text in (f"wsum([]({a_text},{b_text}))", "wsum([](succ(box),succ(succ(box))))"):
        assert main(["analyze", text, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        del out["term"]
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0]["shift"]["periods"] == [2, 4, 6, 8]


def test_strict_mode_flags_undecided(capsys):
    undecided = "wsum(gen(supseq(gen(box;succ(_)));succ(_)))"
    assert main(["analyze", undecided]) == 0
    capsys.readouterr()
    assert main(["analyze", undecided, "--strict"]) == 1


def test_strict_examples_flag_an_unknown_twin_count(capsys, monkeypatch):
    """An undecided twin count makes `examples --strict` exit 1, as it
    does `analyze --strict`; every built-in's count is decided today."""
    import scattree.stability

    assert main(["examples", "--strict"]) == 0
    capsys.readouterr()
    classify = scattree.stability.classify

    def undecided(t, horizon):
        cert = classify(t, horizon)
        cert.twins = "unknown"
        return cert

    monkeypatch.setattr(scattree.stability, "classify", undecided)
    assert main(["examples"]) == 0
    assert main(["analyze", "ex1", "--strict"]) == 1
    assert main(["examples", "--strict"]) == 1


def test_seeded_subset_twins_are_reproducible(capsys):
    args = ["twins", "ex1", "--count", "2", "--seed", "7", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["verified"] is True
