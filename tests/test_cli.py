import json

import pytest

from scattree.cli import main


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


def test_oracle_subcommand(capsys):
    assert main(["oracle", "counts"]) == 0
    out = capsys.readouterr().out
    assert "ok: True" in out


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


def test_stack_exhaustion_exits_four(capsys):
    # a patch 3000 positions out makes the shift analysis compare stages
    # thousands of levels deep; running out of stack yields no verdict
    assert main(["twins", "wsum(patch(gen(box;succ(sup(_*2)));3000:box))"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: RecursionError")
    assert err.count("\n") == 1


def test_strict_mode_flags_undecided(capsys):
    undecided = "wsum(gen(supseq(gen(box;succ(_)));succ(_)))"
    assert main(["analyze", undecided]) == 0
    capsys.readouterr()
    assert main(["analyze", undecided, "--strict"]) == 1


def test_seeded_subset_twins_are_reproducible(capsys):
    args = ["twins", "ex1", "--count", "2", "--seed", "7", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["verified"] is True
