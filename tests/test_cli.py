import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latinsq
from latinsq import cli, transversal
from latinsq.absorber import CorrectionSet
from latinsq.cli import FORMATS, build_parser, main, wilson_interval
from latinsq.core import Decomposition, cyclic_square, square_from_text, square_to_text, squares_from_text
from latinsq.transversal import DecomposeResult, decompose, iter_transversals


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_writes_valid_squares(tmp_path, capsys):
    out = tmp_path / "squares.txt"
    code, _o, _e = run(
        capsys, "--seed", "5", "--out", str(out), "sample", "--order", "6",
        "--count", "3", "--burnin", "200", "--thin", "50",
    )
    assert code == 0
    squares = squares_from_text(out.read_text())
    assert len(squares) == 3 and all(sq.n == 6 for sq in squares)


def test_sample_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _o, _e = run(
            capsys, "--seed", "9", "--out", str(path), "sample", "--order", "5",
            "--count", "2", "--burnin", "100",
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_sample_count_zero_writes_nothing(capsys):
    code, out, err = run(capsys, "sample", "--order", "4", "--count", "0")
    assert code == 0 and out == "" and err == ""


def test_sample_negative_arguments_exit_code(capsys):
    for flag in ("--count", "--burnin", "--thin"):
        code, out, err = run(capsys, "sample", "--order", "4", flag, "-1")
        assert code == 1 and out == "", flag
        assert err.startswith("error: ") and flag[2:] in err, err


def test_count_transversals_cli(tmp_path, capsys):
    path = tmp_path / "sq.txt"
    path.write_text(square_to_text(cyclic_square(7)))
    code, out, _ = run(capsys, "count-transversals", str(path))
    assert code == 0 and out.strip() == "133"


def test_decompose_and_verify_cli(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    sq.write_text(square_to_text(cyclic_square(9)))
    mate = tmp_path / "mate.txt"
    code, _o, _e = run(capsys, "--out", str(mate), "decompose", str(sq))
    assert code == 0
    # the decomposition grid is itself a valid square file
    square_from_text(mate.read_text())
    code, out, _ = run(capsys, "verify", str(sq), str(mate))
    assert code == 0 and out.strip() == "ok"


def test_decompose_none_cli(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    sq.write_text(square_to_text(cyclic_square(4)))
    code, out, _ = run(capsys, "decompose", str(sq))
    assert code == 0 and out.strip() == "none"


def test_decompose_cli_exits_3_when_its_answer_fails_verification(tmp_path, capsys, monkeypatch):
    first = next(iter_transversals(cyclic_square(5)))
    overlapping = DecomposeResult("some", Decomposition(parts=(first,) * 5), 1, 15)
    monkeypatch.setattr(transversal, "_exact_cover", lambda masks, n, budget: overlapping)
    sq = tmp_path / "sq.txt"
    sq.write_text(square_to_text(cyclic_square(5)))
    code, out, err = run(capsys, "decompose", str(sq))
    assert code == 3 and out == ""
    assert err == "error: decompose found an invalid decomposition: cell (1,1) covered twice\n"


def test_verify_rejects_bad_mate(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    sq.write_text(square_to_text(cyclic_square(9)))
    mate = tmp_path / "mate.txt"
    code, _o, _e = run(capsys, "--out", str(mate), "decompose", str(sq))
    assert code == 0
    other = tmp_path / "sq11.txt"
    other.write_text(square_to_text(cyclic_square(11)))
    code, out, _ = run(capsys, "verify", str(other), str(mate))
    assert code == 3


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1 2 3\n3 1 2\n2 3 3\n")
    code, _out, err = run(capsys, "count-transversals", str(bad))
    assert code == 1 and "error" in err


def test_negative_node_budget_exit_code(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    sq.write_text(square_to_text(cyclic_square(3)))
    code, out, err = run(capsys, "--node-budget", "-5", "decompose", str(sq))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "node budget" in err


def test_tarry_check_small_order(capsys):
    code, out, _ = run(capsys, "--format", "json", "tarry-check", "--order", "2")
    assert code == 0
    body = json.loads(out)
    assert body["summary"]["examined"] == 1
    assert body["summary"]["resolvable"] == 0
    assert body["summary"]["undecided"] == 0


def test_tarry_check_cyclic_prefix_rows(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "tarry-check", "--order", "6", "--cyclic-prefix-rows", "6"
    )
    assert code == 0
    assert json.loads(out)["summary"]["examined"] == 1
    for rows in ("9", "7", "-2"):
        code, out, err = run(capsys, "tarry-check", "--order", "6", "--cyclic-prefix-rows", rows)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cyclic prefix rows" in err


def test_tarry_check_order6_transversal_counts(capsys):
    code, out, _ = run(capsys, "--format", "json", "tarry-check", "--order", "6")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert (summary["examined"], summary["resolvable"], summary["undecided"]) == (9408, 0, 0)
    assert summary["transversal_counts"] == {"0": 2100, "8": 7020, "24": 108, "32": 180}


def test_tarry_check_order6_at_budget_zero(capsys):
    # The 288 squares whose every cell lies on a transversal reach the
    # search, and a budget of 0 leaves each undecided; the other 9120 are
    # answered "none" before it.
    code, out, _ = run(capsys, "--format", "json", "--node-budget", "0", "tarry-check", "--order", "6")
    assert code == 3
    body = json.loads(out)
    summary = body["summary"]
    assert (summary["examined"], summary["resolvable"], summary["undecided"]) == (9408, 0, 288)
    assert summary["transversal_counts"] == {"0": 2100, "8": 7020, "24": 108, "32": 180}
    assert body["params"] == {"order": 6, "cyclic_prefix_rows": 0, "node_budget": 0}


def test_tarry_check_reports_its_node_budget(capsys):
    for argv, budget in (([], 10**8), (["--node-budget", "7"], 7)):
        code, out, _ = run(capsys, "--format", "json", *argv, "tarry-check", "--order", "2")
        assert code == 0, argv
        assert json.loads(out)["params"]["node_budget"] == budget, argv


def test_tarry_check_checks_the_order_first(capsys):
    for order in ("-1", "0", "7"):
        for rows in ("0", "2"):
            code, out, err = run(capsys, "tarry-check", "--order", order, "--cyclic-prefix-rows", rows)
            assert code == 1 and out == "", (order, rows)
            assert err == f"error: order must be in 1..6, got {order}\n", (order, rows, err)


def test_tarry_check_order4_finds_resolvables(capsys):
    # order 4 has resolvable squares, so the reproduction claim fails there
    code, out, _ = run(capsys, "--format", "json", "tarry-check", "--order", "4")
    assert code == 3
    body = json.loads(out)
    assert body["summary"]["resolvable"] > 0


def test_mc_decomposable_deterministic_across_workers(capsys):
    argv = [
        "--seed", "11", "--format", "json",
        "mc-decomposable", "--order", "5", "--trials", "6",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, "--workers", "2", *argv[:2] + argv[2:])
    assert code1 == code2 == 0
    b1, b2 = json.loads(out1), json.loads(out2)
    for b in (b1, b2):
        b.pop("elapsed_seconds")
    assert b1 == b2
    assert b1["summary"]["some"] + b1["summary"]["none"] + b1["summary"]["undecided"] == 6


def test_wilson_interval_hand_computed():
    assert wilson_interval(8, 12) == pytest.approx((0.3906, 0.8619), abs=5e-5)
    assert wilson_interval(0, 4) == pytest.approx((0.0, 0.4899), abs=5e-5)
    assert wilson_interval(4, 4) == pytest.approx((0.5101, 1.0), abs=5e-5)


def test_mc_decomposable_fraction_among_decided_trials(capsys):
    # order 10 at a 5-node budget: every trial is undecided, so there is no
    # fraction and no interval, and the run exits 2
    argv = [
        "--format", "json", "--node-budget", "5", "mc-decomposable", "--order", "10", "--trials", "2",
    ]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    body = json.loads(out)
    assert body["summary"] == {
        "some": 0, "none": 0, "undecided": 2, "fraction_resolvable": None, "ci95_wilson": None,
    }
    code2, out2, _ = run(capsys, "--workers", "2", *argv)
    body2 = json.loads(out2)
    for b in (body, body2):
        b.pop("elapsed_seconds")
    assert code2 == code and body2 == body
    # decided trials only: undecided ones are neither resolvable nor not
    code, out, _ = run(
        capsys, "--seed", "11", "--format", "json", "mc-decomposable", "--order", "5", "--trials", "6"
    )
    summary = json.loads(out)["summary"]
    decided = summary["some"] + summary["none"]
    assert summary["fraction_resolvable"] == summary["some"] / decided
    assert summary["ci95_wilson"] == [round(x, 6) for x in wilson_interval(summary["some"], decided)]


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["mc-decomposable", "--order", "10", "--node-budget", "5"],  # a global flag after the subcommand
        ["no-such-command"],
        ["mc-decomposable"],
        ["--workers", "two", "mc-decomposable", "--order", "5"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1, (argv, exc.value.code)
        assert err.startswith("usage: latinsq") and "error: " in err, (argv, err)
    for argv in (["--help"], ["mc-decomposable", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and "usage: latinsq" in capsys.readouterr().out


def test_mc_decomposable_bad_counts_exit_code(capsys):
    for argv, message in (
        (("mc-decomposable", "--order", "5", "--trials", "0"), "trials must be positive"),
        (("mc-decomposable", "--order", "5", "--trials", "-4"), "trials must be positive"),
        (("--workers", "0", "mc-decomposable", "--order", "5", "--trials", "2"),
         "workers must be positive"),
        (("--workers", "-3", "mc-decomposable", "--order", "5", "--trials", "2"),
         "workers must be positive"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and message in err, (argv, err)


def test_census_links_csv(tmp_path, capsys):
    out = tmp_path / "census.csv"
    code, _o, _e = run(
        capsys, "--seed", "3", "--format", "csv", "--out", str(out),
        "census-links", "--order", "8", "--k", "2", "--pairs", "5", "--burnin", "500",
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,param,u,v,count,seconds"
    assert len(rows) == 6
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[0] == "8" and fields[1] == "k=2"
        assert int(fields[4]) >= 0


def test_census_links_path_pairs_mode(capsys):
    code, out, _ = run(
        capsys, "--seed", "4", "--format", "json",
        "census-links", "--order", "6", "--length", "3", "--pairs", "4", "--burnin", "300",
    )
    assert code == 0
    body = json.loads(out)
    assert len(body["trials"]) == 4
    assert all(t["param"] == "len=3" for t in body["trials"])


def test_probe_subgraph_exact(tmp_path, capsys):
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps({"edges": [[1, 1, 1]]}))
    code, out, _ = run(
        capsys, "--format", "json", "probe-subgraph", str(graph), "--order", "4"
    )
    assert code == 0
    body = json.loads(out)
    assert body["summary"]["exact"] == "1/4"
    # it enumerates all 576 squares, so params name no trials; they do
    # where the probe samples
    assert body["params"] == {"order": 4, "edges": [[1, 1, 1]]}
    assert body["summary"]["trials"] == 576
    code, out, _ = run(
        capsys, "--format", "json", "probe-subgraph", str(graph), "--order", "5", "--trials", "7"
    )
    body = json.loads(out)
    assert code == 0 and body["params"] == {"order": 5, "trials": 7, "edges": [[1, 1, 1]]}
    assert body["summary"]["trials"] == 7


def test_probe_subgraph_bad_input_exit_code(tmp_path, capsys):
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps({"edges": [[1, 1, 1]]}))
    for order in ("4", "7"):
        for trials in ("0", "-3"):
            code, out, err = run(capsys, "probe-subgraph", str(graph), "--order", order, "--trials", trials)
            assert code == 1 and out == "", (order, trials)
            assert err.startswith("error: ") and "trials must be positive" in err, err
    for body, message in (
        ({"nodes": [[1, 1, 1]]}, "`edges` list"),
        ([[1, 1, 1]], "`edges` list"),
        ({"edges": {"1": [1, 1]}}, "`edges` list"),
        ({"edges": "1 1 1"}, "`edges` list"),
        ({"edges": [[1, 1]]}, "[row, column, colour]"),
        ({"edges": [[1, "a", 1]]}, "[row, column, colour]"),
    ):
        graph.write_text(json.dumps(body))
        code, out, err = run(capsys, "probe-subgraph", str(graph), "--order", "5")
        assert code == 1 and out == "", body
        assert err.startswith("error: ") and message in err, (body, err)


def test_absorber_demo_roundtrip(tmp_path, capsys):
    dump = tmp_path / "artifacts.json"
    code, out, _ = run(
        capsys, "--seed", "21", "--format", "json",
        "absorber-demo", "--count", "3", "--indices", "8", "--universe", "60",
        "--dump", str(dump),
    )
    assert code == 0
    body = json.loads(out)
    assert body["summary"]["verified"] == 3 and body["summary"]["failed"] == 0
    artifacts = json.loads(dump.read_text())
    assert len(artifacts) == 3
    assert all("pairs" in a and "instance" in a for a in artifacts)


def test_absorber_demo_instance_file(tmp_path, capsys):
    from latinsq.absorber import random_correction_instance
    from latinsq.sampler import SeededRng

    inst = random_correction_instance(SeededRng(1).derive(0), num_indices=6, universe_size=40)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    code, out, _ = run(
        capsys, "--seed", "2", "--format", "json", "absorber-demo", "--instance", str(path)
    )
    assert code == 0
    assert json.loads(out)["summary"]["verified"] == 1


def test_absorber_demo_instance_file_reports_no_random_flags(tmp_path, capsys):
    # a two-index instance: none of --indices, --universe or --max-surplus
    # describes it, so the report names the file instead
    from latinsq.absorber import random_correction_instance
    from latinsq.sampler import SeededRng

    inst = random_correction_instance(SeededRng(0).derive(0), num_indices=2, universe_size=28)
    path = tmp_path / "two.json"
    path.write_text(inst.to_json())
    code, out, _ = run(capsys, "--format", "json", "absorber-demo", "--instance", str(path))
    assert code == 0
    body = json.loads(out)
    assert body["params"] == {"count": 1, "instance": str(path)}
    assert body["summary"] == {"verified": 1, "failed": 0}
    code, out, _ = run(
        capsys, "--format", "json", "absorber-demo", "--count", "1", "--indices", "5",
        "--universe", "40",
    )
    assert code == 0
    assert json.loads(out)["params"] == {
        "count": 1, "indices": 5, "universe": 40, "max_surplus": 3,
    }


def test_absorber_demo_bad_input_exit_code(tmp_path, capsys):
    for argv, message in (
        (("--universe", "3"), "could not deal"),
        (("--indices", "1"), "could not deal"),
        (("--max-surplus", "-1"), "max_surplus must be non-negative"),
        (("--universe", "2", "--max-surplus", "3"), "max_surplus 3 exceeds the universe size 2"),
        (("--indices", "-1"), "indices must be non-negative"),
        (("--universe", "-5"), "universe must be non-negative"),
        (("--count", "-2"), "count must be non-negative"),
    ):
        code, out, err = run(capsys, "absorber-demo", "--count", "2", *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and message in err, (argv, err)
    # structurally malformed instance files name the field at fault
    sets = '"reservoir": {}, "surplus": {}, "chosen": {}'
    for text, message in (
        ('{"indices": [1]}', "'universe'"),
        ("[1, 2]", "JSON object"),
        ('{"indices": "ab", "universe": [1], ' + sets + "}", "'indices'"),
        ('{"indices": [1], "universe": [1, [2]], ' + sets + "}", "'universe'"),
        ('{"indices": [1], "universe": [1], ' + sets + "}", "'reservoir.1'"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "absorber-demo", "--instance", str(path))
        assert code == 1 and out == "", text
        assert err.startswith("error: ") and message in err and "Traceback" not in err, (text, err)


def test_absorber_demo_infeasible_instance_exits_2(tmp_path, capsys):
    # two indices, each holding half of a four-vertex universe: the
    # feasibility check finds too few free vertices before any stage runs
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({
        "indices": [1, 2], "universe": [1, 2, 3, 4],
        "reservoir": {"1": [1], "2": [2]}, "surplus": {"1": [2], "2": [1]},
        "chosen": {"1": [1], "2": [2]},
    }))
    code, out, err = run(capsys, "--format", "json", "absorber-demo", "--instance", str(path))
    body = json.loads(out)
    assert (code, err) == (2, "")
    assert body["trials"] == [{"instance": 0, "status": "infeasible", "stage": "feasibility check"}]
    assert body["summary"] == {"verified": 0, "failed": 1}


def test_absorber_demo_failed_verification_exits_3(monkeypatch, capsys):
    # an answer with one extra same-index pair fails verify_corrections
    real = cli.decompose_corrections

    def spoiled(inst, rng):
        cset = real(inst, rng)
        i, (u, v) = inst.indices[0], inst.universe[:2]
        return CorrectionSet(pairs=cset.pairs | {frozenset({(i, u), (i, v)})})

    monkeypatch.setattr(cli, "decompose_corrections", spoiled)
    code, out, _ = run(
        capsys, "--seed", "5", "--format", "json",
        "absorber-demo", "--count", "2", "--indices", "6", "--universe", "60",
    )
    body = json.loads(out)
    assert code == 3
    assert body["summary"] == {"verified": 0, "failed": 2}
    for record in body["trials"]:
        assert record["status"] == "invalid", record
        assert ["malformed", 1, 1] in record["violations"], record


def test_mc_decomposable_failed_verification_exits_3(monkeypatch, capsys):
    # a "some" answer with no parts fails the check inside decompose, which
    # ends the run with no report
    empty = DecomposeResult("some", Decomposition(parts=()), 0, 0)
    monkeypatch.setattr(transversal, "_exact_cover", lambda masks, n, budget: empty)
    code, out, err = run(
        capsys, "--seed", "11", "--format", "json", "mc-decomposable", "--order", "5", "--trials", "3"
    )
    assert code == 3 and out == ""
    assert err == "error: decompose found an invalid decomposition: 0 parts, expected 5\n"


def test_connector_demo(capsys):
    code, out, _ = run(
        capsys, "--seed", "6", "--format", "json",
        "connector-demo", "--size", "1024", "--roots", "8", "--pairings", "10",
    )
    assert code == 0
    body = json.loads(out)
    assert body["summary"]["stress_pairings_failed"] == 0
    assert body["summary"]["certified_roots"] >= 2
    assert body["summary"]["max_degree"] <= 5  # 4 plus one attachment edge


def test_connector_demo_bad_input_exit_code(capsys):
    for argv, message in (
        (("--size", "64", "--roots", "100", "--spread", "2"), "root count must be in"),
        (("--size", "4", "--spread", "100"), "no feasible depth"),
        (("--pairings", "-1"), "pairings must be non-negative, got -1"),
        (("--spread", "nan"), "need size >= 4 and spread >= 1"),
    ):
        code, out, err = run(capsys, "connector-demo", *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and message in err and "Traceback" not in err, (argv, err)


def test_report_determinism_census(capsys):
    argv = [
        "--seed", "14", "--format", "json",
        "census-links", "--order", "6", "--k", "2", "--pairs", "3", "--burnin", "200",
    ]
    _c1, out1, _ = run(capsys, *argv)
    _c2, out2, _ = run(capsys, *argv)
    b1, b2 = json.loads(out1), json.loads(out2)
    b1.pop("elapsed_seconds")
    b2.pop("elapsed_seconds")
    assert b1 == b2


def test_census_links_bad_input_exit_code(capsys):
    for argv, message in (
        (("--order", "1", "--pairs", "1"), "order must be at least 2"),
        (("--order", "1", "--length", "3"), "order must be at least 2"),
        (("--order", "0"), "order must be at least 2"),
        (("--order", "6", "--pairs", "-3"), "pairs must be non-negative"),
        (("--order", "6", "--length", "-1"), "path length must be positive"),
        (("--order", "6", "--length", "0"), "path length must be positive"),
        (("--order", "6", "--length", "4"), "path length must be odd"),
        (("--order", "6", "--k", "0"), "k must be positive"),
    ):
        code, out, err = run(capsys, "--seed", "1", "census-links", *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and message in err, (argv, err)


def test_census_links_zero_pairs_and_order2(capsys):
    code, out, _ = run(
        capsys, "--seed", "1", "--format", "json", "census-links", "--order", "6", "--pairs", "0"
    )
    assert code == 0 and json.loads(out)["trials"] == []
    code, out, _ = run(
        capsys, "--seed", "1", "--format", "json",
        "census-links", "--order", "2", "--length", "3", "--pairs", "2",
    )
    assert code == 0 and [t["count"] for t in json.loads(out)["trials"]] == [0, 0]


def test_census_links_reports_only_the_mode_that_ran(capsys):
    for mode, key in ((("--length", "3"), "length"), (("--k", "3"), "k")):
        code, out, _ = run(
            capsys, "--seed", "1", "--format", "json",
            "census-links", "--order", "6", *mode, "--pairs", "2", "--burnin", "100",
        )
        assert code == 0
        assert json.loads(out)["params"] == {"order": 6, key: 3, "pairs": 2}, mode


# The census-links JSON bodies at seed 11, order 7, 6 pairs, burn-in 300,
# without elapsed_seconds: (param, u, v, count) per pair and the summary.
CENSUS_BODIES = {
    ("--k", "2"): (
        {"k": 2},
        [("k=2", "A4", "A1", 7), ("k=2", "B3", "B4", 10), ("k=2", "A5", "A3", 6),
         ("k=2", "A5", "A1", 9), ("k=2", "B7", "B1", 5), ("k=2", "B6", "B5", 6)],
        {"max": 10, "mean": 7.166666666666667, "min": 5, "variance": 3.138888888888889},
    ),
    ("--length", "3"): (
        {"length": 3},
        [("len=3", "A3:B4", "A6:B2", 4), ("len=3", "A6:B6", "A2:B5", 1),
         ("len=3", "A3:B6", "A5:B4", 2), ("len=3", "A3:B6", "A5:B4", 2),
         ("len=3", "A4:B1", "A7:B7", 0), ("len=3", "A5:B7", "A3:B4", 2)],
        {"max": 4, "mean": 1.8333333333333333, "min": 0, "variance": 1.4722222222222223},
    ),
}


def test_census_links_bodies_pinned(capsys):
    for mode, (param, trials, summary) in CENSUS_BODIES.items():
        code, out, _ = run(
            capsys, "--seed", "11", "--format", "json",
            "census-links", "--order", "7", *mode, "--pairs", "6", "--burnin", "300",
        )
        assert code == 0
        body = json.loads(out)
        body.pop("elapsed_seconds")
        assert body == {
            "artifact_version": "0.1.0",
            "command": "census-links",
            "params": {"order": 7, **param, "pairs": 6},
            "schema_version": 1,
            "seed": 11,
            "summary": summary,
            "trials": [{"param": p, "u": u, "v": v, "count": c} for p, u, v, c in trials],
        }, mode


def test_csv_format_is_for_census_links_only(tmp_path, capsys):
    square = tmp_path / "sq.txt"
    square.write_text(square_to_text(cyclic_square(5)))
    for argv in (
        ["sample", "--order", "3", "--burnin", "10"],
        ["count-transversals", str(square)],
        ["decompose", str(square)],
        ["verify", str(square), str(square)],
        ["tarry-check", "--order", "3"],
        ["mc-decomposable", "--order", "3", "--trials", "1"],
        ["absorber-demo", "--count", "1", "--indices", "4", "--universe", "30"],
        ["connector-demo", "--size", "64", "--roots", "1", "--pairings", "1"],
    ):
        code, out, err = run(capsys, "--format", "csv", *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "csv" in err, (argv, err)


def test_json_format_is_refused_by_the_plain_square_commands(tmp_path, capsys):
    square = tmp_path / "sq.txt"
    square.write_text(square_to_text(cyclic_square(5)))
    for argv in (
        ["sample", "--order", "3", "--burnin", "10"],
        ["count-transversals", str(square)],
        ["decompose", str(square)],
        ["verify", str(square), str(square)],
    ):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "json" in err, (argv, err)


def test_formats_table_names_every_subcommand():
    (sub,) = (a for a in build_parser()._actions if a.dest == "command")
    assert set(FORMATS) == set(sub.choices)
    assert all(formats[0] == "text" for formats in FORMATS.values())


def test_count_transversals_writes_its_out_file(tmp_path, capsys):
    square, answer = tmp_path / "sq.txt", tmp_path / "o.txt"
    square.write_text(square_to_text(cyclic_square(5)))
    code, out, err = run(capsys, "--out", str(answer), "count-transversals", str(square))
    assert (code, out, err) == (0, "", "")
    assert answer.read_text() == "15\n"


def test_decompose_writes_none_and_undecided_to_its_out_file(tmp_path, capsys):
    square, answer = tmp_path / "sq.txt", tmp_path / "o.txt"
    for n, budget, status, exit_code in ((4, "100", "none", 0), (5, "0", "undecided", 2)):
        square.write_text(square_to_text(cyclic_square(n)))
        code, out, err = run(
            capsys, "--out", str(answer), "--node-budget", budget, "decompose", str(square)
        )
        assert (code, out, err) == (exit_code, "", ""), n
        assert answer.read_text() == status + "\n"


def test_verify_writes_its_out_file(tmp_path, capsys):
    square, mate = tmp_path / "sq.txt", tmp_path / "mate.txt"
    square.write_text(square_to_text(cyclic_square(5)))
    assert run(capsys, "--out", str(mate), "decompose", str(square))[0] == 0
    answer = tmp_path / "o.txt"
    code, out, err = run(capsys, "--out", str(answer), "verify", str(square), str(mate))
    assert (code, out, err) == (0, "", "")
    assert answer.read_text() == "ok\n"


def test_census_links_variance_is_always_a_float(capsys):
    # order 2 admits no length-3 path pairs, so every count is 0
    code, out, _ = run(
        capsys, "--seed", "1", "--format", "json",
        "census-links", "--order", "2", "--length", "3", "--pairs", "3",
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["variance"] == 0.0 and isinstance(summary["variance"], float)
    code, out, _ = run(
        capsys, "--seed", "3", "--format", "json",
        "census-links", "--order", "8", "--k", "2", "--pairs", "6", "--burnin", "500",
    )
    counts = [t["count"] for t in json.loads(out)["trials"]]
    assert code == 0 and len(set(counts)) > 1
    assert isinstance(json.loads(out)["summary"]["variance"], float)


def _bad_files(tmp_path):
    """Input files no subcommand can read: missing, a directory, empty,
    not UTF-8, not a square, not JSON, and JSON of the wrong shape."""
    bodies = {
        "empty": b"",
        "binary": b"\xff\xfe\x00\x81",
        "words": b"not a square\n",
        "short": b"3\n1 2 3\n",
        "not-latin": b"2\n1 1\n2 2\n",
        "negative-order": b"-2\n1 2\n2 1\n",
        "null": b"null",
        "list": b"[1, 2]",
        "bad-edges": b'{"edges": [[9, 9, 9]]}',
        "unbalanced": json.dumps({
            "indices": [1, 2], "universe": [1, 2, 3],
            "reservoir": {"1": [2], "2": [1]}, "surplus": {"1": [1], "2": [3]},
            "chosen": {"1": [2], "2": [1]},
        }).encode(),
    }
    paths = {"missing": tmp_path / "missing.txt", "directory": tmp_path}
    for name, body in bodies.items():
        paths[name] = tmp_path / f"{name}.in"
        paths[name].write_bytes(body)
    return paths


def test_every_file_reading_subcommand_rejects_bad_files(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(square_to_text(cyclic_square(5)))
    commands = {
        "count-transversals": lambda f: ["count-transversals", f],
        "decompose": lambda f: ["decompose", f],
        "verify (square)": lambda f: ["verify", f, str(good)],
        "verify (parts)": lambda f: ["verify", str(good), f],
        "probe-subgraph": lambda f: ["probe-subgraph", f, "--order", "4", "--trials", "3"],
        "absorber-demo": lambda f: ["absorber-demo", "--instance", f],
    }
    for command, argv in commands.items():
        for name, path in _bad_files(tmp_path).items():
            code, out, err = run(capsys, *argv(str(path)))
            assert code == 1 and out == "", (command, name, code)
            assert err.startswith("error: ") and "Traceback" not in err, (command, name, err)


def test_every_subcommand_rejects_an_unwritable_out_file(tmp_path, capsys):
    out_file = str(tmp_path / "no-such-dir" / "out.txt")
    square = tmp_path / "sq.txt"
    square.write_text(square_to_text(cyclic_square(3)))
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps({"edges": [[1, 1, 1]]}))
    for argv in (
        ["sample", "--order", "3", "--burnin", "10"],
        ["count-transversals", str(square)],
        ["decompose", str(square)],
        ["verify", str(square), str(square)],
        ["tarry-check", "--order", "3"],
        ["mc-decomposable", "--order", "3", "--trials", "1"],
        ["census-links", "--order", "4", "--pairs", "1"],
        ["probe-subgraph", str(graph), "--order", "3", "--trials", "2"],
        ["absorber-demo", "--count", "1", "--indices", "4", "--universe", "30"],
        ["connector-demo", "--size", "64", "--roots", "1", "--pairings", "1"],
    ):
        code, out, err = run(capsys, "--out", out_file, *argv)
        assert code == 1 and out == "", (argv, code, err)
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


def test_report_bodies_alike_on_stdout_and_in_the_out_file(tmp_path, capsys):
    # one path writes every report: the same body, exit code and stderr
    # whether the answer goes to stdout or to --out, and elapsed_seconds
    # is set on both
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps({"edges": [[1, 1, 1]]}))
    out_file = tmp_path / "out"
    for argv in (
        ["tarry-check", "--order", "4"],
        ["mc-decomposable", "--order", "5", "--trials", "3"],
        ["census-links", "--order", "6", "--pairs", "3", "--burnin", "100"],
        ["census-links", "--order", "6", "--length", "3", "--pairs", "3", "--burnin", "100"],
        ["probe-subgraph", str(graph), "--order", "5", "--trials", "20"],
        ["absorber-demo", "--count", "2", "--indices", "6", "--universe", "60"],
        ["connector-demo", "--size", "256", "--roots", "2", "--pairings", "2"],
    ):
        for fmt in ("json", "text"):
            flags = ["--seed", "5", "--format", fmt]
            code, out, err = run(capsys, *flags, *argv)
            code_file, out_empty, err_file = run(capsys, *flags, "--out", str(out_file), *argv)
            written = out_file.read_text()
            assert (code_file, out_empty, err_file) == (code, "", err), (argv, fmt)
            if fmt == "text":
                assert written == out and out.startswith(argv[0] + ": "), argv
                continue
            body, body_file = json.loads(out), json.loads(written)
            assert body.pop("elapsed_seconds") > 0 and body_file.pop("elapsed_seconds") > 0, argv
            assert body == body_file and body["command"] == argv[0], argv


def test_tarry_check_writes_the_offending_square_after_its_report(monkeypatch):
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    monkeypatch.setattr(sys, "stderr", stream)
    assert main(["tarry-check", "--order", "4"]) == 3
    report, note = stream.getvalue().split("offending square:\n")
    assert report.startswith("tarry-check: ") and report.endswith("\n")
    square = square_from_text(note)
    assert square.n == 4 and decompose(square).status == "some"


def test_python_m_runs_the_cli(tmp_path):
    # the package's __main__ entry point, in a fresh interpreter
    path = tmp_path / "sq.txt"
    path.write_text(square_to_text(cyclic_square(5)))
    src = str(Path(latinsq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "latinsq", "count-transversals", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "15\n", "")
