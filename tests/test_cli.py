import json

from latinsq.cli import main
from latinsq.core import cyclic_square, square_from_text, square_to_text, squares_from_text


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
    for record in b1["trials"]:
        if record["status"] == "some":
            assert record["verified"]


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
    from latinsq.cli import random_correction_instance
    from latinsq.sampler import SeededRng

    inst = random_correction_instance(SeededRng(1).derive(0), num_indices=6, universe_size=40)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    code, out, _ = run(
        capsys, "--seed", "2", "--format", "json", "absorber-demo", "--instance", str(path)
    )
    assert code == 0
    assert json.loads(out)["summary"]["verified"] == 1


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
