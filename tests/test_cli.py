import csv
import json

import pytest

from oraclelab.cli import EXIT_FALSIFIED, EXIT_OK, EXIT_USAGE, main


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_problem_gen_dump(tmp_path):
    out = tmp_path / "p.json"
    assert main(["problem", "--gen", "parity", "--n", "4", "--out", str(out)]) == EXIT_OK
    report = _read_report(out)
    result = report["result"]
    assert result["domain_size"] == 4
    assert result["group"] == [2]
    assert len(result["functions"]) == 16
    assert result["prior"][0] == [1, 16]


def test_check_classical_useless_exit_zero(tmp_path, capsys):
    assert main(["check-classical", "--gen", "parity", "--n", "4", "--k", "3"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "useless"


def test_check_classical_violation_exit_one(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    code = main(
        [
            "check-classical",
            "--gen",
            "parity",
            "--n",
            "4",
            "--k",
            "4",
            "--out",
            str(out),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == EXIT_FALSIFIED
    report = _read_report(out)
    assert report["result"]["verdict"] == "not_useless"
    assert report["result"]["witness"]["transcript"]
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["problem", "k", "verdict", "deviation", "witness"]
    assert rows[1][2] == "not_useless"


def test_check_classical_loads_problem_file(tmp_path):
    problem_path = tmp_path / "img.json"
    assert main(["problem", "--gen", "image-parity", "--out", str(problem_path)]) == EXIT_OK
    out = tmp_path / "check.json"
    code = main(
        ["check-classical", "--problem", str(problem_path), "--k", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert _read_report(out)["result"]["verdict"] == "useless"


def test_gallery_emit_report_feeds_simulate(tmp_path):
    alg_path = tmp_path / "deutsch.json"
    assert main(["gallery", "emit", "--name", "deutsch", "--out", str(alg_path)]) == EXIT_OK
    out = tmp_path / "sim.json"
    code = main(["simulate", "--alg", str(alg_path), "--oracle", "0,1", "--out", str(out)])
    assert code == EXIT_OK
    assert _read_report(out)["result"]["outcome_probs"][1] == pytest.approx(1.0, abs=1e-9)


def _break_prior(schema):
    schema["prior"][0] = [1, 0]


def _drop_labels(schema):
    del schema["labels"]


def _string_in_complex_pair(schema):
    schema["rho0"][0][0] = ["x", 0]


EMIT_PROBLEM = ["problem", "--gen", "parity", "--n", "2"]
CHECK_PROBLEM = ["check-classical", "--k", "1", "--problem"]
EMIT_ALG = ["gallery", "emit", "--name", "deutsch"]
SIMULATE_ALG = ["simulate", "--oracle", "0,1", "--alg"]


@pytest.mark.parametrize(
    "emit,break_schema,command",
    [
        (EMIT_PROBLEM, _break_prior, CHECK_PROBLEM),
        (EMIT_PROBLEM, _drop_labels, CHECK_PROBLEM),
        (EMIT_ALG, _string_in_complex_pair, SIMULATE_ALG),
    ],
    ids=["zero-denominator", "missing-key", "string-in-complex"],
)
def test_malformed_input_exits_two(tmp_path, capsys, emit, break_schema, command):
    path = tmp_path / "input.json"
    assert main([*emit, "--out", str(path)]) == EXIT_OK
    schema = _read_report(path)["result"]
    break_schema(schema)
    path.write_text(json.dumps(schema))
    capsys.readouterr()
    assert main([*command, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(path) in err[0]


def test_check_quantum_report(tmp_path):
    out = tmp_path / "q.json"
    code = main(
        [
            "check-quantum",
            "--gen",
            "parity",
            "--n",
            "4",
            "--queries",
            "1",
            "--trials",
            "10",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    result = _read_report(out)["result"]
    assert result["verdict"] == "useless"
    assert result["max_deviation"] < 1e-8
    assert result["classical_certificate"]["max_useless_k"] == 3
    assert result["classical_certificate"]["covers_this_check"] is True


def test_bound_report(tmp_path):
    out = tmp_path / "b.json"
    code = main(
        ["bound", "--gen", "shamir", "--p", "5", "--degree", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    result = _read_report(out)["result"]
    assert result["max_useless_k"] == 2
    assert result["quantum_lower_bound"] == 2


def test_gallery_emit_simulate_compile_audit(tmp_path):
    alg_path = tmp_path / "deutsch.json"
    assert main(["gallery", "emit", "--name", "deutsch", "--out", str(alg_path)]) == EXIT_OK
    schema = _read_report(alg_path)["result"]
    alg_path.write_text(json.dumps(schema))

    sim_out = tmp_path / "sim.json"
    code = main(
        ["simulate", "--alg", str(alg_path), "--oracle", "0,1", "--out", str(sim_out)]
    )
    assert code == EXIT_OK
    probs = _read_report(sim_out)["result"]["outcome_probs"]
    assert probs[1] == pytest.approx(1.0, abs=1e-9)

    compile_out = tmp_path / "c.json"
    cert = tmp_path / "cert.csv"
    code = main(
        [
            "compile",
            "--alg",
            str(alg_path),
            "--accept",
            "0",
            "--out",
            str(compile_out),
            "--certificate",
            str(cert),
        ]
    )
    assert code == EXIT_OK
    compiled = _read_report(compile_out)["result"]
    assert compiled["T"] == pytest.approx(1.0, abs=1e-10)
    assert compiled["terms"] == [{"S": [0, 1], "prob": 1.0, "sign": 1}]
    with open(cert) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["f", "p_quantum", "p_classical", "residual"]
    assert len(rows) == 5
    assert all(abs(float(row[3])) < 1e-9 for row in rows[1:])

    audit_out = tmp_path / "a.json"
    code = main(
        [
            "audit",
            "--gen",
            "parity",
            "--n",
            "2",
            "--alg",
            str(alg_path),
            "--accept",
            "0",
            "--out",
            str(audit_out),
        ]
    )
    # hypothesis fails for two-point parity, so the audit is not a falsification
    assert code == EXIT_OK
    audit = _read_report(audit_out)["result"]
    assert audit["classical_useless_2k"] is False
    assert audit["identity_holds"] is False


def test_gallery_list(capsys):
    assert main(["gallery", "list"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "deutsch" in report["result"]


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["check-classical", "--k", "3"]) == EXIT_USAGE  # no problem given
    assert main(["gallery", "emit", "--name", "nope"]) == EXIT_USAGE
    assert main(["problem", "--gen", "parity"]) == EXIT_USAGE  # missing --n
    assert (
        main(["check-classical", "--gen", "parity", "--n", "8", "--k", "6", "--max-events", "10"])
        == EXIT_USAGE
    )  # capacity ceiling
    capsys.readouterr()


def test_reproduce_subset_and_determinism(tmp_path, capsys, monkeypatch):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code = main(["reproduce", "--only", "shamir", "--seed", "5", "--out", str(out1)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert main(["reproduce", "--only", "shamir", "--seed", "5", "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    r1 = _read_report(out1)
    r2 = _read_report(out2)
    assert r1["result"] == r2["result"]
    assert [row["tag"] for row in r1["result"]["criteria"]] == ["shamir"]


def test_seed_env_variable(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("ORACLELAB_SEED", "123")
    out = tmp_path / "q.json"
    code = main(
        [
            "check-quantum",
            "--gen",
            "image-parity",
            "--queries",
            "1",
            "--trials",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert _read_report(out)["header"]["config"]["seed"] == 123
