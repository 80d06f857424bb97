import copy
import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab import useless
from oraclelab.algebra import cyclic, matrix_from_json
from oraclelab.cli import EXIT_FALSIFIED, EXIT_OK, EXIT_USAGE, main
from oraclelab.gallery import deutsch
from oraclelab.problems import make_parity, make_shamir, problem_to_json
from oraclelab.qsim import algorithm_to_json, random_algorithm

from reference import dense_run


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


def _labels_as_list(schema):
    schema["labels"] = [1, 2]


def _nan_in_rho0(schema):
    schema["rho0"][0][0] = [float("nan"), 0.0]


def _infinity_in_unitary(schema):
    schema["unitaries"][0][1][1] = [float("inf"), 0.0]


def _nan_in_povm(schema):
    schema["povm"][0][0][0] = [float("nan"), 0.0]


def _fractional_function_value(schema):
    schema["functions"][0][0] = 0.9  # int() would read the (0, 0) table


def _fractional_domain_size(schema):
    schema["domain_size"] = 2.7


def _fractional_z_dim(schema):
    schema["z_dim"] = 1.5


def _fractional_label(schema):
    schema["labels"]["0"] = 0.5


EMIT_PROBLEM = ["problem", "--gen", "parity", "--n", "2"]
CHECK_PROBLEM = ["check-classical", "--k", "1", "--problem"]
EMIT_ALG = ["gallery", "emit", "--name", "deutsch"]
SIMULATE_ALG = ["simulate", "--oracle", "0,1", "--alg"]
COMPILE_ALG = ["compile", "--accept", "0", "--alg"]


@pytest.mark.parametrize(
    "emit,break_schema,command",
    [
        (EMIT_PROBLEM, _break_prior, CHECK_PROBLEM),
        (EMIT_PROBLEM, _drop_labels, CHECK_PROBLEM),
        (EMIT_ALG, _string_in_complex_pair, SIMULATE_ALG),
        (EMIT_ALG, _labels_as_list, SIMULATE_ALG),
        (EMIT_ALG, _nan_in_rho0, SIMULATE_ALG),
        (EMIT_ALG, _infinity_in_unitary, COMPILE_ALG),
        (EMIT_ALG, _nan_in_povm, SIMULATE_ALG),
        (EMIT_PROBLEM, _fractional_function_value, CHECK_PROBLEM),
        (EMIT_PROBLEM, _fractional_domain_size, CHECK_PROBLEM),
        (EMIT_ALG, _fractional_z_dim, SIMULATE_ALG),
        (EMIT_ALG, _fractional_label, SIMULATE_ALG),
    ],
    ids=[
        "zero-denominator",
        "missing-key",
        "string-in-complex",
        "labels-list",
        "nan-in-rho0",
        "infinity-in-unitary",
        "nan-in-povm",
        "fractional-function-value",
        "fractional-domain-size",
        "fractional-z-dim",
        "fractional-label",
    ],
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


# Values a mutated schema may carry: wrong types, non-integral and
# non-finite numbers, zero, negatives and a size far beyond any ceiling.
FUZZ_VALUES = st.sampled_from(
    [None, True, "x", "2", 0, -1, 2, 3, 10**6, 0.5, 0.9, 2.0, 2.7]
    + [float("nan"), float("inf"), float("-inf"), [], {}, [1, 0], [[1, 0]], {"0": 1}]
)


def _paths(node, prefix=()):
    """Every position in a JSON tree, as the keys and indices leading to it."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


@st.composite
def _mutated(draw, schema):
    """The schema after one to three edits: drop a key or entry, replace a
    value, or shorten or lengthen a list."""
    data = copy.deepcopy(schema)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        value = copy.deepcopy(draw(FUZZ_VALUES))  # never share a list between draws
        if not path:
            return value
        *head, key = path
        parent = data
        for step in head:
            parent = parent[step]
        node = parent[key]
        edit = draw(st.sampled_from(["drop", "replace", "shorten", "lengthen"]))
        if edit == "drop":
            del parent[key]
        elif edit == "replace" or not isinstance(node, list) or not node:
            parent[key] = value
        elif edit == "shorten":
            node.pop()
        else:
            node.append(copy.deepcopy(node[-1]))
    return data


# What EMIT_PROBLEM and EMIT_ALG write under "result".
PROBLEM_SCHEMA = problem_to_json(make_parity(2))
ALG_SCHEMA = algorithm_to_json(deutsch())
AUDIT_ALG = ["audit", "--gen", "parity", "--n", "2", "--accept", "0", "--alg"]


def _check_mutated_input(data, commands):
    """Each command exits 0, 1 or 2 without raising; exit 1 carries its
    evidence, and every probability a report gives is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        out = os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        for command in commands:
            code = main([*command, path, "--out", out])
            assert code in (EXIT_OK, EXIT_FALSIFIED, EXIT_USAGE), command
            if code == EXIT_USAGE:
                continue
            result = _read_report(out)["result"]
            if code == EXIT_FALSIFIED:
                assert command[0] in ("check-classical", "audit")
                assert result.get("witness") or result.get("identity_holds") is False
            if command[0] == "simulate":
                assert all(math.isfinite(p) for p in result["outcome_probs"])
            if command[0] == "compile":
                assert math.isfinite(result["T"])
                assert all(math.isfinite(term["prob"]) for term in result["terms"])
            os.remove(out)


@given(_mutated(PROBLEM_SCHEMA))
@settings(max_examples=100, deadline=None)
def test_mutated_problem_never_crashes(data):
    _check_mutated_input(data, [CHECK_PROBLEM, ["bound", "--problem"]])


@given(_mutated(ALG_SCHEMA))
@settings(max_examples=100, deadline=None)
def test_mutated_algorithm_never_crashes(data):
    _check_mutated_input(data, [SIMULATE_ALG, COMPILE_ALG, AUDIT_ALG])


def test_audit_rejects_mismatched_algorithm(tmp_path, capsys):
    # a Z3-response algorithm cannot query parity-4's Z2 tables
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(algorithm_to_json(random_algorithm(4, cyclic(3), 1, 1, 5))))
    argv = ["audit", "--gen", "parity", "--n", "4", "--alg", str(path), "--accept", "0"]
    assert main(argv) == EXIT_USAGE
    assert "group" in capsys.readouterr().err


def test_reproduce_only_without_match_is_usage_error(capsys):
    assert main(["reproduce", "--only", "zzz"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "zzz" in err and "parity-classical" in err and "determinism" in err


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


def test_bound_scans_each_k_once(tmp_path, monkeypatch):
    scanned = []
    check = useless.classical_useless

    def counting_check(problem, k, **kwargs):
        scanned.append(k)
        return check(problem, k, **kwargs)

    monkeypatch.setattr(useless, "classical_useless", counting_check)
    out = tmp_path / "b.json"
    argv = ["bound", "--gen", "shamir", "--p", "7", "--degree", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert scanned == [1, 2, 3]
    monkeypatch.undo()
    result = _read_report(out)["result"]
    assert result["quantum_lower_bound"] == useless.quantum_lower_bound(make_shamir(7, 2))


def test_simulate_rejects_wrong_table_width(tmp_path, capsys):
    path = tmp_path / "deutsch.json"
    assert main([*EMIT_ALG, "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["simulate", "--oracle", "0,1,1", "--alg", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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


def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch):
    assert main(["check-classical", "--k", "3"]) == EXIT_USAGE  # no problem given
    assert main(["gallery", "emit", "--name", "nope"]) == EXIT_USAGE
    assert main(["problem", "--gen", "parity"]) == EXIT_USAGE  # missing --n
    argv = ["check-classical", "--gen", "parity", "--n", "8", "--k", "6"]
    cost = 6 * math.comb(8, 6) * 2**8  # table cells the check reads
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", cost - 1)
    assert main(argv) == EXIT_USAGE  # capacity ceiling
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", cost)
    assert main(argv) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["check-quantum", "--gen", "parity", "--n", "2", "--queries", "1", "--tol", "nan"],
        ["check-quantum", "--gen", "parity", "--n", "2", "--queries", "1", "--skip-certificate"],
        ["check-classical", "--gen", "parity", "--n", "4", "--k", "3", "--max-events", "10"],
        ["audit", "--gen", "parity", "--n", "2", "--accept", "0", "--tol", "-1", "--alg"],
    ],
    ids=["check-quantum-tol", "skip-certificate", "max-events", "audit-tol"],
)
def test_deleted_ceiling_and_tolerance_flags_are_rejected(tmp_path, capsys, argv):
    # ceilings and tolerances are module constants; no flag overrides one
    path = tmp_path / "deutsch.json"
    assert main([*EMIT_ALG, "--out", str(path)]) == EXIT_OK
    if argv[-1] == "--alg":
        argv = [*argv, str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("accept", ["5", "-1"])
def test_audit_rejects_accept_outside_outcomes(tmp_path, capsys, accept):
    path = tmp_path / "deutsch.json"
    assert main([*EMIT_ALG, "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    argv = ["audit", "--gen", "parity", "--n", "2", "--alg", str(path), "--accept", accept]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and f"accept outcome {accept} outside" in err[0]


def test_check_quantum_skips_certificate_over_ceiling(tmp_path, monkeypatch):
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", 10)
    out = tmp_path / "q.json"
    argv = ["check-quantum", "--gen", "parity", "--n", "4", "--queries", "1", "--trials", "2",
            "--seed", "7", "--out", str(out)]
    assert main(argv) == EXIT_OK
    result = _read_report(out)["result"]
    assert result["verdict"] == "useless"
    assert "MAX_TABLE_CELLS=10" in result["classical_certificate"]["skipped"]


def test_simulate_state_matches_dense_reference(tmp_path):
    path = tmp_path / "deutsch.json"
    assert main([*EMIT_ALG, "--out", str(path)]) == EXIT_OK
    out = tmp_path / "sim.json"
    assert main([*SIMULATE_ALG, str(path), "--state", "--out", str(out)]) == EXIT_OK
    state = matrix_from_json(_read_report(out)["result"]["final_state"])
    rho, _ = dense_run(deutsch(), (0, 1))
    assert np.abs(state - rho).max() < 1e-12


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
