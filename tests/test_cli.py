import copy
import csv
import json
import math
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab import polycompile, reproduce, useless
from oraclelab.algebra import TOL_NUM, cyclic, matrix_to_json
from oraclelab.cli import EXIT_FALSIFIED, EXIT_OK, EXIT_USAGE, _emit, build_parser, main
from oraclelab.gallery import deutsch
from oraclelab.problems import make_parity, make_shamir, problem_to_json
from oraclelab.qsim import algorithm_from_json, algorithm_to_json, random_algorithm

from reference import compiled_from_json, dense_run, naive_output_prob, per_entry_matrix, unitary_defect


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _read_report(path):
    """A report parsed strictly: a NaN or Infinity in it fails the test."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


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


def _csv_help(command):
    (table,) = [a.choices for a in build_parser()._actions if isinstance(a.choices, dict)]
    (action,) = [a for a in table[command]._actions if "--csv" in a.option_strings]
    return action.help


def test_check_classical_csv_overwrites_what_the_file_held(tmp_path, capsys):
    # the help of both check subcommands says what the file holds afterwards
    assert _csv_help("check-classical") == _csv_help("check-quantum")
    assert "overwritten with a header and one row" in _csv_help("check-quantum")
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("stale,header\nstale,row\nstale,row\n")
    argv = ["check-classical", "--gen", "parity", "--n", "4", "--k", "3", "--csv", str(csv_path)]
    assert main(argv) == EXIT_OK
    with open(csv_path) as fh:
        header, row, *rest = csv.reader(fh)
    assert header == ["problem", "k", "verdict", "deviation", "witness"] and not rest
    assert row[:3] == ["parity-4", "3", "useless"]


def test_check_quantum_csv_row_names_the_sampled_witness(tmp_path):
    out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    argv = ["check-quantum", "--gen", "shamir", "--p", "5", "--degree", "1", "--queries", "1",
            "--z-dim", "2", "--trials", "3", "--out", str(out), "--csv", str(csv_path)]
    assert main(argv) == EXIT_FALSIFIED
    result = _read_report(out)["result"]
    with open(csv_path) as fh:
        header, row, *rest = csv.reader(fh)
    assert header == ["problem", "k", "verdict", "deviation", "witness"] and not rest
    assert row[:4] == ["shamir-5-1", "1", "not_useless", repr(result["max_deviation"])]
    assert row[4].startswith("algorithm=seed-") and row[4].endswith(";trial=2")
    pairs = dict(item.split("=", 1) for item in row[4].split(";"))
    assert pairs == {key: str(value) for key, value in result["witness"].items()}


def test_huge_group_problem_file_keeps_its_witness(tmp_path):
    # no fixed-width dtype holds a group of order 10^30, so the table holds
    # Python ints; the check still runs and its witness is plain JSON
    big = 10**30 - 1
    data = {"domain_size": 1, "group": [10**30], "functions": [[0], [big]],
            "labels": [0, 1], "prior": [[1, 2], [1, 2]]}
    path, out = tmp_path / "huge.json", tmp_path / "r.json"
    path.write_text(json.dumps(data))
    argv = ["check-classical", "--problem", str(path), "--k", "1", "--out", str(out)]
    assert main(argv) == EXIT_FALSIFIED
    witness = _read_report(out)["result"]["witness"]
    assert witness == {"transcript": [[0, 0]], "part": 0, "posterior": [1, 1], "prior": [1, 2]}


def test_shamir_over_the_cells_ceiling_exits_two_fast(capsys):
    # 997^2 tables of 996 cells; the ceiling is checked before anything is built
    start = time.perf_counter()
    assert main(["problem", "--gen", "shamir", "--p", "997", "--degree", "1"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1
    assert "MAX_CLASS_CELLS" in capsys.readouterr().err


def test_main_builds_the_parser_once_per_process(tmp_path, capsys):
    # a later call reads its own arguments, not the earlier call's
    build_parser.cache_clear()
    assert main(["gallery", "list"]) == EXIT_OK
    assert main(["bound", "--gen", "parity", "--n", "3", "--out", str(tmp_path / "b.json")]) == EXIT_OK
    assert main(["bound"]) == EXIT_USAGE
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert _read_report(tmp_path / "b.json")["header"]["config"] == {"gen": "parity", "n": 3}
    assert "provide --problem FILE or --gen NAME" in capsys.readouterr().err


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


def _deeply_nested_label(schema):
    for _ in range(40):  # past numpy's 32-dimension iterators
        schema["labels"] = [schema["labels"]]


def _huge_int_in_complex(schema):
    schema["unitaries"][0][0][0] = [10**400, 0]  # no float holds it


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
        (EMIT_ALG, _huge_int_in_complex, SIMULATE_ALG),
        (EMIT_PROBLEM, _deeply_nested_label, CHECK_PROBLEM),
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
        "huge-int-in-complex",
        "deeply-nested-label",
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


DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON parser's recursion limit


@pytest.mark.parametrize(
    "text",
    ["", '{"x_dim": ', "[1, 2]", DEEP, '{"x_dim": ' + DEEP + "}"],
    ids=["empty", "cut", "list", "deep", "deep-x-dim"],
)
@pytest.mark.parametrize("command", [CHECK_PROBLEM, SIMULATE_ALG, COMPILE_ALG])
def test_input_that_is_no_json_object_exits_two(tmp_path, capsys, text, command):
    path = tmp_path / "input.json"
    path.write_text(text)
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


def _near_unitary(schema):
    """Deutsch's unitary U times I + eps B, with B = 4 w w^H for w = (1, -1, 1,
    -1)/2: unitary within TOL_NUM, yet on the all-zero table its outcome
    probabilities sum to (1 + 4 eps)^2, 3.6e-9 past 1."""
    w = np.array([1, -1, 1, -1]) / 2
    u = per_entry_matrix(schema["unitaries"][0])
    schema["unitaries"][0] = matrix_to_json(u @ (np.eye(4) + 4.5e-10 * 4 * np.outer(w, w)))


@pytest.mark.parametrize(
    "command",
    [["simulate", "--oracle", "0,0", "--alg"], COMPILE_ALG, AUDIT_ALG],
    ids=["simulate", "compile", "audit"],
)
def test_valid_algorithm_past_the_probability_tolerance_exits_two(tmp_path, capsys, command):
    # exit 1 means a falsified claim, never a simulation that leaves the tolerance
    schema = copy.deepcopy(ALG_SCHEMA)
    _near_unitary(schema)
    assert 8.9e-10 < unitary_defect(per_entry_matrix(schema["unitaries"][0])) <= TOL_NUM
    algorithm_from_json(schema)  # passes validation
    path = tmp_path / "near.json"
    path.write_text(json.dumps(schema))
    assert main([*command, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: outcome probabilities")
    assert re.search(r"\[1\.000000003\d*, ", err[0])  # the excess shows in full


@pytest.mark.parametrize(
    "labels, key",
    [({"1": 0, "01": 1, "0": 0}, "01"), ({" 1": 1, "0": 0}, " 1"), ({"\u0661": 1, "0": 0}, "\u0661")],
    ids=["leading-zero", "space", "arabic-indic-digit"],
)
def test_outcome_label_keys_are_read_only_as_written(tmp_path, capsys, labels, key):
    # int() reads each of these keys as outcome 1; "01" would drop the label of "1"
    schema = copy.deepcopy(ALG_SCHEMA)
    schema["labels"] = labels
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(schema))
    assert main([*SIMULATE_ALG, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"outcome label key {key!r}" in err[0]


@pytest.mark.parametrize(
    "option, tokens, token",
    [
        ("--oracle", "\u0660,1", "\u0660"),
        ("--oracle", "0, 1", " 1"),
        ("--oracle", "0,01", "01"),
        ("--accept", "0_0,01", "0_0"),
        ("--accept", "0, 2", " 2"),
        ("--accept", "\u0660", "\u0660"),
    ],
    ids=["oracle-arabic-indic-zero", "oracle-space", "oracle-leading-zero",
         "accept-underscore", "accept-space", "accept-arabic-indic-zero"],
)
def test_comma_list_tokens_are_read_only_as_written(tmp_path, capsys, option, tokens, token):
    # int() reads each of these tokens as an integer; the label-key rule does not
    path = tmp_path / "deutsch.json"
    path.write_text(json.dumps(ALG_SCHEMA))
    command = SIMULATE_ALG if option == "--oracle" else COMPILE_ALG
    argv = [*command, str(path)]
    argv[argv.index(option) + 1] = tokens
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{option} entry {token!r} is not a decimal integer" in err[0]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check-classical", "--gen", "parity", "--n", "0_4", "--k", "2"], "0_4"),
        (["check-classical", "--gen", "parity", "--n", "4", "--k", " \u0662"], " \u0662"),
        (["bound", "--gen", "shamir", "--p", "+5", "--degree", "2"], "+5"),
        (["bound", "--gen", "shamir", "--p", "5", "--degree", "02"], "02"),
        (["check-quantum", "--gen", "parity", "--n", "2", "--queries", "1 "], "1 "),
        (["check-quantum", "--gen", "parity", "--n", "2", "--queries", "1", "--trials", "\uff12"],
         "\uff12"),
        (["check-quantum", "--gen", "parity", "--n", "2", "--queries", "1", "--seed", "7_0"], "7_0"),
        (["check-quantum", "--gen", "parity", "--n", "2", "--queries", "1", "--z-dim", "0_1"], "0_1"),
        (["reproduce", "--seed", "1_0", "--only", "parity-classical"], "1_0"),
    ],
    ids=["n", "k", "p", "degree", "queries", "trials", "check-quantum-seed", "z-dim", "reproduce-seed"],
)
def test_integer_options_are_read_only_as_written(capsys, argv, text):
    # int() reads each of these as an integer; an option reads only the decimal form str writes
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"value {text!r} is not a decimal integer" in capsys.readouterr().err


def test_audit_rejects_mismatched_algorithm(tmp_path, capsys):
    # a Z3-response algorithm cannot query parity-4's Z2 tables
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(algorithm_to_json(random_algorithm(4, cyclic(3), 1, 1, 5))))
    argv = ["audit", "--gen", "parity", "--n", "4", "--alg", str(path), "--accept", "0"]
    assert main(argv) == EXIT_USAGE
    assert "group" in capsys.readouterr().err


def test_audit_with_undefined_ratio_is_usage_error(tmp_path, capsys):
    # an empty accept set has mass 0, so the ratio is undefined: no claim
    # was checked, so this is not a falsification and no report is written
    path = tmp_path / "a.json"
    path.write_text(json.dumps(algorithm_to_json(random_algorithm(4, cyclic(2), 1, 1, 7))))
    argv = ["audit", "--gen", "parity", "--n", "4", "--alg", str(path), "--accept", ","]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: accept mass 0.000e+00 is at most EPS_COND")


def test_emit_refuses_non_finite_numbers(tmp_path, capsys):
    out = tmp_path / "r.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _emit({"result": {"lhs": value}}, str(out))
        with pytest.raises(ValueError):
            _emit({"result": {"lhs": value}}, None)
    assert not out.exists() and capsys.readouterr().out == ""


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


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--seed", "-1"],
        ["check-quantum", "--gen", "parity", "--n", "2", "--queries", "1", "--seed", "-3"],
        # criteria that draw nothing, or draw from seed + n, refuse it too
        ["reproduce", "--only", "degree-bound", "--seed", "-2"],
        ["reproduce", "--only", "shamir", "--seed", "-2"],
        ["reproduce", "--only", "parity-classical", "--seed", "-2"],
    ],
)
def test_negative_seed_is_named(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: seed must be a non-negative integer, got {argv[-1]}"]


@pytest.mark.parametrize("z_dim, code", [(0, EXIT_USAGE), (1, EXIT_OK)])
def test_check_quantum_z_dim_boundary(z_dim, code, capsys):
    argv = ["check-quantum", "--gen", "parity", "--n", "4", "--queries", "1", "--trials", "2",
            "--z-dim", str(z_dim)]
    assert main(argv) == code
    if code == EXIT_USAGE:
        assert capsys.readouterr().err.strip() == "error: z_dim must be >= 1, got 0"


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
    # shamir-7-2 has 6 points and m = 2: the search alternates the ends of
    # the bracket, witnesses at 6, 5, 4 and 3 and useless scans at 1 and 2
    scanned = []
    kernel = useless._first_violation

    def counting_kernel(problem, width):
        scanned.append(width)
        return kernel(problem, width)

    monkeypatch.setattr(useless, "_first_violation", counting_kernel)
    out = tmp_path / "b.json"
    argv = ["bound", "--gen", "shamir", "--p", "7", "--degree", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert scanned == [6, 1, 5, 2, 4, 3]
    monkeypatch.undo()
    result = _read_report(out)["result"]
    assert result["quantum_lower_bound"] == useless.quantum_lower_bound(make_shamir(7, 2))


@pytest.mark.parametrize(
    "gen, m",
    [(["--gen", "parity", "--n", "17"], 16), (["--gen", "shamir", "--p", "157", "--degree", "1"], 1)],
    ids=["parity-17", "shamir-157-1"],
)
def test_bound_answers_classes_whose_upward_scan_passes_the_ceiling(tmp_path, gen, m):
    # the upward scan reads 4.4 * 10^9 cells on parity-17; shamir-157-1's
    # k = 2 could read 6 * 10^8 but finds its witness at the first point-set
    out = tmp_path / "b.json"
    assert main(["bound", *gen, "--out", str(out)]) == EXIT_OK
    result = _read_report(out)["result"]
    assert (result["max_useless_k"], result["quantum_lower_bound"]) == (m, m // 2 + 1)


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
    state = per_entry_matrix(_read_report(out)["result"]["final_state"])
    # Deutsch's kickback state and parity projectors, written out densely
    psi = np.kron([1, 1], [1, -1]) / 2
    povm = [np.diag([1, 1, 0, 0]), np.diag([0, 0, 1, 1])]
    rho, _ = dense_run(deutsch(), (0, 1), np.outer(psi, psi), povm)
    assert np.abs(state - rho).max() < 1e-12


def test_compile_certificate_simulates_the_cube_once(tmp_path, monkeypatch):
    simulated = []
    simulate = polycompile.run

    def counting_run(alg, tables):
        simulated.append(len(tables))
        return simulate(alg, tables)

    transformed = []
    transform = polycompile.walsh_hadamard

    def counting_transform(values):
        transformed.append(len(values))
        return transform(values)

    monkeypatch.setattr(polycompile, "run", counting_run)
    monkeypatch.setattr(polycompile, "walsh_hadamard", counting_transform)
    data = algorithm_to_json(random_algorithm(4, cyclic(2), 1, 1, seed=11))
    alg_path, out, cert = tmp_path / "alg.json", tmp_path / "c.json", tmp_path / "cert.csv"
    alg_path.write_text(json.dumps(data))
    accept = [0, 2, 5]
    argv = ["compile", "--alg", str(alg_path), "--accept", "0,2,5", "--out", str(out),
            "--certificate", str(cert)]
    assert main(argv) == EXIT_OK
    assert simulated == [16]
    assert transformed == [16, 16]  # one in to_fourier, one for the sampler's output_probs
    simulated.clear()
    reproduce._bias_identity(reproduce.BundleRun(7))
    assert simulated == [4, 8]  # one stacked run per cube of the pool, n = 2 and 3

    # every row against dense conjugation of the JSON's own rho0 and POVM
    compiled = _read_report(out)["result"]
    assert not compiled["degenerate"]
    sampler = compiled_from_json(compiled)
    alg = algorithm_from_json(data)
    rho0 = per_entry_matrix(data["rho0"])
    povm = [per_entry_matrix(e) for e in data["povm"]]
    with open(cert) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["f", "p_quantum", "p_classical", "residual"]
    assert len(rows) == 17
    for mask, (f, p_q, p_c, residual) in enumerate(rows[1:]):
        bits = [mask >> i & 1 for i in range(4)]
        assert f == "".join(map(str, bits))
        p_dense = dense_run(alg, bits, rho0, povm)[1][accept].sum()
        p_sampler = naive_output_prob(sampler, bits)
        assert abs(float(p_q) - p_dense) < 1e-12
        assert abs(float(p_c) - p_sampler) < 1e-12
        expected = (p_dense - 0.5) / compiled["T"] + 0.5
        assert abs(float(residual) - (p_sampler - expected)) < 1e-12


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


def test_seed_env_variable_is_ignored(monkeypatch, capsys, tmp_path):
    # --seed is the only way to set the seed; it defaults to reproduce.DEFAULT_SEED
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
    assert _read_report(out)["header"]["config"]["seed"] == 20100325
