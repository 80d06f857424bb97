"""Command-line entry point for generators, checkers, simulator and compiler.

Every run emits a JSON report whose only nondeterministic field is the
timestamp, isolated in the header; identical configuration and seed give
byte-identical payloads. Exit codes: 0 when the checked claim holds, 1
when it is falsified (the report carries a witness), 2 on usage or
capacity errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .errors import CapacityError
from .gallery import entries as gallery_entries
from .polycompile import (
    AUDIT_TOL,
    acceptance_polynomial,
    classical_output_prob,
    compile_classical,
    compiled_to_json,
    corollary5_audit,
)
from .problems import (
    make_image_parity,
    make_parity,
    make_shamir,
    problem_from_json,
    problem_to_json,
)
from .qsim import EPS_COND, algorithm_from_json, algorithm_to_json, run
from .reproduce import DEFAULT_SEED, format_table, run_all
from .useless import (
    CSV_HEADER,
    FALSIFY_TOL,
    VERDICT_NOT_USELESS,
    classical_useless,
    max_useless_k,
    quantum_useless_falsify,
)

SEED_ENV = "ORACLELAB_SEED"

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV, DEFAULT_SEED))


def _report(config: dict, result: dict, tolerances: dict | None = None) -> dict:
    return {
        "header": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "version": __version__,
            "config": config,
            "tolerances": tolerances or {},
        },
        "result": result,
    }


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(rows)


def _read_input(path: str, decode):
    """Decode a --problem or --alg file, bare or under a CLI report's "result"."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "header" in data and "result" in data:
        data = data["result"]
    if not isinstance(data, dict):
        raise ValueError(f"{path}: malformed input: expected a JSON object")
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: malformed input: {exc!r}") from exc


def _load_problem(args) -> tuple:
    """Problem from --problem JSON or from --gen plus its parameters."""
    if getattr(args, "problem", None):
        name = os.path.splitext(os.path.basename(args.problem))[0]
        problem = _read_input(args.problem, lambda data: problem_from_json(data, name=name))
        config = {"problem": args.problem}
    elif getattr(args, "gen", None):
        if args.gen == "parity":
            if args.n is None:
                raise ValueError("--gen parity requires --n")
            problem = make_parity(args.n)
            params = {"n": args.n}
        elif args.gen == "shamir":
            if args.p is None or args.k_degree is None:
                raise ValueError("--gen shamir requires --p and --degree")
            problem = make_shamir(args.p, args.k_degree)
            params = {"p": args.p, "k": args.k_degree}
        else:
            problem = make_image_parity()
            params = {}
        config = {"gen": args.gen, **params}
    else:
        raise ValueError("provide --problem FILE or --gen NAME")
    return problem, config


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", help="path to a problem JSON file")
    parser.add_argument(
        "--gen", choices=["parity", "image-parity", "shamir"], help="built-in generator"
    )
    parser.add_argument("--n", type=int, help="parity: number of points")
    parser.add_argument("--p", type=int, help="shamir: field prime")
    parser.add_argument(
        "--degree", dest="k_degree", type=int, help="shamir: polynomial degree"
    )


def _parse_accept(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclelab",
        description="simulate k-query oracle algorithms and certify query uselessness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("problem", help="generate a problem and dump its JSON")
    _add_problem_args(p)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("check-classical", help="decide k-query uselessness exactly")
    _add_problem_args(p)
    p.add_argument("--k", type=int, required=True, help="number of classical queries")
    p.add_argument("--out")
    p.add_argument("--csv", help="also append the verdict as a CSV row")

    p = sub.add_parser("check-quantum", help="falsify quantum uselessness by sampling")
    _add_problem_args(p)
    p.add_argument("--queries", type=int, required=True, help="oracle calls per algorithm")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--z-dim", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--csv")

    p = sub.add_parser("bound", help="quantum query lower bound from the classical scan")
    _add_problem_args(p)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="run an algorithm on one oracle table")
    p.add_argument("--alg", required=True, help="path to an algorithm JSON file")
    p.add_argument("--oracle", required=True, help="comma-separated table values")
    p.add_argument("--state", action="store_true", help="include the final state")
    p.add_argument("--out")

    p = sub.add_parser("compile", help="compile a Boolean-oracle algorithm classically")
    p.add_argument("--alg", required=True)
    p.add_argument("--accept", required=True, help="comma-separated accept outcomes")
    p.add_argument("--out")
    p.add_argument("--certificate", help="CSV of per-table bias residuals")

    p = sub.add_parser("audit", help="check the accept-mass ratio identity")
    _add_problem_args(p)
    p.add_argument("--alg", required=True)
    p.add_argument("--accept", required=True)
    p.add_argument("--out")

    p = sub.add_parser("gallery", help="list or emit named algorithms")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("--name", help="entry name for emit")
    p.add_argument("--out")

    p = sub.add_parser("reproduce", help="run the full verification bundle")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--only", help="run only criteria whose tag contains this")
    p.add_argument("--out")

    return parser


def _cmd_problem(args) -> int:
    problem, config = _load_problem(args)
    _emit(_report(config, problem_to_json(problem)), args.out)
    return EXIT_OK


def _cmd_check_classical(args) -> int:
    problem, config = _load_problem(args)
    config["k"] = args.k
    report = classical_useless(problem, args.k)
    _emit(_report(config, asdict(report)), args.out)
    if args.csv:
        _write_csv(args.csv, [CSV_HEADER, report.csv_row()])
    return EXIT_FALSIFIED if report.verdict == VERDICT_NOT_USELESS else EXIT_OK


def _cmd_check_quantum(args) -> int:
    problem, config = _load_problem(args)
    seed = args.seed if args.seed is not None else _default_seed()
    config.update(
        {"queries": args.queries, "trials": args.trials, "seed": seed, "z_dim": args.z_dim}
    )
    report = quantum_useless_falsify(
        problem,
        queries=args.queries,
        trials=args.trials,
        seed=seed,
        z_dim=args.z_dim,
    )
    result = asdict(report)
    try:
        m = max_useless_k(problem)
        result["classical_certificate"] = {
            "max_useless_k": m,
            "proves_quantum_useless_up_to": m // 2,
            "covers_this_check": args.queries <= m // 2,
        }
    except CapacityError as exc:
        result["classical_certificate"] = {"skipped": str(exc)}
    _emit(_report(config, result, {"tol": FALSIFY_TOL, "eps_cond": EPS_COND}), args.out)
    if args.csv:
        _write_csv(args.csv, [CSV_HEADER, report.csv_row()])
    return EXIT_FALSIFIED if report.verdict == VERDICT_NOT_USELESS else EXIT_OK


def _cmd_bound(args) -> int:
    problem, config = _load_problem(args)
    m = max_useless_k(problem)
    # quantum_lower_bound's formula on the scan already made, not a second scan
    result = {"problem": problem.name, "max_useless_k": m, "quantum_lower_bound": m // 2 + 1}
    _emit(_report(config, result), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    alg = _read_input(args.alg, algorithm_from_json)
    table = [int(tok) for tok in args.oracle.split(",")]
    result_obj = run(alg, [table])
    result = {
        "oracle": table,
        "outcome_probs": [float(p) for p in result_obj.outcome_probs[0]],
        "outcome_labels": None
        if alg.outcome_labels is None
        else {str(s): j for s, j in alg.outcome_labels.items()},
    }
    if args.state:
        from .algebra import matrix_to_json

        result["final_state"] = matrix_to_json(result_obj.final_states[0])
    _emit(_report({"alg": args.alg, "oracle": args.oracle}, result), args.out)
    return EXIT_OK


def _cmd_compile(args) -> int:
    alg = _read_input(args.alg, algorithm_from_json)
    accept = _parse_accept(args.accept)
    compiled = compile_classical(alg, accept)
    _emit(
        _report({"alg": args.alg, "accept": accept}, compiled_to_json(compiled)), args.out
    )
    if args.certificate:
        poly = acceptance_polynomial(alg, accept)
        values = poly.values_on_cube()
        rows = [["f", "p_quantum", "p_classical", "residual"]]
        for mask in range(1 << compiled.n):
            bits = [mask >> i & 1 for i in range(compiled.n)]
            p_q = float(values[mask])
            p_c = classical_output_prob(compiled, bits)
            expected = 0.5 if compiled.degenerate else (p_q - 0.5) / compiled.scale + 0.5
            rows.append(
                ["".join(map(str, bits)), repr(p_q), repr(p_c), repr(p_c - expected)]
            )
        _write_csv(args.certificate, rows)
    return EXIT_OK


def _cmd_audit(args) -> int:
    problem, config = _load_problem(args)
    alg = _read_input(args.alg, algorithm_from_json)
    accept = _parse_accept(args.accept)
    report = corollary5_audit(problem, alg, accept)
    config.update({"alg": args.alg, "accept": accept})
    _emit(_report(config, asdict(report), {"tol": AUDIT_TOL}), args.out)
    hypothesis_and_identity_broken = (
        report.classical_useless_2k is True and not report.identity_holds
    )
    return EXIT_FALSIFIED if hypothesis_and_identity_broken else EXIT_OK


def _cmd_gallery(args) -> int:
    catalog = gallery_entries()
    if args.action == "list":
        result = {
            name: {
                "parameters": entry.parameters,
                "queries": entry.algorithm.query_count,
                "claimed_success": entry.claimed_success,
            }
            for name, entry in catalog.items()
        }
        _emit(_report({"action": "list"}, result), args.out)
        return EXIT_OK
    if not args.name or args.name not in catalog:
        raise ValueError(f"--name must be one of {sorted(catalog)}")
    _emit(
        _report(
            {"action": "emit", "name": args.name},
            algorithm_to_json(catalog[args.name].algorithm),
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    payload = run_all(seed=seed, only=args.only)
    print(format_table(payload))
    if args.out:
        _emit(_report({"seed": seed, "only": args.only}, payload), args.out)
    return EXIT_OK if payload["all_pass"] else EXIT_FALSIFIED


_COMMANDS = {
    "problem": _cmd_problem,
    "check-classical": _cmd_check_classical,
    "check-quantum": _cmd_check_quantum,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "compile": _cmd_compile,
    "audit": _cmd_audit,
    "gallery": _cmd_gallery,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CapacityError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
