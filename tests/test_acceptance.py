"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Seeds are fixed so the whole gate is reproducible byte for byte.
"""

import dataclasses
import functools
import hashlib
import importlib
import json
import pkgutil
from collections import Counter
from fractions import Fraction
from itertools import combinations, count

import numpy as np
import pytest

import oraclelab
from oraclelab import polycompile, qsim, reproduce, useless
from oraclelab.gallery import deutsch, pairwise_parity, parity_with_padding
from oraclelab.polycompile import (
    acceptance_polynomial,
    classical_output_prob,
    compile_classical,
    corollary5_audit,
    to_fourier,
)
from oraclelab.problems import (
    make_image_parity,
    make_parity,
    make_shamir,
    shamir_reconstruct,
)
from oraclelab.qsim import random_algorithm, success_probability, trial_seeds
from oraclelab.reproduce import run_all
from oraclelab.useless import (
    classical_useless,
    lemma_check,
    max_useless_k,
    quantum_lower_bound,
    quantum_useless_falsify,
)
from reference import one_seed_draw

SEED = 20100325
TRIALS = 50


def _verdict(cid: int, ok: bool, detail: str) -> None:
    print(f"criterion {cid:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_parity_classical_uselessness():
    observed = {n: max_useless_k(make_parity(n)) for n in (2, 3, 4, 5)}
    ok = all(observed[n] == n - 1 for n in observed)
    _verdict(1, ok, f"parity max useless k by N: {observed} (want N-1)")


def test_criterion_2_parity_quantum_uselessness():
    problem = make_parity(4)
    report = quantum_useless_falsify(problem, queries=1, trials=TRIALS, seed=SEED)
    lemma_worst = max(
        lemma_check(problem, random_algorithm(4, problem.group, 1, 1, s))
        for s in trial_seeds(SEED, TRIALS)
    )
    ok = report.max_deviation < 1e-8 and lemma_worst < 1e-9
    _verdict(
        2,
        ok,
        f"parity-4, q=1, {TRIALS} trials: posterior dev {report.max_deviation:.3e} "
        f"(< 1e-8), mixture dev {lemma_worst:.3e} (< 1e-9)",
    )


def test_criterion_3_parity_upper_bound():
    pieces = []
    ok = True
    for n in range(2, 7):
        problem, alg = parity_with_padding(n) if n % 2 else (make_parity(n), pairwise_parity(n))
        s = success_probability(alg, problem)
        ok = ok and abs(s - 1) <= 1e-9 and alg.query_count == (n + 1) // 2
        pieces.append(f"N={n}: {s:.10f} with {alg.query_count} queries")
    s = success_probability(deutsch(), make_parity(2))
    ok = ok and abs(s - 1) <= 1e-9
    pieces.append(f"deutsch: {s:.10f}")
    _verdict(3, ok, "; ".join(pieces))


def test_criterion_4_one_fewer_query_barrier():
    problem = make_parity(4)
    worst = max(
        abs(
            success_probability(
                random_algorithm(4, problem.group, 1, 1, s, labels_cycle=(0, 1)), problem
            )
            - 0.5
        )
        for s in trial_seeds(SEED, TRIALS)
    )
    _verdict(4, worst < 1e-8, f"parity-4, q=1, {TRIALS} trials: max |success - 1/2| = {worst:.3e}")


def test_criterion_5_image_parity():
    problem = make_image_parity()
    prior_even = problem.part_prior()[0]
    classical = classical_useless(problem, 2)
    falsify = quantum_useless_falsify(problem, queries=1, trials=TRIALS, seed=SEED)
    ok = (
        prior_even == Fraction(2, 3)
        and classical.verdict == "useless"
        and falsify.max_deviation < 1e-8
    )
    _verdict(
        5,
        ok,
        f"prior(even) = {prior_even}, k=2 verdict {classical.verdict}, "
        f"q=1 dev {falsify.max_deviation:.3e}",
    )


def test_criterion_6_shamir():
    pieces = []
    ok = True
    for p, k in ((3, 1), (5, 1), (5, 2)):
        problem = make_shamir(p, k)
        m = max_useless_k(problem)
        bound = quantum_lower_bound(problem)
        recon_failures = 0
        for f, secret in zip(problem.functions, problem.labels):
            for xs in combinations(range(1, p), k + 1):
                shares = [(x, f[x - 1]) for x in xs]
                if shamir_reconstruct(p, k, shares) != secret:
                    recon_failures += 1
        ok = ok and m == k and bound == k // 2 + 1 and recon_failures == 0
        pieces.append(
            f"(p={p},k={k}): useless up to {m}, bound {bound}, "
            f"{recon_failures} reconstruction failures"
        )
    _verdict(6, ok, "; ".join(pieces))


def _compile_pool():
    pool = []
    for n in (2, 3):
        group = make_parity(n).group
        for s in trial_seeds(SEED + n, 20):
            pool.append((n, random_algorithm(n, group, 1, 1, s)))
    return pool


def _accept(alg):
    return [s for s in range(alg.n_outcomes) if s % 2 == 0]


def test_criterion_7_degree_bound():
    worst = 0.0
    for n, alg in _compile_pool():
        qhat = to_fourier(acceptance_polynomial(alg, _accept(alg)))
        for mask in range(1 << n):
            if bin(mask).count("1") > 2:
                worst = max(worst, abs(float(qhat[mask])))
    _verdict(7, worst < 1e-8, f"40 one-query algorithms: max coefficient beyond degree 2 = {worst:.3e}")


def test_criterion_8_bias_identity():
    worst_bias = 0.0
    worst_norm = 0.0
    largest_subset = 0
    for n, alg in _compile_pool():
        accept = _accept(alg)
        poly = acceptance_polynomial(alg, accept)
        compiled = compile_classical(alg, accept)
        values = poly.values_on_cube()
        if not compiled.degenerate:
            worst_norm = max(worst_norm, abs(sum(t[1] for t in compiled.terms) - 1))
            largest_subset = max(largest_subset, compiled.max_queries)
        for mask in range(1 << n):
            bits = [mask >> i & 1 for i in range(n)]
            got = classical_output_prob(compiled, bits)
            expected = (
                0.5 if compiled.degenerate else (float(values[mask]) - 0.5) / compiled.scale + 0.5
            )
            worst_bias = max(worst_bias, abs(got - expected))
    ok = worst_bias < 1e-9 and worst_norm < 1e-10 and largest_subset <= 2
    _verdict(
        8,
        ok,
        f"bias residual {worst_bias:.3e} (< 1e-9), probability norm residual "
        f"{worst_norm:.3e} (< 1e-10), largest subset {largest_subset} (<= 2)",
    )


def test_criterion_9_ratio_audit():
    problem = make_parity(4)
    worst = 0.0
    for s in trial_seeds(SEED, 20):
        alg = random_algorithm(4, problem.group, 1, 1, s)
        report = corollary5_audit(problem, alg, _accept(alg), check_classical=False)
        assert report.defined
        worst = max(worst, report.deviation)
    violation = corollary5_audit(make_parity(2), deutsch(), [0])
    ok = (
        worst < 1e-8
        and violation.classical_useless_2k is False
        and not violation.identity_holds
    )
    _verdict(
        9,
        ok,
        f"parity-4 ratio deviation {worst:.3e} (< 1e-8); parity-2 audit flags "
        f"violation (lhs {violation.lhs:.3f} vs rhs {violation.rhs:.3f})",
    )


def test_criterion_9_fails_when_every_ratio_is_undefined(monkeypatch):
    # an empty accept set has accept mass 0, where the ratio is undefined and
    # certifies nothing; twenty such audits must fail the row, not pass it
    monkeypatch.setattr(reproduce, "_accept_set", lambda alg: [])
    row = reproduce._ratio_audit(reproduce.BundleRun(SEED))
    assert not row["pass"]
    assert "max deviation inf" in row["observed"]


def test_criterion_10_reproduce_determinism():
    first = run_all(seed=SEED)
    second = run_all(seed=SEED)
    # run_all stamps each row with its id and tag from CRITERIA
    assert [(r["id"], r["tag"]) for r in first["criteria"]] == [c[:2] for c in reproduce.CRITERIA]
    assert {type(r["pass"]) for r in first["criteria"]} == {bool}
    same = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    ok = same and first["all_pass"]
    _verdict(
        10,
        ok,
        f"two full bundles identical: {same}; all criteria pass inside the bundle: "
        f"{first['all_pass']}",
    )


@pytest.mark.parametrize("only", [None, "determinism"])
def test_criterion_10_fails_when_a_rerun_diverges(monkeypatch, only):
    # criterion 10 compares its rerun with the bundle's row (or, run alone,
    # with a row it made first), so a row that changes between calls fails it
    calls = count(1)
    parity_quantum = reproduce._parity_quantum

    def drifting(bundle):
        return {**parity_quantum(bundle), "observed": f"call {next(calls)}"}

    monkeypatch.setattr(reproduce, "_parity_quantum", drifting)
    payload = run_all(seed=SEED, only=only)
    row = payload["criteria"][-1]
    assert row["id"] == 10
    assert row["observed"] == "divergent"
    assert not row["pass"] and not payload["all_pass"]


@pytest.mark.parametrize("only", [None, "determinism"])
def test_criterion_10_rerun_draws_its_own_algorithms(monkeypatch, only):
    # the rerun draws on a fresh run of the seed, not from the bundle's draws:
    # from the 51st draw on, the drifting draw never shows an even outcome, so
    # the rerun's ratio audit accepts nothing and its row diverges
    drawn = [0]
    draw = reproduce.random_algorithm

    def drifting(*args, **kwargs):
        batch = draw(*args, **kwargs)
        first, drawn[0] = drawn[0], drawn[0] + len(batch)
        if first < 50:  # every batch drawn ends at a multiple of 50 or below it
            return batch
        shape = (len(batch), batch.dim)
        blind = ((0, batch.dim), np.broadcast_to(np.eye(batch.dim), (*shape, batch.dim)))
        return dataclasses.replace(batch, povm=blind, outcome_labels=None)

    monkeypatch.setattr(reproduce, "random_algorithm", drifting)
    payload = run_all(seed=SEED, only=only)
    row = payload["criteria"][-1]
    assert row["id"] == 10 and row["observed"] == "divergent"


@pytest.mark.parametrize("only", [None, "determinism"])
def test_criterion_10_sees_a_change_of_draws(monkeypatch, only):
    # every draw from the 51st on comes from a shifted seed, so the rerun's
    # algorithms all differ from the bundle's while their printed deviations
    # stay at roundoff; the digests in rows 2 and 9 show the change
    calls = count()
    draw = reproduce.random_algorithm

    def shifted(x_dim, group, z_dim, queries, seeds, **kwargs):
        seeds = [seed + next(calls) // 50 for seed in seeds]
        return draw(x_dim, group, z_dim, queries, seeds, **kwargs)

    monkeypatch.setattr(reproduce, "random_algorithm", shifted)
    payload = run_all(seed=SEED, only=only)
    digested = [row["id"] for row in payload["criteria"] if "draws_sha256" in row]
    assert digested == ([2, 9] if only is None else [])
    row = payload["criteria"][-1]
    assert row["id"] == 10 and row["observed"] == "divergent" and not payload["all_pass"]


def test_draw_digests_hash_the_one_seed_draws():
    # rows 2 and 9 digest the first 50 and 20 labelled parity-4 draws (d = 8,
    # one query), each algorithm's arrays in draw order, as one_seed_draw
    # gives them one seed at a time
    rows = {row["id"]: row for row in run_all(seed=reproduce.DEFAULT_SEED)["criteria"]}
    for cid, trials in ((2, TRIALS), (9, reproduce.COMPILE_TRIALS)):
        digest = hashlib.sha256()
        for seed in trial_seeds(reproduce.DEFAULT_SEED, trials):
            for array in one_seed_draw(8, 1, seed):
                digest.update(array.tobytes())
        assert rows[cid]["draws_sha256"] == digest.hexdigest()[:16]


_COUNTED = {
    "random_algorithm": qsim,
    "run": qsim,
    "acceptance_polynomial": polycompile,
    "max_useless_k": useless,
}


def _count_calls(monkeypatch, *names):
    """Count calls of the named functions (keys of ``_COUNTED``) through
    every binding in the package, and the algorithms ``random_algorithm``
    draws, as "drawn"."""
    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "random_algorithm":
                calls["drawn"] += len(result)
            return result

        return wrapper

    submodules = [m.name for m in pkgutil.iter_modules(oraclelab.__path__) if m.name != "__main__"]
    modules = [oraclelab, *(importlib.import_module(f"oraclelab.{m}") for m in submodules)]
    for name in names:
        fn = getattr(_COUNTED[name], name)
        wrapper = counting(name, fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize(
    "only, expected",
    [
        (
            None,
            {"drawn": 190, "random_algorithm": 5, "run": 18, "acceptance_polynomial": 2,
             "max_useless_k": 11},
        ),
        ("parity-quantum", {"drawn": 50, "random_algorithm": 1, "run": 2}),
        ("determinism", {"drawn": 100, "random_algorithm": 2, "run": 8}),
        ("ratio-audit", {"drawn": 50, "random_algorithm": 1, "run": 2}),
        ("parity", {"drawn": 100, "random_algorithm": 2, "run": 10}),
        ("shamir", {"max_useless_k": 3}),
        ("d", {"drawn": 140, "random_algorithm": 4, "run": 10}),
    ],
)
def test_reproduce_builds_each_algorithm_once(monkeypatch, only, expected):
    # criteria 2, 4 and 9 share one whole draw of 50 parity-4 algorithms, even
    # when criterion 9 runs first, and criteria 7 and 8 one set of simulated
    # cubes; criterion 10 reruns criteria 1, 2 and 9 once on a fresh draw, and
    # criterion 6 scans each Shamir problem once. Each criterion simulates its
    # algorithms as one batch per shape.
    calls = _count_calls(monkeypatch, *_COUNTED)
    assert run_all(only=only)["all_pass"]
    assert {name: calls[name] for name in expected} == expected
