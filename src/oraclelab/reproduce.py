"""One-shot verification bundle: every headline claim at its tolerance.

Each criterion is a function of one :class:`BundleRun`, deterministic in
its seed, returning a row {claim, expected, observed, pass}; ``run_all``
stamps it with the criterion's id and tag from ``CRITERIA``. The bundle is
a deterministic JSON payload plus a printable table. The CLI `reproduce`
subcommand wraps this module.

A run draws each random input once, whole, on first use, and its criteria
share it: criteria 2 and 4 read one batch of 50 labelled 1-query parity-4
algorithms and criterion 9 a view of its first 20; criteria 7 and 8 read
one batch of 20 Boolean-oracle algorithms per n = 2, 3 with their
acceptance polynomials. Criterion 10 reruns criteria 1, 2 and 9 on a
fresh run of the same seed, so the rerun draws again; rows 2 and 9 carry
a digest of the algorithms they read, so a change of draws shows there
even when the printed deviations agree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable

import numpy as np

from .algebra import cyclic
from .gallery import deutsch, pairwise_parity, parity_with_padding
from .polycompile import (
    MultilinearPolynomial,
    acceptance_polynomial,
    bias_certificate,
    compile_polynomial,
    corollary5_audit,
    to_fourier,
)
from .problems import make_image_parity, make_parity, make_shamir, shamir_reconstruct
from .qsim import QuantumAlgorithm, random_algorithm, success_probability, trial_seeds
from .useless import (
    VERDICT_USELESS,
    classical_useless,
    lemma_check,
    max_useless_k,
    quantum_useless_falsify,
    quantum_useless_up_to,
)

DEFAULT_SEED = 20100325
DEFAULT_TRIALS = 50
COMPILE_TRIALS = 20


@dataclass
class BundleRun:
    """One run of the bundle: its seed, the rows made so far, and the random
    inputs its criteria share, each drawn whole on first use."""

    seed: int
    rows: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        trial_seeds(self.seed, 0)  # refuses a negative seed before any criterion runs

    @cached_property
    def parity4(self) -> QuantumAlgorithm:
        """The 50 labelled 1-query parity-4 algorithms, one batch. Labels
        enter only success probabilities, so the criteria that need none
        read the same algorithms."""
        seeds = trial_seeds(self.seed, DEFAULT_TRIALS)
        return random_algorithm(4, cyclic(2), 1, 1, seeds, labels_cycle=(0, 1))

    @cached_property
    def compile_cubes(self) -> list[tuple[QuantumAlgorithm, MultilinearPolynomial]]:
        """Random 1-query Boolean-oracle algorithms on n = 2 and 3 points,
        with the acceptance polynomials of their even outcomes: one batch
        of each per n."""
        cubes = []
        for n in (2, 3):
            seeds = trial_seeds(self.seed + n, COMPILE_TRIALS)
            algs = random_algorithm(n, cyclic(2), 1, 1, seeds)
            cubes.append((algs, acceptance_polynomial(algs, _accept_set(algs))))
        return cubes


def _accept_set(alg) -> list[int]:
    return [s for s in range(alg.n_outcomes) if s % 2 == 0]


def _draws_sha256(algorithms: QuantumAlgorithm) -> str:
    """Short SHA-256 of each algorithm's factor arrays, in draw order: the
    state's weights and vectors, the unitaries and the POVM factor of each
    outcome, read as rows of the batch's arrays."""
    blocks = np.split(algorithms.povm[1], np.cumsum(algorithms.povm[0])[:-1], axis=-1)
    arrays = (*algorithms.state, algorithms.unitaries, *blocks)
    digest = hashlib.sha256()
    for a in range(len(algorithms)):
        for array in arrays:
            digest.update(array[a].tobytes())  # C order, whatever the strides
    return digest.hexdigest()[:16]


def _parity_classical(bundle: BundleRun) -> dict:
    observed = {n: max_useless_k(make_parity(n)) for n in (2, 3, 4, 5)}
    return {
        "claim": "parity of N bits: exactly N-1 classical queries are useless",
        "expected": "max useless k = N-1 for N in 2..5",
        "observed": ", ".join(f"N={n}: {m}" for n, m in observed.items()),
        "pass": all(m == n - 1 for n, m in observed.items()),
    }


def _parity_quantum(bundle: BundleRun) -> dict:
    problem = make_parity(4)
    algorithms = bundle.parity4
    report = quantum_useless_falsify(
        problem, 1, trials=0, seed=bundle.seed, extra_algorithms=(algorithms,)
    )
    lemma_max = float(lemma_check(problem, algorithms).max())
    ok = (
        report.verdict == VERDICT_USELESS
        and report.max_deviation < 1e-8
        and lemma_max < 1e-9
    )
    return {
        "claim": "parity of 4 bits: one quantum query shifts no posterior",
        "expected": "max |posterior - prior| < 1e-8 and state-mixture deviation < 1e-9 "
        "over 50 trials",
        "observed": f"posterior dev {report.max_deviation:.3e}, mixture dev {lemma_max:.3e}",
        "pass": ok,
        "draws_sha256": _draws_sha256(algorithms),
    }


def _parity_upper(bundle: BundleRun) -> dict:
    observed = []
    ok = True
    for n in range(2, 7):
        problem, alg = parity_with_padding(n) if n % 2 else (make_parity(n), pairwise_parity(n))
        s = success_probability(alg, problem)
        observed.append(f"N={n}: {s:.12f} in {alg.query_count} queries")
        ok = ok and abs(s - 1.0) <= 1e-9 and alg.query_count == (n + 1) // 2
    s_deutsch = success_probability(deutsch(), make_parity(2))
    observed.append(f"deutsch: {s_deutsch:.12f}")
    ok = ok and abs(s_deutsch - 1.0) <= 1e-9
    return {
        "claim": "pairwise kickback solves parity exactly with ceil(N/2) queries",
        "expected": "success probability 1 +/- 1e-9 for N in 2..6, odd N padded with a "
        "zero point",
        "observed": "; ".join(observed),
        "pass": ok,
    }


def _parity_barrier(bundle: BundleRun) -> dict:
    successes = success_probability(bundle.parity4, make_parity(4))
    worst = float(np.abs(successes - 0.5).max())
    return {
        "claim": "parity of 4 bits: every 1-query algorithm succeeds with probability 1/2",
        "expected": "|success - 1/2| < 1e-8 over 50 random algorithms",
        "observed": f"max |success - 1/2| = {worst:.3e}",
        "pass": worst < 1e-8,
    }


def _image_parity(bundle: BundleRun) -> dict:
    problem = make_image_parity()
    prior_even = problem.part_prior()[0]
    classical = classical_useless(problem, 2)
    falsify = quantum_useless_falsify(problem, queries=1, trials=DEFAULT_TRIALS, seed=bundle.seed)
    ok = (
        prior_even == Fraction(2, 3)
        and classical.verdict == VERDICT_USELESS
        and falsify.verdict == VERDICT_USELESS
        and falsify.max_deviation < 1e-8
    )
    return {
        "claim": "image-size parity over ternary tables: prior 2/3, two classical "
        "queries useless, one quantum query useless",
        "expected": "prior exactly 2/3; k=2 useless; quantum dev < 1e-8 over 50 trials",
        "observed": f"prior {prior_even}, k=2 {classical.verdict}, "
        f"quantum dev {falsify.max_deviation:.3e}",
        "pass": ok,
    }


def _shamir(bundle: BundleRun) -> dict:
    observed = []
    ok = True
    for p, k in ((3, 1), (5, 1), (5, 2)):
        problem = make_shamir(p, k)
        m = max_useless_k(problem)
        bound = quantum_useless_up_to(m) + 1
        recon_ok = True
        points = range(1, p)
        for f, secret in zip(problem.functions.tolist(), problem.labels.tolist()):
            for xs in combinations(points, k + 1):
                shares = [(x, f[x - 1]) for x in xs]
                if shamir_reconstruct(p, k, shares) != secret:
                    recon_ok = False
        observed.append(f"(p={p},k={k}): max useless {m}, bound {bound}, recon {recon_ok}")
        ok = ok and m == k and bound == k // 2 + 1 and recon_ok
    return {
        "claim": "threshold sharing by polynomials: k queries useless, k+1 shares "
        "recover the secret, quantum bound floor(k/2)+1",
        "expected": "max useless = k; all share sets reconstruct; bound = floor(k/2)+1",
        "observed": "; ".join(observed),
        "pass": ok,
    }


def _degree_bound(bundle: BundleRun) -> dict:
    worst = 0.0
    for _, polys in bundle.compile_cubes:
        stray = to_fourier(polys)[:, np.bitwise_count(np.arange(1 << polys.n)) > 2]
        worst = max(worst, np.abs(stray).max(initial=0.0))
    return {
        "claim": "1-query acceptance polynomials have degree at most 2",
        "expected": "every character coefficient on |S| > 2 below 1e-8",
        "observed": f"max stray coefficient {worst:.3e}",
        "pass": bool(worst < 1e-8),
    }


def _bias_identity(bundle: BundleRun) -> dict:
    worst_bias = 0.0
    worst_norm = 0.0
    max_subset = 0
    for algs, polys in bundle.compile_cubes:
        for coeffs in polys.coeffs:
            poly = MultilinearPolynomial(polys.n, coeffs)
            compiled = compile_polynomial(poly, algs.query_count)
            if not compiled.degenerate:
                worst_norm = max(worst_norm, abs(sum(t[1] for t in compiled.terms) - 1.0))
                max_subset = max(max_subset, compiled.max_queries)
            for *_, residual in bias_certificate(compiled, poly):
                worst_bias = max(worst_bias, abs(residual))
    ok = worst_bias < 1e-9 and worst_norm < 1e-10 and max_subset <= 2
    return {
        "claim": "compiled samplers scale the acceptance bias by exactly 1/T",
        "expected": "identity within 1e-9 on every table; probabilities sum to 1 within "
        "1e-10; subsets of size <= 2",
        "observed": f"bias residual {worst_bias:.3e}, norm residual {worst_norm:.3e}, "
        f"largest subset {max_subset}",
        "pass": ok,
    }


def _ratio_audit(bundle: BundleRun) -> dict:
    problem = make_parity(4)
    algorithms = bundle.parity4[:COMPILE_TRIALS]
    reports = corollary5_audit(problem, algorithms, _accept_set(algorithms), check_classical=False)
    # an undefined ratio certifies nothing, so it fails the row
    worst = max(r.deviation if r.defined else float("inf") for r in reports)
    deutsch_report = corollary5_audit(make_parity(2), deutsch(), [0])
    ok = (
        worst < 1e-8
        and not deutsch_report.identity_holds
        and deutsch_report.classical_useless_2k is False
    )
    return {
        "claim": "accept-mass ratio equals the part prior when twice the query count "
        "is classically useless, and is violated otherwise",
        "expected": "parity-4 ratio within 1e-8 of 1/2 over 20 algorithms; parity-2 with "
        "the one-query solver violates",
        "observed": f"parity-4 max deviation {worst:.3e}; parity-2 lhs "
        f"{deutsch_report.lhs:.3f} vs rhs {deutsch_report.rhs:.3f}",
        "pass": ok,
        "draws_sha256": _draws_sha256(algorithms),
    }


def _determinism(bundle: BundleRun) -> dict:
    """Compare the bundle's rows of criteria 1, 2 and 9 with a rerun on a
    fresh run of the same seed, which draws its inputs again; a row the
    bundle has not made is made first."""
    reruns = {1: _parity_classical, 2: _parity_quantum, 9: _ratio_audit}
    made = [bundle.rows.get(cid) or fn(bundle) for cid, fn in reruns.items()]
    fresh = BundleRun(bundle.seed)
    first = json.dumps(made, sort_keys=True)
    second = json.dumps([fn(fresh) for fn in reruns.values()], sort_keys=True)
    return {
        "claim": "identical seed and configuration give identical reports",
        "expected": "two in-process repeats serialize byte-identically",
        "observed": "identical" if first == second else "divergent",
        "pass": first == second,
    }


# The traced benchmark wraps these entries in place, so run_all calls every
# criterion through this list and criterion 10 calls its reruns directly.
CRITERIA: list[tuple[int, str, Callable[[BundleRun], dict]]] = [
    (1, "parity-classical", _parity_classical),
    (2, "parity-quantum", _parity_quantum),
    (3, "parity-upper", _parity_upper),
    (4, "parity-barrier", _parity_barrier),
    (5, "image-parity", _image_parity),
    (6, "shamir", _shamir),
    (7, "degree-bound", _degree_bound),
    (8, "bias-identity", _bias_identity),
    (9, "ratio-audit", _ratio_audit),
    (10, "determinism", _determinism),
]


def run_all(seed: int = DEFAULT_SEED, only: str | None = None) -> dict:
    """Run the criteria (optionally filtered by tag substring) and bundle rows."""
    bundle = BundleRun(seed)
    rows = []
    for cid, tag, criterion in CRITERIA:
        if not only or only in tag or only == str(cid):
            bundle.rows[cid] = criterion(bundle)
            rows.append({"id": cid, "tag": tag, **bundle.rows[cid]})
    if not rows:
        tags = ", ".join(tag for _, tag, _ in CRITERIA)
        raise ValueError(f"--only {only!r} matches no criterion id or tag; tags: {tags}")
    return {
        "seed": seed,
        "only": only,
        "criteria": rows,
        "all_pass": all(r["pass"] for r in rows),
    }


def format_table(payload: dict) -> str:
    lines = [f"{'id':>3}  {'status':6}  claim / observed"]
    for row in payload["criteria"]:
        status = "PASS" if row["pass"] else "FAIL"
        lines.append(f"{row['id']:>3}  {status:6}  {row['claim']}")
        lines.append(f"{'':3}  {'':6}  expected: {row['expected']}")
        lines.append(f"{'':3}  {'':6}  observed: {row['observed']}")
    lines.append(
        f"summary: {sum(r['pass'] for r in payload['criteria'])}"
        f"/{len(payload['criteria'])} criteria pass"
    )
    return "\n".join(lines)
