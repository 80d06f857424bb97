"""Uselessness certification and query lower bounds.

Classical verdicts are exact: on each point-set of the query budget's
size the checker groups the class by its restricted table and compares
each part's share of every group with its prior in integer arithmetic.
Quantum verdicts from sampling are one-sided: a deviation is a proof that
queries leak information, while the absence of one across random trials is
evidence only. The proof route for quantum uselessness is the classical
certificate: if 2q classical queries are useless, q quantum queries are.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Sequence

import numpy as np

from .algebra import max_abs
from .errors import CapacityError
from .problems import LearningProblem, posterior_classical
from .qsim import (
    QuantumAlgorithm,
    final_states,
    outcome_posteriors,
    random_algorithm,
    trial_seeds,
)

# Ceiling on the table cells an exact check reads, k' * C(|X|, k') * |C|
# with k' = min(k, |X|). At 0.2-0.5 us per cell (CPython 3.11), a check
# at the ceiling takes 2-5 s.
MAX_TABLE_CELLS = 10**7

# Hilbert-space ceiling for simulation-backed checks.
MAX_DIM = 200

# A sampled posterior deviation above this is reported as a violation.
FALSIFY_TOL = 1e-8

VERDICT_USELESS = "useless"
VERDICT_NOT_USELESS = "not_useless"


@dataclass
class UselessnessReport:
    """Outcome of one uselessness check, with enough detail to replay it."""

    problem: str
    mode: str  # "classical" or "quantum"
    k: int  # queries tested (classical) or simulated oracle calls (quantum)
    verdict: str
    evidence: str  # "exact-enumeration" or "sampled-algorithms"
    witness: dict | None = None
    max_deviation: float | None = None
    trials: int | None = None
    detail: dict = field(default_factory=dict)

    def csv_row(self) -> list[str]:
        witness = ""
        if self.witness is not None:
            if "transcript" in self.witness:
                witness = ";".join(f"{x}:{y}" for x, y in self.witness["transcript"])
            else:
                witness = ";".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
        deviation = "" if self.max_deviation is None else repr(self.max_deviation)
        return [self.problem, str(self.k), self.verdict, deviation, witness]


CSV_HEADER = ["problem", "k", "verdict", "deviation", "witness"]


def _first_violation(problem: LearningProblem, width: int) -> tuple[list, int] | None:
    """(pairs, part) of the first event on ``width`` points moving a part, or None.

    Weights are Python ints over the prior's common denominator D, so an
    event of mass m passes when each part's mass times D equals its prior
    weight times m; an event of mass zero passes as 0 == 0.
    """
    if width == 0:
        return None  # the only event is the sure one, whose posterior is the prior
    scale = math.lcm(*(w.denominator for w in problem.prior))
    rows = [
        (f, j, w.numerator * (scale // w.denominator))
        for f, j, w in zip(problem.functions, problem.labels, problem.prior)
    ]
    part_weights = dict.fromkeys(problem.part_labels(), 0)
    for _, j, w in rows:
        part_weights[j] += w
    for points in combinations(range(problem.domain_size), width):
        cut = itemgetter(*points)  # a bare response when width is 1
        totals, masses = defaultdict(int), defaultdict(int)
        for f, j, w in rows:
            key = cut(f)
            totals[key] += w
            masses[key, j] += w
        for key, total in totals.items():
            for j, part_weight in part_weights.items():
                if masses.get((key, j), 0) * scale != part_weight * total:
                    responses = key if width > 1 else (key,)
                    return list(zip(points, responses)), j
    return None


def classical_useless(problem: LearningProblem, k: int) -> UselessnessReport:
    """Decide exactly whether k classical queries are useless.

    A k-query event fixes responses at k' = min(k, |X|) or fewer points,
    and an event on fewer points is a disjoint union of events on k'
    points, so only point-sets of size exactly k' are checked, reading
    k' * C(|X|, k') * |C| table cells (capped by ``MAX_TABLE_CELLS``). A
    witness is the violating event's k' pairs, padded to k by repeating
    the first, with its posterior replayed by :func:`posterior_classical`.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    width = min(k, problem.domain_size)
    cost = width * math.comb(problem.domain_size, width) * problem.size
    if cost > MAX_TABLE_CELLS:
        raise CapacityError(
            f"classical check reads {cost} table cells, over the ceiling "
            f"MAX_TABLE_CELLS={MAX_TABLE_CELLS}"
        )
    violation = _first_violation(problem, width)
    witness = None
    if violation is not None:
        pairs, j = violation
        transcript = pairs + pairs[:1] * (k - width)
        posterior = posterior_classical(problem, transcript)[j]
        prior = problem.part_prior()[j]
        witness = {
            "transcript": [[x, y] for x, y in transcript],
            "part": j,
            "posterior": [posterior.numerator, posterior.denominator],
            "prior": [prior.numerator, prior.denominator],
        }
    return UselessnessReport(
        problem=problem.name,
        mode="classical",
        k=k,
        verdict=VERDICT_USELESS if witness is None else VERDICT_NOT_USELESS,
        evidence="exact-enumeration",
        witness=witness,
    )


def max_useless_k(problem: LearningProblem) -> int:
    """Largest k for which k classical queries are useless.

    Uselessness is downward monotone (pad a shorter transcript by
    repeating its first query), so a single upward scan suffices. Events
    never constrain more than |X| points, so a clean check at k = |X|
    settles every larger k as well; the return value |X| means all query
    counts are useless.
    """
    k = 0
    while k < problem.domain_size:
        report = classical_useless(problem, k + 1)
        if report.verdict == VERDICT_NOT_USELESS:
            return k
        k += 1
    return k


def quantum_lower_bound(problem: LearningProblem) -> int:
    """Lower bound on the quantum query complexity from the classical scan.

    With m classical queries useless, floor(m/2) quantum queries are also
    useless, so floor(m/2) + 1 quantum queries are necessary.
    """
    return max_useless_k(problem) // 2 + 1


def lemma_check(problem: LearningProblem, alg: QuantumAlgorithm) -> float:
    """Deviation of the part-averaged final states from the prior mixture.

    For every part j, compares sum_{f in part j} mu(f) rho_f against
    mu(part j) * sum_f mu(f) rho_f and returns the largest entrywise
    absolute difference. The identity holds exactly whenever twice the
    algorithm's query count is classically useless.
    """
    states = final_states(alg, problem)
    weights = np.array([float(w) for w in problem.prior])
    mixture = np.tensordot(weights, states, axes=1)
    prior = problem.part_prior()
    deviation = 0.0
    for j, indices in problem.parts().items():
        rows = list(indices)
        lhs = np.tensordot(weights[rows], states[rows], axes=1)
        rhs = float(prior[j]) * mixture
        deviation = max(deviation, max_abs(lhs - rhs))
    return deviation


def quantum_useless_falsify(
    problem: LearningProblem,
    queries: int,
    trials: int,
    seed: int,
    z_dim: int = 1,
    extra_algorithms: Sequence[QuantumAlgorithm] = (),
) -> UselessnessReport:
    """Search for posterior-vs-prior deviations over random algorithms.

    Runs ``trials`` seeded random ``queries``-call algorithms (plus any
    ``extra_algorithms``, which occupy the first trial slots) and records
    the largest |posterior - prior| over observable outcomes and parts.
    A deviation above ``FALSIFY_TOL`` yields a "not useless" verdict with a
    witness naming the trial; anything else is "useless" backed by sampling
    only, which is evidence, not proof.
    """
    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dim = problem.domain_size * problem.group.order * z_dim
    if dim > MAX_DIM:
        raise CapacityError(f"Hilbert dimension {dim} exceeds the ceiling MAX_DIM={MAX_DIM}")
    prior = {j: float(w) for j, w in problem.part_prior().items()}
    algorithms: list[tuple[str, QuantumAlgorithm]] = [
        (f"extra-{i}", alg) for i, alg in enumerate(extra_algorithms)
    ]
    for child_seed in trial_seeds(seed, trials):
        algorithms.append(
            (
                f"seed-{child_seed}",
                random_algorithm(problem.domain_size, problem.group, z_dim, queries, child_seed),
            )
        )
    max_deviation = 0.0
    argmax: dict | None = None
    for trial, (tag, alg) in enumerate(algorithms):
        outcome_probs, posteriors = outcome_posteriors(alg, problem)
        for s, posterior in enumerate(posteriors):
            if posterior is None:
                continue
            for j, p in posterior.items():
                deviation = abs(p - prior[j])
                if deviation > max_deviation:
                    max_deviation = deviation
                    argmax = {
                        "trial": trial,
                        "algorithm": tag,
                        "outcome": s,
                        "outcome_probability": float(outcome_probs[s]),
                        "part": j,
                        "posterior": p,
                        "prior": prior[j],
                    }
    verdict = VERDICT_NOT_USELESS if max_deviation > FALSIFY_TOL else VERDICT_USELESS
    return UselessnessReport(
        problem=problem.name,
        mode="quantum",
        k=queries,
        verdict=verdict,
        evidence="sampled-algorithms",
        witness=argmax if verdict == VERDICT_NOT_USELESS else None,
        max_deviation=max_deviation,
        trials=len(algorithms),
        detail={"tol": FALSIFY_TOL, "seed": seed, "z_dim": z_dim, "best": argmax},
    )
