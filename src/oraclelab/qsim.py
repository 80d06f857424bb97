"""Density-matrix simulation of k-query oracle algorithms.

The Hilbert space is the tensor product of query, response and auxiliary
registers with basis ordered x-major, then y, then z:
``index(x, y, z) = (x * |Y| + y) * |Z| + z``. This ordering is part of the
JSON interchange format, so it must never change.

A k-query algorithm alternates oracle calls with unitaries, starting with
an oracle call and ending with the last unitary just before the POVM. The
final state for oracle table f is

    rho_f = U_k O_f ... U_1 O_f rho_0 O_f^H U_1^H ... O_f^H U_k^H
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    TOL_NUM,
    FiniteAbelianGroup,
    as_complex_matrix,
    group_from_json,
    group_to_json,
    matrix_from_json,
    matrix_to_json,
    random_povm,
    random_pure_state,
    random_unitary,
    validate_density_matrix,
    validate_povm,
    validate_unitary,
)
from .problems import LearningProblem

# Outcomes with probability at or below this threshold are treated as
# unobservable: conditioning on them is undefined.
EPS_COND = 1e-12


@dataclass(frozen=True, eq=False)
class QuantumAlgorithm:
    """Initial state, interleaved unitaries, POVM, optional outcome labels.

    ``outcome_labels`` maps POVM outcome index s to a part label j; it is
    only needed for success-probability computations.
    """

    x_dim: int
    group: FiniteAbelianGroup
    z_dim: int
    rho0: np.ndarray
    unitaries: tuple[np.ndarray, ...]
    povm: tuple[np.ndarray, ...]
    outcome_labels: dict[int, int] | None = None

    def __post_init__(self):
        if self.x_dim < 1 or self.z_dim < 1:
            raise ValueError("x_dim and z_dim must be >= 1")
        dim = self.dim
        rho0 = validate_density_matrix(as_complex_matrix(self.rho0))
        if rho0.shape != (dim, dim):
            raise ValueError(f"rho0 has shape {rho0.shape}, expected {(dim, dim)}")
        unitaries = tuple(validate_unitary(u) for u in self.unitaries)
        for i, u in enumerate(unitaries):
            if u.shape != (dim, dim):
                raise ValueError(f"unitary {i} has shape {u.shape}, expected {(dim, dim)}")
        povm = validate_povm(self.povm)
        if povm[0].shape != (dim, dim):
            raise ValueError(f"POVM dimension {povm[0].shape} does not match {(dim, dim)}")
        labels = self.outcome_labels
        if labels is not None:
            labels = {int(s): int(j) for s, j in labels.items()}
            bad = [s for s in labels if not 0 <= s < len(povm)]
            if bad:
                raise ValueError(f"outcome labels reference unknown outcomes {bad}")
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "unitaries", unitaries)
        object.__setattr__(self, "povm", povm)
        object.__setattr__(self, "outcome_labels", labels)

    @property
    def y_dim(self) -> int:
        return self.group.order

    @property
    def dim(self) -> int:
        return self.x_dim * self.y_dim * self.z_dim

    @property
    def query_count(self) -> int:
        return len(self.unitaries)

    @property
    def n_outcomes(self) -> int:
        return len(self.povm)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final state and the POVM outcome distribution for one oracle table."""

    final_state: np.ndarray
    outcome_probs: np.ndarray


def basis_index(x: int, y: int, z: int, y_dim: int, z_dim: int) -> int:
    return (x * y_dim + y) * z_dim + z


def oracle_matrix(
    f: Sequence[int], x_dim: int, group: FiniteAbelianGroup, z_dim: int
) -> np.ndarray:
    """Permutation matrix adding f(x) into the response register.

    Maps basis state (x, y, z) to (x, y + f(x), z) with the sum taken in
    the response group.
    """
    f = tuple(int(v) for v in f)
    if len(f) != x_dim:
        raise ValueError(f"oracle table has {len(f)} entries, expected {x_dim}")
    y_dim = group.order
    for v in f:
        group.check_element(v)
    dim = x_dim * y_dim * z_dim
    m = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(x_dim):
        for y in range(y_dim):
            y_out = group.add(y, f[x])
            for z in range(z_dim):
                m[basis_index(x, y_out, z, y_dim, z_dim), basis_index(x, y, z, y_dim, z_dim)] = 1
    return m


def run(alg: QuantumAlgorithm, f: Sequence[int]) -> RunResult:
    """Evolve the initial state through k oracle calls and k unitaries.

    With no unitaries the initial state is measured directly. Outcome
    probabilities are Tr(rho_f Pi_s), verified to be a distribution within
    the numeric tolerance and then clamped to [0, 1].
    """
    oracle = oracle_matrix(f, alg.x_dim, alg.group, alg.z_dim)
    rho = alg.rho0
    for u in alg.unitaries:
        rho = oracle @ rho @ oracle.conj().T
        rho = u @ rho @ u.conj().T
    probs = np.array([float(np.trace(rho @ pi).real) for pi in alg.povm])
    if probs.min() < -TOL_NUM or probs.max() > 1 + TOL_NUM:
        raise ArithmeticError(f"outcome probabilities outside [0,1]: {probs}")
    if abs(probs.sum() - 1.0) > TOL_NUM:
        raise ArithmeticError(f"outcome probabilities sum to {probs.sum()}, not 1")
    return RunResult(final_state=rho, outcome_probs=np.clip(probs, 0.0, 1.0))


def _check_match(alg: QuantumAlgorithm, problem: LearningProblem) -> None:
    if alg.x_dim != problem.domain_size:
        raise ValueError(
            f"algorithm queries {alg.x_dim} points, problem has {problem.domain_size}"
        )
    if alg.group != problem.group:
        raise ValueError(
            f"algorithm response group {alg.group.factors} differs from "
            f"problem group {problem.group.factors}"
        )


def final_states(alg: QuantumAlgorithm, problem: LearningProblem) -> list[np.ndarray]:
    """rho_f for every function in the class, in class order."""
    _check_match(alg, problem)
    return [run(alg, f).final_state for f in problem.functions]


def joint_distribution(alg: QuantumAlgorithm, problem: LearningProblem) -> np.ndarray:
    """Table over (function, outcome) of mu(f) * Tr(rho_f Pi_s)."""
    _check_match(alg, problem)
    rows = []
    for f, mu in zip(problem.functions, problem.prior):
        rows.append(float(mu) * run(alg, f).outcome_probs)
    table = np.array(rows)
    if abs(table.sum() - 1.0) > TOL_NUM:
        raise ArithmeticError(f"joint distribution sums to {table.sum()}, not 1")
    return np.clip(table, 0.0, None)


def outcome_posteriors(
    alg: QuantumAlgorithm, problem: LearningProblem
) -> tuple[np.ndarray, list[dict[int, float] | None]]:
    """Outcome probabilities and the part posterior for each outcome.

    The posterior entry is ``None`` for outcomes with probability at or
    below ``EPS_COND``, where conditioning is undefined.
    """
    table = joint_distribution(alg, problem)
    outcome_probs = table.sum(axis=0)
    part_indices = problem.parts()
    posteriors: list[dict[int, float] | None] = []
    for s in range(alg.n_outcomes):
        p_s = float(outcome_probs[s])
        if p_s <= EPS_COND:
            posteriors.append(None)
            continue
        posteriors.append(
            {j: float(table[list(ix), s].sum()) / p_s for j, ix in part_indices.items()}
        )
    return outcome_probs, posteriors


def posterior_quantum(
    alg: QuantumAlgorithm, problem: LearningProblem, s: int
) -> dict[int, float] | None:
    """Bayes posterior over parts given outcome s, or None if unobservable."""
    if not 0 <= s < alg.n_outcomes:
        raise ValueError(f"outcome {s} outside [0, {alg.n_outcomes})")
    _, posteriors = outcome_posteriors(alg, problem)
    return posteriors[s]


def success_probability(alg: QuantumAlgorithm, problem: LearningProblem) -> float:
    """Probability that the labeled outcome matches the hidden part."""
    if alg.outcome_labels is None:
        raise ValueError("algorithm has no outcome labels")
    table = joint_distribution(alg, problem)
    total = 0.0
    for s in range(alg.n_outcomes):
        target = alg.outcome_labels.get(s)
        if target is None:
            continue
        for i, j in enumerate(problem.labels):
            if j == target:
                total += table[i, s]
    return float(total)


# ---------------------------------------------------------------------------
# random algorithms for falsification trials


def trial_seeds(seed: int, n: int) -> list[int]:
    """Deterministic child seeds for a batch of independent trials."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def random_algorithm(
    x_dim: int,
    group: FiniteAbelianGroup,
    z_dim: int,
    queries: int,
    seed: int,
    labels_cycle: Sequence[int] | None = None,
) -> QuantumAlgorithm:
    """Seeded random algorithm: Haar pure initial state, Haar unitaries,
    and a random projective POVM with one rank-1 element per dimension.

    ``labels_cycle`` assigns outcome s the label ``cycle[s % len(cycle)]``,
    for problems where a success probability is wanted.
    """
    dim = x_dim * group.order * z_dim
    seeds = trial_seeds(seed, queries + 2)
    rho0 = random_pure_state(dim, seeds[0])
    unitaries = tuple(random_unitary(dim, s) for s in seeds[1:queries + 1])
    povm = random_povm(dim, dim, seeds[queries + 1])
    labels = None
    if labels_cycle is not None:
        cycle = [int(j) for j in labels_cycle]
        labels = {s: cycle[s % len(cycle)] for s in range(dim)}
    return QuantumAlgorithm(
        x_dim=x_dim,
        group=group,
        z_dim=z_dim,
        rho0=rho0,
        unitaries=unitaries,
        povm=povm,
        outcome_labels=labels,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def algorithm_to_json(alg: QuantumAlgorithm) -> dict:
    labels = alg.outcome_labels
    return {
        "x_dim": alg.x_dim,
        "group": group_to_json(alg.group),
        "z_dim": alg.z_dim,
        "rho0": matrix_to_json(alg.rho0),
        "unitaries": [matrix_to_json(u) for u in alg.unitaries],
        "povm": [matrix_to_json(e) for e in alg.povm],
        "labels": None if labels is None else {str(s): j for s, j in labels.items()},
    }


def algorithm_from_json(data: Mapping) -> QuantumAlgorithm:
    labels = data.get("labels")
    return QuantumAlgorithm(
        x_dim=int(data["x_dim"]),
        group=group_from_json(data["group"]),
        z_dim=int(data["z_dim"]),
        rho0=matrix_from_json(data["rho0"]),
        unitaries=tuple(matrix_from_json(u) for u in data["unitaries"]),
        povm=tuple(matrix_from_json(e) for e in data["povm"]),
        outcome_labels=None if labels is None else {int(s): int(j) for s, j in labels.items()},
    )
