"""Batched simulation of k-query oracle algorithms over stacks of tables.

The Hilbert space is the tensor product of query, response and auxiliary
registers with basis ordered x-major, then y, then z:
``index(x, y, z) = (x * |Y| + y) * |Z| + z``. This ordering is part of the
JSON interchange format, so it must never change.

A k-query algorithm alternates oracle calls with unitaries, starting with
an oracle call and ending with the last unitary just before the POVM. The
final state for oracle table f is

    rho_f = U_k O_f ... U_1 O_f rho_0 O_f^H U_1^H ... O_f^H U_k^H

An oracle call is a permutation of basis indices, so it is applied as a
gather along the basis axis and no dense oracle matrix is ever built. An
algorithm holds its initial state as the factor rho_0 = V diag(lambda) V^H
over its nonzero eigenvalues, and each POVM element as a factor B_s with
Pi_s = B_s B_s^H. Every column of V evolves as a state vector, for all
tables of a stack at once, so a pure state costs one column per table and
a mixed state one per eigenvalue; the measurement is one product with the
stacked B^H. Final density matrices are formed from the evolved factor
only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    TOL_NUM,
    FiniteAbelianGroup,
    factor_hermitian,
    group_from_json,
    group_to_json,
    int_from_json,
    matrix_from_json,
    matrix_to_json,
    povm_from_dense,
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

    ``state`` is the factor (weights, vectors) of the initial density matrix
    rho_0 = V diag(weights) V^H, with orthonormal columns V of shape (d, r).
    ``povm`` holds one factor B_s of shape (d, r_s) per outcome, for the
    element Pi_s = B_s B_s^H. ``outcome_labels`` maps POVM outcome index s
    to a part label j; it is only needed for success-probability
    computations.
    """

    x_dim: int
    group: FiniteAbelianGroup
    z_dim: int
    state: tuple[np.ndarray, np.ndarray]
    unitaries: tuple[np.ndarray, ...]
    povm: tuple[np.ndarray, ...]
    outcome_labels: dict[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_dim", int_from_json(self.x_dim))
        object.__setattr__(self, "z_dim", int_from_json(self.z_dim))
        if self.x_dim < 1 or self.z_dim < 1:
            raise ValueError("x_dim and z_dim must be >= 1")
        dim = self.dim
        weights, vectors = validate_density_matrix(*self.state)
        if len(vectors) != dim:
            raise ValueError(f"state vectors have dimension {len(vectors)}, expected {dim}")
        unitaries = tuple(validate_unitary(u) for u in self.unitaries)
        for i, u in enumerate(unitaries):
            if u.shape != (dim, dim):
                raise ValueError(f"unitary {i} has shape {u.shape}, expected {(dim, dim)}")
        povm = validate_povm(self.povm)
        if len(povm[0]) != dim:
            raise ValueError(f"POVM dimension {len(povm[0])} does not match {dim}")
        labels = self.outcome_labels
        if labels is not None:
            labels = {int_from_json(s): int_from_json(j) for s, j in labels.items()}
            bad = [s for s in labels if not 0 <= s < len(povm)]
            if bad:
                raise ValueError(f"outcome labels reference unknown outcomes {bad}")
        object.__setattr__(self, "state", (weights, vectors))
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
    """Outcome distributions for a stack of T oracle tables.

    ``outcome_probs`` has shape (T, S). The final states are kept in
    factored form: table t ends in rho_t = sum_r weights[r] v_rt v_rt^H
    with v_rt = ``columns[:, t, r]``, where ``columns`` has shape (d, T, R),
    R is the rank of the initial state's factor and ``weights`` its signed
    weights.
    """

    outcome_probs: np.ndarray
    weights: np.ndarray
    columns: np.ndarray

    @cached_property
    def final_states(self) -> np.ndarray:
        """rho_t for every table, shape (T, d, d), built on first read."""
        vectors = np.moveaxis(self.columns, 1, 0)  # (T, d, R)
        return (vectors * self.weights) @ vectors.conj().transpose(0, 2, 1)


def oracle_matrix(
    tables, x_dim: int, group: FiniteAbelianGroup, z_dim: int
) -> np.ndarray:
    """Gather index of the oracle permutation for each table in a stack.

    ``tables`` is a (T, x_dim) array of group elements. O_f maps basis
    state (x, y, z) to (x, y + f(x), z), so (O_f psi)[i] = psi[P[t, i]]
    with P[t, (x, y, z)] = (x, y - f(x), z); ``np.eye(dim)[P[t]]`` is the
    dense permutation matrix of table t. Returns P with shape (T, dim).
    """
    tables = np.asarray(tables)
    y_dim = group.order
    if tables.ndim != 2 or tables.shape[1] != x_dim:
        raise ValueError(f"oracle tables have shape {tables.shape}, expected (T, {x_dim})")
    if tables.size and (
        tables.dtype.kind not in "biu" or tables.min() < 0 or tables.max() >= y_dim
    ):
        raise ValueError(f"oracle table entries must be group elements in [0, {y_dim})")
    x = np.arange(x_dim)[:, None, None]
    difference = group.difference_table()  # [y, v] = y - v
    y_in = difference[np.arange(y_dim)[None, :], tables[:, :, None]]  # (T, x, y)
    index = (x * y_dim + y_in[..., None]) * z_dim + np.arange(z_dim)
    return index.reshape(len(tables), x_dim * y_dim * z_dim)


def run(alg: QuantumAlgorithm, tables) -> RunResult:
    """Evolve the initial state through k oracle calls and k unitaries,
    for every oracle table in the (T, x_dim) stack at once.

    Each signed-weight vector of the initial state's factor evolves as a
    column, oracle calls gather along the basis axis and each unitary is
    one matrix product over all tables and columns. With no unitaries the
    initial state is measured directly. The measurement is one product
    B^H @ columns with the stacked POVM factor B; outcome probabilities are
    sum_r weights[r] ||B_s^H v_rt||^2, a segmented sum of its squared
    moduli, verified to be a distribution within the numeric tolerance for
    every table and then clamped to [0, 1].
    """
    tables = np.asarray(tables)
    perm = oracle_matrix(tables, alg.x_dim, alg.group, alg.z_dim)
    n_tables, dim = perm.shape
    weights, vectors = alg.state
    rank = len(weights)
    columns = np.broadcast_to(vectors[:, None, :], (dim, n_tables, rank))
    # row (i, t) of the (d*T, R) view reads row (P[t, i], t)
    gather = perm.T * n_tables + np.arange(n_tables)
    for u in alg.unitaries:
        columns = columns.reshape(dim * n_tables, rank)[gather]
        columns = (u @ columns.reshape(dim, n_tables * rank)).reshape(dim, n_tables, rank)
    flat = np.ascontiguousarray(columns).reshape(dim, n_tables * rank)
    amplitudes = np.hstack(alg.povm).conj().T @ flat
    squares = amplitudes.real**2 + amplitudes.imag**2
    sizes = np.array([b.shape[1] for b in alg.povm])
    starts = np.cumsum(sizes) - sizes
    expect = np.zeros((alg.n_outcomes, n_tables * rank))
    measured = sizes > 0  # reduceat would copy a row into an empty segment
    expect[measured] = np.add.reduceat(squares, starts[measured], axis=0)
    probs = (expect.reshape(alg.n_outcomes, n_tables, rank) @ weights).T
    out_of_range = (probs.min(axis=1) < -TOL_NUM) | (probs.max(axis=1) > 1 + TOL_NUM)
    if out_of_range.any():
        t = int(np.argmax(out_of_range))
        raise ArithmeticError(
            f"outcome probabilities outside [0,1] on table {t} {tables[t].tolist()}: "
            f"{probs[t]}"
        )
    sums = probs.sum(axis=1)
    bad_sum = np.abs(sums - 1.0) > TOL_NUM
    if bad_sum.any():
        t = int(np.argmax(bad_sum))
        raise ArithmeticError(
            f"outcome probabilities on table {t} {tables[t].tolist()} sum to "
            f"{sums[t]}, not 1"
        )
    return RunResult(
        outcome_probs=np.clip(probs, 0.0, 1.0), weights=weights, columns=columns
    )


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


def joint_distribution(alg: QuantumAlgorithm, problem: LearningProblem) -> np.ndarray:
    """Table over (part, outcome) of Pr[j, s] = sum_{f in part j} mu(f) Tr(rho_f Pi_s).

    Rows follow ``problem.part_labels()``. Every quantum verdict reads this
    table; no other code sums a class's outcome table by part.
    """
    _check_match(alg, problem)
    in_part = np.arange(len(problem.part_masses))[:, None] == problem.part_index  # (J, |C|)
    table = (in_part * problem.float_prior) @ run(alg, problem.functions).outcome_probs
    if abs(table.sum() - 1.0) > TOL_NUM:
        raise ArithmeticError(f"joint distribution sums to {table.sum()}, not 1")
    return table


def outcome_posteriors(
    alg: QuantumAlgorithm, problem: LearningProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities (S,) and part posteriors (J, S), rows as in
    :func:`joint_distribution`; a column is NaN where conditioning is
    undefined, at an outcome probability of at most ``EPS_COND``."""
    table = joint_distribution(alg, problem)
    outcome_probs = table.sum(axis=0)
    posteriors = np.divide(
        table, outcome_probs, out=np.full_like(table, np.nan), where=outcome_probs > EPS_COND
    )
    return outcome_probs, posteriors


def success_probability(alg: QuantumAlgorithm, problem: LearningProblem) -> float:
    """Probability that the labeled outcome matches the hidden part."""
    if alg.outcome_labels is None:
        raise ValueError("algorithm has no outcome labels")
    table = joint_distribution(alg, problem)
    outcomes = list(alg.outcome_labels)
    hit = np.equal.outer(problem.part_labels(), [alg.outcome_labels[s] for s in outcomes])
    return float(table[:, outcomes][hit].sum())


# ---------------------------------------------------------------------------
# random algorithms for falsification trials


def trial_seeds(seed: int, n: int) -> list[int]:
    """Deterministic child seeds for a batch of independent trials.

    The seeds for n trials are a prefix of the seeds for any larger n.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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
    and a random projective POVM with one rank-1 element per dimension,
    each built as its factor.

    ``labels_cycle`` assigns outcome s the label ``cycle[s % len(cycle)]``,
    for problems where a success probability is wanted.
    """
    x_dim, z_dim, queries, seed = map(int_from_json, (x_dim, z_dim, queries, seed))
    dim = x_dim * group.order * z_dim
    seeds = trial_seeds(seed, queries + 2)
    state = random_pure_state(dim, seeds[0])
    unitaries = tuple(random_unitary(dim, s) for s in seeds[1:queries + 1])
    povm = random_povm(dim, dim, seeds[queries + 1])
    labels = None
    if labels_cycle is not None:
        labels = {s: labels_cycle[s % len(labels_cycle)] for s in range(dim)}
    return QuantumAlgorithm(
        x_dim=x_dim,
        group=group,
        z_dim=z_dim,
        state=state,
        unitaries=unitaries,
        povm=povm,
        outcome_labels=labels,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def algorithm_to_json(alg: QuantumAlgorithm) -> dict:
    """The algorithm with its state and POVM elements written as dense matrices."""
    labels = alg.outcome_labels
    weights, vectors = alg.state
    return {
        "x_dim": alg.x_dim,
        "group": group_to_json(alg.group),
        "z_dim": alg.z_dim,
        "rho0": matrix_to_json((vectors * weights) @ vectors.conj().T),
        "unitaries": [matrix_to_json(u) for u in alg.unitaries],
        "povm": [matrix_to_json(b @ b.conj().T) for b in alg.povm],
        "labels": None if labels is None else {str(s): j for s, j in labels.items()},
    }


def algorithm_from_json(data: Mapping) -> QuantumAlgorithm:
    """Read the dense JSON form, factoring rho0 and each POVM element once."""
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, Mapping):
        raise ValueError(f"labels must map outcomes to parts, got {type(labels).__name__}")
    return QuantumAlgorithm(
        x_dim=int_from_json(data["x_dim"]),
        group=group_from_json(data["group"]),
        z_dim=int_from_json(data["z_dim"]),
        state=factor_hermitian(matrix_from_json(data["rho0"]), "density matrix"),
        unitaries=tuple(matrix_from_json(u) for u in data["unitaries"]),
        povm=povm_from_dense(matrix_from_json(e) for e in data["povm"]),
        outcome_labels=None if labels is None else {int(s): j for s, j in labels.items()},
    )
