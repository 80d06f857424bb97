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

Algorithms of one shape also stack: the simulator takes one algorithm or
a sequence of them (an :class:`AlgorithmStack`), and for a sequence every
array gains a leading algorithm axis, from one gather per oracle call and
one batched matrix product per unitary and for the measurement. One
algorithm is a stack of one, run by the same code. ``STACK_ENTRY_BUDGET``
bounds what one stack holds, and :func:`random_algorithms` draws a stack
with one stacked QR for its unitaries and one for its POVM bases.
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

    @cached_property
    def stack_key(self) -> tuple:
        """What algorithms of one stack share: registers, query count, the
        initial state's rank and each POVM element's rank."""
        ranks = tuple(b.shape[1] for b in self.povm)
        return (self.x_dim, self.group, self.z_dim, self.query_count, len(self.state[0]), ranks)


# Complex entries one stack of algorithms may hold, bounding memory: its
# state vectors, unitaries and POVM factors and, in a run over T tables,
# its evolved columns and measured amplitudes. A 1-query random algorithm
# at the falsifier's ceiling d = 1232 (useless.MAX_DIM) holds about
# 3.0e6 of them, so there a stack is one algorithm.
STACK_ENTRY_BUDGET = 2**22


def stack_capacity(dim: int, queries: int, rank: int, povm_columns: int, n_tables: int) -> int:
    """Algorithms of one shape a stack run over ``n_tables`` tables holds
    within ``STACK_ENTRY_BUDGET``, and at least one."""
    entries = dim * (queries * dim + rank + povm_columns) + (dim + povm_columns) * n_tables * rank
    return max(1, STACK_ENTRY_BUDGET // entries)


def _stack_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays along a new leading axis; one array is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@dataclass(frozen=True, eq=False)
class AlgorithmStack:
    """Algorithms of one shape, simulated together along a leading axis.

    One shape means equal ``stack_key``: the same registers, query count,
    state rank and POVM element ranks, so each operator stacks into one
    array. The stack reads its registers from its first algorithm.
    """

    algorithms: tuple[QuantumAlgorithm, ...]

    def __post_init__(self):
        algorithms = tuple(self.algorithms)
        if not algorithms:
            raise ValueError("a stack needs at least one algorithm")
        key = algorithms[0].stack_key
        for i, alg in enumerate(algorithms):
            if alg.stack_key != key:
                raise ValueError(
                    f"algorithm {i} has shape {alg.stack_key}, the stack's first has {key}"
                )
        object.__setattr__(self, "algorithms", algorithms)

    def __len__(self) -> int:
        return len(self.algorithms)

    def __iter__(self):
        return iter(self.algorithms)

    x_dim = property(lambda self: self.algorithms[0].x_dim)
    group = property(lambda self: self.algorithms[0].group)
    dim = property(lambda self: self.algorithms[0].dim)
    query_count = property(lambda self: self.algorithms[0].query_count)
    n_outcomes = property(lambda self: self.algorithms[0].n_outcomes)


def as_stack(algs: QuantumAlgorithm | Sequence[QuantumAlgorithm]) -> tuple[AlgorithmStack, bool]:
    """(stack, single): one algorithm is a stack of one, and ``single`` tells
    the caller to return its result without the leading algorithm axis."""
    if isinstance(algs, QuantumAlgorithm):
        return AlgorithmStack((algs,)), True
    return (algs if isinstance(algs, AlgorithmStack) else AlgorithmStack(algs)), False


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome distributions for a stack of T oracle tables.

    ``outcome_probs`` has shape (T, S). The final states are kept in
    factored form: table t ends in rho_t = sum_r weights[r] v_rt v_rt^H
    with v_rt = ``columns[:, t, r]``, where ``columns`` has shape (d, T, R),
    R is the rank of the initial state's factor and ``weights`` its signed
    weights. A run of a stack of A algorithms puts a leading axis of A on
    every array.
    """

    outcome_probs: np.ndarray
    weights: np.ndarray
    columns: np.ndarray

    @cached_property
    def final_states(self) -> np.ndarray:
        """rho_t for every table, shape (T, d, d), built on first read."""
        vectors = np.moveaxis(self.columns, -3, -2)  # (..., T, d, R)
        weighted = vectors * self.weights[..., None, None, :]
        return weighted @ np.swapaxes(vectors.conj(), -1, -2)


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


def run(algs: QuantumAlgorithm | Sequence[QuantumAlgorithm], tables) -> RunResult:
    """Evolve the initial state through k oracle calls and k unitaries,
    for every oracle table in the (T, x_dim) stack at once.

    ``algs`` is one algorithm or a sequence of algorithms of one shape
    (an :class:`AlgorithmStack`); a sequence puts a leading algorithm axis
    on every array of the result. Each signed-weight vector of each
    algorithm's initial state evolves as a column, oracle calls are one
    gather along the basis axis for the whole stack and each unitary is
    one batched matrix product over algorithms, tables and columns. With
    no unitaries the initial state is measured directly. The measurement
    is one batched product B^H @ columns with each algorithm's stacked
    POVM factor B; outcome probabilities are sum_r weights[r] ||B_s^H
    v_rt||^2, a segmented sum of its squared moduli, verified to be a
    distribution within the numeric tolerance for every algorithm and
    table and then clamped to [0, 1].
    """
    stack, single = as_stack(algs)
    algorithms = stack.algorithms
    first = algorithms[0]
    tables = np.asarray(tables)
    perm = oracle_matrix(tables, first.x_dim, first.group, first.z_dim)
    n_tables, dim = perm.shape
    n_algs, n_outcomes = len(algorithms), first.n_outcomes
    weights = _stack_arrays([alg.state[0] for alg in algorithms])  # (A, R)
    vectors = _stack_arrays([alg.state[1] for alg in algorithms])  # (A, d, R)
    rank = weights.shape[1]
    columns = np.broadcast_to(vectors[:, :, None, :], (n_algs, dim, n_tables, rank))
    # row (i, t) of each algorithm's (d*T, R) view reads row (P[t, i], t)
    gather = perm.T * n_tables + np.arange(n_tables)
    for i in range(first.query_count):
        u = _stack_arrays([alg.unitaries[i] for alg in algorithms])
        columns = columns.reshape(n_algs, dim * n_tables, rank)[:, gather]
        columns = u @ columns.reshape(n_algs, dim, n_tables * rank)
        columns = columns.reshape(n_algs, dim, n_tables, rank)
    flat = np.ascontiguousarray(columns).reshape(n_algs, dim, n_tables * rank)
    measure = _stack_arrays([np.hstack(alg.povm) for alg in algorithms]).conj()  # (A, d, M)
    amplitudes = measure.transpose(0, 2, 1) @ flat
    squares = amplitudes.real**2 + amplitudes.imag**2
    sizes = np.array([b.shape[1] for b in first.povm])
    starts = np.cumsum(sizes) - sizes
    expect = np.zeros((n_algs, n_outcomes, n_tables * rank))
    measured = sizes > 0  # reduceat would copy a row into an empty segment
    expect[:, measured] = np.add.reduceat(squares, starts[measured], axis=1)
    expect = expect.reshape(n_algs, n_outcomes, n_tables, rank)
    probs = (expect @ weights[:, None, :, None])[..., 0].transpose(0, 2, 1)  # (A, T, S)
    out_of_range = (probs.min(axis=2) < -TOL_NUM) | (probs.max(axis=2) > 1 + TOL_NUM)
    if out_of_range.any():
        a, t = np.unravel_index(np.argmax(out_of_range), out_of_range.shape)
        raise ArithmeticError(
            f"outcome probabilities of algorithm {a} outside [0,1] on table {t} "
            f"{tables[t].tolist()}: {probs[a, t]}"
        )
    sums = probs.sum(axis=2)
    bad_sum = np.abs(sums - 1.0) > TOL_NUM
    if bad_sum.any():
        a, t = np.unravel_index(np.argmax(bad_sum), bad_sum.shape)
        raise ArithmeticError(
            f"outcome probabilities of algorithm {a} on table {t} {tables[t].tolist()} "
            f"sum to {sums[a, t]}, not 1"
        )
    if single:
        probs, weights, columns = probs[0], weights[0], columns[0]
    return RunResult(outcome_probs=np.clip(probs, 0.0, 1.0), weights=weights, columns=columns)


def _check_match(alg: QuantumAlgorithm | AlgorithmStack, problem: LearningProblem) -> None:
    if alg.x_dim != problem.domain_size:
        raise ValueError(
            f"algorithm queries {alg.x_dim} points, problem has {problem.domain_size}"
        )
    if alg.group != problem.group:
        raise ValueError(
            f"algorithm response group {alg.group.factors} differs from "
            f"problem group {problem.group.factors}"
        )


def joint_distribution(
    algs: QuantumAlgorithm | Sequence[QuantumAlgorithm], problem: LearningProblem
) -> np.ndarray:
    """Table over (part, outcome) of Pr[j, s] = sum_{f in part j} mu(f) Tr(rho_f Pi_s).

    Rows follow ``problem.part_labels()``. ``algs`` is one algorithm or a
    sequence of algorithms of one shape, whose tables stack along a leading
    axis from one :func:`run`. Every quantum verdict reads this table; no
    other code sums a class's outcome table by part.
    """
    stack, single = as_stack(algs)
    _check_match(stack, problem)
    in_part = np.arange(len(problem.part_masses))[:, None] == problem.part_index  # (J, |C|)
    table = (in_part * problem.float_prior) @ run(stack, problem.functions).outcome_probs
    sums = table.sum(axis=(1, 2))
    bad = np.abs(sums - 1.0) > TOL_NUM
    if bad.any():
        a = int(np.argmax(bad))
        raise ArithmeticError(f"joint distribution of algorithm {a} sums to {sums[a]}, not 1")
    return table[0] if single else table


def outcome_posteriors(
    algs: QuantumAlgorithm | Sequence[QuantumAlgorithm], problem: LearningProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities (S,) and part posteriors (J, S), rows as in
    :func:`joint_distribution`, with its leading algorithm axis for a
    sequence; a column is NaN where conditioning is undefined, at an
    outcome probability of at most ``EPS_COND``."""
    table = joint_distribution(algs, problem)
    outcome_probs = table.sum(axis=-2)
    column = outcome_probs[..., None, :]
    posteriors = np.divide(
        table, column, out=np.full_like(table, np.nan), where=column > EPS_COND
    )
    return outcome_probs, posteriors


def success_probability(
    algs: QuantumAlgorithm | Sequence[QuantumAlgorithm], problem: LearningProblem
) -> float | np.ndarray:
    """Probability that the labeled outcome matches the hidden part; an
    array of them, one per algorithm, for a sequence of algorithms."""
    stack, single = as_stack(algs)
    if any(alg.outcome_labels is None for alg in stack):
        raise ValueError("algorithm has no outcome labels")
    parts = problem.part_labels()
    values = []
    for alg, table in zip(stack, joint_distribution(stack, problem)):
        outcomes = list(alg.outcome_labels)
        hit = np.equal.outer(parts, [alg.outcome_labels[s] for s in outcomes])
        values.append(float(table[:, outcomes][hit].sum()))
    return values[0] if single else np.array(values)


# ---------------------------------------------------------------------------
# random algorithms for falsification trials


def trial_seeds(seed: int, n: int) -> list[int]:
    """Deterministic child seeds for a batch of independent trials.

    The seeds for n trials are a prefix of the seeds for any larger n.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def random_algorithms(
    x_dim: int,
    group: FiniteAbelianGroup,
    z_dim: int,
    queries: int,
    seeds: Sequence[int],
    labels_cycle: Sequence[int] | None = None,
) -> list[QuantumAlgorithm]:
    """Seeded random algorithms, one per seed: Haar pure initial state,
    Haar unitaries, and a random projective POVM with one rank-1 element
    per dimension, each built as its factor.

    Seed s draws from the streams ``trial_seeds(s, queries + 2)``: the
    state, then each unitary, then the POVM's basis. The unitaries of all
    seeds are orthonormalized by one stacked QR, and the POVM bases by
    another, so each algorithm equals its one-seed draw bit for bit; its
    unitaries are views into the stack. ``labels_cycle`` assigns outcome s
    the label ``cycle[s % len(cycle)]``, for problems where a success
    probability is wanted.
    """
    x_dim, z_dim, queries = map(int_from_json, (x_dim, z_dim, queries))
    streams = [trial_seeds(int_from_json(seed), queries + 2) for seed in seeds]
    dim = x_dim * group.order * z_dim
    unitary_seeds = [s for child in streams for s in child[1:queries + 1]]
    unitaries = random_unitary(dim, unitary_seeds).reshape(len(streams), queries, dim, dim)
    povms = random_povm(dim, dim, [child[queries + 1] for child in streams])
    labels = None
    if labels_cycle is not None:
        labels = {s: labels_cycle[s % len(labels_cycle)] for s in range(dim)}
    return [
        QuantumAlgorithm(
            x_dim=x_dim,
            group=group,
            z_dim=z_dim,
            state=random_pure_state(dim, child[0]),
            unitaries=tuple(unitaries[a]),
            povm=tuple(b[a] for b in povms),
            outcome_labels=labels,
        )
        for a, child in enumerate(streams)
    ]


def random_algorithm(
    x_dim: int,
    group: FiniteAbelianGroup,
    z_dim: int,
    queries: int,
    seed: int,
    labels_cycle: Sequence[int] | None = None,
) -> QuantumAlgorithm:
    """The one-seed case of :func:`random_algorithms`."""
    (alg,) = random_algorithms(x_dim, group, z_dim, queries, [seed], labels_cycle)
    return alg


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
