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
over its nonzero eigenvalues, and its POVM as (ranks, B): one stacked
factor B = [B_0 B_1 ...] with Pi_s = B_s B_s^H, where B_s is the next
ranks[s] columns. Every column of V evolves as a state vector, for all
tables at once, so a pure state costs one column per table and a mixed
state one per eigenvalue; the measurement is one product with B^H. Final
density matrices are formed from the evolved factor only when they are
read.

A :class:`QuantumAlgorithm` is one algorithm or a batch of algorithms of
one shape, in the numpy idiom of leading batch axes: each of its arrays
has batch shape () or (A,), and every simulator entry point returns
results of that batch shape, from one gather per oracle call and one
batched matrix product per unitary and for the measurement. A batch is
validated once, and :func:`random_algorithm` draws one from a sequence
of seeds with one stacked QR for its unitaries and one for its POVM
bases. ``STACK_ENTRY_BUDGET`` bounds what one batch in a run holds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    TOL_NUM,
    FiniteAbelianGroup,
    factor_hermitians,
    group_from_json,
    group_to_json,
    int_from_json,
    int_from_text,
    matrices_from_json,
    matrix_to_json,
    povm_from_dense,
    random_povm,
    random_pure_state,
    random_unitary,
    seed_from_json,
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
    """One algorithm, or a batch of algorithms of one shape.

    ``state`` is the factor (weights (..., r), vectors (..., d, r)) of the
    initial density matrix rho_0 = V diag(weights) V^H, with orthonormal
    columns V; ``unitaries`` (..., k, d, d) follow the k oracle calls; and
    ``povm`` is the factor (ranks, B) of the measurement, as the state is
    of rho_0: B (..., d, M) stacks the factors B_s of the elements
    Pi_s = B_s B_s^H, where B_s is the next ``ranks[s]`` of its columns.
    ``outcome_labels`` maps POVM outcome index s to a part label j; it is
    only needed for success-probability computations.

    The leading ``...`` is ``batch_shape``: () for one algorithm and (A,)
    for a batch of A, which share registers, query count, ranks and outcome
    labels. A batch is validated at once, and an error names its first
    failing algorithm. ``alg[i]`` and ``alg[a:b]`` index a batch and
    ``alg[None]`` makes one algorithm a batch of one, as numpy indexes
    leading axes: a view of the same arrays, not validated again.
    """

    x_dim: int
    group: FiniteAbelianGroup
    z_dim: int
    state: tuple[np.ndarray, np.ndarray]
    unitaries: np.ndarray
    povm: tuple[tuple[int, ...], np.ndarray]
    outcome_labels: dict[int, int] | None = None

    def __post_init__(self):
        vars(self).update(x_dim=int_from_json(self.x_dim), z_dim=int_from_json(self.z_dim))
        if self.x_dim < 1 or self.z_dim < 1:
            raise ValueError("x_dim and z_dim must be >= 1")
        dim = self.dim
        weights, vectors = (np.asarray(a) for a in self.state)
        batch = weights.shape[:-1]
        if len(batch) > 1 or 0 in batch:
            raise ValueError(f"state weights have shape {weights.shape}, not (r,) or (A, r) with A >= 1")
        unitaries = np.asarray(self.unitaries, dtype=np.complex128)
        if not unitaries.size:  # no queries
            unitaries = unitaries.reshape(*batch, 0, dim, dim)
        ranks, factor = self.povm
        factor = np.asarray(factor)
        leading = {vectors.shape[:-2], unitaries.shape[:-3], factor.shape[:-2]}
        if unitaries.ndim != len(batch) + 3 or leading != {batch}:
            raise ValueError(
                f"arrays do not share the batch shape {batch} of the state weights: vectors "
                f"{vectors.shape}, unitaries {unitaries.shape}, POVM factor {factor.shape}"
            )
        try:
            state, unitaries, povm = _validated(dim, weights, vectors, unitaries, ranks, factor)
        except ValueError:
            for a in range(batch[0] if batch else 0):  # name the first failing algorithm
                try:
                    _validated(dim, weights[a], vectors[a], unitaries[a], ranks, factor[a])
                except ValueError as error:
                    raise ValueError(f"algorithm {a}: {error}") from None
            raise
        labels = self.outcome_labels
        if labels is not None:
            labels = {int_from_json(s): int_from_json(j) for s, j in labels.items()}
            bad = [s for s in labels if not 0 <= s < len(povm[0])]
            if bad:
                raise ValueError(f"outcome labels reference unknown outcomes {bad}")
        vars(self).update(state=state, unitaries=unitaries, povm=povm, outcome_labels=labels)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.state[0].shape[:-1]

    def __len__(self) -> int:
        if not self.batch_shape:
            raise TypeError("one algorithm has no batch axis")
        return self.batch_shape[0]

    def __iter__(self):
        return (self[a] for a in range(len(self)))

    def __getitem__(self, index) -> QuantumAlgorithm:
        batch = np.empty(self.batch_shape)[index].shape  # numpy's indexing rules and errors
        if len(batch) > 1 or 0 in batch:
            raise IndexError(f"index {index!r} gives batch shape {batch}, not () or (A,) with A >= 1")
        view = copy.copy(self)
        vars(view).update(
            state=tuple(a[index] for a in self.state),
            unitaries=self.unitaries[index],
            povm=(self.povm[0], self.povm[1][index]),
        )
        return view

    @property
    def dim(self) -> int:
        return self.x_dim * self.group.order * self.z_dim

    @property
    def query_count(self) -> int:
        return self.unitaries.shape[-3]

    @property
    def n_outcomes(self) -> int:
        return len(self.povm[0])


def _validated(dim: int, weights, vectors, unitaries, ranks, factor) -> tuple:
    """(state, unitaries, POVM), checked for one algorithm or a batch at once."""
    weights, vectors = validate_density_matrix(weights, vectors)
    if vectors.shape[-2] != dim:
        raise ValueError(f"state vectors have dimension {vectors.shape[-2]}, expected {dim}")
    unitaries = validate_unitary(unitaries)
    if unitaries.shape[-2:] != (dim, dim):
        raise ValueError(f"unitaries have shape {unitaries.shape[-2:]}, expected {(dim, dim)}")
    ranks, factor = validate_povm(ranks, factor)
    if factor.shape[-2] != dim:
        raise ValueError(f"POVM dimension {factor.shape[-2]} does not match {dim}")
    return (weights, vectors), unitaries, (ranks, factor)


# Complex entries one batch of algorithms may hold in a run, bounding
# memory: its state vectors, unitaries and POVM factors and, over T tables,
# its evolved columns and measured amplitudes. A 1-query random algorithm
# at the falsifier's ceiling d = 1232 (useless.MAX_DIM) holds about
# 3.0e6 of them, so there a batch is one algorithm.
STACK_ENTRY_BUDGET = 2**22


def stack_capacity(dim: int, queries: int, rank: int, povm_columns: int, n_tables: int) -> int:
    """Algorithms of one shape a batch run over ``n_tables`` tables holds
    within ``STACK_ENTRY_BUDGET``, and at least one."""
    entries = dim * (queries * dim + rank + povm_columns) + (dim + povm_columns) * n_tables * rank
    return max(1, STACK_ENTRY_BUDGET // entries)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome distributions for a stack of T oracle tables.

    ``outcome_probs`` has shape (T, S). The final states are kept in
    factored form: table t ends in rho_t = sum_r weights[r] v_rt v_rt^H
    with v_rt = ``columns[:, t, r]``, where ``columns`` has shape (d, T, R),
    R is the rank of the initial state's factor and ``weights`` its signed
    weights. Every array leads with the algorithm's batch shape.
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


def run(alg: QuantumAlgorithm, tables) -> RunResult:
    """Evolve the initial state through k oracle calls and k unitaries,
    for every oracle table in the (T, x_dim) stack at once.

    Each signed-weight vector of the initial state evolves as a column;
    each oracle call is one gather along the basis axis for the whole
    batch and every table, and each unitary one batched matrix product.
    With no unitaries the initial state is measured directly. The
    measurement is one batched product B^H @ columns with the stacked POVM
    factor B; outcome probabilities are sum_r weights[r] ||B_s^H v_rt||^2,
    a segmented sum of its squared moduli, verified to be a distribution
    within the numeric tolerance for every algorithm and table and then
    clamped to [0, 1]. Every array of the result leads with the
    algorithm's batch shape.
    """
    tables = np.asarray(tables)
    perm = oracle_matrix(tables, alg.x_dim, alg.group, alg.z_dim)
    n_tables, dim = perm.shape
    batch, n_outcomes = alg.batch_shape, alg.n_outcomes
    weights, vectors = alg.state  # (..., R), (..., d, R)
    rank = weights.shape[-1]
    columns = np.broadcast_to(vectors[..., None, :], (*batch, dim, n_tables, rank))
    # row (i, t) of each algorithm's (d*T, R) view reads row (P[t, i], t);
    # the first call reads row P[t, i] of the initial vectors, into a
    # C-ordered (..., d, T, R) array that the product below reads as a view
    gather = perm.T * n_tables + np.arange(n_tables)
    for i in range(alg.query_count):
        if i == 0:
            columns = np.take(vectors, perm.T, axis=-2)
        else:
            columns = columns.reshape(*batch, dim * n_tables, rank)[..., gather, :]
        columns = alg.unitaries[..., i, :, :] @ columns.reshape(*batch, dim, n_tables * rank)
        columns = columns.reshape(*batch, dim, n_tables, rank)
    flat = np.ascontiguousarray(columns).reshape(*batch, dim, n_tables * rank)
    ranks, factor = alg.povm
    amplitudes = np.swapaxes(factor.conj(), -1, -2) @ flat  # (..., M, T*R)
    squares = amplitudes.real**2 + amplitudes.imag**2
    sizes = np.array(ranks)
    starts = np.cumsum(sizes) - sizes
    expect = np.zeros((*batch, n_outcomes, n_tables * rank))
    measured = sizes > 0  # reduceat would copy a row into an empty segment
    expect[..., measured, :] = np.add.reduceat(squares, starts[measured], axis=-2)
    expect = expect.reshape(*batch, n_outcomes, n_tables, rank)
    probs = np.swapaxes((expect @ weights[..., None, :, None])[..., 0], -1, -2)  # (..., T, S)
    rows = probs.reshape(-1, n_tables, n_outcomes)  # algorithm 0 alone for one algorithm
    out_of_range = (rows.min(axis=2) < -TOL_NUM) | (rows.max(axis=2) > 1 + TOL_NUM)
    if out_of_range.any():
        a, t = np.unravel_index(np.argmax(out_of_range), out_of_range.shape)
        raise ArithmeticError(
            f"outcome probabilities of algorithm {a} outside [0,1] on table {t} "
            f"{tables[t].tolist()}: {rows[a, t].tolist()}"
        )
    sums = rows.sum(axis=2)
    bad_sum = np.abs(sums - 1.0) > TOL_NUM
    if bad_sum.any():
        a, t = np.unravel_index(np.argmax(bad_sum), bad_sum.shape)
        raise ArithmeticError(
            f"outcome probabilities of algorithm {a} on table {t} {tables[t].tolist()} "
            f"sum to {sums[a, t]}, not 1"
        )
    return RunResult(outcome_probs=np.clip(probs, 0.0, 1.0), weights=weights, columns=columns)


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

    Rows follow ``problem.part_labels()``; the table (..., J, S) leads with
    the algorithm's batch shape, from one :func:`run` over the class.
    Every quantum verdict reads this table; no other code sums a class's
    outcome table by part.
    """
    _check_match(alg, problem)
    in_part = np.arange(len(problem.part_masses))[:, None] == problem.part_index  # (J, |C|)
    table = (in_part * problem.float_prior) @ run(alg, problem.functions).outcome_probs
    sums = table.sum(axis=(-2, -1))
    bad = np.abs(sums - 1.0) > TOL_NUM
    if bad.any():
        a = int(np.argmax(bad))
        raise ArithmeticError(f"joint distribution of algorithm {a} sums to {sums.flat[a]}, not 1")
    return table


def outcome_posteriors(
    alg: QuantumAlgorithm, problem: LearningProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities (..., S) and part posteriors (..., J, S), rows
    as in :func:`joint_distribution`; a column is NaN where conditioning is
    undefined, at an outcome probability of at most ``EPS_COND``."""
    table = joint_distribution(alg, problem)
    outcome_probs = table.sum(axis=-2)
    column = outcome_probs[..., None, :]
    posteriors = np.divide(
        table, column, out=np.full_like(table, np.nan), where=column > EPS_COND
    )
    return outcome_probs, posteriors


def success_probability(alg: QuantumAlgorithm, problem: LearningProblem) -> float | np.ndarray:
    """Probability that the labeled outcome matches the hidden part: a float
    for one algorithm, an array of them for a batch."""
    labels = alg.outcome_labels
    if labels is None:
        raise ValueError("algorithm has no outcome labels")
    outcomes = list(labels)
    hit = np.equal.outer(problem.part_labels(), [labels[s] for s in outcomes])
    hits = joint_distribution(alg, problem)[..., outcomes][..., hit]
    # each algorithm's hits summed as one contiguous row, as a lone algorithm's are
    values = np.ascontiguousarray(hits).sum(axis=-1)
    return values if alg.batch_shape else float(values)


# ---------------------------------------------------------------------------
# random algorithms for falsification trials


def trial_seeds(seed: int, n: int) -> list[int]:
    """Deterministic child seeds for a batch of independent trials.

    The seeds for n trials are a prefix of the seeds for any larger n.
    """
    seed, n = seed_from_json(seed), int_from_json(n)
    if n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    return np.random.SeedSequence(seed).generate_state(n).tolist()


def random_algorithm(
    x_dim: int,
    group: FiniteAbelianGroup,
    z_dim: int,
    queries: int,
    seed: int | Sequence[int],
    labels_cycle: Sequence[int] | None = None,
) -> QuantumAlgorithm:
    """Seeded random algorithm: Haar pure initial state, Haar unitaries, and
    a random projective POVM with one rank-1 element per dimension, each
    built as its factor. ``seed`` is one seed, giving one algorithm, or a
    sequence of them, giving a batch with one algorithm per seed.

    Seed s draws from the streams ``trial_seeds(s, queries + 2)``: the
    state, then each unitary, then the POVM's basis. Each part is drawn at
    the seeds' shape, the unitaries of all seeds orthonormalized by one
    stacked QR and the POVM bases by another, so each algorithm of a batch
    equals its one-seed draw bit for bit. ``labels_cycle`` assigns outcome
    s the label ``cycle[s % len(cycle)]``, for problems where a success
    probability is wanted.
    """
    x_dim, z_dim, queries = map(int_from_json, (x_dim, z_dim, queries))
    if queries < 0:
        raise ValueError(f"queries must be >= 0, got {queries}")
    seeds = np.asarray(seed, dtype=object)  # each seed as given, for the integer rule
    streams = np.empty(seeds.shape + (queries + 2,), dtype=object)
    for index, s in np.ndenumerate(seeds):
        streams[index] = trial_seeds(s, queries + 2)
    dim = x_dim * group.order * z_dim
    labels = None
    if labels_cycle is not None:
        if not len(labels_cycle):
            raise ValueError("labels_cycle must hold at least one label")
        labels = {s: labels_cycle[s % len(labels_cycle)] for s in range(dim)}
    return QuantumAlgorithm(
        x_dim=x_dim,
        group=group,
        z_dim=z_dim,
        state=random_pure_state(dim, streams[..., 0]),
        unitaries=random_unitary(dim, streams[..., 1:queries + 1]),
        povm=random_povm(dim, dim, streams[..., queries + 1]),
        outcome_labels=labels,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def algorithm_to_json(alg: QuantumAlgorithm) -> dict:
    """The algorithm with its state and POVM elements written as dense
    matrices, each element from its column block B_s of the POVM factor."""
    if alg.batch_shape:
        raise ValueError("algorithm_to_json writes one algorithm; index the batch first")
    labels = alg.outcome_labels
    weights, vectors = alg.state
    blocks = np.split(alg.povm[1], np.cumsum(alg.povm[0])[:-1], axis=-1)
    return {
        "x_dim": alg.x_dim,
        "group": group_to_json(alg.group),
        "z_dim": alg.z_dim,
        "rho0": matrix_to_json((vectors * weights) @ vectors.conj().T),
        "unitaries": [matrix_to_json(u) for u in alg.unitaries],
        "povm": [matrix_to_json(b @ b.conj().T) for b in blocks],
        "labels": None if labels is None else {str(s): j for s, j in labels.items()},
    }


def algorithm_from_json(data: Mapping) -> QuantumAlgorithm:
    """Read the dense JSON form. The unitaries and the POVM elements are
    each parsed as one stack, and the elements factored by one stacked
    ``eigh``; rho0 goes through the same two functions as a stack of one."""
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, Mapping):
        raise ValueError(f"labels must map outcomes to parts, got {type(labels).__name__}")
    return QuantumAlgorithm(
        x_dim=int_from_json(data["x_dim"]),
        group=group_from_json(data["group"]),
        z_dim=int_from_json(data["z_dim"]),
        state=factor_hermitians(matrices_from_json([data["rho0"]], "matrix JSON"), "density matrix")[0],
        unitaries=matrices_from_json(data["unitaries"], "unitary {}"),
        povm=povm_from_dense(matrices_from_json(data["povm"], "POVM element {}")),
        outcome_labels=None
        if labels is None
        else {int_from_text(s, "outcome label key"): j for s, j in labels.items()},
    )
