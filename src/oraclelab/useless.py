"""Uselessness certification and query lower bounds.

Classical verdicts are exact: the checker reads the point-sets of the
query budget's size in batches that grow 8-fold up to ``BATCH_ROW_BUDGET``
rows, and sums the integer prior weight of each part in each group of rows
sharing a point-set and a restricted table. One kernel reads every batch,
at about 1-5 ns a table cell on a 2-core box: the rows' group codes take
the table's columns as many at a time as int64 holds, are re-numbered
densely between steps, and index one ``np.bincount``. Each part's share of
every group is compared with its prior by integer cross-multiplication. A
check is charged on the table cells it reads: a witness within
``MAX_TABLE_CELLS`` is reported whatever the worst case, and a scan that
would pass the ceiling without one stops there. The largest useless k is
found by full scans that close a bracket at its cheaper end: one useless
scan at m and one witness at m + 1 certify it.
Quantum verdicts from sampling are one-sided: a deviation is a proof that
queries leak information, while the absence of one across random trials is
evidence only. The proof route for quantum uselessness is the classical
certificate: if 2q classical queries are useless, q quantum queries are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Sequence

import numpy as np

from .algebra import int_from_json
from .errors import CapacityError
from .problems import LearningProblem, posterior_classical
from .qsim import (
    QuantumAlgorithm,
    _check_match,
    outcome_posteriors,
    random_algorithm,
    run,
    stack_capacity,
    trial_seeds,
)

# Ceiling on the table cells an exact check reads, k' * |C| a point-set with
# k' = min(k, |X|), counted as they are read; for max_useless_k, on each
# scan on its own. On a 2-core box (CPython 3.11, numpy 2.4), parity-13 at
# k = 7, shamir-19-3 at k = 3 and shamir-43-2 at k = 2 read 0.95-4.2 ns a
# cell where a batch is counted, and 1.5-5.0 ns a cell where the same scans
# are re-numbered, so a scan refused at the ceiling exits after about
# 0.3-0.5 s (shamir-43-2 at k = 2: 0.42 s).
MAX_TABLE_CELLS = 10**8

# Rows (or bins, where they are more) of a counted scan's first batch; any
# other scan's first batch holds an eighth as many rows, one point-set of
# any class over 256 rows. So a witness among the first point-sets costs
# one small batch; later batches grow 8-fold up to BATCH_ROW_BUDGET. On a
# 2-core box, a counted first batch of one point-set made parity-4's
# max_useless_k slower (0.108 -> 0.143 ms); a first batch of 2^12 rows made
# shamir-7-2's first-point-set witnesses at k = 4 and 5 6-8 times as slow
# as one of 2^9 (0.10 -> 0.82 ms at k = 4); and batches of BATCH_ROW_BUDGET
# rows from the start made shamir-157-1's max_useless_k slower (84 -> 121 ms).
FIRST_BATCH_ROWS = 2**12

# Codes per row that a batch's group codes may span before they are
# re-numbered, and bins per row up to which one np.bincount sums each (part,
# group); a scan is counted, never re-numbering, where a point-set's bins
# are at most COUNTED_BINS_PER_ROW * |C| (see _counts). On a 2-core box,
# counting the witness scans of shamir-5-2 and shamir-7-2 at k = 3 (5-7
# bins a row) took 0.60-0.65 of re-numbering them, while a bound of 16 or
# 32 made two tables on 16 points (|C| = 2) at k = 4-8 1.2-3 times as slow.
COUNTED_BINS_PER_ROW = 8

# Rows one batch of point-sets may stack, bounding memory: a batch's codes,
# columns, weights and histogram grow with it. Checking parity-11 at k = 6
# peaks at 31 MB RSS with 2^16 rows.
BATCH_ROW_BUDGET = 2**16

# Hilbert-space ceiling for the sampling falsifier. One parity-4 trial with
# one query costs O(d^3); at d = 1232 it takes about 1.5-1.6 s on a 2-core
# box (CPython 3.11, numpy 2.4 with OpenBLAS). There a batch holds one
# algorithm (qsim.STACK_ENTRY_BUDGET).
MAX_DIM = 1232

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


def _counts(problem: LearningProblem, width: int) -> bool:
    """Whether a scan at ``width`` is counted: one point-set's bins, P *
    r^width for P parts and codes below r = ``code_radix``, are at most
    ``COUNTED_BINS_PER_ROW`` times its |C| rows. Past the bound's bit length
    a power of r >= 2 exceeds it already, so a wide point-set forms none."""
    bound = COUNTED_BINS_PER_ROW * problem.size
    return len(problem.part_masses) * problem.code_radix ** min(width, bound.bit_length()) <= bound


def _renumber(codes: np.ndarray, span: int, bound: int) -> tuple[np.ndarray, int]:
    """(dense codes, their number): the partition of ``codes``, all below
    ``span``, numbered in their order, by a boolean table and a cumsum
    while the span is at most ``bound``, else by one sort."""
    if span <= bound:
        seen = np.zeros(span, dtype=bool)
        seen[codes] = True
        dense = np.cumsum(seen, dtype=codes.dtype)
        return dense[codes] - 1, int(dense[-1])
    order = np.argsort(codes)
    ordered = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    dense = np.empty_like(codes)
    dense[order] = np.cumsum(new, dtype=codes.dtype) - 1
    return dense, int(dense[order[-1]]) + 1


def _sums(index: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Exact sums of ``values`` by ``index``: Python ints of an object array,
    or int64 from a float64 ``np.bincount`` of integer weights over a
    denominator D with D^2 < 2^63, as every sum is at most D < 2^53."""
    if values.dtype == object:
        sums = np.zeros(length, dtype=object)
        np.add.at(sums, index, values)
        return sums
    return np.bincount(index, values, minlength=length).astype(np.int64)


def _failing_row(problem: LearningProblem, points: np.ndarray, counted: bool) -> int | None:
    """The earliest row of a batch whose group fails, or None; ``points``
    is (width, point-sets), and rows run point-set-major. A group of mass m
    passes when each part's mass in it times the denominator D equals its
    prior weight times m; those masses sum to m, so an absent part has
    weight 0. Each row's group code starts as its point-set and takes the
    point codes column by column, as many a step as int64 holds, re-numbered
    densely after each step but the last, until every row is its own group.
    A counted batch packs every column in one step, into codes and bins
    below max(BATCH_ROW_BUDGET, ``COUNTED_BINS_PER_ROW`` * |C|) <= 2^25
    (MAX_CLASS_CELLS = 2^22), so int32 holds them while the factor is below
    512. Where P times the codes' span is at most ``COUNTED_BINS_PER_ROW``
    times the rows, one ``np.bincount`` sums each (part, group); above
    that, each (group, part) cell the batch holds is numbered and summed."""
    width, batch = points.shape
    size, radix, scale = problem.size, problem.code_radix, problem.scale
    masses = problem.exact_masses
    rows, parts = batch * size, len(masses)
    bound = COUNTED_BINS_PER_ROW * rows
    codes = np.arange(batch, dtype=np.int32 if counted else np.int64).repeat(size)
    span, read = batch, 0  # every code is below span; columns read
    while read < width:
        step = min(width - read, int(math.log((2**63 - 1) // span, radix)))
        while span * radix**step > 2**63 - 1:  # the float log may round up
            step -= 1
        block = problem.point_codes[points[read:read + step]].reshape(step, rows)
        if step > 4 and rows < 2**10:  # one product packs many columns of few rows
            codes *= radix**step
            codes += radix ** np.arange(step - 1, -1, -1, dtype=codes.dtype) @ block
        else:  # in-place steps, a column each
            for column in block:
                codes *= radix
                codes += column
        span, read = span * radix**step, read + step
        if read < width or parts * span > bound:
            codes, span = _renumber(codes, span, bound)
            if span == rows:  # every row its own group
                break
    weights = problem.exact_weights[None].repeat(batch, axis=0).reshape(-1)
    if parts * span <= bound:
        offsets = problem.part_index.astype(codes.dtype) * span
        cells = (codes.reshape(batch, size) + offsets).reshape(-1)
        mass = _sums(cells, weights, parts * span).reshape(parts, span)
        failing = (mass * scale != masses[:, None] * mass.sum(axis=0)).any(axis=0)
    else:
        part = problem.part_index[None].repeat(batch, axis=0).reshape(-1)
        cells, count = _renumber(codes * parts + part, span * parts, bound)
        group, cell_part = np.empty(count, dtype=codes.dtype), np.empty(count, dtype=part.dtype)
        group[cells], cell_part[cells] = codes, part
        mass = _sums(cells, weights, count)
        bad = mass * scale != masses[cell_part] * _sums(group, mass, span)[group]
        failing = np.bincount(group, bad, minlength=span) > 0
    return int(failing[codes].argmax()) if failing.any() else None


def _first_violation(problem: LearningProblem, width: int) -> tuple[list | None, int]:
    """(pairs of the first event on ``width`` points moving a part, or None;
    the point-sets read). Point-sets are read in ``combinations`` order, in
    batches that hold at least one point-set and grow 8-fold up to
    ``BATCH_ROW_BUDGET`` rows: a counted batch is sized by a point-set's
    rows or bins, whichever is more, from about ``FIRST_BATCH_ROWS``, and
    any other by its rows, from about ``FIRST_BATCH_ROWS`` / 8. A scan reads
    at most ``MAX_TABLE_CELLS`` table cells, width * |C| a point-set: if it
    has found no witness when the next point-set would pass that, it raises
    ``CapacityError`` naming the width and the cells read. So the verdict,
    the witness and the count do not depend on the batches. The witness is
    the point-set and restricted table of the earliest row whose group
    fails: of the earliest point-set with a failing group, the failing group
    whose first row comes first."""
    if width == 0:
        return None, 1  # the one event is the sure one, whose posterior is the prior
    size = problem.size
    counted = _counts(problem, width)
    unit, first_rows = size, FIRST_BATCH_ROWS // 8  # of one point-set, and of the first batch
    if counted:  # a point-set's rows or bins, whichever is more
        bins = len(problem.part_masses) * problem.code_radix**width
        unit, first_rows = max(size, bins), FIRST_BATCH_ROWS
    point_sets = combinations(range(problem.domain_size), width)
    # the point-sets the ceiling allows
    allowed = islice(point_sets, MAX_TABLE_CELLS // (width * size))
    read, batch_size = 0, max(1, min(first_rows, BATCH_ROW_BUDGET) // unit)
    while batch := list(islice(allowed, batch_size)):
        row = _failing_row(problem, np.array(batch, dtype=np.intp).T, counted)
        if row is not None:
            points = batch[row // size]
            responses = problem.functions[row % size, list(points)].tolist()
            return list(zip(points, responses)), read + row // size + 1
        read += len(batch)
        batch_size = min(8 * batch_size, max(1, BATCH_ROW_BUDGET // unit))
    if next(point_sets, None) is not None:
        raise CapacityError(
            f"classical check at k' = {width} read {width * read * size} table cells "
            f"without a witness, and its next point-set passes the ceiling "
            f"MAX_TABLE_CELLS={MAX_TABLE_CELLS}"
        )
    return None, read


def classical_useless(problem: LearningProblem, k: int) -> UselessnessReport:
    """Decide exactly whether k classical queries are useless.

    A k-query event fixes responses at k' = min(k, |X|) or fewer points,
    and an event on fewer points is a disjoint union of events on k'
    points, so only point-sets of size exactly k' are checked, reading at
    most k' * C(|X|, k') * |C| table cells. The scan is charged on the
    cells it reads: a witness found within ``MAX_TABLE_CELLS`` is reported
    whatever the worst case, and a scan that would read past it without a
    witness raises ``CapacityError`` there, after up to ``MAX_TABLE_CELLS``
    cells (about 0.3-0.5 s). A witness is the violating event's k' pairs,
    unpadded (repeating a query adds nothing), with its posterior replayed
    by :func:`posterior_classical` and the first part it moves. ``detail``
    counts the point-sets and table cells read, up to the witness's own.
    """
    k = int_from_json(k)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    width = min(k, problem.domain_size)
    pairs, point_sets = _first_violation(problem, width)
    witness = None
    if pairs is not None:
        posterior, prior = posterior_classical(problem, pairs), problem.part_prior()
        j = next(j for j in prior if posterior[j] != prior[j])  # in label order
        witness = {
            "transcript": [[x, y] for x, y in pairs],
            "part": j,
            "posterior": [posterior[j].numerator, posterior[j].denominator],
            "prior": [prior[j].numerator, prior[j].denominator],
        }
    return UselessnessReport(
        problem=problem.name,
        mode="classical",
        k=k,
        verdict=VERDICT_USELESS if witness is None else VERDICT_NOT_USELESS,
        evidence="exact-enumeration",
        witness=witness,
        detail={"point_sets": point_sets, "cells_read": width * point_sets * problem.size},
    )


def max_useless_k(problem: LearningProblem) -> int:
    """Largest k for which k classical queries are useless.

    Uselessness is downward monotone (pad a shorter transcript by
    repeating its first query), and a witness on w points extends to every
    larger width, so m is certified by one full useless scan at width m and
    one witness at width m + 1, in whatever order the widths are read.
    Events never constrain more than |X| points, so a clean scan at |X|
    settles every larger k as well; the return value |X| means all query
    counts are useless.

    Scans close the bracket between lo, the largest width known useless
    (0 at first), and hi, the smallest known informative one (|X| + 1 at
    first), each at whichever end is cheaper in the worst case, the upper
    one on a tie: a scan at w reads at most w * C(|X|, w) * |C| = |X| *
    C(|X| - 1, w - 1) * |C| cells, least where w - 1 lies farthest from
    (|X| - 1) / 2, and a scan that meets a witness stops there. So parity-13
    and parity-17 read one point-set at k = N and full scans at k = 1 and
    N - 1 only.

    Each scan may read ``MAX_TABLE_CELLS`` cells; one that would pass them
    without a witness raises ``CapacityError``, after up to about 0.5 s of
    reading at that width. The end scanned is never dearer in the worst
    case than the lower end, lo + 1, and lo + 1 <= m + 1, so every class
    whose widths up to m + 1 each fit the ceiling is answered, as by the
    upward scan.
    """
    n = problem.domain_size
    lo, hi = 0, n + 1  # width lo is useless, as width 0 is; width hi is not, if at most n
    while hi - lo > 1:
        width = hi - 1 if abs(2 * lo - n + 1) <= abs(2 * hi - n - 3) else lo + 1
        pairs, _ = _first_violation(problem, width)
        lo, hi = (width, hi) if pairs is None else (lo, width)
    return lo


def quantum_useless_up_to(m: int) -> int:
    """Quantum queries proven useless when m classical queries are: floor(m/2).

    If 2q classical queries are useless, q quantum queries are, so every
    q <= floor(m/2) is useless and floor(m/2) + 1 quantum queries are
    necessary.
    """
    return m // 2


def quantum_lower_bound(problem: LearningProblem) -> int:
    """Lower bound on the quantum query complexity from the classical scan."""
    return quantum_useless_up_to(max_useless_k(problem)) + 1


def lemma_check(problem: LearningProblem, alg: QuantumAlgorithm) -> float | np.ndarray:
    """Deviation of the part-averaged final states from the prior mixture.

    For every part j, compares sum_{f in part j} mu(f) rho_f against
    mu(part j) * sum_f mu(f) rho_f and returns the largest entrywise
    absolute difference. The identity holds exactly whenever twice the
    algorithm's query count is classically useless. A batch of algorithms
    runs as one and gives one deviation per algorithm.
    """
    _check_match(alg, problem)
    result = run(alg, problem.functions)
    mu, batch = problem.float_prior, alg.batch_shape

    def weighted_sum(rows) -> np.ndarray:
        """sum of mu(f) rho_f over ``rows``: A diag(mu(f) w_r) A^H, A their columns."""
        vectors = result.columns[..., rows, :].reshape(*batch, alg.dim, -1)
        scale = (mu[rows][:, None] * result.weights[..., None, :]).reshape(*batch, -1)
        return (vectors * scale[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)

    mixture = weighted_sum(slice(None))
    worst = np.max(
        [
            np.abs(weighted_sum(problem.part_index == r) - w * mixture).max(axis=(-2, -1))
            for r, w in enumerate(problem.part_shares())
        ],
        axis=0,
    )
    return worst if batch else float(worst)


def _trial_posteriors(
    problem: LearningProblem,
    queries: int,
    trials: int,
    seed: int,
    z_dim: int,
    dim: int,
    extras: Sequence[QuantumAlgorithm],
):
    """(tags, outcome probabilities, posteriors) of each batch of trials, in
    trial order: each extra batch, then the seeded random trials of
    dimension ``dim``, cut into batches of at most ``stack_capacity``
    algorithms. A random batch is drawn as it is simulated and nothing
    holds it after, so no random algorithm is alive when the next batch is
    drawn."""
    trial = 0
    for extra in extras:
        rank, width = extra.state[0].shape[-1], extra.povm[1].shape[-1]
        size = stack_capacity(extra.dim, queries, rank, width, problem.size)
        for start in range(0, len(extra), size):
            stop = min(start + size, len(extra))
            yield [f"extra-{trial + i}" for i in range(start, stop)], *outcome_posteriors(
                extra[start:stop], problem
            )
        trial += len(extra)
    seeds = trial_seeds(seed, trials)
    size = stack_capacity(dim, queries, 1, dim, problem.size)
    for start in range(0, trials, size):
        chunk = seeds[start:start + size]
        yield [f"seed-{s}" for s in chunk], *outcome_posteriors(
            random_algorithm(problem.domain_size, problem.group, z_dim, queries, chunk), problem
        )


def quantum_useless_falsify(
    problem: LearningProblem,
    queries: int,
    trials: int,
    seed: int,
    z_dim: int = 1,
    extra_algorithms: Sequence[QuantumAlgorithm] = (),
) -> UselessnessReport:
    """Search for posterior-vs-prior deviations over random algorithms.

    Runs any ``extra_algorithms`` (each one algorithm or a batch, making
    ``queries`` calls, with dimension at most ``MAX_DIM``; their algorithms
    are tagged extra-0, extra-1, ... in order) and then ``trials`` seeded
    random ``queries``-call algorithms, one batched simulation per batch of
    trials, and records the largest |posterior - prior| over observable
    outcomes and parts; of equal maxima the witness is the earliest trial,
    then the earliest outcome.
    A deviation above ``FALSIFY_TOL`` yields a "not useless" verdict with a
    witness naming the trial; anything else is "useless" backed by sampling
    only, which is evidence, not proof.
    """
    queries, trials, seed, z_dim = map(int_from_json, (queries, trials, seed, z_dim))
    extras = [alg if alg.batch_shape else alg[None] for alg in extra_algorithms]
    firsts = np.cumsum([0, *map(len, extras)])  # the trial number of each extra's first algorithm
    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    if trials < 0 or trials + firsts[-1] < 1:
        raise ValueError(f"trials must be >= 0, and >= 1 without extra algorithms; got {trials}")
    miscounted = [f"extra-{i}" for i, a in zip(firsts, extras) if a.query_count != queries]
    if miscounted:
        raise ValueError(f"extras must make {queries} queries; {', '.join(miscounted)} do not")
    if z_dim < 1:
        raise ValueError(f"z_dim must be >= 1, got {z_dim}")
    dim = problem.domain_size * problem.group.order * z_dim
    if dim > MAX_DIM:
        raise CapacityError(f"Hilbert dimension {dim} exceeds the ceiling MAX_DIM={MAX_DIM}")
    too_wide = [f"extra-{i} (d = {a.dim})" for i, a in zip(firsts, extras) if a.dim > MAX_DIM]
    if too_wide:
        raise CapacityError(
            f"extras exceed the ceiling MAX_DIM={MAX_DIM} in Hilbert dimension: {', '.join(too_wide)}"
        )
    parts = problem.part_labels()
    prior = np.array(problem.part_shares())  # in ``parts`` order
    max_deviation = 0.0
    argmax: dict | None = None
    first_trial = 0
    for tags, outcome_probs, posteriors in _trial_posteriors(
        problem, queries, trials, seed, z_dim, dim, extras
    ):
        # trial-major, then outcome-major, so the first of equal maxima is
        # the earliest trial's earliest outcome
        deviations = np.abs(posteriors - prior[:, None]).transpose(0, 2, 1)
        flat = int(np.argmax(np.nan_to_num(deviations, nan=-1.0)))
        a, s, r = np.unravel_index(flat, deviations.shape)
        if deviations[a, s, r] > max_deviation:
            max_deviation = float(deviations[a, s, r])
            argmax = {
                "trial": first_trial + int(a),
                "algorithm": tags[a],
                "outcome": int(s),
                "outcome_probability": float(outcome_probs[a, s]),
                "part": parts[r],
                "posterior": float(posteriors[a, r, s]),
                "prior": float(prior[r]),
            }
        first_trial += len(tags)
    verdict = VERDICT_NOT_USELESS if max_deviation > FALSIFY_TOL else VERDICT_USELESS
    return UselessnessReport(
        problem=problem.name,
        mode="quantum",
        k=queries,
        verdict=verdict,
        evidence="sampled-algorithms",
        witness=argmax if verdict == VERDICT_NOT_USELESS else None,
        max_deviation=max_deviation,
        trials=int(firsts[-1]) + trials,
        detail={"tol": FALSIFY_TOL, "seed": seed, "z_dim": z_dim, "best": argmax},
    )
