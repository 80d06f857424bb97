"""Acceptance polynomials and their compilation to classical samplers.

For a k-query algorithm over Boolean oracles on n points, the probability
of accepting is a multilinear polynomial of degree at most 2k in the n
table bits. Rewriting it over +/-1 variables gives character coefficients
whose absolute values, normalized by their total mass T, define a
distribution over subsets of at most 2k query points. Querying a sampled
subset and signing the product reproduces the quantum acceptance bias
shrunk by exactly 1/T.

Subsets of query points are represented as bitmasks over internal point
indices, bit i for point i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError
from .problems import LearningProblem
from .qsim import EPS_COND, QuantumAlgorithm, _check_match, run

MAX_CUBE_VARS = 12

# Degree-bound alarm: any interpolated coefficient this large on a subset
# bigger than 2k means the simulation itself is broken.
DEGREE_TOL = 1e-8

# Coefficients below this are floating-point dust and must not become
# query sets of the compiled sampler.
PRUNE_TOL = 1e-12

# A compiled sampler's term probabilities must sum to 1 within this.
PROB_SUM_TOL = 1e-10

# The ratio audit's two sides must agree within this.
AUDIT_TOL = 1e-8


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _popcounts(size: int) -> np.ndarray:
    """Popcount of every mask below ``size``, as signed ints."""
    return np.bitwise_count(np.arange(size)).astype(np.int64)


def _butterfly(values: Sequence[float], kernel: Sequence[Sequence[float]]) -> np.ndarray:
    """Apply the 2x2 ``kernel`` along every index bit: out = K^(x n) v.

    Bit i of the index is one tensor factor: viewed as (-1, 2, 2^i), the
    middle axis holds the pairs (mask without bit i, mask with bit i).
    """
    a = np.array(values, dtype=float)
    size = len(a)
    if a.ndim != 1 or size == 0 or size & (size - 1):
        raise ValueError(f"need a power-of-two value count, got {size}")
    k = np.asarray(kernel, dtype=float)
    step = 1
    while step < size:
        a = (k @ a.reshape(-1, 2, step)).reshape(size)
        step *= 2
    return a


def _subset_sorted(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _accept_indices(alg: QuantumAlgorithm, accept_outcomes: Iterable[int]) -> list[int]:
    """The accept set as sorted distinct outcome indices of ``alg``."""
    accept = sorted({int(s) for s in accept_outcomes})
    for s in accept:
        if not 0 <= s < alg.n_outcomes:
            raise ValueError(f"accept outcome {s} outside [0, {alg.n_outcomes})")
    return accept


@dataclass(frozen=True, eq=False)
class MultilinearPolynomial:
    """Real multilinear polynomial in n variables, coefficients by bitmask.

    ``coeffs[mask]`` multiplies the product of the variables in ``mask``.
    The same container serves the 0/1-variable form and the +/-1-variable
    form; which one is meant is determined by how it was produced.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if self.n < 0 or coeffs.shape != (1 << self.n,):
            raise ValueError(f"need 2^{self.n} coefficients, got shape {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    def values_on_cube(self) -> np.ndarray:
        """Values at all 0/1 points; index bit i is variable i (subset zeta)."""
        return _butterfly(self.coeffs, ((1, 0), (1, 1)))


def interpolate_on_cube(values: Sequence[float]) -> MultilinearPolynomial:
    """The unique multilinear polynomial through values on {0,1}^n.

    ``values[mask]`` is the target at the point whose i-th variable is bit
    i of ``mask``. Subset Moebius transform, O(2^n * n).
    """
    c = _butterfly(values, ((1, 0), (-1, 1)))
    return MultilinearPolynomial(len(c).bit_length() - 1, c)


def walsh_hadamard(values: Sequence[float]) -> np.ndarray:
    """Walsh-Hadamard transform: out[s] = sum_f (-1)^{popcount(s & f)} v[f]."""
    return _butterfly(values, ((1, 1), (1, -1)))


def acceptance_polynomial(
    alg: QuantumAlgorithm, accept_outcomes: Iterable[int]
) -> MultilinearPolynomial:
    """Accept probability of the algorithm as a polynomial in the table bits.

    Simulates every Boolean oracle table, sums the POVM outcome weights in
    ``accept_outcomes``, and interpolates. Any coefficient beyond degree
    2k above the alarm threshold signals a broken simulation and raises.
    """
    if alg.group.factors != (2,):
        raise ValueError("acceptance polynomials require the binary response group")
    n = alg.x_dim
    if n > MAX_CUBE_VARS:
        raise CapacityError(f"cube has 2^{n} tables, over the ceiling n <= {MAX_CUBE_VARS}")
    accept = _accept_indices(alg, accept_outcomes)
    tables = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    values = run(alg, tables).outcome_probs[:, accept].sum(axis=1)
    poly = interpolate_on_cube(values)
    max_degree = 2 * alg.query_count
    broken = (_popcounts(1 << n) > max_degree) & (np.abs(poly.coeffs) >= DEGREE_TOL)
    if broken.any():
        mask = int(np.argmax(broken))
        raise ArithmeticError(
            f"coefficient {poly.coeffs[mask]:.3e} on subset {_subset_sorted(mask)} "
            f"violates the degree bound {max_degree}; the simulation is inconsistent"
        )
    return poly


def to_fourier(p: MultilinearPolynomial) -> MultilinearPolynomial:
    """Character coefficients of q(w) = 2 p((w+1)/2, ...) - 1 over w in {-1,1}.

    q-hat(S) = 2^-n * sum_w q(w) w_S with w = 2f - 1. The Walsh-Hadamard
    transform sums (-1)^|S & f| q, and w_S = (-1)^|S| (-1)^|S & f|.
    """
    size = 1 << p.n
    signed = walsh_hadamard(2.0 * p.values_on_cube() - 1.0)
    return MultilinearPolynomial(p.n, (1 - 2 * (_popcounts(size) & 1)) * signed / size)


@dataclass(frozen=True)
class CompiledClassicalAlgorithm:
    """Randomized subset-sampling algorithm with bias scale T.

    Each term is (subset mask, sampling probability, sign). On oracle
    table f the sampler queries the subset's points, forms the +/-1
    product of their responses, and outputs 0 exactly when sign * product
    is +1. A degenerate compilation (T below threshold) asks no queries
    and outputs a fair coin.
    """

    n: int
    queries: int
    scale: float
    terms: tuple[tuple[int, float, int], ...]
    degenerate: bool

    def __post_init__(self):
        if not self.degenerate:
            total = sum(prob for _, prob, _ in self.terms)
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"term probabilities sum to {total!r}, not 1")
            for mask, _, sign in self.terms:
                if sign not in (-1, 1):
                    raise ValueError(f"sign must be +/-1, got {sign}")
                if _popcount(mask) > 2 * self.queries:
                    raise ValueError(
                        f"subset {_subset_sorted(mask)} exceeds the query budget "
                        f"{2 * self.queries}"
                    )
        # Term columns for classical_output_prob; not fields, so equality
        # and hashing still see only the terms tuple.
        masks, probs, signs = zip(*self.terms) if self.terms else ((), (), ())
        object.__setattr__(self, "_masks", np.array(masks, dtype=np.uint64))
        object.__setattr__(self, "_probs", np.array(probs, dtype=float))
        object.__setattr__(self, "_signs", np.array(signs, dtype=np.int64))

    @property
    def max_queries(self) -> int:
        return max((_popcount(mask) for mask, _, _ in self.terms), default=0)


def compile_classical(
    alg: QuantumAlgorithm, accept_outcomes: Iterable[int]
) -> CompiledClassicalAlgorithm:
    """Compile a Boolean-oracle algorithm into the subset sampler.

    T is the total absolute character mass. Subsets beyond the 2k degree
    bound (certified dust by `acceptance_polynomial`) and coefficients
    below the pruning threshold are dropped before normalizing.
    """
    poly = acceptance_polynomial(alg, accept_outcomes)
    coeffs = to_fourier(poly).coeffs
    budget = 2 * alg.query_count
    kept = np.flatnonzero(
        (np.abs(coeffs) >= PRUNE_TOL) & (_popcounts(len(coeffs)) <= budget)
    )
    scale = float(np.abs(coeffs[kept]).sum())
    if scale < PRUNE_TOL:
        return CompiledClassicalAlgorithm(
            n=poly.n, queries=alg.query_count, scale=0.0, terms=(), degenerate=True
        )
    terms = tuple(
        (int(mask), float(abs(coeffs[mask]) / scale), 1 if coeffs[mask] > 0 else -1)
        for mask in kept
    )
    return CompiledClassicalAlgorithm(
        n=poly.n, queries=alg.query_count, scale=scale, terms=terms, degenerate=False
    )


def classical_output_prob(compiled: CompiledClassicalAlgorithm, f: Sequence[int]) -> float:
    """Probability that the compiled sampler outputs 0 on oracle table f."""
    if len(f) != compiled.n:
        raise ValueError(f"table has {len(f)} bits, expected {compiled.n}")
    bits = [int(v) for v in f]
    if any(v not in (0, 1) for v in bits):
        raise ValueError(f"table entries must be bits, got {bits}")
    if compiled.degenerate:
        return 0.5
    zero_mask = sum((1 - bit) << i for i, bit in enumerate(bits))
    # product of w_i = 2 f_i - 1 over each subset: -1 per zero response;
    # bitwise_count returns uint8, so cast before the sign arithmetic
    zeros = np.bitwise_count(compiled._masks & np.uint64(zero_mask)).astype(np.int64)
    w = 1 - 2 * (zeros % 2)
    return float(compiled._probs[compiled._signs * w == 1].sum())


def compiled_to_json(compiled: CompiledClassicalAlgorithm) -> dict:
    return {
        "n": compiled.n,
        "k": compiled.queries,
        "T": compiled.scale,
        "terms": [
            {"S": _subset_sorted(mask), "prob": prob, "sign": sign}
            for mask, prob, sign in compiled.terms
        ],
        "degenerate": compiled.degenerate,
    }


@dataclass(frozen=True)
class Corollary5Report:
    """Both sides of the part-mass ratio identity for a two-part problem.

    ``lhs`` is (sum over the first part of mu * accept) / (sum over the
    class of mu * accept); ``rhs`` is the prior mass of the first part.
    When 2k classical queries are useless the two must agree; the report
    also carries that classical verdict so a failed identity can be told
    apart from a failed hypothesis.
    """

    problem: str
    part: int
    lhs: float
    rhs: float
    deviation: float
    tolerance: float
    defined: bool
    identity_holds: bool
    classical_useless_2k: bool | None


def corollary5_audit(
    problem: LearningProblem,
    alg: QuantumAlgorithm,
    accept_outcomes: Iterable[int],
    check_classical: bool = True,
) -> Corollary5Report:
    """Audit the ratio identity tying acceptance mass to the prior.

    Requires a Boolean-valued problem with exactly two parts. The accept
    probabilities come from direct simulation of the class members, kept
    independent of the polynomial and sampler machinery on purpose.
    """
    _check_match(alg, problem)
    if problem.group.factors != (2,):
        raise ValueError("the audit requires the binary response group")
    parts = problem.part_labels()
    if len(parts) != 2:
        raise ValueError(f"the audit requires exactly two parts, got {parts}")
    accept = _accept_indices(alg, accept_outcomes)
    weights = [float(w) for w in problem.prior]
    accept_probs = run(alg, problem.functions).outcome_probs[:, accept].sum(axis=1).tolist()
    first = parts[0]
    lhs_mass = sum(
        w * p for w, p, j in zip(weights, accept_probs, problem.labels) if j == first
    )
    total_mass = sum(w * p for w, p in zip(weights, accept_probs))
    rhs = float(problem.part_prior()[first])
    defined = total_mass > EPS_COND
    lhs = lhs_mass / total_mass if defined else float("nan")
    deviation = abs(lhs - rhs) if defined else float("nan")
    useless_2k: bool | None = None
    if check_classical:
        from .useless import VERDICT_NOT_USELESS, classical_useless

        verdict = classical_useless(problem, 2 * alg.query_count).verdict
        useless_2k = verdict != VERDICT_NOT_USELESS
    return Corollary5Report(
        problem=problem.name,
        part=first,
        lhs=lhs,
        rhs=rhs,
        deviation=deviation,
        tolerance=AUDIT_TOL,
        defined=defined,
        identity_holds=bool(defined and deviation <= AUDIT_TOL),
        classical_useless_2k=useless_2k,
    )
