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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import int_from_json
from .errors import CapacityError
from .problems import LearningProblem
from .qsim import EPS_COND, QuantumAlgorithm, joint_distribution, run
from .useless import VERDICT_NOT_USELESS, classical_useless

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


def _popcounts(size: int) -> np.ndarray:
    """Popcount of every mask below ``size``, as signed ints."""
    return np.bitwise_count(np.arange(size)).astype(np.int64)


def _butterfly(values: Sequence[float], kernel: Sequence[Sequence[float]]) -> np.ndarray:
    """Apply the 2x2 ``kernel`` along every index bit of the last axis:
    out = K^(x n) v, for each row of a batch.

    Bit i of the index is one tensor factor: viewed as (-1, 2, 2^i), the
    middle axis holds the pairs (mask without bit i, mask with bit i).
    """
    a = np.array(values, dtype=float)
    size = a.shape[-1] if a.ndim else 0
    if size == 0 or size & (size - 1):
        raise ValueError(f"need a power-of-two value count, got {size}")
    k = np.asarray(kernel, dtype=float)
    step = 1
    while step < size:
        a = (k @ a.reshape(-1, 2, step)).reshape(a.shape)
        step *= 2
    return a


def _subset_sorted(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _accept_indices(alg: QuantumAlgorithm, accept_outcomes: Iterable[int]) -> list[int]:
    """The accept set as sorted distinct outcome indices of ``alg``."""
    accept = sorted({int_from_json(s) for s in accept_outcomes})
    for s in accept:
        if not 0 <= s < alg.n_outcomes:
            raise ValueError(f"accept outcome {s} outside [0, {alg.n_outcomes})")
    return accept


@dataclass(frozen=True, eq=False)
class MultilinearPolynomial:
    """Real multilinear polynomial in n 0/1 variables, coefficients by bitmask.

    ``coeffs[..., mask]`` multiplies the product of the variables in
    ``mask``; leading axes hold one polynomial per algorithm of a batch.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if self.n < 0 or coeffs.shape[-1:] != (1 << self.n,):
            raise ValueError(f"need 2^{self.n} coefficients, got shape {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    def values_on_cube(self) -> np.ndarray:
        """Values at all 0/1 points; index bit i is variable i (subset zeta)."""
        return _butterfly(self.coeffs, ((1, 0), (1, 1)))


def interpolate_on_cube(values: Sequence[float]) -> MultilinearPolynomial:
    """The unique multilinear polynomial through values on {0,1}^n.

    ``values[..., mask]`` is the target at the point whose i-th variable is
    bit i of ``mask``. Subset Moebius transform, O(2^n * n).
    """
    c = _butterfly(values, ((1, 0), (-1, 1)))
    return MultilinearPolynomial(c.shape[-1].bit_length() - 1, c)


def walsh_hadamard(values: Sequence[float]) -> np.ndarray:
    """Walsh-Hadamard transform: out[s] = sum_f (-1)^{popcount(s & f)} v[f]."""
    return _butterfly(values, ((1, 1), (1, -1)))


def acceptance_polynomial(
    alg: QuantumAlgorithm, accept_outcomes: Iterable[int]
) -> MultilinearPolynomial:
    """Accept probability as a polynomial in the table bits, one per
    algorithm of a batch along the leading axes of its coefficients.

    Simulates every Boolean oracle table in one :func:`run`, sums the POVM
    outcome weights in ``accept_outcomes``, and interpolates. Any
    coefficient beyond degree 2k above the alarm threshold signals a
    broken simulation and raises.
    """
    if alg.group.factors != (2,):
        raise ValueError("acceptance polynomials require the binary response group")
    n = alg.x_dim
    if n > MAX_CUBE_VARS:
        raise CapacityError(f"cube has 2^{n} tables, over the ceiling n <= {MAX_CUBE_VARS}")
    accept = _accept_indices(alg, accept_outcomes)
    tables = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    poly = interpolate_on_cube(run(alg, tables).outcome_probs[..., accept].sum(axis=-1))
    max_degree = 2 * alg.query_count
    coeffs = poly.coeffs.reshape(-1, 1 << n)
    broken = (_popcounts(1 << n) > max_degree) & (np.abs(coeffs) >= DEGREE_TOL)
    if broken.any():
        a, mask = np.unravel_index(np.argmax(broken), broken.shape)
        raise ArithmeticError(
            f"coefficient {coeffs[a, mask]:.3e} on subset {_subset_sorted(int(mask))} "
            f"violates the degree bound {max_degree}; the simulation is inconsistent"
        )
    return poly


def to_fourier(p: MultilinearPolynomial) -> np.ndarray:
    """Character coefficients q-hat[..., S] of q(w) = 2 p((w+1)/2, ...) - 1
    over w in {-1,1}, by bitmask S, for each polynomial of a batch.

    q-hat(S) = 2^-n * sum_w q(w) w_S with w = 2f - 1. The Walsh-Hadamard
    transform sums (-1)^|S & f| q, and w_S = (-1)^|S| (-1)^|S & f|.
    """
    size = 1 << p.n
    signed = walsh_hadamard(2.0 * p.values_on_cube() - 1.0)
    return (1 - 2 * (_popcounts(size) & 1)) * signed / size


@dataclass(frozen=True)
class CompiledClassicalAlgorithm:
    """Randomized subset-sampling algorithm with bias scale T.

    Each term is (subset mask, sampling probability, sign). On oracle
    table f the sampler queries the subset's points, forms the +/-1
    product of their responses, and outputs 0 exactly when sign * product
    is +1. A degenerate compilation (T below threshold) has no terms, asks
    no queries and outputs a fair coin. ``n``, ``queries`` and each mask
    and sign are read by :func:`int_from_json`.
    """

    n: int
    queries: int
    scale: float
    terms: tuple[tuple[int, float, int], ...]

    def __post_init__(self):
        terms = tuple((int_from_json(m), p, int_from_json(s)) for m, p, s in self.terms)
        vars(self).update(n=int_from_json(self.n), queries=int_from_json(self.queries), terms=terms)
        for mask, prob, sign in terms:
            if sign not in (-1, 1):
                raise ValueError(f"sign must be +/-1, got {sign}")
            if mask >> self.n:  # also every negative mask
                raise ValueError(f"subset mask {mask:#b} has a bit at or above n = {self.n}")
            if mask.bit_count() > 2 * self.queries:
                raise ValueError(f"subset {_subset_sorted(mask)} exceeds 2k = {2 * self.queries}")
            if not 0.0 <= prob < math.inf:  # false for NaN as well
                raise ValueError(
                    f"term probability {prob!r} of subset {_subset_sorted(mask)} is not a "
                    "finite non-negative number"
                )
        total = sum(prob for _, prob, _ in self.terms)
        if self.terms and abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"term probabilities sum to {total!r}, not 1")

    @property
    def degenerate(self) -> bool:
        """A sampler with no terms: it asks no queries and flips a fair coin."""
        return not self.terms

    @cached_property
    def output_probs(self) -> np.ndarray:
        """Probability of output 0 on every table, indexed by table mask: p(f) =
        1/2 + 1/2 sum_S sign_S prob_S w_S(f) with w_S(f) = (-1)^|S| (-1)^|S & f|,
        one Walsh-Hadamard transform of the signed term vector."""
        if self.n > MAX_CUBE_VARS:
            raise CapacityError(f"sampler has 2^{self.n} tables, over the ceiling n <= {MAX_CUBE_VARS}")
        signed = np.zeros(1 << self.n)
        for mask, prob, sign in self.terms:  # a repeated subset adds up, as sampling it twice does
            signed[mask] += (-1) ** mask.bit_count() * sign * prob
        probs = np.clip(0.5 + 0.5 * walsh_hadamard(signed), 0.0, 1.0)
        probs.flags.writeable = False  # cached and shared by every reader
        return probs

    @property
    def max_queries(self) -> int:
        return max((mask.bit_count() for mask, _, _ in self.terms), default=0)


def compile_polynomial(poly: MultilinearPolynomial, queries: int) -> CompiledClassicalAlgorithm:
    """Subset sampler for the acceptance polynomial of a ``queries``-query algorithm.

    T is the total absolute character mass. Subsets beyond the 2k degree
    bound (certified dust by `acceptance_polynomial`) and coefficients
    below the pruning threshold are dropped before normalizing.
    """
    coeffs = to_fourier(poly)
    kept = np.flatnonzero(
        (np.abs(coeffs) >= PRUNE_TOL) & (_popcounts(len(coeffs)) <= 2 * queries)
    )
    scale = float(np.abs(coeffs[kept]).sum())
    if scale < PRUNE_TOL:
        return CompiledClassicalAlgorithm(poly.n, queries, 0.0, ())
    terms = tuple(
        (mask, float(abs(coeffs[mask]) / scale), 1 if coeffs[mask] > 0 else -1)
        for mask in kept
    )
    return CompiledClassicalAlgorithm(poly.n, queries, scale, terms)


def compile_classical(
    alg: QuantumAlgorithm, accept_outcomes: Iterable[int]
) -> CompiledClassicalAlgorithm:
    """Compile a Boolean-oracle algorithm into the subset sampler."""
    return compile_polynomial(acceptance_polynomial(alg, accept_outcomes), alg.query_count)


def classical_output_prob(compiled: CompiledClassicalAlgorithm, f: Sequence[int]) -> float:
    """Probability that the compiled sampler outputs 0 on oracle table f."""
    if len(f) != compiled.n:
        raise ValueError(f"table has {len(f)} bits, expected {compiled.n}")
    mask = 0
    for i, v in enumerate(f):  # one pass: read, check and place each bit
        bit = int_from_json(v)
        if bit not in (0, 1):
            raise ValueError(f"table entries must be bits, got {[int_from_json(v) for v in f]}")
        mask |= bit << i
    return float(compiled.output_probs[mask])


def bias_certificate(
    compiled: CompiledClassicalAlgorithm, poly: MultilinearPolynomial
) -> Iterator[tuple[list[int], float, float, float]]:
    """(table bits, p_quantum, p_classical, residual) for every table, in mask order.

    The residual is p_classical - ((p_quantum - 1/2)/T + 1/2), the 1/T bias
    identity, or p_classical - 1/2 for a degenerate compilation.
    """
    values = poly.values_on_cube()
    p_c = compiled.output_probs
    residuals = p_c - (0.5 if compiled.degenerate else (values - 0.5) / compiled.scale + 0.5)
    for mask in range(1 << compiled.n):
        bits = [mask >> i & 1 for i in range(compiled.n)]
        yield bits, float(values[mask]), float(p_c[mask]), float(residuals[mask])


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

    ``lhs`` is (sum over the first part of mu * accept) / ``accept_mass``,
    the sum over the class of mu * accept; ``rhs`` is the prior mass of the
    first part. The ratio is ``defined`` only when the accept mass is above
    ``EPS_COND``; otherwise ``lhs`` and ``deviation`` are NaN. When 2k
    classical queries are useless the two must agree; the report also
    carries that classical verdict so a failed identity can be told apart
    from a failed hypothesis.
    """

    problem: str
    part: int
    accept_mass: float
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
) -> Corollary5Report | list[Corollary5Report]:
    """Audit the ratio identity tying acceptance mass to the prior.

    Requires a Boolean-valued problem with exactly two parts. The accept
    masses come from :func:`joint_distribution`, a direct simulation kept
    independent of the polynomial and sampler machinery on purpose. A
    batch of algorithms is audited from one simulation and gives one
    report per algorithm; the classical verdict is decided once for all
    of them.
    """
    if problem.group.factors != (2,):
        raise ValueError("the audit requires the binary response group")
    parts = problem.part_labels()
    if len(parts) != 2:
        raise ValueError(f"the audit requires exactly two parts, got {parts}")
    accept = _accept_indices(alg, accept_outcomes)
    part_masses = joint_distribution(alg, problem)[..., accept].sum(axis=-1)  # (..., 2)
    rhs = problem.part_shares()[0]
    useless_2k: bool | None = None
    if check_classical:
        verdict = classical_useless(problem, 2 * alg.query_count).verdict
        useless_2k = verdict != VERDICT_NOT_USELESS
    reports = []
    for part_mass in part_masses.reshape(-1, 2):
        lhs_mass, total_mass = float(part_mass[0]), float(part_mass.sum())
        defined = total_mass > EPS_COND
        lhs = lhs_mass / total_mass if defined else float("nan")
        deviation = abs(lhs - rhs) if defined else float("nan")
        reports.append(
            Corollary5Report(
                problem=problem.name,
                part=parts[0],
                accept_mass=total_mass,
                lhs=lhs,
                rhs=rhs,
                deviation=deviation,
                tolerance=AUDIT_TOL,
                defined=defined,
                identity_holds=bool(defined and deviation <= AUDIT_TOL),
                classical_useless_2k=useless_2k,
            )
        )
    return reports if alg.batch_shape else reports[0]
