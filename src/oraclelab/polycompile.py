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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError
from .problems import LearningProblem
from .qsim import EPS_COND, QuantumAlgorithm, run

MAX_CUBE_VARS = 12

# Degree-bound alarm: any interpolated coefficient this large on a subset
# bigger than 2k means the simulation itself is broken.
DEGREE_TOL = 1e-8

# Coefficients below this are floating-point dust and must not become
# query sets of the compiled sampler.
PRUNE_TOL = 1e-12

# Agreement required between independent coefficient computations and for
# interpolation round-trips.
TRANSFORM_TOL = 1e-10


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _subset_sorted(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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

    def evaluate(self, point: Sequence[float]) -> float:
        """Evaluate at an arbitrary real point, one value per variable."""
        if len(point) != self.n:
            raise ValueError(f"need {self.n} values, got {len(point)}")
        total = 0.0
        for mask in range(1 << self.n):
            c = self.coeffs[mask]
            if c == 0.0:
                continue
            term = c
            for i in _subset_sorted(mask):
                term *= point[i]
            total += term
        return float(total)

    def values_on_cube(self) -> np.ndarray:
        """Values at all 0/1 points; index bit i is variable i."""
        v = self.coeffs.copy()
        for bit in range(self.n):
            step = 1 << bit
            for mask in range(1 << self.n):
                if mask & step:
                    v[mask] += v[mask ^ step]
        return v


def _mask_of(subset: Iterable[int], n: int) -> int:
    mask = 0
    for i in subset:
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} outside [0, {n})")
        mask |= 1 << i
    return mask


def interpolate_on_cube(values: Sequence[float]) -> MultilinearPolynomial:
    """The unique multilinear polynomial through values on {0,1}^n.

    ``values[mask]`` is the target at the point whose i-th variable is bit
    i of ``mask``. Subset Moebius transform, O(2^n * n).
    """
    size = len(values)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"need a power-of-two value count, got {size}")
    c = np.array(values, dtype=float)
    for bit in range(n):
        step = 1 << bit
        for mask in range(size):
            if mask & step:
                c[mask] -= c[mask ^ step]
    return MultilinearPolynomial(n, c)


def walsh_hadamard(values: Sequence[float]) -> np.ndarray:
    """In-place style butterfly: out[s] = sum_f (-1)^{popcount(s & f)} v[f]."""
    a = np.array(values, dtype=float)
    size = len(a)
    if size & (size - 1):
        raise ValueError(f"need a power-of-two value count, got {size}")
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            for i in range(start, start + h):
                x, y = a[i], a[i + h]
                a[i] = x + y
                a[i + h] = x - y
        h *= 2
    return a


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
    accept = sorted({int(s) for s in accept_outcomes})
    for s in accept:
        if not 0 <= s < alg.n_outcomes:
            raise ValueError(f"accept outcome {s} outside [0, {alg.n_outcomes})")
    values = np.empty(1 << n)
    for mask in range(1 << n):
        table = [mask >> i & 1 for i in range(n)]
        probs = run(alg, table).outcome_probs
        values[mask] = float(probs[accept].sum())
    poly = interpolate_on_cube(values)
    max_degree = 2 * alg.query_count
    for mask in range(1 << n):
        if _popcount(mask) > max_degree and abs(poly.coeffs[mask]) >= DEGREE_TOL:
            raise ArithmeticError(
                f"coefficient {poly.coeffs[mask]:.3e} on subset {_subset_sorted(mask)} "
                f"violates the degree bound {max_degree}; the simulation is inconsistent"
            )
    return poly


def to_fourier(p: MultilinearPolynomial) -> MultilinearPolynomial:
    """Character coefficients of q(w) = 2 p((w+1)/2, ...) - 1 over w in {-1,1}.

    Computed algebraically from the subset coefficients and cross-checked
    against the Walsh-Hadamard transform of the cube values; the two routes
    must agree entrywise.
    """
    n = p.n
    size = 1 << n
    # Change of variables: each f_i = (w_i + 1)/2 spreads coefficient c_S
    # over all subsets of S with weight 2^-|S|.
    spread = np.array([p.coeffs[m] * 0.5 ** _popcount(m) for m in range(size)])
    for bit in range(n):
        step = 1 << bit
        for mask in range(size):
            if not mask & step:
                spread[mask] += spread[mask | step]
    qhat = 2.0 * spread
    qhat[0] -= 1.0
    # Independent route: q-hat(S) = 2^-n * sum_w q(w) w_S with w = 2f - 1.
    q_values = 2.0 * p.values_on_cube() - 1.0
    signed = walsh_hadamard(q_values)
    qhat_check = np.array(
        [(-1) ** _popcount(m) * signed[m] / size for m in range(size)]
    )
    gap = float(np.max(np.abs(qhat - qhat_check)))
    if gap > TRANSFORM_TOL:
        raise ArithmeticError(f"character transform routes disagree by {gap:.3e}")
    return MultilinearPolynomial(n, qhat)


def from_fourier(qhat: MultilinearPolynomial) -> MultilinearPolynomial:
    """Inverse change of variables: recover p with p(f) = (q(2f - 1) + 1)/2."""
    n = qhat.n
    values = np.empty(1 << n)
    for mask in range(1 << n):
        w = [2 * (mask >> i & 1) - 1 for i in range(n)]
        values[mask] = (qhat.evaluate(w) + 1.0) / 2.0
    return interpolate_on_cube(values)


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
            if abs(total - 1.0) > TRANSFORM_TOL:
                raise ValueError(f"term probabilities sum to {total!r}, not 1")
            for mask, _, sign in self.terms:
                if sign not in (-1, 1):
                    raise ValueError(f"sign must be +/-1, got {sign}")
                if _popcount(mask) > 2 * self.queries:
                    raise ValueError(
                        f"subset {_subset_sorted(mask)} exceeds the query budget "
                        f"{2 * self.queries}"
                    )

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
    qhat = to_fourier(poly)
    budget = 2 * alg.query_count
    kept = [
        (mask, float(c))
        for mask, c in enumerate(qhat.coeffs)
        if abs(c) >= PRUNE_TOL and _popcount(mask) <= budget
    ]
    scale = sum(abs(c) for _, c in kept)
    if scale < PRUNE_TOL:
        return CompiledClassicalAlgorithm(
            n=poly.n, queries=alg.query_count, scale=0.0, terms=(), degenerate=True
        )
    terms = tuple(
        (mask, abs(c) / scale, 1 if c > 0 else -1) for mask, c in kept
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
    f_mask = sum(bit << i for i, bit in enumerate(bits))
    total = 0.0
    for mask, prob, sign in compiled.terms:
        # product of w_i = 2 f_i - 1 over the subset: -1 per zero response
        w = -1 if (_popcount(mask) - _popcount(mask & f_mask)) % 2 else 1
        if sign * w == 1:
            total += prob
    return total


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


def compiled_from_json(data: Mapping) -> CompiledClassicalAlgorithm:
    n = int(data["n"])
    terms = tuple(
        (_mask_of(term["S"], n), float(term["prob"]), int(term["sign"]))
        for term in data["terms"]
    )
    return CompiledClassicalAlgorithm(
        n=n,
        queries=int(data["k"]),
        scale=float(data["T"]),
        terms=terms,
        degenerate=bool(data["degenerate"]),
    )


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

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem,
            "part": self.part,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "defined": self.defined,
            "identity_holds": self.identity_holds,
            "classical_useless_2k": self.classical_useless_2k,
        }


def corollary5_audit(
    problem: LearningProblem,
    alg: QuantumAlgorithm,
    accept_outcomes: Iterable[int],
    tol: float = 1e-8,
    check_classical: bool = True,
) -> Corollary5Report:
    """Audit the ratio identity tying acceptance mass to the prior.

    Requires a Boolean-valued problem with exactly two parts. The accept
    probabilities come from direct simulation of the class members, kept
    independent of the polynomial and sampler machinery on purpose.
    """
    if problem.group.factors != (2,):
        raise ValueError("the audit requires the binary response group")
    parts = problem.part_labels()
    if len(parts) != 2:
        raise ValueError(f"the audit requires exactly two parts, got {parts}")
    accept = sorted({int(s) for s in accept_outcomes})
    weights = [float(w) for w in problem.prior]
    accept_probs = [float(run(alg, f).outcome_probs[accept].sum()) for f in problem.functions]
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
        tolerance=tol,
        defined=defined,
        identity_holds=bool(defined and deviation <= tol),
        classical_useless_2k=useless_2k,
    )
