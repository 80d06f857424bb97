"""Learning problems: a finite class of oracle tables, a partition, a prior.

Priors are exact ``fractions.Fraction`` weights so that query-uselessness
can be decided by rational equality rather than floating-point tolerance.

Query points are indexed 0..domain_size-1 internally. Generators whose
natural numbering starts at 1 (parity over {1..N}, polynomial shares at
field points {1..p-1}) document the shift; transcripts handed to
:func:`posterior_classical` always use internal indices, while
:func:`shamir_reconstruct` works with actual field points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .algebra import (
    FiniteAbelianGroup,
    cyclic,
    group_from_json,
    group_to_json,
    int_from_json,
)
from .errors import CapacityError

# A transcript is an ordered list of (query point, response) pairs.
Transcript = Sequence[tuple[int, int]]

# The largest parity class whose every exact check fits the cells-read
# ceiling (useless.MAX_TABLE_CELLS = 10^7): parity-11 reads at most
# 6 * C(11, 6) * 2^11 = 5,677,056 cells, parity-12 needs 16,220,160 at k = 5.
MAX_PARITY_N = 11
MAX_SHAMIR_CLASS = 10**6


@dataclass(frozen=True)
class LearningProblem:
    """A function class with a disjoint part labeling and an exact prior."""

    domain_size: int
    group: FiniteAbelianGroup
    functions: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    prior: tuple[Fraction, ...]
    name: str = field(default="problem", compare=False)

    def __post_init__(self):
        functions = tuple(tuple(int(v) for v in f) for f in self.functions)
        labels = tuple(int(j) for j in self.labels)
        prior = tuple(Fraction(w) for w in self.prior)
        if self.domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        if not functions:
            raise ValueError("the function class must be non-empty")
        if len(labels) != len(functions) or len(prior) != len(functions):
            raise ValueError("functions, labels and prior must have equal length")
        order = self.group.order
        for f in functions:
            if len(f) != self.domain_size:
                raise ValueError(f"function table {f} does not cover the domain")
            if any(not 0 <= v < order for v in f):
                raise ValueError(f"function table {f} has values outside [0, {order})")
        if len(set(functions)) != len(functions):
            raise ValueError("duplicate function tables in the class")
        if any(w < 0 for w in prior):
            raise ValueError("prior weights must be non-negative")
        if sum(prior) != 1:
            raise ValueError(f"prior sums to {sum(prior)}, expected exactly 1")
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)

    @property
    def size(self) -> int:
        return len(self.functions)

    def part_labels(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.labels)))

    def parts(self) -> dict[int, tuple[int, ...]]:
        """Function indices grouped by part label."""
        out: dict[int, list[int]] = {j: [] for j in self.part_labels()}
        for i, j in enumerate(self.labels):
            out[j].append(i)
        return {j: tuple(ix) for j, ix in out.items()}

    def part_prior(self) -> dict[int, Fraction]:
        out = {j: Fraction(0) for j in self.part_labels()}
        for j, w in zip(self.labels, self.prior):
            out[j] += w
        return out


def _event_constraints(problem: LearningProblem, transcript: Transcript) -> dict[int, int] | None:
    """Collapse a transcript to one constraint per point; None if inconsistent.

    A repeated point with two different responses makes the event empty.
    """
    constraints: dict[int, int] = {}
    for x, y in transcript:
        x, y = int(x), int(y)
        if not 0 <= x < problem.domain_size:
            raise ValueError(f"query point {x} outside [0, {problem.domain_size})")
        if not 0 <= y < problem.group.order:
            raise ValueError(f"response {y} outside [0, {problem.group.order})")
        if constraints.setdefault(x, y) != y:
            return None
    return constraints


def event_indices(problem: LearningProblem, transcript: Transcript) -> tuple[int, ...]:
    """Indices of the functions consistent with every pair in the transcript."""
    constraints = _event_constraints(problem, transcript)
    if constraints is None:
        return ()
    items = tuple(constraints.items())
    return tuple(
        i for i, f in enumerate(problem.functions) if all(f[x] == y for x, y in items)
    )


def posterior_classical(
    problem: LearningProblem, transcript: Transcript
) -> dict[int, Fraction] | None:
    """Exact conditional distribution over parts given the transcript event.

    The empty transcript conditions on the sure event and returns the prior.
    Returns ``None`` when the event has probability zero: the posterior is
    undefined there, which is distinct from any arithmetic failure.
    """
    indices = event_indices(problem, transcript)
    total = sum((problem.prior[i] for i in indices), Fraction(0))
    if total == 0:
        return None
    weights = {j: Fraction(0) for j in problem.part_labels()}
    for i in indices:
        weights[problem.labels[i]] += problem.prior[i]
    return {j: w / total for j, w in weights.items()}


# ---------------------------------------------------------------------------
# generators


def make_parity(n: int) -> LearningProblem:
    """All functions {1..N} -> Z2, uniform prior, labeled by the mod-2 sum."""
    if not 1 <= n <= MAX_PARITY_N:
        raise CapacityError(f"parity needs 1 <= N <= {MAX_PARITY_N}, got {n}")
    functions = tuple(product(range(2), repeat=n))
    weight = Fraction(1, len(functions))
    return LearningProblem(
        domain_size=n,
        group=cyclic(2),
        functions=functions,
        labels=tuple(sum(f) % 2 for f in functions),
        prior=(weight,) * len(functions),
        name=f"parity-{n}",
    )


def make_image_parity() -> LearningProblem:
    """All 27 functions {1,2,3} -> Z3, labeled by the parity of the image size.

    Label 0 means the image size is even, label 1 odd. The prior weight of
    the even part is 2/3: of the 27 tables, 18 have image size two against
    3 constants and 6 bijections.
    """
    functions = tuple(product(range(3), repeat=3))
    weight = Fraction(1, len(functions))
    return LearningProblem(
        domain_size=3,
        group=cyclic(3),
        functions=functions,
        labels=tuple(0 if len(set(f)) % 2 == 0 else 1 for f in functions),
        prior=(weight,) * len(functions),
        name="image-parity",
    )


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_eval_mod(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = (acc * x + a) % p
    return acc


def make_shamir(p: int, k: int) -> LearningProblem:
    """Degree-<=k polynomials over Z_p evaluated on {1..p-1}, secret f(0).

    Coefficient tuples (a_0, ..., a_k) are drawn uniformly; the table lists
    f(1), ..., f(p-1) so internal point i is field point i+1. Part labels
    are the secret a_0, each with prior weight 1/p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 1 >= p:
        raise ValueError(f"need k + 1 < p, got k={k}, p={p}")
    size = p ** (k + 1)
    if size > MAX_SHAMIR_CLASS:
        raise CapacityError(f"class size p^(k+1) = {size} exceeds {MAX_SHAMIR_CLASS}")
    functions = []
    labels = []
    for coeffs in product(range(p), repeat=k + 1):
        functions.append(tuple(_poly_eval_mod(coeffs, x, p) for x in range(1, p)))
        labels.append(coeffs[0])
    weight = Fraction(1, size)
    return LearningProblem(
        domain_size=p - 1,
        group=cyclic(p),
        functions=tuple(functions),
        labels=tuple(labels),
        prior=(weight,) * size,
        name=f"shamir-{p}-{k}",
    )


def shamir_reconstruct(p: int, k: int, shares: Iterable[tuple[int, int]]) -> int:
    """Secret f(0) of the unique degree-<=k polynomial through k+1 shares.

    Shares are (x, y) pairs at distinct field points x in {1..p-1}.
    Lagrange interpolation evaluated at 0 over Z_p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    shares = [(int(x), int(y)) for x, y in shares]
    if len(shares) != k + 1:
        raise ValueError(f"need exactly k + 1 = {k + 1} shares, got {len(shares)}")
    xs = [x for x, _ in shares]
    if len(set(xs)) != len(xs):
        raise ValueError(f"share points must be distinct, got {xs}")
    for x, y in shares:
        if not 1 <= x <= p - 1:
            raise ValueError(f"share point {x} outside [1, {p - 1}]")
        if not 0 <= y < p:
            raise ValueError(f"share value {y} outside [0, {p})")
    secret = 0
    for i, (xi, yi) in enumerate(shares):
        num = 1
        den = 1
        for j, (xj, _) in enumerate(shares):
            if j != i:
                num = num * xj % p
                den = den * (xj - xi) % p
        secret = (secret + yi * num * pow(den, p - 2, p)) % p
    return secret


# ---------------------------------------------------------------------------
# JSON interchange

def problem_to_json(problem: LearningProblem) -> dict:
    return {
        "domain_size": problem.domain_size,
        "group": group_to_json(problem.group),
        "functions": [list(f) for f in problem.functions],
        "labels": list(problem.labels),
        "prior": [[w.numerator, w.denominator] for w in problem.prior],
    }


def problem_from_json(data: Mapping, name: str = "problem") -> LearningProblem:
    return LearningProblem(
        domain_size=int_from_json(data["domain_size"]),
        group=group_from_json(data["group"]),
        functions=tuple(tuple(int_from_json(v) for v in f) for f in data["functions"]),
        labels=tuple(int_from_json(j) for j in data["labels"]),
        prior=tuple(
            Fraction(int_from_json(num), int_from_json(den)) for num, den in data["prior"]
        ),
        name=name,
    )
