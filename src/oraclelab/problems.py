"""Learning problems: a finite class of oracle tables, a partition, a prior.

A class is one read-only (|C|, |X|) array ``functions``, row i the table of
function i, in dtype ``np.min_scalar_type(order - 1)`` (object, holding
Python ints, above order 2^64), with a 1-d array of part ``labels``. The
generators list rows in ``itertools.product`` order, first point most
significant: parity table t has f[x] = (t >> (N-1-x)) & 1, image-parity the
same in base 3, and Shamir rows run over (a_0, ..., a_k) lexicographically.
Witnesses depend on this order.

Priors are exact ``fractions.Fraction`` weights so that query-uselessness
can be decided by rational equality rather than floating-point tolerance.

Query points are indexed 0..domain_size-1 internally. Generators whose
natural numbering starts at 1 (parity over {1..N}, polynomial shares at
field points {1..p-1}) document the shift; transcripts handed to
:func:`posterior_classical` always use internal indices, while
:func:`shamir_reconstruct` works with actual field points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

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

# Cells |C| * |X| of a class; `problem --out` of shamir-157-1 (3.8 * 10^6 cells) takes about 4 s.
# At most MAX_TABLE_CELLS, as the cheapest exact check at any k >= 1 reads |C| * |X| cells.
MAX_CLASS_CELLS = 2**22
# The largest N whose parity class, N * 2^N cells, fits MAX_CLASS_CELLS: 17.
LARGEST_PARITY_N = max(n for n in range(1, MAX_CLASS_CELLS.bit_length()) if n << n <= MAX_CLASS_CELLS)

# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below psi_13 (Sorenson and Webster, 2015), so is_prime is exact there.
PRIMALITY_CEILING = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@dataclass(frozen=True, eq=False)
class LearningProblem:
    """A function class with a disjoint part labeling and an exact prior. Each
    entry of ``functions`` and ``labels`` is read by ``int_from_json``, so 1.5,
    None or True is refused, not truncated; an integer ndarray is copied as it
    is. Duplicate tables are refused by one sort of a byte view of the
    rows, an object or uint64 table first coded to dense ints by one
    ``np.unique`` of its entries. The prior is also held as Python-int
    ``weights`` over ``scale`` and as floats. Row i is in part r =
    ``part_index[i]``, of label ``part_labels()[r]`` and Python-int mass
    ``part_masses[r]`` over ``scale``. ``weights`` and ``part_masses`` are
    object arrays of Python ints, and ``part_index`` is unsigned.

    The exact classical check reads the class through inputs each built
    once, on first use: ``point_codes``, ``code_radix``, ``exact_weights``
    and ``exact_masses``."""

    domain_size: int
    group: FiniteAbelianGroup
    functions: np.ndarray
    labels: np.ndarray
    prior: tuple[Fraction, ...]
    name: str = "problem"
    weights: np.ndarray = field(init=False, repr=False)
    scale: int = field(init=False, repr=False)
    float_prior: np.ndarray = field(init=False, repr=False)
    part_index: np.ndarray = field(init=False, repr=False)
    part_masses: np.ndarray = field(init=False, repr=False)
    _codes: np.ndarray = field(init=False, repr=False)
    _part_labels: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        domain_size = int_from_json(self.domain_size)
        if domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        if not len(self.functions):
            raise ValueError("the function class must be non-empty")
        _check_cells(len(self.functions), domain_size)
        functions = _integer_array(self.functions, domain_size)
        labels = _integer_array(self.labels)
        prior = tuple(self.prior)
        if not all(type(w) is Fraction for w in prior):
            prior = tuple(map(Fraction, prior))
        if labels.shape != (len(functions),) or len(prior) != len(functions):
            raise ValueError("functions, labels and prior must have equal length")
        order = self.group.order
        outside = ((functions < 0) | (functions >= order)).any(axis=1)
        if outside.any():
            bad = tuple(functions[outside.argmax()].tolist())
            raise ValueError(f"function table {bad} has values outside [0, {order})")
        functions = functions.astype(np.min_scalar_type(order - 1))
        if functions.dtype == object or functions.dtype.itemsize == 8:
            # coded to dense ints, so equal rows have equal bytes and the
            # check's codes stay small
            codes = np.unique(functions, return_inverse=True)[1].reshape(functions.shape)
            codes = codes.astype(np.min_scalar_type(codes.max()))
        else:
            codes = np.ascontiguousarray(functions)
        # a sort, not np.unique, which imports numpy.ma (about 1.4 MB) on its first call
        keys = np.sort(codes.view(np.dtype((np.void, codes.itemsize * domain_size))).ravel())
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate function tables in the class")
        numerators = [w.numerator for w in prior]
        if min(numerators) < 0:
            raise ValueError("prior weights must be non-negative")
        denominators = [w.denominator for w in prior]
        scale = math.lcm(*denominators)
        weights = np.array([n * (scale // d) for n, d in zip(numerators, denominators)], dtype=object)
        if weights.sum() != scale:
            raise ValueError(f"prior sums to {sum(prior)}, expected exactly 1")
        float_prior = np.array([w / scale for w in weights])  # rounded as float(Fraction) is
        parts, part_index = np.unique(labels, return_inverse=True)
        part_index = part_index.astype(np.min_scalar_type(len(parts) - 1))
        part_masses = np.zeros(len(parts), dtype=object)
        np.add.at(part_masses, part_index, weights)
        for array in (functions, labels, weights, float_prior, part_index, part_masses, codes):
            array.flags.writeable = False
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "float_prior", float_prior)
        object.__setattr__(self, "part_index", part_index)
        object.__setattr__(self, "part_masses", part_masses)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_part_labels", tuple(parts.tolist()))

    @property
    def size(self) -> int:
        return len(self.functions)

    def part_labels(self) -> tuple[int, ...]:
        return self._part_labels

    @cached_property
    def _part_prior(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, self.scale) for m in self.part_masses)

    def part_prior(self) -> dict[int, Fraction]:
        """Each part's prior, by label: a new dict on each call."""
        return dict(zip(self._part_labels, self._part_prior))

    @cached_property
    def point_codes(self) -> np.ndarray:
        """The C-contiguous (|X|, |C|) transpose of the table, one row per
        point, in codes below ``code_radix``: the table itself, or its dense
        codes where it is object or uint64."""
        codes = np.ascontiguousarray(self._codes.T)
        codes.flags.writeable = False
        return codes

    @cached_property
    def code_radix(self) -> int:
        return max(2, int(self._codes.max()) + 1)

    @cached_property
    def exact_weights(self) -> np.ndarray:
        """``weights`` in float64 while scale^2 < 2^63, where every sum of
        weights is an integer of at most scale < 2^53; else ``weights``."""
        return self.weights.astype(np.float64) if self.scale**2 < 2**63 else self.weights

    @cached_property
    def exact_masses(self) -> np.ndarray:
        """``part_masses`` in int64 while scale^2 < 2^63, where every product
        of two masses fits; else ``part_masses``."""
        return self.part_masses.astype(np.int64) if self.scale**2 < 2**63 else self.part_masses

    def part_shares(self) -> list[float]:
        """Each part's prior as a float, rounded exactly as ``float(Fraction)`` is."""
        return [m / self.scale for m in self.part_masses]


def _check_cells(rows: int, domain_size: int) -> None:
    """Refuse a class of more than ``MAX_CLASS_CELLS`` cells before it is built or read."""
    cells = rows * domain_size
    if cells > MAX_CLASS_CELLS:
        raise CapacityError(f"{cells} table cells exceed MAX_CLASS_CELLS={MAX_CLASS_CELLS}")


def _integer_array(values, width: int | None = None) -> np.ndarray:
    """``values`` as a new integer array: an integer ndarray as it is, else each
    entry read by ``int_from_json``, in int64 where all fit. Given a ``width``,
    the first row of another length is named before any entry is read."""
    integer = isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.integer)
    array = np.array(values, dtype=None if integer else object)
    if width is not None and array.shape[1:] != (width,):
        bad = next(f for f in values if np.shape(f) != (width,))
        raise ValueError(f"function table {bad} does not cover the domain")
    if integer:
        return array
    try:
        # not .flat, which refuses an array of over 32 dimensions (a deeply nested input)
        entries = map(int_from_json, array.reshape(-1))
        ints = np.fromiter(entries, object, array.size).reshape(array.shape)
        return ints.astype(np.int64)
    except OverflowError:  # an entry past int64
        return ints
    except ValueError as exc:
        raise ValueError(f"function table values and labels must be integers: {exc}") from None


def event_indices(problem: LearningProblem, transcript: Transcript) -> tuple[int, ...]:
    """Indices of the functions consistent with every pair in the transcript.

    A repeated point with two different responses makes the event empty.
    """
    constraints: dict[int, int] = {}
    for x, y in transcript:
        x, y = int_from_json(x), int_from_json(y)
        if not 0 <= x < problem.domain_size:
            raise ValueError(f"query point {x} outside [0, {problem.domain_size})")
        if not 0 <= y < problem.group.order:
            raise ValueError(f"response {y} outside [0, {problem.group.order})")
        if constraints.setdefault(x, y) != y:
            return ()
    cut = problem.functions[:, list(constraints)]
    return tuple(np.flatnonzero((cut == list(constraints.values())).all(axis=1)).tolist())


def posterior_classical(
    problem: LearningProblem, transcript: Transcript
) -> dict[int, Fraction] | None:
    """Exact conditional distribution over parts given the transcript event.

    The empty transcript conditions on the sure event and returns the prior.
    Returns ``None`` when the event has probability zero: the posterior is
    undefined there, which is distinct from any arithmetic failure.
    """
    rows = list(event_indices(problem, transcript))
    masses = [0] * len(problem.part_masses)
    for r, w in zip(problem.part_index[rows].tolist(), problem.weights[rows].tolist()):
        masses[r] += w
    total = sum(masses)
    if total == 0:
        return None
    return {j: Fraction(m, total) for j, m in zip(problem.part_labels(), masses)}


# ---------------------------------------------------------------------------
# generators


def _digits(base: int, width: int) -> np.ndarray:
    """``product(range(base), repeat=width)``: row t is t's digits, most significant first."""
    places = base ** np.arange(width - 1, -1, -1)
    return np.arange(base**width)[:, None] // places % base


def make_parity(n: int) -> LearningProblem:
    """All functions {1..N} -> Z2, uniform prior, labeled by the mod-2 sum."""
    n = int_from_json(n)
    if not 1 <= n <= LARGEST_PARITY_N:  # before 2^N is formed
        raise CapacityError(
            f"parity-N needs 1 <= N <= {LARGEST_PARITY_N}, as N * 2^N table cells "
            f"must fit MAX_CLASS_CELLS={MAX_CLASS_CELLS}; got {n}"
        )
    functions = _digits(2, n)
    return LearningProblem(
        domain_size=n,
        group=cyclic(2),
        functions=functions,
        labels=functions.sum(axis=1) % 2,
        prior=(Fraction(1, 2**n),) * 2**n,
        name=f"parity-{n}",
    )


def make_image_parity() -> LearningProblem:
    """All 27 functions {1,2,3} -> Z3, labeled by the parity of the image size.

    Label 0 means the image size is even, label 1 odd. The prior weight of
    the even part is 2/3: of the 27 tables, 18 have image size two against
    3 constants and 6 bijections.
    """
    functions = _digits(3, 3)
    return LearningProblem(
        domain_size=3,
        group=cyclic(3),
        functions=functions,
        labels=sum((functions == y).any(axis=1) for y in range(3)) % 2,
        prior=(Fraction(1, 27),) * 27,
        name="image-parity",
    )


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the bases 2..41, exact below ``PRIMALITY_CEILING``."""
    n = int_from_json(n)
    if n >= PRIMALITY_CEILING:
        raise CapacityError(f"is_prime is exact only below PRIMALITY_CEILING={PRIMALITY_CEILING}")
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):  # some a^(d * 2^i), i < r, must be -1
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def make_shamir(p: int, k: int) -> LearningProblem:
    """Degree-<=k polynomials over Z_p evaluated on {1..p-1}, secret f(0).

    Coefficient tuples (a_0, ..., a_k) are drawn uniformly; the table lists
    f(1), ..., f(p-1) so internal point i is field point i+1. Part labels
    are the secret a_0, each with prior weight 1/p.
    """
    p, k = int_from_json(p), int_from_json(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 1 >= p:
        raise ValueError(f"need k + 1 < p, got k={k}, p={p}")
    # before trial division; as p >= 3, k + 1 >= the ceiling's bit length overflows it
    if k + 1 >= MAX_CLASS_CELLS.bit_length() or p ** (k + 1) * (p - 1) > MAX_CLASS_CELLS:
        raise CapacityError(f"{p}^{k + 1} * {p - 1} cells exceed MAX_CLASS_CELLS={MAX_CLASS_CELLS}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    coeffs = _digits(p, k + 1)
    # the ceiling keeps p below 2^8, so these int64 products are exact
    vandermonde = np.array([[pow(x, i, p) for x in range(1, p)] for i in range(k + 1)])
    return LearningProblem(
        domain_size=p - 1,
        group=cyclic(p),
        functions=coeffs @ vandermonde % p,
        labels=coeffs[:, 0],
        prior=(Fraction(1, len(coeffs)),) * len(coeffs),
        name=f"shamir-{p}-{k}",
    )


def shamir_reconstruct(p: int, k: int, shares: Iterable[tuple[int, int]]) -> int:
    """Secret f(0) of the unique degree-<=k polynomial through k+1 shares.

    Shares are (x, y) pairs at distinct field points x in {1..p-1}.
    Lagrange interpolation evaluated at 0 over Z_p.
    """
    p, k = int_from_json(p), int_from_json(k)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    shares = [(int_from_json(x), int_from_json(y)) for x, y in shares]
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
        "functions": problem.functions.tolist(),
        "labels": problem.labels.tolist(),
        "prior": [[w.numerator, w.denominator] for w in problem.prior],
    }


def problem_from_json(data: Mapping, name: str = "problem") -> LearningProblem:
    domain_size = int_from_json(data["domain_size"])
    _check_cells(len(data["functions"]), domain_size)  # before any cell is converted
    return LearningProblem(
        domain_size=domain_size,
        group=group_from_json(data["group"]),
        functions=data["functions"],
        labels=data["labels"],
        prior=tuple(
            Fraction(int_from_json(num), int_from_json(den)) for num, den in data["prior"]
        ),
        name=name,
    )
