"""Finite abelian groups, dense complex linear algebra, seeded randomness.

Numeric substrate for the rest of the package. Matrices are plain
``numpy.ndarray`` values with ``complex128`` entries. A state or POVM
element is held as a factor, so it is positive semidefinite by
construction. Dense ones read from outside are read as one stack: a list
of matrices is parsed by one ``np.array`` call (:func:`matrices_from_json`)
and factored by one stacked ``eigh`` (:func:`factor_hermitians`), so a
POVM of S elements costs one parse and one eigendecomposition, not S of
each. For JSON interchange a complex scalar is a two-element ``[re, im]``
array, a matrix is a row-major nested array of those pairs, and a group is
the array of its cyclic factor orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

# Global tolerance for Hermiticity / trace / PSD / unitarity / POVM-sum
# checks. At the falsifier's ceiling d = 1232 (useless.MAX_DIM), seeded
# random unitaries show max|U^H U - I| <= 1.3e-15 and random rank-1 POVMs
# max|B B^H - I| <= 9e-16, six orders of magnitude below it.
TOL_NUM = 1e-9


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product Z_m1 x ... x Z_mr with mixed-radix element encoding.

    Elements are integers in [0, order). A component tuple (c1, ..., cr)
    encodes with the first factor most significant, so Z2 x Z3 encodes
    (1, 2) as 1 * 3 + 2 = 5.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int_from_json(m) for m in self.factors)
        if not factors:
            raise ValueError("group needs at least one cyclic factor")
        if any(m < 2 for m in factors):
            raise ValueError(f"cyclic factor orders must be >= 2, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def difference_table(self) -> np.ndarray:
        """(order, order) array whose entry [a, b] is a - b in the group.

        Subtraction is digit by digit in the mixed-radix encoding: each
        factor contributes (a_i - b_i) mod m_i at its place value.
        """
        elements = np.arange(self.order)
        table = np.zeros((self.order, self.order), dtype=np.intp)
        radix = self.order
        for m in self.factors:
            radix //= m
            digit = elements // radix % m
            table = table * m + (digit[:, None] - digit[None, :]) % m
        return table


def cyclic(m: int) -> FiniteAbelianGroup:
    """The cyclic group Z_m."""
    return FiniteAbelianGroup((m,))


# ---------------------------------------------------------------------------
# matrix checks


def as_complex_matrix(data) -> np.ndarray:
    """A complex128 matrix, or a stack of them along leading axes, with
    finite entries.

    Every validator starts here: comparisons with NaN are false, so a
    non-finite entry would pass each tolerance check after it.
    """
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 of a matrix, or of each in a stack; symmetrize before
    eigenvalue-based PSD tests."""
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2


def max_abs(a: np.ndarray) -> np.ndarray:
    """Max |entry| of a matrix, or of each matrix in a stack."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def _refuse_first(values: np.ndarray, failing: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message.format(value, tol=TOL_NUM))`` for the first
    value whose ``failing`` flag is set, in C order over a stack, so a
    batch reports its earliest failing member."""
    if failing.any():
        raise ValueError(message.format(float(values.flat[np.argmax(failing)]), tol=TOL_NUM))


def _refuse_non_identity(gram: np.ndarray, message: str) -> None:
    """Refuse the first Gram matrix of a stack whose entrywise max|G - I|
    is above TOL_NUM: the one identity rule every algorithm factor meets."""
    defects = max_abs(gram - np.eye(gram.shape[-1]))
    _refuse_first(defects, defects > TOL_NUM, message)


def validate_unitary(u) -> np.ndarray:
    """Check a unitary, or a stack of them along leading axes."""
    u = as_complex_matrix(u)
    if u.shape[-2] != u.shape[-1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    gram = np.swapaxes(u.conj(), -1, -2) @ u
    _refuse_non_identity(gram, "not unitary: max|U^H U - I| = {:.3e} > {tol:g}")
    return u


def factor_hermitians(stack, name: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, vectors) with A_i = V_i diag(weights_i) V_i^H for each
    matrix of an (S, d, d) stack, from one stacked ``eigh``.

    This is how dense matrices read from outside become factors, and the
    eigendecomposition is also their check: each must be square, Hermitian
    within TOL_NUM and have no eigenvalue below -TOL_NUM. An error names the
    stack's first failing matrix i as ``name.format(i)``, by its Hermitian
    check first. Eigenvalues at or below numpy's ``matrix_rank`` cutoff
    |lambda|_max * d * eps are dropped, so a rank-r matrix keeps r columns;
    the rest keep their sign. Cutting each matrix's kept columns is the
    only step taken per matrix.
    """
    a = as_complex_matrix(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"{name.format(0)} must be square, got shape {a.shape[1:]}")
    herm = max_abs(a - np.swapaxes(a.conj(), -1, -2))
    weights, vectors = np.linalg.eigh(hermitian_part(a))
    # initial=0: an empty stack, as of an empty POVM, reduces over no eigenvalues
    lowest = weights.min(axis=-1, initial=0.0)
    failing = (herm > TOL_NUM) | (lowest < -TOL_NUM)
    if failing.any():
        i = int(np.argmax(failing))
        if herm[i] > TOL_NUM:
            raise ValueError(
                f"{name.format(i)} is not Hermitian within {TOL_NUM:g}: "
                f"max|A - A^H| = {herm[i]:.3e}"
            )
        raise ValueError(f"{name.format(i)} has eigenvalue {lowest[i]:.3e} below -{TOL_NUM:g}")
    magnitudes = np.abs(weights)
    largest = magnitudes.max(axis=-1, keepdims=True, initial=0.0)
    keep = magnitudes > largest * a.shape[-1] * np.finfo(float).eps
    return [(w[k], v[:, k]) for w, v, k in zip(weights, vectors, keep)]


def povm_from_dense(elements) -> tuple[tuple[int, ...], np.ndarray]:
    """The POVM (ranks, B) of the dense elements of an (S, d, d) stack,
    checked by :func:`factor_hermitians`: B_s = V sqrt(diag(lambda)) over
    each element's kept eigenvalues, so that Pi_s = B_s B_s^H, with the S
    factors joined by one ``np.concatenate``.

    A tolerated negative eigenvalue (at least -TOL_NUM) is dropped: it
    moves the sum the POVM check reads by at most that much.
    """
    factors = [
        vectors[:, weights > 0] * np.sqrt(weights[weights > 0])
        for weights, vectors in factor_hermitians(elements, "POVM element {}")
    ]
    return tuple(b.shape[1] for b in factors), np.concatenate(factors or [np.empty((0, 0))], axis=1)


def validate_density_matrix(weights, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Check the factored state rho = V diag(weights) V^H, or a stack of
    them: weights (..., r) and vectors (..., d, r).

    The columns of V must be orthonormal within TOL_NUM, so the weights are
    rho's nonzero eigenvalues; none may be below -TOL_NUM and they must
    sum to 1. Costs O(d r^2) for a rank-r state. An error reports the
    first failing state of a stack.
    """
    vectors = as_complex_matrix(vectors)
    weights = np.asarray(weights)
    if weights.dtype.kind not in "iuf" or weights.shape != vectors.shape[:-2] + vectors.shape[-1:]:
        raise ValueError(
            f"state weights must be {vectors.shape[-1]} real numbers, got "
            f"{weights.dtype} of shape {weights.shape}"
        )
    weights = weights.astype(float)
    if not np.isfinite(weights).all():
        raise ValueError("state weights are not finite")
    gram = np.swapaxes(vectors.conj(), -1, -2) @ vectors
    _refuse_non_identity(gram, "state vectors are not orthonormal: max|V^H V - I| = {:.3e} > {tol:g}")
    lowest = weights.min(axis=-1, initial=np.inf)
    _refuse_first(lowest, lowest < -TOL_NUM, "density matrix has eigenvalue {:.3e} below -{tol:g}")
    traces = weights.sum(axis=-1)
    _refuse_first(traces, abs(traces - 1.0) > TOL_NUM, "trace {} differs from 1 by more than {tol:g}")
    return weights, vectors


def validate_povm(ranks: Sequence[int], factor) -> tuple[tuple[int, ...], np.ndarray]:
    """Check the POVM (ranks, B) and return it read: B is the stacked
    factor (..., d, M) and Pi_s = B_s B_s^H, where B_s is the next
    ``ranks[s]`` columns of B.

    Each rank is read by :func:`int_from_json`; there must be at least one,
    none negative, and they must sum to M. Each element is Hermitian and
    positive semidefinite by construction, so the rest of the check is one
    product: max|B B^H - I| <= TOL_NUM. B is read once by
    :func:`as_complex_matrix`; leading axes are a stack of POVMs, and an
    error reports the first failing one.
    """
    ranks = tuple(int_from_json(r) for r in ranks)
    if not ranks:
        raise ValueError("a POVM needs at least one element")
    if min(ranks) < 0:
        raise ValueError(f"POVM ranks must be >= 0, got {ranks}")
    factor = as_complex_matrix(factor)
    if sum(ranks) != factor.shape[-1]:
        raise ValueError(f"POVM ranks {ranks} sum to {sum(ranks)}, but B has {factor.shape[-1]} columns")
    gram = factor @ np.swapaxes(factor.conj(), -1, -2)
    _refuse_non_identity(gram, "POVM does not sum to identity: defect {:.3e} > {tol:g}")
    return ranks, factor


# ---------------------------------------------------------------------------
# seeded random generation


def _dimension(dim) -> int:
    """A draw's dimension, read by the integer rule and at least 1."""
    dim = int_from_json(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return dim


def _complex_gaussians(seeds, shape: tuple[int, ...]) -> np.ndarray:
    """An i.i.d. complex standard Gaussian array of ``shape`` for each seed,
    drawn from its own stream, stacked at the seeds' shape.

    Each seed, read by :func:`seed_from_json`, fills its row of one real
    (seeds, 2, prod(shape)) buffer with one ``standard_normal`` call: the real
    parts, then the imaginary parts, in the order two calls of ``shape``
    draw them. The stack is combined once, with the ufuncs and operands of
    ``re + 1j * im``, so each seed's array equals its own draw bit for bit.
    """
    seeds = np.asarray(seeds, dtype=object)
    parts = np.empty((seeds.size, 2, math.prod(shape)))
    for row, seed in zip(parts, seeds.flat):
        np.random.default_rng(seed_from_json(seed)).standard_normal(out=row)
    out = np.multiply(parts[:, 1], 1j)
    return np.add(parts[:, 0], out, out=out).reshape(seeds.shape + shape)


def random_unitary(dim: int, seeds) -> np.ndarray:
    """Haar-style random unitary, deterministic for a fixed seed.

    QR orthonormalization of an i.i.d. complex standard Gaussian matrix,
    with the phases of the R diagonal divided out so the distribution does
    not depend on the QR sign convention. ``seeds`` is one seed or an array
    of them, and the result has their shape followed by (dim, dim): each
    seed draws its Gaussians from its own stream and the whole stack is
    orthonormalized by one stacked QR, so a stack's unitaries equal the
    one-seed ones bit for bit.
    """
    dim = _dimension(dim)
    q, r = np.linalg.qr(_complex_gaussians(seeds, (dim, dim)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_povm(dim: int, n_outcomes: int, seeds) -> tuple[tuple[int, ...], np.ndarray]:
    """Random projective POVM from a coarse-grained random orthonormal basis.

    The POVM is (ranks, U) for one random unitary U per seed, of the seeds'
    shape as in :func:`random_unitary`: element s is the orthogonal
    projector onto the next ``ranks[s]`` columns of U. The ranks are those
    of ``np.array_split`` into ``n_outcomes`` groups, the first
    ``dim % n_outcomes`` one column wider than the rest.
    """
    dim, n_outcomes = _dimension(dim), int_from_json(n_outcomes)
    if not 1 <= n_outcomes <= dim:
        raise ValueError(f"need 1 <= n_outcomes <= dim, got n_outcomes={n_outcomes}, dim={dim}")
    narrow, wide = divmod(dim, n_outcomes)
    return (narrow + 1,) * wide + (narrow,) * (n_outcomes - wide), random_unitary(dim, seeds)


def random_pure_state(dim: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Haar-random pure state as the factor (weights [1], vectors [v]), one
    per seed: both lead with the seeds' shape, as in :func:`random_unitary`.
    Each vector takes one ``np.linalg.norm`` of its own, and the stack is
    divided by its norms at once."""
    v = _complex_gaussians(seeds, (_dimension(dim),))
    norms = np.empty(v.shape[:-1])
    for index in np.ndindex(norms.shape):  # a norm along an axis would sum in another order
        norms[index] = np.linalg.norm(v[index])
    v /= norms[..., None]
    return np.ones(v.shape[:-1] + (1,)), v[..., None]


# ---------------------------------------------------------------------------
# JSON interchange


def matrix_to_json(a: np.ndarray) -> list:
    a = as_complex_matrix(a)
    if a.ndim != 2:
        raise ValueError(f"matrix JSON holds one matrix, got shape {a.shape}")
    return np.stack((a.real, a.imag), axis=-1).tolist()


def matrices_from_json(items, name: str) -> np.ndarray:
    """The (S, R, C) complex stack of a list of S matrices in JSON form,
    from one ``np.array`` parse; an empty list gives shape (0, 0, 0).

    Each matrix must be a non-empty list of equal-length rows of ``[re,
    im]`` number pairs, and all must share one shape. A fault raises what
    ``complex(re, im)`` would for the entry at fault: ValueError for a
    shape, TypeError for a value that is not a number. The error names the
    list's first matrix at fault, matrix i as ``name.format(i)``.
    """
    if isinstance(items, list) and not items:
        return np.zeros((0, 0, 0), dtype=np.complex128)
    try:
        return _complex_pairs(np.array(items))
    except ValueError:
        pass
    shape = None
    for i, rows in enumerate(items):  # name the first matrix at fault
        try:
            matrix = _complex_pairs(np.array(rows)[None])
        except ValueError:
            _refuse_entries(rows, name.format(i))
        shape = shape or matrix.shape
        if matrix.shape != shape:
            raise ValueError(
                f"{name.format(i)} has shape {matrix.shape[1:]}, expected {shape[1:]}"
            )
    raise ValueError(f"expected a list of matrices, got {type(items).__name__}")


def _complex_pairs(a: np.ndarray) -> np.ndarray:
    """The complex (S, R, C) stack of an array parsed from S matrices of
    ``[re, im]`` number pairs, bit for bit as ``complex(re, im)`` reads
    each; ValueError for any other array."""
    if a.ndim != 4 or a.shape[3] != 2 or 0 in a.shape[1:3] or a.dtype.kind not in "biuf":
        raise ValueError(f"not a stack of matrices of [re, im] number pairs: {a.dtype} {a.shape}")
    return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]


def _refuse_entries(rows, name: str) -> NoReturn:
    """Raise for the first fault of a matrix JSON, in row-major order as
    ``complex(re, im)`` entry by entry meets it: ValueError for a row or
    pair of the wrong length, TypeError for an entry that is not a pair of
    numbers."""
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{name} must be a non-empty list of rows")
    for row in rows:
        if not isinstance(row, list) or len(row) != len(rows[0]):
            raise ValueError(f"{name} rows must be lists of equal length")
        for entry in row:
            try:
                re, im = entry
                complex(re, im)
            except (TypeError, ValueError) as error:
                message = f"{name} entry {entry!r} is not an [re, im] pair of numbers"
                raise type(error)(message) from None
    raise ValueError(f"{name} must hold non-empty rows of [re, im] pairs of float64 numbers")


def group_to_json(group: FiniteAbelianGroup) -> list[int]:
    return list(group.factors)


def group_from_json(factors) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(factors)


def int_from_json(value) -> int:
    """Every integer the library reads, from a file or a caller: 3, 3.0 and
    ``np.int64(3)`` pass; 2.7, NaN, "3", True and None raise ``ValueError``,
    where ``int()`` would truncate 2.7 to 2 and read a different problem."""
    if type(value) is int:  # not a bool, which subclasses int; first, as the common case
        return value
    if isinstance(value, np.integer) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def seed_from_json(value) -> int:
    """A random seed, read by :func:`int_from_json`. A negative seed is
    refused here, by name, before numpy's seeding refuses it in its own
    words."""
    seed = int_from_json(value)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def int_from_text(text, what: str) -> int:
    """An integer read from text only in the plain decimal form ``str``
    writes, named ``what`` in the error: ``int`` would also read "01",
    " 1", "0_1" and an Arabic-Indic one as 1, so two spellings of one
    outcome label key would silently drop a label."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"{what} {text!r} is not a decimal integer")
    return value
