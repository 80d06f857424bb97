"""Finite abelian groups, dense complex linear algebra, seeded randomness.

Numeric substrate for the rest of the package. Matrices are plain
``numpy.ndarray`` values with ``complex128`` entries; everything is dense
and desk-scale. For JSON interchange a complex scalar is a two-element
``[re, im]`` array, a matrix is a row-major nested array of those pairs,
and a group is the array of its cyclic factor orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Global tolerance for Hermiticity / trace / PSD checks. Double precision
# accumulates comfortably below this for dimensions up to a few hundred.
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
        factors = tuple(int(m) for m in self.factors)
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
    return FiniteAbelianGroup((int(m),))


# ---------------------------------------------------------------------------
# matrix checks


def as_complex_matrix(data) -> np.ndarray:
    """A 2-d complex128 array with finite entries.

    Every validator starts here: comparisons with NaN are false, so a
    non-finite entry would pass each tolerance check after it.
    """
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2; symmetrize before eigenvalue-based PSD tests."""
    return (a + a.conj().T) / 2


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def unitary_defect(u: np.ndarray) -> float:
    """Max entrywise |U^H U - I|."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))


def validate_unitary(u) -> np.ndarray:
    u = as_complex_matrix(u)
    defect = unitary_defect(u)
    if defect > TOL_NUM:
        raise ValueError(f"not unitary: max|U^H U - I| = {defect:.3e} > {TOL_NUM:g}")
    return u


def _check_hermitian_psd(a: np.ndarray, name: str) -> None:
    """Raise unless ``a`` is Hermitian and its smallest eigenvalue is at
    least -TOL_NUM, naming the matrix as ``name`` in the error."""
    herm = max_abs(a - a.conj().T)
    if herm > TOL_NUM:
        raise ValueError(
            f"{name} is not Hermitian within {TOL_NUM:g}: max|A - A^H| = {herm:.3e}"
        )
    lo = float(np.linalg.eigvalsh(hermitian_part(a)).min())
    if lo < -TOL_NUM:
        raise ValueError(f"{name} has eigenvalue {lo:.3e} below -{TOL_NUM:g}")


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, positive semidefiniteness and unit trace."""
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    _check_hermitian_psd(rho, "density matrix")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TOL_NUM:
        raise ValueError(f"trace {tr} differs from 1 by more than {TOL_NUM:g}")
    return rho


def validate_povm(elements: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Check each element is Hermitian PSD and that the family sums to I."""
    mats = tuple(as_complex_matrix(e) for e in elements)
    if not mats:
        raise ValueError("a POVM needs at least one element")
    dim = mats[0].shape[0]
    for i, e in enumerate(mats):
        if e.shape != (dim, dim):
            raise ValueError(f"POVM element {i} has shape {e.shape}, expected {(dim, dim)}")
        _check_hermitian_psd(e, f"POVM element {i}")
    defect = max_abs(sum(mats) - np.eye(dim))
    if defect > TOL_NUM:
        raise ValueError(f"POVM does not sum to identity: defect {defect:.3e} > {TOL_NUM:g}")
    return mats


# ---------------------------------------------------------------------------
# seeded random generation


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-style random unitary, deterministic for a fixed seed.

    QR orthonormalization of an i.i.d. complex standard Gaussian matrix,
    with the phases of the R diagonal divided out so the distribution does
    not depend on the QR sign convention.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_povm(dim: int, n_outcomes: int, seed: int) -> tuple[np.ndarray, ...]:
    """Random projective POVM from a coarse-grained random orthonormal basis.

    The columns of a random unitary are split into ``n_outcomes`` groups of
    near-equal size; element s is the orthogonal projector onto group s.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 1 <= n_outcomes <= dim:
        raise ValueError(f"need 1 <= n_outcomes <= dim, got n_outcomes={n_outcomes}, dim={dim}")
    u = random_unitary(dim, seed)
    base, extra = divmod(dim, n_outcomes)
    elements = []
    start = 0
    for s in range(n_outcomes):
        size = base + (1 if s < extra else 0)
        v = u[:, start:start + size]
        elements.append(v @ v.conj().T)
        start += size
    return tuple(elements)


def random_pure_state(dim: int, seed: int) -> np.ndarray:
    """Density matrix of a Haar-random pure state."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# JSON interchange


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(a: np.ndarray) -> list:
    a = as_complex_matrix(a)
    return [[complex_to_json(z) for z in row] for row in a]


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix JSON must be a non-empty list of rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ValueError("matrix JSON rows must be lists of equal length")
        width = len(row)
        out.append([complex(re, im) for re, im in row])
    return np.array(out, dtype=np.complex128)


def group_to_json(group: FiniteAbelianGroup) -> list[int]:
    return list(group.factors)


def group_from_json(factors) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(int_from_json(m) for m in factors))


def int_from_json(value) -> int:
    """An integer field of a JSON document: 3 and 3.0 pass; 2.7, NaN, "3"
    and true raise ``ValueError``, where ``int()`` would truncate 2.7 to 2
    and read a different problem."""
    if type(value) is int:  # not a bool, which subclasses int
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")
