"""Named positive-control algorithms with certified success probabilities.

Both constructions use phase kickback: with the response register held in
the (|0> - |1>)/sqrt(2) state, an oracle call turns table values into
signs on the query register. A Hadamard on a two-point superposition then
converts the relative sign, which is the parity of the pair, into which
basis state is occupied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import cyclic, int_from_json
from .errors import CapacityError
from .problems import LARGEST_PARITY_N, LearningProblem, make_parity
from .qsim import QuantumAlgorithm

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def _kickback_state(x_dim: int, first_pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Pure state, as its one-column factor: uniform superposition of two
    query points tensor the (|0> - |1>)/sqrt(2) response state."""
    psi_x = np.zeros(x_dim, dtype=np.complex128)
    psi_x[first_pair[0]] = psi_x[first_pair[1]] = 1 / math.sqrt(2)
    psi_y = np.array([1, -1], dtype=np.complex128) / math.sqrt(2)
    return np.ones(1), np.kron(psi_x, psi_y)[:, None]


def _pair_hadamard(x_dim: int, pair_index: int) -> np.ndarray:
    """Hadamard on query coordinates {2i, 2i+1}, identity elsewhere."""
    u = np.eye(x_dim, dtype=np.complex128)
    lo = 2 * pair_index
    u[lo:lo + 2, lo:lo + 2] = _H
    return u


def _pair_advance(x_dim: int, pair_index: int) -> np.ndarray:
    """Move the parity bit of pair i-1 into the superposition over pair i.

    Basis state 2(i-1) maps to (|2i> + |2i+1>)/sqrt(2) and 2(i-1)+1 to
    (|2i> - |2i+1>)/sqrt(2); the reverse block makes the map unitary.
    """
    u = np.eye(x_dim, dtype=np.complex128)
    lo = 2 * (pair_index - 1)
    u[lo:lo + 4, lo:lo + 4] = np.block(
        [[np.zeros((2, 2)), _H], [_H, np.zeros((2, 2))]]
    )
    return u


def _x_parity_povm(x_dim: int) -> tuple[tuple[int, int], np.ndarray]:
    """Projectors onto even and odd query coordinates (response traced
    over), for even ``x_dim``, as the POVM (ranks, B): the basis columns
    (x, y) with x even, then those with x odd."""
    odd = np.arange(x_dim * 2) // 2 % 2  # the parity of x at basis index (x, y)
    basis = np.eye(x_dim * 2, dtype=np.complex128)
    return (x_dim, x_dim), basis[:, np.argsort(odd, kind="stable")]


def deutsch() -> QuantumAlgorithm:
    """One-query exact solver for the parity of two table values.

    After the kickback query, a Hadamard on the query register maps the
    relative sign to the occupied basis state; outcome 0 is even parity,
    outcome 1 odd.
    """
    return pairwise_parity(2)


def pairwise_parity(n: int) -> QuantumAlgorithm:
    """N/2-query exact parity of N table values, for even N.

    Each query resolves one pair's parity by kickback; the running parity
    travels as which basis state of the current pair is occupied, so no
    auxiliary register is needed. The final pair Hadamard leaves the total
    parity in the evenness of the query coordinate, which the measurement
    reads out. Odd N is served by `parity_with_padding`.
    """
    n = int_from_json(n)
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    padded = LARGEST_PARITY_N + LARGEST_PARITY_N % 2  # the largest parity problem's padded size
    if n > padded:
        raise CapacityError(f"pairwise parity supports n <= {padded}, got {n}")
    k = n // 2
    identity_y = np.eye(2)
    unitaries = []
    for i in range(1, k):
        step = _pair_advance(n, i) @ _pair_hadamard(n, i - 1)
        unitaries.append(np.kron(step, identity_y))
    unitaries.append(np.kron(_pair_hadamard(n, k - 1), identity_y))
    return QuantumAlgorithm(
        x_dim=n,
        group=cyclic(2),
        z_dim=1,
        state=_kickback_state(n, (0, 1)),
        unitaries=tuple(unitaries),
        povm=_x_parity_povm(n),
        outcome_labels={0: 0, 1: 1},
    )


def parity_with_padding(n: int) -> tuple[LearningProblem, QuantumAlgorithm]:
    """Parity solver for odd N via a dummy point every table maps to 0.

    Returns the padded problem (domain size N+1, labels unchanged) and the
    ceil(N/2)-query algorithm on the extended domain.
    """
    n = int_from_json(n)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    base = make_parity(n)
    padded = LearningProblem(
        domain_size=n + 1,
        group=base.group,
        functions=np.pad(base.functions, ((0, 0), (0, 1))),
        labels=base.labels,
        prior=base.prior,
        name=f"parity-{n}-padded",
    )
    return padded, pairwise_parity(n + 1)


@dataclass(frozen=True)
class GalleryEntry:
    """A named construction, the problem it solves, and its success claim."""

    name: str
    parameters: dict
    algorithm: QuantumAlgorithm
    problem: LearningProblem
    claimed_success: float


def entries() -> dict[str, GalleryEntry]:
    """All named constructions, keyed by CLI name."""
    out = {
        "deutsch": GalleryEntry(
            name="deutsch",
            parameters={},
            algorithm=deutsch(),
            problem=make_parity(2),
            claimed_success=1.0,
        )
    }
    for n in (2, 4, 6):
        out[f"pairwise-parity-{n}"] = GalleryEntry(
            name=f"pairwise-parity-{n}",
            parameters={"n": n},
            algorithm=pairwise_parity(n),
            problem=make_parity(n),
            claimed_success=1.0,
        )
    return out
