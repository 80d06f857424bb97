"""Input refusals no other test reaches, each raising ValueError by name."""

from fractions import Fraction

import numpy as np
import pytest

from oraclelab.algebra import (
    as_complex_matrix,
    cyclic,
    matrix_to_json,
    random_povm,
    random_pure_state,
    random_unitary,
    validate_povm,
    validate_unitary,
)
from oraclelab.cli import _load_problem, build_parser
from oraclelab.polycompile import MultilinearPolynomial, _butterfly
from oraclelab.problems import LearningProblem, make_parity, shamir_reconstruct
from oraclelab.qsim import (
    QuantumAlgorithm,
    algorithm_from_json,
    algorithm_to_json,
    random_algorithm,
    trial_seeds,
)
from oraclelab.useless import classical_useless, quantum_useless_falsify

Z2 = cyclic(2)
STATE_4 = (np.ones(1), np.eye(4)[:, :1])  # a pure state of dimension 4 = 2 * |Z2| * 1
SHAMIR_WITHOUT_P = ["problem", "--gen", "shamir", "--degree", "1"]


def _algorithm(state=STATE_4, unitaries=(), povm=((4,), np.eye(4)), x_dim=2, z_dim=1):
    return QuantumAlgorithm(x_dim, Z2, z_dim, state, unitaries, povm)


def _problem(domain_size=1, functions=((0,),)):
    n = len(functions)
    return LearningProblem(domain_size, Z2, functions, [0] * n, [Fraction(1, max(n, 1))] * n)


REFUSALS = {
    "qsim-state-dimension": (
        lambda: _algorithm(state=(np.ones(1), np.ones((1, 1)))),
        "state vectors have dimension 1, expected 4",
    ),
    "qsim-unitary-dimension": (
        lambda: _algorithm(unitaries=(np.eye(2),)),
        "unitaries have shape (2, 2), expected (4, 4)",
    ),
    "qsim-povm-dimension": (
        lambda: _algorithm(povm=((2,), np.eye(2))),
        "POVM dimension 2 does not match 4",
    ),
    "qsim-x-dim": (lambda: _algorithm(x_dim=0), "x_dim and z_dim must be >= 1"),
    "qsim-z-dim": (lambda: _algorithm(z_dim=0), "x_dim and z_dim must be >= 1"),
    "qsim-json-of-a-batch": (
        lambda: algorithm_to_json(random_algorithm(2, Z2, 1, 1, [0, 1])),
        "algorithm_to_json writes one algorithm",
    ),
    "qsim-random-queries": (
        lambda: random_algorithm(2, Z2, 1, -1, 3),
        "queries must be >= 0, got -1",
    ),
    "qsim-empty-labels-cycle": (
        lambda: random_algorithm(2, Z2, 1, 1, 3, labels_cycle=()),
        "labels_cycle must hold at least one label",
    ),
    "qsim-trial-count": (lambda: trial_seeds(1, -1), "n must be a non-negative integer, got -1"),
    "useless-k": (lambda: classical_useless(make_parity(2), -1), "k must be >= 0"),
    "useless-queries": (
        lambda: quantum_useless_falsify(make_parity(2), 0, 1, 0),
        "queries must be >= 1",
    ),
    "problems-domain-size": (lambda: _problem(domain_size=0), "domain_size must be >= 1"),
    "problems-empty-class": (
        lambda: _problem(functions=()),
        "the function class must be non-empty",
    ),
    "problems-shamir-k": (
        lambda: shamir_reconstruct(5, -1, []),
        "k must be >= 0, got -1",
    ),
    "problems-shamir-share-value": (
        lambda: shamir_reconstruct(5, 1, [(1, 0), (2, 5)]),
        "share value 5 outside [0, 5)",
    ),
    "algebra-1d-matrix": (
        lambda: as_complex_matrix([1, 0]),
        "expected a 2-d matrix, got shape (2,)",
    ),
    "algebra-non-square-unitary": (
        lambda: validate_unitary(np.eye(2, 3)),
        "unitary must be square, got shape (2, 3)",
    ),
    "algebra-empty-povm": (lambda: validate_povm((), np.eye(2)), "a POVM needs at least one element"),
    "algebra-negative-povm-rank": (
        lambda: validate_povm((3, -1), np.eye(2)),
        "POVM ranks must be >= 0, got (3, -1)",
    ),
    "algebra-povm-ranks-sum": (
        lambda: validate_povm((1, 2), np.eye(2)),
        "POVM ranks (1, 2) sum to 3, but B has 2 columns",
    ),
    "algebra-unitary-dim": (lambda: random_unitary(0, 1), "dim must be >= 1, got 0"),
    "algebra-povm-dim": (lambda: random_povm(0, 1, 1), "dim must be >= 1, got 0"),
    "algebra-state-dim": (lambda: random_pure_state(0, 1), "dim must be >= 1, got 0"),
    "algebra-negative-seed": (
        lambda: random_unitary(3, -5),
        "seed must be a non-negative integer, got -5",
    ),
    "algebra-negative-seed-in-a-stack": (
        lambda: random_pure_state(2, [[1, 2], [3, -4]]),
        "seed must be a non-negative integer, got -4",
    ),
    "algebra-json-of-a-stack": (
        lambda: matrix_to_json(np.zeros((2, 2, 2))),
        "matrix JSON holds one matrix, got shape (2, 2, 2)",
    ),
    "algebra-empty-json-matrix": (
        lambda: algorithm_from_json({"x_dim": 2, "group": [2], "z_dim": 1, "rho0": []}),
        "matrix JSON must be a non-empty list of rows",
    ),
    "polycompile-butterfly-length": (
        lambda: _butterfly([1.0, 2.0, 3.0], ((1, 0), (1, 1))),
        "need a power-of-two value count, got 3",
    ),
    "polycompile-coefficient-count": (
        lambda: MultilinearPolynomial(2, [1.0, 2.0]),
        "need 2^2 coefficients, got shape (2,)",
    ),
    "cli-shamir-without-p": (
        lambda: _load_problem(build_parser().parse_args(SHAMIR_WITHOUT_P)),
        "--gen shamir requires --p and --degree",
    ),
}


@pytest.mark.parametrize("call, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_input_is_refused_by_name(call, fragment):
    with pytest.raises(ValueError) as exc:
        call()
    assert fragment in str(exc.value)

