import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab.algebra import (
    TOL_NUM,
    FiniteAbelianGroup,
    cyclic,
    group_from_json,
    group_to_json,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    random_povm,
    random_pure_state,
    random_unitary,
    unitary_defect,
    validate_density_matrix,
    validate_povm,
    validate_unitary,
)
from reference import CONFIGURED_GROUPS, group_add, group_decode, group_encode

def test_group_add_examples():
    z23 = (2, 3)
    assert group_add((2,), 1, 1) == 0
    assert group_add((3,), 2, 2) == 1
    assert group_add(z23, group_encode(z23, (1, 2)), group_encode(z23, (1, 2))) == group_encode(
        z23, (0, 1)
    )
    assert group_add(z23, 5, 5) == 1  # (1,2) + (1,2) = (0,1)
    difference = FiniteAbelianGroup(z23).difference_table()
    assert difference[1, 5] == 5  # (0,1) - (1,2) = (1,2)
    assert cyclic(3).difference_table()[0].tolist() == [0, 2, 1]


@pytest.mark.parametrize("factors", CONFIGURED_GROUPS)
def test_group_axioms_exhaustive(factors):
    """The reference digit addition is a group, and the library's
    difference table inverts it entry by entry."""
    g = FiniteAbelianGroup(factors)
    n = g.order
    assert n <= 64
    table = [[group_add(factors, a, b) for b in range(n)] for a in range(n)]
    difference = g.difference_table()
    assert difference.shape == (n, n)
    for a in range(n):
        assert table[a][0] == a  # identity
        assert table[a][difference[0, a]] == 0  # inverses
        for b in range(n):
            assert 0 <= table[a][b] < n  # closure
            assert table[a][b] == table[b][a]  # commutativity
            assert table[difference[a, b]][b] == a  # (a - b) + b = a
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert table[table[a][b]][c] == table[a][table[b][c]]


@pytest.mark.parametrize("factors", CONFIGURED_GROUPS)
def test_encode_decode_bijection(factors):
    g = FiniteAbelianGroup(factors)
    seen = set()
    for a in range(g.order):
        comps = group_decode(factors, a)
        assert all(0 <= c < m for c, m in zip(comps, factors))
        assert group_encode(factors, comps) == a
        seen.add(comps)
    assert len(seen) == g.order
    # a -> a - b and b -> a - b are bijections of the group
    difference = g.difference_table()
    elements = list(range(g.order))
    for a in elements:
        assert sorted(difference[a]) == elements
        assert sorted(difference[:, a]) == elements


def test_group_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))


def test_random_unitary_scalar_case():
    u = random_unitary(1, 123)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1) < 1e-12


@pytest.mark.parametrize("dim,seed", [(2, 0), (4, 7), (9, 3), (20, 11)])
def test_random_unitary_is_unitary(dim, seed):
    u = random_unitary(dim, seed)
    assert unitary_defect(u) < 1e-10


def test_random_unitary_deterministic():
    a = random_unitary(4, 7)
    b = random_unitary(4, 7)
    assert np.array_equal(a, b)
    c = random_unitary(4, 8)
    assert not np.allclose(a, c)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_unitary_property(dim, seed):
    assert unitary_defect(random_unitary(dim, seed)) < 1e-10


def test_random_povm_single_outcome_is_identity():
    (element,) = random_povm(2, 1, 5)
    assert np.allclose(element, np.eye(2), atol=1e-10)


def test_random_povm_two_projectors():
    povm = random_povm(4, 2, 3)
    assert len(povm) == 2
    total = sum(povm)
    assert np.max(np.abs(total - np.eye(4))) < 1e-10
    for e in povm:
        # projector: E^2 = E, rank 2
        assert np.max(np.abs(e @ e - e)) < 1e-10
        assert round(float(np.trace(e).real)) == 2


def test_random_povm_rank_one_orthogonal():
    povm = random_povm(3, 3, 1)
    assert len(povm) == 3
    for i, a in enumerate(povm):
        assert round(float(np.trace(a).real)) == 1
        for b in povm[i + 1:]:
            assert np.max(np.abs(a @ b)) < 1e-10


def test_random_povm_validates():
    for dim, n, seed in [(4, 2, 0), (5, 3, 1), (6, 6, 2)]:
        validate_povm(random_povm(dim, n, seed))
    with pytest.raises(ValueError):
        random_povm(2, 3, 0)


def test_random_pure_state_is_density_matrix():
    for dim, seed in [(2, 0), (8, 5)]:
        rho = random_pure_state(dim, seed)
        validate_density_matrix(rho)
        # purity of a pure state
        assert abs(float(np.trace(rho @ rho).real) - 1) < 1e-10


def test_validate_density_matrix_rejects():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_validate_unitary_rejects():
    with pytest.raises(ValueError):
        validate_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_validate_povm_rejects_incomplete():
    with pytest.raises(ValueError):
        validate_povm([np.diag([1.0, 0.0])])


# Each validator check as a function of its defect e: the check passes at
# e = TOL_NUM / 2 and raises at e = 2 * TOL_NUM.
TOL_NUM_CHECKS = {
    "density-eigenvalue": lambda e: validate_density_matrix(np.diag([1 + e, -e])),
    "density-hermitian": lambda e: validate_density_matrix(np.array([[0.5, e], [0, 0.5]])),
    "density-trace": lambda e: validate_density_matrix(np.diag([0.5 + e, 0.5])),
    "unitary-defect": lambda e: validate_unitary(np.diag([np.sqrt(1 + e), 1])),
    "povm-eigenvalue": lambda e: validate_povm([np.diag([1, -e]), np.diag([0, 1 + e])]),
    "povm-hermitian": lambda e: validate_povm(
        [np.array([[0.5, e], [0, 0.5]]), np.array([[0.5, -e], [0, 0.5]])]
    ),
    "povm-sum": lambda e: validate_povm([np.diag([1 + e, 0]), np.diag([0, 1])]),
}


@pytest.mark.parametrize("check", TOL_NUM_CHECKS.values(), ids=TOL_NUM_CHECKS.keys())
def test_validators_pass_within_tol_num_and_reject_beyond(check):
    check(TOL_NUM / 2)
    with pytest.raises(ValueError):
        check(2 * TOL_NUM)


def test_hermitian_part():
    a = np.array([[1, 2j], [0, 3]], dtype=complex)
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)


def test_matrix_json_round_trip():
    a = random_unitary(3, 4)
    again = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(a, again)


def test_matrix_json_rejects_ragged():
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])


def test_group_json_round_trip():
    g = FiniteAbelianGroup((2, 3, 4))
    assert group_from_json(group_to_json(g)) == g
