"""The dense JSON form's reader against the per-element oracle in
reference.py: the same factors bit for bit, and the same refusals. The
dense files come from ``reference.dense_algorithm_json``."""

import copy
import re

import numpy as np
import pytest

from oraclelab.algebra import TOL_NUM, cyclic, matrix_to_json, random_povm, random_unitary
from oraclelab.gallery import entries
from oraclelab.qsim import algorithm_from_json, random_algorithm

from reference import dense_algorithm_json, per_element_algorithm_from_json, povm_blocks

Z2 = cyclic(2)


def _arrays(alg):
    weights, vectors = alg.state
    return [weights, vectors, alg.unitaries, alg.povm[1], *povm_blocks(alg.povm)]


def _assert_read_alike(data):
    ours, oracle = algorithm_from_json(data), per_element_algorithm_from_json(data)
    for a, b in zip(_arrays(ours), _arrays(oracle), strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert ours.povm[0] == oracle.povm[0] and ours.outcome_labels == oracle.outcome_labels


def _with(data=None, rho0=None, povm=None):
    """A copy of ``data`` (a random 1-query algorithm on d = 4 by default)
    with its dense state or POVM replaced."""
    data = copy.deepcopy(data or dense_algorithm_json(random_algorithm(2, Z2, 1, 1, 3)))
    if rho0 is not None:
        data["rho0"] = matrix_to_json(rho0)
    if povm is not None:
        data["povm"] = [matrix_to_json(e) for e in povm]
    return data


def _projectors(factors):
    return [b @ b.conj().T for b in factors]


@pytest.mark.parametrize("name", sorted(entries()))
def test_gallery_reads_as_the_oracle_reads(name):
    _assert_read_alike(dense_algorithm_json(entries()[name].algorithm))


@pytest.mark.parametrize("z_dim", [1, 2])
@pytest.mark.parametrize("queries", [1, 2])
@pytest.mark.parametrize("n", range(2, 11))
def test_random_algorithms_read_as_the_oracle_reads(n, queries, z_dim):
    alg = random_algorithm(n, Z2, z_dim, queries, 10 * n + queries)
    _assert_read_alike(dense_algorithm_json(alg))


def test_rank_above_one_zero_element_and_tiny_negative_eigenvalues_read_as_the_oracle_reads():
    u = random_unitary(4, 11)
    mixed = u @ np.diag([0.5, 0.3, 0.2, 0.0]) @ u.conj().T
    coarse = _projectors(povm_blocks(random_povm(4, 2, 12)))  # two rank-2 projectors
    _assert_read_alike(_with(rho0=mixed, povm=coarse))
    _assert_read_alike(_with(povm=[*coarse, np.zeros((4, 4))]))
    e = TOL_NUM / 2
    tolerated = [np.diag([1.0, -e, 0.0, 1.0]), np.diag([0.0, 1.0 + e, 1.0, 0.0])]
    _assert_read_alike(_with(rho0=np.diag([1.0 + e, -e, 0.0, 0.0]), povm=tolerated))
    alg = algorithm_from_json(_with(rho0=np.diag([1.0 + e, -e, 0.0, 0.0]), povm=tolerated))
    assert alg.state[0].tolist() == [-e, 1.0 + e]  # the signed weight is kept
    assert alg.povm[0] == (2, 2)  # the povm's is dropped


def _edited(edit, data=None):
    """A builder of the base data (or of ``data``) with ``edit`` applied."""

    def build():
        changed = _with(data)
        edit(changed)
        return changed

    return build


def _set_entry(key, index, row, col, value):
    def edit(data):
        data[key][index][row][col] = value

    return edit


def _ragged(data):
    data["povm"][2][1].pop()


def _non_hermitian(data):
    re_part, im_part = data["povm"][2][0][1]
    data["povm"][2][0][1] = [re_part + 0.25, im_part]


def _nested(index):
    def edit(data):
        data["povm"][index] = [data["povm"][index]]

    return edit


def _povm(elements):
    def edit(data):
        data["povm"] = [matrix_to_json(e) for e in elements]

    return edit


# at d = 2 an entry nested one level deeper is a pair of pairs, not a row of d
D2 = dense_algorithm_json(random_algorithm(1, Z2, 1, 1, 5))
REFUSALS = {
    "ragged-rows": (_edited(_ragged), ValueError),
    "three-number-entry": (_edited(_set_entry("povm", 2, 0, 0, [1.0, 0.0, 0.0])), ValueError),
    "string-number": (_edited(_set_entry("povm", 2, 0, 0, ["0.5", 0.0])), TypeError),
    "null-number": (_edited(_set_entry("povm", 2, 0, 0, [None, 0.0])), TypeError),
    "null-entry": (_edited(_set_entry("povm", 2, 1, 0, None)), TypeError),
    "number-entry": (_edited(_set_entry("povm", 2, 1, 0, 0.5)), TypeError),
    "integer-beyond-64-bits": (_edited(_set_entry("povm", 2, 0, 0, [10**30, 0])), ValueError),
    "nested-one-level-too-deep": (_edited(_nested(2)), ValueError),
    "nested-one-level-too-deep-at-d2": (_edited(_nested(1), D2), TypeError),
    "empty-povm": (_edited(_povm([])), ValueError),
    "different-sizes": (
        _edited(_povm([np.eye(4), np.zeros((4, 4)), np.eye(2), np.zeros((4, 4))])),
        ValueError,
    ),
    "nan": (_edited(_set_entry("povm", 2, 1, 1, [float("nan"), 0.0])), ValueError),
    "non-hermitian": (_edited(_non_hermitian), ValueError),
    "eigenvalue-below-tolerance": (
        _edited(_povm([np.eye(4), np.zeros((4, 4)), np.diag([0.0, 0.0, -0.5, 0.0])])),
        ValueError,
    ),
    "density-matrix-eigenvalue": (
        lambda: _with(rho0=np.diag([1.5, -0.5, 0.0, 0.0])),
        ValueError,
    ),
    "string-in-unitary": (_edited(_set_entry("unitaries", 0, 1, 2, [0.0, "0"])), TypeError),
}


@pytest.mark.parametrize("build, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_match_the_oracle(build, error):
    with pytest.raises(error) as oracle:
        per_element_algorithm_from_json(build())
    with pytest.raises(error) as ours:
        algorithm_from_json(build())
    assert type(ours.value) is type(oracle.value)
    for name in re.findall(r"POVM element \d+|density matrix", str(oracle.value)):
        assert name in str(ours.value)


ELEMENT_2_FAULTS = [
    "ragged-rows",
    "three-number-entry",
    "string-number",
    "null-number",
    "null-entry",
    "number-entry",
    "nested-one-level-too-deep",
    "different-sizes",
    "non-hermitian",
    "eigenvalue-below-tolerance",
]


@pytest.mark.parametrize("key", ELEMENT_2_FAULTS)
def test_a_fault_in_element_2_names_element_2(key):
    build, error = REFUSALS[key]
    with pytest.raises(error, match="POVM element 2 "):
        algorithm_from_json(build())


def test_one_eigh_for_the_state_and_one_for_every_povm_element(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    data = dense_algorithm_json(random_algorithm(4, Z2, 1, 1, 9))  # d = 8 outcomes
    alg = algorithm_from_json(data)
    assert alg.n_outcomes == 8
    assert calls == [(1, 8, 8), (8, 8, 8)]
