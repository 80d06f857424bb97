"""The factor JSON form of an algorithm: rho0 as {"weights", "vectors"} and
the POVM as {"ranks", "factor"}, read back as written with no
eigendecomposition and refused by the in-memory constructor's checks."""

import copy
import json
from itertools import product

import numpy as np
import pytest

from oraclelab.algebra import TOL_NUM, cyclic, matrix_to_json, random_povm, random_unitary
from oraclelab.cli import EXIT_USAGE, main
from oraclelab.gallery import entries
from oraclelab.polycompile import compile_classical
from oraclelab.qsim import algorithm_from_json, algorithm_to_json, random_algorithm, run

from reference import dense_algorithm_json

Z2 = cyclic(2)
GALLERY = sorted(entries())


def _arrays(alg):
    weights, vectors = alg.state
    return [weights, vectors, alg.unitaries, alg.povm[1]]


def _through_text(data):
    return json.loads(json.dumps(data))


def _assert_round_trip(alg):
    again = algorithm_from_json(_through_text(algorithm_to_json(alg)))
    for a, b in zip(_arrays(alg), _arrays(again), strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert again.povm[0] == alg.povm[0] and again.outcome_labels == alg.outcome_labels
    assert (again.x_dim, again.group, again.z_dim) == (alg.x_dim, alg.group, alg.z_dim)


@pytest.mark.parametrize("name", GALLERY)
def test_gallery_round_trips_bit_for_bit(name):
    _assert_round_trip(entries()[name].algorithm)


@pytest.mark.parametrize("z_dim", [1, 2])
@pytest.mark.parametrize("queries", [1, 2])
@pytest.mark.parametrize("n", range(2, 11))
def test_random_algorithms_round_trip_bit_for_bit(n, queries, z_dim):
    _assert_round_trip(random_algorithm(n, Z2, z_dim, queries, 10 * n + queries))


def test_a_z3_algorithm_round_trips_bit_for_bit():
    _assert_round_trip(random_algorithm(3, cyclic(3), 1, 1, 4, labels_cycle=(0, 1, 2)))


def test_reading_the_factor_form_calls_no_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for alg in [random_algorithm(4, Z2, 1, 1, 9), *(entries()[n].algorithm for n in GALLERY)]:
        data = _through_text(algorithm_to_json(alg))
        assert algorithm_from_json(data).n_outcomes == alg.n_outcomes
    assert calls == []


# ---------------------------------------------------------------------------
# refusals: a rank-2 state and a POVM of two rank-2 projectors on d = 4

U = random_unitary(4, 11)
RANKS, FACTOR = random_povm(4, 2, 12)
BASE = {
    **algorithm_to_json(random_algorithm(2, Z2, 1, 1, 3)),
    "rho0": {"weights": [0.75, 0.25], "vectors": matrix_to_json(U[:, :2])},
    "povm": {"ranks": list(RANKS), "factor": matrix_to_json(FACTOR)},
}


def _set(key, field, value):
    def edit(data):
        data[key][field] = value

    return edit


def _drop(key, field):
    def edit(data):
        del data[key][field]

    return edit


def _nan_at(key, field):
    def edit(data):
        data[key][field][1][0] = [float("nan"), 0.0]

    return edit


E = 2 * TOL_NUM
WEIGHTS_NOT_NUMBERS = "state weights must be 2 real numbers, got "
REFUSALS = {
    "missing-weights": (_drop("rho0", "weights"), KeyError, "weights"),
    "missing-vectors": (_drop("rho0", "vectors"), KeyError, "vectors"),
    "missing-ranks": (_drop("povm", "ranks"), KeyError, "ranks"),
    "missing-factor": (_drop("povm", "factor"), KeyError, "factor"),
    "bool-weights": (_set("rho0", "weights", [True, False]), ValueError, WEIGHTS_NOT_NUMBERS + "bool"),
    "string-weights": (_set("rho0", "weights", ["0.75", "0.25"]), ValueError, WEIGHTS_NOT_NUMBERS + "<U4"),
    "null-weights": (_set("rho0", "weights", [None, None]), ValueError, WEIGHTS_NOT_NUMBERS + "object"),
    "null-weight-list": (_set("rho0", "weights", None), ValueError, WEIGHTS_NOT_NUMBERS + "object"),
    "nan-weight": (_set("rho0", "weights", [float("nan"), 0.25]), ValueError, "weights are not finite"),
    "weights-sum-off-one": (_set("rho0", "weights", [0.75, 0.5]), ValueError, "trace 1.25 differs from 1"),
    "weight-below-tolerance": (
        _set("rho0", "weights", [1 + E, -E]),
        ValueError,
        "density matrix has eigenvalue -2.000e-09",
    ),
    "non-orthonormal-vectors": (
        _set("rho0", "vectors", matrix_to_json(U[:, :2] * 1.001)),
        ValueError,
        "state vectors are not orthonormal",
    ),
    "wrong-state-dimension": (
        _set("rho0", "vectors", matrix_to_json(np.eye(3)[:, :2])),
        ValueError,
        "state vectors have dimension 3, expected 4",
    ),
    "wrong-povm-dimension": (
        lambda data: data.update(povm={"ranks": [2, 1], "factor": matrix_to_json(np.eye(3))}),
        ValueError,
        "POVM dimension 3 does not match 4",
    ),
    "fractional-rank": (_set("povm", "ranks", [1.5, 2.5]), ValueError, "expected an integer, got 1.5"),
    "bool-rank": (_set("povm", "ranks", [True, 3]), ValueError, "expected an integer, got True"),
    "string-rank": (_set("povm", "ranks", ["1", 3]), ValueError, "expected an integer, got '1'"),
    "negative-rank": (_set("povm", "ranks", [-1, 5]), ValueError, r"POVM ranks must be >= 0, got \(-1, 5\)"),
    "ranks-short-of-columns": (_set("povm", "ranks", [2, 1]), ValueError, "sum to 3, but B has 4 columns"),
    "povm-off-identity": (
        _set("povm", "factor", matrix_to_json(FACTOR * (1 + E))),
        ValueError,
        "POVM does not sum to identity",
    ),
    "nan-in-vectors": (_nan_at("rho0", "vectors"), ValueError, "non-finite entries"),
    "nan-in-factor": (_nan_at("povm", "factor"), ValueError, "non-finite entries"),
}


def _built(edit):
    data = copy.deepcopy(BASE)
    edit(data)
    return data


def test_the_unedited_base_reads():
    alg = algorithm_from_json(_through_text(BASE))
    assert alg.state[0].tolist() == [0.75, 0.25] and alg.povm[0] == (2, 2)


@pytest.mark.parametrize("edit, error, name", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_fault_of_the_factor_form_is_refused_by_name(edit, error, name):
    with pytest.raises(error, match=name):
        algorithm_from_json(_built(edit))


@pytest.mark.parametrize("edit, error, name", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_fault_of_the_factor_form_exits_two_with_one_line(
    tmp_path, capsys, edit, error, name
):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(_built(edit)))
    assert main(["simulate", "--oracle", "0,0", "--alg", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}: malformed input: {error.__name__}(")
    assert name.replace("\\", "") in err[0]


# ---------------------------------------------------------------------------
# the two forms agree

# Over the gallery and these algorithms, the largest difference between the
# dense and the factor file's outcome probabilities, on every table, was
# 6.7e-16; of compile's T 8.9e-16, and of a term's probability 1.5e-15.
# Over the 41 algorithms of the round-trip tests: 7.8e-16, 3.6e-15 and
# 2.6e-15, with the same terms kept.
AGREE_TOL = 1e-14
AGREE_RANDOM = [(2, 1, 1), (3, 1, 2), (4, 2, 1), (5, 1, 1), (6, 2, 1), (8, 1, 1)]


def _forms(alg):
    dense = algorithm_from_json(_through_text(dense_algorithm_json(alg)))
    return dense, algorithm_from_json(_through_text(algorithm_to_json(alg)))


def _agreement_cases():
    for name in GALLERY:
        yield name, entries()[name].algorithm, [0]
    for n, queries, z_dim in AGREE_RANDOM:
        alg = random_algorithm(n, Z2, z_dim, queries, 100 * n + queries)
        yield f"random-{n}-{queries}-{z_dim}", alg, list(range(0, alg.n_outcomes, 2))
    yield "random-z3", random_algorithm(3, cyclic(3), 1, 1, 4), [0, 2]


AGREEMENT = list(_agreement_cases())


@pytest.mark.parametrize(
    "alg, accept", [case[1:] for case in AGREEMENT], ids=[case[0] for case in AGREEMENT]
)
def test_dense_and_factor_files_agree_on_every_table(alg, accept):
    dense, factor = _forms(alg)
    tables = list(product(range(alg.group.order), repeat=alg.x_dim))
    dense_probs, factor_probs = (run(a, tables).outcome_probs for a in (dense, factor))
    assert np.abs(dense_probs - factor_probs).max() <= AGREE_TOL
    if alg.group.order != 2:
        return
    dense_sampler, factor_sampler = (compile_classical(a, accept) for a in (dense, factor))
    assert abs(dense_sampler.scale - factor_sampler.scale) <= AGREE_TOL
    signs = [[(mask, sign) for mask, _, sign in c.terms] for c in (dense_sampler, factor_sampler)]
    assert signs[0] == signs[1]
    for (_, p, _), (_, q, _) in zip(dense_sampler.terms, factor_sampler.terms):
        assert abs(p - q) <= AGREE_TOL
