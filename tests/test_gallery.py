from itertools import product

import numpy as np
import pytest

from oraclelab.errors import CapacityError
from oraclelab.gallery import (
    GalleryEntry,
    deutsch,
    entries,
    pairwise_parity,
    parity_with_padding,
)
from oraclelab.problems import LARGEST_PARITY_N, make_parity
from oraclelab.qsim import random_algorithm, run, success_probability, trial_seeds
from reference import dense_run


def test_deutsch_per_function_outcomes():
    alg = deutsch()
    assert np.allclose(run(alg, [(0, 0)]).outcome_probs, [[1, 0]], atol=1e-12)
    assert np.allclose(run(alg, [(0, 1)]).outcome_probs, [[0, 1]], atol=1e-12)


def test_deutsch_success_probability():
    assert success_probability(deutsch(), make_parity(2)) == pytest.approx(1.0, abs=1e-9)


def test_deutsch_uses_one_query():
    assert deutsch().query_count == 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pairwise_parity_success(n):
    alg = pairwise_parity(n)
    assert alg.query_count == n // 2
    assert success_probability(alg, make_parity(n)) == pytest.approx(1.0, abs=1e-9)


def test_pairwise_parity_two_reduces_to_deutsch():
    a, d = pairwise_parity(2), deutsch()
    assert all(np.allclose(v, w) for v, w in zip(a.state, d.state))
    assert all(np.allclose(u, v) for u, v in zip(a.unitaries, d.unitaries))
    assert all(np.allclose(p, q) for p, q in zip(a.povm, d.povm))


def test_pairwise_parity_specific_string():
    alg = pairwise_parity(4)
    res = run(alg, [(1, 0, 1, 1)])
    assert np.allclose(res.outcome_probs, [[0, 1]], atol=1e-9)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pairwise_parity_deterministic_per_function(n):
    alg = pairwise_parity(n)
    for f in product(range(2), repeat=n):
        (probs,) = run(alg, [f]).outcome_probs
        parity = sum(f) % 2
        assert probs[parity] == pytest.approx(1.0, abs=1e-9)


def test_pairwise_parity_rejects_bad_n():
    with pytest.raises(ValueError):
        pairwise_parity(3)
    with pytest.raises(ValueError):
        pairwise_parity(0)
    with pytest.raises(CapacityError):
        pairwise_parity((LARGEST_PARITY_N + 3) // 2 * 2)  # the first even n past its padded size


def test_parity_with_padding_at_the_parity_ceiling():
    # the largest parity problem, padded to LARGEST_PARITY_N + 1 points
    assert LARGEST_PARITY_N == 17
    pairwise_parity(LARGEST_PARITY_N + 1)
    problem, alg = parity_with_padding(LARGEST_PARITY_N)
    assert alg.x_dim == LARGEST_PARITY_N + 1
    assert success_probability(alg, problem) == pytest.approx(1.0, abs=1e-9)
    # the kickback state on points 0 and 1 and the query-parity projectors,
    # written out densely over basis index 2x + y
    psi = np.kron(np.eye(alg.x_dim)[0] + np.eye(alg.x_dim)[1], [1, -1]) / 2
    even = np.arange(2 * alg.x_dim) // 2 % 2 == 0
    povm = [np.diag(even.astype(float)), np.diag((~even).astype(float))]
    tables = problem.functions[::500]
    probs = run(alg, tables).outcome_probs
    for f, p in zip(tables, probs):
        _, expected = dense_run(alg, f, np.outer(psi, psi), povm)
        assert np.abs(p - expected).max() < 1e-12
        assert p[sum(f) % 2] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_parity_with_padding_odd_n(n):
    problem, alg = parity_with_padding(n)
    assert problem.domain_size == n + 1
    assert alg.query_count == (n + 1) // 2
    assert success_probability(alg, problem) == pytest.approx(1.0, abs=1e-9)


def test_parity_with_padding_rejects_even():
    with pytest.raises(ValueError):
        parity_with_padding(4)


def test_one_fewer_query_is_no_better_than_guessing():
    # at one query below the exact solver, success sits at the prior mass
    for n in (4, 6):
        problem = make_parity(n)
        for seed in trial_seeds(55, 10):
            alg = random_algorithm(
                n, problem.group, 1, n // 2 - 1, seed, labels_cycle=(0, 1)
            )
            assert success_probability(alg, problem) == pytest.approx(0.5, abs=1e-8)


def test_entries_catalog_claims_hold():
    catalog = entries()
    assert set(catalog) == {
        "deutsch",
        "pairwise-parity-2",
        "pairwise-parity-4",
        "pairwise-parity-6",
    }
    for entry in catalog.values():
        assert isinstance(entry, GalleryEntry)
        achieved = success_probability(entry.algorithm, entry.problem)
        assert achieved == pytest.approx(entry.claimed_success, abs=1e-9)
