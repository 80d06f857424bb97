from itertools import product

import numpy as np
import pytest

from oraclelab.algebra import (
    TOL_NUM,
    FiniteAbelianGroup,
    cyclic,
    random_povm,
    random_pure_state,
    random_unitary,
)
from oraclelab.gallery import deutsch
from oraclelab.problems import make_image_parity, make_parity
from oraclelab.qsim import (
    QuantumAlgorithm,
    algorithm_from_json,
    algorithm_to_json,
    joint_distribution,
    oracle_matrix,
    outcome_posteriors,
    random_algorithm,
    run,
    success_probability,
    trial_seeds,
)
from oraclelab.useless import MAX_DIM
from reference import CONFIGURED_GROUPS, dense_oracle_matrix, dense_run, group_add


def _dense(f, x_dim, group, z_dim):
    """Dense permutation matrix of one table from the gather index."""
    (index,) = oracle_matrix([f], x_dim, group, z_dim)
    return np.eye(len(index))[index]


def test_oracle_matrix_zero_function_is_identity():
    m = _dense((0, 0, 0), 3, cyclic(2), 1)
    assert np.array_equal(m, np.eye(6))


def test_oracle_matrix_single_point_flip():
    m = _dense((1,), 1, cyclic(2), 1)
    assert np.array_equal(m, np.array([[0, 1], [1, 0]], dtype=complex))


def test_oracle_matrix_flips_only_second_point():
    # f = (0, 1) on two points exchanges (x=1,y=0) <-> (x=1,y=1) only
    m = _dense((0, 1), 2, cyclic(2), 1)
    expected = np.eye(4, dtype=complex)
    expected[2:4, 2:4] = [[0, 1], [1, 0]]
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("x_dim,factors", [(1, (2,)), (2, (2,)), (3, (3,)), (2, (2, 2))])
def test_oracle_matrix_is_permutation(x_dim, factors):
    group = FiniteAbelianGroup(factors)
    tables = list(product(range(group.order), repeat=x_dim))
    for f, index in zip(tables, oracle_matrix(tables, x_dim, group, 2)):
        m = np.eye(len(index))[index]
        assert set(np.unique(m.real)) <= {0.0, 1.0} and not m.imag.any()
        assert np.array_equal(m.sum(axis=0), np.ones(m.shape[0]))
        assert np.array_equal(m.sum(axis=1), np.ones(m.shape[0]))
        assert np.array_equal(m, dense_oracle_matrix(f, x_dim, group, 2))


@pytest.mark.parametrize("factors", CONFIGURED_GROUPS)
def test_oracle_matrix_matches_dense_reference_on_every_configured_group(factors):
    group = FiniteAbelianGroup(factors)
    tables = list(product(range(group.order), repeat=2))
    if len(tables) > 64:  # a seeded sample that keeps both extremes
        rng = np.random.default_rng(group.order)
        picks = rng.choice(len(tables), size=62, replace=False)
        tables = [tables[0], tables[-1], *(tables[i] for i in picks)]
    for f, index in zip(tables, oracle_matrix(tables, 2, group, 2)):
        assert np.array_equal(np.eye(len(index))[index], dense_oracle_matrix(f, 2, group, 2))


@pytest.mark.parametrize("x_dim,order", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_oracle_matrix_composes_pointwise(x_dim, order):
    group = cyclic(order)
    tables = list(product(range(order), repeat=x_dim))
    for f in tables:
        for g in tables:
            fg = tuple(group_add(group.factors, a, b) for a, b in zip(f, g))
            lhs = _dense(f, x_dim, group, 1) @ _dense(g, x_dim, group, 1)
            assert np.array_equal(lhs, _dense(fg, x_dim, group, 1))


def test_oracle_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        oracle_matrix([(0, 1, 0)], 2, cyclic(2), 1)
    with pytest.raises(ValueError):
        oracle_matrix([(0, 2)], 2, cyclic(2), 1)


@pytest.mark.parametrize(
    "tables",
    [
        (0, 1),  # one table, not a stack
        (0, 1, 1, 0),  # two tables run together: no silent reshape
        [(0, 1, 0)],  # wrong width
        [(0, -1)],  # negative entry
        [(0.0, 1.0)],  # not integers
    ],
)
def test_oracle_matrix_rejects_malformed_stacks(tables):
    with pytest.raises(ValueError):
        oracle_matrix(tables, 2, cyclic(2), 1)
    alg = deutsch()
    with pytest.raises(ValueError):
        run(alg, tables)


def test_run_zero_queries_measures_initial_state():
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    povm = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    alg = QuantumAlgorithm(1, cyclic(2), 1, rho0, (), povm)
    res = run(alg, [(0,)])
    assert np.allclose(res.outcome_probs, [[0.25, 0.75]])
    # oracle acts before any unitary, so with none it never acts at all
    res_flip = run(alg, [(1,)])
    assert np.allclose(res_flip.outcome_probs, [[0.25, 0.75]])


def test_run_deutsch_identifies_parity():
    alg = deutsch()
    assert np.allclose(run(alg, [(0, 1)]).outcome_probs, [[0, 1]], atol=1e-12)
    assert np.allclose(run(alg, [(1, 0)]).outcome_probs, [[0, 1]], atol=1e-12)
    assert np.allclose(run(alg, [(0, 0)]).outcome_probs, [[1, 0]], atol=1e-12)
    assert np.allclose(run(alg, [(1, 1)]).outcome_probs, [[1, 0]], atol=1e-12)


def test_run_probabilities_form_distribution():
    group = cyclic(3)
    alg = random_algorithm(2, group, 2, 2, seed=5)
    for f in product(range(3), repeat=2):
        res = run(alg, [f])
        assert abs(res.outcome_probs.sum() - 1) < TOL_NUM
        assert res.outcome_probs.min() >= 0


def _initial_states(dim, seed):
    """A pure state, a rank-2 mixture, and a state whose -1e-10 eigenvalue
    validation admits (its eigenvector must not be dropped)."""
    basis = random_unitary(dim, seed)
    spectra = [[0.7, 0.3]]
    if dim > 2:
        spectra.append([1 + 1e-10, -1e-10, 0.0])
    states = [random_pure_state(dim, seed + 1)]
    for spectrum in spectra:
        diag = np.zeros(dim)
        diag[: len(spectrum)] = spectrum
        states.append((basis * diag) @ basis.conj().T)
    return states


@pytest.mark.parametrize("z_dim", [1, 2])
@pytest.mark.parametrize("x_dim", [1, 2, 3])
@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2), (2, 3)])
def test_run_matches_dense_reference(factors, x_dim, z_dim):
    group = FiniteAbelianGroup(factors)
    dim = x_dim * group.order * z_dim
    seed = 100 * x_dim + 10 * z_dim + group.order
    unitaries = tuple(random_unitary(dim, seed + 2 + i) for i in range(3))
    povm = random_povm(dim, min(dim, 5), seed)
    tables = list(product(range(group.order), repeat=x_dim))
    # the whole stack runs at once; every table of stacks up to 27 is
    # compared, and an evenly spaced third or less of the larger ones
    checked = range(0, len(tables), max(1, len(tables) // 27))
    for rho0 in _initial_states(dim, seed):
        for q in range(4):
            alg = QuantumAlgorithm(x_dim, group, z_dim, rho0, unitaries[:q], povm)
            res = run(alg, tables)
            assert res.outcome_probs.shape == (len(tables), alg.n_outcomes)
            assert res.final_states.shape == (len(tables), dim, dim)
            for t in checked:
                rho, probs = dense_run(alg, tables[t])
                assert np.abs(res.outcome_probs[t] - probs).max() < 1e-12
                assert np.abs(res.final_states[t] - rho).max() < 1e-12


def test_run_matches_dense_reference_at_dim_ceiling():
    group, z_dim = cyclic(2), MAX_DIM // 8
    alg = QuantumAlgorithm(
        4,
        group,
        z_dim,
        random_pure_state(MAX_DIM, 1),
        (random_unitary(MAX_DIM, 2),),
        random_povm(MAX_DIM, 4, 3),
    )
    assert alg.dim == MAX_DIM
    tables = [(0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 1, 1)]
    res = run(alg, tables)
    for t, f in enumerate(tables):
        rho, probs = dense_run(alg, f)
        assert np.abs(res.outcome_probs[t] - probs).max() < 1e-12
        assert np.abs(res.final_states[t] - rho).max() < 1e-12


def test_run_names_first_table_with_broken_distribution():
    # halving one element of Deutsch's POVM (after validation) leaves the
    # even-parity tables summing to 1 and the odd ones to 1/2
    alg = deutsch()
    object.__setattr__(alg, "povm", (alg.povm[0], alg.povm[1] / 2))
    with pytest.raises(ArithmeticError, match=r"table 1 \[0, 1\] sum to 0\.(5|49)"):
        run(alg, [(0, 0), (0, 1), (1, 0)])
    object.__setattr__(alg, "povm", (alg.povm[0], alg.povm[1] * 4))
    with pytest.raises(ArithmeticError, match=r"outside \[0,1\] on table 1 \[0, 1\]"):
        run(alg, [(0, 0), (0, 1), (1, 0)])


def test_run_preserves_trace_and_positivity_at_every_step():
    alg = random_algorithm(3, cyclic(2), 1, 3, seed=9)
    # the state after i query/unitary rounds is the final state of the
    # algorithm truncated to its first i unitaries
    for steps in range(len(alg.unitaries) + 1):
        prefix = QuantumAlgorithm(
            alg.x_dim, alg.group, alg.z_dim, alg.rho0, alg.unitaries[:steps], alg.povm
        )
        for f in product(range(2), repeat=3):
            rho = run(prefix, [f]).final_states[0]
            assert abs(np.trace(rho).real - 1) < TOL_NUM
            assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -TOL_NUM


def test_joint_distribution_single_outcome_povm_recovers_prior():
    problem = make_parity(2)
    dim = 4
    alg = QuantumAlgorithm(
        2,
        cyclic(2),
        1,
        random_pure_state(dim, 3),
        (np.eye(dim, dtype=complex),),
        (np.eye(dim, dtype=complex),),
    )
    table = joint_distribution(alg, problem)
    assert table.shape == (4, 1)
    assert np.allclose(table[:, 0], [float(w) for w in problem.prior], atol=1e-12)


def test_joint_distribution_deutsch_concentrates_on_correct_outcome():
    problem = make_parity(2)
    table = joint_distribution(deutsch(), problem)
    for i, f in enumerate(problem.functions):
        parity = sum(f) % 2
        assert table[i, parity] == pytest.approx(0.25, abs=1e-12)
        assert table[i, 1 - parity] == pytest.approx(0.0, abs=1e-12)


def test_joint_distribution_no_oracle_factorizes():
    problem = make_parity(2)
    alg = random_algorithm(2, problem.group, 1, 1, seed=4)
    # erase the oracle's effect by measuring the initial state directly
    alg = QuantumAlgorithm(2, problem.group, 1, alg.rho0, (), alg.povm)
    table = joint_distribution(alg, problem)
    marginal_s = table.sum(axis=0)
    for i, w in enumerate(problem.prior):
        assert np.allclose(table[i], float(w) * marginal_s, atol=1e-12)


def test_posterior_quantum_no_oracle_returns_prior():
    problem = make_image_parity()
    alg = random_algorithm(3, problem.group, 1, 1, seed=8)
    alg = QuantumAlgorithm(3, problem.group, 1, alg.rho0, (), alg.povm)
    probs, posteriors = outcome_posteriors(alg, problem)
    prior = {j: float(w) for j, w in problem.part_prior().items()}
    seen = 0
    for s, post in enumerate(posteriors):
        if post is None:
            continue
        seen += 1
        for j in prior:
            assert post[j] == pytest.approx(prior[j], abs=1e-10)
    assert seen > 0
    assert abs(probs.sum() - 1) < TOL_NUM


def test_posterior_quantum_deutsch_is_point_mass():
    _, posteriors = outcome_posteriors(deutsch(), make_parity(2))
    assert len(posteriors) == 2
    assert posteriors[0] == pytest.approx({0: 1.0, 1: 0.0}, abs=1e-12)
    assert posteriors[1] == pytest.approx({0: 0.0, 1: 1.0}, abs=1e-12)


def test_posterior_quantum_sums_to_one_when_defined():
    problem = make_image_parity()
    alg = random_algorithm(3, problem.group, 1, 1, seed=2)
    _, posteriors = outcome_posteriors(alg, problem)
    for post in posteriors:
        if post is not None:
            assert sum(post.values()) == pytest.approx(1.0, abs=TOL_NUM)


def test_success_probability_guess_majority():
    problem = make_image_parity()
    dim = 9
    alg = QuantumAlgorithm(
        3,
        cyclic(3),
        1,
        random_pure_state(dim, 1),
        (),
        (np.eye(dim, dtype=complex),),
        outcome_labels={0: 0},  # always answer "even image"
    )
    assert success_probability(alg, problem) == pytest.approx(2 / 3, abs=1e-12)


def test_success_probability_deutsch_is_one():
    assert success_probability(deutsch(), make_parity(2)) == pytest.approx(1.0, abs=1e-9)


def test_success_probability_requires_labels():
    problem = make_parity(2)
    alg = random_algorithm(2, problem.group, 1, 1, seed=0)
    with pytest.raises(ValueError):
        success_probability(alg, problem)


def test_algorithm_problem_mismatch_detected():
    problem = make_parity(3)
    alg = random_algorithm(2, problem.group, 1, 1, seed=0)
    with pytest.raises(ValueError):
        joint_distribution(alg, problem)
    alg2 = random_algorithm(3, cyclic(3), 1, 1, seed=0)
    with pytest.raises(ValueError):
        joint_distribution(alg2, problem)


def test_quantum_algorithm_validates_operators():
    with pytest.raises(ValueError):  # rho0 trace wrong
        QuantumAlgorithm(1, cyclic(2), 1, np.eye(2, dtype=complex), (), (np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):  # non-unitary evolution
        QuantumAlgorithm(
            1,
            cyclic(2),
            1,
            random_pure_state(2, 0),
            (np.array([[1, 1], [0, 1]], dtype=complex),),
            (np.eye(2, dtype=complex),),
        )
    with pytest.raises(ValueError):  # POVM incomplete
        QuantumAlgorithm(
            1, cyclic(2), 1, random_pure_state(2, 0), (), (np.diag([1.0, 0.0]).astype(complex),)
        )
    with pytest.raises(ValueError):  # label on a missing outcome
        QuantumAlgorithm(
            1,
            cyclic(2),
            1,
            random_pure_state(2, 0),
            (),
            (np.eye(2, dtype=complex),),
            outcome_labels={1: 0},
        )


def test_random_algorithm_deterministic_and_labeled():
    a = random_algorithm(2, cyclic(2), 1, 1, seed=42, labels_cycle=(0, 1))
    b = random_algorithm(2, cyclic(2), 1, 1, seed=42, labels_cycle=(0, 1))
    assert np.array_equal(a.rho0, b.rho0)
    assert all(np.array_equal(u, v) for u, v in zip(a.unitaries, b.unitaries))
    assert a.outcome_labels == {0: 0, 1: 1, 2: 0, 3: 1}
    assert a.n_outcomes == a.dim


def test_trial_seeds_deterministic():
    assert trial_seeds(7, 5) == trial_seeds(7, 5)
    assert trial_seeds(7, 5) != trial_seeds(8, 5)


def test_algorithm_json_round_trip():
    alg = random_algorithm(2, cyclic(2), 1, 1, seed=3, labels_cycle=(0, 1))
    data = algorithm_to_json(alg)
    again = algorithm_from_json(data)
    assert np.array_equal(alg.rho0, again.rho0)
    assert all(np.array_equal(u, v) for u, v in zip(alg.unitaries, again.unitaries))
    assert all(np.array_equal(e, g) for e, g in zip(alg.povm, again.povm))
    assert alg.outcome_labels == again.outcome_labels
    assert (alg.x_dim, alg.group, alg.z_dim) == (again.x_dim, again.group, again.z_dim)
