import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab.algebra import (
    TOL_NUM,
    FiniteAbelianGroup,
    cyclic,
    povm_from_dense,
    random_povm,
    random_pure_state,
    random_unitary,
)
from oraclelab.gallery import deutsch
from oraclelab.problems import LearningProblem, make_image_parity, make_parity, make_shamir
from oraclelab import algebra
from oraclelab.qsim import (
    EPS_COND,
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
from oraclelab.useless import MAX_DIM, quantum_useless_falsify
from reference import (
    CONFIGURED_GROUPS,
    dense_oracle_matrix,
    dense_part_table,
    dense_run,
    group_add,
    one_seed_draw,
    one_seed_state,
    one_seed_unitary,
    per_matrix_factor,
    povm_blocks,
)


def _dense_algorithm(x_dim, group, z_dim, rho0, unitaries, povm, **labels):
    """The algorithm with a dense initial state and dense POVM elements,
    each factored by its own ``eigh``."""
    state = per_matrix_factor(rho0, "density matrix")
    return QuantumAlgorithm(x_dim, group, z_dim, state, unitaries, povm_from_dense(povm), **labels)


def _product(factor):
    """F F^H for a POVM factor F."""
    return factor @ factor.conj().T


def _density(state):
    """V diag(w) V^H for a state factor (w, V)."""
    weights, vectors = state
    return (vectors * weights) @ vectors.conj().T


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
    alg = _dense_algorithm(1, cyclic(2), 1, rho0, (), povm)
    res = run(alg, [(0,)])
    assert np.allclose(res.outcome_probs, [[0.25, 0.75]])
    # oracle acts before any unitary, so with none it never acts at all
    res_flip = run(alg, [(1,)])
    assert np.allclose(res_flip.outcome_probs, [[0.25, 0.75]])


def test_run_measures_zero_elements_as_zero():
    # a zero element read from a file keeps no column; the segmented sum
    # must still give it probability 0, first or last
    alg = deutsch()
    zero = np.zeros((4, 4))
    even, odd = (_product(b) for b in povm_blocks(alg.povm))
    povm = [zero, even, zero, odd, zero]
    ingested = _dense_algorithm(2, cyclic(2), 1, _density(alg.state), alg.unitaries, povm)
    assert ingested.povm[0] == (0, 2, 0, 2, 0)
    probs = run(ingested, [(0, 1), (1, 1)]).outcome_probs
    assert np.abs(probs - [[0, 0, 0, 1, 0], [0, 1, 0, 0, 0]]).max() < 1e-12


def test_a_zero_rank_outcome_in_the_middle_reads_probability_zero():
    alg = deutsch()
    (even_rank, odd_rank), factor = alg.povm
    middle = dataclasses.replace(alg, povm=((even_rank, 0, odd_rank), factor), outcome_labels=None)
    probs = run(middle, [(0, 1), (1, 1)]).outcome_probs
    assert np.abs(probs - [[0, 0, 1], [1, 0, 0]]).max() < 1e-12


def test_drawing_and_running_an_algorithm_neither_splits_nor_joins_its_povm(monkeypatch):
    # seeding joins integer arrays of its own; no complex array is joined or split
    def refused(name):
        original = getattr(np, name)

        def wrapper(arrays, *args, **kwargs):
            items = arrays if isinstance(arrays, (list, tuple)) else [arrays]
            assert not any(np.iscomplexobj(a) for a in items), f"np.{name} ran on a complex array"
            return original(arrays, *args, **kwargs)

        return wrapper

    for name in ("array_split", "split", "concatenate", "hstack"):
        monkeypatch.setattr(np, name, refused(name))
    algs = random_algorithm(2, cyclic(2), 1, 1, [0, 1])
    assert run(algs, [(0, 1)]).outcome_probs.shape == (2, 1, 4)


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
    states = [_density(random_pure_state(dim, seed + 1))]
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
    povm = [_product(b) for b in povm_blocks(random_povm(dim, min(dim, 5), seed))]
    tables = list(product(range(group.order), repeat=x_dim))
    # the whole stack runs at once; every table of stacks up to 27 is
    # compared, and an evenly spaced third or less of the larger ones
    checked = range(0, len(tables), max(1, len(tables) // 27))
    for rho0 in _initial_states(dim, seed):
        for q in range(4):
            alg = _dense_algorithm(x_dim, group, z_dim, rho0, unitaries[:q], povm)
            res = run(alg, tables)
            assert res.outcome_probs.shape == (len(tables), alg.n_outcomes)
            assert res.final_states.shape == (len(tables), dim, dim)
            for t in checked:
                rho, probs = dense_run(alg, tables[t], rho0, povm)
                assert np.abs(res.outcome_probs[t] - probs).max() < 1e-12
                assert np.abs(res.final_states[t] - rho).max() < 1e-12


def test_run_matches_dense_reference_at_dim_ceiling():
    # built from the generators' factors, as the falsifier builds its trials
    group, z_dim = cyclic(2), MAX_DIM // 8
    state, povm = random_pure_state(MAX_DIM, 1), random_povm(MAX_DIM, 4, 3)
    alg = QuantumAlgorithm(4, group, z_dim, state, (random_unitary(MAX_DIM, 2),), povm)
    assert alg.dim == MAX_DIM
    rho0, dense_povm = _density(state), [_product(b) for b in povm_blocks(povm)]
    tables = [(0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 1, 1)]
    res = run(alg, tables)
    for t, f in enumerate(tables):
        rho, probs = dense_run(alg, f, rho0, dense_povm)
        assert np.abs(res.outcome_probs[t] - probs).max() < 1e-12
        assert np.abs(res.final_states[t] - rho).max() < 1e-12


def test_run_names_first_table_with_broken_distribution():
    # halving one element of Deutsch's POVM (after validation), by scaling
    # its factor by 1/sqrt(2), leaves the even-parity tables summing to 1
    # and the odd ones to 1/2
    alg = deutsch()
    ranks, (even, odd) = alg.povm[0], povm_blocks(alg.povm)
    object.__setattr__(alg, "povm", (ranks, np.hstack((even, odd / np.sqrt(2)))))
    with pytest.raises(ArithmeticError, match=r"table 1 \[0, 1\] sum to 0\.(5|49)"):
        run(alg, [(0, 0), (0, 1), (1, 0)])
    object.__setattr__(alg, "povm", (ranks, np.hstack((even, odd * np.sqrt(2)))))
    with pytest.raises(ArithmeticError, match=r"outside \[0,1\] on table 1 \[0, 1\]"):
        run(alg, [(0, 0), (0, 1), (1, 0)])


def test_run_preserves_trace_and_positivity_at_every_step():
    alg = random_algorithm(3, cyclic(2), 1, 3, seed=9)
    # the state after i query/unitary rounds is the final state of the
    # algorithm truncated to its first i unitaries
    for steps in range(len(alg.unitaries) + 1):
        prefix = QuantumAlgorithm(
            alg.x_dim, alg.group, alg.z_dim, alg.state, alg.unitaries[:steps], alg.povm
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
        ((dim,), np.eye(dim, dtype=complex)),
    )
    table = joint_distribution(alg, problem)
    assert table.shape == (2, 1)
    assert np.allclose(table[:, 0], [float(w) for w in problem.part_prior().values()], atol=1e-12)


def test_joint_distribution_deutsch_concentrates_on_correct_outcome():
    problem = make_parity(2)
    table = joint_distribution(deutsch(), problem)
    for parity in (0, 1):
        assert table[parity, parity] == pytest.approx(0.5, abs=1e-12)
        assert table[parity, 1 - parity] == pytest.approx(0.0, abs=1e-12)


def test_joint_distribution_no_oracle_factorizes():
    problem = make_parity(2)
    alg = random_algorithm(2, problem.group, 1, 1, seed=4)
    # erase the oracle's effect by measuring the initial state directly
    alg = QuantumAlgorithm(2, problem.group, 1, alg.state, (), alg.povm)
    table = joint_distribution(alg, problem)
    marginal_s = table.sum(axis=0)
    for row, w in enumerate(problem.part_prior().values()):
        assert np.allclose(table[row], float(w) * marginal_s, atol=1e-12)


def test_posterior_quantum_no_oracle_returns_prior():
    problem = make_image_parity()
    alg = random_algorithm(3, problem.group, 1, 1, seed=8)
    alg = QuantumAlgorithm(3, problem.group, 1, alg.state, (), alg.povm)
    probs, posteriors = outcome_posteriors(alg, problem)
    prior = [float(w) for w in problem.part_prior().values()]
    seen = 0
    for post in posteriors.T:
        if np.isnan(post).all():
            continue
        seen += 1
        assert post == pytest.approx(prior, abs=1e-10)
    assert seen > 0
    assert abs(probs.sum() - 1) < TOL_NUM


def test_posterior_quantum_deutsch_is_point_mass():
    _, posteriors = outcome_posteriors(deutsch(), make_parity(2))
    assert posteriors.shape == (2, 2)
    assert posteriors[:, 0] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert posteriors[:, 1] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_posterior_quantum_sums_to_one_when_defined():
    problem = make_image_parity()
    alg = random_algorithm(3, problem.group, 1, 1, seed=2)
    _, posteriors = outcome_posteriors(alg, problem)
    for post in posteriors.T:
        if not np.isnan(post).all():
            assert post.sum() == pytest.approx(1.0, abs=TOL_NUM)


def _relabelled_parity_3():
    """parity-3 with its rows shuffled, its parts named 5 and 2, and the
    prior 2^i/255 on row i, so the parts' priors differ."""
    base = make_parity(3)
    order = np.random.default_rng(0).permutation(base.size)
    return LearningProblem(
        domain_size=3,
        group=base.group,
        functions=[base.functions[i] for i in order],
        labels=[(5, 2)[base.labels[i]] for i in order],
        prior=[Fraction(2**i, 255) for i in range(base.size)],
        name="parity-3-relabelled",
    )


# (problem, queries): non-contiguous labels on shuffled rows, and five parts
PART_TABLE_CASES = [(_relabelled_parity_3, 2), (lambda: make_shamir(5, 1), 1)]


def _dense_trial(problem, queries, seed, empty_element=False):
    """(algorithm, dense rho0, dense POVM) with a mixed initial state and a
    projective POVM of d - 1 elements, one of rank 2, optionally with an
    extra zero element."""
    dim = problem.domain_size * problem.group.order
    rho0 = _initial_states(dim, seed)[1]
    povm = [_product(b) for b in povm_blocks(random_povm(dim, dim - 1, seed + 1))]
    if empty_element:
        povm.insert(2, np.zeros((dim, dim)))
    unitaries = tuple(random_unitary(dim, seed + 2 + i) for i in range(queries))
    alg = _dense_algorithm(problem.domain_size, problem.group, 1, rho0, unitaries, povm)
    return alg, rho0, povm


@pytest.mark.parametrize("make, queries", PART_TABLE_CASES)
def test_joint_distribution_matches_dense_reference(make, queries):
    problem = make()
    alg, rho0, povm = _dense_trial(problem, queries, seed=3)
    table = joint_distribution(alg, problem)
    assert table.shape == (len(problem.part_labels()), len(povm))
    assert np.abs(table - dense_part_table(alg, problem, rho0, povm)).max() < 1e-12


def test_outcome_posteriors_empty_element_is_nan_with_probability_zero():
    problem = _relabelled_parity_3()
    alg, _, _ = _dense_trial(problem, 1, seed=5, empty_element=True)
    assert alg.povm[0][2] == 0
    probs, posteriors = outcome_posteriors(alg, problem)
    assert probs[2] == 0.0
    assert np.isnan(posteriors[:, 2]).all()
    assert not np.isnan(np.delete(posteriors, 2, axis=1)).any()


@pytest.mark.parametrize("make, queries", PART_TABLE_CASES)
def test_falsifier_witness_matches_dense_reference(make, queries):
    problem = make()
    # seeds where a dense trial holds the maximum, so an empty element's NaN
    # column that hid the rest of its trial would change the verdict
    trials = [_dense_trial(problem, queries, seed, empty_element=True) for seed in (11, 12)]
    for s in trial_seeds(7, 1):
        alg = random_algorithm(problem.domain_size, problem.group, 1, queries, s)
        trials.append((alg, _density(alg.state), [_product(b) for b in povm_blocks(alg.povm)]))
    report = quantum_useless_falsify(
        problem, queries, trials=1, seed=7, extra_algorithms=[alg for alg, _, _ in trials[:2]]
    )
    parts = problem.part_labels()
    prior = [float(w) for w in problem.part_prior().values()]
    deviation = {}  # (trial, outcome, part) -> |posterior - prior| of the dense reference
    for trial, (alg, rho0, povm) in enumerate(trials):
        table = dense_part_table(alg, problem, rho0, povm)
        for s, p_s in enumerate(table.sum(axis=0)):
            if p_s > EPS_COND:
                for r, j in enumerate(parts):
                    deviation[trial, s, j] = abs(table[r, s] / p_s - prior[r])
    reference_max = max(deviation.values())
    witness = report.witness
    assert report.trials == 3
    assert abs(report.max_deviation - reference_max) < 1e-12
    assert abs(witness["posterior"] - witness["prior"]) == report.max_deviation
    cell = (witness["trial"], witness["outcome"], witness["part"])
    assert abs(deviation[cell] - reference_max) < 1e-12
    assert witness["trial"] in (0, 1)


def test_success_probability_guess_majority():
    problem = make_image_parity()
    dim = 9
    alg = QuantumAlgorithm(
        3,
        cyclic(3),
        1,
        random_pure_state(dim, 1),
        (),
        ((dim,), np.eye(dim, dtype=complex)),
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
    with pytest.raises(ValueError, match="trace"):  # rho0 trace wrong
        QuantumAlgorithm(1, cyclic(2), 1, (np.ones(2), np.eye(2)), (), ((2,), np.eye(2, dtype=complex)))
    with pytest.raises(ValueError):  # non-unitary evolution
        QuantumAlgorithm(
            1,
            cyclic(2),
            1,
            random_pure_state(2, 0),
            (np.array([[1, 1], [0, 1]], dtype=complex),),
            ((2,), np.eye(2, dtype=complex)),
        )
    with pytest.raises(ValueError, match="identity"):  # POVM incomplete
        QuantumAlgorithm(1, cyclic(2), 1, random_pure_state(2, 0), (), ((1,), np.array([[1.0], [0.0]])))
    with pytest.raises(ValueError):  # label on a missing outcome
        QuantumAlgorithm(
            1,
            cyclic(2),
            1,
            random_pure_state(2, 0),
            (),
            ((2,), np.eye(2, dtype=complex)),
            outcome_labels={1: 0},
        )


def test_random_algorithm_deterministic_and_labeled():
    a = random_algorithm(2, cyclic(2), 1, 1, seed=42, labels_cycle=(0, 1))
    b = random_algorithm(2, cyclic(2), 1, 1, seed=42, labels_cycle=(0, 1))
    assert all(np.array_equal(v, w) for v, w in zip(a.state, b.state))
    assert all(np.array_equal(u, v) for u, v in zip(a.unitaries, b.unitaries))
    assert a.outcome_labels == {0: 0, 1: 1, 2: 0, 3: 1}
    assert a.n_outcomes == a.dim


def test_trial_seeds_deterministic():
    assert trial_seeds(7, 5) == trial_seeds(7, 5)
    assert trial_seeds(7, 5) != trial_seeds(8, 5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 60), st.integers(0, 60))
def test_trial_seeds_of_fewer_trials_are_a_prefix(seed, m, n):
    # reproduce draws a shared input once and reads prefixes of it
    m, n = sorted((m, n))
    assert trial_seeds(seed, m) == trial_seeds(seed, n)[:m]


def test_algorithm_json_round_trip():
    alg = random_algorithm(2, cyclic(2), 1, 1, seed=3, labels_cycle=(0, 1))
    again = algorithm_from_json(algorithm_to_json(alg))
    # written as given
    assert all(np.array_equal(u, v) for u, v in zip(alg.unitaries, again.unitaries))
    assert alg.outcome_labels == again.outcome_labels
    assert (alg.x_dim, alg.group, alg.z_dim) == (again.x_dim, again.group, again.z_dim)
    # refactored on read: equal as matrices, with the rank cutoff keeping
    # one column per rank-1 element and one vector for the pure state
    assert len(again.state[0]) == 1
    assert again.povm[0] == (1,) * alg.dim
    assert np.abs(_density(again.state) - _density(alg.state)).max() < 1e-12
    for b, c in zip(povm_blocks(alg.povm), povm_blocks(again.povm)):
        assert np.abs(_product(b) - _product(c)).max() < 1e-12
    tables = list(product(range(2), repeat=2))
    probs, again_probs = run(alg, tables).outcome_probs, run(again, tables).outcome_probs
    assert np.abs(probs - again_probs).max() < 1e-12


# ---------------------------------------------------------------------------
# batches of algorithms


def _arrays(alg):
    return [*alg.state, *alg.unitaries, *povm_blocks(alg.povm)]


def _batch(algs):
    """One batch of algorithms of one shape, built from their stacked arrays."""
    first = algs[0]
    return QuantumAlgorithm(
        first.x_dim,
        first.group,
        first.z_dim,
        tuple(np.stack(arrays) for arrays in zip(*(alg.state for alg in algs))),
        np.stack([alg.unitaries for alg in algs]),
        (first.povm[0], np.stack([alg.povm[1] for alg in algs])),
        first.outcome_labels,
    )


# (x_dim, group order, z_dim) for d = 4, 6, 8, 9, 32, 36, 96 and 108
DRAW_SHAPES = [(2, 2, 1), (3, 2, 1), (4, 2, 1), (3, 3, 1), (4, 2, 4), (3, 3, 4), (4, 2, 12), (3, 3, 12)]


@pytest.mark.parametrize("queries", [0, 1, 2, 3])
@pytest.mark.parametrize("x_dim, order, z_dim", DRAW_SHAPES)
def test_random_algorithms_equal_the_one_seed_draws_bit_for_bit(x_dim, order, z_dim, queries):
    seeds = trial_seeds(x_dim * order * z_dim + queries, 5)
    algs = random_algorithm(x_dim, cyclic(order), z_dim, queries, seeds, labels_cycle=(0, 1))
    assert algs.batch_shape == (5,) and len(list(algs)) == 5
    for seed, alg in zip(seeds, algs):
        alone = random_algorithm(x_dim, cyclic(order), z_dim, queries, seed, labels_cycle=(0, 1))
        assert alone.batch_shape == alg.batch_shape == ()
        reference = one_seed_draw(alg.dim, queries, seed)
        for arrays in (_arrays(alone), reference):
            assert len(arrays) == len(_arrays(alg))
            for a, b in zip(_arrays(alg), arrays):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert alone.povm[0] == alg.povm[0] and alone.povm[1].tobytes() == alg.povm[1].tobytes()
        assert alg.outcome_labels == alone.outcome_labels == {s: s % 2 for s in range(alg.dim)}


@pytest.mark.parametrize("shape", [(), (3,), (3, 2)])
@pytest.mark.parametrize("dim", [1, 4, 9])
def test_seeded_draws_equal_the_per_seed_draws_bit_for_bit(dim, shape):
    seeds = np.array(trial_seeds(dim, math.prod(shape)), dtype=object).reshape(shape)
    unitaries = random_unitary(dim, seeds.tolist())
    weights, vectors = random_pure_state(dim, seeds.tolist())
    assert unitaries.shape == shape + (dim, dim) and vectors.shape == shape + (dim, 1)
    assert weights.tobytes() == np.ones(shape + (1,)).tobytes()
    for index, seed in np.ndenumerate(seeds):
        assert unitaries[index].tobytes() == one_seed_unitary(dim, seed).tobytes()
        assert vectors[index][:, 0].tobytes() == one_seed_state(dim, seed).tobytes()


@st.composite
def _stacks(draw):
    """Algorithms of one shape with mixed initial states of a shared rank
    and a POVM of unequal element ranks, with their dense initial states
    and POVM elements."""
    group = FiniteAbelianGroup(draw(st.sampled_from([(2,), (3,), (2, 2)])))
    x_dim, z_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    dim = x_dim * group.order * z_dim
    queries, rank = draw(st.integers(0, 2)), draw(st.integers(1, min(dim, 3)))
    n_outcomes = draw(st.integers(1, dim))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
    spectrum = np.arange(1, rank + 1) / (rank * (rank + 1) / 2)
    stack = []
    for seed in seeds:
        basis = random_unitary(dim, seed)
        povm = random_povm(dim, n_outcomes, seed + 1)
        unitaries = tuple(random_unitary(dim, seed + 2 + i) for i in range(queries))
        state = (spectrum, basis[:, :rank])
        alg = QuantumAlgorithm(x_dim, group, z_dim, state, unitaries, povm)
        stack.append((alg, _density(state), [_product(b) for b in povm_blocks(povm)]))
    tables = list(product(range(group.order), repeat=x_dim))
    return stack, draw(st.lists(st.sampled_from(tables), min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_stacked_run_matches_the_dense_reference_on_every_algorithm(stack_and_tables):
    stack, tables = stack_and_tables
    algs = [alg for alg, _, _ in stack]
    batch = _batch(algs)
    res = run(batch, tables)
    n_outcomes, dim = batch.n_outcomes, batch.dim
    assert res.outcome_probs.shape == (len(algs), len(tables), n_outcomes)
    assert res.final_states.shape == (len(algs), len(tables), dim, dim)
    for a, (alg, rho0, povm) in enumerate(stack):
        alone = run(alg, tables)
        assert alone.outcome_probs.tobytes() == res.outcome_probs[a].tobytes()
        assert run(batch[a], tables).outcome_probs.tobytes() == alone.outcome_probs.tobytes()
        for t, f in enumerate(tables):
            rho, probs = dense_run(alg, f, rho0, povm)
            assert np.abs(res.outcome_probs[a, t] - probs).max() < 1e-12
            assert np.abs(res.final_states[a, t] - rho).max() < 1e-12


def test_stacked_tables_equal_one_algorithm_at_a_time_bit_for_bit():
    for problem in (make_parity(4), make_image_parity(), make_shamir(5, 1)):
        for queries in (1, 2):
            args = (problem.domain_size, problem.group, 2, queries)
            algs = random_algorithm(*args, trial_seeds(queries, 6), labels_cycle=(0, 1))
            table = joint_distribution(algs, problem)
            probs, posteriors = outcome_posteriors(algs, problem)
            success = success_probability(algs, problem)
            assert table.shape == (len(algs), len(problem.part_labels()), algs.n_outcomes)
            assert probs.shape == (len(algs), algs.n_outcomes)
            assert posteriors.shape == table.shape and success.shape == (len(algs),)
            for a, alg in enumerate(algs):
                alone_probs, alone_posteriors = outcome_posteriors(alg, problem)
                assert joint_distribution(alg, problem).tobytes() == table[a].tobytes()
                assert alone_probs.tobytes() == probs[a].tobytes()
                assert alone_posteriors.tobytes() == posteriors[a].tobytes()
                assert success_probability(alg, problem) == success[a]


def test_a_batch_shares_one_shape_along_its_leading_axis():
    parity2 = make_parity(2)
    pure = random_algorithm(2, parity2.group, 1, 1, 0)
    batch = random_algorithm(2, parity2.group, 1, 1, [0, 1])
    assert (len(batch), batch.dim, batch.query_count, batch.n_outcomes) == (2, 4, 1, 4)
    assert joint_distribution(batch, parity2).shape == (2, 2, 4)
    assert joint_distribution(batch[None:1], parity2).shape == (1, 2, 4)
    assert joint_distribution(pure[None], parity2).shape == (1, 2, 4)
    weights, vectors = batch.state
    with pytest.raises(ValueError, match=r"do not share the batch shape \(2,\)"):
        QuantumAlgorithm(2, parity2.group, 1, batch.state, pure.unitaries, batch.povm)
    with pytest.raises(ValueError, match="do not share the batch shape"):
        QuantumAlgorithm(2, parity2.group, 1, (weights, vectors[0]), batch.unitaries, batch.povm)
    with pytest.raises(ValueError, match="do not share the batch shape"):  # POVM ranks 1 x 4 against 2 x 2
        QuantumAlgorithm(2, parity2.group, 1, batch.state, batch.unitaries, deutsch()[None].povm)
    with pytest.raises(ValueError, match="A >= 1"):
        QuantumAlgorithm(2, parity2.group, 1, (weights[:0], vectors[:0]), (), ())
    with pytest.raises(ValueError, match="A >= 1"):
        QuantumAlgorithm(2, parity2.group, 1, (weights[None], vectors[None]), (), ())
    with pytest.raises(TypeError, match="no batch axis"):
        len(pure)
    with pytest.raises(TypeError, match="no batch axis"):
        list(pure)
    with pytest.raises(IndexError):
        pure[0]
    for index in (slice(2, None), None):  # an empty batch; a second batch axis
        with pytest.raises(IndexError, match="not \\(\\) or \\(A,\\)"):
            batch[index]


def test_a_batch_names_its_first_invalid_algorithm():
    algs = random_algorithm(2, cyclic(2), 1, 2, [3, 4, 5, 6])
    weights, vectors = algs.state
    unitaries = algs.unitaries.copy()
    unitaries[2, 1, 0, 0] += 1e-3
    bad_state = (weights.copy(), vectors)
    bad_state[0][3] = 2.0
    with pytest.raises(ValueError) as alone:
        QuantumAlgorithm(2, cyclic(2), 1, algs[2].state, unitaries[2], algs[2].povm)
    assert str(alone.value).startswith("not unitary: max|U^H U - I| = ")
    with pytest.raises(ValueError) as batched:
        QuantumAlgorithm(2, cyclic(2), 1, bad_state, unitaries, algs.povm)
    assert str(batched.value) == f"algorithm 2: {alone.value}"
    with pytest.raises(ValueError, match=r"^algorithm 3: trace 2\.0 differs from 1"):
        QuantumAlgorithm(2, cyclic(2), 1, bad_state, algs.unitaries, algs.povm)
    ranks, factor = algs.povm[0], algs.povm[1].copy()
    factor[1, :, :ranks[0]] *= 2
    with pytest.raises(ValueError, match=r"^algorithm 1: POVM does not sum to identity"):
        QuantumAlgorithm(2, cyclic(2), 1, algs.state, algs.unitaries, (ranks, factor))


def test_indexing_a_batch_gives_views_without_copying_or_validating(monkeypatch):
    algs = random_algorithm(3, cyclic(2), 2, 2, trial_seeds(4, 5), labels_cycle=(0, 1))

    def no_validation(self):
        raise AssertionError("indexing validated again")

    def fields(alg):
        return [*alg.state, alg.unitaries, alg.povm[1], *povm_blocks(alg.povm)]

    monkeypatch.setattr(QuantumAlgorithm, "__post_init__", no_validation)
    for index, shape in ((1, ()), (-1, ()), (slice(1, 4), (3,)), (np.int64(2), ())):
        view = algs[index]
        assert view.batch_shape == shape and view.outcome_labels is algs.outcome_labels
        assert view.povm[0] is algs.povm[0]
        for a, b in zip(fields(view), fields(algs)):
            assert np.shares_memory(a, b) and a.tobytes() == b[index].tobytes()
    one = algs[2]
    assert one[None].batch_shape == (1,)
    assert all(np.shares_memory(a, b) for a, b in zip(fields(one[None]), fields(algs)))
    assert joint_distribution(one[None], make_parity(3))[0].tobytes() == joint_distribution(
        algs, make_parity(3)
    )[2].tobytes()


def test_validate_povm_reads_the_stacked_factor_once(monkeypatch):
    read = []
    as_complex_matrix = algebra.as_complex_matrix

    def counted(data):
        read.append(np.shape(data))
        return as_complex_matrix(data)

    monkeypatch.setattr(algebra, "as_complex_matrix", counted)
    ranks, factor = random_povm(8, 8, 3)
    assert algebra.validate_povm(ranks, factor) == (ranks, factor)
    assert read == [(8, 8)]
    with pytest.raises(ValueError, match=r"POVM ranks \(1, 1\) sum to 2, but B has 8 columns"):
        algebra.validate_povm((1, 1), factor)
    with pytest.raises(ValueError, match="expected a 2-d matrix"):
        algebra.validate_povm((1,), factor[:, 0])
