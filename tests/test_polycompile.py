import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab import polycompile
from oraclelab.algebra import cyclic, random_pure_state
from oraclelab.errors import CapacityError
from oraclelab.gallery import deutsch
from oraclelab.polycompile import (
    MAX_CUBE_VARS,
    CompiledClassicalAlgorithm,
    MultilinearPolynomial,
    acceptance_polynomial,
    classical_output_prob,
    compile_classical,
    compile_polynomial,
    compiled_to_json,
    corollary5_audit,
    interpolate_on_cube,
    to_fourier,
    walsh_hadamard,
)
from oraclelab.problems import LearningProblem, make_parity
from oraclelab.qsim import QuantumAlgorithm, random_algorithm, run, trial_seeds

from reference import (
    brute_eval_01,
    brute_interp_coeffs,
    compiled_from_json,
    from_fourier,
    naive_character_coeffs,
    naive_output_prob,
)


def _always_accept(n):
    """Zero-query algorithm accepting on its single outcome."""
    dim = 2 * n
    return QuantumAlgorithm(
        n, cyclic(2), 1, random_pure_state(dim, 0), (), ((dim,), np.eye(dim, dtype=complex))
    )


def _sample_pool(seed, count=20):
    pool = []
    for n in (2, 3):
        for s in trial_seeds(seed + n, count):
            pool.append((n, random_algorithm(n, cyclic(2), 1, 1, s)))
    return pool


def _accept_evens(alg):
    return [s for s in range(alg.n_outcomes) if s % 2 == 0]


def test_interpolation_matches_brute_force():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        values = rng.uniform(0, 1, size=1 << n)
        poly = interpolate_on_cube(values)
        expected = brute_interp_coeffs(values)
        assert np.allclose(poly.coeffs, expected, atol=1e-12)
        for mask in range(1 << n):
            point = [mask >> i & 1 for i in range(n)]
            assert brute_eval_01(poly.coeffs, point) == pytest.approx(values[mask], abs=1e-10)
        assert np.allclose(poly.values_on_cube(), values, atol=1e-10)


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_interpolation_round_trip_property(values):
    poly = interpolate_on_cube(values)
    for mask in range(4):
        point = [mask & 1, mask >> 1 & 1]
        assert abs(brute_eval_01(list(poly.coeffs), point) - values[mask]) < 1e-9


def test_walsh_hadamard_against_direct_sum():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        v = rng.uniform(-1, 1, size=1 << n)
        fast = walsh_hadamard(v)
        for s_mask in range(1 << n):
            direct = sum(
                (-1) ** bin(s_mask & f_mask).count("1") * v[f_mask]
                for f_mask in range(1 << n)
            )
            assert fast[s_mask] == pytest.approx(direct, abs=1e-12)


def test_acceptance_polynomial_always_accept():
    poly = acceptance_polynomial(_always_accept(2), [0])
    assert np.allclose(poly.coeffs, [1, 0, 0, 0], atol=1e-12)


def test_acceptance_polynomial_deutsch():
    poly = acceptance_polynomial(deutsch(), [0])
    assert np.allclose(poly.coeffs, [1, -1, -1, 2], atol=1e-10)


def test_acceptance_polynomial_requires_binary_group():
    alg = random_algorithm(2, cyclic(3), 1, 1, 0)
    with pytest.raises(ValueError):
        acceptance_polynomial(alg, [0])


def test_acceptance_polynomial_rejects_bad_outcomes():
    with pytest.raises(ValueError):
        acceptance_polynomial(deutsch(), [5])


def test_degree_bound_for_one_query_algorithms():
    for n, alg in _sample_pool(17):
        qhat = to_fourier(acceptance_polynomial(alg, _accept_evens(alg)))
        for mask in range(1 << n):
            if bin(mask).count("1") > 2:
                assert abs(qhat[mask]) < 1e-8


def test_acceptance_polynomial_refuses_a_broken_simulation(monkeypatch):
    def broken_run(alg, tables):  # permutes the outcomes of each algorithm's last table only
        result = run(alg, tables)
        probs = result.outcome_probs.copy()
        probs[..., -1, :] = np.roll(probs[..., -1, :], 1, axis=-1)
        return dataclasses.replace(result, outcome_probs=probs)

    monkeypatch.setattr(polycompile, "run", broken_run)
    message = r"coefficient 1.117e-01 on subset \[0, 1, 2\] violates the degree bound 2"
    with pytest.raises(ArithmeticError, match=message):
        acceptance_polynomial(random_algorithm(3, cyclic(2), 1, 1, 4), [0])


def test_to_fourier_examples():
    one = MultilinearPolynomial(2, np.array([1.0, 0, 0, 0]))
    assert np.allclose(to_fourier(one), [1, 0, 0, 0], atol=1e-12)
    half = MultilinearPolynomial(2, np.array([0.5, 0, 0, 0]))
    assert np.allclose(to_fourier(half), [0, 0, 0, 0], atol=1e-12)
    deutsch_poly = MultilinearPolynomial(2, np.array([1.0, -1.0, -1.0, 2.0]))
    assert np.allclose(to_fourier(deutsch_poly), [0, 0, 0, 1], atol=1e-12)


def test_to_fourier_matches_direct_character_sum():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        poly = interpolate_on_cube(rng.uniform(0, 1, size=1 << n))
        qhat = to_fourier(poly)
        q_values = 2 * poly.values_on_cube() - 1
        assert np.allclose(qhat, naive_character_coeffs(q_values), atol=1e-10)


def test_fourier_round_trip_and_parseval():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        poly = interpolate_on_cube(rng.uniform(0, 1, size=1 << n))
        qhat = to_fourier(poly)
        back = from_fourier(qhat)
        assert np.allclose(back, poly.coeffs, atol=1e-10)
        q_values = 2 * poly.values_on_cube() - 1
        assert np.sum(qhat**2) == pytest.approx(
            np.mean(q_values**2), abs=1e-9
        )


def test_compile_deutsch():
    compiled = compile_classical(deutsch(), [0])
    assert not compiled.degenerate
    assert compiled.scale == pytest.approx(1.0, abs=1e-10)
    assert len(compiled.terms) == 1
    mask, prob, sign = compiled.terms[0]
    assert (mask, sign) == (0b11, 1)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_compile_always_accept():
    compiled = compile_classical(_always_accept(2), [0])
    assert not compiled.degenerate
    assert compiled.scale == pytest.approx(1.0, abs=1e-10)
    assert compiled.terms == ((0, 1.0, 1),)
    assert compiled.max_queries == 0


def test_compile_degenerate_fair_coin():
    # half-half mixture of accept and reject has p identically 1/2
    dim = 4
    basis = np.eye(dim, dtype=complex)
    povm = ((2, 2), basis[:, [0, 2, 1, 3]])  # factors of diag(1,0,1,0), diag(0,1,0,1)
    maximally_mixed = (np.full(dim, 1 / dim), np.eye(dim, dtype=complex))
    alg = QuantumAlgorithm(2, cyclic(2), 1, maximally_mixed, (), povm)
    values = [run(alg, [[m >> i & 1 for i in range(2)]]).outcome_probs[0, 0] for m in range(4)]
    assert np.allclose(values, 0.5, atol=1e-12)
    compiled = compile_classical(alg, [0])
    assert compiled.degenerate
    assert compiled.scale == 0.0
    assert compiled.max_queries == 0
    for m in range(4):
        assert classical_output_prob(compiled, [m & 1, m >> 1]) == 0.5


def test_classical_output_prob_deutsch_inputs():
    compiled = compile_classical(deutsch(), [0])
    assert classical_output_prob(compiled, (0, 0)) == pytest.approx(1.0)
    assert classical_output_prob(compiled, (1, 1)) == pytest.approx(1.0)
    assert classical_output_prob(compiled, (0, 1)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        classical_output_prob(compiled, (0,))
    with pytest.raises(ValueError, match=r"table entries must be bits, got \[0, 2\]"):
        classical_output_prob(compiled, (0, 2))
    # the first fault is named: a non-bit before a non-integer, and the
    # reverse; the message shows the entries as given
    with pytest.raises(ValueError, match=r"table entries must be bits, got \[2, 0\.5\]"):
        classical_output_prob(compiled, [2, 0.5])
    with pytest.raises(ValueError, match="expected an integer, got 1.5"):
        classical_output_prob(compiled, (1.5, 2))


def test_bias_identity_across_pool():
    for n, alg in _sample_pool(29):
        accept = _accept_evens(alg)
        poly = acceptance_polynomial(alg, accept)
        compiled = compile_classical(alg, accept)
        values = poly.values_on_cube()
        assert compiled.max_queries <= 2
        if not compiled.degenerate:
            assert abs(sum(t[1] for t in compiled.terms) - 1) < 1e-10
        for mask in range(1 << n):
            bits = [mask >> i & 1 for i in range(n)]
            got = classical_output_prob(compiled, bits)
            if compiled.degenerate:
                assert got == 0.5
            else:
                expected = (values[mask] - 0.5) / compiled.scale + 0.5
                assert got == pytest.approx(expected, abs=1e-9)


def test_compiled_json_round_trip():
    compiled = compile_classical(deutsch(), [0])
    again = compiled_from_json(compiled_to_json(compiled))
    assert again == compiled


def test_compiled_validation():
    with pytest.raises(ValueError):  # probabilities not normalized
        CompiledClassicalAlgorithm(2, 1, 1.0, ((0, 0.5, 1),))
    with pytest.raises(ValueError):  # subset too large for the query budget
        CompiledClassicalAlgorithm(2, 0, 1.0, ((0b11, 1.0, 1),))
    with pytest.raises(ValueError):  # bad sign
        CompiledClassicalAlgorithm(2, 1, 1.0, ((0b1, 1.0, 2),))
    with pytest.raises(ValueError, match="subset mask 0b10 has a bit at or above n = 1"):
        CompiledClassicalAlgorithm(1, 1, 1.0, ((0b10, 1.0, 1),))
    with pytest.raises(ValueError, match="subset mask -0b1 has a bit at or above n = 2"):
        CompiledClassicalAlgorithm(2, 1, 1.0, ((-1, 1.0, 1),))


@pytest.mark.parametrize(
    "terms, value",
    [
        (((0, float("nan"), 1),), "nan"),  # escapes the sum check
        (((0, 1.5, 1), (0b1, -0.5, 1)), "-0.5"),  # sums to 1
        (((0, float("inf"), 1), (0b1, float("-inf"), 1)), "inf"),  # sums to NaN
    ],
)
def test_compiled_refuses_nan_infinite_and_negative_term_probabilities(terms, value):
    with pytest.raises(ValueError, match=f"term probability {value} of subset .* is not a finite"):
        CompiledClassicalAlgorithm(2, 1, 1.0, terms)


def test_degenerate_is_exactly_no_terms():
    fair_coin = compile_polynomial(MultilinearPolynomial(2, np.array([0.5, 0, 0, 0])), 1)
    samplers = [
        fair_coin,
        CompiledClassicalAlgorithm(3, 1, 0.0, ()),
        CompiledClassicalAlgorithm(2, 1, 1.0, ((0b01, 1.0, 1),)),
        compile_classical(deutsch(), [0]),
        *(compile_classical(alg, _accept_evens(alg)) for _, alg in _sample_pool(29, count=3)),
    ]
    assert fair_coin.terms == () and fair_coin.degenerate
    for compiled in samplers:
        assert compiled.degenerate == (not compiled.terms)
        data = compiled_to_json(compiled)
        assert data["degenerate"] is compiled.degenerate
        assert compiled_from_json(data) == compiled


def test_stacked_acceptance_polynomials_and_audits_equal_one_algorithm_at_a_time():
    for n in (2, 3, 6):
        algs = random_algorithm(n, cyclic(2), 1, 1, trial_seeds(n, 7))
        accept = _accept_evens(algs)
        polys = acceptance_polynomial(algs, accept)
        reports = corollary5_audit(make_parity(n), algs, accept)
        assert polys.n == n and polys.coeffs.shape == (len(algs), 1 << n)
        assert len(reports) == len(algs)
        for alg, coeffs, report in zip(algs, polys.coeffs, reports):
            assert coeffs.tobytes() == acceptance_polynomial(alg, accept).coeffs.tobytes()
            assert dataclasses.astuple(report) == dataclasses.astuple(
                corollary5_audit(make_parity(n), alg, accept)
            )


def _assert_matches_oracle(compiled):
    assert compiled.output_probs.shape == (1 << compiled.n,)
    assert not compiled.output_probs.flags.writeable
    for mask in range(1 << compiled.n):
        bits = [mask >> i & 1 for i in range(compiled.n)]
        want = naive_output_prob(compiled, bits)
        assert abs(compiled.output_probs[mask] - want) <= 1e-15
        assert abs(classical_output_prob(compiled, bits) - want) <= 1e-15


def test_output_probs_match_the_term_by_term_oracle_on_compiled_samplers():
    for _, alg in _sample_pool(29, count=10):
        _assert_matches_oracle(compile_classical(alg, _accept_evens(alg)))
    for n in range(4, 9):
        for q in (1, 2):
            alg = random_algorithm(n, cyclic(2), 1, q, n + 10 * q)
            _assert_matches_oracle(compile_classical(alg, _accept_evens(alg)))


@st.composite
def _hand_samplers(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << n) - 1),
                st.integers(min_value=1, max_value=100),
                st.sampled_from((-1, 1)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    total = sum(w for _, w, _ in raw)
    terms = tuple((mask, w / total, sign) for mask, w, sign in raw)
    return CompiledClassicalAlgorithm(n, n, 1.0, terms)


@given(_hand_samplers())
@settings(max_examples=100, deadline=None)
def test_output_probs_match_the_term_by_term_oracle_on_hand_samplers(compiled):
    _assert_matches_oracle(compiled)


def test_output_probs_of_repeated_and_degenerate_samplers():
    twice = CompiledClassicalAlgorithm(2, 1, 1.0, ((0b01, 0.5, 1), (0b01, 0.5, 1)))
    once = CompiledClassicalAlgorithm(2, 1, 1.0, ((0b01, 1.0, 1),))
    assert twice.output_probs.tolist() == once.output_probs.tolist() == [0.0, 1.0, 0.0, 1.0]
    _assert_matches_oracle(twice)
    cancelled = CompiledClassicalAlgorithm(2, 1, 1.0, ((0b11, 0.5, 1), (0b11, 0.5, -1)))
    assert cancelled.output_probs.tolist() == [0.5] * 4
    _assert_matches_oracle(cancelled)
    for n in (1, 3, 5):
        degenerate = CompiledClassicalAlgorithm(n, 1, 0.0, ())
        assert degenerate.output_probs.tolist() == [0.5] * (1 << n)
        _assert_matches_oracle(degenerate)


def test_output_probs_refuse_more_tables_than_the_cube_ceiling():
    wide = CompiledClassicalAlgorithm(40, 1, 1.0, ((0b1, 1.0, 1),))
    refusal = rf"sampler has 2\^40 tables, over the ceiling n <= {MAX_CUBE_VARS}"
    with pytest.raises(CapacityError, match=refusal):
        classical_output_prob(wide, [1] + [0] * 39)
    with pytest.raises(CapacityError, match=refusal):
        wide.output_probs
    at_ceiling = CompiledClassicalAlgorithm(MAX_CUBE_VARS, 1, 1.0, ((0b1, 1.0, 1),))
    assert classical_output_prob(at_ceiling, [1] + [0] * (MAX_CUBE_VARS - 1)) == 1.0


def test_corollary5_holds_for_parity4():
    problem = make_parity(4)
    for s in trial_seeds(31, 20):
        alg = random_algorithm(4, problem.group, 1, 1, s)
        report = corollary5_audit(problem, alg, _accept_evens(alg))
        assert report.defined
        assert report.classical_useless_2k is True
        assert report.rhs == pytest.approx(0.5, abs=0)
        assert report.deviation < 1e-8
        assert report.identity_holds


def test_corollary5_reports_violation_for_parity2_deutsch():
    report = corollary5_audit(make_parity(2), deutsch(), [0])
    assert report.classical_useless_2k is False
    assert not report.identity_holds
    assert report.lhs == pytest.approx(1.0, abs=1e-9)
    assert report.rhs == pytest.approx(0.5, abs=0)


def test_corollary5_constant_acceptance_collapses():
    alg = _always_accept(2)
    report = corollary5_audit(make_parity(2), alg, [0], check_classical=False)
    assert report.defined
    assert report.lhs == pytest.approx(report.rhs, abs=1e-12)


def test_corollary5_preconditions():
    from oraclelab.problems import make_image_parity, make_shamir

    with pytest.raises(ValueError):  # three or more parts
        corollary5_audit(make_shamir(3, 1), random_algorithm(2, cyclic(3), 1, 1, 0), [0])
    with pytest.raises(ValueError):  # non-Boolean response group
        corollary5_audit(make_image_parity(), random_algorithm(3, cyclic(3), 1, 1, 0), [0])
    with pytest.raises(ValueError, match="group"):  # algorithm and problem disagree
        corollary5_audit(make_parity(4), random_algorithm(4, cyclic(3), 1, 1, 5), [0])
    # Boolean problems with one part and with three parts
    one_part = LearningProblem(1, cyclic(2), ((0,), (1,)), (0, 0), (Fraction(1, 2),) * 2)
    tables = ((0, 0), (0, 1), (1, 0), (1, 1))
    three_parts = LearningProblem(2, cyclic(2), tables, (0, 1, 2, 2), (Fraction(1, 4),) * 4)
    for problem in (one_part, three_parts):
        with pytest.raises(ValueError, match="exactly two parts"):
            corollary5_audit(problem, deutsch(), [0])


def test_capacity_guard():
    at_ceiling = random_algorithm(MAX_CUBE_VARS, cyclic(2), 1, 1, 0)
    poly = acceptance_polynomial(at_ceiling, _accept_evens(at_ceiling))
    assert poly.n == MAX_CUBE_VARS
    n, dim = MAX_CUBE_VARS + 1, 2 * (MAX_CUBE_VARS + 1)
    alg = QuantumAlgorithm(
        n, cyclic(2), 1, random_pure_state(dim, 0), (), ((dim,), np.eye(dim, dtype=complex))
    )
    with pytest.raises(CapacityError):
        acceptance_polynomial(alg, [0])
