import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from oraclelab import problems
from oraclelab.errors import CapacityError
from oraclelab.problems import (
    LearningProblem,
    is_prime,
    make_image_parity,
    make_parity,
    make_shamir,
    posterior_classical,
    problem_from_json,
    problem_to_json,
    shamir_reconstruct,
)

from reference import (
    naive_posterior,
    poly_eval_mod,
    shamir_consistent_polys,
    trial_division_is_prime,
)


def test_make_parity_small():
    p = make_parity(1)
    assert p.size == 2
    assert p.part_prior() == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_make_parity_counts_and_prior():
    p = make_parity(4)
    assert p.size == 16
    assert p.part_prior()[0] == Fraction(1, 2)
    assert sum(p.prior) == 1


def test_make_parity_two_is_deutsch_problem():
    p = make_parity(2)
    assert p.domain_size == 2
    assert p.group.factors == (2,)
    assert sorted(p.part_labels()) == [0, 1]
    # one classical value leaves the sum posterior untouched
    assert posterior_classical(p, [(0, 0)]) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_make_parity_capacity():
    with pytest.raises(CapacityError):
        make_parity(12)
    with pytest.raises(CapacityError):
        make_parity(13)
    with pytest.raises(CapacityError):
        make_parity(0)


def test_image_parity_composition():
    p = make_image_parity()
    assert p.size == 27
    sizes = [len(set(f)) for f in p.functions]
    assert sizes.count(1) == 3
    assert sizes.count(2) == 18
    assert sizes.count(3) == 6
    assert p.part_prior()[0] == Fraction(2, 3)


def test_shamir_shapes():
    p31 = make_shamir(3, 1)
    assert p31.size == 9
    assert p31.part_prior() == {j: Fraction(1, 3) for j in range(3)}
    p52 = make_shamir(5, 2)
    assert p52.size == 125
    assert p52.domain_size == 4


def test_shamir_evaluation_matches_brute_force():
    p52 = make_shamir(5, 2)
    # tables are produced in lexicographic coefficient order
    for index, coeffs in enumerate(product(range(5), repeat=3)):
        expected = tuple(poly_eval_mod(coeffs, x, 5) for x in range(1, 5))
        assert p52.functions[index] == expected
        assert p52.labels[index] == coeffs[0]
    # the worked example f = (2, 1, 3): f(1) = 1
    assert poly_eval_mod((2, 1, 3), 1, 5) == 1
    idx = p52.functions.index(tuple(poly_eval_mod((2, 1, 3), x, 5) for x in range(1, 5)))
    assert p52.functions[idx][0] == 1


def test_shamir_preconditions():
    with pytest.raises(ValueError):
        make_shamir(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_shamir(3, 2)  # k + 1 >= p
    with pytest.raises(ValueError):
        make_shamir(5, 0)
    with pytest.raises(CapacityError):
        make_shamir(101, 3)


def test_shamir_class_ceiling_boundary(monkeypatch):
    monkeypatch.setattr(problems, "MAX_SHAMIR_CLASS", 5**3)
    assert make_shamir(5, 2).size == 5**3
    monkeypatch.setattr(problems, "MAX_SHAMIR_CLASS", 5**3 - 1)
    with pytest.raises(CapacityError):
        make_shamir(5, 2)


def test_shamir_ceiling_precedes_trial_division():
    # trial division of a 61-bit prime takes minutes, and p^(k+1) for a
    # 61-bit k would not fit in memory
    for k in (1, 2**60):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            make_shamir(2**61 - 1, k)
        assert time.perf_counter() - start < 0.1


def test_generators_validate():
    # labels cover the class and priors sum to 1 by construction
    for problem in (make_parity(3), make_image_parity(), make_shamir(3, 1)):
        assert len(problem.labels) == problem.size
        assert sum(problem.prior) == 1


def test_posterior_empty_transcript_is_prior():
    for problem in (make_parity(3), make_image_parity(), make_shamir(5, 1)):
        assert posterior_classical(problem, []) == problem.part_prior()


def test_posterior_inconsistent_transcript_is_undefined():
    p = make_parity(2)
    assert posterior_classical(p, [(0, 0), (0, 1)]) is None


def test_posterior_duplicate_consistent_queries_collapse():
    p = make_parity(3)
    once = posterior_classical(p, [(1, 0)])
    thrice = posterior_classical(p, [(1, 0), (1, 0), (1, 0)])
    assert once == thrice


def test_posterior_point_mass_on_full_information():
    # two points determine a line: external points 1, 2 are internal 0, 1
    p = make_shamir(3, 1)
    post = posterior_classical(p, [(0, 0), (1, 0)])
    assert post == {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)}


def test_posterior_matches_naive_filter_everywhere():
    problem = make_image_parity()
    for x1 in range(3):
        for y1 in range(3):
            for x2 in range(3):
                for y2 in range(3):
                    t = [(x1, y1), (x2, y2)]
                    assert posterior_classical(problem, t) == naive_posterior(problem, t)


def test_posterior_sums_to_one_when_defined():
    problem = make_shamir(3, 1)
    for t in product(product(range(2), range(3)), repeat=2):
        post = posterior_classical(problem, list(t))
        if post is not None:
            assert sum(post.values()) == 1


def test_shamir_queries_at_threshold_exact():
    # every consistent event with k distinct queries leaves the prior
    # untouched; every one with k+1 pins the secret (exhaustive scan)
    for p, k in ((3, 1), (3, 2), (5, 1), (5, 2)):
        if k + 1 >= p:
            continue
        problem = make_shamir(p, k)
        prior = problem.part_prior()
        for f in problem.functions:
            for xs in combinations(range(p - 1), k):
                transcript = [(x, f[x]) for x in xs]
                assert posterior_classical(problem, transcript) == prior
            for xs in combinations(range(p - 1), k + 1):
                transcript = [(x, f[x]) for x in xs]
                post = posterior_classical(problem, transcript)
                assert post is not None
                assert max(post.values()) == 1


def test_shamir_reconstruct_examples():
    assert shamir_reconstruct(5, 1, [(1, 3), (2, 4)]) == 2
    assert shamir_reconstruct(3, 0, [(1, 2)]) == 2
    shares = [(x, poly_eval_mod((2, 1, 3), x, 5)) for x in (1, 2, 3)]
    assert shamir_reconstruct(5, 2, shares) == 2


def test_shamir_reconstruct_matches_enumeration():
    for p, k in ((3, 1), (5, 1), (5, 2)):
        for coeffs in product(range(p), repeat=k + 1):
            for xs in combinations(range(1, p), k + 1):
                shares = [(x, poly_eval_mod(coeffs, x, p)) for x in xs]
                consistent = shamir_consistent_polys(p, k, shares)
                assert len(consistent) == 1
                assert consistent[0] == coeffs
                assert shamir_reconstruct(p, k, shares) == coeffs[0]


def test_shamir_reconstruct_rejects_bad_shares():
    with pytest.raises(ValueError):
        shamir_reconstruct(5, 1, [(1, 0)])  # wrong count
    with pytest.raises(ValueError):
        shamir_reconstruct(5, 1, [(1, 0), (1, 1)])  # duplicate x
    with pytest.raises(ValueError):
        shamir_reconstruct(5, 1, [(0, 0), (1, 1)])  # x outside the share range
    with pytest.raises(ValueError):
        shamir_reconstruct(6, 1, [(1, 0), (2, 1)])  # composite modulus


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n) != trial_division_is_prime(n)] == []


def test_is_prime_large_values_and_ceiling():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime(318665857834031151167461)  # psi_12, a strong pseudoprime to 2..37
    assert not is_prime(problems.PRIMALITY_CEILING - 1)
    with pytest.raises(CapacityError, match="PRIMALITY_CEILING"):
        is_prime(problems.PRIMALITY_CEILING)  # psi_13, a strong pseudoprime to 2..41


def test_shamir_reconstruct_over_a_large_prime_is_fast():
    start = time.perf_counter()
    assert shamir_reconstruct(10000000000000061, 1, [(1, 5), (2, 7)]) == 3
    assert time.perf_counter() - start < 0.1


def test_learning_problem_validation():
    from oraclelab.algebra import cyclic

    with pytest.raises(ValueError):  # duplicate tables
        LearningProblem(1, cyclic(2), ((0,), (0,)), (0, 1), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):  # prior does not sum to 1
        LearningProblem(1, cyclic(2), ((0,), (1,)), (0, 1), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):  # value outside the group
        LearningProblem(1, cyclic(2), ((2,),), (0,), (Fraction(1),))


def test_problem_json_round_trip():
    for problem in (make_parity(3), make_image_parity(), make_shamir(3, 1)):
        data = problem_to_json(problem)
        again = problem_from_json(data, name=problem.name)
        assert again == problem

