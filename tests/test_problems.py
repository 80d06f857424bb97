import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np
import pytest

from oraclelab import problems
from oraclelab.algebra import cyclic
from oraclelab.errors import CapacityError
from oraclelab.problems import (
    LearningProblem,
    event_indices,
    is_prime,
    make_image_parity,
    make_parity,
    make_shamir,
    posterior_classical,
    problem_from_json,
    problem_to_json,
    shamir_reconstruct,
)
from oraclelab.useless import classical_useless

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
    # N * 2^N cells: 17 * 2^17 fit MAX_CLASS_CELLS = 2^22, 18 * 2^18 do not
    assert 17 << 17 <= problems.MAX_CLASS_CELLS < 18 << 18
    assert problems.LARGEST_PARITY_N == 17
    assert make_parity(17).size == 2**17
    with pytest.raises(CapacityError, match="needs 1 <= N <= 17, as N . 2.N table cells must fit"):
        make_parity(18)
    with pytest.raises(CapacityError):
        make_parity(19)
    with pytest.raises(CapacityError):
        make_parity(10**9)  # refused before 2^N is formed
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
        expected = [poly_eval_mod(coeffs, x, 5) for x in range(1, 5)]
        assert p52.functions[index].tolist() == expected
        assert p52.labels[index] == coeffs[0]
    # the worked example f = (2, 1, 3): f(1) = 1
    assert poly_eval_mod((2, 1, 3), 1, 5) == 1
    rows = p52.functions.tolist()
    idx = rows.index([poly_eval_mod((2, 1, 3), x, 5) for x in range(1, 5)])
    assert p52.functions[idx, 0] == 1


def test_generators_keep_product_row_order():
    # witnesses and problem JSON depend on the row order of itertools.product
    for problem, base in ((make_parity(5), 2), (make_image_parity(), 3)):
        rows = list(product(range(base), repeat=problem.domain_size))
        assert problem.functions.tolist() == [list(f) for f in rows]
    assert make_parity(5).labels.tolist() == [sum(f) % 2 for f in product(range(2), repeat=5)]


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
    # shamir-5-2 holds 5^3 tables of 4 cells
    monkeypatch.setattr(problems, "MAX_CLASS_CELLS", 5**3 * 4)
    assert make_shamir(5, 2).size == 5**3
    monkeypatch.setattr(problems, "MAX_CLASS_CELLS", 5**3 * 4 - 1)
    with pytest.raises(CapacityError, match="MAX_CLASS_CELLS"):
        make_shamir(5, 2)


def test_class_cells_ceiling_boundary(monkeypatch):
    # the constructor, and so problem_from_json, checks |C| * |X| before
    # it builds the table
    data = problem_to_json(make_parity(3))
    monkeypatch.setattr(problems, "MAX_CLASS_CELLS", 8 * 3)
    assert problem_from_json(data).size == 8
    monkeypatch.setattr(problems, "MAX_CLASS_CELLS", 8 * 3 - 1)
    with pytest.raises(CapacityError, match="MAX_CLASS_CELLS"):
        problem_from_json(data)


def test_problem_file_over_the_ceiling_is_refused_before_its_cells_are_read(monkeypatch):
    # a file one cell over the ceiling is refused for its size, even when a
    # cell is malformed: no cell is converted before the ceiling is checked
    data = problem_to_json(make_parity(3))
    data["functions"][-1][-1] = 2.5
    monkeypatch.setattr(problems, "MAX_CLASS_CELLS", 8 * 3 - 1)
    with pytest.raises(CapacityError, match="MAX_CLASS_CELLS"):
        problem_from_json(data)
    monkeypatch.setattr(problems, "MAX_CLASS_CELLS", 8 * 3)
    with pytest.raises(ValueError, match="2.5"):
        problem_from_json(data)


def test_class_cells_ceiling_fits_the_exact_check():
    # at any k >= 1 the cheapest exact check reads |C| * |X| cells
    from oraclelab.useless import MAX_TABLE_CELLS

    assert problems.MAX_CLASS_CELLS <= MAX_TABLE_CELLS


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


@pytest.mark.parametrize(
    "transcript, message",
    [
        ([(0, 0), (3, 0)], r"query point 3 outside \[0, 3\)"),
        ([(-1, 0)], r"query point -1 outside \[0, 3\)"),
        ([(0, 0), (1, 2)], r"response 2 outside \[0, 2\)"),
    ],
)
def test_event_indices_rejects_pairs_off_the_table(transcript, message):
    with pytest.raises(ValueError, match=message):
        event_indices(make_parity(3), transcript)


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
    half = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="duplicate"):
        LearningProblem(1, cyclic(2), ((0,), (0,)), (0, 1), half)
    with pytest.raises(ValueError, match="prior sums to 5/6"):
        LearningProblem(1, cyclic(2), ((0,), (1,)), (0, 1), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match=r"function table \(2,\) has values outside \[0, 2\)"):
        LearningProblem(1, cyclic(2), ((2,),), (0,), (Fraction(1),))
    # the bad row is named, whether the rows are ragged or all too short
    with pytest.raises(ValueError, match=r"function table \(1,\) does not cover the domain"):
        LearningProblem(2, cyclic(2), ((0, 1), (1,)), (0, 1), half)
    with pytest.raises(ValueError, match=r"function table \(0,\) does not cover the domain"):
        LearningProblem(2, cyclic(2), ((0,), (1,)), (0, 1), half)
    with pytest.raises(ValueError, match="must be integers"):
        LearningProblem(1, cyclic(2), ((0.5,), (1,)), (0, 1), half)


def test_class_table_is_one_read_only_array():
    problem = make_shamir(5, 2)
    assert problem.functions.shape == (125, 4) and problem.functions.dtype == np.uint8
    assert problem.labels.shape == (125,)
    with pytest.raises(ValueError):
        problem.functions[0, 0] = 1
    with pytest.raises(ValueError):
        problem.labels[0] = 1
    # the constructor copies, so the caller's array stays writable
    table = np.array([[0], [1]])
    LearningProblem(1, cyclic(2), table, [0, 1], (Fraction(1, 2),) * 2)
    table[0, 0] = 1


def test_prior_is_stored_once_in_each_form():
    prior = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    problem = LearningProblem(1, cyclic(3), ((0,), (1,), (2,)), (4, 4, 9), prior)
    assert problem.scale == 6 and problem.weights.tolist() == [1, 2, 3]
    assert problem.float_prior.tolist() == [float(w) for w in prior]
    assert problem.part_labels() == (4, 9)
    assert problem.part_prior() == {4: Fraction(1, 2), 9: Fraction(1, 2)}


def test_problem_json_round_trip():
    for problem in (make_parity(3), make_image_parity(), make_shamir(3, 1)):
        data = problem_to_json(problem)
        again = problem_from_json(data, name=problem.name)
        assert json.dumps(problem_to_json(again)) == json.dumps(data)
        values = [*chain.from_iterable(data["functions"]), *data["labels"]]
        assert {type(v) for v in values} == {int}


def test_huge_group_table_is_python_ints():
    # a group of order 10^30 has no fixed-width dtype: the table holds
    # Python ints, and every check runs on it
    big, half = 10**30 - 1, (Fraction(1, 2),) * 2
    problem = LearningProblem(2, cyclic(10**30), ((0, big), (big, 0)), (0, 1), half)
    assert problem.functions.dtype == object
    assert posterior_classical(problem, [(0, big)]) == {0: Fraction(0), 1: Fraction(1)}
    with pytest.raises(ValueError, match="duplicate"):
        LearningProblem(1, cyclic(10**30), ((big,), (big,)), (0, 1), half)


# a uint8, a uint64 and an object table, the last two holding entries at or above 2^63
@pytest.mark.parametrize("order, dtype", [(2, np.uint8), (2**64, np.uint64), (2**70, object)])
def test_duplicate_tables_are_found_by_their_rows(order, dtype):
    half = (Fraction(1, 2),) * 2
    tables = np.full((2, 2**16), order - 1, dtype=dtype)
    with pytest.raises(ValueError, match="^duplicate function tables in the class$"):
        LearningProblem(2**16, cyclic(order), tables, (0, 1), half)
    tables[1, -1] = 2**63 if order > 2 else 0  # the tables differ at the last point only
    problem = LearningProblem(2**16, cyclic(order), tables, (0, 1), half)
    assert problem.functions.dtype == dtype


def test_the_duplicate_check_over_2_16_points_takes_little_memory():
    # the peak RSS a two-table class over 2^16 points adds, in kilobytes as Linux reports it
    script = """
import resource
from fractions import Fraction
import numpy as np
from oraclelab.algebra import cyclic
from oraclelab.problems import LearningProblem
tables = np.zeros((2, 2**16), dtype=np.uint8)
tables[1, -1] = 1
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
LearningProblem(2**16, cyclic(2), tables, (0, 1), (Fraction(1, 2),) * 2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    path = [os.path.dirname(os.path.dirname(problems.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 16 * 1024


def test_posterior_sums_weights_past_int64_as_python_ints():
    # numpy reads the list [0, 2^63 + 1, 1] as float64, which would round the masses
    big = 2**63 + 1
    prior = (Fraction(0), Fraction(big, big + 1), Fraction(1, big + 1))
    problem = LearningProblem(1, cyclic(3), ((0,), (1,), (2,)), (0, 0, 1), prior)
    assert posterior_classical(problem, []) == {0: prior[1], 1: prior[2]}


def test_reported_entries_are_python_ints():
    # json.dumps refuses numpy scalars, so nothing read off the table may leak one
    big = 10**30 - 1
    huge = LearningProblem(1, cyclic(10**30), ((0,), (big,)), (0, 1), (Fraction(1, 2),) * 2)
    for problem, k in ((make_parity(4), 4), (make_shamir(5, 2), 3), (huge, 1)):
        witness = classical_useless(problem, k).witness
        entries = [*chain.from_iterable(witness["transcript"]), witness["part"]]
        assert {type(v) for v in entries} == {int}
        indices = event_indices(problem, witness["transcript"])
        assert indices and {type(i) for i in indices} == {int}
        assert {type(j) for j in problem.part_labels()} == {int}



@pytest.mark.parametrize(
    "functions, labels", [(((0,), (2**63 + 1,)), (0, 1)), (((0,), (1,)), (0, 2**63 + 1))]
)
def test_ints_past_int64_beside_small_ones_are_integers(functions, labels):
    # numpy reads the list [0, 2^63 + 1] as float64, which is no integer dtype
    problem = LearningProblem(1, cyclic(2**64), functions, labels, (Fraction(1, 2),) * 2)
    assert problem.functions.tolist() == [list(f) for f in functions]
    assert problem.labels.tolist() == list(labels)
    assert problem.part_labels() == labels
    report = classical_useless(problem, 1)
    assert report.witness["transcript"] == [[0, 0]] and report.witness["part"] == 0
    # a real non-integer beside them is still refused
    with pytest.raises(ValueError, match="must be integers"):
        LearningProblem(1, cyclic(2**64), ((2.5,), (2**63,)), (0, 1), (Fraction(1, 2),) * 2)
    with pytest.raises(ValueError, match="must be integers"):
        LearningProblem(1, cyclic(2**64), ((0,), (1,)), (2.5, 2**63), (Fraction(1, 2),) * 2)
    # and so are a fraction, None and a bool beside 2^65, each by name
    for bad in (1.5, None, True):
        named = f"must be integers: expected an integer, got {bad!r}"
        with pytest.raises(ValueError, match=named):
            LearningProblem(1, cyclic(2**66), ((bad,), (2**65,)), (0, 1), (Fraction(1, 2),) * 2)
        with pytest.raises(ValueError, match=named):
            LearningProblem(1, cyclic(2**66), ((0,), (1,)), (bad, 2**65), (Fraction(1, 2),) * 2)


def test_prior_accepts_what_fraction_accepts_and_refuses_negative_weights():
    tables, labels = ((0,), (1,), (2,)), (0, 1, 1)
    prior = (Fraction(1, 2), 0.25, "1/4")
    problem = LearningProblem(1, cyclic(3), tables, labels, prior)
    assert problem.prior == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert {type(w) for w in problem.prior} == {Fraction}
    assert problem.scale == 4 and problem.weights.tolist() == [2, 1, 1]
    negative = (Fraction(3, 4), Fraction(-1, 4), Fraction(1, 2))
    with pytest.raises(ValueError, match="must be non-negative"):
        LearningProblem(1, cyclic(3), tables, labels, negative)
    with pytest.raises(ValueError, match="must be non-negative"):
        LearningProblem(1, cyclic(3), tables, labels, (1, -1, 1))
