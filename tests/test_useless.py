import math
from dataclasses import asdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab import useless
from oraclelab.algebra import FiniteAbelianGroup, cyclic
from oraclelab.errors import CapacityError
from oraclelab.gallery import deutsch
from oraclelab.problems import (
    MAX_PARITY_N,
    LearningProblem,
    make_image_parity,
    make_parity,
    make_shamir,
    posterior_classical,
)
from oraclelab.qsim import random_algorithm, trial_seeds
from oraclelab.useless import (
    MAX_DIM,
    MAX_TABLE_CELLS,
    VERDICT_NOT_USELESS,
    VERDICT_USELESS,
    classical_useless,
    lemma_check,
    max_useless_k,
    quantum_lower_bound,
    quantum_useless_falsify,
)

from reference import naive_classical_useless


def test_classical_useless_parity_examples():
    assert classical_useless(make_parity(4), 3).verdict == VERDICT_USELESS
    report = classical_useless(make_parity(4), 4)
    assert report.verdict == VERDICT_NOT_USELESS
    assert report.witness is not None
    # the first violating transcript queries all four points
    xs = [x for x, _ in report.witness["transcript"]]
    assert sorted(xs) == [0, 1, 2, 3]


def test_classical_useless_image_parity():
    assert classical_useless(make_image_parity(), 2).verdict == VERDICT_USELESS
    assert classical_useless(make_image_parity(), 3).verdict == VERDICT_NOT_USELESS


def test_classical_useless_k_zero_is_trivially_useless():
    assert classical_useless(make_parity(2), 0).verdict == VERDICT_USELESS


def test_classical_witness_reproduces_violation():
    report = classical_useless(make_parity(3), 3)
    assert report.verdict == VERDICT_NOT_USELESS
    problem = make_parity(3)
    transcript = [tuple(pair) for pair in report.witness["transcript"]]
    posterior = posterior_classical(problem, transcript)
    j = report.witness["part"]
    num, den = report.witness["posterior"]
    assert posterior[j] == Fraction(num, den)
    assert posterior[j] != problem.part_prior()[j]


@pytest.mark.parametrize(
    "problem,k",
    [
        (make_parity(2), 2),
        (make_parity(3), 3),
        (make_parity(4), 3),
        (make_image_parity(), 2),
        (make_shamir(3, 1), 2),
    ],
)
def test_classical_useless_matches_naive_enumeration(problem, k):
    # same verdict as the literal all-transcripts scan, for every k' <= k
    for kk in range(k + 1):
        expected_useless, _ = naive_classical_useless(problem, kk)
        verdict = classical_useless(problem, kk).verdict
        assert (verdict == VERDICT_USELESS) == expected_useless


def test_classical_useless_monotone():
    for problem in (make_parity(4), make_image_parity(), make_shamir(3, 1)):
        verdicts = [
            classical_useless(problem, k).verdict == VERDICT_USELESS
            for k in range(problem.domain_size + 1)
        ]
        # once a violation appears it never goes away
        assert verdicts == sorted(verdicts, reverse=True)


@st.composite
def small_problems(draw):
    group = FiniteAbelianGroup(draw(st.sampled_from([(2,), (3,), (2, 2)])))
    n = draw(st.integers(1, 3 if group.order <= 3 else 2))
    tables = list(product(range(group.order), repeat=n))
    if draw(st.booleans()):
        # the full class labeled by the table's value sum, weighted per part:
        # often useless below |X| queries
        labels = [sum(f) % group.order for f in tables]
        part_weight = draw(st.lists(st.integers(0, 3), min_size=group.order, max_size=group.order))
        raw = [part_weight[j] for j in labels]
    else:
        tables = draw(st.lists(st.sampled_from(tables), min_size=1, max_size=8, unique=True))
        labels = draw(st.lists(st.integers(0, 2), min_size=len(tables), max_size=len(tables)))
        raw = draw(st.lists(st.integers(0, 3), min_size=len(tables), max_size=len(tables)))
    if sum(raw) == 0:
        raw[0] = 1
    return LearningProblem(
        domain_size=n,
        group=group,
        functions=tuple(tables),
        labels=tuple(labels),
        prior=tuple(Fraction(w, sum(raw)) for w in raw),
        name="random",
    )


@settings(max_examples=40, deadline=None)
@given(small_problems())
def test_classical_useless_matches_naive_on_random_problems(problem):
    prior = problem.part_prior()
    for k in range(problem.domain_size + 2):
        expected_useless, _ = naive_classical_useless(problem, k)
        report = classical_useless(problem, k)
        assert (report.verdict == VERDICT_USELESS) == expected_useless
        if report.witness is not None:
            transcript = [tuple(pair) for pair in report.witness["transcript"]]
            assert len(transcript) == k
            j = report.witness["part"]
            assert posterior_classical(problem, transcript)[j] != prior[j]


def test_classical_useless_budget(monkeypatch):
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", 1000)
    with pytest.raises(CapacityError, match="MAX_TABLE_CELLS=1000"):
        classical_useless(make_parity(8), 6)


def test_classical_useless_ceiling_is_cells_read(monkeypatch):
    problem = make_parity(5)
    cost = 3 * math.comb(5, 3) * problem.size  # k' * C(|X|, k') * |C|
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", cost)
    assert classical_useless(problem, 3).verdict == VERDICT_USELESS
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", cost - 1)
    with pytest.raises(CapacityError):
        classical_useless(problem, 3)


def test_classical_witness_beyond_domain_is_padded():
    problem = make_parity(3)
    report = classical_useless(problem, 5)
    assert report.verdict == VERDICT_NOT_USELESS
    transcript = [tuple(pair) for pair in report.witness["transcript"]]
    assert len(transcript) == 5
    assert sorted({x for x, _ in transcript}) == [0, 1, 2]
    j = report.witness["part"]
    posterior = posterior_classical(problem, transcript)
    assert posterior[j] == Fraction(*report.witness["posterior"])
    assert posterior[j] != problem.part_prior()[j]


def test_max_useless_k_parity_8_under_default_ceiling():
    assert max_useless_k(make_parity(8)) == 7


def test_parity_ceiling_fits_the_cells_read_ceiling(monkeypatch):
    # the checker raises one cell below each count, so it reads as many as
    # the formula says; every k of the largest parity class then fits
    problem = make_parity(MAX_PARITY_N)
    costs = [k * math.comb(MAX_PARITY_N, k) * problem.size for k in range(1, MAX_PARITY_N + 1)]
    for k, cost in enumerate(costs, start=1):
        monkeypatch.setattr(useless, "MAX_TABLE_CELLS", cost - 1)
        with pytest.raises(CapacityError):
            classical_useless(problem, k)
    assert max(costs) <= MAX_TABLE_CELLS
    n = MAX_PARITY_N + 1
    assert 5 * math.comb(n, 5) * 2**n > MAX_TABLE_CELLS


def test_max_useless_k_values():
    assert max_useless_k(make_parity(4)) == 3
    assert max_useless_k(make_shamir(5, 2)) == 2
    assert max_useless_k(make_image_parity()) == 2


def test_max_useless_k_single_function_class():
    problem = LearningProblem(
        domain_size=2,
        group=cyclic(2),
        functions=((0, 1),),
        labels=(0,),
        prior=(Fraction(1),),
        name="singleton",
    )
    assert max_useless_k(problem) == problem.domain_size


def test_quantum_lower_bound_values():
    assert quantum_lower_bound(make_parity(4)) == 2
    assert quantum_lower_bound(make_shamir(5, 2)) == 2
    assert quantum_lower_bound(make_image_parity()) == 2
    assert quantum_lower_bound(make_parity(2)) == 1


def test_lemma_check_holds_when_hypothesis_holds():
    problem = make_parity(4)
    for seed in trial_seeds(123, 20):
        alg = random_algorithm(4, problem.group, 1, 1, seed)
        assert lemma_check(problem, alg) < 1e-9


def test_lemma_check_across_suite():
    suite = [
        (make_parity(4), 1),
        (make_parity(5), 1),
        (make_parity(5), 2),
        (make_image_parity(), 1),
        (make_shamir(5, 2), 1),
    ]
    for problem, q in suite:
        assert 2 * q <= max_useless_k(problem)
        for seed in trial_seeds(99, 20):
            alg = random_algorithm(problem.domain_size, problem.group, 1, q, seed)
            assert lemma_check(problem, alg) < 1e-9


def test_lemma_check_single_part_partition():
    problem = LearningProblem(
        domain_size=1,
        group=cyclic(2),
        functions=((0,), (1,)),
        labels=(0, 0),
        prior=(Fraction(1, 2), Fraction(1, 2)),
        name="one-part",
    )
    alg = random_algorithm(1, cyclic(2), 1, 1, seed=0)
    assert lemma_check(problem, alg) < 1e-12


def test_lemma_check_fails_when_hypothesis_fails():
    # two classical queries are informative for two-point parity, and a
    # seeded one-query algorithm sees it
    problem = make_parity(2)
    alg = random_algorithm(2, problem.group, 1, 1, seed=0)
    assert lemma_check(problem, alg) > 1e-6


def test_falsify_parity4_finds_nothing():
    report = quantum_useless_falsify(make_parity(4), queries=1, trials=50, seed=7)
    assert report.verdict == VERDICT_USELESS
    assert report.max_deviation < 1e-8
    assert report.trials == 50
    assert report.witness is None


def test_falsify_image_parity_finds_nothing():
    report = quantum_useless_falsify(make_image_parity(), queries=1, trials=50, seed=7)
    assert report.verdict == VERDICT_USELESS
    assert report.max_deviation < 1e-8


def test_falsify_clean_across_suite():
    # wherever 2q classical queries are useless, sampling finds nothing
    suite = [
        (make_parity(4), 1),
        (make_parity(5), 2),
        (make_image_parity(), 1),
        (make_shamir(5, 2), 1),
    ]
    for problem, q in suite:
        assert 2 * q <= max_useless_k(problem)
        report = quantum_useless_falsify(problem, queries=q, trials=10, seed=13)
        assert report.verdict == VERDICT_USELESS
        assert report.max_deviation < 1e-8


def test_falsify_parity2_with_deutsch_witness():
    report = quantum_useless_falsify(
        make_parity(2), queries=1, trials=50, seed=7, extra_algorithms=[deutsch()]
    )
    assert report.verdict == VERDICT_NOT_USELESS
    assert report.max_deviation >= 0.4
    assert report.witness["trial"] == 0
    assert report.witness["algorithm"] == "extra-0"


def test_falsify_deterministic():
    a = quantum_useless_falsify(make_parity(2), queries=1, trials=10, seed=3)
    b = quantum_useless_falsify(make_parity(2), queries=1, trials=10, seed=3)
    assert asdict(a) == asdict(b)


def test_falsify_budget():
    # parity-4 has |X||Y| = 8, so z_dim = 25 sits exactly at the ceiling
    assert 8 * 25 == MAX_DIM
    report = quantum_useless_falsify(make_parity(4), queries=1, trials=1, seed=0, z_dim=25)
    assert report.verdict == VERDICT_USELESS
    with pytest.raises(CapacityError, match="208"):
        quantum_useless_falsify(make_parity(4), queries=1, trials=1, seed=0, z_dim=26)


def test_report_csv_row():
    report = classical_useless(make_parity(4), 4)
    row = report.csv_row()
    assert row[0] == "parity-4"
    assert row[1] == "4"
    assert row[2] == VERDICT_NOT_USELESS
    assert ":" in row[4]
