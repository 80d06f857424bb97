import gc
import math
import time
import weakref
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oraclelab import qsim, useless
from oraclelab.algebra import FiniteAbelianGroup, cyclic, random_pure_state
from oraclelab.errors import CapacityError
from oraclelab.gallery import deutsch, pairwise_parity
from oraclelab.problems import (
    LearningProblem,
    make_image_parity,
    make_parity,
    make_shamir,
    posterior_classical,
)
from oraclelab.qsim import (
    QuantumAlgorithm,
    RunResult,
    random_algorithm,
    stack_capacity,
    trial_seeds,
)
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

from reference import (
    dense_run,
    dict_loop_first_violation,
    naive_classical_useless,
    naive_posterior,
    per_algorithm_falsify,
    per_matrix_factor,
    upward_max_useless_k,
)


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
def small_problems(draw, groups=st.sampled_from([(2,), (3,), (2, 2)])):
    group = FiniteAbelianGroup(draw(groups))
    # tables take q values; a group of order above 4 spreads 3 of them over
    # its range, and its labels with them
    q = group.order if group.order <= 4 else 3
    spread = group.order // q
    n = draw(st.integers(1, 3 if q <= 3 else 2))
    tables = list(product(range(q), repeat=n))
    if draw(st.booleans()):
        # the full class labeled by the table's value sum, weighted per part:
        # often useless below |X| queries
        labels = [sum(f) % q for f in tables]
        part_weight = draw(st.lists(st.integers(0, 3), min_size=q, max_size=q))
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
        functions=tuple(tuple(v * spread for v in f) for f in tables),
        labels=tuple(j * spread for j in labels),
        prior=tuple(Fraction(w, sum(raw)) for w in raw),
        name="random",
    )


def _witnesses_match_the_dict_loop_scan(problem):
    # the witness is the dict loop's, and ``detail`` counts the point-sets in
    # ``combinations`` order up to the witness's own, or all of them
    for width in range(problem.domain_size + 1):
        report = classical_useless(problem, width)
        witness = report.witness
        point_sets = list(combinations(range(problem.domain_size), width))
        read = len(point_sets)
        if witness is not None:
            assert all(type(v) is int for pair in witness["transcript"] for v in pair)
            witness = [tuple(pair) for pair in witness["transcript"]], witness["part"]
            read = point_sets.index(tuple(x for x, _ in witness[0])) + 1
        assert witness == dict_loop_first_violation(problem, width)
        assert report.detail == {"point_sets": read, "cells_read": width * read * problem.size}


@settings(max_examples=60, deadline=None)
@given(small_problems())
def test_kernel_witness_matches_the_dict_loop_scan(problem):
    _witnesses_match_the_dict_loop_scan(problem)


@settings(max_examples=40, deadline=None)
@given(small_problems())
def test_kernel_witness_matches_the_dict_loop_scan_above_a_scale_of_2_64(problem):
    # part j's weights times 2^65 + j keeps each part's weights equal, so a
    # useless class stays useless, while the scale, and scale^2 with it,
    # passes int64: every mass and product stays a Python int
    weights = [w * (2**65 + j) for w, j in zip(problem.weights, problem.labels.tolist())]
    problem = LearningProblem(
        problem.domain_size,
        problem.group,
        problem.functions,
        problem.labels,
        tuple(Fraction(w, sum(weights)) for w in weights),
    )
    assume(problem.scale > 2**64)
    _witnesses_match_the_dict_loop_scan(problem)


@settings(max_examples=40, deadline=None)
@given(small_problems(groups=st.just((10**30,))))
def test_kernel_witness_matches_the_dict_loop_scan_on_a_group_of_order_10_30(problem):
    # the table and the labels are object arrays of Python ints
    assert problem.functions.dtype == object
    _witnesses_match_the_dict_loop_scan(problem)


@settings(max_examples=40, deadline=None)
@given(small_problems(groups=st.just((2**60,))))
def test_kernel_witness_matches_the_dict_loop_scan_on_a_group_of_order_2_60(problem):
    # a uint64 table, whose int64 neighbours would promote it to float64
    assert problem.functions.dtype == np.uint64
    _witnesses_match_the_dict_loop_scan(problem)


@pytest.mark.parametrize("order, responses", [(2**60, (2**60 - 1, 2**60 - 2)), (2**40, (0, 1))])
def test_uint64_responses_stay_exact_python_ints(order, responses):
    # as float64, 2^60 - 1 and 2^60 - 2 both round to 2^60 and the query would look useless
    tables = tuple((y,) for y in responses)
    problem = LearningProblem(1, cyclic(order), tables, (0, 1), (Fraction(1, 2),) * 2)
    report = classical_useless(problem, 1)
    assert report.verdict == VERDICT_NOT_USELESS
    assert report.witness["transcript"] == [[0, responses[0]]]
    assert type(report.witness["transcript"][0][1]) is int


def _product_class(us, vs):
    """The four tables on two Boolean points, labeled by f(1), with weight
    us[a] * vs[b] on (a, b) over sum(us) * sum(vs): the first point leaves
    the prior in place, the second reveals the label."""
    tables = tuple(product(range(2), repeat=2))
    scale = sum(us) * sum(vs)
    prior = tuple(Fraction(us[a] * vs[b], scale) for a, b in tables)
    return LearningProblem(2, cyclic(2), tables, [b for _, b in tables], prior)


# the largest scale whose square is below 2^63, 13 * 233615423, and the
# next one, 20 * 151850025, as the scales of two product classes
INT64_BOUND_CLASSES = {3037000499: ((5, 8), (1, 233615422)), 3037000500: ((7, 13), (1, 151850024))}
INT64_SCALES = tuple(INT64_BOUND_CLASSES)


@pytest.mark.parametrize("scale", INT64_SCALES)
def test_scales_beside_the_int64_bound_match_the_dict_loop_scan(scale):
    assert (scale * scale < 2**63) == (scale == INT64_SCALES[0])
    problem = _product_class(*INT64_BOUND_CLASSES[scale])
    assert problem.scale == scale
    _witnesses_match_the_dict_loop_scan(problem)
    report = classical_useless(problem, 1)
    assert report.witness["transcript"] == [[1, 0]]
    assert report.detail == {"point_sets": 2, "cells_read": 2 * 4}


@settings(max_examples=40, deadline=None)
@given(small_problems(), st.sampled_from(INT64_SCALES))
def test_kernel_witness_matches_the_dict_loop_scan_beside_the_int64_bound(problem, scale):
    # each weight stretched to the new scale, the first positive one taking the rest
    stretch = scale // problem.scale
    weights = [w * stretch for w in problem.weights.tolist()]
    first = next(i for i, w in enumerate(weights) if w)
    weights[first] += scale - sum(weights)
    prior = tuple(Fraction(w, scale) for w in weights)
    problem = LearningProblem(
        problem.domain_size, problem.group, problem.functions, problem.labels, prior
    )
    assume(problem.scale == scale)
    _witnesses_match_the_dict_loop_scan(problem)


def _parity_of(points, n):
    """All tables on n Boolean points, uniform, labeled by the parity of ``points``."""
    tables = tuple(product(range(2), repeat=n))
    labels = [sum(f[x] for x in points) % 2 for f in tables]
    return LearningProblem(n, cyclic(2), tables, labels, (Fraction(1, 2**n),) * 2**n)


# With 512 rows the batches hold 8 (2^12 rows), 64 and the last 12 point-sets,
# so the 3-point sets of 9 points start batches at 0, 8 and 72 and end them
# at 7, 71 and 83 in ``combinations`` order; 1 and 9 follow a batch's first.
@pytest.mark.parametrize("position", [0, 1, 7, 8, 9, 71, 72, 83])
def test_the_only_informative_point_set_at_a_batch_edge(position):
    points = list(combinations(range(9), 3))[position]
    problem = _parity_of(points, 9)
    assert problem.size * 64 <= useless.BATCH_ROW_BUDGET
    assert problem.size * 8 == useless.FIRST_BATCH_ROWS
    assert classical_useless(problem, 2).verdict == VERDICT_USELESS
    report = classical_useless(problem, 3)
    transcript = [tuple(pair) for pair in report.witness["transcript"]]
    assert [x for x, _ in transcript] == list(points)
    assert (transcript, report.witness["part"]) == dict_loop_first_violation(problem, 3)
    assert report.detail == {"point_sets": position + 1, "cells_read": 3 * (position + 1) * 512}


def _kernel_batches(monkeypatch) -> tuple[list, list]:
    """Record the rows of each batch ``_first_violation`` re-numbers and of
    each it counts, as two lists."""
    renumbered_rows, counted_rows = [], []
    failing_row = useless._failing_row

    def record(problem, points, counted):
        (counted_rows if counted else renumbered_rows).append(points.shape[1] * problem.size)
        return failing_row(problem, points, counted)

    monkeypatch.setattr(useless, "_failing_row", record)
    return renumbered_rows, counted_rows


def _order_2_70_class():
    """Three tables on two points in a group of order 2^70: an object table."""
    return LearningProblem(
        2, cyclic(2**70), ((0, 2**69), (2**69, 0), (1, 1)), (0, 1, 1), (Fraction(1, 3),) * 3
    )


def _object_parity(n):
    """parity-n with the responses 0 and 2^69 in a group of order 2^70."""
    parity = make_parity(n)
    tables = parity.functions.astype(object) * 2**69
    return LearningProblem(n, cyclic(2**70), tables, parity.labels, parity.prior)


def _spread_parity(n):
    """parity-n with the responses 0 and 15 in Z_16: codes below 16, so a
    3-point set has 2 * 16^3 bins, more than 8 times its 2^n rows for n <= 9."""
    parity = make_parity(n)
    return LearningProblem(n, cyclic(16), parity.functions * 15, parity.labels, parity.prior)


def _one_part_tables(n):
    """Two tables on n Boolean points that differ at the last one, in one
    part: useless at every width."""
    tables = np.zeros((2, n), dtype=np.uint8)
    tables[1, -1] = 1
    return LearningProblem(n, cyclic(2), tables, (0, 0), (Fraction(1, 2),) * 2)


def test_each_batch_counts_once(monkeypatch):
    # 84 point-sets of 512 rows, 16 bins each: batches of 8, 64 and the last 12
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    assert classical_useless(make_parity(9), 3).verdict == VERDICT_USELESS
    assert (renumbered_rows, counted_rows) == ([], [512 * b for b in (8, 64, 12)])


def test_an_object_table_counts_in_its_dense_codes(monkeypatch):
    # parity-9 with the responses 0 and 2^69: codes 0 and 1, so the same
    # batches as parity-9 and the same reports
    problem = _object_parity(9)
    assert problem.functions.dtype == object and problem.code_radix == 2
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    reports = [classical_useless(problem, k) for k in (3, 9)]
    assert (renumbered_rows, counted_rows) == ([], [512 * b for b in (8, 64, 12, 1)])
    assert reports[0].verdict == VERDICT_USELESS
    transcript = [tuple(pair) for pair in reports[1].witness["transcript"]]
    assert (transcript, reports[1].witness["part"]) == dict_loop_first_violation(problem, 9)
    assert {y for _, y in transcript} <= {0, 2**69}


def test_a_counted_batch_is_sized_by_its_bins(monkeypatch):
    # 1820 point-sets of 2 rows and 16 bins: 2^12 // 16 = 256 point-sets,
    # then the last 1564, as 2^16 // 16 = 4096 would fit
    problem = _one_part_tables(16)
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    assert classical_useless(problem, 4).verdict == VERDICT_USELESS
    assert (renumbered_rows, counted_rows) == ([], [2 * b for b in (256, 1564)])


def test_each_renumbered_batch_is_read_once(monkeypatch):
    # the 84 point-sets of a class whose 3-point sets have 2 * 16^3 bins,
    # 16 times their 512 rows: a first batch of 2^12 / 8 rows, one
    # point-set, then 8, 64 and the last 11
    problem = _spread_parity(9)
    assert not useless._counts(problem, 3)
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    assert classical_useless(problem, 3).verdict == VERDICT_USELESS
    assert (renumbered_rows, counted_rows) == ([512 * b for b in (1, 8, 64, 11)], [])


def test_a_renumbered_first_batch_holds_an_eighth_of_the_counted_rows(monkeypatch):
    # 560 point-sets of 2 rows and 2^13 bins: 2^12 / 8 rows hold 256
    # point-sets, and the next batch the last 304
    problem = _one_part_tables(16)
    assert not useless._counts(problem, 13)
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    assert classical_useless(problem, 13).verdict == VERDICT_USELESS
    assert (renumbered_rows, counted_rows) == ([2 * b for b in (256, 304)], [])


@pytest.mark.parametrize(
    "problem, width",
    [(make_shamir(7, 2), 4), (make_shamir(11, 2), 4)],
    ids=["shamir-7-2-k4", "shamir-11-2-k4"],
)
def test_a_renumbered_witness_in_the_first_point_set_reads_one_point_set(monkeypatch, problem, width):
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    report = classical_useless(problem, width)
    assert report.verdict == VERDICT_NOT_USELESS
    assert report.detail["point_sets"] == 1
    assert (renumbered_rows, counted_rows) == ([problem.size], [])


# (class, width, budget): counted and re-numbered scans under budgets that
# are no multiple of |C|, some below 2 |C|, and parity-17, whose 2^17 rows
# a point-set pass the budget itself
BUDGET_CASES = [
    pytest.param(make_parity(9), 3, 3 * 512 + 100, id="parity-9-k3"),
    pytest.param(make_parity(9), 3, 512 + 100, id="parity-9-k3-below-2C"),
    pytest.param(_spread_parity(9), 3, 9 * 512 + 7, id="spread-parity-9-k3"),
    pytest.param(_spread_parity(9), 3, 512 + 7, id="spread-parity-9-k3-below-2C"),
    pytest.param(make_shamir(7, 2), 2, 5 * 343 + 1, id="shamir-7-2-k2"),
    pytest.param(make_shamir(7, 2), 2, 343 + 1, id="shamir-7-2-k2-below-2C"),
    pytest.param(_one_part_tables(16), 13, 2 * 100 + 1, id="two-tables-16-k13"),
    pytest.param(make_parity(17), 16, None, id="parity-17-k16"),
    pytest.param(make_parity(17), 1, None, id="parity-17-k1"),
]


@pytest.mark.parametrize("problem, width, budget", BUDGET_CASES)
def test_each_batch_holds_at_most_the_budget_rows_or_one_point_set(monkeypatch, problem, width, budget):
    if budget is not None:
        monkeypatch.setattr(useless, "BATCH_ROW_BUDGET", budget)
        assert budget % problem.size
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    report = classical_useless(problem, width)
    batches = renumbered_rows + counted_rows
    assert sum(batches) == report.detail["point_sets"] * problem.size > problem.size
    assert all(rows <= useless.BATCH_ROW_BUDGET or rows == problem.size for rows in batches)
    counts = useless._counts(problem, width)
    assert (bool(counted_rows), bool(renumbered_rows)) == (counts, not counts)


def _padded_parity_2(n):
    """parity-2's four tables padded with n - 2 zero points: |C| = 4 and
    P = 2, so a point-set's bins, 2^(width + 1), reach 8 * |C| at width 4."""
    tables = np.zeros((4, n), dtype=np.uint8)
    tables[:, :2] = list(product(range(2), repeat=2))
    return LearningProblem(n, cyclic(2), tables, tables.sum(axis=1) % 2, (Fraction(1, 4),) * 4)


# (class, width, whether it counts): r^width * P bins of a point-set, for
# codes below r, up to COUNTED_BINS_PER_ROW * |C| count and one more width
# is re-numbered, at the bound itself (padded parity-2) and below it;
# parity-N counts at every width, as 2^(N + 1) bins are 2 |C|; the scale
# does not choose the side, and an object table counts in its dense codes
# (three, so P * 3^2 = 18 <= 24 bins at k = 2)
SWITCH_CASES = [
    pytest.param(make_parity(6), 5, True, id="parity-6-k5"),
    pytest.param(make_parity(6), 6, True, id="parity-6-k6"),
    pytest.param(make_shamir(5, 2), 2, True, id="shamir-5-2-k2"),
    pytest.param(_padded_parity_2(6), 4, True, id="padded-parity-2-k4"),
    pytest.param(_padded_parity_2(6), 5, False, id="padded-parity-2-k5"),
    pytest.param(make_shamir(5, 2), 3, True, id="shamir-5-2-k3"),
    pytest.param(make_shamir(5, 2), 4, False, id="shamir-5-2-k4"),
    pytest.param(make_shamir(7, 2), 3, True, id="shamir-7-2-k3"),
    pytest.param(make_shamir(7, 2), 4, False, id="shamir-7-2-k4"),
    pytest.param(_product_class(*INT64_BOUND_CLASSES[INT64_SCALES[0]]), 1, True, id="scale-3037000499"),
    pytest.param(_product_class(*INT64_BOUND_CLASSES[INT64_SCALES[1]]), 1, True, id="scale-3037000500"),
    pytest.param(_order_2_70_class(), 1, True, id="order-2-70-k1"),
    pytest.param(_order_2_70_class(), 2, True, id="order-2-70-k2"),
    pytest.param(_spread_parity(4), 2, False, id="spread-parity-4-k2"),
]


@pytest.mark.parametrize("problem, width, counts", SWITCH_CASES)
def test_each_side_of_the_counting_switch_matches_the_dict_loop_scan(
    monkeypatch, problem, width, counts
):
    bins = len(problem.part_masses) * problem.code_radix**width
    assert (bins <= useless.COUNTED_BINS_PER_ROW * problem.size) == counts
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    report = classical_useless(problem, width)
    assert (bool(counted_rows), bool(renumbered_rows)) == (counts, not counts)
    witness = report.witness
    if witness is not None:
        witness = [tuple(pair) for pair in witness["transcript"]], witness["part"]
    assert witness == dict_loop_first_violation(problem, width)
    assert (report.verdict == VERDICT_USELESS) == (witness is None)


# (the response at point 0 of row 0, whether the check counts): each class
# counts, or is re-numbered where ``_counts`` is patched; the object one
# counts in its dense codes
@pytest.mark.parametrize(
    "response, counts",
    [(1, True), (1, False), (2**69, True), (2**69, False)],
    ids=["uint8-counted", "uint8-renumbered", "object-counted", "object-renumbered"],
)
def test_the_witness_is_the_group_of_the_batchs_earliest_failing_row(monkeypatch, response, counts):
    # the dictator of point 0 on 3 points, rows from (1, 1, 1) down: at point
    # 0 both groups fail, and row 0 lies in that of the greater code
    tables = make_parity(3).functions[::-1].astype(object) * response
    group = cyclic(2 if response == 1 else 2**70)
    problem = LearningProblem(3, group, tables, tables[:, 0] // response, (Fraction(1, 8),) * 8)
    if not counts:
        monkeypatch.setattr(useless, "_counts", lambda problem, width: False)
    renumbered_rows, counted_rows = _kernel_batches(monkeypatch)
    report = classical_useless(problem, 1)
    assert (bool(counted_rows), bool(renumbered_rows)) == (counts, not counts)
    assert report.witness["transcript"] == [[0, response]]
    witness = [tuple(pair) for pair in report.witness["transcript"]], report.witness["part"]
    assert witness == dict_loop_first_violation(problem, 1)


@pytest.mark.parametrize("budget", ["size", 1])
def test_one_point_set_per_batch_gives_the_same_reports(monkeypatch, budget):
    # a budget of |C| rows or fewer still takes one point-set a batch
    cases = [make_parity(n) for n in range(1, 7)] + [
        make_image_parity(),
        make_shamir(5, 1),
        make_shamir(5, 2),
        make_shamir(7, 2),
        _parity_of((1, 4, 6), 9),
        _product_class(*INT64_BOUND_CLASSES[INT64_SCALES[1]]),
        _order_2_70_class(),
    ]
    for problem in cases:
        ks = range(problem.domain_size + 2)
        expected = [asdict(classical_useless(problem, k)) for k in ks]
        monkeypatch.setattr(useless, "BATCH_ROW_BUDGET", problem.size if budget == "size" else 1)
        assert [asdict(classical_useless(problem, k)) for k in ks] == expected
        monkeypatch.undo()


@settings(max_examples=60, deadline=None)
@given(small_problems(), st.data())
def test_the_witness_replay_matches_the_filtered_class(problem, data):
    # the posterior of every event on up to |X| points, an empty one (None)
    # and the empty transcript (the prior) included, and the prior itself
    prior = {}
    for j, w in zip(problem.labels.tolist(), problem.prior):
        prior[j] = prior.get(j, 0) + w
    assert problem.part_prior() == prior == posterior_classical(problem, [])
    n, order = problem.domain_size, problem.group.order
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, order - 1))
    for transcript in data.draw(st.lists(st.lists(pairs, max_size=n), min_size=1, max_size=6)):
        assert posterior_classical(problem, transcript) == naive_posterior(problem, transcript)
    f = problem.functions[0].tolist()
    assert posterior_classical(problem, [(0, f[0]), (0, (f[0] + 1) % order)]) is None


def test_part_prior_is_a_new_dict_on_each_call():
    problem = make_shamir(5, 1)
    prior = problem.part_prior()
    prior[0] = Fraction(1)
    del prior[1]
    assert problem.part_prior() == {j: Fraction(1, 5) for j in range(5)}
    assert problem.part_prior() is not problem.part_prior()


def _many_part_class(kind):
    """A class of more than COUNTED_BINS_PER_ROW parts, whose wide scans sum
    (group, part) cells numbered densely: shamir-11-2, in a seeded order,
    or with a prior past int64 whose parts keep equal weights."""
    problem = make_shamir(11, 2)
    if kind == "shuffled":
        return _shuffled(problem, 3)
    if kind == "huge-scale":
        weights = [2**65 + j for j in problem.labels.tolist()]
        prior = tuple(Fraction(w, sum(weights)) for w in weights)
        problem = LearningProblem(
            problem.domain_size, problem.group, problem.functions, problem.labels, prior
        )
        assert problem.scale**2 >= 2**63 and problem.exact_masses.dtype == object
    return problem


@pytest.mark.parametrize("kind", ["shamir-11-2", "shuffled", "huge-scale"])
def test_many_parts_sum_dense_group_part_cells_like_the_dict_loop(monkeypatch, kind):
    # at k = 3 and 4 the 11 parts times the groups pass 8 times the rows
    problem = _many_part_class(kind)
    renumbered_rows, _ = _kernel_batches(monkeypatch)
    for width in (3, 4):
        assert not useless._counts(problem, width)
    _witnesses_match_the_dict_loop_scan(problem)
    assert renumbered_rows
    assert max_useless_k(problem) == 2


@pytest.mark.parametrize("parts", [1, 2])
def test_two_tables_on_4096_points_equal_but_at_the_last(parts):
    # every column but the last leaves the two rows in one group, so a scan
    # at k = |X| packs every column before the rows part; one part is useless
    # at every width, and two parts are moved by the last point alone
    n = 2**12
    tables = np.zeros((2, n), dtype=np.uint8)
    tables[1, -1] = 1
    problem = LearningProblem(n, cyclic(2), tables, (0, parts - 1), (Fraction(1, 2),) * 2)
    for k, point_sets in ((1, n), (n, 1)):
        report = classical_useless(problem, k)
        assert report.detail == {"point_sets": point_sets, "cells_read": k * point_sets * 2}
        witness = report.witness
        if witness is not None:
            witness = [tuple(pair) for pair in witness["transcript"]], witness["part"]
        assert witness == dict_loop_first_violation(problem, k)
        if parts == 1:
            assert report.verdict == VERDICT_USELESS
        else:
            expected = [(n - 1, 0)] if k == 1 else [(x, 0) for x in range(n)]
            assert witness == (expected, 0)
    assert max_useless_k(problem) == (n if parts == 1 else 0)


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
            assert len(transcript) == min(k, problem.domain_size)
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


@pytest.mark.parametrize("problem,k", [(make_parity(6), 5), (make_shamir(7, 2), 2)])
def test_useless_verdict_reads_every_point_set(problem, k):
    report = classical_useless(problem, k)
    assert report.verdict == VERDICT_USELESS
    sets = math.comb(problem.domain_size, k)
    assert report.detail == {"point_sets": sets, "cells_read": k * sets * problem.size}


def test_witness_reads_the_point_sets_up_to_its_own():
    # the label is f(1), so the second of the four one-point sets moves a part
    tables = tuple(product(range(2), repeat=4))
    problem = LearningProblem(4, cyclic(2), tables, [f[1] for f in tables], (Fraction(1, 16),) * 16)
    report = classical_useless(problem, 1)
    assert report.witness["transcript"] == [[1, 0]]
    assert report.detail == {"point_sets": 2, "cells_read": 1 * 2 * 16}
    for problem, k in ((make_parity(6), 6), (make_shamir(7, 2), 3)):
        report = classical_useless(problem, k)
        assert report.verdict == VERDICT_NOT_USELESS
        sets = report.detail["point_sets"]
        assert 1 <= sets <= math.comb(problem.domain_size, k)
        assert report.detail["cells_read"] == k * sets * problem.size


def test_classical_witness_beyond_domain_is_padded():
    problem = make_parity(3)
    report = classical_useless(problem, 5)
    assert report.verdict == VERDICT_NOT_USELESS
    transcript = [tuple(pair) for pair in report.witness["transcript"]]
    assert len(transcript) == min(5, problem.domain_size)
    assert sorted({x for x, _ in transcript}) == [0, 1, 2]
    j = report.witness["part"]
    posterior = posterior_classical(problem, transcript)
    assert posterior[j] == Fraction(*report.witness["posterior"])
    assert posterior[j] != problem.part_prior()[j]


def test_classical_witness_size_is_bounded_by_the_domain():
    # the verdict reads 8 cells; a witness padded to k pairs would not fit in memory
    start = time.perf_counter()
    report = classical_useless(make_parity(2), 10**9)
    assert time.perf_counter() - start < 0.1
    assert report.verdict == VERDICT_NOT_USELESS
    assert len(report.witness["transcript"]) == 2


def test_max_useless_k_parity_8_under_default_ceiling():
    assert max_useless_k(make_parity(8)) == 7


def _counting_kernel(monkeypatch) -> list:
    """Record the cells each ``_first_violation`` call that answers reads, as
    (width, cells)."""
    kernel, calls = useless._first_violation, []

    def counted(problem, width):
        pairs, read = kernel(problem, width)
        calls.append((width, width * read * problem.size))
        return pairs, read

    monkeypatch.setattr(useless, "_first_violation", counted)
    return calls


def test_parity_ceiling_fits_the_cells_read_ceiling(monkeypatch):
    # the largest parity class, N * 2^N <= MAX_CLASS_CELLS, is parity-17; its
    # search reads the one point-set at k = 17, a witness, and full scans at
    # k = 1 and k = 16 only, where the upward scan would read every k up to 16
    problem = make_parity(17)
    calls = _counting_kernel(monkeypatch)
    assert max_useless_k(problem) == 16
    assert calls == [(17, 17 * 2**17), (1, 17 * 2**17), (16, 16 * 17 * 2**17)]
    assert sum(cells for _, cells in calls) <= MAX_TABLE_CELLS
    assert sum(k * math.comb(17, k) for k in range(1, 17)) * 2**17 > MAX_TABLE_CELLS


def test_parity_13_useless_scan_matches_the_dict_loop():
    # the largest parity class whose widest useless scan the dict loop
    # checks in about a second: every 12-point event of parity-13 keeps the prior
    problem = make_parity(13)
    report = classical_useless(problem, 12)
    assert report.verdict == VERDICT_USELESS
    assert dict_loop_first_violation(problem, 12) is None
    assert report.detail == {"point_sets": 13, "cells_read": 12 * 13 * problem.size}


def test_parity_at_the_ceiling_matches_the_reference_scans():
    # every 16-point event of parity-17 keeps the prior (the known truth:
    # the dict loop takes seconds there); the one 17-point set is
    # informative, and its witness replays by the literal filter
    problem = make_parity(17)
    n = problem.domain_size
    report = classical_useless(problem, n - 1)
    assert report.verdict == VERDICT_USELESS
    assert report.detail == {"point_sets": n, "cells_read": (n - 1) * n * problem.size}
    report = classical_useless(problem, n)
    transcript = [tuple(pair) for pair in report.witness["transcript"]]
    assert (transcript, report.witness["part"]) == dict_loop_first_violation(problem, n)
    j = report.witness["part"]
    assert naive_posterior(problem, transcript)[j] == Fraction(*report.witness["posterior"])
    assert report.detail == {"point_sets": 1, "cells_read": n * problem.size}


@pytest.mark.parametrize("position", [0, 9, 83])
def test_a_witness_fits_the_ceiling_at_exactly_its_cells(monkeypatch, position):
    # the witness is reported when its own point-set and those before it fit,
    # and refused one cell below, having read the point-sets before it
    points = list(combinations(range(9), 3))[position]
    problem = _parity_of(points, 9)
    cells = 3 * (position + 1) * problem.size
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", cells)
    report = classical_useless(problem, 3)
    assert [x for x, _ in report.witness["transcript"]] == list(points)
    assert report.detail == {"point_sets": position + 1, "cells_read": cells}
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", cells - 1)
    with pytest.raises(CapacityError, match=f"k' = 3 read {cells - 3 * 512} table cells without"):
        classical_useless(problem, 3)


def test_a_witness_within_the_ceiling_is_reported_whatever_the_worst_case():
    # k = 2 could read 2 * C(156, 2) * 157^2 cells, but its first point-set is a witness
    problem = make_shamir(157, 1)
    assert 2 * math.comb(156, 2) * problem.size > MAX_TABLE_CELLS
    report = classical_useless(problem, 2)
    assert report.witness["transcript"] == [[0, 0], [1, 0]]
    assert report.detail == {"point_sets": 1, "cells_read": 2 * problem.size}


@pytest.mark.parametrize(
    "problem",
    [make_parity(9), make_shamir(7, 2), _parity_of((3, 7), 9)],
    ids=["parity-9", "shamir-7-2", "xor-3-7-of-9"],
)
def test_max_useless_k_fits_the_ceiling_at_exactly_its_largest_scan(monkeypatch, problem):
    # the ceiling bounds each scan on its own
    calls = _counting_kernel(monkeypatch)
    m = max_useless_k(problem)
    assert m == upward_max_useless_k(problem)
    largest = max(cells for _, cells in calls)
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", largest)
    assert max_useless_k(problem) == m
    monkeypatch.setattr(useless, "MAX_TABLE_CELLS", largest - 1)
    with pytest.raises(CapacityError, match="MAX_TABLE_CELLS="):
        max_useless_k(problem)


def test_max_useless_k_answers_a_class_whose_scans_together_pass_the_ceiling():
    # all tables on 13 points, labeled by the xor of f on points 0..6: every
    # 6-point event keeps the prior and {0, ..., 6} moves it, so m = 6 (the
    # dict-loop upward scan agrees in 27 s, too slow for this suite). Each
    # width up to 7 fits the ceiling, and the search's full scans at 1..6
    # read 1.7 * 10^8 cells together
    problem = _parity_of(range(7), 13)
    assert _upward_ceiling(problem, 6) <= MAX_TABLE_CELLS
    assert sum(w * math.comb(13, w) for w in range(1, 7)) * problem.size > MAX_TABLE_CELLS
    assert max_useless_k(problem) == 6


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


def test_two_tables_on_5000_points_read_the_one_wide_set_and_k_1(monkeypatch):
    # two tables on 5000 points that differ at the last one: m = 0. The
    # search reads the one point-set at k = |X|, a witness, and then k = 1,
    # whose witness is its last point-set: the 10,000 cells the upward scan reads
    n = 5000
    functions = np.zeros((2, n), dtype=np.uint8)
    functions[1, -1] = 1
    problem = LearningProblem(n, cyclic(2), functions, (0, 1), (Fraction(1, 2),) * 2)
    calls = _counting_kernel(monkeypatch)
    assert max_useless_k(problem) == upward_max_useless_k(problem) == 0
    assert calls == [(n, n * problem.size), (1, n * problem.size)]


def _shuffled(problem, seed):
    """The same class with its rows and query points in a seeded order."""
    rng = np.random.default_rng(seed)
    rows, points = rng.permutation(problem.size), rng.permutation(problem.domain_size)
    return LearningProblem(
        problem.domain_size,
        problem.group,
        problem.functions[rows][:, points],
        problem.labels[rows],
        tuple(problem.prior[i] for i in rows),
        name=problem.name,
    )


GENERATED = [
    *(make_parity(n) for n in range(1, 9)),
    make_image_parity(),
    *(make_shamir(p, k) for p, k in ((3, 1), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (11, 2))),
]


@pytest.mark.parametrize("problem", GENERATED, ids=lambda p: p.name)
def test_max_useless_k_matches_the_upward_scan_on_every_generator(problem):
    m = upward_max_useless_k(problem)
    for seed in (None, 1, 2):
        assert max_useless_k(problem if seed is None else _shuffled(problem, seed)) == m


@st.composite
def rare_witness_classes(draw):
    """Every table on n Boolean points, labeled by the xor of f on 2 or 3 of
    them, in a seeded order: only point-sets holding those points are
    informative, so a witness at the first informative width is rare."""
    n = draw(st.integers(2, 7))
    points = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=min(3, n), unique=True))
    return _shuffled(_parity_of(sorted(points), n), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_problems(), rare_witness_classes()), st.integers(0, 2**32 - 1))
def test_max_useless_k_matches_the_upward_scan(problem, seed):
    m = upward_max_useless_k(problem)
    assert max_useless_k(problem) == m
    assert max_useless_k(_shuffled(problem, seed)) == m


def _upward_ceiling(problem, m):
    """The least ceiling under which the upward scan answers m: each width
    up to m + 1 fits it in the worst case."""
    n = problem.domain_size
    return max(w * math.comb(n, w) * problem.size for w in range(1, min(m + 1, n) + 1))


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_problems(), rare_witness_classes()), st.data())
def test_max_useless_k_answers_wherever_the_upward_scan_does(problem, data):
    # and under a lower ceiling it answers m or refuses
    m = upward_max_useless_k(problem)
    ceiling = _upward_ceiling(problem, m)
    lower = data.draw(st.integers(0, ceiling - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(useless, "MAX_TABLE_CELLS", ceiling)
        assert max_useless_k(problem) == m
        patch.setattr(useless, "MAX_TABLE_CELLS", lower)
        try:
            assert max_useless_k(problem) == m
        except CapacityError:
            pass


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(small_problems(), rare_witness_classes()),
    st.integers(1, 2**7),
    st.integers(1, 2**9),
)
def test_reports_do_not_depend_on_the_batch_schedule(problem, first_rows, budget_rows):
    # verdict, witness and detail, and m, under a tiny first batch and batch
    # ceiling, down to one point-set a batch
    ks = range(problem.domain_size + 2)
    expected = [asdict(classical_useless(problem, k)) for k in ks], max_useless_k(problem)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(useless, "FIRST_BATCH_ROWS", first_rows)
        patch.setattr(useless, "BATCH_ROW_BUDGET", budget_rows)
        assert ([asdict(classical_useless(problem, k)) for k in ks], max_useless_k(problem)) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_problems(), rare_witness_classes()), st.integers(0, 2**32 - 1))
def test_counting_and_sorting_give_the_same_reports(problem, seed):
    # uniform and non-uniform priors, in two presentations: every report,
    # and m, with every scan forced onto the sort path
    assume(any(useless._counts(problem, k) for k in range(1, problem.domain_size + 1)))
    for presented in (problem, _shuffled(problem, seed)):
        ks = range(presented.domain_size + 2)
        expected = [asdict(classical_useless(presented, k)) for k in ks], max_useless_k(presented)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(useless, "_counts", lambda problem, width: False)
            assert ([asdict(classical_useless(presented, k)) for k in ks], max_useless_k(presented)) == expected


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


def test_lemma_check_matches_dense_mixture(monkeypatch):
    # the part sums come from the evolved factor, never from d x d final states
    def no_dense_states(self):
        raise AssertionError("lemma_check read the dense final states")

    monkeypatch.setattr(RunResult, "final_states", property(no_dense_states))
    cases = [
        (make_parity(2), 1, 1),
        (make_parity(3), 1, 2),
        (make_parity(3), 2, 1),
        (make_image_parity(), 1, 1),
        (make_shamir(3, 1), 1, 2),
    ]
    for problem, q, z_dim in cases:
        mu = [float(w) for w in problem.prior]
        for seed in trial_seeds(17, 3):
            alg = random_algorithm(problem.domain_size, problem.group, z_dim, q, seed)
            # a rank-2 initial state, so the factor carries two signed columns
            (_, a), (_, b) = random_pure_state(alg.dim, seed), random_pure_state(alg.dim, seed + 1)
            rho0 = 0.3 * a @ a.conj().T + 0.7 * b @ b.conj().T
            state = per_matrix_factor(rho0, "density matrix")
            alg = QuantumAlgorithm(alg.x_dim, alg.group, z_dim, state, alg.unitaries, alg.povm)
            states = [dense_run(alg, f, rho0, [])[0] for f in problem.functions]
            mixture = sum(m * rho for m, rho in zip(mu, states))
            expected = 0.0
            for j, part_prior in problem.part_prior().items():
                part = sum(m * rho for m, rho, i in zip(mu, states, problem.labels) if i == j)
                expected = max(expected, np.abs(part - float(part_prior) * mixture).max())
            assert abs(lemma_check(problem, alg) - expected) < 1e-12


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


def test_falsify_rejects_extras_with_another_query_count():
    # two queries solve parity-4, so run as a one-query algorithm it would
    # "falsify" a budget that is provably useless
    with pytest.raises(ValueError, match="make 1 queries; extra-0 do not"):
        quantum_useless_falsify(
            make_parity(4), queries=1, trials=1, seed=1, extra_algorithms=(pairwise_parity(4),)
        )
    extras = (random_algorithm(4, cyclic(2), 1, 1, 3), pairwise_parity(4), pairwise_parity(4))
    with pytest.raises(ValueError, match="; extra-1, extra-2 do not"):
        quantum_useless_falsify(make_parity(4), queries=1, trials=1, seed=1, extra_algorithms=extras)


def test_falsify_zero_trials_runs_only_the_extras(monkeypatch):
    def no_random_algorithm(*args, **kwargs):
        raise AssertionError("trials=0 builds no random algorithm")

    monkeypatch.setattr(useless, "random_algorithm", no_random_algorithm)
    extras = [random_algorithm(2, cyclic(2), 1, 1, 5), deutsch()]
    report = quantum_useless_falsify(make_parity(2), 1, trials=0, seed=7, extra_algorithms=extras)
    assert report.trials == len(extras)
    assert report.verdict == VERDICT_NOT_USELESS
    assert report.witness["algorithm"] == "extra-1"
    with pytest.raises(ValueError, match="trials"):
        quantum_useless_falsify(make_parity(2), 1, trials=0, seed=7)
    with pytest.raises(ValueError, match="trials"):
        quantum_useless_falsify(make_parity(2), 1, trials=-1, seed=7, extra_algorithms=extras)


def test_falsify_deterministic():
    a = quantum_useless_falsify(make_parity(2), queries=1, trials=10, seed=3)
    b = quantum_useless_falsify(make_parity(2), queries=1, trials=10, seed=3)
    assert asdict(a) == asdict(b)


def test_falsify_budget():
    # parity-4 has |X||Y| = 8, so z_dim = 154 sits exactly at the ceiling
    assert 8 * 154 == MAX_DIM
    report = quantum_useless_falsify(make_parity(4), queries=1, trials=1, seed=0, z_dim=154)
    assert report.verdict == VERDICT_USELESS
    with pytest.raises(CapacityError, match="1240"):
        quantum_useless_falsify(make_parity(4), queries=1, trials=1, seed=0, z_dim=155)


@pytest.mark.parametrize("z_dim", [0, -2])
def test_falsify_names_a_z_dim_below_one(z_dim):
    # a negative z_dim gives a negative dimension, which passes the ceiling
    extras = [random_algorithm(4, cyclic(2), 1, 1, 3)]
    for trials, extra in ((1, ()), (0, extras)):
        with pytest.raises(ValueError, match=f"z_dim must be >= 1, got {z_dim}"):
            quantum_useless_falsify(
                make_parity(4), 1, trials=trials, seed=0, z_dim=z_dim, extra_algorithms=extra
            )


def test_falsify_holds_one_random_algorithm_at_a_time(monkeypatch):
    # at the dimension ceiling a random algorithm holds ~50 MB and a batch
    # holds one of them, so trials are drawn a batch at a time as they are
    # simulated, never all up front, and each batch is released before the
    # next is drawn; a budget one small algorithm wide makes every batch one
    # algorithm here too
    built, alive_at_draw = [], []

    def tracked(*args, **kwargs):
        gc.collect()
        alive_at_draw.append(sum(ref() is not None for ref in built))
        batch = random_algorithm(*args, **kwargs)
        built.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(useless, "random_algorithm", tracked)
    monkeypatch.setattr(qsim, "STACK_ENTRY_BUDGET", 1)
    report = quantum_useless_falsify(make_parity(2), queries=1, trials=4, seed=1)
    assert report.trials == 4 and len(built) == 4
    assert alive_at_draw == [0] * 4


def test_falsify_stacks_trials_within_the_entry_budget(monkeypatch):
    sizes = []

    def tracked(*args, **kwargs):
        batch = random_algorithm(*args, **kwargs)
        sizes.append(len(batch))
        return batch

    monkeypatch.setattr(useless, "random_algorithm", tracked)
    # parity-4 at z_dim 4: d = 32 over 16 tables, so an algorithm holds
    # 32 * (32 + 1 + 32) entries and its run (32 + 32) * 16 more
    monkeypatch.setattr(qsim, "STACK_ENTRY_BUDGET", 7 * (32 * 65 + 64 * 16) + 1)
    problem = make_parity(4)
    assert stack_capacity(32, 1, 1, 32, problem.size) == 7
    report = quantum_useless_falsify(problem, queries=1, trials=50, seed=3, z_dim=4)
    assert sizes == [7] * 7 + [1]
    assert (report.max_deviation, report.detail["best"]) == per_algorithm_falsify(problem, 1, 50, 3, 4)
    # an extra batch is cut at the same capacity
    extra = random_algorithm(4, problem.group, 4, 1, trial_seeds(5, 10))
    report = quantum_useless_falsify(problem, 1, 0, 3, 4, extra_algorithms=[extra])
    assert report.trials == 10
    assert (report.max_deviation, report.detail["best"]) == per_algorithm_falsify(
        problem, 1, 0, 3, 4, list(extra)
    )


def test_falsify_refuses_an_extra_above_the_dimension_ceiling(monkeypatch):
    # the ceiling bounds every algorithm the falsifier simulates, not only
    # its random trials
    monkeypatch.setattr(useless, "MAX_DIM", 8)
    problem = make_parity(4)  # d = 8 at z_dim 1
    small = random_algorithm(4, problem.group, 1, 1, [3, 4])
    wide = random_algorithm(4, problem.group, 2, 1, 5)  # d = 16
    quantum_useless_falsify(problem, 1, 1, 0, extra_algorithms=[small])
    with pytest.raises(CapacityError, match=r"MAX_DIM=8 in Hilbert dimension: extra-2 \(d = 16\)$"):
        quantum_useless_falsify(problem, 1, 1, 0, extra_algorithms=[small, wide])


def test_a_stack_at_the_dimension_ceiling_holds_one_algorithm():
    # a 1-query random algorithm at MAX_DIM: one per stack over any number
    # of tables, so peak memory is what one algorithm needs; at half the
    # dimension several fit
    for n_tables in (1, 16, 2**10):
        assert stack_capacity(MAX_DIM, 1, 1, MAX_DIM, n_tables) == 1
    assert stack_capacity(MAX_DIM // 2, 1, 1, MAX_DIM // 2, 16) > 1
    assert stack_capacity(8, 1, 1, 8, 16) == qsim.STACK_ENTRY_BUDGET // (8 * 17 + 16 * 16)


def _mixed_extra(problem, queries, seed, rank=2):
    """A random algorithm whose initial state is a rank-``rank`` mixture."""
    alg = random_algorithm(problem.domain_size, problem.group, 1, queries, seed)
    vectors = np.stack([random_pure_state(alg.dim, seed + i)[1][:, 0] for i in range(rank)], 1)
    basis, _ = np.linalg.qr(vectors)
    state = (np.linspace(1, 2, rank) / np.linspace(1, 2, rank).sum(), basis)
    return QuantumAlgorithm(alg.x_dim, alg.group, 1, state, alg.unitaries, alg.povm)


@pytest.mark.parametrize("seed", [0, 5, 20100325])
def test_falsifier_matches_the_per_algorithm_loop(seed):
    # extras of mixed shapes, each run as its own batch, then the random
    # trials; a batch extra tags its algorithms in order
    parity2 = make_parity(2)
    extras = [
        random_algorithm(2, parity2.group, 1, 1, 3),
        random_algorithm(2, parity2.group, 1, 1, 4),
        _mixed_extra(parity2, 1, 5),
        _mixed_extra(parity2, 1, 6, rank=3),
        deutsch(),
        random_algorithm(2, parity2.group, 1, 1, 7),
    ]
    assert len({(alg.state[1].shape, alg.povm[0]) for alg in extras}) == 4
    batch = random_algorithm(2, parity2.group, 1, 1, [3, 4, 7])
    cases = [
        (parity2, 1, 20, 1, extras),
        (parity2, 1, 5, 1, [extras[2], batch, deutsch()]),
        (parity2, 1, 20, 1, extras[:4]),
        (make_parity(4), 1, 30, 2, [_mixed_extra(make_parity(4), 1, 8)]),
        (make_image_parity(), 1, 25, 1, ()),
        (make_shamir(5, 1), 1, 10, 2, ()),
    ]
    for problem, queries, trials, z_dim, extra in cases:
        report = quantum_useless_falsify(problem, queries, trials, seed, z_dim, extra)
        singles = [one for alg in extra for one in (alg if alg.batch_shape else [alg])]
        expected = per_algorithm_falsify(problem, queries, trials, seed, z_dim, singles)
        assert (report.max_deviation, report.detail["best"]) == expected


def test_falsifier_witness_of_tied_maxima_is_the_earliest_trial_then_outcome():
    # Deutsch's algorithm moves every outcome and part of parity-2 by 1/2:
    # the same maximum in every cell of every copy, within one stack and
    # across stacks split by an algorithm of another shape
    problem = make_parity(2)
    other = _mixed_extra(problem, 1, 2)
    for extras in ([deutsch(), deutsch()], [other, deutsch(), other, deutsch(), deutsch()]):
        report = quantum_useless_falsify(problem, 1, 3, 9, extra_algorithms=extras)
        first = next(i for i, alg in enumerate(extras) if alg.n_outcomes == 2)
        assert report.max_deviation == 0.5
        assert (report.witness["trial"], report.witness["outcome"]) == (first, 0)
        assert report.witness["part"] == problem.part_labels()[0]
        assert (report.max_deviation, report.witness) == per_algorithm_falsify(
            problem, 1, 3, 9, extra_algorithms=extras
        )


def test_report_csv_row():
    report = classical_useless(make_parity(4), 4)
    row = report.csv_row()
    assert row[0] == "parity-4"
    assert row[1] == "4"
    assert row[2] == VERDICT_NOT_USELESS
    assert ":" in row[4]
