"""One integer rule, ``algebra.int_from_json``, at every entry point that
reads an integer: 3, 3.0, numpy integers and ints past int64 pass; bools,
fractions, None and strings are refused by name, never truncated."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from oraclelab.algebra import (
    FiniteAbelianGroup,
    cyclic,
    int_from_json,
    random_povm,
    random_pure_state,
    random_unitary,
    validate_povm,
)
from oraclelab.errors import CapacityError
from oraclelab.gallery import deutsch, pairwise_parity, parity_with_padding
from oraclelab.polycompile import (
    CompiledClassicalAlgorithm,
    classical_output_prob,
    compile_classical,
    compiled_to_json,
)
from oraclelab.problems import (
    LearningProblem,
    event_indices,
    is_prime,
    make_parity,
    make_shamir,
    problem_to_json,
    shamir_reconstruct,
)
from oraclelab.qsim import algorithm_to_json, random_algorithm, trial_seeds
from oraclelab.useless import classical_useless, quantum_useless_falsify

VALUES = [3, 3.0, np.int64(3), 2**65, True, 2.5, None, "3"]
HALF = (Fraction(1, 2),) * 2
BIG_PRIME = 2**66 + 9  # share points and values up to 2^65 are in range
BIG_CLASS = LearningProblem(1, cyclic(2**66), ((3,), (2**65,)), (0, 1), HALF)
FOUR_OUTCOMES = random_algorithm(2, cyclic(2), 1, 1, 7)  # d = 4, one outcome per dimension
SAMPLER = compile_classical(FOUR_OUTCOMES, [0, 2])
THREE_POINTS = random_algorithm(3, cyclic(2), 1, 0, 5)  # x_dim 3
THREE_WORKSPACE = random_algorithm(1, cyclic(2), 3, 0, 5)  # z_dim 3


def _problem_text(problem):
    return json.dumps(problem_to_json(problem))


def _algorithm_text(alg):
    return json.dumps(algorithm_to_json(alg))


def _compiled_text(compiled):
    return json.dumps(compiled_to_json(compiled))


def _bytes(arrays):
    """A draw's arrays as bytes, which compare by value."""
    return [a.tobytes() for a in arrays]


def _povm_bytes(povm):
    """A POVM's ranks, and its factor as bytes."""
    ranks, factor = povm
    return ranks, factor.tobytes()


# Each reads one integer v; where 3 or 2^65 is outside its range it raises
# a range error, which is not the rule's.
ENTRY_POINTS = {
    "cyclic": lambda v: cyclic(v),
    "group factor": lambda v: FiniteAbelianGroup((2, v)),
    "table value": lambda v: LearningProblem(
        1, cyclic(2**66), ((0,), (v,)), (0, 1), HALF
    ).functions.tolist(),
    "label": lambda v: LearningProblem(1, cyclic(2), ((0,), (1,)), (0, v), HALF).part_labels(),
    "query point": lambda v: event_indices(make_parity(4), [(v, 1)]),
    "response": lambda v: event_indices(BIG_CLASS, [(0, v)]),
    "share point": lambda v: shamir_reconstruct(BIG_PRIME, 1, [(v, 4), (1, 5)]),
    "share value": lambda v: shamir_reconstruct(BIG_PRIME, 1, [(1, v), (2, 5)]),
    "reconstruct p": lambda v: shamir_reconstruct(v, 1, [(1, 2), (2, 1)]),
    "reconstruct k": lambda v: shamir_reconstruct(BIG_PRIME, v, [(x, 7 * x) for x in (1, 2, 3, 4)]),
    "is_prime n": lambda v: is_prime(v),
    "outcome": lambda v: dataclasses.replace(FOUR_OUTCOMES, outcome_labels={v: 0}).outcome_labels,
    "outcome label": lambda v: dataclasses.replace(deutsch(), outcome_labels={0: v}).outcome_labels,
    "labels_cycle": lambda v: random_algorithm(
        1, cyclic(2), 1, 0, 1, labels_cycle=(v, 0)
    ).outcome_labels,
    "accept outcome": lambda v: compile_classical(FOUR_OUTCOMES, [v]).terms,
    "table bit": lambda v: classical_output_prob(SAMPLER, [v, 1]),
    "classical_useless k": lambda v: dataclasses.asdict(classical_useless(make_parity(4), v)),
    "falsifier seed": lambda v: dataclasses.asdict(quantum_useless_falsify(make_parity(2), 1, 1, v)),
    "unitary dim": lambda v: _bytes([random_unitary(v, 1)]),
    "unitary seed": lambda v: _bytes([random_unitary(2, v)]),
    "povm dim": lambda v: _povm_bytes(random_povm(v, 1, 1)),
    "povm n_outcomes": lambda v: _povm_bytes(random_povm(3, v, 1)),
    "povm seed": lambda v: _povm_bytes(random_povm(2, 2, v)),
    "povm rank": lambda v: _povm_bytes(validate_povm((v, 1), np.eye(4))),
    "state dim": lambda v: _bytes(random_pure_state(v, 1)),
    "state seed": lambda v: _bytes(random_pure_state(2, [0, v])),
}

# Size parameters, compared as written JSON so that a kept 3.0 or True
# shows; 2^65 may also exceed a capacity ceiling.
SIZES = {
    "domain_size": lambda v: _problem_text(
        LearningProblem(v, cyclic(2), ((0, 1, 0),), (0,), (Fraction(1),))
    ),
    "x_dim": lambda v: _algorithm_text(dataclasses.replace(THREE_POINTS, x_dim=v)),
    "z_dim": lambda v: _algorithm_text(dataclasses.replace(THREE_WORKSPACE, z_dim=v)),
    "parity n": lambda v: _problem_text(make_parity(v)),
    "shamir p": lambda v: _problem_text(make_shamir(v, 1)),
    "shamir k": lambda v: _problem_text(make_shamir(5, v)),
    "random x_dim": lambda v: _algorithm_text(random_algorithm(v, cyclic(2), 1, 0, 1)),
    "random z_dim": lambda v: _algorithm_text(random_algorithm(1, cyclic(2), v, 0, 1)),
    "random queries": lambda v: _algorithm_text(random_algorithm(1, cyclic(2), 1, v, 1)),
    "random seed": lambda v: _algorithm_text(random_algorithm(1, cyclic(2), 1, 0, v)),
    "sampler n": lambda v: _compiled_text(CompiledClassicalAlgorithm(v, 1, 1.0, ((1, 1.0, 1),))),
    "sampler queries": lambda v: _compiled_text(
        CompiledClassicalAlgorithm(3, v, 1.0, ((0b11, 1.0, 1),))
    ),
    "sampler mask": lambda v: _compiled_text(CompiledClassicalAlgorithm(2, 1, 1.0, ((v, 1.0, 1),))),
    "sampler sign": lambda v: _compiled_text(CompiledClassicalAlgorithm(2, 1, 1.0, ((1, 1.0, v),))),
    "pairwise_parity n": lambda v: _algorithm_text(pairwise_parity(v)),
    "parity_with_padding n": lambda v: [
        _problem_text(parity_with_padding(v)[0]),
        _algorithm_text(parity_with_padding(v)[1]),
    ],
}


def _rule_accepts(value) -> bool:
    try:
        int_from_json(value)
    except ValueError:
        return False
    return True


def test_the_rule():
    assert is_prime(BIG_PRIME)
    for value in (3, 3.0, np.int64(3), np.uint64(3), 2**65, -2.0):
        assert type(int_from_json(value)) is int and int_from_json(value) == value
    for value in (True, np.bool_(True), 2.5, float("nan"), float("inf"), None, "3", [3]):
        with pytest.raises(ValueError, match=f"expected an integer, got {re.escape(repr(value))}"):
            int_from_json(value)


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize(
    "entry", [*ENTRY_POINTS.values(), *SIZES.values()], ids=[*ENTRY_POINTS, *SIZES]
)
def test_every_entry_point_reads_integers_by_the_rule(entry, value):
    try:
        result = entry(value)
    except ValueError as exc:
        refused = "expected an integer" in str(exc)
        assert not refused or f"got {value!r}" in str(exc)
    except CapacityError:
        assert value == 2**65 and entry in SIZES.values()
        refused = False
    else:
        refused = False
        assert result == entry(int(value))
    assert refused != _rule_accepts(value)


@pytest.mark.parametrize(
    "read, value",
    [
        (lambda: cyclic(2.7), 2.7),
        (lambda: event_indices(make_parity(3), [(0.5, 1)]), 0.5),
        (lambda: shamir_reconstruct(5, 1, [(1.5, 2), (2, 3)]), 1.5),
        (lambda: dataclasses.replace(deutsch(), outcome_labels={0: 1.7, 1: 0}), 1.7),
        (lambda: random_algorithm(1, cyclic(2), 1, 0, 1, labels_cycle=(0.5, 1)), 0.5),
        (lambda: compile_classical(deutsch(), [0.9]), 0.9),
        (lambda: classical_output_prob(compile_classical(deutsch(), [0]), [0.9, 1]), 0.9),
        (lambda: LearningProblem(1, cyclic(2**70), ((2**65,), (1.5,)), (0, 1), HALF), 1.5),
        (lambda: LearningProblem(1, cyclic(2), ((0,), (1,)), (2**65, 1.5), HALF), 1.5),
        (lambda: LearningProblem(1, cyclic(2), ((True,), (0,)), (0, 1), HALF), True),
        (lambda: trial_seeds(True, 2), True),
        (lambda: trial_seeds(2, 2.5), 2.5),
        (lambda: classical_useless(make_parity(2), 2.5), 2.5),
        (lambda: CompiledClassicalAlgorithm(True, 1, 1.0, ((1, 1.0, 1),)), True),
        (lambda: CompiledClassicalAlgorithm(2, 0.5, 1.0, ((1, 1.0, 1),)), 0.5),
        (lambda: CompiledClassicalAlgorithm(2, 1, 1.0, ((True, 1.0, 1),)), True),
        (lambda: CompiledClassicalAlgorithm(2, 1, 1.0, ((1, 1.0, True),)), True),
        (lambda: pairwise_parity("4"), "4"),
        (lambda: parity_with_padding(3.5), 3.5),
        (lambda: validate_povm((1.5, 2.5), np.eye(4)), 1.5),
    ],
    ids=[
        "cyclic",
        "query point",
        "share point",
        "outcome label",
        "labels_cycle",
        "accept outcome",
        "table bit",
        "table value",
        "label",
        "bool in table",
        "trial seed",
        "trial count",
        "classical k",
        "sampler n",
        "sampler queries",
        "sampler mask",
        "sampler sign",
        "pairwise_parity n",
        "parity_with_padding n",
        "povm rank",
    ],
)
def test_non_integers_are_refused_not_truncated(read, value):
    with pytest.raises(ValueError, match=f"expected an integer, got {re.escape(repr(value))}"):
        read()


def test_whole_floats_are_read_as_the_integers_they_name():
    # in the sampler a float would reach a bit shift and a popcount
    floats = CompiledClassicalAlgorithm(2.0, 1.0, 1.0, ((1.0, 1.0, -1.0),))
    ints = CompiledClassicalAlgorithm(2, 1, 1.0, ((1, 1.0, -1),))
    assert _compiled_text(floats) == _compiled_text(ints)
    assert _algorithm_text(pairwise_parity(4.0)) == _algorithm_text(pairwise_parity(4))


@pytest.mark.parametrize("value", [2.5, True, None, "3"], ids=repr)
@pytest.mark.parametrize("name", ["queries", "trials", "z_dim"])
def test_the_falsifier_refuses_non_integer_counts(name, value):
    # refused values only: an accepted 2^65 queries or trials would start
    # unbounded work
    args = {"queries": 1, "trials": 1, "seed": 0, "z_dim": 1, name: value}
    with pytest.raises(ValueError, match=f"expected an integer, got {re.escape(repr(value))}"):
        quantum_useless_falsify(make_parity(2), **args)
