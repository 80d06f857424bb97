"""Independent brute-force implementations used as test oracles.

Everything here favors the most literal possible computation over speed:
full transcript enumeration, explicit subset sums, direct character sums.
These must stay independent of the library code paths they check.
"""

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter

import numpy as np

from oraclelab.algebra import (
    TOL_NUM,
    as_complex_matrix,
    group_from_json,
    int_from_json,
    int_from_text,
    max_abs,
)
from oraclelab.polycompile import CompiledClassicalAlgorithm
from oraclelab.qsim import QuantumAlgorithm, outcome_posteriors, random_algorithm, trial_seeds


def naive_posterior(problem, transcript):
    """Condition on the transcript by filtering the class, no dedup tricks."""
    weights = {j: Fraction(0) for j in sorted(set(problem.labels))}
    total = Fraction(0)
    for f, j, w in zip(problem.functions, problem.labels, problem.prior):
        if all(f[x] == y for x, y in transcript):
            weights[j] += w
            total += w
    if total == 0:
        return None
    return {j: w / total for j, w in weights.items()}


def naive_classical_useless(problem, k):
    """Scan every raw transcript (x_1..x_k, y_1..y_k); returns (bool, witness)."""
    prior = {j: Fraction(0) for j in sorted(set(problem.labels))}
    for j, w in zip(problem.labels, problem.prior):
        prior[j] += w
    points = range(problem.domain_size)
    responses = range(problem.group.order)
    for xs in product(points, repeat=k):
        for ys in product(responses, repeat=k):
            transcript = list(zip(xs, ys))
            posterior = naive_posterior(problem, transcript)
            if posterior is None:
                continue
            for j in prior:
                if posterior[j] != prior[j]:
                    return False, transcript
    return True, None


def dict_loop_first_violation(problem, width):
    """(pairs, part) of the first event on ``width`` points moving a part, or None.

    One dict of group totals and one of (group, part) masses per point-set,
    filled row by row in Python ints over the prior's common denominator D;
    groups are visited in order of their first row, parts in label order.
    """
    if width == 0:
        return None  # the only event is the sure one, whose posterior is the prior
    scale = problem.scale
    rows = list(zip(problem.functions.tolist(), problem.labels.tolist(), problem.weights))
    part_weights = defaultdict(int)
    for _, j, w in rows:
        part_weights[j] += w
    for points in combinations(range(problem.domain_size), width):
        cut = itemgetter(*points)  # a bare response when width is 1
        totals, masses = defaultdict(int), defaultdict(int)
        for f, j, w in rows:
            key = cut(f)
            totals[key] += w
            masses[key, j] += w
        for key, total in totals.items():
            for j in sorted(part_weights):
                if masses.get((key, j), 0) * scale != part_weights[j] * total:
                    responses = key if width > 1 else (key,)
                    return list(zip(points, responses)), j
    return None


def upward_max_useless_k(problem):
    """Largest k for which k classical queries are useless, by the upward
    scan: a full check of k = 1, 2, ... in turn, each by the dict loop,
    until one is informative, or |X| when none is."""
    k = 0
    while k < problem.domain_size and dict_loop_first_violation(problem, k + 1) is None:
        k += 1
    return k


def brute_interp_coeffs(values):
    """Multilinear coefficients by the explicit inclusion-exclusion sum."""
    n = (len(values) - 1).bit_length()
    assert len(values) == 1 << n
    coeffs = []
    for s_mask in range(1 << n):
        total = 0.0
        for t_mask in range(1 << n):
            if t_mask & ~s_mask:
                continue
            sign = (-1) ** (bin(s_mask).count("1") - bin(t_mask).count("1"))
            total += sign * values[t_mask]
        coeffs.append(total)
    return coeffs


def brute_eval_01(coeffs, point):
    """Evaluate subset coefficients at a point (0/1, +/-1 or any reals)."""
    total = 0.0
    for mask, c in enumerate(coeffs):
        term = c
        for i in range(len(point)):
            if mask >> i & 1:
                term *= point[i]
        total += term
    return total


def naive_character_coeffs(q_values):
    """q-hat(S) = 2^-n sum_w q(w) w_S by direct summation, w = 2f - 1."""
    n = (len(q_values) - 1).bit_length()
    assert len(q_values) == 1 << n
    out = []
    for s_mask in range(1 << n):
        total = 0.0
        for f_mask in range(1 << n):
            w_s = 1
            for i in range(n):
                if s_mask >> i & 1:
                    w_s *= 2 * (f_mask >> i & 1) - 1
            total += q_values[f_mask] * w_s
        out.append(total / (1 << n))
    return out


def from_fourier(qhat_coeffs):
    """Subset coefficients of p(f) = (q(2f - 1) + 1)/2 from q's character
    coefficients: evaluate q at every +/-1 point, then interpolate."""
    n = (len(qhat_coeffs) - 1).bit_length()
    values = []
    for f_mask in range(1 << n):
        w = [2 * (f_mask >> i & 1) - 1 for i in range(n)]
        values.append((brute_eval_01(qhat_coeffs, w) + 1) / 2)
    return brute_interp_coeffs(values)


def compiled_from_json(data):
    """Rebuild a compiled sampler from its JSON form (subsets as index lists)."""
    terms = tuple(
        (sum(1 << i for i in term["S"]), float(term["prob"]), int(term["sign"]))
        for term in data["terms"]
    )
    return CompiledClassicalAlgorithm(
        n=int(data["n"]),
        queries=int(data["k"]),
        scale=float(data["T"]),
        terms=terms,
    )


def naive_output_prob(compiled, bits):
    """Probability the sampler outputs 0 on table ``bits``, term by term: the
    sum of ``prob`` over terms whose sign * prod_{i in S} (2 f_i - 1) is +1.
    A degenerate sampler asks nothing and flips a fair coin."""
    if compiled.degenerate:
        return 0.5
    total = 0.0
    for mask, prob, sign in compiled.terms:
        product = 1
        for i in range(compiled.n):
            if mask >> i & 1:
                product *= 2 * bits[i] - 1
        if sign * product == 1:
            total += prob
    return total


def poly_eval_mod(coeffs, x, p):
    return sum(a * pow(x, i, p) for i, a in enumerate(coeffs)) % p


def shamir_consistent_polys(p, k, shares):
    """All coefficient tuples of degree <= k passing through the shares."""
    return [
        coeffs
        for coeffs in product(range(p), repeat=k + 1)
        if all(poly_eval_mod(coeffs, x, p) == y for x, y in shares)
    ]


# Groups of order <= 64 exercised exhaustively for the group axioms.
CONFIGURED_GROUPS = [
    (2,),
    (3,),
    (5,),
    (2, 2),
    (2, 3),
    (4,),
    (2, 2, 2),
    (3, 3),
    (4, 4),
    (2, 3, 5),
    (8, 8),
]


def group_decode(factors, a):
    """Mixed-radix digits of element a, first factor most significant."""
    digits = []
    for m in reversed(factors):
        digits.append(a % m)
        a //= m
    return tuple(reversed(digits))


def group_encode(factors, digits):
    a = 0
    for d, m in zip(digits, factors):
        a = a * m + d
    return a


def group_add(factors, a, b):
    """a + b in Z_m1 x ... x Z_mr: add digit by digit modulo each factor."""
    digits = zip(group_decode(factors, a), group_decode(factors, b), factors)
    return group_encode(factors, [(x + y) % m for x, y, m in digits])


def dense_oracle_matrix(f, x_dim, group, z_dim):
    """Permutation matrix sending basis state (x, y, z) to (x, y + f(x), z)."""
    f = tuple(int(v) for v in f)
    assert len(f) == x_dim
    y_dim = group.order
    dim = x_dim * y_dim * z_dim
    m = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(x_dim):
        for y in range(y_dim):
            y_out = group_add(group.factors, y, f[x])
            for z in range(z_dim):
                m[(x * y_dim + y_out) * z_dim + z, (x * y_dim + y) * z_dim + z] = 1
    return m


def dense_run(alg, f, rho0, povm):
    """(final state, outcome probabilities) for one table by conjugating rho.

    ``rho0`` and ``povm`` are the dense initial state and POVM elements the
    caller built; only the dimensions and unitaries come from ``alg``, so
    a fault in how the algorithm factors its state or measurement cannot
    check against itself. Tr(rho Pi) is summed elementwise as
    sum_ij rho_ij Pi_ji, not by a matrix product, and clamped to [0, 1] as
    the simulator documents.
    """
    oracle = dense_oracle_matrix(f, alg.x_dim, alg.group, alg.z_dim)
    rho = rho0
    for u in alg.unitaries:
        rho = oracle @ rho @ oracle.conj().T
        rho = u @ rho @ u.conj().T
    probs = np.array([float(np.sum(rho * pi.T).real) for pi in povm])
    return rho, np.clip(probs, 0.0, 1.0)


def one_seed_state(dim, seed):
    """The unit vector one seed draws: its stream's real parts, then its
    imaginary parts, each by its own call, normalized in place."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v


def one_seed_unitary(dim, seed):
    """The unitary one seed draws, from one 2-d QR of its stream's
    Gaussians with the phases of R's diagonal divided out."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def one_seed_draw(dim, queries, seed):
    """The factor arrays of a seeded random algorithm, drawn matrix by matrix:
    [state weights, state vector, unitaries..., POVM columns...], each
    unitary from one 2-d QR of its own stream's Gaussians."""
    streams = [int(s) for s in np.random.SeedSequence(seed).generate_state(queries + 2)]
    unitaries = [one_seed_unitary(dim, s) for s in streams[1:]]
    basis = unitaries.pop()
    v = one_seed_state(dim, streams[0])
    return [np.ones(1), v[:, None], *unitaries, *(basis[:, [i]] for i in range(dim))]


def per_algorithm_falsify(problem, queries, trials, seed, z_dim=1, extra_algorithms=()):
    """(max_deviation, witness) of the falsifier, one algorithm at a time:
    the extras, then one seeded random algorithm per trial seed, each
    simulated alone. Of equal maxima the earliest trial wins, then its
    earliest outcome, then its earliest part."""
    parts = problem.part_labels()
    prior = np.array(problem.part_shares())
    tagged = [(f"extra-{i}", alg) for i, alg in enumerate(extra_algorithms)]
    for s in trial_seeds(seed, trials):
        tagged.append((f"seed-{s}", random_algorithm(problem.domain_size, problem.group, z_dim, queries, s)))
    max_deviation, witness = 0.0, None
    for trial, (tag, alg) in enumerate(tagged):
        outcome_probs, posteriors = outcome_posteriors(alg, problem)
        deviations = np.abs(posteriors - prior[:, None]).T  # outcome-major
        s, r = divmod(int(np.argmax(np.nan_to_num(deviations, nan=-1.0))), len(parts))
        if deviations[s, r] > max_deviation:
            max_deviation = float(deviations[s, r])
            witness = {
                "trial": trial,
                "algorithm": tag,
                "outcome": s,
                "outcome_probability": float(outcome_probs[s]),
                "part": parts[r],
                "posterior": float(posteriors[r, s]),
                "prior": float(prior[r]),
            }
    return max_deviation, witness


def trial_division_is_prime(n):
    """Primality by trying every divisor up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def dense_part_table(alg, problem, rho0, povm):
    """Pr[part j, outcome s] from one dense run per table, summed part by
    part in a Python loop; rows follow the sorted part labels."""
    parts = sorted(set(problem.labels))
    table = np.zeros((len(parts), len(povm)))
    for f, j, w in zip(problem.functions, problem.labels, problem.prior):
        table[parts.index(j)] += float(w) * dense_run(alg, f, rho0, povm)[1]
    return table


def per_entry_matrix(rows):
    """A JSON matrix read one ``complex(re, im)`` call per entry."""
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix JSON must be a non-empty list of rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ValueError("matrix JSON rows must be lists of equal length")
        width = len(row)
        out.append([complex(re, im) for re, im in row])
    return np.array(out, dtype=np.complex128)


def unitary_defect(u):
    """Max entrywise |U^H U - I| of one matrix."""
    u = np.asarray(u, dtype=np.complex128)
    return float(np.abs(u.conj().T @ u - np.eye(len(u))).max())


def per_matrix_factor(a, name):
    """(weights, vectors) of one dense Hermitian matrix from its own ``eigh``,
    with its Hermitian, eigenvalue and square checks, and eigenvalues at or
    below numpy's ``matrix_rank`` cutoff dropped."""
    a = as_complex_matrix(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    herm = max_abs(a - a.conj().T)
    if herm > TOL_NUM:
        raise ValueError(f"{name} is not Hermitian within {TOL_NUM:g}: max|A - A^H| = {herm:.3e}")
    weights, vectors = np.linalg.eigh((a + a.conj().T) / 2)
    if weights[0] < -TOL_NUM:
        raise ValueError(f"{name} has eigenvalue {weights[0]:.3e} below -{TOL_NUM:g}")
    cutoff = np.abs(weights).max() * len(a) * np.finfo(float).eps
    keep = np.abs(weights) > cutoff
    return weights[keep], vectors[:, keep]


def per_element_algorithm_from_json(data):
    """The dense JSON form read one matrix and one entry at a time: each
    POVM element parsed, factored and checked before the next is read."""
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, Mapping):
        raise ValueError(f"labels must map outcomes to parts, got {type(labels).__name__}")
    return QuantumAlgorithm(
        x_dim=int_from_json(data["x_dim"]),
        group=group_from_json(data["group"]),
        z_dim=int_from_json(data["z_dim"]),
        state=per_matrix_factor(per_entry_matrix(data["rho0"]), "density matrix"),
        unitaries=tuple(per_entry_matrix(u) for u in data["unitaries"]),
        povm=povm_of_blocks(_per_element_povm(data["povm"])),
        outcome_labels=None
        if labels is None
        else {int_from_text(s, "outcome label key"): j for s, j in labels.items()},
    )


def povm_of_blocks(blocks):
    """The POVM (ranks, B) of per-outcome factors B_s, each (..., d, r_s)."""
    blocks = list(blocks)
    return tuple(b.shape[-1] for b in blocks), np.concatenate(blocks or [np.empty((0, 0))], axis=-1)


def povm_blocks(povm):
    """The per-outcome factors B_s of a POVM (ranks, B): column blocks of B."""
    ranks, factor = povm
    return np.split(factor, np.cumsum(ranks)[:-1], axis=-1)


def _per_element_povm(elements):
    for i, element in enumerate(elements):
        weights, vectors = per_matrix_factor(per_entry_matrix(element), f"POVM element {i}")
        positive = weights > 0
        yield vectors[:, positive] * np.sqrt(weights[positive])
