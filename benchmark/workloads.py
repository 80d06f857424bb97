"""The four desk workloads: inputs drawn from a seed, operations, known truths.

Each builder takes the freshly imported oraclelab modules, a seed and a
scratch directory, builds the inputs (problems, gallery entries, bare
algorithm JSON dicts) and returns the pass: a fixed list of operations.
The seed draws the inputs and the order; it never changes how many
operations of each size a pass holds, so the latency percentiles fall on
the same kind of operation under every seed.

An operation returns its output and a separate check compares the output
with a truth known without running the program (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from tracing import CRITERION_TAGS


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[Any, int, str], list[Op]]
    # Percentile reported as op_s.tail. Fixed per workload: high enough to
    # leave at least ten operations beyond it in a run of run_seconds, and
    # placed on a block of operations of about equal cost, so that noise
    # cannot swap which operation it reads.
    tail_percentile: int
    # Boundaries that must record calls in the traced run, set-up included.
    expected: tuple[str, ...]


def _shuffled_problem(lab, problem, rng: random.Random):
    """The same problem as a user file might hold it: bare JSON, rows and
    query points in a seeded order. Uselessness and success are invariant
    under both permutations, so the truths still hold."""
    data = lab.problems.problem_to_json(problem)
    rows = list(zip(data["functions"], data["labels"], data["prior"]))
    rng.shuffle(rows)
    points = list(range(data["domain_size"]))
    rng.shuffle(points)
    data["functions"] = [[f[x] for x in points] for f, _, _ in rows]
    data["labels"] = [j for _, j, _ in rows]
    data["prior"] = [w for _, _, w in rows]
    return lab.problems.problem_from_json(data, name=problem.name)


# ---------------------------------------------------------------------------
# classical-exact

# name -> largest useless k (the known truth): parity-N N-1, shamir-p-k k,
# image-parity 2.
CLASSICAL_TRUTH = {
    "parity-4": 3,
    "parity-5": 4,
    "parity-6": 5,
    "parity-7": 6,
    "image-parity": 2,
    "shamir-5-2": 2,
    "shamir-7-2": 2,
    "shamir-5-3": 3,
}

# name -> (k values checked, whether max_useless_k or quantum_lower_bound
# runs too). Every problem has its last useless k (a full scan) and its
# first informative k (an early exit with a witness). The pass is composed
# so that the median lands inside a block of equal-cost operations (the
# shamir-5-2 k=2 full scan on seven more presentations) and p86 inside
# another (the shamir-7-2 k=2 full scan on two presentations).
CLASSICAL_PLAN = {
    "parity-4": ((2, 3, 4), True),
    "parity-5": ((2, 3, 4, 5), True),
    "parity-6": ((2, 3, 4, 5, 6), False),
    "parity-7": ((6, 7), False),
    "image-parity": ((2, 3), True),
    "shamir-5-2": ((1, 3), True),
    "shamir-7-2": ((2, 3), True),
    "shamir-5-3": ((2, 3, 4), False),
}
# name -> number of further seeded presentations checked at k=2.
EXTRA_PRESENTATIONS = {"shamir-5-2": 7, "shamir-7-2": 1}


def _classical_problems(lab):
    pr = lab.problems
    return {
        "parity-4": pr.make_parity(4),
        "parity-5": pr.make_parity(5),
        "parity-6": pr.make_parity(6),
        "parity-7": pr.make_parity(7),
        "image-parity": pr.make_image_parity(),
        "shamir-5-2": pr.make_shamir(5, 2),
        "shamir-7-2": pr.make_shamir(7, 2),
        "shamir-5-3": pr.make_shamir(5, 3),
    }


def _classical_op(useless, name, problem, k, m) -> Op:
    expected = "useless" if k <= m else "not_useless"
    return Op(
        f"classical_useless {name} k={k}",
        lambda: useless.classical_useless(problem, k),
        lambda r: r.verdict == expected,
    )


def build_classical_exact(lab, seed: int, scratch: str) -> list[Op]:
    rng = random.Random(seed)
    useless = lab.useless
    ops = []
    for name, base in _classical_problems(lab).items():
        problem = _shuffled_problem(lab, base, rng)
        m = CLASSICAL_TRUTH[name]
        ks, sweep = CLASSICAL_PLAN[name]
        ops += [_classical_op(useless, name, problem, k, m) for k in ks]
        ops += [
            _classical_op(useless, name, _shuffled_problem(lab, base, rng), 2, m)
            for _ in range(EXTRA_PRESENTATIONS.get(name, 0))
        ]
        if not sweep:
            continue
        # Equal cost either way: the bound is max_useless_k plus one step.
        if rng.random() < 0.5:
            ops.append(
                Op(
                    f"max_useless_k {name}",
                    lambda p=problem: useless.max_useless_k(p),
                    lambda r, m=m: r == m,
                )
            )
        else:
            ops.append(
                Op(
                    f"quantum_lower_bound {name}",
                    lambda p=problem: useless.quantum_lower_bound(p),
                    lambda r, m=m: r == m // 2 + 1,
                )
            )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# quantum-sample


def build_quantum_sample(lab, seed: int, scratch: str) -> list[Op]:
    rng = random.Random(seed)
    useless, qsim = lab.useless, lab.qsim
    gallery = lab.gallery.entries()
    parity4 = _shuffled_problem(lab, lab.problems.make_parity(4), rng)
    image = _shuffled_problem(lab, lab.problems.make_image_parity(), rng)
    shamir51 = _shuffled_problem(lab, lab.problems.make_shamir(5, 1), rng)
    pp4 = gallery["pairwise-parity-4"].algorithm
    ops = []

    def covered(r):
        # q <= floor(m/2): the classical certificate proves q queries useless.
        return r.verdict == "useless" and r.max_deviation < 1e-8

    # (problem, z_dim, trials); Hilbert dimension |X||Y| z_dim. The pass is
    # composed so that the median lands inside the block of four z=4
    # falsifier runs on parity-4 (two here, two with the pairwise solver
    # below) and p88 on the z=12 pair on parity-4.
    for problem, z, trials in (
        (image, 12, 1),
        (image, 8, 2),
        (image, 4, 4),
        (parity4, 12, 1),
        (parity4, 8, 2),
        (parity4, 4, 4),
        (parity4, 4, 4),
        (parity4, 1, 10),
    ):
        s = rng.randrange(2**31)
        ops.append(
            Op(
                f"quantum_useless_falsify {problem.name} q=1 z={z}",
                lambda p=problem, z=z, t=trials, s=s: useless.quantum_useless_falsify(
                    p, queries=1, trials=t, seed=s, z_dim=z
                ),
                covered,
            )
        )
    # Two queries solve parity-4 exactly (pairwise kickback), so with that
    # solver among the trials the posterior moves from 1/2 to 1.
    for z, trials in ((8, 2), (4, 4), (4, 4)):
        s = rng.randrange(2**31)
        ops.append(
            Op(
                f"quantum_useless_falsify parity-4 q=2 z={z} +pairwise",
                lambda z=z, t=trials, s=s: useless.quantum_useless_falsify(
                    parity4, queries=2, trials=t, seed=s, z_dim=z, extra_algorithms=(pp4,)
                ),
                lambda r: r.verdict == "not_useless" and abs(r.max_deviation - 0.5) < 1e-9,
            )
        )
    # One quantum query on a degree-1 sharing is not useless: querying
    # sum_x |x>|chi_{1/x}> puts the secret in the relative phases.
    s = rng.randrange(2**31)
    ops.append(
        Op(
            "quantum_useless_falsify shamir-5-1 q=1 z=2",
            lambda s=s: useless.quantum_useless_falsify(shamir51, queries=1, trials=3, seed=s, z_dim=2),
            lambda r: r.verdict == "not_useless" and r.max_deviation > 1e-3,
        )
    )
    # State-mixture identity: exact when 2q classical queries are useless.
    for problem, z in ((image, 8), (image, 4), (parity4, 12), (parity4, 8), (parity4, 4)):
        s = rng.randrange(2**31)
        ops.append(
            Op(
                f"lemma_check {problem.name} q=1 z={z}",
                lambda p=problem, z=z, s=s: useless.lemma_check(
                    p, qsim.random_algorithm(p.domain_size, p.group, z, 1, s)
                ),
                lambda dev: dev < 1e-9,
            )
        )
    # One query on parity-4 succeeds with probability exactly 1/2.
    for z in (8, 4, 2):
        s = rng.randrange(2**31)
        ops.append(
            Op(
                f"success_probability parity-4 random q=1 z={z}",
                lambda z=z, s=s: qsim.success_probability(
                    qsim.random_algorithm(4, parity4.group, z, 1, s, labels_cycle=(0, 1)), parity4
                ),
                lambda p: abs(p - 0.5) < 1e-8,
            )
        )
    # Gallery solvers are exact.
    solvers = [(name, e.algorithm, e.problem) for name, e in gallery.items()]
    solvers.append(("pairwise-parity-8", lab.gallery.pairwise_parity(8), lab.problems.make_parity(8)))
    for name, alg, problem in solvers:
        problem = _shuffled_problem(lab, problem, rng)
        ops.append(
            Op(
                f"success_probability {name}",
                lambda a=alg, p=problem: qsim.success_probability(a, p),
                lambda p: abs(p - 1.0) < 1e-9,
            )
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# compile-cube


def _compile_op(lab, name: str, alg_json: dict, problem, accept, claim: str) -> Op:
    """What `oraclelab compile --certificate` does, plus the ratio audit.

    ``claim`` is "holds" when 2q classical queries on the parity problem are
    useless (2q <= n-1), "violated" for an exact parity solver.
    """
    qsim, poly = lab.qsim, lab.polycompile

    def run():
        alg = qsim.algorithm_from_json(alg_json)
        compiled = poly.compile_classical(alg, accept)
        values = poly.acceptance_polynomial(alg, accept).values_on_cube()
        probs = [
            poly.classical_output_prob(compiled, [mask >> i & 1 for i in range(compiled.n)])
            for mask in range(1 << compiled.n)
        ]
        audit = poly.corollary5_audit(problem, alg, accept, check_classical=False)
        return compiled, values, probs, audit

    def check(out) -> bool:
        compiled, values, probs, audit = out
        if compiled.degenerate:
            bias_ok = all(p == 0.5 for p in probs)
        else:
            norm = abs(sum(t[1] for t in compiled.terms) - 1.0)
            bias = max(
                abs(p - ((v - 0.5) / compiled.scale + 0.5)) for p, v in zip(probs, values)
            )
            bias_ok = norm < 1e-10 and bias < 1e-9
        if claim == "holds":
            audit_ok = not audit.defined or audit.deviation < 1e-8
        else:
            audit_ok = audit.defined and abs(audit.deviation - 0.5) < 1e-9
        return bias_ok and audit_ok

    return Op(name, run, check)


# (n, queries, copies) of random algorithms per pass; 2q <= n-1 throughout,
# so the ratio identity is a theorem on every one of them. The seven n=6
# q=1 copies hold the median and the five n=8 q=1 copies hold p78.
COMPILE_RANDOM = (
    (10, 1, 1),
    (10, 2, 1),
    (9, 1, 1),
    (9, 2, 1),
    (8, 1, 5),
    (8, 2, 1),
    (7, 1, 1),
    (7, 2, 1),
    (6, 1, 7),
    (6, 2, 2),
    (5, 1, 3),
    (5, 2, 3),
    (4, 1, 4),
)


def build_compile_cube(lab, seed: int, scratch: str) -> list[Op]:
    rng = random.Random(seed)
    qsim, problems = lab.qsim, lab.problems
    parity = {n: _shuffled_problem(lab, problems.make_parity(n), rng) for n in range(4, 11)}
    ops = []
    for n, q, copies in COMPILE_RANDOM:
        for _ in range(copies):
            alg = qsim.random_algorithm(n, parity[n].group, 1, q, rng.randrange(2**31))
            accept = [s for s in range(alg.n_outcomes) if s % 2 == 0]
            ops.append(
                _compile_op(
                    lab, f"compile random n={n} q={q}", qsim.algorithm_to_json(alg),
                    parity[n], accept, "holds",
                )
            )
    for n in (4, 6, 8):
        alg_json = qsim.algorithm_to_json(lab.gallery.pairwise_parity(n))
        ops.append(
            _compile_op(lab, f"compile pairwise-parity-{n}", alg_json, parity[n], [0], "violated")
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-session


def build_cli_session(lab, seed: int, scratch: str) -> list[Op]:
    rng = random.Random(seed)
    qsim, problems = lab.qsim, lab.problems
    repro_seed, rerun_seed = rng.randrange(2**31), rng.randrange(2**31)
    quantum_seeds = [rng.randrange(2**31) for _ in range(3)]

    def write_alg(filename, n, queries):
        alg = qsim.random_algorithm(n, problems.make_parity(n).group, 1, queries, rng.randrange(2**31))
        path = os.path.join(scratch, filename)
        with open(path, "w") as fh:
            json.dump(qsim.algorithm_to_json(alg), fh)
        return path

    compile_alg = write_alg("compile-alg.json", 8, 1)
    oracle = ",".join(str(rng.randrange(2)) for _ in range(8))
    audit_alg = write_alg("audit-alg.json", 6, 1)
    accept = ",".join(str(s) for s in range(0, 12, 2))

    def out(name):
        return os.path.join(scratch, name)

    argvs = [
        ["reproduce", "--seed", str(repro_seed), "--out", out("reproduce.json")],
        *(
            ["reproduce", "--seed", str(repro_seed), "--only", tag, "--out", out(f"only-{tag}.json")]
            for tag in CRITERION_TAGS
        ),
        # The sampled criterion again under a second seed.
        ["reproduce", "--seed", str(rerun_seed), "--only", "parity-quantum", "--out",
         out("rerun-parity-quantum.json")],
        # Both full scans end in "useless" (exit 0) at about the same cost.
        rng.choice(
            [
                ["check-classical", "--gen", "parity", "--n", "6", "--k", "5"],
                ["check-classical", "--gen", "shamir", "--p", "7", "--degree", "2", "--k", "2"],
            ]
        )
        + ["--out", out("classical.json"), "--csv", out("classical.csv")],
        # The falsifier is a sampler, so a user runs it under several seeds.
        *(
            ["check-quantum", "--gen", "image-parity", "--queries", "1", "--trials", "20",
             "--seed", str(seed), "--out", out(f"quantum-{seed}.json")]
            for seed in quantum_seeds
        ),
        ["bound", "--gen", "shamir", "--p", "7", "--degree", "2", "--out", out("bound.json")],
        ["simulate", "--alg", compile_alg, "--oracle", oracle, "--out", out("simulate.json")],
        ["compile", "--alg", compile_alg, "--accept", accept, "--out", out("compiled.json"),
         "--certificate", out("certificate.csv")],
        ["audit", "--gen", "parity", "--n", "6", "--alg", audit_alg, "--accept", accept,
         "--out", out("audit.json")],
    ]

    def cli_op(argv):
        def run():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return lab.cli.main(argv)

        label = argv[0] if "--only" not in argv else f"{argv[0]} --only {argv[argv.index('--only') + 1]}"
        return Op(f"cli {label}", run, lambda code: code == 0)

    # Twenty calls: the median falls inside the three check-quantum calls
    # and p80 inside the two parity-quantum criterion runs; no other call
    # costs within 15% of either block.
    ops = [cli_op(argv) for argv in argvs]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classical-exact",
            "exact classical scans: full scans ending useless and early exits ending in a witness",
            build_classical_exact,
            tail_percentile=86,
            expected=(
                "problems.posterior_classical", "problems.event_indices",
                "useless.classical_useless", "useless.max_useless_k",
                "problems.make_parity", "problems.make_shamir",
            ),
        ),
        Workload(
            "quantum-sample",
            "few functions against large Hilbert dimensions and a new random algorithm per trial",
            build_quantum_sample,
            tail_percentile=88,
            expected=(
                "qsim.oracle_matrix", "qsim.run", "qsim.joint_distribution",
                "qsim.outcome_posteriors", "qsim.success_probability", "qsim.random_algorithm",
                "qsim.QuantumAlgorithm.init", "algebra.validate_povm", "algebra.validate_unitary",
                "algebra.validate_density_matrix", "algebra.random_unitary", "algebra.random_povm",
                "useless.quantum_useless_falsify", "useless.lemma_check",
                "gallery.entries", "gallery.pairwise_parity", "problems.make_parity",
                "problems.make_shamir",
            ),
        ),
        Workload(
            "compile-cube",
            "one small-dimension algorithm against all 2^n oracle tables, compiled to a sampler",
            build_compile_cube,
            tail_percentile=78,
            expected=(
                "qsim.oracle_matrix", "qsim.run", "polycompile.acceptance_polynomial",
                "polycompile.compile_classical", "polycompile.interpolate_on_cube",
                "polycompile.to_fourier", "polycompile.walsh_hadamard",
                "polycompile.MultilinearPolynomial.values_on_cube",
                "polycompile.classical_output_prob", "polycompile.corollary5_audit",
                "gallery.pairwise_parity", "problems.make_parity",
            ),
        ),
        Workload(
            "cli-session",
            "in-process CLI calls: reproduce in full and per criterion plus each checker subcommand",
            build_cli_session,
            tail_percentile=80,
            expected=(
                "cli.main", "useless.classical_useless", "useless.max_useless_k", "problems.make_parity",
                *(f"reproduce.criterion.{tag}" for tag in CRITERION_TAGS),
            ),
        ),
    )
}
