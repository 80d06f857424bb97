"""Desk-scale laboratory for oracle learning problems.

Simulates k-query quantum algorithms against finite function classes,
decides classical query-uselessness exactly, derives quantum query lower
bounds from it, and compiles Boolean-oracle quantum algorithms into
bias-equivalent classical subset samplers.
"""

__version__ = "0.1.0"

from .algebra import FiniteAbelianGroup, cyclic, random_povm, random_unitary
from .errors import CapacityError
from .gallery import deutsch, pairwise_parity, parity_with_padding
from .polycompile import (
    CompiledClassicalAlgorithm,
    MultilinearPolynomial,
    acceptance_polynomial,
    classical_output_prob,
    compile_classical,
    corollary5_audit,
    to_fourier,
)
from .problems import (
    LearningProblem,
    make_image_parity,
    make_parity,
    make_shamir,
    posterior_classical,
    shamir_reconstruct,
)
from .qsim import (
    QuantumAlgorithm,
    RunResult,
    joint_distribution,
    oracle_matrix,
    posterior_quantum,
    random_algorithm,
    run,
    success_probability,
)
from .useless import (
    UselessnessReport,
    classical_useless,
    lemma_check,
    max_useless_k,
    quantum_lower_bound,
    quantum_useless_falsify,
)

__all__ = [
    "CapacityError",
    "CompiledClassicalAlgorithm",
    "FiniteAbelianGroup",
    "LearningProblem",
    "MultilinearPolynomial",
    "QuantumAlgorithm",
    "RunResult",
    "UselessnessReport",
    "acceptance_polynomial",
    "classical_output_prob",
    "classical_useless",
    "compile_classical",
    "corollary5_audit",
    "cyclic",
    "deutsch",
    "joint_distribution",
    "lemma_check",
    "make_image_parity",
    "make_parity",
    "make_shamir",
    "max_useless_k",
    "oracle_matrix",
    "pairwise_parity",
    "parity_with_padding",
    "posterior_classical",
    "posterior_quantum",
    "quantum_lower_bound",
    "quantum_useless_falsify",
    "random_algorithm",
    "random_povm",
    "random_unitary",
    "run",
    "shamir_reconstruct",
    "success_probability",
    "to_fourier",
]
