"""Per-layer tracing for the traced benchmark run.

The tracer wraps oraclelab's public functions and methods from outside the
package, so no source file changes. A span is one call of a wrapped
function; spans nest because the program runs on one thread, so a span's
self time is its duration minus the durations of the spans it called.
Stats are aggregated as calls return instead of storing every span: a
parity-7 scan makes ~10^5 calls, and only the per-boundary totals are
reported.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from statistics import median

MODULES = ("algebra", "problems", "qsim", "useless", "polycompile", "gallery", "reproduce", "cli")

# Helpers called once per group element, matrix entry or transcript: a span
# each would cost more than the work it measures and distort the parent.
HOT = {
    "algebra.FiniteAbelianGroup",
    "algebra.as_complex_matrix",
    "algebra.complex_to_json",
    "algebra.hermitian_part",
    "algebra.max_abs",
    "problems.LearningProblem.part_labels",
    "problems.is_prime",
    "qsim.basis_index",
}

# Boundaries reported with both an exact call count and self time.
CALLS_AND_SELF = (
    "problems.posterior_classical",
    "problems.event_indices",
    "useless.classical_useless",
    "useless.max_useless_k",
    "qsim.oracle_matrix",
    "qsim.run",
    "qsim.joint_distribution",
    "qsim.outcome_posteriors",
    "qsim.random_algorithm",
    "qsim.QuantumAlgorithm.init",
    "algebra.validate_povm",
    "algebra.validate_unitary",
    "useless.quantum_useless_falsify",
    "useless.lemma_check",
    "polycompile.acceptance_polynomial",
    "polycompile.compile_classical",
    "polycompile.classical_output_prob",
)

# Boundaries reported with self time only.
SELF_ONLY = (
    "qsim.success_probability",
    "algebra.validate_density_matrix",
    "algebra.random_unitary",
    "algebra.random_povm",
    "polycompile.interpolate_on_cube",
    "polycompile.to_fourier",
    "polycompile.walsh_hadamard",
    "polycompile.MultilinearPolynomial.values_on_cube",
    "polycompile.corollary5_audit",
    "gallery.entries",
    "gallery.pairwise_parity",
    "problems.make_parity",
    "problems.make_shamir",
    "cli.main",
)

CRITERION_TAGS = (
    "parity-classical",
    "parity-quantum",
    "parity-upper",
    "parity-barrier",
    "image-parity",
    "shamir",
    "degree-bound",
    "bias-identity",
    "ratio-audit",
    "determinism",
)

# Derived counters: (metric, unit, better).
DERIVED = (
    ("problems.posterior_classical.empty_frac", "frac", "lower"),
    ("qsim.max_dim", "count", "higher"),
    ("polycompile.acceptance_polynomial.tables", "count", "lower"),
    ("polycompile.compile_classical.terms_kept_frac", "frac", "lower"),
)


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in CALLS_AND_SELF:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    specs += list(DERIVED)
    specs += [(f"reproduce.criterion.{tag}.s", "s", "lower") for tag in CRITERION_TAGS]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _observe_posterior(extra, args, kwargs, result):
    if result is None:
        extra["problems.posterior_classical.empty"] += 1


def _observe_run(extra, args, kwargs, result):
    dim = (args[0] if args else kwargs["alg"]).dim
    extra["qsim.max_dim"] = max(extra["qsim.max_dim"], dim)


def _observe_acceptance(extra, args, kwargs, result):
    extra["polycompile.acceptance_polynomial.tables"] += 1 << result.n


def _observe_compile(extra, args, kwargs, result):
    extra["polycompile.compile_classical.terms_kept"] += len(result.terms)
    extra["polycompile.compile_classical.coefficients"] += 1 << result.n


OBSERVERS = {
    "problems.posterior_classical": _observe_posterior,
    "qsim.run": _observe_run,
    "polycompile.acceptance_polynomial": _observe_acceptance,
    "polycompile.compile_classical": _observe_compile,
}


class Tracer:
    """Call counts, total and self time per boundary, plus derived counters."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        # (owner, key, original, wrapped): owner is a module, class or list.
        self._bindings: list[tuple] = []

    def wrap(self, name, fn):
        stats, extra, stack = self.stats, self.extra, self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record = stats[name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(extra, args, kwargs, result)
            return result

        return traced

    def take(self) -> tuple[dict, dict]:
        """Stats and counters gathered since the last take; resets both."""
        stats = {name: tuple(rec) for name, rec in self.stats.items()}
        extra = dict(self.extra)
        self.stats.clear()
        self.extra.clear()
        return stats, extra

    def enable(self, on: bool = True) -> None:
        """Bind the wrappers (or restore the originals) at every name."""
        for owner, key, original, wrapped in self._bindings:
            value = wrapped if on else original
            if isinstance(owner, list):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self, package, modules) -> set[str]:
        """Wrap every public function and method at each name bound to it.

        ``from .x import f`` copies the binding, so after wrapping a function
        in its home module every module of the package is scanned for other
        names bound to the same object. Leaves the wrappers enabled and
        returns the boundary names wrapped.
        """
        wrapped: dict = {}
        names: set[str] = set()
        for short in MODULES:
            module = modules[short]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in HOT:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(name, obj)
                    names.add(name)
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if method.startswith("_") and method != "__post_init__":
                            continue
                        label = "init" if method == "__post_init__" else method
                        mname = f"{name}.{label}"
                        if mname in HOT:
                            continue
                        self._bindings.append((obj, method, fn, self.wrap(mname, fn)))
                        names.add(mname)
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._bindings.append((module, attr, obj, wrapped[obj]))
        # Criteria run from reproduce.CRITERIA; wrap the entries there so a
        # criterion's span is its whole cost, reruns by criterion 10 included.
        criteria = modules["reproduce"].CRITERIA
        for i, (cid, tag, fn) in enumerate(criteria):
            name = f"reproduce.criterion.{tag}"
            self._bindings.append((criteria, i, criteria[i], (cid, tag, self.wrap(name, fn))))
            names.add(name)
        self.enable()
        return names


def required_boundaries() -> set[str]:
    """Boundaries the per-layer metrics read; each must exist to be wrapped."""
    return (
        set(CALLS_AND_SELF)
        | set(SELF_ONLY)
        | {f"reproduce.criterion.{tag}" for tag in CRITERION_TAGS}
    )


def layer_metrics(setup: tuple[dict, dict], passes: list[tuple[dict, dict]], overhead_s: float):
    """Per-layer values: the traced set-up plus the median traced pass.

    Call counts and derived counters repeat exactly from pass to pass, since
    every pass runs the same operation list; times take the median.
    """

    def value(stats_extra, metric):
        stats, extra = stats_extra
        if metric == "problems.posterior_classical.empty_frac":
            calls = stats.get("problems.posterior_classical", (0,))[0]
            return extra.get("problems.posterior_classical.empty", 0) / calls if calls else 0.0
        if metric == "polycompile.compile_classical.terms_kept_frac":
            cells = extra.get("polycompile.compile_classical.coefficients", 0)
            return extra.get("polycompile.compile_classical.terms_kept", 0) / cells if cells else 0.0
        if metric in ("qsim.max_dim", "polycompile.acceptance_polynomial.tables"):
            return extra.get(metric, 0)
        if metric.startswith("reproduce.criterion."):
            return stats.get(metric[: -len(".s")], (0, 0.0, 0.0))[1]
        boundary, _, field = metric.rpartition(".")
        record = stats.get(boundary, (0, 0.0, 0.0))
        return record[0] if field == "calls" else record[2]

    out = {}
    for metric, unit, _ in layer_metric_specs():
        if metric == "trace.overhead_s":
            out[metric] = (overhead_s, unit)
            continue
        per_pass = median(value(p, metric) for p in passes)
        if metric == "qsim.max_dim":
            total = max(per_pass, value(setup, metric))
        elif metric.endswith("_frac"):
            total = per_pass
        else:
            total = value(setup, metric) + per_pass
        out[metric] = (int(total) if unit == "count" else total, unit)
    return out
