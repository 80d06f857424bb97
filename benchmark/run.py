"""oraclelab benchmark: time to exact certificates on four desk workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --all

One process, one client, closed loop: each operation starts when the
previous one returns. A run sets up SETUP_REPS times (fresh import of
oraclelab from ./src plus the workload's inputs), then repeats the
workload's pass until --seconds would be exceeded, checking every output.
The last stdout line is the JSON result; the lines before it name every
metric with its unit, the failures and the environment.

Times are host-normalised. On a shared 2-vCPU KVM guest the CPU speed
drifts by half over seconds to minutes, for all code alike, so a fixed
reference task (the probe) is timed between operations, and every set-up
and operation time is multiplied by PROBE_REF_S over the probe times
taken just before and after it. The metrics read seconds at the speed
where the probe takes PROBE_REF_S; the raw times are printed beside them.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; trace.overhead_s is the median over pairs of a traced pass minus
the untraced pass before it.

--all runs every workload in its own process, one after another, on the
development and the hold-out seed with tracing off and on, and writes the
results to benchmark/baseline.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
# Probe time on the defining host at its quiet speed. Only the scale of
# the metrics depends on it; both sides of a comparison share it.
PROBE_REF_S = 0.004
# Operations shorter than this share the probes around them.
PROBE_EVERY_S = 0.1
_PROBE_MATRIX = numpy.random.default_rng(0).standard_normal((40, 40))
_PROBE_MATRIX += _PROBE_MATRIX.T
DEV_SEED = 1
HOLDOUT_SEED = 2
MODULE_NAMES = ("algebra", "problems", "qsim", "useless", "polycompile", "gallery", "reproduce", "cli")


def fresh_import():
    """Import oraclelab from ./src anew, as a user's first command would."""
    for name in [m for m in sys.modules if m == "oraclelab" or m.startswith("oraclelab.")]:
        del sys.modules[name]
    package = importlib.import_module("oraclelab")
    if Path(package.__file__).resolve().parent != SRC / "oraclelab":
        raise ImportError(f"oraclelab imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"oraclelab.{name}") for name in MODULE_NAMES}
    return package, modules


def probe():
    """Seconds the reference task takes now: pure Python and a small LAPACK
    call, like the program's own mix. The least of three tries, so that a
    single interruption does not count as a slow host."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i % 7
        for _ in range(16):
            numpy.linalg.eigvalsh(_PROBE_MATRIX)
        best = min(best, time.perf_counter() - start)
    return best


def speed_scale(before, after):
    """Factor from raw seconds to seconds at the reference speed."""
    return PROBE_REF_S / math.sqrt(before * after)


def setup(workload, seed, scratch):
    """Returns the set-up time, raw and host-normalised, and its products."""
    before = probe()
    start = time.perf_counter()
    package, modules = fresh_import()
    ops = workload.build(types.SimpleNamespace(**modules), seed, scratch)
    elapsed = time.perf_counter() - start
    return (elapsed, elapsed * speed_scale(before, probe())), package, modules, ops


def run_pass(ops):
    """One pass: raw time of its operations, their host-normalised
    latencies, and the failures."""
    latencies, failures, pending = [], [], []
    last_probe = probe()
    last_probe_at = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            pending.append(time.perf_counter() - t0)
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        else:
            pending.append(time.perf_counter() - t0)
            if not op.check(out):
                failures.append(f"{op.name}: wrong answer")
        if i == len(ops) - 1 or time.perf_counter() - last_probe_at >= PROBE_EVERY_S:
            now = probe()
            scale = speed_scale(last_probe, now)
            latencies += [(raw, raw * scale) for raw in pending]
            pending, last_probe, last_probe_at = [], now, time.perf_counter()
    raw = sum(r for r, _ in latencies)
    return raw, [x for _, x in latencies], failures


def blas_info():
    name = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment():
    blas, threads = blas_info()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def measure(workload, seed, seconds, trace):
    """One run: repeated set-up, then passes until the time is spent."""
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as scratch:
        setups = []
        for _ in range(SETUP_REPS):
            elapsed, package, modules, ops = setup(workload, seed, scratch)
            setups.append(elapsed)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            missing = tracing.required_boundaries() - tracer.install(package, modules)
            if missing:
                raise SystemExit(f"traced run: boundaries not found: {sorted(missing)}")
            ops = workload.build(types.SimpleNamespace(**modules), seed, scratch)
            traced_setup = tracer.take()
            tracer.enable(False)
        deadline = time.perf_counter() + seconds
        plain, traced, failures = [], [], []
        while True:
            is_traced = trace and len(plain) > len(traced)
            if is_traced:
                tracer.enable()
            start = time.perf_counter()
            raw, latencies, failed = run_pass(ops)
            elapsed = time.perf_counter() - start
            failures += failed
            if is_traced:
                tracer.enable(False)
                traced.append((sum(latencies), tracer.take()))
            else:
                plain.append((raw, latencies))
            done = not trace or (plain and traced)
            if done and time.perf_counter() + elapsed > deadline:
                break
    attempted = len(ops) * (len(plain) + len(traced))
    result = {"setups": setups, "plain": plain, "failures": failures, "attempted": attempted}
    if trace:
        # Each traced pass follows an untraced one; pairing them keeps the
        # host's slow drift out of the difference.
        overhead = statistics.median(t - sum(p) for (t, _), (_, p) in zip(traced, plain))
        result["layers"] = tracing.layer_metrics(traced_setup, [s for _, s in traced], overhead)
        fired = set(traced_setup[0])
        for _, (stats, _) in traced:
            fired |= set(stats)
        result["silent"] = sorted(set(workload.expected) - fired)
    return result


def end_to_end(workload, result):
    walls = [sum(lat) for _, lat in result["plain"]]
    latencies = sorted(x for _, lat in result["plain"] for x in lat)
    p = workload.tail_percentile
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
    beyond = sum(x > tail for x in latencies)
    metrics = {
        "setup_s": (statistics.median(s for _, s in result["setups"]), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.tail": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "pass_walls_s": [round(w, 3) for w in walls],
        "raw_pass_walls_s": [round(w, 3) for w, _ in result["plain"]],
        "raw_setup_s": statistics.median(r for r, _ in result["setups"]),
        "ops_per_pass": len(result["plain"][0][1]),
        "tail_percentile": p,
        "latency_samples": len(latencies),
        "samples_beyond_tail": beyond,
    }
    return metrics, notes


def run_one(args):
    workload = WORKLOADS[args.workload]
    load_start = loadavg()
    result = measure(workload, args.seed, args.seconds, args.trace)
    load_end = loadavg()
    failed = len(result["failures"])
    if args.trace:
        metrics = result["layers"]
        notes = {"silent_boundaries": result["silent"]}
    else:
        metrics, notes = end_to_end(workload, result)
    notes["failed_frac"] = failed / result["attempted"]
    env = {**environment(), "loadavg_start": load_start, "loadavg_end": load_end}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ({workload.why})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:>14.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"env": env}))
    if args.trace and result["silent"]:
        print(f"traced run: boundaries with no calls: {result['silent']}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seconds):
    """Every workload on both seeds, traced and untraced, one process each."""
    runs = []
    for name in WORKLOADS:
        for seed in (DEV_SEED, HOLDOUT_SEED):
            for trace in (0, 1):
                argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                if proc.returncode != 0:
                    return proc.returncode
                lines = proc.stdout.strip().splitlines()
                env = json.loads(lines[-2])["env"]
                runs.append({"workload": name, "seed": seed, "trace": trace, "env": env,
                             **json.loads(lines[-1])})
    baseline = {"run_seconds": seconds, "runs": runs}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {HERE / 'baseline.json'}")
    return 0 if all(r["correct"] for r in runs) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="record the baseline of every workload")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not (SRC / "oraclelab" / "__init__.py").is_file():
        print(f"error: no oraclelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
