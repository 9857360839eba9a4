#!/usr/bin/env python3
"""conescore benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/``. ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs the same jobs in-process, each once
untraced and once traced, and reports the per-layer metrics. The last
line of stdout is the result object; the line before it is the run's
record (environment, sizes and every operation). See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh interpreters timed for setup_s, after one untimed launch that may compile bytecode
SETUP_REPEATS = 5


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_package() -> None:
    init = ROOT / "src" / "conescore" / "__init__.py"
    if not init.is_file():
        _die(f"no conescore package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import conescore

    if Path(conescore.__file__).resolve() != init.resolve():
        _die(f"imported conescore from {conescore.__file__}, not from this checkout")


def _setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter that imports conescore.cli and exits."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import conescore.cli"], cwd=ROOT, env=env, capture_output=True, timeout=60)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            _die(f"importing conescore.cli failed: {proc.stderr.decode().strip()[-300:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _environment() -> dict:
    import numpy
    import scipy

    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "caches": caches,
        "l2": caches.get("L2"),
        "llc": caches[max(caches)] if caches else None,
    }


def _measure(workload, seconds: float) -> list:
    """Closed loop of whole rounds, at least one.

    A workload with a nominal ``round_s`` makes ``seconds // round_s``
    rounds; any other makes rounds until another one of average length
    would end past ``seconds``.
    """
    fixed = max(1, int(seconds // workload.round_s)) if workload.round_s else None
    ops, durations = [], []
    start = perf_counter()
    k = 0
    while True:
        t0 = perf_counter()
        ops.extend(workload.run_round(k))
        durations.append(perf_counter() - t0)
        k += 1
        if k == fixed or (fixed is None and perf_counter() - start + statistics.fmean(durations) > seconds):
            return ops


def _median_or_none(values):
    return statistics.median(values) if values else None


def _end_to_end(ops, setup_s: float, subprocess_peak: bool) -> dict:
    done = [op for op in ops if not op.failed] or ops
    who = resource.RUSAGE_CHILDREN if subprocess_peak else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(op.seconds for op in done), "s"),
        "items_per_s": (sum(op.items for op in done) / sum(op.seconds for op in done), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(ops, tracer) -> dict:
    traced = [op for op in ops if op.traced]
    n = max(1, len(traced))
    c = tracer.counts
    self_s = tracer.layer_self_seconds()
    overhead = statistics.median([op.seconds for op in traced]) - statistics.median([op.seconds for op in ops if op.traced is False])
    metrics = {
        "convexity.phi_evals": (c["convexity.phi_evals"] / n, "count"),
        "convexity.fd_traces": (c["convexity.fd_traces"] / n, "count"),
        "convexity.self_s": (self_s["convexity"] / n, "s"),
        "convexity.cases": (c["convexity.cases"] / n, "count"),
        "convexity.cases_failed": (c["convexity.cases_failed"] / n, "count"),
        "convexity.fd_converged_ratio": (c["convexity.fd_converged"] / max(1, c["convexity.fd_traces"]), "ratio"),
        "densities.combination_builds": (c["densities.combination_builds"] / n, "count"),
        "densities.eval_calls": (c["densities.eval_calls"] / n, "count"),
        "densities.eval_points": (c["densities.eval_points"] / n, "count"),
        "densities.self_s": (self_s["densities"] / n, "s"),
        "densities.mass_cache_hit_ratio": (c["densities.mass_hits"] / max(1, c["densities.mass_lookups"]), "ratio"),
        "pairing.nodes_for_calls": (c["pairing.nodes_for_calls"] / n, "count"),
        "pairing.nodes_built": (c["pairing.nodes_built"] / n, "count"),
        "pairing.max_nodes": (tracer.max_nodes, "count"),
        "pairing.node_bytes": (c["pairing.node_bytes"] / n, "B"),
        "pairing.self_s": (self_s["pairing"] / n, "s"),
        "pairing.refusals": (c["pairing.refusals"] / n, "count"),
        "rules.calls": (c["rules.calls"] / n, "count"),
        "rules.self_s": (self_s["rules"] / n, "s"),
        "cli.self_s": (self_s["cli"] / n, "s"),
        "cli.serialise_s": (tracer.span_seconds("cli.serialise") / n, "s"),
        "cli.out_bytes": (sum(op.out_bytes for op in traced) / n, "B"),
        "sampling.draws": (c["sampling.draws"] / n, "count"),
        "sampling.self_s": (self_s["sampling"] / n, "s"),
        "trace.overhead_s": (overhead, "s"),
        "fail_ratio": (sum(op.failed for op in ops) / len(ops), "ratio"),
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["certify", "score", "plane"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        _die("--seconds must be positive")

    _load_package()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup_s = None if args.trace else _setup_seconds(env)
    work = HERE / ".work"
    rundir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        ctx = workloads.Context(ROOT, args.seed, rundir, tracer)
        workload = workloads.WORKLOADS[args.workload](ctx)
        sizes = workload.prepare()
        ops = _measure(workload, args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if tracer is None:
        metrics = _end_to_end(ops, setup_s, workload.subprocess_peak)
    else:
        metrics = _per_layer(ops, tracer)
        tracer.save(work / f"spans-{args.workload}-seed{args.seed}.npz")
    completed = [op for op in ops if not op.failed]
    sizes["out_bytes_per_op"] = _median_or_none([op.out_bytes for op in completed if op.out_bytes])
    sizes["items_per_op"] = _median_or_none([op.items for op in completed])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "sizes": sizes,
        "op_samples": len(completed),
        "ops": [vars(op) for op in ops],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
