"""Run one workload in a fresh process and print its report as one JSON line.

    python3 perfbench/worker.py --workload runs --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --workload runs --seed 1 --setup-only

``run.py`` starts this script with ``src`` on ``PYTHONPATH``; it refuses a
``lyapqubit`` imported from anywhere else. Set-up is timed from before
``import lyapqubit`` to the end of building the seeded inputs. The timed
phase repeats passes over the workload's fixed operation list (closed loop:
each operation starts when the previous one returns) until ``--seconds``
have elapsed, always finishing the pass in progress. Every pass starts from
a full garbage collection, so the collector's pauses fall on the same
operations in every pass. ``wall_s`` is the sum over the operation list of
each operation's best time over the passes, and the operation percentiles
use the same best times; ``fastest_pass_s`` in the detail line is the
fastest whole pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from metrics import KERNELS, TRACED, WORKLOADS

#: Tail percentiles, in parts per 100000, from which the highest with at
#: least ten operations beyond it is reported.
TAIL_LADDER = (50_000, 75_000, 90_000, 95_000, 99_000, 99_500, 99_900, 99_950, 99_990, 99_995, 99_999)


@dataclass
class Pass:
    wall_s: float
    call_s: list[float]  # wall time of each call in the workload's operation list
    digest: str
    attempted: int
    failed: int
    layers: dict | None


def _one_pass(work, figures, tracer) -> Pass:
    # With the collector in the same state at the start of every pass, the
    # identical work of each pass triggers its collections (generation 2
    # included) during the same operations, so they stay in each operation's
    # best time instead of moving between operations from pass to pass.
    gc.collect()
    digest = hashlib.sha256()
    call_s = []
    attempted = failed = 0
    start = time.perf_counter()
    for op in work.ops:
        t0 = time.perf_counter()
        try:
            data, bad = op.call(figures)
        except Exception:  # an operation that raises counts as failed, and the pass goes on
            traceback.print_exc(file=sys.stderr)
            data, bad = b"", max(op.count, 1)
        call_s.append(time.perf_counter() - t0)
        digest.update(data)
        attempted += op.count
        failed += bad
    wall = time.perf_counter() - start
    return Pass(wall, call_s, digest.hexdigest(), attempted, failed, tracer.take() if tracer else None)


def weighted_rank(pairs: list[tuple[float, int]], per_100k: int) -> float:
    """Nearest-rank percentile of values carrying integer weights."""
    total = sum(w for _, w in pairs)
    rank = max(1, (per_100k * total + 99_999) // 100_000)
    seen = 0
    for value, weight in sorted(pairs):
        seen += weight
        if seen >= rank:
            return value
    return max(v for v, _ in pairs)


def tail_percentile(n: int) -> int:
    """Highest ladder percentile (per 100000) leaving at least ten operations beyond it."""
    fits = [p for p in TAIL_LADDER if n - (p * n + 99_999) // 100_000 >= 10]
    return fits[-1] if fits else 100_000


def best_calls(passes: list[Pass]) -> list[float]:
    """Each call's best wall time over the passes. The same inputs repeat in
    every pass, so the minimum removes load from other tenants of the host.
    Much of that load comes in bursts shorter than a pass: the best of each
    operation finds the quiet moments, the best whole pass rarely does."""
    return [min(times) for times in zip(*(p.call_s for p in passes))]


def calls_by_kind(ops, best: list[float], p50_ms: float, tail_ms: float) -> dict:
    """Per kind of call: timed calls and operations per pass, their best
    total time, and whether the median or tail operation time is one of
    its calls' per-operation times (a sweep call stands for all its cells,
    each given the call's time divided by the cell count)."""
    out: dict[str, dict] = {}
    for op, t in zip(ops, best):
        kind = out.setdefault(op.kind, {"calls": 0, "ops": 0, "best_ms": 0.0, "holds": []})
        kind["calls"] += 1
        kind["ops"] += op.count
        kind["best_ms"] += t * 1e3
        if not op.count:
            continue
        per_op = t * 1e3 / op.count
        for name, value in (("p50", p50_ms), ("tail", tail_ms)):
            if per_op == value and name not in kind["holds"]:
                kind["holds"].append(name)
    return out


def _environment(L, seed: int) -> dict:
    kernels = sys.modules.get("lyapqubit._kernels")
    backend = getattr(kernels, "active_backend", None)
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = "absent"
    return {
        "backend": backend() if backend else "unknown",
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _layer_metrics(setup_layers, traced: list[Pass], untraced: list[Pass], figures, micro_out) -> dict:
    out = {}
    for key in TRACED:
        per_pass = [p.layers[key] for p in traced]
        base = setup_layers[key]
        out[f"{key}.calls"] = base.calls + statistics.median(s.calls for s in per_pass)
        out[f"{key}.self_s"] = base.self_s + min(s.self_s for s in per_pass)
        if key == "engine.run":
            out["engine.run.segments"] = statistics.median(s.segments for s in per_pass)
            out["engine.run.samples"] = statistics.median(s.samples for s in per_pass)
        if key in KERNELS:
            steps = sum(s.steps for s in per_pass)
            out[f"{key}.ns_per_step"] = sum(s.self_s for s in per_pass) / steps * 1e9 if steps else 0.0
    out["trace.overhead_s"] = sum(best_calls(traced)) - sum(best_calls(untraced))
    for name, value in vars(figures).items():
        # 0 marks a check this workload does not exercise
        out[f"check.{name}"] = 0.0 if value is None else value
    out.update(micro_out)
    return out


def measure(name: str, seed: int, seconds: float, trace: int, root: str, started: float, ops_limit: int | None = None) -> dict:
    """Build the workload, time it and check it. ``started`` is when set-up
    began; ``ops_limit`` keeps only the first operations, for tests."""
    import lyapqubit as L
    from lyapqubit import cli

    import micro
    import workloads
    from tracing import Tracer

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        work = workloads.BUILDERS[name](L, cli, root, seed)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.perf_counter() - started
    setup_layers = tracer.take() if tracer else None
    if ops_limit is not None:
        work.ops = work.ops[:ops_limit]

    figures = workloads.Figures()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(_one_pass(work, figures, None))
        if tracer:
            # alternating with untraced passes keeps drift out of the overhead
            tracer.install()
            try:
                traced.append(_one_pass(work, figures, tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    layers = _layer_metrics(setup_layers, traced, untraced, figures, micro.measure(L)) if tracer else None

    every = untraced + traced
    best = best_calls(untraced)
    # a call that stands for no operation (stacking and formatting a swept
    # grid) counts in wall_s but not in the percentiles
    op_ms = [(t * 1e3 / op.count, op.count) for t, op in zip(best, work.ops) if op.count]
    n_ops = sum(op.count for op in work.ops)
    tail = tail_percentile(n_ops)
    p50_ms, tail_ms = weighted_rank(op_ms, 50_000), weighted_rank(op_ms, tail)
    mismatched = sum(p.digest != every[0].digest for p in every)
    return {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "fastest_pass_s": min(p.wall_s for p in untraced),
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "tail_percentile": tail / 1000,
        "op_samples": n_ops,
        "timed_calls": len(work.ops),
        "calls_by_kind": calls_by_kind(work.ops, best, p50_ms, tail_ms),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": sum(p.attempted for p in every),
        # a pass whose output bytes differ from the first pass's is a failure
        "failed": sum(p.failed for p in every) + mismatched,
        "digest": every[0].digest,
        "figures": dict(vars(figures)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(L, seed),
        "layers": layers,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.realpath(os.path.join(root, "src"))
    import lyapqubit

    if not os.path.realpath(lyapqubit.__file__).startswith(src + os.sep):
        print(f"worker: lyapqubit imported from {lyapqubit.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        import lyapqubit.cli as cli
        import workloads

        workloads.BUILDERS[args.workload](lyapqubit, cli, root, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    report = measure(args.workload, args.seed, args.seconds, args.trace, root, started)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
