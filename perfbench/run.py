#!/usr/bin/env python3
"""Benchmark of lyapqubit: one seeded workload per invocation.

    python3 perfbench/run.py --workload runs|sweeps|oracle --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload runs single-threaded in
its own fresh Python process (``worker.py``) and calls the package's public
API in-process. With ``--trace 0`` set-up is repeated in further fresh
processes and its median is reported beside the untraced end-to-end metrics;
with ``--trace 1`` the per-layer metrics are reported instead. The last
line of standard output is the result object; the line before it holds the
environment, the output digest and the correctness figures. The exit code
is 0 only when every operation passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from metrics import END_TO_END, WORKLOADS, per_layer

#: Set-ups measured per untraced run (the workload's own plus fresh-process repeats).
SETUP_REPEATS = 7

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def compose(report: dict, setups: list[float], trace: int) -> dict:
    """The result object: end-to-end metrics untraced, per-layer metrics traced."""
    if trace:
        units = {name: unit for name, (unit, _, _) in per_layer().items()}
        values = report["layers"]
    else:
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
        values = {name: report[name] for name in units if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
    return {
        "correct": report["failed"] == 0 and report["attempted"] >= 1,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit inside subprocess.run, which
    # then kills and reaps the worker instead of leaving it running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "lyapqubit", "__init__.py")) or not os.path.isdir(
        os.path.join(ROOT, "scenarios")
    ):
        print(f"perfbench: no lyapqubit source tree (src/, scenarios/) under {ROOT}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_worker([*common, "--setup-only"], timeout=120)["setup_s"])
        report = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=args.seconds + 100)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(report["setup_s"])
    result = compose(report, setups, args.trace)
    detail = {
        key: report[key]
        for key in (
            "environment",
            "digest",
            "tail_percentile",
            "op_samples",
            "timed_calls",
            "calls_by_kind",
            "passes",
            "fastest_pass_s",
            "traced_passes",
            "figures",
        )
    }
    detail.update(workload=args.workload, trace=args.trace, setup_samples=setups)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
