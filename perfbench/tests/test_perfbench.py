"""Tests of the benchmark itself, at a tiny size.

Every metric named in BENCHMARK.json must be emitted with its unit, and an
operation outside tolerance must be counted in ``failed`` and make the
command exit non-zero.
"""

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_metric_table():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metrics.per_layer().items()
    }


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, monkeypatch):
    monkeypatch.setattr(micro, "BLOCKS", 1)
    monkeypatch.setattr(micro, "BLOCK_S", 0.001)
    report = worker.measure(workload, 1, 0.0, trace, ROOT, time.perf_counter(), ops_limit=2)
    result = run.compose(report, [report["setup_s"]], trace)
    spec = _spec()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2


def test_perturbed_oracle_state_fails_the_check():
    import lyapqubit as L

    state = L.from_bloch(L.BlochAngles(1.0, 0.5))
    figures = workloads.Figures()
    assert workloads.check_oracle_case(state, state, figures)
    perturbed = L.PureState(state.a * cmath.exp(1e-6j), state.b)
    assert not workloads.check_oracle_case(state, perturbed, figures)
    assert figures.max_amp_dev > workloads.AMP_TOL


def test_unexplained_nan_in_first_segment_sweep_fails_the_check():
    import lyapqubit as L

    # phi = 0 and pi are cells the library legitimately skips (NaN)
    grid = L.SweepGrid((0.5, 1.0, 2.0), (0.0, 1.0, math.pi, 4.0), (0.1,), 1.0)
    tables = {name: table.copy() for name, table in L.sweep_first_segment(grid).tables.items()}
    assert int(sum(map(math.isnan, tables["tau"].ravel()))) == 6
    assert workloads.check_first_segment(L, grid, tables) == 0
    # the same sentinel on a cell the library computes counts as a failure
    tables["ratio_a"][1, 1] = tables["ratio_b"][1, 1] = tables["tau"][1, 1] = math.nan
    assert workloads.check_first_segment(L, grid, tables) == 1
    tables["ratio_b"][2, 3] = 1.5
    assert workloads.check_first_segment(L, grid, tables) == 2


def test_row_by_row_sweep_stacks_to_the_whole_grid():
    import lyapqubit as L
    import numpy as np

    grid = L.SweepGrid((0.5, 1.0, 2.0), (0.3, 1.0, math.pi, 4.0), (0.1,), 1.0)
    stacked = {}

    def finish(tables, metadata, figures):
        stacked.update(tables)
        return b"", 0

    ops = workloads._row_ops(L, "sweep.first_segment", grid, L.sweep_first_segment, finish)
    assert [op.count for op in ops] == [4, 4, 4, 0]
    for op in ops:
        op.call(workloads.Figures())
    whole = L.sweep_first_segment(grid).tables
    assert stacked.keys() == whole.keys()
    for name, table in whole.items():
        assert np.array_equal(stacked[name], table, equal_nan=True)


def test_collections_fall_on_the_same_operations_every_pass():
    import gc

    import lyapqubit as L
    from lyapqubit import cli

    work = workloads.build_runs(L, cli, ROOT, 1)
    current, log = [0], []

    def at(i, call):
        def indexed(figures):
            current[0] = i
            return call(figures)

        return indexed

    # the reference run's 20k segments trigger collections of every generation
    work.ops = [workloads.Op(op.kind, op.count, at(i, op.call)) for i, op in enumerate(work.ops[:2])]

    def record(phase, info):
        if phase == "start":
            log.append((current[0], info["generation"]))

    figures = workloads.Figures()
    seen = []
    gc.callbacks.append(record)
    try:
        for _ in range(3):
            current[0] = -1  # the pass's own full collection comes first
            log.clear()
            worker._one_pass(work, figures, None)
            seen.append(list(log))
    finally:
        gc.callbacks.remove(record)
    assert seen[0] and seen[0] == seen[1] == seen[2]


def _copy_tree(dest, with_source: bool):
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(os.path.join(ROOT, "scenarios"), os.path.join(dest, "scenarios"))


def _bench(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


def test_out_of_tolerance_result_is_counted_and_exits_nonzero(tmp_path):
    _copy_tree(tmp_path, with_source=True)
    # the reference integrator now returns a state off by a phase of 1e-6 rad
    with open(tmp_path / "src" / "lyapqubit" / "propagator.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_exact_oracle_integrate = oracle_integrate\n\n\n"
            "def oracle_integrate(*args, **kwargs):\n"
            "    s = _exact_oracle_integrate(*args, **kwargs)\n"
            "    return PureState(s.a * cmath.exp(1e-6j), s.b)\n"
        )
    proc = _bench(tmp_path, "--workload", "oracle", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode != 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert workloads.ORACLE_CASES <= result["failed"] <= result["attempted"]


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    _copy_tree(tmp_path, with_source=False)
    proc = _bench(tmp_path, "--workload", "runs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
