"""Names, units and intent of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the tests keep
the two in step). Each per-layer entry also says which end-to-end metric it
should move, and on which workload, so a claimed gain can be traced to the
layer that produced it.
"""

from __future__ import annotations

WORKLOADS = ("runs", "sweeps", "oracle")

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: Traced functions: metric prefix -> (module, attribute, what it should move).
#: The kernels module is private (``_kernels``); its metrics drop the
#: underscore because metric names start with a letter.
TRACED = {
    "engine.run": ("engine", "run", "wall_s/op_p50_ms on runs"),
    "engine.run_oracle": ("engine", "run_oracle", "wall_s/op_tail_ms on oracle"),
    "control.segment_duration": ("control", "segment_duration", "wall_s on sweeps, then runs"),
    "control.select_field": ("control", "select_field", "wall_s on sweeps, then runs"),
    "control.classify_regime": ("control", "classify_regime", "wall_s on sweeps, then runs"),
    "extended.plan_single_shot": ("extended", "plan_single_shot", "op_p50_ms on runs (extended runs)"),
    "propagator.controlled_unitary": ("propagator", "controlled_unitary", "wall_s on runs and sweeps"),
    "propagator.free_unitary": ("propagator", "free_unitary", "wall_s on runs and sweeps"),
    "propagator.evolve": ("propagator", "evolve", "wall_s on runs and sweeps"),
    "propagator.oracle_integrate": (
        "propagator",
        "oracle_integrate",
        "wall_s/op_tail_ms on oracle; no move elsewhere",
    ),
    "kernels.rk4_steps": ("_kernels", "rk4_steps", "wall_s/op_tail_ms on oracle; no move elsewhere"),
    "kernels.sampled_law_steps": (
        "_kernels",
        "sampled_law_steps",
        "wall_s/op_tail_ms on oracle; no move elsewhere",
    ),
    "sweeps.sweep_ssc_fidelity": ("sweeps", "sweep_ssc_fidelity", "wall_s on sweeps"),
    "sweeps.sweep_first_segment": ("sweeps", "sweep_first_segment", "wall_s on sweeps"),
    "sweeps.fidelity_vs_strength": ("sweeps", "fidelity_vs_strength", "wall_s on sweeps"),
    "sweeps.phase_alignment_table": ("sweeps", "phase_alignment_table", "wall_s on sweeps"),
    "cli.trajectory_csv": ("cli", "trajectory_csv", "wall_s on runs"),
    "cli.table_csv": ("cli", "table_csv", "wall_s on sweeps"),
    "scenario.parse_scenario": ("scenario", "parse_scenario", "setup_s on all workloads"),
}

#: Traced functions whose ``n_steps`` argument (position 4) counts kernel steps.
KERNELS = ("kernels.rk4_steps", "kernels.sampled_law_steps")

#: Worst correctness figures: name -> (better, which check records it).
CHECKS = {
    "check.max_amp_dev": ("lower", "oracle: closed form vs RK4, tolerance 1e-8"),
    "check.max_v_increase": ("lower", "runs: V non-increasing, tolerance 1e-10"),
    "check.max_norm_drift": ("lower", "runs: norm drift on every sample, tolerance 1e-12"),
    "check.min_extended_fidelity": ("higher", "runs: extended runs reach 1 - 1e-6"),
    "check.min_ssc_margin": ("higher", "sweeps: SSC fidelity minus ssc_fidelity_bound"),
    "check.max_oracle_gap": ("lower", "oracle: run_oracle vs run terminal fidelity, tolerance 1e-5"),
}

#: Layer microbenchmarks on fixed inputs: name -> (unit, what it should move).
MICRO = {
    "micro.PureState.us": ("us", "wall_s on runs and sweeps"),
    "micro.Unitary2.us": ("us", "wall_s on runs and sweeps"),
    "micro.controlled_unitary.us": ("us", "wall_s on runs and sweeps"),
    "micro.evolve.us": ("us", "wall_s on runs and sweeps"),
    "micro.segment_duration.us": ("us", "wall_s on sweeps, then runs"),
    "micro.plan_single_shot.us": ("us", "op_p50_ms on runs (extended runs)"),
}
#: Kernel backends timed by the microbenchmarks, as ``_kernels.BACKENDS`` names them.
KERNEL_BACKENDS = ("python", "numba")
for _backend in KERNEL_BACKENDS:
    # each kernel on each backend; the active one moves the oracle workload
    for _kernel in ("rk4_steps", "sampled_law_steps"):
        MICRO[f"micro.{_kernel}.{_backend}.ns_per_step"] = ("ns", "wall_s/op_tail_ms on oracle (active backend)")


def per_layer() -> dict[str, tuple[str, str, str]]:
    """Every per-layer metric: name -> (unit, better, what it should move)."""
    out: dict[str, tuple[str, str, str]] = {}
    for key, (_, _, moves) in TRACED.items():
        out[f"{key}.calls"] = ("count", "lower", moves)
        out[f"{key}.self_s"] = ("s", "lower", moves)
        if key == "engine.run":
            out["engine.run.segments"] = ("count", "lower", "wall_s/op_p50_ms on runs")
            out["engine.run.samples"] = ("count", "lower", "peak_rss_mb and wall_s on runs")
        if key in KERNELS:
            out[f"{key}.ns_per_step"] = ("ns", "lower", moves)
    out["trace.overhead_s"] = ("s", "lower", "none: wall_s of the traced passes minus that of the untraced ones")
    for name, (better, what) in CHECKS.items():
        out[name] = ("1", better, f"none: correctness figure ({what})")
    for name, (unit, moves) in MICRO.items():
        out[name] = (unit, "lower", moves)
    return out
