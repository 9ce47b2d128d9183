"""Command-line interface: simulate, sweep, design, verify.

Exit codes: 0 success, 1 configuration or validation error, 2 truncated
simulation, 3 verification failure. A command refuses with one exception
that carries its diagnostic, which ``main`` prints before it exits 1. All
file output is byte-deterministic for identical inputs, and written
atomically (write then rename). ``verify`` draws its random cases from
``--seed``. ``design`` refuses a step count whose run exceeds the caps a
scenario file's run has (:func:`~lyapqubit.scenario.run_caps_exceeded`).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .control import exact_steering_strength
from .engine import Policy, SimConfig, Trajectory, run
from .propagator import controlled_unitary, default_oracle_step, evolve, oracle_integrate
from .scenario import Scenario, ScenarioError, parse_scenario, run_caps_exceeded
from .states import BlochAngles, SystemParams, from_bloch
from .sweeps import (
    SWEEP_DT_FREE_FACTOR, SweepGrid, _ssc_terminal, fidelity_vs_strength, phase_alignment_table, sweep_first_segment
)

CSV_HEADER = "t,re_a,im_a,re_b,im_b,V,dVdt,f,segment_kind"


class _Refusal(Exception):
    """A command's refusal; its text is the diagnostic ``main`` prints."""


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # created as open() creates a file, 0o666 less the umask (mkstemp's is 0o600)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(args, path: str, text: str) -> None:
    """:func:`_write_atomic`, refusing a file the command cannot write."""
    try:
        _write_atomic(path, text)
    except OSError as exc:
        raise _Refusal(f"{args.command}: cannot write {path}: {exc.strerror or exc}") from None


def _scenario(args) -> Scenario:
    """The scenario file of ``simulate`` or ``sweep``, whose ``--output`` is required."""
    if not args.output:
        raise _Refusal(f"{args.command}: --output is required")
    try:
        return parse_scenario(args.scenario)
    except ScenarioError as exc:
        raise _Refusal(str(exc)) from None


_TRAJECTORY_ROW = "%.15g," * 8 + "%s"


def trajectory_csv(traj: Trajectory) -> str:
    lines = [CSV_HEADER]
    for s in traj.samples:
        a, b, f = s.state.a, s.state.b, s.f
        # under the constant field f, dV/dt = 2 f Im(a b*): switching_function's expression, inline
        rate = 2.0 * f * (a * b.conjugate()).imag
        lines.append(_TRAJECTORY_ROW % (s.t, a.real, a.imag, b.real, b.imag, s.v, rate, f, s.kind))
    # the empty last line gives the trailing newline without copying the text again
    lines.append("")
    return "\n".join(lines)


def _column_text(values) -> np.ndarray:
    """``_fmt(float(x))`` of every cell ``x``, as an object array. Each
    distinct float64 bit pattern is formatted once, so ``-0.0`` and ``0.0``
    (and NaNs of either sign) stay apart; an int column is formatted as
    the floats ``"%.15g"`` turns it into."""
    x = np.asarray(values, dtype=np.float64).ravel()
    bits, cell = np.unique(x.view(np.uint64), return_inverse=True)
    # "%.15g" % v prints what _fmt(v) prints, without the call
    text = np.array(["%.15g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[cell]


def table_csv(columns: dict[str, np.ndarray]) -> str:
    names = list(columns)
    lines = [",".join(names)]
    # a sweep's axis columns repeat each of their values along the grid
    lines += map(",".join, zip(*[_column_text(columns[n]) for n in names]))
    return "\n".join(lines) + "\n"


def _grid_long_columns(grid: SweepGrid, name: str, table: np.ndarray) -> dict[str, np.ndarray]:
    gg, pp = np.meshgrid(grid.gamma_axis, grid.phi_axis, indexing="ij")
    return {"gamma": gg.ravel(), "phi": pp.ravel(), name: np.asarray(table).ravel()}


def cmd_simulate(args) -> int:
    scenario = _scenario(args)
    if scenario.sweep is not None:
        raise _Refusal("simulate: scenario has a [sweep] section")
    traj = run(scenario.sim_config())
    _write(args, args.output, trajectory_csv(traj))
    if not args.quiet:
        status = "converged" if traj.converged else "truncated"
        print(
            f"terminal_fidelity={_fmt(traj.terminal_fidelity)} "
            f"switch_count={traj.switch_count} segments={len(traj.segments)} "
            f"regime={traj.final_regime.value} time={_fmt(traj.total_time)} "
            f"status={status}"
        )
    return 0 if traj.converged else 2


def _sweep_files(scenario: Scenario) -> list[tuple[str, dict[str, np.ndarray]]]:
    """Run the scenario's sweep; returns ``(file name, columns)`` per output table."""
    grid, kind = scenario.sweep, scenario.sweep_kind
    if kind == "first_segment":
        tables = sweep_first_segment(grid).tables
        return [(f"first_segment_{n}.csv", _grid_long_columns(grid, n, t)) for n, t in tables.items()]
    if kind == "ssc_fidelity":
        fid, n_max, _ = _ssc_terminal(grid, scenario.dt_free)
        return [
            (f"ssc_{n}_s{s!r}.csv", _grid_long_columns(grid, n, t))
            for s, *tables in zip(grid.s_values, fid, n_max)
            for n, t in zip(("fidelity", "n_max"), tables)
        ]
    if kind == "fidelity_vs_strength":
        result = fidelity_vs_strength(grid.s_values, scenario.initial, grid.omega, dt_free=scenario.dt_free)
        return [("fidelity_vs_strength.csv", {"s": np.asarray(result.grid.s_values), **result.tables})]
    result = phase_alignment_table(grid.gamma_axis, scenario.params)
    return [("phase_alignment.csv", {"gamma": np.asarray(result.grid.gamma_axis), **result.tables})]


def cmd_sweep(args) -> int:
    scenario = _scenario(args)
    if scenario.sweep is None:
        raise _Refusal("sweep: scenario has no [sweep] section")
    try:
        files = _sweep_files(scenario)
    except ValueError as exc:
        raise _Refusal(f"sweep: {exc}") from None
    for name, columns in files:
        path = os.path.join(args.output, name)
        _write(args, path, table_csv(columns))
        if not args.quiet:
            print(path)
    return 0


def cmd_design(args) -> int:
    gamma0 = args.gamma0 * math.pi
    try:
        strength = exact_steering_strength(gamma0, args.omega, args.n)
        params = SystemParams(args.omega, strength)
        dt_free = SWEEP_DT_FREE_FACTOR / args.omega
        # a slow-switching step is a tick and at most half a period pi/omega;
        # so many steps of so long a period can overflow max_time
        config = SimConfig(
            params=params,
            initial=BlochAngles(gamma0, 0.0),
            dt_free=dt_free,
            max_switches=args.n + 10,
            max_time=(args.n + 10) * (math.pi / args.omega + dt_free),
        )
    except (ValueError, OverflowError) as exc:
        raise _Refusal(f"design: {exc}") from None
    exceeded = run_caps_exceeded(config)
    if exceeded:
        raise _Refusal(f"design: {args.n} steps ask for {exceeded[0][1]}")
    traj = run(config)
    ok = traj.converged
    if not args.quiet:
        print(f"designed_strength={_fmt(strength)}")
        print(f"steps={args.n}")
        print(f"achieved_fidelity={_fmt(traj.terminal_fidelity)}")
        print(f"switch_count={traj.switch_count}")
        print(f"verification={'pass' if ok else 'fail'}")
    return 0 if ok else 3


def _verify_propagator(rng: np.random.Generator, count: int, params: SystemParams):
    h = default_oracle_step(params)
    max_dev = 0.0
    worst = None
    for _ in range(count):
        gamma = rng.uniform(0.01, math.pi - 0.01)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        f = rng.uniform(-params.s_max, params.s_max)
        t = rng.uniform(0.0, 10.0 / params.omega)
        state = from_bloch(BlochAngles(gamma, phi))
        analytic = evolve(state, controlled_unitary(params, f, t))
        reference = oracle_integrate(state, params, f, t, h=min(h, t) if t > 0.0 else h)
        dev = max(abs(analytic.a - reference.a), abs(analytic.b - reference.b))
        if dev > max_dev:
            max_dev = dev
            worst = (gamma, phi, f, t)
    return max_dev, worst


def _verify_policies(rng: np.random.Generator, runs: int, params: SystemParams):
    worst = {
        "v_increase": 0.0,
        "norm_drift": 0.0,
        "min_extended_fidelity": 1.0,
        "case": None,
    }
    for _ in range(runs):
        gamma = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        initial = BlochAngles(gamma, phi)
        std = run(SimConfig(params=params, initial=initial, max_switches=200))
        vs = [s.v for s in std.samples]
        v_inc = max((b - a for a, b in zip(vs, vs[1:])), default=0.0)
        drift = max(
            abs(abs(s.state.a) ** 2 + abs(s.state.b) ** 2 - 1.0) for s in std.samples
        )
        ext = run(SimConfig(params=params, initial=initial, policy=Policy.EXTENDED))
        if v_inc > worst["v_increase"]:
            worst["v_increase"] = v_inc
            worst["case"] = (gamma, phi)
        worst["norm_drift"] = max(worst["norm_drift"], drift)
        worst["min_extended_fidelity"] = min(worst["min_extended_fidelity"], ext.terminal_fidelity)
    return worst


def cmd_verify(args) -> int:
    if args.count < 1:
        raise _Refusal("verify: --count must be at least 1")
    if args.seed < 0:
        raise _Refusal("verify: --seed must be a non-negative integer")
    params = SystemParams(1.0, 0.1)
    rng = np.random.default_rng(args.seed)
    max_dev, worst_case = _verify_propagator(rng, args.count, params)
    prop_ok = max_dev < 1e-8
    runs = max(5, min(50, args.count // 20))
    policy = _verify_policies(rng, runs, params)
    law_ok = policy["v_increase"] <= 1e-10 and policy["norm_drift"] <= 1e-12
    ext_ok = policy["min_extended_fidelity"] >= 1.0 - 1e-6
    ok = prop_ok and law_ok and ext_ok
    if not args.quiet or not ok:
        print(
            f"propagator suite: cases={args.count} max_amp_dev={max_dev:.6e} "
            f"tol=1e-08 status={'pass' if prop_ok else 'fail'}"
        )
        print(
            f"standard policy suite: runs={runs} max_v_increase={policy['v_increase']:.6e} "
            f"max_norm_drift={policy['norm_drift']:.6e} status={'pass' if law_ok else 'fail'}"
        )
        print(
            f"extended policy suite: runs={runs} "
            f"min_terminal_fidelity={policy['min_extended_fidelity']:.15g} "
            f"status={'pass' if ext_ok else 'fail'}"
        )
        print(f"overall: {'pass' if ok else 'fail'}")
    if not ok:
        if worst_case is not None and not prop_ok:
            gamma, phi, f, t = worst_case
            print(
                f"failing propagator case: gamma={gamma!r} phi={phi!r} f={f!r} t={t!r}",
                file=sys.stderr,
            )
        if policy["case"] is not None and not law_ok:
            print(f"failing policy case: (gamma, phi)={policy['case']!r}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress the summary on stdout")

    parser = argparse.ArgumentParser(
        prog="lyapqubit",
        description="Bang-bang Lyapunov control of a driven two-level system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common], help="run one scenario, write a CSV trajectory")
    p_sim.add_argument("scenario", help="scenario file")
    p_sim.add_argument("--output", help="output CSV file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a sweep scenario, write CSV tables")
    p_sweep.add_argument("scenario", help="scenario file with a [sweep] section")
    p_sweep.add_argument("--output", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_design = sub.add_parser(
        "design", parents=[common], help="field strength for exact n-step steering"
    )
    p_design.add_argument("gamma0", type=float, help="initial polar angle, in units of pi")
    p_design.add_argument("omega", type=float, help="level spacing")
    p_design.add_argument("n", type=int, help="number of control steps")
    p_design.set_defaults(func=cmd_design)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="randomized propagator and policy checks"
    )
    p_verify.add_argument("--count", type=int, default=1000, help="number of propagator cases")
    p_verify.add_argument("--seed", type=int, default=20240901, help="seed for randomized checks")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
