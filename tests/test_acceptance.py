"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import bisect
import math
import time

import numpy as np
import pytest

from lyapqubit import (
    BlochAngles,
    Policy,
    Regime,
    SimConfig,
    SystemParams,
    bang_field,
    classify_regime,
    controlled_unitary,
    evolve,
    exact_steering_strength,
    fidelity,
    free_unitary,
    from_bloch,
    lyapunov,
    oracle_integrate,
    required_phase,
    run,
    segment_duration,
    ssc_fidelity_bound,
    sweep_ssc_fidelity,
    switching_function,
    to_bloch,
    SweepGrid,
)
from lyapqubit.cli import trajectory_csv

P = SystemParams(1.0, 0.1)
THETA = P.theta_max


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_propagator_exactness():
    """1000 seeded random cases: closed form vs fixed-step oracle, 1e-8, <10 s."""
    rng = np.random.default_rng(20240901)
    h = 1e-4 * (2 * math.pi / P.omega)
    cases = []
    for _ in range(1000):
        cases.append(
            (
                rng.uniform(0.01, math.pi - 0.01),
                rng.uniform(0.0, 2 * math.pi),
                rng.uniform(-0.1, 0.1),
                rng.uniform(0.0, 10.0),
            )
        )
    start = time.perf_counter()
    worst = 0.0
    for gamma, phi, f, t in cases:
        state = from_bloch(BlochAngles(gamma, phi))
        analytic = evolve(state, controlled_unitary(P, f, t))
        reference = oracle_integrate(state, P, f, t, h=min(h, t) if t > 0 else h)
        worst = max(worst, abs(analytic.a - reference.a), abs(analytic.b - reference.b))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-8 and elapsed < 10.0,
        f"max amplitude deviation {worst:.3e} (tol 1e-8), runtime {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_ssc_geometry():
    """One slow-switching step of a standard run from an in-plane start (a
    free trigger tick, then the bang field to its switching point) strips
    2*arctan(0.2) off the polar angle; the recursion holds to the
    fast-switching boundary with alternating in-plane sign."""
    dt = 1e-6
    traj = run(SimConfig(P, BlochAngles(math.pi / 2, 0.0), dt_free=dt, max_switches=4))
    kinds = [seg.kind for seg in traj.segments]
    ok = kinds == ["free", "control"] * 4 and all(seg.duration == dt for seg in traj.segments[::2])
    steps = iter(seg.state_out for seg in traj.segments[1::2])
    state = next(steps)
    first = to_bloch(state).gamma
    expected_first = math.pi / 2 - 2 * math.atan(0.2)
    ok = ok and abs(first - expected_first) <= 1e-6
    details = [f"segments {'/'.join(kinds)}", f"step 1 angle {first:.9f} vs {expected_first:.9f}"]
    n = 1
    while to_bloch(state).gamma - 2 * THETA > THETA:
        state = next(steps)
        n += 1
        expected = math.pi / 2 - 2 * n * THETA
        gamma_n = to_bloch(state).gamma
        ok = ok and abs(gamma_n - expected) <= 1e-6
        phi_n = to_bloch(state).phi
        expected_phi = math.pi if n % 2 == 1 else 0.0
        ok = ok and min(abs(phi_n - expected_phi), 2 * math.pi - abs(phi_n - expected_phi)) < 1e-3
        details.append(f"step {n} angle {gamma_n:.9f} vs {expected:.9f}")
    # one more step crosses into the fast-switching regime
    state = next(steps)
    ok = ok and classify_regime(state, P) is Regime.FSC
    report(2, ok, "; ".join(details) + f"; final regime {classify_regime(state, P).value}")


def test_criterion_3_exact_steering():
    strength = exact_steering_strength(math.pi / 2, 1.0, 3)
    config = SimConfig(
        params=SystemParams(1.0, strength),
        initial=BlochAngles(math.pi / 2, 0.0),
        policy=Policy.STANDARD,
        dt_free=1e-6,
        eps_target=1e-9,
        max_switches=13,
    )
    traj = run(config)
    ok = (
        abs(strength - 0.133975) < 1e-6
        and traj.converged
        and traj.terminal_fidelity >= 1.0 - 1e-9
        and traj.switch_count == 3
    )
    report(
        3,
        ok,
        f"S = {strength:.6f} (target 0.133975), fidelity {traj.terminal_fidelity:.12f} "
        f"in {traj.switch_count} controls",
    )


def test_criterion_4_fidelity_limit():
    gamma_axis = tuple(np.linspace(0.01, math.pi - 0.01, 50))
    phi_axis = tuple(np.linspace(0.0, 2 * math.pi, 50, endpoint=False))
    minima = {}
    ok = True
    details = []
    for s in (0.1, 0.05):
        grid = SweepGrid(gamma_axis, phi_axis, (s,), 1.0)
        result = sweep_ssc_fidelity(grid, s, dt_free=1e-6)
        bound = ssc_fidelity_bound(SystemParams(1.0, s))
        fmin = float(result.tables["fidelity"].min())
        minima[s] = fmin
        ok = ok and fmin >= bound - 1e-9
        details.append(f"S={s}: min {fmin:.9f} vs bound {bound:.9f}")
    bound_01 = ssc_fidelity_bound(P)
    ok = ok and abs(bound_01 - 0.990290) < 1e-6
    ok = ok and minima[0.05] > minima[0.1]
    report(4, ok, "; ".join(details) + f"; bound(0.1)={bound_01:.6f}")


def test_criterion_5_extended_convergence():
    rng = np.random.default_rng(50505)
    cos2_theta = 0.25 / (0.25 + P.s_max**2)
    tau_max = math.pi / (2 * P.eplus_max)
    worst_fid = 1.0
    worst_excess = -100
    shot_ok = True
    for _ in range(200):
        gamma = rng.uniform(0.01, math.pi - 0.01)
        phi = rng.uniform(0.0, 2 * math.pi)
        traj = run(
            SimConfig(
                params=P,
                initial=BlochAngles(gamma, phi),
                policy=Policy.EXTENDED,
                eps_target=1e-9,
            )
        )
        worst_fid = min(worst_fid, traj.terminal_fidelity)
        budget = math.ceil(gamma / (2 * THETA)) + 3
        worst_excess = max(worst_excess, traj.switch_count - budget)
        last = traj.segments[-1]
        shot_ok = shot_ok and (
            last.kind == "control"
            and last.label == "single_shot"
            and fidelity(last.state_in) >= cos2_theta - 1e-12
            and 0.0 <= last.duration <= tau_max + 1e-12
            and fidelity(last.state_out) >= 1.0 - 1e-9
        )
    ok = worst_fid >= 1.0 - 1e-6 and worst_excess <= 0 and shot_ok
    report(
        5,
        ok,
        f"200 runs: min fidelity {worst_fid:.12f}, max budget excess {worst_excess}, "
        f"terminal single-shots verified: {shot_ok}",
    )


def test_criterion_6_phase_ratio_law():
    gamma = 1e-3
    phi_star, _ = required_phase(gamma, P)
    state = from_bloch(BlochAngles(gamma, phi_star))
    f = bang_field(switching_function(state), P.s_max)
    tau = segment_duration(state, f, P)
    out = evolve(state, controlled_unitary(P, f, tau))
    ratio = lyapunov(out) / lyapunov(state)
    cos2 = math.cos(phi_star) ** 2
    # the required phase has converged to pi/2 at this angle, so the aligned
    # control leaves essentially no residual population
    ok = (
        abs(phi_star - math.pi / 2) < 5e-3
        and abs(ratio - cos2) <= 1e-3
        and ratio < 1e-6
    )
    report(
        6,
        ok,
        f"phi* = {phi_star:.6f} (pi/2 = {math.pi / 2:.6f}), measured ratio {ratio:.3e}, "
        f"cos^2(phi*) = {cos2:.3e}, |diff| = {abs(ratio - cos2):.3e}",
    )


@pytest.fixture(scope="module")
def fig1_trajectory():
    return run(
        SimConfig(
            params=P,
            initial=BlochAngles(math.pi / 2, 7 * math.pi / 4),
            policy=Policy.STANDARD,
            dt_free=1e-4,
            sample_interval=0.1,
            eps_target=1e-9,
            max_switches=10_000,
            max_time=1e6,
        )
    )


def test_criterion_7_reference_run_structure(fig1_trajectory):
    traj = fig1_trajectory
    vs = [s.v for s in traj.samples]
    max_increase = max((b - a for a, b in zip(vs, vs[1:])), default=0.0)
    ok_a = max_increase <= 1e-10

    controls = [s for s in traj.segments if s.kind == "control"]
    ok_b = all(
        s.field * switching_function(s.state_in) <= 1e-12 * P.s_max
        and abs(switching_function(s.state_out)) <= 1e-10
        for s in controls
    )

    fsc_durations = [
        s.duration for s in controls if to_bloch(s.state_in).gamma <= THETA
    ]
    ok_c = len(fsc_durations) > 100 and all(
        b <= a + 1e-12 for a, b in zip(fsc_durations, fsc_durations[1:])
    )
    report(
        7,
        ok_a and ok_b and ok_c,
        f"max V increase {max_increase:.2e} (a: {ok_a}); "
        f"{len(controls)} switches at zero crossings (b: {ok_b}); "
        f"{len(fsc_durations)} fast-regime intervals non-increasing (c: {ok_c})",
    )


def test_criterion_8_conservation_suite(fig1_trajectory):
    trajectories = [fig1_trajectory]
    trajectories.append(
        run(
            SimConfig(
                params=P,
                initial=BlochAngles(2.0, 5.5),
                policy=Policy.EXTENDED,
                eps_target=1e-9,
            )
        )
    )
    strength = exact_steering_strength(math.pi / 2, 1.0, 3)
    trajectories.append(
        run(
            SimConfig(
                params=SystemParams(1.0, strength),
                initial=BlochAngles(math.pi / 2, 0.0),
                dt_free=1e-6,
                max_switches=13,
            )
        )
    )
    worst_norm = 0.0
    worst_free = 0.0
    worst_dvdt = 0.0
    delta = 1e-5
    for traj in trajectories:
        for s in traj.samples:
            worst_norm = max(worst_norm, abs(abs(s.state.a) ** 2 + abs(s.state.b) ** 2 - 1.0))
        for seg in traj.segments:
            if seg.kind == "free":
                worst_free = max(worst_free, abs(lyapunov(seg.state_out) - lyapunov(seg.state_in)))
        # the instantaneous rate the CSV writer derives vs a centered finite
        # difference of V, segment-aware; sample times are strictly
        # increasing, so each segment's window of samples starts where
        # bisection puts its left end
        times = [s.t for s in traj.samples]
        rates = [float(row.split(",")[6]) for row in trajectory_csv(traj).splitlines()[1:]]
        t_cursor = 0.0
        for seg in traj.segments:
            if seg.duration > 4 * delta:
                hi = t_cursor + seg.duration - delta
                mid = []
                k = bisect.bisect_right(times, t_cursor + delta)
                while k < len(times) and times[k] < hi and len(mid) < 2:
                    if traj.samples[k].kind == seg.kind:
                        mid.append((traj.samples[k], rates[k]))
                    k += 1
                for s, rate in mid:
                    params = traj_params(traj)
                    if seg.kind == "control":
                        u = controlled_unitary(params, seg.field, delta)
                    else:
                        u = free_unitary(params, delta)
                    fd = (lyapunov(evolve(s.state, u)) - lyapunov(evolve(s.state, u.adjoint()))) / (
                        2 * delta
                    )
                    worst_dvdt = max(worst_dvdt, abs(fd - rate))
            t_cursor += seg.duration
    ok = worst_norm <= 1e-12 and worst_free <= 1e-12 and worst_dvdt <= 1e-8
    report(
        8,
        ok,
        f"max norm drift {worst_norm:.2e} (tol 1e-12); max free-segment V change "
        f"{worst_free:.2e} (tol 1e-12); max dV/dt residual {worst_dvdt:.2e} (tol 1e-8)",
    )


def traj_params(traj):
    # all acceptance runs in criterion 8 use omega = 1; the strength is
    # recoverable from the recorded field values
    fields = {abs(seg.field) for seg in traj.segments if seg.kind == "control"}
    return SystemParams(1.0, max(fields)) if fields else P


def test_criterion_9_fsc_gain_asymptotics():
    """One fast-switching chatter cycle (free tick ``dt``, then the triggered
    field run to its switching point) multiplies the target population by
    ``1 + A dt^2 + O(dt^4)``: halving the tick quarters the excess, and

        A = omega^2 sin^2(gamma0/2) sin(theta) / sin(theta - gamma0).

    The form omega^2 sin^2(gamma0/2) sin(theta) (sin(theta - gamma0) +
    sin(gamma0)/2) / sin^2(theta - gamma0) was asserted here before; it is
    larger than the simulated excess by (sin(theta - gamma0) + sin(gamma0)/2)
    / sin(theta - gamma0) (3/2 at gamma0 = theta/2), and its ratio is kept in
    the report line. ``tests/test_control.py::TestFscGain`` recomputes the
    cycle without the library. The cycle is the one a standard run takes
    from the in-plane start with ``max_switches = 1``."""
    gamma0 = THETA / 2

    def gain(dt):
        traj = run(SimConfig(P, BlochAngles(gamma0, 0.0), dt_free=dt, max_switches=1))
        assert [seg.kind for seg in traj.segments] == ["free", "control"]
        return traj.terminal_fidelity / fidelity(traj.segments[0].state_in)

    g1 = gain(1e-3)
    g2 = gain(5e-4)
    halving_ratio = (g1 - 1.0) / (g2 - 1.0)
    ok_scaling = 3.5 <= halving_ratio <= 4.5

    coefficient = (
        P.omega**2
        * math.sin(gamma0 / 2) ** 2
        * math.sin(THETA)
        / math.sin(THETA - gamma0)
    )
    measured_over_closed_form = (g1 - 1.0) / (coefficient * 1e-6)
    ok_closed_form = abs(measured_over_closed_form - 1.0) <= 0.10
    former_form = (
        P.omega**2
        * math.sin(gamma0 / 2) ** 2
        * math.sin(THETA)
        * (math.sin(THETA - gamma0) + math.sin(gamma0) / 2)
        / math.sin(THETA - gamma0) ** 2
    )
    report(
        9,
        ok_scaling and ok_closed_form,
        f"halving ratio {halving_ratio:.4f} (want [3.5, 4.5]: {ok_scaling}); "
        f"measured/closed-form coefficient {measured_over_closed_form:.4f} "
        f"(want within 10% of 1: {ok_closed_form}); measured/former form "
        f"{(g1 - 1.0) / (former_form * 1e-6):.4f}",
    )
