import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lyapqubit import (
    EPS_SWITCH,
    BlochAngles,
    InfeasibleError,
    Policy,
    PureState,
    SimConfig,
    SystemParams,
    bang_field,
    controlled_unitary,
    evolve,
    exact_steering_strength,
    extended,
    fidelity,
    free_unitary,
    from_bloch,
    lyapunov,
    next_action,
    oracle_integrate,
    plan_single_shot,
    reachable_by_single_control,
    required_phase,
    run,
    segment_duration,
    select_field,
    switching_function,
    to_bloch,
)
from lyapqubit.states import NORM_TOL

P = SystemParams(1.0, 0.1)
THETA = P.theta_max
COS2_THETA = (0.25 * P.omega**2) / (0.25 * P.omega**2 + P.s_max**2)


def adjoint_family_state(t: float, f: float = 0.1) -> PureState:
    """States mapped exactly to the target by a single field segment of
    duration ``t``: the adjoint propagator applied to the target."""
    u = controlled_unitary(P, f, t).adjoint()
    return evolve(PureState(1.0, 0.0), u)


class TestReachability:
    def test_target_reachable(self):
        assert reachable_by_single_control(PureState(1.0, 0.0), P)

    def test_boundary_and_below(self):
        gamma_boundary = 2 * THETA
        assert reachable_by_single_control(from_bloch(BlochAngles(gamma_boundary, 0.3)), P)
        a, b = math.sqrt(COS2_THETA - 1e-6), math.sqrt(1 - COS2_THETA + 1e-6)
        n = math.hypot(a, b)
        s = PureState(a / n, b / n)
        assert not reachable_by_single_control(s, P)

    def test_polar_angle_inside_theta_reachable(self):
        assert reachable_by_single_control(from_bloch(BlochAngles(THETA, 2.0)), P)

    def test_adjoint_family_is_exactly_the_reachable_set(self):
        # dense sampling of the one-segment family lies inside the set and
        # fills it: polar angles cover (0, 2*theta]
        angles = []
        for t in np.linspace(1e-4, math.pi / (2 * P.eplus_max), 200):
            s = adjoint_family_state(float(t))
            assert reachable_by_single_control(s, P)
            assert fidelity(s) >= COS2_THETA - 1e-12
            angles.append(to_bloch(s).gamma)
        assert max(angles) == pytest.approx(2 * THETA, abs=1e-6)


class TestRequiredPhase:
    def test_small_angle_limit(self):
        phi_star, tau = required_phase(1e-8, P)
        assert phi_star == pytest.approx(math.pi / 2, abs=1e-6)
        assert tau == pytest.approx(0.0, abs=1e-6)

    def test_boundary_duration(self):
        phi_star, tau = required_phase(2 * THETA, P)
        assert tau == pytest.approx(math.pi / (2 * P.eplus_max), abs=1e-12)

    def test_direct_verification_through_propagator(self):
        gamma = THETA / 2
        phi_star, tau = required_phase(gamma, P)
        state = from_bloch(BlochAngles(gamma, phi_star))
        out = evolve(state, controlled_unitary(P, P.s_max, tau))
        assert fidelity(out) >= 1.0 - 1e-10
        ref = oracle_integrate(state, P, P.s_max, tau, h=tau / 2000)
        assert fidelity(ref) >= 1.0 - 1e-10

    def test_mirror_branch(self):
        gamma = THETA
        phi_star, tau = required_phase(gamma, P)
        mirrored = from_bloch(BlochAngles(gamma, phi_star + math.pi))
        out = evolve(mirrored, controlled_unitary(P, -P.s_max, tau))
        assert fidelity(out) >= 1.0 - 1e-10

    def test_unreachable_rejected(self):
        with pytest.raises(InfeasibleError):
            required_phase(3 * THETA, P)


def plan(state, params=P):
    """``plan_single_shot``'s alignment wait (zero when it is left out) and
    its shot, checked for their kinds, labels and chaining."""
    *waits, shot = plan_single_shot(state, params)
    assert (shot.kind, shot.label) == ("control", "single_shot")
    if not waits:
        assert shot.state_in is state
        return 0.0, shot
    (wait,) = waits
    assert (wait.kind, wait.field, wait.label) == ("free", 0.0, "")
    assert wait.duration > 0.0 and wait.state_in is state and shot.state_in is wait.state_out
    return wait.duration, shot


def execute(state, wait, shot, params=P):
    """The plan's wait and shot propagated again from ``state``."""
    staged = evolve(state, free_unitary(params, wait))
    return staged, evolve(staged, controlled_unitary(params, shot.field, shot.duration))


class TestPlanSingleShot:
    def test_already_aligned_waits_zero(self):
        phi_star, _ = required_phase(THETA, P)
        wait, shot = plan(from_bloch(BlochAngles(THETA, phi_star)), P)
        assert wait == pytest.approx(0.0, abs=1e-12)
        assert shot.field == P.s_max

    def test_small_angle_wait_solves_phase_equation_directly(self):
        # phase winds at rate omega under free evolution, so reaching the
        # pi/2 phase from phi = 0 takes pi/(2 omega); the halved-rate
        # convention would give pi/(4 omega) instead
        gamma = 1e-6
        state = from_bloch(BlochAngles(gamma, 0.0))
        wait, _ = plan(state, P)
        assert wait == pytest.approx(math.pi / (2 * P.omega), rel=1e-4)
        phi_star, _ = required_phase(gamma, P)
        assert to_bloch(evolve(state, free_unitary(P, wait))).phi == pytest.approx(
            phi_star, abs=1e-9
        )

    def test_wait_picks_nearer_branch(self):
        phi_star, _ = required_phase(THETA, P)
        just_past_mirror = from_bloch(BlochAngles(THETA, phi_star + math.pi - 0.01))
        wait, shot = plan(just_past_mirror, P)
        assert wait == pytest.approx(0.01 / P.omega, abs=1e-9)
        assert shot.field == -P.s_max

    def test_random_reachable_states_end_to_end(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            gamma = rng.uniform(1e-3, 2 * THETA)
            phi = rng.uniform(0, 2 * math.pi)
            state = from_bloch(BlochAngles(gamma, phi))
            wait, shot = plan(state, P)
            _, out = execute(state, wait, shot)
            assert fidelity(out) >= 1.0 - 1e-9
            assert fidelity(shot.state_out) >= 1.0 - 1e-9

    def test_unreachable_rejected(self):
        with pytest.raises(InfeasibleError, match="not reachable"):
            plan_single_shot(from_bloch(BlochAngles(math.pi / 2, 1.0)), P)

    def test_recovers_adjoint_family_durations(self):
        for t in (0.3, 1.0, math.pi / (2 * P.eplus_max)):
            state = adjoint_family_state(t)
            wait, shot = plan(state, P)
            assert shot.duration == pytest.approx(t, abs=1e-9)
            _, out = execute(state, wait, shot)
            assert fidelity(out) >= 1.0 - 1e-12

    def test_target_state_trivial_plan(self):
        target = PureState(1.0, 0.0)
        (shot,) = plan_single_shot(target, P)
        assert (shot.kind, shot.field, shot.duration, shot.label) == ("control", P.s_max, 0.0, "single_shot")
        assert shot.state_in is target
        assert fidelity(shot.state_out) == 1.0

    def test_boundary_state_planned(self):
        phi_star, tau = required_phase(2 * THETA, P)
        state = from_bloch(BlochAngles(2 * THETA, phi_star))
        wait, shot = plan(state, P)
        assert fidelity(shot.state_out) >= 1.0 - 1e-10
        assert shot.duration == pytest.approx(tau, abs=1e-12)
        _, out = execute(state, wait, shot)
        assert fidelity(out) >= 1.0 - 1e-10

    def test_field_follows_feedback_law_at_staged_state(self):
        phi_star, _ = required_phase(THETA, P)
        for phi, sign in ((phi_star - 0.3, 1.0), (phi_star + math.pi - 0.3, -1.0)):
            state = from_bloch(BlochAngles(THETA, phi))
            wait, shot = plan(state, P)
            staged, _ = execute(state, wait, shot)
            assert shot.field == bang_field(switching_function(staged), P.s_max) == sign * P.s_max

    def test_plan_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            gamma = rng.uniform(1e-4, 2 * THETA)
            state = from_bloch(BlochAngles(gamma, 0.0))
            wait, shot = plan(state, P)
            assert 0.0 <= shot.duration <= math.pi / (2 * P.eplus_max) + 1e-12
            assert fidelity(shot.state_out) >= 1.0 - 1e-9
            assert wait >= 0.0

    def test_zero_bound_near_target_is_infeasible(self):
        # within 1e-12 of the target, so counted reachable, but off the pole
        state = from_bloch(BlochAngles(1e-6, 0.0))
        zero = SystemParams(1.0, 0.0)
        assert reachable_by_single_control(state, zero)
        with pytest.raises(InfeasibleError, match="zero field bound"):
            plan_single_shot(state, zero)

    def test_tests_reachability_and_resolves_phase_once(self, monkeypatch):
        # _band_floor is the one band rule: plan_single_shot's reachability
        # test reads it, and the feedback law reads it when it is bound
        calls = {"band": 0, "phase": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(extended, "_band_floor", counted("band", extended._band_floor))
        monkeypatch.setattr(extended, "_aligned_phase", counted("phase", extended._aligned_phase))
        wait, _ = extended.plan_single_shot(from_bloch(BlochAngles(THETA, 0.4)), P)
        assert wait.duration > 0.0
        assert calls == {"band": 1, "phase": 1}
        # a reachable switching point: next_action's own test is the only one
        at_switch = from_bloch(BlochAngles(THETA, 0.0))
        assert abs(switching_function(at_switch)) <= EPS_SWITCH
        assert extended_segments(at_switch)[-1].label == "single_shot"
        assert calls == {"band": 2, "phase": 2}
        # a run binds the law once: its switching points compare with the
        # one floor, and its one shot resolves the phase once
        config = SimConfig(P, BlochAngles(math.pi / 2, 7 * math.pi / 4), policy=Policy.EXTENDED)
        traj = run(config)
        assert sum(seg.kind == "free" and seg.duration == config.dt_free for seg in traj.segments) == 3
        assert traj.segments[-1].label == "single_shot"
        assert calls == {"band": 3, "phase": 3}

    def test_phase_propagates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("propagated")

        for name in ("evolve", "controlled_unitary", "free_unitary"):
            monkeypatch.setattr(extended, name, refuse)
        for gamma in (1e-8, THETA, 2 * THETA):
            phi_star, tau = required_phase(gamma, P)
            et = P.eplus_max * tau
            assert 0.0 <= phi_star <= math.pi / 2
            assert math.tan(phi_star) == pytest.approx(math.cos(et) / (math.sin(et) * P.omega / (2 * P.eplus_max)))

    def test_shot_that_misses_is_refused(self, monkeypatch):
        # the closed form is checked by the fidelity its own shot reaches
        monkeypatch.setattr(extended, "_aligned_phase", lambda gamma, params: (1.0, 0.5 / params.eplus_max))
        with pytest.raises(InfeasibleError, match="misses the target"):
            plan_single_shot(from_bloch(BlochAngles(THETA, 0.4)), P)


# the reachable band edge sin(gamma/2) = sin(theta_max), where the phase
# phi' is ill-conditioned and the exact-steering design lands its runs
class TestBandEdge:
    def test_edge_state_misaligned_by_rederivation_is_planned(self):
        state = from_bloch(BlochAngles(0.025762401444340895, 3.6092106163928652))
        params = SystemParams(0.09856128101181365, 0.0006348289338626543)
        wait, shot = plan(state, params)
        _, out = execute(state, wait, shot, params)
        assert fidelity(out) >= 1.0 - 1e-9

    def test_exact_steering_extended_runs_converge(self):
        worst = 1.0
        for n in range(2, 9):
            for k in range(1, 40):
                gamma0 = (0.2 + 0.7 * k / 40) * math.pi
                config = SimConfig(
                    params=SystemParams(1.0, exact_steering_strength(gamma0, 1.0, n)),
                    initial=BlochAngles(gamma0, 0.0),
                    policy=Policy.EXTENDED,
                    dt_free=1e-6,
                )
                traj = run(config)
                assert traj.converged, (n, k)
                worst = min(worst, traj.terminal_fidelity)
        assert worst >= 1.0 - 1e-9

    @pytest.mark.parametrize("omega, s_max", [(1.0, 0.1), (1.0, 1.5), (0.0986, 6.35e-4), (3.0, 40.0)])
    def test_required_phase_rejects_exactly_the_unreachable(self, omega, s_max):
        params = SystemParams(omega, s_max)

        def reachable(gamma):
            return reachable_by_single_control(from_bloch(BlochAngles(gamma, 0.0)), params)

        # the largest reachable polar angle, by bisection over floats
        lo, hi = 2 * params.theta_max * (1 - 1e-6), min(2 * params.theta_max * (1 + 1e-6), math.pi)
        assert reachable(lo) and not reachable(hi)
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if reachable(mid) else (lo, mid)
        gammas = [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, 4.0)]
        gammas += [2 * params.theta_max * (1 + d) for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)]
        for gamma in gammas:
            if reachable(gamma):
                _, tau = required_phase(gamma, params)
                assert tau <= math.pi / (2 * params.eplus_max)
            else:
                with pytest.raises(InfeasibleError, match="reachable band"):
                    required_phase(gamma, params)

    def test_zero_bound_keeps_its_own_error(self):
        zero = SystemParams(1.0, 0.0)
        assert required_phase(0.0, zero) == (0.5 * math.pi, 0.0)
        for gamma in (1e-9, 0.5):
            with pytest.raises(InfeasibleError, match="zero field bound"):
                required_phase(gamma, zero)


def _plan_case(omega, log_ratio, edge, u, phi):
    params = SystemParams(omega, 10.0**log_ratio * omega)
    gamma = 2 * params.theta_max * (1 - 10.0**-edge if edge else u)
    return params, gamma, phi


# s_max/omega from 1e-3 to 5, log-uniform; half the polar angles on the
# edge, 2*theta_max*(1 - 10^-k), where phi' is ill-conditioned
plan_cases = st.builds(
    _plan_case,
    omega=st.floats(0.05, 20.0),
    log_ratio=st.integers(-3000, 700).map(lambda i: i / 1000),
    edge=st.one_of(st.just(0), st.integers(1, 15)),
    u=st.floats(0.01, 1.0),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
# edge states at whose staged state a re-derived phi' misses the alignment,
# or a band test on sin(gamma/2) fails: the plan tests neither there
edge_cases = (_plan_case(1.0, -3.0, 12, 0.0, 0.1), _plan_case(1.0, -2.5, 12, 0.0, 15 * math.pi / 8 + 0.1))


class TestPlanProperties:
    @settings(max_examples=100)
    @given(plan_cases)
    @example(edge_cases[0])
    @example(edge_cases[1])
    def test_mirror_start_mirrors_the_plan(self, case):
        params, gamma, phi = case
        wait, shot = plan(from_bloch(BlochAngles(gamma, phi)), params)
        mirror_wait, mirror = plan(from_bloch(BlochAngles(gamma, (phi + math.pi) % (2 * math.pi))), params)
        assert mirror.field == -shot.field
        turn = (params.omega * (wait - mirror_wait)) % (2 * math.pi)
        assert min(turn, 2 * math.pi - turn) <= 1e-12
        # tau' comes from |a|, which the mirror and free evolution keep
        assert mirror.duration == shot.duration

    @settings(max_examples=100)
    @given(plan_cases)
    @example(edge_cases[0])
    @example(edge_cases[1])
    def test_plan_follows_law_and_reaches_target(self, case):
        params, gamma, phi = case
        state = from_bloch(BlochAngles(gamma, phi))
        assert reachable_by_single_control(state, params)
        wait, shot = plan(state, params)
        staged, out = execute(state, wait, shot, params)
        sw = switching_function(staged)
        if abs(sw) > EPS_SWITCH:
            assert shot.field == bang_field(sw, params.s_max)
        assert fidelity(out) >= 1.0 - 1e-12
        assert fidelity(shot.state_out) >= 1.0 - 1e-12


class TestPhaseRatioLaw:
    def test_small_angle_sweep_approaches_cos_squared(self):
        # one standard-law segment from (gamma, phi): the residual
        # population ratio tends to cos^2(phi) as gamma -> 0
        gamma = 1e-4
        for phi in (math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 3, 7 * math.pi / 4):
            state = from_bloch(BlochAngles(gamma, phi))
            f = select_field(state, P).f
            tau = segment_duration(state, f, P)
            out = evolve(state, controlled_unitary(P, f, tau))
            ratio = lyapunov(out) / lyapunov(state)
            assert ratio == pytest.approx(math.cos(phi) ** 2, rel=1e-3)

    def test_deviation_shrinks_linearly_with_gamma(self):
        phi = math.pi / 4
        devs = []
        for gamma in (2e-3, 1e-3, 5e-4):
            state = from_bloch(BlochAngles(gamma, phi))
            f = select_field(state, P).f
            tau = segment_duration(state, f, P)
            out = evolve(state, controlled_unitary(P, f, tau))
            devs.append(abs(lyapunov(out) / lyapunov(state) - 0.5))
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.1)
        assert devs[1] / devs[2] == pytest.approx(2.0, rel=0.1)

    def test_pi_half_phase_kills_residual(self):
        state = from_bloch(BlochAngles(1e-3, math.pi / 2))
        f = select_field(state, P).f
        tau = segment_duration(state, f, P)
        out = evolve(state, controlled_unitary(P, f, tau))
        assert lyapunov(out) / lyapunov(state) < 1e-5


def extended_segments(state, params=P, dt_free=1e-4):
    return next_action(state, params, Policy.EXTENDED, dt_free, 1e-6, 1e-9)


def assert_recorded(seg, state_in):
    """``seg`` starts from ``state_in`` and ends in a normalised state."""
    assert seg.state_in is state_in
    assert abs(abs(seg.state_out.a) ** 2 + abs(seg.state_out.b) ** 2 - 1.0) <= NORM_TOL


class TestHybridPolicy:
    def test_reachable_at_switch_point_waits_then_shoots(self):
        # the alignment wait and the shot come together, already propagated
        state = from_bloch(BlochAngles(THETA, 0.0))
        wait, shot = extended_segments(state)
        # the policy runs the plan itself at a reachable switching point
        assert plan_single_shot(state, P) == (wait, shot)
        assert (wait.kind, wait.field, wait.label) == ("free", 0.0, "")
        assert (shot.kind, shot.label) == ("control", "single_shot")
        assert wait.duration > 0.0
        assert_recorded(wait, state)
        assert_recorded(shot, wait.state_out)
        assert wait.state_out == evolve(state, free_unitary(P, wait.duration))
        assert shot.state_out == evolve(wait.state_out, controlled_unitary(P, shot.field, shot.duration))
        assert fidelity(shot.state_out) >= 1.0 - 1e-9
        assert lyapunov(wait.state_out) == pytest.approx(lyapunov(wait.state_in), abs=1e-12)

    def test_aligned_reachable_fires_shot(self):
        phi_star, tau = required_phase(THETA, P)
        state = from_bloch(BlochAngles(THETA, phi_star))
        (seg,) = extended_segments(state)
        assert (seg.kind, seg.field, seg.label) == ("control", P.s_max, "")
        assert seg.duration == pytest.approx(tau, abs=1e-12)
        assert_recorded(seg, state)
        assert fidelity(seg.state_out) >= 1.0 - 1e-9

    def test_far_state_falls_through_to_standard_law(self):
        state = from_bloch(BlochAngles(math.pi / 2, 1.0))
        (seg,) = extended_segments(state)
        f = select_field(state, P).f
        assert (seg.kind, seg.field, seg.label) == ("control", f, "")
        assert seg.duration == segment_duration(state, f, P)
        assert_recorded(seg, state)
        assert seg.state_out == evolve(state, controlled_unitary(P, f, seg.duration))
        assert abs(switching_function(seg.state_out)) <= 1e-13
        assert lyapunov(seg.state_out) <= lyapunov(seg.state_in) + 1e-12

    def test_unreachable_switch_point_ticks(self):
        state = from_bloch(BlochAngles(math.pi / 2, 0.0))
        (seg,) = extended_segments(state, dt_free=1e-4)
        assert (seg.kind, seg.field, seg.duration, seg.label) == ("free", 0.0, 1e-4, "")
        assert_recorded(seg, state)
        assert seg.state_out == evolve(state, free_unitary(P, 1e-4))

    def test_standard_policy_ticks_at_reachable_switch_point(self):
        state = from_bloch(BlochAngles(THETA, 0.0))
        (seg,) = next_action(state, P, Policy.STANDARD, 1e-4, 1e-6, 1e-9)
        assert (seg.kind, seg.field, seg.duration, seg.label) == ("free", 0.0, 1e-4, "")
        assert seg.state_out == evolve(state, free_unitary(P, 1e-4))

    def test_zero_bound_free_evolves(self):
        # no field can be applied, so free evolution runs until the
        # executor's time budget ends it; the unbounded segment's end state
        # is a placeholder the executor replaces
        zero = SystemParams(1.0, 0.0)
        state = from_bloch(BlochAngles(math.pi / 2, 1.0))
        assert switching_function(state) != 0.0
        for policy in Policy:
            (seg,) = next_action(state, zero, policy, 1e-4, 1e-6, 1e-9)
            assert (seg.kind, seg.field, seg.duration, seg.label) == ("free", 0.0, math.inf, "")
            assert seg.state_out is state
            assert_recorded(seg, state)

    def test_zero_bound_extended_run_near_target(self):
        # within 1e-12 of the target, so counted reachable, yet outside
        # eps_target: the zero bound is decided before any single shot
        config = SimConfig(
            params=SystemParams(1.0, 0.0),
            initial=BlochAngles(1e-6, 0.0),
            policy=Policy.EXTENDED,
            eps_target=1e-15,
        )
        assert reachable_by_single_control(from_bloch(config.initial), config.params)
        traj = run(config)
        assert not traj.converged
        assert [seg.kind for seg in traj.segments] == ["free"]
        assert traj.total_time == config.max_time
        assert traj.terminal_fidelity == pytest.approx(fidelity(from_bloch(config.initial)), abs=1e-15)

    def test_antipodal_kicks(self):
        state = from_bloch(BlochAngles(math.pi, 0.0))
        (seg,) = extended_segments(state)
        assert (seg.kind, seg.field, seg.duration, seg.label) == ("kick", 0.0, 0.0, "")
        assert_recorded(seg, state)
        assert seg.state_out == evolve(state, extended._kick_unitary(1e-6))
        assert to_bloch(seg.state_out).gamma == pytest.approx(math.pi - 1e-6, abs=1e-12)

    def test_segments_never_increase_lyapunov(self):
        rng = np.random.default_rng(17)
        kinds = set()
        for _ in range(100):
            gamma = rng.uniform(0.01, math.pi - 0.01)
            # in-plane phases are switching points: a tick, or the wait and the shot
            phi = rng.choice([rng.uniform(0, 2 * math.pi), 0.0, math.pi])
            state = from_bloch(BlochAngles(gamma, phi))
            for seg in extended_segments(state):
                assert_recorded(seg, state)
                v_in, v_out = lyapunov(seg.state_in), lyapunov(seg.state_out)
                assert v_out <= v_in + 1e-12
                if seg.kind == "free":
                    assert v_out == pytest.approx(v_in, abs=1e-12)
                    replay = evolve(seg.state_in, free_unitary(P, seg.duration))
                else:
                    assert seg.kind == "control"
                    replay = evolve(seg.state_in, controlled_unitary(P, seg.field, seg.duration))
                assert replay == seg.state_out
                kinds.add((seg.kind, seg.label))
                state = seg.state_out
        assert kinds == {("control", ""), ("free", ""), ("control", "single_shot")}
