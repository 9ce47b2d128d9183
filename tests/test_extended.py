import cmath
import math

import numpy as np
import pytest

from lyapqubit import (
    AlignmentError,
    ApplyField,
    BlochAngles,
    FreeEvolve,
    InfeasibleError,
    Kick,
    Policy,
    PureState,
    SimConfig,
    SingleShotPlan,
    SystemParams,
    alignment_wait_time,
    controlled_unitary,
    evolve,
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
    single_shot,
    switching_function,
    to_bloch,
)

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
        s = PureState.normalized(math.sqrt(COS2_THETA - 1e-6), math.sqrt(1 - COS2_THETA + 1e-6))
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


class TestAlignmentWait:
    def test_already_aligned(self):
        gamma = THETA
        phi_star, _ = required_phase(gamma, P)
        state = from_bloch(BlochAngles(gamma, phi_star))
        assert alignment_wait_time(state, P) == pytest.approx(0.0, abs=1e-12)

    def test_small_angle_wait_solves_phase_equation_directly(self):
        # phase winds at rate omega under free evolution, so reaching the
        # pi/2 phase from phi = 0 takes pi/(2 omega); the halved-rate
        # convention would give pi/(4 omega) instead
        gamma = 1e-6
        state = from_bloch(BlochAngles(gamma, 0.0))
        wait = alignment_wait_time(state, P)
        assert wait == pytest.approx(math.pi / (2 * P.omega), rel=1e-4)
        phi_star, _ = required_phase(gamma, P)
        assert to_bloch(evolve(state, free_unitary(P, wait))).phi == pytest.approx(
            phi_star, abs=1e-9
        )

    def test_wait_picks_nearer_branch(self):
        gamma = THETA
        phi_star, _ = required_phase(gamma, P)
        just_past_mirror = from_bloch(BlochAngles(gamma, phi_star + math.pi - 0.01))
        wait = alignment_wait_time(just_past_mirror, P)
        assert wait == pytest.approx(0.01 / P.omega, abs=1e-9)

    def test_random_reachable_states_end_to_end(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            gamma = rng.uniform(1e-3, 2 * THETA)
            phi = rng.uniform(0, 2 * math.pi)
            state = from_bloch(BlochAngles(gamma, phi))
            plan = plan_single_shot(state, P)
            staged = evolve(state, free_unitary(P, plan.wait_time))
            out = evolve(staged, controlled_unitary(P, plan.field, plan.control_time))
            assert fidelity(out) >= 1.0 - 1e-9

    def test_unreachable_rejected(self):
        with pytest.raises(InfeasibleError):
            alignment_wait_time(from_bloch(BlochAngles(math.pi / 2, 1.0)), P)


class TestSingleShot:
    def test_recovers_adjoint_family_durations(self):
        for t in (0.3, 1.0, math.pi / (2 * P.eplus_max)):
            state = adjoint_family_state(t)
            plan = single_shot(state, P)
            assert plan.control_time == pytest.approx(t, abs=1e-9)
            out = evolve(state, controlled_unitary(P, plan.field, plan.control_time))
            assert fidelity(out) >= 1.0 - 1e-12

    def test_target_state_trivial_plan(self):
        plan = single_shot(PureState(1.0, 0.0), P)
        assert plan.control_time == 0.0
        assert plan.predicted_fidelity == 1.0

    def test_boundary_state_aligned(self):
        phi_star, tau = required_phase(THETA, P)
        state = from_bloch(BlochAngles(THETA, phi_star))
        plan = single_shot(state, P)
        assert plan.predicted_fidelity >= 1.0 - 1e-10
        assert plan.control_time == pytest.approx(tau, abs=1e-12)

    def test_field_follows_feedback_law(self):
        phi_star, _ = required_phase(THETA, P)
        aligned = from_bloch(BlochAngles(THETA, phi_star))
        plan = single_shot(aligned, P)
        assert plan.field == select_field(aligned, P).f
        mirrored = from_bloch(BlochAngles(THETA, phi_star + math.pi))
        plan_m = single_shot(mirrored, P)
        assert plan_m.field == select_field(mirrored, P).f == -P.s_max

    def test_misaligned_rejected(self):
        phi_star, _ = required_phase(THETA, P)
        state = from_bloch(BlochAngles(THETA, phi_star + 0.25))
        with pytest.raises(AlignmentError):
            single_shot(state, P)

    def test_plan_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            gamma = rng.uniform(1e-4, 2 * THETA)
            state = from_bloch(BlochAngles(gamma, 0.0))
            plan = plan_single_shot(state, P)
            assert 0.0 <= plan.control_time <= math.pi / (2 * P.eplus_max) + 1e-12
            assert plan.predicted_fidelity >= 1.0 - 1e-9
            assert plan.wait_time >= 0.0


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


def extended_action(state, params=P, dt_free=1e-4):
    return next_action(state, params, Policy.EXTENDED, dt_free, 1e-6, 1e-9)


class TestHybridPolicy:
    def test_reachable_at_switch_point_free_evolves(self):
        # the alignment wait and the shot come as one plan
        state = from_bloch(BlochAngles(THETA, 0.0))
        action = extended_action(state)
        assert isinstance(action, SingleShotPlan)
        assert action.wait_time > 0.0
        staged = evolve(state, free_unitary(P, action.wait_time))
        final = evolve(staged, controlled_unitary(P, action.field, action.control_time))
        assert fidelity(final) >= 1.0 - 1e-9

    def test_aligned_reachable_fires_shot(self):
        phi_star, tau = required_phase(THETA, P)
        state = from_bloch(BlochAngles(THETA, phi_star))
        action = extended_action(state)
        assert isinstance(action, ApplyField)
        assert action.duration == pytest.approx(tau, abs=1e-12)

    def test_far_state_falls_through_to_standard_law(self):
        state = from_bloch(BlochAngles(math.pi / 2, 1.0))
        action = extended_action(state)
        assert isinstance(action, ApplyField)
        assert action.field == select_field(state, P).f

    def test_unreachable_switch_point_ticks(self):
        state = from_bloch(BlochAngles(math.pi / 2, 0.0))
        action = extended_action(state, dt_free=1e-4)
        assert isinstance(action, FreeEvolve)
        assert action.duration == pytest.approx(1e-4, abs=1e-18)

    def test_standard_policy_ticks_at_reachable_switch_point(self):
        state = from_bloch(BlochAngles(THETA, 0.0))
        action = next_action(state, P, Policy.STANDARD, 1e-4, 1e-6, 1e-9)
        assert action == FreeEvolve(1e-4)

    def test_zero_bound_free_evolves(self):
        # no field can be applied, so free evolution runs until the
        # executor's time budget ends it
        zero = SystemParams(1.0, 0.0)
        state = from_bloch(BlochAngles(math.pi / 2, 1.0))
        assert switching_function(state) != 0.0
        for policy in Policy:
            assert next_action(state, zero, policy, 1e-4, 1e-6, 1e-9) == FreeEvolve(math.inf)

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
        assert traj.truncated and not traj.converged
        assert [seg.kind for seg in traj.segments] == ["free"]
        assert traj.total_time == config.max_time
        assert traj.terminal_fidelity == pytest.approx(fidelity(from_bloch(config.initial)), abs=1e-15)

    def test_antipodal_kicks(self):
        action = extended_action(from_bloch(BlochAngles(math.pi, 0.0)))
        assert isinstance(action, Kick)

    def test_actions_never_increase_lyapunov(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            gamma = rng.uniform(0.01, math.pi - 0.01)
            phi = rng.uniform(0, 2 * math.pi)
            state = from_bloch(BlochAngles(gamma, phi))
            action = extended_action(state)
            if isinstance(action, FreeEvolve):
                out = evolve(state, free_unitary(P, action.duration))
                assert lyapunov(out) == pytest.approx(lyapunov(state), abs=1e-12)
            elif isinstance(action, ApplyField):
                out = evolve(state, controlled_unitary(P, action.field, action.duration))
                assert lyapunov(out) <= lyapunov(state) + 1e-12
            elif isinstance(action, SingleShotPlan):
                staged = evolve(state, free_unitary(P, action.wait_time))
                assert lyapunov(staged) == pytest.approx(lyapunov(state), abs=1e-12)
                out = evolve(staged, controlled_unitary(P, action.field, action.control_time))
                assert lyapunov(out) <= lyapunov(state) + 1e-12
