import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lyapqubit import (
    BlochAngles,
    Policy,
    PureState,
    Regime,
    SimConfig,
    SystemParams,
    bang_field,
    classify_regime,
    controlled_unitary,
    evolve,
    fidelity,
    free_unitary,
    from_bloch,
    lyapunov,
    next_action,
    run,
    run_oracle,
    switching_function,
)
from lyapqubit import control, engine, extended
from lyapqubit.cli import trajectory_csv
from lyapqubit.states import NORM_TOL

P = SystemParams(1.0, 0.1)
THETA = P.theta_max
FIG1 = BlochAngles(math.pi / 2, 7 * math.pi / 4)


def fig1_config(**overrides):
    kwargs = dict(params=P, initial=FIG1, policy=Policy.STANDARD)
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def clipped_mid(config, kind):
    """``config`` with its time budget ending halfway through the last
    segment of ``kind`` that its run reaches."""
    t, mid = 0.0, None
    for seg in run(config).segments:
        if seg.kind == kind:
            mid = t + 0.5 * seg.duration
        t += seg.duration
    return dataclasses.replace(config, max_time=mid)


class TestRunBasics:
    def test_initial_target_is_empty_trajectory(self):
        traj = run(SimConfig(params=P, initial=BlochAngles(0.0, 0.0)))
        assert traj.segments == ()
        assert traj.terminal_fidelity == 1.0
        assert traj.converged

    def test_sample_times_strictly_increasing(self):
        traj = run(fig1_config(max_switches=50))
        times = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_segment_chaining(self):
        traj = run(fig1_config(max_switches=30))
        for prev, cur in zip(traj.segments, traj.segments[1:]):
            assert cur.state_in is prev.state_out

    def test_segment_invariants(self):
        # the run records the states the policy propagated, so a replay of
        # every segment is the guard on its state_out: for both policies, a
        # segment clipped by the time budget and a kicked start
        configs = [
            fig1_config(max_switches=200),
            fig1_config(policy=Policy.EXTENDED),
            clipped_mid(fig1_config(max_switches=200), "control"),
            clipped_mid(fig1_config(policy=Policy.EXTENDED), "free"),
            SimConfig(params=P, initial=BlochAngles(math.pi, 0.0), max_switches=50),
        ]
        for config in configs:
            traj = run(config)
            state = traj.segments[0].state_in
            assert state == from_bloch(config.initial)
            for seg in traj.segments:
                assert seg.state_in is state
                v_in, v_out = lyapunov(seg.state_in), lyapunov(seg.state_out)
                if seg.kind == "control":
                    assert v_out <= v_in + 1e-12
                    u = controlled_unitary(P, seg.field, seg.duration)
                elif seg.kind == "free":
                    assert v_out == pytest.approx(v_in, abs=1e-12)
                    u = free_unitary(P, seg.duration)
                else:
                    assert (seg.kind, seg.duration) == ("kick", 0.0)
                    u = engine._kick_unitary(config.kick_angle)
                replay = evolve(seg.state_in, u)
                assert abs(replay.a - seg.state_out.a) < 1e-10
                assert abs(replay.b - seg.state_out.b) < 1e-10
                state = seg.state_out
            assert state is traj.final_state

    @pytest.mark.parametrize("policy, kind", [(Policy.STANDARD, "control"), (Policy.EXTENDED, "free")])
    def test_clipped_segment_ends_the_run(self, policy, kind):
        config = clipped_mid(fig1_config(policy=policy, max_switches=200), kind)
        traj = run(config)
        assert not traj.converged
        assert traj.total_time == config.max_time
        last = traj.segments[-1]
        assert last.kind == kind
        # the clipped segment runs the time left, half of the whole one
        full = run(fig1_config(policy=policy, max_switches=200)).segments[len(traj.segments) - 1]
        assert last.state_in == full.state_in
        assert last.duration == pytest.approx(0.5 * full.duration, rel=1e-9)

    def test_run_evolves_each_segment_once(self, monkeypatch):
        # with no grid samples, the policy's own propagation is the only one
        calls = []

        def counted(state, u):
            calls.append(u)
            return evolve(state, u)

        for module in (control, extended, engine):
            monkeypatch.setattr(module, "evolve", counted)
        for policy, n in ((Policy.STANDARD, 399), (Policy.EXTENDED, 9)):
            calls.clear()
            traj = run(fig1_config(policy=policy, max_switches=200, sample_interval=1e9))
            assert len(traj.segments) == n
            assert len(calls) == n

    def test_run_computes_lyapunov_once_per_sample(self, monkeypatch):
        # a record keeps states, so with no grid samples the only V computed
        # is each sample's: one per segment start plus the final state
        calls = []

        def counted(state):
            calls.append(state)
            return lyapunov(state)

        for module in (engine, extended):
            monkeypatch.setattr(module, "lyapunov", counted, raising=False)
        for policy, n in ((Policy.STANDARD, 399), (Policy.EXTENDED, 9)):
            calls.clear()
            traj = run(fig1_config(policy=policy, max_switches=200, sample_interval=1e9))
            assert len(traj.segments) == n
            assert len(traj.samples) == n + 1
            assert len(calls) == n + 1

    def test_segment_safety_net_stops_a_stalled_run(self):
        # a tick too short to move the phase leaves a switching point where
        # it is, so neither the switch nor the time budget ends the run
        config = SimConfig(params=P, initial=BlochAngles(math.pi / 2, 0.0), dt_free=1e-300, max_switches=1)
        traj = run(config)
        assert not traj.converged
        assert len(traj.segments) == 10 * config.max_switches + 10_000
        assert traj.switch_count == 0
        assert {seg.kind for seg in traj.segments} == {"free"}

    def test_normalization_across_run(self):
        traj = run(fig1_config(max_switches=500))
        for s in traj.samples:
            assert abs(abs(s.state.a) ** 2 + abs(s.state.b) ** 2 - 1.0) <= 1e-12

    def test_truncation_reports_fast_switching_plateau(self):
        traj = run(fig1_config(max_switches=300))
        assert not traj.converged
        assert traj.final_regime is Regime.FSC

    def test_max_time_clips_run(self):
        traj = run(fig1_config(max_time=2.0))
        assert not traj.converged
        assert traj.total_time == pytest.approx(2.0, abs=1e-9)

    def test_time_budget_stops_run(self):
        config = fig1_config(max_time=12.345)
        traj = run(config)
        assert not traj.converged
        assert traj.total_time == config.max_time
        assert traj.samples[-1].t == config.max_time
        assert traj.switch_count < config.max_switches

    def test_run_records_equal_their_public_twins(self, frozen_record):
        # next_action and the run build their segments and samples unchecked
        for policy in (Policy.STANDARD, Policy.EXTENDED):
            traj = run(fig1_config(policy=policy, max_switches=200))
            kinds = {(seg.kind, seg.label): seg for seg in traj.segments}
            assert len(kinds) == (2 if policy is Policy.STANDARD else 3)
            for rec in (*kinds.values(), traj.samples[0], traj.samples[1], traj.samples[-1]):
                frozen_record(rec, type(rec)(*(getattr(rec, f.name) for f in dataclasses.fields(rec))))

    def test_tick_cache_keeps_each_run_as_run_alone(self):
        # each run binds its own trigger tick for its (params, dt_free); no
        # run may see another's
        other = SystemParams(2.0, 0.3)
        configs = [
            fig1_config(max_switches=300),
            fig1_config(params=other, max_switches=300),
            fig1_config(dt_free=3e-4, max_switches=300),
            fig1_config(params=other, dt_free=3e-4, max_switches=300),
            fig1_config(max_switches=300),
        ]
        alone = []
        for config in configs:
            alone.append(run(config))
        together = [run(config) for config in configs]
        assert together == alone
        assert [trajectory_csv(t) for t in together] == [trajectory_csv(t) for t in alone]

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_max_time_must_be_positive_and_finite(self, value):
        # a run clips its last segment to the time left; with no field that
        # segment is infinite, and an infinite budget would keep it unclipped
        for params in (P, SystemParams(1.0, 0.0)):
            with pytest.raises(ValueError, match="max_time must be positive and finite"):
                SimConfig(params=params, initial=FIG1, max_time=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_sample_interval_must_be_positive_and_finite(self, value):
        # an infinite interval would leave a run two samples and give the
        # oracle no stride
        with pytest.raises(ValueError, match="sample_interval must be positive and finite"):
            SimConfig(params=P, initial=FIG1, sample_interval=value)

    @pytest.mark.parametrize("value", [2.5, 0, -3, math.nan, math.inf])
    def test_max_switches_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_switches must be an integer of at least 1"):
            SimConfig(params=P, initial=FIG1, max_switches=value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1e-3])
    @pytest.mark.parametrize("name", ["dt_free", "kick_angle"])
    def test_tick_and_kick_must_be_positive_and_finite(self, name, value):
        # a run builds its tick and kick at its start, so a config refuses
        # what they cannot be built from
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SimConfig(params=P, initial=FIG1, **{name: value})


class TestPolicyByValue:
    """A policy given by its value is the policy: a string that is none
    raises, and ``"extended"`` runs the extended law, not the standard one."""

    START = BlochAngles(2.0, 0.3)

    def test_a_config_coerces_the_policy_value(self):
        by_value = run(SimConfig(params=P, initial=self.START, policy="extended"))
        assert by_value == run(SimConfig(params=P, initial=self.START, policy=Policy.EXTENDED))
        # the standard law stops unconverged at its switch budget from here
        assert by_value.converged
        assert [seg.label for seg in by_value.segments if seg.label] == ["single_shot"]

    def test_an_unknown_policy_is_refused(self):
        with pytest.raises(ValueError, match="policy must be one of standard, extended, got 'bogus'"):
            SimConfig(params=P, initial=self.START, policy="bogus")


class TestStandardRunStructure:
    def test_lyapunov_monotone(self):
        traj = run(fig1_config(max_switches=2000))
        vs = [s.v for s in traj.samples]
        assert max((b - a for a, b in zip(vs, vs[1:])), default=0.0) <= 1e-10

    def test_switches_at_zero_crossings(self):
        traj = run(fig1_config(max_switches=200, max_time=1e6))
        controls = [s for s in traj.segments if s.kind == "control"]
        for seg in controls:
            assert seg.field * switching_function(seg.state_in) <= 1e-12 * P.s_max
            assert abs(switching_function(seg.state_out)) <= 1e-10

    def test_dvdt_matches_finite_difference(self):
        # centered numerical derivative of V along each segment vs the
        # instantaneous rate in the dVdt column the CSV writer derives
        traj = run(fig1_config(max_switches=20))
        rows = [row.split(",") for row in trajectory_csv(traj).splitlines()]
        assert rows[0][6] == "dVdt"
        rate = {s.t: float(row[6]) for s, row in zip(traj.samples, rows[1:], strict=True)}
        t_cursor = 0.0
        checked = 0
        delta = 1e-5
        for seg in traj.segments:
            in_window = [
                s
                for s in traj.samples
                if t_cursor + delta < s.t < t_cursor + seg.duration - delta and s.kind == seg.kind
            ]
            for s in in_window[:3]:
                if seg.kind == "control":
                    u_fwd = controlled_unitary(P, seg.field, delta)
                else:
                    u_fwd = free_unitary(P, delta)
                fwd = evolve(s.state, u_fwd)
                bwd = evolve(s.state, u_fwd.adjoint())
                fd = ((1 - fidelity(fwd)) - (1 - fidelity(bwd))) / (2 * delta)
                assert fd == pytest.approx(rate[s.t], abs=1e-8)
                checked += 1
            t_cursor += seg.duration
        assert checked >= 10

    def test_antipodal_start_gets_kicked(self):
        traj = run(
            SimConfig(params=P, initial=BlochAngles(math.pi, 0.0), max_switches=50)
        )
        assert traj.segments[0].kind == "kick"
        assert traj.segments[0].duration == 0.0
        assert any(s.kind == "control" for s in traj.segments)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_antipodal_start_converges_under_loose_eps_target(self, policy):
        # the kicks stop once the state leaves the antipodal equilibrium's
        # own band, however loose the convergence tolerance
        traj = run(SimConfig(params=P, initial=BlochAngles(math.pi, 0.0), policy=policy, eps_target=0.01))
        kinds = [seg.kind for seg in traj.segments]
        kicks = kinds.count("kick")
        assert kicks >= 1 and kinds[:kicks] == ["kick"] * kicks
        assert "control" in kinds[kicks:]
        assert traj.converged and traj.terminal_fidelity >= 0.99

    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # tighter than the pole's own fidelity, 3.7e-33 as from_bloch builds it
    @example(5e-324)
    @example(1e-30)
    @settings(max_examples=50, deadline=None)
    def test_every_accepted_eps_target_kicks_the_antipodal_state(self, eps_target):
        config = SimConfig(params=P, initial=BlochAngles(math.pi, 0.0), eps_target=eps_target, max_switches=1)
        pole = from_bloch(config.initial)
        (seg,) = next_action(pole, config)
        assert seg.kind == "kick"
        traj = run(config)
        assert traj.segments[0].kind == "kick"
        assert traj.terminal_fidelity > fidelity(pole)

    def test_zero_strength_leaves_v_constant(self):
        p0 = SystemParams(1.0, 0.0)
        traj = run(
            SimConfig(
                params=p0,
                initial=BlochAngles(1.0, 1.0),
                max_time=10.0,
                max_switches=5,
            )
        )
        vs = {round(s.v, 13) for s in traj.samples}
        assert len(vs) == 1


class TestExtendedRun:
    def test_fig1_scenario_converges_exactly(self):
        traj = run(fig1_config(policy=Policy.EXTENDED))
        assert traj.converged
        assert traj.terminal_fidelity >= 1.0 - 1e-9
        last = traj.segments[-1]
        assert last.kind == "control" and last.label == "single_shot"

    def test_terminal_shot_verified(self):
        traj = run(fig1_config(policy=Policy.EXTENDED))
        shot = traj.segments[-1]
        assert fidelity(shot.state_in) >= (0.25 / (0.25 + P.s_max**2)) - 1e-12
        assert 0.0 <= shot.duration <= math.pi / (2 * P.eplus_max) + 1e-12
        assert fidelity(shot.state_out) >= 1.0 - 1e-9

    def test_grid_termination_and_budget(self):
        gammas = np.linspace(0.03, math.pi - 0.03, 20)
        phis = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
        for gamma in gammas:
            for phi in phis:
                traj = run(
                    SimConfig(
                        params=P,
                        initial=BlochAngles(float(gamma), float(phi)),
                        policy=Policy.EXTENDED,
                    )
                )
                assert traj.converged, (gamma, phi)
                budget = math.ceil(gamma / (2 * THETA)) + 3
                assert traj.switch_count <= budget, (gamma, phi)

    def test_antipodal_start_converges_via_kick(self):
        traj = run(
            SimConfig(params=P, initial=BlochAngles(math.pi, 0.0), policy=Policy.EXTENDED)
        )
        assert traj.converged
        assert traj.segments[0].kind == "kick"

    def test_lyapunov_never_increases_across_actions(self):
        traj = run(fig1_config(policy=Policy.EXTENDED))
        for seg in traj.segments:
            if seg.kind in ("control", "free"):
                assert lyapunov(seg.state_out) <= lyapunov(seg.state_in) + 1e-12


run_cases = st.builds(
    lambda log_omega, ratio, gamma, phi, policy: (
        SystemParams(10.0**log_omega, ratio * 10.0**log_omega),
        BlochAngles(gamma, phi),
        policy,
    ),
    log_omega=st.floats(-1.0, 1.0),
    ratio=st.floats(1e-2, 3.0),
    gamma=st.floats(0.05, math.pi - 0.05),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    policy=st.sampled_from(Policy),
)


class TestRunProperties:
    @settings(max_examples=25, deadline=None)
    @given(run_cases)
    def test_law_norm_and_mirror_symmetry(self, case):
        # the start at phase phi + pi is the conjugate-field mirror: b -> -b
        # flips the sign of Im(a b*), so every bang field flips and the
        # segments, durations and V follow
        params, initial, policy = case
        mirror_initial = BlochAngles(initial.gamma, (initial.phi + math.pi) % (2 * math.pi))
        traj, mirror = (
            run(SimConfig(params=params, initial=start, policy=policy, max_switches=60))
            for start in (initial, mirror_initial)
        )
        for seg in traj.segments + mirror.segments:
            if seg.kind == "control":
                assert lyapunov(seg.state_out) <= lyapunov(seg.state_in) + 1e-12
            out = seg.state_out
            assert abs(abs(out.a) ** 2 + abs(out.b) ** 2 - 1.0) <= NORM_TOL
        assert [seg.kind for seg in mirror.segments] == [seg.kind for seg in traj.segments]
        for seg, m in zip(traj.segments, mirror.segments):
            assert m.field == -seg.field
            assert m.duration == pytest.approx(seg.duration, rel=1e-8)
            assert lyapunov(m.state_out) == pytest.approx(lyapunov(seg.state_out), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(run_cases, st.floats(0.0, 2 * math.pi))
    def test_global_phase_invariance(self, case, chi):
        # SimConfig holds Bloch angles, which carry no global phase, so the
        # policy's own chains of segments are compared: e^{i chi} times a
        # state is the same physical state and must be steered alike
        params, initial, policy = case
        config = SimConfig(params=params, initial=initial, policy=policy)
        state = from_bloch(initial)
        turn = cmath.exp(1j * chi)
        chain, turned = (action_chain(start, config) for start in (state, PureState(turn * state.a, turn * state.b)))
        assert [seg.kind for seg in turned] == [seg.kind for seg in chain]
        for seg, t in zip(chain, turned):
            assert (t.field, t.label) == (seg.field, seg.label)
            assert t.duration == pytest.approx(seg.duration, rel=1e-8)
            assert lyapunov(t.state_out) == pytest.approx(lyapunov(seg.state_out), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(run_cases)
    # the antipodal kick, a zero bound (one unbounded free segment, clipped),
    # and a reachable switching point under each policy
    @example((P, BlochAngles(math.pi, 0.0), Policy.STANDARD))
    @example((SystemParams(1.0, 0.0), BlochAngles(1.0, 0.5), Policy.EXTENDED))
    @example((P, BlochAngles(THETA, 0.0), Policy.STANDARD))
    @example((P, BlochAngles(THETA, 0.0), Policy.EXTENDED))
    def test_run_takes_the_segments_next_action_chains(self, case):
        # run binds the law that next_action applies once: up to the one
        # segment the time budget clips, a run is next_action's chain
        params, initial, policy = case
        config = SimConfig(params=params, initial=initial, policy=policy, max_switches=60)
        traj = run(config)
        chain = action_chain(from_bloch(initial), config, limit=len(traj.segments))
        assert len(chain) >= len(traj.segments)
        for seg, link in zip(traj.segments, chain):
            if seg != link:
                assert seg is traj.segments[-1] and traj.total_time >= config.max_time * (1.0 - 1e-15)
                assert (seg.kind, seg.field, seg.label) == (link.kind, link.field, link.label)
                assert seg.state_in == link.state_in
                assert seg.duration < link.duration


def action_chain(state, config, limit=120):
    """The segments ``next_action`` chains from ``state`` until convergence,
    or until the first step past ``limit`` segments."""
    segments = []
    while len(segments) < limit and fidelity(state) < 1.0 - config.eps_target:
        segments += next_action(state, config)
        state = segments[-1].state_out
    return segments


class TestRunOracle:
    def test_step_guard(self):
        cfg = fig1_config(dt_free=1e-3)
        with pytest.raises(ValueError):
            run_oracle(cfg, h=5e-4)
        for h in (math.nan, 0.0, -1e-4):
            with pytest.raises(ValueError, match="step size must be positive"):
                run_oracle(cfg, h)
        with pytest.raises(ValueError, match="too coarse"):
            run_oracle(cfg, math.inf)
        # a step too fine to count, or past the cap, is refused before counting
        short = fig1_config(dt_free=1e-3, max_time=1.0)
        for h in (5e-324, 1e-300, 0.99e-8):
            with pytest.raises(ValueError, match="too fine"):
                run_oracle(short, h)

    def test_the_extended_policy_is_refused(self):
        # the rerun steps the standard law only; it would silently rerun that
        cfg = fig1_config(policy=Policy.EXTENDED, dt_free=1e-3, max_time=1.0)
        with pytest.raises(ValueError, match="not the 'extended' policy"):
            run_oracle(cfg, 1e-4)

    def test_the_rerun_never_kicks(self):
        # from the antipodal state the law applies no field, and the rerun
        # stays there for the whole horizon, where run kicks
        cfg = fig1_config(initial=BlochAngles(math.pi, 0.0), dt_free=1e-3, max_time=1.0)
        rerun = run_oracle(cfg, 1e-4)
        assert rerun.field_changes == 0 and rerun.terminal_fidelity < 1e-30
        assert rerun.total_time == pytest.approx(1.0)
        assert run(cfg).segments[0].kind == "kick"

    def test_samples_past_the_cap_are_refused_before_stepping(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(engine._kernels, "sampled_law_steps", kernel)
        h = 2.0**-20
        # 2**20 steps, a sample after each: one sample past the cap
        cfg = fig1_config(dt_free=16 * h, max_time=1.0, sample_interval=h)
        with pytest.raises(ValueError, match=f"ask for {2**20 + 1} samples, past the cap of 1000000"):
            run_oracle(cfg, h)
        # a sample every other step is within it, and steps
        with pytest.raises(AssertionError, match="stepped"):
            run_oracle(dataclasses.replace(cfg, sample_interval=2 * h), h)

    def test_a_stride_past_the_horizon_takes_no_sample(self):
        # sample_interval / h overflows a float; the rerun still runs and
        # records only its start, as any stride past the last step does
        cfg = fig1_config(dt_free=1e-3, max_time=1e-3, sample_interval=1e308)
        rerun = run_oracle(cfg, 1e-4)
        assert [s.t for s in rerun.samples] == [0.0]
        assert rerun.total_time == 10 * 1e-4

    def test_zero_strength_v_constant(self):
        p0 = SystemParams(1.0, 0.0)
        cfg = SimConfig(
            params=p0, initial=BlochAngles(1.1, 0.7), dt_free=1e-2, max_time=20.0
        )
        traj = run_oracle(cfg, h=1e-3)
        vs = [s.v for s in traj.samples]
        assert max(vs) - min(vs) < 1e-12
        assert all(s.f == 0.0 for s in traj.samples)

    def test_agreement_with_event_driven_run(self):
        cfg = fig1_config(
            dt_free=1e-3, sample_interval=0.25, max_time=50.0, max_switches=60_000
        )
        traj = run(cfg)
        oracle = run_oracle(cfg, h=1e-4)
        dev = _fidelity_series_deviation(traj, oracle, 0.25)
        assert dev < 2e-3

    def test_halving_step_reduces_deviation(self):
        # the oracle step is tied to the trigger tick (h <= dt_free/10), so
        # the convergence scan refines both jointly; the run/oracle deviation
        # is dominated by the tick lag at each switch and halves per level
        def deviation(dt_free, h):
            cfg = fig1_config(
                dt_free=dt_free, sample_interval=0.5, max_time=12.0, max_switches=5000
            )
            return _fidelity_series_deviation(run(cfg), run_oracle(cfg, h=h), 0.5)

        dev_coarse = deviation(2e-3, 2e-4)
        dev_mid = deviation(1e-3, 1e-4)
        dev_fine = deviation(5e-4, 5e-5)
        assert dev_mid <= dev_coarse * 0.6
        assert dev_fine <= dev_mid * 0.6


def _plain_oracle(config, h):
    # run_oracle stepped in the plainest way: the public bang law picks one
    # of the three one-step propagators, evolve applies it, and a sample is
    # taken at t = 0 and after every stride-th step
    params = config.params
    s_max = params.s_max
    steps = {
        s_max: controlled_unitary(params, s_max, h),
        -s_max: controlled_unitary(params, -s_max, h),
        0.0: free_unitary(params, h),
    }
    n_steps = int(math.floor(config.max_time / h + 1e-9))
    stride = max(1, int(round(config.sample_interval / h)))
    state = from_bloch(config.initial)
    fields = []
    samples = [(0.0, bang_field(switching_function(state), s_max), state)]
    for k in range(n_steps):
        f = bang_field(switching_function(state), s_max)
        fields.append(f)
        state = evolve(state, steps[f])
        if (k + 1) % stride == 0:
            samples.append((stride * h * len(samples), f, state))
    switches = sum(f != g for f, g in zip(fields, fields[1:]))
    return switches, samples, state


class TestOracleAgainstPlainStepping:
    # the phi = 0 start sits on the switching band, so the run begins with a
    # free step and then alternates the two bang values; the horizon is not
    # a multiple of the sample stride
    @pytest.mark.parametrize("initial", [BlochAngles(2.0, 0.0), FIG1])
    def test_switches_samples_and_amplitudes(self, initial):
        cfg = SimConfig(params=P, initial=initial, dt_free=1e-2, sample_interval=0.25, max_time=12.05)
        h = 1e-3
        switches, samples, final = _plain_oracle(cfg, h)
        oracle = run_oracle(cfg, h)
        assert switches >= 3
        assert oracle.field_changes == switches
        assert [(s.t, s.f) for s in oracle.samples] == [(t, f) for t, f, _ in samples]
        for s, (_, _, state) in zip(oracle.samples, samples):
            assert abs(s.state.a - state.a) <= 1e-12
            assert abs(s.state.b - state.b) <= 1e-12
        assert abs(oracle.final_state.a - final.a) <= 1e-12
        assert abs(oracle.final_state.b - final.b) <= 1e-12
        assert oracle.total_time == 12050 * h


def _fidelity_series_deviation(traj_a, traj_b, interval: float) -> float:
    grid_a = {}
    for s in traj_a.samples:
        k = round(s.t / interval)
        if abs(s.t - k * interval) < 1e-6 and k not in grid_a:
            grid_a[k] = 1.0 - s.v
    grid_b = {}
    for s in traj_b.samples:
        k = round(s.t / interval)
        if abs(s.t - k * interval) < 1e-6 and k not in grid_b:
            grid_b[k] = 1.0 - s.v
    common = sorted(set(grid_a) & set(grid_b))
    assert len(common) >= 10
    return max(abs(grid_a[k] - grid_b[k]) for k in common)
