import math

import numpy as np
import pytest

from lyapqubit import (
    BlochAngles,
    DegenerateStateError,
    InfeasibleError,
    Regime,
    RegimeError,
    SystemParams,
    bang_field,
    classify_regime,
    controlled_unitary,
    evolve,
    exact_steering_strength,
    fidelity,
    free_unitary,
    from_bloch,
    fsc_gain_coefficient,
    fsc_population_gain,
    gauge_fix,
    oracle_integrate,
    segment_duration,
    select_field,
    ssc_fidelity_bound,
    ssc_step,
    switching_function,
    to_bloch,
)

P = SystemParams(1.0, 0.1)
THETA = P.theta_max


class TestBangField:
    def test_sign_rule(self):
        fields = bang_field(np.array([0.3, -0.2, 0.0]), 1.0, 0.0)
        assert fields.tolist() == [-1.0, 1.0, 0.0]

    def test_all_zero(self):
        assert bang_field(np.array([0.0, 0.0]), 0.5, 0.0).tolist() == [0.0, 0.0]

    def test_decrease_identity(self):
        values = np.array([0.4, -1.3, 0.0, 2.2, -0.0001])
        s = 0.7
        fields = bang_field(values, s, 0.0)
        total = float(np.sum(fields * values))
        assert total == pytest.approx(-s * float(np.sum(np.abs(values))), abs=1e-12)

    def test_negative_bound_rejected(self):
        # bang_field takes its bound from a SystemParams, which rejects this
        with pytest.raises(ValueError):
            SystemParams(1.0, -1.0)

    def test_float_for_a_float_array_for_an_array(self):
        assert type(bang_field(0.3, 0.1)) is float
        assert type(bang_field(0.0, 0.1)) is float
        sw = np.array([0.3, -0.3, 1e-13, -1e-13, 2e-12])
        s = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert bang_field(sw, s).tolist() == [-0.1, 0.2, 0.0, 0.0, -0.5]

    def test_fig1_state_gets_negative_field(self, fig1_state):
        assert bang_field(switching_function(fig1_state), P.s_max) == -0.1

    def test_upper_hemisphere_phase_gets_positive_field(self):
        s = from_bloch(BlochAngles(math.pi / 2, math.pi / 2))
        assert bang_field(switching_function(s), P.s_max) == 0.1

    def test_plane_states_get_zero(self):
        for phi in (0.0, math.pi):
            s = from_bloch(BlochAngles(1.0, phi))
            assert bang_field(switching_function(s), P.s_max) == 0.0

    def test_decision_never_increases_lyapunov_rate(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = from_bloch(BlochAngles(rng.uniform(0.01, math.pi - 0.01), rng.uniform(0, 2 * math.pi)))
            f = bang_field(switching_function(s), P.s_max)
            assert f * switching_function(s) <= 1e-12 * P.s_max

    def test_select_field_wraps_bang_field(self):
        rng = np.random.default_rng(8)
        for phi in (0.0, math.pi, *rng.uniform(0, 2 * math.pi, 20)):
            s = from_bloch(BlochAngles(1.0, phi))
            assert select_field(s, P).f == bang_field(switching_function(s), P.s_max)


class TestSegmentDuration:
    def test_plane_state_after_tick_gives_half_period(self):
        # tick a plane state infinitesimally, trigger, solve: a half period
        state = from_bloch(BlochAngles(math.pi / 2, 0.0))
        ticked = evolve(state, free_unitary(P, 1e-9))
        f = bang_field(switching_function(ticked), P.s_max)
        tau = segment_duration(ticked, f, P)
        assert tau == pytest.approx(math.pi / (2 * P.eplus_max), rel=1e-6)

    def test_zero_crossing_is_genuine(self, fig1_state):
        f = bang_field(switching_function(fig1_state), P.s_max)
        tau = segment_duration(fig1_state, f, P)
        delta = 1e-9 / P.eplus_max
        before = switching_function(evolve(fig1_state, controlled_unitary(P, f, tau - delta)))
        after = switching_function(evolve(fig1_state, controlled_unitary(P, f, tau + delta)))
        assert before * after < 0.0 or abs(after) <= 1e-12

    def test_fig1_duration_validated_by_oracle_sampling(self, fig1_state):
        # bracket the first sign change of Im(a b*) by stepping the
        # brute-force integrator, then compare with the solved duration
        f = bang_field(switching_function(fig1_state), P.s_max)
        tau = segment_duration(fig1_state, f, P)
        step = 1e-3
        prev = switching_function(fig1_state)
        crossing = None
        state = fig1_state
        for k in range(1, 2000):
            state = oracle_integrate(state, P, f, step, h=1e-4)
            cur = switching_function(state)
            if prev * cur <= 0.0:
                crossing = (k - 1) * step, k * step
                break
            prev = cur
        assert crossing is not None
        assert crossing[0] <= tau <= crossing[1]

    def test_duration_bounded_by_period(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            s = from_bloch(BlochAngles(rng.uniform(0.01, math.pi - 0.01), rng.uniform(0, 2 * math.pi)))
            f = bang_field(switching_function(s), P.s_max)
            if f == 0.0:
                continue
            tau = segment_duration(s, f, P)
            assert 0.0 < tau <= math.pi / P.eplus_max + 1e-12

    def test_zero_field_rejected(self, fig1_state):
        with pytest.raises(ValueError):
            segment_duration(fig1_state, 0.0, P)

    def test_bisection_fallback_on_flat_window(self):
        # a state from the seeded sweeps benchmark where the closed-form
        # candidate leaves a residue and the switching function is zero to
        # rounding over a window about 1e-13 wide, so the bracketed
        # bisection has to finish the job
        from lyapqubit import PureState

        state = PureState(
            0.48578736063503686 - 0.8726560733113722j,
            0.024231990181781838 - 0.043529629126045515j,
        )
        params = SystemParams(1.0, 0.05)
        tau = segment_duration(state, 0.05, params)
        assert 3.117965297127157 <= tau <= 3.1179653011073056

        def g(t):
            return switching_function(evolve(state, controlled_unitary(params, 0.05, t)))

        assert g(tau) == 0.0 or g(tau - 1e-14) * g(tau + 1e-14) < 0.0

    def test_pole_state_degenerate(self):
        from lyapqubit import PureState

        with pytest.raises(DegenerateStateError):
            segment_duration(PureState(1.0, 0.0), 0.1, P)


class TestSscStep:
    def test_single_step_angle_reduction(self):
        state = from_bloch(BlochAngles(math.pi / 2, 0.0))
        out = ssc_step(state, P, dt_free=1e-6)
        assert to_bloch(out).gamma == pytest.approx(math.pi / 2 - 2 * THETA, abs=1e-6)

    def test_single_step_matches_oracle_propagation(self):
        # replay the same tick + field with the brute-force integrator
        dt = 1e-6
        state = from_bloch(BlochAngles(math.pi / 2, 0.0))
        out = ssc_step(state, P, dt_free=dt)
        ticked = oracle_integrate(state, P, 0.0, dt, h=dt / 10)
        f = bang_field(switching_function(ticked), P.s_max)
        tau = segment_duration(ticked, f, P)
        ref = oracle_integrate(ticked, P, f, tau, h=1e-4)
        assert to_bloch(out).gamma == pytest.approx(to_bloch(ref).gamma, abs=1e-8)

    def test_sign_alternation(self):
        state = from_bloch(BlochAngles(math.pi / 2, 0.0))
        expected_phases = (math.pi, 0.0, math.pi)
        for expected in expected_phases:
            state = ssc_step(state, P, dt_free=1e-6)
            phi = to_bloch(state).phi
            dist = min(abs(phi - expected), 2 * math.pi - abs(phi - expected))
            assert dist < 1e-3

    def test_overshoot_lands_in_fast_regime(self):
        gamma0 = 1.5 * THETA
        state = from_bloch(BlochAngles(gamma0, 0.0))
        out = ssc_step(state, P, dt_free=1e-6)
        assert to_bloch(out).gamma == pytest.approx(abs(gamma0 - 2 * THETA), abs=1e-6)
        assert classify_regime(out, P) is Regime.FSC

    def test_fidelity_strictly_increases(self):
        state = from_bloch(BlochAngles(2.0, math.pi))
        out = ssc_step(state, P, dt_free=1e-6)
        assert fidelity(out) > fidelity(state)

    def test_fast_regime_rejected(self):
        state = from_bloch(BlochAngles(THETA / 2, 0.0))
        with pytest.raises(RegimeError):
            ssc_step(state, P)

    def test_off_plane_state_rejected(self):
        state = from_bloch(BlochAngles(1.0, 1.0))
        with pytest.raises(ValueError):
            ssc_step(state, P)


class TestClassifyRegime:
    def test_poles(self):
        assert classify_regime(from_bloch(BlochAngles(0.0, 0.0)), P) is Regime.AT_TARGET
        assert classify_regime(from_bloch(BlochAngles(math.pi, 0.0)), P) is Regime.ANTIPODAL

    def test_boundary(self):
        assert classify_regime(from_bloch(BlochAngles(THETA / 2, 0.3)), P) is Regime.FSC
        assert classify_regime(from_bloch(BlochAngles(THETA * 1.5, 0.3)), P) is Regime.SSC

    def test_zero_bound_has_no_fast_regime(self):
        p0 = SystemParams(1.0, 0.0)
        assert classify_regime(from_bloch(BlochAngles(0.5, 0.0)), p0) is Regime.SSC


class TestExactSteering:
    def test_designed_strength_value(self):
        s = exact_steering_strength(math.pi / 2, 1.0, 3)
        assert s == pytest.approx(0.5 * math.tan(math.pi / 12), abs=1e-15)
        assert s == pytest.approx(0.133975, abs=1e-6)

    def test_single_step_inversion(self):
        s = exact_steering_strength(math.pi / 2, 1.0, 1)
        assert s == pytest.approx(0.5, abs=1e-15)
        # inversion: gamma0 = 2 arctan(2 s / omega) gives back n = 1 steering
        assert 2 * math.atan2(2 * s, 1.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_strength_vanishes_with_many_steps(self):
        values = [exact_steering_strength(math.pi / 2, 1.0, n) for n in (1, 5, 50, 500)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_designed_run_reaches_target(self):
        n = 3
        s = exact_steering_strength(math.pi / 2, 1.0, n)
        params = SystemParams(1.0, s)
        state = from_bloch(BlochAngles(math.pi / 2, 0.0))
        for _ in range(n):
            state = ssc_step(state, params, dt_free=1e-6)
        assert fidelity(state) >= 1.0 - 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exact_steering_strength(math.pi / 2, 1.0, 0)
        with pytest.raises(ValueError):
            exact_steering_strength(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            exact_steering_strength(math.pi / 2, -1.0, 3)


class TestFidelityBound:
    def test_no_control_limit(self):
        assert ssc_fidelity_bound(SystemParams(1.0, 0.0)) == 1.0

    def test_reference_value(self):
        assert ssc_fidelity_bound(P) == pytest.approx(0.5 + 0.5 / math.sqrt(1.04), abs=1e-15)
        assert ssc_fidelity_bound(P) == pytest.approx(0.990290, abs=1e-6)

    def test_monotone_in_strength(self):
        bounds = [ssc_fidelity_bound(SystemParams(1.0, s)) for s in (0.01, 0.05, 0.1, 0.5)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_equals_cos_squared_half_theta(self):
        assert ssc_fidelity_bound(P) == pytest.approx(math.cos(THETA / 2) ** 2, abs=1e-14)


class TestFscGain:
    def test_zero_tick(self):
        assert fsc_population_gain(THETA / 2, P, 0.0) == 1.0

    def test_gain_exceeds_one(self):
        assert fsc_population_gain(THETA / 2, P, 1e-3) > 1.0

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            fsc_population_gain(THETA * 1.1, P, 1e-3)
        with pytest.raises(RegimeError):
            fsc_gain_coefficient(THETA, P)

    def test_matches_oracle_cycle(self):
        # replay one chatter cycle with the brute-force integrator
        dt = 1e-3
        gamma0 = THETA / 2
        gain = fsc_population_gain(gamma0, P, dt)
        state = from_bloch(BlochAngles(gamma0, 0.0))
        ticked = oracle_integrate(state, P, 0.0, dt, h=dt / 50)
        f = bang_field(switching_function(ticked), P.s_max)
        tau = segment_duration(ticked, f, P)
        final = oracle_integrate(ticked, P, f, tau, h=min(1e-4, tau / 4))
        oracle_gain = fidelity(final) / fidelity(state)
        assert gain == pytest.approx(oracle_gain, rel=1e-6)

    def test_quadratic_scaling(self):
        gamma0 = THETA / 2
        g1 = fsc_population_gain(gamma0, P, 1e-3)
        g2 = fsc_population_gain(gamma0, P, 5e-4)
        assert (g1 - 1.0) / (g2 - 1.0) == pytest.approx(4.0, abs=0.5)

    def test_matches_exact_coefficient(self):
        # the expansion coefficient reproduces the simulated gain at small ticks
        for frac in (0.25, 0.5, 0.75):
            gamma0 = frac * THETA
            coeff = fsc_gain_coefficient(gamma0, P)
            gain = fsc_population_gain(gamma0, P, 1e-4)
            assert (gain - 1.0) / 1e-8 == pytest.approx(coeff, rel=1e-3)

    def test_coefficient_matches_independent_cycle(self):
        # one chatter cycle rebuilt with numpy alone: propagators from eigh,
        # the switching point by bracketing and bisection, and the
        # coefficient by Richardson extrapolation of (gain - 1) / dt^2 in dt^2
        omega, s = P.omega, P.s_max

        def propagator(f, t):
            w, v = np.linalg.eigh(np.array([[0.5 * omega, f], [f, -0.5 * omega]]))
            return (v * np.exp(-1j * w * t)) @ v.conj().T

        def im_ab(psi):
            return (psi[0] * np.conj(psi[1])).imag

        def cycle_gain(gamma0, dt):
            start = np.array([math.cos(gamma0 / 2), math.sin(gamma0 / 2)], dtype=complex)
            psi = propagator(0.0, dt) @ start
            sign = np.sign(im_ab(psi))
            f = -s if sign > 0 else s
            # zeros of Im(a b*) along the run are pi / (2E) apart; a grid a
            # thousand times finer brackets the first one
            step = math.pi / (2 * math.hypot(0.5 * omega, f)) / 1000
            lo, hi = 0.0, step
            while np.sign(im_ab(propagator(f, hi) @ psi)) == sign:
                lo, hi = hi, hi + step
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if np.sign(im_ab(propagator(f, mid) @ psi)) == sign:
                    lo = mid
                else:
                    hi = mid
            final = propagator(f, hi) @ psi
            return abs(final[0]) ** 2 / abs(start[0]) ** 2

        dt = 1e-3
        for frac in (0.25, 0.5, 0.75):
            gamma0 = frac * THETA
            c1 = (cycle_gain(gamma0, dt) - 1.0) / dt**2
            c2 = (cycle_gain(gamma0, dt / 2) - 1.0) / (dt / 2) ** 2
            measured = (4.0 * c2 - c1) / 3.0
            assert measured == pytest.approx(fsc_gain_coefficient(gamma0, P), rel=1e-4)
            # the form criterion 9 asserted before is off by a factor
            # (sin(theta - g0) + sin(g0)/2) / sin(theta - g0), well past 10 %
            former = (
                omega**2
                * math.sin(gamma0 / 2) ** 2
                * math.sin(THETA)
                * (math.sin(THETA - gamma0) + math.sin(gamma0) / 2)
                / math.sin(THETA - gamma0) ** 2
            )
            assert abs(measured / former - 1.0) > 0.1


def test_gauge_fix_roundtrip_through_step():
    # one full step keeps the state exactly normalized and in the plane
    state = from_bloch(BlochAngles(2.5, math.pi))
    out = ssc_step(state, P, dt_free=1e-6)
    assert abs(abs(out.a) ** 2 + abs(out.b) ** 2 - 1.0) <= 1e-12
    assert out.a.imag == pytest.approx(0.0, abs=1e-15)
    assert gauge_fix(out).a.real >= 0.0
