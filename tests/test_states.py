import cmath
import math

import pytest
from hypothesis import given, strategies as st

from lyapqubit import (
    BlochAngles,
    PureState,
    SystemParams,
    controlled_unitary,
    fidelity,
    from_bloch,
    lyapunov,
    polar_angle,
    ssc_fidelity_bound,
    switching_function,
    to_bloch,
)
from lyapqubit.states import SCALE_RANGE, _new_state

SQ2 = 1.0 / math.sqrt(2.0)


class TestBlochAngles:
    def test_phi_reduced_modulo_two_pi(self):
        assert BlochAngles(1.0, -math.pi / 4).phi == pytest.approx(7 * math.pi / 4, abs=1e-15)
        assert BlochAngles(1.0, 2 * math.pi).phi == pytest.approx(0.0, abs=1e-15)
        assert 0.0 <= BlochAngles(1.0, -1e-30).phi < 2 * math.pi

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BlochAngles(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochAngles(math.pi + 0.1, 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(ValueError, match="phi"):
            BlochAngles(1.0, phi)


class TestSystemParams:
    @pytest.mark.parametrize(
        "omega, s_max", [(1.0, math.nan), (1.0, math.inf), (math.inf, 0.1), (math.nan, 0.1)]
    )
    def test_non_finite_rejected(self, omega, s_max):
        with pytest.raises(ValueError):
            SystemParams(omega, s_max)

    @pytest.mark.parametrize("omega, s_max", [(1e-300, 0.1), (1e300, 0.1), (1.0, 1e300), (0.0, 0.1), (1.0, -1e-300)])
    def test_out_of_scale_rejected(self, omega, s_max):
        with pytest.raises(ValueError, match="must lie in"):
            SystemParams(omega, s_max)

    @pytest.mark.parametrize("omega, s_max", [(1e-75, 1e75), (1e75, 1e75), (1e-75, 0.0), (1e75, 1e-75)])
    def test_closed_forms_hold_at_the_scale_limits(self, omega, s_max):
        assert SCALE_RANGE == (1e-75, 1e75)
        params = SystemParams(omega, s_max)
        # the checked constructor rejects entries that are not unitary
        controlled_unitary(params, -s_max, 0.7 / params.eplus_max)
        assert 0.5 <= ssc_fidelity_bound(params) <= 1.0


class TestPureState:
    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(1.0, 1.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, complex(0.0, math.nan), complex(math.inf, 0.0)])
    def test_constructor_rejects_non_finite(self, a):
        with pytest.raises(ValueError):
            PureState(a, 0.0)
        with pytest.raises(ValueError):
            PureState(0.0, a)

    def test_constructor_for_evolve_equals_public(self, frozen_record):
        a, b = 0.6 * cmath.exp(0.4j), 0.8 * cmath.exp(-1.1j)
        frozen_record(_new_state(a, b), PureState(a, b))


class TestFromBloch:
    def test_fig1_state(self):
        # 1/sqrt(2) [|e> + e^{-i pi/4} |g>]
        s = from_bloch(BlochAngles(math.pi / 2, 7 * math.pi / 4))
        assert s.a == pytest.approx(SQ2, abs=1e-15)
        assert s.b == pytest.approx(cmath.exp(-1j * math.pi / 4) * SQ2, abs=1e-15)

    def test_pole_gives_target(self):
        s = from_bloch(BlochAngles(0.0, 1.234))
        assert s.a == 1.0 and s.b == 0.0

    def test_direct_evaluation(self):
        s = from_bloch(BlochAngles(math.pi / 3, math.pi / 2))
        assert s.a == pytest.approx(math.cos(math.pi / 6), abs=1e-15)
        assert s.b == pytest.approx(0.5j, abs=1e-15)


class TestToBloch:
    def test_target(self):
        b = to_bloch(PureState(1.0, 0.0))
        assert b.gamma == 0.0 and b.phi == 0.0

    def test_south_pole(self):
        b = to_bloch(PureState(0.0, 1.0))
        assert b.gamma == pytest.approx(math.pi) and b.phi == 0.0

    def test_inverse_of_fig1_state(self):
        b = to_bloch(PureState(SQ2, cmath.exp(-1j * math.pi / 4) * SQ2))
        assert b.gamma == pytest.approx(math.pi / 2, abs=1e-12)
        assert b.phi == pytest.approx(7 * math.pi / 4, abs=1e-12)

    @given(
        st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
        st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
    )
    def test_round_trip(self, gamma, phi):
        b = to_bloch(from_bloch(BlochAngles(gamma, phi)))
        assert abs(b.gamma - gamma) < 1e-10
        assert min(abs(b.phi - phi), 2 * math.pi - abs(b.phi - phi)) < 1e-10


class TestPolarAngle:
    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_matches_to_bloch_under_global_phase(self, gamma, phi, global_phase):
        s = from_bloch(BlochAngles(gamma, phi))
        rotated = PureState(s.a * cmath.exp(1j * global_phase), s.b * cmath.exp(1j * global_phase))
        assert polar_angle(s) == to_bloch(s).gamma
        assert polar_angle(rotated) == to_bloch(rotated).gamma
        assert abs(polar_angle(s) - gamma) < 1e-7

    def test_poles(self):
        assert polar_angle(PureState(1.0, 0.0)) == 0.0
        assert polar_angle(PureState(0.0, 1.0)) == pytest.approx(math.pi)


class TestScalars:
    def test_fidelity_trivial(self):
        assert fidelity(PureState(1.0, 0.0)) == 1.0
        assert fidelity(PureState(0.0, 1.0)) == 0.0
        assert fidelity(from_bloch(BlochAngles(math.pi / 2, 0.3))) == pytest.approx(0.5, abs=1e-15)

    def test_fidelity_phase_invariant(self):
        s = from_bloch(BlochAngles(1.1, 2.2))
        rotated = PureState(s.a * cmath.exp(0.7j), s.b * cmath.exp(0.7j))
        assert fidelity(rotated) == pytest.approx(fidelity(s), abs=1e-15)

    def test_lyapunov_complements_fidelity(self):
        for gamma, phi in ((0.3, 0.1), (1.7, 4.0), (2.9, 5.5)):
            s = from_bloch(BlochAngles(gamma, phi))
            assert fidelity(s) + lyapunov(s) == pytest.approx(1.0, abs=1e-12)

    def test_switching_function_examples(self):
        # -sin(phi) sin(gamma) / 2 on Bloch states
        s = from_bloch(BlochAngles(math.pi / 2, math.pi / 2))
        assert switching_function(s) == pytest.approx(-0.5, abs=1e-12)
        s = from_bloch(BlochAngles(1.234, 0.0))
        assert switching_function(s) == pytest.approx(0.0, abs=1e-15)
        s = from_bloch(BlochAngles(math.pi / 2, 7 * math.pi / 4))
        assert switching_function(s) == pytest.approx(math.sin(math.pi / 4) / 2, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_switching_phase_invariant_and_odd_under_conjugation(self, gamma, phi, global_phase):
        s = from_bloch(BlochAngles(gamma, phi))
        rotated = PureState(s.a * cmath.exp(1j * global_phase), s.b * cmath.exp(1j * global_phase))
        assert switching_function(rotated) == pytest.approx(switching_function(s), abs=1e-12)
        conjugated = PureState(s.a.conjugate(), s.b.conjugate())
        assert switching_function(conjugated) == pytest.approx(-switching_function(s), abs=1e-12)
