import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapqubit import (
    BlochAngles,
    FieldBoundError,
    PureState,
    SystemParams,
    Unitary2,
    controlled_unitary,
    default_oracle_step,
    evolve,
    free_unitary,
    from_bloch,
    fidelity,
    lyapunov,
    oracle_integrate,
    to_bloch,
)
from lyapqubit.states import NORM_TOL, _dressed_terms

P = SystemParams(1.0, 0.1)


def as_array(u: Unitary2) -> np.ndarray:
    return np.array([[u.u11, u.u12], [u.u21, u.u22]], dtype=np.complex128)


def unitarity_defect(u: Unitary2) -> float:
    m = as_array(u)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


class TestDressed:
    @staticmethod
    def theta(f):
        return math.atan2(2 * f, P.omega)

    def test_mixing_angle_identity(self):
        for f in (-0.1, -0.03, 0.0, 0.07, 0.1):
            eplus, _, _ = _dressed_terms(P, f)
            assert math.tan(self.theta(f)) == pytest.approx(2 * f / P.omega, abs=1e-12)
            assert eplus >= P.omega / 2
            assert (eplus == pytest.approx(P.omega / 2, abs=1e-15)) == (f == 0.0)

    def test_bound_enforced(self):
        with pytest.raises(FieldBoundError):
            _dressed_terms(P, 0.11)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, f):
        with pytest.raises(FieldBoundError):
            _dressed_terms(P, f)
        # an infinite bound, which would let an infinite field through, is
        # rejected where it is set
        with pytest.raises(ValueError):
            SystemParams(1.0, math.inf)

    def test_frame_terms_match_mixing_angle(self):
        for f in (-0.1, 0.0, 0.07):
            _, sin_theta, cos_theta = _dressed_terms(P, f)
            assert sin_theta == pytest.approx(math.sin(self.theta(f)), abs=1e-15)
            assert cos_theta == pytest.approx(math.cos(self.theta(f)), abs=1e-15)


def _raw_unitary(u11, u12, u21, u22) -> Unitary2:
    # bypasses every check, to reach evolve's own guard
    u = object.__new__(Unitary2)
    for name, value in zip(("u11", "u12", "u21", "u22"), (u11, u12, u21, u22)):
        object.__setattr__(u, name, complex(value))
    return u


class TestUnitary2:
    @pytest.mark.parametrize("entries", [(math.nan, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, complex(0.0, math.nan))])
    def test_nan_entry_rejected(self, entries):
        with pytest.raises(ValueError, match="unitary"):
            Unitary2(*entries)
        with pytest.raises(ValueError, match="unitary"):
            Unitary2._exact(*(complex(x) for x in entries))

    def test_exact_rejects_non_unitary_like_public(self):
        entries = (1.0 + 1e-9j, 1e-6 + 0j, 0j, 1 + 0j)
        with pytest.raises(ValueError) as public:
            Unitary2(*entries)
        with pytest.raises(ValueError) as exact:
            Unitary2._exact(*entries)
        assert str(exact.value) == str(public.value)

    def test_closed_forms_equal_public_construction(self, frozen_record):
        for u in (
            controlled_unitary(P, 0.1, 0.37),
            controlled_unitary(P, -0.03, 12.5),
            controlled_unitary(P, 0.0, 2.0),
            free_unitary(P, 1.3),
            free_unitary(P, 0.0),
        ):
            frozen_record(u, Unitary2(u.u11, u.u12, u.u21, u.u22))
            assert all(type(getattr(u, n)) is complex for n in ("u11", "u12", "u21", "u22"))


class TestControlledUnitary:
    def test_zero_duration_is_identity(self):
        u = controlled_unitary(P, 0.1, 0.0)
        assert np.allclose(as_array(u), np.eye(2), atol=1e-15)

    def test_zero_field_reduces_to_diagonal(self):
        t = 3.7
        u = controlled_unitary(P, 0.0, t)
        d = free_unitary(P, t)
        assert np.allclose(as_array(u), as_array(d), atol=1e-15)
        assert u.u12 == 0.0 and u.u21 == 0.0

    def test_half_period_reduces_polar_angle(self):
        # from a plane state with gamma0 > 2*theta, a half period at +s_max
        # lowers the polar angle by exactly 2*theta (up to global phase)
        theta = P.theta_max
        gamma0 = math.pi / 2
        tau = math.pi / (2 * P.eplus_max)
        state = from_bloch(BlochAngles(gamma0, 0.0))
        out = evolve(state, controlled_unitary(P, P.s_max, tau))
        assert to_bloch(out).gamma == pytest.approx(gamma0 - 2 * theta, abs=1e-12)

    @given(
        st.floats(min_value=-0.1, max_value=0.1),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_unitarity_and_symmetry(self, f, t):
        u = controlled_unitary(P, f, t)
        assert unitarity_defect(u) < 1e-12
        assert u.u12 == u.u21

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            controlled_unitary(P, 0.1, -1.0)

    def test_bound_violation(self):
        with pytest.raises(FieldBoundError):
            controlled_unitary(P, 0.2, 1.0)

    def test_nan_field_rejected(self):
        with pytest.raises(FieldBoundError):
            controlled_unitary(P, math.nan, 1.0)

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            controlled_unitary(P, 0.1, math.nan)
        with pytest.raises(ValueError, match="duration"):
            free_unitary(P, math.nan)

    @given(
        st.floats(min_value=-0.1, max_value=0.1),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_long_durations_stay_unitary_and_normalized(self, f, t, gamma, phi):
        state = from_bloch(BlochAngles(gamma, phi))
        for u in (controlled_unitary(P, f, t), free_unitary(P, t)):
            assert unitarity_defect(u) < 1e-12
            out = evolve(state, u)
            assert abs(abs(out.a) ** 2 + abs(out.b) ** 2 - 1.0) <= NORM_TOL


class TestFreeUnitary:
    def test_zero_duration_identity(self):
        assert np.allclose(as_array(free_unitary(P, 0.0)), np.eye(2), atol=1e-16)

    def test_full_period_is_minus_identity(self):
        u = free_unitary(P, 2 * math.pi / P.omega)
        assert np.allclose(as_array(u), -np.eye(2), atol=1e-12)

    def test_free_evolution_preserves_lyapunov(self):
        s = from_bloch(BlochAngles(1.2, 0.7))
        for t in (0.1, 1.0, 12.3):
            assert lyapunov(evolve(s, free_unitary(P, t))) == pytest.approx(
                lyapunov(s), abs=1e-14
            )


class TestEvolve:
    def test_identity(self):
        s = from_bloch(BlochAngles(0.9, 2.0))
        out = evolve(s, Unitary2(1.0, 0.0, 0.0, 1.0))
        assert out.a == s.a and out.b == s.b

    @given(
        st.floats(min_value=-0.1, max_value=0.1),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=50)
    def test_group_property(self, f, t1, t2):
        s = from_bloch(BlochAngles(0.8, 5.0))
        two_steps = evolve(evolve(s, controlled_unitary(P, f, t1)), controlled_unitary(P, f, t2))
        one_step = evolve(s, controlled_unitary(P, f, t1 + t2))
        assert abs(two_steps.a - one_step.a) < 1e-10
        assert abs(two_steps.b - one_step.b) < 1e-10

    def test_result_equals_public_construction(self):
        s = from_bloch(BlochAngles(2.2, 1.1))
        out = evolve(s, controlled_unitary(P, 0.1, 5.0))
        assert out == PureState(out.a, out.b)
        assert type(out.a) is complex and type(out.b) is complex

    def test_drift_beyond_tolerance_is_renormalized(self):
        # state and unitary each just inside their tolerance, the product outside
        scale = math.sqrt(1.0 + 0.9e-12)
        s = PureState(scale, 0.0)
        u = Unitary2(scale, 0.0, 0.0, scale)
        a = scale * scale
        assert abs(a * a - 1.0) > NORM_TOL
        out = evolve(s, u)
        assert out.a == pytest.approx(1.0, abs=1e-15) and out.b == 0.0
        assert abs(abs(out.a) ** 2 + abs(out.b) ** 2 - 1.0) <= NORM_TOL

    @pytest.mark.parametrize("entry", [math.nan, math.inf, 0.0])
    def test_non_finite_or_zero_norm_raises(self, entry):
        s = from_bloch(BlochAngles(1.0, 0.5))
        with pytest.raises(ValueError):
            evolve(s, _raw_unitary(entry, 0.0, 0.0, entry))

    def test_normalization_preserved(self):
        s = from_bloch(BlochAngles(2.2, 1.1))
        for f, t in ((0.1, 5.0), (-0.1, 17.0), (0.0, 3.0)):
            out = evolve(s, controlled_unitary(P, f, t))
            assert abs(abs(out.a) ** 2 + abs(out.b) ** 2 - 1.0) <= 1e-12


class TestOracle:
    def test_zero_duration(self):
        s = from_bloch(BlochAngles(1.0, 1.0))
        out = oracle_integrate(s, P, 0.1, 0.0, h=1e-3)
        assert out.a == s.a and out.b == s.b

    def test_invalid_step(self):
        s = from_bloch(BlochAngles(1.0, 1.0))
        with pytest.raises(ValueError):
            oracle_integrate(s, P, 0.1, 1.0, h=0.0)
        with pytest.raises(ValueError):
            oracle_integrate(s, P, 0.1, 1.0, h=2.0)

    def test_free_case_matches_exact_solution(self):
        s = from_bloch(BlochAngles(1.234, 0.777))
        t = 7.0
        out = oracle_integrate(s, P, 0.0, t, h=1e-3)
        exact = evolve(s, free_unitary(P, t))
        assert abs(out.a - exact.a) < 1e-10
        assert abs(out.b - exact.b) < 1e-10

    def test_self_consistency_and_agreement(self):
        # omega=1, f=0.1, t=5: successive step halvings agree and match the
        # closed form at the 1e-10 level
        s = from_bloch(BlochAngles(math.pi / 2, 7 * math.pi / 4))
        coarse = oracle_integrate(s, P, 0.1, 5.0, h=1e-4)
        fine = oracle_integrate(s, P, 0.1, 5.0, h=5e-5)
        assert max(abs(coarse.a - fine.a), abs(coarse.b - fine.b)) < 1e-10
        analytic = evolve(s, controlled_unitary(P, 0.1, 5.0))
        assert max(abs(coarse.a - analytic.a), abs(coarse.b - analytic.b)) < 1e-10

    def test_analytic_matches_oracle_random_cases(self):
        rng = np.random.default_rng(424242)
        h = default_oracle_step(P)
        worst = 0.0
        for _ in range(100):
            gamma = rng.uniform(0.01, math.pi - 0.01)
            phi = rng.uniform(0.0, 2 * math.pi)
            f = rng.uniform(-0.1, 0.1)
            t = rng.uniform(0.0, 10.0)
            s = from_bloch(BlochAngles(gamma, phi))
            analytic = evolve(s, controlled_unitary(P, f, t))
            reference = oracle_integrate(s, P, f, t, h=min(h, t) if t > 0 else h)
            worst = max(worst, abs(analytic.a - reference.a), abs(analytic.b - reference.b))
        assert worst < 1e-8

    def test_oracle_preserves_fidelity_sign_conventions(self):
        # the oracle respects the same Hamiltonian sign: fidelity evolution
        # under +s_max from a phase in (0, pi) must not decrease initially
        s = from_bloch(BlochAngles(1.0, math.pi / 2))
        out = oracle_integrate(s, P, 0.1, 0.05, h=1e-4)
        assert fidelity(out) > fidelity(s)
