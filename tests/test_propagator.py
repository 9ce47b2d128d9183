import cmath
import itertools
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
from lyapqubit import engine, propagator, states
from lyapqubit.propagator import _closed
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


def _rejects(check, *entries) -> bool:
    try:
        check(*entries)
    except ValueError:
        return True
    return False


def _controlled_entries(f: float, t: float, scale: float):
    # as _controlled builds them from _dressed_terms, with the diagonal's
    # cosine scaled; None where the arithmetic itself raises, before any check
    try:
        theta = math.atan2(2.0 * f, P.omega)
        angle = math.hypot(0.5 * P.omega, f) * abs(t)
        c, s = scale * math.cos(angle), math.sin(angle)
    except (ValueError, OverflowError):
        return None
    return c - 1j * s * math.cos(theta), -1j * s * math.sin(theta), c + 1j * s * math.cos(theta)


def _free_entries(t: float, scale: float):
    # as free_unitary builds them
    try:
        ph = scale * cmath.exp(-0.5j * P.omega * abs(t))
    except (ValueError, OverflowError):
        return None
    return ph, 0j, ph.conjugate()


def _kick_entries(angle: float, scale: float):
    # as engine builds its kick, _KICK, here at any angle
    try:
        c, s = scale * math.cos(0.5 * abs(angle)), math.sin(0.5 * abs(angle))
    except (ValueError, OverflowError):
        return None
    return complex(c), -1j * s, complex(c)


class TestUnitary2:
    @pytest.mark.parametrize("entries", [(math.nan, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, complex(0.0, math.nan))])
    def test_nan_entry_rejected(self, entries):
        with pytest.raises(ValueError, match="unitary"):
            Unitary2(*entries)

    @pytest.mark.parametrize("u11, off", [(complex(math.nan, 0.0), 0j), (1 + 0j, complex(0.0, math.nan))])
    def test_closed_rejects_a_nan_entry(self, u11, off):
        # _closed reads u11 and off; u22 is conj(u11) in its form
        with pytest.raises(ValueError, match="unitary"):
            _closed(u11, off, u11.conjugate())

    def test_closed_rejects_non_unitary_like_public(self):
        u11, off = 1 + 0j, 2e-6j
        with pytest.raises(ValueError) as public:
            Unitary2(u11, off, off, u11.conjugate())
        with pytest.raises(ValueError) as closed:
            _closed(u11, off, u11.conjugate())
        assert str(closed.value) == str(public.value)

    @pytest.mark.parametrize("build", [_controlled_entries, _free_entries, _kick_entries])
    def test_the_norm_test_rejects_where_the_three_tests_do(self, build):
        # the scalar builders' entries, from fields, durations and kick
        # angles at 0, tiny, ordinary, far beyond a turn, NaN and +-inf, and
        # from ordinary ones with the diagonal scaled across the tolerance
        special = [0.0, 5e-324, 1e-300, 1e-9, 0.05, 0.5, 2.0, 7.5, 1e9, 1e300, math.nan, math.inf]
        special += [-x for x in special]
        rng = np.random.default_rng(25)
        args = [(*x, 1.0) for x in itertools.product(special, repeat=2)]
        args += [(*rng.uniform(-3.0, 3.0, 2), 1.0 + rng.uniform(-2e-12, 2e-12)) for _ in range(2000)]
        if build is not _controlled_entries:
            args = [(x, scale) for x, _, scale in args]
        cells = [e for e in (build(*x) for x in args) if e is not None]
        three = [_rejects(propagator._check_unitary, u11, off, off, u22) for u11, off, u22 in cells]
        one = [_rejects(_closed, *entries) for entries in cells]
        assert one == three
        # some cells pass, and some fail with finite entries and some without
        finite = [all(cmath.isfinite(x) for x in entries) for entries in cells]
        assert not all(three)
        assert any(r and f for r, f in zip(three, finite)) and any(r and not f for r, f in zip(three, finite))

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


    def test_the_kick_is_the_x_rotation_its_builder_makes(self, frozen_record):
        # engine builds its one kick at import, at 1e-6 rad
        u = engine._KICK
        assert (u.u11, u.u12, u.u22) == _kick_entries(1e-6, 1.0) and u.u21 == u.u12
        frozen_record(u, Unitary2(u.u11, u.u12, u.u21, u.u22))
        assert unitarity_defect(u) < 1e-15
        out = to_bloch(evolve(from_bloch(BlochAngles(math.pi, 0.0)), u))
        assert out.gamma == pytest.approx(math.pi - 1e-6, abs=1e-12)


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

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_a_duration_that_is_not_finite_is_refused_by_its_text(self, t):
        # the oracle's text; an infinite duration used to reach math.sin
        # ("math domain error") or the unitarity test
        for build in (lambda: controlled_unitary(P, 0.1, t), lambda: free_unitary(P, t)):
            with pytest.raises(ValueError, match=r"^duration must be non-negative and finite, got "):
                build()

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.sampled_from([P.s_max, -P.s_max]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_the_entries_move_a_state_as_the_unitary_does(self, gamma, phi, f, frac):
        # a run's probes and clipped or sampled states apply the closed form's
        # entries without building its Unitary2: the same state, bit for bit
        state = from_bloch(BlochAngles(gamma, phi))
        terms = _dressed_terms(P, f)
        t = frac * math.pi / terms[0]
        assert propagator._evolve(state, *propagator._controlled(*terms, t)) == evolve(
            state, controlled_unitary(P, f, t)
        )

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
        # NaN and inf fail with the guards' own messages, for a zero duration too
        for t, h in ((1.0, math.nan), (0.0, math.nan), (0.0, -1.0)):
            with pytest.raises(ValueError, match="step size must be positive"):
                oracle_integrate(s, P, 0.1, t, h)
        with pytest.raises(ValueError, match="exceeds the duration"):
            oracle_integrate(s, P, 0.1, 1.0, math.inf)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_invalid_duration(self, t):
        s = from_bloch(BlochAngles(1.0, 1.0))
        with pytest.raises(ValueError, match="duration must be non-negative and finite"):
            oracle_integrate(s, P, 0.1, t, 1e-3)

    def test_a_step_count_that_overflows_is_refused(self):
        # t/h = inf used to raise OverflowError from int(); a finite count,
        # however large, is one call of the polar power
        s = from_bloch(BlochAngles(1.0, 1.0))
        with pytest.raises(ValueError, match=r"too fine: t/h = inf "):
            oracle_integrate(s, P, 0.1, 1.0, 1e-310)
        fine = oracle_integrate(s, P, 0.1, 1.0, 1e-300)
        exact = evolve(s, controlled_unitary(P, 0.1, 1.0))
        assert max(abs(fine.a - exact.a), abs(fine.b - exact.b)) < 1e-14

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_a_field_that_is_not_finite_is_refused(self, f):
        # a NaN field used to read "state not normalized: ... nan"
        s = from_bloch(BlochAngles(1.0, 1.0))
        for t in (1.0, 0.0):
            with pytest.raises(ValueError, match=r"^field must be finite, got "):
                oracle_integrate(s, P, f, t, 1e-3)

    def test_the_rk4_half_uses_no_closed_form(self, monkeypatch):
        # oracle_integrate and its kernel must reach the same bits with every
        # closed-form builder refusing to run
        s = from_bloch(BlochAngles(2.2, 1.1))
        cases = [(0.1, 5.0, 1e-3), (-0.07, 3.3, 7e-4), (0.0, 2.0, 1e-3)]
        before = [oracle_integrate(s, P, *case) for case in cases]

        def refuse(*args):
            raise AssertionError("closed form used")

        for name in ("controlled_unitary", "_controlled", "_dressed_terms", "free_unitary", "_closed", "_tested"):
            monkeypatch.setattr(propagator, name, refuse)
        monkeypatch.setattr(states, "_dressed_terms", refuse)
        assert [oracle_integrate(s, P, *case) for case in cases] == before

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
