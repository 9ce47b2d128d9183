"""The RK4 kernel, which takes the power of the one-step matrix in polar
form, against plain stepping; the law stepper, which tests the law only where the field can
change and takes the untested steps by the unit-norm step, against the
stepper that tests it every step."""

import cmath
import inspect
import math
import struct
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from lyapqubit import SystemParams, controlled_unitary, free_unitary
from lyapqubit import _kernels
from lyapqubit._kernels import rk4_steps, sampled_law_steps
from lyapqubit.control import EPS_SWITCH
from lyapqubit.propagator import UNITARY_TOL, _closed


def _rk4_stepping(a, b, omega, f, n_steps, h):
    # textbook RK4 on i d|psi>/dt = H |psi>, H = (omega/2) sz + f sx, one
    # step at a time, renormalizing after every step
    hw = 0.5 * omega

    def rhs(ya, yb):
        return -1j * (hw * ya + f * yb), -1j * (f * ya - hw * yb)

    for _ in range(n_steps):
        k1a, k1b = rhs(a, b)
        k2a, k2b = rhs(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
        k3a, k3b = rhs(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
        k4a, k4b = rhs(a + h * k3a, b + h * k3b)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
    return a, b


@pytest.mark.parametrize("f", [0.0, 0.1, -0.1])
@pytest.mark.parametrize("n_steps", [1, 7, 5000, 16_000, 100_001])
def test_rk4_power_matches_stepping(n_steps, f):
    # the kernel takes the n-th power of the one-step matrix; the result must
    # be the one n explicit steps give, on the step the oracle uses by default
    h = 1e-4 * 2 * math.pi
    args = (0.6 + 0.0j, 0.48 + 0.64j, 1.0, f, n_steps, h)
    a1, b1 = rk4_steps(*args)
    a2, b2 = _rk4_stepping(*args)
    assert abs(a1 - a2) <= 1e-12
    assert abs(b1 - b2) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    omega=st.floats(1e-3, 1e3),
    ratio=st.floats(-1.0, 1.0),
    frac=st.floats(0.0, 1.0, exclude_min=True),
    n_steps=st.integers(1, 2000),
    gamma=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_rk4_polar_power_agrees_with_stepping(omega, ratio, frac, n_steps, gamma, phi):
    # any omega, |f| <= omega and h up to 1/1000 of the free period: the
    # polar power is the n explicit steps to rounding
    h = frac * 2 * math.pi / omega / 1000
    a = complex(math.cos(gamma / 2), 0.0)
    b = cmath.exp(1j * phi) * math.sin(gamma / 2)
    args = (a, b, omega, ratio * omega, n_steps, h)
    a1, b1 = rk4_steps(*args)
    a2, b2 = _rk4_stepping(*args)
    assert abs(a1 - a2) <= 1e-12
    assert abs(b1 - b2) <= 1e-12


def test_import_leaves_out_scipy_and_numba():
    # numpy is the only dependency
    code = "import sys, lyapqubit; print(sorted({'scipy', 'numba'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _law_every_step(a, b, s_max, eps_sw, n_steps, stride, up, um, uf):
    # the reference: the law stepper with a test at every step, verbatim as
    # it stood before sampled_law_steps skipped tests
    # n_steps of the bang law re-evaluated from Im(a b*) at every step, with
    # the one-step propagators up / um / uf for f = +s_max / -s_max / 0
    # (u21 = u12 for this Hamiltonian family); returns the final amplitudes,
    # the number of step-to-step field changes and the (a, b, f) after every
    # stride-th step
    up11, up12, up22 = up.u11, up.u12, up.u22
    um11, um12, um22 = um.u11, um.u12, um.u22
    uf11, uf22 = uf.u11, uf.u22
    # the first step's field, so that the first step never counts as a switch
    sw = a.imag * b.real - a.real * b.imag
    f_prev = -s_max if sw > eps_sw else s_max if sw < -eps_sw else 0.0
    switches = 0
    samples = []
    for k in range(n_steps):
        sw = a.imag * b.real - a.real * b.imag  # Im(a conj(b))
        if sw > eps_sw:
            f = -s_max
            a, b = um11 * a + um12 * b, um12 * a + um22 * b
        elif sw < -eps_sw:
            f = s_max
            a, b = up11 * a + up12 * b, up12 * a + up22 * b
        else:
            f = 0.0
            a, b = uf11 * a, uf22 * b
        inv = 1.0 / math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
        a *= inv
        b *= inv
        if f != f_prev:
            switches += 1
        f_prev = f
        if (k + 1) % stride == 0:
            samples.append((a, b, f))
    return a, b, switches, samples


def _bits(value):
    # every float as its 8 bytes, so that -0.0 and 0.0 differ and NaN equals NaN
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, complex):
        return struct.pack("<dd", value.real, value.imag)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _assert_agrees(result, reference):
    # the switch count, the number of samples and every sample's field are
    # the reference's; the amplitudes, final and sampled, agree within 1e-12
    a, b, switches, samples = result
    ref_a, ref_b, ref_switches, ref_samples = reference
    assert switches == ref_switches
    assert len(samples) == len(ref_samples)
    assert [_bits(f) for *_, f in samples] == [_bits(f) for *_, f in ref_samples]
    pairs = [((a, b), (ref_a, ref_b))] + [(s[:2], r[:2]) for s, r in zip(samples, ref_samples)]
    assert max(max(abs(x - y) for x, y in zip(got, want)) for got, want in pairs) <= 1e-12


def _law_args(omega, ratio, eh, gamma, phi, n_steps, stride):
    # the kernel's arguments for the start (gamma, phi) and a step h with E h = eh
    s_max = ratio * omega
    params = SystemParams(omega, s_max)
    h = eh / math.hypot(0.5 * omega, s_max)
    a = complex(math.cos(gamma / 2), 0.0)
    b = complex(math.sin(gamma / 2) * math.cos(phi), math.sin(gamma / 2) * math.sin(phi))
    steps = (controlled_unitary(params, s_max, h), controlled_unitary(params, -s_max, h), free_unitary(params, h))
    return (a, b, s_max, EPS_SWITCH, n_steps, stride, *steps)


LONG = 20_000

law_cases = st.builds(
    _law_args,
    omega=st.floats(0.1, 10.0),
    ratio=st.one_of(st.just(0.0), st.floats(1e-2, 3.0)),
    eh=st.floats(-5.0, 0.0).map(lambda x: 10.0**x),
    # the poles and the phases 0 and pi start on the switching band
    gamma=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, 0.02, math.pi / 2, math.pi - 0.02, math.pi])),
    phi=st.one_of(st.floats(0.0, 2 * math.pi), st.sampled_from([0.0, math.pi, 1e-12, -1e-12, 3e-12])),
    n_steps=st.integers(0, LONG),
    stride=st.one_of(st.just(1), st.integers(2, 3000), st.just(LONG + 1)),
)


class TestSampledLawSteps:
    def test_signature(self):
        # perfbench's tracer reads the step count as the fifth argument
        names = list(inspect.signature(sampled_law_steps).parameters)
        assert names == ["a", "b", "s_max", "eps_sw", "n_steps", "stride", "up", "um", "uf"]
        assert names.index("n_steps") == 4

    @settings(max_examples=120, deadline=None)
    @given(law_cases)
    # a long slow-switching stretch through several switches, n_steps not a
    # multiple of stride
    @example(_law_args(1.0, 0.1, 1e-3, 1.0, 0.3, LONG, 3000))
    # on the equator Im(a b*) meets the band at nearly the bound's rate, so
    # a bound 1 % short takes a step past a switch
    @example(_law_args(1.0, 0.01, 1e-4, math.pi / 2, 0.3, LONG, LONG + 1))
    # fast-switching chatter near the pole, sampled every step
    @example(_law_args(1.0, 2.0, 1e-3, 0.05, 0.3, 5000, 1))
    # a start on the band, with no sample before the end
    @example(_law_args(2.0, 0.5, 1e-4, 1.2, math.pi, LONG, LONG + 1))
    # no field: both bang values are +-0.0
    @example(_law_args(1.0, 0.0, 1e-3, 1.0, 0.3, LONG, 7))
    # E h near 1, where sin(E h) is well below E h
    @example(_law_args(0.5, 3.0, 0.2, 2.0, 4.0, 3000, 100))
    @example(_law_args(0.5, 3.0, 1.0, 2.0, 4.0, 3000, 100))
    # stretches down to the pole, then fast-switching chatter: 18,766 switches
    @example(_law_args(1.0, 1.0, 1e-3, 1.0, 0.3, 40_000, 1000))
    def test_bits_equal_the_law_tested_every_step(self, args):
        # untested steps round otherwise than tested ones; with stride <= 2
        # the kernel takes none, and every bit is the reference's
        result, reference = sampled_law_steps(*args), _law_every_step(*args)
        _assert_agrees(result, reference)
        if args[5] <= 2:
            assert _bits(result) == _bits(reference)

    def test_a_slow_switching_rerun_tests_the_law_rarely(self, monkeypatch):
        # the oracle workload's shape: a sample every 10,000 steps and no
        # switch in the horizon, so all but one step per sample goes untested
        untested = []

        def counted(a, b, u11, u12, u22, n):
            untested.append(n)
            return bang_steps(a, b, u11, u12, u22, n)

        bang_steps = _kernels._bang_steps
        monkeypatch.setattr(_kernels, "_bang_steps", counted)
        args = _law_args(1.0, 0.1, 1e-5 * math.hypot(0.5, 0.1), 1.0, 0.3, 50_000, 10_000)
        result = sampled_law_steps(*args)
        assert result[2] == 0
        assert untested == [9_999] * 5
        _assert_agrees(result, _law_every_step(*args))

    # the oracle workload's slow switching, and stretches down to the pole
    # that end in chatter
    @pytest.mark.parametrize("ratio, eh, n_steps, stride", [(0.1, 1e-5, 50_000, 10_000), (1.0, 1e-3, 40_000, 1000)])
    @pytest.mark.parametrize("drift", [-1.0, 1.0])
    def test_steps_off_unit_norm_are_divided_by_it(self, monkeypatch, drift, ratio, eh, n_steps, stride):
        # _closed accepts bang steps whose column norm^2 is off 1 by up to
        # UNITARY_TOL; a stretch divides it out, so m untested steps move the
        # norm by a few ulps each, not by m * UNITARY_TOL / 2
        drifts = []

        def measured(a, b, u11, u12, u22, n):
            a, b = bang_steps(a, b, u11, u12, u22, n)
            drifts.append((n, abs(math.sqrt(abs(a) ** 2 + abs(b) ** 2) - 1.0)))
            return a, b

        bang_steps = _kernels._bang_steps
        monkeypatch.setattr(_kernels, "_bang_steps", measured)
        args = list(_law_args(1.0, ratio, eh * math.hypot(0.5, ratio), 1.0, 0.3, n_steps, stride))
        for i, sign in ((6, drift), (7, -drift)):
            u, c = args[i], math.sqrt(1.0 + sign * 0.99 * UNITARY_TOL)
            args[i] = _closed(u.u11 * c, u.u12 * c, u.u22 * c)
            assert abs(abs(args[i].u11) ** 2 + abs(args[i].u12) ** 2 - 1.0) > 0.9 * UNITARY_TOL
        _assert_agrees(sampled_law_steps(*args), _law_every_step(*args))
        assert sum(n for n, _ in drifts) >= 400
        assert all(d <= n * 1e-15 for n, d in drifts)
