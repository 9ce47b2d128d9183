"""The RK4 kernel, which takes powers of the one-step matrix, against plain
stepping."""

import math
import subprocess
import sys

import pytest

from lyapqubit._kernels import rk4_steps


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


def test_import_leaves_out_scipy_and_numba():
    # numpy is the only dependency
    code = "import sys, lyapqubit; print(sorted({'scipy', 'numba'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
