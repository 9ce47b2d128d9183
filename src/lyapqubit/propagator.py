"""Exact time-evolution operators for constant fields, plus an independent
fixed-step integrator used as a verification oracle.

The oracle is classical RK4 at a fixed step. For a constant field one step
is a fixed 2x2 polynomial in ``h H``, so ``n`` steps are taken as that
matrix's ``n``-th power by repeated squaring (see ``_kernels``); it never
uses the closed form below.

For ``H = (omega/2) sz + f sx`` with mixing angle ``theta = arctan(2f/omega)``
and ``E = sqrt(omega^2/4 + f^2)`` the propagator ``exp(-iHt)`` is

    [[cos(Et) - i sin(Et) cos(theta),  -i sin(Et) sin(theta)],
     [-i sin(Et) sin(theta),           cos(Et) + i sin(Et) cos(theta)]]

which is symmetric (``u12 = u21``) and reduces to
``diag(e^{-i omega t/2}, e^{i omega t/2})`` for ``f = 0``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import _kernels
from .states import NORM_TOL, PureState, SystemParams, _dressed_terms, _new_state, _unchecked

#: Unitarity drift accepted when constructing a Unitary2.
UNITARY_TOL = 1e-12


def _check_unitary(u11: complex, u12: complex, u21: complex, u22: complex) -> None:
    c1 = abs(u11) ** 2 + abs(u21) ** 2
    c2 = abs(u12) ** 2 + abs(u22) ** 2
    cross = u11.conjugate() * u12 + u21.conjugate() * u22
    # written so that a NaN entry fails too
    if not (abs(c1 - 1.0) <= UNITARY_TOL and abs(c2 - 1.0) <= UNITARY_TOL and abs(cross) <= UNITARY_TOL):
        raise ValueError("entries do not form a unitary matrix")


@dataclass(frozen=True, slots=True)
class Unitary2:
    """A 2x2 unitary stored as four complex entries."""

    u11: complex
    u12: complex
    u21: complex
    u22: complex

    def __post_init__(self):
        for name in ("u11", "u12", "u21", "u22"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        _check_unitary(self.u11, self.u12, self.u21, self.u22)

    @staticmethod
    def _exact(u11: complex, u12: complex, u21: complex, u22: complex) -> "Unitary2":
        """Build from entries that are already ``complex`` (closed forms),
        with the same unitarity check but no re-conversion."""
        _check_unitary(u11, u12, u21, u22)
        return _new_unitary(u11, u12, u21, u22)

    def adjoint(self) -> "Unitary2":
        return Unitary2(
            self.u11.conjugate(),
            self.u21.conjugate(),
            self.u12.conjugate(),
            self.u22.conjugate(),
        )


_new_unitary = _unchecked(Unitary2)


def controlled_unitary(params: SystemParams, f: float, t: float) -> Unitary2:
    """Propagator for a constant field ``f`` over duration ``t >= 0``.

    ``f`` must respect the strength bound; a signed field gives a signed
    mixing angle so one formula covers both bang values.
    """
    if not t >= 0.0:
        raise ValueError(f"duration must be non-negative, got {t!r}")
    return _controlled(*_dressed_terms(params, f), t)


def _controlled(eplus: float, st: float, ct: float, t: float) -> Unitary2:
    """:func:`controlled_unitary` from the field's ``_dressed_terms`` and a
    duration ``t >= 0``, both checked by the caller."""
    c = math.cos(eplus * t)
    s = math.sin(eplus * t)
    off = -1j * s * st
    return Unitary2._exact(c - 1j * s * ct, off, off, c + 1j * s * ct)


def free_unitary(params: SystemParams, t: float) -> Unitary2:
    """Diagonal propagator ``diag(e^{-i omega t/2}, e^{i omega t/2})``."""
    if not t >= 0.0:
        raise ValueError(f"duration must be non-negative, got {t!r}")
    ph = cmath.exp(-0.5j * params.omega * t)
    return Unitary2._exact(ph, 0j, 0j, ph.conjugate())


def evolve(state: PureState, u: Unitary2) -> PureState:
    """Apply ``u`` to ``state``; renormalizes defensively if drift exceeds
    the normalization tolerance. The global phase is kept. A NaN, infinite
    or zero norm raises ``ValueError``."""
    a = u.u11 * state.a + u.u12 * state.b
    b = u.u21 * state.a + u.u22 * state.b
    n2 = abs(a) ** 2 + abs(b) ** 2
    if abs(n2 - 1.0) <= NORM_TOL:
        return _new_state(a, b)
    if not 0.0 < n2 < math.inf:
        raise ValueError(f"evolved state has norm^2 {n2!r}")
    inv = 1.0 / math.sqrt(n2)
    return PureState(a * inv, b * inv)


def default_oracle_step(params: SystemParams) -> float:
    """Default integrator step: 1e-4 of the free-evolution period."""
    return 1e-4 * (2.0 * math.pi / params.omega)


def oracle_integrate(state: PureState, params: SystemParams, f: float, t: float, h: float) -> PureState:
    """Brute-force fixed-step reference evolution at step ``h``
    (``0 < h <= t``), independent of the closed-form propagator."""
    if t < 0.0:
        raise ValueError(f"duration must be non-negative, got {t!r}")
    if t == 0.0:
        return state
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    if h > t * (1.0 + 1e-12):
        raise ValueError(f"step size {h!r} exceeds the duration {t!r}")
    n_full = int(t / h)
    rem = t - n_full * h
    a, b = state.a, state.b
    if n_full:
        a, b = _kernels.rk4_steps(a, b, params.omega, f, n_full, h)
    if rem > 1e-15 * max(t, 1.0):
        a, b = _kernels.rk4_steps(a, b, params.omega, f, 1, rem)
    return PureState(a, b)
