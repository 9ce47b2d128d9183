"""Pure-state math for a driven two-level system.

Basis convention: the target state ``|e>`` is ``(1, 0)`` and the ground
state ``|g>`` is ``(0, 1)``. A pure state ``a|e> + b|g>`` keeps the full
complex pair, global phase included; nothing read from it depends on
that phase. Bloch coordinates use the polar angle ``gamma``
measured from the target pole (``gamma = 0`` is ``|e>``, ``gamma = pi``
is ``|g>``) and the relative phase ``phi = arg(b) - arg(a)`` reduced to
``[0, 2*pi)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: Normalisation drift accepted by constructors; evolution renormalises
#: defensively beyond it.
NORM_TOL = 1e-12

#: Below this amplitude magnitude a state counts as sitting on a pole.
POLE_TOL = 1e-15

#: ``omega`` lies in ``[1e-75, 1e75]`` and ``s_max`` in ``[0, 1e75]``:
#: the closed forms square these values and their ratio, and the squares
#: stay normal floats.
SCALE_RANGE = (1e-75, 1e75)


class DegenerateStateError(ValueError):
    """The requested operation is undefined for this state."""


class FieldBoundError(ValueError):
    """A control field exceeds the configured strength bound."""


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude pair ``(a, b)`` on the basis ``{|e>, |g>}``."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        n2 = abs(self.a) ** 2 + abs(self.b) ** 2
        # written so that a NaN norm fails too
        if not abs(n2 - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: |a|^2 + |b|^2 = {n2!r}")

    @classmethod
    def _checked_by_caller(cls, a: complex, b: complex) -> "PureState":
        """Wrap complex amplitudes whose norm the caller has just found within
        ``NORM_TOL`` (see ``propagator.evolve``), without testing it again."""
        state = object.__new__(cls)
        object.__setattr__(state, "a", a)
        object.__setattr__(state, "b", b)
        return state


@dataclass(frozen=True)
class BlochAngles:
    """Polar angle ``gamma`` in [0, pi] and relative phase ``phi`` in [0, 2*pi).

    ``phi`` is reduced modulo ``2*pi`` on input; a non-finite ``phi`` and a
    ``gamma`` outside its range are rejected.
    """

    gamma: float
    phi: float

    def __post_init__(self):
        g = float(self.gamma)
        if not 0.0 <= g <= math.pi:
            raise ValueError(f"gamma must lie in [0, pi], got {g!r}")
        if not math.isfinite(float(self.phi)):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        p = float(self.phi) % TWO_PI
        if p >= TWO_PI:  # float modulo may round up to the period itself
            p = 0.0
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "phi", p)


@dataclass(frozen=True)
class SystemParams:
    """Level spacing ``omega`` and field-strength bound ``s_max``, within
    the ranges :data:`SCALE_RANGE` sets."""

    omega: float
    s_max: float

    def __post_init__(self):
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "s_max", float(self.s_max))
        lo, hi = SCALE_RANGE
        # written so that NaN fails too
        if not lo <= self.omega <= hi:
            raise ValueError(f"omega must lie in [{lo!r}, {hi!r}], got {self.omega!r}")
        if not 0.0 <= self.s_max <= hi:
            raise ValueError(f"s_max must lie in [0, {hi!r}], got {self.s_max!r}")

    @property
    def theta_max(self) -> float:
        """Mixing angle of the strongest field, ``arctan(2*s_max/omega)``."""
        return math.atan2(2.0 * self.s_max, self.omega)

    @property
    def eplus_max(self) -> float:
        """Positive eigenvalue at full strength, ``sqrt(omega^2/4 + s_max^2)``."""
        return math.hypot(0.5 * self.omega, self.s_max)


def _dressed_terms(params: SystemParams, f: float) -> tuple[float, float, float]:
    """``(eplus, sin(theta), cos(theta))`` for a constant field ``f``; raises
    :class:`FieldBoundError` for a non-finite ``f`` or ``|f| > s_max``."""
    f = float(f)
    # s_max is finite, and the test is written so that a NaN field fails too
    if not abs(f) <= params.s_max * (1.0 + 1e-12):
        raise FieldBoundError(f"|f| = {abs(f)!r} exceeds the bound s_max = {params.s_max!r}")
    eplus = math.hypot(0.5 * params.omega, f)
    # algebraic forms keep tan(theta) = 2f/omega exact
    return eplus, f / eplus, math.sqrt(eplus**2 - f**2) / eplus


def from_bloch(angles: BlochAngles) -> PureState:
    """State ``cos(gamma/2)|e> + e^{i phi} sin(gamma/2)|g>``."""
    half = 0.5 * angles.gamma
    return PureState(math.cos(half), cmath.exp(1j * angles.phi) * math.sin(half))


def polar_angle(state: PureState) -> float:
    """Polar angle ``gamma = 2 acos(|a|)`` in [0, pi]; phase-invariant."""
    return 2.0 * math.acos(min(abs(state.a), 1.0))


def to_bloch(state: PureState) -> BlochAngles:
    """Inverse of :func:`from_bloch`; ``phi = 0`` by convention at the poles.

    Phase-invariant: only ``|a|`` and the relative phase enter.
    """
    gamma = polar_angle(state)
    if abs(state.a) < POLE_TOL or abs(state.b) < POLE_TOL:
        return BlochAngles(gamma, 0.0)
    return BlochAngles(gamma, cmath.phase(state.b) - cmath.phase(state.a))


def fidelity(state: PureState) -> float:
    """Population of the target state, ``|a|^2``; clamped to [0, 1]."""
    return min(max(abs(state.a) ** 2, 0.0), 1.0)


def lyapunov(state: PureState) -> float:
    """Population outside the target state, ``|b|^2 = 1 - fidelity``."""
    return min(max(abs(state.b) ** 2, 0.0), 1.0)


def switching_function(state: PureState) -> float:
    """``Im(a * conj(b))``; its sign selects the bang field, its zeros mark switches.

    For a Bloch state this equals ``-sin(phi) * sin(gamma) / 2``. Invariant
    under global phase; flips sign under complex conjugation of the state.
    """
    return (state.a * state.b.conjugate()).imag
