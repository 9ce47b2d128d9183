"""Exact time-evolution operators for constant fields, plus an independent
fixed-step integrator used as a verification oracle.

The oracle is classical RK4 at a fixed step. For a constant field one step
is a fixed 2x2 polynomial in ``h H``, so ``n`` steps are taken as that
matrix's ``n``-th power in closed polar form (see ``_kernels``). This RK4
half never uses the closed form below; the sampled-law half
(``engine.run_oracle``) builds its one-step propagators with it.

For ``H = (omega/2) sz + f sx`` with mixing angle ``theta = arctan(2f/omega)``
and ``E = sqrt(omega^2/4 + f^2)`` the propagator ``exp(-iHt)`` is

    [[cos(Et) - i sin(Et) cos(theta),  -i sin(Et) sin(theta)],
     [-i sin(Et) sin(theta),           cos(Et) + i sin(Et) cos(theta)]]

which is symmetric (``u12 = u21``) and reduces to
``diag(e^{-i omega t/2}, e^{i omega t/2})`` for ``f = 0``. Every propagator
the library builds, the kick and the sweeps' arrays too, is symmetric with
``u22 = conj(u11)`` in value and ``u12`` imaginary: its column norms are the
same floats and its columns' overlap is 0 unless an entry is NaN or infinite,
so of the three tests a :class:`Unitary2` makes, :func:`_tested`, the one
test of that form, makes only ``|(|u11|^2 + |u12|^2) - 1| <= UNITARY_TOL``.
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

    def adjoint(self) -> "Unitary2":
        return Unitary2(
            self.u11.conjugate(),
            self.u21.conjugate(),
            self.u12.conjugate(),
            self.u22.conjugate(),
        )


_new_unitary = _unchecked(Unitary2)


def _tested(u11, off, u22):
    """The entries ``u11, u12, u21, u22`` of ``[[u11, off], [off, u22]]``, of
    ``complex`` values or of arrays with one cell each, after the form's one
    test on every cell; NaN fails it."""
    within = abs(abs(u11) ** 2 + abs(off) ** 2 - 1.0) <= UNITARY_TOL
    if not (within if type(within) is bool else within.all()):
        raise ValueError("entries do not form a unitary matrix")
    return u11, off, off, u22


def _closed(u11, off, u22) -> Unitary2:
    """``[[u11, off], [off, u22]]`` as a :class:`Unitary2`, after :func:`_tested`."""
    return _new_unitary(*_tested(u11, off, u22))


def _check_duration(t: float) -> None:
    # written so that NaN fails too
    if not 0.0 <= t < math.inf:
        raise ValueError(f"duration must be non-negative and finite, got {t!r}")


def controlled_unitary(params: SystemParams, f: float, t: float) -> Unitary2:
    """Propagator for a constant field ``f`` over a finite duration ``t >= 0``.

    ``f`` must respect the strength bound; a signed field gives a signed
    mixing angle so one formula covers both bang values.
    """
    _check_duration(t)
    return _new_unitary(*_controlled(*_dressed_terms(params, f), t))


def _controlled(eplus: float, st: float, ct: float, t: float):
    """:func:`controlled_unitary`'s entries, after :func:`_tested`, from the
    field's ``_dressed_terms`` and a duration ``t >= 0``, both checked by the
    caller; :func:`_evolve` applies them without building a :class:`Unitary2`."""
    c = math.cos(eplus * t)
    s = math.sin(eplus * t)
    return _tested(c - 1j * s * ct, -1j * s * st, c + 1j * s * ct)


def free_unitary(params: SystemParams, t: float) -> Unitary2:
    """Diagonal propagator ``diag(e^{-i omega t/2}, e^{i omega t/2})`` over a
    finite duration ``t >= 0``."""
    _check_duration(t)
    ph = cmath.exp(-0.5j * params.omega * t)
    return _closed(ph, 0j, ph.conjugate())


def evolve(state: PureState, u: Unitary2) -> PureState:
    """Apply ``u`` to ``state``; renormalizes defensively if drift exceeds
    the normalization tolerance. The global phase is kept. A NaN, infinite
    or zero norm raises ``ValueError``."""
    return _evolve(state, u.u11, u.u12, u.u21, u.u22)


def _evolve(state: PureState, u11: complex, u12: complex, u21: complex, u22: complex) -> PureState:
    """:func:`evolve` by the matrix ``[[u11, u12], [u21, u22]]``."""
    a = u11 * state.a + u12 * state.b
    b = u21 * state.a + u22 * state.b
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
    (``0 < h <= t`` for a finite ``t``) under a finite field ``f``,
    independent of the closed-form propagator. A step so fine that ``t/h``
    overflows is refused."""
    # an infinite step exceeds the duration
    _check_duration(t)
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    # written so that NaN fails too
    if not abs(f) < math.inf:
        raise ValueError(f"field must be finite, got {f!r}")
    if t == 0.0:
        return state
    if h > t * (1.0 + 1e-12):
        raise ValueError(f"step size {h!r} exceeds the duration {t!r}")
    steps = t / h
    if steps == math.inf:
        raise ValueError(f"step size {h!r} too fine: t/h = {steps!r} is not a finite step count")
    n_full = int(steps)
    rem = t - n_full * h
    a, b = state.a, state.b
    if n_full:
        a, b = _kernels.rk4_steps(a, b, params.omega, f, n_full, h)
    if rem > 1e-15 * max(t, 1.0):
        a, b = _kernels.rk4_steps(a, b, params.omega, f, 1, rem)
    return PureState(a, b)
