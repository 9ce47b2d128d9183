"""Bang-bang field selection and switching-time analysis.

The feedback law drives the ground-state population ``V = |b|^2`` downward:
``dV/dt = 2 f Im(a b*)``, so the field takes the sign that makes the product
non-positive. A constant-field segment lasts until ``Im(a b*)`` crosses
zero; along such a segment the switching function is a pure sinusoid

    Im(a b*)(tau) = P cos(2 E tau) + Q sin(2 E tau)

with ``P = Im(a b*)`` at the segment start and
``Q = (sin(theta)/2) (|a|^2 - |b|^2) - cos(theta) Re(a b*)``, which makes
the first zero available in closed form and exactly periodic with period
``pi`` in ``2 E tau``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .propagator import _controlled, _evolve
from .states import (
    PARAM_RULES,
    DegenerateStateError,
    PureState,
    SystemParams,
    _dressed_terms,
    fidelity,
    switching_function,
)

#: Magnitudes of Im(a b*) below this count as "at a switching point".
EPS_SWITCH = 1e-12

#: Default fidelity band for the at-target / antipodal classification.
DEFAULT_EPS_TARGET = 1e-9


class RegimeError(ValueError):
    """The state is outside the regime this operation handles."""


class InfeasibleError(ValueError):
    """No control of the requested form exists for these inputs."""


@dataclass(frozen=True)
class ControlDecision:
    """A bang value in ``{-s_max, 0, +s_max}`` chosen by the feedback law.

    Only :func:`select_field` builds one; the library itself calls
    :func:`bang_field`. Both stay because ``perfbench/micro.py`` times
    ``segment_duration`` with the field ``select_field(...).f``."""

    f: float


class Regime(enum.Enum):
    AT_TARGET = "at_target"
    SSC = "ssc"
    FSC = "fsc"
    ANTIPODAL = "antipodal"


def bang_field(sw, s_max):
    """The bang law for a switching value ``sw = Im(a b*)``: ``+s_max`` below
    ``-EPS_SWITCH``, ``-s_max`` above it and 0 inside that one switching
    band, so that ``dV/dt = 2 f Im(a b*)`` is never positive. Written as
    comparison arithmetic, it returns a float for a float and an array for
    an array."""
    return (sw < -EPS_SWITCH) * s_max - (sw > EPS_SWITCH) * s_max


def select_field(state: PureState, params: SystemParams) -> ControlDecision:
    """:func:`bang_field` for one state, wrapped in a :class:`ControlDecision`."""
    return ControlDecision(bang_field(switching_function(state), params.s_max))


def segment_duration(state: PureState, f: float, params: SystemParams) -> float:
    """Smallest ``tau > 0`` at which ``Im(a b*)`` vanishes under constant ``f``.

    The closed-form candidate comes from the half-period structure of the
    switching sinusoid; it is then confirmed (and refined when floating-point
    residue remains) by bisection on a bracket of the switching function of
    the actually evolved state. The result always lies in
    ``(0, pi/(2 eplus)]``. It refuses, in turn, a field beyond the bound,
    a zero field, a polar state and a dressed eigenstate.
    """
    terms = _dressed_terms(params, f)
    if f == 0.0:
        raise ValueError("a zero field never produces a switching event")
    if abs(state.a) < 1e-12 or abs(state.b) < 1e-12:
        raise DegenerateStateError("polar states have no switching geometry")
    return _switch(state, f, terms)[0]


def _switch(state: PureState, f: float, terms: tuple[float, float, float]) -> tuple[float, PureState]:
    """:func:`segment_duration`'s ``tau`` and the end state that confirmed it,
    under the bang law's ``f`` (so ``|a|, |b| >= |Im(a b*)| > EPS_SWITCH``) with
    its ``_dressed_terms`` ``terms``, which serve the coefficients and every probe."""
    eplus, sin_theta, cos_theta = terms
    ab = state.a * state.b.conjugate()
    p = ab.imag
    q = 0.5 * sin_theta * (abs(state.a) ** 2 - abs(state.b) ** 2) - cos_theta * ab.real
    r = math.hypot(p, q)
    if r < 1e-15:
        raise DegenerateStateError("switching function vanishes identically (dressed eigenstate)")
    alpha = (-math.atan2(p, q)) % math.pi
    if alpha <= 0.0:
        alpha = math.pi
    tau0 = alpha / (2.0 * eplus)

    # _controlled skips the duration check: every probe is positive
    end = _evolve(state, *_controlled(eplus, sin_theta, cos_theta, tau0))
    if abs(switching_function(end)) <= 1e-13 * r:
        return tau0, end

    def g(tau: float) -> tuple[float, PureState]:
        end = _evolve(state, *_controlled(eplus, sin_theta, cos_theta, tau))
        return switching_function(end), end

    delta = max(1e-9 / eplus, 1e-12 * tau0)
    for _ in range(40):
        lo = max(tau0 - delta, 0.25 * tau0)
        hi = tau0 + delta
        (glo, end_lo), (ghi, end_hi) = g(lo), g(hi)
        if glo == 0.0:
            return lo, end_lo
        if ghi == 0.0:
            return hi, end_hi
        if glo * ghi < 0.0:
            # bisect until the bracket is 1e-14 wide or cannot be split
            while hi - lo > 1e-14:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                gmid, end = g(mid)
                if gmid == 0.0:
                    return mid, end
                if (gmid < 0.0) == (glo < 0.0):
                    lo = mid
                else:
                    hi = mid
            tau = 0.5 * (lo + hi)
            return tau, g(tau)[1]
        delta *= 4.0
    raise RuntimeError("failed to bracket the switching event")  # pragma: no cover


def _fsc_floor(params: SystemParams) -> float:
    """``gamma = 2 acos|a| <= theta_max`` iff ``|a| >= cos(theta_max/2)``."""
    return math.cos(0.5 * params.theta_max)


def classify_regime(
    state: PureState, params: SystemParams, eps_target: float = DEFAULT_EPS_TARGET
) -> Regime:
    """At-target / antipodal bands take precedence; otherwise ``|a|`` splits
    fast switching (``0 < gamma <= theta_max``) from slow switching."""
    f = fidelity(state)
    if f >= 1.0 - eps_target:
        return Regime.AT_TARGET
    if f <= eps_target:
        return Regime.ANTIPODAL
    if _fsc_floor(params) <= abs(state.a) < 1.0:
        return Regime.FSC
    return Regime.SSC


def exact_steering_strength(gamma0: float, omega: float, n: int) -> float:
    """Field strength for which ``n`` slow-switching steps land exactly on the
    target: ``(omega/2) tan(gamma0 / (2n))``."""
    if int(n) != n or n < 1:
        raise ValueError(f"step count must be a positive integer, got {n!r}")
    if not 0.0 < gamma0 < math.pi:
        raise ValueError(f"gamma0 must lie in (0, pi), got {gamma0!r}")
    ok, text = PARAM_RULES["omega"]
    if not ok(omega):
        raise ValueError(f"omega {text}, got {omega!r}")
    return 0.5 * omega * math.tan(gamma0 / (2.0 * n))


def ssc_fidelity_bound(params: SystemParams) -> float:
    """Lower bound on the fidelity reached by slow switching alone:
    ``1/2 + 1/(2 sqrt(1 + (2 s_max/omega)^2))`` (equals ``cos^2(theta_max/2)``)."""
    return 0.5 + 0.5 / math.sqrt(1.0 + (2.0 * params.s_max / params.omega) ** 2)


def fsc_gain_coefficient(gamma0: float, params: SystemParams) -> float:
    """Exact second-order coefficient of the chatter-cycle gain (a free tick,
    then the triggered field to its switching point, as a run takes it from
    the in-plane ``gamma0``): the gain is ``1 + A * dt_free**2 + O(dt_free**4)`` with

        A = omega^2 sin^2(gamma0/2) sin(theta) / sin(theta - gamma0),

    the one-cycle map to second order in the tick; singular at ``gamma0 = theta``."""
    theta = params.theta_max
    if not 0.0 < gamma0 < theta:
        raise RegimeError(f"gamma0 = {gamma0!r} outside the fast-switching regime (0, {theta!r})")
    return (
        params.omega**2
        * math.sin(0.5 * gamma0) ** 2
        * math.sin(theta)
        / math.sin(theta - gamma0)
    )
