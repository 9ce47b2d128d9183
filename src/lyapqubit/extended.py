"""Single-shot steering: the extended technique.

A state can be mapped to the target by one constant-field segment (after a
suitable free evolution) exactly when ``|a|^2 >= cos^2(theta_max)``; one
rule states that band for states and for polar angles alike. For a
reachable polar angle ``gamma`` the exact shot has
``E tau' = arcsin(sin(gamma/2)/sin(theta_max))`` and the relative phase
``phi' = atan2(cos(E tau'), sin(E tau') cos(theta))`` under ``+s_max``;
the mirrored branch (phase ``phi' + pi``, field ``-s_max``) follows from
conjugating the field. Free evolution winds the relative phase at rate
``omega`` and leaves ``gamma`` alone, so any reachable state can be aligned
and then steered exactly; both numbers come from these closed forms alone.
:func:`plan_single_shot` returns the plan as the segments it propagated:
the alignment wait (a ``free`` :class:`Segment`, left out when it is zero)
and the exact shot (a ``control`` segment labelled ``single_shot``), whose
``state_out`` is the state the plan reaches.

The feedback law that runs this plan, and the bang law of both policies,
lives in ``engine``, beside the executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .control import InfeasibleError
from .propagator import controlled_unitary, evolve, free_unitary
from .states import TWO_PI, PureState, SystemParams, _unchecked, fidelity, to_bloch


@dataclass(frozen=True, slots=True)
class Segment:
    """One piecewise interval of a run. ``kind`` is ``control``, ``free`` or
    ``kick``; kicks are instantaneous symmetry-breaking rotations. V is
    not stored: it is ``lyapunov(state_in)`` and ``lyapunov(state_out)``."""

    kind: str
    field: float
    duration: float
    state_in: PureState
    state_out: PureState
    label: str = ""


_segment = _unchecked(Segment)


def _band_floor(params: SystemParams) -> float:
    """The one reachable-band rule: a target population ``|a|^2`` is in the
    band iff it is at least this floor, ``cos^2(theta_max)`` less 1e-12."""
    cos2_theta = (0.25 * params.omega**2) / (0.25 * params.omega**2 + params.s_max**2)
    return cos2_theta - 1e-12


def reachable_by_single_control(state: PureState, params: SystemParams) -> bool:
    """True iff ``|a|^2 >= cos^2(theta_max)``; the boundary counts as reachable."""
    return fidelity(state) >= _band_floor(params)


def _aligned_phase(gamma: float, params: SystemParams) -> tuple[float, float]:
    """``(phi', tau')`` of the ``+s_max`` branch for a polar angle the caller
    has found in the band. ``E tau' = arcsin(sin(gamma/2)/sin(theta_max))``,
    its argument clamped to 1 at the band edge, lies in ``[0, pi/2]``, so
    ``phi'`` does too: ``atan2`` fixes its quadrant and nothing is
    propagated."""
    if params.theta_max == 0.0:
        if gamma == 0.0:
            return 0.5 * math.pi, 0.0
        raise InfeasibleError("zero field bound cannot steer any state")
    et = math.asin(min(math.sin(0.5 * gamma) / (params.s_max / params.eplus_max), 1.0))
    cos_theta = 0.5 * params.omega / params.eplus_max
    return math.atan2(math.cos(et), math.sin(et) * cos_theta), et / params.eplus_max


def required_phase(gamma: float, params: SystemParams) -> tuple[float, float]:
    """Relative phase ``phi'`` and control time ``tau'`` steering the state
    ``cos(gamma/2)|e> + e^{i phi'} sin(gamma/2)|g>`` exactly to the target
    with field ``+s_max``; the mirror ``phi'+pi`` takes ``-s_max``. Both
    are the closed forms of the module docstring.

    Raises :class:`InfeasibleError` exactly when that state is not
    :func:`reachable_by_single_control`: the band rule is applied to
    ``cos^2(gamma/2)``. A zero field bound steers nothing but the target.
    """
    if not 0.0 <= gamma <= math.pi:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma!r}")
    if params.theta_max > 0.0 and math.cos(0.5 * gamma) ** 2 < _band_floor(params):
        raise InfeasibleError(
            f"gamma = {gamma!r} lies beyond the reachable band 2*theta_max = {2.0 * params.theta_max!r}"
        )
    return _aligned_phase(gamma, params)


def plan_single_shot(state: PureState, params: SystemParams) -> tuple[Segment, ...]:
    """The extended technique's one plan, as the segments it propagated:
    the free wait that aligns the relative phase (left out when it is
    zero), then the exact shot to the target, labelled ``single_shot``.

    Raises :class:`InfeasibleError` for a state that is not
    :func:`reachable_by_single_control`. Free evolution winds the phase at
    rate ``omega``; the wait is the shorter one to ``phi'`` (field
    ``+s_max``) or to ``phi'+pi`` (field ``-s_max``), and a tie takes
    ``+s_max``. A wait within 1e-9 rad of a full turn snaps to zero. Free
    evolution leaves ``|a|`` unchanged, so the control time is the closed
    form's at the state's own polar angle. A shot ending below fidelity
    ``1 - 1e-9`` raises :class:`InfeasibleError`. The target itself gets
    one shot of zero duration.
    """
    if not reachable_by_single_control(state, params):
        raise InfeasibleError("state is not reachable by a single control")
    return _plan_in_band(state, params)


def _plan_in_band(state: PureState, params: SystemParams) -> tuple[Segment, ...]:
    """:func:`plan_single_shot` for a state the caller has found reachable."""
    bl = to_bloch(state)
    if math.sin(0.5 * bl.gamma) <= 1e-12:
        final = evolve(state, controlled_unitary(params, params.s_max, 0.0))
        return (_segment("control", params.s_max, 0.0, state, final, "single_shot"),)
    phi_star, tau_prime = _aligned_phase(bl.gamma, params)
    waits = [((target - bl.phi) % TWO_PI) / params.omega for target in (phi_star, phi_star + math.pi)]
    waits = [0.0 if w * params.omega > TWO_PI - 1e-9 else w for w in waits]
    wait = min(waits)
    field = params.s_max if waits[0] <= waits[1] else -params.s_max
    staged = evolve(state, free_unitary(params, wait)) if wait > 0.0 else state
    final = evolve(staged, controlled_unitary(params, field, tau_prime))
    predicted = fidelity(final)
    if predicted < 1.0 - 1e-9:
        raise InfeasibleError(f"the closed-form shot misses the target: predicted fidelity {predicted!r}")
    shot = _segment("control", field, tau_prime, staged, final, "single_shot")
    return (_segment("free", 0.0, wait, state, staged), shot) if wait > 0.0 else (shot,)
