"""Single-shot steering and the feedback policy.

A state can be mapped to the target by one constant-field segment (after a
suitable free evolution) exactly when ``|a|^2 >= cos^2(theta_max)``. For a
reachable polar angle ``gamma`` the required control time is
``tau' = arcsin(sin(gamma/2)/sin(theta_max)) / eplus`` and the required
relative phase ``phi'`` satisfies
``tan(phi') = cos(E tau') / (sin(E tau') cos(theta))``; the mirrored branch
(phase ``phi' + pi``, field ``-s_max``) follows from conjugating the field.
Free evolution winds the relative phase at rate ``omega``, so any reachable
state can be aligned and then steered exactly.

:func:`next_action` is the one place that decides what a run does next:
kick, free tick, bang field, or (under the extended policy) the wait and
the exact shot as one :class:`SingleShotPlan`. :func:`advance` applies
free evolution or a constant field to a state; the executors in ``engine``
and ``sweeps`` only stop, clip, record and count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .control import InfeasibleError, bang_field, segment_duration
from .propagator import controlled_unitary, evolve, free_unitary
from .states import (
    TWO_PI,
    BlochAngles,
    PureState,
    SystemParams,
    fidelity,
    from_bloch,
    switching_function,
    to_bloch,
)


class Policy(str, enum.Enum):
    STANDARD = "standard"
    EXTENDED = "extended"


class AlignmentError(ValueError):
    """The state is not phase-aligned (or not reachable) for a single shot."""


@dataclass(frozen=True)
class SingleShotPlan:
    """A free wait followed by one exactly-computed control segment."""

    wait_time: float
    field: float
    control_time: float
    predicted_fidelity: float


@dataclass(frozen=True)
class FreeEvolve:
    duration: float


@dataclass(frozen=True)
class ApplyField:
    field: float
    duration: float


@dataclass(frozen=True)
class Kick:
    angle: float


PolicyAction = FreeEvolve | ApplyField | Kick | SingleShotPlan


def reachable_by_single_control(state: PureState, params: SystemParams) -> bool:
    """True iff ``|a|^2 >= cos^2(theta_max)``; the boundary counts as reachable."""
    e2 = 0.25 * params.omega**2 + params.s_max**2
    cos2_theta = (0.25 * params.omega**2) / e2
    return fidelity(state) >= cos2_theta - 1e-12


def required_phase(gamma: float, params: SystemParams) -> tuple[float, float]:
    """Relative phase ``phi'`` and control time ``tau'`` steering the state
    ``cos(gamma/2)|e> + e^{i phi'} sin(gamma/2)|g>`` exactly to the target
    with field ``+s_max``.

    The quadrant of ``phi'`` is resolved by direct propagation: the
    candidate and its mirror (``phi'+pi`` with field ``-s_max``) are both
    checked and the law-consistent ``+s_max`` representative is returned.
    Raises :class:`InfeasibleError` outside ``sin(gamma/2) <= sin(theta_max)``.
    """
    if not 0.0 <= gamma <= math.pi:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma!r}")
    theta = params.theta_max
    if theta == 0.0:
        if gamma == 0.0:
            return 0.5 * math.pi, 0.0
        raise InfeasibleError("zero field bound cannot steer any state")
    sin_theta = params.s_max / params.eplus_max
    sin_half = math.sin(0.5 * gamma)
    if sin_half > sin_theta * (1.0 + 1e-12):
        raise InfeasibleError(
            f"sin(gamma/2) = {sin_half!r} exceeds sin(theta_max) = {sin_theta!r}"
        )
    et = math.asin(min(sin_half / sin_theta, 1.0))
    tau_prime = et / params.eplus_max
    cos_theta = 0.5 * params.omega / params.eplus_max
    candidate = math.atan2(math.cos(et), math.sin(et) * cos_theta)
    best_phi, best_fid = candidate, -1.0
    for phi_c, f in (
        (candidate, params.s_max),
        (candidate + math.pi, -params.s_max),
        (candidate + math.pi, params.s_max),
        (candidate, -params.s_max),
    ):
        st = from_bloch(BlochAngles(gamma, phi_c % TWO_PI))
        fid = fidelity(evolve(st, controlled_unitary(params, f, tau_prime)))
        if fid > best_fid:
            best_fid = fid
            best_phi = phi_c % TWO_PI if f > 0 else (phi_c + math.pi) % TWO_PI
    if best_fid < 1.0 - 1e-9:  # pragma: no cover - closed form is exact
        raise InfeasibleError("no phase/field combination reaches the target")
    return best_phi, tau_prime


def _circular_distance(x: float, y: float) -> float:
    d = (x - y) % TWO_PI
    return min(d, TWO_PI - d)


def alignment_wait_time(state: PureState, params: SystemParams) -> float:
    """Smallest free-evolution time after which the relative phase matches the
    required phase of one of the two field-sign branches.

    The phase winds at rate ``omega`` under free evolution; the wait is
    solved from that directly. Waits within phase tolerance of a full turn
    snap to zero.
    """
    if not reachable_by_single_control(state, params):
        raise InfeasibleError("state is not reachable by a single control")
    bl = to_bloch(state)
    if math.sin(0.5 * bl.gamma) <= 1e-12:
        return 0.0
    phi_star, _ = required_phase(bl.gamma, params)
    waits = []
    for target in (phi_star, phi_star + math.pi):
        w = ((target - bl.phi) % TWO_PI) / params.omega
        if w * params.omega > TWO_PI - 1e-9:
            w = 0.0
        waits.append(w)
    return min(waits)


def single_shot(state: PureState, params: SystemParams) -> SingleShotPlan:
    """Plan the exact steering segment for an already phase-aligned state.

    The field sign follows the feedback law at the aligned state (phase
    ``phi'`` selects ``+s_max``, phase ``phi'+pi`` selects ``-s_max``).
    Alignment is judged in the transverse metric
    ``sin(gamma/2) * phase_distance <= 1e-9``, which matches the fidelity
    impact of a misalignment and stays well conditioned at small polar
    angles (where the phase itself is barely defined); violations raise
    :class:`AlignmentError`.
    """
    if not reachable_by_single_control(state, params):
        raise AlignmentError("state is not reachable by a single control")
    bl = to_bloch(state)
    sin_half = math.sin(0.5 * bl.gamma)
    if sin_half <= 1e-12:
        return SingleShotPlan(0.0, params.s_max, 0.0, fidelity(state))
    phi_star, tau_prime = required_phase(bl.gamma, params)
    if sin_half * _circular_distance(bl.phi, phi_star) <= 1e-9:
        field = params.s_max
    elif sin_half * _circular_distance(bl.phi, phi_star + math.pi) <= 1e-9:
        field = -params.s_max
    else:
        raise AlignmentError(
            f"relative phase {bl.phi!r} is aligned with neither {phi_star!r} "
            f"nor its mirror"
        )
    predicted = fidelity(evolve(state, controlled_unitary(params, field, tau_prime)))
    return SingleShotPlan(0.0, field, tau_prime, predicted)


def plan_single_shot(state: PureState, params: SystemParams) -> SingleShotPlan:
    """Compose the alignment wait with the shot it enables."""
    wait = alignment_wait_time(state, params)
    staged = evolve(state, free_unitary(params, wait)) if wait > 0.0 else state
    shot = single_shot(staged, params)
    return SingleShotPlan(wait, shot.field, shot.control_time, shot.predicted_fidelity)


def next_action(
    state: PureState,
    params: SystemParams,
    policy: Policy,
    dt_free: float,
    kick_angle: float,
    eps_target: float,
) -> PolicyAction:
    """The one action the feedback policy takes from ``state``.

    An antipodal state (fidelity at most ``eps_target``) gets a
    symmetry-breaking kick. Under the extended policy a reachable state at a
    switching point gets the whole :class:`SingleShotPlan`: the alignment
    wait and the exact shot are one action, so nothing is decided again
    after the wait. Any other switching point, and every state when
    ``s_max = 0``, gets free evolution: a trigger tick of ``dt_free``, or
    an unbounded one at ``s_max = 0`` (the executor clips it to its time
    budget). Elsewhere the bang law applies its field up to the next
    switching point. Termination of the extended policy is guaranteed
    because every slow-switching step shrinks the polar angle by
    ``2*theta_max`` until the reachable set is entered.
    """
    if fidelity(state) <= eps_target:
        return Kick(kick_angle)
    # decided before the single shot: with no field there is nothing to plan
    if params.s_max == 0.0:
        return FreeEvolve(math.inf)
    f = bang_field(switching_function(state), params.s_max)
    if f != 0.0:
        return ApplyField(f, segment_duration(state, f, params))
    # no field inside the EPS_SWITCH band: a switching point
    if policy is Policy.EXTENDED and reachable_by_single_control(state, params):
        return plan_single_shot(state, params)
    return FreeEvolve(dt_free)


def advance(
    state: PureState, params: SystemParams, action: FreeEvolve | ApplyField, duration: float
) -> PureState:
    """The state after ``duration`` of free evolution or of the action's
    constant field; executors pass the action's duration or less."""
    if isinstance(action, ApplyField):
        return evolve(state, controlled_unitary(params, action.field, duration))
    return evolve(state, free_unitary(params, duration))
