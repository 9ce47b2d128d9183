"""Single-shot steering and the feedback policy.

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

The feedback law decides what a run does next: kick, free tick, bang
field, or (under the extended policy) the wait and the exact shot. It
returns, as :class:`Segment` records, the segments it propagated to
decide, so each is evolved once; the executor in ``engine`` only stops,
clips, records and counts. A run binds the law once to its settings, so
the tick, the kick, both bang fields' dressed terms and the band floor
are built at its start, and each state is read once: the law takes the
fidelity the executor computed for its convergence test.
:func:`next_action` is that law applied once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .control import DEFAULT_EPS_TARGET, InfeasibleError, _switch, bang_field
from .propagator import Unitary2, _closed, controlled_unitary, evolve, free_unitary
from .states import TWO_PI, PureState, SystemParams, _dressed_terms, _unchecked, fidelity, switching_function, to_bloch


class Policy(str, enum.Enum):
    STANDARD = "standard"
    EXTENDED = "extended"


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


def _kick_unitary(angle: float) -> Unitary2:
    # rotation about x by `angle`; takes |g> to polar angle pi - angle at
    # relative phase pi/2, breaking the antipodal equilibrium
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    off = -1j * s
    return _closed(complex(c), off, complex(c))


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


def next_action(
    state: PureState,
    params: SystemParams,
    policy: Policy,
    dt_free: float,
    kick_angle: float,
    eps_target: float,
) -> tuple[Segment, ...]:
    """The segments the feedback policy runs from ``state``, each with the
    state it ends in.

    An antipodal state (fidelity at most ``eps_target``, or at most
    :data:`~lyapqubit.control.DEFAULT_EPS_TARGET` when ``eps_target`` is
    looser: the antipodal equilibrium belongs to the dynamics, and a small
    kick could not leave a wider band) gets a symmetry-breaking ``kick``.
    Under the extended policy a reachable state at a switching point gets
    the whole :func:`plan_single_shot` plan, so nothing is decided again
    after the wait. Any other switching point gets a
    ``free`` trigger tick of ``dt_free``. When ``s_max = 0`` every state
    gets one ``free`` segment of infinite duration; its ``state_out`` is a
    placeholder (``state`` itself) that the executor replaces when it clips
    the segment to its time budget, as it always does. Elsewhere the bang
    law applies its field up to the next switching point. Termination of
    the extended policy is guaranteed because every slow-switching step
    shrinks the polar angle by ``2*theta_max`` until the reachable set is
    entered.

    ``policy`` is a :class:`Policy` or its value. Raises ``ValueError``
    for a ``dt_free`` or ``kick_angle`` that is not positive and finite,
    and for an unknown policy.
    """
    return _bind(params, policy, dt_free, kick_angle, eps_target)[0](state, fidelity(state))


def _bind(params: SystemParams, policy: Policy, dt_free: float, kick_angle: float, eps_target: float):
    """:func:`next_action`'s law bound to one run's settings, as ``(act,
    terms)``. ``act(state, fid)`` returns the segments :func:`next_action`
    returns for ``state``, whose fidelity ``fid`` the caller computed.
    ``terms`` maps each bang field, ``+s_max`` and ``-s_max``, to its
    ``_dressed_terms``. The tick, the kick, the terms, the antipodal floor
    and the band floor are built here, once per run."""
    for name, value in (("dt_free", dt_free), ("kick_angle", kick_angle)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    s_max = params.s_max
    tick = free_unitary(params, dt_free)
    kick = _kick_unitary(kick_angle)
    plus, minus = _dressed_terms(params, s_max), _dressed_terms(params, -s_max)
    antipodal = min(eps_target, DEFAULT_EPS_TARGET)
    extended = Policy(policy) is Policy.EXTENDED
    floor = _band_floor(params)

    def act(state: PureState, fid: float) -> tuple[Segment, ...]:
        if fid <= antipodal:
            return (_segment("kick", 0.0, 0.0, state, evolve(state, kick)),)
        # decided before the single shot: with no field there is nothing to plan
        if s_max == 0.0:
            return (_segment("free", 0.0, math.inf, state, state),)
        f = bang_field(switching_function(state), s_max)
        if f != 0.0:
            tau, end = _switch(state, f, plus if f > 0.0 else minus)
            return (_segment("control", f, tau, state, end),)
        # no field inside the EPS_SWITCH band: a switching point
        if extended and fid >= floor:
            return _plan_in_band(state, params)
        return (_segment("free", 0.0, dt_free, state, evolve(state, tick)),)

    # with s_max = 0 both keys are 0.0, and +s_max's terms win
    return act, {-s_max: minus, s_max: plus}
