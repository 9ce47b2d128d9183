"""The feedback law and the execution of full control runs.

The feedback law decides what a run does next: kick, free tick, bang
field, or (under the extended policy) the wait and the exact shot that
``extended`` plans. It returns, as :class:`Segment` records, the segments
it propagated to decide, so each is evolved once; the executor only stops,
clips, records and counts. A run binds the law once to its
:class:`SimConfig`, so the tick, both bang fields' dressed terms and the
band floor are built at its start, and each state is read once:
the law takes the fidelity the executor computed for its convergence test.
:func:`next_action` is that law applied once.

``run`` executes the segments the bound law returns, under either
policy: it stops on convergence or on the switch, time or segment budget,
clips a segment to the time left, counts control segments, and keeps
every segment: the whole record of a run. Its samples are replayed from it
on first read, a grid sample inside a control segment from the bound law's
dressed terms of its field. A record keeps states, not numbers derived from
them, except a sample's V, computed once per sample.
``run_oracle`` re-simulates a standard-policy scenario by brute force: a
fixed step ``h`` under the field the bang law picks at every step, serving
as ground truth for the event-driven segmentation. It returns an
:class:`OracleRun`, which has no segments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

from . import _kernels
from .control import DEFAULT_EPS_TARGET, EPS_SWITCH, Regime, _switch, bang_field, classify_regime
from .extended import Segment, _band_floor, _plan_in_band, _segment
from .propagator import _closed, _controlled, _evolve, controlled_unitary, evolve, free_unitary
from .states import (
    BlochAngles,
    PureState,
    SystemParams,
    _check,
    _dressed_terms,
    _unchecked,
    fidelity,
    from_bloch,
    lyapunov,
    switching_function,
)


#: Defaults of ``dt_free``, ``sample_interval`` and ``max_time``, in units of ``1/omega``.
DEFAULT_DT_FREE_FACTOR = 1e-4
DEFAULT_SAMPLE_INTERVAL_FACTOR = 0.1
DEFAULT_MAX_TIME_FACTOR = 1000.0

#: The most steps ``run_oracle`` takes: 25 s of pure-Python steps in slow
#: switching, where most steps go untested, to 80 s in fast-switching
#: chatter, where every step is tested (about 0.24 and 0.8 us a step).
_MAX_ORACLE_STEPS = 10**8

#: Most grid samples a scenario file may ask a run for, a run's record
#: replays and ``run_oracle`` keeps: about 180 MB of a run's, 250 MB of a rerun's.
MAX_GRID_SAMPLES = 1_000_000

#: The law's kick at the antipodal state, where it applies no field: a
#: rotation about x by 1e-6 rad, taking |g> to polar angle pi - 1e-6 at
#: relative phase pi/2, which breaks the antipodal equilibrium
_KICK = _closed(complex(math.cos(5e-7)), -1j * math.sin(5e-7), complex(math.cos(5e-7)))


class Policy(str, enum.Enum):
    STANDARD = "standard"
    EXTENDED = "extended"


_POSITIVE_FINITE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")

#: :class:`SimConfig`'s rule of each setting, ``(ok, text)``, in the order it checks
#: them; NaN and inf fail too, since a run needs a finite tick and budget
SIM_RULES = {
    "dt_free": _POSITIVE_FINITE,
    "sample_interval": _POSITIVE_FINITE,
    "eps_target": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "max_switches": (lambda v: 1 <= v < math.inf and v % 1 == 0, "must be an integer of at least 1"),
    "max_time": _POSITIVE_FINITE,
    "policy": (lambda v: v in tuple(Policy), f"must be one of {', '.join(Policy)}"),
}


@dataclass(frozen=True)
class SimConfig:
    """Full scenario description, and the one statement of a run's defaults:
    scenario files and the CLI leave out what they do not set. ``None``
    fields resolve to the ``DEFAULT_*_FACTOR`` above scaled by ``1/omega``,
    and each setting must pass its :data:`SIM_RULES` rule."""

    params: SystemParams
    initial: BlochAngles
    policy: Policy = Policy.STANDARD
    dt_free: float | None = None
    sample_interval: float | None = None
    eps_target: float = DEFAULT_EPS_TARGET
    max_switches: int = 10_000
    max_time: float | None = None

    def __post_init__(self):
        scale = 1.0 / self.params.omega
        if self.dt_free is None:
            object.__setattr__(self, "dt_free", DEFAULT_DT_FREE_FACTOR * scale)
        if self.sample_interval is None:
            object.__setattr__(self, "sample_interval", DEFAULT_SAMPLE_INTERVAL_FACTOR * scale)
        if self.max_time is None:
            object.__setattr__(self, "max_time", DEFAULT_MAX_TIME_FACTOR * scale)
        _check(SIM_RULES, self)
        object.__setattr__(self, "policy", Policy(self.policy))


@dataclass(frozen=True, slots=True)
class Sample:
    """A recorded point of a run and the field ``f`` applied from it.
    ``v = |b|^2`` is stored because it is read twice: by the CSV writer and
    by the V-monotonicity checks. The CSV writer derives dV/dt itself."""

    t: float
    state: PureState
    v: float
    f: float
    kind: str


_sample = _unchecked(Sample)


@dataclass(frozen=True)
class Trajectory:
    """The record of one run: the segments it executed under ``config``. Unless
    ``converged``, a budget stopped it. ``switch_count`` counts ``control`` segments."""

    config: SimConfig
    segments: tuple[Segment, ...]
    switch_count: int
    converged: bool
    final_regime: Regime
    total_time: float
    final_state: PureState

    @property
    def terminal_fidelity(self) -> float:
        return fidelity(self.final_state)

    @cached_property
    def samples(self) -> tuple[Sample, ...]:
        """The time series replayed from ``segments`` on first read, of at most :data:`MAX_GRID_SAMPLES`."""
        params, delta = self.config.params, self.config.sample_interval
        if self.total_time / delta > MAX_GRID_SAMPLES:
            raise ValueError(f"{self.total_time / delta!r} grid samples exceed the cap of {MAX_GRID_SAMPLES}")
        terms = _bind(self.config)[1]
        samples: list[Sample] = []
        t = 0.0
        for seg in self.segments:
            # the segment's start, unless a sample lies there (after a kick), then its grid points
            if not samples or t > samples[-1].t:
                samples.append(_sample(t, seg.state_in, lyapunov(seg.state_in), seg.field, seg.kind))
            end = t + seg.duration
            j = math.floor(t / delta) + 1
            while j * delta < end - 1e-15 * max(1.0, end):
                tg = j * delta
                if tg > t:
                    at = _state_at(seg, tg - t, params, terms)
                    samples.append(_sample(tg, at, lyapunov(at), seg.field, seg.kind))
                j += 1
            t = end
        f, kind = (self.segments[-1].field, self.segments[-1].kind) if self.segments else (0.0, "free")
        if not samples or t > samples[-1].t:
            samples.append(_sample(t, self.final_state, lyapunov(self.final_state), f, kind))
        return tuple(samples)


@dataclass(frozen=True)
class OracleRun:
    """The record of one :func:`run_oracle` rerun. ``field_changes`` counts
    step-to-step changes of the applied field value."""

    samples: tuple[Sample, ...]
    field_changes: int
    total_time: float
    final_state: PureState

    @property
    def terminal_fidelity(self) -> float:
        return fidelity(self.final_state)


def next_action(state: PureState, config: SimConfig) -> tuple[Segment, ...]:
    """The segments the feedback policy of ``config`` runs from ``state``,
    each with the state it ends in. ``config.initial`` is not read.

    An antipodal state (fidelity at most ``eps_target``, or at most
    :data:`~lyapqubit.control.DEFAULT_EPS_TARGET` when ``eps_target`` is
    looser: the antipodal equilibrium belongs to the dynamics, and a small
    kick could not leave a wider band; and at least up to ``EPS_SWITCH**2``
    when ``eps_target`` is tighter, since no free tick takes a state that
    close to the pole out of the switching band) gets a ``kick``: the
    fixed 1e-6 rad x-rotation that breaks the antipodal equilibrium.
    Under the extended policy a reachable state at a switching point gets
    the whole :func:`~lyapqubit.extended.plan_single_shot` plan, so nothing
    is decided again after the wait. Any other switching point gets a
    ``free`` trigger tick of ``dt_free``. When ``s_max = 0`` every state
    gets one ``free`` segment of infinite duration; its ``state_out`` is a
    placeholder (``state`` itself) that the executor replaces when it clips
    the segment to its time budget, as it always does. Elsewhere the bang
    law applies its field up to the next switching point. Termination of
    the extended policy is guaranteed because every slow-switching step
    shrinks the polar angle by ``2*theta_max`` until the reachable set is
    entered.
    """
    return _bind(config)[0](state, fidelity(state))


def _bind(config: SimConfig):
    """:func:`next_action`'s law bound to one run's checked settings, as
    ``(act, terms)``. ``act(state, fid)`` returns the segments
    :func:`next_action` returns for ``state``, whose fidelity ``fid`` the
    caller computed. ``terms`` maps each bang field, ``+s_max`` and
    ``-s_max``, to its ``_dressed_terms``. The tick, the terms, the
    antipodal floor and the band floor are built here, once per run."""
    params, dt_free = config.params, config.dt_free
    s_max = params.s_max
    tick = free_unitary(params, dt_free)
    plus, minus = _dressed_terms(params, s_max), _dressed_terms(params, -s_max)
    # the fidelity up to which the law kicks, as next_action states it
    antipodal = min(max(config.eps_target, EPS_SWITCH**2), DEFAULT_EPS_TARGET)
    extended = config.policy is Policy.EXTENDED
    floor = _band_floor(params)

    def act(state: PureState, fid: float) -> tuple[Segment, ...]:
        if fid <= antipodal:
            return (_segment("kick", 0.0, 0.0, state, evolve(state, _KICK)),)
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


def _state_at(seg: Segment, dt: float, params: SystemParams, terms) -> PureState:
    """The state ``dt > 0`` into the free or control segment ``seg``; a
    control segment's field is a key of the bound law's ``terms``."""
    if seg.kind == "control":
        return _evolve(seg.state_in, *_controlled(*terms[seg.field], dt))
    return evolve(seg.state_in, free_unitary(params, dt))


def run(config: SimConfig) -> Trajectory:
    """Simulate one full control run under the configured policy.

    Stops when the fidelity reaches ``1 - eps_target`` (converged) or on
    the switch, time or segment budget; the final regime annotation tells
    a fast-switching plateau apart from other stops. The extended policy
    finishes with an exactly planned single-shot segment, labelled
    ``single_shot``. The record holds segments; samples replay on read.
    """
    params, eps_target = config.params, config.eps_target
    max_time, max_switches = config.max_time, config.max_switches
    act, terms = _bind(config)
    state = from_bloch(config.initial)
    segments: list[Segment] = []
    t = 0.0
    controls = 0
    # the most segments a run records: its safety net
    max_segments = 10 * max_switches + 10_000

    while True:
        fid = fidelity(state)
        converged = fid >= 1.0 - eps_target
        budget_left = t < max_time * (1.0 - 1e-15) and controls < max_switches
        if converged or not budget_left or len(segments) >= max_segments:
            break
        for seg in act(state, fid):
            left = max_time - t
            clipped = seg.duration > left
            if clipped:
                seg = replace(seg, duration=left, state_out=_state_at(seg, left, params, terms))
            segments.append(seg)
            controls += seg.kind == "control"
            state = seg.state_out
            t += seg.duration
            if clipped:
                break

    return Trajectory(
        config=config,
        segments=tuple(segments),
        switch_count=controls,
        converged=converged,
        final_regime=classify_regime(state, params, eps_target),
        total_time=t,
        final_state=state,
    )


def run_oracle(config: SimConfig, h: float) -> OracleRun:
    """Brute-force rerun of a scenario under the standard policy: fixed step
    ``h``, under the field the bang law picks from the state at every step.

    The kernel tests the law only where the field can change and takes the
    steps between tests by the unit-norm step, renormalizing once after
    them (see ``_kernels``): the field changes and every sample's field are
    those of a test at every step, and the amplitudes differ from them only
    in rounding.

    The rerun never kicks and never stops early: it runs the whole horizon
    ``max_time``, so from the antipodal state, where the law applies no
    field, it stays there. Requires ``h <= dt_free / 10`` so the sampled law
    resolves the trigger tick of the event-driven run. Samples land on
    multiples of ``stride * h`` with ``stride = round(sample_interval / h)``.
    Refuses the extended policy, a step that asks for more than ``10**8``
    steps, and more than :data:`MAX_GRID_SAMPLES` samples.
    """
    if config.policy is Policy.EXTENDED:
        raise ValueError(f"run_oracle reruns the standard law only, not the {config.policy.value!r} policy")
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    if h > config.dt_free / 10.0 * (1.0 + 1e-12):
        raise ValueError(
            f"oracle step {h!r} too coarse: must be at most dt_free/10 = {config.dt_free / 10.0!r}"
        )
    params = config.params
    state0 = from_bloch(config.initial)
    steps = config.max_time / h
    if not steps <= _MAX_ORACLE_STEPS:
        raise ValueError(
            f"oracle step {h!r} too fine: max_time/h = {steps!r} steps exceed the cap of {_MAX_ORACLE_STEPS}"
        )
    n_steps = int(math.floor(steps + 1e-9))
    # a stride past the last step takes no sample, however far past it is
    stride = max(1, int(round(min(config.sample_interval / h, n_steps + 1))))
    samples = n_steps // stride + 1
    if samples > MAX_GRID_SAMPLES:
        raise ValueError(
            f"oracle step {h!r} and sample_interval {config.sample_interval!r} ask for {samples} samples,"
            f" past the cap of {MAX_GRID_SAMPLES}"
        )
    up = controlled_unitary(params, params.s_max, h)
    um = controlled_unitary(params, -params.s_max, h)
    a, b, switches, sampled = _kernels.sampled_law_steps(
        state0.a, state0.b, params.s_max, EPS_SWITCH, n_steps, stride, up, um, free_unitary(params, h)
    )
    f0 = bang_field(switching_function(state0), params.s_max)
    points = [(0.0, state0, f0)]
    points += [(stride * h * (j + 1), PureState(sa, sb), sf) for j, (sa, sb, sf) in enumerate(sampled)]
    return OracleRun(
        samples=tuple(Sample(t, st, lyapunov(st), f, "control" if f != 0.0 else "free") for t, st, f in points),
        field_changes=switches,
        total_time=n_steps * h,
        final_state=PureState(a, b),
    )
