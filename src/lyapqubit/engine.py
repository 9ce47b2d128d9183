"""Execution of full control runs.

``run`` binds the feedback law of :func:`extended.next_action` once, to
its configuration, and executes the segments the law returns, under
either policy, each already propagated: it reads each state's fidelity
once, for its convergence test and for the law, stops on convergence or
on the switch, time or segment budget, clips a segment to the time left,
counts control segments, and records every segment and a sampled time
series. A grid sample inside a control segment is propagated from the
bound law's dressed terms of its field. A record keeps states, not
numbers derived from them, except a sample's V, computed once per
sample.
``run_oracle`` re-simulates a standard-policy scenario by brute force: a
fixed step ``h`` with the bang law re-evaluated every step, serving as
ground truth for the event-driven segmentation. It returns an
:class:`OracleRun`, which has no segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import _kernels
from .control import DEFAULT_EPS_TARGET, EPS_SWITCH, Regime, bang_field, classify_regime
from .extended import Policy, Segment, _bind
from .propagator import _controlled, controlled_unitary, evolve, free_unitary
from .states import (
    BlochAngles,
    PureState,
    SystemParams,
    _check,
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

#: The most steps ``run_oracle`` takes: about a minute of pure-Python steps.
_MAX_ORACLE_STEPS = 10**8

#: Most grid samples a scenario file may ask a run for, and ``run_oracle``
#: keeps: about 180 MB of a run's records, 250 MB of a rerun's.
MAX_GRID_SAMPLES = 1_000_000

_POSITIVE_FINITE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")

#: :class:`SimConfig`'s rule of each setting, ``(ok, text)``, in the order it checks
#: them; NaN and inf fail too, since a run needs a finite tick, kick and budget
SIM_RULES = {
    "dt_free": _POSITIVE_FINITE,
    "sample_interval": _POSITIVE_FINITE,
    "eps_target": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "kick_angle": _POSITIVE_FINITE,
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
    kick_angle: float = 1e-6
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
    """The record of one run. Unless ``converged``, a budget stopped it.
    ``switch_count`` counts ``control`` segments."""

    segments: tuple[Segment, ...]
    samples: tuple[Sample, ...]
    switch_count: int
    converged: bool
    final_regime: Regime
    total_time: float
    final_state: PureState

    @property
    def terminal_fidelity(self) -> float:
        return fidelity(self.final_state)


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


def _state_at(seg: Segment, dt: float, params: SystemParams, terms) -> PureState:
    """The state ``dt > 0`` into the free or control segment ``seg``; a
    control segment's field is a key of the bound law's ``terms``."""
    u = _controlled(*terms[seg.field], dt) if seg.kind == "control" else free_unitary(params, dt)
    return evolve(seg.state_in, u)


def run(config: SimConfig) -> Trajectory:
    """Simulate one full control run under the configured policy.

    Stops when the fidelity reaches ``1 - eps_target`` (converged) or on
    the switch, time or segment budget; the final regime annotation tells
    a fast-switching plateau apart from other stops. The extended policy
    finishes with an exactly planned single-shot segment, labelled
    ``single_shot``.
    """
    params, eps_target, delta = config.params, config.eps_target, config.sample_interval
    max_time, max_switches = config.max_time, config.max_switches
    act, terms = _bind(params, config.policy, config.dt_free, config.kick_angle, eps_target)
    state = from_bloch(config.initial)
    segments: list[Segment] = []
    samples: list[Sample] = []
    t = 0.0
    # the time of the last sample
    t_last = -math.inf
    controls = 0
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
            # the segment's start, unless a sample lies there already (as
            # after a kick), then its grid points
            if t > t_last:
                samples.append(_sample(t, seg.state_in, lyapunov(seg.state_in), seg.field, seg.kind))
                t_last = t
            end = t + seg.duration
            j = math.floor(t / delta) + 1
            while j * delta < end - 1e-15 * max(1.0, end):
                tg = j * delta
                if tg > t:
                    at = _state_at(seg, tg - t, params, terms)
                    samples.append(_sample(tg, at, lyapunov(at), seg.field, seg.kind))
                    t_last = tg
                j += 1
            segments.append(seg)
            controls += seg.kind == "control"
            state = seg.state_out
            t = end
            if clipped:
                break

    f, kind = (segments[-1].field, segments[-1].kind) if segments else (0.0, "free")
    if t > t_last:
        samples.append(_sample(t, state, lyapunov(state), f, kind))
    return Trajectory(
        segments=tuple(segments),
        samples=tuple(samples),
        switch_count=controls,
        converged=converged,
        final_regime=classify_regime(state, params, eps_target),
        total_time=t,
        final_state=state,
    )


def run_oracle(config: SimConfig, h: float) -> OracleRun:
    """Brute-force rerun of a scenario under the standard policy: fixed step
    ``h``, bang law re-evaluated every step.

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
