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
``run_oracle`` re-simulates the same scenario by brute force: a fixed
step ``h`` with the feedback law re-evaluated every step, serving as
ground truth for the event-driven segmentation. It returns an
:class:`OracleRun`, which has no segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import _kernels
from .control import DEFAULT_DT_FREE_FACTOR, EPS_SWITCH, Regime, bang_field, classify_regime
from .extended import Policy, Segment, _bind
from .propagator import _controlled, controlled_unitary, evolve, free_unitary
from .states import (
    BlochAngles,
    PureState,
    SystemParams,
    _unchecked,
    fidelity,
    from_bloch,
    lyapunov,
    switching_function,
)


#: Defaults of ``sample_interval`` and ``max_time``, in units of ``1/omega``.
DEFAULT_SAMPLE_INTERVAL_FACTOR = 0.1
DEFAULT_MAX_TIME_FACTOR = 1000.0


@dataclass(frozen=True)
class SimConfig:
    """Full scenario description. ``None`` fields resolve to defaults scaled
    by ``1/omega`` (``dt_free = 1e-4/omega``, ``sample_interval = 0.1/omega``,
    ``max_time = 1000/omega``)."""

    params: SystemParams
    initial: BlochAngles
    policy: Policy = Policy.STANDARD
    dt_free: float | None = None
    kick_angle: float = 1e-6
    sample_interval: float | None = None
    eps_target: float = 1e-9
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
        # the run binds its tick and kick at its start (see extended._bind)
        if not 0.0 < self.dt_free < math.inf:
            raise ValueError(f"dt_free must be positive and finite, got {self.dt_free!r}")
        if not self.sample_interval > 0.0:
            raise ValueError(f"sample_interval must be positive, got {self.sample_interval!r}")
        if not 0.0 < self.eps_target < 1.0:
            raise ValueError(f"eps_target must lie in (0, 1), got {self.eps_target!r}")
        if not 0.0 < self.kick_angle < math.inf:
            raise ValueError(f"kick_angle must be positive and finite, got {self.kick_angle!r}")
        if self.max_switches < 1:
            raise ValueError(f"max_switches must be at least 1, got {self.max_switches!r}")
        if not self.max_time > 0.0:
            raise ValueError(f"max_time must be positive, got {self.max_time!r}")


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
    """Brute-force rerun of a scenario: fixed step ``h``, feedback law
    re-evaluated every step.

    Requires ``h <= dt_free / 10`` so the sampled law resolves the trigger
    tick of the event-driven run. The horizon is ``max_time``. Samples land
    on multiples of ``stride * h`` with ``stride = round(sample_interval / h)``.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    if h > config.dt_free / 10.0 * (1.0 + 1e-12):
        raise ValueError(
            f"oracle step {h!r} too coarse: must be at most dt_free/10 = {config.dt_free / 10.0!r}"
        )
    params = config.params
    state0 = from_bloch(config.initial)
    n_steps = int(math.floor(config.max_time / h + 1e-9))
    stride = max(1, int(round(config.sample_interval / h)))
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
