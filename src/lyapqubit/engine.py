"""Execution of full control runs.

``run`` executes the segments that :func:`extended.next_action` returns,
under either policy, each already propagated: it stops on convergence or
on the switch or time budget, clips a segment to the time left, counts
control segments, and records every segment and a sampled time series.
``run_oracle`` re-simulates the same scenario by brute force: a fixed
step ``h`` with the feedback law re-evaluated every step, serving as
ground truth for the event-driven segmentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

from . import _kernels
from .control import DEFAULT_DT_FREE_FACTOR, EPS_SWITCH, Regime, bang_field, classify_regime
from .extended import Policy, Segment, next_action
from .propagator import controlled_unitary, evolve, free_unitary
from .states import (
    BlochAngles,
    PureState,
    SystemParams,
    fidelity,
    from_bloch,
    lyapunov,
    switching_function,
)


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
            object.__setattr__(self, "sample_interval", 0.1 * scale)
        if self.max_time is None:
            object.__setattr__(self, "max_time", 1000.0 * scale)
        if not self.dt_free > 0.0:
            raise ValueError(f"dt_free must be positive, got {self.dt_free!r}")
        if not self.sample_interval > 0.0:
            raise ValueError(f"sample_interval must be positive, got {self.sample_interval!r}")
        if not 0.0 < self.eps_target < 1.0:
            raise ValueError(f"eps_target must lie in (0, 1), got {self.eps_target!r}")
        if not self.kick_angle > 0.0:
            raise ValueError(f"kick_angle must be positive, got {self.kick_angle!r}")
        if self.max_switches < 1:
            raise ValueError(f"max_switches must be at least 1, got {self.max_switches!r}")
        if not self.max_time > 0.0:
            raise ValueError(f"max_time must be positive, got {self.max_time!r}")


@dataclass(frozen=True)
class Sample:
    t: float
    state: PureState
    v: float
    dvdt: float
    f: float
    kind: str


@dataclass(frozen=True)
class Trajectory:
    segments: tuple[Segment, ...]
    samples: tuple[Sample, ...]
    terminal_fidelity: float
    switch_count: int
    converged: bool
    truncated: bool
    final_regime: Regime
    total_time: float
    final_state: PureState = dc_field(repr=False, default=None)  # type: ignore[assignment]


def _sample(t: float, state: PureState, f: float, kind: str) -> Sample:
    # V = |b|^2 and, under a constant field f, dV/dt = 2 f Im(a b*)
    return Sample(t, state, lyapunov(state), 2.0 * f * switching_function(state), f, kind)


def _state_at(seg: Segment, dt: float, params: SystemParams) -> PureState:
    """The state ``dt`` into the free or control segment ``seg``."""
    u = controlled_unitary(params, seg.field, dt) if seg.kind == "control" else free_unitary(params, dt)
    return evolve(seg.state_in, u)


class _Recorder:
    """Collects segments plus samples on a fixed grid and at boundaries."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.segments: list[Segment] = []
        self.samples: list[Sample] = []

    def sample(self, t: float, state: PureState, f: float, kind: str) -> None:
        if self.samples and t <= self.samples[-1].t:
            return
        self.samples.append(_sample(t, state, f, kind))

    def segment(self, t0: float, seg: Segment) -> None:
        self.sample(t0, seg.state_in, seg.field, seg.kind)
        if seg.duration > 0.0:
            delta = self.config.sample_interval
            end = t0 + seg.duration
            j = math.floor(t0 / delta) + 1
            while j * delta < end - 1e-15 * max(1.0, end):
                tg = j * delta
                if tg > t0:
                    self.sample(tg, _state_at(seg, tg - t0, self.config.params), seg.field, seg.kind)
                j += 1
        self.segments.append(seg)


def run(config: SimConfig) -> Trajectory:
    """Simulate one full control run under the configured policy.

    Terminates on fidelity reaching ``1 - eps_target`` (converged) or on the
    switch/time budget (truncated; the final regime annotation tells a
    fast-switching plateau apart from other truncations). The extended
    policy finishes with an exactly planned single-shot segment, labelled
    ``single_shot``.
    """
    params = config.params
    state = from_bloch(config.initial)
    rec = _Recorder(config)
    t = 0.0
    controls = 0
    converged = False
    truncated = False
    max_segments = 10 * config.max_switches + 10_000

    while True:
        if fidelity(state) >= 1.0 - config.eps_target:
            converged = True
            break
        if t >= config.max_time * (1.0 - 1e-15):
            truncated = True
            break
        if controls >= config.max_switches:
            truncated = True
            break
        if len(rec.segments) >= max_segments:
            truncated = True
            break

        for seg in next_action(state, params, config.policy, config.dt_free, config.kick_angle, config.eps_target):
            left = config.max_time - t
            clipped = seg.duration > left
            if clipped:
                out = _state_at(seg, left, params)
                seg = replace(seg, duration=left, state_out=out, v_out=lyapunov(out))
            rec.segment(t, seg)
            controls += seg.kind == "control"
            state = seg.state_out
            t += seg.duration
            if clipped:
                break

    if rec.segments:
        last = rec.segments[-1]
        rec.sample(t, state, last.field, last.kind)
    else:
        rec.sample(0.0, state, 0.0, "free")
    return Trajectory(
        segments=tuple(rec.segments),
        samples=tuple(rec.samples),
        terminal_fidelity=fidelity(state),
        switch_count=controls,
        converged=converged,
        truncated=truncated,
        final_regime=classify_regime(state, params, config.eps_target),
        total_time=t,
        final_state=state,
    )


def run_oracle(config: SimConfig, h: float) -> Trajectory:
    """Brute-force rerun of a scenario: fixed step ``h``, feedback law
    re-evaluated every step.

    Requires ``h <= dt_free / 10`` so the sampled law resolves the trigger
    tick of the event-driven run. The horizon is ``max_time``; there is no
    event segmentation, so ``segments`` is empty and ``switch_count`` counts
    step-to-step changes of the applied field value. Samples land on
    multiples of ``stride * h`` with ``stride = round(sample_interval / h)``.
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
    final = PureState(a, b)
    return Trajectory(
        segments=(),
        samples=tuple(_sample(t, st, f, "control" if f != 0.0 else "free") for t, st, f in points),
        terminal_fidelity=fidelity(final),
        switch_count=switches,
        converged=fidelity(final) >= 1.0 - config.eps_target,
        truncated=fidelity(final) < 1.0 - config.eps_target,
        final_regime=classify_regime(final, params, config.eps_target),
        total_time=n_steps * h,
        final_state=final,
    )
