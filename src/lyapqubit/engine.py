"""Execution of full control runs.

``run`` executes the actions that :func:`extended.next_action` chooses,
under either policy: it stops on convergence or on the switch or time
budget, clips each action to the time left, counts control segments, and
records every segment and a sampled time series. ``run_oracle``
re-simulates the same scenario by brute force: a fixed step ``h`` with the
feedback law re-evaluated every step, serving as ground truth for the
event-driven segmentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .control import DEFAULT_DT_FREE_FACTOR, EPS_SWITCH, Regime, bang_field, classify_regime
from .extended import ApplyField, FreeEvolve, Kick, Policy, SingleShotPlan, advance, next_action
from .propagator import Unitary2, controlled_unitary, evolve, free_unitary
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
class Segment:
    """One piecewise interval of a run. ``kind`` is ``control``, ``free`` or
    ``kick``; kicks are instantaneous symmetry-breaking rotations."""

    kind: str
    field: float
    duration: float
    state_in: PureState
    state_out: PureState
    v_in: float
    v_out: float
    label: str = ""


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


def _kick_unitary(angle: float) -> Unitary2:
    # rotation about x by `angle`; takes |g> to polar angle pi - angle at
    # relative phase pi/2, breaking the antipodal equilibrium
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    off = -1j * s
    return Unitary2._exact(complex(c), off, off, complex(c))


class _Recorder:
    """Collects segments plus samples on a fixed grid and at boundaries."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.segments: list[Segment] = []
        self.samples: list[Sample] = []

    def sample(self, t: float, state: PureState, f: float, kind: str) -> None:
        if self.samples and t <= self.samples[-1].t:
            return
        dvdt = 2.0 * f * switching_function(state)
        self.samples.append(Sample(t, state, lyapunov(state), dvdt, f, kind))

    def segment(
        self,
        t0: float,
        kind: str,
        f: float,
        duration: float,
        state_in: PureState,
        state_out: PureState,
        label: str = "",
    ) -> None:
        self.sample(t0, state_in, f, kind)
        if duration > 0.0:
            delta = self.config.sample_interval
            params = self.config.params
            end = t0 + duration
            j = math.floor(t0 / delta) + 1
            while j * delta < end - 1e-15 * max(1.0, end):
                tg = j * delta
                if tg > t0:
                    u = (
                        controlled_unitary(params, f, tg - t0)
                        if kind == "control"
                        else free_unitary(params, tg - t0)
                    )
                    self.sample(tg, evolve(state_in, u), f, kind)
                j += 1
        self.segments.append(
            Segment(kind, f, duration, state_in, state_out, lyapunov(state_in), lyapunov(state_out), label)
        )


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
        if len(rec.segments) >= max_segments:  # pragma: no cover - safety net
            truncated = True
            break

        action = next_action(state, params, config.policy, config.dt_free, config.kick_angle, config.eps_target)
        if isinstance(action, Kick):
            new_state = evolve(state, _kick_unitary(action.angle))
            rec.segment(t, "kick", 0.0, 0.0, state, new_state)
            state = new_state
            continue
        label = ""
        parts = (action,)
        if isinstance(action, SingleShotPlan):
            label = "single_shot"
            shot = ApplyField(action.field, action.control_time)
            parts = (FreeEvolve(action.wait_time), shot) if action.wait_time > 0.0 else (shot,)
        for part in parts:
            dur = min(part.duration, config.max_time - t)
            new_state = advance(state, params, part, dur)
            if isinstance(part, ApplyField):
                rec.segment(t, "control", part.field, dur, state, new_state, label)
                controls += 1
            else:
                rec.segment(t, "free", 0.0, dur, state, new_state)
            state = new_state
            t += dur
            if dur < part.duration:
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
    n_out = n_steps // stride
    up = controlled_unitary(params, params.s_max, h)
    um = controlled_unitary(params, -params.s_max, h)
    uf = free_unitary(params, h)
    out_a = np.empty(n_out, dtype=np.complex128)
    out_b = np.empty(n_out, dtype=np.complex128)
    out_f = np.empty(n_out, dtype=np.float64)
    a, b, switches = _kernels.sampled_law_steps(
        complex(state0.a),
        complex(state0.b),
        params.s_max,
        EPS_SWITCH,
        n_steps,
        stride,
        up.u11,
        up.u12,
        up.u22,
        um.u11,
        um.u12,
        um.u22,
        uf.u11,
        uf.u22,
        out_a,
        out_b,
        out_f,
    )
    f0 = bang_field(switching_function(state0), params.s_max)
    samples = [
        Sample(
            0.0,
            state0,
            lyapunov(state0),
            2.0 * f0 * switching_function(state0),
            f0,
            "control" if f0 != 0.0 else "free",
        )
    ]
    for j in range(n_out):
        st = PureState(out_a[j], out_b[j])
        fj = float(out_f[j])
        samples.append(
            Sample(
                stride * h * (j + 1),
                st,
                lyapunov(st),
                2.0 * fj * switching_function(st),
                fj,
                "control" if fj != 0.0 else "free",
            )
        )
    final = PureState(a, b)
    return Trajectory(
        segments=(),
        samples=tuple(samples),
        terminal_fidelity=fidelity(final),
        switch_count=int(switches),
        converged=fidelity(final) >= 1.0 - config.eps_target,
        truncated=fidelity(final) < 1.0 - config.eps_target,
        final_regime=classify_regime(final, params, config.eps_target),
        total_time=n_steps * h,
        final_state=final,
    )
