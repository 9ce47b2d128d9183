"""Parameter sweeps: first-segment population ratios, slow-switching fidelity
maps, fidelity-versus-strength curves, and the single-shot phase table.

Grid cells are independent and iterated in fixed index order, so identical
inputs produce identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .control import EPS_SWITCH, segment_duration, select_field, ssc_fidelity_bound
from .extended import ApplyField, Policy, advance, next_action, plan_single_shot, required_phase
from .propagator import controlled_unitary, evolve, free_unitary
from .states import (
    BlochAngles,
    PureState,
    SystemParams,
    fidelity,
    from_bloch,
    lyapunov,
    polar_angle,
    switching_function,
)

#: Sweeps default to a tighter trigger tick than single runs: the recursion
#: error per step scales with the tick squared.
SWEEP_DT_FREE_FACTOR = 1e-6

#: Sentinel for grid cells where the first-segment analysis does not apply.
FLAGGED = float("nan")


@dataclass(frozen=True)
class SweepGrid:
    """Axes for a sweep; all axes must be non-empty and strictly increasing."""

    gamma_axis: tuple[float, ...]
    phi_axis: tuple[float, ...]
    s_values: tuple[float, ...]
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "gamma_axis", tuple(float(g) for g in self.gamma_axis))
        object.__setattr__(self, "phi_axis", tuple(float(p) for p in self.phi_axis))
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        object.__setattr__(self, "omega", float(self.omega))
        for name, axis in (("gamma", self.gamma_axis), ("phi", self.phi_axis), ("s", self.s_values)):
            if not axis:
                raise ValueError(f"{name} axis is empty")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} axis must be strictly increasing")
        if any(not 0.0 <= g <= math.pi for g in self.gamma_axis):
            raise ValueError("gamma axis must lie within [0, pi]")
        if any(not 0.0 <= p < 2.0 * math.pi for p in self.phi_axis):
            raise ValueError("phi axis must lie within [0, 2*pi)")
        if any(s < 0.0 for s in self.s_values):
            raise ValueError("field strengths must be non-negative")
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")


@dataclass(frozen=True)
class SweepResult:
    grid: SweepGrid
    tables: Mapping[str, np.ndarray]
    metadata: Mapping[str, object]


def _first_segment(state: PureState, params: SystemParams):
    decision = select_field(state, params)
    tau = segment_duration(state, decision.f, params)
    return evolve(state, controlled_unitary(params, decision.f, tau)), tau


def sweep_first_segment(grid: SweepGrid) -> SweepResult:
    """Population ratios ``|a0|^2/|a_tau|^2`` and ``|b_tau|^2/|b0|^2`` plus the
    duration of the first control segment, per initial ``(gamma, phi)`` cell.

    Cells with ``phi`` in ``{0, pi}`` (no field is triggered without a free
    tick) carry NaN sentinels, as do the polar cells ``gamma`` in ``{0, pi}``.
    """
    if len(grid.s_values) != 1:
        raise ValueError("first-segment sweep expects exactly one field strength")
    params = SystemParams(grid.omega, grid.s_values[0])
    ng, np_ = len(grid.gamma_axis), len(grid.phi_axis)
    ratio_a = np.full((ng, np_), FLAGGED)
    ratio_b = np.full((ng, np_), FLAGGED)
    tau_tab = np.full((ng, np_), FLAGGED)
    for i, gamma in enumerate(grid.gamma_axis):
        if gamma <= 0.0 or gamma >= math.pi:
            continue
        for j, phi in enumerate(grid.phi_axis):
            state = from_bloch(BlochAngles(gamma, phi))
            if abs(switching_function(state)) <= EPS_SWITCH:
                continue
            final, tau = _first_segment(state, params)
            ratio_a[i, j] = fidelity(state) / fidelity(final)
            ratio_b[i, j] = lyapunov(final) / lyapunov(state)
            tau_tab[i, j] = tau
    return SweepResult(
        grid,
        {"ratio_a": ratio_a, "ratio_b": ratio_b, "tau": tau_tab},
        {"omega": grid.omega, "s": grid.s_values[0]},
    )


def _ssc_terminal(
    gamma: float,
    phi: float,
    params: SystemParams,
    dt_free: float,
    eps_target: float = 1e-9,
) -> tuple[float, int]:
    """Run the standard policy from ``(gamma, phi)`` until the fast-switching
    regime (or the target, or the antipode) is reached; returns the terminal
    fidelity and the number of control segments."""
    state = from_bloch(BlochAngles(gamma, phi))
    n_controls = 0
    if params.s_max == 0.0:
        return fidelity(state), 0
    theta_max = params.theta_max
    for _ in range(100_000):
        f_now = fidelity(state)
        if f_now >= 1.0 - eps_target or f_now <= eps_target:
            break
        if polar_angle(state) <= theta_max:
            break
        # the antipode stops the loop above, so the kick angle is never used
        action = next_action(state, params, Policy.STANDARD, dt_free, 1e-6, eps_target)
        state = advance(state, params, action, action.duration)
        n_controls += isinstance(action, ApplyField)
    return fidelity(state), n_controls


def sweep_ssc_fidelity(
    grid: SweepGrid,
    s: float,
    dt_free: float | None = None,
) -> SweepResult:
    """Terminal fidelity of slow switching (stopped at fast-switching entry)
    and the number of control segments it took, per initial cell."""
    params = SystemParams(grid.omega, s)
    if dt_free is None:
        dt_free = SWEEP_DT_FREE_FACTOR / grid.omega
    ng, np_ = len(grid.gamma_axis), len(grid.phi_axis)
    fid = np.empty((ng, np_))
    n_max = np.empty((ng, np_))
    for i, gamma in enumerate(grid.gamma_axis):
        for j, phi in enumerate(grid.phi_axis):
            f_term, n = _ssc_terminal(gamma, phi, params, dt_free)
            fid[i, j] = f_term
            n_max[i, j] = n
    return SweepResult(
        grid,
        {"fidelity": fid, "n_max": n_max},
        {"omega": grid.omega, "s": s, "dt_free": dt_free, "bound": ssc_fidelity_bound(params)},
    )


def fidelity_vs_strength(
    s_values: Sequence[float],
    initial: BlochAngles,
    omega: float,
    dt_free: float | None = None,
) -> SweepResult:
    """Slow-switching terminal fidelity for one initial state across field
    strengths, next to the strength-dependent lower bound."""
    grid = SweepGrid((initial.gamma,), (initial.phi,), tuple(s_values), omega)
    if dt_free is None:
        dt_free = SWEEP_DT_FREE_FACTOR / omega
    fid = np.empty(len(grid.s_values))
    bound = np.empty(len(grid.s_values))
    for k, s in enumerate(grid.s_values):
        params = SystemParams(omega, s)
        fid[k], _ = _ssc_terminal(initial.gamma, initial.phi, params, dt_free)
        bound[k] = ssc_fidelity_bound(params)
    return SweepResult(
        grid,
        {"fidelity": fid, "bound": bound},
        {"omega": omega, "gamma": initial.gamma, "phi": initial.phi, "dt_free": dt_free},
    )


def phase_alignment_table(gamma_axis: Sequence[float], params: SystemParams) -> SweepResult:
    """Single-shot data across the reachable band: required phase, control
    time, alignment wait from the in-plane state (phase 0), and the residual
    population ratio after executing the full plan."""
    grid = SweepGrid(tuple(gamma_axis), (0.0,), (params.s_max,), params.omega)
    n = len(grid.gamma_axis)
    phi_star = np.empty(n)
    tau_prime = np.empty(n)
    wait = np.empty(n)
    ratio_b = np.empty(n)
    cos2 = np.empty(n)
    for i, gamma in enumerate(grid.gamma_axis):
        phi_star[i], tau_prime[i] = required_phase(gamma, params)
        cos2[i] = math.cos(phi_star[i]) ** 2
        state = from_bloch(BlochAngles(gamma, 0.0))
        plan = plan_single_shot(state, params)
        wait[i] = plan.wait_time
        staged = evolve(state, free_unitary(params, plan.wait_time))
        final = evolve(staged, controlled_unitary(params, plan.field, plan.control_time))
        ratio_b[i] = lyapunov(final) / lyapunov(state) if lyapunov(state) > 0.0 else 0.0
    return SweepResult(
        grid,
        {
            "phi_star": phi_star,
            "tau_prime": tau_prime,
            "wait_time": wait,
            "ratio_b": ratio_b,
            "cos2_phi_star": cos2,
        },
        {"omega": params.omega, "s": params.s_max},
    )
