"""Parameter sweeps: first-segment population ratios, slow-switching fidelity
maps, fidelity-versus-strength curves, and the single-shot phase table.

The first three evaluate their cells together, as numpy arrays: each step
of the standard policy advances every cell that is still running, and a
cell leaves the arrays when it stops. No cell's arithmetic depends on the
other cells, so identical inputs produce identical tables, whether a grid
is swept whole or row by row. The scalar functions step in only where the
closed-form switching time needs refining, and every check they make
(field bound, unitarity, normalisation) is made on every cell.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .control import EPS_SWITCH, bang_field, segment_duration, ssc_fidelity_bound
from .extended import plan_single_shot, required_phase
from .propagator import UNITARY_TOL, controlled_unitary, evolve, free_unitary
from .states import (
    NORM_TOL,
    BlochAngles,
    PureState,
    SystemParams,
    _dressed_terms,
    from_bloch,
    lyapunov,
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


def _initial_states(gamma_axis: Sequence[float], phi_axis: Sequence[float]):
    """``from_bloch`` of every ``(gamma, phi)`` cell, row by row, as complex
    arrays ``a``, ``b``, with ``PureState``'s norm check: the trigonometry
    runs once per axis point, in ``math``, so each cell gets the amplitudes
    ``from_bloch`` gives it."""
    half = [0.5 * g for g in gamma_axis]
    a = np.repeat(np.array([math.cos(h) for h in half], dtype=complex), len(phi_axis))
    turn = np.array([cmath.exp(1j * p) for p in phi_axis])
    b = np.outer(np.array([math.sin(h) for h in half]), turn).ravel()
    # written so that a NaN norm fails too
    if not np.all(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0) <= NORM_TOL):
        raise ValueError("state not normalized")
    return a, b


def _population(amplitude: np.ndarray) -> np.ndarray:
    """``fidelity`` (of ``a``) or ``lyapunov`` (of ``b``), per cell."""
    return np.minimum(np.abs(amplitude) ** 2, 1.0)


def _strength_terms(params: Sequence[SystemParams], k: np.ndarray) -> np.ndarray:
    """Per cell ``k`` (an index into ``params``), the rows ``s_max``,
    ``eplus``, ``sin(theta)``, ``cos(theta)`` of the field ``+s_max``,
    ``theta_max`` and ``k`` itself, from the scalar closed forms (which
    also apply the field bound)."""
    rows = [(P.s_max, *_dressed_terms(P, P.s_max), P.theta_max, i) for i, P in enumerate(params)]
    return np.array(rows).T[:, k]


def _normalised(a: np.ndarray, b: np.ndarray):
    """``propagator.evolve``'s norm handling, per cell: a drift beyond
    ``NORM_TOL`` is renormalised, and a NaN, infinite or zero norm raises."""
    n2 = np.abs(a) ** 2 + np.abs(b) ** 2
    drift = ~(np.abs(n2 - 1.0) <= NORM_TOL)
    if drift.any():
        bad = n2[drift]
        finite = (0.0 < bad) & (bad < math.inf)
        if not finite.all():
            raise ValueError(f"evolved state has norm^2 {bad[~finite][0]!r}")
        inv = 1.0 / np.sqrt(bad)
        a[drift] *= inv
        b[drift] *= inv
        n2 = np.abs(a[drift]) ** 2 + np.abs(b[drift]) ** 2
        if not np.all(np.abs(n2 - 1.0) <= NORM_TOL):
            raise ValueError("state not normalized after renormalisation")
    return a, b


def _check_unitary(u11, u12, u21, u22) -> None:
    """``propagator._check_unitary``'s three tests, on every cell's entries."""
    c1 = np.abs(u11) ** 2 + np.abs(u21) ** 2
    c2 = np.abs(u12) ** 2 + np.abs(u22) ** 2
    cross = u11.conj() * u12 + u21.conj() * u22
    # written so that a NaN entry fails too
    ok = (np.abs(c1 - 1.0) <= UNITARY_TOL) & (np.abs(c2 - 1.0) <= UNITARY_TOL) & (np.abs(cross) <= UNITARY_TOL)
    if not ok.all():
        raise ValueError("entries do not form a unitary matrix")


def _bang_segments(a, b, ab, field, terms, params: Sequence[SystemParams]):
    """Every cell under its bang ``field`` up to its next switching point;
    returns the end states and the durations.

    ``Im(ab)``, with ``ab = a b*``, must lie outside the ``EPS_SWITCH``
    band. That keeps every cell clear of what ``segment_duration`` rejects:
    ``|a|`` and ``|b|`` exceed ``|Im(ab)| > 1e-12``, and so does
    ``r = hypot(p, q) >= |p|``. The duration is ``segment_duration``'s
    closed form, confirmed by ``|Im(a b*)| <= 1e-13 r`` on the evolved
    state, which is also the end state. A cell that fails the confirmation
    is redone by ``segment_duration`` and ``evolve``.
    """
    _, eplus, sin_t, cos_t, _, k = terms
    sin_t = np.copysign(sin_t, field)
    p = ab.imag
    q = 0.5 * sin_t * (np.abs(a) ** 2 - np.abs(b) ** 2) - cos_t * ab.real
    r = np.hypot(p, q)
    alpha = np.mod(-np.arctan2(p, q), math.pi)
    alpha[alpha <= 0.0] = math.pi
    tau = alpha / (2.0 * eplus)
    # controlled_unitary(params, field, tau), cell by cell
    if not np.all(tau >= 0.0):
        raise ValueError("duration must be non-negative")
    c, s = np.cos(eplus * tau), np.sin(eplus * tau)
    off = -1j * s * sin_t
    u11, u22 = c - 1j * s * cos_t, c + 1j * s * cos_t
    _check_unitary(u11, off, off, u22)
    a_end, b_end = _normalised(u11 * a + off * b, off * a + u22 * b)
    for i in np.flatnonzero(~(np.abs((a_end * b_end.conj()).imag) <= 1e-13 * r)):
        state = PureState._checked_by_caller(complex(a[i]), complex(b[i]))
        cell_params, f = params[int(k[i])], float(field[i])
        tau[i] = segment_duration(state, f, cell_params)
        end = evolve(state, controlled_unitary(cell_params, f, tau[i]))
        a_end[i], b_end[i] = end.a, end.b
    return a_end, b_end, tau


def _ssc_terminal(a, b, terms, params: Sequence[SystemParams], dt_free: float, eps_target: float = 1e-9):
    """Run the standard policy from every cell until it enters the
    fast-switching regime (or the target or antipodal band, or the step
    cap); returns the terminal fidelities and the control-segment counts.

    Each step is ``next_action``'s: a free tick of ``dt_free`` at a
    switching point, the bang field up to the next one elsewhere. A cell
    with ``s_max = 0`` never gets a field and stops where it starts. All
    of ``params`` share one ``omega``."""
    fid = _population(a)
    n_controls = np.zeros(len(a))
    live = np.flatnonzero(terms[0] > 0.0)
    a, b, terms = a[live], b[live], terms[:, live]
    free = None
    for _ in range(100_000):
        mag = np.abs(a)
        f_now = np.minimum(mag**2, 1.0)
        polar_angle = 2.0 * np.arccos(np.minimum(mag, 1.0))
        # terms[4] is theta_max, terms[0] s_max (see _strength_terms)
        stop = (f_now >= 1.0 - eps_target) | (f_now <= eps_target) | (polar_angle <= terms[4])
        if stop.any():
            fid[live[stop]] = f_now[stop]
            keep = ~stop
            live, a, b, terms = live[keep], a[keep], b[keep], terms[:, keep]
            if not live.size:
                return fid, n_controls
        ab = a * b.conj()
        field = bang_field(ab.imag, terms[0], EPS_SWITCH)
        tick = field == 0.0
        if tick.any():
            if free is None:
                free = free_unitary(params[0], dt_free)
            a[tick], b[tick] = _normalised(free.u11 * a[tick], free.u22 * b[tick])
        bang = ~tick
        if bang.any():
            ends = _bang_segments(a[bang], b[bang], ab[bang], field[bang], terms[:, bang], params)
            a[bang], b[bang] = ends[:2]
            n_controls[live[bang]] += 1
    fid[live] = _population(a)
    return fid, n_controls


def sweep_first_segment(grid: SweepGrid) -> SweepResult:
    """Population ratios ``|a0|^2/|a_tau|^2`` and ``|b_tau|^2/|b0|^2`` plus the
    duration of the first control segment, per initial ``(gamma, phi)`` cell.

    Cells with ``phi`` in ``{0, pi}`` (no field is triggered without a free
    tick) carry NaN sentinels, as do the polar cells ``gamma`` in ``{0, pi}``.
    """
    if len(grid.s_values) != 1:
        raise ValueError("first-segment sweep expects exactly one field strength")
    params = (SystemParams(grid.omega, grid.s_values[0]),)
    shape = (len(grid.gamma_axis), len(grid.phi_axis))
    a, b = _initial_states(grid.gamma_axis, grid.phi_axis)
    ab = a * b.conj()
    polar = np.repeat([g <= 0.0 or g >= math.pi for g in grid.gamma_axis], shape[1])
    run = np.flatnonzero(~polar & ~(np.abs(ab.imag) <= EPS_SWITCH))
    a, b, ab = a[run], b[run], ab[run]
    terms = _strength_terms(params, np.zeros(run.size, dtype=int))
    a_end, b_end, tau = _bang_segments(a, b, ab, bang_field(ab.imag, terms[0], EPS_SWITCH), terms, params)
    tables = {name: np.full(shape, FLAGGED) for name in ("ratio_a", "ratio_b", "tau")}
    tables["ratio_a"].flat[run] = _population(a) / _population(a_end)
    tables["ratio_b"].flat[run] = _population(b_end) / _population(b)
    tables["tau"].flat[run] = tau
    return SweepResult(grid, tables, {"omega": grid.omega, "s": grid.s_values[0]})


def sweep_ssc_fidelity(
    grid: SweepGrid,
    s: float,
    dt_free: float | None = None,
) -> SweepResult:
    """Terminal fidelity of slow switching (stopped at fast-switching entry)
    and the number of control segments it took, per initial cell."""
    params = (SystemParams(grid.omega, s),)
    if dt_free is None:
        dt_free = SWEEP_DT_FREE_FACTOR / grid.omega
    shape = (len(grid.gamma_axis), len(grid.phi_axis))
    a, b = _initial_states(grid.gamma_axis, grid.phi_axis)
    fid, n_max = _ssc_terminal(a, b, _strength_terms(params, np.zeros(a.size, dtype=int)), params, dt_free)
    return SweepResult(
        grid,
        {"fidelity": fid.reshape(shape), "n_max": n_max.reshape(shape)},
        {"omega": grid.omega, "s": s, "dt_free": dt_free, "bound": ssc_fidelity_bound(params[0])},
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
    params = tuple(SystemParams(omega, s) for s in grid.s_values)
    cells = np.arange(len(params))
    a, b = _initial_states((initial.gamma,), (initial.phi,))
    terms = _strength_terms(params, cells)
    fid, _ = _ssc_terminal(np.repeat(a, cells.size), np.repeat(b, cells.size), terms, params, dt_free)
    return SweepResult(
        grid,
        {"fidelity": fid, "bound": np.array([ssc_fidelity_bound(P) for P in params])},
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
