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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .control import DEFAULT_EPS_TARGET, EPS_SWITCH, _switch, bang_field, ssc_fidelity_bound
from .extended import _plan_in_band, required_phase
from .propagator import UNITARY_TOL, free_unitary
from .states import (
    NORM_TOL,
    BlochAngles,
    SystemParams,
    _dressed_terms,
    _new_state,
    from_bloch,
    lyapunov,
)

#: Sweeps default to a tighter trigger tick than single runs: the recursion
#: error per step scales with the tick squared.
SWEEP_DT_FREE_FACTOR = 1e-6

#: Sentinel for grid cells where the first-segment analysis does not apply,
#: and for slow-switching cells still running at :data:`SSC_STEP_CAP`.
FLAGGED = float("nan")

#: Steps (free ticks and bang segments) after which a slow-switching cell
#: that has not stopped is given up.
SSC_STEP_CAP = 100_000

#: A slow-switching step's fixed cost, in cell-steps: about 50 us however few
#: cells it moves, and 0.23 us per cell (fit over 1-40,000 cells, Intel Xeon).
SSC_STEP_OVERHEAD = 200


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
    """A sweep's tables over ``grid``; ``metadata`` holds what the grid does
    not: a resolved ``dt_free`` and the slow-switching ``bound``."""

    grid: SweepGrid
    tables: Mapping[str, np.ndarray]
    metadata: Mapping[str, object]


class _Cells(NamedTuple):
    """Grid cells as complex arrays ``a``, ``b``, with the per-cell
    quantities a step reads, each computed once per state: ``abs_a = |a|``,
    ``a2 = |a|^2``, ``b2 = |b|^2`` and ``ab = a b*``."""

    a: np.ndarray
    b: np.ndarray
    abs_a: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    ab: np.ndarray

    def take(self, index) -> "_Cells":
        return _Cells(*(x[index] for x in self))

    def put(self, index, cells: "_Cells") -> None:
        for x, y in zip(self, cells):
            x[index] = y


def _cells(a: np.ndarray, b: np.ndarray) -> _Cells:
    abs_a = np.abs(a)
    return _Cells(a, b, abs_a, abs_a**2, np.abs(b) ** 2, a * b.conj())


def _all(mask: np.ndarray) -> bool:
    """``mask.all()`` as a count, which costs a third of the reduction on
    a row's cells."""
    return np.count_nonzero(mask) == mask.size


def _initial_states(gamma_axis: Sequence[float], phi_axis: Sequence[float]) -> _Cells:
    """``from_bloch`` of every ``(gamma, phi)`` cell, row by row, with
    ``PureState``'s norm check: the trigonometry runs once per axis point,
    in ``math``, so each cell gets the amplitudes ``from_bloch`` gives it."""
    half = [0.5 * g for g in gamma_axis]
    a = np.repeat(np.array([math.cos(h) for h in half], dtype=complex), len(phi_axis))
    turn = np.array([cmath.exp(1j * p) for p in phi_axis])
    cells = _cells(a, np.outer(np.array([math.sin(h) for h in half]), turn).ravel())
    # written so that a NaN norm fails too
    if not _all(np.abs(cells.a2 + cells.b2 - 1.0) <= NORM_TOL):
        raise ValueError("state not normalized")
    return cells


def _population(squared: np.ndarray) -> np.ndarray:
    """``fidelity`` (of ``|a|^2``) or ``lyapunov`` (of ``|b|^2``), per cell."""
    return np.minimum(squared, 1.0)


def _strength_terms(params: Sequence[SystemParams], k: np.ndarray) -> np.ndarray:
    """Per cell ``k`` (an index into ``params``), the rows ``s_max``, ``eplus``,
    ``sin(theta)``, ``cos(theta)`` of the field ``+s_max`` and ``theta_max``,
    from the scalar closed forms (which also apply the field bound)."""
    rows = [(P.s_max, *_dressed_terms(P, P.s_max), P.theta_max) for P in params]
    return np.array(rows).T[:, k]


def _ssc_steps(gamma: float, s_values, omega: float) -> np.ndarray:
    """About how many steps :func:`_ssc_terminal` takes a cell of polar angle
    ``gamma`` at each strength: ``gamma / (2 theta_max)``, at most
    :data:`SSC_STEP_CAP` (also where ``theta_max`` underflows), none at 0."""
    s_values = np.asarray(s_values, dtype=float)
    theta = np.arctan2(2.0 * s_values, omega)
    steps = np.minimum(gamma / np.maximum(2.0 * theta, np.finfo(float).tiny), SSC_STEP_CAP)
    return np.where(s_values > 0.0, steps, 0.0)


def _normalised(a: np.ndarray, b: np.ndarray) -> _Cells:
    """``propagator.evolve``'s norm handling, per cell: a drift beyond
    ``NORM_TOL`` is renormalised, and a NaN, infinite or zero norm raises."""
    abs_a = np.abs(a)
    a2, b2 = abs_a**2, np.abs(b) ** 2
    n2 = a2 + b2
    drift = ~(np.abs(n2 - 1.0) <= NORM_TOL)
    if np.count_nonzero(drift):
        bad = n2[drift]
        finite = (0.0 < bad) & (bad < math.inf)
        if not finite.all():
            raise ValueError(f"evolved state has norm^2 {bad[~finite][0]!r}")
        inv = 1.0 / np.sqrt(bad)
        a[drift] *= inv
        b[drift] *= inv
        abs_a[drift], b2[drift] = np.abs(a[drift]), np.abs(b[drift]) ** 2
        a2[drift] = abs_a[drift] ** 2
        if not _all(np.abs(a2[drift] + b2[drift] - 1.0) <= NORM_TOL):
            raise ValueError("state not normalized after renormalisation")
    return _Cells(a, b, abs_a, a2, b2, a * b.conj())


def _check_unitary(u11, u12, u21, u22) -> None:
    """``propagator._check_unitary``'s three tests, on every cell's entries."""
    c1 = np.abs(u11) ** 2 + np.abs(u21) ** 2
    c2 = np.abs(u12) ** 2 + np.abs(u22) ** 2
    cross = u11.conj() * u12 + u21.conj() * u22
    # written so that a NaN entry fails too
    ok = (np.abs(c1 - 1.0) <= UNITARY_TOL) & (np.abs(c2 - 1.0) <= UNITARY_TOL) & (np.abs(cross) <= UNITARY_TOL)
    if not _all(ok):
        raise ValueError("entries do not form a unitary matrix")


def _bang_segments(cells: _Cells, field, terms):
    """Every cell under its bang ``field`` up to its next switching point;
    returns the end cells and the durations.

    ``Im(a b*)`` must lie outside the ``EPS_SWITCH`` band. That keeps every
    cell clear of what ``segment_duration`` rejects: ``|a|`` and ``|b|``
    exceed ``|Im(a b*)| > 1e-12``, and so does ``r = hypot(p, q) >= |p|``.
    The duration is ``segment_duration``'s closed form, confirmed by
    ``|Im(a b*)| <= 1e-13 r`` on the evolved state, which is also the end
    state. A cell that fails the confirmation is redone by
    ``segment_duration``'s solver, which also returns its end state.
    """
    _, eplus, sin_t, cos_t, _ = terms
    sin_t = np.copysign(sin_t, field)
    p = cells.ab.imag
    q = 0.5 * sin_t * (cells.a2 - cells.b2) - cos_t * cells.ab.real
    r = np.hypot(p, q)
    alpha = np.mod(-np.arctan2(p, q), math.pi)
    alpha[alpha <= 0.0] = math.pi
    tau = alpha / (2.0 * eplus)
    # controlled_unitary(params, field, tau), cell by cell
    if not _all(tau >= 0.0):
        raise ValueError("duration must be non-negative")
    angle = eplus * tau
    c, s = np.cos(angle), np.sin(angle)
    off, turn = -1j * s * sin_t, 1j * s * cos_t
    u11, u22 = c - turn, c + turn
    _check_unitary(u11, off, off, u22)
    a, b = cells.a, cells.b
    end = _normalised(u11 * a + off * b, off * a + u22 * b)
    redo = ~(np.abs(end.ab.imag) <= 1e-13 * r)
    if np.count_nonzero(redo):
        redo = np.flatnonzero(redo)
        for i in redo:
            state = _new_state(complex(a[i]), complex(b[i]))
            # the cell's row is its field's _dressed_terms
            tau[i], fixed = _switch(state, float(field[i]), (float(eplus[i]), float(sin_t[i]), float(cos_t[i])))
            end.a[i], end.b[i] = fixed.a, fixed.b
        end.put(redo, _cells(end.a[redo], end.b[redo]))
    return end, tau


def _free_ticks(a: np.ndarray, b: np.ndarray, free) -> _Cells:
    return _normalised(free.u11 * a, free.u22 * b)


def _ssc_terminal(cells: _Cells, terms, params: SystemParams, dt_free: float):
    """Run the standard policy from every cell until it enters the
    fast-switching regime (or the target or antipodal band); returns the
    terminal fidelities and the control-segment counts. A cell still
    running after :data:`SSC_STEP_CAP` steps gets :data:`FLAGGED` in both.

    Each step is ``next_action``'s: a free tick of ``dt_free`` at a
    switching point, the bang field up to the next one elsewhere. A cell
    with ``s_max = 0`` never gets a field and stops where it starts. The
    free tick is that of ``params``' ``omega``, which every cell shares."""
    fid = _population(cells.a2)
    n_controls = np.zeros(fid.size)
    live = np.flatnonzero(terms[0] > 0.0)
    cells, terms = cells.take(live), terms[:, live]
    free = None
    for step in range(SSC_STEP_CAP + 1):
        # the fidelity min(|a|^2, 1) lies in a band exactly when |a|^2 does;
        # terms[4] is theta_max, terms[0] s_max (see _strength_terms)
        stop = (cells.a2 >= 1.0 - DEFAULT_EPS_TARGET) | (cells.a2 <= DEFAULT_EPS_TARGET)
        stop |= 2.0 * np.arccos(np.minimum(cells.abs_a, 1.0)) <= terms[4]
        if np.count_nonzero(stop):
            fid[live[stop]] = _population(cells.a2[stop])
            keep = ~stop
            live, cells, terms = live[keep], cells.take(keep), terms[:, keep]
        if not live.size:
            return fid, n_controls
        if step == SSC_STEP_CAP:
            break
        field = bang_field(cells.ab.imag, terms[0], EPS_SWITCH)
        tick = field == 0.0
        ticks = np.count_nonzero(tick)
        if ticks and free is None:
            free = free_unitary(params, dt_free)
        # a confirmed segment ends in the band and a tick leaves it, so cells
        # that start alike alternate in lockstep: a step mostly ticks or
        # bangs whole, without gathering its cells
        if ticks == live.size:
            cells = _free_ticks(cells.a, cells.b, free)
        elif not ticks:
            cells = _bang_segments(cells, field, terms)[0]
            n_controls[live] += 1
        else:
            bang = ~tick
            ticked = _free_ticks(cells.a[tick], cells.b[tick], free)
            ended = _bang_segments(cells.take(bang), field[bang], terms[:, bang])[0]
            cells.put(tick, ticked)
            cells.put(bang, ended)
            n_controls[live[bang]] += 1
    fid[live] = n_controls[live] = FLAGGED
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
    cells = _initial_states(grid.gamma_axis, grid.phi_axis)
    polar = np.repeat([g <= 0.0 or g >= math.pi for g in grid.gamma_axis], shape[1])
    run = np.flatnonzero(~polar & ~(np.abs(cells.ab.imag) <= EPS_SWITCH))
    cells = cells.take(run)
    terms = _strength_terms(params, np.zeros(run.size, dtype=int))
    end, tau = _bang_segments(cells, bang_field(cells.ab.imag, terms[0], EPS_SWITCH), terms)
    tables = {name: np.full(shape, FLAGGED) for name in ("ratio_a", "ratio_b", "tau")}
    tables["ratio_a"].flat[run] = _population(cells.a2) / _population(end.a2)
    tables["ratio_b"].flat[run] = _population(end.b2) / _population(cells.b2)
    tables["tau"].flat[run] = tau
    return SweepResult(grid, tables, {})


def sweep_ssc_fidelity(
    grid: SweepGrid,
    s: float,
    dt_free: float | None = None,
) -> SweepResult:
    """Terminal fidelity of slow switching (stopped at fast-switching entry)
    and the number of control segments it took, per initial cell. A cell
    that has not stopped after :data:`SSC_STEP_CAP` steps reads
    :data:`FLAGGED` in both tables. The grid holds ``s`` as its one strength."""
    if grid.s_values != (s,):
        raise ValueError(f"slow-switching sweep of strength {s!r} needs grid strengths ({s!r},), got {grid.s_values!r}")
    params = SystemParams(grid.omega, s)
    if dt_free is None:
        dt_free = SWEEP_DT_FREE_FACTOR / grid.omega
    shape = (len(grid.gamma_axis), len(grid.phi_axis))
    cells = _initial_states(grid.gamma_axis, grid.phi_axis)
    fid, n_max = _ssc_terminal(cells, _strength_terms((params,), np.zeros(cells.a.size, dtype=int)), params, dt_free)
    return SweepResult(
        grid,
        {"fidelity": fid.reshape(shape), "n_max": n_max.reshape(shape)},
        {"dt_free": dt_free, "bound": ssc_fidelity_bound(params)},
    )


def fidelity_vs_strength(
    s_values: Sequence[float],
    initial: BlochAngles,
    omega: float,
    dt_free: float | None = None,
) -> SweepResult:
    """Slow-switching terminal fidelity for one initial state across field
    strengths, next to the strength-dependent lower bound. A strength whose
    run has not stopped after :data:`SSC_STEP_CAP` steps reads
    :data:`FLAGGED`."""
    grid = SweepGrid((initial.gamma,), (initial.phi,), tuple(s_values), omega)
    if dt_free is None:
        dt_free = SWEEP_DT_FREE_FACTOR / omega
    params = tuple(SystemParams(omega, s) for s in grid.s_values)
    # the one initial cell, once per strength
    cells = _initial_states((initial.gamma,), (initial.phi,)).take(np.zeros(len(params), dtype=int))
    fid, _ = _ssc_terminal(cells, _strength_terms(params, np.arange(len(params))), params[0], dt_free)
    return SweepResult(
        grid,
        {"fidelity": fid, "bound": np.array([ssc_fidelity_bound(P) for P in params])},
        {"dt_free": dt_free},
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
        # required_phase has applied the band test
        *waits, shot = _plan_in_band(state, params)
        wait[i] = waits[0].duration if waits else 0.0
        ratio_b[i] = lyapunov(shot.state_out) / lyapunov(state) if lyapunov(state) > 0.0 else 0.0
    return SweepResult(
        grid,
        {
            "phi_star": phi_star,
            "tau_prime": tau_prime,
            "wait_time": wait,
            "ratio_b": ratio_b,
            "cos2_phi_star": cos2,
        },
        {},
    )
