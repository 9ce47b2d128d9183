"""Parameter sweeps: first-segment population ratios, slow-switching fidelity
maps, fidelity-versus-strength curves, and the single-shot phase table.

The first three evaluate their cells together, as numpy arrays, and a cell
leaves the arrays when it stops. The slow-switching sweeps step all their
cells, of every strength, in one loop. A step is the standard policy's free
tick for the cells at a switching point, then its bang segment for every cell
outside the switching band: a segment ends at a switching point and a tick
leaves it, so after the first step every cell still running ticks and bangs
in lockstep. No cell's arithmetic depends on another's, so a grid swept
whole, by rows or by strengths gives the same tables, bit for bit. The scalar
functions step in only where the closed-form switching time needs refining.
Every check they make (field bound, unitarity, normalisation) is made on
every cell, unitarity by ``propagator._closed``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .control import DEFAULT_EPS_TARGET, EPS_SWITCH, _fsc_floor, _switch, bang_field, ssc_fidelity_bound
from .extended import _plan_in_band, required_phase
from .propagator import _closed, free_unitary
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

#: Steps (each a free tick where a cell is at a switching point, then a bang
#: segment) after which a slow-switching cell that has not stopped is given up.
SSC_STEP_CAP = 50_000

#: A step's fixed cost in the one slow-switching loop, in cell-steps, whatever
#: cells it moves: 60 us against 0.15 us a cell (1-40,000 cells, Intel Xeon).
SSC_STEP_OVERHEAD = 400


@dataclass(frozen=True)
class SweepGrid:
    """Axes for a sweep: non-empty, strictly increasing, and each strength a valid ``s_max`` at ``omega``."""

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
        for s in self.s_values:
            SystemParams(self.omega, s)


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
    ``sin(theta)``, ``cos(theta)`` of the field ``+s_max`` and ``_fsc_floor``,
    from the scalar closed forms (which also apply the field bound)."""
    rows = [(P.s_max, *_dressed_terms(P, P.s_max), _fsc_floor(P)) for P in params]
    return np.array(rows).T[:, k]


def _normalised(a: np.ndarray, b: np.ndarray) -> _Cells:
    """``propagator.evolve``'s norm handling, per cell: a drift beyond
    ``NORM_TOL`` is renormalised, and a NaN, infinite or zero norm raises."""
    abs_a = np.abs(a)
    a2, b2 = abs_a**2, np.abs(b) ** 2
    n2 = a2 + b2
    kept = np.abs(n2 - 1.0) <= NORM_TOL
    if not _all(kept):
        drift = ~kept
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


def _bang_segments(cells: _Cells, field, terms):
    """Every cell under its bang ``field`` up to its next switching point;
    returns the end cells and the durations.

    ``Im(a b*)`` must lie outside the ``EPS_SWITCH`` band. That keeps every
    cell clear of what ``segment_duration`` rejects: ``|a|`` and ``|b|``
    exceed ``|Im(a b*)| > 1e-12``, and so does ``r = hypot(p, q) >= |p|``.
    The propagator is ``controlled_unitary``'s closed form for ``tau`` in
    ``(0, pi/(2 eplus)]``, built per cell by ``propagator._closed``. The
    duration is ``segment_duration``'s closed form, confirmed by
    ``|Im(a b*)| <= 1e-13 r`` on the evolved state, which is also the end
    state; a cell that fails gets both from its solver.
    """
    _, eplus, sin_t, cos_t, _ = terms
    sin_t = np.copysign(sin_t, field)
    p = cells.ab.imag
    q = 0.5 * sin_t * (cells.a2 - cells.b2) - cos_t * cells.ab.real
    r = np.hypot(p, q)
    alpha = np.mod(-np.arctan2(p, q), math.pi)
    alpha[alpha <= 0.0] = math.pi
    tau = alpha / (2.0 * eplus)
    angle = eplus * tau
    c, s = np.cos(angle), np.sin(angle)
    off, turn = -1j * s * sin_t, 1j * s * cos_t
    u = _closed(c - turn, off, c + turn)
    a, b = cells.a, cells.b
    end = _normalised(u.u11 * a + u.u12 * b, u.u21 * a + u.u22 * b)
    held = np.abs(end.ab.imag) <= 1e-13 * r
    if not _all(held):
        redo = np.flatnonzero(~held)
        for i in redo:
            state = _new_state(complex(a[i]), complex(b[i]))
            # the cell's row is its field's _dressed_terms
            tau[i], fixed = _switch(state, float(field[i]), (float(eplus[i]), float(sin_t[i]), float(cos_t[i])))
            end.a[i], end.b[i] = fixed.a, fixed.b
        end.put(redo, _cells(end.a[redo], end.b[redo]))
    return end, tau


def _drop_stopped(fid, live, cells: _Cells, terms):
    """The ``live`` cells, with their ``cells`` and ``terms``, outside the
    target and antipodal bands and fast switching; ``fid`` gets the others'."""
    # the fidelity min(|a|^2, 1) lies in a band exactly when |a|^2 does;
    # terms[4] is classify_regime's fast-switching floor (see _strength_terms)
    stop = (cells.a2 >= 1.0 - DEFAULT_EPS_TARGET) | (cells.a2 <= DEFAULT_EPS_TARGET)
    stop |= cells.abs_a >= terms[4]
    if not np.count_nonzero(stop):
        return live, cells, terms
    fid[live[stop]] = _population(cells.a2[stop])
    keep = ~stop
    return live[keep], cells.take(keep), terms[:, keep]


def _ssc_terminal(grid: SweepGrid, dt_free: float | None):
    """Run the standard policy from every ``(s, gamma, phi)`` cell of
    ``grid``, in one loop, until it enters the fast-switching regime (or
    the target or antipodal band); returns the terminal fidelities and
    control-segment counts, shaped ``(s, gamma, phi)``, and the ``dt_free``
    used. A cell still running after :data:`SSC_STEP_CAP` steps gets
    :data:`FLAGGED` in both.

    A step is ``next_action``'s tick of ``dt_free``, then its bang segment
    (see the module notes), each after the stop test. A cell of strength 0
    never gets a field and stops where it starts."""
    if dt_free is None:
        dt_free = SWEEP_DT_FREE_FACTOR / grid.omega
    params = [SystemParams(grid.omega, s) for s in grid.s_values]
    shape = (len(params), len(grid.gamma_axis), len(grid.phi_axis))
    # the (gamma, phi) cells once per strength, each with its strength's terms
    cells = _initial_states(grid.gamma_axis * shape[0], grid.phi_axis)
    terms = _strength_terms(params, np.repeat(np.arange(shape[0]), shape[1] * shape[2]))
    fid = _population(cells.a2)
    n_controls = np.zeros(fid.size)
    live = np.flatnonzero(terms[0] > 0.0)
    cells, terms = cells.take(live), terms[:, live]
    # the tick depends on omega alone, which every cell shares
    free = free_unitary(params[0], dt_free)
    for step in range(SSC_STEP_CAP + 1):
        live, cells, terms = _drop_stopped(fid, live, cells, terms)
        if step == SSC_STEP_CAP or not live.size:
            break
        # the tick is diagonal: every cell's product, kept where it is in the band
        a, b = free.u11 * cells.a, free.u22 * cells.b
        tick = np.abs(cells.ab.imag) <= EPS_SWITCH
        if not _all(tick):
            a, b = np.where(tick, a, cells.a), np.where(tick, b, cells.b)
        live, cells, terms = _drop_stopped(fid, live, _normalised(a, b), terms)
        field = bang_field(cells.ab.imag, terms[0])
        bang = field != 0.0
        if _all(bang):
            cells = _bang_segments(cells, field, terms)[0]
        else:
            # a tick too short to leave the band: those cells sit out the bang
            cells.put(bang, _bang_segments(cells.take(bang), field[bang], terms[:, bang])[0])
        n_controls[live] += bang
    fid[live] = n_controls[live] = FLAGGED
    return fid.reshape(shape), n_controls.reshape(shape), dt_free


def _ssc_cost(first: float, last: float, s_values, omega: float, dt_free: float | None, cells: int) -> float:
    """About how many cell-steps :func:`_ssc_terminal`'s one loop takes over
    ``cells`` cells a strength, of polar angles from ``first`` to ``last``,
    with :data:`SSC_STEP_OVERHEAD` for each of its steps.

    A cell takes ``gamma / (2 theta_max) + 1`` controls at the mean gamma,
    and the loop as many as ``last`` takes at the weakest strength. Each
    control takes the ticks that lift ``Im(a b*)`` out of the switching
    band from a switching point, where ``|a b*|`` is ``sin(gamma) / 2`` for
    a gamma between ``theta_max`` and ``last``, and no less than at the
    antipodal band's edge. Every count stops at :data:`SSC_STEP_CAP`."""
    s = np.asarray(s_values, dtype=float)
    theta = np.arctan2(2.0 * s, omega)
    angle = omega * (SWEEP_DT_FREE_FACTOR / omega if dt_free is None else dt_free)
    edge = math.sqrt(DEFAULT_EPS_TARGET * (1.0 - DEFAULT_EPS_TARGET))
    m = np.maximum(0.5 * np.minimum(np.sin(theta), math.sin(last)), edge)
    ticks = np.ceil(EPS_SWITCH / np.maximum(m * abs(math.sin(angle) if angle < math.inf else 0.0), 1e-300))

    def steps(gamma):
        controls = np.minimum(gamma / np.maximum(2.0 * theta, np.finfo(float).tiny) + 1.0, SSC_STEP_CAP)
        return np.where(s > 0.0, np.minimum(controls * ticks, SSC_STEP_CAP), 0.0)

    return cells * steps(0.5 * (first + last)).sum() + SSC_STEP_OVERHEAD * steps(last).max()


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
    end, tau = _bang_segments(cells, bang_field(cells.ab.imag, terms[0]), terms)
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
    fid, n_max, dt_free = _ssc_terminal(grid, dt_free)
    bound = ssc_fidelity_bound(SystemParams(grid.omega, s))
    return SweepResult(grid, {"fidelity": fid[0], "n_max": n_max[0]}, {"dt_free": dt_free, "bound": bound})


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
    fid, _, dt_free = _ssc_terminal(grid, dt_free)
    bound = [ssc_fidelity_bound(SystemParams(omega, s)) for s in grid.s_values]
    return SweepResult(grid, {"fidelity": fid[:, 0, 0], "bound": np.array(bound)}, {"dt_free": dt_free})


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
