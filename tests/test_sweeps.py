import collections
import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapqubit import (
    BlochAngles,
    PureState,
    SimConfig,
    SweepGrid,
    SystemParams,
    bang_field,
    controlled_unitary,
    evolve,
    exact_steering_strength,
    fidelity,
    fidelity_vs_strength,
    from_bloch,
    lyapunov,
    next_action,
    phase_alignment_table,
    polar_angle,
    segment_duration,
    ssc_fidelity_bound,
    sweep_first_segment,
    sweep_ssc_fidelity,
    switching_function,
)
from lyapqubit import control, extended, propagator, sweeps
from lyapqubit.propagator import _closed
from lyapqubit.states import NORM_TOL

OMEGA = 1.0
P = SystemParams(OMEGA, 0.1)
THETA = P.theta_max


def small_grid(s=0.1, ng=9, nph=12):
    return SweepGrid(
        tuple(np.linspace(0.05, math.pi - 0.05, ng)),
        tuple(np.linspace(0.0, 2 * math.pi, nph, endpoint=False)),
        (s,),
        OMEGA,
    )


class TestSweepGrid:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid((), (0.0,), (0.1,), OMEGA)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid((0.5, 0.5), (0.0,), (0.1,), OMEGA)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            SweepGrid((0.1, 4.0), (0.0,), (0.1,), OMEGA)
        with pytest.raises(ValueError):
            SweepGrid((0.1,), (0.0, 7.0), (0.1,), OMEGA)

    @pytest.mark.parametrize("s, omega", [(-0.1, OMEGA), (math.nan, OMEGA), (1e80, OMEGA), (0.1, math.inf), (0.1, 0.0)])
    def test_strengths_and_omega_are_refused_as_system_params_refuses_them(self, s, omega):
        with pytest.raises(ValueError) as params:
            SystemParams(omega, s)
        with pytest.raises(ValueError, match=re.escape(str(params.value))):
            SweepGrid((0.5,), (0.0,), (s,), omega)


class TestFirstSegment:
    def test_tables_and_flags(self):
        grid = small_grid()
        result = sweep_first_segment(grid)
        ratio_a = result.tables["ratio_a"]
        ratio_b = result.tables["ratio_b"]
        tau = result.tables["tau"]
        assert ratio_a.shape == (len(grid.gamma_axis), len(grid.phi_axis))
        flagged = np.isnan(ratio_a)
        # the phi = 0 and phi = pi columns are flagged, nothing else
        for j, phi in enumerate(grid.phi_axis):
            expected = min(phi, abs(phi - math.pi), abs(phi - 2 * math.pi)) < 1e-12
            assert flagged[:, j].all() == expected
        valid = ~flagged
        assert (ratio_a[valid] <= 1.0 + 1e-12).all()
        assert (ratio_b[valid] <= 1.0 + 1e-12).all()
        assert (tau[valid] > 0.0).all()
        assert (tau[valid] <= math.pi / P.eplus_max + 1e-12).all()

    def test_small_angle_pi_half_column_vanishes(self):
        grid = SweepGrid((1e-4, 1e-3), (math.pi / 2,), (0.1,), OMEGA)
        result = sweep_first_segment(grid)
        assert (result.tables["ratio_b"] < 1e-4).all()

    def test_zero_locus_marks_single_control_steerable_states(self):
        # a cell sitting exactly at (gamma, required phase) is fully drained
        # by its first control segment
        from lyapqubit import required_phase

        gamma = THETA
        phi_star, _ = required_phase(gamma, P)
        grid = SweepGrid((gamma,), (phi_star,), (0.1,), OMEGA)
        result = sweep_first_segment(grid)
        assert result.tables["ratio_b"][0, 0] < 1e-15

    def test_single_strength_required(self):
        grid = SweepGrid((0.5,), (1.0,), (0.05, 0.1), OMEGA)
        with pytest.raises(ValueError):
            sweep_first_segment(grid)


class TestSscFidelity:
    def test_bound_dominates_every_cell(self):
        grid = small_grid()
        result = sweep_ssc_fidelity(grid, 0.1)
        bound = ssc_fidelity_bound(P)
        assert (result.tables["fidelity"] >= bound - 1e-9).all()
        assert (result.tables["n_max"] >= 0).all()

    def test_weaker_field_raises_minimum_fidelity(self):
        min_strong = sweep_ssc_fidelity(small_grid(), 0.1).tables["fidelity"].min()
        min_weak = sweep_ssc_fidelity(small_grid(0.05), 0.05).tables["fidelity"].min()
        assert min_weak > min_strong

    @pytest.mark.parametrize("s_values", [(0.05,), (0.05, 0.1)])
    def test_strength_must_be_the_grids_one_strength(self, s_values):
        grid = SweepGrid((1.0, 2.0), (0.5,), s_values, OMEGA)
        with pytest.raises(ValueError, match="strength"):
            sweep_ssc_fidelity(grid, 0.1)

    def test_designed_cells_reach_target_exactly(self):
        # gamma values of the form 2 n theta are steered to fidelity one by
        # slow switching alone
        gammas = tuple(sorted(2 * n * THETA for n in (1, 2, 3)))
        grid = SweepGrid(gammas, (0.0,), (0.1,), OMEGA)
        result = sweep_ssc_fidelity(grid, 0.1, dt_free=1e-6)
        assert (result.tables["fidelity"] >= 1.0 - 1e-6).all()

    def test_n_max_counts_controls(self):
        grid = SweepGrid((2 * THETA,), (0.0,), (0.1,), OMEGA)
        result = sweep_ssc_fidelity(grid, 0.1, dt_free=1e-6)
        assert result.tables["n_max"][0, 0] == 1


class TestFidelityVsStrength:
    def test_curve_sits_on_or_above_bound(self):
        s_values = (0.02, 0.05, 0.1, 0.2, 0.4)
        result = fidelity_vs_strength(s_values, BlochAngles(math.pi / 2, 0.0), OMEGA)
        fid = result.tables["fidelity"]
        bound = result.tables["bound"]
        assert (fid >= bound - 1e-9).all()

    def test_bound_reference_value(self):
        result = fidelity_vs_strength((0.1,), BlochAngles(math.pi / 2, 0.0), OMEGA)
        assert result.tables["bound"][0] == pytest.approx(0.9902903378454601, abs=1e-12)

    def test_weak_field_limit(self):
        result = fidelity_vs_strength((0.005,), BlochAngles(math.pi / 2, 0.0), OMEGA)
        assert result.tables["fidelity"][0] > 0.9999
        assert result.tables["bound"][0] > 0.9999


class TestStepCap:
    # a step is a free tick at a switching point, then a bang segment: the
    # cell at 2 theta_max, phi = 0 stops after one step, onto the target;
    # the equator cell needs 4
    GRID = SweepGrid((2 * THETA, math.pi / 2), (0.0,), (0.1,), OMEGA)

    def test_cells_still_running_at_the_cap_are_flagged(self, monkeypatch):
        monkeypatch.setattr(sweeps, "SSC_STEP_CAP", 1)
        tables = sweep_ssc_fidelity(self.GRID, 0.1, dt_free=1e-6).tables
        assert tables["fidelity"][0, 0] >= 1.0 - 1e-9
        assert tables["n_max"][0, 0] == 1
        assert np.isnan(tables["fidelity"][1, 0])
        assert np.isnan(tables["n_max"][1, 0])

    @pytest.mark.parametrize("gamma, phi", [(2 * THETA, 0.0), (math.pi / 2, 0.0), (2.5, 0.0), (2.5, 1.0)])
    def test_a_cell_is_flagged_when_it_needs_more_controls_than_the_cap(self, monkeypatch, gamma, phi):
        # phi = 0 starts in the switching band, phi = 1 outside it
        grid = SweepGrid((gamma,), (phi,), (0.1,), OMEGA)
        needs = int(sweep_ssc_fidelity(grid, 0.1, dt_free=1e-6).tables["n_max"][0, 0])
        for cap in (needs - 1, needs, needs + 1):
            monkeypatch.setattr(sweeps, "SSC_STEP_CAP", cap)
            tables = sweep_ssc_fidelity(grid, 0.1, dt_free=1e-6).tables
            assert np.isnan(tables["fidelity"][0, 0]) == np.isnan(tables["n_max"][0, 0]) == (needs > cap)
            if needs <= cap:
                assert tables["n_max"][0, 0] == needs

    def test_fidelity_vs_strength_flags_capped_strengths(self, monkeypatch):
        monkeypatch.setattr(sweeps, "SSC_STEP_CAP", 1)
        result = fidelity_vs_strength((0.01, 0.1), BlochAngles(2 * THETA, 0.0), OMEGA, dt_free=1e-6)
        fid = result.tables["fidelity"]
        assert np.isnan(fid[0])
        assert fid[1] >= 1.0 - 1e-9
        assert not np.isnan(result.tables["bound"]).any()


class TestPhaseAlignment:
    def test_small_angle_phase_limit(self):
        result = phase_alignment_table((1e-6, 1e-4, 1e-3), P)
        assert result.tables["phi_star"][0] == pytest.approx(math.pi / 2, abs=1e-4)

    def test_every_row_executes_to_target(self):
        gammas = tuple(np.linspace(0.01, 2 * THETA, 25))
        result = phase_alignment_table(gammas, P)
        assert (result.tables["ratio_b"] < 1e-9).all()

    def test_ratio_close_to_cos_squared_near_pole(self):
        gammas = (1e-3, 5e-3, 1e-2)
        result = phase_alignment_table(gammas, P)
        dev = np.abs(result.tables["ratio_b"] - result.tables["cos2_phi_star"])
        assert (dev < 1e-3).all()

    def test_unreachable_angle_rejected(self):
        with pytest.raises(ValueError):
            phase_alignment_table((3 * THETA,), P)

    def test_each_plan_evolves_once(self, monkeypatch):
        # the table reads the final state the plan propagated: one wait and
        # one shot per in-band angle
        calls = []

        def counted(state, u):
            calls.append(u)
            return evolve(state, u)

        for module in (extended, sweeps):
            monkeypatch.setattr(module, "evolve", counted, raising=False)
        gammas = tuple(np.linspace(0.05, 2 * THETA - 0.01, 7))
        result = phase_alignment_table(gammas, P)
        assert (result.tables["wait_time"] > 0.0).all()
        assert len(calls) == 2 * len(gammas)


def test_exact_steering_round_trip_through_sweep():
    # design a strength for 3-step steering and confirm the sweep records
    # fidelity one for that initial angle
    s = exact_steering_strength(math.pi / 2, OMEGA, 3)
    grid = SweepGrid((math.pi / 2,), (0.0,), (s,), OMEGA)
    result = sweep_ssc_fidelity(grid, s, dt_free=1e-6)
    assert result.tables["fidelity"][0, 0] >= 1.0 - 1e-9
    assert result.tables["n_max"][0, 0] == 3


# Scalar references: the per-cell loops the array kernel replaced, written
# with the policy's own next_action and the scalar propagators.


def scalar_ssc_terminal(gamma, phi, params, dt_free, eps_target=1e-9):
    config = SimConfig(params, BlochAngles(gamma, phi), dt_free=dt_free, eps_target=eps_target)
    state = from_bloch(config.initial)
    n_controls = 0
    if params.s_max == 0.0:
        return fidelity(state), 0
    for _ in range(100_000):
        f_now = fidelity(state)
        if f_now >= 1.0 - eps_target or f_now <= eps_target:
            break
        if polar_angle(state) <= params.theta_max:
            break
        (seg,) = next_action(state, config)
        state = seg.state_out
        n_controls += seg.kind == "control"
    return fidelity(state), n_controls


def scalar_first_segment(gamma, phi, params):
    if gamma <= 0.0 or gamma >= math.pi:
        return (math.nan,) * 3
    state = from_bloch(BlochAngles(gamma, phi))
    f = bang_field(switching_function(state), params.s_max)
    if f == 0.0:
        return (math.nan,) * 3
    tau = segment_duration(state, f, params)
    final = evolve(state, controlled_unitary(params, f, tau))
    return fidelity(state) / fidelity(final), lyapunov(final) / lyapunov(state), tau


def assert_agrees(table, reference, exact=False):
    table, reference = np.asarray(table, dtype=float), np.asarray(reference, dtype=float)
    assert np.array_equal(np.isnan(table), np.isnan(reference))
    if exact:
        assert np.array_equal(table, reference, equal_nan=True)
    else:
        assert np.nanmax(np.abs(table - reference), initial=0.0) <= 1e-14


def shifted_grid(seed, s, n):
    """A seeded grid moved by a sub-cell offset, as the benchmark's sweeps."""
    rng = np.random.default_rng(seed)
    gamma = np.linspace(0.1, math.pi - 0.1, n) + rng.uniform(-0.2, 0.2) * (math.pi - 0.2) / (n - 1)
    phi = np.linspace(0.0, 2 * math.pi, n, endpoint=False) + rng.uniform(0.0, 1.0) * 2 * math.pi / n
    return SweepGrid(tuple(gamma), tuple(phi), (s,), OMEGA)


class TestArrayKernelAgainstScalarReference:
    @pytest.mark.parametrize("s", [0.05, 0.1])
    def test_ssc_grid(self, s):
        grid = shifted_grid(11, s, 20)
        params = SystemParams(OMEGA, s)
        result = sweep_ssc_fidelity(grid, s, dt_free=1e-6)
        ref = np.array(
            [[scalar_ssc_terminal(g, p, params, 1e-6) for p in grid.phi_axis] for g in grid.gamma_axis]
        )
        assert_agrees(result.tables["n_max"], ref[..., 1], exact=True)
        assert_agrees(result.tables["fidelity"], ref[..., 0])

    def test_strength_axis_with_zero(self):
        s_values = (0.0, 0.003, 0.02, 0.05, 0.1, 0.25, 0.5)
        initial = BlochAngles(2.3, 4.1)
        result = fidelity_vs_strength(s_values, initial, OMEGA, dt_free=1e-6)
        ref = [
            scalar_ssc_terminal(initial.gamma, initial.phi, SystemParams(OMEGA, s), 1e-6)[0]
            for s in s_values
        ]
        assert_agrees(result.tables["fidelity"], ref)
        assert result.tables["fidelity"][0] == fidelity(from_bloch(initial))
        assert result.tables["bound"].tolist() == [ssc_fidelity_bound(SystemParams(OMEGA, s)) for s in s_values]

    def test_first_segment_grid(self):
        shifted = shifted_grid(12, 0.1, 25)
        # with the poles and the in-plane phases, which are skipped
        grid = SweepGrid(
            (0.0, *shifted.gamma_axis, math.pi), tuple(sorted((*shifted.phi_axis, 0.0, math.pi))), (0.1,), OMEGA
        )
        result = sweep_first_segment(grid)
        ref = np.array([[scalar_first_segment(g, p, P) for p in grid.phi_axis] for g in grid.gamma_axis])
        for k, name in enumerate(("ratio_a", "ratio_b", "tau")):
            assert_agrees(result.tables[name], ref[..., k])

    def test_rows_stack_to_the_whole_grid(self):
        grid = shifted_grid(13, 0.05, 8)
        whole = sweep_ssc_fidelity(grid, 0.05).tables
        rows = [SweepGrid((g,), grid.phi_axis, grid.s_values, OMEGA) for g in grid.gamma_axis]
        rows = [sweep_ssc_fidelity(row, 0.05).tables for row in rows]
        for name, table in whole.items():
            assert np.array_equal(np.vstack([r[name] for r in rows]), table)

    def test_a_cells_bits_do_not_depend_on_the_grids_size(self):
        # 90,000 cells pass the size (16,384) from which numpy would compute
        # a * b.conj() in place as b.conj() * a, which rounds otherwise
        gamma = np.linspace(0.01, math.pi - 0.01, 300)
        grid = SweepGrid(tuple(gamma), tuple(np.linspace(0.0, 2 * math.pi, 300, endpoint=False)), (0.5,), OMEGA)
        whole = sweep_ssc_fidelity(grid, 0.5).tables
        blocks = [dataclasses.replace(grid, gamma_axis=tuple(gamma[i : i + 30])) for i in range(0, 300, 30)]
        blocks = [sweep_ssc_fidelity(block, 0.5).tables for block in blocks]
        for name, table in whole.items():
            assert np.vstack([b[name] for b in blocks]).tobytes() == table.tobytes()

    def test_fallback_cell_takes_segment_durations_tau(self, monkeypatch):
        # found by scanning shifted slow-switching grids: one segment of this
        # cell ends where the closed-form time leaves a residue above
        # 1e-13 r, so the kernel redoes that cell with segment_duration's
        # solver, which hands back the state it confirmed tau on
        calls = []

        def recording(state, f, params):
            tau, end = control._switch(state, f, params)
            calls.append((state, f, params, tau, end))
            return tau, end

        monkeypatch.setattr(sweeps, "_switch", recording)
        gamma, phi, s = 1.0119596783861877, 4.527578844581518, 0.05
        params = SystemParams(OMEGA, s)
        result = sweep_ssc_fidelity(SweepGrid((gamma,), (phi,), (s,), OMEGA), s, dt_free=1e-6)
        fid, n = scalar_ssc_terminal(gamma, phi, params, 1e-6)
        assert result.tables["n_max"][0, 0] == n
        assert abs(result.tables["fidelity"][0, 0] - fid) <= 1e-14
        ((state, f, _, tau, fixed),) = calls
        calls.clear()
        cells = sweeps._cells(np.array([state.a]), np.array([state.b]))
        terms = sweeps._strength_terms((params,), np.zeros(1, dtype=int))
        end, tau_k = sweeps._bang_segments(cells, np.array([f]), terms)
        assert len(calls) == 1
        assert tau_k[0] == tau == segment_duration(state, f, params)
        assert fixed == evolve(state, controlled_unitary(params, f, tau))
        assert (end.a[0], end.b[0]) == (fixed.a, fixed.b)
        # the redone cell carries the quantities of its new amplitudes
        for carried, fresh in zip(end, sweeps._cells(end.a, end.b)):
            assert carried.tobytes() == fresh.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        gamma=st.floats(0.05, math.pi - 0.05),
        phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
        s=st.floats(0.02, 0.5),
    )
    def test_random_cells(self, gamma, phi, s):
        params = SystemParams(OMEGA, s)
        result = sweep_ssc_fidelity(SweepGrid((gamma,), (phi,), (s,), OMEGA), s, dt_free=1e-6)
        fid, n = scalar_ssc_terminal(gamma, phi, params, 1e-6)
        assert result.tables["n_max"][0, 0] == n
        assert abs(result.tables["fidelity"][0, 0] - fid) <= 1e-14
        first = sweep_first_segment(SweepGrid((gamma,), (phi,), (s,), OMEGA)).tables
        ref = scalar_first_segment(gamma, phi, params)
        for k, name in enumerate(("ratio_a", "ratio_b", "tau")):
            assert_agrees(first[name], [[ref[k]]])


def shipped_axes(s, n):
    """A grid on the shipped scenarios' axis pattern: phi runs over
    [0, 2 pi) from 0, and with n even it holds pi too, so the in-plane
    cells start inside the switching band and tick before they bang."""
    gamma = np.linspace(0.01, math.pi - 0.01, n)
    phi = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return SweepGrid(tuple(gamma), tuple(phi), (s,), OMEGA)


def step_kinds(monkeypatch):
    """Counts the kernel's steps by their bang: one that takes every cell
    still running ("whole"), or one that the cells a tick left inside the
    switching band sit out ("split")."""
    kinds = collections.Counter()

    def recording(sw, s_max):
        field = bang_field(sw, s_max)
        kinds["split" if np.count_nonzero(field == 0.0) else "whole"] += 1
        return field

    monkeypatch.setattr(sweeps, "bang_field", recording)
    return kinds


def check_segment_starts(monkeypatch):
    """Checks that every bang segment starts from normalised cells whose
    carried |a|, |a|^2, |b|^2 and a b* are those of their amplitudes, bit
    for bit; returns the list of checked segment calls' sizes."""
    sizes = []
    bang_segments = sweeps._bang_segments

    def checking(cells, field, terms):
        for carried, fresh in zip(cells, sweeps._cells(cells.a, cells.b)):
            assert carried.tobytes() == fresh.tobytes()
        assert np.all(np.abs(cells.a2 + cells.b2 - 1.0) <= NORM_TOL)
        sizes.append(field.size)
        return bang_segments(cells, field, terms)

    monkeypatch.setattr(sweeps, "_bang_segments", checking)
    return sizes


class TestLockstepSteps:
    """Each step ticks the cells at a switching point, then bangs every cell
    outside the band, so the cells of a call move in lockstep."""

    @staticmethod
    def assert_matches_references(grid, s, result, dt_free=1e-6):
        params = SystemParams(OMEGA, s)
        ref = np.array(
            [[scalar_ssc_terminal(g, p, params, dt_free) for p in grid.phi_axis] for g in grid.gamma_axis]
        )
        assert_agrees(result.tables["n_max"], ref[..., 1], exact=True)
        assert_agrees(result.tables["fidelity"], ref[..., 0])

    def assert_cells_step_alone_as_together(self, grid, s, result):
        # the references, and each cell swept alone, bit for bit
        self.assert_matches_references(grid, s, result)
        for i, g in enumerate(grid.gamma_axis):
            for j, p in enumerate(grid.phi_axis):
                alone = sweep_ssc_fidelity(SweepGrid((g,), (p,), (s,), OMEGA), s, dt_free=1e-6).tables
                for name, table in result.tables.items():
                    assert alone[name][0, 0].tobytes() == table[i, j].tobytes(), (name, g, p)

    @staticmethod
    def assert_lockstep(result, sizes):
        # the k-th segment call takes every cell still running: each cell
        # that takes k or more controls, and no other
        n_max = result.tables["n_max"]
        assert len(sizes) == n_max.max()
        assert sizes == [np.count_nonzero(n_max >= k) for k in range(1, len(sizes) + 1)]

    @pytest.mark.parametrize("s", [0.05, 0.1])
    def test_shipped_axes_step_in_lockstep(self, s, monkeypatch):
        grid = shipped_axes(s, 12)
        assert 0.0 in grid.phi_axis and abs(grid.phi_axis[6] - math.pi) <= 1e-15
        sizes = check_segment_starts(monkeypatch)
        result = sweep_ssc_fidelity(grid, s, dt_free=1e-6)
        self.assert_lockstep(result, sizes)
        self.assert_cells_step_alone_as_together(grid, s, result)

    @pytest.mark.parametrize("s", [0.05, 0.1])
    def test_shifted_axes_step_in_lockstep(self, s, monkeypatch):
        grid = shifted_grid(16, s, 12)
        sizes = check_segment_starts(monkeypatch)
        result = sweep_ssc_fidelity(grid, s, dt_free=1e-6)
        self.assert_lockstep(result, sizes)
        self.assert_cells_step_alone_as_together(grid, s, result)

    @pytest.mark.parametrize("dt_free", [1e-12, 1e-14])
    def test_ticks_too_short_to_leave_the_band(self, dt_free, monkeypatch):
        # at omega = 1 such a tick moves Im(a b*) by at most dt_free / 2, so
        # a cell at a switching point ticks again and sits out the bang
        # while the cells that left the band bang
        grid = SweepGrid((0.6, 1.5, 2.4), (0.0, 1.0, math.pi, 4.0), (0.1,), OMEGA)
        kinds = step_kinds(monkeypatch)
        result = sweep_ssc_fidelity(grid, 0.1, dt_free=dt_free)
        assert kinds["split"] > 0
        self.assert_matches_references(grid, 0.1, result, dt_free)
        rows = [SweepGrid((g,), grid.phi_axis, grid.s_values, OMEGA) for g in grid.gamma_axis]
        rows = [sweep_ssc_fidelity(row, 0.1, dt_free=dt_free).tables for row in rows]
        for name, table in result.tables.items():
            assert np.vstack([r[name] for r in rows]).tobytes() == table.tobytes()

    def test_carried_quantities_match_their_state(self, monkeypatch):
        sizes = check_segment_starts(monkeypatch)
        for grid in (shipped_axes(0.1, 8), shifted_grid(17, 0.1, 8)):
            sweep_ssc_fidelity(grid, 0.1)
        fidelity_vs_strength((0.0, 0.02, 0.1, 0.3), BlochAngles(1.9, 2.8), OMEGA)
        assert len(sizes) > 10

    @pytest.mark.parametrize("grid", [shipped_axes(0.1, 8), shifted_grid(18, 0.1, 8)], ids=["shipped", "shifted"])
    def test_drifting_ticks_are_renormalised(self, grid, monkeypatch):
        # a free tick that lengthens every state by 1e-9, beyond NORM_TOL:
        # each cell must be renormalised before its next segment, whether
        # its step ticked every cell or some
        phase = complex(math.cos(0.5e-6), -math.sin(0.5e-6)) * (1.0 + 1e-9)
        drifting = types.SimpleNamespace(u11=phase, u22=phase.conjugate())
        monkeypatch.setattr(sweeps, "free_unitary", lambda params, t: drifting)
        sizes = check_segment_starts(monkeypatch)
        sweep_ssc_fidelity(grid, 0.1)
        # every segment call after the first follows a tick of every cell
        assert len(sizes) > 1

    @pytest.mark.parametrize("grid", [shipped_axes(0.1, 6), shifted_grid(19, 0.1, 6)], ids=["shipped", "shifted"])
    def test_strengths_step_together_as_alone(self, grid, monkeypatch):
        # a G x P x S grid steps in one loop: each strength's cells end bit
        # for bit where that strength's sweep leaves them, and each cell's
        # strengths where fidelity_vs_strength leaves its one cell
        s_values = (0.0, 0.02, 0.05, 0.1, 0.3)
        sizes = check_segment_starts(monkeypatch)
        fid, n_max, _ = sweeps._ssc_terminal(SweepGrid(grid.gamma_axis, grid.phi_axis, s_values, OMEGA), None)
        assert len(sizes) == np.nanmax(n_max)
        for k, s in enumerate(s_values):
            alone = sweep_ssc_fidelity(SweepGrid(grid.gamma_axis, grid.phi_axis, (s,), OMEGA), s).tables
            assert (alone["fidelity"].tobytes(), alone["n_max"].tobytes()) == (fid[k].tobytes(), n_max[k].tobytes())
        for i, j in [(0, 0), (2, 3), (5, 1)]:
            curve = fidelity_vs_strength(s_values, BlochAngles(grid.gamma_axis[i], grid.phi_axis[j]), OMEGA).tables
            assert curve["fidelity"].tobytes() == fid[:, i, j].tobytes()

    def test_zero_strength_grid_takes_no_step(self, monkeypatch):
        kinds = step_kinds(monkeypatch)
        grid = SweepGrid((0.5, 2.0), (0.3, 4.0), (0.0,), OMEGA)
        result = sweep_ssc_fidelity(grid, 0.0)
        assert not kinds
        assert (result.tables["n_max"] == 0).all()
        expected = [[fidelity(from_bloch(BlochAngles(g, p))) for p in grid.phi_axis] for g in grid.gamma_axis]
        assert result.tables["fidelity"].tolist() == expected


class TestArrayChecks:
    def test_unitarity_checked_on_every_cell(self):
        # the check reads u11 and u12 = u21; u22 is conj(u11) in its form
        good = np.array([1.0 + 0j, 1j])
        zero = np.zeros(2, dtype=complex)
        _closed(good, zero, good.conj())
        _closed(good[:0], zero[:0], good[:0])
        for u11 in (np.array([1.0 + 0j, 1.0 + 1e-9]), np.array([1.0 + 0j, math.nan])):
            with pytest.raises(ValueError, match="unitary"):
                _closed(u11, zero, u11.conj())
        with pytest.raises(ValueError, match="unitary"):
            _closed(good, np.array([0.0, 1e-6]), good.conj())

    def test_the_norm_test_rejects_where_the_three_tests_do(self):
        # entries built as _bang_segments builds them, from strengths and
        # durations at 0, tiny, ordinary, far beyond a turn, NaN and +-inf,
        # and from ordinary ones with the diagonal scaled across the tolerance
        special = [0.0, 5e-324, 1e-300, 1e-9, 0.05, 0.5, 2.0, 7.5, 1e9, 1e300, math.nan, math.inf]
        special += [-x for x in special]
        rng = np.random.default_rng(24)
        f, tau = (np.concatenate([x.ravel(), rng.uniform(-3.0, 3.0, 2000)]) for x in np.meshgrid(special, special))
        scale = np.concatenate([np.ones(len(special) ** 2), 1.0 + rng.uniform(-2e-12, 2e-12, 2000)])
        with np.errstate(all="ignore"):
            theta = np.arctan2(2.0 * f, OMEGA)
            angle = np.hypot(0.5 * OMEGA, f) * np.abs(tau)
            c, s = scale * np.cos(angle), np.sin(angle)
        off, turn = -1j * s * np.sin(theta), 1j * s * np.cos(theta)
        u11, u22 = c - turn, c + turn

        def rejects(check, *entries):
            try:
                check(*entries)
            except ValueError:
                return True
            return False

        three = [rejects(propagator._check_unitary, *map(complex, (u11[i], off[i], off[i], u22[i]))) for i in range(f.size)]
        one = [rejects(_closed, u11[i : i + 1], off[i : i + 1], u22[i : i + 1]) for i in range(f.size)]
        assert one == three
        # some cells pass, and some fail with finite entries and some without
        finite = np.isfinite(u11) & np.isfinite(off)
        assert not all(three) and any(finite[three]) and not all(finite[three])
        assert rejects(_closed, u11, off, u22)

    def test_drift_renormalised_per_cell(self):
        a = np.array([0.6 + 0j, 0.6 * (1 + 1e-9)])
        b = np.array([0.8j, 0.8j * (1 + 1e-9)])
        a, b = sweeps._normalised(a, b)[:2]
        assert a[0] == 0.6 and b[0] == 0.8j
        assert abs(abs(a[1]) ** 2 + abs(b[1]) ** 2 - 1.0) <= 1e-15
        PureState(a[1], b[1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_nan_infinite_or_zero_norm_raises(self, bad):
        with pytest.raises(ValueError, match="norm"):
            sweeps._normalised(np.array([1.0 + 0j, bad]), np.array([0j, 0j]))

    def test_every_segment_is_checked(self, monkeypatch):
        seen = {"_closed": 0, "_normalised": 0}

        def counting(name):
            check = getattr(sweeps, name)

            def counted(*args):
                seen[name] += len(args[0])
                return check(*args)

            return counted

        for name in seen:
            monkeypatch.setattr(sweeps, name, counting(name))
        grid = shifted_grid(14, 0.1, 6)
        controls = int(sweep_ssc_fidelity(grid, 0.1).tables["n_max"].sum())
        # a propagator per control segment; a norm check per segment end
        # and per free tick, of which every segment but a cell's first
        # (36 cells) follows one
        assert seen["_closed"] == controls
        assert seen["_normalised"] >= controls + (controls - 36)
        seen.update(_closed=0, _normalised=0)
        first = sweep_first_segment(grid).tables["tau"]
        assert seen["_closed"] == np.count_nonzero(~np.isnan(first))
        assert seen["_normalised"] == seen["_closed"]

    def test_stop_mask_is_the_regime_rule(self):
        # the one loop stops a cell exactly where classify_regime leaves
        # slow switching, at every strength: seeded |a| across [0, 1], the
        # band edges and a few ulps either side of each fast-switching floor
        params = [SystemParams(OMEGA, s) for s in (0.01, 0.1, 0.5, 2.0, 10.0)]
        rng = np.random.default_rng(25)
        edges = [0.0, math.sqrt(control.DEFAULT_EPS_TARGET), math.sqrt(1.0 - control.DEFAULT_EPS_TARGET), 1.0]
        abs_a, k = [], []
        for i, p in enumerate(params):
            floor = math.cos(0.5 * p.theta_max)
            values = [*rng.uniform(0.0, 1.0, 400), *edges, *(floor + j * math.ulp(floor) for j in range(-4, 5))]
            abs_a += values
            k += [i] * len(values)
        abs_a, k = np.array(abs_a), np.array(k)
        a = abs_a.astype(complex)
        b = np.sqrt(1.0 - abs_a**2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, abs_a.size))
        live = np.arange(a.size)
        kept = sweeps._drop_stopped(np.zeros(a.size), live, sweeps._cells(a, b), sweeps._strength_terms(params, k))[0]
        stop = ~np.isin(live, kept)
        regime = [control.classify_regime(PureState(a[i], b[i]), params[k[i]]) for i in live]
        assert stop.tolist() == [r is not control.Regime.SSC for r in regime]
        assert {control.Regime.SSC, control.Regime.FSC} <= set(regime)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_strengths_validated(self, s):
        with pytest.raises(ValueError):
            fidelity_vs_strength((0.1, s), BlochAngles(1.0, 0.5), OMEGA)
