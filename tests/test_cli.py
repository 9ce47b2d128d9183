import hashlib
import io
import json
import math
import os
import pathlib
import platform
import re
import stat
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapqubit import (
    BlochAngles,
    Policy,
    ScenarioError,
    SimConfig,
    SweepGrid,
    SystemParams,
    fidelity_vs_strength,
    parse_scenario,
    phase_alignment_table,
)
from lyapqubit import scenario as scenario_module
from lyapqubit import sweeps as sweeps_module
from lyapqubit.cli import _fmt, _write_atomic, main, table_csv

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

FIG1_SCENARIO = """\
# angles in units of pi
[system]
omega = 1.0
s_max = 0.1

[initial]
gamma = 0.5
phi = 1.75

[policy]
kind = standard

[simulation]
dt_free = 1e-4
sample_interval = 0.1
eps_target = 1e-9
max_switches = 2000
max_time = 100
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestScenarioParsing:
    def test_valid_scenario(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, "s.ini", FIG1_SCENARIO))
        assert scenario.params.omega == 1.0 and scenario.params.s_max == 0.1
        assert scenario.initial.gamma == pytest.approx(math.pi / 2)
        assert scenario.initial.phi == pytest.approx(7 * math.pi / 4)
        assert scenario.sweep is None

    def test_unknown_key_reported_with_context(self, tmp_path):
        bad = FIG1_SCENARIO + "\n[simulation]\n"  # duplicate section is a parse error
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, "dup.ini", bad))
        bad2 = FIG1_SCENARIO.replace("s_max = 0.1", "s_max = 0.1\nstrength = 2")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(write(tmp_path, "bad.ini", bad2))
        assert "[system] strength" in str(exc.value)
        assert "unknown key" in str(exc.value)

    def test_multiple_diagnostics_collected(self, tmp_path):
        text = "[system]\nomega = x\n[initial]\nphi = 0.5\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(write(tmp_path, "multi.ini", text))
        message = str(exc.value)
        assert "[system] omega" in message
        assert "[system] s_max" in message
        assert "[initial] gamma" in message

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            parse_scenario("/nonexistent/path.ini")

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("eps_target = 1e-9", "eps_target = 2", "[simulation] eps_target:"),
            ("s_max = 0.1", "s_max = inf", "[system] s_max:"),
            ("phi = 1.75", "phi = nan", "[initial] phi:"),
            ("phi = 1.75", "phi = 1e308", "[initial] phi:"),
            ("gamma = 0.5", "gamma = 1.5", "[initial] gamma:"),
            (
                "max_time = 100",
                "max_time = 100\n[sweep]\nkind = ssc_fidelity\ngamma_count = 0",
                "[sweep] gamma_count:",
            ),
            ("omega = 1.0", "omega = 1%", "[system] omega:"),
            # values whose squares leave the float range
            ("omega = 1.0", "omega = 1e300", "[system] omega:"),
            ("omega = 1.0", "omega = 1e-300", "[system] omega:"),
            ("s_max = 0.1", "s_max = 1e300", "[system] s_max:"),
            # sections and kinds the parser does not know, or misses
            ("max_time = 100", "max_time = 100\n[extra]\nx = 1", "[extra]:"),
            ("[system]\nomega = 1.0\ns_max = 0.1\n", "", "[system]:"),
            ("max_time = 100", "max_time = 100\n[sweep]\nkind = ssc_fidelity\ns_values =", "[sweep] s_values:"),
            ("kind = standard", "kind = fancy", "[policy] kind:"),
            # a run's section read as a sweep's, and more grid samples than the cap
            (
                "max_time = 100",
                "max_time = 100\n[sweep]\nkind = ssc_fidelity",
                "[initial] gamma: a ssc_fidelity sweep does not read it",
            ),
            ("sample_interval = 0.1", "sample_interval = 1e-9", "[simulation] sample_interval:"),
        ],
    )
    def test_out_of_range_value_exits_one_with_its_key(self, tmp_path, old, new, where):
        scenario = write(tmp_path, "bad.ini", FIG1_SCENARIO.replace(old, new))
        code, _, err = run_cli("simulate", scenario, "--output", str(tmp_path / "x.csv"))
        assert code == 1
        assert where in err
        assert not os.path.exists(tmp_path / "x.csv")

    @pytest.mark.parametrize(
        "sweep, where",
        [
            # strength keys the sweep would otherwise drop
            ("kind = first_segment\ns_values = 0.05, 0.1", "[sweep] s_values:"),
            ("kind = first_segment\ns_min = 0.05\ns_max = 0.1\ns_count = 3", "[sweep] s_count:"),
            ("kind = ssc_fidelity\ns_min = 0.05", "[sweep] s_min:"),
            ("kind = ssc_fidelity\ns_max = 0.05", "[sweep] s_max:"),
            ("kind = ssc_fidelity\ns_count = 3", "[sweep] s_count:"),
            ("kind = ssc_fidelity\ns_values = 0.1\ns_min = 0.05\ns_max = 0.2", "[sweep] s_values:"),
            # axis bounds and their order, against their keys
            ("kind = ssc_fidelity\ns_values = 0.1, -0.1", "[sweep] s_values:"),
            ("kind = ssc_fidelity\ngamma_min = 1.5", "[sweep] gamma_min:"),
            ("kind = ssc_fidelity\nphi_max = 2.5", "[sweep] phi_max:"),
            ("kind = ssc_fidelity\ngamma_min = 0.6\ngamma_max = 0.4", "[sweep] gamma_max:"),
            ("kind = fidelity_vs_strength", "[initial]:"),
            # axes finer than float spacing, against their counts
            (
                "kind = ssc_fidelity\ngamma_min = 0.5\ngamma_max = 0.5000000000000001\ngamma_count = 50",
                "[sweep] gamma_count:",
            ),
            (
                "kind = ssc_fidelity\nphi_min = 1.0\nphi_max = 1.0000000000000002\nphi_count = 50",
                "[sweep] phi_count:",
            ),
            ("kind = ssc_fidelity\ns_min = 0.1\ns_max = 0.10000000000000002\ns_count = 50", "[sweep] s_count:"),
            # a phase table beyond the band [system] s_max reaches, default axis included
            ("kind = phase_alignment\ngamma_min = 0.1\ngamma_max = 0.9\ngamma_count = 5", "[sweep] gamma_max:"),
            ("kind = phase_alignment", "[sweep] gamma_max:"),
            ("kind = ssc_fidelity\ns_values = 0.1, 1e300", "[sweep] s_values:"),
            ("kind = ssc_fidelity\ns_min = 0.1\ns_max = 1e300", "[sweep] s_max:"),
            # more cells than the cap
            ("kind = ssc_fidelity\ngamma_count = 100000000\nphi_count = 100000000", "[sweep] gamma_count:"),
            # no kind, so no reader
            ("kind = fancy", "[sweep] kind: expected one of first_segment,"),
            ("gamma_count = 3", "[sweep] kind: expected one of first_segment,"),
        ],
    )
    def test_sweep_key_conflict_exits_one_with_its_key(self, tmp_path, sweep, where):
        scenario = write(tmp_path, "bad.ini", f"[system]\nomega = 1.0\ns_max = 0.1\n[sweep]\n{sweep}\n")
        code, _, err = run_cli("sweep", scenario, "--output", str(tmp_path / "out"))
        assert code == 1
        assert where in err
        assert not os.path.exists(tmp_path / "out")

    def test_shipped_scenarios(self):
        params = SystemParams(1.0, 0.1)
        reference = BlochAngles(0.5 * math.pi, 1.75 * math.pi)
        # the default axes the module docstring states, where the kind evaluates them
        gamma = np.linspace(0.01, math.pi - 0.01, 101)
        phi = np.linspace(0.0, 2.0 * math.pi, 101, endpoint=False)
        expected = {
            "reference_standard.ini": SimConfig(
                params, reference, Policy.STANDARD, dt_free=1e-4, sample_interval=0.1,
                eps_target=1e-9, max_switches=10_000, max_time=100.0,
            ),
            "reference_extended.ini": SimConfig(
                params, reference, Policy.EXTENDED, dt_free=1e-4, sample_interval=0.1, eps_target=1e-9
            ),
            # the grids fidelity_vs_strength and phase_alignment_table compute
            "fidelity_vs_strength.ini": (
                "fidelity_vs_strength",
                SweepGrid((math.pi / 2,), (0.0,), np.linspace(0.01, 0.5, 50), 1.0),
            ),
            "phase_alignment.ini": (
                "phase_alignment",
                SweepGrid(np.linspace(0.002 * math.pi, 0.125 * math.pi, 60), (0.0,), (0.1,), 1.0),
            ),
            "sweep_first_segment.ini": ("first_segment", SweepGrid(gamma, phi, (0.1,), 1.0)),
            "sweep_ssc_fidelity.ini": (
                "ssc_fidelity",
                SweepGrid(
                    np.linspace(0.01, math.pi - 0.01, 50),
                    np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False),
                    (0.05, 0.1),
                    1.0,
                ),
            ),
        }
        assert sorted(p.name for p in SCENARIOS.glob("*.ini")) == sorted(expected)
        for name, want in expected.items():
            scenario = parse_scenario(str(SCENARIOS / name))
            assert scenario.params == params, name
            if isinstance(want, SimConfig):
                assert scenario.sweep is None and scenario.sweep_kind is None, name
                assert scenario.sim_config() == want, name
            else:
                assert (scenario.sweep_kind, scenario.sweep) == want, name
        in_plane = parse_scenario(str(SCENARIOS / "fidelity_vs_strength.ini")).initial
        assert in_plane == BlochAngles(0.5 * math.pi, 0.0)

    def test_sweep_grid_is_the_grid_its_kind_computes(self, tmp_path):
        text = (SCENARIOS / "fidelity_vs_strength.ini").read_text().replace("phi = 0.0", "phi = 1.75")
        fvs = parse_scenario(write(tmp_path, "fvs.ini", text))
        assert fvs.initial.phi == 1.75 * math.pi
        assert fvs.sweep == fidelity_vs_strength(fvs.sweep.s_values, fvs.initial, fvs.params.omega).grid
        phase = parse_scenario(str(SCENARIOS / "phase_alignment.ini"))
        assert phase.sweep == phase_alignment_table(phase.sweep.gamma_axis, phase.params).grid

    @pytest.mark.parametrize(
        "text, where",
        [
            (
                "[sweep]\nkind = ssc_fidelity\ngamma_count = 100000000\nphi_count = 100000000",
                "[sweep] gamma_count: 100000000 x 100000000 x 1 = 10000000000000000 cells exceed the cap of 1000000",
            ),
            ("[sweep]\nkind = first_segment\nphi_count = 9901", "[sweep] phi_count: 101 x 9901 x 1 = 1000001 cells"),
            (
                "[sweep]\nkind = ssc_fidelity\ns_values = 0.05, 0.1\ngamma_count = 5000\nphi_count = 101",
                "[sweep] gamma_count: 5000 x 101 x 2 = 1010000 cells",
            ),
            (
                "[initial]\ngamma = 0.5\n[sweep]\nkind = fidelity_vs_strength\n"
                "s_min = 0.01\ns_max = 0.5\ns_count = 1000001",
                "[sweep] s_count: 1000001 cells exceed the cap of 1000000",
            ),
            # an axis the kind does not evaluate is not read, so not built
            (
                "[sweep]\nkind = phase_alignment\ngamma_max = 0.1\nphi_count = 10000000000",
                "[sweep] phi_count: a phase_alignment sweep does not read it",
            ),
            (
                "[initial]\ngamma = 0.5\n[simulation]\nsample_interval = 1e-9\nmax_time = 100",
                "[simulation] sample_interval: max_time / sample_interval = 1e+11 grid samples exceed the cap",
            ),
            # one sample over the cap, which %.6g would round to it
            (
                "[initial]\ngamma = 0.5\n[simulation]\nsample_interval = 1\nmax_time = 1000001",
                "[simulation] sample_interval: max_time / sample_interval = 1000001.0 grid samples exceed the cap of 1000000",
            ),
            # against the default sample_interval, 0.1/omega
            ("[initial]\ngamma = 0.5\n[simulation]\nmax_time = 1e308", "[simulation] sample_interval: max_time"),
        ],
    )
    def test_work_beyond_the_caps_is_refused_before_allocation(self, tmp_path, monkeypatch, text, where):
        def refuse(*args, **kwargs):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(scenario_module, "_axis", refuse)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(write(tmp_path, "big.ini", f"[system]\nomega = 1.0\ns_max = 0.1\n{text}\n"))
        assert where in str(exc.value)

    def test_work_at_the_caps_is_accepted(self, tmp_path):
        system = "[system]\nomega = 1.0\ns_max = 0.1\n"
        run = (
            f"{system}[initial]\ngamma = 0.5\n[simulation]\nsample_interval = 1\nmax_time = 1000000\n"
            f"max_switches = {scenario_module.MAX_SWITCHES}\n"
        )
        config = parse_scenario(write(tmp_path, "run.ini", run)).sim_config()
        assert config.max_time / config.sample_interval == scenario_module.MAX_GRID_SAMPLES
        assert config.max_switches == scenario_module.MAX_SWITCHES
        sweep = f"{system}[sweep]\nkind = first_segment\ngamma_count = 1000\nphi_count = 1000\n"
        grid = parse_scenario(write(tmp_path, "sweep.ini", sweep)).sweep
        assert len(grid.gamma_axis) * len(grid.phi_axis) * len(grid.s_values) == scenario_module.MAX_SWEEP_CELLS

    @pytest.mark.parametrize(
        "initial, sweep, key, per_n, work",
        [
            # every cell of a strength far below omega costs SSC_STEP_CAP, and
            # each step of the one loop costs its cells and the overhead k:
            # one loop over both strengths' n cells
            (
                "",
                "ssc_fidelity\ngamma_count = 1\nphi_count = {n}\ns_min = 0.01\ns_max = 0.5\ns_count = 2",
                "s_min",
                2,
                lambda n, k: 2 * n + k,
            ),
            (
                "",
                "ssc_fidelity\ngamma_count = 1\nphi_count = {n}\ns_values = 0.01, 0.5",
                "s_values",
                2,
                lambda n, k: 2 * n + k,
            ),
            # one loop of 2 n cells
            ("", "ssc_fidelity\ngamma_count = 2\nphi_count = {n}", "s_max", 2, lambda n, k: 2 * n + k),
            # one loop over n strengths of one cell each
            (
                "[initial]\ngamma = 0.5\n",
                "fidelity_vs_strength\ns_min = 0.01\ns_max = 0.5\ns_count = {n}",
                "s_min",
                1,
                lambda n, k: n + k,
            ),
        ],
    )
    def test_slow_switching_steps_are_capped_at_parse_time(
        self, tmp_path, monkeypatch, initial, sweep, key, per_n, work
    ):
        # at omega = 1e75 each cell takes SSC_STEP_CAP steps: the file asks
        # for per_n * n cells; at the cap it parses, and with n + 1 it is
        # refused before an axis is built
        section = "system" if key == "s_max" else "sweep"
        overhead = sweeps_module.SSC_STEP_OVERHEAD
        assert sweeps_module.SSC_STEP_CAP == 50_000

        def text(n):
            return f"[system]\nomega = 1e75\ns_max = 0.1\n{initial}[sweep]\nkind = {sweep.format(n=n)}\n"

        def refuse(*args, **kwargs):
            raise AssertionError("an axis was built")

        # one loop at the shipped step cap alone exceeds the cap
        assert work(1, overhead) * sweeps_module.SSC_STEP_CAP > scenario_module.MAX_SWEEP_STEPS
        with monkeypatch.context() as patch:
            patch.setattr(scenario_module, "_axis", refuse)
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(write(tmp_path, "one.ini", text(1)))
        assert str(exc.value).startswith(f"[{section}] {key}: about ")
        # a lower step cap, which the estimate reads, lets loops fit
        monkeypatch.setattr(sweeps_module, "SSC_STEP_CAP", 1000)
        budget = scenario_module.MAX_SWEEP_STEPS // sweeps_module.SSC_STEP_CAP
        n = max(n for n in range(1, budget) if work(n, overhead) <= budget)
        assert work(n, overhead) * sweeps_module.SSC_STEP_CAP == scenario_module.MAX_SWEEP_STEPS
        grid = parse_scenario(write(tmp_path, "at.ini", text(n))).sweep
        assert len(grid.gamma_axis) * len(grid.phi_axis) * len(grid.s_values) == per_n * n

        monkeypatch.setattr(scenario_module, "_axis", refuse)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(write(tmp_path, "over.ini", text(n + 1)))
        assert str(exc.value).startswith(f"[{section}] {key}: about ")
        assert str(exc.value).endswith(f"slow-switching steps exceed the cap of {scenario_module.MAX_SWEEP_STEPS}")

    def test_the_step_cap_refuses_a_slow_sweep_that_ran_for_half_a_minute(self, tmp_path):
        # 4 x 101 cells at two strengths far below omega ran 31-40 s before
        # the cap: one loop of 5e4 steps, each step 808 cells and the overhead
        text = (
            "[system]\nomega = 1e75\ns_max = 0.1\n[sweep]\nkind = ssc_fidelity\n"
            "gamma_count = 4\nphi_count = 101\ns_min = 0.01\ns_max = 0.5\ns_count = 2\n"
        )
        assert (sweeps_module.SSC_STEP_CAP, sweeps_module.SSC_STEP_OVERHEAD) == (50_000, 400)
        code, out, err = run_cli("sweep", write(tmp_path, "slow.ini", text), "--output", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == "[sweep] s_min: about 6.04e+07 slow-switching steps exceed the cap of 10000000\n"

    # one cell (gamma = 0.99 pi, phi = pi/4) at strengths far below omega = 1,
    # where the loop runs to the step cap
    ONE_CELL = "gamma_min = 0.99\ngamma_count = 1\nphi_min = 0.25\nphi_count = 1\n"
    TINY = "s_min = 1e-9\ns_max = 1e-7\ns_count = {n}\n"

    @pytest.mark.parametrize(
        "initial, sweep, line",
        [
            # 2 strengths took 12.1 s, a loop each; 100 strengths estimated 1e7
            # steps without the overhead, and ran about 10 minutes
            ("", f"ssc_fidelity\n{ONE_CELL}{TINY.format(n=100)}", "[sweep] s_min: about 2.5e+07"),
            # one loop, which pays the overhead once a step
            (
                "[initial]\ngamma = 0.99\nphi = 0.25\n",
                "fidelity_vs_strength\ns_values = 1e-9, 2e-9\n",
                "[sweep] s_values: about 2.01e+07",
            ),
            # a tick that cannot lift Im(a b*) out of the switching band is
            # taken again at the next step: counted one step a control, 20 x 20
            # cells at s = 0.1 ran 5.2 s at 1e-300, flagging 346 of the 400,
            # and 2.2 s at 1e-14; the default tick fits, so dt_free is named
            *(
                (
                    f"[simulation]\ndt_free = {dt_free}\n",
                    "ssc_fidelity\ngamma_count = 20\nphi_count = 20\n",
                    "[simulation] dt_free: about 4e+07",
                )
                for dt_free in ("1e-300", "1e-14")
            ),
        ],
    )
    def test_a_strength_loop_at_the_step_cap_is_refused(self, tmp_path, monkeypatch, initial, sweep, line):
        def refuse(*args, **kwargs):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(scenario_module, "_axis", refuse)
        path = write(tmp_path, "tiny.ini", f"[system]\nomega = 1.0\ns_max = 0.1\n{initial}[sweep]\nkind = {sweep}")
        code, out, err = run_cli("sweep", path, "--output", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == f"{line} slow-switching steps exceed the cap of 10000000\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "initial, sweep, fits",
        [
            # one loop over every strength, of either kind: 200 x (n + 400) steps
            ("", f"ssc_fidelity\n{ONE_CELL}{TINY}", 49_600),
            ("[initial]\ngamma = 0.99\nphi = 0.25\n", f"fidelity_vs_strength\n{TINY}", 49_600),
        ],
    )
    def test_strength_loops_pay_the_step_overhead_once_each(self, tmp_path, monkeypatch, initial, sweep, fits):
        # with the step cap lowered to 200, as the fuzz property has it, the
        # largest strength count that fits parses and one more is refused
        monkeypatch.setattr(sweeps_module, "SSC_STEP_CAP", 200)

        def text(n):
            return f"[system]\nomega = 1.0\ns_max = 0.1\n{initial}[sweep]\nkind = {sweep.format(n=n)}"

        assert len(parse_scenario(write(tmp_path, "at.ini", text(fits))).sweep.s_values) == fits
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(write(tmp_path, "over.ini", text(fits + 1)))
        assert str(exc.value).startswith("[sweep] s_min: about ")

    # 20 x 20 cells at s = 0.1, with the tick dt_free
    SHORT_TICKS = (
        "[system]\nomega = 1.0\ns_max = 0.1\n[simulation]\ndt_free = {dt_free}\n"
        "[sweep]\nkind = ssc_fidelity\ngamma_count = 20\nphi_count = 20\n"
    )

    # what these files wrote while the estimate charged one step a control,
    # recorded with Python 3.11.7 and numpy 2.4.6 on x86_64
    SHORT_TICK_SHA256 = {
        "1e-12": {
            "ssc_fidelity_s0.1.csv": "7b685d4f5d3d04aabdadb31f103d63948fe4e1c34b81bd11fffa10a16c0fb4b7",
            "ssc_n_max_s0.1.csv": "b78dc2c189b0b34683e9cb1509b2f2921308d4e3a0b0252a2e024536a40ec768",
        },
        "1e-6": {
            "ssc_fidelity_s0.1.csv": "db5c8e549481e996944a5902757055ce510a1057f931744bff1479bbb2dcc3cf",
            "ssc_n_max_s0.1.csv": "b78dc2c189b0b34683e9cb1509b2f2921308d4e3a0b0252a2e024536a40ec768",
        },
    }

    @pytest.mark.parametrize("dt_free", sorted(SHORT_TICK_SHA256))
    def test_ticks_that_leave_the_band_sweep_as_before(self, tmp_path, dt_free):
        path = write(tmp_path, "ticks.ini", self.SHORT_TICKS.format(dt_free=dt_free))

        def digests(name):
            code, _, err = run_cli("sweep", path, "--output", str(tmp_path / name), "--quiet")
            assert (code, err) == (0, "")
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / name).iterdir()}

        assert_recorded(digests, self.SHORT_TICK_SHA256[dt_free])

    def test_the_step_estimate_bounds_the_cell_steps_it_counts(self, tmp_path, monkeypatch):
        # without the fixed cost of a step, the estimate is of the cells that
        # each step of the loop moves: it may not count fewer, nor many more
        monkeypatch.setattr(sweeps_module, "SSC_STEP_OVERHEAD", 0)
        sizes = count_bang_segments(monkeypatch)
        estimates = []
        cost = sweeps_module._ssc_cost

        def recording(*args):
            estimates.append(cost(*args))
            return estimates[-1]

        monkeypatch.setattr(sweeps_module, "_ssc_cost", recording)
        code, _, _ = run_cli("sweep", str(SCENARIOS / "sweep_ssc_fidelity.ini"), "--output", str(tmp_path / "out"))
        assert code == 0
        assert sum(sizes) == 31_830
        assert sum(sizes) <= estimates[0] <= 1.15 * sum(sizes)
        # axes moved by a sub-cell offset, so that no cell starts at a switching point
        rng = np.random.default_rng(5)
        gamma = np.linspace(0.1, math.pi - 0.1, 40) + rng.uniform(-0.2, 0.2) * (math.pi - 0.2) / 39
        phi = np.linspace(0.0, 2 * math.pi, 40, endpoint=False) + rng.uniform(0.0, 1.0) * 2 * math.pi / 40
        sizes.clear()
        sweeps_module._ssc_terminal(SweepGrid(gamma, phi, (0.05, 0.1), 1.0), None)
        assert sum(sizes) <= cost(gamma[0], gamma[-1], (0.05, 0.1), 1.0, None, 1600) <= 1.15 * sum(sizes)

    def test_max_switches_beyond_the_cap_is_refused_before_a_run(self, tmp_path, monkeypatch):
        def refuse(config):
            raise AssertionError("a run started")

        monkeypatch.setattr("lyapqubit.cli.run", refuse)
        over = scenario_module.MAX_SWITCHES + 1
        text = FIG1_SCENARIO.replace("max_switches = 2000", f"max_switches = {over}")
        code, _, err = run_cli("simulate", write(tmp_path, "big.ini", text), "--output", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("[simulation] max_switches: ")
        assert not os.path.exists(tmp_path / "x.csv")
        # the shipped budget is well inside the cap, and SimConfig keeps its own limit
        shipped = parse_scenario(str(SCENARIOS / "reference_standard.ini")).sim_config()
        assert shipped.max_switches == 10_000 < scenario_module.MAX_SWITCHES
        assert SimConfig(shipped.params, shipped.initial, max_switches=1_000_000).max_switches == 1_000_000

    def test_reads_names_known_keys_and_every_key_has_a_reader(self):
        reads = scenario_module.READS
        assert list(reads) == ["simulate", *scenario_module.SWEEP_KINDS]
        read = {(section, key) for table in reads.values() for section, keys in table.items() for key in keys}
        assert read == {(section, key) for section, table in scenario_module._KEYS.items() for key in table}
        # a sweep kind reads its own kind; a run reads no [sweep]
        assert all("kind" in reads[kind]["sweep"] for kind in scenario_module.SWEEP_KINDS)
        assert "sweep" not in reads["simulate"]

    @pytest.mark.parametrize(
        "name, added",
        [
            ("fidelity_vs_strength.ini", ["gamma_count = 3", "phi_min = 1.0"]),
            ("phase_alignment.ini", ["phi_count = 7", "s_values = 0.05"]),
        ],
    )
    def test_axis_keys_the_kind_does_not_evaluate_exit_one(self, tmp_path, name, added):
        # [sweep] is the last section of both shipped files
        text = (SCENARIOS / name).read_text() + "\n".join(added) + "\n"
        kind = name.removesuffix(".ini")
        code, _, err = run_cli("sweep", write(tmp_path, name, text), "--output", str(tmp_path / "out"))
        assert code == 1
        assert err.splitlines() == [f"[sweep] {line.split()[0]}: a {kind} sweep does not read it" for line in added]
        assert not os.path.exists(tmp_path / "out")

    def test_docstring_names_exactly_the_key_table(self):
        block = scenario_module.__doc__.split("Sections and keys::")[1].split("\n\n")[1]
        documented = {}
        for section, key in re.findall(r"\[(\w+)\]|(\w+)", block):
            if section:
                keys = documented.setdefault(section, set())
            else:
                keys.add(key)
        assert documented == {section: set(table) for section, table in scenario_module._KEYS.items()}


class TestSimulate:
    def test_fig1_run_csv_contract(self, tmp_path):
        scenario = write(tmp_path, "fig1.ini", FIG1_SCENARIO)
        out_csv = str(tmp_path / "traj.csv")
        code, out, err = run_cli("simulate", scenario, "--output", out_csv)
        assert code == 2  # fast-switching truncation
        assert "status=truncated" in out and "regime=fsc" in out
        header, rows = read_csv(out_csv)
        assert header == ["t", "re_a", "im_a", "re_b", "im_b", "V", "dVdt", "f", "segment_kind"]
        t = np.array([float(r[0]) for r in rows])
        v = np.array([float(r[5]) for r in rows])
        f = np.array([float(r[7]) for r in rows])
        assert (np.diff(t) > 0).all()
        assert (np.diff(v) <= 1e-10).all()
        assert set(np.round(f, 12)) <= {-0.1, 0.0, 0.1}
        # V column round-trips against the amplitudes at 15 significant digits
        for r in rows[:50]:
            re_b, im_b = float(r[3]), float(r[4])
            assert re_b * re_b + im_b * im_b == pytest.approx(float(r[5]), abs=1e-12)

    def test_zero_strength_scenario(self, tmp_path):
        text = FIG1_SCENARIO.replace("s_max = 0.1", "s_max = 0.0").replace(
            "max_time = 100", "max_time = 10"
        )
        scenario = write(tmp_path, "free.ini", text)
        out_csv = str(tmp_path / "free.csv")
        code, out, _ = run_cli("simulate", scenario, "--output", out_csv)
        assert code == 2
        _, rows = read_csv(out_csv)
        f = {float(r[7]) for r in rows}
        v = [float(r[5]) for r in rows]
        assert f == {0.0}
        assert max(v) - min(v) < 1e-12

    def test_extended_scenario_converges(self, tmp_path):
        text = FIG1_SCENARIO.replace("kind = standard", "kind = extended")
        scenario = write(tmp_path, "ext.ini", text)
        out_csv = str(tmp_path / "ext.csv")
        code, out, _ = run_cli("simulate", scenario, "--output", out_csv)
        assert code == 0
        assert "status=converged" in out
        _, rows = read_csv(out_csv)
        assert rows[-1][8] == "control"
        assert 1.0 - float(rows[-1][5]) >= 1.0 - 1e-6

    def test_extended_run_on_the_band_edge_converges(self, tmp_path):
        # the exact-steering strength for 5 steps from gamma = 0.2175 pi
        # ends slow switching on the edge of the reachable band
        text = """\
[system]
omega = 1.0
s_max = 0.034218090758997864

[initial]
gamma = 0.2175
phi = 0

[policy]
kind = extended

[simulation]
dt_free = 1e-6
"""
        scenario = write(tmp_path, "edge.ini", text)
        code, out, err = run_cli("simulate", scenario, "--output", str(tmp_path / "edge.csv"))
        assert (code, err) == (0, "")
        assert "status=converged" in out

    def test_loose_eps_target_converges_from_near_antipodal(self, tmp_path):
        # fidelity sin^2(0.015 pi) = 2.2e-3 lies inside eps_target, but the
        # state is not the antipodal equilibrium: it gets no kick
        text = """\
[system]
omega = 1.0
s_max = 0.1

[initial]
gamma = 0.97
phi = 0.1

[policy]
kind = extended

[simulation]
eps_target = 0.01
"""
        scenario = write(tmp_path, "loose.ini", text)
        code, out, err = run_cli("simulate", scenario, "--output", str(tmp_path / "loose.csv"))
        assert (code, err) == (0, "")
        assert "status=converged" in out

    def test_sweep_file_exits_one(self, tmp_path):
        output = tmp_path / "x.csv"
        code, out, err = run_cli("simulate", str(SCENARIOS / "phase_alignment.ini"), "--output", str(output))
        assert (code, out, err) == (1, "", "simulate: scenario has a [sweep] section\n")
        assert not os.path.exists(output)

    def test_parse_error_exits_one(self, tmp_path):
        scenario = write(tmp_path, "bad.ini", "[system]\nomega = 1.0\n")
        code, _, err = run_cli("simulate", scenario, "--output", str(tmp_path / "x.csv"))
        assert code == 1
        assert "s_max" in err

    def test_missing_output_flag(self, tmp_path):
        scenario = write(tmp_path, "s.ini", FIG1_SCENARIO)
        code, _, err = run_cli("simulate", scenario)
        assert code == 1

    def test_deterministic_output(self, tmp_path):
        scenario = write(tmp_path, "s.ini", FIG1_SCENARIO)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli("simulate", scenario, "--output", a, "--quiet")
        run_cli("simulate", scenario, "--output", b, "--quiet")
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()


def test_output_file_gets_the_umask_mode(tmp_path):
    path = str(tmp_path / "out.csv")
    previous = os.umask(0o027)
    try:
        _write_atomic(path, "x\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize(
    "command, scenario, target",
    [("simulate", "reference_extended.ini", "a_directory"), ("sweep", "phase_alignment.ini", "a_file")],
)
def test_unwritable_output_exits_one_with_its_path(tmp_path, command, scenario, target):
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "a_file").write_text("kept\n")
    output = tmp_path / target
    code, _, err = run_cli(command, str(SCENARIOS / scenario), "--output", str(output))
    assert code == 1
    assert err.startswith(f"{command}: cannot write {output}")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "a_file"]
    assert os.listdir(tmp_path / "a_directory") == []
    assert (tmp_path / "a_file").read_text() == "kept\n"


def recorded_output(command, output):
    """The exit code, stdout and the sha256 of each file that ``command``
    writes, a shipped scenario's output going to the directory ``output``
    (stdout names it ``OUT``)."""
    if command[0] in ("simulate", "sweep"):
        target = output / "trajectory.csv" if command[0] == "simulate" else output
        command = (command[0], str(SCENARIOS / command[1]), "--output", str(target))
    code, out, err = run_cli(*command)
    assert err == ""
    files = sorted(output.iterdir()) if output.exists() else []
    return code, out.replace(str(output), "OUT"), {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def assert_recorded(compute, recorded):
    """``compute(name)`` gives ``recorded`` in the environment it was recorded
    in (Python 3.11.7, numpy 2.4.6, x86_64). Elsewhere last bits may differ,
    so two computations in one process must agree byte for byte."""
    first = compute("first")
    if (platform.python_version(), np.__version__, platform.machine()) == ("3.11.7", "2.4.6", "x86_64"):
        assert first == recorded
    else:
        assert compute("second") == first


def count_bang_segments(monkeypatch):
    """The sizes of ``sweeps._bang_segments``' calls, one a step of the
    slow-switching loop, each the cells that the step moves."""
    sizes = []
    bang_segments = sweeps_module._bang_segments

    def counting(cells, field, terms):
        sizes.append(field.size)
        return bang_segments(cells, field, terms)

    monkeypatch.setattr(sweeps_module, "_bang_segments", counting)
    return sizes


# what the CLI writes for every shipped scenario, under the command its file
# is for, and for `verify` and two `design` runs: exit code, stdout and the
# sha256 of each file, recorded with Python 3.11.7 and numpy 2.4.6 on x86_64;
# `PYTHONPATH=src python tests/test_cli.py` prints it recomputed
RECORDED_OUTPUTS = {
    "simulate reference_extended.ini": (
        0,
        (
            "terminal_fidelity=1 switch_count=5 segments=9 regime=at_target "
            "time=12.5473981802242 status=converged\n"
        ),
        {
            "trajectory.csv": "e70edbbb7af693982737a98518b5410b2ed17bcbb0d518b2e3fb9053c658f8e8",
        },
    ),
    "simulate reference_standard.ini": (
        2,
        (
            "terminal_fidelity=0.998890345243401 switch_count=10000 segments=19999 regime=fsc "
            "time=14.6019537533111 status=truncated\n"
        ),
        {
            "trajectory.csv": "97c461aeeb26a1e9424f9762938f3f8ee84e276d19a9047599cc1aa3e2ff0443",
        },
    ),
    "sweep fidelity_vs_strength.ini": (
        0,
        "OUT/fidelity_vs_strength.csv\n",
        {
            "fidelity_vs_strength.csv": "44ea1656e1f5e16e6cbcfd591957cd36dc82c0a3cd4e24af5eacf075773fea53",
        },
    ),
    "sweep phase_alignment.ini": (
        0,
        "OUT/phase_alignment.csv\n",
        {
            "phase_alignment.csv": "993f988042d09f3c85506ac7585da718b8b779a9dc59f8e76b63dd95a76dfb0d",
        },
    ),
    "sweep sweep_first_segment.ini": (
        0,
        (
            "OUT/first_segment_ratio_a.csv\n"
            "OUT/first_segment_ratio_b.csv\n"
            "OUT/first_segment_tau.csv\n"
        ),
        {
            "first_segment_ratio_a.csv": "48420d636844c381fd5f910bd16ccb70542627d53a80adba95a1912e6a45b289",
            "first_segment_ratio_b.csv": "dd2662d88b06bd1b308ca856e29192454cf764b51f3daeb7468b2aaa9c2a5b4f",
            "first_segment_tau.csv": "8ebc7db19c2d30135fa4e9d83ef9116cc53ba76c074f1b41c7ba58af45780f5e",
        },
    ),
    "sweep sweep_ssc_fidelity.ini": (
        0,
        (
            "OUT/ssc_fidelity_s0.05.csv\n"
            "OUT/ssc_n_max_s0.05.csv\n"
            "OUT/ssc_fidelity_s0.1.csv\n"
            "OUT/ssc_n_max_s0.1.csv\n"
        ),
        {
            "ssc_fidelity_s0.05.csv": "e6dbb8fb0b5b15e7605e03a34251ae0a4e447a71a0478e2ec55a15f9c262f23c",
            "ssc_fidelity_s0.1.csv": "bff050f02788d30448d16117ea583ac915cc32d35f0023dc201fcb2fd241dc0b",
            "ssc_n_max_s0.05.csv": "a36f3f5c1cf590495df21f13341892f65ea329a9413af600751663bf0ff81f7a",
            "ssc_n_max_s0.1.csv": "a5bb41cce16a7dbab73daaf162d9df92e4500a6f9f6415c539995d60964cfa26",
        },
    ),
    "verify": (
        0,
        (
            "propagator suite: cases=1000 max_amp_dev=3.450745e-15 tol=1e-08 status=pass\n"
            "standard policy suite: runs=50 max_v_increase=2.220446e-16 max_norm_drift=1.743050e-14 status=pass\n"
            "extended policy suite: runs=50 min_terminal_fidelity=0.999999999999999 status=pass\n"
            "overall: pass\n"
        ),
        {},
    ),
    "design 0.5 1.0 3": (
        0,
        (
            "designed_strength=0.133974596215561\n"
            "steps=3\n"
            "achieved_fidelity=1\n"
            "switch_count=3\n"
            "verification=pass\n"
        ),
        {},
    ),
    "design 0.5 1.0 400": (
        0,
        (
            "designed_strength=0.000981748965897384\n"
            "steps=400\n"
            "achieved_fidelity=1\n"
            "switch_count=400\n"
            "verification=pass\n"
        ),
        {},
    ),
}


@pytest.mark.parametrize("command", sorted(RECORDED_OUTPUTS))
def test_the_cli_writes_the_recorded_bytes(tmp_path, command):
    shipped = {c.split()[1] for c in RECORDED_OUTPUTS if c.startswith(("simulate", "sweep"))}
    assert shipped == {p.name for p in SCENARIOS.glob("*.ini")}
    assert_recorded(lambda name: recorded_output(tuple(command.split()), tmp_path / name), RECORDED_OUTPUTS[command])


def format_recorded(recorded) -> str:
    """``recorded``, a manifest like :data:`RECORDED_OUTPUTS`, as a Python
    statement that assigns it, one entry per command. A stdout line whose
    string would pass column 120 is split at spaces into pieces that do
    not."""
    lines = ["RECORDED_OUTPUTS = {"]
    for command, (code, stdout, files) in recorded.items():
        pieces = []
        for line in stdout.splitlines(keepends=True):
            words = line.split(" ")
            piece = words[0]
            for word in words[1:]:
                if 12 + len(json.dumps(f"{piece} {word}")) > 120:
                    pieces.append(piece + " ")
                    piece = word
                else:
                    piece = f"{piece} {word}"
            pieces.append(piece)
        lines += [f"    {json.dumps(command)}: (", f"        {code},"]
        if len(pieces) > 1:
            lines += ["        (", *(f"            {json.dumps(p)}" for p in pieces), "        ),"]
        else:
            lines.append(f"        {json.dumps(''.join(pieces))},")
        if files:
            lines += ["        {", *(f"            {json.dumps(n)}: {json.dumps(h)}," for n, h in files.items()), "        },"]
        else:
            lines.append("        {},")
        lines.append("    ),")
    return "\n".join(lines + ["}"])


def test_the_manifest_formats_as_a_literal_of_itself():
    text = format_recorded(RECORDED_OUTPUTS)
    namespace = {}
    exec(text, namespace)
    assert list(namespace["RECORDED_OUTPUTS"].items()) == list(RECORDED_OUTPUTS.items())
    assert max(map(len, text.splitlines())) <= 120


def test_table_rows_format_like_fmt():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1, 1.0 / 3.0, 123456789012345678.0]
    columns = {"x": np.array(values), "n": np.arange(len(values)), "y": np.array(values[::-1])}
    expected = ["x,n,y"] + [
        ",".join(_fmt(float(columns[c][i])) for c in columns) for i in range(len(values))
    ]
    assert table_csv(columns) == "\n".join(expected) + "\n"


# signed zeros, infinities, NaNs of both signs and with a payload, subnormals
# and integers beyond float precision, each with its own bit pattern
SPECIAL = [
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    math.copysign(math.nan, -1.0),
    struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],
    5e-324,
    -5e-324,
    2.5e-310,
    1.0 / 3.0,
    123456789012345678.0,
]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.integers(0, 40), width=st.integers(1, 4))
def test_table_csv_matches_the_row_by_row_reference(data, rows, width):
    columns = {}
    for k in range(width):
        kind = data.draw(st.sampled_from(["repeats", "floats", "ints"]))
        if kind == "ints":
            values = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows))
            columns[f"c{k}"] = np.array(values, dtype=np.int64)
            continue
        element = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
        if kind == "repeats":
            element = st.sampled_from(data.draw(st.lists(element, min_size=1, max_size=3)))
        columns[f"c{k}"] = np.array(data.draw(st.lists(element, min_size=rows, max_size=rows)), dtype=np.float64)
    expected = [",".join(columns)] + [",".join(_fmt(float(columns[c][i])) for c in columns) for i in range(rows)]
    assert table_csv(columns) == "\n".join(expected) + "\n"


SWEEP_SCENARIO = """\
[system]
omega = 1.0
s_max = 0.1

[sweep]
kind = ssc_fidelity
gamma_min = 0.05
gamma_max = 0.95
gamma_count = 6
phi_min = 0.0
phi_max = 2.0
phi_count = 8
s_values = 0.1, 0.05
"""


class TestSweep:
    def test_ssc_fidelity_tables(self, tmp_path):
        scenario = write(tmp_path, "sweep.ini", SWEEP_SCENARIO)
        outdir = str(tmp_path / "out")
        code, out, _ = run_cli("sweep", scenario, "--output", outdir)
        assert code == 0
        names = sorted(os.listdir(outdir))
        assert names == [
            "ssc_fidelity_s0.05.csv",
            "ssc_fidelity_s0.1.csv",
            "ssc_n_max_s0.05.csv",
            "ssc_n_max_s0.1.csv",
        ]
        header, rows = read_csv(os.path.join(outdir, "ssc_fidelity_s0.1.csv"))
        assert header == ["gamma", "phi", "fidelity"]
        assert len(rows) == 6 * 8
        fid = np.array([float(r[2]) for r in rows])
        assert (fid >= 0.9902903378454601 - 1e-9).all()

    def test_strengths_swept_together_write_what_each_writes_alone(self, tmp_path, monkeypatch):
        # with the step cap lowered to 10, s = 0.05 flags the cells that need
        # more controls and s = 0.1 none; strength 0 takes no step
        monkeypatch.setattr(sweeps_module, "SSC_STEP_CAP", 10)

        def tables(s_values):
            text = SWEEP_SCENARIO.replace("s_values = 0.1, 0.05", f"s_values = {s_values}")
            scenario = write(tmp_path, "strengths.ini", text)
            code, _, err = run_cli("sweep", scenario, "--output", str(tmp_path / s_values), "--quiet")
            assert (code, err) == (0, "")
            return {p.name: p.read_bytes() for p in (tmp_path / s_values).iterdir()}

        together = tables("0, 0.05, 0.1")
        alone = {**tables("0"), **tables("0.05"), **tables("0.1")}
        assert together == alone
        flagged = {name for name, data in together.items() if b"nan" in data}
        assert flagged == {"ssc_fidelity_s0.05.csv", "ssc_n_max_s0.05.csv"}

    def test_shipped_strengths_step_in_one_loop(self, tmp_path, monkeypatch):
        # as many steps as s = 0.05 takes; a loop per strength took 16 and 8
        sizes = count_bang_segments(monkeypatch)
        code, _, _ = run_cli("sweep", str(SCENARIOS / "sweep_ssc_fidelity.ini"), "--output", str(tmp_path / "out"))
        assert code == 0
        assert len(sizes) == 16

    def test_close_strengths_get_distinct_tables(self, tmp_path):
        # two strengths that print alike at the default precision
        text = SWEEP_SCENARIO.replace("s_values = 0.1, 0.05", "s_values = 0.1, 0.1000001")
        scenario = write(tmp_path, "close.ini", text)
        outdir = str(tmp_path / "close")
        code, _, _ = run_cli("sweep", scenario, "--output", outdir, "--quiet")
        assert code == 0
        assert sorted(os.listdir(outdir)) == [
            "ssc_fidelity_s0.1.csv",
            "ssc_fidelity_s0.1000001.csv",
            "ssc_n_max_s0.1.csv",
            "ssc_n_max_s0.1000001.csv",
        ]

    def test_first_segment_tables(self, tmp_path):
        text = SWEEP_SCENARIO.replace("kind = ssc_fidelity", "kind = first_segment").replace(
            "s_values = 0.1, 0.05", "s_values = 0.1"
        )
        scenario = write(tmp_path, "fs.ini", text)
        outdir = str(tmp_path / "fs")
        code, _, _ = run_cli("sweep", scenario, "--output", outdir)
        assert code == 0
        assert sorted(os.listdir(outdir)) == [
            "first_segment_ratio_a.csv",
            "first_segment_ratio_b.csv",
            "first_segment_tau.csv",
        ]

    def test_phase_alignment_table(self, tmp_path):
        text = """\
[system]
omega = 1.0
s_max = 0.1

[sweep]
kind = phase_alignment
gamma_min = 0.003
gamma_max = 0.12
gamma_count = 10
"""
        scenario = write(tmp_path, "pa.ini", text)
        outdir = str(tmp_path / "pa")
        code, _, _ = run_cli("sweep", scenario, "--output", outdir)
        assert code == 0
        header, rows = read_csv(os.path.join(outdir, "phase_alignment.csv"))
        assert header == ["gamma", "phi_star", "tau_prime", "wait_time", "ratio_b", "cos2_phi_star"]
        assert all(float(r[4]) < 1e-9 for r in rows)

    def test_shipped_fidelity_vs_strength(self, tmp_path):
        outdir = tmp_path / "fvs"
        code, _, err = run_cli("sweep", str(SCENARIOS / "fidelity_vs_strength.ini"), "--output", str(outdir))
        assert (code, err) == (0, "")
        assert os.listdir(outdir) == ["fidelity_vs_strength.csv"]
        header, rows = read_csv(outdir / "fidelity_vs_strength.csv")
        assert header == ["s", "fidelity", "bound"]
        assert len(rows) == 50
        assert all(float(fid) >= float(bound) - 1e-12 for _, fid, bound in rows)

    def test_missing_output_exits_one(self, tmp_path):
        code, _, err = run_cli("sweep", write(tmp_path, "sweep.ini", SWEEP_SCENARIO))
        assert code == 1
        assert "sweep: --output is required" in err

    def test_scenario_without_sweep_section_exits_one(self, tmp_path):
        code, _, err = run_cli("sweep", write(tmp_path, "s.ini", FIG1_SCENARIO), "--output", str(tmp_path / "x"))
        assert code == 1
        assert "sweep: scenario has no [sweep] section" in err
        assert not os.path.exists(tmp_path / "x")

    def test_empty_grid_exits_one(self, tmp_path):
        text = SWEEP_SCENARIO.replace("gamma_count = 6", "gamma_count = 0")
        scenario = write(tmp_path, "empty.ini", text)
        code, _, err = run_cli("sweep", scenario, "--output", str(tmp_path / "x"))
        assert code == 1

    @pytest.mark.parametrize(
        "kind, settings, unread",
        [
            (
                "first_segment",
                "[policy]\nkind = extended\n[simulation]\neps_target = 0.01\nmax_switches = 1",
                ["[policy] kind", "[simulation] eps_target", "[simulation] max_switches"],
            ),
            (
                "ssc_fidelity",
                "[simulation]\ndt_free = 1e-4\neps_target = 0.01\nmax_switches = 1\nsample_interval = 5",
                ["[simulation] eps_target", "[simulation] max_switches", "[simulation] sample_interval"],
            ),
            (
                "fidelity_vs_strength",
                "[initial]\ngamma = 0.5\n[policy]\nkind = standard\n[simulation]\nkick_angle = 0.1\nmax_time = 5",
                # nor gamma_max: it evaluates the strength axis only
                ["[policy] kind", "[simulation] kick_angle", "[simulation] max_time", "[sweep] gamma_max"],
            ),
            ("phase_alignment", "[simulation]\ndt_free = 1e-4", ["[simulation] dt_free"]),
            # only fidelity_vs_strength reads [initial]; a section with no keys is named alone
            ("first_segment", "[initial]\ngamma = 0.5", ["[initial] gamma"]),
            ("ssc_fidelity", "[initial]\ngamma = 0.5\n[policy]\nkind = extended", ["[initial] gamma", "[policy] kind"]),
            ("phase_alignment", "[initial]\ngamma = 0.5", ["[initial] gamma"]),
            ("first_segment", "[initial]", ["[initial]"]),
        ],
        ids=[
            "first_segment", "ssc_fidelity", "fidelity_vs_strength", "phase_alignment",
            "first_segment_initial", "ssc_fidelity_initial", "phase_alignment_initial", "first_segment_empty_initial",
        ],
    )
    def test_unread_run_setting_exits_one_with_its_key(self, tmp_path, kind, settings, unread):
        text = f"[system]\nomega = 1.0\ns_max = 0.1\n{settings}\n[sweep]\nkind = {kind}\ngamma_max = 0.12\n"
        code, _, err = run_cli("sweep", write(tmp_path, "unread.ini", text), "--output", str(tmp_path / "out"))
        assert code == 1
        assert err.splitlines() == [f"{where}: a {kind} sweep does not read it" for where in unread]
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("kind", ["ssc_fidelity", "fidelity_vs_strength"])
    def test_slow_switching_sweeps_read_dt_free(self, tmp_path, kind):
        # only fidelity_vs_strength reads [initial], and it evaluates no angle axis
        if kind == "fidelity_vs_strength":
            initial, axes = "[initial]\ngamma = 0.5\n", ""
        else:
            initial, axes = "", "gamma_count = 3\nphi_count = 3\n"
        text = (
            f"[system]\nomega = 1.0\ns_max = 0.1\n{initial}[simulation]\ndt_free = 1e-3\n"
            f"[sweep]\nkind = {kind}\n{axes}"
        )
        code, _, err = run_cli("sweep", write(tmp_path, "dt.ini", text), "--output", str(tmp_path / "out"), "--quiet")
        assert (code, err) == (0, "")

    def test_deterministic_tables(self, tmp_path):
        scenario = write(tmp_path, "sweep.ini", SWEEP_SCENARIO)
        d1, d2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        run_cli("sweep", scenario, "--output", d1, "--quiet")
        run_cli("sweep", scenario, "--output", d2, "--quiet")
        for name in os.listdir(d1):
            a = pathlib.Path(d1, name).read_bytes()
            b = pathlib.Path(d2, name).read_bytes()
            assert a == b, name


class TestDesign:
    def test_three_step_design(self):
        code, out, _ = run_cli("design", "0.5", "1.0", "3")
        assert code == 0
        assert "designed_strength=0.133974596215561" in out
        fid = float(out.split("achieved_fidelity=")[1].splitlines()[0])
        assert fid >= 1.0 - 1e-9
        assert "switch_count=3" in out

    def test_single_step_design(self):
        code, out, _ = run_cli("design", "0.5", "1.0", "1")
        assert code == 0
        assert "designed_strength=0.5" in out

    def test_invalid_step_count(self):
        code, _, err = run_cli("design", "0.5", "1.0", "0")
        assert code == 1

    def test_many_steps_fit_the_time_budget(self):
        # 400 slow-switching steps take longer than the default max_time
        code, out, _ = run_cli("design", "0.5", "1.0", "400")
        assert code == 0
        assert "switch_count=400" in out
        assert "verification=pass" in out

    @pytest.mark.parametrize("n", [31_820, 31_821, 10**6, 10**400])
    def test_step_counts_beyond_a_files_run_caps_are_refused_before_the_run(self, monkeypatch, n):
        # a run's grid samples, (n + 10) (pi + 1e-6) / 0.1, do not depend on
        # omega; 31,820 steps take 999,969 and 31,821 pass the cap
        configs = []

        def record(config):
            configs.append(config)
            return mock.Mock(converged=True, terminal_fidelity=1.0, switch_count=n)

        monkeypatch.setattr("lyapqubit.cli.run", record)
        code, _, err = run_cli("design", "0.5", "1.0", str(n), "--quiet")
        if n == 31_820:
            (config,) = configs
            assert (code, err) == (0, "")
            assert config.max_time / config.sample_interval <= scenario_module.MAX_GRID_SAMPLES
            assert scenario_module.run_caps_exceeded(config) == []
        else:
            assert (code, configs) == (1, [])
            assert err.startswith("design: ") and err.count("\n") == 1
            assert "Traceback" not in err
            if "grid samples" in err:
                # 31,821 steps ask for 1,000,000.68, which %.6g would show as 1e+06
                count = err.split("max_time / sample_interval = ")[1].split(" grid samples")[0]
                assert float(count) > scenario_module.MAX_GRID_SAMPLES

    def test_a_time_budget_beyond_the_floats_is_refused(self):
        # 1e300 steps of a period near 1e75 overflow max_time to inf
        code, out, err = run_cli("design", "0.5", "1e-75", str(10**300))
        assert (code, out) == (1, "")
        assert err == "design: max_time must be positive and finite, got inf\n"

    @pytest.mark.parametrize("omega", ["nan", "inf", "1e-300", "1e300", "0", "-1"])
    def test_extreme_omega_exits_one(self, omega):
        # one rule, SystemParams', and one text for every omega it refuses
        code, out, err = run_cli("design", "0.5", omega, "3")
        assert code == 1
        assert err == f"design: omega must lie in [1e-75, 1e+75], got {float(omega)!r}\n"
        assert out == ""


class TestSubcommandOptions:
    # each subcommand takes only the options it reads; --quiet is shared
    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "0.5", "1.0", "3", "--seed", "1"),
            ("simulate", "run.ini", "--output", "run.csv", "--seed", "1"),
            ("sweep", "sweep.ini", "--output", "out", "--seed", "1"),
            ("design", "0.5", "1.0", "3", "--output", "x.csv"),
            ("verify", "--count", "5", "--output", "x.csv"),
        ],
    )
    def test_unread_option_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err

    def test_quiet_is_shared(self):
        code, out, _ = run_cli("design", "0.5", "1.0", "1", "--quiet")
        assert code == 0
        assert out == ""


class TestVerify:
    def test_small_run_passes(self):
        code, out, _ = run_cli("verify", "--count", "40", "--seed", "7")
        assert code == 0
        assert "overall: pass" in out

    def test_seed_reproducibility(self):
        _, out1, _ = run_cli("verify", "--count", "25", "--seed", "123")
        _, out2, _ = run_cli("verify", "--count", "25", "--seed", "123")
        assert out1 == out2

    def test_count_validation(self):
        code, _, _ = run_cli("verify", "--count", "0")
        assert code == 1

    def test_negative_seed_exits_one_without_traceback(self):
        out = subprocess.run(
            [sys.executable, "-m", "lyapqubit", "verify", "--seed", "-1"], capture_output=True, text=True
        )
        assert out.returncode == 1
        assert out.stderr == "verify: --seed must be a non-negative integer\n"
        assert out.stdout == ""


def test_module_entry_point(tmp_path):
    scenario = tmp_path / "s.ini"
    scenario.write_text(FIG1_SCENARIO.replace("max_switches = 2000", "max_switches = 50"))
    out = subprocess.run(
        [sys.executable, "-m", "lyapqubit", "simulate", str(scenario), "--output", str(tmp_path / "o.csv")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert "status=truncated" in out.stdout


# each key's valid values, then its boundary values; HOSTILE ones go to every
# key. Run budgets stay small: the valid max_switches are few, and a long
# horizon meets the grid-sample cap unless sample_interval is as long
VALUES = {
    ("system", "omega"): (["1.0", "2.5"], ["1e-75", "1e75"]),
    ("system", "s_max"): (["0.1", "0.05"], ["0", "1e75"]),
    ("initial", "gamma"): (["0.5", "0.2"], ["0", "1"]),
    ("initial", "phi"): (["1.75", "0"], ["2", "-0.5"]),
    ("policy", "kind"): (["standard", "extended"], ["EXTENDED"]),
    ("simulation", "dt_free"): (["1e-4", "1e-2"], []),
    ("simulation", "kick_angle"): (["1e-6", "0.3"], []),
    ("simulation", "sample_interval"): (["0.1", "1"], []),
    ("simulation", "eps_target"): (["1e-9", "0.01"], ["0", "1"]),
    ("simulation", "max_switches"): (["1", "20"], ["0", str(scenario_module.MAX_SWITCHES + 1)]),
    ("simulation", "max_time"): (["1", "10"], []),
    ("sweep", "kind"): (list(scenario_module.SWEEP_KINDS), ["FIRST_SEGMENT"]),
    ("sweep", "gamma_min"): (["0.05"], ["0"]),
    ("sweep", "gamma_max"): (["0.12"], ["1"]),
    ("sweep", "gamma_count"): (["1", "3"], ["0"]),
    ("sweep", "phi_min"): (["0", "0.5"], ["1.5"]),
    ("sweep", "phi_max"): (["2", "1"], []),
    ("sweep", "phi_count"): (["1", "4"], ["0"]),
    ("sweep", "s_values"): (["0.1", "0.05, 0.1"], ["0.1, 0.1"]),
    ("sweep", "s_min"): (["0.01"], ["0"]),
    ("sweep", "s_max"): (["0.5"], ["0.01"]),
    ("sweep", "s_count"): (["2", "1"], ["0"]),
}
HOSTILE = ["nan", "inf", "-0", "1e308", "1e-308", "junk"]
REQUIRED = [("system", "omega"), ("system", "s_max"), ("initial", "gamma"), ("sweep", "kind")]
# the strength keys a file may set together
S_FORMS = [(), ("s_values",), ("s_min", "s_max"), ("s_min", "s_max", "s_count")]

# the reader's text handling of a key a record checks: counts are integers,
# kinds are lower-cased, and every other such value is a float
TEXT = {("simulation", "max_switches"): int, ("policy", "kind"): str.lower}


def record_refuses(section, key, value):
    """Whether the record that ``[section] key`` sets refuses ``value``."""
    try:
        if section == "system":
            SystemParams(**{"omega": 1.0, "s_max": 0.1, key: value})
        else:
            SimConfig(SystemParams(1.0, 0.1), BlochAngles(0.5, 0.0), **{"policy" if key == "kind" else key: value})
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("section, key", [sk for sk in VALUES if sk[0] in ("system", "simulation", "policy")])
def test_the_reader_refuses_a_value_exactly_when_its_record_does(section, key):
    valid, boundary = VALUES[section, key]
    convert = TEXT.get((section, key), float)
    for raw in valid + boundary + HOSTILE:
        try:
            value = convert(raw)
        except ValueError:
            # text the reader cannot convert never reaches a record
            continue
        try:
            read = scenario_module._KEYS[section][key](raw)
        except ValueError:
            read = None
        assert (read is None) == record_refuses(section, key, value), (section, key, raw)
        assert read is None or read == value, (section, key, raw)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_any_scenario_file_exits_with_output_or_keyed_lines(data):
    assert set(VALUES) == {(section, key) for section, table in scenario_module._KEYS.items() for key in table}
    reader = data.draw(st.sampled_from(list(scenario_module.READS)), label="reader")
    reads = scenario_module.READS[reader]
    # valid values only, or boundary values too, or hostile values too and a key the reader does not read
    mode = data.draw(st.sampled_from(["valid", "boundary", "hostile"]), label="mode")
    read = [(s, k) for s, ks in reads.items() for k in ks if not k.startswith("s_") or s != "sweep"]
    keys = [sk for sk in read if sk in REQUIRED or data.draw(st.booleans())]
    if "s_values" in reads.get("sweep", ()):
        keys += [("sweep", key) for key in data.draw(st.sampled_from(S_FORMS))]
    if mode == "hostile":
        keys.append(data.draw(st.sampled_from([sk for sk in VALUES if sk[1] not in reads.get(sk[0], ())])))
    sections = {}
    for section, key in keys:
        valid, boundary = VALUES[section, key]
        if (section, key) == ("sweep", "kind") and reader != "simulate":
            valid = [reader]
        pool = valid + (boundary if mode != "valid" else []) + (HOSTILE if mode == "hostile" else [])
        sections.setdefault(section, []).append(f"{key} = {data.draw(st.sampled_from(pool))}")
    text = "".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines) for section, lines in sections.items())
    # a strength far below omega takes a slow-switching cell to the step cap;
    # a lower cap keeps such a sweep cheap and still flags the cell
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sweeps_module, "SSC_STEP_CAP", 200):
        path = os.path.join(tmp, "drawn.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("simulate", "sweep"):
            output = os.path.join(tmp, command)
            code, _, err = run_cli(command, path, "--output", output, "--quiet")
            if code in (0, 2):
                assert os.path.isfile(output) if command == "simulate" else os.listdir(output), (command, text)
            else:
                assert code == 1, (command, text, err)
                lines = err.splitlines()
                assert lines and all(line.startswith(("[", f"{command}:")) for line in lines), (command, text, err)


if __name__ == "__main__":
    # prints RECORDED_OUTPUTS recomputed, to replace the block above
    with tempfile.TemporaryDirectory() as tmp:
        print(
            format_recorded(
                {
                    command: recorded_output(tuple(command.split()), pathlib.Path(tmp) / str(i))
                    for i, command in enumerate(RECORDED_OUTPUTS)
                }
            )
        )
