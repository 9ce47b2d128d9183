import io
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from lyapqubit import BlochAngles, Policy, ScenarioError, SimConfig, SystemParams, parse_scenario
from lyapqubit import scenario as scenario_module
from lyapqubit.cli import _fmt, _write_atomic, main, table_csv
from lyapqubit.scenario import SweepSpec

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
            ("gamma = 0.5", "gamma = 1.5", "[initial] gamma:"),
            (
                "max_time = 100",
                "max_time = 100\n[sweep]\nkind = ssc_fidelity\ngamma_count = 0",
                "[sweep] gamma_count:",
            ),
            ("omega = 1.0", "omega = 1%", "[system] omega:"),
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
        # the default axes the module docstring states
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
            "fidelity_vs_strength.ini": SweepSpec(
                "fidelity_vs_strength", tuple(gamma), tuple(phi), tuple(np.linspace(0.01, 0.5, 50))
            ),
            "phase_alignment.ini": SweepSpec(
                "phase_alignment",
                tuple(np.linspace(0.002 * math.pi, 0.125 * math.pi, 60)),
                tuple(phi),
                (0.1,),
            ),
            "sweep_first_segment.ini": SweepSpec("first_segment", tuple(gamma), tuple(phi), (0.1,)),
            "sweep_ssc_fidelity.ini": SweepSpec(
                "ssc_fidelity",
                tuple(np.linspace(0.01, math.pi - 0.01, 50)),
                tuple(np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)),
                (0.05, 0.1),
            ),
        }
        assert sorted(p.name for p in SCENARIOS.glob("*.ini")) == sorted(expected)
        for name, want in expected.items():
            scenario = parse_scenario(str(SCENARIOS / name))
            assert scenario.params == params, name
            if isinstance(want, SimConfig):
                assert scenario.sweep is None and scenario.sim_config() == want, name
            else:
                assert scenario.sweep == want, name
        in_plane = parse_scenario(str(SCENARIOS / "fidelity_vs_strength.ini")).initial
        assert in_plane == BlochAngles(0.5 * math.pi, 0.0)

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
        assert open(a, "rb").read() == open(b, "rb").read()


def test_output_file_gets_the_umask_mode(tmp_path):
    path = str(tmp_path / "out.csv")
    previous = os.umask(0o027)
    try:
        _write_atomic(path, "x\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert os.listdir(tmp_path) == ["out.csv"]


def test_table_rows_format_like_fmt():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1, 1.0 / 3.0, 123456789012345678.0]
    columns = {"x": np.array(values), "n": np.arange(len(values)), "y": np.array(values[::-1])}
    expected = ["x,n,y"] + [
        ",".join(_fmt(float(columns[c][i])) for c in columns) for i in range(len(values))
    ]
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

    def test_empty_grid_exits_one(self, tmp_path):
        text = SWEEP_SCENARIO.replace("gamma_count = 6", "gamma_count = 0")
        scenario = write(tmp_path, "empty.ini", text)
        code, _, err = run_cli("sweep", scenario, "--output", str(tmp_path / "x"))
        assert code == 1

    def test_deterministic_tables(self, tmp_path):
        scenario = write(tmp_path, "sweep.ini", SWEEP_SCENARIO)
        d1, d2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        run_cli("sweep", scenario, "--output", d1, "--quiet")
        run_cli("sweep", scenario, "--output", d2, "--quiet")
        for name in os.listdir(d1):
            a = open(os.path.join(d1, name), "rb").read()
            b = open(os.path.join(d2, name), "rb").read()
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
