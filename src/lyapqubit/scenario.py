"""Scenario files: INI-style key/value documents describing one run or sweep.

Sections and keys::

    [system]      omega (required), s_max (required)
    [initial]     gamma, phi                      -- angles in units of pi
    [policy]      kind = standard | extended
    [simulation]  dt_free, kick_angle, sample_interval, eps_target,
                  max_switches, max_time
    [sweep]       kind = first_segment | ssc_fidelity | fidelity_vs_strength
                         | phase_alignment
                  gamma_min, gamma_max, gamma_count,
                  phi_min, phi_max, phi_count     -- angles in units of pi
                  s_values (comma list) or s_min, s_max, s_count

Angle convention: ``gamma``/``phi`` values (including sweep bounds) are in
units of pi, so ``phi = 1.75`` means ``7*pi/4``; ``phi_max`` is exclusive.
``kick_angle`` is in radians (it is not a pi fraction). Times carry the same
unit as ``1/omega``; the file always states ``omega`` explicitly. Unknown
sections or keys are rejected; every problem is reported with its section
and key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .engine import Policy, SimConfig
from .states import BlochAngles, SystemParams
from .sweeps import SweepGrid, default_gamma_axis, default_phi_axis

SWEEP_KINDS = ("first_segment", "ssc_fidelity", "fidelity_vs_strength", "phase_alignment")


class ScenarioError(ValueError):
    """Scenario file problems, one diagnostic per line."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    gamma_axis: tuple[float, ...]
    phi_axis: tuple[float, ...]
    s_values: tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    params: SystemParams
    initial: BlochAngles | None
    policy: Policy
    dt_free: float | None
    kick_angle: float
    sample_interval: float | None
    eps_target: float
    max_switches: int
    max_time: float | None
    sweep: SweepSpec | None

    def sim_config(self) -> SimConfig:
        if self.initial is None:
            raise ScenarioError(["[initial]: section required for a simulation run"])
        return SimConfig(
            params=self.params,
            initial=self.initial,
            policy=self.policy,
            dt_free=self.dt_free,
            kick_angle=self.kick_angle,
            sample_interval=self.sample_interval,
            eps_target=self.eps_target,
            max_switches=self.max_switches,
            max_time=self.max_time,
        )


_KNOWN_KEYS = {
    "system": {"omega", "s_max"},
    "initial": {"gamma", "phi"},
    "policy": {"kind"},
    "simulation": {
        "dt_free",
        "kick_angle",
        "sample_interval",
        "eps_target",
        "max_switches",
        "max_time",
    },
    "sweep": {
        "kind",
        "gamma_min",
        "gamma_max",
        "gamma_count",
        "phi_min",
        "phi_max",
        "phi_count",
        "s_values",
        "s_min",
        "s_max",
        "s_count",
    },
}


class _Reader:
    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.diagnostics: list[str] = []

    def complain(self, section: str, key: str | None, message: str) -> None:
        where = f"[{section}]" + (f" {key}" if key else "")
        self.diagnostics.append(f"{where}: {message}")

    def get(self, section, key, convert, default=None, required=False):
        if not self.parser.has_option(section, key):
            if required:
                self.complain(section, key, "required key is missing")
            return default
        raw = self.parser.get(section, key)
        try:
            return convert(raw)
        except (TypeError, ValueError) as exc:
            self.complain(section, key, f"invalid value {raw!r} ({exc})")
            return default


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_positive(raw: str) -> float:
    value = _parse_float(raw)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _parse_non_negative(raw: str) -> float:
    value = _parse_float(raw)
    if not value >= 0.0:
        raise ValueError("must be non-negative")
    return value


def _parse_fraction(raw: str) -> float:
    value = _parse_float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError("must lie in (0, 1)")
    return value


def _parse_pi_angle(raw: str) -> float:
    return _parse_float(raw) * math.pi


def _parse_int(raw: str) -> int:
    value = int(raw)
    return value


def _parse_positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    # a strictly increasing axis is required downstream; listing order in the
    # file carries no meaning
    return tuple(sorted(set(_parse_float(p) for p in parts)))


def parse_scenario(path: str) -> Scenario:
    """Parse and validate one scenario file; raises :class:`ScenarioError`
    carrying every diagnostic found."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read ({exc})"]) from exc
    except configparser.Error as exc:
        raise ScenarioError([f"{path}: parse error: {exc}"]) from exc

    reader = _Reader(parser)
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            reader.complain(section, None, "unknown section")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                reader.complain(section, key, "unknown key")

    if not parser.has_section("system"):
        reader.complain("system", None, "required section is missing")
        raise ScenarioError(reader.diagnostics)

    omega = reader.get("system", "omega", _parse_positive, required=True)
    s_max = reader.get("system", "s_max", _parse_non_negative, required=True)
    params = SystemParams(omega, s_max) if omega is not None and s_max is not None else None

    initial = None
    if parser.has_section("initial"):
        gamma = reader.get("initial", "gamma", _parse_pi_angle, required=True)
        phi = reader.get("initial", "phi", _parse_pi_angle, default=0.0)
        if gamma is not None:
            try:
                initial = BlochAngles(gamma, phi)
            except ValueError as exc:
                reader.complain("initial", None, str(exc))

    policy = Policy.STANDARD
    if parser.has_option("policy", "kind"):
        raw = parser.get("policy", "kind").strip().lower()
        try:
            policy = Policy(raw)
        except ValueError:
            reader.complain("policy", "kind", f"expected 'standard' or 'extended', got {raw!r}")

    # the same ranges SimConfig enforces, reported here with their keys
    dt_free = reader.get("simulation", "dt_free", _parse_positive) if parser.has_section("simulation") else None
    kick_angle = 1e-6
    sample_interval = None
    eps_target = 1e-9
    max_switches = 10_000
    max_time = None
    if parser.has_section("simulation"):
        kick_angle = reader.get("simulation", "kick_angle", _parse_positive, default=1e-6)
        sample_interval = reader.get("simulation", "sample_interval", _parse_positive)
        eps_target = reader.get("simulation", "eps_target", _parse_fraction, default=1e-9)
        max_switches = reader.get("simulation", "max_switches", _parse_positive_int, default=10_000)
        max_time = reader.get("simulation", "max_time", _parse_positive)

    sweep = None
    if parser.has_section("sweep"):
        kind = reader.get("sweep", "kind", str, required=True)
        if kind is not None:
            kind = kind.strip().lower()
            if kind not in SWEEP_KINDS:
                reader.complain("sweep", "kind", f"expected one of {SWEEP_KINDS}, got {kind!r}")
                kind = None
        gamma_min = reader.get("sweep", "gamma_min", _parse_pi_angle, default=0.01)
        gamma_max = reader.get("sweep", "gamma_max", _parse_pi_angle, default=math.pi - 0.01)
        gamma_count = reader.get("sweep", "gamma_count", _parse_int, default=101)
        phi_min = reader.get("sweep", "phi_min", _parse_pi_angle, default=0.0)
        phi_max = reader.get("sweep", "phi_max", _parse_pi_angle, default=2.0 * math.pi)
        phi_count = reader.get("sweep", "phi_count", _parse_int, default=101)
        s_values = reader.get("sweep", "s_values", _parse_float_list)
        if s_values is None:
            s_lo = reader.get("sweep", "s_min", _parse_float)
            s_hi = reader.get("sweep", "s_max", _parse_float)
            s_count = reader.get("sweep", "s_count", _parse_int, default=25)
            if s_lo is not None and s_hi is not None:
                if s_count is None or s_count < 1:
                    reader.complain("sweep", "s_count", "must be at least 1")
                else:
                    s_values = tuple(np.linspace(s_lo, s_hi, s_count))
        if s_values is None and params is not None:
            s_values = (params.s_max,)
        if kind is not None and params is not None and s_values is not None:
            try:
                if gamma_count is None or gamma_count < 1:
                    raise ValueError("gamma_count must be at least 1")
                if phi_count is None or phi_count < 1:
                    raise ValueError("phi_count must be at least 1")
                gamma_axis = (
                    tuple(np.linspace(gamma_min, gamma_max, gamma_count))
                    if parser.has_option("sweep", "gamma_min")
                    or parser.has_option("sweep", "gamma_max")
                    or parser.has_option("sweep", "gamma_count")
                    else default_gamma_axis(gamma_count)
                )
                phi_axis = (
                    tuple(np.linspace(phi_min, phi_max, phi_count, endpoint=False))
                    if parser.has_option("sweep", "phi_min")
                    or parser.has_option("sweep", "phi_max")
                    or parser.has_option("sweep", "phi_count")
                    else default_phi_axis(phi_count)
                )
                grid = SweepGrid(gamma_axis, phi_axis, tuple(s_values), params.omega)
                sweep = SweepSpec(kind, grid.gamma_axis, grid.phi_axis, grid.s_values)
            except ValueError as exc:
                reader.complain("sweep", None, str(exc))

    if reader.diagnostics:
        raise ScenarioError(reader.diagnostics)
    if params is None:  # pragma: no cover - diagnostics above always fire
        raise ScenarioError(["[system]: invalid"])
    return Scenario(
        params=params,
        initial=initial,
        policy=policy,
        dt_free=dt_free,
        kick_angle=kick_angle,
        sample_interval=sample_interval,
        eps_target=eps_target,
        max_switches=max_switches,
        max_time=max_time,
        sweep=sweep,
    )
