"""Scenario files: INI-style key/value documents describing one run or sweep.

Sections and keys::

    [system]      omega, s_max
    [initial]     gamma, phi
    [policy]      kind
    [simulation]  dt_free, kick_angle, sample_interval, eps_target,
                  max_switches, max_time
    [sweep]       kind, gamma_min, gamma_max, gamma_count,
                  phi_min, phi_max, phi_count,
                  s_values, s_min, s_max, s_count

``[system]`` needs both keys; ``omega`` lies in [1e-75, 1e75] and every
field strength in [0, 1e75]. ``[initial]`` needs ``gamma`` (``phi``
defaults to 0). ``[policy] kind`` is ``standard`` or ``extended``.
``[simulation]`` keys the file leaves out take the defaults of
:class:`~lyapqubit.engine.SimConfig`. ``lyapqubit simulate`` reads no
``[sweep]``. A sweep reads no ``[policy]``, of ``[simulation]`` only
``dt_free``, for the two slow-switching kinds, and ``[initial]`` only for
``fidelity_vs_strength``; the command line rejects a section or key that
its command does not read. ``[sweep] kind`` is ``first_segment``,
``ssc_fidelity``, ``fidelity_vs_strength`` or ``phase_alignment``; a
``fidelity_vs_strength`` sweep needs ``[initial]``. Its field strengths are
the comma list ``s_values``, or ``s_count`` (default 25) points from
``s_min`` to ``s_max``, or else ``[system] s_max``; a ``first_segment``
sweep takes one strength. A ``phase_alignment`` sweep's ``gamma`` axis
must stay in the band ``sin(gamma/2) <= sin(theta_max)`` that
``[system] s_max`` reaches.

Angle convention: ``gamma``/``phi`` values (including sweep bounds) are in
units of pi, so ``phi = 1.75`` means ``7*pi/4``. ``gamma``, ``gamma_min``
and ``gamma_max`` lie in [0, 1]; ``phi_min`` lies in [0, 2) and ``phi_max``,
which is exclusive, in (0, 2]; the initial ``phi`` is reduced modulo 2. By
default the sweep axes run ``gamma`` from 0.01 to pi - 0.01 radians and
``phi`` over [0, 2*pi), 101 points each; a ``*_max`` must exceed its
``*_min`` unless the count is 1, and the points must lie further apart
than float spacing. ``kick_angle`` is in radians (it is not a
pi fraction). Times carry the same unit as ``1/omega``; the file always
states ``omega`` explicitly. Counts (``max_switches`` and the ``*_count``
keys) are integers >= 1. Unknown sections or keys are rejected; every
problem is reported with its section and key.

The work a file may ask for is capped before anything is allocated, from
the memory it takes: about 176 B per run record (a sample or a segment,
with its state) and 300-400 B per sweep cell with its CSV text. A run
may ask for at most :data:`MAX_GRID_SAMPLES` (1e6) grid samples,
``max_time / sample_interval`` with their defaults. A sweep may ask for at
most :data:`MAX_SWEEP_CELLS` (1e6) cells, ``gamma_count x phi_count x``
strengths for ``first_segment`` and ``ssc_fidelity``, the strengths for
``fidelity_vs_strength`` and ``gamma_count`` for ``phase_alignment``, and
for at most as many points on any one axis.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .control import InfeasibleError
from .engine import DEFAULT_MAX_TIME_FACTOR, DEFAULT_SAMPLE_INTERVAL_FACTOR, Policy, SimConfig
from .extended import required_phase
from .states import SCALE_RANGE, BlochAngles, SystemParams
from .sweeps import SweepGrid

SWEEP_KINDS = ("first_segment", "ssc_fidelity", "fidelity_vs_strength", "phase_alignment")

#: Most grid samples a file may ask a run for: about 180 MB of records.
MAX_GRID_SAMPLES = 1_000_000

#: Most cells a file may ask a sweep for, and most points of any one axis:
#: about 400 MB at the sweeps' peak.
MAX_SWEEP_CELLS = 1_000_000

#: the count keys of the axes whose grid each sweep kind evaluates
_SWEEP_COUNTS = {
    "first_segment": ("gamma_count", "phi_count", "s_count"),
    "ssc_fidelity": ("gamma_count", "phi_count", "s_count"),
    "fidelity_vs_strength": ("s_count",),
    "phase_alignment": ("gamma_count",),
}


class ScenarioError(ValueError):
    """Scenario file problems, one diagnostic per line."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


@dataclass(frozen=True)
class Scenario:
    params: SystemParams
    initial: BlochAngles | None
    #: the :class:`SimConfig` keywords the file sets: ``policy`` from
    #: ``[policy] kind`` and the ``[simulation]`` keys
    simulation: Mapping[str, object]
    #: the ``[sweep]`` axes, with ``[system] omega``, and ``[sweep] kind``
    sweep: SweepGrid | None
    sweep_kind: str | None

    @property
    def dt_free(self) -> float | None:
        return self.simulation.get("dt_free")

    def sim_config(self) -> SimConfig:
        if self.initial is None:
            raise ScenarioError(["[initial]: section required for a simulation run"])
        return SimConfig(params=self.params, initial=self.initial, **self.simulation)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _rule(ok, message: str, convert=_finite):
    """Converter that reads ``raw`` with ``convert`` and requires ``ok(value)``."""

    def read(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(message)
        return value

    return read


def _pi_units(convert):
    return lambda raw: convert(raw) * math.pi


def _one_of(choices):
    def read(raw: str):
        for choice in choices:
            if raw.lower() == choice:
                return choice
        raise ValueError(f"expected one of {', '.join(choices)}")

    return read


def _strengths(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    # a strictly increasing axis is required downstream; listing order in the
    # file carries no meaning
    return tuple(sorted(set(_STRENGTH(p) for p in parts)))


_POSITIVE = _rule(lambda v: v > 0.0, "must be positive")
# the ranges SystemParams enforces
_OMEGA = _rule(lambda v: SCALE_RANGE[0] <= v <= SCALE_RANGE[1], "must lie in [%r, %r]" % SCALE_RANGE)
_STRENGTH = _rule(lambda v: 0.0 <= v <= SCALE_RANGE[1], f"must lie in [0, {SCALE_RANGE[1]!r}]")
_COUNT = _rule(lambda v: v >= 1, "must be at least 1", int)
_GAMMA = _pi_units(_rule(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"))

#: section -> key -> converter: every key a scenario file may set
_KEYS = {
    "system": {"omega": _OMEGA, "s_max": _STRENGTH},
    "initial": {"gamma": _GAMMA, "phi": _rule(math.isfinite, "must be finite once multiplied by pi", _pi_units(float))},
    "policy": {"kind": _one_of(Policy)},
    # the ranges SimConfig enforces, reported here with their keys
    "simulation": {
        "dt_free": _POSITIVE,
        "kick_angle": _POSITIVE,
        "sample_interval": _POSITIVE,
        "eps_target": _rule(lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
        "max_switches": _COUNT,
        "max_time": _POSITIVE,
    },
    "sweep": {
        "kind": _one_of(SWEEP_KINDS),
        "gamma_min": _GAMMA,
        "gamma_max": _GAMMA,
        "gamma_count": _COUNT,
        "phi_min": _pi_units(_rule(lambda v: 0.0 <= v < 2.0, "must lie in [0, 2)")),
        "phi_max": _pi_units(_rule(lambda v: 0.0 < v <= 2.0, "must lie in (0, 2]")),
        "phi_count": _COUNT,
        "s_values": _strengths,
        "s_min": _STRENGTH,
        "s_max": _STRENGTH,
        "s_count": _COUNT,
    },
}

_REQUIRED = (("system", "omega"), ("system", "s_max"), ("initial", "gamma"), ("sweep", "kind"))


def _axis(sweep, complain, name, lo, hi, count, endpoint=True) -> tuple[float, ...]:
    lo, hi = sweep.get(f"{name}_min", lo), sweep.get(f"{name}_max", hi)
    count = sweep.get(f"{name}_count", count)
    if count > 1 and not lo < hi:
        complain("sweep", f"{name}_max", f"must exceed {name}_min")
        return ()
    axis = tuple(np.linspace(lo, hi, count, endpoint=endpoint))
    if any(b <= a for a, b in zip(axis, axis[1:])):
        message = f"{count} points from {name}_min to {name}_max are closer than float spacing"
        complain("sweep", f"{name}_count", message)
    return axis


def _sweep_fits(sweep, complain) -> bool:
    """Whether a sweep's axes fit :data:`MAX_SWEEP_CELLS`, judged from their
    counts before any axis is built; complains with the largest count's key
    when they do not."""
    if "s_values" in sweep:
        strengths = len(sweep["s_values"])
    else:
        strengths = sweep.get("s_count", 25) if "s_min" in sweep else 1
    counts = {"gamma_count": sweep.get("gamma_count", 101), "phi_count": sweep.get("phi_count", 101)}
    counts["s_count"] = strengths
    largest = max(counts, key=counts.get)
    evaluated = [counts[key] for key in _SWEEP_COUNTS[sweep["kind"]]]
    cells = math.prod(evaluated)
    if counts[largest] > MAX_SWEEP_CELLS:
        message = f"{counts[largest]} points exceed the cap of {MAX_SWEEP_CELLS}"
    elif cells > MAX_SWEEP_CELLS:
        message = f"{' x '.join(map(str, evaluated))} = {cells} cells exceed the cap of {MAX_SWEEP_CELLS}"
    else:
        return True
    complain("sweep", "s_values" if largest == "s_count" and "s_values" in sweep else largest, message)
    return False


def parse_scenario(path: str) -> Scenario:
    """Parse and validate one scenario file; raises :class:`ScenarioError`
    carrying every diagnostic found."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read ({exc})"]) from exc
    except configparser.Error as exc:
        raise ScenarioError([f"{path}: parse error: {exc}"]) from exc

    diagnostics: list[str] = []

    def complain(section: str, key: str | None, message: str) -> None:
        diagnostics.append(f"[{section}]" + (f" {key}" if key else "") + f": {message}")

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _KEYS:
            complain(section, None, "unknown section")
            continue
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                complain(section, key, "unknown key")
                continue
            try:
                values[section][key] = _KEYS[section][key](raw)
            except ValueError as exc:
                complain(section, key, f"invalid value {raw!r} ({exc})")
    if "system" not in values:
        complain("system", None, "required section is missing")
        raise ScenarioError(diagnostics)
    for section, key in _REQUIRED:
        if section in values and not parser.has_option(section, key):
            complain(section, key, "required key is missing")

    sweep = values.get("sweep")
    if sweep is not None:
        given = set(parser.options("sweep"))
        bounds = sorted(given & {"s_min", "s_max"})
        if "s_values" in given and bounds:
            complain("sweep", "s_values", "cannot be combined with s_min or s_max")
        if len(bounds) == 1:
            complain("sweep", bounds[0], "needs both s_min and s_max")
        if "s_count" in given and not bounds:
            complain("sweep", "s_count", "needs s_min and s_max")
        if sweep.get("kind") == "fidelity_vs_strength" and "initial" not in values:
            complain("initial", None, "section required for a fidelity_vs_strength sweep")
    if diagnostics:
        raise ScenarioError(diagnostics)

    system, initial = values["system"], values.get("initial")
    params = SystemParams(system["omega"], system["s_max"])
    start = None if initial is None else BlochAngles(initial["gamma"], initial.get("phi", 0.0))
    simulation = dict(values.get("simulation", {}))
    if "kind" in values.get("policy", {}):
        simulation["policy"] = values["policy"]["kind"]
    scale = 1.0 / params.omega
    horizon = simulation.get("max_time", DEFAULT_MAX_TIME_FACTOR * scale)
    samples = horizon / simulation.get("sample_interval", DEFAULT_SAMPLE_INTERVAL_FACTOR * scale)
    if samples > MAX_GRID_SAMPLES:
        message = f"max_time / sample_interval = {samples:.6g} grid samples exceed the cap of {MAX_GRID_SAMPLES}"
        complain("simulation", "sample_interval", message)

    grid = None
    if sweep is not None and _sweep_fits(sweep, complain):
        gamma_axis = _axis(sweep, complain, "gamma", 0.01, math.pi - 0.01, 101)
        phi_axis = _axis(sweep, complain, "phi", 0.0, 2.0 * math.pi, 101, endpoint=False)
        s_values = sweep.get("s_values") or (
            _axis(sweep, complain, "s", None, None, 25) if "s_min" in sweep else (params.s_max,)
        )
        if sweep["kind"] == "first_segment" and len(s_values) > 1:
            key = "s_values" if "s_values" in sweep else "s_count"
            complain("sweep", key, f"a first_segment sweep takes one strength, got {len(s_values)}")
        if sweep["kind"] == "phase_alignment" and gamma_axis:
            # the reachable band depends on [system] s_max only
            try:
                required_phase(gamma_axis[-1], params)
            except InfeasibleError as exc:
                complain("sweep", "gamma_max", f"outside the reachable band of [system] s_max: {exc}")
    if diagnostics:
        raise ScenarioError(diagnostics)
    if sweep is not None:
        try:
            grid = SweepGrid(gamma_axis, phi_axis, s_values, params.omega)
        except ValueError as exc:  # pragma: no cover - the checks above come first
            raise ScenarioError([f"[sweep]: {exc}"]) from exc
    kind = None if sweep is None else sweep["kind"]
    return Scenario(params=params, initial=start, simulation=simulation, sweep=grid, sweep_kind=kind)
