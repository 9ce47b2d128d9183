"""Scenario files: INI-style key/value documents describing one run or sweep.

Sections and keys::

    [system]      omega, s_max
    [initial]     gamma, phi
    [policy]      kind
    [simulation]  dt_free, sample_interval, eps_target, max_switches,
                  max_time
    [sweep]       kind, gamma_min, gamma_max, gamma_count,
                  phi_min, phi_max, phi_count,
                  s_values, s_min, s_max, s_count

A file with ``[sweep]`` is a sweep of its ``kind`` (``first_segment``,
``ssc_fidelity``, ``fidelity_vs_strength`` or ``phase_alignment``), and a
file without it is a run; :data:`READS` says what each reads, and the
rest is rejected. A sweep's grid has the axes its kind evaluates, and on
each other axis the one point the file fixes: ``[initial]`` ``gamma`` and
``phi``, and ``[system] s_max``.

``[system]`` needs both keys. ``[initial]`` needs ``gamma`` (``phi``
defaults to 0). ``[policy] kind`` is ``standard`` or ``extended``.
``[simulation]`` keys the file leaves out take the defaults of
:class:`~lyapqubit.engine.SimConfig`. A ``[system]`` or ``[simulation]``
value, and any field strength as ``s_max``, must pass the rule its
record states (:data:`~lyapqubit.states.PARAM_RULES` or
:data:`~lyapqubit.engine.SIM_RULES`), whose text its diagnostic quotes.
Field strengths are the comma list ``s_values``, or ``s_count`` (default
25) points from ``s_min`` to ``s_max``, or else ``[system] s_max``; a
``first_segment`` sweep takes one strength. A ``phase_alignment``
sweep's ``gamma`` axis must stay in the band
``sin(gamma/2) <= sin(theta_max)`` that ``[system] s_max`` reaches.

Angle convention: ``gamma``/``phi`` values (including sweep bounds) are in
units of pi, so ``phi = 1.75`` means ``7*pi/4``. ``gamma``, ``gamma_min``
and ``gamma_max`` lie in [0, 1]; ``phi_min`` lies in [0, 2) and ``phi_max``,
which is exclusive, in (0, 2]; the initial ``phi`` is reduced modulo 2. By
default an evaluated axis runs ``gamma`` from 0.01 to pi - 0.01 radians
or ``phi`` over [0, 2*pi), 101 points; a ``*_max`` must exceed its
``*_min`` unless the count is 1, and the points must lie further apart
than float spacing. Times carry the same unit as ``1/omega``; the file
always states ``omega`` explicitly. Counts (``max_switches`` and the
``*_count`` keys) are integers >= 1. Unknown sections or keys are
rejected; every problem is reported with its section and key.

The work a file may ask for is capped before anything is allocated, from
the memory it takes: about 176 B per run record (a sample or a segment,
with its state) and 300-400 B per sweep cell with its CSV text. A run
may ask for at most :data:`MAX_GRID_SAMPLES` (1e6) grid samples,
``max_time / sample_interval`` of its :class:`~lyapqubit.engine.SimConfig`,
and at most :data:`MAX_SWITCHES` (1e5) switches, so that the run's safety
net of ``10 * max_switches + 10_000`` segments holds about as many
records; :func:`run_caps_exceeded` states both, and ``design`` reads it. A
sweep may ask for at most :data:`MAX_SWEEP_CELLS` (1e6) cells, the
product of the counts of the axes it evaluates. A slow-switching sweep
(``ssc_fidelity`` or ``fidelity_vs_strength``) may ask for at most
:data:`MAX_SWEEP_STEPS` (1e7) cell-steps, a step being a free tick and a
bang segment. Its cells, of every strength, step in one loop, which
:func:`~lyapqubit.sweeps._ssc_cost` counts: a cell takes about
``gamma / (2 theta_max) + 1`` steps at the mean ``gamma`` swept, more
where a ``dt_free`` tick is too short to leave the switching band, at
most :data:`~lyapqubit.sweeps.SSC_STEP_CAP`, and each step of the loop
costs :data:`~lyapqubit.sweeps.SSC_STEP_OVERHEAD` (400) more. A loop at
the step cap, which a strength far below ``omega`` or a ``dt_free`` far
below 1e-12 / ``omega`` reaches, exceeds the cap by itself.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import sweeps
from .control import InfeasibleError
from .engine import MAX_GRID_SAMPLES, SIM_RULES, Policy, SimConfig
from .extended import required_phase
from .states import PARAM_RULES, BlochAngles, SystemParams
from .sweeps import SweepGrid

SWEEP_KINDS = ("first_segment", "ssc_fidelity", "fidelity_vs_strength", "phase_alignment")

#: Most switches a file may ask a run for: the run's safety net of
#: ``10 * max_switches + 10_000`` segments then holds about as many records.
MAX_SWITCHES = 100_000

#: Most cells a file may ask a sweep for: about 400 MB at the sweeps' peak.
MAX_SWEEP_CELLS = 1_000_000

#: Most slow-switching cell-steps (a tick and a bang each) a file may ask a
#: sweep's one loop for, its steps' fixed cost included: a few seconds.
MAX_SWEEP_STEPS = 10_000_000


def run_caps_exceeded(config: SimConfig) -> list[tuple[str, str]]:
    """The run caps that ``config`` exceeds, as ``(key, message)`` with the
    ``[simulation]`` key to blame: the one rule for a file's run and for
    ``design``'s."""
    samples = config.max_time / config.sample_interval
    exceeded = []
    if samples > MAX_GRID_SAMPLES:
        shown = f"{samples:.6g}"
        if float(shown) <= MAX_GRID_SAMPLES:
            # rounded to the cap, a count over it would read as within it
            shown = repr(samples)
        message = f"max_time / sample_interval = {shown} grid samples exceed the cap of {MAX_GRID_SAMPLES}"
        exceeded.append(("sample_interval", message))
    if config.max_switches > MAX_SWITCHES:
        exceeded.append(("max_switches", f"{config.max_switches} switches exceed the cap of {MAX_SWITCHES}"))
    return exceeded


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
    #: the grid the sweep computes, with ``[system] omega``, and ``[sweep] kind``
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


_STRENGTH = _rule(*PARAM_RULES["s_max"], float)
_COUNT = _rule(lambda v: v >= 1, "must be at least 1", int)
_GAMMA = _pi_units(_rule(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"))

#: section -> key -> converter: every key a scenario file may set
_KEYS = {
    "system": {"omega": _rule(*PARAM_RULES["omega"], float), "s_max": _STRENGTH},
    "initial": {"gamma": _GAMMA, "phi": _rule(math.isfinite, "must be finite once multiplied by pi", _pi_units(float))},
    "policy": {"kind": _one_of(Policy)},
    "simulation": {
        key: _rule(*rule, int if key == "max_switches" else float) for key, rule in SIM_RULES.items() if key != "policy"
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

#: an evaluated axis' defaults: ``*_min``, ``*_max``, ``*_count``, and
#: whether ``*_max`` is on the axis; strengths have no default ends
_SPANS = {
    "gamma": (0.01, math.pi - 0.01, 101, True), "phi": (0.0, 2.0 * math.pi, 101, False), "s": (None, None, 25, True)
}

_SYSTEM, _INITIAL, _DT_FREE = ("omega", "s_max"), ("gamma", "phi"), ("dt_free",)
_GAMMA_AXIS, _PHI_AXIS = ("gamma_min", "gamma_max", "gamma_count"), ("phi_min", "phi_max", "phi_count")
_S_AXIS = ("s_values", "s_min", "s_max", "s_count")

#: reader -> section -> the keys it reads: ``simulate``, then each sweep
#: kind, which reads of ``[sweep]`` the keys of the axes it evaluates
READS = {
    "simulate": {"system": _SYSTEM, "initial": _INITIAL, "policy": ("kind",), "simulation": (*_KEYS["simulation"],)},
    "first_segment": {"system": _SYSTEM, "sweep": ("kind", *_GAMMA_AXIS, *_PHI_AXIS, *_S_AXIS)},
    "ssc_fidelity": {"system": _SYSTEM, "simulation": _DT_FREE, "sweep": ("kind", *_GAMMA_AXIS, *_PHI_AXIS, *_S_AXIS)},
    "fidelity_vs_strength": {
        "system": _SYSTEM, "initial": _INITIAL, "simulation": _DT_FREE, "sweep": ("kind", *_S_AXIS)
    },
    "phase_alignment": {"system": _SYSTEM, "sweep": ("kind", *_GAMMA_AXIS)},
}

_REQUIRED = (("system", "omega"), ("system", "s_max"), ("initial", "gamma"))


def _axis(complain, name, lo, hi, count, endpoint) -> tuple[float, ...]:
    if count > 1 and not lo < hi:
        complain("sweep", f"{name}_max", f"must exceed {name}_min")
        return ()
    axis = tuple(np.linspace(lo, hi, count, endpoint=endpoint))
    if any(b <= a for a, b in zip(axis, axis[1:])):
        message = f"{count} points from {name}_min to {name}_max are closer than float spacing"
        complain("sweep", f"{name}_count", message)
    return axis


def _sweep_axes(sweep, reader, params, fixed, dt_free, complain):
    """The ``gamma``, ``phi`` and ``s`` axes of a sweep of kind ``reader``, or
    None after complaining. An axis the kind evaluates is its span ``(min,
    max, count)``, or the strengths ``s_values``; any other is the one point
    the file fixes, ``fixed`` or ``[system] s_max``. Both work caps are
    judged from this, and only then are the spans built and checked."""
    axes = {"gamma": (fixed.gamma,), "phi": (fixed.phi,), "s": sweep.get("s_values", (params.s_max,))}
    # the evaluated axes' spans, and their counts by the key each comes from
    spans, counts = {}, {}
    for name, (lo, hi, count, endpoint) in _SPANS.items():
        if f"{name}_count" not in READS[reader]["sweep"]:
            continue
        key = "s_values" if name == "s" and "s_values" in sweep else f"{name}_count"
        if name == "s" and "s_min" not in sweep:
            counts[key] = len(axes["s"])
            continue
        span = (sweep.get(f"{name}_min", lo), sweep.get(f"{name}_max", hi), sweep.get(f"{name}_count", count))
        spans[name], counts[key] = (*span, endpoint), span[2]
    cells = math.prod(counts.values())
    if cells > MAX_SWEEP_CELLS:
        product = " x ".join(map(str, counts.values()))
        message = f"{product} = {cells} cells" if len(counts) > 1 else f"{cells} cells"
        complain("sweep", max(counts, key=counts.get), f"{message} exceed the cap of {MAX_SWEEP_CELLS}")
        return None

    if reader in ("ssc_fidelity", "fidelity_vs_strength"):
        # the polar angles swept, first and last: the span's ends, or its one point
        lo, hi, count, _ = spans.get("gamma", (fixed.gamma, fixed.gamma, 1, True))
        s_values = np.linspace(*spans["s"]) if "s" in spans else axes["s"]

        def work(dt):
            return sweeps._ssc_cost(lo, hi if count > 1 else lo, s_values, params.omega, dt, cells // len(s_values))

        if work(dt_free) > MAX_SWEEP_STEPS:
            key = "s_values" if "s_values" in sweep else "s_min" if "s" in spans else "s_max"
            # a file that the default tick would let through has a dt_free too short
            key = "dt_free" if work(None) <= MAX_SWEEP_STEPS else key
            message = f"about {work(dt_free):.3g} slow-switching steps exceed the cap of {MAX_SWEEP_STEPS}"
            complain({"s_max": "system", "dt_free": "simulation"}.get(key, "sweep"), key, message)
            return None

    for name, span in spans.items():
        axes[name] = _axis(complain, name, *span)
    if reader == "first_segment" and len(axes["s"]) > 1:
        key = "s_values" if "s_values" in sweep else "s_count"
        complain("sweep", key, f"a first_segment sweep takes one strength, got {len(axes['s'])}")
    if reader == "phase_alignment" and axes["gamma"]:
        # the reachable band depends on [system] s_max only
        try:
            required_phase(axes["gamma"][-1], params)
        except InfeasibleError as exc:
            complain("sweep", "gamma_max", f"outside the reachable band of [system] s_max: {exc}")
    return axes["gamma"], axes["phi"], axes["s"]


def parse_scenario(path: str) -> Scenario:
    """Parse and validate one scenario file; raises :class:`ScenarioError`
    carrying every diagnostic found."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"{path}: cannot read ({exc})"]) from exc
    except configparser.Error as exc:
        raise ScenarioError([f"{path}: parse error: {exc}"]) from exc

    # the file names its reader; with no sweep kind there is none to judge by
    reader = "simulate"
    if parser.has_section("sweep"):
        try:
            reader = _KEYS["sweep"]["kind"](parser["sweep"].get("kind", ""))
        except ValueError as exc:
            raise ScenarioError([f"[sweep] kind: {exc}"]) from None
    reads = READS[reader]
    who = reader if reader == "simulate" else f"a {reader} sweep"

    diagnostics: list[str] = []

    def complain(section: str, key: str | None, message: str) -> None:
        diagnostics.append(f"[{section}]" + (f" {key}" if key else "") + f": {message}")

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _KEYS:
            complain(section, None, "unknown section")
            continue
        if section in reads:
            values[section] = {}
        elif not parser.options(section):
            complain(section, None, f"{who} does not read it")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                complain(section, key, "unknown key")
            elif key not in reads.get(section, ()):
                complain(section, key, f"{who} does not read it")
            else:
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
    if "initial" in reads and "initial" not in values:
        complain("initial", None, f"section required by {who}")

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
    if diagnostics:
        raise ScenarioError(diagnostics)

    system, initial = values["system"], values.get("initial")
    params = SystemParams(system["omega"], system["s_max"])
    start = None if initial is None else BlochAngles(initial["gamma"], initial.get("phi", 0.0))
    simulation = dict(values.get("simulation", {}))
    if "kind" in values.get("policy", {}):
        simulation["policy"] = values["policy"]["kind"]
    if reader == "simulate":
        for key, message in run_caps_exceeded(SimConfig(params, start, **simulation)):
            complain("simulation", key, message)

    fixed = start or BlochAngles(0.0, 0.0)
    axes = None if sweep is None else _sweep_axes(sweep, reader, params, fixed, simulation.get("dt_free"), complain)
    if diagnostics:
        raise ScenarioError(diagnostics)
    grid = None
    if axes is not None:
        try:
            grid = SweepGrid(*axes, params.omega)
        except ValueError as exc:  # pragma: no cover - the checks above come first
            raise ScenarioError([f"[sweep]: {exc}"]) from exc
    kind = None if sweep is None else reader
    return Scenario(params=params, initial=start, simulation=simulation, sweep=grid, sweep_kind=kind)
