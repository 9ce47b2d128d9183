"""Per-layer spans recorded from outside the package.

Each traced function is replaced, in every ``lyapqubit`` module that holds
a reference to it, by a wrapper that counts calls and accumulates self time
(its duration minus the time spent in traced callees). Nothing under
``src/`` is edited, and uninstalling restores the original objects.
"""

from __future__ import annotations

import functools
import sys
import time

from metrics import KERNELS, TRACED


class _Stat:
    __slots__ = ("calls", "self_s", "segments", "samples", "steps")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.segments = 0
        self.samples = 0
        self.steps = 0


class Tracer:
    def __init__(self):
        self.stats = {key: _Stat() for key in TRACED}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "lyapqubit" or name.startswith("lyapqubit.")]
        for key, (module, attr, _) in TRACED.items():
            owner = sys.modules.get(f"lyapqubit.{module}")
            original = getattr(owner, attr, None)
            if original is None:
                # a later refactor may remove a layer; its metrics then read 0
                continue
            wrapper = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def take(self) -> dict[str, _Stat]:
        """Return the statistics gathered so far and start fresh ones."""
        taken = {}
        for key, stat in self.stats.items():
            copy = _Stat()
            for field in _Stat.__slots__:
                setattr(copy, field, getattr(stat, field))
                setattr(stat, field, type(getattr(stat, field))())
            taken[key] = copy
        return taken

    def _wrap(self, key, fn):
        stack = self._stack
        stat = self.stats[key]
        clock = time.perf_counter
        is_run = key == "engine.run"
        is_kernel = key in KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.self_s += duration - frame[0]
            if is_run:
                stat.segments += len(result.segments)
                stat.samples += len(result.samples)
            elif is_kernel:
                stat.steps += int(args[4] if len(args) > 4 else kwargs["n_steps"])
            return result

        return traced
