"""Layer microbenchmarks on fixed inputs.

Each layer call is timed in blocks of repeated calls; the result is the
median block's time per call. The two oracle kernels are timed per step on
each backend. A layer a later change removes reads 0.
"""

from __future__ import annotations

import statistics
import sys
import time

from metrics import KERNEL_BACKENDS

BLOCK_S = 0.02
BLOCKS = 9


def _per_call_us(fn) -> float:
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BLOCK_S / 4:
            break
        n *= 2
    n = max(1, int(n * BLOCK_S / max(time.perf_counter() - start, 1e-9)))
    times = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times) * 1e6


def _per_step_ns(fn, n_steps: int) -> float:
    fn(10)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        fn(n_steps)
        times.append((time.perf_counter() - start) / n_steps)
    return statistics.median(times) * 1e9


def measure(L) -> dict[str, float]:
    import numpy as np

    params = L.SystemParams(1.0, 0.1)
    state = L.from_bloch(L.BlochAngles(1.0, 0.7))
    reachable = L.from_bloch(L.BlochAngles(0.2, 0.3))
    f = L.select_field(state, params).f
    u = L.controlled_unitary(params, 0.1, 0.37)
    a, b = state.a, state.b
    out = {
        "micro.PureState.us": _per_call_us(lambda: L.PureState(a, b)),
        "micro.Unitary2.us": _per_call_us(lambda: L.Unitary2(u.u11, u.u12, u.u21, u.u22)),
        "micro.controlled_unitary.us": _per_call_us(lambda: L.controlled_unitary(params, 0.1, 0.37)),
        "micro.evolve.us": _per_call_us(lambda: L.evolve(state, u)),
        "micro.segment_duration.us": _per_call_us(lambda: L.segment_duration(state, f, params)),
        "micro.plan_single_shot.us": _per_call_us(lambda: L.plan_single_shot(reachable, params)),
    }

    # both oracle kernels on every backend ``_kernels.BACKENDS`` offers, so the
    # compiled-versus-interpreted comparison is kept; an absent backend reads 0
    kernels = sys.modules.get("lyapqubit._kernels")
    backends = getattr(kernels, "BACKENDS", {})
    h = 1e-4
    up = L.controlled_unitary(params, params.s_max, h)
    um = L.controlled_unitary(params, -params.s_max, h)
    uf = L.free_unitary(params, h)
    stride = 1000
    out_a = np.empty(100, dtype=np.complex128)
    out_b = np.empty(100, dtype=np.complex128)
    out_f = np.empty(100, dtype=np.float64)
    for backend in KERNEL_BACKENDS:
        fns = backends.get(backend, {})
        rk4, law = fns.get("rk4_steps"), fns.get("sampled_law_steps")
        out[f"micro.rk4_steps.{backend}.ns_per_step"] = (
            _per_step_ns(lambda n: rk4(complex(a), complex(b), params.omega, 0.1, n, 2e-4), 10_000) if rk4 else 0.0
        )

        def law_call(n, law=law):
            law(complex(a), complex(b), params.s_max, 1e-12, n, stride, up.u11, up.u12, up.u22,
                um.u11, um.u12, um.u22, uf.u11, uf.u22, out_a, out_b, out_f)

        out[f"micro.sampled_law_steps.{backend}.ns_per_step"] = _per_step_ns(law_call, 30_000) if law else 0.0
    return out
