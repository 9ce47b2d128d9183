"""The two inner loops of the verification oracle, in plain Python.

A fixed-step fourth-order integrator and the brute-force stepper that
applies the bang-bang law at every step. For a constant field one
classical RK4 step is a fixed 2x2 matrix, a positive scalar times a
rotation by an angle ``phi``, so the integrator takes its ``n_steps``-th
power in closed polar form, as the rotation by ``n phi``, instead of
stepping. The integrator is built from ``omega`` and the field alone and
never uses the closed-form propagators it checks. The law
stepper takes every step, but it need not test the law at every step.
One bang step rotates the Bloch vector by ``2Eh``, which moves it by a
chord of at most ``2 sin(Eh)``; ``Im(a b*)`` is half a Bloch component,
so one step changes it by at most ``sin(Eh)``, read off the step's own
entries. A test that finds ``Im(a b*)`` ``m`` such bounds (plus a rounding
slack) clear of the switching band therefore fixes the field of the next
``m`` steps as well as its own, and the stepper takes them untested,
ending them before the next sample. It takes them as products by the
step divided by its column norm ``rho``, ``rho^2 = |u11|^2 + |u12|^2``,
and renormalizes once, with the step that follows them. A step has the
symmetric form ``[[x - iy, -iz], [-iz, x + iy]]``, whose ``U^dagger U``
is ``(x^2 + y^2 + z^2) I`` exactly, so ``U / rho`` is unitary up to
rounding: each product moves the norm by a few ulps, and the change of
``Im(a b*)`` that follows is within the bound's rounding slack. The
switch count and the field of every sample are those a test at every
step gives, and the amplitudes differ from that stepper's only in
rounding (within 1e-12 in the tests). Both kernels work on bare complex amplitudes and
return plain values: ``rk4_steps`` the final pair, ``sampled_law_steps``
the final pair, its switch count and the list of ``(a, b, f)`` after
every ``stride``-th step, which ``engine.run_oracle`` turns into samples.
"""

from __future__ import annotations

import math

#: Added to the per-step bound on the change of ``Im(a b*)``: the rounding of
#: one step, and of its renormalization or its division by ``rho``, moves it
#: by a few 1e-16, and of the test itself by about 2e-16.
_TURN_SLACK = 1e-13


def rk4_steps(a, b, omega, f, n_steps, h):
    # n_steps of classical RK4 on i d|psi>/dt = H |psi>, H = (omega/2) sz + f sx,
    # renormalized after every step. On this linear system one step is the
    # matrix M = sum_{k<=4} (-ihH)^k / k!, and H^2 = E^2 I reduces it to
    # M = c I - i d H with c = 1 - x^2/2 + x^4/24, d = h (1 - x^2/6), x = hE,
    # so M = |M| (cos(phi) I - i sin(phi) H/E) with phi = atan2(d E, c), and
    # M^n = |M|^n (cos(n phi) I - i sin(n phi) H/E). Renormalizing multiplies
    # by a positive scalar, which commutes with M, so the result is that
    # unitary applied once and renormalized once.
    if n_steps <= 0:
        return a, b
    hw = 0.5 * omega
    e2 = hw * hw + f * f
    e = math.sqrt(e2)
    x2 = h * h * e2
    c = 1.0 - 0.5 * x2 + x2 * x2 / 24.0
    d = h * (1.0 - x2 / 6.0)
    turn = n_steps * math.atan2(d * e, c)  # n phi
    cn = math.cos(turn)
    sn = math.sin(turn) / e
    r11, r12 = complex(cn, -sn * hw), complex(0.0, -sn * f)
    a, b = r11 * a + r12 * b, r12 * a + r11.conjugate() * b
    inv = 1.0 / math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    return a * inv, b * inv


def sampled_law_steps(a, b, s_max, eps_sw, n_steps, stride, up, um, uf):
    # n_steps of the bang law re-evaluated from Im(a b*) at every step, with
    # the one-step propagators up / um / uf for f = +s_max / -s_max / 0
    # (u21 = u12 for this Hamiltonian family); returns the final amplitudes,
    # the number of step-to-step field changes and the (a, b, f) after every
    # stride-th step. A test that finds Im(a b*) beyond +-far fixes the
    # field of more steps than its own (module docstring), cut at the next
    # sample and at the last step: the kernel takes all but the last of
    # these steps in _bang_steps, by the unit-norm step, and the last in the
    # loop's tail, whose renormalization ends the stretch, so the switch
    # count and the samples come out as for a test at every step.
    sqrt = math.sqrt
    up11, up12, up22 = up.u11, up.u12, up.u22
    um11, um12, um22 = um.u11, um.u12, um.u22
    uf11, uf22 = uf.u11, uf.u22
    vp11, vp12, vp22 = _unit(up)
    vm11, vm12, vm22 = _unit(um)
    # the most Im(a b*) moves in one bang step
    dsw = max(_sin_turn(up), _sin_turn(um)) + _TURN_SLACK
    # a stretch holds at most stride - 1 steps; one of one step costs more
    # than the test it skips
    far = eps_sw + 2.0 * dsw if stride > 2 else math.inf
    # the first step's field, so that the first step never counts as a switch
    sw = a.imag * b.real - a.real * b.imag
    f_prev = -s_max if sw > eps_sw else s_max if sw < -eps_sw else 0.0
    switches = 0
    samples = []
    k = 0  # steps taken
    while k < n_steps:
        sw = a.imag * b.real - a.real * b.imag  # Im(a conj(b))
        if sw > eps_sw:
            f = -s_max
            if sw > far:
                n = min(int((sw - eps_sw) / dsw), stride - k % stride, n_steps - k) - 1
                a, b = _bang_steps(a, b, vm11, vm12, vm22, n)
                k += n
            a, b = um11 * a + um12 * b, um12 * a + um22 * b
        elif sw < -eps_sw:
            f = s_max
            if sw < -far:
                n = min(int((-sw - eps_sw) / dsw), stride - k % stride, n_steps - k) - 1
                a, b = _bang_steps(a, b, vp11, vp12, vp22, n)
                k += n
            a, b = up11 * a + up12 * b, up12 * a + up22 * b
        else:
            f = 0.0
            a, b = uf11 * a, uf22 * b
        ar, ai = a.real, a.imag
        br, bi = b.real, b.imag
        inv = 1.0 / sqrt(ar * ar + ai * ai + br * br + bi * bi)
        a *= inv
        b *= inv
        if f != f_prev:
            switches += 1
        f_prev = f
        k += 1
        if k % stride == 0:
            samples.append((a, b, f))
    return a, b, switches, samples


def _sin_turn(u):
    # sin(Eh) of a step u = rho (cos(Eh) I - i sin(Eh) n.sigma), n = (n_x, 0, n_z):
    # u11 = rho (cos(Eh) - i sin(Eh) n_z) and u12 = -i rho sin(Eh) n_x
    return math.hypot(abs(u.u12), u.u11.imag) / math.hypot(abs(u.u11), abs(u.u12))


def _unit(u):
    # the entries u11, u12, u22 of the step u divided by its column norm rho
    inv = 1.0 / math.hypot(abs(u.u11), abs(u.u12))
    return u.u11 * inv, u.u12 * inv, u.u22 * inv


def _bang_steps(a, b, u11, u12, u22, n):
    # n steps of the law stepper under one bang field, untested, by a step
    # of unit norm; the caller renormalizes after them
    for _ in range(n):
        a, b = u11 * a + u12 * b, u12 * a + u22 * b
    return a, b
