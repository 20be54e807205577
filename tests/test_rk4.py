"""Reference integrator: right-hand side, convergence, energy, comparison."""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import sas_transim
from sas_transim import (DivergenceError, EventScript, MachineState,
                         SwingRhsParams, Trajectory, ValidationError,
                         equilibrium_state)
from sas_transim.rk4 import (CompareReport, IntegratorConfig, _resample,
                             compare, fault_on_bootstrap, integrate)

from test_adm import OMEGA0, table1_rhs, table1_state


def test_rhs_zero_at_equilibrium(ieee9_case):
    rhs = SwingRhsParams.from_case(ieee9_case, "pre_fault")
    eq = equilibrium_state(ieee9_case.generators)
    domega = rhs.acceleration(eq.delta, eq.omega_dev)
    assert np.abs(domega).max() < 1e-6


def test_rhs_value_at_table_state():
    """Acceleration at the published initial state: the constant nonlinearity
    value minus the damping term, computed directly from the formula."""
    rhs = table1_rhs()
    st = table1_state()
    domega = rhs.acceleration(st.delta, st.omega_dev)
    a0 = (OMEGA0 / 6.0) * (rhs.pm[0] - 1.7 * math.sin(1.0472 + 0.0957))
    expected = a0 - (1.0 / 6.0) * 3.7639
    assert domega[0] == pytest.approx(expected, rel=1e-12)
    assert domega[0] == pytest.approx(-5.307, abs=5e-3)


def test_rhs_antisymmetric_pair():
    """Two identical machines displaced oppositely see opposite accelerations
    through a lossless symmetric coupling."""
    y = (np.array([[0.0, 1.2], [1.2, 0.0]])
         * np.exp(1j * np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]])))
    rhs = SwingRhsParams(h=np.array([4.0, 4.0]), d=np.zeros(2),
                         pm=np.zeros(2), e=np.ones(2), y=y,
                         omega0=OMEGA0)
    st = MachineState(np.array([0.3, -0.3]), np.zeros(2))
    domega = rhs.acceleration(st.delta, st.omega_dev)
    assert domega[0] == pytest.approx(-domega[1], rel=1e-12)
    assert abs(domega[0]) > 1.0


def test_integrate_free_motion_exact():
    """With zero nonlinearity and no damping, RK4 is exact: delta(t) =
    delta(0) + omega(0) t."""
    rhs = SwingRhsParams(
        h=np.array([5.0]), d=np.array([0.0]), pm=np.array([0.0]),
        e=np.array([1.0]),
        y=np.zeros((1, 1)),
        omega0=OMEGA0)
    st = MachineState(np.array([0.2]), np.array([1.5]))
    traj = integrate(rhs, st, 0.985, IntegratorConfig(dt=1e-3))
    assert traj.times[-1] == pytest.approx(0.985, abs=1e-12)
    want = 0.2 + 1.5 * traj.times
    assert np.abs(traj.delta[:, 0] - want).max() < 1e-12


def smib_energy(rhs, delta, omega):
    """First integral of the undamped single-machine motion."""
    h, pm, eey = 3.0, rhs.pm[0], 1.7
    return (h / rhs.omega0) * omega ** 2 - pm * delta - eey * np.cos(delta)


def test_integrate_conserves_undamped_energy():
    rhs = table1_rhs(d=0.0)
    st = table1_state()
    traj = integrate(rhs, st, 5.0, IntegratorConfig(dt=1e-3, record_every=10))
    e = smib_energy(rhs, traj.delta[:, 0], traj.omega_dev[:, 0])
    drift = np.abs(e - e[0]).max() / abs(e[0])
    assert drift < 1e-6


def test_integrate_fourth_order_self_convergence():
    """Halving the step shrinks the endpoint difference about sixteenfold."""
    rhs = table1_rhs(d=0.0)
    st = table1_state()

    def end(dt):
        return integrate(rhs, st, 1.0,
                         IntegratorConfig(dt=dt, record_every=10 ** 9)).delta[-1, 0]

    d1 = end(1e-3) - end(5e-4)
    d2 = end(5e-4) - end(2.5e-4)
    assert abs(d1) < 1e-8
    assert 12.0 < abs(d1) / abs(d2) < 20.0


def test_integrate_reference_frame_invariance():
    """Uniformly shifting all angles and the coupling angles consistently
    leaves relative angles unchanged."""
    base = table1_rhs(d=0.0)
    st = table1_state()
    # delta_i - delta_j is unchanged when every angle moves together, so the
    # same network serves both runs; only the initial angles shift.
    st2 = MachineState(st.delta + 0.7, st.omega_dev)
    t1 = integrate(base, st, 1.0, IntegratorConfig(dt=1e-3, record_every=100))
    t2 = integrate(base, st2, 1.0, IntegratorConfig(dt=1e-3, record_every=100))
    rel1 = t1.delta[:, 0] - t1.delta[:, 1]
    rel2 = t2.delta[:, 0] - t2.delta[:, 1]
    assert np.abs(rel1 - rel2).max() < 1e-12


def test_integrate_divergence_reports_time():
    """Only actual float overflow counts as divergence. The first step takes
    machine 0's angle past the float range; the error names the step's end
    time and the machine."""
    rhs = table1_rhs(d=0.0)
    st = MachineState(np.array([1e308, 0.0]), np.array([1e308, 0.0]))
    with pytest.raises(DivergenceError, match=r"t=0\.05s \(machine 0\)") as err:
        integrate(rhs, st, 1.0, IntegratorConfig(dt=0.05))
    assert err.value.t == 0.05
    assert err.value.machine == 0


def test_integrate_divergence_names_the_first_non_finite_machine():
    """A speed that overflows counts like an angle: machine 1 of three."""
    y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) * 1j
    rhs = SwingRhsParams(h=np.full(3, 4.0), d=np.zeros(3), pm=np.zeros(3),
                         e=np.ones(3), y=y, omega0=OMEGA0)
    st = MachineState(np.zeros(3), np.array([0.0, 1e308, 0.0]))
    with pytest.raises(DivergenceError) as err:
        integrate(rhs, st, 1.0, IntegratorConfig(dt=0.1))
    assert err.value.machine == 1


@pytest.mark.parametrize("value", [2.5, 3.0, math.nan, math.inf, "2", True])
def test_integrator_config_refuses_a_non_integer_record_every(value):
    with pytest.raises(ValidationError, match="record_every"):
        IntegratorConfig(record_every=value)


@pytest.mark.parametrize("value", [0, -3])
def test_integrator_config_refuses_record_every_below_one(value):
    with pytest.raises(ValidationError, match="record_every"):
        IntegratorConfig(record_every=value)


def test_unbounded_growth_is_not_an_error():
    """An unstable case grows without wrapping and without failing."""
    rhs = table1_rhs()
    st = MachineState(np.array([1.1429, 0.0]), np.array([8.0, 0.0]))
    traj = integrate(rhs, st, 1.5, IntegratorConfig(dt=1e-3, record_every=100))
    assert traj.delta[-1, 0] > 2 * math.pi


# ---------------------------------------------------------------------------
# The in-place step loop against the allocating loop it replaced


def allocating_power(rhs, delta):
    sc = np.concatenate((np.sin(delta), np.cos(delta)))
    return (sc * (rhs.coupling @ sc)).reshape(2, rhs.k).sum(axis=0)


def allocating_acceleration(rhs, delta, omega_dev):
    return rhs.gain * (rhs.pm - allocating_power(rhs, delta)) - rhs.a * omega_dev


def allocating_step(rhs, delta, omega, dt):
    k1d = omega
    k1w = allocating_acceleration(rhs, delta, omega)
    k2d = omega + 0.5 * dt * k1w
    k2w = allocating_acceleration(rhs, delta + 0.5 * dt * k1d, k2d)
    k3d = omega + 0.5 * dt * k2w
    k3w = allocating_acceleration(rhs, delta + 0.5 * dt * k2d, k3d)
    k4d = omega + dt * k3w
    k4w = allocating_acceleration(rhs, delta + dt * k3d, k4d)
    delta = delta + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    omega = omega + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return delta, omega


def allocating_integrate(rhs, state0, horizon, cfg, t0=0.0):
    """The step loop ``integrate`` ran before it stepped in place: a fresh
    array per operation and a list append per sample."""
    dt = cfg.dt
    n_full = int(math.floor(horizon / dt + 1e-9))
    remainder = horizon - n_full * dt
    if remainder < 1e-12 * max(1.0, horizon):
        remainder = 0.0
    n_steps = n_full + (remainder > 0.0)
    delta = state0.delta.copy()
    omega = state0.omega_dev.copy()
    times, deltas, omegas = [t0], [delta.copy()], [omega.copy()]
    for step in range(1, n_steps + 1):
        h, t = (dt, t0 + step * dt) if step <= n_full else (remainder, t0 + horizon)
        delta, omega = allocating_step(rhs, delta, omega, h)
        if step % cfg.record_every == 0 or step == n_steps:
            times.append(t)
            deltas.append(delta.copy())
            omegas.append(omega.copy())
    return np.array(times), np.array(deltas), np.array(omegas)


def assert_same_bytes(traj, times, delta, omega):
    assert traj.times.tobytes() == times.tobytes()
    assert traj.delta.tobytes() == delta.tobytes()
    assert traj.omega_dev.tobytes() == omega.tobytes()


def faulted(case):
    if case.events is None:   # smib: a short bolted fault at its bus 2
        case = replace(case, events=EventScript(fault_bus=2, t_clear=0.05))
    return case


@pytest.mark.parametrize("case_name", ["smib_case", "ieee9_case", "ieee39_case"])
def test_in_place_loop_reproduces_the_allocating_loop_bytes(request, case_name):
    """Bootstrap and post-fault runs are byte for byte those of the
    allocating loop: 0.5 s is 500 whole 1 ms steps, or 71 steps of 7 ms and
    a shortened last one; samples every step, every 7th and only the end."""
    case = faulted(request.getfixturevalue(case_name))
    ev = case.events
    state, boot = fault_on_bootstrap(case)
    rhs_fault = SwingRhsParams.from_case(case, "fault_on")
    want = allocating_integrate(rhs_fault, equilibrium_state(case.generators),
                                ev.t_clear - ev.t_fault, IntegratorConfig(), ev.t_fault)
    assert_same_bytes(boot, *want)
    rhs = SwingRhsParams.from_case(case, "post_fault")
    for dt in (1e-3, 7e-3):
        for every in (1, 7, 10 ** 9):
            cfg = IntegratorConfig(dt=dt, record_every=every)
            traj = integrate(rhs, state, 0.5, cfg, t0=ev.t_clear)
            assert_same_bytes(traj, *allocating_integrate(rhs, state, 0.5, cfg, ev.t_clear))


@pytest.mark.parametrize("case_name", ["smib_case", "ieee9_case", "ieee39_case"])
def test_acceleration_and_power_reproduce_the_allocating_formula(request, case_name):
    case = request.getfixturevalue(case_name)
    rhs = SwingRhsParams.from_case(case, "post_fault")
    eq = equilibrium_state(case.generators)
    rng = np.random.default_rng(3)
    for _ in range(10):
        delta = eq.delta + rng.normal(0.0, 1.0, rhs.k)
        omega = rng.normal(0.0, 3.0, rhs.k)
        want = allocating_acceleration(rhs, delta, omega)
        assert rhs.acceleration(delta, omega).tobytes() == want.tobytes()
        want = allocating_power(rhs, delta)
        assert rhs.electrical_power(delta).tobytes() == want.tobytes()


def test_power_of_a_decoupled_machine_keeps_the_allocating_zero():
    """With no coupling, S V and C U are both -0.0 in the third quadrant;
    the row sum starts from +0.0, as the allocating formula's did."""
    rhs = SwingRhsParams(h=np.array([3.0]), d=np.zeros(1), pm=np.zeros(1),
                         e=np.ones(1), y=np.zeros((1, 1)), omega0=OMEGA0)
    delta = np.array([-2.5])
    assert rhs.electrical_power(delta).tobytes() == allocating_power(rhs, delta).tobytes()


@settings(max_examples=25, deadline=None)
@given(dt=strategies.floats(2e-3, 0.1), horizon=strategies.floats(1e-3, 1.0),
       every=strategies.integers(1, 60), t0=strategies.sampled_from([0.0, 0.1, 2.5]))
def test_integrate_records_the_start_every_nth_step_and_the_end(dt, horizon, every, t0):
    """Samples are the start, every ``record_every``-th step and the final
    point, each equal to the run that records every step. That run's times
    are t0 + n dt, then t0 + horizon after a last step of at most dt."""
    rhs, state = table1_rhs(), table1_state()   # smib against a fixed node
    every_step = integrate(rhs, state, horizon, IntegratorConfig(dt=dt), t0=t0)
    traj = integrate(rhs, state, horizon, IntegratorConfig(dt=dt, record_every=every), t0=t0)
    n_steps = every_step.times.size - 1
    picked = list(range(0, n_steps + 1, every))
    if picked[-1] != n_steps:
        picked.append(n_steps)
    assert_same_bytes(traj, every_step.times[picked], every_step.delta[picked],
                      every_step.omega_dev[picked])
    assert every_step.times[:-1].tobytes() == (t0 + np.arange(n_steps) * dt).tobytes()
    assert every_step.times[-1] == t0 + horizon
    assert 0 < every_step.times[-1] - every_step.times[-2] <= dt * (1 + 1e-9)
    assert (np.diff(traj.times) > 0).all()


# ---------------------------------------------------------------------------
# Fault-on bootstrap


def test_bootstrap_zero_length_fault(smib_case):
    case = replace(smib_case,
                   events=EventScript(fault_bus=2, t_clear=0.0, t_fault=0.0))
    state, traj = fault_on_bootstrap(case)
    eq = equilibrium_state(smib_case.generators)
    assert np.array_equal(state.delta, eq.delta)
    assert traj.times.size == 1


def test_bootstrap_requires_events(smib_case):
    with pytest.raises(ValidationError):
        fault_on_bootstrap(smib_case)


def test_bootstrap_marginal_flip_consistent_across_engines(smib_case):
    """Doubling the fault duration on a marginal case flips the verdict from
    bounded to unbounded in both engines."""
    from sas_transim import WindowConfig, simulate_sas

    def verdict(t_clear, engine):
        case = replace(smib_case,
                       events=EventScript(fault_bus=2, t_clear=t_clear))
        state, _ = fault_on_bootstrap(case, IntegratorConfig(dt=2e-4))
        rhs = SwingRhsParams.from_case(case, "post_fault")
        d0 = case.generators[0].delta0
        if engine == "rk4":
            traj = integrate(rhs, state, 2.0, IntegratorConfig(dt=1e-3))
        else:
            traj = simulate_sas(rhs, state, 2.0,
                                WindowConfig(t_init=0.02, n_terms=4))
        return bool(np.abs(traj.delta[:, 0] - d0).max() < math.pi)

    t1 = 0.03
    assert verdict(t1, "rk4") and verdict(t1, "sas")
    assert (not verdict(2 * t1, "rk4")) and (not verdict(2 * t1, "sas"))


def test_bootstrap_fault_state_accelerates(ieee39_case):
    """During a bolted fault at bus 2 the nearby machine sheds its load and
    accelerates at roughly omega0 Pm / 2H."""
    state, traj = fault_on_bootstrap(ieee39_case)
    pos = ieee39_case.generator_position(30)
    g = ieee39_case.generator_at(30)
    approx = ieee39_case.omega0 * g.Pm / (2 * g.H) * ieee39_case.events.t_clear
    assert state.omega_dev[pos] == pytest.approx(approx, rel=0.15)
    assert traj.times[0] == 0.0


# ---------------------------------------------------------------------------
# Trajectory comparison


def make_traj(times, delta, source="rk4"):
    delta = np.asarray(delta, dtype=float)
    return Trajectory(times=np.asarray(times, dtype=float), delta=delta,
                      omega_dev=np.zeros_like(delta), source=source)


def test_compare_identical_is_zero():
    t = np.linspace(0, 1, 11)
    d = np.stack([np.sin(t), np.cos(t)], axis=1)
    rep = compare(make_traj(t, d), make_traj(t, d))
    assert rep.overall_max == 0.0
    assert np.all(rep.rmse == 0.0)


def test_compare_shift_oracle():
    """Comparing a trajectory against a 1 ms shifted copy of itself measures
    max|omega| * 1e-3, which validates the resampler."""
    rhs = table1_rhs(d=0.0)
    st = table1_state()
    a = integrate(rhs, st, 2.0, IntegratorConfig(dt=1e-3))
    shifted = Trajectory(times=a.times + 1e-3, delta=a.delta,
                         omega_dev=a.omega_dev, source="rk4")
    rep = compare(a, shifted)
    expected = np.abs(a.omega_dev[:, 0]).max() * 1e-3
    assert rep.max_abs_err[0] == pytest.approx(expected, rel=0.02)


def test_compare_relative_reference():
    t = np.linspace(0, 1, 21)
    d = np.stack([np.sin(t), 0.2 * t], axis=1)
    b = d + 0.3   # common-mode offset cancels in relative angles
    rep = compare(make_traj(t, d), make_traj(t, b), reference_machine=1)
    assert rep.overall_max < 1e-12


def test_compare_disjoint_ranges_error():
    a = make_traj([0.0, 1.0], [[0.0], [1.0]])
    b = make_traj([2.0, 3.0], [[0.0], [1.0]])
    with pytest.raises(ValidationError, match="disjoint"):
        compare(a, b)


def test_compare_machine_count_mismatch():
    a = make_traj([0.0, 1.0], [[0.0], [1.0]])
    b = make_traj([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="machine counts"):
        compare(a, b)


def test_compare_report_format():
    t = np.linspace(0, 1, 11)
    d = np.stack([np.sin(t)], axis=1)
    rep = compare(make_traj(t, d), make_traj(t, d + 1e-3))
    text = rep.format()
    assert "max|d_delta|" in text and "overall max" in text
    assert isinstance(rep, CompareReport)


def _post_fault_run(name, cfg):
    """One second of the built-in case after its disturbance: smib from its
    stated initial state, ieee9 from the end of its fault-on interval."""
    case = sas_transim.initialized_case(sas_transim.builtin_case(name))
    if case.events is None:
        rhs = SwingRhsParams.from_case(case, "pre_fault")
        state = MachineState(np.array(case.initial_delta), np.array(case.initial_omega))
    else:
        state, _ = fault_on_bootstrap(case)
        rhs = SwingRhsParams.from_case(case, "post_fault")
    return integrate(rhs, state, 1.0, cfg)


@pytest.mark.parametrize("name", ["smib", "ieee9"])
def test_hermite_resampling_of_a_1ms_run(name):
    """A dt = 1 ms RK4 run resampled onto the dt = 1e-4 grid stays within
    1.6e-10 rad of the fine run: measured 7.8e-11 (smib) and 5.9e-11
    (ieee9), mostly the coarse run's own step error, with a 2x margin. The
    interpolation alone, on the fine run's every tenth sample, is within
    1.5e-11 rad (measured 7.3e-12 and 3.6e-12, 2x margin). Neither is
    larger than a not-a-knot cubic spline's on the same samples."""
    from scipy.interpolate import CubicSpline
    fine = _post_fault_run(name, IntegratorConfig(dt=1e-4))
    coarse = _post_fault_run(name, IntegratorConfig(dt=1e-3))
    tenth = _post_fault_run(name, IntegratorConfig(dt=1e-4, record_every=10))
    assert np.array_equal(tenth.delta, fine.delta[::10])
    for b, bound in ((coarse, 1.6e-10), (tenth, 1.5e-11)):
        err = compare(fine, b).overall_max
        spline = CubicSpline(b.times, b.delta, axis=0)(fine.times)
        assert err <= bound
        assert err <= np.abs(spline - fine.delta).max()


def test_resample_reproduces_a_cubic():
    """Cubic Hermite interpolation on angles and their rates is exact for a
    cubic in t, on a non-uniform grid and on two samples, between the
    samples and a little beyond them."""
    def cubic(t):
        t = np.asarray(t, dtype=float)[:, None]
        return (np.hstack([t ** 3 - 2 * t, 0.5 * t ** 2 + 1]),
                np.hstack([3 * t ** 2 - 2, t]))
    queries = np.linspace(-0.05, 1.05, 45)
    for grid in ([0.0, 0.1, 0.15, 0.4, 0.7, 1.0], [0.0, 1.0]):
        traj = Trajectory(times=np.array(grid), delta=cubic(grid)[0],
                          omega_dev=cubic(grid)[1], source="rk4")
        np.testing.assert_allclose(_resample(traj, queries), cubic(queries)[0],
                                   rtol=0, atol=1e-14)


def test_resample_at_the_samples_and_on_the_same_grid():
    """A query at a sample, the last one included, returns that sample's
    angles exactly, and on the trajectory's own grid its angle array itself
    comes back."""
    t = np.array([0.0, 0.3, 0.5, 1.25])
    d = np.stack([np.sin(3 * t), np.cos(t)], axis=1)
    w = np.stack([3 * np.cos(3 * t), -np.sin(t)], axis=1)
    traj = Trajectory(times=t, delta=d, omega_dev=w, source="rk4")
    assert np.array_equal(_resample(traj, t[[3, 0, 2]]), d[[3, 0, 2]])
    assert _resample(traj, t.copy()) is traj.delta
    two = Trajectory(times=t[:2], delta=d[:2], omega_dev=w[:2], source="rk4")
    assert np.array_equal(_resample(two, t[1:2]), d[1:2])


def test_compare_against_a_one_sample_bootstrap(ieee9_case):
    """A zero-length fault's bootstrap is one sample; compared against a
    run from the same equilibrium it resamples to that sample, so the
    overlap at t = 0 shows no error, and off its time it stays constant."""
    case = replace(ieee9_case, events=EventScript(fault_bus=7, t_clear=0.0, t_fault=0.0))
    eq, one = fault_on_bootstrap(case)
    assert one.times.size == 1
    run = integrate(SwingRhsParams.from_case(case, "post_fault"), eq, 0.01)
    rep = compare(run, one)
    assert rep.times.size == 1 and rep.overall_max == 0.0
    assert np.array_equal(_resample(one, np.array([-1.0, 0.0, 2.0])),
                          np.repeat(one.delta, 3, axis=0))


def test_library_loads_and_compares_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with every scipy import
    refused, the package loads and compares two ieee9 RK4 runs, and scipy
    is never imported."""
    script = textwrap.dedent("""
        import sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError("scipy is refused")
                return None

        sys.meta_path.insert(0, RefuseScipy())
        import sas_transim
        from sas_transim.rk4 import IntegratorConfig, integrate
        case = sas_transim.initialized_case(sas_transim.builtin_case("ieee9"))
        state, _ = sas_transim.fault_on_bootstrap(case)
        rhs = sas_transim.SwingRhsParams.from_case(case, "post_fault")
        a = integrate(rhs, state, 0.2, IntegratorConfig(dt=1e-3))
        b = integrate(rhs, state, 0.2, IntegratorConfig(dt=4e-3))
        print(sas_transim.compare(a, b).overall_max)
        assert "scipy" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(sas_transim.__file__))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert 0.0 < float(proc.stdout) < 1e-4
