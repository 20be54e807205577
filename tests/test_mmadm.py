"""Multistage driver: indicator, handoff, sampling, adaptivity, CSV format."""

import io
import math
import warnings

import numpy as np
import pytest

from sas_transim import adm
from sas_transim import (DivergenceError, MachineState, SwingRhsParams,
                         Trajectory, ValidationError, WindowConfig,
                         derive_window, eval_window, handoff_state, i_loa,
                         simulate_sas)
from sas_transim.mmadm import read_csv
from sas_transim.ra import ra_inputs_for_machine, estimate_ra
from sas_transim.rk4 import IntegratorConfig, fault_on_bootstrap, integrate

from test_adm import pinned_window_terms, table1_rhs, table1_state


def test_config_validation():
    with pytest.raises(ValidationError):
        WindowConfig(t_init=0.0)
    with pytest.raises(ValidationError):
        WindowConfig(t_init=0.1, i_loa_max=-1.0)
    with pytest.raises(ValidationError):
        WindowConfig(t_init=0.1, adaptive=True, n_terms=2)
    with pytest.raises(ValidationError):
        WindowConfig(t_init=0.1, samples_per_window=2)
    with pytest.raises(TypeError):   # the analytic derivative is the only handoff
        WindowConfig(t_init=0.1, handoff_mode="two_point")


@pytest.mark.parametrize("field", ["n_terms", "samples_per_window"])
@pytest.mark.parametrize("value", [3.5, 4.0, math.nan, math.inf, "4"])
def test_config_refuses_a_non_integer_count(field, value):
    with pytest.raises(ValidationError, match=field):
        WindowConfig(t_init=0.1, **{field: value})


def test_config_accepts_numpy_integer_counts():
    cfg = WindowConfig(t_init=0.1, n_terms=np.int64(4), samples_per_window=np.int32(5))
    traj = simulate_sas(table1_rhs(), table1_state(), 0.2, cfg)
    assert traj.times.size == 1 + 2 * 4


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_requires_finite_iloa_max(value):
    with pytest.raises(ValidationError, match="i_loa_max"):
        WindowConfig(t_init=0.1, i_loa_max=value)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_requires_finite_t_init(value):
    with pytest.raises(ValidationError, match="t_init"):
        WindowConfig(t_init=value)


# ---------------------------------------------------------------------------
# Indicator


def test_i_loa_zero_at_window_start():
    """Terms beyond the second start at degree >= 2, so the indicator's value
    and slope vanish at local time zero."""
    w = derive_window(table1_rhs(), table1_state(), 3, window=0.3)
    assert i_loa(w, 0.0) == 0.0


def test_i_loa_grows_into_the_window():
    w = derive_window(table1_rhs(), table1_state(), 5, window=0.5)
    early = i_loa(w, 0.1)
    late = i_loa(w, 0.3)
    assert late > 10 * early
    # monotone growth beyond the trust region
    vals = [i_loa(w, t) for t in np.linspace(0.2, 0.5, 10)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_i_loa_zero_for_free_motion():
    from sas_transim import SwingRhsParams
    rhs = SwingRhsParams(
        h=np.array([4.0]), d=np.array([0.0]), pm=np.array([0.0]),
        e=np.array([1.0]),
        y=np.zeros((1, 1)),
        omega0=377.0)
    w = derive_window(rhs, MachineState(np.array([0.1]), np.array([2.0])), 4,
                      window=1.0)
    assert all(i_loa(w, t) == 0.0 for t in (0.0, 0.5, 1.0))


# ---------------------------------------------------------------------------
# Handoff


def test_handoff_exact_on_linear_polynomial():
    """Free motion from (0.1, 2.0) is the line 0.1 + 2 t: the handoff at
    t = 0.3 is (0.7, 2.0)."""
    from sas_transim import SwingRhsParams
    rhs = SwingRhsParams(
        h=np.array([4.0]), d=np.array([0.0]), pm=np.array([0.0]),
        e=np.array([1.0]),
        y=np.zeros((1, 1)),
        omega0=377.0)
    w = derive_window(rhs, MachineState(np.array([0.1]), np.array([2.0])), 3,
                      window=0.4)
    a = handoff_state(w, 0.3)
    assert np.allclose(a.delta, [0.7], rtol=0.0, atol=1e-15)
    assert np.allclose(a.omega_dev, [2.0], rtol=0.0, atol=1e-15)


def test_handoff_range_check():
    w = derive_window(table1_rhs(), table1_state(), 3, window=0.2)
    with pytest.raises(ValidationError):
        handoff_state(w, 0.0)
    with pytest.raises(ValidationError):
        handoff_state(w, 0.25)


# ---------------------------------------------------------------------------
# Driver


def test_single_window_horizon():
    """Horizon equal to the window gives exactly one window whose final
    sample equals the window evaluation at its end."""
    rhs = table1_rhs()
    st = table1_state()
    traj = simulate_sas(rhs, st, 0.17, WindowConfig(t_init=0.17))
    assert traj.window_boundaries.size == 1
    w = derive_window(rhs, st, 3, window=0.17)
    from sas_transim import eval_window
    end = eval_window(w, 0.17)
    assert np.allclose(traj.delta[-1], end.delta, rtol=0.0, atol=1e-15)
    assert traj.times[-1] == pytest.approx(0.17, abs=1e-12)


def test_trajectory_starts_with_initial_state():
    st = table1_state()
    traj = simulate_sas(table1_rhs(), st, 0.5, WindowConfig(t_init=0.1))
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.delta[0], st.delta)


def test_window_boundary_continuity():
    """Angles are continuous across every boundary to 1e-12 (speeds too in
    analytic mode): re-deriving from the handoff reproduces the boundary."""
    rhs = table1_rhs()
    st = table1_state()
    traj = simulate_sas(rhs, st, 1.0, WindowConfig(t_init=0.1))
    state = st
    for b in traj.window_boundaries[:-1]:
        w = derive_window(rhs, state, 3, window=0.1)
        nxt = handoff_state(w, 0.1)
        i = int(np.argmin(np.abs(traj.times - b)))
        assert traj.times[i] == pytest.approx(b, abs=1e-12)
        assert np.abs(traj.delta[i] - nxt.delta).max() < 1e-12
        assert np.abs(traj.omega_dev[i] - nxt.omega_dev).max() < 1e-12
        state = nxt


def test_sample_placement_analytic():
    traj = simulate_sas(table1_rhs(), table1_state(), 0.2,
                        WindowConfig(t_init=0.2))
    assert np.allclose(traj.times, [0.0, 0.1, 0.2], rtol=0.0, atol=1e-12)


def test_last_window_clipped_to_horizon():
    traj = simulate_sas(table1_rhs(), table1_state(), 0.25,
                        WindowConfig(t_init=0.1))
    assert traj.times[-1] == pytest.approx(0.25, abs=1e-12)
    assert traj.window_boundaries.size == 3


def test_accuracy_within_trust_region_randomized():
    """Single windows cut well inside the estimated accuracy window stay
    within 0.01 rad of RK4 over randomized initial speeds up to 4 rad/s.

    The indicator-based window marks figure-level accuracy; the strict
    0.01 rad region is smaller. min(0.4 R_A, 0.12 s) is the calibrated
    strict-tolerance cut (the absolute cap covers quiet states whose
    indicator stays small for a long time).
    """
    rng = np.random.default_rng(11)
    rhs = table1_rhs()
    from sas_transim import builtin_case, initialized_case
    case = initialized_case(builtin_case("smib"))
    for _ in range(6):
        st = MachineState(
            np.array([1.0472 + rng.uniform(-0.3, 0.3), 0.0]),
            np.array([rng.uniform(-4.0, 4.0), 0.0]))
        inp = ra_inputs_for_machine(case, 2, st, i_loa_max=5.0,
                                    reference=("gen", 1))
        ra = estimate_ra(inp).r_a
        if not math.isfinite(ra):
            continue
        t_w = min(0.4 * ra, 0.12)
        w = derive_window(rhs, st, 3, window=t_w)
        traj = integrate(rhs, st, t_w, IntegratorConfig(dt=1e-4))
        from sas_transim import eval_window
        for t, d in zip(traj.times[::20], traj.delta[::20, 0]):
            got = eval_window(w, t).delta[0]
            assert abs(got - d) < 0.01


def test_n_benefit_at_figure_resolution():
    """The time to first exceed a figure-resolution error (0.02 rad) against
    RK4 does not decrease with the term count for N = 5..8."""
    rhs = table1_rhs()
    st = table1_state()
    rk = integrate(rhs, st, 0.8, IntegratorConfig(dt=1e-3))
    import sas_transim.adm as adm
    breaches = []
    for n in (5, 6, 7, 8):
        w = derive_window(rhs, st, n)
        err = np.abs(adm._polyval(w.terms.sum(axis=-3)[0], rk.times) - rk.delta[:, 0])
        idx = np.argwhere(err > 0.02)
        breaches.append(rk.times[idx[0, 0]] if idx.size else 0.8)
    assert all(b >= a - 1e-12 for a, b in zip(breaches, breaches[1:])), breaches
    assert breaches[0] >= 0.2


def test_adaptive_cut_keeps_indicator_below_threshold():
    """Adaptive boundaries never carry an indicator value above the limit."""
    rhs = table1_rhs()
    st = MachineState(np.array([1.1429, 0.0]), np.array([4.5, 0.0]))
    cfg = WindowConfig(t_init=0.25, n_terms=3, adaptive=True, i_loa_max=2.0,
                       samples_per_window=8)
    traj = simulate_sas(rhs, st, 1.5, cfg)
    assert traj.adaptive_cuts > 0
    state = st
    t_prev = 0.0
    for b in traj.window_boundaries:
        t_w = min(0.25, 1.5 - t_prev)
        w = derive_window(rhs, state, 3, window=t_w)
        cut = b - t_prev
        assert i_loa(w, cut) <= 2.0 + 1e-9
        state = handoff_state(w, cut)
        t_prev = b


@pytest.mark.parametrize("cfg", [
    WindowConfig(t_init=0.1, n_terms=5),
    WindowConfig(t_init=0.1, n_terms=4, samples_per_window=5),
    WindowConfig(t_init=0.25, n_terms=3, adaptive=True, i_loa_max=2.0,
                 samples_per_window=8),
], ids=["analytic", "n4-five-samples", "adaptive-cut"])
def test_driver_samples_equal_eval_window_bit_for_bit(cfg):
    """The driver evaluates angle, speed and indicator in one pass per
    window. Replayed window by window, every recorded sample equals
    eval_window at its local time, the cut falls before the first sample
    whose i_loa exceeds the limit, and the handed state equals
    handoff_state, all bit for bit."""
    rhs = table1_rhs()
    st = MachineState(np.array([1.1429, 0.0]), np.array([4.5, 0.0]))
    horizon = 1.5
    traj = simulate_sas(rhs, st, horizon, cfg)
    assert (traj.adaptive_cuts > 0) == cfg.adaptive
    row, elapsed, state = 1, 0.0, st
    for boundary in traj.window_boundaries:
        t_w = min(cfg.t_init, horizon - elapsed)
        w = derive_window(rhs, state, cfg.n_terms, window=t_w)
        samples = np.linspace(0.0, t_w, cfg.samples_per_window)[1:]
        if cfg.adaptive:
            over = [i for i, s in enumerate(samples) if i_loa(w, s) > cfg.i_loa_max]
            samples = samples[:over[0]] if over else samples
        state = handoff_state(w, samples[-1])
        for s in samples:
            want = state if s == samples[-1] else eval_window(w, s)
            assert traj.times[row] == elapsed + s
            assert np.array_equal(traj.delta[row], want.delta)
            assert np.array_equal(traj.omega_dev[row], want.omega_dev)
            row += 1
        elapsed += samples[-1]
        assert boundary == elapsed
    assert row == traj.times.size


def allocating_polyval(c, t):
    """Horner's rule with a new array per step, as the driver evaluated
    before its steps ran in place."""
    acc = c[..., -1] + np.zeros_like(np.asarray(t, dtype=float))
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = acc * t + c[..., k]
    return acc


def separate_rows(w, with_loa):
    """The evaluation rows as derived before windows carried one block:
    the sum, its derivative and the last term's derivative were three
    arrays built with the window, and the driver stacked them for its
    Horner pass, padding each derivative's missing top coefficient with a
    zero. ``w`` is a window or its terms."""
    x = getattr(w, "terms", w)
    ks = np.arange(1.0, x.shape[-1])
    total = x.sum(axis=-3)
    sum_deriv = total[..., 1:] * ks
    last_term_deriv = x[..., -1, :, :][..., 1:] * ks
    rows = np.zeros((3 if with_loa else 2,) + total.shape)
    rows[0] = total
    rows[1, ..., :-1] = sum_deriv
    if with_loa:
        rows[2, ..., :-1] = last_term_deriv
    return rows, (total, sum_deriv, last_term_deriv)


def window_by_window_simulate(rhs, state, horizon, cfg, t0):
    """The window driver as a loop of separate steps: each window's terms
    by test_adm's pinned recursion, its rows built apart and evaluated
    with allocating Horner steps, its end state handed on through
    MachineState. Returns times, angles, speeds, window boundaries and the
    number of adaptive cuts."""
    times, deltas, omegas = [np.array([t0])], [state.delta[None, :]], [state.omega_dev[None, :]]
    boundaries, cuts = [], 0
    elapsed, eps = 0.0, 1e-12 * max(1.0, horizon)
    grid = np.linspace(0.0, cfg.t_init, cfg.samples_per_window)[1:]
    while elapsed < horizon - eps:
        t_w = min(cfg.t_init, horizon - elapsed)
        rows = separate_rows(pinned_window_terms(rhs, state, cfg.n_terms), cfg.adaptive)[0]
        samples = (grid if t_w == cfg.t_init
                   else np.linspace(0.0, t_w, cfg.samples_per_window)[1:])
        vals = allocating_polyval(rows, samples[:, None, None])
        if cfg.adaptive:
            over = np.flatnonzero(np.abs(vals[:, 2]).max(axis=1) > cfg.i_loa_max)
            if over.size:
                assert over[0] > 0 and samples[over[0] - 1] >= cfg.t_init / 100.0
                samples, vals = samples[:over[0]], vals[:over[0]]
                cuts += 1
        state = MachineState(vals[-1, 0], vals[-1, 1])
        times.append(t0 + elapsed + samples)
        deltas.append(vals[:, 0])
        omegas.append(vals[:, 1])
        elapsed += samples[-1]
        boundaries.append(t0 + elapsed)
    return (np.concatenate(times), np.concatenate(deltas), np.concatenate(omegas),
            np.array(boundaries), cuts)


def post_fault_start(case):
    """The post-fault model and the state a simulation of ``case`` starts
    from: the fault-on bootstrap's end, or the case's given state."""
    rhs = SwingRhsParams.from_case(case, "post_fault")
    if case.events is not None and case.events.fault_bus is not None:
        state, _ = fault_on_bootstrap(case, IntegratorConfig(dt=1e-3))
        return rhs, state, case.events.t_clear
    return rhs, MachineState(case.initial_delta, case.initial_omega), 0.0


@pytest.mark.parametrize("adaptive", [False, True], ids=["analytic", "adaptive"])
@pytest.mark.parametrize("case_name, t_init, i_loa_max", [
    ("smib_case", 0.15, 0.1), ("ieee9_case", 0.15, 0.1), ("ieee39_case", 0.07, 3.0),
], ids=["smib", "ieee9", "ieee39"])
def test_one_block_reproduces_the_separate_rows_bytes(request, case_name, t_init,
                                                       i_loa_max, adaptive):
    """Over 0.5 s, whose last window is shortened, the driver reading the
    window's one evaluation block records the bytes of the same loop over
    separately derived rows and allocating Horner steps; adaptive runs cut
    some windows early."""
    rhs, state, t0 = post_fault_start(request.getfixturevalue(case_name))
    cfg = (WindowConfig(t_init=t_init, n_terms=4, adaptive=True, i_loa_max=i_loa_max,
                        samples_per_window=6) if adaptive
           else WindowConfig(t_init=t_init, n_terms=8))
    traj = simulate_sas(rhs, state, 0.5, cfg, t0=t0)
    assert (traj.adaptive_cuts > 0) == adaptive
    times, delta, omega, _, _ = window_by_window_simulate(rhs, state, 0.5, cfg, t0)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.delta.tobytes() == delta.tobytes()
    assert traj.omega_dev.tobytes() == omega.tobytes()


@pytest.mark.parametrize("seed", [1, 44])
def test_driver_keeps_the_bytes_of_the_window_by_window_loop(seed):
    """On the benchmark's ieee39 inputs, the driver's one workspace per run
    records the bytes of a loop that derives, evaluates and hands on every
    window apart: at N = 3, 5 and 8 over 1.03 s, whose last window is
    shortened, and in adaptive runs that cut. A batched derivation of
    K = 2 pairs, as ``ra`` runs it, keeps its terms and rows the same way."""
    from sas_transim import ra
    from test_bench_screening import _workloads
    wl = _workloads()
    prep = wl.setup(wl.make_inputs("ieee39-series", seed))
    horizon = 1.03
    for cfg in (WindowConfig(t_init=0.05, n_terms=3), WindowConfig(t_init=0.1, n_terms=5),
                WindowConfig(t_init=0.2, n_terms=8),
                WindowConfig(t_init=0.2, n_terms=3, adaptive=True, i_loa_max=0.1,
                             samples_per_window=6),
                WindowConfig(t_init=0.4, n_terms=5, adaptive=True, i_loa_max=0.01,
                             samples_per_window=6)):
        traj = simulate_sas(prep.rhs, prep.state, horizon, cfg, t0=prep.t0)
        times, delta, omega, boundaries, cuts = window_by_window_simulate(
            prep.rhs, prep.state, horizon, cfg, prep.t0)
        assert traj.times.tobytes() == times.tobytes(), cfg
        assert traj.delta.tobytes() == delta.tobytes(), cfg
        assert traj.omega_dev.tobytes() == omega.tobytes(), cfg
        assert traj.window_boundaries.tobytes() == boundaries.tobytes(), cfg
        assert traj.adaptive_cuts == cuts and (cuts > 0) == cfg.adaptive, cfg
    items = [(inp, h) for _, inp in ra._pair_inputs(prep.case, prep.state, wl.I_LOA_MAX,
                                                   None, "post_fault")
             for h in (inp.h, 1.0, 2.0)]
    rhs = ra._pair_rhs(items)
    state = MachineState([[i.delta0_machine, i.delta0_ref] for i, _ in items],
                         [[i.ddelta0_machine, i.ddelta0_ref] for i, _ in items])
    for n_terms in (3, 5, 8):
        w = derive_window(rhs, state, n_terms)
        want = pinned_window_terms(rhs, state, n_terms)
        assert w.terms.tobytes() == want.tobytes(), n_terms
        assert w._block.tobytes() == separate_rows(want, True)[0].tobytes(), n_terms


def test_sample_overflow_is_a_divergence():
    """Finite terms whose samples overflow stop the run with the time and
    the machine, and no floating-point warning escapes: at H = 1e-305 s
    the first machine's angle series passes 1e308 rad within the window."""
    rhs = SwingRhsParams(h=[1e-305, 1.0], d=[0.0, 0.0], pm=[0.5, 0.5], e=[1.0, 1.0],
                         y=np.array([[1 - 5j, -1 + 5j], [-1 + 5j, 1 - 5j]]),
                         omega0=2 * math.pi * 60)
    st = MachineState(np.array([0.3, 0.0]), np.zeros(2))
    assert np.isfinite(derive_window(rhs, st, 2).terms).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite series sample at t=5s, "
                                                  "machine 0") as info:
            simulate_sas(rhs, st, 20.0, WindowConfig(t_init=10.0, n_terms=2))
    assert (info.value.t, info.value.machine) == (5.0, 0)


@pytest.mark.parametrize("case_name", ["smib_case", "ieee9_case", "ieee39_case"])
def test_window_evaluators_reproduce_the_separate_series_bytes(request, case_name):
    """The block holds the bytes of the separately derived rows (at eight
    terms some coefficients sum three or more terms, so the order of
    summation shows). eval_window, handoff_state and i_loa read its padded
    rows; on [0, T] each gives the bytes of a Horner pass over its own
    unpadded series."""
    rhs, state, _ = post_fault_start(request.getfixturevalue(case_name))
    w = derive_window(rhs, state, 8, window=0.2)
    rows, (total, sum_deriv, last_term_deriv) = separate_rows(w, True)
    assert w._block.tobytes() == rows.tobytes()
    for t in np.linspace(0.0, 0.2, 7):
        want = (allocating_polyval(total, t), allocating_polyval(sum_deriv, t))
        for got in (eval_window(w, t),) + ((handoff_state(w, t),) if t > 0 else ()):
            assert got.delta.tobytes() == want[0].tobytes()
            assert got.omega_dev.tobytes() == want[1].tobytes()
        assert i_loa(w, t) == float(np.abs(allocating_polyval(last_term_deriv, t)).max())


@pytest.mark.parametrize("case_name", ["smib_case", "ieee9_case", "ieee39_case", "table1"])
def test_horner_from_degree_2n_minus_2_keeps_the_full_width_bytes(request, case_name):
    """Every evaluation starts Horner at coefficient 2N - 2, the highest an
    N-term window reaches: on rows 0-2, alone and stacked, at t = 0, at
    the -1e-12 s slack, at T/2 and at T, and on the driver's sample grid,
    it gives the bytes of a pass over all 2N + 1 coefficients (the table1
    pair's infinite-inertia node carries signed zeros)."""
    if case_name == "table1":
        rhs, state = table1_rhs(), table1_state()
    else:
        rhs, state, _ = post_fault_start(request.getfixturevalue(case_name))
    rng = np.random.default_rng(3)
    for n_terms in range(2, 11):
        st = MachineState(state.delta + rng.uniform(-0.3, 0.3, state.delta.shape),
                          state.omega_dev + rng.uniform(-2.0, 2.0, state.delta.shape))
        w = derive_window(rhs, st, n_terms, window=0.2)
        times = (0.0, -1e-12, 0.1, 0.2, np.linspace(0.0, 0.2, 5)[1:, None, None])
        for t in times:
            for rows in (slice(0, 1), slice(1, 2), slice(2, 3), slice(2), slice(3)):
                got = adm._evaluate(w, t, rows)
                assert got.tobytes() == adm._polyval(w._block[rows], t).tobytes(), (n_terms, t)


def test_adaptive_underflow_raises():
    """A threshold no window length can satisfy collapses the adaptive cut
    below t_init/100 and raises with advice."""
    rhs = table1_rhs()
    st = table1_state()
    cfg = WindowConfig(t_init=0.3, n_terms=3, adaptive=True, i_loa_max=1e-9)
    with pytest.raises(DivergenceError, match="raise n_terms or lower t_init"):
        simulate_sas(rhs, st, 1.0, cfg)


def test_driver_rejects_bad_horizon():
    with pytest.raises(ValidationError):
        simulate_sas(table1_rhs(), table1_state(), 0.0, WindowConfig(t_init=0.1))


@pytest.mark.parametrize("k", [1, 3])
def test_driver_refuses_a_state_of_another_machine_count(monkeypatch, k):
    """A state that is not one entry per machine is refused before any
    window is derived, rather than broadcast onto the machines."""
    rhs = SwingRhsParams(h=[2.0, 3.0], d=[0.0, 0.0], pm=[0.5, 0.5], e=[1.0, 1.0],
                         y=np.array([[1 - 5j, -1 + 5j], [-1 + 5j, 1 - 5j]]),
                         omega0=2 * math.pi * 60)
    monkeypatch.setattr(adm, "_derivation", lambda *args: pytest.fail("derived a window"))
    with pytest.raises(ValidationError, match="state size does not match machine count"):
        simulate_sas(rhs, MachineState(np.zeros(k), np.zeros(k)), 1.0,
                     WindowConfig(t_init=0.1))


# ---------------------------------------------------------------------------
# Trajectory CSV


def test_csv_round_trip():
    traj = simulate_sas(table1_rhs(), table1_state(), 0.5,
                        WindowConfig(t_init=0.1))
    text = traj.to_csv_text()
    assert text.splitlines()[0] == "t,delta_1,delta_2,omega_1,omega_2"
    back = read_csv(io.StringIO(text))
    assert np.allclose(back.times, traj.times, rtol=0.0, atol=1e-9)
    # 9 significant digits survive the round trip at these magnitudes
    assert np.abs(back.delta - traj.delta).max() < 1e-7


def test_csv_relative_columns():
    traj = simulate_sas(table1_rhs(), table1_state(), 0.2,
                        WindowConfig(t_init=0.2))
    text = traj.to_csv_text(reference=1)
    lines = text.splitlines()
    assert lines[0] == "t,delta_1_ref,delta_2_ref,omega_1_ref,omega_2_ref"
    row = [float(v) for v in lines[1].split(",")]
    assert row[2] == 0.0   # reference column is identically zero


def test_csv_rejects_garbage():
    with pytest.raises(ValidationError):
        read_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ValidationError, match="no machine columns"):
        read_csv(io.StringIO("t\n0\n1\n"))


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0, 0.0]), delta=np.zeros((2, 1)),
                   omega_dev=np.zeros((2, 1)), source="rk4")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0, 1.0]), delta=np.full((2, 1), np.nan),
                   omega_dev=np.zeros((2, 1)), source="rk4")
