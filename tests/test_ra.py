"""Accuracy-window estimation, minimum inertia and mode analysis."""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from sas_transim import (MachineState, NumericalError, RaInputs,
                         SwingRhsParams, ValidationError, equilibrium_state,
                         estimate_hmin, estimate_ra, mode_periods)
from sas_transim import adm, ra
from sas_transim.ra import (_indicator_roots, fleet_ra, ra_inputs_for_machine,
                            system_ra)
from sas_transim.rk4 import IntegratorConfig, fault_on_bootstrap

from test_adm import OMEGA0, table1_rhs


def table1_inputs(**overrides):
    """Machine of the published single-machine study against its fixed node."""
    base = dict(h=3.0, d=1.0, omega0=OMEGA0, pm=1.7 * math.sin(1.0472),
                e=1.0, g=0.0, e_inf=1.0, y=1.7, theta=math.pi / 2,
                delta0_machine=1.0472 + 0.0957, ddelta0_machine=3.7639,
                delta0_ref=0.0, ddelta0_ref=0.0, i_loa_max=5.0)
    base.update(overrides)
    return RaInputs(**base)


TABLE4_INPUTS = RaInputs(
    # published machine-versus-reference parameters of the 39-bus study
    h=1.0, d=0.0, omega0=2 * math.pi * 60, pm=2.5, e=1.0566, g=2.2361,
    e_inf=1.0, y=7.4753, theta=1.5458, delta0_machine=-0.565,
    ddelta0_machine=-10.908, delta0_ref=0.0563, ddelta0_ref=1.548,
    i_loa_max=3.0)


def test_ra_cubic_closed_form_when_c2_vanishes():
    """Equal drift rates kill the t^3 coefficient; the root then has the
    closed form (I_max / |4 c1|)^(1/3)."""
    inp = table1_inputs(d=0.0, ddelta0_machine=0.7, ddelta0_ref=0.7)
    res = estimate_ra(inp)
    assert abs(res.c2) < 1e-12
    want = (inp.i_loa_max / abs(4 * res.c1)) ** (1.0 / 3.0)
    assert res.r_a == pytest.approx(want, rel=1e-9)
    assert res.root_status == "unique_positive"


def test_ra_equilibrium_has_no_root():
    inp = table1_inputs(d=0.0, delta0_machine=1.0472, ddelta0_machine=0.0)
    res = estimate_ra(inp)
    assert res.root_status == "none"
    assert math.isinf(res.r_a)


def test_ra_cubic_residual_invariant():
    """Whenever a root is reported it satisfies its defining equation."""
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(30):
        inp = table1_inputs(
            h=float(rng.uniform(1.0, 50.0)),
            d=float(rng.uniform(0.0, 2.0)),
            delta0_machine=float(rng.uniform(-1.0, 2.0)),
            ddelta0_machine=float(rng.uniform(-8.0, 8.0)),
            ddelta0_ref=float(rng.uniform(-1.0, 1.0)),
            i_loa_max=float(rng.uniform(1.0, 8.0)))
        res = estimate_ra(inp)
        if not math.isfinite(res.r_a):
            continue
        resid = abs(abs(4 * res.c1 * res.r_a ** 3 + 3 * res.c2 * res.r_a ** 2)
                    - inp.i_loa_max)
        assert resid < 1e-9, (inp, res)
        checked += 1
    assert checked > 15


def _indicator_crossings(c1, c2, target, cap=10.0):
    """Every R in (0, cap] with |4 c1 R^3 + 3 c2 R^2| = target.

    An independent reference for the root finder: the cubic is monotone on
    each side of its turning point -c2 / (2 c1), so each level +-target is
    crossed at most once per piece, and bisection brackets that crossing
    down to adjacent floats.
    """
    def g(r):
        return (4.0 * c1 * r + 3.0 * c2) * r * r

    knots = [0.0, cap]
    if c1 != 0.0 and 0.0 < -c2 / (2.0 * c1) < cap:
        knots.insert(1, -c2 / (2.0 * c1))
    roots = []
    for a, b in zip(knots, knots[1:]):
        for level in (target, -target):
            if (g(a) - level) * (g(b) - level) > 0.0:
                continue
            below, above = (a, b) if g(a) < level else (b, a)
            while (mid := 0.5 * (below + above)) not in (below, above):
                if g(mid) < level:
                    below = mid
                else:
                    above = mid
            roots.append(mid)
    return sorted(roots)


NARROW_DIP = (2222.198363919919, -5632.584664090367, 9.752851846097373)


def test_indicator_root_matches_reference():
    """Seeded (c1, c2, I_max) with |c1|, |c2| over 1e-3..1e4: the root agrees
    with the bisection reference to 1e-13 relative, satisfies its equation
    in exact arithmetic to 1e-14 of the larger cubic term, and its status
    counts the reference's crossings. The narrow-dip draw dips
    below I_max for 0.6 ms near 1.9 s and crosses upward again."""
    rng = np.random.default_rng(17)
    signs = rng.choice([-1.0, 1.0], size=(1500, 2))
    mags = 10.0 ** rng.uniform(-3.0, 4.0, size=(1500, 2))
    targets = 10.0 ** rng.uniform(-0.5, 1.0, size=1500)
    draws = [NARROW_DIP] + [(float(a), float(b), float(t))
                            for (a, b), t in zip(signs * mags, targets)]
    counts = {"none": 0, "unique_positive": 0, "smallest_positive_of_many": 0}
    for (c1, c2, target), (r_a, status) in zip(draws, _indicator_roots(*zip(*draws))):
        roots = _indicator_crossings(c1, c2, target)
        counts[status] += 1
        if not roots:
            assert status == "none" and math.isinf(r_a), (c1, c2, target)
            continue
        assert r_a == pytest.approx(roots[0], rel=1e-13, abs=0.0), (c1, c2, target)
        assert status == ("unique_positive" if len(roots) < 3
                          else "smallest_positive_of_many"), (c1, c2, target, roots)
        r, a, b, t = map(Fraction, (r_a, 4.0 * c1, 3.0 * c2, target))
        resid = abs(abs((a * r + b) * r * r) - t)
        assert resid <= 1e-14 * max(abs(a * r ** 3), abs(b * r * r), t)
    assert all(counts.values()), counts
    assert _indicator_roots(*zip(NARROW_DIP))[0][1] == "smallest_positive_of_many"
    assert len(_indicator_crossings(*NARROW_DIP)) == 3


@pytest.mark.parametrize("degree", [3, 4])
def test_poly_roots_equal_numpy_roots(degree):
    """Random cubics and quartics, with a zero leading coefficient, one and
    two zero trailing coefficients, both, a constant and an all-zero row,
    solved in one call: every row's roots are numpy.roots', bit for bit."""
    rng = np.random.default_rng(11 + degree)
    rows = rng.normal(size=(60, degree + 1)) * 10.0 ** rng.uniform(-3, 3, size=(60, 1))
    rows[1, 0] = 0.0
    rows[2, -1] = 0.0
    rows[3, -2:] = 0.0
    rows[4, 0] = rows[4, -1] = 0.0
    rows[5, :-1] = 0.0
    rows[6] = 0.0
    rows[7, :2] = rows[7, -2:] = 0.0
    got = ra._poly_roots(rows)
    assert len(got) == len(rows) and got[6] == []
    for row, roots in zip(rows, got):
        want = np.sort(np.roots(row).astype(complex))
        assert np.sort(np.array(roots, dtype=complex)).tobytes() == want.tobytes(), row


def test_fleet_and_hmin_make_one_batched_derivation_each(ieee39_case, monkeypatch):
    """A fleet is one pass of the series kernel, and a minimum inertia two:
    the fit at 1 s and 2 s, and the nudge ladder. Counts, not times, so the
    check is exact on a loaded host."""
    calls = []
    kernel = adm._nonlinearity_orders

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return kernel(*args, **kwargs)

    state, _ = fault_on_bootstrap(ieee39_case, IntegratorConfig(dt=1e-3))
    monkeypatch.setattr(adm, "_nonlinearity_orders", counting)
    fleet = fleet_ra(ieee39_case, state, 5.0)
    assert calls == [(9, 3, 2, 7)]
    for _, inp, _ in fleet:
        calls.clear()
        estimate_hmin(inp, 0.1)
        assert 1 <= len(calls) <= 2, calls


def test_fleet_ra_refuses_fewer_than_one_job(ieee9_case):
    state = equilibrium_state(ieee9_case.generators)
    with pytest.raises(ValidationError, match="jobs"):
        fleet_ra(ieee9_case, state, 5.0, jobs=0)


def test_ra_monotone_in_inertia():
    """All else fixed, more inertia never shrinks the accuracy window.

    This is provable when the two indicator coefficients carry the same
    sign (the cubic then scales down pointwise in H). With opposite signs
    the first crossing can genuinely jump between branches, so the property
    is asserted over the same-sign regime, which covers the swung-state
    conditions the estimator is used in.
    """
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(40):
        inp = table1_inputs(
            ddelta0_machine=float(rng.uniform(-8.0, 8.0)),
            delta0_machine=float(rng.uniform(0.5, 2.0)))
        probe = estimate_ra(replace(inp, h=1.0))
        if probe.c1 * probe.c2 < 0:
            continue
        values = [estimate_ra(replace(inp, h=h)).r_a
                  for h in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), values
        checked += 1
    assert checked >= 5


def test_ra_closed_form_agreement_undamped():
    """Recursion-read coefficients equal the hand formula for an undamped
    machine against a drifting reference (round-off only); damping adds a
    documented discrepancy in c2."""
    res = estimate_ra(table1_inputs(d=0.0, ddelta0_ref=-0.5))
    assert res.closed_form_discrepancy < 1e-12
    res_damped = estimate_ra(table1_inputs())
    assert res_damped.closed_form_discrepancy < 0.05
    assert res_damped.closed_form_discrepancy > 0.0


def test_ra_negative_self_conductance():
    """A negative self-conductance enters the pair as G_ii = g < 0, so the
    recursion still agrees with the hand formula, which carries g with its
    sign."""
    neg = estimate_ra(table1_inputs(d=0.0, ddelta0_ref=-0.5, g=-0.3))
    pos = estimate_ra(table1_inputs(d=0.0, ddelta0_ref=-0.5, g=0.3))
    assert neg.closed_form_discrepancy <= 1e-12
    assert neg.c1 != pytest.approx(pos.c1, rel=1e-3)


def test_ra_initial_speed_dependence():
    """Zero-speed starts allow longer windows than 4 rad/s starts."""
    quiet = estimate_ra(table1_inputs(ddelta0_machine=0.0))
    fast = estimate_ra(table1_inputs(ddelta0_machine=4.0))
    assert quiet.r_a > fast.r_a


def test_ra_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        table1_inputs(h=0.0)
    with pytest.raises(ValidationError):
        table1_inputs(y=0.0)
    with pytest.raises(ValidationError):
        table1_inputs(i_loa_max=0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_ra_inputs_require_finite_iloa_max(value):
    with pytest.raises(ValidationError, match="i_loa_max"):
        table1_inputs(i_loa_max=value)


# ---------------------------------------------------------------------------
# Minimum inertia


def test_hmin_definition_consistency():
    """estimate_ra(H_min) reaches the target and 0.999 H_min does not."""
    inp = table1_inputs(d=0.0)
    target = 0.3
    hmin = estimate_hmin(inp, target)
    assert estimate_ra(replace(inp, h=hmin)).r_a >= target
    assert estimate_ra(replace(inp, h=0.999 * hmin)).r_a < target


def test_hmin_bracket_width():
    """The returned inertia sits within 1e-4 relative of the true boundary."""
    inp = table1_inputs(d=0.0)
    hmin = estimate_hmin(inp, 0.25)
    assert estimate_ra(replace(inp, h=hmin)).r_a >= 0.25
    assert estimate_ra(replace(inp, h=hmin / (1 + 2e-4))).r_a < 0.25


def test_hmin_published_39bus_parameters():
    """The published machine-30-versus-reference parameter set with a 0.2 s
    target and 3 rad/s threshold gives a minimum inertia near the published
    106 s (within 10%)."""
    hmin = estimate_hmin(TABLE4_INPUTS, target_ra=0.2)
    assert hmin == pytest.approx(106.0, rel=0.10)
    res = estimate_ra(replace(TABLE4_INPUTS, h=hmin))
    assert res.r_a >= 0.2


@pytest.mark.parametrize("target", [0.0, math.nan, math.inf])
def test_hmin_refuses_a_non_positive_or_non_finite_target(target):
    with pytest.raises(ValidationError, match="target_ra"):
        estimate_hmin(TABLE4_INPUTS, target_ra=target)


def test_hmin_unreachable_target_raises():
    """A violent enough state keeps the window finite even at the inertia
    cap, so an absurd target is reported as unreachable."""
    inp = table1_inputs(ddelta0_machine=25.0)
    with pytest.raises(NumericalError, match="unreachable"):
        estimate_hmin(inp, target_ra=8.0)


@pytest.mark.parametrize("name", ["smib", "ieee9", "ieee39"])
def test_third_term_lies_in_the_span_of_u_and_u_squared(name, request):
    """With u = 1/H, both the gain omega0/2H and the damping D/2H scale with
    u, so c1 and c2 are alpha u + beta u^2 (smib's machine is damped): a fit
    at two inertias predicts the third to 1e-12 relative."""
    case = request.getfixturevalue(f"{name}_case")
    if name == "smib":
        state = MachineState(np.array(case.initial_delta), np.array(case.initial_omega))
    else:
        state, _ = fault_on_bootstrap(case, IntegratorConfig(dt=1e-3))
    u = np.array([1.0, 0.3, 0.02])
    basis = np.column_stack([u, u * u])
    for _, inp, _ in fleet_ra(case, state, 5.0):
        res = [estimate_ra(replace(inp, h=1.0 / x)) for x in u]
        for c in ([r.c1 for r in res], [r.c2 for r in res]):
            coef = np.linalg.solve(basis[:2], c[:2])
            scale = np.abs(basis[2] * coef).sum()
            assert abs(basis[2] @ coef - c[2]) <= 1e-12 * scale, (inp, c)


def test_hmin_is_safe_where_the_window_is_not_monotone(ieee39_case):
    """Machine 30 at the ieee39 clearing state (target 0.1 s, I_max = 5):
    R_A is 0.1002 s at H = 1.31 s but drops below 0.1 s from about 2.2 s
    to 5.09 s. Every inertia above H_min reaches the target, and 3 s, in
    that gap, does not."""
    state, _ = fault_on_bootstrap(ieee39_case, IntegratorConfig(dt=1e-3))
    inp = ra_inputs_for_machine(ieee39_case, 30, state, 5.0)
    hmin = estimate_hmin(inp, 0.1)
    assert estimate_ra(replace(inp, h=3.0)).r_a < 0.1
    for h in np.geomspace(hmin, 1e4, 300):
        assert estimate_ra(replace(inp, h=float(h))).r_a >= 0.1, h


def test_hmin_boundary_at_an_interior_maximum():
    """The indicator can peak inside (0, T) and close the window there. For
    this damped table-1 machine (T = 0.2 s, I_max = 3), at H_min the
    indicator at R = T is about 2.6, below I_max, and just below H_min the
    peak near R = 0.17 s reaches I_max: the boundary is an extremum
    candidate, not a root of the quadratic at R = T."""
    inp = table1_inputs(d=5.0, delta0_machine=1.73, ddelta0_machine=3.5,
                        ddelta0_ref=0.84, i_loa_max=3.0)
    hmin = estimate_hmin(inp, 0.2)
    at = estimate_ra(replace(inp, h=hmin))
    assert abs((4 * at.c1 * 0.2 + 3 * at.c2) * 0.2 ** 2) < 0.9 * inp.i_loa_max
    peak = -at.c2 / (2 * at.c1)   # d/dR (4 c1 R^3 + 3 c2 R^2) = 0
    below = estimate_ra(replace(inp, h=hmin / (1 + 1e-6)))
    assert below.r_a == pytest.approx(peak, rel=1e-2)
    for h in np.geomspace(hmin, 1e4, 100):
        assert estimate_ra(replace(inp, h=float(h))).r_a >= 0.2, h


def _bisected_hmin(inp, target, h_lo=1e-2, h_hi=1e4):
    """Oracle valid where R_A grows with H: bisection on H down to a bracket
    (lo, hi) relatively tighter than 1e-4, hi reaching the target."""
    def reaches(h):
        return estimate_ra(replace(inp, h=h)).r_a >= target

    assert reaches(h_hi)
    if reaches(h_lo):
        return h_lo, h_lo
    lo, hi = h_lo, h_hi
    while hi / lo > 1.0 + 1e-4:
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return lo, hi


@pytest.mark.parametrize("inp, target", [
    *((table1_inputs(d=d), t) for d in (0.0, 1.0, 5.0) for t in (0.3, 0.4, 0.5)),
    (TABLE4_INPUTS, 0.2),
], ids=[*(f"table1-d{d:g}-T{t:g}" for d in (0, 1, 5) for t in (0.3, 0.4, 0.5)),
        "table4"])
def test_hmin_agrees_with_bisection_where_monotone(inp, target):
    """Where the inertias reaching the target form one interval [H*, 1e4]
    the exact reach set is the bisection's answer: H_min lies inside the
    oracle's final bracket. (At shorter targets the table-1 machine has
    gaps, e.g. with d = 5 a 0.2 s window is reached at H = 0.3 s but not
    at 1 s.)"""
    reach = [estimate_ra(replace(inp, h=float(h))).r_a >= target
             for h in np.geomspace(1e-2, 1e4, 200)]
    assert reach == sorted(reach)   # the oracle's premise
    lo, hi = _bisected_hmin(inp, target)
    hmin = estimate_hmin(inp, target)
    assert lo <= hmin <= hi * (1 + 1e-12)


def _unbatched_third_term(inp, inertias):
    """(c1, c2) lists, one entry per inertia, each from the unbatched
    derivation of its own K = 2 machine/reference pair."""
    y12 = cmath.rect(inp.y, inp.theta)
    state = MachineState([inp.delta0_machine, inp.delta0_ref],
                         [inp.ddelta0_machine, inp.ddelta0_ref])
    c1s, c2s = [], []
    for h in inertias:
        rhs = SwingRhsParams(h=[h, math.inf], d=[inp.d, 0.0], pm=[inp.pm, 0.0],
                             e=[inp.e, inp.e_inf], y=[[inp.g, y12], [y12, 0.0]],
                             omega0=inp.omega0)
        third = adm.derive_window(rhs, state, 3).terms[2, 0]
        c1s.append(float(third[4]))
        c2s.append(float(third[3]))
    return c1s, c2s


def _numpy_roots_r_a(c1, c2, i_max):
    """R_A from two numpy.roots calls and the same Newton polish."""
    roots = sorted(float(r.real) for level in (i_max, -i_max)
                   for r in np.roots([4.0 * c1, 3.0 * c2, 0.0, -level])
                   if r.imag == 0.0 and 0.0 < r.real <= 10.0)
    if not roots:
        return math.inf
    r = roots[0]
    level = math.copysign(i_max, (4.0 * c1 * r + 3.0 * c2) * r * r)
    for _ in range(2):
        r -= ((4.0 * c1 * r + 3.0 * c2) * r * r - level) / ((12.0 * c1 * r + 6.0 * c2) * r)
    return r


def _sequential_hmin(inp, target_ra):
    """The minimum-inertia search as one pair and one numpy.roots call at a
    time: unbatched derivations, a lazy scan of the candidates and a nudge
    loop of single accuracy-window checks. Returns (H_min, nudges)."""
    i_max = inp.i_loa_max
    (c1_1, c1_2), (c2_1, c2_2) = _unbatched_third_term(inp, [1.0, 2.0])
    alpha1, beta1 = 4.0 * c1_2 - c1_1, 2.0 * c1_1 - 4.0 * c1_2
    alpha2, beta2 = 4.0 * c2_2 - c2_1, 2.0 * c2_1 - 4.0 * c2_2
    a3, a2, b3, b2 = 4.0 * alpha1, 3.0 * alpha2, 4.0 * beta1, 3.0 * beta2
    kappa = a2 * b3 - a3 * b2
    t_end = min(target_ra, 10.0)
    candidates = []
    for level in (i_max, -i_max):
        quartic = [3.0 * kappa * a3, 2.0 * kappa * a2, 9.0 * level * b3 * b3,
                   12.0 * level * b3 * b2, 4.0 * level * b2 * b2]
        extrema = [r.real for r in np.roots(quartic)
                   if abs(r.imag) <= 1e-6 * abs(r) and 0.0 < r.real < t_end]
        for r in (t_end, *extrema):
            candidates += ra._positive_u((b3 * r + b2) * r * r, (a3 * r + a2) * r * r, level)

    def misses(u):
        c1, c2 = alpha1 * u + beta1 * u * u, alpha2 * u + beta2 * u * u
        return _numpy_roots_r_a(c1, c2, i_max) < target_ra

    u_star = next((u for u in sorted(candidates)
                   if u < 1.0 / 1e-2 and misses(u * (1.0 + 1e-9))), None)
    h_min = 1e-2 if u_star is None else 1.0 / u_star
    for nudges, h in enumerate(h_min * (1.0 + 1e-12) ** np.arange(9)):
        (c1,), (c2,) = _unbatched_third_term(inp, [float(h)])
        if _numpy_roots_r_a(c1, c2, i_max) >= target_ra:
            return float(h), nudges
    raise AssertionError("no rung reaches the target")


def test_hmin_equals_the_sequential_search_on_screening_inputs():
    """Every machine of the seed-1 screening variants, the benchmark's
    inputs, where 41 of the 108 machines need one nudge: the batched search
    returns exactly the float of the one-at-a-time search, and the fleet's
    windows are those of unbatched single-pair checks."""
    from test_bench_screening import _workloads
    from sas_transim import netmodel
    wl = _workloads()
    inputs = wl.make_inputs("screening", 1)
    base = netmodel.parse_case(inputs.text)
    nudged = machines = 0
    for inertias in inputs.variants:
        case = netmodel.initialized_case(wl.with_inertias(base, inertias))
        state, _ = fault_on_bootstrap(case, wl.BOOTSTRAP)
        for bus, inp, res in fleet_ra(case, state, wl.I_LOA_MAX):
            (c1,), (c2,) = _unbatched_third_term(inp, [inp.h])
            assert (res.c1, res.c2) == (c1, c2), bus
            assert res.r_a == _numpy_roots_r_a(c1, c2, inp.i_loa_max), bus
            want, nudges = _sequential_hmin(inp, wl.TARGET_RA)
            assert estimate_hmin(inp, wl.TARGET_RA) == want, bus
            nudged += nudges > 0
            machines += 1
    assert (machines, nudged) == (108, 41)


def test_hmin_ladder_solves_two_rungs_on_every_seed_1_machine(monkeypatch):
    """On every seed-1 screening machine rung 0 or 1 of the nudge ladder
    passes, so after its nine-pair derivation the ladder's root solve takes
    two entries; rungs 2-8 are solved only when both miss."""
    from test_bench_screening import _workloads
    from sas_transim import netmodel
    wl = _workloads()
    inputs = wl.make_inputs("screening", 1)
    base = netmodel.parse_case(inputs.text)
    calls = []
    third_term, indicator_roots = ra._third_term, ra._indicator_roots

    def counted_third_term(items):
        calls.append(("derive", len(items)))
        return third_term(items)

    def counted_indicator_roots(c1, c2, targets):
        calls.append(("roots", len(c1)))
        return indicator_roots(c1, c2, targets)

    monkeypatch.setattr(ra, "_third_term", counted_third_term)
    monkeypatch.setattr(ra, "_indicator_roots", counted_indicator_roots)
    machines = 0
    for inertias in inputs.variants:
        case = netmodel.initialized_case(wl.with_inertias(base, inertias))
        state, _ = fault_on_bootstrap(case, wl.BOOTSTRAP)
        for bus, inp, _ in fleet_ra(case, state, wl.I_LOA_MAX):
            calls.clear()
            estimate_hmin(inp, wl.TARGET_RA)
            assert calls[0] == ("derive", 2) and calls[1][0] == "roots", bus
            assert calls[2:] == [("derive", 9), ("roots", 2)], bus
            machines += 1
    assert machines == 108


# ---------------------------------------------------------------------------
# Transfer admittance


def test_transfer_two_node_network():
    """A single branch between a machine and its reference bus returns the
    branch-plus-xdp admittance itself."""
    from sas_transim import initialized_case, parse_case
    doc = {
        "base_mva": 100.0, "frequency_hz": 60.0,
        "buses": [
            {"id": 1, "voltage_mag": 1.0, "voltage_ang": 0.0},
            {"id": 2, "voltage_mag": 1.0, "voltage_ang": 0.2},
        ],
        "branches": [{"from_bus": 1, "to_bus": 2, "r": 0.0, "x": 0.4}],
        "generators": [{"bus": 2, "H": 3.0, "xdp": 0.2}],
    }
    case = initialized_case(parse_case(doc))
    gen = case.generators[0]
    inp = ra_inputs_for_machine(case, 2, equilibrium_state(case.generators), 5.0,
                                reference=1)
    # matrix-entry convention: the off-diagonal of [[y, -y], [-y, y]] for a
    # purely reactive series path is +j|y|
    assert inp.y == pytest.approx(1.0 / 0.6, rel=1e-12)
    assert inp.theta == pytest.approx(math.pi / 2, abs=1e-12)
    # bus 1 has no load and no generator: its voltage is the open-circuit EMF
    assert inp.e_inf == pytest.approx(gen.E, abs=1e-12)
    assert inp.delta0_ref == pytest.approx(gen.delta0, abs=1e-12)


def test_transfer_pair_symmetry(ieee9_case):
    """Reciprocity: swapping machine and generator reference returns the
    same coupling magnitude and angle; E_inf is the reference's EMF."""
    eq = equilibrium_state(ieee9_case.generators)
    a = ra_inputs_for_machine(ieee9_case, 3, eq, 5.0, reference=("gen", 1))
    b = ra_inputs_for_machine(ieee9_case, 1, eq, 5.0, reference=("gen", 3))
    assert a.y == pytest.approx(b.y, rel=1e-12)
    assert a.theta == pytest.approx(b.theta, rel=1e-12)
    assert (a.e_inf, b.e_inf) == (ieee9_case.generator_at(1).E,
                                  ieee9_case.generator_at(3).E)


def test_transfer_rejects_self_reference(ieee9_case):
    eq = equilibrium_state(ieee9_case.generators)
    with pytest.raises(ValidationError, match="coincides"):
        ra_inputs_for_machine(ieee9_case, 3, eq, 5.0, reference=("gen", 3))


def test_unknown_reference_kind_is_refused(ieee9_case):
    eq = equilibrium_state(ieee9_case.generators)
    with pytest.raises(ValidationError, match="unknown reference kind"):
        ra_inputs_for_machine(ieee9_case, 3, eq, 5.0, reference=("node", 5))
    with pytest.raises(ValidationError, match="unknown reference kind"):
        fleet_ra(ieee9_case, eq, 5.0, reference=("node", 5))


def test_bus_reference_e_inf_is_rebuilt_voltage(ieee9_case):
    """A bus reference's E_inf is |V_5| rebuilt from the machine EMFs at the
    clearing state: V_5 = -(Y[5, :K] E e^{j delta}) / Y[5, 5]."""
    state, _ = fault_on_bootstrap(ieee9_case, IntegratorConfig(dt=1e-3))
    y = ieee9_case.emf_admittance("post_fault", 5)
    k = ieee9_case.k
    emf = np.array([g.E * cmath.exp(1j * d)
                    for g, d in zip(ieee9_case.generators, state.delta)])
    v5 = -(y[k, :k] @ emf) / y[k, k]
    inp = ra_inputs_for_machine(ieee9_case, 2, state, 5.0, reference=("bus", 5))
    assert inp.e_inf == abs(v5)
    assert inp.ddelta0_ref == 0.0


def test_fleet_ra_skips_reference_and_takes_min(ieee9_case):
    from sas_transim.rk4 import IntegratorConfig, fault_on_bootstrap
    state, _ = fault_on_bootstrap(ieee9_case, IntegratorConfig(dt=1e-3))
    results = fleet_ra(ieee9_case, state, i_loa_max=5.0)
    buses = [b for b, _, _ in results]
    assert buses == [2, 3]   # generator 1 is the largest-H reference
    sys_ra = system_ra(results)
    assert sys_ra == min(r.r_a for _, _, r in results)
    jobs = fleet_ra(ieee9_case, state, i_loa_max=5.0, jobs=2)
    assert [(b, r.r_a) for b, _, r in jobs] == [(b, r.r_a) for b, _, r in results]


@pytest.mark.parametrize("reference", [("gen", 2), ("bus", 5), 7])
def test_fleet_ra_equals_per_machine_path(ieee9_case, reference):
    """One reduction per fleet call gives exactly the per-machine inputs and
    results, for generator and bus references alike."""
    state, _ = fault_on_bootstrap(ieee9_case, IntegratorConfig(dt=1e-3))
    fleet = fleet_ra(ieee9_case, state, i_loa_max=5.0, reference=reference)
    assert [b for b, _, _ in fleet] == [g.bus for g in ieee9_case.generators
                                        if reference != ("gen", g.bus)]
    for bus, inp, res in fleet:
        want = ra_inputs_for_machine(ieee9_case, bus, state, 5.0, reference=reference)
        assert inp == want
        assert res == estimate_ra(want)


def test_bus_reference_reconstructs_power_flow_voltage(ieee39_case):
    """At the pre-fault equilibrium the bus voltage rebuilt from the machine
    EMFs is the case's solved power-flow phasor (ieee39 ships its power flow
    at full precision), and it does not drift."""
    eq = equilibrium_state(ieee39_case.generators)
    for bus in ieee39_case.buses[:29]:   # buses 1..29 carry no generator
        inp = ra_inputs_for_machine(ieee39_case, 30, eq, 5.0, reference=("bus", bus.id),
                                    epoch="pre_fault")
        assert inp.e_inf == pytest.approx(bus.voltage_mag, abs=1e-12)
        assert inp.delta0_ref == pytest.approx(bus.voltage_ang, abs=1e-12)
        assert inp.ddelta0_ref == 0.0


# ---------------------------------------------------------------------------
# Mode analysis


def test_modes_smib_hand_formula(smib_case):
    """Single machine against a fixed node: one mode whose frequency is the
    hand linearization of Pe = E Einf Y sin(delta), i.e.
    omega^2 = omega0 E Einf Y cos(delta0) / (2H)."""
    rhs = SwingRhsParams.from_case(smib_case, "pre_fault")
    eq = equilibrium_state(smib_case.generators)
    analysis = mode_periods(rhs, eq)
    assert len(analysis.periods) == 1
    want = 2 * math.pi / math.sqrt(OMEGA0 * 1.7 * math.cos(1.0472) / 6.0)
    assert analysis.periods[0] == pytest.approx(want, rel=1e-6)
    assert analysis.frequencies[0] == pytest.approx(2 * math.pi / want, rel=1e-6)


def test_modes_nine_bus_published_periods(ieee9_case):
    """Post-switching system linearized at the pre-fault operating point
    reproduces the published mode periods for the 4.5 s third inertia."""
    from sas_transim import set_inertia, initialized_case
    case = initialized_case(set_inertia(ieee9_case, 3, 4.5))
    rhs = SwingRhsParams.from_case(case, "post_fault")
    eq = equilibrium_state(case.generators)
    analysis = mode_periods(rhs, eq, require_equilibrium=False)
    assert analysis.periods[0] == pytest.approx(0.9510, rel=0.03)
    assert analysis.periods[1] == pytest.approx(0.5516, rel=0.03)


def test_modes_antisymmetric_pair():
    """Two identical machines over a symmetric lossless tie: the one
    oscillatory mode's eigenvector has equal and opposite angle components."""
    y = (np.array([[0.0, 1.5], [1.5, 0.0]])
         * np.exp(1j * np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]])))
    rhs = SwingRhsParams(h=np.array([4.0, 4.0]), d=np.zeros(2),
                         pm=np.zeros(2), e=np.ones(2), y=y,
                         omega0=OMEGA0)
    eq = MachineState(np.zeros(2), np.zeros(2))
    analysis = mode_periods(rhs, eq)
    assert len(analysis.periods) == 1
    # eigenvector of the non-zero mode of M^-1 K
    stiff = np.array([[1.5, -1.5], [-1.5, 1.5]]) * math.cos(0.0)
    lam, vec = np.linalg.eig((OMEGA0 / 8.0) * stiff)
    v = vec[:, np.argmax(lam)]
    assert v[0] == pytest.approx(-v[1], rel=1e-12)


def test_modes_requires_equilibrium(ieee9_case):
    rhs = SwingRhsParams.from_case(ieee9_case, "pre_fault")
    eq = equilibrium_state(ieee9_case.generators)
    bump = np.zeros_like(eq.delta)
    bump[1] = 0.3   # a uniform shift would still be an equilibrium
    off = MachineState(eq.delta + bump, eq.omega_dev)
    with pytest.raises(ValidationError, match="not an equilibrium"):
        mode_periods(rhs, off)


def test_modes_unstable_equilibrium_raises():
    """The inverted pendulum point has a negative eigenvalue."""
    rhs = table1_rhs(d=0.0)
    pm = rhs.pm[0]
    # unstable equilibrium: pi - asin(pm / 1.7)
    d_u = math.pi - math.asin(pm / 1.7)
    eq = MachineState(np.array([d_u, 0.0]), np.zeros(2))
    with pytest.raises(NumericalError, match="[Uu]nstable"):
        mode_periods(rhs, eq)
