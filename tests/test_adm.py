"""Series arithmetic, Adomian polynomials and window derivation.

The expected numbers come from three independent sources: hand-computable
textbook series, finite-difference probes of scalar functions, and sympy
series expansion as a symbolic cross-check of the lambda-composition engine.
"""

import math

import numpy as np
import pytest
import sympy as sp

from sas_transim import adm
from sas_transim import (DivergenceError, LambdaSeries, MachineState,
                         ReducedNetwork, SwingRhsParams, TruncatedSeries,
                         ValidationError, adomian_terms, derive_window,
                         eval_window, series_add, series_differentiate,
                         series_integrate, series_mul, series_scale,
                         equilibrium_state, sin_cos_of_series)
from sas_transim.rk4 import IntegratorConfig, integrate

OMEGA0 = 377.0


def table1_rhs(d=1.0):
    """Two-node equivalent of the Table-style single machine: coupling 1.7,
    lossless line, machine H=3 s against a fixed (infinite inertia) node."""
    return SwingRhsParams(
        h=np.array([3.0, math.inf]),
        d=np.array([d, 0.0]),
        pm=np.array([1.7 * math.sin(1.0472), 0.0]),
        e=np.array([1.0, 1.0]),
        network=ReducedNetwork(np.array([[0.0, 1.7], [1.7, 0.0]]),
                               np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]])),
        omega0=OMEGA0,
    )


def table1_state():
    return MachineState(np.array([1.0472 + 0.0957, 0.0]), np.array([3.7639, 0.0]))


# ---------------------------------------------------------------------------
# Series arithmetic


def test_series_double_integration_of_constant():
    """Double integration maps A0 to A0 t^2 / 2."""
    a0 = 7.25
    out = series_integrate(TruncatedSeries([a0]), order=2)
    assert out.coeffs.tolist() == [0.0, 0.0, a0 / 2.0]


def test_series_differentiate_term_by_term():
    out = series_differentiate(TruncatedSeries([0.0, 3.7639, -2.3300]))
    assert out.coeffs.tolist() == [3.7639, -4.6600]


def test_series_mul_truncates():
    out = series_mul(TruncatedSeries([1.0, 1.0]), TruncatedSeries([1.0, -1.0]),
                     max_degree=2)
    assert out.coeffs.tolist() == [1.0, 0.0, -1.0]


def test_series_add_scale_operators():
    a = TruncatedSeries([1.0, 2.0])
    b = TruncatedSeries([0.5, -2.0, 3.0])
    assert (a + b).coeffs.tolist() == [1.5, 0.0, 3.0]
    assert series_add(a, b) == a + b
    assert (2.0 * a).coeffs.tolist() == [2.0, 4.0]
    assert series_scale(a, -1.0) == -a
    assert (a - b).coeffs.tolist() == [0.5, 4.0, -3.0]


def test_series_eval_horner_t0_exact():
    s = TruncatedSeries([0.0957, 3.7639, -2.65, 0.1])
    assert s(0.0) == 0.0957
    # Horner against direct monomial summation
    t = 0.1
    direct = sum(c * t ** k for k, c in enumerate(s.coeffs))
    assert abs(s(t) - direct) < 1e-15


def test_sin_cos_of_zero_series():
    s, c = sin_cos_of_series(TruncatedSeries([0.0]))
    assert s.coeffs.tolist() == [0.0]
    assert c.coeffs.tolist() == [1.0]


def test_sin_cos_maclaurin():
    """u = t reproduces the Maclaurin series of sin and cos."""
    s, c = sin_cos_of_series(TruncatedSeries([0.0, 1.0], max_degree=4))
    assert np.allclose(s.coeffs, [0, 1, 0, -1 / 6, 0], atol=1e-15)
    assert np.allclose(c.coeffs, [1, 0, -0.5, 0, 1 / 24], atol=1e-15)


def test_sin_cos_against_finite_differences():
    """Coefficients of sin(0.3 + 0.1 t) match numerical differentiation."""
    u = TruncatedSeries([0.3, 0.1], max_degree=3)
    s, _ = sin_cos_of_series(u)

    def f(t):
        return math.sin(0.3 + 0.1 * t)

    h = 1e-2
    d0 = f(0.0)
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h) - 2 * f(0) + f(-h)) / h ** 2
    d3 = (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h ** 3)
    expected = [d0, d1, d2 / 2.0, d3 / 6.0]
    assert np.allclose(s.coeffs, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Adomian polynomials


def scalar_adomian(func_of_series, terms, order):
    """Classical lambda-order extraction for a scalar nonlinearity.

    ``terms`` are constant term values x_0..x_n; the composition runs through
    the package's own truncated series in the lambda variable, so this only
    relies on series arithmetic plus the function composition rule.
    """
    lam_poly = TruncatedSeries(terms, max_degree=order)
    return func_of_series(lam_poly).coeffs[order]


def test_adomian_order0_is_f_of_x0():
    """A_0 = f(x_0) for the swing nonlinearity."""
    rhs = table1_rhs()
    st = table1_state()
    w = derive_window(rhs, st, 2)
    # x_1 = omega t + A_0 t^2/2 exposes A_0 as twice the t^2 coefficient
    a0 = 2.0 * w.terms[1, 0, 2]
    expected = (OMEGA0 / 6.0) * (rhs.pm[0] - 1.7 * math.sin(1.0472 + 0.0957))
    assert abs(a0 - expected) < 1e-9


def test_adomian_order1_cosine():
    """A_1 = x_1 f'(x_0): for f = cos, x0 = 0.3, x1 = 0.1 this is -0.1 sin 0.3."""
    a1 = scalar_adomian(lambda s: sin_cos_of_series(s)[1], [0.3, 0.1], 1)
    assert abs(a1 - (-0.1 * math.sin(0.3))) < 1e-12


def test_adomian_closed_forms_cubic():
    """Orders 2..4 of f(x) = x^3 match the classical closed forms.

    With constants x_0..x_4 and f', f'' etc. evaluated by hand:
      A_2 = x2 f'(x0) + x1^2/2 f''(x0)
      A_3 = x3 f'(x0) + x1 x2 f''(x0) + x1^3/6 f'''(x0)
      A_4 = x4 f'(x0) + (x1 x3 + x2^2/2) f''(x0) + x1^2 x2 / 2 f'''(x0)
            + x1^4/24 f''''(x0)
    """
    x = [0.7, 0.31, -0.13, 0.057, -0.023]

    def cube(s):
        return series_mul(series_mul(s, s), s)

    f1 = 3 * x[0] ** 2
    f2 = 6 * x[0]
    f3 = 6.0
    a2 = x[2] * f1 + x[1] ** 2 / 2 * f2
    a3 = x[3] * f1 + x[1] * x[2] * f2 + x[1] ** 3 / 6 * f3
    a4 = (x[4] * f1 + (x[1] * x[3] + x[2] ** 2 / 2) * f2
          + x[1] ** 2 * x[2] / 2 * f3)
    for order, expected in ((2, a2), (3, a3), (4, a4)):
        got = scalar_adomian(cube, x, order)
        assert abs(got - expected) < 1e-12, f"order {order}: {got} vs {expected}"


def random_rhs(rng, k=3):
    """Random small reciprocal network with lossy couplings."""
    y = rng.uniform(0.5, 2.0, (k, k))
    y = 0.5 * (y + y.T)
    ang = rng.uniform(1.2, 1.5, (k, k))
    ang = 0.5 * (ang + ang.T)
    np.fill_diagonal(ang, 0.2)
    rhs = SwingRhsParams(
        h=rng.uniform(2.0, 8.0, k),
        d=rng.uniform(0.0, 2.0, k),
        pm=rng.uniform(-1.0, 2.0, k),
        e=rng.uniform(0.9, 1.1, k),
        network=ReducedNetwork(y, ang),
        omega0=OMEGA0,
    )
    return rhs


def test_adomian_terms_match_sympy_composition():
    """Decomposition consistency: A_n equals the lambda^n coefficient of the
    composed nonlinearity, checked symbolically on random 3-machine data."""
    rng = np.random.default_rng(7)
    lam, t = sp.symbols("lam t")
    for trial in range(2):
        rhs = random_rhs(rng)
        k = rhs.k
        # E_i E_j |Y_ij| cos/sin theta_ij, independent of rhs.coupling
        eey = np.outer(rhs.e, rhs.e) * rhs.network.y_mag
        gc, gs = eey * np.cos(rhs.network.y_ang), eey * np.sin(rhs.network.y_ang)
        n_orders = 3
        # random cubics per order, padded so no product truncates
        coeffs = np.zeros((n_orders, k, 9))
        coeffs[:, :, :4] = rng.uniform(-0.5, 0.5, (n_orders, k, 4))
        coeffs[0, :, 1:] = 0.0   # order zero must be constant
        lamser = LambdaSeries(coeffs)
        x_sym = [sum(sp.Float(coeffs[n, i, p]) * t ** p * lam ** n
                     for n in range(n_orders) for p in range(4))
                 for i in range(k)]
        for order in range(n_orders):
            got = adomian_terms(rhs, lamser, order)
            for i in range(k):
                pe = sum(gc[i, j] * sp.cos(x_sym[i] - x_sym[j])
                         + gs[i, j] * sp.sin(x_sym[i] - x_sym[j])
                         for j in range(k))
                f_i = rhs.gain[i] * (rhs.pm[i] - pe)
                expanded = sp.series(f_i, lam, 0, order + 1).removeO().expand()
                coeff_poly = sp.Poly(expanded.coeff(lam, order), t)
                want = np.zeros(9)
                for mono, c in zip(coeff_poly.monoms(), coeff_poly.coeffs()):
                    want[mono[0]] = float(c)
                got_c = np.zeros(9)
                got_c[:got[i].coeffs.size] = got[i].coeffs
                assert np.allclose(got_c, want, atol=1e-12), (trial, order, i)


def test_adomian_terms_public_entry_at_table_state():
    """The standalone extraction returns A_0 = f(x_0) as a constant series
    and A_1 consistent with x_1 f'(x_0) for the published operating point."""
    rhs = table1_rhs()
    st = table1_state()
    w = derive_window(rhs, st, 3)
    lamser = LambdaSeries.from_window(w)
    a0 = adomian_terms(rhs, lamser, 0)[0]
    f0 = (OMEGA0 / 6.0) * (rhs.pm[0] - 1.7 * math.sin(1.0472 + 0.0957))
    assert abs(a0.coeffs[0] - f0) < 1e-9
    assert np.all(a0.coeffs[1:] == 0.0)
    a1 = adomian_terms(rhs, lamser, 1)[0]
    fprime = -(OMEGA0 / 6.0) * 1.7 * math.cos(1.0472 + 0.0957)
    x1 = w.terms[1, 0]
    assert np.allclose(a1.coeffs, fprime * x1, rtol=1e-12, atol=1e-12)


def test_adomian_terms_rejects_missing_orders():
    rhs = table1_rhs()
    lamser = LambdaSeries(np.zeros((2, 2, 3)))
    with pytest.raises(ValidationError):
        adomian_terms(rhs, lamser, 2)


def test_lambda_series_requires_constant_order0():
    bad = np.zeros((2, 1, 3))
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValidationError):
        LambdaSeries(bad)


# ---------------------------------------------------------------------------
# Window derivation


PAPER_TERMS = {
    # printed five-term expansion for the Table-parameter machine
    1: {1: 3.7639, 2: -2.3400},
    2: {2: -0.3137, 3: -27.6760, 4: 8.6433},
    3: {3: 0.01743, 4: 59.6802, 5: 18.2507, 6: -3.9015},
    4: {4: -0.0007, 5: 11.9317, 6: -448.2592, 7: 216.8390, 8: -33.7017},
}


def test_window_reproduces_published_five_term_expansion():
    """Five-term window matches the published worked coefficients within
    print rounding (2% relative); the two structurally exact ones to 4
    decimals: the linear term is the initial speed and the t^2 coefficient
    of the third term is -(D/2H) * speed / 2."""
    w = derive_window(table1_rhs(), table1_state(), 5)
    for n, coeffs in PAPER_TERMS.items():
        for p, val in coeffs.items():
            got = w.terms[n, 0, p]
            # published values carry 4 decimals, so tiny coefficients are
            # dominated by print quantization (half-ulp 5e-5)
            tol = max(0.02 * abs(val), 6e-5)
            assert abs(got - val) < tol, f"x_{n} t^{p}: {got} vs {val}"
    assert abs(w.terms[1, 0, 1] - 3.7639) < 5e-5
    assert abs(w.terms[2, 0, 2] - (-0.3137)) < 5e-5
    assert abs(w.terms[2, 0, 2] - (-3.7639 / 12.0)) < 1e-12


def test_window_sum_matches_published_sum():
    """Summed coefficients reproduce the printed N=5 solution polynomial."""
    w = derive_window(table1_rhs(), table1_state(), 5)
    published = {0: 0.0957 + 1.0472, 1: 3.7639, 2: -2.6536, 3: -27.6585,
                 4: 68.3227, 5: 30.1824, 6: -452.1607, 7: 216.8390, 8: -33.7017}
    for p, val in published.items():
        got = w.sum_coeffs[0, p]
        assert abs(got - val) / max(abs(val), 1e-12) < 0.02, (p, got, val)


def test_window_free_motion_exact():
    """Zero coupling and no damping: the sum is exactly delta0 + omega0 t."""
    rhs = SwingRhsParams(
        h=np.array([4.0]), d=np.array([0.0]), pm=np.array([0.0]),
        e=np.array([1.0]),
        network=ReducedNetwork(np.array([[0.0]]), np.array([[0.0]])),
        omega0=OMEGA0)
    st = MachineState(np.array([0.4]), np.array([1.3]))
    w = derive_window(rhs, st, 4)
    expected = np.zeros_like(w.sum_coeffs[0])
    expected[0] = 0.4
    expected[1] = 1.3
    assert np.array_equal(w.sum_coeffs[0], expected)
    assert np.abs(w.terms[2:]).max() == 0.0


def test_window_pins_initial_state_exactly():
    rhs = table1_rhs()
    st = table1_state()
    w = derive_window(rhs, st, 5)
    got = eval_window(w, 0.0)
    assert np.array_equal(got.delta, st.delta)
    assert np.array_equal(got.omega_dev, st.omega_dev)
    # sum equals the coefficient-wise total of the terms
    assert np.array_equal(w.sum_coeffs, w.terms.sum(axis=0))


def test_window_equilibrium_state_has_trivial_tail():
    """At an exact equilibrium every term beyond the constant vanishes."""
    rhs = table1_rhs(d=0.0)
    eq = MachineState(np.array([1.0472, 0.0]), np.zeros(2))
    w = derive_window(rhs, eq, 5)
    assert np.abs(w.terms[1:]).max() < 1e-13


def test_window_third_term_matches_drifting_reference_closed_form():
    """For an undamped machine against a linearly drifting reference node,
    the third term is exactly c1 t^4 + c2 t^3 with the hand-derived
    coefficients (the printed closed form is consistent with the recursion)."""
    rhs = table1_rhs(d=0.0)
    st = MachineState(np.array([1.1429, 0.05]), np.array([3.7639, -0.4]))
    w = derive_window(rhs, st, 3)
    h, y, e, einf, pm, g = 3.0, 1.7, 1.0, 1.0, rhs.pm[0], 0.0
    ang = math.pi / 2 + st.delta[1] - st.delta[0]
    yee = y * e * einf
    c1 = (OMEGA0 ** 2 * yee * math.sin(ang) / (96 * h * h)
          * ((e * e * g - pm) + yee * math.cos(ang)))
    c2 = (OMEGA0 * yee * (st.omega_dev[1] - st.omega_dev[0])
          * math.sin(ang) / (12 * h))
    third = w.terms[2, 0]
    assert abs(third[4] - c1) / abs(c1) < 1e-6
    assert abs(third[3] - c2) / abs(c2) < 1e-6
    assert abs(third[2]) < 1e-12   # no t^2 term without damping


def test_window_divergence_error_names_machine():
    rhs = table1_rhs()
    huge = MachineState(np.array([0.0, 0.0]), np.array([1e200, 0.0]))
    with pytest.raises(DivergenceError) as err:
        derive_window(rhs, huge, 6)
    assert err.value.machine == 0


def test_eval_window_range_check():
    w = derive_window(table1_rhs(), table1_state(), 3, window=0.2)
    with pytest.raises(ValidationError):
        eval_window(w, 0.3)
    with pytest.raises(ValidationError):
        eval_window(w, -0.1)


def test_eval_window_horner_matches_monomials():
    w = derive_window(table1_rhs(), table1_state(), 5)
    t = 0.1
    direct = sum(c * t ** k for k, c in enumerate(w.sum_coeffs[0]))
    got = eval_window(w, t)
    assert abs(got.delta[0] - direct) < 1e-12


def test_window_matches_rk4_inside_accuracy_span():
    """The published-parameter five-term window stays within 0.01 rad of RK4
    at t = 0.15 (the window of validity is about 0.2 s for this case)."""
    rhs = table1_rhs()
    st = table1_state()
    w = derive_window(rhs, st, 5)
    traj = integrate(rhs, st, 0.15, IntegratorConfig(dt=1e-3))
    got = eval_window(w, 0.15)
    assert abs(got.delta[0] - traj.delta[-1, 0]) < 0.01


def test_window_taylor_agreement_with_rk4_derivatives():
    """Undamped pendulum: the 3-term window's leading coefficients match the
    true solution's Taylor coefficients through order 3. The oracle is
    Richardson-extrapolated finite differencing of tightly integrated RK4
    samples, accurate to well below the 1e-6 tolerance."""
    rhs = table1_rhs(d=0.0)
    st = table1_state()
    w = derive_window(rhs, st, 3)

    def delta_at(t):
        if t == 0.0:
            return st.delta[0]
        s0 = st if t > 0 else MachineState(st.delta, -st.omega_dev)
        traj = integrate(rhs, s0, abs(t),
                         IntegratorConfig(dt=1e-5, record_every=10 ** 9))
        return traj.delta[-1, 0]

    def stencil(h):
        f = {k: delta_at(k * h) for k in range(-2, 3)}
        return np.array([
            f[0],
            (f[1] - f[-1]) / (2 * h),
            (f[1] - 2 * f[0] + f[-1]) / h ** 2 / 2,
            (f[2] - 2 * f[1] + 2 * f[-1] - f[-2]) / (2 * h ** 3) / 6,
        ])

    h = 0.02
    a, b, c = stencil(h), stencil(h / 2), stencil(h / 4)
    fd = (16 * (4 * c - b) / 3 - (4 * b - a) / 3) / 15
    for p, want in enumerate(fd):
        got = w.sum_coeffs[0, p]
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (p, got, want)


def test_window_determinism():
    """Identical inputs give bit-identical windows."""
    rhs = table1_rhs()
    st = table1_state()
    w1 = derive_window(rhs, st, 5)
    w2 = derive_window(rhs, st, 5)
    assert np.array_equal(w1.terms, w2.terms)
    assert np.array_equal(w1.sum_coeffs, w2.sum_coeffs)


# ---------------------------------------------------------------------------
# Per-machine kernel against the pairwise formulation


def pairwise_window_terms(rhs, state, n_terms):
    """Reference recursion that expands sin and cos of every pairwise angle
    difference w_ij = x_i - x_j by lambda order, with products taken
    coefficient by coefficient; returns the (n_terms, K, 2 n_terms + 1)
    terms."""
    k, p = rhs.k, 2 * n_terms + 1
    eey = np.outer(rhs.e, rhs.e) * rhs.network.y_mag
    gc, gs = eey * np.cos(rhs.network.y_ang), eey * np.sin(rhs.network.y_ang)

    def conv(a, b):
        out = np.zeros(a.shape)
        for i in range(p):
            out[..., i:] += a[..., i:i + 1] * b[..., :p - i]
        return out

    x = np.zeros((n_terms, k, p))
    x[0, :, 0] = state.delta
    x[1, :, 1] = state.omega_dev
    w, sin_w, cos_w = [], [], []
    for n in range(n_terms - 1):
        w.append(x[n][:, None, :] - x[n][None, :, :])
        if n == 0:
            sin_w.append(np.zeros((k, k, p)))
            cos_w.append(np.zeros((k, k, p)))
            sin_w[0][..., 0] = np.sin(w[0][..., 0])
            cos_w[0][..., 0] = np.cos(w[0][..., 0])
        else:
            sin_w.append(sum((n - m) * conv(cos_w[m], w[n - m]) for m in range(n)) / n)
            cos_w.append(-sum((n - m) * conv(sin_w[m], w[n - m]) for m in range(n)) / n)
        pe = (gc[..., None] * cos_w[n] + gs[..., None] * sin_w[n]).sum(axis=1)
        a_n = -rhs.gain[:, None] * pe
        if n == 0:
            a_n[:, 0] += rhs.gain * rhs.pm
        # x_{n+1} = II[A_n] - a (I[x_n] - x_n(0) t)
        ii = np.zeros((k, p))
        ii[:, 2:] = a_n[:, :-2] / (np.arange(1.0, p - 1) * np.arange(2.0, p))
        i1 = np.zeros((k, p))
        i1[:, 1:] = x[n, :, :-1] / np.arange(1.0, p)
        i1[:, 1] -= x[n, :, 0]
        x[n + 1] += ii - rhs.a[:, None] * i1
    return x


def perturbed_states(case, count=5):
    rng = np.random.default_rng(11)
    eq = equilibrium_state(case.generators)
    return [MachineState(eq.delta + rng.uniform(-0.5, 0.5, eq.k),
                         rng.uniform(-3.0, 3.0, eq.k)) for _ in range(count)]


@pytest.mark.parametrize("case_name", ["ieee9", "ieee39"])
def test_window_matches_pairwise_reference(request, case_name):
    """The per-machine sin/cos factorization reproduces the pairwise
    expansion to 1e-13 relative to each term's largest coefficient."""
    case = request.getfixturevalue(f"{case_name}_case")
    rhs = SwingRhsParams.from_case(case, "post_fault")
    for st in perturbed_states(case):
        for n_terms in (3, 5, 8):
            got = derive_window(rhs, st, n_terms).terms
            want = pairwise_window_terms(rhs, st, n_terms)
            scale = np.abs(want).max(axis=2, keepdims=True)
            assert (np.abs(got - want) <= 1e-13 * scale).all(), n_terms


@pytest.mark.parametrize("case_name", ["ieee9", "ieee39"])
def test_kernel_order0_coupling_is_electrical_power(request, case_name):
    case = request.getfixturevalue(f"{case_name}_case")
    rhs = SwingRhsParams.from_case(case, "post_fault")
    for st in perturbed_states(case):
        x = np.zeros((1, rhs.k, 3))
        x[0, :, 0] = st.delta
        a0 = next(adm._nonlinearity_orders(rhs, x))
        assert np.all(a0[:, 1:] == 0.0)
        pe = (rhs.gain * rhs.pm - a0[:, 0]) / rhs.gain
        want = rhs.electrical_power(st.delta)
        assert np.abs(pe - want).max() <= 1e-13 * np.abs(want).max()
