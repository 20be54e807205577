"""Series evaluation, Adomian polynomials and window derivation.

The expected numbers come from three independent sources: hand-computable
textbook series, finite-difference probes of scalar functions, and sympy
series expansion as a symbolic cross-check of the lambda-composition engine.
"""

import math
from itertools import islice

import numpy as np
import pytest
import sympy as sp

from sas_transim import adm
from sas_transim import (DivergenceError, MachineState, SwingRhsParams,
                         ValidationError, derive_window, eval_window,
                         equilibrium_state)
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
        y=(np.array([[0.0, 1.7], [1.7, 0.0]])
           * np.exp(1j * np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]]))),
        omega0=OMEGA0,
    )


def table1_state():
    return MachineState(np.array([1.0472 + 0.0957, 0.0]), np.array([3.7639, 0.0]))


def sin_cos_of_series(coeffs):
    """Sine and cosine of a polynomial (ascending in t), exact to its
    degree: the one-machine lambda recurrence, taking the t-coefficients as
    constant lambda orders, whose lambda orders are then the t-coefficients
    of sin and cos."""
    u = np.array(coeffs, dtype=float)
    x = u.reshape(u.size, 1, 1)
    sc = np.zeros((2, 1, 1, u.size))
    for m in range(u.size):
        adm._sin_cos_order(sc, x, m, 1)
    return sc[0, 0, 0], sc[1, 0, 0]


def adomian_terms(rhs, terms, order):
    """A_order of the swing nonlinearity, (K, p), along ``terms`` (orders,
    K, p) by lambda order, at the full width (arbitrary terms reach any
    degree)."""
    x = np.array(terms, dtype=float)
    return next(islice(adm._nonlinearity_orders(rhs, x), order, None))


# ---------------------------------------------------------------------------
# Series evaluation and sin/cos of a series


def test_series_eval_horner_t0_exact():
    c = np.array([0.0957, 3.7639, -2.65, 0.1])
    assert adm._polyval(c, 0.0) == 0.0957
    # Horner against direct monomial summation
    t = 0.1
    direct = sum(ck * t ** k for k, ck in enumerate(c))
    assert abs(adm._polyval(c, t) - direct) < 1e-15


@pytest.mark.parametrize("y, named", [
    (np.ones((2, 3)), "square"),
    (np.ones(2), "square"),
    (np.array([[0.0, math.nan], [1.0, 0.0]]), "non-finite"),
    (np.array([[0.0, complex(0.0, math.inf)], [1.0, 0.0]]), "non-finite"),
    (np.zeros((3, 3)), "one entry per machine"),
], ids=["non-square", "one-dimensional", "nan", "inf", "wrong-size"])
def test_rhs_refuses_a_bad_admittance_matrix(y, named):
    with pytest.raises(ValidationError, match=named):
        SwingRhsParams(h=[3.0, 4.0], d=[0.0, 0.0], pm=[0.0, 0.0], e=[1.0, 1.0],
                       y=y, omega0=OMEGA0)


def test_sin_cos_of_zero_series():
    s, c = sin_cos_of_series([0.0])
    assert s.tolist() == [0.0]
    assert c.tolist() == [1.0]


@pytest.mark.parametrize("value", [3.0, 3.5, math.nan, 1])
def test_derive_window_refuses_a_bad_term_count(value):
    with pytest.raises(ValidationError, match="n_terms"):
        derive_window(table1_rhs(), table1_state(), value)


def test_sin_cos_maclaurin():
    """u = t reproduces the Maclaurin series of sin and cos."""
    s, c = sin_cos_of_series([0.0, 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(s, [0, 1, 0, -1 / 6, 0], rtol=0.0, atol=1e-15)
    assert np.allclose(c, [1, 0, -0.5, 0, 1 / 24], rtol=0.0, atol=1e-15)


def test_sin_cos_against_exact_taylor_coefficients():
    """Coefficients of sin(0.3 + 0.1 t) are the exact Taylor coefficients
    0.1^n sin(0.3 + n pi/2) / n!."""
    s, _ = sin_cos_of_series([0.3, 0.1, 0.0, 0.0])
    expected = [math.sin(0.3), 0.1 * math.cos(0.3), -0.01 * math.sin(0.3) / 2.0,
                -0.001 * math.cos(0.3) / 6.0]
    assert np.allclose(s, expected, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Adomian polynomials


def scalar_adomian(func_of_series, terms, order):
    """Classical lambda-order extraction for a scalar nonlinearity.

    ``terms`` are constant term values x_0..x_n; ``func_of_series`` maps the
    ascending coefficients of their polynomial in the lambda variable,
    truncated after ``order``, to those of the composed function.
    """
    lam_poly = np.zeros(order + 1)
    m = min(len(terms), order + 1)
    lam_poly[:m] = terms[:m]
    return func_of_series(lam_poly)[order]


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


def test_adomian_closed_forms_sine():
    """Orders 2..4 of f(x) = sin x, the swing nonlinearity, match the
    classical closed forms.

    With constants x_0..x_4 and f', f'' etc. evaluated by hand:
      A_2 = x2 f'(x0) + x1^2/2 f''(x0)
      A_3 = x3 f'(x0) + x1 x2 f''(x0) + x1^3/6 f'''(x0)
      A_4 = x4 f'(x0) + (x1 x3 + x2^2/2) f''(x0) + x1^2 x2 / 2 f'''(x0)
            + x1^4/24 f''''(x0)
    """
    x = [0.7, 0.31, -0.13, 0.057, -0.023]

    def sine(s):
        return sin_cos_of_series(s)[0]

    f1, f2 = math.cos(x[0]), -math.sin(x[0])
    f3, f4 = -math.cos(x[0]), math.sin(x[0])
    a2 = x[2] * f1 + x[1] ** 2 / 2 * f2
    a3 = x[3] * f1 + x[1] * x[2] * f2 + x[1] ** 3 / 6 * f3
    a4 = (x[4] * f1 + (x[1] * x[3] + x[2] ** 2 / 2) * f2
          + x[1] ** 2 * x[2] / 2 * f3 + x[1] ** 4 / 24 * f4)
    for order, expected in ((2, a2), (3, a3), (4, a4)):
        got = scalar_adomian(sine, x, order)
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
        y=y * np.exp(1j * ang),
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
        eey = np.outer(rhs.e, rhs.e) * np.abs(rhs.y)
        gc, gs = eey * np.cos(np.angle(rhs.y)), eey * np.sin(np.angle(rhs.y))
        n_orders = 3
        # random cubics per order, padded so no product truncates
        coeffs = np.zeros((n_orders, k, 9))
        coeffs[:, :, :4] = rng.uniform(-0.5, 0.5, (n_orders, k, 4))
        coeffs[0, :, 1:] = 0.0   # order zero must be constant
        x_sym = [sum(sp.Float(coeffs[n, i, p]) * t ** p * lam ** n
                     for n in range(n_orders) for p in range(4))
                 for i in range(k)]
        got = [adomian_terms(rhs, coeffs, order) for order in range(n_orders)]
        for i in range(k):
            pe = sum(gc[i, j] * sp.cos(x_sym[i] - x_sym[j])
                     + gs[i, j] * sp.sin(x_sym[i] - x_sym[j])
                     for j in range(k))
            f_i = rhs.gain[i] * (rhs.pm[i] - pe)
            # one expansion through the highest order serves every order
            expanded = sp.series(f_i, lam, 0, n_orders).removeO().expand()
            for order in range(n_orders):
                coeff_poly = sp.Poly(expanded.coeff(lam, order), t)
                want = np.zeros(9)
                for mono, c in zip(coeff_poly.monoms(), coeff_poly.coeffs()):
                    want[mono[0]] = float(c)
                assert np.allclose(got[order][i], want, rtol=0.0, atol=1e-12), \
                    (trial, order, i)


def test_adomian_terms_public_entry_at_table_state():
    """The nonlinearity orders of a window's own terms give A_0 = f(x_0) as a
    constant series and A_1 consistent with x_1 f'(x_0) for the published
    operating point."""
    rhs = table1_rhs()
    st = table1_state()
    w = derive_window(rhs, st, 3)
    a0 = adomian_terms(rhs, w.terms, 0)[0]
    f0 = (OMEGA0 / 6.0) * (rhs.pm[0] - 1.7 * math.sin(1.0472 + 0.0957))
    assert abs(a0[0] - f0) < 1e-9
    assert np.all(a0[1:] == 0.0)
    a1 = adomian_terms(rhs, w.terms, 1)[0]
    fprime = -(OMEGA0 / 6.0) * 1.7 * math.cos(1.0472 + 0.0957)
    x1 = w.terms[1, 0]
    assert np.allclose(a1, fprime * x1, rtol=1e-12, atol=1e-12)


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
        y=np.zeros((1, 1)),
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
    with pytest.raises(DivergenceError, match=r"machine 0, in the window from t=1\.25s") as err:
        derive_window(rhs, huge, 6, t_start=1.25)
    assert err.value.machine == 0
    assert err.value.t == 1.25


def _random_pairs(rng, b):
    """A batch of ``b`` random two-node systems; in every other one node 1
    is an infinite-inertia reference, as in the accuracy-window pairs."""
    y = rng.normal(size=(b, 2, 2)) + 1j * rng.normal(size=(b, 2, 2))
    h = rng.uniform(1.0, 10.0, size=(b, 2))
    h[::2, 1] = math.inf
    rhs = SwingRhsParams(h=h, d=rng.uniform(0.0, 2.0, size=(b, 2)),
                         pm=rng.uniform(0.0, 2.0, size=(b, 2)),
                         e=rng.uniform(0.9, 1.1, size=(b, 2)),
                         y=y + y.swapaxes(1, 2), omega0=OMEGA0)
    state = MachineState(rng.uniform(-1.0, 1.0, size=(b, 2)),
                         rng.uniform(-5.0, 5.0, size=(b, 2)))
    return rhs, state


def _fleet_pairs(case, i_loa_max=5.0):
    """The accuracy-window pairs of ``case``'s fleet at its clearing state,
    one batch item per machine."""
    from sas_transim import ra
    from sas_transim.rk4 import fault_on_bootstrap
    state, _ = fault_on_bootstrap(case, IntegratorConfig(dt=1e-3))
    inputs = [inp for _, inp in ra._pair_inputs(case, state, i_loa_max, None, "post_fault")]
    rhs = ra._pair_rhs([(inp, inp.h) for inp in inputs])
    return rhs, MachineState([[i.delta0_machine, i.delta0_ref] for i in inputs],
                             [[i.ddelta0_machine, i.ddelta0_ref] for i in inputs])


@pytest.mark.parametrize("n_terms", [3, 6])
@pytest.mark.parametrize("batch", ["random", "ieee9-fleet"])
def test_batched_window_items_equal_their_own_windows(batch, n_terms, request):
    """Each item of a batched derivation is bit for bit the window of its
    own unbatched call: the batch axis never changes a product's shape."""
    if batch == "random":
        rhs, state = _random_pairs(np.random.default_rng(5), 5)
    else:
        rhs, state = _fleet_pairs(request.getfixturevalue("ieee9_case"))
    w = derive_window(rhs, state, n_terms)
    assert w.terms.shape == rhs.h.shape[:1] + (n_terms, 2, 2 * n_terms + 1)
    for b in range(rhs.h.shape[0]):
        one = derive_window(
            SwingRhsParams(h=rhs.h[b], d=rhs.d[b], pm=rhs.pm[b], e=rhs.e[b],
                           y=rhs.y[b], omega0=rhs.omega0),
            MachineState(state.delta[b], state.omega_dev[b]), n_terms)
        assert w.terms[b].tobytes() == one.terms.tobytes(), b
        assert w._block[:, b].tobytes() == one._block.tobytes(), b


def test_batched_window_divergence_names_machine():
    """One runaway pair makes the whole batch raise, naming its machine."""
    rhs, state = _random_pairs(np.random.default_rng(6), 3)
    omega = state.omega_dev.copy()
    omega[1, 0] = 1e200
    with pytest.raises(DivergenceError, match="machine 0") as err:
        derive_window(rhs, MachineState(state.delta, omega), 6)
    assert err.value.machine == 0


def test_batched_window_refuses_a_state_of_another_shape():
    rhs, state = _random_pairs(np.random.default_rng(7), 3)
    with pytest.raises(ValidationError, match="state size"):
        derive_window(rhs, MachineState(state.delta[:2], state.omega_dev[:2]), 3)


def test_eval_window_range_check():
    w = derive_window(table1_rhs(), table1_state(), 3, window=0.2)
    with pytest.raises(ValidationError):
        eval_window(w, 0.3)
    with pytest.raises(ValidationError):
        eval_window(w, -0.1)
    with pytest.raises(ValidationError):
        eval_window(w, math.nan)


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
    eey = np.outer(rhs.e, rhs.e) * np.abs(rhs.y)
    gc, gs = eey * np.cos(np.angle(rhs.y)), eey * np.sin(np.angle(rhs.y))

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


def pairwise_electrical_power(rhs, delta):
    """Pe_i = sum_j E_i E_j (G_ij cos delta_ij + B_ij sin delta_ij), the K^2
    pairwise sines and cosines, and the magnitude sum of its terms."""
    eey = rhs.e[:, None] * rhs.e[None, :]
    dd = delta[:, None] - delta[None, :]
    terms = eey * (rhs.y.real * np.cos(dd) + rhs.y.imag * np.sin(dd))
    return terms.sum(axis=1), (eey * (np.abs(rhs.y.real) + np.abs(rhs.y.imag))).sum(axis=1)


def _random_lossy_network(rng, k=6):
    y = rng.uniform(0.1, 1.0, (k, k)) - 1j * rng.uniform(0.5, 5.0, (k, k))
    y = y + y.T
    return SwingRhsParams(h=rng.uniform(2.0, 8.0, k), d=np.zeros(k),
                          pm=rng.uniform(0.0, 2.0, k), e=rng.uniform(0.9, 1.2, k),
                          y=y, omega0=OMEGA0)


@pytest.mark.parametrize("case_name", ["smib", "ieee9", "ieee39", "random"])
def test_electrical_power_matches_the_pairwise_formula(request, case_name):
    """S V + C U with (V, U) = coupling (S, C) equals the pairwise sum to
    1e-13 relative to the magnitude of the terms it sums (on smib the
    machine's self term cancels to round-off instead of to zero)."""
    if case_name == "random":
        rng = np.random.default_rng(12)
        rhs = _random_lossy_network(rng)
        states = [MachineState(rng.uniform(-3.0, 3.0, rhs.k), np.zeros(rhs.k))
                  for _ in range(20)]
    else:
        case = request.getfixturevalue(f"{case_name}_case")
        rhs = SwingRhsParams.from_case(case, "post_fault")
        states = perturbed_states(case, 20)
    for st in states:
        want, scale = pairwise_electrical_power(rhs, st.delta)
        assert (np.abs(rhs.electrical_power(st.delta) - want) <= 1e-13 * scale).all()


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


# ---------------------------------------------------------------------------
# Degree-bounded lambda orders


def full_width_window_terms(rhs, state, n_terms):
    """Reference recursion on all p = 2 n_terms + 1 coefficients at every
    lambda order: each sum of products is one einsum outer product truncated
    to p by a 0/1 table, with nothing bounded by degree."""
    k, p = rhs.k, 2 * n_terms + 1
    table = np.zeros((p * p, p))
    for i in range(p):
        for j in range(p - i):
            table[i * p + j, i + j] = 1.0

    def product(subscripts, a, b):
        outer = np.einsum(subscripts, a, b)
        return outer.reshape(outer.shape[:-2] + (p * p,)) @ table

    x = np.zeros((n_terms, k, p))
    x[0, :, 0] = state.delta
    x[1, :, 1] = state.omega_dev
    sc = np.zeros((n_terms, 2, k, p))
    vu = np.zeros_like(sc)
    ks = np.arange(1.0, p)
    for n in range(n_terms - 1):
        if n == 0:
            sc[0, 0, :, 0] = np.sin(x[0, :, 0])
            sc[0, 1, :, 0] = np.cos(x[0, :, 0])
        else:
            acc = product("mskp,mkq->skpq", sc[:n],
                          x[n:0:-1] * np.arange(n, 0, -1.0)[:, None, None])
            sc[n, 0] = acc[1] / n
            sc[n, 1] = -acc[0] / n
        vu[n] = (rhs.coupling @ sc[n].reshape(2 * k, p)).reshape(2, k, p)
        a_n = -rhs.gain[:, None] * product("mskp,mskq->kpq", sc[:n + 1], vu[n::-1])
        if n == 0:
            a_n[:, 0] += rhs.gain * rhs.pm
        # x_{n+1} = II[A_n] - a (I[x_n] - x_n(0) t)
        damp = x[n, :, :-1] / ks
        damp[:, 0] -= x[n, :, 0]
        x[n + 1, :, 2:] = a_n[:, :-2] / (ks[:-1] * ks[1:])
        x[n + 1, :, 1:] -= rhs.a[:, None] * damp
    return x


CASE_EPOCHS = [("smib", "pre_fault"), ("ieee9", "post_fault"), ("ieee39", "post_fault")]


@pytest.mark.parametrize("case_name, epoch", CASE_EPOCHS)
def test_window_term_n_stays_within_degree_2n(request, case_name, epoch):
    """x_0 is constant, x_1 quadratic and x_{n+1} double-integrates degree
    2n, so term n of every window has no coefficient above t^(2n): the
    bound the kernel trims lambda order n to."""
    case = request.getfixturevalue(f"{case_name}_case")
    rhs = SwingRhsParams.from_case(case, epoch)
    for st in perturbed_states(case):
        for n_terms in range(2, 11):
            terms = derive_window(rhs, st, n_terms).terms
            for n in range(n_terms):
                assert not terms[n, :, 2 * n + 1:].any(), (n_terms, n)


@pytest.mark.parametrize("case_name, epoch", CASE_EPOCHS)
def test_window_matches_full_width_recursion(request, case_name, epoch):
    """Trimming lambda order n to degree 2n changes the terms by round-off
    only: 1e-13 relative to each term's largest coefficient."""
    case = request.getfixturevalue(f"{case_name}_case")
    rhs = SwingRhsParams.from_case(case, epoch)
    for st in perturbed_states(case):
        for n_terms in range(2, 11):
            got = derive_window(rhs, st, n_terms).terms
            want = full_width_window_terms(rhs, st, n_terms)
            scale = np.abs(want).max(axis=2, keepdims=True)
            assert (np.abs(got - want) <= 1e-13 * scale).all(), n_terms
