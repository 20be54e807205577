"""Adomian polynomials of the swing nonlinearity and window derivation.

Each machine's rotor angle over a short window is represented as a sum of
polynomial terms in local time t. Term zero is the initial angle; term one
carries the initial speed plus the doubly integrated initial acceleration;
every later term double-integrates a damping correction of the previous term
together with the next Adomian polynomial of the coupling nonlinearity:

    x_0     = delta(0)
    x_1     = omega(0) t + II[A_0]
    x_{n+1} = -a II[d x_n / dt] + II[A_n],     n >= 1

where II is double integration from 0 and a = D/(2H). A_n is the nth
Adomian polynomial: the lambda^n coefficient of f applied to the
lambda-weighted term sum x = sum_n lambda^n x_n.

The coupling is Pe_i = sum_j Gc_ij cos(x_i - x_j) + Gs_ij sin(x_i - x_j),
with Gc_ij + j Gs_ij = E_i E_j Y_ij on the complex EMF-node admittance Y. With S_i and C_i the lambda series of sin x_i and cos x_i, the identities
cos(x_i - x_j) = C_i C_j + S_i S_j and sin(x_i - x_j) = S_i C_j - C_i S_j give

    Pe_i = S_i V_i + C_i U_i,    (V, U) = [[Gc, Gs], [-Gs, Gc]] (S, C),

so only per-machine series are expanded. Their lambda orders follow from
sin' = cos x', cos' = -sin x' in lambda:

    n S_n =  sum_{m<n} C_m * (n - m) x_{n-m}
    n C_n = -sum_{m<n} S_m * (n - m) x_{n-m}

with * the product of polynomials in t. This is the recursion of the
differential transformation method (Liu, Sun, Yao and Wang, IEEE Trans.
Power Syst., 2019). Since x_0 is constant and x_{n+1} double-integrates
polynomials of degree 2n, x_n, S_n, C_n and A_n have degree 2n at most, so
lambda order n works on q_n = min(2n + 1, p) coefficients of the p = 2N + 1
an N-term window carries. Each sum of products is one matmul of outer
products, truncated once to q_n coefficients, so lambda order n of Pe
costs O(n K q_n^2 + K q_n^3 + K^2 q_n) for K machines. No symbolic algebra
is involved, and no truncation drops a nonzero coefficient.

A window is its terms and its length. Its first read stacks the term sum
and the derivatives of the sum and of the last term into one block, and
every evaluation is one range-checked Horner pass over rows of that block.

Everything here is pure and operates on immutable values; per-machine work
inside one lambda order is data-parallel (vectorized over the machine axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DivergenceError, ValidationError, check_count
from .netmodel import PowerSystemCase, initialized_case


# ---------------------------------------------------------------------------
# Machine state and right-hand-side parameters


@dataclass(frozen=True)
class MachineState:
    """Absolute rotor angles (rad) and speed deviations (rad/s) at an instant.

    Both are (K,) arrays; leading dimensions batch independent systems for
    :func:`derive_window`.
    """

    delta: np.ndarray
    omega_dev: np.ndarray

    def __post_init__(self):
        d = np.array(self.delta, dtype=float)
        w = np.array(self.omega_dev, dtype=float)
        if d.shape != w.shape or d.ndim < 1:
            raise ValidationError("delta and omega_dev must be arrays of one shape")
        if not (np.isfinite(d).all() and np.isfinite(w).all()):
            raise ValidationError("machine state contains non-finite entries")
        d.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "omega_dev", w)

    @property
    def k(self) -> int:
        return self.delta.shape[-1]


@dataclass(frozen=True, eq=False)
class SwingRhsParams:
    """Per-machine swing parameters plus the reduced network of one epoch.

    Encodes d delta_i/dt = dw_i and
    d dw_i/dt = (omega0 / 2 H_i)(Pm_i - Pe_i(delta)) - (D_i / 2 H_i) dw_i with
    Pe_i = sum_j E_i E_j (G_ij cos delta_ij + B_ij sin delta_ij), where
    delta_ij = delta_i - delta_j and ``y`` = G + jB is the complex K-by-K
    admittance among the machine EMF nodes (the j = i term is the
    self-conductance payment E_i^2 G_ii). An infinite inertia marks a node
    with prescribed drift: its acceleration is identically zero.

    ``electrical_power``, ``acceleration`` and the RK4 step loop evaluate
    Pe as S V + C U through ``_evaluator``, and the series kernel does so
    order by order, with S and C the sines and cosines of delta and
    (V, U) = ``coupling`` (S, C).

    Leading dimensions of ``y`` (..., K, K) and of ``h``, ``d``, ``pm`` and
    ``e`` (..., K) batch independent systems for :func:`derive_window`;
    ``electrical_power``, ``acceleration`` and the integrators take one
    system.
    """

    h: np.ndarray
    d: np.ndarray
    pm: np.ndarray
    e: np.ndarray
    y: np.ndarray
    omega0: float

    def __post_init__(self):
        y = np.array(self.y, dtype=complex)
        if y.ndim < 2 or y.shape[-1] != y.shape[-2]:
            raise ValidationError("admittance matrix y must be square")
        if not np.isfinite(y).all():
            raise ValidationError("admittance matrix y contains non-finite entries")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        k = self.k
        for name in ("h", "d", "pm", "e"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != y.shape[:-1]:
                raise ValidationError(f"{name} must have one entry per machine ({k})")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.h > 0).all():
            raise ValidationError("inertias must be positive")
        if not (self.d >= 0).all():
            raise ValidationError("damping must be non-negative")
        if not (self.e > 0).all():
            raise ValidationError("EMF magnitudes must be positive")
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValidationError("omega0 must be positive and finite")
        if not np.isfinite(self.a).all():
            raise ValidationError("damping coefficients must be finite")

    @property
    def k(self) -> int:
        return self.y.shape[-1]

    @cached_property
    def gain(self) -> np.ndarray:
        """omega0 / (2 H); zero for infinite-inertia (reference) nodes."""
        g = self.omega0 / (2.0 * self.h)
        g.setflags(write=False)
        return g

    @cached_property
    def a(self) -> np.ndarray:
        """Damping coefficient D / (2 H)."""
        out = np.where(np.isfinite(self.h), self.d / (2.0 * self.h), 0.0)
        out.setflags(write=False)
        return out

    @cached_property
    def coupling(self) -> np.ndarray:
        """G = [[Gc, Gs], [-Gs, Gc]], a (2K, 2K) block matrix with
        Gc_ij = E_i E_j G_ij and Gs_ij = E_i E_j B_ij.

        It maps the stacked sines and cosines (S, C) of the machine angles to
        (V, U) with Pe = S V + C U.
        """
        eey = self.e[..., :, None] * self.e[..., None, :]
        k = self.k
        out = np.empty(eey.shape[:-2] + (2 * k, 2 * k))
        out[..., :k, :k] = out[..., k:, k:] = eey * self.y.real
        out[..., :k, k:] = eey * self.y.imag
        out[..., k:, :k] = -out[..., :k, k:]
        out.setflags(write=False)
        return out

    def _evaluator(self):
        """The one pointwise evaluation of the swing right-hand side.

        Returns ``evaluate(delta, omega_dev, out)``, which writes
        d omega_dev / dt at the state into ``out`` (K,) and returns it; with
        ``omega_dev`` None it writes Pe instead. Its scratch arrays are
        allocated here, once, so a caller that keeps the function (the RK4
        step loop) evaluates without allocating: 2K sines and cosines, one
        product with ``coupling`` and Pe = S V + C U.
        """
        k = self.k
        sc = np.empty(2 * k)
        vu = np.empty(2 * k)
        s, c, sv_cu, scratch = sc[:k], sc[k:], vu.reshape(2, k), vu[:k]
        gain, pm, a, coupling = self.gain, self.pm, self.a, self.coupling

        def evaluate(delta, omega_dev, out):
            np.sin(delta, out=s)
            np.cos(delta, out=c)
            np.dot(coupling, sc, out=vu)
            np.multiply(sc, vu, out=vu)
            np.add.reduce(sv_cu, axis=0, out=out)
            if omega_dev is None:
                return out
            np.subtract(pm, out, out=out)
            np.multiply(gain, out, out=out)
            np.multiply(a, omega_dev, out=scratch)
            return np.subtract(out, scratch, out=out)

        return evaluate

    def electrical_power(self, delta: np.ndarray) -> np.ndarray:
        """Pe per machine at the given angle vector."""
        return self._evaluator()(delta, None, np.empty(self.k))

    def acceleration(self, delta: np.ndarray, omega_dev: np.ndarray) -> np.ndarray:
        """d omega_dev / dt at the given state."""
        return self._evaluator()(delta, omega_dev, np.empty(self.k))

    @classmethod
    def from_case(cls, case: PowerSystemCase, epoch: str) -> "SwingRhsParams":
        case = initialized_case(case)
        gens = case.generators
        return cls(
            h=np.array([g.H for g in gens]),
            d=np.array([g.D for g in gens]),
            pm=np.array([g.Pm for g in gens]),
            e=np.array([g.E for g in gens]),
            y=case.emf_admittance(epoch),
            omega0=case.omega0,
        )


def equilibrium_state(gens) -> MachineState:
    """The steady state (delta0, 0) of an initialized generator list."""
    d0 = []
    for g in gens:
        if g.delta0 is None:
            raise ValidationError("generators must be initialized first")
        d0.append(g.delta0)
    return MachineState(np.array(d0), np.zeros(len(d0)))


# ---------------------------------------------------------------------------
# Batched polynomial kernels (trailing axis = ascending t powers; any leading
# axes batch independent systems, and each system's products keep the shapes
# of an unbatched call, so its results are the same to the last bit)


@lru_cache(maxsize=None)
def _conv_table(p: int) -> np.ndarray:
    """B[i * p + j, d] = 1 where i + j == d: maps the flattened outer
    product of two p-coefficient polynomials to their truncated product."""
    b = np.zeros((p * p, p))
    for i in range(p):
        for j in range(p - i):
            b[i * p + j, i + j] = 1.0
    b.setflags(write=False)
    return b


def _truncated_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over m of the truncated t-products of a[..., :, m] and b[..., m, :].

    ``a`` holds q-coefficient polynomials down its second-to-last axis and
    ``b`` along its last, so the sum of outer products is one matmul; it is
    truncated once, to q coefficients.
    """
    outer = a @ b
    q = outer.shape[-1]
    return outer.reshape(outer.shape[:-2] + (q * q,)) @ _conv_table(q)


@lru_cache(maxsize=None)
def _index_factors(p: int) -> tuple[np.ndarray, np.ndarray]:
    """k for k = 1..p-1 and (k-1) k for k = 2..p-1: the factors by which
    differentiation multiplies, and single and double integration divide,
    p ascending coefficients."""
    k = np.arange(1.0, p)
    kk = k[:-1] * k[1:]
    k.setflags(write=False)
    kk.setflags(write=False)
    return k, kk


def _polyval(c: np.ndarray, t) -> np.ndarray:
    acc = c[..., -1] + np.zeros_like(np.asarray(t, dtype=float))
    for k in range(c.shape[-1] - 2, -1, -1):
        acc *= t   # in place: the same products and sums, no temporaries
        acc += c[..., k]
    return acc


def _sin_cos_order(sc: np.ndarray, x: np.ndarray, n: int, q: int):
    """Fill ``sc[..., n]`` = (S_n, C_n), the lambda^n coefficients of the
    sine and cosine of each machine's angle series, through t^(q-1).

    ``x`` (..., orders, K, p) holds the angle series by lambda order, with
    x[0] constant in t; ``sc`` (..., 2, K, p, orders) must hold orders
    below n. Order n reads the first q coefficients of x[:n+1] and of the
    lower orders of ``sc`` only, so it is exact when every one of them, and
    S_n and C_n, has degree below q.
    """
    if n == 0:
        sc[..., 0, :, 0, 0] = np.sin(x[..., 0, :, 0])
        sc[..., 1, :, 0, 0] = np.cos(x[..., 0, :, 0])
        return
    dx = x[..., n:0:-1, :, :q] * np.arange(n, 0, -1.0)[:, None, None]   # (n - m) x_{n-m}, m < n
    # (sum C_m dx, sum S_m dx) / (n, -n) = (S_n, C_n)
    acc = _truncated_product(sc[..., ::-1, :, :q, :n], dx.swapaxes(-3, -2)[..., None, :, :, :])
    sc[..., :q, n] = acc / np.array([n, -n])[:, None, None]


def _nonlinearity_orders(rhs: SwingRhsParams, x: np.ndarray, widths=None):
    """Yield A_0, A_1, ... for every machine, each (..., K, p): the lambda^n
    coefficients of gain * (Pm - Pe) along the angle series ``x``
    (..., orders, K, p), batched like ``rhs``.

    ``widths[n]``, by default p, bounds the coefficients lambda order n can
    reach: x_n, S_n, C_n and A_n must have degree below it. Order n works
    on that many coefficients (products truncated there are exact) and pads
    A_n back to p. A_n reads x[:n+1] only, so a caller may fill x[n] after
    receiving A_{n-1}.
    """
    batch, (orders, k, p) = x.shape[:-3], x.shape[-3:]
    # lambda orders last in (S, C) and next to last in (V, U), so that the
    # sums over m of S_m V_{n-m} and C_m U_{n-m} are one matmul
    sc = np.zeros(batch + (2, k, p, orders))
    vu = np.zeros(batch + (2, k, orders, p))
    neg_gain = -rhs.gain[..., None]
    for n, q in enumerate([p] * orders if widths is None else widths):
        _sin_cos_order(sc, x, n, q)
        vu[..., n, :q] = (rhs.coupling @ sc[..., :q, n].reshape(batch + (2 * k, q))
                          ).reshape(batch + (2, k, q))
        s_v_c_u = _truncated_product(sc[..., :q, :n + 1], vu[..., n::-1, :q])
        a_n = np.zeros(batch + (k, p))
        a_n[..., :q] = neg_gain * (s_v_c_u[..., 0, :, :] + s_v_c_u[..., 1, :, :])
        if n == 0:
            a_n[..., 0] += rhs.gain * rhs.pm
        yield a_n


# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class SasWindow:
    """N polynomial terms per machine, valid on [0, T] in window-local time.

    ``terms`` has shape (N, K, degree+1), after any batch dimensions. Every
    evaluation reads rows of ``_block``, derived from the terms on first
    read: the term sum, its derivative and the derivative of the
    highest-order term (the loss-of-accuracy probe), stacked as
    (3, ..., K, degree+1). Each derivative's top coefficient is a zero,
    which leaves every Horner step at t >= 0 bit for bit. ``sum_coeffs`` is
    row 0.
    """

    T: float
    terms: np.ndarray

    @property
    def _block(self) -> np.ndarray:
        # Cached by hand: before Python 3.12, functools.cached_property
        # takes a lock on each first read, about 1.5 us of a ~100 us window.
        block = self.__dict__.get("_block_value")
        if block is None:
            x = self.terms
            ks = _index_factors(x.shape[-1])[0]
            block = np.zeros((3,) + x.shape[:-3] + x.shape[-2:])
            block[0] = x.sum(axis=-3)
            np.multiply(block[0, ..., 1:], ks, out=block[1, ..., :-1])
            np.multiply(x[..., -1, :, 1:], ks, out=block[2, ..., :-1])
            block.setflags(write=False)
            self.__dict__["_block_value"] = block
        return block

    @property
    def sum_coeffs(self) -> np.ndarray:
        return self._block[0]


def derive_window(rhs: SwingRhsParams, state0: MachineState, n_terms: int, *,
                  t_start: float = 0.0, window: float = math.inf) -> SasWindow:
    """Run the modified decomposition recursion from ``state0``.

    ``n_terms`` >= 2 terms are produced per machine, each with 2 * n_terms + 1
    coefficients: more than the highest degree the recursion reaches, so the
    polynomial arithmetic is exact. The window length only tags the result's
    validity range; the coefficients do not depend on it. A batched ``rhs``
    and ``state0`` (same leading dimensions) give a window whose arrays carry
    those dimensions first; each system's terms are those of its own call.
    """
    check_count(n_terms, "n_terms", 2)   # the initial angle and speed terms
    if state0.delta.shape != rhs.h.shape:
        raise ValidationError("state size does not match machine count")
    p = 2 * n_terms + 1
    x = np.zeros(rhs.h.shape[:-1] + (n_terms, rhs.k, p))
    x[..., 0, :, 0] = state0.delta
    x[..., 1, :, 1] = state0.omega_dev
    # deg x_n <= 2n by induction (x_{n+1} double-integrates degree 2n), and
    # the sines, cosines and A_n of order n stay within the same degree.
    orders = _nonlinearity_orders(rhs, x, [min(2 * n + 1, p) for n in range(n_terms)])
    a_col = rhs.a[..., None]
    ks, kk = _index_factors(p)
    # overflow to inf is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_terms - 1):
            a_n = next(orders)
            # x_{n+1} = II[A_n] - a II[dx_n/dt] from t^2 up (x_1 already
            # holds omega t); II[dx_n/dt] has x_n[k] / (k + 1) at t^(k+1).
            x[..., n + 1, :, 2:] = a_n[..., :-2] / kk - a_col * (x[..., n, :, 1:-1] / ks[1:])
    if not np.isfinite(x).all():
        order, machine = (int(i) for i in np.argwhere(~np.isfinite(x))[0][-3:-1])
        raise DivergenceError(
            f"non-finite series coefficient at term order {order}, "
            f"machine {machine}, in the window from t={t_start:.6g}s",
            t=t_start, machine=machine)
    x.setflags(write=False)
    return SasWindow(T=window, terms=x)


def _evaluate(w: SasWindow, t, rows: slice, *, cut: bool = False) -> np.ndarray:
    """Rows ``rows`` of ``w``'s evaluation block at window-local time ``t``,
    a scalar or an array of times, in one Horner pass. Every time must lie
    in [0, T], or in (0, T] for the handoff ``cut``, with 1e-12 s of slack
    at a closed end; the check runs on Python floats, a third of numpy's cost.
    """
    ts = t.ravel().tolist() if isinstance(t, np.ndarray) else [t]
    if not all((0 < s if cut else -1e-12 <= s) and s <= w.T + 1e-12 for s in ts):
        name, start = ("t_cut", "(0") if cut else ("t_local", "window [0")
        raise ValidationError(f"{name}={t} outside {start}, {w.T}]")
    return _polyval(w._block[rows], t)


def eval_window(w: SasWindow, t_local: float) -> MachineState:
    """Evaluate angles and speeds at a window-local time (Horner)."""
    return MachineState(*_evaluate(w, t_local, slice(2)))
