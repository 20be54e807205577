"""Truncated power series and the window-derivation engine for swing dynamics.

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

The coupling is Pe_i = sum_j Gc_ij cos(x_i - x_j) + Gs_ij sin(x_i - x_j).
With S_i and C_i the lambda series of sin x_i and cos x_i, the identities
cos(x_i - x_j) = C_i C_j + S_i S_j and sin(x_i - x_j) = S_i C_j - C_i S_j give

    Pe_i = S_i V_i + C_i U_i,    (V, U) = [[Gc, Gs], [-Gs, Gc]] (S, C),

so only per-machine series are expanded. Their lambda orders follow from
sin' = cos x', cos' = -sin x' in lambda:

    n S_n =  sum_{m<n} C_m * (n - m) x_{n-m}
    n C_n = -sum_{m<n} S_m * (n - m) x_{n-m}

with * the product of polynomials in t. This is the recursion of the
differential transformation method (Liu, Sun, Yao and Wang, IEEE Trans.
Power Syst., 2019). Each sum of products is formed as a sum of outer
products and truncated once, so lambda order n of Pe costs
O(n K p^2 + K p^3 + K^2 p) for K machines and p coefficients per
polynomial. No symbolic algebra is involved, and the degree bound 2N
exceeds every degree an N-term window reaches, so nothing is ever
truncated. The same recurrence for one machine with constant orders gives
the t-series of sin and cos of a polynomial.

Everything here is pure and operates on immutable values; per-machine work
inside one lambda order is data-parallel (vectorized over the machine axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .errors import DivergenceError, ValidationError
from .netmodel import (PowerSystemCase, ReducedNetwork, augment_and_reduce,
                       initialized_case)


# ---------------------------------------------------------------------------
# Truncated polynomial arithmetic


class TruncatedSeries:
    """Polynomial in local time t truncated at a fixed maximum degree.

    Coefficients ascend: ``coeffs[k]`` multiplies t**k. Products truncate to
    the larger operand's degree bound, integration raises the bound,
    differentiation lowers it. Evaluation uses Horner's scheme, so the value
    at t = 0 is exactly ``coeffs[0]``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, max_degree: int | None = None):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1:
            raise ValidationError("series coefficients must be one-dimensional")
        if max_degree is not None:
            if max_degree < 0:
                raise ValidationError("max_degree must be >= 0")
            out = np.zeros(max_degree + 1)
            m = min(c.size, max_degree + 1)
            out[:m] = c[:m]
            c = out
        elif c.size == 0:
            c = np.zeros(1)
        c.setflags(write=False)
        self.coeffs = c

    @property
    def max_degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, t: float) -> float:
        return _polyval(self.coeffs, t)

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs.tolist()})"

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.coeffs.size == other.coeffs.size
                and bool(np.all(self.coeffs == other.coeffs)))

    def __add__(self, other):
        return series_add(self, _coerce(other, self.max_degree))

    __radd__ = __add__

    def __sub__(self, other):
        return series_add(self, series_scale(_coerce(other, self.max_degree), -1.0))

    def __rsub__(self, other):
        return series_add(_coerce(other, self.max_degree), series_scale(self, -1.0))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_mul(self, other)
        return series_scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return series_scale(self, -1.0)


def _coerce(value, max_degree) -> TruncatedSeries:
    if isinstance(value, TruncatedSeries):
        return value
    return TruncatedSeries([float(value)], max_degree=max_degree)


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = max(a.coeffs.size, b.coeffs.size)
    out = np.zeros(n)
    out[:a.coeffs.size] += a.coeffs
    out[:b.coeffs.size] += b.coeffs
    return TruncatedSeries(out)


def series_scale(a: TruncatedSeries, factor: float) -> TruncatedSeries:
    return TruncatedSeries(a.coeffs * factor)


def series_mul(a: TruncatedSeries, b: TruncatedSeries,
               max_degree: int | None = None) -> TruncatedSeries:
    """Product truncated to ``max_degree`` (default: larger operand bound)."""
    if max_degree is None:
        max_degree = max(a.max_degree, b.max_degree)
    return TruncatedSeries(np.convolve(a.coeffs, b.coeffs), max_degree=max_degree)


def series_integrate(a: TruncatedSeries, order: int = 1) -> TruncatedSeries:
    """Antiderivative from 0 (zero constants of integration); degree grows."""
    c = a.coeffs
    for _ in range(order):
        c = np.concatenate(([0.0], c / np.arange(1, c.size + 1)))
    return TruncatedSeries(c)


def series_differentiate(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs.size == 1:
        return TruncatedSeries([0.0])
    return TruncatedSeries(a.coeffs[1:] * np.arange(1, a.coeffs.size))


def sin_cos_of_series(u: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Sine and cosine of a polynomial, exact to the polynomial's degree.

    The one-machine case of the lambda recurrence: taking u's t-coefficients
    as constant lambda orders, the lambda orders of sin and cos are their
    t-coefficients.
    """
    n = u.coeffs.size
    x = u.coeffs.reshape(n, 1, 1)
    sc = np.zeros((n, 2, 1, 1))
    for m in range(n):
        _sin_cos_order(sc, x, m)
    return TruncatedSeries(sc[:, 0, 0, 0]), TruncatedSeries(sc[:, 1, 0, 0])


# ---------------------------------------------------------------------------
# Machine state and right-hand-side parameters


@dataclass(frozen=True)
class MachineState:
    """Absolute rotor angles (rad) and speed deviations (rad/s) at an instant."""

    delta: np.ndarray
    omega_dev: np.ndarray

    def __post_init__(self):
        d = np.array(self.delta, dtype=float)
        w = np.array(self.omega_dev, dtype=float)
        if d.shape != w.shape or d.ndim != 1:
            raise ValidationError("delta and omega_dev must be 1-D and equally long")
        if not (np.isfinite(d).all() and np.isfinite(w).all()):
            raise ValidationError("machine state contains non-finite entries")
        d.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "omega_dev", w)

    @property
    def k(self) -> int:
        return self.delta.size


@dataclass(frozen=True, eq=False)
class SwingRhsParams:
    """Per-machine swing parameters plus the reduced network of one epoch.

    Encodes d delta_i/dt = dw_i and
    d dw_i/dt = (omega0 / 2 H_i)(Pm_i - Pe_i(delta)) - (D_i / 2 H_i) dw_i with
    Pe_i = sum_j E_i E_j Y_ij cos(delta_i - delta_j - theta_ij) (the j = i
    term is the self-conductance payment E_i^2 G_ii). An infinite inertia
    marks a node with prescribed drift: its acceleration is identically zero.
    """

    h: np.ndarray
    d: np.ndarray
    pm: np.ndarray
    e: np.ndarray
    network: ReducedNetwork
    omega0: float

    def __post_init__(self):
        k = self.network.k
        for name in ("h", "d", "pm", "e"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (k,):
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
        return self.network.k

    @cached_property
    def gain(self) -> np.ndarray:
        """omega0 / (2 H); zero for infinite-inertia (reference) nodes."""
        with np.errstate(divide="ignore"):
            g = self.omega0 / (2.0 * self.h)
        g[~np.isfinite(self.h)] = 0.0
        g.setflags(write=False)
        return g

    @cached_property
    def a(self) -> np.ndarray:
        """Damping coefficient D / (2 H)."""
        out = np.where(np.isfinite(self.h), self.d / (2.0 * self.h), 0.0)
        out.setflags(write=False)
        return out

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(Gc, Gs) with Gc_ij = E_i E_j |Y_ij| cos(theta_ij) and Gs_ij
        likewise with sin; contiguous, because ``electrical_power`` runs
        measurably slower on strided blocks of ``coupling``."""
        eey = np.outer(self.e, self.e) * self.network.y_mag
        gc = eey * np.cos(self.network.y_ang)
        gs = eey * np.sin(self.network.y_ang)
        gc.setflags(write=False)
        gs.setflags(write=False)
        return gc, gs

    @cached_property
    def coupling(self) -> np.ndarray:
        """G = [[Gc, Gs], [-Gs, Gc]], a (2K, 2K) block matrix.

        It maps the stacked sines and cosines (S, C) of the machine angles to
        (V, U) with Pe = S V + C U.
        """
        gc, gs = self._blocks
        out = np.block([[gc, gs], [-gs, gc]])
        out.setflags(write=False)
        return out

    def electrical_power(self, delta: np.ndarray) -> np.ndarray:
        """Pe per machine at the given angle vector."""
        gc, gs = self._blocks
        dd = delta[:, None] - delta[None, :]
        return (gc * np.cos(dd) + gs * np.sin(dd)).sum(axis=1)

    def acceleration(self, delta: np.ndarray, omega_dev: np.ndarray) -> np.ndarray:
        """d omega_dev / dt at the given state."""
        return self.gain * (self.pm - self.electrical_power(delta)) - self.a * omega_dev

    @classmethod
    def from_case(cls, case: PowerSystemCase, epoch: str) -> "SwingRhsParams":
        case = initialized_case(case)
        gens = case.generators
        return cls(
            h=np.array([g.H for g in gens]),
            d=np.array([g.D for g in gens]),
            pm=np.array([g.Pm for g in gens]),
            e=np.array([g.E for g in gens]),
            network=augment_and_reduce(case, epoch),
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
# Batched polynomial kernels (trailing axis = ascending t powers)


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


def _truncated_product(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated t-products of ``a`` and ``b``, summed as ``subscripts`` says.

    ``subscripts`` is an einsum spec whose output ends with the two t axes
    (``...pq``); each outer product is summed first and truncated once.
    """
    outer = np.einsum(subscripts, a, b)
    p = outer.shape[-1]
    return outer.reshape(outer.shape[:-2] + (p * p,)) @ _conv_table(p)


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


def _deriv_coeffs(c: np.ndarray) -> np.ndarray:
    return c[..., 1:] * _index_factors(c.shape[-1])[0]


def _polyval(c: np.ndarray, t) -> np.ndarray:
    acc = c[..., -1] + np.zeros_like(np.asarray(t, dtype=float))
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = acc * t + c[..., k]
    return acc


def _sin_cos_order(sc: np.ndarray, x: np.ndarray, n: int):
    """Fill ``sc[n]`` = (S_n, C_n), the lambda^n coefficients of the sine and
    cosine of each machine's angle series.

    ``x`` (orders, K, p) holds the angle series by lambda order, with x[0]
    constant in t; ``sc`` (orders, 2, K, p) must hold orders below n. Order n
    reads x[:n+1] only.
    """
    if n == 0:
        sc[0, 0, :, 0] = np.sin(x[0, :, 0])
        sc[0, 1, :, 0] = np.cos(x[0, :, 0])
        return
    dx = x[n:0:-1] * np.arange(n, 0, -1.0)[:, None, None]   # (n - m) x_{n-m}, m < n
    acc = _truncated_product("mskp,mkq->skpq", sc[:n], dx)
    sc[n, 0] = acc[1] / n
    sc[n, 1] = -acc[0] / n


def _nonlinearity_orders(rhs: SwingRhsParams, x: np.ndarray):
    """Yield A_0, A_1, ... for every machine, each (K, p): the lambda^n
    coefficients of gain * (Pm - Pe) along the angle series ``x``.

    A_n reads x[:n+1] only, so a caller may fill x[n] after receiving A_{n-1}.
    """
    orders, k, p = x.shape
    sc = np.zeros((orders, 2, k, p))
    vu = np.zeros_like(sc)
    for n in range(orders):
        _sin_cos_order(sc, x, n)
        vu[n] = (rhs.coupling @ sc[n].reshape(2 * k, p)).reshape(2, k, p)
        pe = _truncated_product("mskp,mskq->kpq", sc[:n + 1], vu[n::-1])
        a_n = -rhs.gain[:, None] * pe
        if n == 0:
            a_n[:, 0] += rhs.gain * rhs.pm
        yield a_n


# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class SasWindow:
    """N polynomial terms per machine, their sum and derivatives, valid on
    [t_start, t_start + T] in local time.

    ``terms`` has shape (N, K, degree+1); ``sum_coeffs`` is the coefficient
    sum, ``sum_deriv`` its derivative and ``last_term_deriv`` the derivative
    of the highest-order term (the loss-of-accuracy probe).
    """

    t_start: float
    T: float
    n_terms: int
    terms: np.ndarray
    sum_coeffs: np.ndarray
    sum_deriv: np.ndarray
    last_term_deriv: np.ndarray

    @property
    def k(self) -> int:
        return self.terms.shape[1]


def derive_window(rhs: SwingRhsParams, state0: MachineState, n_terms: int, *,
                  t_start: float = 0.0, window: float = math.inf) -> SasWindow:
    """Run the modified decomposition recursion from ``state0``.

    ``n_terms`` >= 2 terms are produced per machine, each with 2 * n_terms + 1
    coefficients: more than the highest degree the recursion reaches, so the
    polynomial arithmetic is exact. The window length only tags the result's
    validity range; the coefficients do not depend on it.
    """
    if n_terms < 2:
        raise ValidationError("need at least two terms (initial angle and speed)")
    if state0.k != rhs.k:
        raise ValidationError("state size does not match machine count")
    p = 2 * n_terms + 1
    x = np.zeros((n_terms, rhs.k, p))
    x[0, :, 0] = state0.delta
    x[1, :, 1] = state0.omega_dev
    orders = _nonlinearity_orders(rhs, x)
    a_col = rhs.a[:, None]
    ks, kk = _index_factors(p)
    # overflow to inf is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_terms - 1):
            a_n = next(orders)
            # Add II[A_n] - a II[dx_n/dt] to x_{n+1} (x_1 already holds
            # omega t); the damping part is -a (I[x_n] - x_n(0) t).
            damp = x[n, :, :-1] / ks
            damp[:, 0] -= x[n, :, 0]
            x[n + 1, :, 2:] = a_n[:, :-2] / kk
            x[n + 1, :, 1:] -= a_col * damp
    bad = ~np.isfinite(x)
    if bad.any():
        order, machine = (int(i) for i in np.argwhere(bad)[0][:2])
        raise DivergenceError(
            f"non-finite series coefficient at term order {order}, "
            f"machine {machine}", t=t_start, machine=machine)
    total = x.sum(axis=0)
    for arr in (x, total):
        arr.setflags(write=False)
    sum_deriv = _deriv_coeffs(total)
    last_deriv = _deriv_coeffs(x[-1])
    sum_deriv.setflags(write=False)
    last_deriv.setflags(write=False)
    return SasWindow(t_start=t_start, T=window, n_terms=n_terms, terms=x,
                     sum_coeffs=total, sum_deriv=sum_deriv,
                     last_term_deriv=last_deriv)


def eval_window(w: SasWindow, t_local: float) -> MachineState:
    """Evaluate angles and speeds at a window-local time (Horner)."""
    if not (-1e-12 <= t_local <= w.T + 1e-12):
        raise ValidationError(f"t_local={t_local} outside window [0, {w.T}]")
    return MachineState(_polyval(w.sum_coeffs, t_local),
                        _polyval(w.sum_deriv, t_local))


# ---------------------------------------------------------------------------
# Stand-alone Adomian polynomial extraction (shares the window engine kernels)


@dataclass(frozen=True)
class LambdaSeries:
    """Terms of a decomposition, indexed by lambda order then machine.

    ``term_coeffs`` has shape (orders, K, degree+1). Order zero must be
    constant in t (the modified recursion pins the initial value there).
    """

    term_coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.term_coeffs, dtype=float)
        if c.ndim != 3:
            raise ValidationError("term_coeffs must be (orders, machines, degree+1)")
        if c.shape[2] > 1 and np.any(c[0, :, 1:] != 0.0):
            raise ValidationError("order-0 terms must be constant series")
        c.setflags(write=False)
        object.__setattr__(self, "term_coeffs", c)

    @property
    def n_orders(self) -> int:
        return self.term_coeffs.shape[0]

    @property
    def k(self) -> int:
        return self.term_coeffs.shape[1]

    def series(self, order: int, machine: int) -> TruncatedSeries:
        return TruncatedSeries(self.term_coeffs[order, machine])

    @classmethod
    def from_window(cls, w: SasWindow) -> "LambdaSeries":
        return cls(w.terms)


def adomian_terms(rhs: SwingRhsParams, x_prev: LambdaSeries,
                  order: int) -> list[TruncatedSeries]:
    """Adomian polynomials A_{i, order} of the swing nonlinearity.

    Composes the nonlinearity through the lambda series of the stored terms;
    the result equals the classical derivative definition. Requires the
    stored terms to cover lambda orders 0..order.
    """
    if order < 0 or order >= x_prev.n_orders:
        raise ValidationError(
            f"order {order} exceeds stored lambda orders (0..{x_prev.n_orders - 1})")
    if x_prev.k != rhs.k:
        raise ValidationError("machine count mismatch")
    a_n = next(islice(_nonlinearity_orders(rhs, x_prev.term_coeffs), order, None))
    return [TruncatedSeries(a_n[i]) for i in range(rhs.k)]
