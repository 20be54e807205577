"""Accuracy-window estimation, minimum-inertia inversion and mode analysis.

How long can one series window stay accurate? For a machine against a
reference node (a strong bus or a large machine's EMF), the third term of a
three-term expansion is c1 t^4 + c2 t^3; its derivative is the
loss-of-accuracy indicator, and the smallest positive R solving
|4 c1 R^3 + 3 c2 R^2| = I_max is the maximum window of accuracy R_A. It is
the smallest positive real root of the two cubics 4 c1 R^3 + 3 c2 R^2 =
+-I_max (companion-matrix roots polished by two Newton steps); a root
beyond 10 s counts as none, and R_A is then unbounded. A fleet of machines
is one batched derivation and one stacked eigenvalue solve.

The minimum inertia for a desired R_A inverts the same relation. With
u = 1/H, the gain omega0/2H and the damping D/2H are both proportional to u,
so c1 and c2 lie in the span of (u, u^2) and the indicator is
u p(R) + u^2 q(R) with cubics p and q read off two inertias. H_min is the
smallest H such that every H' >= H reaches the target; the boundary values
of u are closed-form roots (see :func:`estimate_hmin`), so R_A need not be
monotone in H.

c1 and c2 are read off the mechanically derived third term (the same
recursion the simulator runs), not from a hand closed form; the closed form
is evaluated alongside as a diagnostic and its relative discrepancy is
reported (it agrees to round-off for an undamped machine against a drifting
reference).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .adm import MachineState, SwingRhsParams, derive_window
from .errors import NumericalError, ValidationError
from .netmodel import PowerSystemCase, initialized_case
from .netmodel import kron_reduce  # noqa: F401  (the benchmark's tracer checks this binding)

_RA_MAX = 10.0     # s; indicator roots beyond this count as "no root"
# s; estimate_hmin clamps H_min up to _H_LO and refuses one above _H_HI
_H_LO, _H_HI = 1e-2, 1e4


@dataclass(frozen=True)
class RaInputs:
    """One machine against a reference node, reduced to an equivalent pair.

    ``y``/``theta`` are the transfer admittance between the machine EMF node
    and the reference node; ``g`` the machine's self-conductance in that
    two-node reduction; ``e_inf`` the reference voltage magnitude. The
    initial state carries the machine's and the reference's angles and
    angle rates at the instant the window would start.
    """

    h: float
    d: float
    omega0: float
    pm: float
    e: float
    g: float
    e_inf: float
    y: float
    theta: float
    delta0_machine: float
    ddelta0_machine: float
    delta0_ref: float
    ddelta0_ref: float
    i_loa_max: float

    def __post_init__(self):
        if not (self.h > 0):
            raise ValidationError("h must be positive")
        if not (self.y > 0):
            raise ValidationError("transfer admittance magnitude must be positive")
        if not (self.i_loa_max > 0 and math.isfinite(self.i_loa_max)):
            raise ValidationError(
                f"i_loa_max must be positive and finite, got {self.i_loa_max!r}")
        for name in ("d", "omega0", "pm", "e", "g", "e_inf", "theta",
                     "delta0_machine", "ddelta0_machine", "delta0_ref",
                     "ddelta0_ref"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class RaResult:
    c1: float                  # t^4 coefficient of the third term, rad/s^4
    c2: float                  # t^3 coefficient, rad/s^3
    r_a: float                 # maximum window of accuracy, s (inf if no root)
    root_status: str           # unique_positive | smallest_positive_of_many | none
    c1_closed_form: float      # hand formula, diagnostic only
    c2_closed_form: float
    closed_form_discrepancy: float  # max relative deviation of the closed form


def _pair_rhs(items) -> SwingRhsParams:
    """Machine-versus-reference equivalents of ``items``, a list of
    (RaInputs, inertia), as one batch of K = 2 pairs, an item per entry.

    Each pair holds the machine at node 0, at the given inertia, and its
    reference at node 1, an infinite-inertia node that drifts at its
    initial angle rate. Every item needs the same omega0.
    """
    y12 = [cmath.rect(inp.y, inp.theta) for inp, _ in items]
    return SwingRhsParams(
        h=[[h, math.inf] for _, h in items],
        d=[[inp.d, 0.0] for inp, _ in items],
        pm=[[inp.pm, 0.0] for inp, _ in items],
        e=[[inp.e, inp.e_inf] for inp, _ in items],
        y=[[[inp.g, y], [y, 0.0]] for (inp, _), y in zip(items, y12)],
        omega0=items[0][0].omega0,
    )


def _third_term(items) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2), the t^4 and t^3 coefficients of the machine's third term,
    one per item: one N = 3 derivation of the batch that :func:`_pair_rhs`
    builds."""
    state0 = MachineState([[inp.delta0_machine, inp.delta0_ref] for inp, _ in items],
                          [[inp.ddelta0_machine, inp.ddelta0_ref] for inp, _ in items])
    third = derive_window(_pair_rhs(items), state0, 3).terms[:, 2, 0]
    return third[:, 4], third[:, 3]


def _closed_form_c1_c2(inp: RaInputs) -> tuple[float, float]:
    ang = inp.theta + inp.delta0_ref - inp.delta0_machine
    yee = inp.y * inp.e * inp.e_inf
    c1 = (inp.omega0 ** 2 * yee * math.sin(ang) / (96.0 * inp.h ** 2)
          * ((inp.e ** 2 * inp.g - inp.pm) + yee * math.cos(ang)))
    c2 = (inp.omega0 * yee * (inp.ddelta0_ref - inp.ddelta0_machine)
          * math.sin(ang) / (12.0 * inp.h))
    return c1, c2


def _poly_roots(coeffs) -> list[list[complex]]:
    """The roots ``numpy.roots`` returns for each row of ``coeffs``
    (rows, degree + 1), bit for bit and in its order.

    Each row is trimmed of leading and trailing zeros and its companion
    matrix built as ``numpy.roots`` builds it; the matrices are stacked by
    trimmed degree, one eigenvalue solve per degree, and each trailing zero
    is a zero root. An all-zero row has no roots.
    """
    rows = np.asarray(coeffs, dtype=float).tolist()
    out = [[] for _ in rows]
    zeros = [0] * len(rows)
    by_degree = {}
    for i, row in enumerate(rows):
        nonzero = [j for j, c in enumerate(row) if c]
        if nonzero:
            first, last = nonzero[0], nonzero[-1]
            zeros[i] = len(row) - 1 - last
            if last > first:
                by_degree.setdefault(last - first, []).append((i, row[first:last + 1]))
    for degree, members in by_degree.items():
        p = np.array([row for _, row in members])
        companion = np.zeros((len(members), degree, degree))
        companion[:, 1:, :-1] = np.eye(degree - 1)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        for (i, _), roots in zip(members, np.linalg.eigvals(companion).tolist()):
            out[i] = roots
    return [roots + [0j] * n for roots, n in zip(out, zeros)]


def _indicator_roots(c1, c2, targets) -> list[tuple[float, str]]:
    """Smallest R in (0, 10 s] with |4 c1 R^3 + 3 c2 R^2| = target, for
    each entry of the equally long sequences ``c1``, ``c2`` and ``targets``.

    The candidates are the positive real roots of the two cubics
    4 c1 R^3 + 3 c2 R^2 = +-target, all found by one :func:`_poly_roots`.
    Two Newton steps polish the smallest, because companion-matrix roots
    lose digits when |c1| << |c2|. The indicator starts at zero, below the
    target, and its crossings alternate up and down, so a third root is a
    second upward crossing. Returns one (R, status) per entry.
    """
    entries = [(float(a), float(b), float(t)) for a, b, t in zip(c1, c2, targets)]
    at_plus = [[4.0 * a, 3.0 * b, 0.0, -t] for a, b, t in entries]
    at_minus = [[4.0 * a, 3.0 * b, 0.0, t] for a, b, t in entries]
    roots = _poly_roots(at_plus + at_minus)
    out = []
    for (a, b, target), plus, minus in zip(entries, roots, roots[len(entries):]):
        reals = [r.real for r in plus + minus
                 if r.imag == 0.0 and 0.0 < r.real <= _RA_MAX]
        if not reals:
            out.append((math.inf, "none"))
            continue
        r = min(reals)
        level = math.copysign(target, (4.0 * a * r + 3.0 * b) * r * r)
        for _ in range(2):
            r -= ((4.0 * a * r + 3.0 * b) * r * r - level) / ((12.0 * a * r + 6.0 * b) * r)
        out.append((r, "unique_positive" if len(reals) < 3 else "smallest_positive_of_many"))
    return out


def _ra_results(inputs) -> list[RaResult]:
    """:func:`estimate_ra` of every entry of ``inputs``: one batched
    derivation and one root solve for all of them."""
    c1s, c2s = (c.tolist() for c in _third_term([(inp, inp.h) for inp in inputs]))
    roots = _indicator_roots(c1s, c2s, [inp.i_loa_max for inp in inputs])
    out = []
    for inp, c1, c2, (r_a, status) in zip(inputs, c1s, c2s, roots):
        cf1, cf2 = _closed_form_c1_c2(inp)
        scale = max(abs(c1), abs(c2), 1e-30)
        disc = max(abs(c1 - cf1), abs(c2 - cf2)) / scale
        out.append(RaResult(c1=c1, c2=c2, r_a=r_a, root_status=status,
                            c1_closed_form=cf1, c2_closed_form=cf2,
                            closed_form_discrepancy=disc))
    return out


def estimate_ra(inp: RaInputs) -> RaResult:
    """Maximum window of accuracy for one machine against its reference.

    c1 and c2 come from the three-term recursion on the equivalent pair
    (t^4 and t^3 coefficients of the third term); the hand formula is
    evaluated alongside as a cross-check.
    """
    return _ra_results([inp])[0]


def _positive_u(q: float, p: float, level: float):
    """Positive roots u of q u^2 + p u = level (the cancellation-free form
    of the quadratic formula, so a small root keeps its digits)."""
    disc = p * p + 4.0 * q * level
    if disc < 0.0:
        return []
    s = -0.5 * (p + math.copysign(math.sqrt(disc), p))
    roots = (s / q if q else math.inf, -level / s if s else math.inf)
    return [u for u in roots if 0.0 < u < math.inf]


def estimate_hmin(inp: RaInputs, target_ra: float) -> float:
    """Smallest inertia H such that every H' >= H reaches ``target_ra``.

    An unbounded window (no indicator root) counts as reaching any target,
    and the value of ``inp.h`` is ignored. With u = 1/H the indicator is
    g(R, u) = u p(R) + u^2 q(R); the pair at H = 1 s and at H = 2 s
    (u = 1 and 1/2), two items of one batched derivation, gives the cubics
    p and q, with (c1, c2) bit for bit those :func:`estimate_ra` derives at
    those inertias. H reaches the target T = min(target_ra, 10 s) while
    max |g| over (0, T) stays below I_max, so the boundary values of u are
    where that maximum equals I_max, at R = T or at an interior extremum.
    The candidates are the positive roots u of

    - q(T) u^2 + p(T) u = +-I_max, and
    - q(R) u^2 + p(R) u = +-I_max at each real R in (0, T) solving
      -p'(p q' - p' q) -+ I_max q'^2 = 0 (dg/dR = 0 there, for
      u = -p'/q').

    The smallest candidate u* that (1 + 1e-9) u* misses is the boundary
    (a touching candidate is passed over), and H_min = 1/u*, clamped up to
    1e-2 s; an H_min above 1e4 s raises NumericalError. Where R_A grows
    with H this is simply the first H whose window reaches the target. The
    fit can land a relative 1e-12 below the boundary of the directly derived
    window, so the first rung of the ladder H_min (1 + 1e-12)^k, k = 0..8,
    that :func:`estimate_ra` would pass is returned; rungs 0 and 1 are
    derived and solved as one batch, and rungs 2-8 as a second one only
    when both miss. ``target_ra`` must be positive and finite.
    """
    if not (target_ra > 0 and math.isfinite(target_ra)):
        raise ValidationError(f"target_ra must be positive and finite, got {target_ra!r}")
    i_max = inp.i_loa_max
    (c1_1, c1_2), (c2_1, c2_2) = (c.tolist() for c in _third_term([(inp, 1.0), (inp, 2.0)]))
    # c = alpha u + beta u^2, read off u = 1 and u = 1/2
    alpha1, beta1 = 4.0 * c1_2 - c1_1, 2.0 * c1_1 - 4.0 * c1_2
    alpha2, beta2 = 4.0 * c2_2 - c2_1, 2.0 * c2_1 - 4.0 * c2_2
    # p(R) = a3 R^3 + a2 R^2, q(R) = b3 R^3 + b2 R^2, p q' - p' q = kappa R^4
    a3, a2, b3, b2 = 4.0 * alpha1, 3.0 * alpha2, 4.0 * beta1, 3.0 * beta2
    kappa = a2 * b3 - a3 * b2
    t_end = min(target_ra, _RA_MAX)

    levels = (i_max, -i_max)
    # The sextic above divided by -R^2, at both levels. A double root may
    # come back as a complex pair; keeping its real part costs one check at
    # most.
    quartics = _poly_roots([[3.0 * kappa * a3, 2.0 * kappa * a2, 9.0 * level * b3 * b3,
                             12.0 * level * b3 * b2, 4.0 * level * b2 * b2]
                            for level in levels])
    candidates = []
    for level, roots in zip(levels, quartics):
        extrema = [r.real for r in roots
                   if abs(r.imag) <= 1e-6 * abs(r) and 0.0 < r.real < t_end]
        for r in (t_end, *extrema):
            candidates += _positive_u((b3 * r + b2) * r * r, (a3 * r + a2) * r * r, level)

    # u* is the first candidate whose (1 + 1e-9) u misses the target.
    below = [u for u in sorted(candidates) if u < 1.0 / _H_LO]
    probes = [u * (1.0 + 1e-9) for u in below]
    checked = _indicator_roots([alpha1 * u + beta1 * u * u for u in probes],
                               [alpha2 * u + beta2 * u * u for u in probes],
                               [i_max] * len(probes))
    u_star = next((u for u, (r, _) in zip(below, checked) if r < target_ra), None)
    if u_star is not None and u_star < 1.0 / _H_HI:
        raise NumericalError(
            f"target R_A={target_ra}s unreachable up to H={_H_HI}s: inertias "
            f"just below {1.0 / u_star:.6g}s miss it")
    h_min = _H_LO if u_star is None else 1.0 / u_star
    ladder = (h_min * (1.0 + 1e-12) ** np.arange(9)).tolist()
    # Rungs 0 and 1 almost always pass, so they are derived and solved first
    # and rungs 2-8 only when both miss; each rung's figures are its own.
    for rungs in (ladder[:2], ladder[2:]):
        c1s, c2s = (c.tolist() for c in _third_term([(inp, h) for h in rungs]))
        roots = _indicator_roots(c1s, c2s, [i_max] * len(rungs))
        for h, (r_a, _) in zip(rungs, roots):
            if r_a >= target_ra:
                return h
    raise NumericalError(
        f"target R_A={target_ra}s: estimate_ra misses it at H={ladder[-1]:.12g}s, "
        f"8 nudges above the closed-form H_min")


# ---------------------------------------------------------------------------
# Reducing a full case to machine-versus-reference inputs


def _pair_inputs(case: PowerSystemCase, state: MachineState, i_loa_max: float,
                 reference, epoch: str, machines=None):
    """(bus, RaInputs) of each machine against one reference node at ``state``.

    ``reference`` ``None`` picks the configured/largest-H generator's EMF
    node; an integer names a network bus; ``("gen", bus)`` or
    ``("bus", bus)`` names either explicitly. The case's memoized reduction
    keeps every generator EMF node (an eliminated source node would distort
    the couplings) and a reference bus last. A generator reference moves
    with its own E, angle and angle rate; a bus reference with the voltage
    V_b rebuilt from the machine EMFs at ``state``, at zero drift.
    ``machines`` (generator buses) defaults to every machine but a generator
    reference; naming the reference is refused.
    """
    case = initialized_case(case)
    if reference is None:
        reference = ("gen", case.reference_bus)
    kind, bus = reference if isinstance(reference, tuple) else ("bus", reference)
    if kind not in ("gen", "bus"):
        raise ValidationError(f"unknown reference kind {kind!r}")
    bus = int(bus)
    if kind == "gen":
        ref, y = case.generator_position(bus), case.emf_admittance(epoch)
        e_inf = case.generators[ref].E
        d_ref, dd_ref = float(state.delta[ref]), float(state.omega_dev[ref])
    else:
        ref, y = case.k, case.emf_admittance(epoch, bus)   # refuses an unknown bus
        # No injection at the bus: Y[b, :K] E + Y[b, b] V_b = 0.
        emf = np.array([g.E * cmath.exp(1j * d)
                        for g, d in zip(case.generators, state.delta)])
        v_ref = -(y[ref, :ref] @ emf) / y[ref, ref]
        e_inf, d_ref, dd_ref = float(abs(v_ref)), float(cmath.phase(v_ref)), 0.0
    if machines is None:
        positions = [pos for pos in range(case.k) if pos != ref]
    else:
        positions = [case.generator_position(m) for m in machines]
        if ref in positions:
            raise ValidationError("reference node coincides with the machine node")
    pairs = []
    for pos in positions:
        gen = case.generators[pos]
        pairs.append((gen.bus, RaInputs(
            h=gen.H, d=gen.D, omega0=case.omega0, pm=gen.Pm, e=gen.E,
            g=float(y[pos, pos].real), e_inf=e_inf, y=float(abs(y[pos, ref])),
            theta=float(cmath.phase(y[pos, ref])),
            delta0_machine=float(state.delta[pos]),
            ddelta0_machine=float(state.omega_dev[pos]),
            delta0_ref=d_ref, ddelta0_ref=dd_ref, i_loa_max=i_loa_max)))
    return pairs


def ra_inputs_for_machine(case: PowerSystemCase, machine: int,
                          state: MachineState, i_loa_max: float,
                          reference=None, epoch: str = "post_fault") -> RaInputs:
    """Build accuracy-window inputs for one machine at a given system state.

    The machine and reference angles/rates are read from ``state`` (full
    machine state in generator order). A generator reference contributes its
    own dynamic state; a bus reference contributes the bus voltage phasor
    rebuilt from the machine EMFs at ``state``, with zero drift, and E_inf
    is its magnitude. A machine that is the reference is refused.
    """
    return _pair_inputs(case, state, i_loa_max, reference, epoch, [machine])[0][1]


def fleet_ra(case: PowerSystemCase, state: MachineState, i_loa_max: float,
             reference=None, epoch: str = "post_fault", jobs: int = 1):
    """Per-machine accuracy windows; the system window is their minimum.

    Returns a list of (bus, RaInputs, RaResult), skipping the reference
    machine when the reference is a generator EMF node. The inputs are
    built once per call by :func:`_pair_inputs`, and every machine's result
    equals :func:`estimate_ra` on its inputs, from one batched derivation
    and one root solve. ``jobs`` must be at least 1 and is otherwise unused;
    it stays only while the benchmark's traced probe passes it, and goes
    with the next benchmark revision.
    """
    if not jobs >= 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs!r}")
    pairs = _pair_inputs(case, state, i_loa_max, reference, epoch)
    if not pairs:
        return []
    results = _ra_results([inp for _, inp in pairs])
    return [(bus, inp, res) for (bus, inp), res in zip(pairs, results)]


def system_ra(results) -> float:
    """Minimum finite per-machine window; inf when every machine is quiet."""
    finite = [r.r_a for _, _, r in results if math.isfinite(r.r_a)]
    return min(finite) if finite else math.inf


# ---------------------------------------------------------------------------
# Small-signal oscillation modes


@dataclass(frozen=True)
class ModeAnalysis:
    """Oscillation periods (descending) and matching angular frequencies."""

    periods: tuple[float, ...]
    frequencies: tuple[float, ...]


def mode_periods(rhs: SwingRhsParams, equilibrium: MachineState, *,
                 require_equilibrium: bool = True) -> ModeAnalysis:
    """Eigen-analysis of the undamped linearized swing system.

    Builds the synchronizing-torque matrix S_ij = dPe_i/ddelta_j at the
    given operating point, scales rows by omega0/(2 H_i), and converts
    positive eigenvalues to periods. The rigid-body (near-zero) modes are
    excluded; a clearly negative eigenvalue means the operating point is
    unstable and raises.

    By default the state must actually be an equilibrium of ``rhs``.
    Passing ``require_equilibrium=False`` permits linearizing a switched
    (e.g. post-fault) network at the pre-disturbance equilibrium angles,
    which is how published post-contingency time constants are obtained.
    """
    accel = rhs.gain * (rhs.pm - rhs.electrical_power(equilibrium.delta))
    worst = float(np.abs(accel).max())
    if require_equilibrium and worst >= 1e-6:
        raise ValidationError(
            f"state is not an equilibrium: max |acceleration| = {worst:.3e} rad/s^2")
    k = rhs.k
    dd = equilibrium.delta[:, None] - equilibrium.delta[None, :]
    off = rhs.coupling[:k, :k] * np.sin(dd) - rhs.coupling[:k, k:] * np.cos(dd)
    stiff = off.copy()
    np.fill_diagonal(stiff, 0.0)
    np.fill_diagonal(stiff, -stiff.sum(axis=1))
    lam = np.linalg.eigvals(rhs.gain[:, None] * stiff)
    scale = float(np.abs(lam).max())
    if scale == 0.0:
        return ModeAnalysis(periods=(), frequencies=())
    if np.abs(lam.imag).max() > 1e-6 * scale:
        raise NumericalError(
            "linearized system has significantly complex eigenvalues; "
            "the undamped mode model does not apply")
    lam = lam.real
    keep = np.abs(lam) > 1e-8 * scale
    lam = lam[keep]
    if (lam < 0).any():
        raise NumericalError(
            f"unstable equilibrium: negative eigenvalue {lam.min():.6g}")
    freqs = np.sort(np.sqrt(lam))
    periods = 2.0 * math.pi / freqs
    return ModeAnalysis(periods=tuple(float(p) for p in periods),
                        frequencies=tuple(float(f) for f in freqs))
