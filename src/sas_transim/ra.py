"""Accuracy-window estimation, minimum-inertia inversion and mode analysis.

How long can one series window stay accurate? For a machine against a
reference node (a strong bus or a large machine's EMF), the third term of a
three-term expansion is c1 t^4 + c2 t^3; its derivative is the
loss-of-accuracy indicator, and the smallest positive R solving
|4 c1 R^3 + 3 c2 R^2| = I_max is the maximum window of accuracy R_A. It is
the smallest positive real root of the two cubics 4 c1 R^3 + 3 c2 R^2 =
+-I_max (companion-matrix roots polished by two Newton steps); a root
beyond 10 s counts as none, and R_A is then unbounded. Bisecting the same
relation over the inertia gives the smallest H that achieves a desired R_A.

c1 and c2 are read off the mechanically derived third term (the same
recursion the simulator runs), not from a hand closed form; the closed form
is evaluated alongside as a diagnostic and its relative discrepancy is
reported (it agrees to round-off for an undamped machine against a drifting
reference).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .adm import MachineState, SwingRhsParams, derive_window
from .errors import NumericalError, ValidationError
from .netmodel import (PowerSystemCase, ReducedNetwork, augmented_ybus,
                       initialized_case, kron_reduce, reconstruct_voltages)

_RA_MAX = 10.0     # s; indicator roots beyond this count as "no root"


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
        if not (self.i_loa_max > 0):
            raise ValidationError("i_loa_max must be positive")
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


def _pair_rhs(inp: RaInputs) -> SwingRhsParams:
    """Machine-versus-reference equivalent: the reference is an infinite
    inertia node that drifts at its initial angle rate."""
    y_mag = np.array([[abs(inp.g), inp.y], [inp.y, 0.0]])
    theta_self = 0.0 if inp.g >= 0 else math.pi
    y_ang = np.array([[theta_self, inp.theta], [inp.theta, 0.0]])
    return SwingRhsParams(
        h=np.array([inp.h, math.inf]),
        d=np.array([inp.d, 0.0]),
        pm=np.array([inp.pm, 0.0]),
        e=np.array([inp.e, inp.e_inf]),
        network=ReducedNetwork(y_mag, y_ang),
        omega0=inp.omega0,
    )


def _closed_form_c1_c2(inp: RaInputs) -> tuple[float, float]:
    ang = inp.theta + inp.delta0_ref - inp.delta0_machine
    yee = inp.y * inp.e * inp.e_inf
    c1 = (inp.omega0 ** 2 * yee * math.sin(ang) / (96.0 * inp.h ** 2)
          * ((inp.e ** 2 * inp.g - inp.pm) + yee * math.cos(ang)))
    c2 = (inp.omega0 * yee * (inp.ddelta0_ref - inp.ddelta0_machine)
          * math.sin(ang) / (12.0 * inp.h))
    return c1, c2


def _smallest_indicator_root(c1: float, c2: float, target: float):
    """Smallest R in (0, 10 s] with |4 c1 R^3 + 3 c2 R^2| = target.

    The candidates are the positive real roots of the two cubics
    4 c1 R^3 + 3 c2 R^2 = +-target. Two Newton steps polish the smallest,
    because companion-matrix roots lose digits when |c1| << |c2|. The
    indicator starts at zero, below the target, and its crossings alternate
    up and down, so a third root is a second upward crossing.
    Returns (R, status).
    """
    roots = sorted(float(r.real) for level in (target, -target)
                   for r in np.roots([4.0 * c1, 3.0 * c2, 0.0, -level])
                   if r.imag == 0.0 and 0.0 < r.real <= _RA_MAX)
    if not roots:
        return math.inf, "none"
    r = roots[0]
    level = math.copysign(target, (4.0 * c1 * r + 3.0 * c2) * r * r)
    for _ in range(2):
        r -= ((4.0 * c1 * r + 3.0 * c2) * r * r - level) / ((12.0 * c1 * r + 6.0 * c2) * r)
    status = "unique_positive" if len(roots) < 3 else "smallest_positive_of_many"
    return r, status


def estimate_ra(inp: RaInputs) -> RaResult:
    """Maximum window of accuracy for one machine against its reference.

    c1 and c2 come from the three-term recursion on the equivalent pair
    (t^4 and t^3 coefficients of the third term); the hand formula is
    evaluated alongside as a cross-check.
    """
    rhs = _pair_rhs(inp)
    state0 = MachineState(
        np.array([inp.delta0_machine, inp.delta0_ref]),
        np.array([inp.ddelta0_machine, inp.ddelta0_ref]))
    w = derive_window(rhs, state0, 3)
    third = w.terms[2, 0]
    c1 = float(third[4])
    c2 = float(third[3])
    cf1, cf2 = _closed_form_c1_c2(inp)
    scale = max(abs(c1), abs(c2), 1e-30)
    disc = max(abs(c1 - cf1), abs(c2 - cf2)) / scale
    r_a, status = _smallest_indicator_root(c1, c2, inp.i_loa_max)
    return RaResult(c1=c1, c2=c2, r_a=r_a, root_status=status,
                    c1_closed_form=cf1, c2_closed_form=cf2,
                    closed_form_discrepancy=disc)


def estimate_hmin(inp: RaInputs, target_ra: float,
                  h_lo: float = 1e-2, h_hi: float = 1e4) -> float:
    """Smallest inertia whose estimated accuracy window reaches ``target_ra``.

    Bisects on H and returns the upper bracket endpoint once the bracket is
    relatively tighter than 1e-4. An unbounded window (no indicator root)
    counts as reaching any target. The value of ``inp.h`` is ignored.
    """
    if not (target_ra > 0):
        raise ValidationError("target_ra must be positive")

    def reaches(h):
        return estimate_ra(replace(inp, h=h)).r_a >= target_ra

    if not reaches(h_hi):
        raise NumericalError(
            f"target R_A={target_ra}s unreachable even at H={h_hi}s")
    if reaches(h_lo):
        return h_lo
    lo, hi = h_lo, h_hi
    while hi / lo > 1.0 + 1e-4:
        mid = math.sqrt(lo * hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Reducing a full case to machine-versus-reference inputs


def _reduce_around(case: PowerSystemCase, reference, epoch: str):
    """Resolve a reference designation and reduce the network around it.

    ``None`` picks the configured/largest-H generator's EMF node; an integer
    names a network bus; ``("gen", bus)`` or ``("bus", bus)`` names either
    explicitly. Every generator EMF node is kept, in generator order (an
    eliminated source node would distort the couplings), and a reference bus
    last: a generator reference reads the case's own EMF-node reduction, a
    bus reference is reduced here. Returns the initialized case, the
    symmetrized reduced matrix, the reference's row in it, its voltage
    magnitude in the case, and ``motion_at(state)``: its magnitude, angle and
    angle rate at a state (see :func:`ra_inputs_for_machine`).
    """
    case = initialized_case(case)
    if reference is None:
        reference = ("gen", case.reference_bus)
    kind, bus = reference if isinstance(reference, tuple) else ("bus", reference)
    if kind not in ("gen", "bus"):
        raise ValidationError(f"unknown reference kind {kind!r}")
    bus = int(bus)
    if kind == "gen":
        ref = case.generator_position(bus)
        y, e_ref = case.emf_admittance(epoch), case.generators[ref].E

        def motion_at(state):
            return e_ref, float(state.delta[ref]), float(state.omega_dev[ref])
    else:
        if bus not in case.bus_index:
            raise ValidationError(f"unknown bus {bus}")
        ref, node = case.k, case.bus_index[bus]
        aug, internal = augmented_ybus(case, epoch)
        red = kron_reduce(aug, internal + [node])
        y, e_ref = 0.5 * (red + red.T), case.buses[node].voltage_mag

        def motion_at(state):
            emf = np.array([g.E * cmath.exp(1j * d)
                            for g, d in zip(case.generators, state.delta)])
            v_ref = reconstruct_voltages(aug, internal, emf)[node]
            return float(abs(v_ref)), float(cmath.phase(v_ref)), 0.0
    return case, y, ref, float(e_ref), motion_at


def _machine_position(case: PowerSystemCase, machine: int, ref: int) -> int:
    pos = case.generator_position(machine)
    if pos == ref:
        raise ValidationError("reference node coincides with the machine node")
    return pos


def _machine_inputs(case, y, ref, pos, state, motion, i_loa_max) -> RaInputs:
    """Inputs of the machine at ``pos``, given the reference's ``motion``
    (magnitude, angle, angle rate) at ``state``."""
    gen = case.generators[pos]
    e_inf, d_ref, dd_ref = motion
    return RaInputs(
        h=gen.H, d=gen.D, omega0=case.omega0, pm=gen.Pm, e=gen.E,
        g=float(y[pos, pos].real), e_inf=e_inf, y=float(abs(y[pos, ref])),
        theta=float(cmath.phase(y[pos, ref])),
        delta0_machine=float(state.delta[pos]),
        ddelta0_machine=float(state.omega_dev[pos]),
        delta0_ref=d_ref, ddelta0_ref=dd_ref, i_loa_max=i_loa_max,
    )


def transfer_admittance(case: PowerSystemCase, machine: int, reference_node=None,
                        epoch: str = "post_fault"):
    """Transfer admittance from one machine's EMF node to a reference node.

    The augmented admittance matrix is Kron-reduced keeping the machine EMF
    nodes (and the reference bus, when the reference is a network bus);
    returns (Y, theta, E_inf) where Y∠theta is the off-diagonal entry
    between the machine's EMF node and the reference node, and E_inf is the
    reference node's voltage magnitude (internal EMF for a generator
    reference, case power-flow value for a bus).
    """
    case, y, ref, e_ref, _ = _reduce_around(case, reference_node, epoch)
    y12 = y[_machine_position(case, machine, ref), ref]
    return float(abs(y12)), float(cmath.phase(y12)), e_ref


def ra_inputs_for_machine(case: PowerSystemCase, machine: int,
                          state: MachineState, i_loa_max: float,
                          reference=None, epoch: str = "post_fault") -> RaInputs:
    """Build accuracy-window inputs for one machine at a given system state.

    The machine and reference angles/rates are read from ``state`` (full
    machine state in generator order). A generator reference contributes its
    own dynamic state; a bus reference contributes the bus voltage phasor
    reconstructed from the machine EMFs at ``state``, with zero drift.
    """
    case, y, ref, _, motion_at = _reduce_around(case, reference, epoch)
    return _machine_inputs(case, y, ref, _machine_position(case, machine, ref),
                           state, motion_at(state), i_loa_max)


def fleet_ra(case: PowerSystemCase, state: MachineState, i_loa_max: float,
             reference=None, epoch: str = "post_fault", jobs: int = 1):
    """Per-machine accuracy windows; the system window is their minimum.

    Returns a list of (bus, RaInputs, RaResult), skipping the reference
    machine when the reference is a generator EMF node. The network is
    reduced, and the reference's motion found, once per call.
    """
    case, y, ref, _, motion_at = _reduce_around(case, reference, epoch)
    motion = motion_at(state)

    def one(pos):
        inp = _machine_inputs(case, y, ref, pos, state, motion, i_loa_max)
        return case.generators[pos].bus, inp, estimate_ra(inp)

    positions = [pos for pos in range(case.k) if pos != ref]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(one, positions))
    return [one(pos) for pos in positions]


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
