"""Fixed-step 4th-order Runge-Kutta reference for the swing equations.

This is the ground-truth engine the series windows are benchmarked against,
and the bootstrap that integrates the fault-on interval to produce the
post-disturbance initial state. Angles are never wrapped: loss of synchronism
shows up as unbounded growth, which is reported, not treated as an error.

``integrate`` steps the stacked state (delta, omega_dev) in place. Every
buffer (stage states and derivatives, the right-hand side's scratch, the
samples) is allocated once per call, and each step runs the classical
formula's operations in its textbook order, so the result does not depend
on the buffering. A step costs four evaluations of
``SwingRhsParams._evaluator``, the one place Pe = S V + C U is computed
pointwise, plus a fixed number of vector operations and one finiteness
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .adm import MachineState, SwingRhsParams, equilibrium_state
from .errors import DivergenceError, ValidationError, check_count
from .mmadm import Trajectory
from .netmodel import PowerSystemCase, initialized_case

# Steps one integration may take; a longer horizon/dt is refused up front.
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3            # fixed step, s
    record_every: int = 1       # steps between stored samples

    def __post_init__(self):
        if not (0 < self.dt and math.isfinite(self.dt)):
            raise ValidationError("dt must be positive and finite")
        check_count(self.record_every, "record_every", 1)


def integrate(rhs: SwingRhsParams, state0: MachineState, horizon: float,
              cfg: IntegratorConfig = IntegratorConfig(),
              t0: float = 0.0) -> Trajectory:
    """Classical RK4 with a fixed step; the last step is shortened to land
    exactly on the horizon. A remainder below 1e-12 of max(1 s, horizon) is
    not stepped, and the last whole step, which then ends that close to the
    horizon (or within 1e-9 dt past it), is stamped ``t0 + horizon``.
    Samples are stored at the start, every ``record_every`` steps and at the
    end. More than ``MAX_STEPS`` steps are refused.

    The state y = (delta, omega_dev) is one (2, K) array stepped in place;
    its stage derivatives f(y) = (omega_dev, acceleration), the stage state
    and the samples are allocated once, before the loop. A step that leaves
    the finite range raises ``DivergenceError`` naming its end time and the
    first machine whose angle or speed is non-finite.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValidationError(f"horizon must be positive and finite, got {horizon!r}")
    if state0.k != rhs.k:
        raise ValidationError("state size does not match machine count")
    dt = cfg.dt
    if horizon / dt > MAX_STEPS:
        raise ValidationError(
            f"horizon {horizon:g} s at dt {dt:g} s needs {horizon / dt:.3g} steps, "
            f"more than MAX_STEPS = {MAX_STEPS}")
    n_full = int(math.floor(horizon / dt + 1e-9))
    remainder = horizon - n_full * dt
    if remainder < 1e-12 * max(1.0, horizon):
        remainder = 0.0
    n_steps = n_full + (remainder > 0.0)
    every = cfg.record_every
    n_records = 1 + n_steps // every + (n_steps % every != 0)

    evaluate = rhs._evaluator()
    # Stage n keeps its state (delta, omega_dev) in rows 0-1 of block n and
    # its acceleration in row 2, so rows 1-2 are its derivative
    # k_n = (omega_dev, acceleration) without a copy. Block 0's state is y.
    # The views are made once, here.
    blocks = np.empty((4, 3, rhs.k))
    blocks[0, :2] = state0.delta, state0.omega_dev
    state, deriv = list(blocks[:, :2]), list(blocks[:, 1:])
    angles, speeds, accels = (list(blocks[:, row]) for row in range(3))
    y, (k1, k2, k3, k4) = state[0], deriv
    total, tmp = np.empty((2, 2, rhs.k))
    samples = np.empty((2, n_records, rhs.k))   # angles, speeds
    times = np.empty(n_records)
    samples[:, 0], times[0] = y, t0
    record = 1
    # overflow to inf inside a step is how divergence is detected below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            h = dt if step <= n_full else remainder
            t = t0 + step * dt if step < n_steps else t0 + horizon
            evaluate(angles[0], speeds[0], accels[0])            # k1 = f(y)
            for n, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):    # k_{n+1} = f(y + c k_n)
                np.multiply(deriv[n - 1], c, out=state[n])
                np.add(y, state[n], out=state[n])
                evaluate(angles[n], speeds[n], accels[n])
            # y += h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.multiply(k2, 2.0, out=total)
            np.add(k1, total, out=total)
            np.multiply(k3, 2.0, out=tmp)
            np.add(total, tmp, out=total)
            np.add(total, k4, out=total)
            np.multiply(total, h / 6.0, out=total)
            np.add(y, total, out=y)
            if not np.isfinite(y).all():
                machine = int(np.flatnonzero(~np.isfinite(y).all(axis=0))[0])
                raise DivergenceError(
                    f"integration diverged at t={t:.6g}s (machine {machine})",
                    t=t, machine=machine)
            if step % every == 0 or step == n_steps:
                samples[:, record], times[record] = y, t
                record += 1
    return Trajectory(times=times, delta=samples[0], omega_dev=samples[1], source="rk4")


def fault_on_bootstrap(case: PowerSystemCase,
                       cfg: IntegratorConfig = IntegratorConfig()):
    """Integrate the fault-on interval from the pre-fault equilibrium.

    Returns the machine state at the clearing instant (rotor state is
    continuous across the topology switch) and the fault-on trajectory.
    """
    case = initialized_case(case)
    ev = case.events
    if ev is None or ev.fault_bus is None:
        raise ValidationError("case has no fault event to bootstrap from")
    eq = equilibrium_state(case.generators)
    if ev.t_clear == ev.t_fault:
        traj = Trajectory(times=np.array([ev.t_fault]),
                          delta=eq.delta[None, :], omega_dev=eq.omega_dev[None, :],
                          source="rk4")
        return eq, traj
    rhs_fault = SwingRhsParams.from_case(case, "fault_on")
    try:
        traj = integrate(rhs_fault, eq, ev.t_clear - ev.t_fault, cfg, t0=ev.t_fault)
    except ValidationError as exc:
        raise ValidationError(
            f"fault-on interval events.t_clear - events.t_fault: {exc}") from exc
    return traj.final_state, traj


# ---------------------------------------------------------------------------
# Trajectory comparison


@dataclass(frozen=True)
class CompareReport:
    """Per-machine angle-error summary between two trajectories.

    Errors are absolute rotor-angle differences, or differences of angles
    relative to ``reference`` (machine position) when one is given. ``b``
    was resampled onto ``a``'s time grid by cubic interpolation.
    """

    times: np.ndarray
    max_abs_err: np.ndarray
    rmse: np.ndarray
    t_at_max: np.ndarray
    reference: int | None

    @property
    def overall_max(self) -> float:
        return float(self.max_abs_err.max())

    @property
    def overall_t(self) -> float:
        return float(self.t_at_max[int(self.max_abs_err.argmax())])

    def rows(self):
        for i in range(self.max_abs_err.size):
            yield (i + 1, float(self.max_abs_err[i]), float(self.rmse[i]),
                   float(self.t_at_max[i]))

    def format(self) -> str:
        ref = "absolute" if self.reference is None else f"relative to machine {self.reference + 1}"
        lines = [f"angle errors ({ref}), {self.times.size} compared samples",
                 f"{'machine':>8} {'max|d_delta|':>14} {'rmse':>12} {'t_at_max':>10}"]
        for m, mx, rm, tm in self.rows():
            lines.append(f"{m:>8d} {mx:>14.6g} {rm:>12.6g} {tm:>10.6g}")
        lines.append(f"overall max {self.overall_max:.6g} rad at t={self.overall_t:.6g}s")
        return "\n".join(lines)


def _resample(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    if times.size == traj.times.size and np.array_equal(times, traj.times):
        return traj.delta
    if traj.times.size >= 4:
        return CubicSpline(traj.times, traj.delta, axis=0)(times)
    out = np.empty((times.size, traj.k))
    for i in range(traj.k):
        out[:, i] = np.interp(times, traj.times, traj.delta[:, i])
    return out


def compare(a: Trajectory, b: Trajectory,
            reference_machine: int | None = None) -> CompareReport:
    """Angle-error report of ``b`` against ``a`` over their common time range."""
    if a.k != b.k:
        raise ValidationError(f"machine counts differ ({a.k} vs {b.k})")
    lo = max(a.times[0], b.times[0])
    hi = min(a.times[-1], b.times[-1])
    if hi < lo - 1e-12:
        raise ValidationError("trajectories have disjoint time ranges")
    mask = (a.times >= lo - 1e-12) & (a.times <= hi + 1e-12)
    times = a.times[mask]
    if times.size == 0:
        raise ValidationError("no comparison samples in the overlapping range")
    da = a.delta[mask]
    db = _resample(b, times)
    if reference_machine is not None:
        if not (0 <= reference_machine < a.k):
            raise ValidationError(f"reference machine {reference_machine} out of range")
        da = da - da[:, reference_machine:reference_machine + 1]
        db = db - db[:, reference_machine:reference_machine + 1]
    err = np.abs(db - da)
    idx = err.argmax(axis=0)
    return CompareReport(
        times=times,
        max_abs_err=err.max(axis=0),
        rmse=np.sqrt((err ** 2).mean(axis=0)),
        t_at_max=times[idx],
        reference=reference_machine,
    )
